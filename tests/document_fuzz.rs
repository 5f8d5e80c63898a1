//! Fuzzes the readers of the committed gate documents: the BENCH header
//! reader (`report::bench_inputs`) and the DSE reader
//! (`DseReport::from_json`). Each case starts from a committed document,
//! replaces a random subtree with a random JSON value or drops a random
//! key or element, and feeds the result to both readers. Neither may
//! panic, and every DSE document the reader accepts must stay within the
//! sweep's candidate limit, so `repro dse --check` can re-run it; a
//! second property sizes the smoke sweep at random and requires the DSE
//! reader to accept exactly the sweeps within that limit.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use scaledeep::dse::{check_candidates, DseReport, MAX_CANDIDATES};
use scaledeep::report::bench_inputs;
use scaledeep_trace::json::{self, Json};
use std::sync::OnceLock;

/// The committed documents every case starts from.
const DOCUMENTS: [&str; 4] = [
    "BENCH_alexnet.json",
    "BENCH_cnn-s.json",
    "BENCH_alexnet-func.json",
    "BENCH_dse-smoke.json",
];

/// The parsed committed documents, read once.
fn documents() -> &'static [Json] {
    static DOCS: OnceLock<Vec<Json>> = OnceLock::new();
    DOCS.get_or_init(|| {
        DOCUMENTS
            .iter()
            .map(|name| {
                let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
                json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
            })
            .collect()
    })
}

/// Numbers the readers treat specially: counts at and past the exact
/// integer range and the candidate limit, fractions, negatives, zero,
/// and arbitrary finite bit patterns.
fn any_num(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 10] = [
        0.0,
        1.0,
        -1.0,
        0.5,
        6.0,
        65_536.0,
        65_537.0,
        9_007_199_254_740_992.0,
        1e15,
        1e308,
    ];
    match rng.below(3) {
        0 => EDGES[rng.below(EDGES.len())],
        1 => rng.below(100) as f64,
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|n| n.is_finite())
            .unwrap_or(2.5),
    }
}

/// Strings the readers match on, plus ones they must reject.
const WORDS: [&str; 14] = [
    "training",
    "evaluation",
    "grid",
    "sample",
    "single",
    "half",
    "clusters",
    "frequency-mhz",
    "precision",
    "alexnet",
    "0123456789abcdef",
    "",
    "\u{0}",
    "é",
];

/// Object keys: the documents' own, so replacement objects can pass
/// field lookups and reach deeper checks.
const KEYS: [&str; 10] = [
    "schema_version",
    "mode",
    "n",
    "seed",
    "knob",
    "values",
    "kind",
    "network",
    "precision",
    "label",
];

/// JSON trees nesting arrays and objects up to `depth` levels.
#[derive(Debug, Clone, Copy)]
struct AnyJson {
    depth: usize,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let child = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(if self.depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.bool()),
            2 => Json::Num(any_num(rng)),
            3 => Json::Str(WORDS[rng.below(WORDS.len())].to_string()),
            4 => Json::Arr((0..rng.below(4)).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (KEYS[rng.below(KEYS.len())].to_string(), child.generate(rng)))
                    .collect(),
            ),
        }
    }
}

/// One edit of one committed document. `node` picks a node of the
/// document's pre-order walk, modulo its size.
#[derive(Debug, Clone)]
struct Edit {
    document: usize,
    node: u64,
    /// `Some`: replace the node's subtree; `None`: drop the node from
    /// its parent object or array (the root is replaced by `null`).
    value: Option<Json>,
}

#[derive(Debug, Clone, Copy)]
struct AnyEdit;

impl Strategy for AnyEdit {
    type Value = Edit;

    fn generate(&self, rng: &mut TestRng) -> Edit {
        Edit {
            document: rng.below(DOCUMENTS.len()),
            node: rng.next_u64(),
            value: rng.bool().then(|| AnyJson { depth: 2 }.generate(rng)),
        }
    }
}

/// The children of a JSON node.
fn children_mut(v: &mut Json) -> Vec<&mut Json> {
    match v {
        Json::Arr(items) => items.iter_mut().collect(),
        Json::Obj(fields) => fields.iter_mut().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    }
}

/// Number of nodes in the tree, the root included.
fn size(v: &Json) -> u64 {
    1 + match v {
        Json::Arr(items) => items.iter().map(size).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| size(v)).sum(),
        _ => 0,
    }
}

/// Applies the edit to node `n` (pre-order) of `parent`'s subtree;
/// `n == 0` is `parent` itself, which only a replacement can reach.
fn apply(parent: &mut Json, mut n: u64, value: Option<Json>) {
    if n == 0 {
        *parent = value.unwrap_or(Json::Null);
        return;
    }
    n -= 1;
    let mut hit = None;
    for (i, child) in children_mut(parent).into_iter().enumerate() {
        let len = size(child);
        if n < len {
            hit = Some((i, n));
            break;
        }
        n -= len;
    }
    let (i, n) = hit.expect("n is within the tree");
    match (n, value, parent) {
        (0, None, Json::Arr(items)) => {
            items.remove(i);
        }
        (0, None, Json::Obj(fields)) => {
            fields.remove(i);
        }
        (n, value, parent) => {
            let child = children_mut(parent).swap_remove(i);
            apply(child, n, value);
        }
    }
}

#[test]
fn committed_documents_pass_their_readers() {
    let docs = documents();
    for (name, doc) in DOCUMENTS.iter().zip(docs) {
        let text = doc.render_pretty();
        if name.starts_with("BENCH_dse") {
            let report = DseReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(check_candidates(&report.space(), report.expansion), Ok(()));
        } else {
            bench_inputs(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn readers_never_panic_on_an_edited_document(edit in AnyEdit) {
        let mut doc = documents()[edit.document].clone();
        let node = edit.node % size(&doc);
        apply(&mut doc, node, edit.value);
        let text = doc.render_pretty();
        let _ = bench_inputs(&text);
        if let Ok(report) = DseReport::from_json(&text) {
            prop_assert_eq!(check_candidates(&report.space(), report.expansion), Ok(()));
        }
    }

    #[test]
    fn dse_reader_accepts_exactly_the_sweeps_within_the_limit(
        axes in 0usize..48,
        values in 1usize..4,
        sample in any::<bool>(),
        n in 0u64..200_000,
    ) {
        let mut doc = documents()[3].clone();
        let Json::Obj(fields) = &mut doc else {
            panic!("a DSE document is an object");
        };
        let mut set = |key: &str, value: Json| {
            fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no `{key}`"))
                .1 = value;
        };
        let axis = json::obj([
            ("knob", Json::Str("clusters".to_string())),
            ("values", Json::Arr(vec![Json::Num(2.0); values])),
        ]);
        set("axes", Json::Arr(vec![axis; axes]));
        let count = if sample {
            set(
                "expansion",
                json::obj([
                    ("mode", Json::Str("sample".to_string())),
                    ("n", Json::Num(n as f64)),
                    ("seed", Json::Num(1.0)),
                ]),
            );
            Some(n)
        } else {
            (values as u64).checked_pow(axes as u32)
        };
        let within = count.is_some_and(|c| c <= MAX_CANDIDATES);
        let read = DseReport::from_json(&doc.render_pretty());
        prop_assert_eq!(read.is_ok(), within, "{:?} candidates: {:?}", count, read.err());
    }
}
