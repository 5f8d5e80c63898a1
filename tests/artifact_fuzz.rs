//! Fuzzes the artifact loader (`artifact_io::load`) and the session's
//! on-disk store behind it. Each case takes a stored artifact — cnn-s
//! (a mapping with an `err` functional verdict), alexnet-func (programs
//! under an `ok` verdict) or a degraded cnn-s compile (failed columns) —
//! and damages it: truncates it at a random byte, flips one byte,
//! replaces or drops a random subtree, or swaps two members of a random
//! object. `load` must never panic, and must reject every truncation and
//! every swap: a stored file is trusted only if it is exactly what `save`
//! writes, give or take whitespace. A fresh `Session` over the damaged
//! store must then agree with `load`: a rejected file (or one filed under
//! another key) is counted `corrupt`, quarantined, and recompiled into an
//! artifact equal to a fresh compile; an accepted one is a disk hit. A
//! second test round-trips every zoo network, alexnet-func and the
//! degraded compile byte-identically through `save` and `load`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use scaledeep::{CompileOptions, FailedTiles, Observer, Session};
use scaledeep_arch::presets;
use scaledeep_compiler::{artifact_io, pipeline, CompiledArtifact};
use scaledeep_dnn::{zoo, Network};
use scaledeep_trace::json::{self, Json};
use std::path::PathBuf;
use std::sync::OnceLock;

/// One stored artifact and what produced it.
struct Stored {
    net: Network,
    opts: CompileOptions,
    /// The cache key the session files it under.
    key: u64,
    /// The bytes `save` wrote, which a fresh compile re-renders to.
    text: String,
    tree: Json,
}

/// The text `save` writes for an artifact.
fn rendered(artifact: &CompiledArtifact) -> String {
    artifact_io::to_json(artifact).render_pretty()
}

fn stored(name: &str, opts: CompileOptions) -> Stored {
    let net = zoo::by_name(name).expect("zoo network");
    let artifact = pipeline::compile(&presets::single_precision(), &net, &opts).expect("compiles");
    let text = rendered(&artifact);
    Stored {
        key: artifact.provenance().cache_key(),
        tree: json::parse(&text).expect("a saved artifact parses"),
        net,
        opts,
        text,
    }
}

fn degraded() -> CompileOptions {
    CompileOptions::degraded(FailedTiles::from_columns([0, 3]))
}

/// The artifacts every case starts from, compiled once.
fn documents() -> &'static [Stored] {
    static DOCS: OnceLock<Vec<Stored>> = OnceLock::new();
    DOCS.get_or_init(|| {
        vec![
            stored("cnn-s", CompileOptions::default()),
            stored("alexnet-func", CompileOptions::default()),
            stored("cnn-s", degraded()),
        ]
    })
}

/// A fresh, empty directory for this test process.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scaledeep-artifact-fuzz-{label}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Values the decoder treats specially: non-counts, non-decimals, wrong
/// kinds and the tags it matches on.
fn any_value(rng: &mut TestRng) -> Json {
    const NUMS: [f64; 7] = [
        0.0,
        1.0,
        -1.0,
        0.5,
        65_536.0,
        9_007_199_254_740_992.0,
        1e300,
    ];
    const WORDS: [&str; 9] = [
        "",
        "00",
        "zz",
        "é",
        "single",
        "conv",
        "codegen",
        "2",
        "18446744073709551616",
    ];
    match rng.below(6) {
        0 => Json::Null,
        1 => Json::Bool(rng.bool()),
        2 => Json::Num(NUMS[rng.below(NUMS.len())]),
        3 => Json::Str(WORDS[rng.below(WORDS.len())].to_string()),
        4 => Json::Arr((0..rng.below(3)).map(|_| Json::Num(1.0)).collect()),
        _ => json::obj([("kind", Json::Str("conv".to_string()))]),
    }
}

/// One way to damage a stored artifact. Positions are taken modulo the
/// document's size.
#[derive(Debug, Clone)]
enum Damage {
    /// Keep only the first `at` bytes: a torn write.
    Truncate { at: u64 },
    /// XOR one byte with a nonzero mask.
    Flip { at: u64, mask: u8 },
    /// Replace (`Some`) or drop (`None`) the pre-order `node`'s subtree.
    Subtree { node: u64, value: Option<Json> },
    /// Swap two members of one of the objects that have at least two.
    Swap { object: u64, pick: u64 },
}

#[derive(Debug, Clone)]
struct Case {
    document: usize,
    damage: Damage,
}

#[derive(Debug, Clone, Copy)]
struct AnyCase;

impl Strategy for AnyCase {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let damage = match rng.below(4) {
            0 => Damage::Truncate { at: rng.next_u64() },
            1 => Damage::Flip {
                at: rng.next_u64(),
                mask: 1 + rng.below(255) as u8,
            },
            2 => Damage::Subtree {
                node: rng.next_u64(),
                value: rng.bool().then(|| any_value(rng)),
            },
            _ => Damage::Swap {
                object: rng.next_u64(),
                pick: rng.next_u64(),
            },
        };
        Case {
            document: rng.below(documents().len()),
            damage,
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

/// Applies `n`'s edit: replace node `n` (pre-order, the root is 0) with
/// `value`, or drop it from its parent (the root is replaced by `null`).
fn edit_subtree(parent: &mut Json, mut n: u64, value: Option<Json>) {
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
            edit_subtree(child, n, value);
        }
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

/// Number of objects with at least two members.
fn swappable(v: &Json) -> u64 {
    let here = u64::from(matches!(v, Json::Obj(fields) if fields.len() >= 2));
    here + match v {
        Json::Arr(items) => items.iter().map(swappable).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| swappable(v)).sum(),
        _ => 0,
    }
}

/// Swaps two distinct members, chosen by `pick`, of the `k`-th (pre-order)
/// object with at least two members; returns whether that object was in
/// `v`, counting `k` down past the ones that were not it.
fn swap_members(v: &mut Json, k: &mut u64, pick: u64) -> bool {
    if let Json::Obj(fields) = v {
        let n = fields.len() as u64;
        if n >= 2 {
            if *k == 0 {
                let a = pick % n;
                let b = (a + 1 + (pick / n) % (n - 1)) % n;
                fields.swap(a as usize, b as usize);
                return true;
            }
            *k -= 1;
        }
    }
    children_mut(v)
        .into_iter()
        .any(|child| swap_members(child, k, pick))
}

/// The damaged file's bytes, and whether the loader must reject them.
fn damaged(doc: &Stored, damage: &Damage) -> (Vec<u8>, bool) {
    let mut bytes = doc.text.clone().into_bytes();
    let len = bytes.len() as u64;
    match damage {
        Damage::Truncate { at } => {
            bytes.truncate((at % len) as usize);
            (bytes, true)
        }
        Damage::Flip { at, mask } => {
            bytes[(at % len) as usize] ^= mask;
            (bytes, false)
        }
        Damage::Subtree { node, value } => {
            let mut tree = doc.tree.clone();
            let n = node % size(&tree);
            edit_subtree(&mut tree, n, value.clone());
            (tree.render_pretty().into_bytes(), false)
        }
        Damage::Swap { object, pick } => {
            let mut tree = doc.tree.clone();
            let mut k = object % swappable(&tree);
            assert!(swap_members(&mut tree, &mut k, *pick));
            (tree.render_pretty().into_bytes(), true)
        }
    }
}

#[test]
fn every_stored_artifact_round_trips_byte_identically() {
    let dir = scratch_dir("round-trip");
    let node = presets::single_precision();
    let mut compiles: Vec<(&str, CompileOptions)> = zoo::BENCHMARK_NAMES
        .into_iter()
        .map(|name| (name, CompileOptions::default()))
        .collect();
    compiles.push(("alexnet-func", CompileOptions::default()));
    compiles.push(("cnn-s", degraded()));
    for (i, (name, opts)) in compiles.iter().enumerate() {
        let net = zoo::by_name(name).expect("zoo network");
        let artifact = pipeline::compile(&node, &net, opts).expect("compiles");
        let path = dir.join(format!("{i}.artifact.json"));
        artifact_io::save(&artifact, &path).expect("saves");
        let text = std::fs::read_to_string(&path).expect("reads");
        let loaded = artifact_io::load(&path).expect("loads");
        assert_eq!(rendered(&loaded), text, "{name}: re-render");
        assert_eq!(loaded.mapping(), artifact.mapping(), "{name}");
        assert_eq!(loaded.provenance(), artifact.provenance(), "{name}");
        assert_eq!(loaded.lowered(), artifact.lowered(), "{name}");
        // Saving what was loaded writes the same bytes again.
        artifact_io::save(&loaded, &path).expect("re-saves");
        assert_eq!(
            std::fs::read_to_string(&path).expect("reads"),
            text,
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_artifacts_never_panic_and_are_never_trusted(case in AnyCase) {
        let doc = &documents()[case.document];
        let (bytes, must_reject) = damaged(doc, &case.damage);
        let dir = scratch_dir("case");
        let path = dir.join(format!("{:016x}.artifact.json", doc.key));
        std::fs::write(&path, &bytes).expect("writes");

        let loaded = artifact_io::load(&path);
        prop_assert!(!(must_reject && loaded.is_ok()), "{:?} was accepted", case.damage);
        let trusted = match &loaded {
            Ok(artifact) if artifact.provenance().cache_key() == doc.key => Some(rendered(artifact)),
            _ => None,
        };

        let session = Session::single_precision().with_artifact_dir(&dir);
        let got = session
            .compile_with(&doc.net, &doc.opts, Observer::Off)
            .expect("a session compiles past any stored file")
            .value;
        let stats = session.cache_stats();
        let counts = (stats.misses, stats.disk_hits, stats.corrupt);
        let quarantined = path.with_extension("json.corrupt").exists();
        match trusted {
            Some(text) => {
                prop_assert_eq!(counts, (0, 1, 0));
                prop_assert_eq!(rendered(&got), text);
                prop_assert!(!quarantined);
            }
            None => {
                prop_assert_eq!(counts, (1, 0, 1), "{:?}", case.damage);
                prop_assert!(quarantined, "{:?} was not quarantined", case.damage);
                prop_assert!(rendered(&got) == doc.text, "recompile differs from a fresh one");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
