//! Committed documents re-derive byte for byte from this tree: the
//! `repro` experiment output (`docs/repro_output.txt`), the DSE smoke
//! sweep (`BENCH_dse-smoke.json`) and the seed-42 chaos drill
//! (`BENCH_serve-drill.json`). A change that moves any of them must
//! refresh the file on purpose. The BENCH run reports are re-derived in
//! `bench_report.rs`.

use scaledeep::dse::{self, DseConfig, DseReport};
use scaledeep::experiments::{run_by_id, EXPERIMENT_IDS};
use scaledeep::Session;
use scaledeep_dnn::zoo;
use scaledeep_serve::run_drill;
use scaledeep_trace::json::{self, Json};

const REPRO_OUTPUT: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/docs/repro_output.txt"
));

const DSE_SMOKE: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_dse-smoke.json"));

const SERVE_DRILL: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/BENCH_serve-drill.json"
));

/// The first line where `fresh` departs from `committed`, with its line
/// number and the title of the table it sits in; `None` when equal.
fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let (mut old, mut new) = (committed.lines(), fresh.lines());
    let mut title = "(before the first table)";
    for number in 1.. {
        let (a, b) = (old.next(), new.next());
        if a == b && a.is_some() {
            if let Some(line) = a.filter(|l| l.starts_with("== ")) {
                title = line;
            }
            continue;
        }
        if a.is_none() && b.is_none() {
            return Some("the lines agree; only the line endings differ".to_string());
        }
        return Some(format!(
            "line {number}, in table {title}:\n  committed: {}\n  fresh:     {}",
            a.unwrap_or("(end of file)"),
            b.unwrap_or("(end of file)")
        ));
    }
    unreachable!("the line counter is unbounded")
}

#[test]
fn repro_output_reproduces_exactly() {
    // `repro` with no arguments: every experiment in id order, each
    // table followed by a blank line.
    let mut fresh = String::new();
    for id in EXPERIMENT_IDS {
        let tables = run_by_id(id).unwrap_or_else(|| panic!("`{id}` is an experiment id"));
        for table in tables {
            fresh.push_str(&format!("{table}\n"));
        }
    }
    if let Some(diff) = first_difference(REPRO_OUTPUT, &fresh) {
        panic!("docs/repro_output.txt no longer matches `repro`: {diff}");
    }
}

#[test]
fn dse_smoke_sweep_reproduces_exactly() {
    // `repro dse --check BENCH_dse-smoke.json`: the document embeds its
    // own inputs, so the re-run needs nothing else.
    let baseline = DseReport::from_json(DSE_SMOKE).expect("the committed sweep parses");
    let net = zoo::by_name(&baseline.network).expect("the sweep names a benchmark");
    let cfg = DseConfig {
        suite: baseline.suite.clone(),
        kind: baseline.kind,
        expansion: baseline.expansion,
        ..DseConfig::default()
    };
    let fresh = dse::run(&Session::single_precision(), &net, &baseline.space(), &cfg);
    if let Err(diff) = json::check_document(DSE_SMOKE, &fresh.to_json()) {
        panic!("BENCH_dse-smoke.json no longer matches its sweep: {diff}");
    }
}

#[test]
fn serve_drill_document_reproduces_exactly() {
    // `repro serve-drill --seed 42 --write-bench`: the document names
    // its seed, the drill's only input.
    let committed = json::parse(SERVE_DRILL).expect("the committed drill parses");
    let seed = committed
        .get("seed")
        .and_then(Json::as_num)
        .expect("the drill document names its seed");
    let fresh = run_drill(seed as u64).to_bench_json();
    if let Err(diff) = json::check_document(SERVE_DRILL, &fresh) {
        panic!("BENCH_serve-drill.json no longer matches its drill: {diff}");
    }
}

#[test]
fn a_difference_names_its_line_and_table() {
    let committed = "== A ==\nx 1\n\n== B ==\ny 2\nz 3\n";
    assert_eq!(first_difference(committed, committed), None);
    let diff = first_difference(committed, "== A ==\nx 1\n\n== B ==\ny 2\nz 4\n")
        .expect("the documents differ");
    assert!(diff.starts_with("line 6, in table == B ==:"), "{diff}");
    assert!(
        diff.contains("committed: z 3") && diff.contains("fresh:     z 4"),
        "{diff}"
    );
    let diff = first_difference(committed, "== A ==\nx 1\n").expect("truncated");
    assert!(
        diff.contains("line 3, in table == A ==") && diff.contains("(end of file)"),
        "{diff}"
    );
}
