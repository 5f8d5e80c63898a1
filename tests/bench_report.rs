//! The measured-attribution benchmark layer, end to end: the committed
//! `BENCH_<network>.json` baselines stay reproducible from this tree, the
//! per-layer cycle attribution sums to the trace's measured busy cycles,
//! the interpreter oracle and the compiled tier agree over whole
//! training iterations and reproduce the committed functional drill, and
//! the byte gate fails perturbed baselines, naming the leaf each moved.
//! Property tests
//! pin the `Hist::percentile` estimator and `MetricsRegistry::merge`
//! invariants the reports are built on.

use proptest::prelude::*;
use scaledeep::report::bench_inputs;
use scaledeep::{seeded_iteration, Session, TraceConfig};
use scaledeep_arch::{presets, DesignPoint, Precision};
use scaledeep_compiler::codegen::BufferLoc;
use scaledeep_compiler::CompiledArtifact;
use scaledeep_dnn::{zoo, Network};
use scaledeep_sim::func::{ExecBackend, FuncSim, RunStats};
use scaledeep_sim::perf::{PerfOptions, RunKind};
use scaledeep_trace::json::{self, check_document, Json};
use scaledeep_trace::MetricsRegistry;

/// Reads a committed baseline's text from the repository root.
fn committed_text(network: &str) -> String {
    let path = format!("{}/BENCH_{network}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn committed_baselines_reproduce_exactly() {
    // The simulator is deterministic and the report carries no host time:
    // a fresh report of a committed baseline's network must render to the
    // committed bytes, so the CI gate never flakes and any drift is a real
    // model change. `alexnet-func` also carries the functional drill, run
    // on the compiled tier.
    for network in ["alexnet", "cnn-s", "alexnet-func"] {
        let text = committed_text(network);
        let inputs = bench_inputs(&text).unwrap_or_else(|e| panic!("BENCH_{network}.json: {e}"));
        assert_eq!(
            (inputs.network.as_str(), inputs.kind, inputs.precision),
            (network, RunKind::Training, Precision::Single)
        );
        let session = Session::single_precision();
        let fresh = session
            .bench_report(
                &zoo::by_name(network).expect("zoo network"),
                RunKind::Training,
            )
            .expect("benchmark simulates");
        assert!(
            fresh.to_json() == text,
            "{network}: fresh report is not byte-identical to BENCH_{network}.json"
        );
    }
}

/// Training iterations per tier in the whole-network oracle: one
/// warm-up, then the five the `repro --sweep` drill times.
const ORACLE_ITERATIONS: usize = 6;

/// Runs [`ORACLE_ITERATIONS`] training iterations of `net` from
/// `artifact` on `tier`, seeded like the session's functional drill
/// ([`seeded_iteration`]), and returns every iteration's statistics with
/// the simulator, for its final state.
fn tier_iterations(
    net: &Network,
    artifact: &CompiledArtifact,
    tier: ExecBackend,
) -> (Vec<RunStats>, FuncSim) {
    let (mut fsim, image, golden) = seeded_iteration(net, artifact).expect("seeded setup");
    fsim.set_backend(tier);
    let stats = (0..ORACLE_ITERATIONS)
        .map(|_| fsim.run_iteration(&image, &golden).expect("iteration runs"))
        .collect();
    (stats, fsim)
}

#[test]
fn alexnet_func_tiers_match_the_committed_drill() {
    // The interpreter oracle over a whole network, on the preset node and
    // on the node with the wheel spoke lifted to arc bandwidth: the same
    // seeded training iterations on both tiers must give equal
    // statistics, iteration by iteration, and bit-equal final state
    // (learning state, activations, errors: every layer buffer). On the
    // preset node the first iteration's statistics are the committed
    // drill's.
    let net = zoo::alexnet_func();
    let mut lifted = presets::single_precision();
    lifted.cluster.spoke_bw = lifted.cluster.arc_bw;
    for (label, node) in [("preset", presets::single_precision()), ("lifted", lifted)] {
        let artifact = Session::with_node(node)
            .compile(&net)
            .expect("alexnet-func compiles");
        let (interp, isim) = tier_iterations(&net, &artifact, ExecBackend::Interpreter);
        let (compiled, csim) = tier_iterations(&net, &artifact, ExecBackend::Compiled);
        assert_eq!(interp, compiled, "{label}: RunStats differ across tiers");
        assert!(compiled[0].cycles > 0, "{label}");
        assert!(
            isim.checkpoint() == csim.checkpoint(),
            "{label}: checkpoints differ"
        );
        let bits = |sim: &FuncSim, loc: Option<BufferLoc>| {
            loc.map(|loc| {
                sim.read_buffer(loc)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            })
        };
        let layout = artifact.functional().expect("a functional compile");
        for (i, b) in layout.buffers.iter().enumerate() {
            for (what, loc) in [
                ("output", b.output),
                ("pre", b.pre),
                ("err", b.err),
                ("dz", b.dz),
                ("weights", b.weights),
                ("weights_t", b.weights_t),
                ("wgrad", b.wgrad),
            ] {
                assert!(
                    bits(&isim, loc) == bits(&csim, loc),
                    "{label}: layer {i} {what} differs across tiers"
                );
            }
        }
        if label == "preset" {
            let doc = json::parse(&committed_text("alexnet-func")).expect("the baseline parses");
            let drill = doc
                .field("functional")
                .expect("the baseline has a drill key");
            let count = |key| {
                drill
                    .count_field::<u64>(key)
                    .unwrap_or_else(|e| panic!("$.functional: {e}"))
            };
            assert_eq!(
                (
                    compiled[0].cycles,
                    compiled[0].instructions,
                    compiled[0].stalls
                ),
                (count("cycles"), count("instructions"), count("stalls"))
            );
        }
    }
}

#[test]
fn attribution_sums_to_measured_stage_busy_cycles() {
    // Acceptance: the report's per-layer cycles must sum (exactly — the
    // apportionment is largest-remainder) to the busy cycles a traced
    // run's record measured.
    let session = Session::single_precision();
    let net = zoo::alexnet();
    let traced = session
        .run_traced(&net, RunKind::Training, &TraceConfig::default())
        .expect("alexnet simulates");
    let report = session
        .bench_report(&net, RunKind::Training)
        .expect("alexnet benches");

    let measured = traced.perf.busy_cycles();
    assert!(measured > 0);
    assert_eq!(report.perf.busy_cycles(), measured);
    let layer_sum: u64 = report
        .attribution
        .layers
        .iter()
        .map(|l| l.busy_cycles)
        .sum();
    assert_eq!(layer_sum, measured);
}

#[test]
fn layer_sequential_bench_report_attributes_every_stage() {
    // Ablation A4 runs no inter-layer pipeline, yet its run record still
    // carries every stage's busy cycles (each image once per stage), so
    // the report builds and its per-layer cycles sum to the total: the
    // busy cycles plus the syncs fill the whole window.
    let session = Session::single_precision().with_options(PerfOptions {
        layer_sequential: true,
        ..PerfOptions::default()
    });
    for kind in [RunKind::Training, RunKind::Evaluation] {
        let report = session
            .bench_report(&zoo::alexnet(), kind)
            .unwrap_or_else(|e| panic!("A4 {kind:?} bench report: {e}"));
        let (attr, perf) = (&report.attribution, &report.perf);
        let layer_sum: u64 = attr.layers.iter().map(|l| l.busy_cycles).sum();
        assert!(layer_sum > 0, "{kind:?}");
        assert_eq!(layer_sum, perf.busy_cycles(), "{kind:?}");
        assert_eq!(
            perf.busy_cycles() + perf.sync_cycles,
            perf.window_cycles,
            "{kind:?}"
        );
        for l in &attr.layers {
            assert_eq!(
                l.busy_cycles,
                perf.images_done * l.service_cycles.max(1),
                "{kind:?} {}",
                l.name
            );
        }
    }
}

/// The value at `path` (object keys or array indices, outermost first).
fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(doc, |at, key| {
        match at {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            Json::Arr(items) => key.parse().ok().and_then(|i: usize| items.get_mut(i)),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no value at `{key}`"))
    })
}

/// Adds `delta` to the number at `path`, or multiplies it by `factor`.
fn nudge(doc: &mut Json, path: &[&str], factor: f64, delta: f64) {
    match at(doc, path) {
        Json::Num(n) => *n = *n * factor + delta,
        other => panic!("{other:?} is not a number"),
    }
}

/// An edit to a parsed baseline document.
type Edit = fn(&mut Json);

#[test]
fn gate_fails_every_perturbed_leaf_and_names_its_path() {
    // `repro --check` reads only the baseline's header, then requires a
    // fresh report to render to its exact bytes. Every edit below keeps
    // the header, so only the byte gate can catch it; each must fail,
    // naming the path the edit moved.
    let text = committed_text("alexnet");
    let fresh = Session::single_precision()
        .bench_report(&zoo::alexnet(), RunKind::Training)
        .expect("alexnet benches")
        .to_json();
    assert_eq!(check_document(&text, &fresh), Ok(()));

    let cases: [(&str, Edit); 13] = [
        ("$.layers[0].fp_cycles", |d| {
            // Sums kept: the pass split still adds up to busy_cycles.
            let c1 = at(d, &["layers", "0"]);
            let fp = at(c1, &["fp_cycles"]).clone();
            let bp = std::mem::replace(at(c1, &["bp_cycles"]), fp);
            *at(c1, &["fp_cycles"]) = bp;
        }),
        ("$.layers[0].grid_bytes", |d| {
            nudge(d, &["layers", "0", "grid_bytes"], 10.0, 0.0);
        }),
        ("$.layers[0].flops", |d| {
            nudge(d, &["layers", "0", "flops"], 2.0, 0.0);
        }),
        ("$.layers[0].joules_per_image", |d| {
            nudge(d, &["layers", "0", "joules_per_image"], 5.0, 0.0);
        }),
        ("$.provenance", |d| {
            *at(d, &["provenance"]) = Json::Str("0123456789abcdef".into());
        }),
        ("$.design.fingerprint", |d| {
            let half = DesignPoint::describe(&presets::half_precision());
            *at(d, &["design"]) = json::obj([
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", half.fingerprint())),
                ),
                ("point", half.to_json()),
            ]);
        }),
        ("$.functional", |d| {
            // Full-scale AlexNet has no functional compile; a drill grafted
            // on is a drift all the same.
            *at(d, &["functional"]) = json::obj([
                ("cycles", Json::Num(1000.0)),
                ("instructions", Json::Num(900.0)),
                ("stalls", Json::Num(10.0)),
            ]);
        }),
        ("$.totals.busy_cycles", |d| {
            // A dropped layer with the totals kept consistent: they come
            // first in the document.
            let Json::Arr(layers) = at(d, &["layers"]) else {
                panic!("layers is an array");
            };
            let mut dropped = layers.pop().expect("report has layers");
            let busy = at(&mut dropped, &["busy_cycles"])
                .as_num()
                .expect("a count");
            nudge(d, &["totals", "busy_cycles"], 1.0, -busy);
        }),
        ("$.totals.images_per_sec", |d| {
            nudge(d, &["totals", "images_per_sec"], 1.5, 0.0);
        }),
        ("$.occupancy.p95", |d| {
            nudge(d, &["occupancy", "p95"], 3.0, 0.0);
        }),
        ("$.layers[0].busy_cycles", |d| {
            // The layers no longer sum to the totals, while each layer's
            // pass and tile-class splits still add up.
            for field in ["busy_cycles", "fp_cycles", "comp_heavy_cycles"] {
                nudge(d, &["layers", "0", field], 1.0, 1.0);
            }
        }),
        ("$.design", |d| *at(d, &["design"]) = Json::Null),
        ("$.totals.window_cycles", |d| {
            *at(d, &["totals", "window_cycles"]) = Json::Num(-1.0);
        }),
    ];
    for (path, edit) in cases {
        let mut doc = json::parse(&text).expect("the baseline parses");
        edit(&mut doc);
        let perturbed = doc.render_pretty() + "\n";
        bench_inputs(&perturbed)
            .unwrap_or_else(|e| panic!("{path}: the header reader must accept the edit: {e}"));
        let err = check_document(&perturbed, &fresh)
            .expect_err(&format!("{path}: the gate passed a perturbed baseline"));
        assert!(err.contains(&format!("{path}:")), "{path}: {err}");
    }
}

/// Builds a histogram through the registry API.
fn hist_of(samples: &[f64]) -> scaledeep_trace::Hist {
    let mut reg = MetricsRegistry::new();
    let id = reg.histogram("h");
    for &s in samples {
        reg.observe(id, s);
    }
    reg.histogram_value("h").expect("registered").clone()
}

proptest! {
    #[test]
    fn percentile_stays_within_range_and_is_monotone(
        samples in prop::collection::vec(0.0f64..1e9, 1..64),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let h = hist_of(&samples);
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let (v_lo, v_hi) = (h.percentile(lo), h.percentile(hi));
        prop_assert!(v_lo >= h.min && v_lo <= h.max, "p{lo} = {v_lo} outside [{}, {}]", h.min, h.max);
        prop_assert!(v_lo <= v_hi, "p{lo} = {v_lo} > p{hi} = {v_hi}");
        prop_assert_eq!(h.percentile(0.0), h.min);
        prop_assert_eq!(h.percentile(100.0), h.max);
    }

    #[test]
    fn merge_adds_counters_and_histograms(
        a in prop::collection::vec(0u64..1_000_000, 1..8),
        b in prop::collection::vec(0u64..1_000_000, 1..8),
        sa in prop::collection::vec(0.0f64..1e6, 0..32),
        sb in prop::collection::vec(0.0f64..1e6, 0..32),
    ) {
        let build = |counters: &[u64], samples: &[f64]| {
            let mut reg = MetricsRegistry::new();
            for (i, &c) in counters.iter().enumerate() {
                let id = reg.counter(&format!("c{i}"));
                reg.add(id, c);
            }
            let h = reg.histogram("h");
            for &s in samples {
                reg.observe(h, s);
            }
            reg
        };
        let mut merged = build(&a, &sa);
        merged.merge(&build(&b, &sb));

        // Counters add (missing-on-one-side counters carry through).
        for i in 0..a.len().max(b.len()) {
            let want = a.get(i).copied().unwrap_or(0) + b.get(i).copied().unwrap_or(0);
            prop_assert_eq!(merged.counter_value(&format!("c{i}")), Some(want));
        }
        // Histograms merge bucket-wise: counts and sums add, the range
        // hull is kept, and percentiles stay inside it.
        let h = merged.histogram_value("h").expect("merged hist");
        prop_assert_eq!(h.count, (sa.len() + sb.len()) as u64);
        let want_sum: f64 = sa.iter().chain(&sb).sum();
        prop_assert!((h.sum - want_sum).abs() <= 1e-6 * want_sum.max(1.0));
        if h.count > 0 {
            let p95 = h.percentile(95.0);
            prop_assert!(p95 >= h.min && p95 <= h.max);
        }
    }
}
