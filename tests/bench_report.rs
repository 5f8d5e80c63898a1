//! The measured-attribution benchmark layer, end to end: the committed
//! `BENCH_<network>.json` baselines stay reproducible from this tree, the
//! per-layer cycle attribution sums to the trace's measured busy cycles,
//! the interpreter oracle reproduces the committed functional drill, and
//! the byte gate fails perturbed baselines, naming the leaf each moved.
//! Property tests
//! pin the `Hist::percentile` estimator and `MetricsRegistry::merge`
//! invariants the reports are built on.

use proptest::prelude::*;
use scaledeep::report::{BenchDesign, BenchFunctional};
use scaledeep::{BenchReport, Session, TraceConfig, BENCH_SCHEMA_VERSION};
use scaledeep_arch::presets;
use scaledeep_dnn::zoo;
use scaledeep_sim::perf::{PerfOptions, RunKind};
use scaledeep_trace::json::check_document;
use scaledeep_trace::MetricsRegistry;

/// Reads a committed baseline's text from the repository root.
fn committed_text(network: &str) -> String {
    let path = format!("{}/BENCH_{network}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Reads and parses a committed baseline.
fn committed_baseline(network: &str) -> BenchReport {
    BenchReport::from_json(&committed_text(network))
        .unwrap_or_else(|e| panic!("BENCH_{network}.json: {e}"))
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
        let baseline = committed_baseline(network);
        assert_eq!(baseline.schema_version, BENCH_SCHEMA_VERSION);
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

#[test]
fn alexnet_func_tiers_match_the_committed_drill() {
    // The interpreter oracle over a whole network, on the unmodified
    // preset node: the same seeded training iteration on both tiers must
    // give equal statistics and bit-equal learning state, activations
    // and errors, and those statistics are the committed drill's.
    let x = Session::single_precision()
        .cross_check(&zoo::alexnet_func())
        .expect("alexnet-func cross-checks");
    assert_eq!(
        x.functional, x.compiled_tier,
        "RunStats differ across tiers"
    );
    assert!(x.tiers_identical, "tier state diverged");
    let drill = committed_baseline("alexnet-func")
        .functional
        .expect("BENCH_alexnet-func.json carries a functional drill");
    assert_eq!(
        (
            x.functional.cycles,
            x.functional.instructions,
            x.functional.stalls
        ),
        (drill.cycles, drill.instructions, drill.stalls)
    );
}

#[test]
fn attribution_sums_to_measured_stage_busy_cycles() {
    // Acceptance: the report's per-layer cycles must sum (exactly — the
    // apportionment is largest-remainder) to the busy cycles the trace's
    // stage counters measured.
    let session = Session::single_precision();
    let net = zoo::alexnet();
    let traced = session
        .run_traced(&net, RunKind::Training, &TraceConfig::default())
        .expect("alexnet simulates");
    let report = session
        .bench_report(&net, RunKind::Training)
        .expect("alexnet benches");

    let mut measured = 0u64;
    for i in 0.. {
        match traced
            .trace
            .metrics
            .counter_value(&format!("perf.stage.{i:02}.busy"))
        {
            Some(c) => measured += c,
            None => break,
        }
    }
    assert!(measured > 0);
    assert_eq!(report.totals.busy_cycles, measured);
    let layer_sum: u64 = report.layers.iter().map(|l| l.busy_cycles).sum();
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
        let layer_sum: u64 = report.layers.iter().map(|l| l.busy_cycles).sum();
        assert!(layer_sum > 0, "{kind:?}");
        assert_eq!(layer_sum, report.totals.busy_cycles, "{kind:?}");
        assert_eq!(
            report.totals.busy_cycles + report.totals.sync_cycles,
            report.totals.window_cycles,
            "{kind:?}"
        );
        for l in &report.layers {
            assert_eq!(
                l.busy_cycles,
                report.totals.images_done * l.service_cycles.max(1),
                "{kind:?} {}",
                l.name
            );
        }
    }
}

/// An edit to a typed report, before it is rendered.
type Mutation = fn(&mut BenchReport);

#[test]
fn gate_fails_every_perturbed_leaf_and_names_its_path() {
    // `repro --check` reads the baseline through the schema reader, then
    // requires a fresh report to render to its exact bytes. Every
    // mutation below passes the reader, so only the byte gate can catch
    // it; each must fail, naming the path the mutation moved.
    let text = committed_text("alexnet");
    let baseline = committed_baseline("alexnet");
    let fresh = Session::single_precision()
        .bench_report(&zoo::alexnet(), RunKind::Training)
        .expect("alexnet benches")
        .to_json();
    assert_eq!(check_document(&text, &fresh), Ok(()));

    let cases: [(&str, Mutation); 10] = [
        ("$.layers[0].fp_cycles", |r| {
            // Sums kept: the reader's pass invariant still holds.
            let c1 = &mut r.layers[0];
            std::mem::swap(&mut c1.fp_cycles, &mut c1.bp_cycles);
        }),
        ("$.layers[0].grid_bytes", |r| r.layers[0].grid_bytes *= 10.0),
        ("$.layers[0].flops", |r| r.layers[0].flops *= 2),
        ("$.layers[0].joules_per_image", |r| {
            r.layers[0].joules_per_image *= 5.0;
        }),
        ("$.provenance", |r| r.provenance = "0123456789abcdef".into()),
        ("$.design.fingerprint", |r| {
            r.design = BenchDesign::describe(&presets::half_precision());
        }),
        ("$.functional", |r| {
            // Full-scale AlexNet has no functional compile; a drill grafted
            // on is a drift all the same.
            r.functional = Some(BenchFunctional {
                cycles: 1000,
                instructions: 900,
                stalls: 10,
            });
        }),
        ("$.totals.busy_cycles", |r| {
            // The reader requires the layers to sum to the totals, which
            // come first in the document.
            let dropped = r.layers.pop().expect("report has layers");
            r.totals.busy_cycles -= dropped.busy_cycles;
        }),
        ("$.totals.images_per_sec", |r| {
            r.totals.images_per_sec *= 1.5
        }),
        ("$.occupancy.p95", |r| r.occupancy.p95 *= 3.0),
    ];
    for (path, mutate) in cases {
        let mut perturbed = baseline.clone();
        mutate(&mut perturbed);
        let perturbed = perturbed.to_json();
        BenchReport::from_json(&perturbed)
            .unwrap_or_else(|e| panic!("{path}: the reader must accept the mutation: {e}"));
        let err = check_document(&perturbed, &fresh)
            .expect_err(&format!("{path}: the gate passed a perturbed baseline"));
        assert!(err.contains(&format!("{path}:")), "{path}: {err}");
    }
}

#[test]
fn bench_json_round_trips_for_both_networks() {
    for network in ["alexnet", "cnn-s"] {
        let baseline = committed_baseline(network);
        let back = BenchReport::from_json(&baseline.to_json()).expect("re-render parses");
        assert_eq!(back, baseline);
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
