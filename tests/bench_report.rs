//! The measured-attribution benchmark layer, end to end: the committed
//! `BENCH_<network>.json` baselines stay reproducible from this tree, the
//! per-layer cycle attribution sums to the trace's measured busy cycles,
//! and the regression differ catches perturbed baselines. Property tests
//! pin the `Hist::percentile` estimator and `MetricsRegistry::merge`
//! invariants the reports are built on.

use proptest::prelude::*;
use scaledeep::{BenchReport, Session, TraceConfig, BENCH_SCHEMA_VERSION};
use scaledeep_dnn::zoo;
use scaledeep_sim::perf::RunKind;
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
    // model change. `alexnet-func` also carries the functional drill on
    // the default (interpreter) tier.
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
        let fails = fresh.check_against(&baseline, 1e-9);
        assert!(fails.is_empty(), "{network} drifted: {fails:#?}");
        assert!(
            fresh.to_json() == text,
            "{network}: fresh report is not byte-identical to BENCH_{network}.json"
        );
    }
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
fn differ_flags_a_perturbed_baseline() {
    let baseline = committed_baseline("alexnet");
    let session = Session::single_precision();
    let fresh = session
        .bench_report(&zoo::alexnet(), RunKind::Training)
        .expect("alexnet benches");

    let mut perturbed = baseline.clone();
    perturbed.totals.images_per_sec *= 1.5;
    perturbed.occupancy.p95 *= 3.0;
    let fails = fresh.check_against(&perturbed, 0.05);
    assert!(
        fails.iter().any(|f| f.contains("images_per_sec")),
        "{fails:?}"
    );
    assert!(
        fails.iter().any(|f| f.contains("occupancy.p95")),
        "{fails:?}"
    );
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
