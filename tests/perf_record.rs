//! The performance model's typed run record and its registry rendering
//! agree.
//!
//! `PerfSim::run` returns the typed record, `PerfResult`, the same under
//! any tracer; `PerfResult::write_metrics` renders it under the `perf.*`
//! names. Over every benchmark network, both run kinds, and a fault-free
//! and a seeded link-fault plan: the unobserved record equals the fully
//! traced one and the session's traced run, each typed field equals its
//! registry entry, and per-layer attribution built from an unobserved run
//! with an empty trace equals the one built from the full trace.

use scaledeep::{Attribution, Observer, Session, Trace, TraceConfig, TracedRun};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::{FaultPlan, LinkFaults};
use scaledeep_sim::perf::{PerfOptions, PerfResult, PerfSim, RunKind};
use scaledeep_trace::{MetricsRegistry, Tracer, VecSink};

/// Asserts that every typed field of `r` equals its entry in `reg`.
fn assert_rendered(r: &PerfResult, reg: &MetricsRegistry, what: &str) {
    let counter = |name: &str| {
        reg.counter_value(name)
            .unwrap_or_else(|| panic!("{what}: counter {name} missing"))
    };
    let gauge = |name: &str| {
        reg.gauge_value(name)
            .unwrap_or_else(|| panic!("{what}: gauge {name} missing"))
    };
    for (i, s) in r.stages.iter().enumerate() {
        let stage = |field: &str| format!("perf.stage.{i:02}.{field}");
        assert_eq!(counter(&stage("busy")), s.busy_cycles, "{what} stage {i}");
        assert_eq!(
            gauge(&stage("service_cycles")),
            s.service_cycles as f64,
            "{what} stage {i}"
        );
        let t = &s.tier_bytes;
        for (tier, bytes) in [("grid", t.grid), ("wheel", t.wheel), ("ring", t.ring)] {
            assert_eq!(
                gauge(&stage(&format!("bytes.{tier}"))),
                bytes,
                "{what} stage {i} {tier}"
            );
        }
    }
    assert_eq!(
        reg.counter_value(&format!("perf.stage.{:02}.busy", r.stages.len())),
        None,
        "{what}: a counter past the last stage"
    );
    assert_eq!(
        gauge("perf.window_cycles"),
        r.window_cycles as f64,
        "{what}"
    );
    assert_eq!(gauge("perf.images_done"), r.images_done as f64, "{what}");
    assert_eq!(
        counter("perf.images.completed"),
        r.images_completed,
        "{what}"
    );
    assert_eq!(counter("perf.syncs"), r.syncs, "{what}");
    assert_eq!(counter("perf.sync.cycles"), r.sync_cycles, "{what}");
    assert_eq!(
        counter("perf.link.retries"),
        r.faults.link_retries,
        "{what}"
    );
    assert_eq!(
        counter("perf.link.retry_cycles"),
        r.faults.retry_cycles,
        "{what}"
    );
    assert_eq!(
        reg.histogram_value("perf.stage.occupancy"),
        Some(&r.occupancy),
        "{what}"
    );
    assert_eq!(gauge("perf.images_per_sec"), r.images_per_sec, "{what}");
    assert_eq!(gauge("perf.pe_utilization"), r.pe_utilization, "{what}");
    assert_eq!(gauge("perf.sfu_utilization"), r.sfu_utilization, "{what}");
    assert_eq!(gauge("perf.achieved_flops"), r.achieved_flops, "{what}");
    assert_eq!(gauge("perf.gflops_per_watt"), r.gflops_per_watt, "{what}");
    assert_eq!(gauge("perf.joules_per_image"), r.joules_per_image, "{what}");
    for l in &r.links {
        let class = l.class;
        assert_eq!(
            gauge(&format!("perf.link.{class:?}.utilization")),
            l.utilization,
            "{what} {class:?}"
        );
        assert_eq!(
            gauge(&format!("perf.link.{class:?}.bytes_per_image")),
            l.bytes_per_image,
            "{what} {class:?}"
        );
    }
}

#[test]
fn record_matches_the_registry() {
    let session = Session::single_precision();
    let sim = PerfSim::new(session.node());
    let faulted = FaultPlan::seeded(7).with_link_faults(LinkFaults {
        prob: 0.1,
        base_backoff: 16,
        max_retries: 4,
    });
    for name in zoo::BENCHMARK_NAMES {
        let net = zoo::by_name(name).expect("zoo network");
        let artifact = session.compile(&net).expect("benchmark maps");
        let mapping = artifact.mapping();
        for kind in [RunKind::Training, RunKind::Evaluation] {
            for plan in [FaultPlan::none(), faulted.clone()] {
                let what = format!("{name} {kind:?} {plan:?}");
                let record = sim.run(mapping, kind, &plan, &mut Tracer::disabled());
                let mut tracer = Tracer::new(VecSink::new());
                let traced = sim.run(mapping, kind, &plan, &mut tracer);
                assert!(!tracer.sink().events().is_empty(), "{what}");
                assert_eq!(record, traced, "{what}");
                let mut reg = MetricsRegistry::new();
                traced.write_metrics(&mut reg);
                assert_rendered(&traced, &reg, &what);

                // Attribution reads the record, never the trace.
                let off = session.run_mapped_with(&artifact, kind, &plan, Observer::Off);
                assert!(off.trace.is_none(), "{what}");
                let full = session.run_mapped_with(
                    &artifact,
                    kind,
                    &plan,
                    Observer::Trace(TraceConfig::default()),
                );
                let full = TracedRun {
                    perf: full.value,
                    trace: full.trace.expect("traced"),
                };
                assert_eq!(full.perf, record, "{what}");
                let bare = TracedRun {
                    perf: off.value,
                    trace: Trace::default(),
                };
                let node = session.node();
                let from_record = Attribution::build(&bare, &artifact, &net, node);
                let from_trace = Attribution::build(&full, &artifact, &net, node);
                assert_eq!(
                    from_record.expect("attribution builds"),
                    from_trace.expect("attribution builds"),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn layer_sequential_record_matches_the_registry() {
    // Ablation A4 runs no pipeline drive; its record (every image once
    // through every stage) renders like any other run's.
    let session = Session::single_precision();
    let sim = PerfSim::new(session.node()).with_options(PerfOptions {
        layer_sequential: true,
        ..PerfOptions::default()
    });
    let artifact = session.compile(&zoo::alexnet()).expect("alexnet maps");
    for kind in [RunKind::Training, RunKind::Evaluation] {
        let what = format!("A4 {kind:?}");
        let plan = FaultPlan::none();
        let record = sim.run(artifact.mapping(), kind, &plan, &mut Tracer::disabled());
        let mut tracer = Tracer::new(VecSink::new());
        let traced = sim.run(artifact.mapping(), kind, &plan, &mut tracer);
        assert_eq!(record, traced, "{what}");
        let mut reg = MetricsRegistry::new();
        traced.write_metrics(&mut reg);
        assert_rendered(&traced, &reg, &what);
        let busy: u64 = record.stages.iter().map(|s| s.busy_cycles).sum();
        assert_eq!(busy + record.sync_cycles, record.window_cycles, "{what}");
        assert_eq!(record.images_done, record.images_completed, "{what}");
    }
}
