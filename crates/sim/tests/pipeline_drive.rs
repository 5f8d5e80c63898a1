//! The performance model's two drives must agree exactly on real
//! mappings.
//!
//! `PerfSim::run` simulates a `NodeModel` epoch by epoch
//! (`perf::run_node`: each fault-free epoch in closed form, each
//! link-faulted epoch walked image-major) whenever the tracer records
//! none of the pipeline's categories, and with the event-ordered heap
//! drive otherwise. Both return a `NodeOutcome` through the same merge,
//! and the registry is written in bulk from the run record, so an
//! untraced and a fully recorded run must give `==` results and
//! registries. The random-model properties of the two drives live next
//! to them, in `perf::node`'s tests.

use scaledeep_arch::presets;
use scaledeep_compiler::{Compiler, Mapping};
use scaledeep_dnn::zoo;
use scaledeep_sim::fault::{FaultPlan, LinkFaults};
use scaledeep_sim::perf::{PerfSim, RunKind};
use scaledeep_trace::{MetricsRegistry, Tracer, VecSink};

/// An untraced run and a fully recorded run of `mapping` give equal
/// results and equal metrics.
fn assert_drives_agree(
    sim: &PerfSim,
    mapping: &Mapping,
    kind: RunKind,
    plan: &FaultPlan,
    what: &str,
) {
    let mut fast_reg = MetricsRegistry::new();
    let fast = sim.run(
        mapping,
        kind,
        plan,
        &mut Tracer::disabled(),
        Some(&mut fast_reg),
    );
    let mut slow_reg = MetricsRegistry::new();
    let mut tracer = Tracer::new(VecSink::new());
    let slow = sim.run(mapping, kind, plan, &mut tracer, Some(&mut slow_reg));
    assert!(!tracer.sink().events().is_empty(), "{what}");
    assert_eq!(fast, slow, "{what}");
    assert_eq!(fast_reg, slow_reg, "{what}");
}

/// The full performance model on real mappings. Fault-free, every zoo
/// benchmark on both presets in both run kinds: each unobserved run
/// takes the closed-form epochs, so each real mapping is compared with
/// the heap. Under a link-fault plan (the walk), alexnet and googlenet.
#[test]
fn zoo_runs_match_across_drives() {
    let kinds = [RunKind::Training, RunKind::Evaluation];
    for node in [presets::single_precision(), presets::half_precision()] {
        let sim = PerfSim::new(&node);
        for name in zoo::BENCHMARK_NAMES {
            let net = zoo::by_name(name).expect("benchmark names are exhaustive");
            let mapping = Compiler::new(&node).map(&net).unwrap();
            for kind in kinds {
                let what = format!("{name} {:?} {kind:?} fault-free", node.precision);
                assert_drives_agree(&sim, &mapping, kind, &FaultPlan::none(), &what);
            }
        }
    }
    let node = presets::single_precision();
    let sim = PerfSim::new(&node);
    let faulted = FaultPlan::seeded(7).with_link_faults(LinkFaults {
        prob: 0.1,
        base_backoff: 16,
        max_retries: 4,
    });
    for net in [zoo::alexnet(), zoo::googlenet()] {
        let mapping = Compiler::new(&node).map(&net).unwrap();
        for kind in kinds {
            let what = format!("{} {kind:?} {faulted:?}", net.name());
            assert_drives_agree(&sim, &mapping, kind, &faulted, &what);
        }
    }
}
