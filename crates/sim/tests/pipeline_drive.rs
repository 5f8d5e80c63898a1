//! The performance model's two drives must agree exactly.
//!
//! `run_pipeline_traced` simulates a `NodeModel` with the image-major
//! walk (`perf::run_node`) whenever the tracer records none of the
//! pipeline's categories, and with the event-ordered heap drive
//! otherwise. Both return a `NodeOutcome` through the same merge, and the
//! registry is written in bulk from it, so nothing a caller can read may
//! tell the two apart: the outcome and the metrics registry must be `==`.
//! The generators cover long pipelines, one to three replicas, equal
//! service times (heap ties), partial tail minibatches, barrier on and
//! off, and seeded transient link faults. A metrics-only tracer (active,
//! every category filtered out) takes the walk too, and must still intern
//! the same tracks and record no event, while a tracer that records any
//! single pipeline category keeps the event-ordered drive.

use proptest::prelude::*;
use scaledeep_arch::presets;
use scaledeep_compiler::Compiler;
use scaledeep_dnn::{zoo, LayerId};
use scaledeep_sim::fault::{FaultPlan, LinkFaults};
use scaledeep_sim::perf::{
    run_pipeline_traced, NodeModel, NodeOutcome, PerfSim, RunKind, StageCost,
};
use scaledeep_trace::{
    Category, CategoryMask, FilterSink, MetricsRegistry, TraceSink, Tracer, VecSink,
};

/// Deterministic value source (xorshift): proptest drives only the seed,
/// so every case is reproducible from the printed input.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.next().is_multiple_of(one_in)
    }
}

/// One random run, its link-retry draws keyed on `fault_seed`.
fn build_model(seed: u64, fault_seed: u64) -> NodeModel {
    let mut rng = Rng(seed.rotate_left(11) | 1);
    // A small palette makes equal service times (and so equal completion
    // cycles across stages) common rather than a one-in-10^4 accident.
    let palette = [rng.range(1, 10_000), rng.range(1, 10_000), rng.range(1, 16)];
    let stages = (0..rng.range(1, 40))
        .map(|s| StageCost {
            id: LayerId::from_index(s as usize),
            name: format!("s{s}"),
            service_cycles: if rng.chance(2) {
                palette[rng.range(0, 2) as usize]
            } else {
                rng.range(1, 10_000)
            },
            useful_lane_cycles: 0.0,
            useful_sfu_cycles: 0.0,
            traffic: [0.0; 7],
            links: [0.0; 7],
        })
        .collect();
    let minibatch = rng.range(1, 8) as usize;
    // Whole minibatches plus a (possibly empty) partial tail.
    let images = minibatch * rng.range(1, 5) as usize + rng.range(0, minibatch as u64 - 1) as usize;
    NodeModel {
        stages,
        replicas: rng.range(1, 3) as usize,
        images,
        minibatch,
        sync: rng.range(0, 2_000),
        barrier: !rng.chance(3),
        seed: fault_seed,
        link: (!rng.chance(2)).then(|| LinkFaults {
            prob: [0.05, 0.3, 1.0][rng.range(0, 2) as usize],
            base_backoff: rng.range(1, 64),
            max_retries: rng.range(1, 5) as u32,
        }),
    }
}

/// Runs `m` under `tracer`, returning the outcome and the registry.
fn run<S: TraceSink>(m: &NodeModel, tracer: &mut Tracer<S>) -> (NodeOutcome, MetricsRegistry) {
    let mut reg = MetricsRegistry::new();
    let out = run_pipeline_traced(m, tracer, &mut reg);
    (out, reg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The image-major and event-ordered drives return equal outcomes and
    /// equal registries on random models.
    #[test]
    fn image_major_drive_matches_the_event_ordered_drive(seed in any::<u64>(), fault_seed in any::<u64>()) {
        let m = build_model(seed, fault_seed);
        let (fast, fast_reg) = run(&m, &mut Tracer::disabled());
        let mut recorded = Tracer::new(VecSink::new());
        let (slow, slow_reg) = run(&m, &mut recorded);
        prop_assert!(
            recorded.sink().events().len() >= m.replicas * m.images * m.stages.len(),
            "the recording tracer must take the event-ordered drive"
        );
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(&fast_reg, &slow_reg);

        let mut metrics_only = Tracer::new(FilterSink::new(VecSink::new(), CategoryMask::none(), 1));
        let (quiet, quiet_reg) = run(&m, &mut metrics_only);
        prop_assert_eq!(&quiet, &slow);
        prop_assert_eq!(&quiet_reg, &slow_reg);
        prop_assert!(metrics_only.sink().inner().events().is_empty());
        prop_assert_eq!(metrics_only.tracks(), recorded.tracks());

        // Recording any one pipeline category keeps the event-ordered
        // drive: the filtered run records exactly that category's events.
        for cat in [Category::Stage, Category::Session, Category::Link] {
            let mut one = Tracer::new(FilterSink::new(VecSink::new(), CategoryMask::just(cat), 1));
            let (out, one_reg) = run(&m, &mut one);
            prop_assert_eq!(&out, &slow);
            prop_assert_eq!(&one_reg, &slow_reg);
            let want: Vec<_> = recorded
                .sink()
                .events()
                .iter()
                .filter(|e| e.payload.category() == cat)
                .copied()
                .collect();
            prop_assert_eq!(one.sink().inner().events(), &want[..], "{:?}", cat);
        }
    }
}

/// The full performance model on real mappings: an untraced run and a
/// fully recorded run give equal results and equal metrics, for both run
/// kinds, with and without a link-fault plan.
#[test]
fn zoo_runs_match_across_drives() {
    let node = presets::single_precision();
    let sim = PerfSim::new(&node);
    let faulted = FaultPlan::seeded(7).with_link_faults(LinkFaults {
        prob: 0.1,
        base_backoff: 16,
        max_retries: 4,
    });
    for net in [zoo::alexnet(), zoo::googlenet()] {
        let mapping = Compiler::new(&node).map(&net).unwrap();
        for kind in [RunKind::Training, RunKind::Evaluation] {
            for plan in [FaultPlan::none(), faulted.clone()] {
                let mut fast_reg = MetricsRegistry::new();
                let fast = sim.run_mapped_traced(
                    &mapping,
                    kind,
                    &plan,
                    &mut Tracer::disabled(),
                    &mut fast_reg,
                );
                let mut slow_reg = MetricsRegistry::new();
                let mut tracer = Tracer::new(VecSink::new());
                let slow = sim.run_mapped_traced(&mapping, kind, &plan, &mut tracer, &mut slow_reg);
                let what = format!("{} {kind:?} {plan:?}", net.name());
                assert!(!tracer.sink().events().is_empty(), "{what}");
                assert_eq!(fast, slow, "{what}");
                assert_eq!(fast_reg, slow_reg, "{what}");
            }
        }
    }
}
