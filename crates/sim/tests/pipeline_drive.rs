//! The performance model's two drives must agree exactly.
//!
//! `run_pipeline_traced` simulates a `NodeModel` epoch by epoch
//! (`perf::run_node`: each fault-free epoch in closed form, each
//! link-faulted epoch walked image-major) whenever the tracer records
//! none of the pipeline's categories, and with the event-ordered heap
//! drive otherwise. Both return a `NodeOutcome` through the same merge,
//! and the registry is written in bulk from it, so nothing a caller can
//! read may tell the two apart: the outcome and the metrics registry must
//! be `==`. The generators cover long pipelines, one to three replicas,
//! equal service times (heap ties), partial tail minibatches, barrier on
//! and off, and seeded transient link faults; a second, fault-free
//! generator sizes minibatches like real runs (up to 64 images). A
//! metrics-only tracer (active, every category filtered out) takes the
//! epoch drive too, and must still intern the same tracks and record no
//! event, while a tracer that records any single pipeline category keeps
//! the event-ordered drive.

use proptest::prelude::*;
use scaledeep_arch::presets;
use scaledeep_compiler::{Compiler, Mapping};
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

/// One to forty stages. A small palette makes equal service times (and
/// so equal completion cycles across stages) common rather than a
/// one-in-10^4 accident.
fn palette_stages(rng: &mut Rng) -> Vec<StageCost> {
    let palette = [rng.range(1, 10_000), rng.range(1, 10_000), rng.range(1, 16)];
    (0..rng.range(1, 40))
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
        .collect()
}

/// One random run, its link-retry draws keyed on `fault_seed`.
fn build_model(seed: u64, fault_seed: u64) -> NodeModel {
    let mut rng = Rng(seed.rotate_left(11) | 1);
    let stages = palette_stages(&mut rng);
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

/// One random fault-free run sized like a real one: minibatches of up
/// to 64 images, so an epoch's last image sits far down the stages'
/// lattice (the `i·M_k` term of the closed-form epoch).
fn build_real_scale_model(seed: u64) -> NodeModel {
    let mut rng = Rng(seed.rotate_left(23) | 1);
    let stages = palette_stages(&mut rng);
    let minibatch = rng.range(1, 64) as usize;
    // Whole minibatches plus a (possibly empty) partial tail.
    let images = minibatch * rng.range(1, 5) as usize + rng.range(0, minibatch as u64 - 1) as usize;
    NodeModel {
        stages,
        replicas: rng.range(1, 3) as usize,
        images,
        minibatch,
        sync: rng.range(0, 2_000),
        barrier: rng.chance(2),
        seed,
        link: None,
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

    /// The epoch and event-ordered drives return equal outcomes and
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fault-free models at real scale: the closed-form epochs behind an
    /// untraced run return the outcome and registry of the recorded
    /// event-ordered run.
    #[test]
    fn real_scale_fault_free_runs_match_the_recorded_drive(seed in any::<u64>()) {
        let m = build_real_scale_model(seed);
        let (fast, fast_reg) = run(&m, &mut Tracer::disabled());
        let mut recorded = Tracer::new(VecSink::new());
        let (slow, slow_reg) = run(&m, &mut recorded);
        prop_assert!(
            recorded.sink().events().len() >= m.replicas * m.images * m.stages.len(),
            "the recording tracer must take the event-ordered drive"
        );
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(&fast_reg, &slow_reg);
    }
}

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
    let fast = sim.run_mapped_traced(mapping, kind, plan, &mut Tracer::disabled(), &mut fast_reg);
    let mut slow_reg = MetricsRegistry::new();
    let mut tracer = Tracer::new(VecSink::new());
    let slow = sim.run_mapped_traced(mapping, kind, plan, &mut tracer, &mut slow_reg);
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
