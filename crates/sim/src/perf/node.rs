//! Node-level performance model: every pipeline replica the mapping runs
//! node-wide, walked image-major on one thread and coupled at minibatch
//! weight syncs.
//!
//! # Model
//!
//! A training node runs [`NodeModel::replicas`] identical inter-layer
//! pipelines concurrently (the mapping's `total_pipelines`: rim chips ×
//! cluster groups). Within a minibatch epoch the replicas are fully
//! independent; they couple only at the weight-gradient sync, which
//! starts when **every** replica closes its minibatch (a node-wide
//! max-reduce over close times) and releases all replicas at the common
//! cycle `G_b = S_b + delay_b`. Because admission of batch `b+1` gates
//! on sync `b`, the pipeline fully drains at every sync — so the sync
//! window is an *exact* lookahead (DESIGN §5h): draining each replica's
//! whole epoch before looking at the next replica loses no precision.
//!
//! [`run_node`] is that walk: each replica's [`ReplicaCore`] is driven
//! image-major by [`ReplicaCore::drain`] for one epoch, the close times
//! are max-reduced, and the node-wide sync delay releases the next
//! epoch. All link-retry draws are pure in `(seed, salt)`, so the walk
//! reproduces the heap-ordered oracle (every replica's events on one
//! global [`EventQueue`](crate::engine::EventQueue), kept with the tests)
//! bit for bit.

use super::replica::{replica_salt_base, ReplicaCore, SYNC_SALT};
use super::{FaultStats, StageCost};
use crate::engine::Cycle;
use crate::fault::LinkFaults;

/// Everything the node walk needs: the per-stage costs shared by all
/// replicas, the replica count, the per-replica image stream, and the
/// sync/fault parameters.
#[derive(Debug, Clone)]
pub struct NodeModel {
    /// Per-stage service costs (identical across replicas).
    pub stages: Vec<StageCost>,
    /// Concurrent pipeline replicas across the node.
    pub replicas: usize,
    /// Images each replica pushes through its pipeline.
    pub images: usize,
    /// Images per minibatch (sync granularity).
    pub minibatch: usize,
    /// Base cycles per minibatch weight sync (arcs + ring).
    pub sync: Cycle,
    /// Whether minibatch barriers apply (training) or not (evaluation).
    pub barrier: bool,
    /// Fault-plan seed for link-retry draws.
    pub seed: u64,
    /// Transient link-fault model, if any.
    pub link: Option<LinkFaults>,
}

impl NodeModel {
    /// Node-wide syncs the run will perform.
    fn total_syncs(&self) -> u64 {
        if self.barrier {
            (self.images / self.minibatch.max(1)) as u64
        } else {
            0
        }
    }
}

/// Merged result of a node run. Every field is simulation-domain (cycles
/// and counts), so the node walk and the heap oracle must agree on all of
/// it bit-for-bit — the oracle tests compare whole values.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutcome {
    /// Replicas simulated.
    pub replicas: usize,
    /// Steady-state window: latest completion minus earliest first
    /// completion across all replicas.
    pub window: Cycle,
    /// Cycle the whole node went quiet (last event anywhere).
    pub makespan: Cycle,
    /// Total images completed across all replicas.
    pub images_done: u64,
    /// Node-wide minibatch syncs performed.
    pub syncs: u64,
    /// Total cycles spent in sync delays (base + retry back-off).
    pub sync_cycles: u64,
    /// Per-stage admission counts summed over replicas.
    pub stage_admissions: Vec<u64>,
    /// Per-stage busy cycles summed over replicas (admissions × service).
    pub stage_busy: Vec<u64>,
    /// Link retries and their cycle toll (stage hand-offs + syncs).
    pub faults: FaultStats,
    /// Completion cycle of each replica's last image, in replica order.
    pub per_replica_makespan: Vec<Cycle>,
}

/// The node-wide sync penalty for sync `index`: pure in `(seed, index)`,
/// so the walk, the oracle and the final accounting all draw the same
/// values independently.
fn sync_penalty(model: &NodeModel, index: u64) -> (u64, u64, Cycle) {
    let base = model.sync.max(1);
    let Some(lf) = model.link.as_ref() else {
        return (0, 0, base);
    };
    let retries = lf.retries(model.seed, SYNC_SALT | index);
    if retries == 0 {
        return (0, 0, base);
    }
    let cost = lf.backoff_cycles(retries);
    (u64::from(retries), cost, base + cost)
}

fn fresh_cores(model: &NodeModel) -> Vec<ReplicaCore<'_>> {
    (0..model.replicas)
        .map(|r| {
            ReplicaCore::new(
                &model.stages,
                model.images,
                model.minibatch,
                model.barrier,
                model.seed,
                model.link.as_ref(),
                replica_salt_base(r),
            )
        })
        .collect()
}

/// Merges the finished replicas (in replica order) plus the node-wide
/// sync accounting into a [`NodeOutcome`].
fn merge(model: &NodeModel, cores: &[ReplicaCore], last_sync_end: Cycle) -> NodeOutcome {
    let n = model.stages.len();
    let total_syncs = model.total_syncs();
    let (mut retries, mut retry_cycles, mut sync_cycles) = (0u64, 0u64, 0u64);
    for b in 0..total_syncs {
        let (r, rc, delay) = sync_penalty(model, b);
        retries += r;
        retry_cycles += rc;
        sync_cycles += delay;
    }
    let mut stage_admissions = vec![0u64; n];
    let mut first = Cycle::MAX;
    let mut last: Cycle = 0;
    let mut images_done = 0u64;
    let mut per_replica_makespan = Vec::with_capacity(cores.len());
    for core in cores {
        debug_assert_eq!(core.completed(), model.images, "replica must drain");
        for (acc, &a) in stage_admissions.iter_mut().zip(core.stage_admissions()) {
            *acc += a;
        }
        retries += core.retries();
        retry_cycles += core.retry_cycles();
        first = first.min(core.first_done());
        last = last.max(core.last_done());
        images_done += core.completed() as u64;
        per_replica_makespan.push(core.last_done());
    }
    let stage_busy: Vec<u64> = stage_admissions
        .iter()
        .zip(&model.stages)
        .map(|(&a, st)| a * st.service_cycles.max(1))
        .collect();
    NodeOutcome {
        replicas: cores.len(),
        window: last.saturating_sub(first.min(last)).max(1),
        makespan: last.max(last_sync_end),
        images_done,
        syncs: total_syncs,
        sync_cycles,
        stage_admissions,
        stage_busy,
        faults: FaultStats {
            link_retries: retries,
            retry_cycles,
        },
        per_replica_makespan,
    }
}

/// Drains every replica to quiescence for the current epoch, admitting
/// at cycle `resume` (the post-sync release cycle `G_b`, or 0 for the
/// first epoch). Returns the latest minibatch close time seen: the
/// node-wide max-reduce `S_b`.
fn drain_epoch(cores: &mut [ReplicaCore], resume: Cycle) -> Cycle {
    cores
        .iter_mut()
        .map(|core| core.drain(resume))
        .max()
        .unwrap_or(0)
}

/// Runs the whole-node model: every replica drains its epoch image-major,
/// the close times are max-reduced, and each node-wide sync releases all
/// replicas at the common post-sync cycle.
///
/// # Panics
///
/// Panics when `model.stages` is empty, `model.images == 0`, or
/// `model.replicas == 0`.
pub fn run_node(model: &NodeModel) -> NodeOutcome {
    assert!(model.replicas > 0, "need at least one replica");
    let mut cores = fresh_cores(model);
    let mut close = drain_epoch(&mut cores, 0);
    let mut last_sync_end: Cycle = 0;
    for b in 0..model.total_syncs() {
        let (_, _, delay) = sync_penalty(model, b);
        last_sync_end = close + delay;
        for core in &mut cores {
            core.sync_completed();
        }
        close = drain_epoch(&mut cores, last_sync_end);
    }
    merge(model, &cores, last_sync_end)
}

/// The heap-ordered oracle [`run_node`] is checked against: all replicas
/// interleave on one global event queue, the general sequential engine
/// shape. With `replicas == 1` it reproduces the classic
/// [`run_pipeline_traced`](crate::perf::run_pipeline_traced) pipeline
/// dynamics on the same salts.
#[cfg(test)]
pub(crate) fn run_node_sequential(model: &NodeModel) -> NodeOutcome {
    use super::replica::{Event, Step};
    use crate::engine::EventQueue;

    /// One event of the oracle's global queue.
    #[derive(Debug, Clone, Copy)]
    enum NodeEvent {
        /// A replica-local pipeline event.
        Replica(u32, Event),
        /// The node-wide minibatch sync completed.
        SyncDone,
    }

    assert!(model.replicas > 0, "need at least one replica");
    let r_total = model.replicas;
    let mut cores = fresh_cores(model);
    let mut q: EventQueue<NodeEvent> = EventQueue::new();
    for r in 0..r_total {
        q.push(0, NodeEvent::Replica(r as u32, Event::Admit));
    }
    let mut closers = 0usize;
    let mut syncs = 0u64;
    let mut last_sync_end: Cycle = 0;
    while let Some((now, ev)) = q.pop() {
        match ev {
            NodeEvent::Replica(r, Event::Admit) => {
                if let Step::Start(st) = cores[r as usize].admit(now) {
                    let done = Event::StageDone {
                        stage: 0,
                        img: st.img,
                    };
                    q.push(st.fin, NodeEvent::Replica(r, done));
                    q.push(st.fin, NodeEvent::Replica(r, Event::Admit));
                }
            }
            NodeEvent::Replica(r, Event::StageDone { stage, img }) => {
                match cores[r as usize].stage_done(now, stage, img) {
                    Step::Start(st) => {
                        let done = Event::StageDone {
                            stage: st.stage,
                            img,
                        };
                        q.push(st.fin, NodeEvent::Replica(r, done));
                    }
                    Step::Done {
                        batch_done: Some(_),
                    } => {
                        closers += 1;
                        if closers == r_total {
                            // Every replica closed minibatch `syncs`: the
                            // node-wide reduce starts now (the max over
                            // close times) and releases all replicas
                            // after the drawn delay.
                            closers = 0;
                            let (_, _, delay) = sync_penalty(model, syncs);
                            syncs += 1;
                            last_sync_end = now + delay;
                            q.push(last_sync_end, NodeEvent::SyncDone);
                        }
                    }
                    Step::Done { batch_done: None } => {}
                    Step::Gated => unreachable!("stage_done never gates"),
                }
            }
            NodeEvent::SyncDone => {
                for (r, core) in cores.iter_mut().enumerate() {
                    if core.sync_completed() {
                        q.push(now, NodeEvent::Replica(r as u32, Event::Admit));
                    }
                }
            }
            NodeEvent::Replica(_, Event::SyncDone) => {
                unreachable!("syncs are node-level events")
            }
        }
    }
    debug_assert_eq!(syncs, model.total_syncs(), "sync count is structural");
    merge(model, &cores, last_sync_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::perf::{run_pipeline_traced, PerfSim, RunKind};
    use proptest::prelude::*;
    use scaledeep_arch::presets;
    use scaledeep_compiler::Compiler;
    use scaledeep_dnn::{zoo, LayerId};
    use scaledeep_trace::{MetricsRegistry, Tracer};

    fn stage(cycles: u64) -> StageCost {
        StageCost {
            id: LayerId::from_index(0),
            name: "s".into(),
            service_cycles: cycles,
            useful_lane_cycles: 0.0,
            useful_sfu_cycles: 0.0,
            traffic: [0.0; 7],
            links: [0.0; 7],
        }
    }

    fn model(replicas: usize, barrier: bool, link: Option<LinkFaults>) -> NodeModel {
        NodeModel {
            stages: vec![stage(12), stage(40), stage(7), stage(23)],
            replicas,
            images: 48,
            minibatch: 8,
            sync: 300,
            barrier,
            seed: 11,
            link,
        }
    }

    fn faults() -> LinkFaults {
        LinkFaults {
            prob: 0.3,
            base_backoff: 8,
            max_retries: 4,
        }
    }

    #[test]
    fn node_walk_matches_the_heap_oracle() {
        for link in [None, Some(faults())] {
            for replicas in [1, 3, 16] {
                for barrier in [true, false] {
                    let m = model(replicas, barrier, link);
                    assert_eq!(
                        run_node(&m),
                        run_node_sequential(&m),
                        "replicas={replicas} barrier={barrier} link={}",
                        link.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn evaluation_mode_has_no_syncs() {
        let out = run_node(&model(5, false, Some(faults())));
        assert_eq!(out.syncs, 0);
        assert_eq!(out.sync_cycles, 0);
    }

    #[test]
    fn partial_tail_minibatch_matches() {
        let mut m = model(4, true, Some(faults()));
        m.images = 21; // 2 full minibatches of 8, then a 5-image tail.
        let oracle = run_node_sequential(&m);
        assert_eq!(oracle.syncs, 2);
        assert_eq!(run_node(&m), oracle);
    }

    #[test]
    fn single_replica_matches_classic_pipeline_engine() {
        // The node oracle with one replica is the classic engine on the
        // same salts: window and fault stats line up exactly.
        let m = model(1, true, Some(faults()));
        let node = run_node_sequential(&m);
        let (window, _, _, faults) = run_pipeline_traced(
            &m.stages,
            m.images,
            m.minibatch,
            m.sync,
            true,
            m.seed,
            m.link.as_ref(),
            &mut Tracer::disabled(),
            &mut MetricsRegistry::new(),
        );
        assert_eq!(node.window, window);
        assert_eq!(node.faults, faults);
        assert_eq!(node.images_done, m.images as u64);
    }

    #[test]
    fn more_replicas_scale_completed_work_not_window() {
        let one = run_node(&model(1, true, None));
        let many = run_node(&model(6, true, None));
        assert_eq!(many.images_done, 6 * one.images_done);
        // Replicas are identical and independent within epochs, so the
        // node window equals the single-replica window exactly.
        assert_eq!(many.window, one.window);
        assert_eq!(many.makespan, one.makespan);
    }

    #[test]
    fn real_models_match_the_heap_oracle() {
        // The zoo's small benchmarks, training and evaluation, fault-free
        // and under seeded link faults: the node walk equals the oracle.
        let node = presets::single_precision();
        let sim = PerfSim::new(&node);
        let plans = [
            FaultPlan::none(),
            FaultPlan::seeded(42).with_link_faults(faults()),
        ];
        for name in ["alexnet", "cnn-s"] {
            let net = zoo::by_name(name).expect("zoo network");
            let mapping = Compiler::new(&node).map(&net).expect("maps");
            for plan in &plans {
                for kind in [RunKind::Training, RunKind::Evaluation] {
                    let m = sim.node_model(&mapping, kind, plan);
                    assert!(m.replicas > 1, "{name}: a node runs several replicas");
                    let got = run_node(&m);
                    assert!(got.makespan > 0 && got.images_done > 0);
                    assert_eq!(
                        got,
                        run_node_sequential(&m),
                        "{name} {kind:?} link={}",
                        plan.link_faults().is_some()
                    );
                }
            }
        }
    }

    /// Deterministic field source (xorshift): proptest drives only the
    /// seed, so a failing case is reproducible from it.
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

    /// One random whole-node model. Partial tail minibatches,
    /// single-replica and sync-free (evaluation) shapes all fall out of
    /// the ranges.
    fn random_model(seed: u64) -> NodeModel {
        let mut rng = Rng(seed.rotate_left(7) | 1);
        let stages = (0..rng.range(1, 5))
            .map(|s| StageCost {
                id: LayerId::from_index(s as usize),
                name: format!("s{s}"),
                service_cycles: rng.range(1, 60),
                useful_lane_cycles: 0.0,
                useful_sfu_cycles: 0.0,
                traffic: [0.0; 7],
                links: [0.0; 7],
            })
            .collect();
        NodeModel {
            stages,
            replicas: rng.range(1, 12) as usize,
            images: rng.range(2, 40) as usize,
            minibatch: rng.range(1, 9) as usize,
            sync: rng.range(0, 399),
            barrier: !rng.chance(4),
            seed,
            link: rng.chance(2).then(faults),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random stage costs, replica counts, image streams and sync
        /// latencies, with and without link faults: the node walk
        /// reproduces the heap oracle's outcome exactly.
        #[test]
        fn random_models_match_the_heap_oracle(seed in any::<u64>()) {
            let m = random_model(seed);
            prop_assert_eq!(run_node(&m), run_node_sequential(&m));
        }
    }
}
