//! Node-level performance model: every pipeline replica the mapping runs
//! node-wide, coupled at minibatch weight syncs, and the two drives that
//! simulate it.
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
//! # Drives
//!
//! * [`run_node`] runs the model an epoch at a time: each replica's
//!   [`ReplicaCore`] drains one epoch ([`ReplicaCore::drain`]: closed
//!   form when fault-free, an image-major walk under link faults), the
//!   close times are max-reduced, and the node-wide sync delay releases
//!   the next epoch. No queue at all.
//! * [`run_node_event_ordered`] interleaves every replica's transitions
//!   on one [`EventQueue`] and emits each stage span, sync span and
//!   retry instant as it happens. Recorded runs take it: the exporters
//!   write events in emission order, and the heap's FIFO tie-break on
//!   same-cycle events cannot be rebuilt image-major without sorting
//!   every event.
//!
//! All link-retry draws are pure in `(seed, salt)`, and both drives
//! return their [`NodeOutcome`] through the one `merge`, so each drive
//! is the other's oracle: the tests below compare whole outcomes.

use super::replica::{ReplicaCore, Step, SYNC_SALT};
use super::{FaultStats, StageCost};
use crate::engine::{Cycle, EventQueue};
use crate::fault::LinkFaults;
use scaledeep_trace::{Payload, TraceSink, Tracer, TrackId};

/// One performance run: the per-stage costs shared by all replicas, the
/// replica count, the per-replica image stream, and the sync/fault
/// parameters. Both drives simulate it.
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
    pub(super) fn total_syncs(&self) -> u64 {
        if self.barrier {
            (self.images / self.minibatch.max(1)) as u64
        } else {
            0
        }
    }
}

/// Merged result of a node run. Every field is simulation-domain (cycles
/// and counts), so the two drives must agree on all of it bit-for-bit —
/// the oracle tests compare whole values.
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

/// The node-wide sync penalty for sync `index`, as `(retries, back-off
/// cycles, total delay)`: pure in `(seed, index)`, so both drives and the
/// final accounting all draw the same values independently.
fn sync_penalty(model: &NodeModel, index: u64) -> (u32, Cycle, Cycle) {
    let base = model.sync.max(1);
    let Some(lf) = model.link.as_ref() else {
        return (0, 0, base);
    };
    let retries = lf.retries(model.seed, SYNC_SALT | index);
    if retries == 0 {
        return (0, 0, base);
    }
    let cost = lf.backoff_cycles(retries);
    (retries, cost, base + cost)
}

fn fresh_cores(model: &NodeModel) -> Vec<ReplicaCore<'_>> {
    (0..model.replicas)
        .map(|r| ReplicaCore::new(model, r))
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
        retries += u64::from(r);
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

/// Runs the whole-node model an epoch at a time: every replica drains its
/// epoch (in closed form when fault-free, image-major under link faults),
/// the close times are max-reduced, and each node-wide sync releases all
/// replicas at the common post-sync cycle. Records nothing.
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

/// Ablation A4's outcome for one replica: no inter-layer pipelining, so
/// each image traverses every stage before the next is admitted, and each
/// minibatch sync adds its base latency. Every stage admits every image
/// once (busy = images × service); the window spans the whole run. The
/// link-fault model targets pipelined transfers and does not apply.
/// Records nothing.
pub(super) fn run_layer_sequential(model: &NodeModel) -> NodeOutcome {
    let images = model.images as u64;
    let stage_busy: Vec<u64> = model
        .stages
        .iter()
        .map(|st| images * st.service_cycles.max(1))
        .collect();
    let syncs = model.total_syncs();
    let sync_cycles = model.sync * syncs;
    let window = stage_busy.iter().sum::<u64>() + sync_cycles;
    NodeOutcome {
        replicas: 1,
        window,
        makespan: window,
        images_done: images,
        syncs,
        sync_cycles,
        stage_admissions: vec![images; model.stages.len()],
        stage_busy,
        faults: FaultStats::default(),
        per_replica_makespan: vec![window],
    }
}

/// The trace tracks a recorded run emits on: one per stage, one for
/// minibatch syncs, one for link retries.
#[derive(Debug, Clone)]
pub(super) struct PipelineTracks {
    stages: Vec<TrackId>,
    sync: TrackId,
    retries: TrackId,
}

impl PipelineTracks {
    /// Interns the run's tracks in `tracer` (all track 0 when it is
    /// inactive).
    pub(super) fn intern<S: TraceSink>(stages: &[StageCost], tracer: &mut Tracer<S>) -> Self {
        if !tracer.active() {
            return Self {
                stages: vec![0; stages.len()],
                sync: 0,
                retries: 0,
            };
        }
        Self {
            stages: stages
                .iter()
                .enumerate()
                .map(|(s, st)| tracer.track(&format!("stage {s:02} {}", st.name)))
                .collect(),
            sync: tracer.track("sync"),
            retries: tracer.track("link retries"),
        }
    }
}

/// One event of the event-ordered drive's queue.
#[derive(Debug, Clone, Copy)]
enum NodeEvent {
    /// Replica `r` tries to admit its next image into stage 0.
    Admit(usize),
    /// Replica `r`'s image `img` finished stage `stage`.
    StageDone { r: usize, stage: usize, img: usize },
    /// The node-wide minibatch sync completed.
    SyncDone,
}

/// Runs the whole-node model event-ordered: every replica's transitions
/// pop off one [`EventQueue`] in cycle order, same-cycle events in push
/// order, and the node-wide sync starts when the last replica closes its
/// minibatch. Each stage admission emits an occupancy span on its
/// stage's track (start and duration are the image's service interval),
/// each sync a span on the `sync` track, and each retried hand-off or
/// sync an instant on the `link retries` track, in emission order. Every
/// replica's spans land on the shared stage tracks, so only a
/// one-replica recording keeps each track's timestamps monotone; the
/// performance model records one replica.
///
/// # Panics
///
/// Panics when `model.stages` is empty, `model.images == 0`, or
/// `model.replicas == 0`.
pub(super) fn run_node_event_ordered<S: TraceSink>(
    model: &NodeModel,
    tracks: &PipelineTracks,
    tracer: &mut Tracer<S>,
) -> NodeOutcome {
    assert!(model.replicas > 0, "need at least one replica");
    let retry_instant = |tracer: &mut Tracer<S>, at: Cycle, retries: u32, cost: Cycle| {
        if retries > 0 {
            tracer.instant(at, tracks.retries, Payload::Retry { retries, cost });
        }
    };
    let mut cores = fresh_cores(model);
    let mut q: EventQueue<NodeEvent> = EventQueue::new();
    for r in 0..model.replicas {
        q.push(0, NodeEvent::Admit(r));
    }
    let mut closers = 0usize;
    let mut syncs = 0u64;
    let mut last_sync_end: Cycle = 0;
    while let Some((now, ev)) = q.pop() {
        let (r, step) = match ev {
            NodeEvent::Admit(r) => (r, cores[r].admit(now)),
            NodeEvent::StageDone { r, stage, img } => (r, cores[r].stage_done(now, stage, img)),
            NodeEvent::SyncDone => {
                for (r, core) in cores.iter_mut().enumerate() {
                    if core.sync_completed() {
                        q.push(now, NodeEvent::Admit(r));
                    }
                }
                continue;
            }
        };
        match step {
            Step::Start(st) => {
                tracer.span(
                    st.start,
                    st.fin - st.start,
                    tracks.stages[st.stage],
                    Payload::Stage {
                        stage: st.stage as u16,
                        image: st.img as u32,
                    },
                );
                retry_instant(tracer, now, st.retries, st.toll);
                let (stage, img) = (st.stage, st.img);
                q.push(st.fin, NodeEvent::StageDone { r, stage, img });
                if stage == 0 {
                    q.push(st.fin, NodeEvent::Admit(r));
                }
            }
            Step::Done { closes_batch: true } => {
                closers += 1;
                if closers == model.replicas {
                    // Every replica closed minibatch `syncs`: the
                    // node-wide reduce starts now (the max over close
                    // times) and releases all replicas after the drawn
                    // delay.
                    closers = 0;
                    let (retries, toll, delay) = sync_penalty(model, syncs);
                    tracer.span(
                        now,
                        delay,
                        tracks.sync,
                        Payload::Sync {
                            index: syncs as u32,
                        },
                    );
                    retry_instant(tracer, now, retries, toll);
                    syncs += 1;
                    last_sync_end = now + delay;
                    q.push(last_sync_end, NodeEvent::SyncDone);
                }
            }
            Step::Done {
                closes_batch: false,
            }
            | Step::Gated => {}
        }
    }
    debug_assert_eq!(syncs, model.total_syncs(), "sync count is structural");
    merge(model, &cores, last_sync_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::perf::{pipeline, PerfSim, RunKind};
    use proptest::prelude::*;
    use scaledeep_arch::presets;
    use scaledeep_compiler::Compiler;
    use scaledeep_dnn::{zoo, LayerId};
    use scaledeep_trace::{Category, CategoryMask, FilterSink, MetricsRegistry, VecSink};

    /// The event-ordered drive with nothing recorded: the epoch drive's
    /// oracle.
    fn event_ordered(model: &NodeModel) -> NodeOutcome {
        let mut tracer = Tracer::disabled();
        let tracks = PipelineTracks::intern(&model.stages, &mut tracer);
        run_node_event_ordered(model, &tracks, &mut tracer)
    }

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
                        event_ordered(&m),
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
        let oracle = event_ordered(&m);
        assert_eq!(oracle.syncs, 2);
        assert_eq!(run_node(&m), oracle);
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
                        event_ordered(&m),
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
            prop_assert_eq!(run_node(&m), event_ordered(&m));
        }
    }

    // The drive a traced run takes: `pipeline::drive` simulates a model
    // epoch by epoch (`run_node`: each fault-free epoch in closed form,
    // each link-faulted epoch walked image-major) whenever the tracer
    // records none of the pipeline's categories, and with the
    // event-ordered heap otherwise. Both return a `NodeOutcome`, and the
    // registry is written in bulk from it, so nothing a caller can read
    // may tell the two apart: the outcome and the metrics registry must
    // be `==`. The generators cover long pipelines, one to three
    // replicas, equal service times (heap ties), partial tail
    // minibatches, barrier on and off, and seeded transient link faults;
    // a second, fault-free generator sizes minibatches like real runs (up
    // to 64 images). A metrics-only tracer (active, every category
    // filtered out) takes the epoch drive too, and must still intern the
    // same tracks and record no event, while a tracer that records any
    // single pipeline category keeps the event-ordered drive.

    /// One to forty stages. A small palette makes equal service times
    /// (and so equal completion cycles across stages) common rather than
    /// a one-in-10^4 accident.
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
    fn palette_model(seed: u64, fault_seed: u64) -> NodeModel {
        let mut rng = Rng(seed.rotate_left(11) | 1);
        let stages = palette_stages(&mut rng);
        let minibatch = rng.range(1, 8) as usize;
        // Whole minibatches plus a (possibly empty) partial tail.
        let images =
            minibatch * rng.range(1, 5) as usize + rng.range(0, minibatch as u64 - 1) as usize;
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

    /// One random fault-free run sized like a real one: minibatches of
    /// up to 64 images, so an epoch's last image sits far down the
    /// stages' lattice (the `i·M_k` term of the closed-form epoch).
    fn real_scale_model(seed: u64) -> NodeModel {
        let mut rng = Rng(seed.rotate_left(23) | 1);
        let stages = palette_stages(&mut rng);
        let minibatch = rng.range(1, 64) as usize;
        // Whole minibatches plus a (possibly empty) partial tail.
        let images =
            minibatch * rng.range(1, 5) as usize + rng.range(0, minibatch as u64 - 1) as usize;
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

    /// Drives `m` under `tracer` and writes the pipeline's counters from
    /// the outcome, as a traced `PerfSim::run` does.
    fn drive_observed<S: TraceSink>(
        m: &NodeModel,
        tracer: &mut Tracer<S>,
    ) -> (NodeOutcome, MetricsRegistry) {
        let out = pipeline::drive(m, tracer);
        let mut reg = MetricsRegistry::new();
        pipeline::write_counters(
            &mut reg,
            [
                out.faults.link_retries,
                out.faults.retry_cycles,
                out.images_done,
                out.syncs,
                out.sync_cycles,
            ],
            out.stage_busy.iter().copied(),
            &pipeline::occupancy(&m.stages, &out.stage_admissions),
        );
        (out, reg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The epoch and event-ordered drives return equal outcomes and
        /// equal registries on random models.
        #[test]
        fn image_major_drive_matches_the_event_ordered_drive(seed in any::<u64>(), fault_seed in any::<u64>()) {
            let m = palette_model(seed, fault_seed);
            let (fast, fast_reg) = drive_observed(&m, &mut Tracer::disabled());
            let mut recorded = Tracer::new(VecSink::new());
            let (slow, slow_reg) = drive_observed(&m, &mut recorded);
            prop_assert!(
                recorded.sink().events().len() >= m.replicas * m.images * m.stages.len(),
                "the recording tracer must take the event-ordered drive"
            );
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(&fast_reg, &slow_reg);

            let mut metrics_only =
                Tracer::new(FilterSink::new(VecSink::new(), CategoryMask::none()));
            let (quiet, quiet_reg) = drive_observed(&m, &mut metrics_only);
            prop_assert_eq!(&quiet, &slow);
            prop_assert_eq!(&quiet_reg, &slow_reg);
            prop_assert!(metrics_only.sink().inner().events().is_empty());
            prop_assert_eq!(metrics_only.tracks(), recorded.tracks());

            // Recording any one pipeline category keeps the event-ordered
            // drive: the filtered run records exactly that category's
            // events.
            for cat in [Category::Stage, Category::Session, Category::Link] {
                let mut one =
                    Tracer::new(FilterSink::new(VecSink::new(), CategoryMask::just(cat)));
                let (out, one_reg) = drive_observed(&m, &mut one);
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

        /// Fault-free models at real scale: the closed-form epochs behind
        /// an untraced run return the outcome and registry of the
        /// recorded event-ordered run.
        #[test]
        fn real_scale_fault_free_runs_match_the_recorded_drive(seed in any::<u64>()) {
            let m = real_scale_model(seed);
            let (fast, fast_reg) = drive_observed(&m, &mut Tracer::disabled());
            let mut recorded = Tracer::new(VecSink::new());
            let (slow, slow_reg) = drive_observed(&m, &mut recorded);
            prop_assert!(
                recorded.sink().events().len() >= m.replicas * m.images * m.stages.len(),
                "the recording tracer must take the event-ordered drive"
            );
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(&fast_reg, &slow_reg);
        }
    }
}
