//! Node-level performance engine: one event shard per pipeline replica
//! group, synchronized barrier-per-window at minibatch syncs.
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
//! window is an *exact* lookahead, not just a conservative bound, and a
//! barrier per window loses no precision (justified in DESIGN §5h
//! against null-message alternatives).
//!
//! # Engines
//!
//! * [`run_node_sequential`] — the bit-identity oracle: every replica's
//!   events interleave on one global [`EventQueue`], the general
//!   sequential engine shape.
//! * [`run_node_sharded`] — replicas are partitioned contiguously over
//!   `shards` OS threads. Each shard drains its replicas to quiescence
//!   within the epoch, contributes its latest minibatch close time to a
//!   per-sync atomic max, and crosses one [`Barrier`] per window. With
//!   no cross-replica event interleaving left inside a shard, each
//!   replica's [`ReplicaCore`] is driven **image-major** — a
//!   fast-forward with zero priority-queue traffic — which is where the
//!   wall-clock win comes from even on a single hardware core. All
//!   link-retry draws are pure in `(seed, salt)`, so every shard count
//!   produces bit-identical [`NodeOutcome`]s.

use crate::engine::{Cycle, EventQueue};
use crate::fault::LinkFaults;
use crate::perf::replica::{replica_salt_base, Event, ReplicaCore, Step, SYNC_SALT};
use crate::perf::{FaultStats, StageCost};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Everything the node-level engines need: the per-stage costs shared by
/// all replicas, the replica count, the per-replica image stream, and
/// the sync/fault parameters.
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
/// and counts), so sequential and sharded engines must agree on all of
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

/// What the merge needs from one finished replica.
struct ReplicaSummary {
    first_done: Cycle,
    last_done: Cycle,
    completed: usize,
    stage_admissions: Vec<u64>,
    retries: u64,
    retry_cycles: u64,
}

fn summarize(core: &ReplicaCore) -> ReplicaSummary {
    ReplicaSummary {
        first_done: core.first_done(),
        last_done: core.last_done(),
        completed: core.completed(),
        stage_admissions: core.stage_admissions().to_vec(),
        retries: core.retries(),
        retry_cycles: core.retry_cycles(),
    }
}

/// The node-wide sync penalty for sync `index`: pure in `(seed, index)`,
/// so the sequential oracle, every shard, and the post-join accounting
/// all draw the same values independently.
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

fn fresh_cores<'a>(model: &'a NodeModel, lo: usize, hi: usize) -> Vec<ReplicaCore<'a>> {
    (lo..hi)
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

/// Merges per-replica summaries (in replica order) plus the node-wide
/// sync accounting into a [`NodeOutcome`].
fn merge(model: &NodeModel, summaries: &[ReplicaSummary], last_sync_end: Cycle) -> NodeOutcome {
    let n = model.stages.len();
    let total_syncs = model.total_syncs();
    let (mut sync_retries, mut sync_retry_cycles, mut sync_cycles) = (0u64, 0u64, 0u64);
    for b in 0..total_syncs {
        let (r, rc, delay) = sync_penalty(model, b);
        sync_retries += r;
        sync_retry_cycles += rc;
        sync_cycles += delay;
    }
    let mut stage_admissions = vec![0u64; n];
    let mut retries = sync_retries;
    let mut retry_cycles = sync_retry_cycles;
    let mut first = Cycle::MAX;
    let mut last: Cycle = 0;
    let mut images_done = 0u64;
    let mut per_replica_makespan = Vec::with_capacity(summaries.len());
    for s in summaries {
        debug_assert_eq!(s.completed, model.images, "replica must drain");
        for (acc, &a) in stage_admissions.iter_mut().zip(&s.stage_admissions) {
            *acc += a;
        }
        retries += s.retries;
        retry_cycles += s.retry_cycles;
        first = first.min(s.first_done);
        last = last.max(s.last_done);
        images_done += s.completed as u64;
        per_replica_makespan.push(s.last_done);
    }
    let stage_busy: Vec<u64> = stage_admissions
        .iter()
        .zip(&model.stages)
        .map(|(&a, st)| a * st.service_cycles.max(1))
        .collect();
    NodeOutcome {
        replicas: summaries.len(),
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

/// One event of the node-level sequential oracle.
#[derive(Debug, Clone, Copy)]
enum NodeEvent {
    /// A replica-local pipeline event.
    Replica(u32, Event),
    /// The node-wide minibatch sync completed.
    SyncDone,
}

/// The sequential bit-identity oracle: all replicas interleave on one
/// global event queue, exactly the single-heap shape of the classic
/// engine. With `replicas == 1` it reproduces the classic
/// [`run_pipeline_traced`](crate::perf::run_pipeline_traced) pipeline
/// dynamics on the same salts.
///
/// # Panics
///
/// Panics when `model.stages` is empty, `model.images == 0`, or
/// `model.replicas == 0`.
pub fn run_node_sequential(model: &NodeModel) -> NodeOutcome {
    assert!(model.replicas > 0, "need at least one replica");
    let r_total = model.replicas;
    let mut cores = fresh_cores(model, 0, r_total);
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
                    q.push(
                        st.fin,
                        NodeEvent::Replica(
                            r,
                            Event::StageDone {
                                stage: 0,
                                img: st.img,
                            },
                        ),
                    );
                    q.push(st.fin, NodeEvent::Replica(r, Event::Admit));
                }
            }
            NodeEvent::Replica(r, Event::StageDone { stage, img }) => {
                match cores[r as usize].stage_done(now, stage, img) {
                    Step::Start(st) => q.push(
                        st.fin,
                        NodeEvent::Replica(
                            r,
                            Event::StageDone {
                                stage: st.stage,
                                img,
                            },
                        ),
                    ),
                    Step::Done { batch_done } => {
                        if batch_done.is_some() {
                            closers += 1;
                            if closers == r_total {
                                // Every replica closed minibatch `syncs`:
                                // the node-wide reduce starts now (the
                                // max over close times) and releases all
                                // replicas after the drawn delay.
                                closers = 0;
                                let (_, _, delay) = sync_penalty(model, syncs);
                                syncs += 1;
                                last_sync_end = now + delay;
                                q.push(last_sync_end, NodeEvent::SyncDone);
                            }
                        }
                    }
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
    let summaries: Vec<ReplicaSummary> = cores.iter().map(summarize).collect();
    merge(model, &summaries, last_sync_end)
}

/// Drains every core in `cores` to quiescence for the current epoch,
/// admitting at cycle `resume` (the post-sync release cycle `G_b`, or 0
/// for the first epoch). Returns the latest minibatch close time seen.
///
/// Within an epoch a shard's replicas share no state, so each core is
/// driven image-major by [`ReplicaCore::drain`], with zero heap traffic.
fn drain_epoch(cores: &mut [ReplicaCore], resume: Cycle) -> Cycle {
    cores
        .iter_mut()
        .map(|core| core.drain(resume))
        .max()
        .unwrap_or(0)
}

/// The sharded engine: replicas are split contiguously across
/// `shards` OS threads (clamped to the replica count), each draining its
/// replicas epoch-by-epoch. Sync `b` owns one [`AtomicU64`] cell:
/// every shard `fetch_max`es its epoch close time into it, crosses the
/// shared [`Barrier`], and then reads the final max back — no leader,
/// no reset, no second barrier, because the sync delay is a pure
/// function every shard computes identically.
///
/// Bit-identical to [`run_node_sequential`] for every shard count, and
/// deterministic across repeated runs — both enforced by tests and the
/// CI `par-check` job.
///
/// # Panics
///
/// Panics when `model.stages` is empty, `model.images == 0`, or
/// `model.replicas == 0`.
pub fn run_node_sharded(model: &NodeModel, shards: usize) -> NodeOutcome {
    assert!(model.replicas > 0, "need at least one replica");
    let r_total = model.replicas;
    let n_shards = shards.clamp(1, r_total);
    let total_syncs = model.total_syncs();
    let maxes: Vec<AtomicU64> = (0..total_syncs).map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(n_shards);
    let bounds: Vec<(usize, usize)> = (0..n_shards)
        .map(|s| (r_total * s / n_shards, r_total * (s + 1) / n_shards))
        .collect();
    let shard_results: Vec<Vec<ReplicaSummary>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let barrier = &barrier;
                let maxes = &maxes;
                scope.spawn(move || {
                    let mut cores = fresh_cores(model, lo, hi);
                    let mut t_close = drain_epoch(&mut cores, 0);
                    for b in 0..total_syncs {
                        maxes[b as usize].fetch_max(t_close, Ordering::SeqCst);
                        barrier.wait();
                        // All contributions are in: the cell now holds
                        // S_b, and is never written again.
                        let s_b = maxes[b as usize].load(Ordering::SeqCst);
                        let (_, _, delay) = sync_penalty(model, b);
                        let g = s_b + delay;
                        for core in cores.iter_mut() {
                            core.sync_completed();
                        }
                        t_close = drain_epoch(&mut cores, g);
                    }
                    cores.iter().map(summarize).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let summaries: Vec<ReplicaSummary> = shard_results.into_iter().flatten().collect();
    let last_sync_end = if total_syncs > 0 {
        let b = total_syncs - 1;
        let (_, _, delay) = sync_penalty(model, b);
        maxes[b as usize].load(Ordering::SeqCst) + delay
    } else {
        0
    };
    merge(model, &summaries, last_sync_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::run_pipeline_traced;
    use scaledeep_dnn::LayerId;
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
    fn sharded_is_bit_identical_to_sequential_oracle() {
        for link in [None, Some(faults())] {
            for replicas in [1, 3, 16] {
                let m = model(replicas, true, link);
                let oracle = run_node_sequential(&m);
                for shards in [1, 2, 4, 8] {
                    let got = run_node_sharded(&m, shards);
                    assert_eq!(
                        got,
                        oracle,
                        "replicas={replicas} shards={shards} link={:?}",
                        link.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn evaluation_mode_has_no_syncs_and_still_matches() {
        let m = model(5, false, Some(faults()));
        let oracle = run_node_sequential(&m);
        assert_eq!(oracle.syncs, 0);
        assert_eq!(oracle.sync_cycles, 0);
        for shards in [1, 2, 4] {
            assert_eq!(run_node_sharded(&m, shards), oracle, "shards={shards}");
        }
    }

    #[test]
    fn partial_tail_minibatch_matches() {
        let mut m = model(4, true, Some(faults()));
        m.images = 21; // 2 full minibatches of 8, then a 5-image tail.
        let oracle = run_node_sequential(&m);
        assert_eq!(oracle.syncs, 2);
        for shards in [2, 3, 4] {
            assert_eq!(run_node_sharded(&m, shards), oracle, "shards={shards}");
        }
    }

    #[test]
    fn same_seed_sharded_runs_are_deterministic() {
        let m = model(8, true, Some(faults()));
        for shards in [2, 4] {
            let a = run_node_sharded(&m, shards);
            let b = run_node_sharded(&m, shards);
            assert_eq!(a, b, "shards={shards} must replay identically");
        }
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
        let one = run_node_sequential(&model(1, true, None));
        let many = run_node_sequential(&model(6, true, None));
        assert_eq!(many.images_done, 6 * one.images_done);
        // Replicas are identical and independent within epochs, so the
        // node window equals the single-replica window exactly.
        assert_eq!(many.window, one.window);
        assert_eq!(many.makespan, one.makespan);
    }

    #[test]
    fn shard_counts_beyond_replicas_clamp() {
        let m = model(3, true, Some(faults()));
        assert_eq!(
            run_node_sharded(&m, 64),
            run_node_sequential(&m),
            "shards clamp to replica count"
        );
    }
}
