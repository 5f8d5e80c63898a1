//! The inter-layer pipeline DES: images flow through layer stages; the
//! pipeline stalls at minibatch boundaries for gradient aggregation.

use super::metrics::{self, FaultStats, PerfResult};
use super::replica::{Event, ReplicaCore, StageStart, Step};
use super::stage::{RunKind, StageCost};
use super::PerfOptions;
use crate::engine::{Cycle, EventQueue};
use crate::fault::{FaultPlan, LinkFaults};
use scaledeep_arch::{NodeConfig, PowerModel};
use scaledeep_compiler::Mapping;
use scaledeep_trace::{Category, MetricId, MetricsRegistry, Payload, TraceSink, Tracer, TrackId};

/// Cycles spent aggregating weight gradients and distributing updated
/// weights at a minibatch boundary: a reduce + broadcast of the CONV
/// weights over the wheel arcs, then a multi-cluster reduction over the
/// ring (paper §3.3).
pub(super) fn sync_cycles(mapping: &Mapping, node: &NodeConfig) -> Cycle {
    let conv_w: u64 = mapping.conv_plans().map(|p| p.weight_bytes).sum();
    let arc_bpc = node.cluster.arc_bw / node.frequency_hz();
    let ring_bpc = node.ring_bw / node.frequency_hz();
    let arc = 2.0 * conv_w as f64 / arc_bpc.max(1e-9);
    let ring = 2.0 * conv_w as f64 / ring_bpc.max(1e-9) / node.clusters as f64;
    (arc + ring).ceil() as Cycle
}

/// Runs the tandem-stage pipeline for `images` images with a barrier every
/// `minibatch` images (when `barrier` is set), under a transient link-fault
/// model and with observability. Returns `(steady-window cycles, images
/// completed in the window, per-stage utilization over the whole run,
/// fault toll)`.
///
/// Every stage hand-off (the grid/spoke transfer admitting an image into a
/// stage) and every minibatch sync (wheel arcs + ring) independently
/// suffers [`LinkFaults`]-drawn retries, each adding its exponential
/// back-off to the transfer's completion time. Draws are keyed on
/// `(seed, stage, image)` / `(seed, sync index)` — order-independent, so
/// the same plan replays identically. `link: None` (the empty plan) takes
/// the exact same code path with zero added latency. The fault toll
/// reports the retries and the total cycles they cost.
///
/// Every stage admission emits an occupancy span on that stage's track
/// (span start/duration are the image's admission/service interval, so
/// per-track timestamps are monotone by construction), minibatch syncs
/// emit spans on a `sync` track, and link retries emit instants on a
/// `link retries` track. All counters (per-stage busy cycles, sync
/// cycles, retry counts/cycles, completions, and a per-visit
/// stage-occupancy histogram) live in a per-run [`MetricsRegistry`] —
/// the returned utilizations and
/// [`FaultStats`] are read back out of it, and it is merged into `reg` at
/// the end.
///
/// Two drives produce identical tuples and registries. When `tracer`
/// records any of the pipeline's categories ([`Category::Stage`],
/// [`Category::Session`], [`Category::Link`]), the run is event-ordered
/// on a heap, because the exporters serialize events in emission order.
/// Otherwise the replica is walked image-major ([`ReplicaCore::drain`]
/// per minibatch epoch) and the counters are written in bulk.
///
/// # Panics
///
/// Panics when `stages` is empty or `images == 0`.
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline_traced<S: TraceSink>(
    stages: &[StageCost],
    images: usize,
    minibatch: usize,
    sync: Cycle,
    barrier: bool,
    seed: u64,
    link: Option<&LinkFaults>,
    tracer: &mut Tracer<S>,
    reg: &mut MetricsRegistry,
) -> (Cycle, usize, Vec<f64>, FaultStats) {
    let mut core = ReplicaCore::new(stages, images, minibatch, barrier, seed, link, 0);
    // All run counters live here; utilizations and fault stats are read
    // back out at the end (no parallel bookkeeping).
    let mut run = MetricsRegistry::new();
    let m = RunMetrics {
        retries: run.counter("perf.link.retries"),
        retry_cycles: run.counter("perf.link.retry_cycles"),
        completed: run.counter("perf.images.completed"),
        syncs: run.counter("perf.syncs"),
        sync_cycles: run.counter("perf.sync.cycles"),
        occupancy: run.histogram("perf.stage.occupancy"),
        stage_busy: (0..stages.len())
            .map(|s| run.counter(&format!("perf.stage.{s:02}.busy")))
            .collect(),
    };
    let tracks = if tracer.active() {
        PipelineTracks {
            stages: stages
                .iter()
                .enumerate()
                .map(|(s, st)| tracer.track(&format!("stage {s:02} {}", st.name)))
                .collect(),
            sync: tracer.track("sync"),
            retries: tracer.track("link retries"),
        }
    } else {
        PipelineTracks {
            stages: vec![0; stages.len()],
            sync: 0,
            retries: 0,
        }
    };
    let records = [Category::Stage, Category::Session, Category::Link]
        .into_iter()
        .any(|cat| tracer.wants(cat));
    if records {
        drive_event_ordered(&mut core, sync, &m, &tracks, &mut run, tracer);
    } else {
        drive_image_major(&mut core, stages, sync, &m, &mut run);
    }
    debug_assert_eq!(core.completed(), images, "all images must drain");
    run.add(m.completed, core.completed() as u64);
    run.add(m.syncs, core.syncs_started());
    let last_done = core.last_done();
    let window = last_done.saturating_sub(core.first_done()).max(1);
    let util = m
        .stage_busy
        .iter()
        .map(|&id| run.counter_get(id) as f64 / last_done.max(1) as f64)
        .collect();
    let faults = FaultStats {
        link_retries: run.counter_get(m.retries),
        retry_cycles: run.counter_get(m.retry_cycles),
    };
    reg.merge(&run);
    (window, images - 1, util, faults)
}

/// Handles of one pipeline run's counters in its per-run registry.
struct RunMetrics {
    retries: MetricId,
    retry_cycles: MetricId,
    completed: MetricId,
    syncs: MetricId,
    sync_cycles: MetricId,
    occupancy: MetricId,
    stage_busy: Vec<MetricId>,
}

/// The tracks a recorded pipeline run emits on.
struct PipelineTracks {
    stages: Vec<TrackId>,
    sync: TrackId,
    retries: TrackId,
}

/// Walks the replica image-major, one minibatch epoch per
/// [`ReplicaCore::drain`], pricing each sync between epochs. The pipeline
/// is empty when a minibatch closes (admission gates on the sync), so
/// resuming every epoch at `close + delay` is exact. Counters are written
/// in bulk: service is constant per stage, so admissions × service is
/// each stage's busy time, and one bulk observe per stage reproduces the
/// per-visit occupancy histogram.
fn drive_image_major(
    core: &mut ReplicaCore,
    stages: &[StageCost],
    sync: Cycle,
    m: &RunMetrics,
    run: &mut MetricsRegistry,
) {
    let mut resume = 0;
    let mut syncs = 0;
    loop {
        let close = core.drain(resume);
        if core.syncs_started() == syncs {
            break;
        }
        let (_, _, delay) = core.sync_penalty(syncs, sync);
        syncs += 1;
        run.add(m.sync_cycles, delay);
        core.sync_completed();
        resume = close + delay;
    }
    let busy = m.stage_busy.iter().zip(core.stage_admissions());
    for ((&id, &admissions), st) in busy.zip(stages) {
        let service = st.service_cycles.max(1);
        run.add(id, admissions * service);
        run.observe_n(m.occupancy, service as f64, admissions);
    }
    run.add(m.retries, core.retries());
    run.add(m.retry_cycles, core.retry_cycles());
}

/// Pops every transition off an event queue in cycle order, emitting each
/// stage span, sync span and retry instant as it happens and mirroring
/// every draw into the registry.
fn drive_event_ordered<S: TraceSink>(
    core: &mut ReplicaCore,
    sync: Cycle,
    m: &RunMetrics,
    tracks: &PipelineTracks,
    run: &mut MetricsRegistry,
    tracer: &mut Tracer<S>,
) {
    // Mirrors one admission into the registry and tracer.
    let emit_start =
        |st: &StageStart, now: Cycle, run: &mut MetricsRegistry, tracer: &mut Tracer<S>| {
            if st.retries > 0 {
                run.add(m.retries, u64::from(st.retries));
                run.add(m.retry_cycles, st.toll);
            }
            run.add(m.stage_busy[st.stage], st.service);
            run.observe(m.occupancy, st.service as f64);
            tracer.span(
                st.start,
                st.fin - st.start,
                tracks.stages[st.stage],
                Payload::Stage {
                    stage: st.stage as u16,
                    image: st.img as u32,
                },
            );
            if st.retries > 0 {
                tracer.instant(
                    now,
                    tracks.retries,
                    Payload::Retry {
                        retries: st.retries,
                        cost: st.toll,
                    },
                );
            }
        };
    let mut q: EventQueue<Event> = EventQueue::new();
    q.push(0, Event::Admit);
    while let Some((now, ev)) = q.pop() {
        match ev {
            Event::Admit => {
                if let Step::Start(st) = core.admit(now) {
                    emit_start(&st, now, run, tracer);
                    q.push(
                        st.fin,
                        Event::StageDone {
                            stage: 0,
                            img: st.img,
                        },
                    );
                    q.push(st.fin, Event::Admit);
                }
            }
            Event::StageDone { stage, img } => match core.stage_done(now, stage, img) {
                Step::Start(st) => {
                    emit_start(&st, now, run, tracer);
                    q.push(
                        st.fin,
                        Event::StageDone {
                            stage: st.stage,
                            img,
                        },
                    );
                }
                Step::Done { batch_done } => {
                    if let Some(index) = batch_done {
                        let (retries, toll, delay) = core.sync_penalty(index, sync);
                        if retries > 0 {
                            run.add(m.retries, u64::from(retries));
                            run.add(m.retry_cycles, toll);
                        }
                        run.add(m.sync_cycles, delay);
                        tracer.span(
                            now,
                            delay,
                            tracks.sync,
                            Payload::Sync {
                                index: index as u32,
                            },
                        );
                        if retries > 0 {
                            tracer.instant(
                                now,
                                tracks.retries,
                                Payload::Retry {
                                    retries,
                                    cost: toll,
                                },
                            );
                        }
                        q.push(now + delay, Event::SyncDone);
                    }
                }
                Step::Gated => unreachable!("stage_done never gates"),
            },
            Event::SyncDone => {
                if core.sync_completed() {
                    q.push(now, Event::Admit);
                }
            }
        }
    }
}

/// Full simulation entry: runs the pipeline under `plan`, assembles
/// metrics into `reg`, and reads [`PerfResult`] back out of it. The
/// fault-free, untraced path passes the empty plan and a disabled tracer.
#[allow(clippy::too_many_arguments)]
pub(super) fn simulate<S: TraceSink>(
    mapping: &Mapping,
    node: &NodeConfig,
    power: &PowerModel,
    opts: &PerfOptions,
    kind: RunKind,
    stages: &[StageCost],
    plan: &FaultPlan,
    tracer: &mut Tracer<S>,
    reg: &mut MetricsRegistry,
) -> PerfResult {
    let barrier = kind == RunKind::Training;
    let minibatch = opts.minibatch.max(1);
    let images = minibatch * (opts.minibatches.max(1) + 1);
    let sync = if barrier && !opts.ideal_sync {
        sync_cycles(mapping, node)
    } else {
        0
    };
    let (window, done, faults) = if opts.layer_sequential {
        // Ablation A4: no inter-layer pipelining — each image traverses
        // every stage before the next is admitted. (The link-fault model
        // targets pipelined transfers and does not apply here.)
        let per_image: u64 = stages.iter().map(|s| s.service_cycles.max(1)).sum();
        let syncs = if barrier { images / minibatch } else { 0 };
        let total = per_image * images as u64 + sync * syncs as u64;
        (total, images, FaultStats::default())
    } else {
        let (window, done, _, faults) = run_pipeline_traced(
            stages,
            images,
            minibatch,
            sync,
            barrier,
            plan.seed(),
            plan.link_faults(),
            tracer,
            reg,
        );
        (window, done, faults)
    };

    let pipelines = total_pipelines(mapping, node);
    let mut result = metrics::assemble(
        mapping, node, power, kind, stages, window, done, pipelines, reg,
    );
    result.faults = faults;
    result
}

/// Concurrent pipeline replicas across the node: rim chips not consumed by
/// one replica host more replicas; networks spanning several clusters
/// leave fewer (down to a single) replicas.
pub(super) fn total_pipelines(mapping: &Mapping, node: &NodeConfig) -> usize {
    let per_cluster = mapping.pipelines_per_cluster(node.cluster.conv_chips);
    let cluster_groups = (node.clusters / mapping.clusters_spanned().max(1)).max(1);
    per_cluster * cluster_groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_dnn::LayerId;

    /// A fault-free, untraced run.
    fn run_pipeline(
        stages: &[StageCost],
        images: usize,
        minibatch: usize,
        sync: Cycle,
        barrier: bool,
    ) -> (Cycle, usize, Vec<f64>) {
        let (mut t, mut r) = (Tracer::disabled(), MetricsRegistry::new());
        let (window, done, util, _) = run_pipeline_traced(
            stages, images, minibatch, sync, barrier, 0, None, &mut t, &mut r,
        );
        (window, done, util)
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

    #[test]
    fn throughput_is_set_by_the_slowest_stage() {
        let stages = vec![stage(10), stage(50), stage(20)];
        let (window, done, _) = run_pipeline(&stages, 40, 40, 0, false);
        let per_image = window as f64 / done as f64;
        assert!(
            (per_image - 50.0).abs() < 2.0,
            "expected ~50 cycles/image, got {per_image}"
        );
    }

    #[test]
    fn single_stage_pipeline_serializes() {
        let stages = vec![stage(7)];
        let (window, done, _) = run_pipeline(&stages, 10, 10, 0, false);
        assert_eq!(window as usize, 7 * done);
    }

    #[test]
    fn barrier_slows_training() {
        let stages = vec![stage(10), stage(10)];
        let (w_free, d_free, _) = run_pipeline(&stages, 32, 8, 0, false);
        let (w_sync, d_sync, _) = run_pipeline(&stages, 32, 8, 500, true);
        let free = w_free as f64 / d_free as f64;
        let synced = w_sync as f64 / d_sync as f64;
        assert!(
            synced > free * 1.5,
            "sync must cost: {free} vs {synced} cycles/image"
        );
    }

    #[test]
    fn bottleneck_stage_is_busiest() {
        let stages = vec![stage(10), stage(40)];
        let (_, _, util) = run_pipeline(&stages, 50, 50, 0, false);
        assert!(util[1] > util[0]);
        assert!(util[1] > 0.9, "bottleneck near fully busy: {}", util[1]);
    }

    #[test]
    fn empty_plan_path_is_identical_to_fault_free() {
        let (mut t, mut r) = (Tracer::disabled(), MetricsRegistry::new());
        let stages = vec![stage(10), stage(30)];
        let plain = run_pipeline(&stages, 32, 8, 100, true);
        let (w, d, u, f) = run_pipeline_traced(&stages, 32, 8, 100, true, 7, None, &mut t, &mut r);
        assert_eq!(plain, (w, d, u));
        assert_eq!(f, FaultStats::default());
    }

    #[test]
    fn single_link_retry_latency_is_accounted_exactly() {
        let (mut t, mut r) = (Tracer::disabled(), MetricsRegistry::new());
        // prob = 1.0 forces every transfer to exhaust its retry budget, so
        // the latency toll is fully predictable: every transfer of every
        // image (and every sync) pays base * (2^retries - 1).
        let lf = LinkFaults {
            prob: 1.0,
            base_backoff: 5,
            max_retries: 1,
        };
        let per_transfer = lf.backoff_cycles(1);
        assert_eq!(per_transfer, 5);
        let stages = vec![stage(10)];
        let images = 4;
        let (w_free, d, _, _) =
            run_pipeline_traced(&stages, images, images, 0, false, 3, None, &mut t, &mut r);
        let link = Some(&lf);
        let (w_faulty, d2, _, f) =
            run_pipeline_traced(&stages, images, images, 0, false, 3, link, &mut t, &mut r);
        assert_eq!(d, d2);
        assert_eq!(f.link_retries, images as u64);
        assert_eq!(f.retry_cycles, per_transfer * images as u64);
        // Single-stage pipeline serializes, so every retry after the
        // first completion lands in the measurement window.
        assert_eq!(w_faulty - w_free, per_transfer * (images as u64 - 1));
    }

    #[test]
    fn link_faults_slow_the_pipeline_deterministically() {
        let (mut t, mut r) = (Tracer::disabled(), MetricsRegistry::new());
        let lf = LinkFaults {
            prob: 0.3,
            base_backoff: 8,
            max_retries: 4,
        };
        let stages = vec![stage(10), stage(25), stage(15)];
        let a = run_pipeline_traced(&stages, 48, 8, 200, true, 11, Some(&lf), &mut t, &mut r);
        let b = run_pipeline_traced(&stages, 48, 8, 200, true, 11, Some(&lf), &mut t, &mut r);
        assert_eq!(a, b, "same seed replays identically");
        let (w_free, ..) = run_pipeline_traced(&stages, 48, 8, 200, true, 11, None, &mut t, &mut r);
        assert!(a.0 > w_free, "retries must cost wall-clock");
        assert!(a.3.link_retries > 0);
    }

    #[test]
    fn all_images_complete_with_barriers() {
        // Barriers must not strand images (regression for the admission
        // gate logic).
        let stages = vec![stage(3), stage(5), stage(2)];
        let (window, done, _) = run_pipeline(&stages, 24, 4, 100, true);
        assert_eq!(done, 23);
        assert!(window > 0);
    }
}
