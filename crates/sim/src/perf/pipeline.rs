//! The inter-layer pipeline DES: images flow through layer stages; the
//! pipeline stalls at minibatch boundaries for gradient aggregation.

use super::node::{self, NodeModel, NodeOutcome, PipelineTracks};
use super::StageCost;
use crate::engine::Cycle;
use scaledeep_arch::NodeConfig;
use scaledeep_compiler::Mapping;
use scaledeep_trace::{Category, Hist, MetricsRegistry, TraceSink, Tracer};

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

/// Simulates `model` with the drive `tracer` calls for, interning the
/// pipeline's tracks either way; writes no registry.
///
/// Every stage hand-off (the grid/spoke transfer admitting an image into a
/// stage) and every minibatch sync (wheel arcs + ring) independently
/// suffers the model's [`LinkFaults`](crate::fault::LinkFaults)-drawn
/// retries, each adding its exponential back-off to the transfer's
/// completion time. Draws are keyed on `(seed, replica, stage, image)` /
/// `(seed, sync index)` — order-independent, so the same plan replays
/// identically. `link: None` (the empty plan) takes the exact same code
/// path with zero added latency. The outcome's fault toll reports the
/// retries and the total cycles they cost.
///
/// When `tracer` records any of the pipeline's categories
/// ([`Category::Stage`], [`Category::Session`], [`Category::Link`]), the
/// run takes the event-ordered drive, which emits every stage-occupancy
/// span, sync span and retry instant in emission order. Otherwise it
/// takes the epoch drive [`run_node`](super::run_node). Both return the
/// same [`NodeOutcome`], from which the caller writes the counters
/// ([`write_counters`]).
///
/// # Panics
///
/// Panics when `model.stages` is empty, `model.images == 0`, or
/// `model.replicas == 0`.
pub(super) fn drive<S: TraceSink>(model: &NodeModel, tracer: &mut Tracer<S>) -> NodeOutcome {
    let tracks = PipelineTracks::intern(&model.stages, tracer);
    let records = [Category::Stage, Category::Session, Category::Link]
        .into_iter()
        .any(|cat| tracer.wants(cat));
    if records {
        node::run_node_event_ordered(model, &tracks, tracer)
    } else {
        node::run_node(model)
    }
}

/// The per-visit stage-occupancy histogram: each stage's service cycles,
/// observed once per admission. Service is constant per stage, so one
/// bulk observe per stage reproduces the per-visit distribution.
pub(super) fn occupancy(stages: &[StageCost], admissions: &[u64]) -> Hist {
    let mut hist = Hist::default();
    for (st, &n) in stages.iter().zip(admissions) {
        hist.observe_n(st.service_cycles.max(1) as f64, n);
    }
    hist
}

/// Writes the pipeline's counters into `reg` through one merge of a
/// per-run registry: `totals` are the link retries, retry cycles, images
/// completed, syncs and sync cycles, `busy` each stage's busy cycles in
/// pipeline order.
pub(super) fn write_counters(
    reg: &mut MetricsRegistry,
    totals: [u64; 5],
    busy: impl Iterator<Item = u64>,
    occupancy: &Hist,
) {
    const TOTALS: [&str; 5] = [
        "perf.link.retries",
        "perf.link.retry_cycles",
        "perf.images.completed",
        "perf.syncs",
        "perf.sync.cycles",
    ];
    let mut run = MetricsRegistry::new();
    for (name, value) in TOTALS.into_iter().zip(totals) {
        let id = run.counter(name);
        run.add(id, value);
    }
    let hist = run.histogram("perf.stage.occupancy");
    run.observe_hist(hist, occupancy);
    for (s, busy) in busy.enumerate() {
        let id = run.counter(&format!("perf.stage.{s:02}.busy"));
        run.add(id, busy);
    }
    reg.merge(&run);
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
    use crate::fault::LinkFaults;
    use crate::perf::{FaultStats, StageCost};
    use scaledeep_dnn::LayerId;

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

    /// A fault-free single-replica model of `service` stages.
    fn model(service: &[u64], images: usize, minibatch: usize, sync: Cycle) -> NodeModel {
        NodeModel {
            stages: service.iter().map(|&c| stage(c)).collect(),
            replicas: 1,
            images,
            minibatch,
            sync,
            barrier: sync > 0,
            seed: 0,
            link: None,
        }
    }

    /// An untraced run.
    fn run(m: &NodeModel) -> NodeOutcome {
        drive(m, &mut Tracer::disabled())
    }

    /// Images completed inside the steady-state window (all but the
    /// first).
    fn done(m: &NodeModel) -> usize {
        m.images - 1
    }

    #[test]
    fn throughput_is_set_by_the_slowest_stage() {
        let m = model(&[10, 50, 20], 40, 40, 0);
        let per_image = run(&m).window as f64 / done(&m) as f64;
        assert!(
            (per_image - 50.0).abs() < 2.0,
            "expected ~50 cycles/image, got {per_image}"
        );
    }

    #[test]
    fn single_stage_pipeline_serializes() {
        let m = model(&[7], 10, 10, 0);
        assert_eq!(run(&m).window as usize, 7 * done(&m));
    }

    #[test]
    fn barrier_slows_training() {
        let free = model(&[10, 10], 32, 8, 0);
        let synced = model(&[10, 10], 32, 8, 500);
        let free = run(&free).window as f64 / done(&free) as f64;
        let synced = run(&synced).window as f64 / done(&synced) as f64;
        assert!(
            synced > free * 1.5,
            "sync must cost: {free} vs {synced} cycles/image"
        );
    }

    #[test]
    fn bottleneck_stage_is_busiest() {
        let out = run(&model(&[10, 40], 50, 50, 0));
        let util: Vec<f64> = out
            .stage_busy
            .iter()
            .map(|&busy| busy as f64 / out.per_replica_makespan[0] as f64)
            .collect();
        assert!(util[1] > util[0]);
        assert!(util[1] > 0.9, "bottleneck near fully busy: {}", util[1]);
    }

    #[test]
    fn empty_plan_path_is_identical_to_fault_free() {
        let plain = model(&[10, 30], 32, 8, 100);
        let seeded = NodeModel {
            seed: 7,
            ..plain.clone()
        };
        let out = run(&seeded);
        assert_eq!(run(&plain), out);
        assert_eq!(out.faults, FaultStats::default());
    }

    #[test]
    fn single_link_retry_latency_is_accounted_exactly() {
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
        let images = 4;
        let free = NodeModel {
            seed: 3,
            ..model(&[10], images, images, 0)
        };
        let faulty = NodeModel {
            link: Some(lf),
            ..free.clone()
        };
        let (free, faulty) = (run(&free), run(&faulty));
        assert_eq!(free.images_done, faulty.images_done);
        assert_eq!(faulty.faults.link_retries, images as u64);
        assert_eq!(faulty.faults.retry_cycles, per_transfer * images as u64);
        // Single-stage pipeline serializes, so every retry after the
        // first completion lands in the measurement window.
        assert_eq!(
            faulty.window - free.window,
            per_transfer * (images as u64 - 1)
        );
    }

    #[test]
    fn link_faults_slow_the_pipeline_deterministically() {
        let free = NodeModel {
            seed: 11,
            ..model(&[10, 25, 15], 48, 8, 200)
        };
        let faulty = NodeModel {
            link: Some(LinkFaults {
                prob: 0.3,
                base_backoff: 8,
                max_retries: 4,
            }),
            ..free.clone()
        };
        let a = run(&faulty);
        assert_eq!(a, run(&faulty), "same seed replays identically");
        assert!(a.window > run(&free).window, "retries must cost wall-clock");
        assert!(a.faults.link_retries > 0);
    }

    #[test]
    fn all_images_complete_with_barriers() {
        // Barriers must not strand images (regression for the admission
        // gate logic).
        let out = run(&model(&[3, 5, 2], 24, 4, 100));
        assert_eq!(out.images_done, 24);
        assert_eq!(out.syncs, 6);
        assert!(out.window > 0);
    }
}
