//! Performance simulator: an event-driven model of ScaleDeep's nested
//! pipeline over a compiled [`Mapping`] (paper §3.2.3, §5, §6).
//!
//! The model simulates the inter-layer pipeline as a tandem of layer
//! stages. Each stage's per-image service time is the maximum over its
//! concurrently-running FP/BP/WG role tiles of the role's bound:
//!
//! * **compute** — array FLOPs over the allocated lanes, derated by the
//!   feature-distribution and 2D-array-residue utilizations from the
//!   mapping, divided by the inter-feature pipeline overlap efficiency
//!   (the paper's final Figure 19 loss factor), plus per-batch scalar
//!   instruction overhead;
//! * **SFU** — accumulation/activation/sampling FLOPs over the layer's
//!   MemHeavy SFUs;
//! * **links** — per-role traffic over the CompHeavy↔MemHeavy and
//!   MemHeavy↔MemHeavy links, external memory (weight streaming, the
//!   training-time FP-feature spill/fill), the wheel spokes, and (when the
//!   network spans chips/clusters) arcs and the ring.
//!
//! At each minibatch boundary the pipeline stalls for the weight-gradient
//! aggregation and updated-weight distribution over the arcs and ring
//! (paper §3.3). Evaluation reuses the BP/WG CompHeavy tiles for FP and
//! skips the spill and the barrier, which is why it runs "marginally over
//! 3×" faster than training (paper §6.1).
//!
//! [`Mapping`]: scaledeep_compiler::Mapping

mod metrics;
mod node;
mod pipeline;
mod replica;
mod stage;

pub use metrics::{FaultStats, LinkUtilization, PerfResult, StageStat, TierBytes};
pub use node::{run_node, NodeModel, NodeOutcome};
pub use stage::{RunKind, StageCost};

use crate::fault::FaultPlan;
use scaledeep_arch::{NodeConfig, PowerModel};
use scaledeep_compiler::Mapping;
use scaledeep_trace::{MetricsRegistry, TraceSink, Tracer};

/// Tunable simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfOptions {
    /// Training minibatch size (images between weight updates).
    pub minibatch: usize,
    /// Minibatches to simulate after the warm-up batch.
    pub minibatches: usize,
    /// Inter-feature pipeline overlap efficiency: the fraction of compute
    /// time not lost to weight-load / accumulate / control bubbles between
    /// output-feature batches. The paper's measured suite-wide drop from
    /// 0.42 (post-array) to 0.35 (achieved) utilization corresponds to
    /// ~0.85 (§6.1 "overhead added due to other program instructions").
    pub overlap_efficiency: f64,
    /// Scalar-PE cycles charged per output-feature batch (loop control,
    /// pointer arithmetic, DMA issue).
    pub scalar_cycles_per_batch: u64,
    /// Ablation A1: force the FC wheel batch to a fixed value (e.g. 1 to
    /// disable the hub's input batching — FC weights are then re-streamed
    /// per image).
    pub force_fc_batch: Option<usize>,
    /// Ablation A2: disable FC model parallelism (weights are not sharded
    /// across clusters; the full parameter stream hits one hub chip).
    pub disable_fc_model_parallelism: bool,
    /// Ablation A4: disable the inter-layer pipeline (layers execute
    /// back-to-back per image, GPU-style).
    pub layer_sequential: bool,
    /// Ablation A5: idealized zero-cost minibatch synchronization.
    pub ideal_sync: bool,
    /// Winograd F(2x2, 3x3) convolutions on the 2D arrays: 2.25x fewer
    /// multiplies on 3x3 CONV layers. The paper notes ScaleDeep "currently
    /// does not use Winograd" but sees "no fundamental bottlenecks" —
    /// this flag implements that extension.
    pub winograd: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        Self {
            minibatch: 64,
            minibatches: 3,
            overlap_efficiency: 0.85,
            scalar_cycles_per_batch: 24,
            force_fc_batch: None,
            disable_fc_model_parallelism: false,
            layer_sequential: false,
            ideal_sync: false,
            winograd: false,
        }
    }
}

/// The performance simulator, bound to one node configuration.
///
/// ```
/// use scaledeep_arch::presets;
/// use scaledeep_compiler::Compiler;
/// use scaledeep_dnn::zoo;
/// use scaledeep_sim::fault::FaultPlan;
/// use scaledeep_sim::perf::{PerfSim, RunKind};
/// use scaledeep_trace::Tracer;
///
/// # fn main() -> Result<(), scaledeep_sim::Error> {
/// let node = presets::single_precision();
/// let mapping = Compiler::new(&node).map(&zoo::alexnet())?;
/// let result = PerfSim::new(&node).run(
///     &mapping,
///     RunKind::Training,
///     &FaultPlan::none(),
///     &mut Tracer::disabled(),
///     None,
/// );
/// assert!(result.images_per_sec > 1_000.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PerfSim {
    node: NodeConfig,
    power: PowerModel,
    opts: PerfOptions,
}

impl PerfSim {
    /// Creates a simulator for `node` with default options and the power
    /// model matching the node's precision.
    pub fn new(node: &NodeConfig) -> Self {
        Self {
            node: *node,
            power: node.power_model(),
            opts: PerfOptions::default(),
        }
    }

    /// Overrides the simulation options.
    pub fn with_options(mut self, opts: PerfOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The bound node configuration.
    pub fn node(&self) -> &NodeConfig {
        &self.node
    }

    /// The simulation options.
    pub fn options(&self) -> &PerfOptions {
        &self.opts
    }

    /// The one performance run: simulates an already-mapped network under
    /// a [`FaultPlan`], observed by `tracer`, and returns the typed run
    /// record. The plan's [`LinkFaults`](crate::fault::LinkFaults) model
    /// charges retry/back-off latency on stage hand-offs and minibatch
    /// syncs, and the result's [`PerfResult::faults`] reports the toll;
    /// the empty plan takes the same code path with zero added latency.
    /// The pipeline emits stage-occupancy spans, sync spans, and retry
    /// instants into `tracer`. With `reg: Some`, the record is then rendered into the
    /// registry: every scalar of the [`PerfResult`] plus the pipeline's
    /// counters, under their `perf.*` names (same names, values and
    /// registration order for any tracer; counters add to any already
    /// there). With `None` the run touches no registry at all.
    ///
    /// The run is [`PerfSim::node_model`] with one replica (replica 0's
    /// salts), faulted runs included; the node-wide replica count scales
    /// the throughput. Without faults every replica is identical. Under
    /// link faults the whole node ([`run_node`]) has a window and retry
    /// count at least this run's (DESIGN.md §5b).
    pub fn run<S: TraceSink>(
        &self,
        mapping: &Mapping,
        kind: RunKind,
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
        reg: Option<&mut MetricsRegistry>,
    ) -> PerfResult {
        let mut model = self.node_model(mapping, kind, plan);
        let pipelines = std::mem::replace(&mut model.replicas, 1);
        let (out, done) = if self.opts.layer_sequential {
            (node::run_layer_sequential(&model), model.images)
        } else {
            (pipeline::drive(&model, tracer), model.images - 1)
        };
        let result = metrics::assemble(
            mapping,
            &self.node,
            &self.power,
            kind,
            model.stages,
            &out,
            done,
            pipelines,
        );
        if let Some(reg) = reg {
            metrics::write_metrics(&result, reg);
        }
        result
    }

    /// Builds the [`NodeModel`] of an already-mapped network, the one
    /// description of a performance run: the stage costs, image stream,
    /// minibatch structure and sync latency, replicated over every
    /// concurrent pipeline the mapping runs node-wide, with the plan's
    /// seed and link-fault model. [`PerfSim::run`] simulates
    /// it with one replica, which draws on replica 0's salts;
    /// [`run_node`] on the whole model max-reduces every replica at each
    /// sync (`Session::node_outcome`).
    pub fn node_model(&self, mapping: &Mapping, kind: RunKind, plan: &FaultPlan) -> NodeModel {
        let barrier = kind == RunKind::Training;
        let minibatch = self.opts.minibatch.max(1);
        NodeModel {
            stages: stage::build_stages(mapping, &self.node, &self.opts, kind),
            replicas: pipeline::total_pipelines(mapping, &self.node),
            images: minibatch * (self.opts.minibatches.max(1) + 1),
            minibatch,
            sync: if barrier && !self.opts.ideal_sync {
                pipeline::sync_cycles(mapping, &self.node)
            } else {
                0
            },
            barrier,
            seed: plan.seed(),
            link: plan.link_faults().copied(),
        }
    }
}

/// Maps `net` onto `sim`'s node and simulates one run of `kind`.
#[cfg(test)]
pub(crate) fn map_and_run(
    sim: &PerfSim,
    net: &scaledeep_dnn::Network,
    kind: RunKind,
) -> PerfResult {
    let mapping = scaledeep_compiler::Compiler::new(&sim.node)
        .map(net)
        .expect("network maps");
    sim.run(
        &mapping,
        kind,
        &FaultPlan::none(),
        &mut Tracer::disabled(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;

    fn sim() -> PerfSim {
        PerfSim::new(&presets::single_precision())
    }

    #[test]
    fn alexnet_trains_at_thousands_of_images_per_second() {
        let r = map_and_run(&sim(), &zoo::alexnet(), RunKind::Training);
        assert!(
            r.images_per_sec > 2_000.0 && r.images_per_sec < 300_000.0,
            "got {}",
            r.images_per_sec
        );
    }

    #[test]
    fn evaluation_is_about_3x_training() {
        // Paper §6.1: "higher than training by a factor marginally over 3x".
        let s = sim();
        let t = map_and_run(&s, &zoo::alexnet(), RunKind::Training);
        let e = map_and_run(&s, &zoo::alexnet(), RunKind::Evaluation);
        let ratio = e.images_per_sec / t.images_per_sec;
        assert!(ratio > 2.4 && ratio < 4.5, "eval/train ratio {ratio}");
    }

    #[test]
    fn utilization_is_in_paper_band() {
        // Paper: average 0.35 utilization, per-net 0.2-0.6.
        let r = map_and_run(&sim(), &zoo::alexnet(), RunKind::Training);
        assert!(
            r.pe_utilization > 0.10 && r.pe_utilization < 0.9,
            "got {}",
            r.pe_utilization
        );
    }

    #[test]
    fn vgg_is_slower_than_alexnet() {
        let s = sim();
        let a = map_and_run(&s, &zoo::alexnet(), RunKind::Training);
        let v = map_and_run(&s, &zoo::vgg_d(), RunKind::Training);
        assert!(v.images_per_sec < a.images_per_sec / 3.0);
    }

    #[test]
    fn half_precision_speeds_up_training() {
        // Paper: 1.85x over single precision at iso-power.
        let sp = map_and_run(&sim(), &zoo::vgg_a(), RunKind::Training);
        let hp = map_and_run(
            &PerfSim::new(&presets::half_precision()),
            &zoo::vgg_a(),
            RunKind::Training,
        );
        let speedup = hp.images_per_sec / sp.images_per_sec;
        assert!(speedup > 1.2 && speedup < 3.0, "HP speedup {speedup}");
    }

    #[test]
    fn power_stays_under_peak() {
        let r = map_and_run(&sim(), &zoo::overfeat_fast(), RunKind::Training);
        assert!(r.avg_power.total() < 1400.0);
        assert!(r.avg_power.total() > 140.0); // leakage floor
        assert!(r.gflops_per_watt > 50.0 && r.gflops_per_watt < 490.0);
    }

    #[test]
    fn all_benchmarks_simulate() {
        let s = sim();
        for name in zoo::BENCHMARK_NAMES {
            let net = zoo::by_name(name).unwrap();
            let r = map_and_run(&s, &net, RunKind::Training);
            assert!(r.images_per_sec > 50.0, "{name}: {}", r.images_per_sec);
            assert!(r.pe_utilization > 0.01, "{name}");
        }
    }

    #[test]
    fn comp_mem_links_are_best_utilized_on_chip() {
        // Figure 21: Comp-Mem ~0.87, Mem-Mem lower.
        let r = map_and_run(&sim(), &zoo::alexnet(), RunKind::Training);
        let comp = r.link_utilization(scaledeep_arch::LinkClass::CompMem);
        let mem = r.link_utilization(scaledeep_arch::LinkClass::MemMem);
        assert!(comp > mem, "comp-mem {comp} vs mem-mem {mem}");
    }

    #[test]
    fn ring_matters_only_for_multi_cluster_networks() {
        let s = sim();
        let small = map_and_run(&s, &zoo::alexnet(), RunKind::Training);
        let big = map_and_run(&s, &zoo::vgg_e(), RunKind::Training);
        let ring_small = small.link_utilization(scaledeep_arch::LinkClass::Ring);
        let ring_big = big.link_utilization(scaledeep_arch::LinkClass::Ring);
        assert!(
            ring_big > ring_small,
            "VGG-E ring {ring_big} should exceed AlexNet ring {ring_small}"
        );
    }
}
