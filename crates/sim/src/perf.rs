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
pub(crate) mod replica;
mod stage;

pub use metrics::{FaultStats, LinkUtilization, PerfResult, StageStat};
pub use node::{run_node, NodeModel, NodeOutcome};
pub use pipeline::{run_pipeline, run_pipeline_traced};
pub use stage::{RunKind, StageCost};

use crate::error::Result;
use crate::fault::FaultPlan;
use scaledeep_arch::{NodeConfig, PowerModel, Precision};
use scaledeep_compiler::{Compiler, Mapping};
use scaledeep_dnn::Network;
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
/// use scaledeep_dnn::zoo;
/// use scaledeep_sim::perf::PerfSim;
///
/// # fn main() -> Result<(), scaledeep_sim::Error> {
/// let sim = PerfSim::new(&presets::single_precision());
/// let result = sim.train(&zoo::alexnet())?;
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
        let power = match node.precision {
            Precision::Single => PowerModel::paper_sp(),
            Precision::Half => PowerModel::paper_hp(),
        };
        Self {
            node: *node,
            power,
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

    /// Maps and simulates a training run.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn train(&self, net: &Network) -> Result<PerfResult> {
        let mapping = Compiler::new(&self.node).map(net)?;
        Ok(self.run_mapped(&mapping, RunKind::Training))
    }

    /// Maps and simulates an evaluation (inference) run.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn evaluate(&self, net: &Network) -> Result<PerfResult> {
        let mapping = Compiler::new(&self.node).map(net)?;
        Ok(self.run_mapped(&mapping, RunKind::Evaluation))
    }

    /// Simulates an already-mapped network.
    pub fn run_mapped(&self, mapping: &Mapping, kind: RunKind) -> PerfResult {
        self.run_mapped_traced(
            mapping,
            kind,
            &FaultPlan::none(),
            &mut Tracer::disabled(),
            &mut MetricsRegistry::new(),
        )
    }

    /// Simulates an already-mapped network under a [`FaultPlan`] and with
    /// observability. The plan's [`LinkFaults`](crate::fault::LinkFaults)
    /// model charges retry/back-off latency on stage hand-offs and
    /// minibatch syncs, and the result's [`PerfResult::faults`] reports
    /// the toll; the empty plan is bit-identical to
    /// [`PerfSim::run_mapped`]. The pipeline emits stage-occupancy spans,
    /// sync spans, and retry instants into `tracer`, and every assembled
    /// scalar (utilizations, link utilizations, throughput, power
    /// efficiency) plus the pipeline's counters land in `reg` — the
    /// returned [`PerfResult`] is populated from the registry. The
    /// untraced entry points delegate here with a disabled tracer and a
    /// throwaway registry.
    pub fn run_mapped_traced<S: TraceSink>(
        &self,
        mapping: &Mapping,
        kind: RunKind,
        plan: &FaultPlan,
        tracer: &mut Tracer<S>,
        reg: &mut MetricsRegistry,
    ) -> PerfResult {
        let stages = stage::build_stages(mapping, &self.node, &self.opts, kind);
        pipeline::simulate(
            mapping,
            &self.node,
            &self.power,
            &self.opts,
            kind,
            &stages,
            plan,
            tracer,
            reg,
        )
    }

    /// Builds the [`NodeModel`] for an already-mapped network: the same
    /// stage costs, image stream, minibatch structure and sync latency the
    /// single-replica engine simulates, replicated over every concurrent
    /// pipeline the mapping runs node-wide. The plan's seed and link-fault
    /// model carry over, so [`run_node`] reproduces
    /// [`PerfSim::run_mapped_traced`]'s replica-0 dynamics salt for salt.
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
        let r = sim().train(&zoo::alexnet()).unwrap();
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
        let t = s.train(&zoo::alexnet()).unwrap();
        let e = s.evaluate(&zoo::alexnet()).unwrap();
        let ratio = e.images_per_sec / t.images_per_sec;
        assert!(ratio > 2.4 && ratio < 4.5, "eval/train ratio {ratio}");
    }

    #[test]
    fn utilization_is_in_paper_band() {
        // Paper: average 0.35 utilization, per-net 0.2-0.6.
        let r = sim().train(&zoo::alexnet()).unwrap();
        assert!(
            r.pe_utilization > 0.10 && r.pe_utilization < 0.9,
            "got {}",
            r.pe_utilization
        );
    }

    #[test]
    fn vgg_is_slower_than_alexnet() {
        let s = sim();
        let a = s.train(&zoo::alexnet()).unwrap();
        let v = s.train(&zoo::vgg_d()).unwrap();
        assert!(v.images_per_sec < a.images_per_sec / 3.0);
    }

    #[test]
    fn half_precision_speeds_up_training() {
        // Paper: 1.85x over single precision at iso-power.
        let sp = sim().train(&zoo::vgg_a()).unwrap();
        let hp = PerfSim::new(&presets::half_precision())
            .train(&zoo::vgg_a())
            .unwrap();
        let speedup = hp.images_per_sec / sp.images_per_sec;
        assert!(speedup > 1.2 && speedup < 3.0, "HP speedup {speedup}");
    }

    #[test]
    fn power_stays_under_peak() {
        let r = sim().train(&zoo::overfeat_fast()).unwrap();
        assert!(r.avg_power.total() < 1400.0);
        assert!(r.avg_power.total() > 140.0); // leakage floor
        assert!(r.gflops_per_watt > 50.0 && r.gflops_per_watt < 490.0);
    }

    #[test]
    fn all_benchmarks_simulate() {
        let s = sim();
        for name in zoo::BENCHMARK_NAMES {
            let net = zoo::by_name(name).unwrap();
            let r = s.train(&net).unwrap();
            assert!(r.images_per_sec > 50.0, "{name}: {}", r.images_per_sec);
            assert!(r.pe_utilization > 0.01, "{name}");
        }
    }

    #[test]
    fn comp_mem_links_are_best_utilized_on_chip() {
        // Figure 21: Comp-Mem ~0.87, Mem-Mem lower.
        let r = sim().train(&zoo::alexnet()).unwrap();
        let comp = r.link_utilization(scaledeep_arch::LinkClass::CompMem);
        let mem = r.link_utilization(scaledeep_arch::LinkClass::MemMem);
        assert!(comp > mem, "comp-mem {comp} vs mem-mem {mem}");
    }

    #[test]
    fn ring_matters_only_for_multi_cluster_networks() {
        let s = sim();
        let small = s.train(&zoo::alexnet()).unwrap();
        let big = s.train(&zoo::vgg_e()).unwrap();
        let ring_small = small.link_utilization(scaledeep_arch::LinkClass::Ring);
        let ring_big = big.link_utilization(scaledeep_arch::LinkClass::Ring);
        assert!(
            ring_big > ring_small,
            "VGG-E ring {ring_big} should exceed AlexNet ring {ring_small}"
        );
    }
}
