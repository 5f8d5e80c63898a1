//! Measured per-layer attribution: joins a traced run's metrics and
//! spans with the compiled mapping and the analytic DNN cost model into
//! a hierarchical tree — per layer group × per pass (FP/BP/WG) ×
//! tile class (CompHeavy/MemHeavy) × interconnect tier
//! (grid/wheel/ring) — of cycles, bytes, and energy, plus a roofline
//! classification of each layer (the paper's Figures 15, 19, and 20,
//! measured instead of assumed).
//!
//! The *measured* quantities come from the run's typed record,
//! [`PerfResult`](scaledeep_sim::perf::PerfResult) (per-stage busy cycles
//! and tier bytes, the node energy per image), which
//! [`PerfResult::write_metrics`](scaledeep_sim::perf::PerfResult::write_metrics)
//! renders under the `perf.*` names. The tree holds only what it
//! derives; whole-run numbers (window, syncs, occupancy, energy) are read
//! off the record itself.
//! The *analytic* quantities (per-pass FLOP weights,
//! Bytes/FLOP) come from the mapping's [`LayerPlan`](scaledeep_compiler::LayerPlan)s and the
//! [`scaledeep_dnn`] analysis. Cycles are split by apportioning each
//! stage's measured busy total across analytic weights with a
//! largest-remainder rule, so every split sums back to the measured
//! total exactly (`layer_cycles_sum_to_total_busy` pins it).

use crate::session::TracedRun;
use crate::{Error, Result};
use scaledeep_arch::NodeConfig;
use scaledeep_compiler::CompiledArtifact;
use scaledeep_dnn::Network;
pub use scaledeep_sim::perf::TierBytes;
use scaledeep_sim::perf::{stage_name, stage_plans};

/// Which side of the roofline a layer lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RooflineBound {
    /// Operational intensity at or above the node's ridge point.
    Compute,
    /// Below the ridge point: external bandwidth limits it.
    Bandwidth,
}

impl RooflineBound {
    /// Stable lowercase name used by the BENCH schema.
    pub const fn name(&self) -> &'static str {
        match self {
            RooflineBound::Compute => "compute",
            RooflineBound::Bandwidth => "bandwidth",
        }
    }
}

/// Measured cycles split across the three training passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassSplit {
    /// Forward-propagation cycles.
    pub fp: u64,
    /// Backpropagation cycles.
    pub bp: u64,
    /// Weight-gradient cycles.
    pub wg: u64,
}

impl PassSplit {
    /// Total across the passes.
    pub fn total(&self) -> u64 {
        self.fp + self.bp + self.wg
    }
}

/// Measured cycles split across the two tile classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileClassSplit {
    /// Cycles attributed to CompHeavy 2D-PE work.
    pub comp_heavy: u64,
    /// Cycles attributed to MemHeavy SFU work.
    pub mem_heavy: u64,
}

/// One pipeline stage's attribution: the layer group that
/// time-multiplexes the stage's columns, with the measured cycles split
/// down the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerAttribution {
    /// Pipeline stage index.
    pub stage: usize,
    /// Stage name (member layer names joined with `+`).
    pub name: String,
    /// Measured busy cycles over the whole run (the record's
    /// [`StageStat::busy_cycles`](scaledeep_sim::perf::StageStat::busy_cycles),
    /// rendered as `perf.stage.NN.busy`).
    pub busy_cycles: u64,
    /// Analytic per-image service cycles of the stage.
    pub service_cycles: u64,
    /// Busy cycles split across FP/BP/WG by analytic pass weights.
    pub passes: PassSplit,
    /// Busy cycles split across CompHeavy/MemHeavy by analytic FLOPs.
    pub tile_classes: TileClassSplit,
    /// Bytes per image over the grid/wheel/ring tiers.
    pub tier_bytes: TierBytes,
    /// Analytic FLOPs per image (all member layers, run-kind scoped).
    pub flops: u64,
    /// Analytic Bytes/FLOP from the DNN cost model.
    pub bytes_per_flop: f64,
    /// Roofline classification against the node's ridge point.
    pub bound: RooflineBound,
    /// Energy share in joules per image (busy-cycle share of the run
    /// record's [`PerfResult::energy_per_image`](scaledeep_sim::perf::PerfResult::energy_per_image)).
    pub joules_per_image: f64,
}

/// The measured attribution of one performance run: what the tree
/// derives from the run record, and nothing the record already holds.
/// Per-layer busy cycles sum exactly to the record's stage busy total;
/// sync cycles sit outside the tree (syncs serialize the whole pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Per-stage attribution, pipeline order.
    pub layers: Vec<LayerAttribution>,
    /// The node's ridge operational intensity (FLOPs/byte) separating
    /// compute- from bandwidth-bound layers.
    pub ridge_intensity: f64,
}

impl Attribution {
    /// Builds the attribution tree from a run's record (`traced.perf`;
    /// the trace itself is not read, so an unobserved run with an empty
    /// [`crate::Trace`] gives the same tree), its compiled artifact, and
    /// the network it simulated.
    ///
    /// Each stage's member layers are the ones its record names
    /// ([`StageStat::members`](scaledeep_sim::perf::StageStat::members)).
    ///
    /// # Errors
    ///
    /// [`Error::Setup`] when a stage names plans the artifact's mapping
    /// does not have (a run of another artifact).
    pub fn build(
        traced: &TracedRun,
        artifact: &CompiledArtifact,
        net: &Network,
        node: &NodeConfig,
    ) -> Result<Attribution> {
        let mapping = artifact.mapping();
        let perf = &traced.perf;
        let analysis = net.analyze_with_elem_bytes(mapping.elem_bytes());

        // The ridge point: node peak FLOP/s over the aggregate operand-
        // streaming bandwidth. The analytic bytes being classified are the
        // per-step operand traffic, and operands stream over the
        // CompHeavy<->MemHeavy links (two per grid cell per role tile, §3.2)
        // — so that is the bandwidth a layer must beat to reach peak
        // compute. Layers below the ridge are starved for operands no
        // matter how many lanes they span.
        let cluster = &node.cluster;
        let chip_stream_bw = |chip: &scaledeep_arch::ChipConfig| {
            (chip.cols * chip.rows * 2 * 3) as f64 * chip.comp_mem_bw
        };
        let stream_bw = node.clusters as f64
            * (cluster.conv_chips as f64 * chip_stream_bw(&cluster.conv_chip)
                + chip_stream_bw(&cluster.fc_chip));
        let ridge_intensity = node.peak_flops() / stream_bw.max(1e-9);

        let joules_per_image = perf.energy_per_image().total();
        let total_busy = perf.busy_cycles();
        let steps = perf.kind.steps();

        let mut layers = Vec::with_capacity(perf.stages.len());
        for (i, stage) in perf.stages.iter().enumerate() {
            let busy = stage.busy_cycles;
            if mapping.plans().get(stage.members.clone()).is_none() {
                return Err(Error::Setup {
                    detail: format!(
                        "stage {i} names plans {:?}, the mapping has {}",
                        stage.members,
                        mapping.plans().len()
                    ),
                });
            }
            let members = stage_plans(mapping, stage.members.clone());

            // Pass weights: analytic FLOPs (array + SFU) per pass, summed
            // over the group's member layers.
            let mut pass_w = [0.0f64; 3];
            let mut comp_w = 0.0f64;
            let mut mem_w = 0.0f64;
            for plan in members.clone() {
                let (mut comp, mut mem) = (0u64, 0u64);
                for &s in steps {
                    let p = s as usize;
                    pass_w[p] += (plan.comp_flops[p] + plan.mem_flops[p]) as f64;
                    comp += plan.comp_flops[p];
                    mem += plan.mem_flops[p];
                }
                comp_w += comp as f64;
                mem_w += mem as f64;
            }
            let split = apportion(busy, &pass_w);
            let passes = PassSplit {
                fp: split[0],
                bp: split[1],
                wg: split[2],
            };
            let tc = apportion(busy, &[comp_w, mem_w]);
            let tile_classes = TileClassSplit {
                comp_heavy: tc[0],
                mem_heavy: tc[1],
            };

            // Analytic intensity from the DNN cost model, scoped to the
            // run kind's steps.
            let mut flops = 0u64;
            let mut bytes = 0u64;
            for plan in members {
                let cost = analysis.layer(plan.id);
                for &s in steps {
                    flops += cost.step(s).total_flops();
                    bytes += cost.step(s).total_bytes();
                }
            }
            let bytes_per_flop = if flops == 0 {
                0.0
            } else {
                bytes as f64 / flops as f64
            };
            let intensity = if bytes == 0 {
                f64::INFINITY
            } else {
                flops as f64 / bytes as f64
            };
            let bound = if intensity >= ridge_intensity {
                RooflineBound::Compute
            } else {
                RooflineBound::Bandwidth
            };

            let layer_joules = if total_busy == 0 {
                0.0
            } else {
                joules_per_image * busy as f64 / total_busy as f64
            };

            layers.push(LayerAttribution {
                stage: i,
                name: stage_name(mapping, stage.members.clone()),
                busy_cycles: busy,
                service_cycles: stage.service_cycles,
                passes,
                tile_classes,
                tier_bytes: stage.tier_bytes,
                flops,
                bytes_per_flop,
                bound,
                joules_per_image: layer_joules,
            });
        }

        Ok(Attribution {
            layers,
            ridge_intensity,
        })
    }
}

/// Splits `total` across `weights` proportionally, using the
/// largest-remainder method so the parts always sum to `total` exactly.
/// All-zero weights put everything on the first part (deterministic,
/// sum-preserving).
fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if sum <= 0.0 {
        let mut out = vec![0u64; weights.len()];
        out[0] = total;
        return out;
    }
    let exact: Vec<f64> = weights
        .iter()
        .map(|&w| {
            let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
            total as f64 * w / sum
        })
        .collect();
    let mut parts: Vec<u64> = exact.iter().map(|&e| e.floor() as u64).collect();
    let assigned: u64 = parts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // Largest fractional part first; ties resolve to the lowest index.
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut remainder = total.saturating_sub(assigned);
    for &i in order.iter().cycle().take(weights.len().max(1) * 2) {
        if remainder == 0 {
            break;
        }
        parts[i] += 1;
        remainder -= 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, TraceConfig};
    use scaledeep_dnn::zoo;
    use scaledeep_sim::perf::{PerfResult, RunKind};

    /// AlexNet's attribution tree and the run record it was built from.
    fn alexnet_attribution(kind: RunKind) -> (Attribution, PerfResult) {
        let session = Session::single_precision();
        let net = zoo::alexnet();
        let artifact = session.compile(&net).expect("alexnet maps");
        let traced = session
            .run_traced(&net, kind, &TraceConfig::default())
            .expect("alexnet simulates");
        let attr = Attribution::build(&traced, &artifact, &net, session.node())
            .expect("attribution builds");
        (attr, traced.perf)
    }

    #[test]
    fn apportion_preserves_totals() {
        assert_eq!(apportion(10, &[1.0, 1.0, 1.0]), vec![4, 3, 3]);
        assert_eq!(apportion(100, &[0.0, 0.0]), vec![100, 0]);
        assert_eq!(apportion(7, &[2.0, 1.0]), vec![5, 2]);
        assert_eq!(apportion(0, &[1.0, 2.0]), vec![0, 0]);
        for (total, w) in [
            (999u64, vec![0.3, 0.31, 0.39]),
            (1, vec![1.0, 1.0, 1.0, 1.0]),
            (12345, vec![f64::NAN, 5.0, 0.0]),
        ] {
            let parts = apportion(total, &w);
            assert_eq!(parts.iter().sum::<u64>(), total, "{w:?}");
        }
    }

    #[test]
    fn layer_cycles_sum_to_total_busy() {
        let (a, perf) = alexnet_attribution(RunKind::Training);
        let sum: u64 = a.layers.iter().map(|l| l.busy_cycles).sum();
        assert_eq!(sum, perf.busy_cycles());
        assert!(perf.busy_cycles() > 0);
        for l in &a.layers {
            assert_eq!(l.passes.total(), l.busy_cycles, "{}", l.name);
            assert_eq!(
                l.tile_classes.comp_heavy + l.tile_classes.mem_heavy,
                l.busy_cycles,
                "{}",
                l.name
            );
        }
    }

    #[test]
    fn training_attribution_has_all_three_passes() {
        let (a, _) = alexnet_attribution(RunKind::Training);
        let c1 = a.layers.iter().find(|l| l.name.starts_with("c1")).unwrap();
        assert!(c1.passes.fp > 0 && c1.passes.bp > 0 && c1.passes.wg > 0);
        assert!(c1.tile_classes.comp_heavy > c1.tile_classes.mem_heavy);
        assert!(c1.bound == RooflineBound::Compute, "c1 is compute bound");
    }

    #[test]
    fn evaluation_attribution_is_fp_only() {
        let (a, perf) = alexnet_attribution(RunKind::Evaluation);
        for l in &a.layers {
            assert_eq!(l.passes.bp, 0, "{}", l.name);
            assert_eq!(l.passes.wg, 0, "{}", l.name);
            assert_eq!(l.passes.fp, l.busy_cycles, "{}", l.name);
        }
        assert_eq!(perf.sync_cycles, 0, "evaluation has no gradient syncs");
    }

    #[test]
    fn energy_shares_sum_to_node_energy() {
        let (a, perf) = alexnet_attribution(RunKind::Training);
        let sum: f64 = a.layers.iter().map(|l| l.joules_per_image).sum();
        let energy = perf.energy_per_image();
        assert!(
            (sum - energy.total()).abs() < 1e-6 * energy.total(),
            "shares {sum} vs total {}",
            energy.total()
        );
        assert!(energy.memory_joules > 0.0);
    }

    #[test]
    fn occupancy_percentiles_are_ordered() {
        let (_, perf) = alexnet_attribution(RunKind::Training);
        let p = |q| perf.occupancy.percentile(q);
        assert!(p(50.0) > 0.0);
        assert!(p(50.0) <= p(95.0));
        assert!(p(95.0) <= p(99.0));
    }

    #[test]
    fn fc_layers_are_bandwidth_bound() {
        // FC layers stream huge weight matrices for few FLOPs — the
        // canonical bandwidth-bound case the roofline must catch.
        let (a, _) = alexnet_attribution(RunKind::Training);
        let f6 = a.layers.iter().find(|l| l.name == "f6").unwrap();
        assert_eq!(f6.bound, RooflineBound::Bandwidth);
        assert!(f6.bytes_per_flop > 1.0 / a.ridge_intensity);
    }

    #[test]
    fn window_and_sync_metrics_are_read_back() {
        let (_, perf) = alexnet_attribution(RunKind::Training);
        assert!(perf.window_cycles > 0);
        assert!(perf.images_done > 0);
        assert!(perf.sync_cycles > 0, "training syncs every minibatch");
    }
}
