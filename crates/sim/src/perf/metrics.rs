//! Metric assembly: throughput, utilizations, link utilizations, power —
//! the typed run record [`PerfResult`] — and its rendering into a
//! [`MetricsRegistry`] ([`PerfResult::write_metrics`]).

use super::node::NodeOutcome;
use super::pipeline;
use super::stage::{link_idx, RunKind, StageCost, N_LINK_CLASSES};
use crate::engine::Cycle;
use scaledeep_arch::{
    EnergyBreakdown, LinkClass, NodeConfig, PowerBreakdown, PowerModel, UtilizationProfile,
};
use scaledeep_compiler::Mapping;
use scaledeep_trace::{Hist, MetricsRegistry};
use std::ops::Range;

/// Transient link-fault accounting for one run (all zeros on the
/// fault-free path, keeping [`PerfResult`] equality exact under an empty
/// plan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Link transfers that needed at least one retry, summed over all
    /// retries.
    pub link_retries: u64,
    /// Total back-off cycles charged to retried transfers.
    pub retry_cycles: Cycle,
}

/// Utilization of one link class (Figure 21's bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkUtilization {
    /// The link class.
    pub class: LinkClass,
    /// Mean utilization in [0, 1].
    pub utilization: f64,
    /// Total bytes moved per image across the node.
    pub bytes_per_image: f64,
}

/// Bytes moved per image across the three physical interconnect tiers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierBytes {
    /// On-chip grid links (Comp-Mem, Mem-Mem, external-memory ports).
    pub grid: f64,
    /// Intra-cluster wheel (spokes + arcs).
    pub wheel: f64,
    /// Inter-cluster ring.
    pub ring: f64,
}

/// Per-stage statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// The stage's plans, as indices into the mapping's plans
    /// ([`StageCost::members`]); [`stage_name`](super::stage_name) renders
    /// its name.
    pub members: Range<usize>,
    /// Per-image service cycles.
    pub service_cycles: u64,
    /// Whether this stage is the pipeline bottleneck.
    pub bottleneck: bool,
    /// Busy cycles over the whole run: admissions × service
    /// (`perf.stage.NN.busy`).
    pub busy_cycles: u64,
    /// Bytes per image over the grid/wheel/ring tiers
    /// (`perf.stage.NN.bytes.{grid,wheel,ring}`).
    pub tier_bytes: TierBytes,
}

/// The result of one performance-simulation run: the typed run record.
/// Every quantity [`PerfResult::write_metrics`] renders into a
/// [`MetricsRegistry`] is a field here (the metric each one renders as
/// is named in its doc), so readers such as per-layer attribution need
/// no registry.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfResult {
    /// The simulated network.
    pub network: String,
    /// Training or evaluation.
    pub kind: RunKind,
    /// Node throughput in images per second (all pipeline replicas).
    pub images_per_sec: f64,
    /// 2D-PE lane utilization across the spanned chips (Figure 16's
    /// right axis).
    pub pe_utilization: f64,
    /// SFU utilization across the spanned chips.
    pub sfu_utilization: f64,
    /// Link utilization per class (Figure 21).
    pub links: Vec<LinkUtilization>,
    /// Achieved FLOPs per second across the node.
    pub achieved_flops: f64,
    /// Average node power (Figure 20's stacked bars).
    pub avg_power: PowerBreakdown,
    /// Processing efficiency in GFLOPs/W (Figure 20's line).
    pub gflops_per_watt: f64,
    /// Energy per image in joules.
    pub joules_per_image: f64,
    /// ConvLayer-chip columns used by the mapping (Figure 16's footer).
    pub conv_cols: usize,
    /// Number of concurrent pipeline replicas.
    pub pipelines: usize,
    /// Per-stage detail.
    pub stages: Vec<StageStat>,
    /// Transient link-fault accounting (all zeros without a fault plan;
    /// `perf.link.retries`, `perf.link.retry_cycles`).
    pub faults: FaultStats,
    /// Steady-state measurement window in cycles (`perf.window_cycles`).
    pub window_cycles: Cycle,
    /// Images completed inside the window, at least 1
    /// (`perf.images_done`).
    pub images_done: u64,
    /// Images the simulated pipeline completed over the whole run
    /// (`perf.images.completed`).
    pub images_completed: u64,
    /// Minibatch weight syncs performed (`perf.syncs`).
    pub syncs: u64,
    /// Cycles spent in minibatch syncs, retry back-off included
    /// (`perf.sync.cycles`).
    pub sync_cycles: u64,
    /// Per-visit stage occupancy: each stage's service cycles, once per
    /// admission (`perf.stage.occupancy`).
    pub occupancy: Hist,
}

impl PerfResult {
    /// Utilization of one link class (0 when the class is unused).
    pub fn link_utilization(&self, class: LinkClass) -> f64 {
        self.links
            .iter()
            .find(|l| l.class == class)
            .map(|l| l.utilization)
            .unwrap_or(0.0)
    }

    /// Sum of every stage's busy cycles over the run: the total the
    /// per-layer attribution splits exactly.
    pub fn busy_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.busy_cycles).sum()
    }

    /// Node energy per image: [`PerfResult::avg_power`] over one image
    /// period, split by subsystem. The record is the one energy source;
    /// the attribution tree and every DSE point read it here.
    pub fn energy_per_image(&self) -> EnergyBreakdown {
        self.avg_power
            .energy_over(1.0 / self.images_per_sec.max(1e-9))
    }

    /// Renders the record into `reg` under the `perf.*` names: the
    /// pipeline's counters and occupancy histogram (merged through one
    /// per-run registry, so they add to any already there), then every
    /// assembled scalar as a gauge, in this fixed registration order.
    pub fn write_metrics(&self, reg: &mut MetricsRegistry) {
        let mut run = MetricsRegistry::new();
        for (name, value) in [
            ("perf.link.retries", self.faults.link_retries),
            ("perf.link.retry_cycles", self.faults.retry_cycles),
            ("perf.images.completed", self.images_completed),
            ("perf.syncs", self.syncs),
            ("perf.sync.cycles", self.sync_cycles),
        ] {
            let id = run.counter(name);
            run.add(id, value);
        }
        let hist = run.histogram("perf.stage.occupancy");
        run.observe_hist(hist, &self.occupancy);
        for (i, s) in self.stages.iter().enumerate() {
            let id = run.counter(&format!("perf.stage.{i:02}.busy"));
            run.add(id, s.busy_cycles);
        }
        reg.merge(&run);
        let mut gauge = |name: &str, value: f64| {
            let id = reg.gauge(name);
            reg.set(id, value);
        };
        gauge("perf.window_cycles", self.window_cycles as f64);
        gauge("perf.images_done", self.images_done as f64);
        gauge("perf.images_per_sec", self.images_per_sec);
        gauge("perf.pe_utilization", self.pe_utilization);
        gauge("perf.sfu_utilization", self.sfu_utilization);
        for l in &self.links {
            let class = l.class;
            gauge(&format!("perf.link.{class:?}.utilization"), l.utilization);
            gauge(
                &format!("perf.link.{class:?}.bytes_per_image"),
                l.bytes_per_image,
            );
        }
        gauge("perf.achieved_flops", self.achieved_flops);
        gauge("perf.gflops_per_watt", self.gflops_per_watt);
        gauge("perf.joules_per_image", self.joules_per_image);
        for (i, s) in self.stages.iter().enumerate() {
            gauge(
                &format!("perf.stage.{i:02}.service_cycles"),
                s.service_cycles as f64,
            );
            let t = &s.tier_bytes;
            for (tier, bytes) in [("grid", t.grid), ("wheel", t.wheel), ("ring", t.ring)] {
                gauge(&format!("perf.stage.{i:02}.bytes.{tier}"), bytes);
            }
        }
    }
}

/// Counts the links of each class available to the mapped network.
fn link_counts(mapping: &Mapping, node: &NodeConfig) -> [f64; N_LINK_CLASSES] {
    let conv = &node.cluster.conv_chip;
    let chips = mapping.chips_spanned() as f64;
    let clusters = node.clusters as f64;
    let mut n = [0.0; N_LINK_CLASSES];
    n[link_idx(LinkClass::CompMem)] = chips * (conv.comp_heavy_tiles() * 2) as f64;
    n[link_idx(LinkClass::MemMem)] = chips * (conv.mem_heavy_tiles() * 2) as f64;
    n[link_idx(LinkClass::ConvExtMem)] = chips;
    n[link_idx(LinkClass::FcExtMem)] = clusters;
    n[link_idx(LinkClass::Spoke)] = clusters * node.cluster.conv_chips as f64;
    n[link_idx(LinkClass::Arc)] = clusters * node.cluster.conv_chips as f64;
    n[link_idx(LinkClass::Ring)] = clusters;
    n
}

#[allow(clippy::too_many_arguments)]
pub(super) fn assemble(
    mapping: &Mapping,
    node: &NodeConfig,
    power: &PowerModel,
    kind: RunKind,
    stages: Vec<StageCost>,
    out: &NodeOutcome,
    done: usize,
    pipelines: usize,
) -> PerfResult {
    let occupancy = pipeline::occupancy(&stages, &out.stage_admissions);
    let freq = node.frequency_hz();
    let window = out.window;
    let done = done.max(1);
    let cycles_per_image = window as f64 / done as f64;
    let images_per_sec = pipelines as f64 * freq / cycles_per_image;

    // --- utilization over the spanned compute resources ---
    // One pipeline's useful lane-cycles per image vs. the lanes of the
    // chips it spans (replicas are identical, so pipeline util = node
    // util over the replicated span).
    let conv = &node.cluster.conv_chip;
    let fc = &node.cluster.fc_chip;
    let span_lanes =
        (mapping.chips_spanned() * conv.comp_heavy_tiles() * conv.comp_heavy.total_lanes()) as f64
            + (fc.comp_heavy_tiles() * fc.comp_heavy.total_lanes()) as f64;
    let useful_lanes: f64 = stages.iter().map(|s| s.useful_lane_cycles).sum();
    let pe_utilization = (useful_lanes / cycles_per_image / span_lanes).min(1.0);

    let span_sfus = (mapping.chips_spanned() * conv.mem_heavy_tiles() * conv.mem_heavy.num_sfu)
        as f64
        + (fc.mem_heavy_tiles() * fc.mem_heavy.num_sfu) as f64;
    let useful_sfu: f64 = stages.iter().map(|s| s.useful_sfu_cycles).sum();
    let sfu_utilization = (useful_sfu / cycles_per_image / span_sfus).min(1.0);

    // --- link utilizations ---
    // On-chip classes (Comp-Mem, Mem-Mem) are point-to-point links owned
    // by each stage's columns: their utilization is measured over the
    // links the mapping engages, like the paper's Figure 21. The shared
    // chip/cluster/node resources use the global link counts.
    let counts = link_counts(mapping, node);
    let mut links = Vec::with_capacity(N_LINK_CLASSES);
    for (i, &class) in LinkClass::ALL.iter().enumerate() {
        let bytes: f64 = stages.iter().map(|s| s.traffic[i]).sum();
        let bw = class.bandwidth(node);
        // On-chip classes: capacity over each stage's engaged links during
        // its service window (the paper's per-link measurement); shared
        // chip/cluster/node resources: global links over the image period.
        let engaged_capacity: f64 = stages
            .iter()
            .map(|s| s.links[i] * s.service_cycles.min(cycles_per_image.ceil() as u64) as f64)
            .sum::<f64>()
            * bw
            / freq;
        let capacity_bytes = if engaged_capacity > 0.0 {
            engaged_capacity
        } else {
            counts[i] * bw / freq * cycles_per_image
        };
        let utilization = if capacity_bytes > 0.0 {
            (bytes / capacity_bytes).min(1.0)
        } else {
            0.0
        };
        links.push(LinkUtilization {
            class,
            utilization,
            bytes_per_image: bytes * pipelines as f64,
        });
    }

    // --- power & efficiency ---
    let flops_per_image: f64 = stages
        .iter()
        .map(|s| s.useful_lane_cycles * 2.0 + s.useful_sfu_cycles)
        .sum();
    let achieved_flops = flops_per_image * images_per_sec;
    let interconnect_util = {
        let on_chip = [LinkClass::CompMem, LinkClass::MemMem, LinkClass::ConvExtMem];
        let sum: f64 = links
            .iter()
            .filter(|l| on_chip.contains(&l.class))
            .map(|l| l.utilization)
            .sum();
        sum / on_chip.len() as f64
    };
    // Blend 2D-PE and SFU activity by their peak-FLOP shares for the
    // compute-power scaling.
    let compute_util = 0.9 * pe_utilization + 0.1 * sfu_utilization;
    let profile = UtilizationProfile {
        compute: compute_util,
        interconnect: interconnect_util,
    };
    let avg_power = power.average_node_power(profile);
    let gflops_per_watt = achieved_flops / avg_power.total() / 1e9;
    let joules_per_image = avg_power.total() / images_per_sec;

    let bottleneck = stages.iter().map(|s| s.service_cycles).max().unwrap_or(0);
    // Per-stage interconnect-tier traffic (bytes per image), folded from
    // the seven link classes into the paper's three physical tiers: the
    // on-chip grid, the intra-cluster wheel (spokes + arcs), and the
    // inter-cluster ring. The attribution layer reads these.
    let tier = |s: &StageCost, classes: &[LinkClass]| -> f64 {
        classes.iter().map(|&c| s.traffic[link_idx(c)]).sum()
    };
    let stage_stats = stages
        .into_iter()
        .zip(&out.stage_busy)
        .map(|(s, &busy_cycles)| {
            let tier_bytes = TierBytes {
                grid: tier(
                    &s,
                    &[
                        LinkClass::CompMem,
                        LinkClass::MemMem,
                        LinkClass::ConvExtMem,
                        LinkClass::FcExtMem,
                    ],
                ),
                wheel: tier(&s, &[LinkClass::Spoke, LinkClass::Arc]),
                ring: tier(&s, &[LinkClass::Ring]),
            };
            StageStat {
                members: s.members,
                service_cycles: s.service_cycles,
                bottleneck: s.service_cycles == bottleneck,
                busy_cycles,
                tier_bytes,
            }
        })
        .collect();

    PerfResult {
        network: mapping.network_name().to_string(),
        kind,
        images_per_sec,
        pe_utilization,
        sfu_utilization,
        links,
        achieved_flops,
        avg_power,
        gflops_per_watt,
        joules_per_image,
        conv_cols: mapping.conv_cols_used(),
        pipelines,
        stages: stage_stats,
        faults: out.faults,
        window_cycles: window,
        images_done: done as u64,
        images_completed: out.images_done,
        syncs: out.syncs,
        sync_cycles: out.sync_cycles,
        occupancy,
    }
}

#[cfg(test)]
mod tests {
    use crate::perf::{map_and_run, PerfSim, RunKind};
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;

    #[test]
    fn result_reports_every_link_class() {
        let r = map_and_run(
            &PerfSim::new(&presets::single_precision()),
            &zoo::alexnet(),
            RunKind::Training,
        );
        assert_eq!(r.links.len(), 7);
        for l in &r.links {
            assert!(l.utilization >= 0.0 && l.utilization <= 1.0);
        }
    }

    #[test]
    fn exactly_one_bottleneck_class_is_marked() {
        let r = map_and_run(
            &PerfSim::new(&presets::single_precision()),
            &zoo::alexnet(),
            RunKind::Training,
        );
        assert!(r.stages.iter().any(|s| s.bottleneck));
        assert_eq!(r.kind, RunKind::Training);
    }

    #[test]
    fn energy_per_image_is_consistent() {
        let r = map_and_run(
            &PerfSim::new(&presets::single_precision()),
            &zoo::alexnet(),
            RunKind::Training,
        );
        let implied = r.avg_power.total() / r.images_per_sec;
        assert!((implied - r.joules_per_image).abs() < 1e-9);
        let split = r.energy_per_image();
        assert!((split.total() - r.joules_per_image).abs() < 1e-9);
        assert!(split.memory_joules > 0.0);
    }

    #[test]
    fn achieved_flops_below_peak() {
        let node = presets::single_precision();
        let r = map_and_run(&PerfSim::new(&node), &zoo::vgg_a(), RunKind::Training);
        assert!(r.achieved_flops < node.peak_flops());
        assert!(r.achieved_flops > node.peak_flops() * 0.005);
    }
}
