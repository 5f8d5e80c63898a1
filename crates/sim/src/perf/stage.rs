//! Per-layer stage costs: service cycles and link traffic per image.

use super::PerfOptions;
use scaledeep_arch::{ChipConfig, LinkClass, NodeConfig};
use scaledeep_compiler::{LayerPlan, Mapping, Placement, Side};
use scaledeep_dnn::Step;
use std::ops::Range;

/// Whether a run trains (FP+BP+WG, minibatch barriers, feature spill) or
/// evaluates (FP only on all three role tiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// Full training iteration.
    Training,
    /// Forward-only evaluation.
    Evaluation,
}

impl RunKind {
    /// Both run kinds, training first.
    pub const ALL: [RunKind; 2] = [RunKind::Training, RunKind::Evaluation];

    /// The kind's name (`"training"` / `"evaluation"`), as every document,
    /// protocol line and command-line flag spells it.
    pub const fn name(self) -> &'static str {
        match self {
            RunKind::Training => "training",
            RunKind::Evaluation => "evaluation",
        }
    }

    /// The kind [`RunKind::name`] spells `name`.
    ///
    /// # Errors
    ///
    /// Names the unknown kind.
    pub fn parse(name: &str) -> Result<RunKind, String> {
        RunKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown run kind `{name}`"))
    }

    /// The training steps the kind runs: all three, or FP alone.
    pub const fn steps(self) -> &'static [Step] {
        match self {
            RunKind::Training => &Step::ALL,
            RunKind::Evaluation => &[Step::Fp],
        }
    }
}

/// Number of link classes tracked (see [`LinkClass::ALL`]).
pub(super) const N_LINK_CLASSES: usize = 7;

pub(super) fn link_idx(class: LinkClass) -> usize {
    LinkClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class listed in ALL")
}

/// The cost model of one pipeline stage: one FC layer, or the conv-side
/// layers that share one column group.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCost {
    /// The plans this stage realizes, as indices into
    /// [`Mapping::plans`]: the stage's conv/FC plans in the range are its
    /// members, inline plans are not. [`stage_name`](super::stage_name)
    /// renders its name.
    pub members: Range<usize>,
    /// Per-image service time in cycles (max over role-tile bounds).
    pub service_cycles: u64,
    /// Useful 2D-PE lane-cycles per image (FLOPs / 2), for utilization.
    pub useful_lane_cycles: f64,
    /// Useful SFU cycles per image.
    pub useful_sfu_cycles: f64,
    /// Bytes moved per image, per link class (node-wide, one pipeline).
    pub traffic: [f64; N_LINK_CLASSES],
    /// Links of each class this stage keeps active (its own columns'
    /// links for the on-chip classes; 0 for the shared chip/cluster/node
    /// resources, which the metrics count globally).
    pub links: [f64; N_LINK_CLASSES],
}

/// Builds the stage list (conv side in topological order, then FC side).
pub(super) fn build_stages(
    mapping: &Mapping,
    node: &NodeConfig,
    opts: &PerfOptions,
    kind: RunKind,
) -> Vec<StageCost> {
    let conv_chip = &node.cluster.conv_chip;
    let fc_chip = &node.cluster.fc_chip;
    let fc_batch = opts
        .force_fc_batch
        .unwrap_or_else(|| mapping.fc_batch(node.cluster.conv_chips, node.clusters));
    let mut stages: Vec<StageCost> = Vec::new();
    // Layers sharing a column group time-multiplex the same role tiles:
    // they fold into one pipeline stage whose service time is the sum of
    // the members'.
    let mut groups = mapping.conv_groups().peekable();
    // First FC layer id (its inputs cross the wheel spokes).
    let first_fc = mapping.fc_plans().map(|p| p.id).min();
    let plans = mapping.plans();
    for (i, plan) in plans.iter().enumerate() {
        match plan.placement.side() {
            Side::Conv => {
                // A later member was folded into its group's stage.
                let Some(group) = groups.next_if(|g| g.start == i) else {
                    continue;
                };
                let mut stage = conv_stage(i, plan, conv_chip, node, opts, kind, mapping);
                for j in group.clone().skip(1) {
                    if plans[j].placement.side() != Side::Conv {
                        continue;
                    }
                    let member = conv_stage(j, &plans[j], conv_chip, node, opts, kind, mapping);
                    stage.service_cycles += member.service_cycles;
                    stage.useful_lane_cycles += member.useful_lane_cycles;
                    stage.useful_sfu_cycles += member.useful_sfu_cycles;
                    for (t, s) in stage.traffic.iter_mut().zip(member.traffic) {
                        *t += s;
                    }
                    for (l, s) in stage.links.iter_mut().zip(member.links) {
                        *l = l.max(s); // same column group: links shared
                    }
                }
                stage.members = group;
                stages.push(stage);
            }
            Side::Fc => {
                stages.push(fc_stage(
                    i,
                    plan,
                    fc_chip,
                    node,
                    opts,
                    kind,
                    fc_batch,
                    first_fc == Some(plan.id),
                ));
            }
            Side::None => {}
        }
    }
    stages
}

/// Inter-feature pipeline overlap efficiency: the fraction of compute
/// time not lost to weight-load / accumulate / control bubbles between
/// output-feature batches. The paper's measured suite-wide drop from 0.42
/// (post-array) to 0.35 (achieved) utilization corresponds to ~0.85 (§6.1
/// "overhead added due to other program instructions").
const OVERLAP_EFFICIENCY: f64 = 0.85;

/// Scalar-PE cycles charged per output-feature batch (loop control,
/// pointer arithmetic, DMA issue).
const SCALAR_CYCLES_PER_BATCH: u64 = 24;

fn bytes_per_cycle(bw: f64, node: &NodeConfig) -> f64 {
    bw / node.frequency_hz()
}

/// Compute-bound cycles for one role: FLOPs over derated lanes, plus the
/// inter-feature pipeline losses.
fn compute_cycles(flops: u64, role_lanes: f64, eff: f64, batches: usize) -> f64 {
    if flops == 0 {
        return 0.0;
    }
    let ideal = flops as f64 / (role_lanes * 2.0 * eff.max(1e-9));
    ideal / OVERLAP_EFFICIENCY + (batches as u64 * SCALAR_CYCLES_PER_BATCH) as f64
}

#[allow(clippy::too_many_arguments)]
fn conv_stage(
    index: usize,
    plan: &LayerPlan,
    chip: &ChipConfig,
    node: &NodeConfig,
    opts: &PerfOptions,
    kind: RunKind,
    mapping: &Mapping,
) -> StageCost {
    let cols = plan.placement.cols().max(1);
    let role_lanes = (cols * chip.rows * chip.comp_heavy.total_lanes()) as f64;
    let eff = plan.feature_distribution_util() * plan.array.utilization();
    let sfus = (plan.tiles_used.max(1) * chip.mem_heavy.num_sfu) as f64;
    let batches = plan.array.batches_per_image;
    // Winograd F(2x2, 3x3): 2.25x fewer array multiplies on 3x3 convs.
    let wino = if opts.winograd && plan.conv_kernel == Some(3) {
        2.25
    } else {
        1.0
    };
    let comp_flops = |f: u64| (f as f64 / wino) as u64;

    let w = plan.weight_bytes as f64;
    let w_ext = if plan.weights_on_chip { 0.0 } else { w };
    let inb = plan.in_bytes as f64;
    let outb = plan.out_bytes as f64;

    // Per-role bounds. Link capacity per role: every grid cell's role tile
    // has two CompHeavy<->MemHeavy links; MemHeavy<->MemHeavy links are
    // shared across roles (counted once below).
    let comp_mem_links = (cols * chip.rows * 2) as f64;
    let comp_mem_bpc = bytes_per_cycle(chip.comp_mem_bw, node) * comp_mem_links;
    let mem_mem_links = (cols * chip.rows * 2) as f64;
    let mem_mem_bpc = bytes_per_cycle(chip.mem_mem_bw, node) * mem_mem_links;
    // Prefetches from the different layers interleave in time over the
    // chip's memory channels, so each layer's stream sees the full chip
    // external bandwidth; aggregate contention shows up in the ConvExtMem
    // link utilization.
    let ext_bpc = bytes_per_cycle(chip.ext_mem_bw, node);

    // Traffic per role per image (see module docs). The dominant
    // CompHeavy<->MemHeavy component is *operand streaming*: every cycle
    // each 2D-PE row consumes a fresh input element from the left
    // streaming memory while columns and lanes reuse it, so the stream is
    // MACs / (array_cols x lanes) elements — this is what drives the
    // paper's 0.87 Comp-Mem utilization. Partial-feature accumulation
    // crosses the MemHeavy mesh vertically then horizontally (~2 passes of
    // the output). Training spills FP features to external memory and
    // fetches them back for WG (paper §3.2.3), and streams off-chip
    // weights each step.
    let elem = 4.0_f64.min(
        (plan.out_bytes as f64
            / plan.feature_elems.max(1) as f64
            / plan.out_features.max(1) as f64)
            .max(2.0),
    );
    // While a role tile computes, its input streaming memory pulls one
    // fresh element per 2D-array row per cycle over the CompHeavy<->
    // MemHeavy link: array_rows x elem bytes/cycle per tile, across the
    // role's cols x rows tiles — the near-rate-matched stream behind the
    // paper's 0.87 Comp-Mem utilization.
    let tiles_per_role = (cols * chip.rows) as f64;
    let stream_rate = chip.comp_heavy.array_rows as f64 * elem * tiles_per_role;
    let stream =
        |flops: u64| compute_cycles(comp_flops(flops), role_lanes, eff, batches) * stream_rate;
    let (fp_cm, fp_mm, fp_ext);
    let (bp_cm, bp_mm, bp_ext);
    let (wg_cm, wg_mm, wg_ext);
    match kind {
        RunKind::Training => {
            fp_cm = stream(plan.comp_flops[0]) + inb + outb + w;
            fp_mm = 2.0 * outb;
            fp_ext = w_ext + outb; // weight stream + feature spill
            bp_cm = stream(plan.comp_flops[1]) + inb + outb + w;
            bp_mm = 2.0 * inb;
            bp_ext = w_ext;
            wg_cm = stream(plan.comp_flops[2]) + inb + outb + w;
            wg_mm = w;
            wg_ext = w_ext + inb; // gradient stream + feature fill
        }
        RunKind::Evaluation => {
            fp_cm = stream(plan.comp_flops[0]) + inb + outb + w;
            fp_mm = 2.0 * outb;
            fp_ext = w_ext;
            bp_cm = 0.0;
            bp_mm = 0.0;
            bp_ext = 0.0;
            wg_cm = 0.0;
            wg_mm = 0.0;
            wg_ext = 0.0;
        }
    }

    let role_time = |flops: u64, cm: f64, mm: f64, ext: f64, lanes_mult: f64| -> f64 {
        let c = compute_cycles(flops, role_lanes * lanes_mult, eff, batches);
        let t_cm = cm / comp_mem_bpc.max(1e-9);
        let t_mm = mm / mem_mem_bpc.max(1e-9);
        let t_ext = ext / ext_bpc.max(1e-9);
        c.max(t_cm).max(t_mm).max(t_ext)
    };

    let service = match kind {
        RunKind::Training => {
            let t_fp = role_time(comp_flops(plan.comp_flops[0]), fp_cm, fp_mm, fp_ext, 1.0)
                .max(plan.mem_flops[0] as f64 / sfus);
            let t_bp = role_time(comp_flops(plan.comp_flops[1]), bp_cm, bp_mm, bp_ext, 1.0)
                .max(plan.mem_flops[1] as f64 / sfus);
            let t_wg = role_time(comp_flops(plan.comp_flops[2]), wg_cm, wg_mm, wg_ext, 1.0)
                .max(plan.mem_flops[2] as f64 / sfus);
            t_fp.max(t_bp).max(t_wg)
        }
        RunKind::Evaluation => {
            // All three role tiles run FP: 3x the lanes for the same FLOPs.
            role_time(comp_flops(plan.comp_flops[0]), fp_cm, fp_mm, fp_ext, 3.0)
                .max(plan.mem_flops[0] as f64 / sfus)
        }
    };

    let mut traffic = [0.0; N_LINK_CLASSES];
    traffic[link_idx(LinkClass::CompMem)] = fp_cm + bp_cm + wg_cm;
    traffic[link_idx(LinkClass::MemMem)] = fp_mm + bp_mm + wg_mm;
    traffic[link_idx(LinkClass::ConvExtMem)] = fp_ext + bp_ext + wg_ext;
    let mut links = [0.0; N_LINK_CLASSES];
    links[link_idx(LinkClass::CompMem)] = tiles_per_role * 3.0;
    links[link_idx(LinkClass::MemMem)] = tiles_per_role * 2.0;
    // Arc traffic: features crossing a rim-chip boundary (the layer ends on
    // a different chip than it starts, or ends exactly at a boundary).
    if let Placement::Conv { first_col, cols } = plan.placement {
        let per_chip = mapping.conv_cols_per_chip();
        let start_chip = first_col / per_chip;
        let end_chip = (first_col + cols - 1) / per_chip;
        let crossings = (end_chip - start_chip) as f64
            + if (first_col + cols) % per_chip == 0 && end_chip + 1 < mapping.chips_spanned() {
                1.0
            } else {
                0.0
            };
        if crossings > 0.0 {
            let fb = match kind {
                RunKind::Training => 2.0 * outb,
                RunKind::Evaluation => outb,
            };
            traffic[link_idx(LinkClass::Arc)] = fb * crossings;
            // Crossing a cluster boundary rides the ring instead.
            let chips_per_cluster = mapping.wheel_size();
            if end_chip / chips_per_cluster != start_chip / chips_per_cluster
                || ((first_col + cols) % (per_chip * chips_per_cluster) == 0
                    && end_chip + 1 < mapping.chips_spanned())
            {
                traffic[link_idx(LinkClass::Ring)] += fb;
            }
        }
    }

    let (useful_lane_cycles, useful_sfu_cycles) = useful_cycles(plan, kind);
    StageCost {
        members: index..index + 1,
        service_cycles: service.ceil() as u64,
        useful_lane_cycles,
        useful_sfu_cycles,
        traffic,
        links,
    }
}

#[allow(clippy::too_many_arguments)]
fn fc_stage(
    index: usize,
    plan: &LayerPlan,
    chip: &ChipConfig,
    node: &NodeConfig,
    opts: &PerfOptions,
    kind: RunKind,
    fc_batch: usize,
    is_first_fc: bool,
) -> StageCost {
    let cols = plan.placement.cols().max(1);
    // Model parallelism: the FC parameters are sharded across every
    // cluster's hub chip, so all clusters' FcLayer columns serve one image
    // (unless ablated away).
    let shards = if opts.disable_fc_model_parallelism {
        1.0
    } else {
        node.clusters as f64
    };
    let role_lanes = (cols * chip.rows * chip.comp_heavy.total_lanes()) as f64 * shards;
    let eff = plan.feature_distribution_util() * plan.array.utilization();
    let sfus = (plan.tiles_used.max(1) * chip.mem_heavy.num_sfu) as f64 * shards;
    let batches = plan.array.batches_per_image;

    let w = plan.weight_bytes as f64;
    let inb = plan.in_bytes as f64;
    let outb = plan.out_bytes as f64;
    // FC weights stream from external memory once per wheel batch
    // (paper §3.3.1); model parallelism splits the stream across clusters.
    let w_ext_per_image = w / (fc_batch.max(1) as f64 * shards);

    let comp_mem_links = (cols * chip.rows * 2) as f64 * shards;
    let comp_mem_bpc = bytes_per_cycle(chip.comp_mem_bw, node) * comp_mem_links;
    let ext_bpc = bytes_per_cycle(chip.ext_mem_bw, node) * shards;
    let spoke_bpc = bytes_per_cycle(node.cluster.spoke_bw, node);
    let ring_bpc = bytes_per_cycle(node.ring_bw, node);

    let steps = kind.steps().len() as f64;
    // FC matmul operand stream: every active cycle each role tile pulls
    // array_rows fresh matrix elements from its MemHeavy neighbors.
    let tiles_per_role = (cols * chip.rows) as f64 * shards;
    let fc_stream = compute_cycles(plan.comp_flops[0], role_lanes, eff, batches)
        * chip.comp_heavy.array_rows as f64
        * 4.0
        * tiles_per_role;
    let cm = (fc_stream + inb + outb + w / fc_batch.max(1) as f64) * steps;
    let ext = w_ext_per_image * steps;
    // The first FC layer's inputs arrive over the wheel spokes (and their
    // errors return during training).
    let spoke = if is_first_fc {
        inb * steps.min(2.0)
    } else {
        0.0
    };
    // Model-parallel feature circulation over the ring; without model
    // parallelism the ring instead carries the replicated FC weights to
    // every cluster once per wheel batch (the paper's motivation for
    // sharding — §3.3.2).
    let ring = if opts.disable_fc_model_parallelism {
        w / fc_batch.max(1) as f64 * steps
    } else {
        inb * steps.min(2.0) * (shards - 1.0) / shards
    };

    let role_time = |flops: u64, lanes_mult: f64| -> f64 {
        let c = compute_cycles(flops, role_lanes * lanes_mult, eff, batches);
        c.max(ext / steps / ext_bpc.max(1e-9))
            .max(cm / steps / comp_mem_bpc.max(1e-9))
            .max(spoke / steps.clamp(1.0, 2.0) / spoke_bpc.max(1e-9))
            .max(ring / steps.clamp(1.0, 2.0) / ring_bpc.max(1e-9))
    };

    let service = match kind {
        RunKind::Training => {
            let t_fp = role_time(plan.comp_flops[0], 1.0).max(plan.mem_flops[0] as f64 / sfus);
            let t_bp = role_time(plan.comp_flops[1], 1.0).max(plan.mem_flops[1] as f64 / sfus);
            let t_wg = role_time(plan.comp_flops[2], 1.0).max(plan.mem_flops[2] as f64 / sfus);
            t_fp.max(t_bp).max(t_wg)
        }
        RunKind::Evaluation => {
            role_time(plan.comp_flops[0], 3.0).max(plan.mem_flops[0] as f64 / sfus)
        }
    };

    let mut traffic = [0.0; N_LINK_CLASSES];
    traffic[link_idx(LinkClass::CompMem)] = cm;
    traffic[link_idx(LinkClass::FcExtMem)] = ext;
    traffic[link_idx(LinkClass::Spoke)] = spoke;
    traffic[link_idx(LinkClass::Ring)] = ring;
    let mut links = [0.0; N_LINK_CLASSES];
    links[link_idx(LinkClass::CompMem)] = tiles_per_role * 3.0;
    links[link_idx(LinkClass::MemMem)] = tiles_per_role * 2.0;

    let (useful_lane_cycles, useful_sfu_cycles) = useful_cycles(plan, kind);
    StageCost {
        members: index..index + 1,
        service_cycles: service.ceil() as u64,
        useful_lane_cycles,
        useful_sfu_cycles,
        traffic,
        links,
    }
}

/// A plan's useful lane and SFU cycles per image under `kind`: its array
/// FLOPs (two per lane-cycle) and its SFU FLOPs over the kind's steps.
fn useful_cycles(plan: &LayerPlan, kind: RunKind) -> (f64, f64) {
    let over_steps =
        |flops: &[u64; 3]| -> u64 { kind.steps().iter().map(|&s| flops[s as usize]).sum() };
    (
        over_steps(&plan.comp_flops) as f64 / 2.0,
        over_steps(&plan.mem_flops) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{stage_name, stage_plans};
    use scaledeep_arch::presets;
    use scaledeep_compiler::Compiler;
    use scaledeep_dnn::zoo;

    #[test]
    fn run_kind_and_precision_names_round_trip() {
        use scaledeep_arch::Precision;
        for kind in RunKind::ALL {
            assert_eq!(RunKind::parse(kind.name()), Ok(kind));
        }
        for precision in [Precision::Single, Precision::Half] {
            assert_eq!(Precision::parse(precision.name()), Ok(precision));
        }
        assert_eq!(RunKind::ALL.map(RunKind::name), ["training", "evaluation"]);
        assert_eq!(RunKind::Training.steps(), &Step::ALL);
        assert_eq!(RunKind::Evaluation.steps(), &[Step::Fp]);
        for bogus in ["Training", "inference", ""] {
            let err = RunKind::parse(bogus).unwrap_err();
            assert_eq!(err, format!("unknown run kind `{bogus}`"));
        }
        for bogus in ["Single", "double", ""] {
            let err = Precision::parse(bogus).unwrap_err();
            assert_eq!(err, format!("unknown precision `{bogus}`"));
        }
    }

    fn mapping(name: &str) -> Mapping {
        let net = zoo::by_name(name).unwrap();
        Compiler::new(&presets::single_precision())
            .map(&net)
            .unwrap()
    }

    /// Each stage with its rendered name.
    fn stages(name: &str, kind: RunKind) -> Vec<(String, StageCost)> {
        let mapping = mapping(name);
        let node = presets::single_precision();
        build_stages(&mapping, &node, &PerfOptions::default(), kind)
            .into_iter()
            .map(|st| (stage_name(&mapping, st.members.clone()), st))
            .collect()
    }

    #[test]
    fn stages_cover_all_compute_layers() {
        // 5 conv + 3 pool + 3 fc layers; column sharing folds small
        // consecutive conv-side layers into shared stages, so there are
        // fewer stages than layers but every layer name appears.
        let s = stages("alexnet", RunKind::Training);
        assert!(s.len() <= 11 && s.len() >= 4, "got {}", s.len());
        let joined: String = s
            .iter()
            .map(|(name, _)| name.clone())
            .collect::<Vec<_>>()
            .join("|");
        for layer in ["c1", "c2", "c3", "c4", "c5", "s1", "s3", "f6", "f7", "f8"] {
            assert!(joined.contains(layer), "missing {layer} in {joined}");
        }
    }

    #[test]
    fn googlenet_stage_names_join_their_members() {
        let names: Vec<String> = stages("googlenet", RunKind::Training)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        for want in [
            "i3a_1x1+i3a_3x3r",
            "i3a_3x3+i3a_5x5r+i3a_5x5",
            "i3a_pool+i3a_poolp",
        ] {
            assert!(
                names.iter().any(|n| n == want),
                "no stage `{want}` in {names:?}"
            );
        }
    }

    #[test]
    fn every_compute_layer_is_in_exactly_one_stage() {
        let node = presets::single_precision();
        for name in zoo::BENCHMARK_NAMES {
            let m = mapping(name);
            let mut owners = vec![0usize; m.plans().len()];
            let mut end = 0;
            for st in build_stages(&m, &node, &PerfOptions::default(), RunKind::Training) {
                assert!(st.members.start >= end, "{name}: stages overlap or go back");
                end = st.members.end;
                let first = &m.plans()[st.members.start];
                let last = &m.plans()[st.members.end - 1];
                assert_ne!(first.placement.side(), Side::None, "{name}: starts inline");
                assert_ne!(last.placement.side(), Side::None, "{name}: ends inline");
                for plan in stage_plans(&m, st.members) {
                    owners[plan.id.index()] += 1;
                }
            }
            for plan in m.plans() {
                let want = usize::from(plan.placement.side() != Side::None);
                assert_eq!(
                    owners[plan.id.index()],
                    want,
                    "{name}/{}",
                    m.layer_name(plan.id)
                );
            }
        }
    }

    #[test]
    fn evaluation_stages_are_faster() {
        let t = stages("alexnet", RunKind::Training);
        let e = stages("alexnet", RunKind::Evaluation);
        for ((name, ts), (_, es)) in t.iter().zip(&e) {
            assert!(
                es.service_cycles <= ts.service_cycles,
                "{}: eval {} vs train {}",
                name,
                es.service_cycles,
                ts.service_cycles
            );
        }
    }

    #[test]
    fn conv_stages_dominate_service_time() {
        let s = stages("vgg-a", RunKind::Training);
        let max_conv = s
            .iter()
            .filter(|(name, _)| name.starts_with('c'))
            .map(|(_, st)| st.service_cycles)
            .max()
            .unwrap();
        let max_pool = s
            .iter()
            .filter(|(name, _)| name.starts_with('s'))
            .map(|(_, st)| st.service_cycles)
            .max()
            .unwrap();
        assert!(max_conv > max_pool);
    }

    #[test]
    fn fc_stages_carry_spoke_traffic() {
        let s = stages("alexnet", RunKind::Training);
        let (_, f6) = s.iter().find(|(name, _)| name == "f6").unwrap();
        assert!(f6.traffic[link_idx(LinkClass::Spoke)] > 0.0);
        let (_, f7) = s.iter().find(|(name, _)| name == "f7").unwrap();
        assert_eq!(f7.traffic[link_idx(LinkClass::Spoke)], 0.0);
    }

    #[test]
    fn multi_chip_networks_use_arcs() {
        let s = stages("vgg-d", RunKind::Training);
        let arc_total: f64 = s
            .iter()
            .map(|(_, st)| st.traffic[link_idx(LinkClass::Arc)])
            .sum();
        assert!(arc_total > 0.0, "VGG-D spans chips and must use arcs");
        let s1 = stages("alexnet", RunKind::Training);
        let arc1: f64 = s1
            .iter()
            .map(|(_, st)| st.traffic[link_idx(LinkClass::Arc)])
            .sum();
        assert_eq!(arc1, 0.0, "AlexNet fits one chip");
    }
}
