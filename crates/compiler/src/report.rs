//! Mapping reports: the utilization waterfall of Figure 19.

use crate::mapping::{Mapping, Placement};
use scaledeep_arch::ChipConfig;
use std::ops::Range;

/// Per-layer row of the Figure 19 analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerUtilRow {
    /// Layer name.
    pub name: String,
    /// Training FLOPs per image (CompHeavy work).
    pub flops: u64,
    /// Columns allocated.
    pub cols: usize,
    /// 2D-PE lanes allocated (the paper's "2D-PE" count).
    pub pes: usize,
    /// Ideal PE share: PEs distributed in proportion to FLOPs.
    pub ideal_pes: f64,
    /// Peak utilization after column quantization (ideal/allocated; may
    /// exceed 1 for under-provisioned layers, like the paper's 1.18).
    pub util_after_columns: f64,
    /// Peak utilization after the feature-distribution factor.
    pub util_after_features: f64,
    /// Peak utilization after the 2D-array residue factor.
    pub util_after_array: f64,
}

/// The chip-level utilization waterfall: the aggregate 2D-PE utilization
/// after each mapping stage (the paper reports 0.68 → 0.64 → 0.42 → 0.35
/// across its suite).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationWaterfall {
    /// Per-layer rows (conv-side layers carrying compute).
    pub rows: Vec<LayerUtilRow>,
    /// Aggregate utilization after column quantization.
    pub after_columns: f64,
    /// Aggregate utilization after feature distribution.
    pub after_features: f64,
    /// Aggregate utilization after array residue.
    pub after_array: f64,
}

impl UtilizationWaterfall {
    /// Applies an instruction-overhead factor (the final Figure 19 stage)
    /// to the post-array utilization, yielding the achieved utilization.
    pub fn achieved(&self, instruction_overhead_factor: f64) -> f64 {
        self.after_array * instruction_overhead_factor.clamp(0.0, 1.0)
    }
}

/// Report generator over a [`Mapping`].
#[derive(Debug, Clone)]
pub struct MappingReport<'a> {
    mapping: &'a Mapping,
    conv_chip: ChipConfig,
}

impl<'a> MappingReport<'a> {
    /// Creates a report for a mapping on the given ConvLayer chip.
    pub fn new(mapping: &'a Mapping, conv_chip: ChipConfig) -> Self {
        Self { mapping, conv_chip }
    }

    /// PE lanes per allocated column (rows × 3 roles × lanes per tile).
    pub fn pes_per_col(&self) -> usize {
        self.conv_chip.comp_heavy_tiles_per_col() * self.conv_chip.comp_heavy.total_lanes()
    }

    /// Renders the mapping report as an aligned text table: one row per
    /// FLOP-carrying conv-side layer, followed by the aggregate Figure 19
    /// waterfall. The format is pinned by a golden test — tools parse it.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let w = self.waterfall();
        let m = self.mapping;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mapping report: {} (conv cols {}, fc cols {}, chips {}, clusters {})",
            m.network_name(),
            m.conv_cols_used(),
            m.fc_cols_used(),
            m.chips_spanned(),
            m.clusters_spanned(),
        );
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>5} {:>8} {:>11} {:>7} {:>7} {:>7}",
            "layer", "flops/img", "cols", "pes", "ideal_pes", "u.cols", "u.feat", "u.arr"
        );
        for r in &w.rows {
            let _ = writeln!(
                out,
                "{:<10} {:>14} {:>5} {:>8} {:>11.1} {:>7.4} {:>7.4} {:>7.4}",
                r.name,
                r.flops,
                r.cols,
                r.pes,
                r.ideal_pes,
                r.util_after_columns,
                r.util_after_features,
                r.util_after_array,
            );
        }
        let _ = writeln!(
            out,
            "aggregate utilization: columns {:.4} -> features {:.4} -> array {:.4}",
            w.after_columns, w.after_features, w.after_array,
        );
        out
    }

    /// Computes the Figure 19 waterfall for the conv side of the mapping.
    ///
    /// The inter-layer pipeline runs at the rate of its slowest layer, so
    /// each aggregate utilization is `(bottleneck rate × total FLOPs) /
    /// total allocated PE throughput`, with successively more loss factors
    /// applied to each layer's effective PE count.
    pub fn waterfall(&self) -> UtilizationWaterfall {
        let pes_per_col = self.pes_per_col() as f64;
        let plans = self.mapping.plans();
        // Layers sharing a column group time-multiplex the same tiles:
        // PEs are counted once per group and group members' times add.
        let group_plans = |g: Range<usize>| {
            plans[g]
                .iter()
                .filter(|p| matches!(p.placement, Placement::Conv { .. }))
        };
        let total_flops: u64 = self
            .mapping
            .conv_plans()
            .map(|p| p.comp_flops_training())
            .sum();
        let group_pes = |g: Range<usize>| plans[g.start].placement.cols() as f64 * pes_per_col;
        let total_pes: f64 = self.mapping.conv_groups().map(group_pes).sum();

        let mut rows = Vec::new();
        // Stage-wise bottleneck times: group time = sum over members of
        // flops / (group PEs * factor).
        let mut t_cols: f64 = 0.0;
        let mut t_feat: f64 = 0.0;
        let mut t_array: f64 = 0.0;
        for g in self.mapping.conv_groups() {
            let pes = group_pes(g.clone());
            let mut g_cols = 0.0;
            let mut g_feat = 0.0;
            let mut g_array = 0.0;
            for p in group_plans(g) {
                let flops = p.comp_flops_training();
                if flops == 0 {
                    continue;
                }
                let ideal = total_pes * flops as f64 / total_flops.max(1) as f64;
                let u_feat = p.feature_distribution_util();
                let u_array = p.array.utilization();
                g_cols += flops as f64 / pes;
                g_feat += flops as f64 / (pes * u_feat.max(1e-9));
                g_array += flops as f64 / (pes * (u_feat * u_array).max(1e-9));
                rows.push(LayerUtilRow {
                    name: self.mapping.layer_name(p.id).to_string(),
                    flops,
                    cols: p.placement.cols(),
                    pes: pes as usize,
                    ideal_pes: ideal,
                    util_after_columns: ideal / pes,
                    util_after_features: ideal / pes * u_feat,
                    util_after_array: ideal / pes * u_feat * u_array,
                });
            }
            t_cols = t_cols.max(g_cols);
            t_feat = t_feat.max(g_feat);
            t_array = t_array.max(g_array);
        }
        let agg = |t_bottleneck: f64| {
            if t_bottleneck <= 0.0 {
                0.0
            } else {
                (total_flops as f64 / t_bottleneck) / total_pes
            }
        };
        UtilizationWaterfall {
            rows,
            after_columns: agg(t_cols),
            after_features: agg(t_feat),
            after_array: agg(t_array),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Compiler;
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;

    fn waterfall(name: &str) -> UtilizationWaterfall {
        let net = zoo::by_name(name).unwrap();
        let node = presets::single_precision();
        let mapping = Compiler::new(&node).map(&net).unwrap();
        MappingReport::new(&mapping, node.cluster.conv_chip).waterfall()
    }

    #[test]
    fn waterfall_is_monotonically_decreasing() {
        for name in ["alexnet", "vgg-a", "googlenet"] {
            let w = waterfall(name);
            assert!(w.after_columns >= w.after_features, "{name}");
            assert!(w.after_features >= w.after_array, "{name}");
            assert!(w.after_array > 0.0, "{name}");
        }
    }

    #[test]
    fn alexnet_waterfall_is_in_paper_range() {
        // Paper (suite-wide): 0.68 -> 0.64 -> 0.42; AlexNet specifically
        // bottoms out around 0.5 before instruction overhead.
        let w = waterfall("alexnet");
        assert!(
            w.after_columns > 0.4 && w.after_columns <= 1.0,
            "cols {}",
            w.after_columns
        );
        assert!(w.after_array > 0.2, "array {}", w.after_array);
    }

    #[test]
    fn achieved_applies_overhead() {
        let w = waterfall("alexnet");
        let a = w.achieved(0.85);
        assert!((a - w.after_array * 0.85).abs() < 1e-12);
        assert!(w.achieved(2.0) <= w.after_array);
    }

    #[test]
    fn rows_cover_compute_layers() {
        let w = waterfall("alexnet");
        // 5 convs + 3 pools + ... only FLOP-carrying conv-side layers.
        assert!(w.rows.iter().any(|r| r.name == "c1"));
        assert!(w.rows.iter().all(|r| r.flops > 0));
    }

    #[test]
    fn under_provisioned_layers_show_peak_above_one() {
        // At least one layer should be the bottleneck with util > 1 pre-
        // normalization (the paper's C2/S2 shows 0.74, C1 1.18).
        let w = waterfall("alexnet");
        let max = w
            .rows
            .iter()
            .map(|r| r.util_after_columns)
            .fold(0.0f64, f64::max);
        assert!(max > 0.9, "bottleneck layer near or above 1, got {max}");
    }
}
