//! STEP 5: CompHeavy array configuration and its residue utilization.
//!
//! The 2D array is reconfigurable at runtime (paper §3.1.1): columns and
//! vector lanes can be redistributed keeping their product constant, and
//! the array can split horizontally into two half-height arrays running
//! two batch convolutions in parallel. The configuration is chosen per
//! layer to maximize the product of three residue utilizations:
//!
//! * **rows** — feature rows vs. (possibly split) array rows;
//! * **kernel** — kernel rows vs. array columns;
//! * **lanes** — the layer's per-column output features vs. the lane
//!   count of the final batch iteration.

use scaledeep_arch::ChipConfig;
use scaledeep_dnn::{Layer, LayerNode, Network};

/// The chosen array configuration for one layer and the utilization it
/// achieves (Figure 19's "2D-array residue" factor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayPlan {
    /// Array columns after redistribution.
    pub cols: usize,
    /// Lanes per 2D-PE after redistribution.
    pub lanes: usize,
    /// Whether the array is split into two half-height arrays.
    pub row_split: bool,
    /// Row-residue utilization.
    pub util_rows: f64,
    /// Kernel-residue utilization.
    pub util_kernel: f64,
    /// Lane-residue utilization.
    pub util_lanes: f64,
    /// Output-feature batches each column processes per image
    /// (drives the inter-feature pipeline and instruction overhead).
    pub batches_per_image: usize,
    /// Whether the layer's working set fits the tile's streaming memories
    /// (one input row per array row in the left SM; the active kernels in
    /// the top/bottom SMs — Figure 7a). The Figure 14 SM capacities are
    /// sized so every benchmark layer fits; layers that do not would
    /// re-stream operands from the MemHeavy tiles each pass.
    pub streaming_fits: bool,
}

impl ArrayPlan {
    /// Combined 2D-array residue utilization.
    pub fn utilization(&self) -> f64 {
        self.util_rows * self.util_kernel * self.util_lanes
    }

    /// A unit plan for layers that do not use the 2D array.
    pub fn unit() -> Self {
        Self {
            cols: 1,
            lanes: 1,
            row_split: false,
            util_rows: 1.0,
            util_kernel: 1.0,
            util_lanes: 1.0,
            batches_per_image: 1,
            streaming_fits: true,
        }
    }
}

fn residue(work: usize, capacity: usize) -> f64 {
    if work == 0 || capacity == 0 {
        return 1.0;
    }
    let passes = work.div_ceil(capacity);
    work as f64 / (passes * capacity) as f64
}

/// Chooses the best array configuration for a layer mapped onto `cols`
/// chip columns of `chip`.
pub(crate) fn configure(
    net: &Network,
    node: &LayerNode,
    cols: usize,
    chip: &ChipConfig,
) -> ArrayPlan {
    let out = node.output_shape();
    match node.layer() {
        Layer::Conv(c) => {
            // Output features handled per column.
            let feats_per_col = out.features.div_ceil(cols.max(1));
            let base = &chip.comp_heavy;
            let in_width = net.node(node.inputs()[0]).output_shape().width;
            let mut best = ArrayPlan::unit();
            let mut best_u = -1.0f64;
            // The row residue depends only on the split and the kernel
            // residue only on the column count, so each is computed once.
            let splits = [false, true].map(|split| {
                let rows_eff = if split {
                    (base.array_rows / 2).max(1)
                } else {
                    base.array_rows
                };
                (split, rows_eff, residue(out.height, rows_eff))
            });
            for (acols, lanes) in base.column_lane_configs() {
                let util_kernel = residue(c.kernel, acols);
                for (split, rows_eff, util_rows) in splits {
                    let parallel = if split { 2 } else { 1 };
                    let lane_cap = lanes * parallel;
                    let util_lanes = residue(feats_per_col, lane_cap);
                    let u = util_rows * util_kernel * util_lanes;
                    if u > best_u {
                        best_u = u;
                        let batches = feats_per_col.div_ceil(lane_cap);
                        // Streaming-memory fit (Figure 7a / Figure 14):
                        // the left SM holds one input row per array row;
                        // the top+bottom SMs hold the kernels of the
                        // active lanes.
                        let elem = 4; // SP sizing; HP halves both sides
                        let left_need = rows_eff * in_width * elem;
                        let kernel_need = lane_cap * c.kernel * c.kernel * elem;
                        let streaming_fits = left_need <= base.left_mem_bytes
                            && kernel_need <= base.top_mem_bytes + base.bottom_mem_bytes;
                        best = ArrayPlan {
                            cols: acols,
                            lanes,
                            row_split: split,
                            util_rows,
                            util_kernel,
                            util_lanes,
                            batches_per_image: batches.max(1),
                            streaming_fits,
                        };
                    }
                }
            }
            best
        }
        Layer::Fc(_) => {
            // Matrix multiply: single lane; output neurons stream through
            // the whole array (rows x cols dot-product slots per pass).
            let base = &chip.comp_heavy;
            let neurons_per_col = out.features.div_ceil(cols.max(1));
            let slots = base.array_rows * base.array_cols;
            let util = residue(neurons_per_col, slots);
            ArrayPlan {
                cols: base.array_cols,
                lanes: 1,
                row_split: false,
                util_rows: util,
                util_kernel: 1.0,
                util_lanes: 1.0,
                batches_per_image: neurons_per_col.div_ceil(slots).max(1),
                // FC inputs stream elementwise; a vector chunk per array
                // row always fits the FcLayer chip's larger top/bottom SMs.
                streaming_fits: true,
            }
        }
        Layer::Pool(_)
        | Layer::EltwiseAdd(_)
        | Layer::EltwiseMul(_)
        | Layer::Act(_)
        | Layer::Shortcut { .. } => {
            // SFU work: batches follow the feature count per column so the
            // inter-feature pipeline still has stages to fill.
            let feats_per_col = out.features.div_ceil(cols.max(1));
            ArrayPlan {
                batches_per_image: feats_per_col.max(1),
                ..ArrayPlan::unit()
            }
        }
        _ => ArrayPlan::unit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;

    fn conv_chip() -> ChipConfig {
        presets::single_precision().cluster.conv_chip
    }

    #[test]
    fn residue_is_one_for_exact_fit() {
        assert_eq!(residue(8, 8), 1.0);
        assert_eq!(residue(16, 8), 1.0);
    }

    #[test]
    fn residue_penalizes_partial_passes() {
        // 13 rows on an 8-row array: 2 passes, 13/16 busy.
        assert!((residue(13, 8) - 13.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn alexnet_c2_prefers_row_split() {
        // The paper's Figure 19: C2 (27x27 features on an 8-row array)
        // leverages the horizontal split to run 2 batch convolutions.
        // 27 rows: unsplit residue 27/32; split (4-row halves) 27/28.
        let net = zoo::alexnet();
        let c2 = net.node_by_name("c2").unwrap();
        let plan = configure(&net, c2, 4, &conv_chip());
        assert!(plan.row_split, "27-row features should split the array");
        assert!(plan.utilization() > 0.5);
    }

    #[test]
    fn kernel_residue_hits_5x5_kernels() {
        // K=5 on a 3-column array: 2 passes, 5/6 kernel utilization unless
        // the configuration search finds a better redistribution.
        let net = zoo::alexnet();
        let c3 = net.node_by_name("c3").unwrap();
        let plan = configure(&net, c3, 4, &conv_chip());
        // 3x3 kernels on 3 columns fit exactly.
        assert_eq!(plan.util_kernel, 1.0);
    }

    #[test]
    fn pool_layers_use_unit_array() {
        let net = zoo::alexnet();
        let s1 = net.node_by_name("s1").unwrap();
        let plan = configure(&net, s1, 1, &conv_chip());
        assert_eq!(plan.utilization(), 1.0);
        assert!(plan.batches_per_image >= 96);
    }

    #[test]
    fn fc_uses_single_lane() {
        let node = presets::single_precision();
        let net = zoo::alexnet();
        let f6 = net.node_by_name("f6").unwrap();
        let plan = configure(&net, f6, 4, &node.cluster.fc_chip);
        assert_eq!(plan.lanes, 1);
        assert!(plan.batches_per_image > 1);
    }
}
