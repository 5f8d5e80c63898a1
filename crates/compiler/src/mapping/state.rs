//! STEP 3a / STEP 4: on-chip state budgets and feature distribution.

use scaledeep_arch::ChipConfig;
use scaledeep_dnn::{Analysis, Layer, LayerId, Network};

/// The on-chip storage a layer requires (STEP 3a).
///
/// Because execution is pipelined, a layer's MemHeavy tiles must
/// cumulatively hold **two copies of its features and errors** (the copy
/// being produced and the copy being consumed by the next pipeline stage),
/// **two copies of the partial feature/error batch under evaluation**, and
/// its weights + weight gradients when those are kept on chip (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateBudget {
    /// Feature + error pipeline copies plus partial batches, bytes.
    pub state_bytes: u64,
    /// Weight bytes (gradients double this when resident).
    pub weight_bytes: u64,
    /// Memory-floor column count on the owning chip.
    pub min_cols: usize,
}

/// Computes the STEP 3a budget for one layer.
pub(crate) fn state_budget(
    net: &Network,
    analysis: &Analysis,
    id: LayerId,
    chip: &ChipConfig,
    elem_bytes: u64,
) -> StateBudget {
    let node = net.node(id);
    let out = node.output_shape();
    let feat_bytes = out.elems() as u64 * elem_bytes;
    let is_training_state = matches!(
        node.layer(),
        Layer::Conv(_)
            | Layer::Pool(_)
            | Layer::Fc(_)
            | Layer::EltwiseAdd(_)
            | Layer::EltwiseMul(_)
            | Layer::Act(_)
            | Layer::Shortcut { .. }
    );
    if !is_training_state {
        return StateBudget {
            state_bytes: 0,
            weight_bytes: 0,
            min_cols: 0,
        };
    }
    // Two copies of features and errors: 2 * (features + errors).
    let pipeline_copies = 4 * feat_bytes;
    // Two copies of the partial output-feature batch under evaluation
    // (lanes features at a time).
    let lanes = chip.comp_heavy.lanes.max(1) as u64;
    let partial_batch = 2 * lanes * out.feature_elems() as u64 * elem_bytes;
    let state_bytes = pipeline_copies + partial_batch;
    let weight_bytes = analysis.layer(id).weights * elem_bytes;
    let col_cap = chip.col_mem_capacity() as u64;
    let min_cols = usize::try_from(state_bytes.div_ceil(col_cap))
        .unwrap_or(usize::MAX)
        .max(1);
    StateBudget {
        state_bytes,
        weight_bytes,
        min_cols,
    }
}

/// STEP 4: distributes `features` output features across `tiles` MemHeavy
/// tiles, returning `(tiles_used, features_per_tile)`.
///
/// * When there are at least as many features as tiles, each tile holds
///   `ceil(features / tiles)` whole features and the final tiles may be
///   left empty (the paper's AlexNet C3/C4 case, "2 tiles unused").
/// * When features are fewer than tiles (large initial-CONV features),
///   each feature is split into `floor(tiles / features)` parts so every
///   part-holding tile participates.
pub(crate) fn distribute_features(features: usize, tiles: usize) -> (usize, usize) {
    if tiles == 0 || features == 0 {
        return (0, 0);
    }
    if features >= tiles {
        let per_tile = features.div_ceil(tiles);
        let used = features.div_ceil(per_tile);
        (used, per_tile)
    } else {
        let parts = tiles / features;
        (features * parts, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaledeep_arch::presets;
    use scaledeep_dnn::zoo;

    #[test]
    fn whole_feature_distribution_leaves_remainder_tiles_idle() {
        // AlexNet C3: 384 features over (4 cols x 6 rows = 24 tiles):
        // 16/tile, all used. With 22 tiles: ceil(384/22)=18 -> uses 22.
        assert_eq!(distribute_features(384, 24), (24, 16));
        // The paper's C3 example: 384 features, 4 cols allocated but tiles
        // shared: feature count not a multiple -> some tiles unused.
        let (used, per) = distribute_features(96, 36);
        assert_eq!(per, 3); // ceil(96/36)
        assert_eq!(used, 32); // 96/3 -> 4 tiles idle
    }

    #[test]
    fn split_distribution_uses_part_tiles() {
        // 3 big features over 24 tiles: 8 parts each, all 24 used.
        assert_eq!(distribute_features(3, 24), (24, 1));
        // 5 features over 24 tiles: 4 parts each -> 20 used, 4 idle.
        assert_eq!(distribute_features(5, 24), (20, 1));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(distribute_features(0, 10), (0, 0));
        assert_eq!(distribute_features(10, 0), (0, 0));
    }

    #[test]
    fn budget_scales_with_feature_size() {
        let net = zoo::overfeat_fast();
        let node = presets::single_precision();
        let a = net.analyze();
        let chip = node.cluster.conv_chip;
        let c1 = net.node_by_name("c1").unwrap().id();
        let c3 = net.node_by_name("c3").unwrap().id();
        let b1 = state_budget(&net, a, c1, &chip, 4);
        let b3 = state_budget(&net, a, c3, &chip, 4);
        // C1: 96 x 56x56 floats = 1.2MB of features -> ~4.8MB state.
        assert!(b1.state_bytes > 4 * 1024 * 1024);
        assert!(b1.state_bytes > b3.state_bytes);
        assert!(b1.min_cols >= 2);
    }

    #[test]
    fn input_and_loss_need_no_state() {
        let net = zoo::alexnet();
        let node = presets::single_precision();
        let a = net.analyze();
        let chip = node.cluster.conv_chip;
        let input = net.input().id();
        let b = state_budget(&net, a, input, &chip, 4);
        assert_eq!(b.min_cols, 0);
        assert_eq!(b.state_bytes, 0);
    }
}
