//! STEP 3: column allocation — memory floor (3a) then load balancing (3b).

use super::state::StateBudget;
use super::{FailedTiles, Placement};
use crate::error::{Error, Result};
use scaledeep_arch::ChipConfig;
use scaledeep_dnn::{Analysis, LayerId};
use std::ops::Range;

/// The outcome of column allocation.
#[derive(Debug, Clone)]
pub(crate) struct Allocation {
    /// Placement per layer, indexed by `LayerId`.
    placements: Vec<Placement>,
    pub conv_cols_used: usize,
    pub fc_cols_used: usize,
    pub chips_spanned: usize,
    pub clusters_spanned: usize,
    /// Logical→physical conv-column indirection: placements use logical
    /// columns `0..`, and `col_map[logical]` names the live physical
    /// column backing each one (identity when nothing failed).
    pub col_map: Vec<usize>,
    /// Physical columns within the span condemned by the failed-tile set.
    pub failed_cols: Vec<usize>,
}

impl Allocation {
    pub(crate) fn placement(&self, id: LayerId) -> Placement {
        self.placements[id.index()]
    }
}

/// Training FLOPs of a layer (all three steps) — the load metric of 3b.
fn load_flops(analysis: &Analysis, id: LayerId) -> u64 {
    let c = analysis.layer(id);
    c.training_flops()
}

/// Greedy load balancing: repeatedly grant one extra column to the layer
/// with the highest column load (normalized FLOPs / normalized columns).
fn balance(cols: &mut [usize], flops: &[u64], budget: usize) {
    let mut used: usize = cols.iter().sum();
    let total_flops: u64 = flops.iter().sum();
    if total_flops == 0 {
        return;
    }
    while used < budget {
        // With `total_flops > 0` some layer carries FLOPs, but stay
        // graceful regardless: leftover budget is preferable to a panic
        // inside a degraded remap.
        let Some((best, _)) = cols
            .iter()
            .enumerate()
            .filter(|&(i, _)| flops[i] > 0)
            .map(|(i, &c)| {
                let norm_ops = flops[i] as f64 / total_flops as f64;
                let norm_cols = c as f64 / used as f64;
                (i, norm_ops / norm_cols)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return;
        };
        cols[best] += 1;
        used += 1;
    }
}

/// Rounds a raw chip requirement to a deployable span: 1–4 chips stay
/// within one wheel; beyond that, whole clusters (multiples of the wheel
/// size) are taken so the ring carries the CONV features (paper §6.3's
/// VGG-D/E case).
fn round_span(raw_chips: usize, wheel: usize, clusters: usize) -> (usize, usize) {
    // Even a CONV-free network (autoencoder, RNN) occupies one rim chip to
    // stream its inputs toward the hub.
    let raw_chips = raw_chips.max(1);
    if raw_chips <= wheel {
        (raw_chips, 1)
    } else {
        let n_clusters = raw_chips.div_ceil(wheel).min(clusters);
        (n_clusters * wheel, n_clusters)
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn allocate(
    conv_ids: &[LayerId],
    fc_ids: &[LayerId],
    budgets: &[StateBudget],
    analysis: &Analysis,
    conv_chip: &ChipConfig,
    fc_chip: &ChipConfig,
    wheel: usize,
    clusters: usize,
    failed: &FailedTiles,
) -> Result<Allocation> {
    let mut placements = vec![Placement::Inline; budgets.len()];

    // ---- Conv side ----
    // Column sharing: consecutive layers whose combined state fits one
    // column share a column group (the paper maps at column granularity
    // but treats each inception module / residual block as one layer;
    // grouping small consecutive layers recovers that granularity — and is
    // the "layer occupies part of the column" optimization §6.1 sketches).
    let col_cap = conv_chip.col_mem_capacity() as u64;
    // Each group is a run of `conv_ids`; at most one per conv layer.
    let mut groups: Vec<Range<usize>> = Vec::with_capacity(conv_ids.len());
    let mut start = 0;
    let mut current_state: u64 = 0;
    for (i, &id) in conv_ids.iter().enumerate() {
        let s = budgets[id.index()].state_bytes.max(1);
        if i > start && current_state + s > col_cap {
            groups.push(start..i);
            start = i;
            current_state = 0;
        }
        current_state += s;
    }
    if start < conv_ids.len() {
        groups.push(start..conv_ids.len());
    }
    let members = |g: &Range<usize>| &conv_ids[g.clone()];

    let mut group_cols: Vec<usize> = groups
        .iter()
        .map(|g| {
            let state: u64 = members(g)
                .iter()
                .map(|id| budgets[id.index()].state_bytes)
                .sum();
            usize::try_from(state.div_ceil(col_cap))
                .unwrap_or(usize::MAX)
                .max(1)
        })
        .collect();
    let min_total: usize = group_cols.iter().sum();
    let available_total = clusters * wheel * conv_chip.cols;
    let failed_in_node = failed.columns().filter(|&c| c < available_total).count();
    let live_total = available_total - failed_in_node;
    if min_total > live_total {
        // "The network never fit" and "the failures ate the headroom" are
        // different operator problems; report them as different errors.
        return Err(if failed.is_empty() {
            Error::DoesNotFit {
                required_cols: min_total,
                available_cols: available_total,
            }
        } else {
            Error::NoCapacity {
                required_cols: min_total,
                live_cols: live_total,
                failed_cols: failed_in_node,
            }
        });
    }

    // Grow the span until it holds `min_total` *live* columns (on a
    // healthy node the first candidate already does).
    let live_within = |chips: usize| {
        let span_cols = chips * conv_chip.cols;
        span_cols - failed.columns().filter(|&c| c < span_cols).count()
    };
    let (mut chips_spanned, mut clusters_spanned) =
        round_span(min_total.div_ceil(conv_chip.cols), wheel, clusters);
    while live_within(chips_spanned) < min_total {
        let next = round_span(chips_spanned + 1, wheel, clusters);
        if next.0 == chips_spanned {
            // Capped at the node and still short — unreachable given the
            // live_total check above, but degrade gracefully regardless.
            return Err(Error::NoCapacity {
                required_cols: min_total,
                live_cols: live_within(chips_spanned),
                failed_cols: failed_in_node,
            });
        }
        (chips_spanned, clusters_spanned) = next;
    }

    // A rim chip with every column dead breaks the wheel's spoke/arc
    // route through it; no column re-allocation can compensate.
    for chip in 0..chips_spanned {
        let base = chip * conv_chip.cols;
        if (base..base + conv_chip.cols).all(|c| failed.contains(c)) {
            return Err(Error::NoRoute { chip });
        }
    }

    let budget = live_within(chips_spanned);
    let group_flops: Vec<u64> = groups
        .iter()
        .map(|g| members(g).iter().map(|&id| load_flops(analysis, id)).sum())
        .collect();
    balance(&mut group_cols, &group_flops, budget);

    let mut cursor = 0;
    for (g, group) in groups.iter().enumerate() {
        for &id in members(group) {
            placements[id.index()] = Placement::Conv {
                first_col: cursor,
                cols: group_cols[g],
            };
        }
        cursor += group_cols[g];
    }
    let conv_cols_used = cursor;

    // ---- FC side (the hub chip's columns) ----
    let mut fc_cols_used = 0;
    if !fc_ids.is_empty() {
        let mut fc_cols = vec![1; fc_ids.len()];
        let fc_flops: Vec<u64> = fc_ids.iter().map(|id| load_flops(analysis, *id)).collect();
        let fc_budget = fc_chip.cols.max(fc_ids.len());
        balance(&mut fc_cols, &fc_flops, fc_budget);
        let mut cursor = 0;
        for (i, id) in fc_ids.iter().enumerate() {
            placements[id.index()] = Placement::Fc {
                first_col: cursor,
                cols: fc_cols[i],
            };
            cursor += fc_cols[i];
        }
        fc_cols_used = cursor;
    }

    let span_cols = chips_spanned * conv_chip.cols;
    let mut col_map = Vec::with_capacity(span_cols);
    col_map.extend((0..span_cols).filter(|&c| !failed.contains(c)));
    let failed_cols: Vec<usize> = if failed.is_empty() {
        Vec::new()
    } else {
        (0..span_cols).filter(|&c| failed.contains(c)).collect()
    };

    Ok(Allocation {
        placements,
        conv_cols_used,
        fc_cols_used,
        chips_spanned,
        clusters_spanned,
        col_map,
        failed_cols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_prefers_heavy_layers() {
        let mut cols = vec![1, 1, 1];
        balance(&mut cols, &[100, 10, 10], 9);
        assert!(cols[0] > cols[1] && cols[0] > cols[2]);
        assert_eq!(cols.iter().sum::<usize>(), 9);
    }

    #[test]
    fn balance_is_noop_at_budget() {
        let mut cols = vec![2, 3];
        balance(&mut cols, &[5, 5], 5);
        assert_eq!(cols, vec![2, 3]);
    }

    #[test]
    fn zero_flop_layers_get_no_extra_columns() {
        let mut cols = vec![1, 1];
        balance(&mut cols, &[10, 0], 6);
        assert_eq!(cols, vec![5, 1]);
    }

    #[test]
    fn span_rounds_to_clusters_beyond_the_wheel() {
        assert_eq!(round_span(0, 4, 4), (1, 1)); // CONV-free networks
        assert_eq!(round_span(1, 4, 4), (1, 1));
        assert_eq!(round_span(3, 4, 4), (3, 1));
        assert_eq!(round_span(5, 4, 4), (8, 2));
        assert_eq!(round_span(13, 4, 4), (16, 4));
    }

    #[test]
    fn span_is_capped_at_node_size() {
        assert_eq!(round_span(40, 4, 4), (16, 4));
    }
}
