//! Processing tile configurations (paper §3.1, Figure 7a/7b).

use crate::error::{Error, Result};

/// Configuration of a Compute-Heavy tile: a reconfigurable 2D array of
/// vector fused-multiply-accumulate PEs, a 1D accumulator array, three
/// streaming memories, a local scratchpad and a scalar control PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompHeavyConfig {
    /// Rows of the 2D PE array (input rows stream along rows).
    pub array_rows: usize,
    /// Columns of the 2D PE array (kernel rows stream along columns).
    pub array_cols: usize,
    /// Vector lanes per 2D-PE (concurrent output features / kernels).
    pub lanes: usize,
    /// 1D accumulator units that count toward peak FLOPs. In batch
    /// convolution the diagonal accumulation of row dot-products runs
    /// concurrently with the FMA array; in single-lane matrix multiply the
    /// accumulation happens inside the FMA lanes and the 1D array is idle
    /// (hence 0 in the FcLayer preset). See DESIGN.md.
    pub acc_units: usize,
    /// Left streaming-memory capacity, bytes (feeds input rows).
    pub left_mem_bytes: usize,
    /// Top streaming-memory capacity, bytes (feeds kernel columns).
    pub top_mem_bytes: usize,
    /// Bottom streaming-memory capacity, bytes (feeds kernel columns).
    pub bottom_mem_bytes: usize,
    /// Local scratchpad for partial outputs, bytes.
    pub scratch_bytes: usize,
}

impl CompHeavyConfig {
    /// Total number of vector FMA lanes in the array.
    pub const fn total_lanes(&self) -> usize {
        self.array_rows * self.array_cols * self.lanes
    }

    /// Peak FLOPs per cycle: 2 per FMA lane plus 2 per counted accumulator.
    pub const fn flops_per_cycle(&self) -> u64 {
        (self.total_lanes() * 2 + self.acc_units * 2) as u64
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any array dimension is zero.
    pub fn validate(&self) -> Result<()> {
        if self.array_rows == 0 || self.array_cols == 0 || self.lanes == 0 {
            return Err(Error::InvalidConfig {
                component: "CompHeavy tile",
                detail: format!(
                    "array {}x{}x{} must be non-zero",
                    self.array_rows, self.array_cols, self.lanes
                ),
            });
        }
        Ok(())
    }

    /// The runtime array reconfigurations of §3.1.1: the legal
    /// (columns, lanes) redistributions with `cols * lanes` constant, in
    /// increasing column order. The divisor scan stops at the square
    /// root: the small divisors ascending, then their cofactors ascending.
    pub fn column_lane_configs(&self) -> impl Iterator<Item = (usize, usize)> {
        let product = self.array_cols * self.lanes;
        let root = product.isqrt();
        let small = (1..=root).filter(move |d| product.is_multiple_of(*d));
        let large = small
            .clone()
            .rev()
            .filter(move |d| d * d != product)
            .map(move |d| product / d);
        small.chain(large).map(move |c| (c, product / c))
    }
}

/// Configuration of a Memory-Heavy tile: a large scratchpad storing network
/// state, an array of Special Function Units operating on it directly, a DMA
/// controller, and hardware data-flow trackers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemHeavyConfig {
    /// Scratchpad capacity in bytes.
    pub capacity_bytes: usize,
    /// Number of Special Function Units (adder/comparator, multiplier,
    /// activation logic).
    pub num_sfu: usize,
    /// Number of concurrent hardware data-flow trackers (MEMTRACK entries).
    pub num_trackers: usize,
}

impl MemHeavyConfig {
    /// Peak FLOPs per cycle: one operation per SFU.
    pub const fn flops_per_cycle(&self) -> u64 {
        self.num_sfu as u64
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when capacity or SFU count is zero.
    pub fn validate(&self) -> Result<()> {
        if self.capacity_bytes == 0 || self.num_sfu == 0 {
            return Err(Error::InvalidConfig {
                component: "MemHeavy tile",
                detail: "capacity and SFU count must be non-zero".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::presets;

    #[test]
    fn conv_compheavy_peak_matches_figure14() {
        // 8x3 array, 4 lanes, 16 accumulators: (96*2 + 32) = 224 FLOPs/cycle
        // -> 134.4 GFLOPS @ 600 MHz.
        let t = presets::single_precision().cluster.conv_chip.comp_heavy;
        assert_eq!(t.flops_per_cycle(), 224);
    }

    #[test]
    fn fc_compheavy_peak_matches_figure14() {
        // 4x8 array, 1 lane, no counted accumulators: 64 FLOPs/cycle
        // -> 38.4 GFLOPS @ 600 MHz.
        let t = presets::single_precision().cluster.fc_chip.comp_heavy;
        assert_eq!(t.flops_per_cycle(), 64);
    }

    #[test]
    fn memheavy_peak_is_one_flop_per_sfu() {
        let t = presets::single_precision().cluster.conv_chip.mem_heavy;
        assert_eq!(t.flops_per_cycle(), 32);
    }

    #[test]
    fn column_lane_redistribution_preserves_product() {
        let t = presets::single_precision().cluster.conv_chip.comp_heavy;
        for (c, l) in t.column_lane_configs() {
            assert_eq!(c * l, t.array_cols * t.lanes);
        }
        // 3 cols x 4 lanes = 12: divisors 1,2,3,4,6,12.
        assert_eq!(t.column_lane_configs().count(), 6);
    }

    #[test]
    fn column_lane_configs_equal_the_naive_divisor_scan() {
        let mut t = presets::single_precision().cluster.conv_chip.comp_heavy;
        t.lanes = 1;
        for product in 1..=4096 {
            t.array_cols = product;
            let naive = (1..=product)
                .filter(|c| product.is_multiple_of(*c))
                .map(|c| (c, product / c));
            assert!(t.column_lane_configs().eq(naive), "product {product}");
        }
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        let mut t = presets::single_precision().cluster.conv_chip.comp_heavy;
        t.array_rows = 0;
        assert!(t.validate().is_err());
    }
}
