//! Chip architecture (paper §3.2, Figure 7c and Figure 11): a 2D grid of
//! alternating CompHeavy and MemHeavy tile columns.

use crate::error::Result;
use crate::tile::{CompHeavyConfig, MemHeavyConfig};
use std::fmt;

/// The two chip flavors tuned from the common template (paper §3.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipKind {
    /// Tuned for CONV/SAMP layers: more compute, moderate bandwidth.
    ConvLayer,
    /// Tuned for FC layers: fewer, smaller CompHeavy tiles; larger MemHeavy
    /// scratchpads; higher link bandwidth.
    FcLayer,
}

impl ChipKind {
    /// The chip kind's name (`"ConvLayer"` / `"FcLayer"`), as it is
    /// displayed and serialized.
    pub const fn name(self) -> &'static str {
        match self {
            ChipKind::ConvLayer => "ConvLayer",
            ChipKind::FcLayer => "FcLayer",
        }
    }
}

impl fmt::Display for ChipKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one ScaleDeep chip.
///
/// The grid has `rows × cols` compute cells; each cell holds 3 CompHeavy
/// tiles (one each for FP, BP and WG — paper §3.2.1). MemHeavy tile columns
/// interleave with the compute columns, with one extra column closing the
/// grid, giving `rows × (cols + 1)` MemHeavy tiles. For the ConvLayer preset
/// (6 × 16) this yields the paper's 288 CompHeavy and 102 MemHeavy tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipConfig {
    /// Which template tuning this chip uses.
    pub kind: ChipKind,
    /// Grid rows.
    pub rows: usize,
    /// Grid compute columns.
    pub cols: usize,
    /// CompHeavy tile micro-architecture.
    pub comp_heavy: CompHeavyConfig,
    /// MemHeavy tile micro-architecture.
    pub mem_heavy: MemHeavyConfig,
    /// External memory bandwidth per chip, bytes/second.
    pub ext_mem_bw: f64,
    /// CompHeavy ↔ MemHeavy link bandwidth, bytes/second.
    pub comp_mem_bw: f64,
    /// MemHeavy ↔ MemHeavy link bandwidth, bytes/second.
    pub mem_mem_bw: f64,
}

/// Number of CompHeavy tiles per grid cell: one each for FP, BP, WG.
pub const COMP_TILES_PER_CELL: usize = 3;

impl ChipConfig {
    /// Total CompHeavy tiles (3 per compute cell).
    pub const fn comp_heavy_tiles(&self) -> usize {
        self.rows * self.cols * COMP_TILES_PER_CELL
    }

    /// CompHeavy tiles per column (across all rows).
    pub const fn comp_heavy_tiles_per_col(&self) -> usize {
        self.rows * COMP_TILES_PER_CELL
    }

    /// Total MemHeavy tiles (columns interleave compute columns, plus one).
    pub const fn mem_heavy_tiles(&self) -> usize {
        self.rows * (self.cols + 1)
    }

    /// MemHeavy tiles per compute column (the column's right-side
    /// MemHeavy column).
    pub const fn mem_heavy_tiles_per_col(&self) -> usize {
        self.rows
    }

    /// Total 2D-PE lane count: `rows × cols × 3 × array_rows × array_cols ×
    /// lanes` — the quantity Figure 19 reports as 27648 "2D-PEs" for the
    /// ConvLayer chip (the paper counts vector lanes).
    pub const fn total_2d_pes(&self) -> usize {
        self.comp_heavy_tiles() * self.comp_heavy.total_lanes()
    }

    /// Peak FLOPs of the whole chip at `freq_hz`.
    pub fn peak_flops(&self, freq_hz: f64) -> f64 {
        let comp = self.comp_heavy_tiles() as f64 * self.comp_heavy.flops_per_cycle() as f64;
        let mem = self.mem_heavy_tiles() as f64 * self.mem_heavy.flops_per_cycle() as f64;
        (comp + mem) * freq_hz
    }

    /// Total MemHeavy scratchpad capacity on the chip, bytes. This is the
    /// budget the compiler partitions the network state into.
    pub const fn total_mem_capacity(&self) -> usize {
        self.mem_heavy_tiles() * self.mem_heavy.capacity_bytes
    }

    /// Scratchpad capacity of one column's MemHeavy tiles, bytes.
    pub const fn col_mem_capacity(&self) -> usize {
        self.mem_heavy_tiles_per_col() * self.mem_heavy.capacity_bytes
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] when any dimension is zero
    /// or a tile config is invalid.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(crate::Error::InvalidConfig {
                component: "chip",
                detail: format!("grid {}x{} must be non-zero", self.rows, self.cols),
            });
        }
        self.comp_heavy.validate()?;
        self.mem_heavy.validate()?;
        let finite_positive = |bw: f64| bw > 0.0 && bw.is_finite();
        if !finite_positive(self.ext_mem_bw)
            || !finite_positive(self.comp_mem_bw)
            || !finite_positive(self.mem_mem_bw)
        {
            return Err(crate::Error::InvalidConfig {
                component: "chip",
                detail: "bandwidths must be finite and positive".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn conv_chip_tile_counts_match_figure14() {
        let chip = presets::single_precision().cluster.conv_chip;
        assert_eq!(chip.comp_heavy_tiles(), 288);
        assert_eq!(chip.mem_heavy_tiles(), 102);
    }

    #[test]
    fn fc_chip_tile_counts_match_figure14() {
        let chip = presets::single_precision().cluster.fc_chip;
        assert_eq!(chip.comp_heavy_tiles(), 144);
        assert_eq!(chip.mem_heavy_tiles(), 54);
    }

    #[test]
    fn conv_chip_peak_is_40_7_tflops() {
        let node = presets::single_precision();
        let t = node.cluster.conv_chip.peak_flops(node.frequency_hz()) / 1e12;
        assert!((t - 40.7).abs() < 0.2, "got {t}");
    }

    #[test]
    fn fc_chip_peak_is_6_6_tflops() {
        let node = presets::single_precision();
        let t = node.cluster.fc_chip.peak_flops(node.frequency_hz()) / 1e12;
        assert!((t - 6.6).abs() < 0.1, "got {t}");
    }

    #[test]
    fn conv_chip_has_27648_2d_pes() {
        // Figure 19's chip footer: 27648 2D-PEs.
        let chip = presets::single_precision().cluster.conv_chip;
        assert_eq!(chip.total_2d_pes(), 27648);
    }

    #[test]
    fn conv_chip_state_capacity_is_51mb() {
        let chip = presets::single_precision().cluster.conv_chip;
        assert_eq!(chip.total_mem_capacity(), 102 * 512 * 1024);
    }
}
