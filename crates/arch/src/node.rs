//! Node architecture: a ring of chip clusters (paper §3.3.2, Figure 12).

use crate::cluster::ClusterConfig;
use crate::error::Result;
use crate::power::PowerModel;
use std::fmt;

/// Numeric precision of the datapath (paper §6.1 evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// IEEE single precision (FP32).
    #[default]
    Single,
    /// IEEE half precision (FP16).
    Half,
}

impl Precision {
    /// Bytes per element at this precision.
    pub const fn elem_bytes(self) -> u64 {
        match self {
            Precision::Single => 4,
            Precision::Half => 2,
        }
    }

    /// The precision's name (`"single"` / `"half"`), as it is displayed
    /// and serialized.
    pub const fn name(self) -> &'static str {
        match self {
            Precision::Single => "single",
            Precision::Half => "half",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a complete ScaleDeep node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Number of chip clusters on the ring.
    pub clusters: usize,
    /// The (homogeneous) cluster configuration.
    pub cluster: ClusterConfig,
    /// Ring bandwidth between adjacent clusters, bytes/second.
    pub ring_bw: f64,
    /// Operating frequency in MHz (paper: 600).
    pub frequency_mhz: f64,
    /// Datapath precision.
    pub precision: Precision,
}

impl NodeConfig {
    /// Operating frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_mhz * 1e6
    }

    /// Total CompHeavy tiles in the node.
    pub const fn comp_heavy_tiles(&self) -> usize {
        self.clusters * self.cluster.comp_heavy_tiles()
    }

    /// Total MemHeavy tiles in the node.
    pub const fn mem_heavy_tiles(&self) -> usize {
        self.clusters * self.cluster.mem_heavy_tiles()
    }

    /// Total processing tiles (the paper's headline 7032).
    pub const fn total_tiles(&self) -> usize {
        self.comp_heavy_tiles() + self.mem_heavy_tiles()
    }

    /// Peak FLOPs of the node.
    pub fn peak_flops(&self) -> f64 {
        self.clusters as f64 * self.cluster.peak_flops(self.frequency_hz())
    }

    /// The calibrated power model of this node's precision: Figure 14's
    /// single-precision table, or its iso-power FP16 scaling.
    pub fn power_model(&self) -> PowerModel {
        match self.precision {
            Precision::Single => PowerModel::paper_sp(),
            Precision::Half => PowerModel::paper_hp(),
        }
    }

    /// Validates the whole configuration tree.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] on any structural violation.
    pub fn validate(&self) -> Result<()> {
        if self.clusters == 0 {
            return Err(crate::Error::InvalidConfig {
                component: "node",
                detail: "at least one cluster is required".into(),
            });
        }
        if !(self.frequency_mhz > 0.0
            && self.frequency_mhz.is_finite()
            && self.ring_bw > 0.0
            && self.ring_bw.is_finite())
        {
            return Err(crate::Error::InvalidConfig {
                component: "node",
                detail: "frequency and ring bandwidth must be finite and positive".into(),
            });
        }
        self.cluster.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn sp_node_has_7032_tiles() {
        let node = presets::single_precision();
        assert_eq!(node.comp_heavy_tiles(), 5184);
        assert_eq!(node.mem_heavy_tiles(), 1848);
        assert_eq!(node.total_tiles(), 7032);
    }

    #[test]
    fn sp_node_peak_is_680_tflops() {
        let t = presets::single_precision().peak_flops() / 1e12;
        assert!((t - 680.0).abs() < 5.0, "got {t}");
    }

    #[test]
    fn hp_node_peak_is_1_35_pflops() {
        let t = presets::half_precision().peak_flops() / 1e15;
        assert!((t - 1.35).abs() < 0.01, "got {t}");
    }

    #[test]
    fn precision_elem_bytes() {
        assert_eq!(Precision::Single.elem_bytes(), 4);
        assert_eq!(Precision::Half.elem_bytes(), 2);
    }

    #[test]
    fn presets_validate() {
        presets::single_precision().validate().unwrap();
        presets::half_precision().validate().unwrap();
    }

    #[test]
    fn zero_clusters_rejected() {
        let mut node = presets::single_precision();
        node.clusters = 0;
        assert!(node.validate().is_err());
    }

    #[test]
    fn non_finite_scalars_are_rejected() {
        // NaN slips past `<= 0.0` checks (every NaN comparison is false),
        // so the validators test finiteness explicitly.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let mut node = presets::single_precision();
            node.frequency_mhz = bad;
            assert!(node.validate().is_err(), "frequency {bad} accepted");

            let mut node = presets::single_precision();
            node.ring_bw = bad;
            assert!(node.validate().is_err(), "ring_bw {bad} accepted");

            let mut node = presets::single_precision();
            node.cluster.spoke_bw = bad;
            assert!(node.validate().is_err(), "spoke_bw {bad} accepted");

            let mut node = presets::single_precision();
            node.cluster.arc_bw = bad;
            assert!(node.validate().is_err(), "arc_bw {bad} accepted");

            let mut node = presets::single_precision();
            node.cluster.conv_chip.ext_mem_bw = bad;
            assert!(node.validate().is_err(), "ext_mem_bw {bad} accepted");

            let mut node = presets::single_precision();
            node.cluster.fc_chip.comp_mem_bw = bad;
            assert!(node.validate().is_err(), "comp_mem_bw {bad} accepted");
        }
    }
}
