//! Calibrated power model (paper §5 and Figure 14).
//!
//! The paper measured per-component power by synthesizing the tile RTL to
//! Intel's 14 nm node and folded the numbers into its simulator. We cannot
//! synthesize RTL, so — per the substitution documented in DESIGN.md — the
//! *published* per-component peak powers and their (logic, memory,
//! interconnect) fractions are the model constants here, and average power
//! is integrated against simulated activity exactly as the paper describes
//! in §6.2: compute and interconnect power scale with the respective
//! utilizations while memory power (leakage-dominated) stays constant.

use std::fmt;

/// Peak power of one component and its split across subsystems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentPower {
    /// Peak power in watts.
    pub peak_watts: f64,
    /// Fraction attributed to compute logic.
    pub frac_logic: f64,
    /// Fraction attributed to memories.
    pub frac_mem: f64,
    /// Fraction attributed to interconnect.
    pub frac_interconnect: f64,
}

impl ComponentPower {
    /// Creates a component power entry.
    ///
    /// # Panics
    ///
    /// Panics when the fractions do not sum to ~1.
    pub fn new(peak_watts: f64, frac_logic: f64, frac_mem: f64, frac_interconnect: f64) -> Self {
        let sum = frac_logic + frac_mem + frac_interconnect;
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "power fractions must sum to 1, got {sum}"
        );
        Self {
            peak_watts,
            frac_logic,
            frac_mem,
            frac_interconnect,
        }
    }
}

/// Activity observed during simulation, used to scale peak power down to
/// average power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationProfile {
    /// Fraction of peak compute activity (2D-PE + SFU busy fraction).
    pub compute: f64,
    /// Fraction of peak interconnect activity (mean link utilization).
    pub interconnect: f64,
}

impl UtilizationProfile {
    /// A fully-busy profile (peak power).
    pub const PEAK: UtilizationProfile = UtilizationProfile {
        compute: 1.0,
        interconnect: 1.0,
    };
}

/// Average power split by subsystem (the stacked bars of Figure 20).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Compute-logic watts.
    pub compute_watts: f64,
    /// Memory watts (leakage-dominated; constant with activity).
    pub memory_watts: f64,
    /// Interconnect watts.
    pub interconnect_watts: f64,
}

impl PowerBreakdown {
    /// Total watts.
    pub fn total(&self) -> f64 {
        self.compute_watts + self.memory_watts + self.interconnect_watts
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} W (compute {:.1}, memory {:.1}, interconnect {:.1})",
            self.total(),
            self.compute_watts,
            self.memory_watts,
            self.interconnect_watts
        )
    }
}

/// Energy split by subsystem over a measured interval — the time
/// integral of [`PowerBreakdown`] against an observed utilization
/// profile, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Compute-logic joules.
    pub compute_joules: f64,
    /// Memory joules (leakage-dominated; accrues even when idle).
    pub memory_joules: f64,
    /// Interconnect joules.
    pub interconnect_joules: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub fn total(&self) -> f64 {
        self.compute_joules + self.memory_joules + self.interconnect_joules
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} J (compute {:.3}, memory {:.3}, interconnect {:.3})",
            self.total(),
            self.compute_joules,
            self.memory_joules,
            self.interconnect_joules
        )
    }
}

/// The full component power table of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// The whole node.
    pub node: ComponentPower,
    /// One chip cluster.
    pub cluster: ComponentPower,
    /// One ConvLayer chip.
    pub conv_chip: ComponentPower,
    /// One FcLayer chip.
    pub fc_chip: ComponentPower,
    /// One ConvLayer-chip CompHeavy tile.
    pub conv_comp_tile: ComponentPower,
    /// One ConvLayer-chip MemHeavy tile.
    pub conv_mem_tile: ComponentPower,
    /// One FcLayer-chip CompHeavy tile.
    pub fc_comp_tile: ComponentPower,
    /// One FcLayer-chip MemHeavy tile.
    pub fc_mem_tile: ComponentPower,
}

impl PowerModel {
    /// The single-precision design's published power table (Figure 14).
    pub fn paper_sp() -> Self {
        Self {
            node: ComponentPower::new(1400.0, 0.5, 0.1, 0.4),
            cluster: ComponentPower::new(325.6, 0.55, 0.1, 0.35),
            conv_chip: ComponentPower::new(57.8, 0.7, 0.1, 0.2),
            fc_chip: ComponentPower::new(15.2, 0.45, 0.25, 0.3),
            conv_comp_tile: ComponentPower::new(0.1438, 0.95, 0.05, 0.0),
            conv_mem_tile: ComponentPower::new(0.047, 0.3, 0.7, 0.0),
            fc_comp_tile: ComponentPower::new(0.0459, 0.95, 0.05, 0.0),
            fc_mem_tile: ComponentPower::new(0.0786, 0.2, 0.8, 0.0),
        }
    }

    /// The half-precision design point: per-tile power halves (FP16 units)
    /// while tile counts double (8×24 / 8×12 grids), keeping chip, cluster
    /// and node power approximately at the single-precision values —
    /// the paper's "roughly the same power" iso-power scaling (§6.1).
    pub fn paper_hp() -> Self {
        let sp = Self::paper_sp();
        let halve = |c: ComponentPower| ComponentPower {
            peak_watts: c.peak_watts / 2.0,
            ..c
        };
        Self {
            conv_comp_tile: halve(sp.conv_comp_tile),
            conv_mem_tile: halve(sp.conv_mem_tile),
            fc_comp_tile: halve(sp.fc_comp_tile),
            fc_mem_tile: halve(sp.fc_mem_tile),
            ..sp
        }
    }

    /// Average node power for an observed utilization profile: compute and
    /// interconnect scale with activity; memory power is constant
    /// (Figure 20's model).
    pub fn average_node_power(&self, util: UtilizationProfile) -> PowerBreakdown {
        let p = self.node;
        PowerBreakdown {
            compute_watts: p.peak_watts * p.frac_logic * util.compute.clamp(0.0, 1.0),
            memory_watts: p.peak_watts * p.frac_mem,
            interconnect_watts: p.peak_watts
                * p.frac_interconnect
                * util.interconnect.clamp(0.0, 1.0),
        }
    }

    /// Processing efficiency in FLOPs/W for an achieved FLOP rate and
    /// utilization profile, at node scope.
    pub fn node_efficiency(&self, achieved_flops_per_s: f64, util: UtilizationProfile) -> f64 {
        achieved_flops_per_s / self.average_node_power(util).total()
    }

    /// Node energy over a `seconds`-long interval at a *measured*
    /// utilization profile: average power integrated over time, split by
    /// subsystem. This is the measured counterpart to the assumed-profile
    /// power figures — the attribution layer feeds it the utilizations the
    /// simulator actually observed.
    pub fn node_energy(&self, util: UtilizationProfile, seconds: f64) -> EnergyBreakdown {
        let seconds = seconds.max(0.0);
        let p = self.average_node_power(util);
        EnergyBreakdown {
            compute_joules: p.compute_watts * seconds,
            memory_joules: p.memory_watts * seconds,
            interconnect_joules: p.interconnect_watts * seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn peak_efficiency_matches_figure14() {
        let node = presets::single_precision();
        let pm = PowerModel::paper_sp();
        let eff = pm.node_efficiency(node.peak_flops(), UtilizationProfile::PEAK) / 1e9;
        // Figure 14: 485.7 GFLOPs/W peak.
        assert!((eff - 485.0).abs() < 5.0, "got {eff}");
    }

    #[test]
    fn tile_efficiencies_match_figure14() {
        let node = presets::single_precision();
        let pm = PowerModel::paper_sp();
        let f = node.frequency_hz();
        let conv_tile = node.cluster.conv_chip.comp_heavy.flops_per_cycle() as f64 * f
            / pm.conv_comp_tile.peak_watts
            / 1e9;
        assert!(
            (conv_tile - 934.6).abs() < 5.0,
            "conv CompHeavy {conv_tile}"
        );
        let fc_tile = node.cluster.fc_chip.comp_heavy.flops_per_cycle() as f64 * f
            / pm.fc_comp_tile.peak_watts
            / 1e9;
        assert!((fc_tile - 836.6).abs() < 5.0, "fc CompHeavy {fc_tile}");
        let mem_tile = node.cluster.conv_chip.mem_heavy.flops_per_cycle() as f64 * f
            / pm.conv_mem_tile.peak_watts
            / 1e9;
        assert!((mem_tile - 408.5).abs() < 3.0, "conv MemHeavy {mem_tile}");
    }

    #[test]
    fn memory_power_is_constant_with_activity() {
        let pm = PowerModel::paper_sp();
        let idle = pm.average_node_power(UtilizationProfile {
            compute: 0.0,
            interconnect: 0.0,
        });
        let busy = pm.average_node_power(UtilizationProfile::PEAK);
        assert_eq!(idle.memory_watts, busy.memory_watts);
        assert!(idle.total() < busy.total());
        assert_eq!(idle.compute_watts, 0.0);
    }

    #[test]
    fn average_power_at_typical_utilization_is_under_half_peak() {
        // Paper §6.2: ~0.35 compute utilization yields ~331.7 GFLOPs/W.
        let pm = PowerModel::paper_sp();
        let p = pm.average_node_power(UtilizationProfile {
            compute: 0.35,
            interconnect: 0.5,
        });
        assert!(p.total() < 700.0 && p.total() > 400.0, "got {}", p.total());
    }

    #[test]
    #[should_panic(expected = "fractions must sum to 1")]
    fn bad_fractions_panic() {
        let _ = ComponentPower::new(1.0, 0.5, 0.1, 0.1);
    }

    #[test]
    fn energy_integrates_power_over_time() {
        let pm = PowerModel::paper_sp();
        let util = UtilizationProfile {
            compute: 0.35,
            interconnect: 0.5,
        };
        let p = pm.average_node_power(util);
        let e = pm.node_energy(util, 2.0);
        assert!((e.compute_joules - 2.0 * p.compute_watts).abs() < 1e-9);
        assert!((e.memory_joules - 2.0 * p.memory_watts).abs() < 1e-9);
        assert!((e.interconnect_joules - 2.0 * p.interconnect_watts).abs() < 1e-9);
        assert!((e.total() - 2.0 * p.total()).abs() < 1e-9);
    }

    #[test]
    fn idle_energy_is_memory_leakage_only() {
        let pm = PowerModel::paper_sp();
        let idle = UtilizationProfile {
            compute: 0.0,
            interconnect: 0.0,
        };
        let e = pm.node_energy(idle, 1.0);
        assert_eq!(e.compute_joules, 0.0);
        assert_eq!(e.interconnect_joules, 0.0);
        assert!(e.memory_joules > 0.0);
        // Negative durations clamp to zero rather than producing
        // negative joules.
        assert_eq!(pm.node_energy(idle, -1.0).total(), 0.0);
    }

    #[test]
    fn node_energy_at_boundary_utilizations() {
        let pm = PowerModel::paper_sp();
        let idle = UtilizationProfile {
            compute: 0.0,
            interconnect: 0.0,
        };
        let peak = UtilizationProfile::PEAK;

        // At zero utilization only memory leakage accrues; at peak the
        // energy equals peak power × time exactly.
        let e0 = pm.node_energy(idle, 3.0);
        assert_eq!(e0.compute_joules, 0.0);
        assert_eq!(e0.interconnect_joules, 0.0);
        assert_eq!(
            e0.memory_joules,
            pm.node.peak_watts * pm.node.frac_mem * 3.0
        );

        let e1 = pm.node_energy(peak, 3.0);
        assert!((e1.total() - pm.node.peak_watts * 3.0).abs() < 1e-9);

        // Zero-length intervals cost nothing at any utilization.
        assert_eq!(pm.node_energy(peak, 0.0).total(), 0.0);

        // Out-of-range profiles clamp to [0, 1] rather than extrapolating.
        let over = UtilizationProfile {
            compute: 2.0,
            interconnect: -1.0,
        };
        let eo = pm.node_energy(over, 3.0);
        assert_eq!(eo.compute_joules, e1.compute_joules);
        assert_eq!(eo.interconnect_joules, 0.0);
    }

    #[test]
    fn node_efficiency_at_boundary_utilizations() {
        let node = presets::single_precision();
        let pm = PowerModel::paper_sp();
        let idle = UtilizationProfile {
            compute: 0.0,
            interconnect: 0.0,
        };

        // Peak profile reproduces Figure 14's published efficiency; an
        // idle profile divides by leakage only (so the same achieved rate
        // looks *more* efficient — power fell, FLOPs stayed).
        let at_peak = pm.node_efficiency(node.peak_flops(), UtilizationProfile::PEAK);
        let at_idle = pm.node_efficiency(node.peak_flops(), idle);
        assert!(at_idle > at_peak);
        assert_eq!(
            at_idle,
            node.peak_flops() / (pm.node.peak_watts * pm.node.frac_mem)
        );

        // Zero achieved FLOPs is zero efficiency, not NaN: memory leakage
        // keeps the denominator positive at every profile.
        assert_eq!(pm.node_efficiency(0.0, idle), 0.0);
        assert_eq!(pm.node_efficiency(0.0, UtilizationProfile::PEAK), 0.0);
    }

    #[test]
    fn node_energy_tracks_the_measured_profile_path() {
        // The attribution layer feeds node_energy the profile the
        // simulator measured; energy must scale linearly in each axis of
        // that profile independently.
        let pm = PowerModel::paper_sp();
        let lo = UtilizationProfile {
            compute: 0.2,
            interconnect: 0.4,
        };
        let hi = UtilizationProfile {
            compute: 0.4,
            interconnect: 0.8,
        };
        let e_lo = pm.node_energy(lo, 1.0);
        let e_hi = pm.node_energy(hi, 1.0);
        assert!((e_hi.compute_joules - 2.0 * e_lo.compute_joules).abs() < 1e-9);
        assert!((e_hi.interconnect_joules - 2.0 * e_lo.interconnect_joules).abs() < 1e-9);
        assert_eq!(e_hi.memory_joules, e_lo.memory_joules);
        // And efficiency is consistent with energy: FLOPs/W at the
        // measured profile equals FLOPs·s / J over the same interval.
        let rate = 1e15;
        let eff = pm.node_efficiency(rate, lo);
        assert!((eff - rate / e_lo.total()).abs() < 1e-3);
    }

    #[test]
    fn hp_model_halves_tile_power_only() {
        let sp = PowerModel::paper_sp();
        let hp = PowerModel::paper_hp();
        assert_eq!(hp.node.peak_watts, sp.node.peak_watts);
        assert_eq!(
            hp.conv_comp_tile.peak_watts,
            sp.conv_comp_tile.peak_watts / 2.0
        );
    }
}
