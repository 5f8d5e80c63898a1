//! Deterministic fault injection (the "what-if" layer of the simulator
//! stack).
//!
//! A [`FaultPlan`] describes, up front and reproducibly, every fault a
//! simulation run should experience:
//!
//! * **transient link errors** — a grid/wheel/ring transfer fails its CRC
//!   and is retried with exponential back-off ([`LinkFaults`], consumed by
//!   the performance pipeline);
//! * **permanent tile failures** — at a scheduled cycle a MemHeavy tile
//!   (and its CompHeavy partner) stops responding; any later access faults
//!   the run so the host can remap around the dead tile;
//! * **dropped tracker wakeups** — a MEMTRACK update's wake signal is
//!   lost, stranding parked threads (the silent-hang hazard the watchdog
//!   exists for);
//! * **scratchpad bit-flips** — a single bit of one stored f32 flips at a
//!   scheduled cycle.
//!
//! Determinism is load-bearing: the same plan against the same programs
//! produces the same fault sequence, cycle counts and memory image, so a
//! degradation curve is replayable. An **empty plan is guaranteed to be
//! behavior-preserving** — both simulators take the exact same code path
//! and produce bit-identical results to their fault-free entry points
//! (property-tested in `tests/fault_injection.rs`).

use crate::engine::Cycle;
use scaledeep_trace::splitmix64;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation cycle at which the fault strikes (applied before the
    /// first dispatch at or after this cycle).
    pub at: Cycle,
    /// What breaks.
    pub kind: FaultKind,
}

/// The fault taxonomy covered by the functional machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A MemHeavy tile dies permanently: every subsequent instruction
    /// touching its scratchpad faults with
    /// [`Error::TileFailed`](crate::Error::TileFailed).
    TileFailure {
        /// The dead tile.
        tile: u16,
    },
    /// One bit of the f32 stored at `M<tile>:<addr>` flips.
    BitFlip {
        /// Scratchpad tile.
        tile: u16,
        /// Element address within the tile.
        addr: u32,
        /// Bit index (0..32; out-of-range masks to `bit % 32`).
        bit: u8,
    },
    /// The next tracker wakeup touching `tile` is silently lost: threads
    /// parked on its ranges are not re-dispatched. Without a watchdog the
    /// run ends in a deadlock report; with one, in
    /// [`Error::Watchdog`](crate::Error::Watchdog).
    DroppedWakeup {
        /// Tile whose next wake broadcast is dropped.
        tile: u16,
    },
}

/// Transient-fault model for link transfers (grid stage hand-offs, wheel
/// arcs, the ring), with bounded retry and exponential back-off.
///
/// Each transfer independently fails with probability `prob` per attempt;
/// attempt `i` (0-based) that fails costs `base_backoff << i` extra cycles
/// before the retry. Draws are counter-based (hashed from the plan seed
/// and the transfer's identity), so the fault pattern is independent of
/// event-queue ordering and identical across replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Per-attempt transient-failure probability in `[0, 1]`.
    pub prob: f64,
    /// Back-off of the first retry, in cycles (doubles per retry).
    pub base_backoff: Cycle,
    /// Retry budget per transfer; a transfer failing more often than this
    /// is charged the full back-off ladder and then forced through (the
    /// link-layer escalates to a stronger code rather than dropping data).
    pub max_retries: u32,
}

impl LinkFaults {
    /// Number of retries transfer `salt` suffers under `seed`: repeated
    /// per-attempt Bernoulli draws, capped at `max_retries`.
    pub fn retries(&self, seed: u64, salt: u64) -> u32 {
        if self.prob <= 0.0 {
            return 0;
        }
        let mut retries = 0;
        while retries < self.max_retries {
            let draw = splitmix64(seed ^ salt.rotate_left(17), u64::from(retries));
            // Top 53 bits -> uniform [0, 1).
            let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
            if u >= self.prob {
                break;
            }
            retries += 1;
        }
        retries
    }

    /// Total extra latency of `retries` exponentially backed-off retries:
    /// `base + 2*base + ... = base * (2^retries - 1)`, saturating.
    pub fn backoff_cycles(&self, retries: u32) -> Cycle {
        if retries == 0 {
            return 0;
        }
        let ladder = 1u64
            .checked_shl(retries)
            .map_or(u64::MAX, |p| p.saturating_sub(1));
        self.base_backoff.saturating_mul(ladder)
    }
}

/// A complete, seeded fault schedule for one simulation run.
///
/// ```
/// use scaledeep_sim::fault::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::seeded(42)
///     .with_watchdog(1_000_000)
///     .with_fault(200, FaultKind::BitFlip { tile: 0, addr: 16, bit: 23 })
///     .with_fault(500, FaultKind::TileFailure { tile: 3 });
/// assert_eq!(plan.events().len(), 2);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    link: Option<LinkFaults>,
    watchdog: Option<Cycle>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, guarantees bit-identical behavior
    /// to the fault-free entry points.
    pub fn none() -> Self {
        Self::seeded(0)
    }

    /// An empty plan carrying `seed` for the stochastic models
    /// ([`LinkFaults`] draws).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
            link: None,
            watchdog: None,
        }
    }

    /// Adds one scheduled fault (kept sorted by cycle; ties keep insertion
    /// order).
    #[must_use]
    pub fn with_fault(mut self, at: Cycle, kind: FaultKind) -> Self {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
        self
    }

    /// Enables the transient link-error model.
    #[must_use]
    pub fn with_link_faults(mut self, link: LinkFaults) -> Self {
        self.link = Some(link);
        self
    }

    /// Arms the watchdog fuse: a run still active past `max_cycles`
    /// terminates with [`Error::Watchdog`](crate::Error::Watchdog) and
    /// per-thread parked-range diagnostics instead of hanging.
    #[must_use]
    pub fn with_watchdog(mut self, max_cycles: Cycle) -> Self {
        self.watchdog = Some(max_cycles);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduled fault events, sorted by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The transient link-error model, if enabled.
    pub fn link_faults(&self) -> Option<&LinkFaults> {
        self.link.as_ref()
    }

    /// The watchdog budget, if armed.
    pub fn watchdog(&self) -> Option<Cycle> {
        self.watchdog
    }

    /// True when the plan injects nothing and arms no watchdog: the
    /// behavior-preserving identity plan.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.link.is_none() && self.watchdog.is_none()
    }

    /// A copy with every [`FaultKind::TileFailure`] removed — the plan to
    /// re-run a faulted iteration under after the host remapped around the
    /// dead tiles (re-injecting a failure for a tile nothing maps to
    /// would be meaningless).
    #[must_use]
    pub fn without_tile_failures(&self) -> Self {
        let mut plan = self.clone();
        plan.events
            .retain(|e| !matches!(e.kind, FaultKind::TileFailure { .. }));
        plan
    }

    /// Tiles condemned by this plan's permanent failures, in schedule
    /// order.
    pub fn condemned_tiles(&self) -> Vec<u16> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::TileFailure { tile } => Some(tile),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::seeded(7).is_empty());
        assert!(!FaultPlan::none().with_watchdog(10).is_empty());
    }

    #[test]
    fn events_stay_sorted_by_cycle() {
        let plan = FaultPlan::seeded(1)
            .with_fault(50, FaultKind::TileFailure { tile: 1 })
            .with_fault(
                10,
                FaultKind::BitFlip {
                    tile: 0,
                    addr: 0,
                    bit: 0,
                },
            )
            .with_fault(50, FaultKind::DroppedWakeup { tile: 2 });
        let cycles: Vec<Cycle> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(cycles, vec![10, 50, 50]);
        // Tie keeps insertion order.
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::TileFailure { tile: 1 },
            "first-inserted tie comes first"
        );
    }

    #[test]
    fn link_retries_are_deterministic_and_seed_sensitive() {
        let f = LinkFaults {
            prob: 0.5,
            base_backoff: 10,
            max_retries: 8,
        };
        let a: Vec<u32> = (0..64).map(|s| f.retries(1, s)).collect();
        let b: Vec<u32> = (0..64).map(|s| f.retries(1, s)).collect();
        assert_eq!(a, b, "same seed, same draws");
        let c: Vec<u32> = (0..64).map(|s| f.retries(2, s)).collect();
        assert_ne!(a, c, "different seed, different pattern");
        assert!(a.iter().any(|&r| r > 0), "p=0.5 must fault sometimes");
        assert!(a.contains(&0), "p=0.5 must also succeed");
    }

    #[test]
    fn certain_faults_exhaust_the_retry_budget() {
        let f = LinkFaults {
            prob: 1.0,
            base_backoff: 4,
            max_retries: 5,
        };
        assert_eq!(f.retries(9, 0), 5);
        // 4 + 8 + 16 + 32 + 64 = 4 * (2^5 - 1).
        assert_eq!(f.backoff_cycles(5), 4 * 31);
    }

    #[test]
    fn zero_probability_never_faults() {
        let f = LinkFaults {
            prob: 0.0,
            base_backoff: 100,
            max_retries: 8,
        };
        assert!((0..1000).all(|s| f.retries(3, s) == 0));
        assert_eq!(f.backoff_cycles(0), 0);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let f = LinkFaults {
            prob: 1.0,
            base_backoff: u64::MAX / 2,
            max_retries: 64,
        };
        assert_eq!(f.backoff_cycles(64), u64::MAX);
    }

    #[test]
    fn without_tile_failures_strips_only_tile_failures() {
        let plan = FaultPlan::seeded(1)
            .with_fault(1, FaultKind::TileFailure { tile: 0 })
            .with_fault(
                2,
                FaultKind::BitFlip {
                    tile: 0,
                    addr: 0,
                    bit: 1,
                },
            )
            .with_watchdog(99);
        assert_eq!(plan.condemned_tiles(), vec![0]);
        let stripped = plan.without_tile_failures();
        assert_eq!(stripped.events().len(), 1);
        assert!(stripped.condemned_tiles().is_empty());
        assert_eq!(stripped.watchdog(), Some(99));
    }
}
