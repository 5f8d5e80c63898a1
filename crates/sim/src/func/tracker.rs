//! Hardware data-flow trackers (paper §3.2.4, Eq. 1).
//!
//! A tracker watches an address range and enforces that its access
//! sequence follows the compiler-specified pattern: `num_updates` writes
//! make the range readable; `num_reads` reads make it overwritable again
//! (the next *generation* of the producer–consumer hand-off).

use crate::error::{Error, Result};

/// One armed tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tracker {
    /// Tracked range start (elements).
    pub addr: u32,
    /// Tracked range length (elements).
    pub len: u32,
    /// Writes required before the range is readable.
    pub num_updates: u16,
    /// Reads required before the range may be overwritten (next
    /// generation).
    pub num_reads: u16,
    updates_seen: u32,
    reads_seen: u32,
}

impl Tracker {
    /// Arms a tracker over `[addr, addr + len)`.
    pub fn new(addr: u32, len: u32, num_updates: u16, num_reads: u16) -> Self {
        Self {
            addr,
            len,
            num_updates,
            num_reads,
            updates_seen: 0,
            reads_seen: 0,
        }
    }

    fn overlaps(&self, addr: u32, len: u32) -> bool {
        addr < self.addr + self.len && self.addr < addr + len
    }

    /// True when the range has received all its updates.
    pub fn complete(&self) -> bool {
        self.updates_seen >= u32::from(self.num_updates)
    }

    /// True when a read of the range may proceed: the current generation's
    /// updates are in, and its read quota is not yet exhausted — once a
    /// generation is fully drained, further reads belong to the *next*
    /// generation and block until its updates land. A read quota of 0
    /// marks a host-consumed range with unrestricted reads.
    pub fn read_ready(&self) -> bool {
        self.complete() && (self.num_reads == 0 || self.reads_seen < u32::from(self.num_reads))
    }

    /// True when a write may proceed: either the current generation is
    /// still filling, or it has been fully read and the write starts the
    /// next generation.
    pub fn write_ready(&self) -> bool {
        !self.complete() || self.reads_seen >= u32::from(self.num_reads)
    }

    fn record_read(&mut self) {
        self.reads_seen += 1;
    }

    fn record_write(&mut self) {
        if self.complete() && self.reads_seen >= u32::from(self.num_reads) {
            // Generation wrap: this write opens the next hand-off.
            self.updates_seen = 1;
            self.reads_seen = 0;
        } else {
            self.updates_seen += 1;
        }
    }

    /// Resets counters (host re-arm between images).
    pub fn reset(&mut self) {
        self.updates_seen = 0;
        self.reads_seen = 0;
    }

    /// Observed (updates, reads).
    pub fn counters(&self) -> (u32, u32) {
        (self.updates_seen, self.reads_seen)
    }
}

/// All trackers of one chip, bucketed per MemHeavy tile.
///
/// ```
/// use scaledeep_sim::func::TrackerTable;
///
/// # fn main() -> Result<(), scaledeep_sim::Error> {
/// let mut t = TrackerTable::new(1);
/// t.arm(0, 0, 64, 2, 1)?; // 2 updates make [0,64) readable
/// assert!(!t.read_ready(0, 0, 64));
/// t.record_write(0, 0, 32);
/// t.record_write(0, 32, 32);
/// assert!(t.read_ready(0, 0, 64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrackerTable {
    per_tile: Vec<Vec<Tracker>>,
}

impl TrackerTable {
    /// An empty table for `tiles` MemHeavy tiles.
    pub fn new(tiles: usize) -> Self {
        Self {
            per_tile: vec![Vec::new(); tiles],
        }
    }

    /// Clears all trackers.
    pub fn clear(&mut self) {
        for t in &mut self.per_tile {
            t.clear();
        }
    }

    /// Arms a tracker. Re-arming with an *identical* specification is an
    /// idempotent no-op: programs re-execute their MEMTRACK preambles after
    /// the host pre-armed the same specs at load, possibly after traffic
    /// has already started flowing on other tiles' threads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TrackerConflict`] when the new range overlaps or
    /// re-specifies an existing tracker with different parameters.
    pub fn arm(&mut self, tile: u16, addr: u32, len: u32, updates: u16, reads: u16) -> Result<()> {
        let slot = self
            .per_tile
            .get_mut(tile as usize)
            .ok_or(Error::TrackerConflict { tile, addr })?;
        for t in slot.iter() {
            if t.addr == addr && t.len == len {
                let identical = t.num_updates == updates && t.num_reads == reads;
                if identical {
                    return Ok(());
                }
                return Err(Error::TrackerConflict { tile, addr });
            }
            if t.overlaps(addr, len) {
                return Err(Error::TrackerConflict { tile, addr });
            }
        }
        slot.push(Tracker::new(addr, len, updates, reads));
        Ok(())
    }

    fn overlapping(&self, tile: u16, addr: u32, len: u32) -> impl Iterator<Item = &Tracker> {
        self.per_tile
            .get(tile as usize)
            .into_iter()
            .flatten()
            .filter(move |t| t.overlaps(addr, len))
    }

    /// True when a read of the range may proceed.
    pub fn read_ready(&self, tile: u16, addr: u32, len: u32) -> bool {
        self.overlapping(tile, addr, len).all(Tracker::read_ready)
    }

    /// True when a write of the range may proceed.
    pub fn write_ready(&self, tile: u16, addr: u32, len: u32) -> bool {
        self.overlapping(tile, addr, len).all(Tracker::write_ready)
    }

    /// Records a completed read on every overlapping tracker, returning
    /// the `(addr, len)` extent of each tracker touched. A tracker's
    /// extent can exceed the access range, and readiness is a property of
    /// the whole tracker — wakeups must cover the full extents, not just
    /// the accessed range.
    pub fn record_read(&mut self, tile: u16, addr: u32, len: u32) -> Vec<(u32, u32)> {
        let mut touched = Vec::new();
        if let Some(slot) = self.per_tile.get_mut(tile as usize) {
            for t in slot.iter_mut().filter(|t| t.overlaps(addr, len)) {
                t.record_read();
                touched.push((t.addr, t.len));
            }
        }
        touched
    }

    /// The satisfaction watermark of the tracker nearest to
    /// `[addr, addr + len)` on `tile`, formatted as
    /// `"updates U/N, reads R/M"` — an overlapping tracker if one exists,
    /// otherwise the tracker whose start is closest to `addr`. `None`
    /// when the tile holds no trackers (or does not exist). Deadlock and
    /// watchdog diagnostics attach this to each stuck thread so the
    /// report shows *how far* the hand-off got, not just where it stalled.
    pub fn nearest_watermark(&self, tile: u16, addr: u32, len: u32) -> Option<String> {
        let slot = self.per_tile.get(tile as usize)?;
        let t = slot
            .iter()
            .find(|t| t.overlaps(addr, len))
            .or_else(|| slot.iter().min_by_key(|t| t.addr.abs_diff(addr)))?;
        let (u, r) = t.counters();
        Some(format!(
            "updates {u}/{}, reads {r}/{}",
            t.num_updates, t.num_reads
        ))
    }

    /// Records a completed write on every overlapping tracker, returning
    /// the `(addr, len)` extent of each tracker touched (see
    /// [`TrackerTable::record_read`]).
    pub fn record_write(&mut self, tile: u16, addr: u32, len: u32) -> Vec<(u32, u32)> {
        let mut touched = Vec::new();
        if let Some(slot) = self.per_tile.get_mut(tile as usize) {
            for t in slot.iter_mut().filter(|t| t.overlaps(addr, len)) {
                t.record_write();
                touched.push((t.addr, t.len));
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_block_until_updates_complete() {
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 16, 2, 1).unwrap();
        assert!(!tab.read_ready(0, 0, 8));
        tab.record_write(0, 0, 8);
        assert!(!tab.read_ready(0, 4, 4));
        tab.record_write(0, 8, 8);
        assert!(tab.read_ready(0, 0, 16));
    }

    #[test]
    fn untracked_ranges_are_always_ready() {
        let tab = TrackerTable::new(2);
        assert!(tab.read_ready(0, 100, 10));
        assert!(tab.write_ready(1, 0, 1));
    }

    #[test]
    fn writes_block_after_completion_until_reads_drain() {
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 4, 1, 2).unwrap();
        assert!(tab.write_ready(0, 0, 4)); // still filling
        tab.record_write(0, 0, 4);
        assert!(!tab.write_ready(0, 0, 4)); // complete, unread
        tab.record_read(0, 0, 4);
        assert!(!tab.write_ready(0, 0, 4)); // 1 of 2 reads
        tab.record_read(0, 0, 4);
        assert!(tab.write_ready(0, 0, 4)); // next generation may start
    }

    #[test]
    fn generation_wrap_resets_counters() {
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 4, 1, 1).unwrap();
        tab.record_write(0, 0, 4);
        tab.record_read(0, 0, 4);
        tab.record_write(0, 0, 4); // generation 2 starts
        assert!(tab.read_ready(0, 0, 4)); // 1 update needed, 1 seen
        assert!(!tab.write_ready(0, 0, 4)); // complete, unread again
    }

    #[test]
    fn conflicting_rearm_is_detected() {
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 16, 2, 1).unwrap();
        // Identical re-arm with zero counters: ok.
        tab.arm(0, 0, 16, 2, 1).unwrap();
        // Different spec: conflict.
        assert!(tab.arm(0, 0, 16, 3, 1).is_err());
        // Overlapping range: conflict.
        assert!(tab.arm(0, 8, 16, 1, 1).is_err());
        // Disjoint range: fine.
        tab.arm(0, 16, 16, 1, 1).unwrap();
    }

    #[test]
    fn identical_rearm_after_traffic_is_idempotent() {
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 4, 2, 1).unwrap();
        tab.record_write(0, 0, 4);
        // The MEMTRACK preamble may execute after other threads started
        // filling the range; an identical spec never resets the counters.
        tab.arm(0, 0, 4, 2, 1).unwrap();
        tab.record_write(0, 0, 4);
        assert!(tab.read_ready(0, 0, 4));
        // A *different* spec is still a conflict.
        assert!(tab.arm(0, 0, 4, 3, 1).is_err());
    }

    #[test]
    fn zero_update_trackers_are_immediately_readable() {
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 8, 0, 3).unwrap();
        assert!(tab.read_ready(0, 0, 8));
    }

    #[test]
    fn drained_generations_block_further_reads() {
        // After the read quota is consumed, a new read belongs to the next
        // generation and must wait for its updates.
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 4, 1, 2).unwrap();
        tab.record_write(0, 0, 4);
        assert!(tab.read_ready(0, 0, 4));
        tab.record_read(0, 0, 4);
        tab.record_read(0, 0, 4);
        assert!(
            !tab.read_ready(0, 0, 4),
            "drained generation must block reads"
        );
        tab.record_write(0, 0, 4); // next generation
        assert!(tab.read_ready(0, 0, 4));
    }

    #[test]
    fn nearest_watermark_reports_progress() {
        let mut tab = TrackerTable::new(2);
        tab.arm(0, 0, 16, 4, 1).unwrap();
        tab.record_write(0, 0, 8);
        tab.record_write(0, 8, 8);
        // Overlapping query sees the live counters.
        assert_eq!(
            tab.nearest_watermark(0, 4, 4).as_deref(),
            Some("updates 2/4, reads 0/1")
        );
        // Non-overlapping query falls back to the closest tracker.
        assert_eq!(
            tab.nearest_watermark(0, 100, 4).as_deref(),
            Some("updates 2/4, reads 0/1")
        );
        // Tile without trackers: nothing to report.
        assert_eq!(tab.nearest_watermark(1, 0, 4), None);
        assert_eq!(tab.nearest_watermark(9, 0, 4), None);
    }

    #[test]
    fn zero_read_quota_means_unrestricted_host_reads() {
        let mut tab = TrackerTable::new(1);
        tab.arm(0, 0, 4, 1, 0).unwrap();
        tab.record_write(0, 0, 4);
        for _ in 0..5 {
            assert!(tab.read_ready(0, 0, 4));
            tab.record_read(0, 0, 4);
        }
    }
}
