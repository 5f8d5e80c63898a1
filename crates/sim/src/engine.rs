//! Discrete-event simulation core shared by both simulators:
//! a monotonic event queue, a park/wake table for threads blocked on
//! address-range conditions, and a cycle-budget watchdog.
//!
//! The performance model ([`crate::perf`]) uses [`EventQueue`] only for
//! recorded runs, whose trace events must come out in emission order;
//! every other run settles its pipeline replicas an epoch at a time with
//! no queue.
//! The functional simulator ([`crate::func`]) layers [`WaitMap`] on top
//! so that a thread blocked on a MEMTRACK tracker parks exactly once and
//! is re-scheduled only by the tracker update that can satisfy it — no
//! re-polling.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in cycles.
pub type Cycle = u64;

/// A monotonic event queue: events pop in time order; ties pop in push
/// order (deterministic replay).
///
/// Event payloads live in an internal slot arena; slots freed by [`pop`]
/// are recycled by later [`push`] calls, so the arena's footprint is
/// bounded by the peak number of *pending* events, not by the total
/// number ever scheduled.
///
/// [`push`]: EventQueue::push
/// [`pop`]: EventQueue::pop
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Cycle, u64, usize)>>,
    events: Vec<Option<E>>,
    free: Vec<usize>,
    seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event).
    pub fn push(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let idx = match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.events[idx].is_none(), "free slot still occupied");
                self.events[idx] = Some(event);
                idx
            }
            None => {
                let idx = self.events.len();
                self.events.push(Some(event));
                idx
            }
        };
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Schedules `event` `delay` cycles from now, saturating at
    /// [`Cycle::MAX`] — fault back-off retries can ask for far-future
    /// times, and wrap-around would schedule into the past.
    pub fn push_after(&mut self, delay: Cycle, event: E) {
        let at = self.now.saturating_add(delay);
        self.push(at, event);
    }

    /// Pops the next event, advancing time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let Reverse((at, _, idx)) = self.heap.pop()?;
        self.now = at;
        let event = self.events[idx].take().expect("event popped once");
        self.free.push(idx);
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Size of the internal slot arena — the high-water mark of pending
    /// events. Exposed so regression tests can pin the bound.
    pub fn slot_capacity(&self) -> usize {
        self.events.len()
    }
}

/// Identifies a parked entity (for the functional simulator: the thread's
/// index in the machine's program list).
pub type WaiterId = usize;

/// An address-range condition a waiter is parked on: `domain` scopes the
/// address space (for MEMTRACK: the tile id), `addr`/`len` the range.
pub type WaitRange = (u16, u32, u32);

/// Park/wake table keyed by address-range conditions.
///
/// A blocked entity *parks* once on the set of ranges its next step
/// touches. When the state guarding some range changes, the mutator calls
/// [`wake_overlapping`] with the touched range; every waiter with at
/// least one overlapping entry is removed (all its entries at once) and
/// returned for re-scheduling. Waiters are woken in id order, so replay
/// is deterministic regardless of entry insertion order.
///
/// The table does not evaluate readiness itself — a woken waiter
/// re-checks its condition and may park again. What it guarantees is
/// that a parked waiter is *only* revisited when a relevant range was
/// touched, which replaces the round-robin re-polling scheduler.
///
/// [`wake_overlapping`]: WaitMap::wake_overlapping
#[derive(Debug, Default)]
pub struct WaitMap {
    entries: Vec<(WaitRange, WaiterId)>,
}

impl WaitMap {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks `waiter` on every range in `ranges`.
    ///
    /// # Panics
    ///
    /// Panics if `waiter` is already parked — a blocked entity must park
    /// exactly once per wait.
    pub fn park(&mut self, waiter: WaiterId, ranges: impl IntoIterator<Item = WaitRange>) {
        assert!(
            !self.is_parked(waiter),
            "waiter {waiter} parked twice without an intervening wake"
        );
        let before = self.entries.len();
        self.entries
            .extend(ranges.into_iter().map(|range| (range, waiter)));
        assert!(
            self.entries.len() > before,
            "waiter {waiter} parked on no ranges (would sleep forever)"
        );
    }

    /// Removes every waiter with at least one entry overlapping
    /// `[addr, addr + len)` in `domain` and returns them in ascending id
    /// order, in `woken`: the buffer is cleared first, so a run loop
    /// reuses one allocation for every wake. All entries of a woken
    /// waiter are removed, not just the matching one.
    pub fn wake_overlapping<'w>(
        &mut self,
        domain: u16,
        addr: u32,
        len: u32,
        woken: &'w mut Vec<WaiterId>,
    ) -> &'w [WaiterId] {
        woken.clear();
        woken.extend(
            self.entries
                .iter()
                .filter(|&&((d, start, l), _)| d == domain && overlaps(start, l, addr, len))
                .map(|&(_, waiter)| waiter),
        );
        woken.sort_unstable();
        woken.dedup();
        if !woken.is_empty() {
            self.entries
                .retain(|(_, waiter)| woken.binary_search(waiter).is_err());
        }
        woken
    }

    /// True if `waiter` has at least one parked entry.
    pub fn is_parked(&self, waiter: WaiterId) -> bool {
        self.entries.iter().any(|&(_, w)| w == waiter)
    }

    /// Number of parked waiters (not entries).
    pub fn waiter_count(&self) -> usize {
        let mut ids: Vec<WaiterId> = self.entries.iter().map(|&(_, w)| w).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(range, waiter)` entries — deadlock diagnostics walk
    /// this to name what each stuck thread is waiting for.
    pub fn entries(&self) -> impl Iterator<Item = &(WaitRange, WaiterId)> {
        self.entries.iter()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Half-open range overlap; zero-length ranges overlap nothing — not
/// even when the other range encloses their position (the bare interval
/// formula would claim an interior zero-length touch overlaps).
fn overlaps(a_start: u32, a_len: u32, b_start: u32, b_len: u32) -> bool {
    if a_len == 0 || b_len == 0 {
        return false;
    }
    let a_end = a_start.saturating_add(a_len);
    let b_end = b_start.saturating_add(b_len);
    a_start < b_end && b_start < a_end
}

/// A cycle-budget fuse: an event loop consults it on every dispatch and
/// aborts the run once simulation time passes the budget, turning hangs
/// (livelock, lost wakeups) into a typed error instead of
/// non-termination.
///
/// An unarmed watchdog ([`Watchdog::unarmed`]) never blows, so the
/// fault-free path can consult it unconditionally with zero behavioral
/// difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watchdog {
    budget: Option<Cycle>,
}

impl Watchdog {
    /// A fuse that blows when simulation time exceeds `max_cycles`.
    pub fn armed(max_cycles: Cycle) -> Self {
        Self {
            budget: Some(max_cycles),
        }
    }

    /// A fuse that never blows.
    pub fn unarmed() -> Self {
        Self { budget: None }
    }

    /// True once `now` exceeds the budget (an armed fuse tolerates
    /// dispatches *at* the budget cycle itself).
    pub fn expired(&self, now: Cycle) -> bool {
        self.budget.is_some_and(|max| now > max)
    }

    /// The configured budget, if armed.
    pub fn budget(&self) -> Option<Cycle> {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_push_order_through_recycled_slots() {
        // Slot reuse must not perturb FIFO tie-breaking: recycle slots
        // via pops, then push a tied batch whose slot indices are in
        // reverse order of push order.
        let mut q = EventQueue::new();
        q.push(1, 0);
        q.push(1, 1);
        q.push(1, 2);
        while q.pop().is_some() {}
        q.push(5, 10);
        q.push(5, 11);
        q.push(5, 12);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 11, 12]);
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.push_after(3, ());
        assert_eq!(q.pop(), Some((10, ())));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    #[test]
    fn slot_arena_is_bounded_by_pending_events() {
        // Regression for the slot leak: a long run of push/pop pairs
        // must not grow the arena past the peak pending count.
        let mut q = EventQueue::new();
        q.push(0, 0u64);
        q.push(0, 1u64);
        q.push(0, 2u64);
        for i in 0..100_000u64 {
            let (_, e) = q.pop().expect("queue stays non-empty");
            q.push_after(1 + (e % 3), i);
        }
        assert_eq!(q.len(), 3);
        assert!(
            q.slot_capacity() <= 4,
            "slot arena leaked: {} slots for 3 pending events",
            q.slot_capacity()
        );
    }

    #[test]
    fn wait_map_wakes_overlapping_waiters_in_id_order() {
        let mut w = WaitMap::new();
        w.park(2, [(0, 100, 10)]);
        w.park(0, [(0, 105, 1), (1, 0, 4)]);
        w.park(1, [(0, 200, 8)]);
        // Touch [104, 108) on tile 0: hits waiters 2 and 0, not 1.
        let mut woken = Vec::new();
        assert_eq!(w.wake_overlapping(0, 104, 4, &mut woken), [0, 2]);
        // Waiter 0's tile-1 entry went with it.
        assert!(!w.is_parked(0));
        assert!(w.is_parked(1));
        assert_eq!(w.waiter_count(), 1);
    }

    #[test]
    fn wait_map_respects_domain_and_bounds() {
        let mut w = WaitMap::new();
        w.park(7, [(3, 50, 10)]);
        let mut woken = Vec::new();
        assert!(
            w.wake_overlapping(2, 50, 10, &mut woken).is_empty(),
            "wrong domain"
        );
        assert!(
            w.wake_overlapping(3, 60, 5, &mut woken).is_empty(),
            "adjacent, no overlap"
        );
        assert!(
            w.wake_overlapping(3, 40, 10, &mut woken).is_empty(),
            "ends at start"
        );
        assert_eq!(w.wake_overlapping(3, 59, 1, &mut woken), [7]);
        assert!(w.is_empty());
    }

    #[test]
    fn wait_map_zero_length_touch_wakes_nothing() {
        let mut w = WaitMap::new();
        w.park(1, [(0, 10, 4)]);
        assert!(w.wake_overlapping(0, 10, 0, &mut Vec::new()).is_empty());
        assert!(w.is_parked(1));
    }

    #[test]
    #[should_panic(expected = "parked twice")]
    fn double_park_panics() {
        let mut w = WaitMap::new();
        w.park(4, [(0, 0, 1)]);
        w.park(4, [(0, 8, 1)]);
    }

    #[test]
    fn watchdog_unarmed_never_expires() {
        let w = Watchdog::unarmed();
        assert!(!w.expired(u64::MAX));
        assert_eq!(w.budget(), None);
    }

    #[test]
    fn watchdog_armed_expires_strictly_past_budget() {
        let w = Watchdog::armed(100);
        assert!(!w.expired(99));
        assert!(!w.expired(100), "dispatch at the budget cycle is allowed");
        assert!(w.expired(101));
        assert_eq!(w.budget(), Some(100));
    }

    #[test]
    fn push_after_saturates_near_cycle_max() {
        // Regression: a far-future back-off delay near Cycle::MAX must
        // saturate, not wrap into the past and panic.
        let mut q = EventQueue::new();
        q.push(10, "tick");
        q.pop();
        q.push_after(Cycle::MAX - 5, "far");
        assert_eq!(q.pop(), Some((Cycle::MAX, "far")));
        // And again from the saturated point itself.
        q.push_after(Cycle::MAX, "edge");
        assert_eq!(q.pop(), Some((Cycle::MAX, "edge")));
    }
}
