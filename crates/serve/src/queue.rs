//! A bounded, tenant-fair job queue with explicit load shedding.
//!
//! Admission is bounded: past `capacity`, [`FairQueue::push`] refuses the
//! item (the caller sheds it with a typed `Overloaded` error) instead of
//! growing without bound or blocking the client. Dispatch is fair:
//! [`FairQueue::pop`] round-robins across tenants, so one tenant
//! flooding its lane cannot starve the others — each pop serves the next
//! tenant (in first-seen order) that has work. A paused queue hands out
//! nothing until it is resumed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

struct Inner<T> {
    /// One FIFO lane per tenant, in first-seen order.
    lanes: Vec<(String, VecDeque<T>)>,
    /// Round-robin cursor: the lane the next pop starts scanning at.
    cursor: usize,
    /// Total queued items across lanes.
    len: usize,
    /// Closed queues refuse pushes and wake all poppers.
    closed: bool,
    /// Paused queues admit but do not dispatch.
    paused: bool,
}

/// The bounded multi-tenant queue (see module docs).
pub struct FairQueue<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    capacity: usize,
}

impl<T> FairQueue<T> {
    /// An open queue admitting at most `capacity` items in total.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                lanes: Vec::new(),
                cursor: 0,
                len: 0,
                closed: false,
                paused: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued across all tenants.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` into `tenant`'s lane. Returns the item back when
    /// the queue is full or closed — the caller sheds it explicitly.
    pub fn push(&self, tenant: &str, item: T) -> Result<(), T> {
        let mut g = self.lock();
        if g.closed || g.len >= self.capacity {
            return Err(item);
        }
        Self::lane(&mut g, tenant).push_back(item);
        g.len += 1;
        drop(g);
        self.cv.notify_one();
        Ok(())
    }

    /// Re-admits a recovered in-flight item at the *front* of its lane,
    /// ignoring the capacity bound *and* the closed flag: the item was
    /// already admitted once, and recovery must never drop it — during
    /// shutdown the final drain resolves it instead.
    pub fn push_front(&self, tenant: &str, item: T) {
        let mut g = self.lock();
        Self::lane(&mut g, tenant).push_front(item);
        g.len += 1;
        drop(g);
        self.cv.notify_one();
    }

    fn lane<'a>(g: &'a mut Inner<T>, tenant: &str) -> &'a mut VecDeque<T> {
        if let Some(i) = g.lanes.iter().position(|(name, _)| name == tenant) {
            return &mut g.lanes[i].1;
        }
        g.lanes.push((tenant.to_string(), VecDeque::new()));
        let last = g.lanes.len() - 1;
        &mut g.lanes[last].1
    }

    fn take_round_robin(g: &mut Inner<T>) -> Option<T> {
        if g.len == 0 || g.lanes.is_empty() {
            return None;
        }
        let n = g.lanes.len();
        for step in 0..n {
            let i = (g.cursor + step) % n;
            if let Some(item) = g.lanes[i].1.pop_front() {
                g.cursor = (i + 1) % n;
                g.len -= 1;
                return Some(item);
            }
        }
        None
    }

    /// Takes the next item, serving tenants round-robin. Blocks while the
    /// queue is empty or paused; `None` once the queue is closed.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return None;
            }
            if !g.paused {
                if let Some(item) = Self::take_round_robin(&mut g) {
                    return Some(item);
                }
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pauses or resumes dispatch. While paused, pushes still admit but
    /// [`FairQueue::pop`] hands out nothing; the pause is exact from the
    /// moment this returns.
    pub fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.cv.notify_all();
    }

    /// Closes the queue: future pushes are refused, blocked poppers wake
    /// and get `None`. Queued items remain for [`FairQueue::drain`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Removes and returns everything still queued, paused or not
    /// (shutdown path: the server resolves these with a typed
    /// `Cancelled`).
    pub fn drain(&self) -> Vec<T> {
        let mut g = self.lock();
        let mut out = Vec::with_capacity(g.len);
        while let Some(item) = Self::take_round_robin(&mut g) {
            out.push(item);
        }
        out
    }

    /// Removes every queued item failing `keep`, returning the rejects —
    /// admission's sweep of a full queue (resolved and expired jobs give
    /// their capacity back before a new job is shed).
    pub fn evict<F: FnMut(&T) -> bool>(&self, mut keep: F) -> Vec<T> {
        let mut g = self.lock();
        let mut evicted = Vec::new();
        for (_, lane) in &mut g.lanes {
            let mut kept = VecDeque::with_capacity(lane.len());
            for item in lane.drain(..) {
                if keep(&item) {
                    kept.push_back(item);
                } else {
                    evicted.push(item);
                }
            }
            *lane = kept;
        }
        g.len -= evicted.len();
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bounded_push_sheds_past_capacity() {
        let q = FairQueue::new(2);
        assert!(q.push("a", 1).is_ok());
        assert!(q.push("b", 2).is_ok());
        assert_eq!(q.push("a", 3), Err(3), "the bound is global");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_round_robins_across_tenants() {
        let q = FairQueue::new(16);
        // Tenant a floods; b and c each queue one.
        for v in 0..4 {
            q.push("a", ("a", v)).unwrap();
        }
        q.push("b", ("b", 0)).unwrap();
        q.push("c", ("c", 0)).unwrap();
        let order: Vec<&str> = (0..6).map(|_| q.pop().unwrap().0).collect();
        // Each round serves every tenant with work once: a b c a a a.
        assert_eq!(order, vec!["a", "b", "c", "a", "a", "a"]);
    }

    #[test]
    fn push_front_bypasses_the_bound_and_jumps_the_lane() {
        let q = FairQueue::new(1);
        q.push("a", 1).unwrap();
        q.push_front("a", 99);
        assert_eq!(q.len(), 2, "recovered items are never shed");
        assert_eq!(q.pop(), Some(99));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_wakes_poppers_and_refuses_pushes() {
        let q = Arc::new(FairQueue::<u32>::new(4));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None, "close must wake the popper");
        assert!(q.push("a", 1).is_err());
        // Recovery re-admission still works after close (the shutdown
        // drain picks the item up).
        q.push_front("a", 7);
        assert_eq!(q.drain(), vec![7]);
    }

    #[test]
    fn evict_removes_only_failures_and_fixes_len() {
        let q = FairQueue::new(16);
        for v in 0..6 {
            q.push(if v % 2 == 0 { "a" } else { "b" }, v).unwrap();
        }
        let evicted = q.evict(|v| v % 3 != 0);
        assert_eq!(evicted.len(), 2); // 0 and 3
        assert_eq!(q.len(), 4);
        let mut rest = q.drain();
        rest.sort_unstable();
        assert_eq!(rest, vec![1, 2, 4, 5]);
    }

    #[test]
    fn drain_empties_the_queue() {
        let q = FairQueue::new(8);
        q.push("a", 1).unwrap();
        q.push("b", 2).unwrap();
        let mut d = q.drain();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn paused_pop_hands_out_nothing_until_resumed() {
        let q = Arc::new(FairQueue::new(4));
        q.set_paused(true);
        q.push("a", 1).unwrap();
        q.push("b", 2).unwrap();
        let q2 = q.clone();
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!popper.is_finished(), "a paused pop must block");
        // Drain ignores the pause; the blocked popper took nothing.
        let mut d = q.drain();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);
        q.push("a", 3).unwrap();
        q.set_paused(false);
        assert_eq!(popper.join().unwrap(), Some(3), "resume wakes the popper");
    }
}
