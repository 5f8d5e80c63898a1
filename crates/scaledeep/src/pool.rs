//! The one worker pool: maps a function over owned items on a
//! process-wide set of persistent helper threads and returns the results
//! in item order, so the output never depends on the worker count or on
//! scheduling. The DSE driver ([`crate::dse::run`]) and `repro`'s
//! experiment runner both use it.
//!
//! Helpers start on first use and live for the rest of the process. A
//! call posts its items as one job, lets up to `workers - 1` helpers join
//! it and works on it itself; results travel through per-index slots.
//! Because a job owns its items and its function (`'static`), a helper
//! never borrows from a caller's stack, which is what lets the threads
//! outlive a call without `unsafe`. After its last item a helper spins
//! for [`SPIN`] before it parks, so back-to-back calls find it awake:
//! neither side pays a cross-CPU wake-up. Only the first
//! `available_parallelism - 1` helpers spin; any beyond that park at
//! once, so a spinning helper never takes the caller's core.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// How long an idle helper watches for the next job, and a caller whose
/// workers each have a core watches for its job's last item, before
/// parking. A wake-up across CPUs costs tens
/// of microseconds each way on a small VM, so a sweep that starts within
/// this window pays none; the price is at most this much spinning per
/// call on each spinning helper. It never changes a result.
pub const SPIN: Duration = Duration::from_millis(1);

/// Applies `f` to every item and returns the results in item order. The
/// calling thread is one of `workers` workers: up to `workers - 1` pool
/// helpers join it, so `workers == 1` runs every item on the caller.
/// Workers claim the next unclaimed index and write its result into that
/// index's slot. `workers == 0` means the available parallelism (read
/// once per process); the count is capped at the number of items.
///
/// # Panics
///
/// If `f` panics on any item, the first panic is re-raised here once
/// every item has finished; the helpers live on.
pub fn map_ordered<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    static POOL: Pool = Pool::new();
    POOL.map_ordered(items, workers, f)
}

/// The available parallelism, read once: it reads cgroup files.
fn parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A set of persistent helpers and the jobs waiting for them.
struct Pool {
    state: Mutex<State>,
    /// Wakes parked helpers when a job is posted.
    posted: Condvar,
    /// Counts posts, so a spinning helper sees one without the lock.
    posts: AtomicUsize,
}

struct State {
    /// Jobs that still have helper seats, oldest first.
    open: Vec<Opening>,
    /// Helpers spawned so far: the largest `workers - 1` any call asked
    /// for, capped by its item count.
    helpers: usize,
    /// Idle helpers in their spin window.
    spinning: usize,
    /// Helpers waiting on `posted`.
    parked: usize,
}

struct Opening {
    job: Arc<dyn Work>,
    /// Helpers that may still join.
    seats: usize,
}

/// A posted job, seen without its item and result types.
trait Work: Send + Sync {
    /// Claims and runs items until none is left unclaimed.
    fn work(&self);
    /// True once every item is claimed.
    fn claimed(&self) -> bool;
}

struct Job<T, R, F> {
    items: Vec<T>,
    f: F,
    next: AtomicUsize,
    unfinished: AtomicUsize,
    slots: Vec<Mutex<Option<R>>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set while the caller is parked waiting for the last item.
    caller_parked: Mutex<bool>,
    drained: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no panic holds a pool lock")
}

impl Pool {
    const fn new() -> Self {
        Self {
            state: Mutex::new(State {
                open: Vec::new(),
                helpers: 0,
                spinning: 0,
                parked: 0,
            }),
            posted: Condvar::new(),
            posts: AtomicUsize::new(0),
        }
    }

    fn map_ordered<T, R, F>(&'static self, items: Vec<T>, workers: usize, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let workers = if workers == 0 { parallelism() } else { workers }.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let job = Arc::new(Job {
            slots: items.iter().map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(items.len()),
            items,
            f,
            panic: Mutex::new(None),
            caller_parked: Mutex::new(false),
            drained: Condvar::new(),
        });
        self.post(job.clone(), workers - 1);
        job.work();
        // Every item is claimed: close the opening so no helper joins.
        lock(&self.state).open.retain(|o| !o.job.claimed());
        // Spinning while a helper finishes is free only if every worker
        // has a core of its own.
        job.wait(if workers <= parallelism() {
            SPIN
        } else {
            Duration::ZERO
        });
        if let Some(payload) = lock(&job.panic).take() {
            panic::resume_unwind(payload);
        }
        job.slots
            .iter()
            .map(|slot| {
                lock(slot)
                    .take()
                    .expect("every slot is filled once the job drains")
            })
            .collect()
    }

    /// Opens `job` to `seats` helpers, spawning helpers up to `seats` and
    /// waking parked ones for the seats no spinning helper will take.
    fn post(&'static self, job: Arc<dyn Work>, seats: usize) {
        let mut st = lock(&self.state);
        st.open.push(Opening { job, seats });
        self.posts.fetch_add(1, Ordering::SeqCst);
        let mut unserved = seats.saturating_sub(st.spinning);
        while st.helpers < seats {
            let spins = st.helpers + 1 < parallelism();
            let spawned = std::thread::Builder::new()
                .name(format!("scaledeep-pool-{}", st.helpers))
                .spawn(move || self.serve(spins));
            // The handle is dropped: a helper serves for the life of the
            // process and catches every item's panic, so there is nothing
            // to join. A failed spawn only costs time, since the caller
            // works its own job.
            if spawned.is_err() {
                break;
            }
            st.helpers += 1;
            unserved = unserved.saturating_sub(1);
        }
        for _ in 0..unserved.min(st.parked) {
            self.posted.notify_one();
        }
    }

    /// A helper's life: take a seat in an open job and work it; when none
    /// is open, spin for [`SPIN`] (if `spins`), then park.
    fn serve(&self, spins: bool) {
        let mut st = lock(&self.state);
        let mut may_spin = false;
        loop {
            if let Some(job) = st.take() {
                drop(st);
                job.work();
                drop(job);
                may_spin = spins;
                st = lock(&self.state);
            } else if may_spin {
                may_spin = false;
                // Read under the lock: any later post changes it.
                let seen = self.posts.load(Ordering::SeqCst);
                st.spinning += 1;
                drop(st);
                let start = Instant::now();
                while self.posts.load(Ordering::SeqCst) == seen && start.elapsed() < SPIN {
                    std::hint::spin_loop();
                }
                st = lock(&self.state);
                st.spinning -= 1;
            } else {
                st.parked += 1;
                st = self.posted.wait(st).expect("no panic holds a pool lock");
                st.parked -= 1;
            }
        }
    }
}

impl State {
    /// Takes a seat in the oldest open job with unclaimed items, closing
    /// the openings that are full or fully claimed.
    fn take(&mut self) -> Option<Arc<dyn Work>> {
        self.open.retain(|o| !o.job.claimed());
        let opening = self.open.first_mut()?;
        opening.seats -= 1;
        Some(if opening.seats == 0 {
            self.open.remove(0).job
        } else {
            opening.job.clone()
        })
    }
}

impl<T, R, F> Job<T, R, F> {
    /// Returns once every item has finished: spins for up to `spin`,
    /// then parks until the worker finishing the last item wakes it.
    fn wait(&self, spin: Duration) {
        let start = Instant::now();
        while self.unfinished.load(Ordering::Acquire) != 0 {
            if start.elapsed() >= spin {
                let mut parked = lock(&self.caller_parked);
                *parked = true;
                while self.unfinished.load(Ordering::Acquire) != 0 {
                    parked = self
                        .drained
                        .wait(parked)
                        .expect("no panic holds a pool lock");
                }
                return;
            }
            std::hint::spin_loop();
        }
    }
}

impl<T, R, F> Work for Job<T, R, F>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    fn work(&self) {
        loop {
            // Relaxed: the index publishes no data. Each result travels
            // through its slot's mutex, and each decrement of `unfinished`
            // (AcqRel) pairs with the caller's Acquire load in `wait`, so
            // every slot is written before the caller reads it.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i) else {
                return;
            };
            match panic::catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(result) => *lock(&self.slots[i]) = Some(result),
                Err(payload) => {
                    lock(&self.panic).get_or_insert(payload);
                }
            }
            if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 && *lock(&self.caller_parked) {
                self.drained.notify_one();
            }
        }
    }

    fn claimed(&self) -> bool {
        // Relaxed: a stale answer only sends a helper to an empty job.
        self.next.load(Ordering::Relaxed) >= self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// A pool of its own, so spawn counts do not see other tests' calls.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    #[test]
    fn results_follow_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 8, 100] {
            assert_eq!(
                map_ordered(items.clone(), workers, |i| i * i),
                want,
                "{workers}"
            );
        }
        assert!(map_ordered(Vec::<u64>::new(), 4, |i| *i).is_empty());
    }

    #[test]
    fn the_caller_is_a_worker() {
        let caller = std::thread::current().id();
        let alone = map_ordered(vec![(); 4], 1, |()| std::thread::current().id());
        assert_eq!(alone, vec![caller; 4]);
        // Each of the three items blocks its worker until all three are
        // claimed, so three distinct threads run them: two pool helpers
        // and the caller.
        let all_claimed = Arc::new(Barrier::new(3));
        let three: HashSet<ThreadId> = map_ordered(vec![(); 3], 3, move |()| {
            all_claimed.wait();
            std::thread::current().id()
        })
        .into_iter()
        .collect();
        assert_eq!(three.len(), 3);
        assert!(three.contains(&caller));
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_the_helper_survives() {
        let pool = private_pool();
        let caller = std::thread::current().id();
        // Two items, two workers: the caller holds its item until the
        // helper's item has panicked, so the panic happens on the helper.
        let helper_done = Arc::new(Barrier::new(2));
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let helper_done = helper_done.clone();
            pool.map_ordered(vec![0u64, 1], 2, move |&i| {
                if std::thread::current().id() == caller {
                    helper_done.wait();
                    i
                } else {
                    let _release = ReleaseOnDrop(helper_done.clone());
                    panic!("an item fails on a helper");
                }
            })
        }));
        let payload = result.expect_err("the helper's panic re-raises on the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"an item fails on a helper")
        );
        // The same helper runs the next job: its two items each wait for
        // the other, so two threads run them.
        let both = Arc::new(Barrier::new(2));
        let threads: HashSet<ThreadId> = pool
            .map_ordered(vec![(); 2], 2, move |()| {
                both.wait();
                std::thread::current().id()
            })
            .into_iter()
            .collect();
        assert_eq!(threads.len(), 2);
        let squares: Vec<u64> = (0..20).collect();
        assert_eq!(
            pool.map_ordered(squares.clone(), 2, |i| i * i),
            squares.iter().map(|i| i * i).collect::<Vec<_>>()
        );
        assert_eq!(lock(&pool.state).helpers, 1, "the helper survived");
    }

    /// Meets the caller at the barrier even while its thread unwinds.
    struct ReleaseOnDrop(Arc<Barrier>);

    impl Drop for ReleaseOnDrop {
        fn drop(&mut self) {
            self.0.wait();
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results_in_order() {
        let pool = private_pool();
        std::thread::scope(|s| {
            for caller in 0..4u64 {
                s.spawn(move || {
                    for call in 0..50u64 {
                        let items: Vec<u64> = (0..10 + call % 7).collect();
                        let want: Vec<u64> = items
                            .iter()
                            .map(|i| caller * 1_000 + call * 100 + i)
                            .collect();
                        let got =
                            pool.map_ordered(items, 3, move |i| caller * 1_000 + call * 100 + i);
                        assert_eq!(got, want, "caller {caller}, call {call}");
                    }
                });
            }
        });
        assert!(lock(&pool.state).open.is_empty(), "every job closed");
    }

    #[test]
    fn one_worker_runs_every_item_on_the_caller() {
        let pool = private_pool();
        let caller = std::thread::current().id();
        let ids = pool.map_ordered((0..16).collect(), 1, |_: &u32| std::thread::current().id());
        assert_eq!(ids, vec![caller; 16]);
        assert_eq!(lock(&pool.state).helpers, 0, "no helper was spawned");
    }

    #[test]
    fn a_second_call_reuses_the_helpers() {
        let pool = private_pool();
        let items: Vec<u64> = (0..64).collect();
        let want: Vec<u64> = items.iter().map(|i| i + 1).collect();
        assert_eq!(pool.map_ordered(items.clone(), 3, |i| i + 1), want);
        assert_eq!(lock(&pool.state).helpers, 2);
        assert_eq!(pool.map_ordered(items.clone(), 3, |i| i + 1), want);
        assert_eq!(pool.map_ordered(items, 2, |i| i + 1), want);
        assert_eq!(lock(&pool.state).helpers, 2, "no new thread");
    }
}
