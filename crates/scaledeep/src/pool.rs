//! The one worker pool: maps a function over a slice on scoped threads
//! and returns the results in item order, so the output never depends on
//! the worker count or on scheduling. The DSE driver ([`crate::dse::run`])
//! and `repro`'s experiment runner both use it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on `workers` threads and returns the results
/// in item order. The calling thread is one of the workers: it spawns
/// `workers - 1` scoped threads and runs the same loop itself, so
/// `workers == 1` spawns nothing. Workers claim the next unclaimed index
/// and write its result into that index's slot. `workers == 0` means the
/// available parallelism; the count is capped at the number of items.
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        workers
    }
    .min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        // Relaxed: the index publishes no data; each result travels
        // through its slot's mutex and the scope's join.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            break;
        };
        let result = f(item);
        *slots[i].lock().expect("no panics hold this lock") = Some(result);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers joined")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn results_follow_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 8, 100] {
            assert_eq!(map_ordered(&items, workers, |i| i * i), want, "{workers}");
        }
        assert!(map_ordered(&[] as &[u64], 4, |i| *i).is_empty());
    }

    #[test]
    fn the_caller_is_a_worker() {
        let caller = std::thread::current().id();
        let alone = map_ordered(&[(); 4], 1, |()| std::thread::current().id());
        assert_eq!(alone, vec![caller; 4]);
        // Each of the three items blocks its worker until all three are
        // claimed, so three distinct threads run them: the two spawned
        // ones and the caller.
        let all_claimed = Barrier::new(3);
        let three: HashSet<ThreadId> = map_ordered(&[(); 3], 3, |()| {
            all_claimed.wait();
            std::thread::current().id()
        })
        .into_iter()
        .collect();
        assert_eq!(three.len(), 3);
        assert!(three.contains(&caller));
    }
}
