//! Seeded retry with exponential backoff + deterministic jitter.
//!
//! The schedule is a **pure function** of `(server seed, job id,
//! attempt)` — the same counter-hash discipline the fault plan's link
//! model uses — so a drill replayed under the same seed backs off at
//! exactly the same points, independent of thread interleaving.

use scaledeep_trace::splitmix64;

/// Maximum executions per job (first try + retries), for jobs that die
/// to transient faults or lost workers. A job failing this many times
/// resolves with its last typed error.
pub const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry, in milliseconds (doubles per retry).
pub const BASE_MS: u64 = 2;

/// Backoff before retry `attempt` (1-based, below [`MAX_ATTEMPTS`]) of
/// job `job_id` under `seed`: `BASE_MS << (attempt-1)` plus a
/// deterministic jitter in `[0, BASE_MS)` drawn from the counter hash.
/// Jitter decorrelates retry storms: jobs felled by one fault wave do
/// not all come back in the same millisecond.
pub(crate) fn backoff_ms(seed: u64, job_id: u64, attempt: u32) -> u64 {
    let jitter = splitmix64(seed ^ job_id.rotate_left(23), u64::from(attempt)) % BASE_MS;
    (BASE_MS << (attempt - 1)) + jitter
}

/// The full backoff ladder a job would climb if every attempt but the
/// last failed — the deterministic schedule drills print and same-seed
/// tests compare.
pub fn schedule_ms(seed: u64, job_id: u64) -> Vec<u64> {
    (1..MAX_ATTEMPTS)
        .map(|a| backoff_ms(seed, job_id, a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_job() {
        assert_eq!(schedule_ms(7, 3), schedule_ms(7, 3));
        // The ladder is [2 + j1, 4 + j2]: it doubles from the base, and
        // each rung's jitter stays below the base.
        for j in 0..64 {
            let ladder = schedule_ms(7, j);
            assert_eq!(ladder.len(), 2, "{ladder:?}");
            assert!(ladder[0] >= 2 && ladder[0] - 2 < 2, "{ladder:?}");
            assert!(ladder[1] >= 4 && ladder[1] - 4 < 2, "{ladder:?}");
        }
        // Different seed or job id shifts the jitter somewhere in a
        // reasonable sample.
        let base: Vec<_> = (0..64).map(|j| schedule_ms(7, j)).collect();
        let other: Vec<_> = (0..64).map(|j| schedule_ms(8, j)).collect();
        assert_ne!(base, other, "seed must perturb the jitter");
    }
}
