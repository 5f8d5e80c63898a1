//! Seeded retry with exponential backoff + deterministic jitter.
//!
//! The schedule is a **pure function** of `(server seed, job id,
//! attempt)` — the same counter-hash discipline the fault plan's link
//! model uses — so a drill replayed under the same seed backs off at
//! exactly the same points, independent of thread interleaving.

use scaledeep_trace::splitmix64;

/// Retry policy for jobs that die to transient faults or lost workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum executions per job (first try + retries). A job failing
    /// this many times resolves with its last typed error.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds (doubles per
    /// retry).
    pub base_ms: u64,
    /// Backoff ceiling per retry, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_ms: 2,
            max_backoff_ms: 250,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based) of job `job_id` under
    /// `seed`: `base << (attempt-1)`, capped at `max_backoff_ms`, plus a
    /// deterministic jitter in `[0, base)` drawn from the counter hash.
    /// Jitter decorrelates retry storms: jobs felled by one fault wave
    /// do not all come back in the same millisecond.
    pub fn backoff_ms(&self, seed: u64, job_id: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let factor = 1u64 << u64::from((attempt - 1).min(63));
        let ladder = self.base_ms.saturating_mul(factor).min(self.max_backoff_ms);
        let jitter = if self.base_ms > 0 {
            splitmix64(seed ^ job_id.rotate_left(23), u64::from(attempt)) % self.base_ms
        } else {
            0
        };
        ladder + jitter
    }

    /// The full backoff ladder a job would climb if every attempt but
    /// the last failed — the deterministic schedule drills print and
    /// same-seed tests compare.
    pub fn schedule_ms(&self, seed: u64, job_id: u64) -> Vec<u64> {
        (1..self.max_attempts)
            .map(|a| self.backoff_ms(seed, job_id, a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_ms: 4,
            max_backoff_ms: 20,
        };
        let ladder: Vec<u64> = (1..6).map(|a| p.backoff_ms(0, 0, a) / 4 * 4).collect();
        // Exponential ramp 4, 8, 16 then capped at 20 (jitter < base=4
        // stripped by the division above).
        assert_eq!(ladder, vec![4, 8, 16, 20, 20]);
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_job() {
        let p = RetryPolicy::default();
        assert_eq!(p.schedule_ms(7, 3), p.schedule_ms(7, 3));
        // Different seed or job id shifts the jitter somewhere in a
        // reasonable sample.
        let base: Vec<_> = (0..64).map(|j| p.schedule_ms(7, j)).collect();
        let other: Vec<_> = (0..64).map(|j| p.schedule_ms(8, j)).collect();
        assert_ne!(base, other, "seed must perturb the jitter");
    }

    #[test]
    fn attempt_zero_is_immediate_and_shl_saturates() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_ms: 1,
            max_backoff_ms: 9,
        };
        assert_eq!(p.backoff_ms(1, 1, 0), 0);
        // A huge attempt index overflows the shift; the cap holds.
        assert!(p.backoff_ms(1, 1, 200) <= 9 + 1);
    }

    #[test]
    fn zero_base_means_no_jitter() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_ms: 0,
            max_backoff_ms: 100,
        };
        assert_eq!(p.schedule_ms(1, 2), vec![0, 0, 0]);
    }
}
