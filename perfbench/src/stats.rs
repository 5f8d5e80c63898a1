//! Order statistics over timing samples. Percentiles interpolate linearly
//! between the two closest ranks, so the median of an even-sized sample is
//! the mean of its middle pair.
//!
//! The gated timings are lower quartiles. On a shared host, interference
//! from other tenants only ever adds time, and comes in phases of seconds
//! that slow a single-threaded loop by up to 2x; the lower quartile of a
//! run's samples tracks the program's own cost through them, where the
//! median and the tail move with the share of the run the phases covered.

/// The `p`-th percentile (0–100) of `samples`; `None` without samples or
/// for `p` out of range.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The 50th percentile.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The distance between the first and the third quartile.
pub fn iqr(samples: &[f64]) -> Option<f64> {
    Some(percentile(samples, 75.0)? - percentile(samples, 25.0)?)
}

/// The highest reporting percentile (99, 95, 90, 75 or 50) that leaves at
/// least ten samples above it, with its value: the tail a timing can be
/// summarized by without resting on a handful of samples.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(samples.len(), 10)?;
    Some((p, percentile(samples, f64::from(p))?))
}

/// The highest of the reporting percentiles that leaves at least `beyond`
/// of `n` samples above it.
fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(11.0));
        assert_eq!(percentile(&v, 90.0), Some(10.0));
        assert_eq!(percentile(&[10.0, 0.0], 25.0), Some(2.5));
        assert_eq!(percentile(&v, 100.5), None);
        assert_eq!(percentile(&v, -1.0), None);
    }

    #[test]
    fn iqr_spans_the_middle_half() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(iqr(&v), Some(50.0));
        assert_eq!(iqr(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(iqr(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(200, 10), Some(95));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(99, 10), Some(75));
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(19, 10), None);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        assert_eq!(tail(&v[..19]), None);
    }
}
