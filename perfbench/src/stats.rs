//! Order statistics for the benchmark's timings.
//!
//! Percentiles are nearest-rank: the `q`-percentile of `n` samples is the
//! sample of rank `⌈q·n⌉`. A tail percentile is only worth reporting when
//! at least [`MIN_BEYOND`] samples lie beyond it — with fewer, one slow
//! sample moves it — so the benchmark sizes its sample counts by
//! [`min_samples_for`] and records every count next to the value.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based) of the nearest-rank `q`-percentile of `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    // The epsilon keeps q·n that is an integer in exact arithmetic (0.75·40)
    // from rounding up past it in floating point.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-percentile of `samples` (any order).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// Median (nearest-rank 0.5 percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many of `n` samples lie strictly beyond their `q`-percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Whether `n` samples support reporting their `q`-percentile as a tail.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The fewest samples whose `q`-percentile has [`MIN_BEYOND`] beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| tail_supported(n, q))
        .expect("some n suffices")
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.75), 8.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.75), 8.0);
    }

    #[test]
    fn p75_needs_forty_samples_for_ten_beyond() {
        assert_eq!(min_samples_for(0.75), 40);
        assert!(tail_supported(40, 0.75));
        assert_eq!(beyond(40, 0.75), 10);
        assert!(!tail_supported(39, 0.75));
        assert_eq!(beyond(39, 0.75), 9);
    }

    #[test]
    fn p99_needs_a_thousand_and_p50_twenty() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert!(!tail_supported(999, 0.99));
        assert_eq!(min_samples_for(0.5), 20);
        assert!(!tail_supported(0, 0.5));
    }
}
