//! Small statistics the benchmark reports: nearest-rank percentiles with
//! a tail-sample rule, medians, failure tallies, and rung subtraction.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Zero-based index of the nearest-rank `q` percentile among `n` sorted
/// samples (`n >= 1`, `0 < q <= 1`).
pub fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Smallest sample count whose `q` percentile leaves [`TAIL_SAMPLES`]
/// samples beyond it.
pub fn min_samples(q: f64) -> usize {
    let mut n = TAIL_SAMPLES + 1;
    while beyond(n, q) < TAIL_SAMPLES {
        n += 1;
    }
    n
}

/// The nearest-rank `q` percentile of `sorted`, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it (the percentile would be the
/// maximum or close to it, not a tail estimate).
pub fn tail_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if beyond(sorted.len(), q) < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

/// Median of `values` (mean of the middle pair for an even count); `0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Batches attempted and batches without a correct `BatchDone`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Batch calls made.
    pub attempted: u64,
    /// Calls that ended in a typed error, a transport error, or a reply
    /// that differs from the in-process reference.
    pub failed: u64,
}

impl Tally {
    /// Records one attempted batch and whether it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Marks `n` already-attempted batches as failed (a later check found
    /// their replies wrong).
    pub fn fail(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; `0` when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A layer's self time: its rung minus the rung below, clamped at zero so
/// a rung measured faster than the one below never reports a negative
/// self time.
pub fn self_time(upper: f64, lower: f64) -> f64 {
    (upper - lower).max(0.0)
}

/// Half the interquartile range of `v` (0 for fewer than four values).
pub fn half_iqr(v: &[f64]) -> f64 {
    if v.len() < 4 {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    (q(0.75) - q(0.25)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&sorted, 0.99), Some(990));
        assert_eq!(tail_percentile(&sorted[..999], 0.99), None);
        // With 16 samples p99 is the maximum: refused.
        assert_eq!(tail_percentile(&sorted[..16], 0.99), None);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(tail_percentile(&sorted[..20], 0.5), Some(10));
    }

    #[test]
    fn nearest_rank_is_in_range() {
        for n in 1..200 {
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                let r = rank(n, q);
                assert!(r < n);
                assert!((r + 1) as f64 >= q * n as f64);
            }
        }
    }

    #[test]
    fn rung_subtraction_never_goes_negative() {
        assert_eq!(self_time(5.0, 3.0), 2.0);
        assert_eq!(self_time(3.0, 3.0), 0.0);
        assert_eq!(self_time(2.0, 3.5), 0.0);
        for (u, l) in [(0.0, 1e-9), (1e9, 1e9 + 1.0), (-1.0, 0.0)] {
            assert!(self_time(u, l) >= 0.0);
        }
    }

    #[test]
    fn half_iqr_needs_four_values() {
        assert_eq!(half_iqr(&[1.0, 9.0, 5.0]), 0.0);
        assert_eq!(half_iqr(&[44.0, 56.0, 48.0, 52.0]), 2.0);
    }

    #[test]
    fn error_rate_counts_every_failure_kind_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for _ in 0..97 {
            t.record(true);
        }
        t.record(false); // typed error
        t.record(false); // transport error
        t.record(true);
        t.fail(1); // a reply that differs from the reference
        assert_eq!(t.attempted, 100);
        assert_eq!(t.failed, 3);
        assert!((t.error_rate() - 0.03).abs() < 1e-12);
        // A later check cannot fail more batches than were attempted.
        t.fail(1000);
        assert_eq!(t.failed, 100);
        let mut total = Tally::default();
        total.absorb(Tally {
            attempted: 10,
            failed: 1,
        });
        total.absorb(Tally {
            attempted: 30,
            failed: 0,
        });
        assert_eq!(total.error_rate(), 0.025);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
