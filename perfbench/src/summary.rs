//! The benchmark's arithmetic: percentiles, which tail a sample
//! supports, and failure accounting.

/// Samples that must lie beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must
/// be ascending. `NaN` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether `n` samples leave at least [`BEYOND`] beyond percentile `p`.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= BEYOND
}

/// The median of `values` (any order); `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Requests attempted against requests that failed — a non-200 status,
/// a transport error, or a body that differs from the oracle's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
}

impl Outcomes {
    /// Count one request.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally.
    pub fn absorb(&mut self, other: Self) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Move `n` requests already counted as good to failed (a body the
    /// oracle rejected after the run).
    pub fn reject(&mut self, n: u64) {
        self.failed += n;
        debug_assert!(self.failed <= self.attempted);
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(!supports(999, 99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(40, 75.0));
        assert!(!supports(39, 75.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.error_rate(), 0.0);
        for i in 0..10 {
            o.record(i != 3);
        }
        assert_eq!(
            o,
            Outcomes {
                attempted: 10,
                failed: 1
            }
        );
        o.reject(2);
        assert_eq!(o.failed, 3);
        let mut other = Outcomes::default();
        other.record(false);
        o.absorb(other);
        assert_eq!(o.attempted, 11);
        assert!((o.error_rate() - 4.0 / 11.0).abs() < 1e-12);
    }
}
