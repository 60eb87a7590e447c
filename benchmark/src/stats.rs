//! Order statistics for host timings — medians with quartiles — and the
//! "at least ten samples beyond" rule for percentiles (the percentile
//! arithmetic itself is `workload::Dist::quantile`).

/// Median and quartiles of a sample, as `statistics.quantiles(v, n=4)` in
/// Python gives them (the "exclusive" method) — the same arithmetic the
/// benchmark's acceptance check uses, so spreads printed here match it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Inter-quartile range as a share of the median.
    pub fn iqr_ratio(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Quartiles of `values` (any order). Panics on an empty sample: every
/// caller measures at least one slice.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Exclusive method: the i-th cut point sits at rank i*(n+1)/4 (1-based),
    // linearly interpolated and clamped to the sample.
    let cut = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let pos = (i * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The value below which nine tenths of `values` lie (nearest rank).
pub fn p90(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "p90 of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() * 9).div_ceil(10) - 1]
}

/// Whether a sample of `n` supports reporting the `q`-quantile: at least
/// ten samples must lie beyond it.
pub fn supports_quantile(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // Two points: cut points are clamped to the sample's span by
        // extrapolation exactly as Python does ([0.75, 1.5, 2.25]).
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]).median, 7.0);
    }

    #[test]
    fn p90_is_the_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(p90(&v), 9.0);
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(p90(&v), 180.0);
        assert_eq!(p90(&[4.0]), 4.0);
        assert_eq!(p90(&[1.0, 2.0]), 2.0);
    }

    #[test]
    fn iqr_ratio_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartiles(&v).iqr_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(supports_quantile(1000, 0.99));
        assert!(!supports_quantile(999, 0.99));
        assert!(supports_quantile(20, 0.5));
        assert!(!supports_quantile(19, 0.5));
    }
}
