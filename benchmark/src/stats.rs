//! Order statistics over small samples of timings.

/// Summary of a non-empty sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartiles by Python's `statistics.quantiles(v, n=4)` (the exclusive
/// method), so figures here agree with the driver's. A single value is its
/// own quartiles.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    let quantile = |k: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Position k*(n+1)/4 on a 1-based scale, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Summary {
        n,
        min: v[0],
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
        max: v[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
        let s = summarize(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_value_is_its_own_summary() {
        let s = summarize(&[4.5]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (4.5, 4.5, 4.5, 4.5, 4.5)
        );
    }

    #[test]
    fn odd_sample_median_is_the_middle_value() {
        assert_eq!(summarize(&[9.0, 1.0, 5.0]).median, 5.0);
    }
}
