//! Order statistics for run-to-run summaries.

/// Median of `v` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(v, n=4)` does (exclusive method), because that is
/// what the acceptance check of the benchmark contract uses. Needs two
/// values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (the contract's "spread").
pub fn iqr_frac(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Summary of one metric over the repetitions of a set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
}

pub fn summarize(v: &[f64]) -> Option<Summary> {
    let median = median(v)?;
    let (q1, q3) = quartiles(v).unwrap_or((median, median));
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    Some(Summary { n: v.len(), median, q1, q3, min })
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the rule
/// for the highest percentile a sample supports.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

/// The `p`-th percentile of ascending `sorted`, or `None` when fewer than
/// ten samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if !supports(sorted.len(), p) {
        return None;
    }
    Some(sorted[((sorted.len() - 1) as f64 * p).round() as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(quartiles(&[11.0, 2.0, 4.0, 9.0, 4.0, 5.0, 7.0]), Some((4.0, 9.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_frac(&v), Some(1.0));
        assert_eq!(iqr_frac(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (0..10_000).collect();
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
        assert_eq!(percentile(&v, 0.999), Some(9989));
        assert_eq!(percentile(&v[..9_999], 0.999), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }
}
