//! Small statistics helpers for rendering the paper's figures.

/// An empirical CDF over `values` evaluated at `points`: returns
/// `P(X ≤ p)` for each point. `values` need not be sorted.
pub fn cdf_at(values: &[f64], points: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    points
        .iter()
        .map(|&p| {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx = sorted.partition_point(|&v| v <= p);
            idx as f64 / sorted.len() as f64
        })
        .collect()
}

/// Quantile of `values` (0 ≤ q ≤ 1), nearest-rank; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[idx])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Evenly spaced evaluation points `[lo, hi]` inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && hi >= lo);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// A sparkline-ish ASCII bar of width 20 for PDR-style values in
/// `[0, 1]` — used by example binaries for readable terminal output.
pub fn bar(value: f64) -> String {
    let filled = (value.clamp(0.0, 1.0) * 20.0).round() as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(20 - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_monotone_and_bounded() {
        let values = vec![3.0, 1.0, 2.0, 2.0, 5.0];
        let points = linspace(0.0, 6.0, 13);
        let cdf = cdf_at(&values, &points);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cdf[0], 0.0);
        assert_eq!(*cdf.last().unwrap(), 1.0);
        // P(X ≤ 2) = 3/5.
        let at2 = cdf_at(&values, &[2.0])[0];
        assert!((at2 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        let med = quantile(&v, 0.5).unwrap();
        assert!((med - 50.0).abs() <= 1.0);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(1.0), format!("[{}]", "#".repeat(20)));
        assert_eq!(bar(0.0), format!("[{}]", ".".repeat(20)));
        assert_eq!(bar(0.5).matches('#').count(), 10);
    }
}
