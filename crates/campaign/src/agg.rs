//! Aggregation of per-seed results into per-configuration summaries.
//!
//! The paper reports each Fig. 14/15 cell as an aggregate over five
//! seeds; this module is the campaign-side fold and the repository's
//! one copy of the sample standard deviation and 95 % confidence
//! interval.

use crate::pool::CampaignReport;

/// Five-number summary of one metric across a configuration's seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of finite samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Half-width of the normal-approximation 95 % confidence
    /// interval: `1.96 · s / √n` (0 when `n < 2`).
    pub ci95: f64,
}

/// Summarize a sample set; `None` when no finite values remain.
/// Non-finite values (a metric that was NaN for one seed) are
/// dropped rather than poisoning the aggregate.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    let n = finite.len();
    let mean = finite.iter().sum::<f64>() / n as f64;
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let ci95 = if n < 2 {
        0.0
    } else {
        let var = finite.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        1.96 * var.sqrt() / (n as f64).sqrt()
    };
    Some(Summary {
        n,
        mean,
        min,
        max,
        ci95,
    })
}

/// Summarize one scalar metric over all completed seeds of a
/// configuration.
pub fn summarize_metric(report: &CampaignReport, config: &str, metric: &str) -> Option<Summary> {
    let values: Vec<f64> = report
        .results_for_config(config)
        .iter()
        .map(|r| r.get(metric))
        .collect();
    summarize(&values)
}

/// Concatenate one series over all completed seeds of a configuration
/// (e.g. pooling RTT samples before a CDF/quantile, exactly like the
/// serial figure loops did).
pub fn concat_series(report: &CampaignReport, config: &str, series: &str) -> Vec<f64> {
    report
        .results_for_config(config)
        .iter()
        .flat_map(|r| r.get_series(series).iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        // sample sd = sqrt(2.5); ci95 = 1.96*sd/sqrt(5).
        assert!((s.ci95 - 1.96 * 2.5f64.sqrt() / 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_ci() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.n, s.mean, s.ci95), (1, 7.0, 0.0));
    }

    #[test]
    fn nan_samples_dropped() {
        let s = summarize(&[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 2.0);
        assert!(summarize(&[f64::NAN]).is_none());
        assert!(summarize(&[]).is_none());
    }
}
