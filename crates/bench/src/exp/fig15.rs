//! Figure 15 / Appendix B — the aggregated 60-configuration matrix:
//! producer intervals {0.1, 0.5, 1, 5, 10, 30} s × connection interval
//! configurations {25, 50, 75, 100, 500 ms static; \[15:35\], \[40:60\],
//! \[65:85\], \[90:110\], \[490:510\] ms randomized}, each 5×1 h in the
//! paper. Reports link-layer PDR, CoAP PDR, median CoAP RTT and
//! connection losses per cell (tree topology).
//!
//! Shape checks: producer 100 ms overloads every configuration (CoAP
//! PDR well below 1, worst at large/slow intervals); at ≥1 s producer
//! intervals CoAP PDR is ≈1 except for losses caused by connection
//! drops in the static columns; connection losses concentrate in the
//! static columns; RTT scales with the connection interval in every
//! row.
//!
//! Quick mode trims to 3 producer intervals × all 10 interval
//! configurations × 1 seed × 10 min so it completes in minutes; pass
//! `--full` for the complete matrix. The grid is sharded across a
//! campaign worker pool (`--jobs N`, default all cores) and resumes
//! from `results/campaigns/` after an interrupt.

use std::collections::BTreeMap;

use mindgap_campaign::concat_series;
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

use crate::{Opts, Report};

/// Run Figure 15.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let duration = Duration::from_secs(opts.pick(3600, 600));
    let producer_intervals: Vec<u64> = opts.pick(
        vec![100, 500, 1_000, 5_000, 10_000, 30_000],
        vec![100, 1_000, 10_000],
    );
    let conn_configs = super::interval_configs();
    let policies: BTreeMap<String, IntervalPolicy> = conn_configs.iter().cloned().collect();

    let campaign = opts
        .grid("fig15")
        .axis("prod", producer_intervals.iter().map(u64::to_string))
        .axis("conn", conn_configs.iter().map(|(label, _)| label.clone()))
        .explicit_seeds(&opts.seeds())
        .build();
    let report = rep.campaign(opts, &campaign, |job| {
        let prod: u64 = job.params["prod"].parse().expect("prod axis");
        let policy = policies[&job.params["conn"]];
        let spec = ExperimentSpec::paper_default(Topology::paper_tree(), policy, job.seed)
            .with_duration(duration)
            .with_producer_interval(Duration::from_millis(prod))
            .with_clock_ppm(5.0);
        to_job_result(&run_ble(&spec), &[])
    });

    let mut rows = Vec::new();
    for &prod in &producer_intervals {
        for (label, _) in &conn_configs {
            let config = format!("prod={prod},conn={label}");
            let results = report.results_for_config(&config);
            if results.is_empty() {
                continue;
            }
            let ll: f64 = results.iter().map(|r| r.get(keys::LL_PDR)).sum();
            let coap: f64 = results.iter().map(|r| r.get(keys::COAP_PDR)).sum();
            let losses: usize = results
                .iter()
                .map(|r| r.get(keys::CONN_LOSSES) as usize)
                .sum();
            let rtts = concat_series(&report, &config, keys::RTT_S);
            let n = results.len() as f64;
            let p50 = stats::quantile(&rtts, 0.5).unwrap_or(f64::NAN);
            rows.push(format!(
                "{prod},{label},{:.5},{:.5},{:.4},{losses}",
                ll / n,
                coap / n,
                p50
            ));
        }
    }
    rep.table(
        "fig15_matrix.csv",
        "producer_ms,conn_config,ll_pdr,coap_pdr,rtt_p50,conn_losses",
        rows,
    );
    rep
}
