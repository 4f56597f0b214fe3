//! Figure 14 — distribution of BLE connection losses across interval
//! configurations (1 s producer interval, 5×1 h each).
//!
//! Paper reference: static intervals lose connections at every
//! setting (most at the small, tightly packed intervals); the
//! randomized windows (grey in the paper) are almost loss-free, with
//! residual losses only for small intervals under load — attributed
//! to interference, not shading.
//!
//! Shape check: static ≫ randomized; the randomized windows largely
//! eliminate shading-induced losses.
//!
//! The per-configuration runs are independent, so they are sharded
//! across a campaign worker pool (`--jobs N`) with resumable
//! artifacts under `results/campaigns/`.

use std::collections::BTreeMap;

use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

use crate::{Opts, Report};

/// Run Figure 14.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let duration = Duration::from_secs(opts.pick(3600, 1200));
    let configs = super::interval_configs();
    let policies: BTreeMap<String, IntervalPolicy> = configs.iter().cloned().collect();

    let campaign = opts
        .grid("fig14")
        .axis("conn", configs.iter().map(|(label, _)| label.clone()))
        .explicit_seeds(&opts.seeds())
        .build();
    let report = rep.campaign(opts, &campaign, |job| {
        let policy = policies[&job.params["conn"]];
        let spec = ExperimentSpec::paper_default(Topology::paper_tree(), policy, job.seed)
            .with_duration(duration)
            .with_clock_ppm(5.0);
        to_job_result(&run_ble(&spec), &[])
    });
    rep.scalar("runs_per_config", opts.seeds().len() as f64, "5");
    rep.scalar("run_s", (duration.millis() / 1000) as f64, "3600");

    let mut rows = Vec::new();
    let mut static_losses = 0usize;
    let mut random_losses = 0usize;
    for (label, _) in &configs {
        let results = report.results_for_config(&format!("conn={label}"));
        if results.is_empty() {
            continue;
        }
        let losses: usize = results
            .iter()
            .map(|r| r.get(keys::CONN_LOSSES) as usize)
            .sum();
        let pdr_sum: f64 = results.iter().map(|r| r.get(keys::COAP_PDR)).sum();
        let ll_sum: f64 = results.iter().map(|r| r.get(keys::LL_PDR)).sum();
        let n = results.len() as f64;
        if label.starts_with('[') {
            random_losses += losses;
        } else {
            static_losses += losses;
        }
        rows.push(format!(
            "{label},{losses},{:.5},{:.5}",
            pdr_sum / n,
            ll_sum / n
        ));
    }
    rep.table("fig14_losses.csv", "config,losses,coap_pdr,ll_pdr", rows);
    rep.scalar("static_losses", static_losses as f64, "at every setting");
    rep.scalar(
        "random_losses",
        random_losses as f64,
        "≈0, small intervals only",
    );
    rep
}
