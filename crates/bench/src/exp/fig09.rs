//! Figure 9 — high network load and slow connection intervals.
//!
//! (a) Producer interval 100 ms ±50 ms, connection interval 75 ms:
//!     the offered load exceeds parts of the tree's capacity; packet
//!     buffers overflow; the PDR is unevenly distributed across
//!     producers (paper: average ≈75 %).
//! (b) Connection interval 2 s, producer interval 1 s ±0.5 s: burst
//!     transfers at each event overwhelm buffers; PDR drops further
//!     (paper Fig. 9b shows a fluctuating average around ≈50 %).
//!
//! Shape checks: in (a) a load of ≈45 % of single-link capacity
//! already loses packets, because buffers at bottleneck subtrees
//! overflow and the PDR varies per producer; in (b) the slower
//! connection interval turns smooth traffic into bursts and loses
//! more, despite the lower per-event load.
//!
//! Both cases run as one campaign (`--jobs N`, resumable artifacts
//! under `results/campaigns/`); case (a) records per-producer PDR
//! series in its artifact for the heatmap.

use mindgap_sim::Duration;
use mindgap_testbed::campaign::{drops_of, keys, to_job_result};
use mindgap_testbed::run_ble;
use mindgap_testbed::stats;

use crate::{Opts, Report};

fn bucket_rows(series: &[f64]) -> Vec<String> {
    series
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{i},{p:.4}"))
        .collect()
}

/// Run Figure 9.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let duration = Duration::from_secs(opts.pick(3600, 600));

    let producers: Vec<u16> = (1..15).collect();
    let campaign = opts
        .grid("fig09")
        .axis("case", ["high_load", "slow_conn"])
        .explicit_seeds(&[opts.seed])
        .build();
    let report = rep.campaign(opts, &campaign, |job| match job.params["case"].as_str() {
        "high_load" => {
            let spec = super::tree_static(75, job.seed)
                .with_duration(duration)
                .with_producer_interval(Duration::from_millis(100));
            to_job_result(&run_ble(&spec), &producers)
        }
        _ => {
            let spec = super::tree_static(2_000, job.seed).with_duration(duration);
            to_job_result(&run_ble(&spec), &[])
        }
    });

    // ---- (a) high load ----
    if let Some(r) = report.results_for_config("case=high_load").first() {
        rep.scalar("a.coap_pdr", r.get(keys::COAP_PDR), "≈0.75");
        rep.scalar(
            "a.pool_drops",
            r.get(keys::POOL_DROPS),
            "overflowing buffers",
        );
        rep.scalar("a.conn_losses", r.get(keys::CONN_LOSSES), "—");
        rep.scalar("a.reconnects", r.get(keys::RECONNECTS), "—");
        for (reason, n) in drops_of(r) {
            rep.scalar(format!("a.drops.{reason}"), n as f64, "—");
        }
        let mut rows = Vec::new();
        let mut node_pdrs = Vec::new();
        for n in 1..15u16 {
            let series = r.get_series(&format!("{}{n}", keys::PDR_NODE_PREFIX));
            let avg = stats::mean(series).unwrap_or(1.0);
            node_pdrs.push(avg);
            rows.push(format!(
                "{n},{avg:.4},{}",
                series
                    .iter()
                    .map(|v| format!("{v:.3}"))
                    .collect::<Vec<_>>()
                    .join(";")
            ));
        }
        let uneven = "uneven, whole subtrees dark";
        rep.scalar(
            "a.node_pdr.min",
            node_pdrs.iter().copied().fold(f64::NAN, f64::min),
            uneven,
        );
        rep.scalar(
            "a.node_pdr.max",
            node_pdrs.iter().copied().fold(f64::NAN, f64::max),
            uneven,
        );
        rep.table("fig09a_per_node_pdr.csv", "node,avg_pdr,series", rows);
        rep.table(
            "fig09a_avg_pdr_series.csv",
            "bucket,pdr",
            bucket_rows(r.get_series(keys::PDR_SERIES)),
        );
    }

    // ---- (b) slow connection interval ----
    if let Some(rb) = report.results_for_config("case=slow_conn").first() {
        rep.scalar("b.coap_pdr", rb.get(keys::COAP_PDR), "≈0.50, below (a)");
        rep.scalar("b.pool_drops", rb.get(keys::POOL_DROPS), "burst overflow");
        rep.table(
            "fig09b_avg_pdr_series.csv",
            "bucket,pdr",
            bucket_rows(rb.get_series(keys::PDR_SERIES)),
        );
    }
    rep
}
