//! Figure 8 — round-trip times in the tree topology.
//!
//! (a) RTT CDFs for BLE connection intervals
//!     {25, 50, 75, 100, 250, 500, 750} ms under moderate load;
//! (b) RTT CDFs for producer intervals {0.1, 0.5, 1, 5, 10, 30} s at a
//!     fixed 75 ms connection interval.
//!
//! Paper reference points: most packets complete between 1× and 4×
//! the connection interval (mean hop count 2.14); occasional runaway
//! delays reach ≈22× the interval; the producer interval has little
//! effect until the offered load exceeds capacity (the 100 ms
//! producer interval shows elevated delays).
//!
//! Shape checks: (a) the bulk of RTTs lies within 1–4 connection
//! intervals and stragglers reach tens of intervals; (b) delays are
//! similar for producer intervals ≥1 s, and only load beyond capacity
//! (the 100 ms case) inflates them.
//!
//! Each sweep runs as its own campaign (`fig08a-*` / `fig08b-*`) so
//! the 13 runs shard across `--jobs N` workers and resume from
//! `results/campaigns/` after an interrupt.

use mindgap_campaign::concat_series;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::run_ble;
use mindgap_testbed::stats;

use crate::{Opts, Report};

/// Run Figure 8.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let duration = Duration::from_secs(opts.pick(3600, 420));

    // ---- (a) connection-interval sweep ----
    let conn_ms = [25u64, 50, 75, 100, 250, 500, 750];
    let campaign_a = opts
        .grid("fig08a")
        .axis("conn", conn_ms.iter().map(u64::to_string))
        .explicit_seeds(&[opts.seed])
        .build();
    let report_a = rep.campaign(opts, &campaign_a, |job| {
        let ms: u64 = job.params["conn"].parse().expect("conn axis");
        let spec = super::tree_static(ms, job.seed).with_duration(duration);
        to_job_result(&run_ble(&spec), &[])
    });

    let mut rows = Vec::new();
    let mut worst_ratio = f64::NAN;
    for ms in conn_ms {
        let rtt = concat_series(&report_a, &format!("conn={ms}"), keys::RTT_S);
        let q = |p: f64| stats::quantile(&rtt, p).unwrap_or(f64::NAN);
        let max_ratio = q(1.0) / (ms as f64 / 1000.0);
        worst_ratio = worst_ratio.max(max_ratio);
        if ms == 25 || ms == 750 {
            rep.scalar(
                format!("a.conn{ms}.rtt_p50_s"),
                q(0.5),
                "1–4 intervals (2.14 mean hops)",
            );
        }
        rows.push(format!(
            "{ms},{:.4},{:.4},{:.4},{:.4},{:.4},{:.2}",
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.95),
            q(0.99),
            max_ratio
        ));
    }
    rep.scalar("a.max_rtt_over_interval", worst_ratio, "up to ≈22");
    rep.table(
        "fig08a_conn_interval.csv",
        "conn_itvl_ms,p25,p50,p75,p95,p99,max_over_interval",
        rows,
    );

    // ---- (b) producer-interval sweep ----
    let prod_ms = [100u64, 500, 1_000, 5_000, 10_000, 30_000];
    let campaign_b = opts
        .grid("fig08b")
        .axis("prod", prod_ms.iter().map(u64::to_string))
        .explicit_seeds(&[opts.seed])
        .build();
    let report_b = rep.campaign(opts, &campaign_b, |job| {
        let ms: u64 = job.params["prod"].parse().expect("prod axis");
        let spec = super::tree_static(75, job.seed)
            .with_duration(duration)
            .with_producer_interval(Duration::from_millis(ms));
        to_job_result(&run_ble(&spec), &[])
    });

    let mut rows = Vec::new();
    for ms in prod_ms {
        let config = format!("prod={ms}");
        let rtt = concat_series(&report_b, &config, keys::RTT_S);
        let q = |p: f64| stats::quantile(&rtt, p).unwrap_or(f64::NAN);
        let pdr = report_b
            .results_for_config(&config)
            .first()
            .map(|r| r.get(keys::COAP_PDR))
            .unwrap_or(f64::NAN);
        match ms {
            100 => {
                rep.scalar("b.prod100.rtt_p50_s", q(0.5), "elevated (overload)");
                rep.scalar("b.prod100.coap_pdr", pdr, "—");
            }
            1_000 => rep.scalar("b.prod1000.rtt_p50_s", q(0.5), "flat for ≥1 s"),
            _ => {}
        }
        rows.push(format!(
            "{ms},{:.4},{:.4},{:.4},{:.4},{:.5}",
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.99),
            pdr
        ));
    }
    rep.table(
        "fig08b_producer_interval.csv",
        "producer_itvl_ms,p25,p50,p75,p99,coap_pdr",
        rows,
    );
    rep
}
