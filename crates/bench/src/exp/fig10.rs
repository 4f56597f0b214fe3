//! Figure 10 — BLE vs IEEE 802.15.4 in the same tree topology.
//!
//! Paper reference points: the 802.15.4 network operates at its
//! capacity limit and averages 83.3 % CoAP PDR; BLE exceeds 99 % in
//! the same scenario. Delivered 802.15.4 packets are *faster*
//! (backoff timers ≪ connection intervals), and BLE's latency scales
//! with the connection interval (25 ms vs 75 ms curves).
//!
//! Shape checks: 802.15.4 PDR is well below BLE's, because bounded
//! retries drop packets where BLE's ARQ persists; delivered 802.15.4
//! packets are fastest (sub-50 ms median); BLE latency scales with the
//! connection interval (25 < 75 ms).

use mindgap_sim::Duration;
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, run_ieee};

use crate::{Opts, Report};

/// Run Figure 10.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let duration = Duration::from_secs(opts.pick(3600, 600));
    let spec = |ms| super::tree_static(ms, opts.seed).with_duration(duration);
    let mut cdf_rows = Vec::new();
    let mut summary_rows = Vec::new();
    let points = stats::linspace(0.0, 0.6, 61);
    for (key, label, paper_pdr) in [
        ("ble25", "BLE, connection interval 25ms", ">0.99"),
        ("ble75", "BLE, connection interval 75ms", ">0.99"),
        ("ieee", "IEEE 802.15.4, CSMA/CA", "0.833"),
    ] {
        let r = match key {
            "ble25" => run_ble(&spec(25)).records,
            "ble75" => run_ble(&spec(75)).records,
            _ => run_ieee(&spec(75)).records,
        };
        let rtt = r.rtt_sorted_secs();
        let q = |p: f64| stats::quantile(&rtt, p).unwrap_or(f64::NAN);
        rep.scalar(format!("{key}.coap_pdr"), r.coap_pdr(), paper_pdr);
        let fastest = "802.15.4 < BLE 25 < BLE 75 ms";
        rep.scalar(format!("{key}.rtt_p50_s"), q(0.5), fastest);
        rep.scalar(format!("{key}.rtt_p90_s"), q(0.9), "—");
        rep.scalar(format!("{key}.rtt_p99_s"), q(0.99), "—");
        let cdf = stats::cdf_at(&rtt, &points);
        for (p, f) in points.iter().zip(cdf.iter()) {
            cdf_rows.push(format!("{label},{p:.3},{f:.4}"));
        }
        summary_rows.push(format!(
            "{label},{:.5},{:.4},{:.4}",
            r.coap_pdr(),
            q(0.5),
            q(0.99)
        ));
    }
    rep.table("fig10b_rtt_cdf.csv", "stack,rtt_s,cdf", cdf_rows);
    rep.table(
        "fig10a_summary.csv",
        "stack,coap_pdr,p50_s,p99_s",
        summary_rows,
    );
    rep
}
