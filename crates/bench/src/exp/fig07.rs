//! Figure 7 — reliability and latency under moderate load.
//!
//! (a) CoAP PDR over time for the tree and the line topology;
//! (b) RTT CDFs for both. Connection interval 75 ms (static),
//! producer interval 1 s ±0.5 s.
//!
//! Paper reference points: tree loses 26/50 527 packets (PDR
//! 99.949 %), line 20/50 412 (99.960 %); RTTs cluster at path-length ×
//! connection-interval multiples, line ≈ 3.5× tree (mean hops 7.5 vs
//! 2.14); <3 % of packets see multi-interval runaway delays.
//!
//! Shape checks: both topologies ≥99.9 % PDR, losses only from
//! connection drops; line RTT ≈ 3.5× tree RTT; a small tail (<3 %)
//! spans multiple connection intervals (link-layer retransmissions
//! cost one interval each).
//!
//! The two topology runs are independent jobs on the campaign engine
//! (`--jobs N`); artifacts under `results/campaigns/` let an
//! interrupted run resume.

use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

use crate::{Opts, Report};

/// Run Figure 7.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let duration = Duration::from_secs(opts.pick(3600, 600));
    let policy = IntervalPolicy::Static(Duration::from_millis(75));

    let campaign = opts
        .grid("fig07")
        .axis("topo", ["tree", "line"])
        .explicit_seeds(&[opts.seed])
        .build();
    let report = rep.campaign(opts, &campaign, |job| {
        let topo = match job.params["topo"].as_str() {
            "line" => Topology::paper_line(),
            _ => Topology::paper_tree(),
        };
        let spec = ExperimentSpec::paper_default(topo, policy, job.seed).with_duration(duration);
        to_job_result(&run_ble(&spec), &[])
    });

    let mut rtt_rows: Vec<String> = Vec::new();
    for (name, paper_sent, paper_pdr) in [
        ("tree", "50527 in 1 h", "0.99949"),
        ("line", "50412 in 1 h", "0.99960"),
    ] {
        let results = report.results_for_config(&format!("topo={name}"));
        let Some(r) = results.first() else {
            continue;
        };
        let rtt = r.get_series(keys::RTT_S);
        let q = |p: f64| stats::quantile(rtt, p).unwrap_or(f64::NAN);
        rep.scalar(format!("{name}.sent"), r.get(keys::TOTAL_SENT), paper_sent);
        rep.scalar(format!("{name}.done"), r.get(keys::TOTAL_DONE), "—");
        rep.scalar(format!("{name}.coap_pdr"), r.get(keys::COAP_PDR), paper_pdr);
        rep.scalar(format!("{name}.conn_losses"), r.get(keys::CONN_LOSSES), "—");
        rep.scalar(format!("{name}.ll_pdr"), r.get(keys::LL_PDR), "—");
        rep.scalar(format!("{name}.rtt_p50_s"), q(0.5), "—");
        rep.scalar(format!("{name}.rtt_p99_s"), q(0.99), "—");

        // (a) PDR over time.
        let bucket_secs = (r.get(keys::BUCKET_S) * 1000.0).round() as u64 / 1000;
        let rows: Vec<String> = r
            .get_series(keys::PDR_SERIES)
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{},{:.5}", i as u64 * bucket_secs, p))
            .collect();
        rep.table(&format!("fig07a_{name}.csv"), "t_s,pdr", rows);

        // (b) RTT CDF.
        let points = stats::linspace(0.0, 3.0, 61);
        let cdf = stats::cdf_at(rtt, &points);
        for (p, f) in points.iter().zip(cdf.iter()) {
            rtt_rows.push(format!("{name},{p:.3},{f:.4}"));
        }
    }
    if let (Some(tree), Some(line)) = (rep.get("tree.rtt_p50_s"), rep.get("line.rtt_p50_s")) {
        rep.scalar(
            "line_over_tree.rtt_p50",
            line / tree,
            "≈3.5 (hops 7.5 / 2.14)",
        );
    }
    rep.table("fig07b_rtt_cdf.csv", "topology,rtt_s,cdf", rtt_rows);
    rep
}
