//! Figure 10 — BLE vs IEEE 802.15.4 in the same tree topology.
//!
//! Paper reference points: the 802.15.4 network operates at its
//! capacity limit and averages 83.3 % CoAP PDR; BLE exceeds 99 % in
//! the same scenario. Delivered 802.15.4 packets are *faster*
//! (backoff timers ≪ connection intervals), and BLE's latency scales
//! with the connection interval (25 ms vs 75 ms curves).

use mindgap_bench::{banner, cdf_points, pct, write_csv, Opts};
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, run_ieee, ExperimentSpec, Topology};

fn main() {
    let opts = Opts::parse();
    banner(
        "Figure 10",
        "BLE vs IEEE 802.15.4 (tree, 1 s ±0.5 s)",
        &opts,
    );
    let duration = if opts.full {
        Duration::from_secs(3600)
    } else {
        Duration::from_secs(600)
    };

    let mut cdf_rows = Vec::new();
    let mut summary_rows = Vec::new();
    let points = cdf_points(0.6, 61);

    // BLE at two connection intervals.
    for ms in [25u64, 75] {
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(ms)),
            opts.seed,
        )
        .with_duration(duration);
        let res = run_ble(&spec);
        report(
            &format!("BLE, connection interval {ms}ms"),
            &res.records,
            &points,
            &mut cdf_rows,
            &mut summary_rows,
        );
    }

    // IEEE 802.15.4.
    let spec = ExperimentSpec::paper_default(
        Topology::paper_tree(),
        IntervalPolicy::Static(Duration::from_millis(75)),
        opts.seed,
    )
    .with_duration(duration);
    let res = run_ieee(&spec);
    report(
        "IEEE 802.15.4, CSMA/CA",
        &res.records,
        &points,
        &mut cdf_rows,
        &mut summary_rows,
    );

    write_csv(&opts, "fig10b_rtt_cdf.csv", "stack,rtt_s,cdf", &cdf_rows);
    write_csv(
        &opts,
        "fig10a_summary.csv",
        "stack,coap_pdr,p50_s,p99_s",
        &summary_rows,
    );

    println!("\nShape checks vs paper:");
    println!("  * 802.15.4 PDR well below BLE's (paper: 83.3% vs >99%) — bounded");
    println!("    retries drop packets where BLE's ARQ persists;");
    println!("  * delivered 802.15.4 packets are fastest (sub-50 ms median);");
    println!("  * BLE latency scales with the connection interval (25 < 75 ms).");
}

fn report(
    label: &str,
    r: &mindgap_core::Records,
    points: &[f64],
    cdf_rows: &mut Vec<String>,
    summary_rows: &mut Vec<String>,
) {
    let rtt = r.rtt_sorted_secs();
    let q = |p: f64| stats::quantile(&rtt, p).unwrap_or(f64::NAN);
    println!("\n--- {label} ---");
    println!(
        "CoAP PDR {}   RTT p50 {:.3}s  p90 {:.3}s  p99 {:.3}s",
        pct(r.coap_pdr()),
        q(0.5),
        q(0.9),
        q(0.99)
    );
    let cdf = stats::cdf_at(&rtt, points);
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
