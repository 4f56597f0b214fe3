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
//! Each sweep runs as its own campaign (`fig08a-*` / `fig08b-*`) so
//! the 13 runs shard across `--jobs N` workers and resume from
//! `results/campaigns/` after an interrupt.

use mindgap_bench::{banner, write_csv, Opts};
use mindgap_campaign::GridBuilder;
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

fn main() {
    let opts = Opts::parse();
    banner(
        "Figure 8",
        "RTT vs connection interval and producer interval (tree)",
        &opts,
    );
    let duration = if opts.full {
        Duration::from_secs(3600)
    } else {
        Duration::from_secs(420)
    };

    // ---- (a) connection-interval sweep ----
    let conn_ms = [25u64, 50, 75, 100, 250, 500, 750];
    let campaign_a = GridBuilder::new(&format!("fig08a-{}", opts.mode()), opts.seed)
        .axis("conn", conn_ms.iter().map(u64::to_string))
        .explicit_seeds(&[opts.seed])
        .build();
    let report_a = mindgap_campaign::run(&campaign_a, &opts.campaign(), |job| {
        let ms: u64 = job.params["conn"].parse().expect("conn axis");
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(ms)),
            job.seed,
        )
        .with_duration(duration);
        to_job_result(&run_ble(&spec), &[])
    });

    println!("\nFig 8(a): producer 1 s ±0.5 s, connection interval sweep");
    println!(
        "{:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "conn itvl", "p25", "p50", "p75", "p95", "p99", "max/itvl"
    );
    let mut rows = Vec::new();
    for ms in conn_ms {
        let rtt =
            mindgap_campaign::agg::concat_series(&report_a, &format!("conn={ms}"), keys::RTT_S);
        let q = |p: f64| stats::quantile(&rtt, p).unwrap_or(f64::NAN);
        let max_ratio = q(1.0) / (ms as f64 / 1000.0);
        println!(
            "{:>8}ms {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.1}x",
            ms,
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.95),
            q(0.99),
            max_ratio
        );
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
    write_csv(
        &opts,
        "fig08a_conn_interval.csv",
        "conn_itvl_ms,p25,p50,p75,p95,p99,max_over_interval",
        &rows,
    );
    println!("  (paper: bulk of RTTs within 1–4 connection intervals — mean");
    println!("   hops 2.14 each way; stragglers reach tens of intervals)");

    // ---- (b) producer-interval sweep ----
    let prod_ms = [100u64, 500, 1_000, 5_000, 10_000, 30_000];
    let campaign_b = GridBuilder::new(&format!("fig08b-{}", opts.mode()), opts.seed)
        .axis("prod", prod_ms.iter().map(u64::to_string))
        .explicit_seeds(&[opts.seed])
        .build();
    let report_b = mindgap_campaign::run(&campaign_b, &opts.campaign(), |job| {
        let ms: u64 = job.params["prod"].parse().expect("prod axis");
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            job.seed,
        )
        .with_duration(duration)
        .with_producer_interval(Duration::from_millis(ms));
        to_job_result(&run_ble(&spec), &[])
    });

    println!("\nFig 8(b): connection interval 75 ms, producer interval sweep");
    println!(
        "{:>13} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "producer itvl", "p25", "p50", "p75", "p99", "CoAP PDR"
    );
    let mut rows = Vec::new();
    for ms in prod_ms {
        let config = format!("prod={ms}");
        let rtt = mindgap_campaign::agg::concat_series(&report_b, &config, keys::RTT_S);
        let q = |p: f64| stats::quantile(&rtt, p).unwrap_or(f64::NAN);
        let pdr = report_b
            .results_for_config(&config)
            .first()
            .map(|r| r.get(keys::COAP_PDR))
            .unwrap_or(f64::NAN);
        println!(
            "{:>11}ms {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.2}%",
            ms,
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.99),
            pdr * 100.0
        );
        rows.push(format!(
            "{ms},{:.4},{:.4},{:.4},{:.4},{:.5}",
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.99),
            pdr
        ));
    }
    write_csv(
        &opts,
        "fig08b_producer_interval.csv",
        "producer_itvl_ms,p25,p50,p75,p99,coap_pdr",
        &rows,
    );
    println!("  (paper: delays similar for producer intervals ≥1 s; only");
    println!("   load beyond capacity — the 100 ms case — inflates them)");
}
