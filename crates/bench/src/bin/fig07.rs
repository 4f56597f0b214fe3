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
//! The two topology runs are independent jobs on the campaign engine
//! (`--jobs N`); artifacts under `results/campaigns/` let an
//! interrupted run resume.

use mindgap_bench::{banner, cdf_points, pct, write_csv, Opts};
use mindgap_campaign::GridBuilder;
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

fn main() {
    let opts = Opts::parse();
    banner(
        "Figure 7",
        "Tree vs line: CoAP PDR over time and RTT CDF (75 ms / 1 s ±0.5 s)",
        &opts,
    );
    let duration = if opts.full {
        Duration::from_secs(3600)
    } else {
        Duration::from_secs(600)
    };
    let policy = IntervalPolicy::Static(Duration::from_millis(75));

    let campaign = GridBuilder::new(&format!("fig07-{}", opts.mode()), opts.seed)
        .axis("topo", ["tree", "line"].iter().map(|s| s.to_string()))
        .explicit_seeds(&[opts.seed])
        .build();
    let report = mindgap_campaign::run(&campaign, &opts.campaign(), |job| {
        let topo = match job.params["topo"].as_str() {
            "line" => Topology::paper_line(),
            _ => Topology::paper_tree(),
        };
        let spec = ExperimentSpec::paper_default(topo, policy, job.seed).with_duration(duration);
        to_job_result(&run_ble(&spec), &[])
    });

    let mut rtt_rows: Vec<String> = Vec::new();
    for name in ["tree", "line"] {
        let results = report.results_for_config(&format!("topo={name}"));
        let Some(r) = results.first() else {
            eprintln!("[fig07] {name} run failed; skipping");
            continue;
        };
        println!("\n--- {name} topology ---");
        println!(
            "requests sent: {}   completed: {}   CoAP PDR: {}  (paper: ≈99.95%)",
            r.get(keys::TOTAL_SENT) as u64,
            r.get(keys::TOTAL_DONE) as u64,
            pct(r.get(keys::COAP_PDR))
        );
        println!(
            "connection losses: {}   link-layer PDR: {}",
            r.get(keys::CONN_LOSSES) as u64,
            pct(r.get(keys::LL_PDR))
        );

        // (a) PDR over time.
        let bucket_secs = (r.get(keys::BUCKET_S) * 1000.0).round() as u64 / 1000;
        let series = r.get_series(keys::PDR_SERIES);
        println!("\nFig 7(a) CoAP PDR per {bucket_secs}s bucket:");
        let rows: Vec<String> = series
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{},{:.5}", i as u64 * bucket_secs, p))
            .collect();
        for (i, p) in series.iter().enumerate() {
            println!(
                "  t={:>5}s  {}  {}",
                i as u64 * bucket_secs,
                stats::bar(*p),
                pct(*p)
            );
        }
        write_csv(&opts, &format!("fig07a_{name}.csv"), "t_s,pdr", &rows);

        // (b) RTT CDF.
        let rtt = r.get_series(keys::RTT_S);
        let points = cdf_points(3.0, 61);
        let cdf = stats::cdf_at(rtt, &points);
        println!("\nFig 7(b) RTT CDF ({name}):");
        for q in [0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            println!(
                "  p{:>4}: {:7.3} s",
                (q * 100.0) as u32,
                stats::quantile(rtt, q).unwrap_or(f64::NAN)
            );
        }
        for (p, f) in points.iter().zip(cdf.iter()) {
            rtt_rows.push(format!("{name},{p:.3},{f:.4}"));
        }
    }
    write_csv(&opts, "fig07b_rtt_cdf.csv", "topology,rtt_s,cdf", &rtt_rows);

    println!("\nShape checks vs paper:");
    println!("  * both topologies ≥99.9% PDR, losses only from connection drops;");
    println!("  * line RTT ≈ 3.5× tree RTT (hop-count ratio 7.5 / 2.14);");
    println!("  * a small tail (<3%) spans multiple connection intervals");
    println!("    (link-layer retransmissions cost one interval each).");
}
