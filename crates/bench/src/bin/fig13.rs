//! Figure 13 — 24-hour comparison: static vs randomized connection
//! intervals (the §6.3 mitigation) in the tree and line topologies.
//!
//! Paper reference points: static 75 ms suffers 95 connection losses
//! over 24 h with visible CoAP PDR dips; randomized \[65:85\] ms loses
//! **zero** connections and **zero** CoAP packets out of >1.2 M; the
//! link-layer PDR drops slightly (98 → 96 % tree) — the price of
//! scattered single-event collisions instead of rare long shading
//! episodes; worst-case RTTs become *more* deterministic.

use mindgap_bench::{banner, pct, write_csv, Opts};
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

fn main() {
    let opts = Opts::parse();
    banner("Figure 13", "24 h static vs randomized connection intervals", &opts);
    let duration = if opts.full {
        Duration::from_secs(24 * 3600)
    } else {
        Duration::from_secs(2 * 3600)
    };
    println!(
        "simulated duration per run: {} h",
        duration.millis() / 3_600_000
    );

    let static_policy = IntervalPolicy::Static(Duration::from_millis(75));
    let random_policy = IntervalPolicy::Randomized {
        lo: Duration::from_millis(65),
        hi: Duration::from_millis(85),
    };

    let mut rows = Vec::new();
    for topo_fn in [Topology::paper_tree as fn() -> Topology, Topology::paper_line] {
        for (policy, pname) in [(static_policy, "static 75ms"), (random_policy, "random [65:85]ms")]
        {
            let topo = topo_fn();
            let tname = topo.name;
            let spec = ExperimentSpec::paper_default(topo, policy, opts.seed)
                .with_duration(duration)
                .with_clock_ppm(3.0);
            let res = run_ble(&spec);
            let r = &res.records;
            let rtt = r.rtt_sorted_secs();
            let q = |p: f64| stats::quantile(&rtt, p).unwrap_or(f64::NAN);
            println!("\n--- {tname}, {pname} ---");
            println!(
                "  CoAP: {} sent, {} lost → PDR {}",
                r.total_sent(),
                r.total_sent() - r.total_done(),
                pct(r.coap_pdr())
            );
            println!(
                "  LL PDR {}   connection losses {}   RTT p50 {:.3}s p99 {:.3}s max {:.3}s",
                pct(r.ll_pdr()),
                res.conn_losses,
                q(0.5),
                q(0.99),
                q(1.0)
            );
            rows.push(format!(
                "{tname},{pname},{},{},{:.5},{:.5},{},{:.4},{:.4},{:.4}",
                r.total_sent(),
                r.total_done(),
                r.coap_pdr(),
                r.ll_pdr(),
                res.conn_losses,
                q(0.5),
                q(0.99),
                q(1.0)
            ));
        }
    }
    write_csv(
        &opts,
        "fig13_summary.csv",
        "topology,policy,sent,done,coap_pdr,ll_pdr,conn_losses,rtt_p50,rtt_p99,rtt_max",
        &rows,
    );

    println!("\nShape checks vs paper:");
    println!("  * static: connection losses occur (shading) and cost CoAP packets;");
    println!("  * randomized: zero losses, zero CoAP loss;");
    println!("  * randomized LL PDR slightly below static (scattered single-event");
    println!("    collisions replace rare long episodes);");
    println!("  * randomized tail RTT (p99/max) bounded tighter than static.");
}
