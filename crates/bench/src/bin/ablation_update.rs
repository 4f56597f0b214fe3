//! Ablation (§6.3 design space) — mitigating shading with the LL
//! connection-update procedure instead of randomize-at-open.
//!
//! The paper argues updates are awkward (Bluetooth 4.2 updates are
//! non-negotiated; controllers hide the response logic behind HCI) and
//! proposes randomizing at connection setup instead. Here we *measure*
//! the update alternative: same tree, static 75 ms everywhere, but the
//! host periodically re-randomizes every coordinated connection's
//! interval via LL_CONNECTION_UPDATE_IND.
//!
//! Expected: periodic updates break the persistent phase alignment and
//! eliminate most losses, approaching the randomize-at-open results —
//! at the cost of update traffic and transient widened windows.

use mindgap_bench::{banner, pct, write_csv, Opts};
use mindgap_core::{AppConfig, IntervalPolicy, World, WorldConfig};
use mindgap_sim::{Duration, Instant};
use mindgap_testbed::Topology;

fn run(
    label: &str,
    update_period: Option<Duration>,
    hours: u64,
    seed: u64,
    rows: &mut Vec<String>,
) {
    let topo = Topology::paper_tree();
    let app = AppConfig {
        warmup: Duration::from_secs(30),
        ..AppConfig::paper_default(topo.producers(), topo.consumer)
    };
    let mut cfg =
        WorldConfig::paper_default(seed, IntervalPolicy::Static(Duration::from_millis(75)));
    cfg.clock_ppm_range = 6.0;
    let mut world = World::new(cfg, topo.node_configs(), app);
    let end = Instant::from_secs(hours * 3600);
    let mut updates = 0usize;
    match update_period {
        None => world.run_until(end),
        Some(period) => {
            let mut t = Instant::ZERO + period;
            while t <= end {
                world.run_until(t);
                updates += world
                    .rerandomize_intervals(Duration::from_millis(65), Duration::from_millis(85));
                t += period;
            }
            world.run_until(end);
        }
    }
    let r = world.records();
    println!(
        "{label:<42} losses {:>4}   CoAP PDR {}   LL PDR {}   updates {updates}",
        r.conn_losses.len(),
        pct(r.coap_pdr()),
        pct(r.ll_pdr())
    );
    rows.push(format!(
        "{label},{},{:.5},{:.5},{updates}",
        r.conn_losses.len(),
        r.coap_pdr(),
        r.ll_pdr()
    ));
}

fn main() {
    let opts = Opts::parse();
    banner(
        "Ablation",
        "Connection-update mitigation vs no mitigation (tree, static 75 ms)",
        &opts,
    );
    let hours = if opts.full { 12 } else { 3 };
    println!("simulated duration per run: {hours} h, drift ±6 ppm\n");
    let mut rows = Vec::new();
    run(
        "no mitigation (static 75 ms)",
        None,
        hours,
        opts.seed,
        &mut rows,
    );
    run(
        "periodic updates every 10 min → [65:85] ms",
        Some(Duration::from_secs(600)),
        hours,
        opts.seed,
        &mut rows,
    );
    run(
        "periodic updates every 60 min → [65:85] ms",
        Some(Duration::from_secs(3600)),
        hours,
        opts.seed,
        &mut rows,
    );
    write_csv(
        &opts,
        "ablation_update.csv",
        "config,conn_losses,coap_pdr,ll_pdr,updates",
        &rows,
    );
    println!("\nReading: update-based re-randomization also prevents shading —");
    println!("it is the same cure (distinct, moving phases) delivered late.");
    println!("The paper prefers randomize-at-open because it needs no extra");
    println!("procedures and cannot ping-pong (§6.3 design-space discussion).");
}
