//! Self-healing mesh: the paper's future work, running.
//!
//! §9 of the paper names "the coupling of BLE topologies with IP
//! routing" and "adaptability of IP over BLE networks to dynamic
//! environments" as open questions. This example runs the repository's
//! answer: a 3×3 BLE grid with redundant links, RPL-style dynamic
//! routing (DIO/DAO with poisoning), and scripted faults from the
//! `mindgap-chaos` subsystem — a permanently severed link, then a
//! full power-cycle of a relay node.
//!
//! ```text
//!   0 — 1 — 2          0   1 — 2
//!   |   |   |    ✂     |   |   |
//!   3 — 4 — 5   ───►   3 — 4 — 5     (0–1 severed at t = 120 s,
//!   |   |   |          |   |   |      node 4 power-cycled at 200 s)
//!   6 — 7 — 8          6 — 7 — 8
//! ```
//!
//! The fault script is declarative data (`FaultSchedule`), injected at
//! exact simulated instants; the world folds the recovery spans as it
//! records them and reports how long detection and repair actually
//! took.
//!
//! Run with `cargo run --release --example self_healing`.

use mindgap::chaos::{self, FaultSchedule};
use mindgap::core::{AppConfig, IntervalPolicy, World, WorldConfig};
use mindgap::sim::{Duration, Instant, NodeId};
use mindgap::testbed::topology::mesh_node_configs;

/// PDR over a fresh measurement window ending at `to` (clamped: a
/// response completing for a request sent before the window starts
/// can push the raw ratio just above 1).
fn pdr_window(w: &mut World, to: u64) -> f64 {
    w.reset_records();
    w.run_until(Instant::from_secs(to));
    w.records().coap_pdr().min(1.0)
}

fn print_dodag(w: &World) {
    for n in 0..9u16 {
        let (rank, parent) = w.rpl_state(NodeId(n)).unwrap();
        println!(
            "  node {n}: rank {}{}",
            if rank == u16::MAX {
                "∞".into()
            } else {
                rank.to_string()
            },
            parent
                .map(|p| format!(", parent {p}"))
                .unwrap_or_else(|| " (root)".into())
        );
    }
}

fn main() {
    let nodes = mesh_node_configs(3, 3);
    let producers: Vec<NodeId> = (1..9).map(NodeId).collect();
    let app = AppConfig {
        warmup: Duration::from_secs(40),
        ..AppConfig::paper_default(producers, NodeId(0))
    };
    let mut cfg = WorldConfig::paper_default(
        7,
        IntervalPolicy::Randomized {
            lo: Duration::from_millis(65),
            hi: Duration::from_millis(85),
        },
    );
    cfg.dynamic_routing = true;
    let mut w = World::new(cfg, nodes, app);

    // The fault script: pure data, validated up front, injected at
    // exact simulated instants regardless of host parallelism.
    let faults = FaultSchedule::new()
        // Nodes 0 and 1 move apart for good at t = 120 s.
        .link_blackout(Duration::from_secs(120), 0, 1, chaos::forever())
        // Node 4 — the mesh's central relay — loses power for 10 s.
        .node_crash(Duration::from_secs(200), 4, Duration::from_secs(10));
    w.install_faults(&faults);

    println!("forming the mesh and the DODAG …");
    w.run_until(Instant::from_secs(80));
    println!("\nDODAG after formation (rank, parent):");
    print_dodag(&w);

    let healthy = pdr_window(&mut w, 120);
    println!("\nCoAP PDR before any fault  : {:.2} %", healthy * 100.0);

    println!("\n✂ link 0–1 dies at 120 s; node 4 power-cycles at 200 s");
    let during = pdr_window(&mut w, 160);
    println!("CoAP PDR 120–160 s (healing): {:.2} %", during * 100.0);
    let after = pdr_window(&mut w, 300);
    println!("CoAP PDR after reconvergence: {:.2} %", after * 100.0);

    println!("\nDODAG after healing:");
    print_dodag(&w);

    // How each fault was detected and repaired.
    let recs = w.recovery();
    println!("\nrecovery report ({} faults):", recs.len());
    for r in &recs {
        let s = |ns: Option<u64>| {
            ns.map(|v| format!("{:.2} s", v as f64 / 1e9))
                .unwrap_or_else(|| "—".into())
        };
        println!(
            "  {} @ {:.0} s: detect {}, reconnect {}, RPL repair {}, \
             conn losses {}",
            r.label,
            r.at_ns as f64 / 1e9,
            s(r.detect_ns),
            s(r.reconnect_ns),
            s(r.rpl_repair_ns),
            r.conn_downs,
        );
    }

    println!("\nwhat happened: node 1 lost its parent (the root), broadcast a");
    println!("poison beacon so its child could not lure it into a loop, then");
    println!("re-attached through node 4; DAOs rebuilt the downward routes.");
    println!("when node 4 itself power-cycled, its four neighbours detected");
    println!("the loss by supervision timeout, statconn re-formed the edges");
    println!("after reboot, and the DODAG re-converged a second time.");
}
