//! Connection shading, live: the paper's §6 phenomenon in its minimal
//! form, then the mitigation — diagnosed from the observability
//! timeline rather than ad-hoc counters.
//!
//! One relay node subordinates a connection to node 0 and coordinates
//! another to node 2 — both at the *same* 75 ms interval. Their event
//! trains drift into overlap (clock drift ≈ the paper's measured
//! 6 µs/s), events get skipped, and the link dies by supervision
//! timeout. With randomized intervals the same setup survives.
//!
//! Every signal printed below comes from `world.obs`: the anchor
//! overlap windows from [`mindgap::obs::shading`] (the same detector
//! the `timeline` inspector binary uses), the skip/timeout tallies
//! from the recorded spans.
//!
//! Run with `cargo run --release --example shading_demo`
//! (takes ~1 minute: simulates several hours twice).

use mindgap::core::{
    AppConfig, EdgeConfig, EdgeRole, IntervalPolicy, NodeConfig, World, WorldConfig,
};
use mindgap::net::Ipv6Addr;
use mindgap::obs::shading::{anchor_samples, conn_endpoints, find_shared_node_windows};
use mindgap::obs::Span;
use mindgap::sim::{Duration, Instant, NodeId};

fn build(policy: IntervalPolicy) -> World {
    let addr = |i: u16| Ipv6Addr::of_node(i);
    let nodes = vec![
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Subordinate,
            }],
            routes: vec![(addr(2), addr(1))],
        },
        NodeConfig {
            edges: vec![
                EdgeConfig {
                    peer: NodeId(0),
                    role: EdgeRole::Coordinator,
                },
                EdgeConfig {
                    peer: NodeId(2),
                    role: EdgeRole::Subordinate,
                },
            ],
            routes: vec![],
        },
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Coordinator,
            }],
            routes: vec![(addr(0), addr(1))],
        },
    ];
    let app = AppConfig {
        warmup: Duration::from_secs(10),
        ..AppConfig::paper_default(vec![NodeId(2)], NodeId(0))
    };
    let mut cfg = WorldConfig::paper_default(2, policy);
    // The paper measured up to 6 µs/s relative drift between boards.
    cfg.clock_ppm_range = 6.0;
    // Both sides of both links record ~13.3 anchors/s each — ~53/s
    // total, so half a million spans cover the back half of the run
    // (the shading episodes; endpoint inference survives the wrap).
    cfg.timeline_cap = 1 << 19;
    World::new(cfg, nodes, app)
}

/// Combined length of two full connection events — the §6.2 overlap
/// threshold (also the `timeline` binary's default).
const OVERLAP_NS: u64 = 3_000_000;

fn run(label: &str, file: &str, policy: IntervalPolicy) {
    println!("=== {label} ===");
    let mut w = build(policy);
    let hours = 8;
    w.run_until(Instant::from_secs(hours * 3600));

    // All diagnostics below read the recorded timeline.
    let tl = &w.obs.timeline;
    let skipped = tl
        .iter()
        .filter(|ev| matches!(ev.span, Span::EventSkipped { .. }))
        .count();
    let timeouts = tl
        .iter()
        .filter(|ev| {
            matches!(ev.span, Span::ConnDown { reason, .. } if reason == "supervision_timeout")
        })
        .count();
    let samples = anchor_samples(tl.iter());
    let endpoints = conn_endpoints(tl.iter());
    let windows = find_shared_node_windows(&samples, &endpoints, OVERLAP_NS);
    // Keep the artifact around: `timeline --load` re-runs this exact
    // analysis (EXPERIMENTS.md walks through it).
    let path = format!("results/{file}");
    if std::fs::create_dir_all("results").is_ok() && std::fs::write(&path, tl.to_jsonl()).is_ok() {
        println!("  [jsonl] wrote {path} ({} events)", tl.len());
    }

    println!(
        "  after {hours} h: {} connection losses, CoAP PDR {:.3} %",
        w.records().conn_losses.len(),
        w.records().coap_pdr() * 100.0
    );
    println!(
        "  timeline (last {} spans): {timeouts} supervision timeouts, {skipped} skipped events",
        tl.len()
    );
    if windows.is_empty() {
        println!("  anchor timeline: no overlap windows — the trains never collided.");
    } else {
        println!("  anchor overlap windows at the relay (node 1):");
        for win in &windows {
            println!(
                "    conns {}x{}: {:.0} s – {:.0} s ({:.0} s, min phase gap {} µs)",
                win.conn_a,
                win.conn_b,
                win.start_ns as f64 / 1e9,
                win.end_ns as f64 / 1e9,
                win.duration_ns() as f64 / 1e9,
                win.min_gap_ns / 1000
            );
        }
    }
    println!();
}

fn main() {
    println!("relay node 1: subordinate to node 0, coordinator to node 2\n");
    run(
        "static 75 ms intervals (standard practice — shading expected)",
        "shading_demo_static.jsonl",
        IntervalPolicy::Static(Duration::from_millis(75)),
    );
    run(
        "randomized [65:85] ms intervals (the paper's mitigation)",
        "shading_demo_randomized.jsonl",
        IntervalPolicy::Randomized {
            lo: Duration::from_millis(65),
            hi: Duration::from_millis(85),
        },
    );
    println!("shading needs identical intervals; distinct intervals make");
    println!("every overlap transient — that is the entire fix (§6.3).");
}
