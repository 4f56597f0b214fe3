//! Quickstart: bring up a 3-node IPv6-over-BLE line and ping across it.
//!
//! ```text
//! node 2  ──BLE──  node 1  ──BLE──  node 0
//!   └── CoAP producer        router        consumer ──┘
//! ```
//!
//! Run with `cargo run --release --example quickstart`.

use mindgap::core::{
    AppConfig, EdgeConfig, EdgeRole, IntervalPolicy, NodeConfig, World, WorldConfig,
};
use mindgap::net::Ipv6Addr;
use mindgap::sim::{Duration, Instant, NodeId};

fn main() {
    let addr = |i: u16| Ipv6Addr::of_node(i);

    // Static configuration, exactly like the paper's statconn setup:
    // each downstream node initiates (coordinator) towards its parent,
    // parents advertise; routes are installed manually.
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
        warmup: Duration::from_secs(5),
        ..AppConfig::paper_default(vec![NodeId(2)], NodeId(0))
    };
    let cfg = WorldConfig::paper_default(42, IntervalPolicy::Static(Duration::from_millis(75)));
    let mut world = World::new(cfg, nodes, app);

    // Let statconn form the network.
    world.run_until(Instant::from_secs(5));
    println!(
        "network formed after {:?}: fully connected = {}",
        world.now(),
        world.fully_connected()
    );

    // Classic first step: ping across two BLE hops.
    world.ping(NodeId(2), addr(0), 1);
    world.run_until(Instant::from_secs(7));
    for (node, from, seq) in &world.echo_replies {
        println!("{node}: echo reply from {from}, seq {seq}");
    }

    // Run the CoAP producer/consumer workload for a minute.
    world.run_until(Instant::from_secs(65));
    let r = world.records();
    println!("\nafter 60 s of CoAP traffic (1 req/s, 39 B payloads over 2 hops):");
    println!("  requests sent      : {}", r.total_sent());
    println!("  responses matched  : {}", r.total_done());
    println!("  CoAP PDR           : {:.3} %", r.coap_pdr() * 100.0);
    println!(
        "  RTT p50 / p99      : {:.0} ms / {:.0} ms",
        r.rtt_quantile_secs(0.5).unwrap_or(0.0) * 1000.0,
        r.rtt_quantile_secs(0.99).unwrap_or(0.0) * 1000.0
    );
    println!("  link-layer PDR     : {:.2} %", r.ll_pdr() * 100.0);
}
