//! Regression tests pinning World behaviours that bugs once broke
//! during development — each test encodes an invariant that failed in
//! an earlier revision and must never fail again.

use mindgap_core::{
    AppConfig, EdgeConfig, EdgeRole, IntervalPolicy, NodeConfig, PeersWorldConfig, World,
    WorldConfig,
};
use mindgap_net::Ipv6Addr;
use mindgap_sim::{Duration, Instant, NodeId};

fn line3(seed: u64) -> World {
    line3_with(seed, IntervalPolicy::Static(Duration::from_millis(75)))
}

/// A three-node line: node 1 coordinates its connection to node 0 and
/// is the subordinate of node 2's connection to it.
fn line3_with(seed: u64, policy: IntervalPolicy) -> World {
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
    World::new(WorldConfig::paper_default(seed, policy), nodes, app)
}

/// Regression: the mbuf pool must never leak. Early revisions freed
/// byte counts instead of block costs on teardown; after forced
/// connection churn the pool slowly filled until every send failed.
#[test]
fn mbuf_pool_does_not_leak_across_connection_churn() {
    let mut w = line3(11);
    w.run_until(Instant::from_secs(60));
    // Churn: repeatedly sever and restore the middle link's radio
    // path, forcing supervision losses, teardown and reconnects with
    // traffic in flight.
    for round in 0..5u64 {
        w.break_link(NodeId(1), NodeId(2));
        w.run_until(Instant::from_secs(60 + round * 40 + 20));
        w.restore_link(NodeId(1), NodeId(2));
        w.run_until(Instant::from_secs(60 + round * 40 + 40));
    }
    // Let the network settle and drain.
    w.run_until(Instant::from_secs(300));
    for n in 0..3u16 {
        let used = w.pool_used(NodeId(n));
        assert!(
            used <= 2 * mindgap_l2cap::MBUF_BLOCK,
            "node {n} pool retains {used} B after drain — leak"
        );
    }
    // And traffic still flows end to end.
    w.reset_records();
    w.run_until(Instant::from_secs(360));
    assert!(
        w.records().coap_pdr() > 0.9,
        "post-churn PDR {}",
        w.records().coap_pdr()
    );
}

/// Regression: link-layer timers must die with their connection.
/// Teardown once left armed timers queued after `conn_down` — the
/// supervision timer in particular sits up to seconds in the future,
/// so every churned connection parked a dead event in the queue, and
/// a node rebuilt after a crash (whose fresh LL restarts generation
/// counters) could mistake a stale timer for its own.
#[test]
fn connection_teardown_cancels_pending_timers() {
    use mindgap_ble::ConnId;
    let mut w = line3(19);
    w.run_until(Instant::from_secs(30));
    // Sever the middle link.
    w.break_link(NodeId(1), NodeId(2));
    // Step past the supervision timeout and on through reconnect
    // attempts that mint fresh conn ids and fail while the link stays
    // dark. Every 50 ms, no node holds a pending timer of a connection
    // it no longer has: a leaked event timer stays queued for up to
    // one interval, a leaked supervision timer for seconds.
    for step in 1..=1_000u64 {
        w.run_until(Instant::from_millis(30_000 + step * 50));
        // World-assigned ids are `(initiator + 1) << 32 | slot`, slots
        // handed out in order from 0 per initiator.
        for n in 0..3u16 {
            let live: Vec<ConnId> = w
                .conn_stats_of(NodeId(n))
                .into_iter()
                .map(|(c, ..)| c)
                .collect();
            for initiator in 0..3u64 {
                for slot in 0..32 {
                    let c = ConnId(((initiator + 1) << 32) | slot);
                    if !live.contains(&c) {
                        assert_eq!(
                            w.live_conn_timers(NodeId(n), c),
                            0,
                            "node {n} still holds timers of dead conn {c:?} — teardown leak"
                        );
                    }
                }
            }
        }
    }
    assert!(
        !w.records().conn_losses.is_empty(),
        "link break must kill the conn"
    );
}

/// Regression: ARQ sequence numbers must survive empty keep-alives.
/// An early revision put fresh data on an unacknowledged empty PDU's
/// sequence number; under loss, one packet per ~10 000 silently
/// vanished (delivered-as-duplicate).
#[test]
fn no_silent_packet_loss_under_sustained_noise() {
    let mut w = line3(13);
    w.run_until(Instant::from_secs(600));
    let r = w.records();
    let lost = r.total_sent() - r.total_done();
    // With the default ≈1 % channel noise and no connection losses,
    // CoAP over BLE loses nothing: ARQ retries forever.
    let losses = r.conn_losses.len();
    assert!(
        losses > 0 || lost == 0,
        "{lost} packets lost without any connection loss"
    );
}

/// Regression: the world's listening slot is owned. A stale scan-end
/// once cleared a fresh connection's listen, making establishment fail
/// hundreds of times in a row.
#[test]
fn connection_survives_heavy_neighbour_scanning() {
    // Node 1 scans forever for an unreachable peer 3 while serving its
    // two live connections.
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
                EdgeConfig {
                    peer: NodeId(3),
                    role: EdgeRole::Coordinator,
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
        // Node 3 exists but is out of range from the start.
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Subordinate,
            }],
            routes: vec![],
        },
    ];
    let app = AppConfig {
        warmup: Duration::from_secs(10),
        ..AppConfig::paper_default(vec![NodeId(2)], NodeId(0))
    };
    let mut w = World::new(
        WorldConfig::paper_default(17, IntervalPolicy::Static(Duration::from_millis(75))),
        nodes,
        app,
    );
    w.break_link(NodeId(1), NodeId(3));
    w.run_until(Instant::from_secs(600));
    let r = w.records();
    assert_eq!(
        r.conn_losses.len(),
        0,
        "permanent scanning must not kill live connections"
    );
    assert!(r.coap_pdr() > 0.99, "PDR {}", r.coap_pdr());
}

/// The two-quantum window the interval-draw regressions below use.
fn narrow_window() -> IntervalPolicy {
    IntervalPolicy::Randomized {
        lo: Duration::from_millis(75),
        hi: Duration::from_micros(76_250),
    }
}

/// Regression: `rerandomize_intervals` redraws until it finds a
/// quantum none of the node's connections uses. Over a two-quantum
/// window, node 1's two connections hold both quanta (statconn's §6.3
/// collision check forces them apart), so the redraw never ended. It
/// must fail loudly instead.
#[test]
#[should_panic(expected = "window too narrow for per-node-unique intervals")]
fn rerandomizing_into_a_covered_window_panics() {
    let mut w = line3_with(5, narrow_window());
    w.run_until(Instant::from_secs(30));
    assert!(w.fully_connected(), "the line forms first");
    w.rerandomize_intervals(Duration::from_millis(75), Duration::from_micros(76_250));
}

/// Regression: a peers world draws each new connection's interval
/// unique among the node's connections. With `max_peers` above the
/// window's two quanta, a node holding both quanta that opens a third
/// connection redrew forever. It must fail loudly instead.
#[test]
#[should_panic(expected = "window too narrow for per-node-unique intervals")]
fn peers_world_beyond_the_window_panics() {
    let k = 3;
    let positions: Vec<(f64, f64)> = (0..k * k)
        .map(|i| ((i % k) as f64 * 10.0 + 1.0, (i / k) as f64 * 10.0 + 1.0))
        .collect();
    let pc = PeersWorldConfig::new(positions, (32.0, 32.0), 3);
    let mut cfg = WorldConfig::paper_default(3, narrow_window());
    cfg.dynamic_routing = true;
    cfg.peers = Some(pc);
    let nodes = (0..k * k)
        .map(|_| NodeConfig {
            edges: Vec::new(),
            routes: Vec::new(),
        })
        .collect();
    let app = AppConfig::paper_default(vec![NodeId(1)], NodeId(0));
    let mut w = World::new(cfg, nodes, app);
    w.run_until(Instant::from_secs(120));
}
