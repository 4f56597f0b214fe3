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

/// Conn ids are world-unique for the whole run: once a connection has
/// left a node, its id never comes back to that node, not across
/// reconnect attempts and not after a crash and reboot of the
/// initiator. The queue keeps a torn-down connection's timers until
/// they pop, and this is what keeps them from acting on a later
/// connection. The middle link breaks at 30 s (supervision loss, then
/// reconnect attempts that mint fresh ids and fail while the link
/// stays dark), node 1, the initiator of its connection to node 0,
/// crashes at 40 s for 5 s, and the link comes back at 60 s.
#[test]
fn conn_ids_are_never_reused() {
    use mindgap_ble::ConnId;
    use mindgap_chaos::FaultSchedule;
    use std::collections::HashSet;
    let mut w = line3(19);
    w.install_faults(&FaultSchedule::new().node_crash(
        Duration::from_secs(40),
        1,
        Duration::from_secs(5),
    ));
    w.run_until(Instant::from_secs(30));
    w.break_link(NodeId(1), NodeId(2));
    let mut held: Vec<HashSet<ConnId>> = vec![HashSet::new(); 3];
    let mut left: Vec<HashSet<ConnId>> = vec![HashSet::new(); 3];
    for step in 1..=1_000u64 {
        let ms = 30_000 + step * 50;
        if ms == 60_000 {
            w.restore_link(NodeId(1), NodeId(2));
        }
        w.run_until(Instant::from_millis(ms));
        for n in 0..3 {
            let now: HashSet<ConnId> = w
                .conn_stats_of(NodeId(n as u16))
                .into_iter()
                .map(|(c, ..)| c)
                .collect();
            if let Some(c) = now.intersection(&left[n]).next() {
                panic!("node {n} holds conn {c:?} again at {ms} ms after it left");
            }
            left[n].extend(held[n].difference(&now));
            held[n] = now;
        }
    }
    // The crash took node 1's connection to node 0 down at both ends,
    // and the link break the one to node 2.
    let gone: Vec<usize> = left.iter().map(HashSet::len).collect();
    assert!(
        gone[0] >= 1 && gone[1] >= 2 && gone[2] >= 1,
        "connections that left each node: {gone:?}"
    );
    assert!(
        held.iter().all(|h| !h.is_empty()),
        "every node reconnects: {held:?}"
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
