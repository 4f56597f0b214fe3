//! Cold-start network formation under dynamic peer management
//! (DESIGN.md §12): worlds built with `WorldConfig.peers` start with
//! no connections at all and must discover, connect, and route on
//! their own.

use mindgap_core::{
    AdvConfig, AppConfig, IntervalPolicy, NodeConfig, PeersWorldConfig, TransportMode, World,
    WorldConfig,
};
use mindgap_sim::{Duration, Instant, NodeId};

/// A k×k grid of nodes spaced `pitch` metres apart.
fn grid_positions(k: usize, pitch: f64) -> Vec<(f64, f64)> {
    let mut v = Vec::with_capacity(k * k);
    for r in 0..k {
        for c in 0..k {
            v.push((c as f64 * pitch + 1.0, r as f64 * pitch + 1.0));
        }
    }
    v
}

fn peers_world(seed: u64, k: usize, pitch: f64, mobile: bool) -> World {
    let n = k * k;
    let positions = grid_positions(k, pitch);
    let arena = (k as f64 * pitch + 2.0, k as f64 * pitch + 2.0);
    let mut pc = PeersWorldConfig::new(positions, arena, seed);
    pc.mobile = mobile;
    let mut cfg = WorldConfig::paper_default(
        seed,
        IntervalPolicy::Randomized {
            lo: Duration::from_millis(50),
            hi: Duration::from_millis(200),
        },
    );
    cfg.dynamic_routing = true;
    cfg.peers = Some(pc);
    let nodes = (0..n)
        .map(|_| NodeConfig {
            edges: Vec::new(),
            routes: Vec::new(),
        })
        .collect();
    let producers = (1..n as u16).map(NodeId).collect();
    let mut app = AppConfig::paper_default(producers, NodeId(0));
    app.warmup = Duration::from_secs(60);
    World::new(cfg, nodes, app)
}

/// Every non-root node has an RPL parent (the DODAG covers the mesh).
fn converged(w: &World, n: usize) -> bool {
    (1..n).all(|i| {
        w.rpl_state(NodeId(i as u16))
            .map(|(_, parent)| parent.is_some())
            .unwrap_or(false)
    })
}

#[test]
fn cold_start_grid_converges() {
    let k = 3;
    let n = k * k;
    let mut w = peers_world(7, k, 30.0, false);
    w.run_until(Instant::ZERO + Duration::from_secs(120));
    for i in 0..n {
        let pool = w.peer_pool_size(NodeId(i as u16)).expect("peers mode");
        assert!(pool > 0, "node {i} formed no connections");
    }
    assert!(converged(&w, n), "DODAG did not cover the grid in 120 s");
    // Traffic actually flows end to end over the formed mesh.
    let r = w.records();
    assert!(r.total_sent() > 0);
    assert!(
        r.coap_pdr() >= 0.5,
        "PDR collapsed on the formed mesh: {}",
        r.coap_pdr()
    );
}

#[test]
fn formation_is_deterministic() {
    let run = |seed| {
        let mut w = peers_world(seed, 3, 30.0, false);
        w.run_until(Instant::ZERO + Duration::from_secs(90));
        let pools: Vec<usize> = (0..9)
            .map(|i| w.peer_pool_size(NodeId(i)).unwrap())
            .collect();
        let counters: Vec<_> = (0..9)
            .map(|i| w.peer_counters(NodeId(i)).unwrap())
            .collect();
        (pools, counters, w.events_processed())
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
}

#[test]
fn mobility_keeps_network_alive() {
    let k = 3;
    let n = k * k;
    let mut w = peers_world(11, k, 30.0, true);
    w.run_until(Instant::ZERO + Duration::from_secs(180));
    // Positions moved (node 0 is pinned, the rest walk).
    let pos = w.positions().expect("peers mode");
    assert_eq!(pos[0], (1.0, 1.0), "pinned root must not move");
    let moved = (1..n).any(|i| pos[i] != grid_positions(k, 30.0)[i]);
    assert!(moved, "mobility did not move anyone");
    // The mesh keeps healing: most nodes still hold connections.
    let with_links = (0..n)
        .filter(|&i| w.peer_pool_size(NodeId(i as u16)).unwrap() > 0)
        .count();
    assert!(
        with_links >= n - 2,
        "only {with_links}/{n} nodes connected under mobility"
    );
}

/// Peers mode forms LL connections, and an advertising-transport node
/// has none: asking for both is a configuration error, not a world
/// that quietly runs the two transports side by side.
#[test]
#[should_panic(expected = "WorldConfig::peers needs WorldConfig::transport")]
fn peers_with_adv_transport_is_rejected() {
    let pc = PeersWorldConfig::new(grid_positions(2, 10.0), (22.0, 22.0), 1);
    let mut cfg = WorldConfig::paper_default(1, IntervalPolicy::Static(Duration::from_millis(75)));
    cfg.peers = Some(pc);
    cfg.transport = TransportMode::Adv(AdvConfig::default());
    let nodes = (0..4)
        .map(|_| NodeConfig {
            edges: Vec::new(),
            routes: Vec::new(),
        })
        .collect();
    let app = AppConfig::paper_default(vec![NodeId(1)], NodeId(0));
    let _ = World::new(cfg, nodes, app);
}
