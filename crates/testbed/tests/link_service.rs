//! LinkService conformance harness — both transports behind the same
//! boundary must satisfy the same observable contract:
//!
//! * **determinism** — the same spec and seed produce byte-identical
//!   timeline and metrics exports on repeated runs, for the
//!   connection transport and the advertising transport alike;
//! * **signal ordering** — per peer, the first signal a transport
//!   emits is `Up`, signals strictly alternate Up/Down (no repeated
//!   Up without an intervening Down), and every currently listed
//!   neighbor's last signal is `Up`;
//! * **admission** — a current neighbor is admissible (or
//!   backpressured), an address the transport has never seen is
//!   `NoLink`.
//!
//! The 802.15.4 MAC has no `LinkService` yet: `World::link_service`
//! answers `None` for its nodes.

use mindgap_core::{
    AppConfig, IeeeConfig, IntervalPolicy, LinkSignal, TransportMode, TxAdmission, World,
    WorldConfig,
};
use mindgap_sim::{Duration, Instant, NodeId};
use mindgap_sixlowpan::LlAddr;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

fn spec(adv: bool) -> ExperimentSpec {
    let s = ExperimentSpec::paper_default(
        Topology::line(4),
        IntervalPolicy::Static(Duration::from_millis(75)),
        42,
    )
    .with_duration(Duration::from_secs(45));
    if adv {
        s.with_adv_transport()
    } else {
        s
    }
}

/// Exports of one run: (timeline JSONL, metrics CSV).
fn exports(adv: bool) -> (String, String) {
    let res = run_ble(&spec(adv));
    (res.timeline.to_jsonl(), res.metrics.to_csv())
}

#[test]
fn same_seed_exports_are_byte_identical_conn() {
    let (tl_a, m_a) = exports(false);
    let (tl_b, m_b) = exports(false);
    assert_eq!(tl_a, tl_b, "conn timeline must be deterministic");
    assert_eq!(m_a, m_b, "conn metrics must be deterministic");
    assert!(!m_a.is_empty());
}

#[test]
fn same_seed_exports_are_byte_identical_adv() {
    let (tl_a, m_a) = exports(true);
    let (tl_b, m_b) = exports(true);
    assert_eq!(tl_a, tl_b, "adv timeline must be deterministic");
    assert_eq!(m_a, m_b, "adv metrics must be deterministic");
    if mindgap_obs::enabled() {
        assert!(
            m_a.contains("ll_adv_trains"),
            "adv metrics must be registered in adv mode"
        );
    }
}

#[test]
fn adv_metrics_stay_out_of_conn_exports() {
    let (_, m) = exports(false);
    assert!(
        !m.contains("ll_adv_trains"),
        "adv metrics must not register in conn mode (export stability)"
    );
}

/// Build a world directly (the runner consumes it) and run formation
/// plus some traffic, then check the per-node signal logs.
fn world_after_run(transport: TransportMode) -> World {
    let topo = Topology::line(4);
    let app = AppConfig::paper_default(topo.producers(), topo.consumer);
    let mut cfg = WorldConfig::paper_default(42, IntervalPolicy::Static(Duration::from_millis(75)));
    cfg.transport = transport;
    let mut world = World::new(cfg, topo.node_configs(), app);
    world.run_until(Instant::ZERO + Duration::from_secs(60));
    world
}

fn check_signal_contract(world: &World, n_nodes: u16) {
    for i in 0..n_nodes {
        let node = NodeId(i);
        let svc = world
            .link_service(node)
            .expect("BLE links have a LinkService");
        let signals = svc.signals();
        assert!(
            !signals.is_empty(),
            "node {i}: a connected topology must raise link signals"
        );
        // Per peer: first is Up, then strict Up/Down alternation.
        let mut peers: Vec<_> = signals.iter().map(|s| s.peer()).collect();
        peers.sort_unstable_by_key(|p| p.0);
        peers.dedup();
        for peer in peers {
            let per_peer: Vec<&LinkSignal> = signals.iter().filter(|s| s.peer() == peer).collect();
            assert!(
                per_peer[0].is_up(),
                "node {i}: first signal for {peer:?} must be Up, log {per_peer:?}"
            );
            for w in per_peer.windows(2) {
                assert_ne!(
                    w[0].is_up(),
                    w[1].is_up(),
                    "node {i}: signals for {peer:?} must alternate, log {per_peer:?}"
                );
            }
        }
        // Every current neighbor's last signal is Up, and it is
        // admissible (or merely backpressured — never NoLink).
        for peer in svc.neighbors() {
            let last = signals
                .iter()
                .rev()
                .find(|s| s.peer() == peer)
                .expect("neighbor must have signals");
            assert!(last.is_up(), "node {i}: neighbor {peer:?} last signal Down");
            assert_ne!(
                svc.admit(peer),
                TxAdmission::NoLink,
                "node {i}: current neighbor {peer:?} must not be NoLink"
            );
        }
        // A link address no transport has seen is never admissible.
        assert_eq!(
            svc.admit(LlAddr::from_node_index(0xBEEF)),
            TxAdmission::NoLink
        );
        assert!(svc.mtu() > 0);
    }
}

#[test]
fn signal_contract_holds_for_conn_transport() {
    let world = world_after_run(TransportMode::Conn);
    check_signal_contract(&world, 4);
}

#[test]
fn signal_contract_holds_for_adv_transport() {
    let world = world_after_run(TransportMode::Adv(mindgap_core::AdvConfig::default()));
    check_signal_contract(&world, 4);
    // Advertising is broadcast: interior nodes hear both line
    // neighbors, ends hear one.
    let svc = world
        .link_service(NodeId(1))
        .expect("adv link has a LinkService");
    assert!(svc.neighbors().len() >= 2);
}

#[test]
fn ieee_nodes_have_no_link_service() {
    let topo = Topology::line(4);
    let app = AppConfig::paper_default(topo.producers(), topo.consumer);
    let world = World::new_ieee(IeeeConfig::paper_default(42), topo.node_configs(), app);
    for i in 0..4 {
        assert!(world.link_service(NodeId(i)).is_none(), "node {i}");
    }
}
