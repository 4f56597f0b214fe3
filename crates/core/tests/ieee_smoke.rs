//! End-to-end smoke tests of the IEEE 802.15.4 world.

use mindgap_core::{AppConfig, IeeeConfig, NodeConfig, World};
use mindgap_net::Ipv6Addr;
use mindgap_phy::LossConfig;
use mindgap_sim::{Duration, Instant, NodeId};

/// Line 0—1—2 with routes in both directions; node 0 consumes.
fn line3(seed: u64, loss: LossConfig) -> World {
    let addr = |i: u16| Ipv6Addr::of_node(i);
    let nodes = vec![
        NodeConfig {
            edges: vec![],
            routes: vec![(addr(2), addr(1))],
        },
        NodeConfig {
            edges: vec![],
            routes: vec![],
        },
        NodeConfig {
            edges: vec![],
            routes: vec![(addr(0), addr(1))],
        },
    ];
    let app = AppConfig {
        warmup: Duration::from_secs(2),
        ..AppConfig::paper_default(vec![NodeId(2)], NodeId(0))
    };
    let mut cfg = IeeeConfig::paper_default(seed);
    cfg.loss = loss;
    World::new_ieee(cfg, nodes, app)
}

#[test]
fn coap_flows_over_two_hops() {
    let mut w = line3(1, LossConfig::LOSSLESS);
    w.run_until(Instant::from_secs(120));
    let r = w.records();
    assert!(r.total_sent() > 90, "sent {}", r.total_sent());
    let pdr = r.coap_pdr();
    assert!(pdr > 0.99, "lossless 2-hop PDR {pdr}");
    // 802.15.4 delivers fast: median RTT well under 100 ms (§5.3).
    let med = r.rtt_quantile_secs(0.5).unwrap();
    assert!(med < 0.1, "median RTT {med}s");
}

#[test]
fn noisy_channel_loses_but_delivers_fast() {
    let mut w = line3(2, LossConfig::ieee802154_default());
    w.run_until(Instant::from_secs(300));
    let r = w.records();
    let pdr = r.coap_pdr();
    // Bounded retries → real losses, unlike BLE's persistent ARQ.
    assert!(pdr < 0.999, "expected some loss, PDR {pdr}");
    assert!(pdr > 0.5, "loss model too aggressive, PDR {pdr}");
    let med = r.rtt_quantile_secs(0.5).unwrap();
    assert!(med < 0.15, "median RTT {med}s");
    let c = w.mac_counters(NodeId(2)).expect("802.15.4 world");
    assert!(c.retries > 0, "retries must occur on a noisy channel");
}

#[test]
fn large_payload_is_fragmented_and_reassembled() {
    // Payload far beyond one 127 B frame forces RFC 4944 frag.
    let mut w = {
        let addr = |i: u16| Ipv6Addr::of_node(i);
        let nodes = vec![
            NodeConfig {
                edges: vec![],
                routes: vec![(addr(2), addr(1))],
            },
            NodeConfig {
                edges: vec![],
                routes: vec![],
            },
            NodeConfig {
                edges: vec![],
                routes: vec![(addr(0), addr(1))],
            },
        ];
        let app = AppConfig {
            warmup: Duration::from_secs(2),
            payload: 400,
            producer_interval: Duration::from_secs(2),
            ..AppConfig::paper_default(vec![NodeId(2)], NodeId(0))
        };
        let mut cfg = IeeeConfig::paper_default(3);
        cfg.loss = LossConfig::LOSSLESS;
        World::new_ieee(cfg, nodes, app)
    };
    w.run_until(Instant::from_secs(60));
    let r = w.records();
    assert!(r.total_sent() > 20);
    assert!(r.coap_pdr() > 0.95, "fragmented PDR {}", r.coap_pdr());
}

#[test]
fn deterministic_runs() {
    let run = |seed| {
        let mut w = line3(seed, LossConfig::ieee802154_default());
        w.run_until(Instant::from_secs(120));
        (w.records().total_sent(), w.records().total_done())
    };
    assert_eq!(run(9), run(9));
}
