//! The connection link's refusal path: a datagram whose next hop has
//! no open L2CAP channel is dropped as `link_down` in `World::send_ip`.

use mindgap_core::{AppConfig, IntervalPolicy, World, WorldConfig};
use mindgap_sim::{Duration, Instant, NodeId};
use mindgap_testbed::Topology;

#[test]
fn severed_hop_drops_as_link_down_and_cuts_off_the_producer() {
    // Static routes on the line 0 — 1 — 2; node 0 is the consumer.
    let topo = Topology::line(3);
    let app = AppConfig::paper_default(topo.producers(), topo.consumer);
    let cfg = WorldConfig::paper_default(42, IntervalPolicy::Static(Duration::from_millis(75)));
    let mut w = World::new(cfg, topo.node_configs(), app);
    // Producers start after the 30 s warm-up.
    w.run_until(Instant::from_secs(40));
    assert!(w.fully_connected(), "the line forms before the cut");
    assert_eq!(w.records().drops.get("link_down"), None);

    w.reset_records();
    w.break_link(NodeId(1), NodeId(2));
    w.run_until(Instant::from_secs(100));

    let r = w.records();
    assert!(r.drops.get("link_down").copied().unwrap_or(0) > 0);
    let pdr = |n: u16| {
        let sum = |m: &std::collections::HashMap<NodeId, Vec<u64>>| -> u64 {
            m.get(&NodeId(n)).map_or(0, |v| v.iter().sum())
        };
        sum(&r.coap_done) as f64 / sum(&r.coap_sent) as f64
    };
    assert!(pdr(2) < 0.2, "cut-off producer PDR {}", pdr(2));
    assert!(pdr(1) > 0.9, "producer next to the consumer PDR {}", pdr(1));
}
