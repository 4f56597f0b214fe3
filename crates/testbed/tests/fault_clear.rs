//! The fault injector's clear path, end to end on the paper tree: a
//! link blackout that ends must hand the link back, and statconn must
//! re-form the edge. Nothing else clears a blackout (the self-healing
//! example blacks out for good), so this pins `clear_fault`.
//! Observability plays no part, so it holds under `obs-off` too.

use mindgap_chaos::FaultSchedule;
use mindgap_core::{AppConfig, IntervalPolicy, World, WorldConfig};
use mindgap_sim::{Duration, Instant};
use mindgap_testbed::Topology;

#[test]
fn link_blackout_clears_and_the_edge_reforms() {
    let s = Duration::from_secs;
    let topo = Topology::paper_tree();
    let app = AppConfig::paper_default(topo.producers(), topo.consumer);
    let cfg = WorldConfig::paper_default(42, IntervalPolicy::Static(Duration::from_millis(75)));
    let mut w = World::new(cfg, topo.node_configs(), app);
    // Tree edge 1 — 4 goes dark at 20 s for 10 s.
    w.install_faults(&FaultSchedule::new().link_blackout(s(20), 1, 4, s(10)));

    w.run_until(Instant::from_secs(20));
    assert!(w.fully_connected(), "the tree forms before the blackout");

    // The 2.56 s supervision timeout has fired; the edge stays down
    // for as long as the blackout lasts.
    for t in [24, 29] {
        w.run_until(Instant::from_secs(t));
        assert!(!w.fully_connected(), "edge 1 — 4 still up at {t} s");
    }

    // Cleared at 30 s: statconn's standing advertise/scan re-forms it.
    w.run_until(Instant::from_secs(40));
    assert!(
        w.fully_connected(),
        "edge 1 — 4 did not re-form after the clear"
    );
}
