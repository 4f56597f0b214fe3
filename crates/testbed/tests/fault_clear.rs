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

/// Link-layer timers die with their connection under chaos too: node
/// crashes (a whole link layer torn down, then rebuilt with fresh
/// generation counters) and link blackouts (supervision losses, then
/// reconnect attempts) on the paper tree. Stepping 50 ms at a time,
/// a node that dropped a connection since the last step (including
/// one opened and lost in between) holds no pending timer of it. A
/// leaked supervision timer stays queued for seconds, a leaked event
/// timer for up to one interval, so the step is short enough to
/// catch either. This generalises `connection_teardown_cancels_pending_timers`
/// in `mindgap-core`'s regression tests, and drives teardown's cancel
/// storms through the event queue.
#[test]
fn no_timers_outlive_their_connection_under_chaos() {
    use mindgap_ble::ConnId;
    use mindgap_sim::NodeId;
    use std::collections::HashSet;
    let s = Duration::from_secs;
    let topo = Topology::paper_tree();
    let n = topo.node_configs().len() as u16;
    let app = AppConfig::paper_default(topo.producers(), topo.consumer);
    let cfg = WorldConfig::paper_default(42, IntervalPolicy::Static(Duration::from_millis(75)));
    let mut w = World::new(cfg, topo.node_configs(), app);
    w.install_faults(
        &FaultSchedule::new()
            .node_crash(s(20), 4, s(10))
            .link_blackout(s(25), 2, 6, s(8))
            .node_crash(s(40), 8, s(5))
            .link_blackout(s(45), 0, 3, s(10))
            .node_crash(s(60), 1, s(15))
            .link_blackout(s(62), 6, 12, s(20)),
    );
    // World-assigned ids are `(initiator + 1) << 32 | slot`, with slots
    // handed out in order from 0 per initiator.
    let id = |i: usize, slot: u64| ConnId(((i as u64 + 1) << 32) | slot);
    let mut minted = vec![0u64; n as usize];
    let mut held: HashSet<(u16, ConnId)> = HashSet::new();
    let mut checked = 0;
    for step in 1..=2_000u64 {
        w.run_until(Instant::from_millis(step * 50));
        let now: HashSet<(u16, ConnId)> = (0..n)
            .flat_map(|i| {
                let conns = w.conn_stats_of(NodeId(i));
                conns.into_iter().map(move |(c, ..)| (i, c))
            })
            .collect();
        // Ends that dropped a connection since the last step, plus
        // every end of a connection opened and lost in between (a
        // slot below the initiator's newest live one, never seen).
        let mut gone: Vec<(u16, ConnId)> = held.difference(&now).copied().collect();
        for &(_, c) in &now {
            let i = (c.0 >> 32) as usize - 1;
            let newest = (c.0 & 0xFFFF_FFFF) + 1;
            for slot in minted[i]..newest {
                let c = id(i, slot);
                gone.extend((0..n).map(|end| (end, c)).filter(|e| !now.contains(e)));
            }
            minted[i] = minted[i].max(newest);
        }
        for (end, c) in gone {
            assert_eq!(
                w.live_conn_timers(NodeId(end), c),
                0,
                "node {end} still holds timers of dead conn {c:?} at {} ms",
                step * 50
            );
            checked += 1;
        }
        held = now;
    }
    assert!(
        checked >= 20,
        "the schedule must kill connections: {checked} checked"
    );
    assert!(
        w.fully_connected(),
        "the tree re-forms after the last fault"
    );
}
