//! Link-layer integration tests: connection setup, data transfer with
//! ARQ over a lossy channel, supervision, and — the paper's core
//! phenomenon — connection shading under clock drift, prevented by
//! randomized connection intervals (§6).

use mindgap_ble::ll_world::LlWorld;
use mindgap_ble::{ConnId, ConnParams, LinkLayer, LlConfig, LossReason, Role};
use mindgap_phy::{LossConfig, Medium, MediumConfig};
use mindgap_sim::{Clock, Duration, Instant, NodeId, Rng};

/// One node per entry of `clocks` (its drift in ppm): link layer `i`
/// draws `fork(i)`, then the medium draws its seed.
fn world(clocks: &[f64], loss: LossConfig, seed: u64) -> LlWorld {
    world_with(clocks, loss, seed, LlConfig::default())
}

fn world_with(clocks: &[f64], loss: LossConfig, seed: u64, cfg: LlConfig) -> LlWorld {
    let mut rng = Rng::seed_from_u64(seed);
    let lls = clocks
        .iter()
        .enumerate()
        .map(|(i, &ppm)| {
            LinkLayer::new(
                NodeId(i as u16),
                Clock::with_ppm(ppm),
                cfg,
                rng.fork(i as u64),
            )
        })
        .collect();
    let medium = Medium::new(MediumConfig {
        n_nodes: clocks.len(),
        loss,
        seed: rng.next_u64(),
        radio_links: None,
    });
    LlWorld::new(medium, lls)
}

fn params_ms(ms: u64) -> ConnParams {
    ConnParams::with_interval(Duration::from_millis(ms))
}

#[test]
fn connection_establishes_within_a_second() {
    let mut w = world(&[0.0, 0.0], LossConfig::LOSSLESS, 1);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(75));
    w.await_up(ConnId(1), Instant::from_secs(2));
    // Roles are as configured: scanner coordinates, advertiser follows.
    let coord = w
        .log
        .conn_up
        .iter()
        .find(|(n, _, r)| *n == NodeId(0) && *r == Role::Coordinator);
    let sub = w
        .log
        .conn_up
        .iter()
        .find(|(n, _, r)| *n == NodeId(1) && *r == Role::Subordinate);
    assert!(coord.is_some() && sub.is_some());
}

#[test]
fn idle_connection_stays_alive_and_paces_events() {
    let mut w = world(&[2.0, -2.0], LossConfig::LOSSLESS, 2);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(75));
    w.await_up(ConnId(1), Instant::from_secs(2));
    let t0 = w.now();
    let run_for = Duration::from_secs(60);
    w.run_until(t0 + run_for);
    assert_eq!(w.losses(), 0, "idle connection must not drop");
    let stats = w.lls[1].conn_stats(ConnId(1)).expect("conn alive");
    let expected = run_for / Duration::from_millis(75);
    assert!(
        stats.events >= expected - 5 && stats.events <= expected + 5,
        "subordinate saw {} events, expected ≈{expected}",
        stats.events
    );
    assert_eq!(stats.events_missed, 0);
}

#[test]
fn data_flows_both_directions() {
    let mut w = world(&[0.0, 0.0], LossConfig::LOSSLESS, 3);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(50));
    w.await_up(ConnId(1), Instant::from_secs(2));
    w.lls[0]
        .enqueue(ConnId(1), b"from-coordinator".to_vec())
        .unwrap();
    w.lls[1]
        .enqueue(ConnId(1), b"from-subordinate".to_vec())
        .unwrap();
    let t = w.now();
    w.run_until(t + Duration::from_millis(300));
    let to_sub: Vec<_> = w
        .log
        .rx
        .iter()
        .filter(|(n, _, _)| *n == NodeId(1))
        .collect();
    let to_coord: Vec<_> = w
        .log
        .rx
        .iter()
        .filter(|(n, _, _)| *n == NodeId(0))
        .collect();
    assert_eq!(to_sub.len(), 1);
    assert_eq!(to_sub[0].2, b"from-coordinator");
    assert_eq!(to_coord.len(), 1);
    assert_eq!(to_coord[0].2, b"from-subordinate");
}

#[test]
fn saturated_connection_payloads_are_counted_not_logged() {
    let mut w = world(&[0.0, 0.0], LossConfig::LOSSLESS, 5);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(50));
    w.await_up(ConnId(1), Instant::from_secs(2));
    w.saturate.push((NodeId(0), ConnId(1), 100));
    w.kick_saturation();
    let t = w.now();
    w.run_until(t + Duration::from_secs(1));
    let stats = w.lls[1].conn_stats(ConnId(1)).expect("conn alive");
    assert!(stats.bytes_rx > 0, "saturated link carried nothing");
    assert!(w.log.rx.iter().all(|(_, c, _)| *c != ConnId(1)));
}

#[test]
fn packet_latency_is_bounded_by_connection_interval() {
    // A packet enqueued between events waits at most one interval
    // (paper §5.1: per-hop latency jitters within the interval).
    let mut w = world(&[0.0, 0.0], LossConfig::LOSSLESS, 4);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(100));
    w.await_up(ConnId(1), Instant::from_secs(2));
    let t0 = w.now() + Duration::from_secs(1);
    w.run_until(t0);
    w.lls[0].enqueue(ConnId(1), b"timed".to_vec()).unwrap();
    let deadline = w.now() + Duration::from_millis(105);
    w.run_until(deadline);
    assert_eq!(
        w.log.rx.iter().filter(|(n, _, _)| *n == NodeId(1)).count(),
        1,
        "packet must arrive within one connection interval"
    );
}

#[test]
fn arq_recovers_all_packets_on_lossy_channel() {
    // 5 % loss, bursty. Every payload must arrive exactly once and in
    // order — BLE's guarantee that the paper's stack builds on.
    let loss = LossConfig {
        per_good: 0.05,
        per_bad: 0.4,
        p_good_to_bad: 0.01,
        p_bad_to_good: 0.2,
    };
    let mut w = world(&[1.0, -1.0], loss, 5);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(25));
    w.await_up(ConnId(1), Instant::from_secs(5));
    let total = 200u16;
    let mut sent = 0u16;
    // Feed packets gradually (respecting queue space).
    while sent < total {
        while sent < total && w.lls[0].queue_space(ConnId(1)) > 0 {
            w.lls[0]
                .enqueue(ConnId(1), sent.to_be_bytes().to_vec())
                .unwrap();
            sent += 1;
        }
        let t = w.now();
        w.run_until(t + Duration::from_millis(200));
    }
    let t = w.now();
    w.run_until(t + Duration::from_secs(20));
    let got: Vec<u16> = w
        .log
        .rx
        .iter()
        .filter(|(n, _, _)| *n == NodeId(1))
        .map(|(_, _, p)| u16::from_be_bytes([p[0], p[1]]))
        .collect();
    assert_eq!(got.len(), total as usize, "all packets delivered");
    assert_eq!(got, (0..total).collect::<Vec<_>>(), "in order, no dups");
    let stats = w.lls[0].conn_stats(ConnId(1)).expect("alive");
    assert!(stats.retransmissions > 0, "loss must have caused retries");
    assert_eq!(w.losses(), 0);
}

#[test]
fn dead_peer_triggers_supervision_timeout() {
    let mut w = world(&[0.0, 0.0], LossConfig::LOSSLESS, 6);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(75));
    w.await_up(ConnId(1), Instant::from_secs(2));
    let t = w.now();
    w.run_until(t + Duration::from_secs(5));
    assert_eq!(w.losses(), 0);
    // Node 1 "dies": the medium stops delivering anything from/to it.
    w.medium.set_out_of_range(NodeId(0), NodeId(1), true);
    let t = w.now();
    w.run_until(t + Duration::from_secs(10));
    let losses: Vec<_> = w.log.conn_down.iter().collect();
    assert_eq!(losses.len(), 2, "both ends declare the loss: {losses:?}");
    assert!(losses
        .iter()
        .all(|(_, _, r, _)| *r == LossReason::SupervisionTimeout));
    // Loss declared no earlier than the supervision timeout and within
    // timeout + a few intervals.
    let timeout = params_ms(75).supervision_timeout;
    for (_, _, _, at) in losses {
        let waited = at.saturating_since(t);
        assert!(
            waited >= timeout - Duration::from_millis(200),
            "waited {waited}"
        );
        assert!(
            waited <= timeout + Duration::from_secs(1),
            "waited {waited}"
        );
    }
}

/// The paper's central experiment in miniature (§6.1–§6.3): a node
/// that subordinates one connection and coordinates another, both on
/// the *same* 75 ms interval, with realistic clock drift. The
/// connection events slide into each other, events get skipped, and a
/// supervision timeout eventually kills a link.
#[test]
fn connection_shading_causes_losses_with_static_intervals() {
    // Node 1 is the multi-role node: subordinate to 0, coordinator
    // to 2. Connection 1's events are paced by node 0's clock
    // (+6 ppm), connection 2's by node 1's own clock (0 ppm): 6 ppm
    // relative drift — the upper end of what the authors measured
    // between nRF52 boards (§6.2) — gives one shading pass every
    // 75 ms / 6 µs/s ≈ 3.5 simulated hours.
    let mut w = world(&[6.0, 0.0, -6.0], LossConfig::LOSSLESS, 7);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(75));
    w.await_up(ConnId(1), Instant::from_secs(5));
    w.connect(NodeId(1), NodeId(2), ConnId(2), params_ms(75));
    w.await_up(ConnId(2), Instant::from_secs(10));
    w.run_until(Instant::from_secs(8 * 3600));
    assert!(
        w.losses() > 0,
        "expected ≥1 shading-induced connection loss in 8 h; skipped events: node1={}",
        w.lls[1].counters().skipped_events,
    );
    // The mechanism must be the supervision timeout.
    assert!(w
        .log
        .conn_down
        .iter()
        .all(|(_, _, r, _)| *r == LossReason::SupervisionTimeout));
    // And the radio arbitration at the multi-role node must have been
    // the cause: events were skipped outright, or listen windows were
    // displaced (partial) and the coordinator's packets missed.
    let c = w.lls[1].counters();
    assert!(
        c.skipped_events > 0 || c.sub_missed > 10,
        "no arbitration pressure recorded: {c:?}"
    );
}

/// The paper's mitigation (§6.3): distinct (randomized) intervals on
/// the two connections prevent shading entirely — same topology, same
/// drift, zero losses.
#[test]
fn randomized_intervals_prevent_shading_losses() {
    let mut w = world(&[3.0, 0.0, -2.0], LossConfig::LOSSLESS, 7);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(68));
    w.await_up(ConnId(1), Instant::from_secs(5));
    w.connect(NodeId(1), NodeId(2), ConnId(2), params_ms(83));
    w.await_up(ConnId(2), Instant::from_secs(10));
    w.run_until(Instant::from_secs(6 * 3600));
    assert_eq!(
        w.losses(),
        0,
        "distinct intervals must not lose connections"
    );
    // Shading-free does not mean conflict-free: individual events still
    // collide occasionally, they just never align persistently.
    let s1 = w.lls[1].conn_stats(ConnId(1)).expect("alive");
    let s2 = w.lls[1].conn_stats(ConnId(2)).expect("alive");
    let total = s1.events + s2.events;
    let skipped = s1.events_skipped + s2.events_skipped + s1.events_missed;
    assert!(
        (skipped as f64) < 0.05 * total as f64,
        "sporadic conflicts only: {skipped} skipped of {total}"
    );
}

#[test]
fn deterministic_same_seed_same_outcome() {
    let run = |seed: u64| {
        let mut w = world(&[1.0, -1.0], LossConfig::ble_default(), seed);
        w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(25));
        w.await_up(ConnId(1), Instant::from_secs(5));
        for i in 0..50u8 {
            let _ = w.lls[0].enqueue(ConnId(1), vec![i]);
            let t = w.now();
            w.run_until(t + Duration::from_millis(100));
        }
        let s = w.lls[1].conn_stats(ConnId(1)).unwrap();
        (s.events, s.data_pdus_rx, s.retransmissions, w.log.rx.len())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, 0);
}

#[test]
fn connection_update_switches_interval_without_loss() {
    let mut w = world(&[2.0, -2.0], LossConfig::LOSSLESS, 20);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(75));
    w.await_up(ConnId(1), Instant::from_secs(2));
    let t0 = w.now();
    w.run_until(t0 + Duration::from_secs(10));
    // Coordinator switches the connection to 100 ms on the fly.
    w.lls[0]
        .request_conn_update(ConnId(1), Duration::from_millis(100))
        .expect("update accepted");
    let before = w.lls[1].conn_stats(ConnId(1)).unwrap().events;
    let t1 = w.now();
    w.run_until(t1 + Duration::from_secs(30));
    assert_eq!(w.losses(), 0, "the update must not drop the connection");
    assert_eq!(
        w.lls[1].conn_interval(ConnId(1)),
        Some(Duration::from_millis(100)),
        "subordinate applied the new interval"
    );
    assert_eq!(
        w.lls[0].conn_interval(ConnId(1)),
        Some(Duration::from_millis(100))
    );
    // Event pacing follows the new interval (~10/s instead of ~13.3/s).
    let events = w.lls[1].conn_stats(ConnId(1)).unwrap().events - before;
    assert!(
        (280..330).contains(&events),
        "expected ≈300 events at 100 ms over 30 s, saw {events}"
    );
    // And data still flows.
    w.lls[0]
        .enqueue(ConnId(1), b"post-update".to_vec())
        .unwrap();
    let t2 = w.now();
    w.run_until(t2 + Duration::from_millis(300));
    assert!(w
        .log
        .rx
        .iter()
        .any(|(n, _, p)| *n == NodeId(1) && p == b"post-update"));
}

#[test]
fn channel_map_update_applies_on_both_ends() {
    use mindgap_ble::channels::ChannelMap;
    let mut w = world(&[0.0, 0.0], LossConfig::LOSSLESS, 21);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(50));
    w.await_up(ConnId(1), Instant::from_secs(2));
    let new_map = ChannelMap::all_except_jammed().without(5).without(17);
    w.lls[0]
        .request_channel_map(ConnId(1), new_map)
        .expect("map update accepted");
    let t = w.now();
    w.run_until(t + Duration::from_secs(5));
    assert_eq!(w.losses(), 0);
    assert_eq!(w.lls[0].conn_channel_map(ConnId(1)), Some(new_map));
    assert_eq!(
        w.lls[1].conn_channel_map(ConnId(1)),
        Some(new_map),
        "subordinate switched at the same instant"
    );
}

#[test]
fn subordinate_cannot_initiate_updates() {
    let mut w = world(&[0.0, 0.0], LossConfig::LOSSLESS, 22);
    w.connect(NodeId(0), NodeId(1), ConnId(1), params_ms(75));
    w.await_up(ConnId(1), Instant::from_secs(2));
    assert!(w.lls[1]
        .request_conn_update(ConnId(1), Duration::from_millis(100))
        .is_err());
    assert!(w.lls[0]
        .request_conn_update(ConnId(99), Duration::from_millis(100))
        .is_err());
}

#[test]
fn afh_retires_a_jammed_channel() {
    use mindgap_ble::channels::ChannelMap;
    let cfg = LlConfig {
        afh_enabled: true,
        afh_period_events: 200,
        ..LlConfig::default()
    };
    let mut w = world_with(&[1.0, -1.0], LossConfig::LOSSLESS, 23, cfg);
    // Jam channel 22 on the medium; the connection does NOT exclude it
    // statically (unlike the paper's setup) — AFH must discover it.
    w.medium
        .set_channel_interference(mindgap_phy::Channel::ble_data(22), 0.95);
    let mut params = ConnParams::with_interval(Duration::from_millis(25));
    params.channel_map = ChannelMap::ALL;
    w.connect(NodeId(0), NodeId(1), ConnId(1), params);
    w.await_up(ConnId(1), Instant::from_secs(3));
    // Keep some traffic flowing so failures are observable.
    for _ in 0..240 {
        let _ = w.lls[0].enqueue(ConnId(1), vec![0xAF; 20]);
        let t = w.now();
        w.run_until(t + Duration::from_millis(500));
        if w.lls[0]
            .conn_channel_map(ConnId(1))
            .map(|m| !m.contains(22))
            .unwrap_or(false)
        {
            break;
        }
    }
    let map0 = w.lls[0].conn_channel_map(ConnId(1)).expect("conn alive");
    assert!(
        !map0.contains(22),
        "AFH should have retired the jammed channel 22"
    );
    let map1 = w.lls[1].conn_channel_map(ConnId(1)).expect("conn alive");
    assert_eq!(map0, map1, "both ends agree on the map");
    assert_eq!(w.losses(), 0);
}
