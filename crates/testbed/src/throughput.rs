//! Single-link raw L2CAP throughput measurement (paper §5.2).
//!
//! The paper reports "close to 500 kbps" of raw L2CAP goodput on a
//! single nrf52dk↔nrf52dk link with the data length extension. This
//! module drives a dedicated two-node micro-world where the
//! coordinator's LL queue is kept saturated with DLE-sized PDUs.

use mindgap_ble::{ConnId, ConnParams, Frame, LinkLayer, ListenTag, LlConfig, Output, Timer};
use mindgap_phy::{Channel, LossConfig, Medium, MediumConfig, TxId, TxParams};
use mindgap_sim::{Clock, Duration, EventQueue, Instant, NodeId, Rng};

enum Ev {
    Timer(NodeId, Timer),
    TxEnd(u64),
}

/// Result of a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Payload goodput in kbit/s at the receiver.
    pub kbps: f64,
    /// Bytes received.
    pub bytes: u64,
    /// Measurement span.
    pub span: Duration,
}

/// Saturate one BLE link for `span` (after connection setup) and
/// measure receiver goodput. `pdu_len` is the LL payload per PDU
/// (≤ 251 with DLE; the L2CAP K-frame).
pub fn measure_single_link(
    seed: u64,
    interval: Duration,
    pdu_len: usize,
    span: Duration,
) -> ThroughputResult {
    measure_single_link_cfg(seed, interval, pdu_len, span, LlConfig::default())
}

/// Like [`measure_single_link`] with an explicit link-layer config
/// (e.g. the 2M PHY).
pub fn measure_single_link_cfg(
    seed: u64,
    interval: Duration,
    pdu_len: usize,
    span: Duration,
    cfg: LlConfig,
) -> ThroughputResult {
    let mut rng = Rng::seed_from_u64(seed);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut medium = Medium::new(MediumConfig {
        n_nodes: 2,
        loss: LossConfig::LOSSLESS,
        seed: rng.next_u64(),
        radio_links: None,
    });
    let mut lls = [
        LinkLayer::new(NodeId(0), Clock::with_ppm(1.0), cfg, rng.fork(1)),
        LinkLayer::new(NodeId(1), Clock::with_ppm(-1.0), cfg, rng.fork(2)),
    ];
    let mut listening: [Option<(ListenTag, Channel, Instant, Instant)>; 2] = [None, None];
    struct Fl {
        id: u64,
        tx: TxId,
        src: NodeId,
        frame: Frame,
        channel: Channel,
        start: Instant,
    }
    let mut inflight: Vec<Fl> = Vec::new();
    let mut next_tx = 0u64;
    let conn = ConnId(1);
    let mut connected = 0u8;

    // Bring the link up.
    {
        let mut outs = Vec::new();
        lls[1].start_advertising(Instant::ZERO, &mut outs);
        apply(
            &mut queue,
            &mut medium,
            &mut inflight,
            &mut next_tx,
            &mut listening,
            NodeId(1),
            &mut outs,
            &mut connected,
        );
        lls[0].start_scanning(
            Instant::ZERO,
            NodeId(1),
            conn,
            ConnParams::with_interval(interval),
            &mut outs,
        );
        apply(
            &mut queue,
            &mut medium,
            &mut inflight,
            &mut next_tx,
            &mut listening,
            NodeId(0),
            &mut outs,
            &mut connected,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn apply(
        queue: &mut EventQueue<Ev>,
        medium: &mut Medium,
        inflight: &mut Vec<Fl>,
        next_tx: &mut u64,
        listening: &mut [Option<(ListenTag, Channel, Instant, Instant)>; 2],
        node: NodeId,
        outs: &mut Vec<Output>,
        connected: &mut u8,
    ) {
        let now = queue.now();
        for o in outs.drain(..) {
            match o {
                Output::Arm { at, timer } => {
                    queue.schedule_at(at.max(now), Ev::Timer(node, timer));
                }
                Output::Tx { channel, frame } => {
                    let airtime = frame.airtime();
                    let tx = medium.begin_tx(TxParams {
                        src: node,
                        channel,
                        start: now,
                        airtime,
                    });
                    let id = *next_tx;
                    *next_tx += 1;
                    inflight.push(Fl {
                        id,
                        tx,
                        src: node,
                        frame,
                        channel,
                        start: now,
                    });
                    queue.schedule_at(now + airtime, Ev::TxEnd(id));
                }
                Output::Listen {
                    channel,
                    until,
                    tag,
                } => {
                    listening[node.index()] = Some((tag, channel, now, until));
                }
                Output::ListenOff { tag }
                    if listening[node.index()].map(|(t, ..)| t) == Some(tag) =>
                {
                    listening[node.index()] = None;
                }
                Output::ConnUp { .. } => *connected += 1,
                _ => {}
            }
        }
    }

    let mut step = |queue: &mut EventQueue<Ev>,
                    medium: &mut Medium,
                    lls: &mut [LinkLayer; 2],
                    listening: &mut [Option<(ListenTag, Channel, Instant, Instant)>; 2],
                    inflight: &mut Vec<Fl>,
                    connected: &mut u8|
     -> bool {
        let Some((now, ev)) = queue.pop() else {
            return false;
        };
        match ev {
            Ev::Timer(node, timer) => {
                let mut outs = Vec::new();
                lls[node.index()].on_timer(now, timer, &mut outs);
                apply(
                    queue,
                    medium,
                    inflight,
                    &mut next_tx,
                    listening,
                    node,
                    &mut outs,
                    connected,
                );
            }
            Ev::TxEnd(id) => {
                let idx = inflight.iter().position(|f| f.id == id).expect("tracked");
                let fl = inflight.swap_remove(idx);
                let listeners: Vec<NodeId> = listening
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| {
                        let (_, ch, since, until) = (*l)?;
                        (ch == fl.channel && since <= fl.start && until >= now)
                            .then_some(NodeId(i as u16))
                    })
                    .collect();
                let mut outs = Vec::new();
                for (listener, outcome) in medium.finish_tx(fl.tx, &listeners) {
                    if outcome.is_ok() {
                        lls[listener.index()].on_frame_rx(now, &fl.frame, fl.channel, &mut outs);
                        apply(
                            queue,
                            medium,
                            inflight,
                            &mut next_tx,
                            listening,
                            listener,
                            &mut outs,
                            connected,
                        );
                    }
                }
                lls[fl.src.index()].on_tx_done(now, &fl.frame, &mut outs);
                apply(
                    queue,
                    medium,
                    inflight,
                    &mut next_tx,
                    listening,
                    fl.src,
                    &mut outs,
                    connected,
                );
            }
        }
        true
    };

    // Run until connected (bounded).
    while connected < 2 {
        assert!(
            queue.now() < Instant::from_secs(30),
            "link failed to form for throughput test"
        );
        if !step(
            &mut queue,
            &mut medium,
            &mut lls,
            &mut listening,
            &mut inflight,
            &mut connected,
        ) {
            panic!("queue drained before connection");
        }
    }
    // Saturate and measure.
    let start = queue.now() + Duration::from_millis(200);
    while queue.now() < start {
        refill(&mut lls[0], conn, pdu_len);
        if !step(
            &mut queue,
            &mut medium,
            &mut lls,
            &mut listening,
            &mut inflight,
            &mut connected,
        ) {
            break;
        }
    }
    let base = lls[1].conn_stats(conn).expect("alive").bytes_rx;
    let end = start + span;
    while queue.now() < end {
        refill(&mut lls[0], conn, pdu_len);
        if !step(
            &mut queue,
            &mut medium,
            &mut lls,
            &mut listening,
            &mut inflight,
            &mut connected,
        ) {
            break;
        }
    }
    let bytes = lls[1].conn_stats(conn).expect("alive").bytes_rx - base;
    ThroughputResult {
        kbps: bytes as f64 * 8.0 / span.as_secs_f64() / 1000.0,
        bytes,
        span,
    }
}

fn refill(ll: &mut LinkLayer, conn: ConnId, pdu_len: usize) {
    while ll.queue_space(conn) > 0 {
        if ll.enqueue(conn, vec![0xDA; pdu_len]).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_near_paper_value() {
        let r = measure_single_link(7, Duration::from_millis(75), 247, Duration::from_secs(5));
        assert!(
            (380.0..650.0).contains(&r.kbps),
            "throughput {:.0} kbps",
            r.kbps
        );
    }

    #[test]
    fn two_m_phy_raises_throughput() {
        use mindgap_ble::BlePhy;
        let m1 = measure_single_link(9, Duration::from_millis(75), 247, Duration::from_secs(3));
        let cfg = LlConfig {
            phy: BlePhy::TwoM,
            ..LlConfig::default()
        };
        let m2 = measure_single_link_cfg(
            9,
            Duration::from_millis(75),
            247,
            Duration::from_secs(3),
            cfg,
        );
        assert!(
            m2.kbps > 1.25 * m1.kbps,
            "2M {:.0} kbps vs 1M {:.0} kbps",
            m2.kbps,
            m1.kbps
        );
    }

    #[test]
    fn small_pdus_cost_throughput() {
        let big = measure_single_link(7, Duration::from_millis(75), 247, Duration::from_secs(3));
        let small = measure_single_link(7, Duration::from_millis(75), 27, Duration::from_secs(3));
        assert!(
            big.kbps > 2.0 * small.kbps,
            "{} vs {}",
            big.kbps,
            small.kbps
        );
    }
}
