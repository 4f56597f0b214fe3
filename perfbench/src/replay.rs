//! Per-layer cost replays: each drives one crate's public API on
//! inputs shaped like a workload (node count, radio adjacency, listener
//! set, payload size, queue depth, data rate) and reports host
//! nanoseconds per operation. Multiplied by the operation counts of a
//! real run, they estimate each layer's share of its host time — a
//! profile measured from outside the program, with no hooks inside it.

use std::hint::black_box;
use std::time::Instant as HostInstant;

use mindgap_ble::{ConnId, ConnParams, Frame, LinkLayer, ListenTag, LlConfig, Output, Timer};
use mindgap_coap::{Client, Code, Message, MsgType, Server};
use mindgap_l2cap::{BufPool, CocChannel, CocConfig};
use mindgap_net::{udp, Ipv6Addr, Ipv6Header, Ipv6Stack, NetConfig, NextHeader};
use mindgap_phy::{Channel, LossConfig, Medium, MediumConfig, RxOutcome, TxId, TxParams};
use mindgap_sim::{BytePool, Clock, Duration, EventQueue, Instant, NodeId, Rng};
use mindgap_sixlowpan::{iphc, LinkContext, LlAddr};

use crate::stats::median;

/// The workload properties the replays are shaped by.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Nodes in the topology.
    pub n_nodes: usize,
    /// Radio adjacency (`None`: everyone hears everyone).
    pub radio_links: Option<Vec<(u16, u16)>>,
    /// Advertising transport (broadcast trains) instead of
    /// connections (unicast connection events).
    pub adv: bool,
    /// CoAP request payload bytes.
    pub payload: usize,
    /// Data PDUs per coordinator connection event in the real run.
    pub data_per_event: f64,
}

/// Pending kernel events per node the queue replay holds: one LL timer
/// per connection end and an application or routing timer, as in the
/// statconn topologies.
const QUEUE_EVENTS_PER_NODE: usize = 3;
/// Timed batches per replay; the median batch is reported.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of `batch`'s nanoseconds per operation.
/// `batch` runs one batch and returns its operation count.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm caches and lazy allocations
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = HostInstant::now();
            let ops = batch().max(1);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_op).expect("BATCHES > 0")
}

/// A small deterministic generator for replay inputs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `sim::EventQueue`: one pop plus one keyed schedule (the hold model
/// of a steady-state event loop) at the workload's queue depth.
pub fn queue_ns_per_op(shape: &Shape) -> f64 {
    let depth = QUEUE_EVENTS_PER_NODE * shape.n_nodes;
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth as u64 {
        let at = Instant::ZERO + Duration::from_nanos(rng.next() % 150_000_000);
        q.schedule_at_keyed(at, (i % shape.n_nodes as u64) as u32 + 1, i);
    }
    ns_per_op(|| {
        const OPS: u64 = 200_000;
        for _ in 0..OPS {
            let (at, ev) = q.pop().expect("hold model keeps the queue full");
            let delay = Duration::from_nanos(1_000 + rng.next() % 150_000_000);
            q.schedule_at_keyed(at + delay, (ev % shape.n_nodes as u64) as u32 + 1, ev);
        }
        OPS
    })
}

/// Radio neighbours of every node under the shape's adjacency.
fn neighbours(shape: &Shape) -> Vec<Vec<NodeId>> {
    let n = shape.n_nodes;
    match &shape.radio_links {
        None => (0..n)
            .map(|a| {
                (0..n)
                    .filter(|&b| b != a)
                    .map(|b| NodeId(b as u16))
                    .collect()
            })
            .collect(),
        Some(links) => {
            let mut nb = vec![Vec::new(); n];
            for &(a, b) in links {
                nb[a as usize].push(NodeId(b));
                nb[b as usize].push(NodeId(a));
            }
            nb
        }
    }
}

/// `phy::Medium`: one `begin_tx` plus `finish_tx_into` with the
/// workload's listener set — the connection peer for unicast
/// connection events, or the third of the neighbours scanning the
/// train's advertising channel for broadcast trains.
pub fn medium_ns_per_tx(shape: &Shape) -> f64 {
    let nb = neighbours(shape);
    let mut medium = Medium::new(MediumConfig {
        n_nodes: shape.n_nodes,
        loss: LossConfig::ble_default(),
        seed: 42,
        radio_links: shape.radio_links.clone(),
    });
    // Precomputed (src, channel, listeners) plan, cycled through.
    let plan: Vec<(NodeId, Channel, Vec<NodeId>)> = (0..shape.n_nodes * 3)
        .filter_map(|i| {
            let src = i % shape.n_nodes;
            let hears = &nb[src];
            if hears.is_empty() {
                return None;
            }
            let round = i / shape.n_nodes;
            Some(if shape.adv {
                let listeners = hears.iter().copied().skip(round).step_by(3).collect();
                (
                    NodeId(src as u16),
                    Channel::ble_adv(37 + round as u8),
                    listeners,
                )
            } else {
                let peer = hears[round % hears.len()];
                (
                    NodeId(src as u16),
                    Channel::ble_data((i % 37) as u8),
                    vec![peer],
                )
            })
        })
        .collect();
    let airtime = Duration::from_micros(400);
    let mut now = Instant::ZERO;
    let mut out: Vec<(NodeId, RxOutcome)> = Vec::new();
    ns_per_op(|| {
        const OPS: u64 = 100_000;
        for i in 0..OPS as usize {
            let (src, channel, listeners) = &plan[i % plan.len()];
            let tx = medium.begin_tx(TxParams {
                src: *src,
                channel: *channel,
                start: now,
                airtime,
            });
            now = now + airtime + Duration::from_micros(150);
            medium.finish_tx_into(tx, listeners, &mut out);
            black_box(&out);
            out.clear();
        }
        OPS
    })
}

/// Events of the standalone link-layer pair.
enum PairEv {
    Timer(usize, Timer),
    TxEnd(usize),
}

/// A frame on air in the pair replay.
struct OnAir {
    tx: TxId,
    src: usize,
    frame: Frame,
    channel: Channel,
    start: Instant,
}

/// Two `LinkLayer`s sharing a medium and an event queue, as in the
/// link-layer test harness. Only the time spent inside `LinkLayer`
/// calls is charged.
struct LlPair {
    queue: EventQueue<PairEv>,
    medium: Medium,
    lls: [LinkLayer; 2],
    listening: [Option<(ListenTag, Channel, Instant, Instant)>; 2],
    on_air: Vec<Option<OnAir>>,
    up: usize,
    ll_ns: u64,
    ll_calls: u64,
}

impl LlPair {
    fn new() -> Self {
        let mut rng = Rng::seed_from_u64(42);
        let ll = |i: u16, ppm: f64, rng: &mut Rng| {
            LinkLayer::new(
                NodeId(i),
                Clock::with_ppm(ppm),
                LlConfig::default(),
                rng.fork(i as u64),
            )
        };
        LlPair {
            queue: EventQueue::new(),
            medium: Medium::new(MediumConfig {
                n_nodes: 2,
                loss: LossConfig::ble_default(),
                seed: rng.next_u64(),
                radio_links: None,
            }),
            lls: [ll(0, 2.0, &mut rng), ll(1, -2.0, &mut rng)],
            listening: [None; 2],
            on_air: Vec::new(),
            up: 0,
            ll_ns: 0,
            ll_calls: 0,
        }
    }

    /// Run one `LinkLayer` call, charging its host time.
    fn charged(&mut self, node: usize, call: impl FnOnce(&mut LinkLayer, &mut Vec<Output>)) {
        let mut outs = Vec::new();
        let start = HostInstant::now();
        call(&mut self.lls[node], &mut outs);
        self.ll_ns += start.elapsed().as_nanos() as u64;
        self.ll_calls += 1;
        self.apply(node, outs);
    }

    fn apply(&mut self, node: usize, outs: Vec<Output>) {
        let now = self.queue.now();
        for o in outs {
            match o {
                Output::Arm { at, timer } => {
                    self.queue
                        .schedule_at(at.max(now), PairEv::Timer(node, timer));
                }
                Output::Tx { channel, frame } => {
                    let airtime = frame.airtime();
                    let tx = self.medium.begin_tx(TxParams {
                        src: NodeId(node as u16),
                        channel,
                        start: now,
                        airtime,
                    });
                    self.on_air.push(Some(OnAir {
                        tx,
                        src: node,
                        frame,
                        channel,
                        start: now,
                    }));
                    let slot = self.on_air.len() - 1;
                    self.queue.schedule_at(now + airtime, PairEv::TxEnd(slot));
                }
                Output::Listen {
                    channel,
                    until,
                    tag,
                } => {
                    self.listening[node] = Some((tag, channel, now, until));
                }
                Output::ListenOff { tag } if self.listening[node].map(|(t, ..)| t) == Some(tag) => {
                    self.listening[node] = None;
                }
                Output::ConnUp { .. } => self.up += 1,
                _ => {}
            }
        }
    }

    fn step(&mut self) {
        let Some((now, ev)) = self.queue.pop() else {
            return;
        };
        match ev {
            PairEv::Timer(node, timer) => self.charged(node, |ll, o| ll.on_timer(now, timer, o)),
            PairEv::TxEnd(slot) => {
                let fl = self.on_air[slot].take().expect("frame on air");
                let listeners: Vec<NodeId> = (0..2)
                    .filter(|&i| {
                        self.listening[i].is_some_and(|(_, ch, since, until)| {
                            ch == fl.channel && since <= fl.start && until >= now
                        })
                    })
                    .map(|i| NodeId(i as u16))
                    .collect();
                for (listener, outcome) in self.medium.finish_tx(fl.tx, &listeners) {
                    if outcome.is_ok() {
                        let frame = &fl.frame;
                        self.charged(listener.index(), |ll, o| {
                            ll.on_frame_rx(now, frame, fl.channel, o)
                        });
                    }
                }
                let frame = &fl.frame;
                self.charged(fl.src, |ll, o| ll.on_tx_done(now, frame, o));
                if self.on_air.iter().all(Option::is_none) {
                    self.on_air.clear();
                }
            }
        }
    }
}

/// `ble::LinkLayer`: host ns per LL callback (timer, frame received,
/// transmission done) on a standalone coordinator/subordinate pair at
/// 75 ms, carrying K-frames of one request at the workload's data rate
/// per connection event. Also returns the LL callbacks per coordinator
/// connection event, which converts a run's event count into calls.
pub fn ll_ns_per_callback(shape: &Shape) -> (f64, f64) {
    // Basic L2CAP header + SDU length field around the request frame.
    let payload = request_frame_len(shape.payload) + 6;
    let mut pair = LlPair::new();
    let conn = ConnId(1);
    let params = ConnParams::with_interval(Duration::from_millis(75));
    pair.charged(1, |ll, o| ll.start_advertising(Instant::ZERO, o));
    pair.charged(0, |ll, o| {
        ll.start_scanning(Instant::ZERO, NodeId(1), conn, params, o)
    });
    while pair.up < 2 {
        assert!(
            pair.queue.now() < Instant::from_secs(5),
            "LL pair failed to connect"
        );
        pair.step();
    }
    // The cost of reading the clock, charged back per call. Measured in
    // each batch, so it sees the same host speed as the batch does.
    let clock_ns = || {
        let start = HostInstant::now();
        for _ in 0..10_000 {
            black_box(HostInstant::now());
        }
        start.elapsed().as_nanos() as f64 / 10_000.0
    };
    let mut credit = 0.0f64;
    let batch = |pair: &mut LlPair, credit: &mut f64| {
        let clock_ns = clock_ns();
        let (ns0, calls0) = (pair.ll_ns, pair.ll_calls);
        let events0 = pair.lls[0].counters().coord_events;
        let until = pair.queue.now() + Duration::from_secs(60);
        while pair.queue.peek_time().is_some_and(|t| t <= until) {
            let before = pair.lls[0].counters().coord_events;
            pair.step();
            if pair.lls[0].counters().coord_events > before {
                *credit += shape.data_per_event;
                while *credit >= 1.0 {
                    *credit -= 1.0;
                    let _ = pair.lls[0].enqueue(conn, vec![0xA5; payload]);
                }
            }
        }
        let calls = (pair.ll_calls - calls0).max(1);
        let events = (pair.lls[0].counters().coord_events - events0).max(1);
        (
            (pair.ll_ns - ns0) as f64 / calls as f64 - clock_ns,
            calls as f64 / events as f64,
        )
    };
    batch(&mut pair, &mut credit);
    let runs: Vec<(f64, f64)> = (0..BATCHES)
        .map(|_| batch(&mut pair, &mut credit))
        .collect();
    let ns = median(&runs.iter().map(|r| r.0).collect::<Vec<_>>()).expect("BATCHES > 0");
    let per_event = median(&runs.iter().map(|r| r.1).collect::<Vec<_>>()).expect("BATCHES > 0");
    (ns.max(0.0), per_event)
}

/// The datagram a producer sends: CoAP NON GET with `payload` bytes,
/// in UDP, in IPv6, from `src` to the consumer (node 0).
fn request_packet(src: u16, payload: usize) -> Vec<u8> {
    let coap = Client::new(src)
        .request(
            0,
            MsgType::NonConfirmable,
            Code::GET,
            mindgap_core::BENCH_PATH,
            vec![0xA5; payload],
        )
        .encode();
    let (s, d) = (Ipv6Addr::of_node(src), Ipv6Addr::of_node(0));
    Ipv6Header::build_packet(
        NextHeader::Udp,
        s,
        d,
        &udp::encode(&s, &d, 5683, 5683, &coap),
    )
}

/// `sixlowpan::iphc`: compress one request datagram into a frame and
/// decode it back (one hop's worth of adaptation work).
pub fn sixlowpan_ns_per_frame(shape: &Shape) -> f64 {
    let packet = request_packet(1, shape.payload);
    let ctx = LinkContext {
        src: LlAddr::from_node_index(1),
        dst: LlAddr::from_node_index(0),
    };
    ns_per_op(|| {
        const OPS: u64 = 50_000;
        for _ in 0..OPS {
            let frame = iphc::encode_frame(black_box(&packet), &ctx);
            black_box(iphc::decode_frame(&frame, &ctx).expect("own frame decodes"));
        }
        OPS
    })
}

/// Length of the 6LoWPAN frame carrying one request (the L2CAP SDU).
fn request_frame_len(payload: usize) -> usize {
    let ctx = LinkContext {
        src: LlAddr::from_node_index(1),
        dst: LlAddr::from_node_index(0),
    };
    iphc::encode_frame(&request_packet(1, payload), &ctx).len()
}

/// `l2cap::CocChannel`: queue one request-sized SDU, segment it into
/// K-frames, reassemble it at the peer and return credits.
pub fn l2cap_ns_per_sdu(shape: &Shape) -> f64 {
    let cfg = CocConfig::default();
    let (mut tx, mut rx) = (
        CocChannel::symmetric(cfg, 0x40, 0x41),
        CocChannel::symmetric(cfg, 0x41, 0x40),
    );
    let mut pool = BufPool::new(1 << 20);
    let mut bufs = BytePool::new();
    let sdu = vec![0x5A; request_frame_len(shape.payload)];
    let max_pdu = LlConfig::default().max_pdu;
    ns_per_op(|| {
        const OPS: u64 = 50_000;
        for _ in 0..OPS {
            tx.send_sdu(sdu.clone(), &mut pool).expect("pool has room");
            while let Some(pdu) = tx.next_pdu(max_pdu, &mut pool, &mut bufs) {
                if let Some(done) = rx.on_pdu(&pdu[4..]).expect("well-formed K-frame") {
                    black_box(done);
                }
                bufs.put(pdu);
            }
            let credits = rx.credits_to_return();
            if credits > 0 {
                tx.grant(credits);
            }
        }
        OPS
    })
}

/// `net::ipv6`/`routing`: one datagram through a router's
/// `Ipv6Stack::on_datagram`, alternating a forward (routing lookup over
/// one host route per node) with a local delivery (UDP checksum).
pub fn net_ns_per_pkt(shape: &Shape) -> f64 {
    let n = shape.n_nodes.max(3) as u16;
    let mut stack = Ipv6Stack::new(NetConfig::for_node(0));
    stack.bind_udp(5683);
    for i in 1..n {
        let hop = Ipv6Addr::of_node(1 + i % 2);
        stack.routing_mut().add_host(Ipv6Addr::of_node(i), hop);
    }
    for hop in [1u16, 2] {
        stack
            .neighbors_mut()
            .insert(Ipv6Addr::of_node(hop), LlAddr::from_node_index(hop));
    }
    // Deliveries reach node 0; forwards head for the far end of the
    // table, the worst case for a linear route lookup.
    let deliver = request_packet(n - 1, shape.payload);
    let mut forward = deliver.clone();
    forward[24..40].copy_from_slice(&Ipv6Addr::of_node(n - 1).octets());
    ns_per_op(|| {
        const OPS: u64 = 50_000;
        for i in 0..OPS {
            let pkt = if i % 2 == 0 { &forward } else { &deliver };
            black_box(stack.on_datagram(black_box(pkt)));
        }
        OPS
    })
}

/// `coap::msg`/`endpoint`: one message of a request/response exchange
/// (client request, encode, decode, server response, encode, decode,
/// client match), i.e. half an exchange.
pub fn coap_ns_per_msg(shape: &Shape) -> f64 {
    let mut client = Client::new(1);
    let mut server = Server::new(0);
    let (req_payload, resp_payload) = (vec![0xA5; shape.payload], vec![0x5A; 10]);
    let mut now = 0u64;
    ns_per_op(|| {
        const EXCHANGES: u64 = 25_000;
        for _ in 0..EXCHANGES {
            now += 1_000_000;
            let req = client.request(
                now,
                MsgType::NonConfirmable,
                Code::GET,
                mindgap_core::BENCH_PATH,
                req_payload.clone(),
            );
            let req = Message::decode(&req.encode()).expect("own request decodes");
            if let Some(reply) = server.respond(&req, Code::CONTENT, resp_payload.clone()) {
                let resp = Message::decode(&reply.message.encode()).expect("own response decodes");
                black_box(client.on_response(&resp, now + 1));
            }
        }
        2 * EXCHANGES
    })
}
