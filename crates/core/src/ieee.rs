//! The IEEE 802.15.4 testbed — the paper's §5.3 baseline.
//!
//! Same upper stack as the BLE [`crate::World`] (IPv6 router, static
//! routes, CoAP producers/consumer), but over the m3 boards' radio:
//! the `mindgap-dot15d4` CSMA/CA MAC on a single channel at 250 kbps,
//! with RFC 4944 fragmentation for datagrams beyond one frame.
//!
//! There is no connection concept: the network is "up" immediately,
//! losses come from CSMA collisions, noisy-channel retries running
//! out, and MAC queue overflow — which is exactly the contrast with
//! BLE the paper draws (fast-but-lossy vs slow-but-reliable).

use mindgap_coap::{Client, Code, Message, MsgType, Server};
use mindgap_dot15d4::{MacConfig, MacCounters, MacFrame, MacOutput, MacTimer, Radio802154, MAX_MAC_PAYLOAD};
use mindgap_net::{Ipv6Addr, Ipv6Stack, NetConfig, StackEvent};
use mindgap_phy::{Channel, LossConfig, Medium, MediumConfig, TxId, TxParams};
use mindgap_sim::{Duration, EventQueue, Instant, NodeId, Rng, Trace};
use mindgap_sixlowpan::{frag, iphc, LinkContext, LlAddr};

use crate::records::Records;
use crate::world::{AppConfig, NodeConfig};
use crate::BENCH_PATH;

const COAP_PORT: u16 = 5683;
/// RFC 4944 reassembly timeout.
const REASSEMBLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Configuration of the 802.15.4 world.
#[derive(Debug, Clone)]
pub struct IeeeConfig {
    /// Master seed.
    pub seed: u64,
    /// MAC parameters (spec defaults).
    pub mac: MacConfig,
    /// Channel-error process. The paper's Strasbourg site is noisier
    /// than the BLE room; see `LossConfig::ieee802154_default`.
    pub loss: LossConfig,
    /// Records bucket width.
    pub record_bucket: Duration,
}

impl IeeeConfig {
    /// Paper-calibrated defaults.
    pub fn paper_default(seed: u64) -> Self {
        IeeeConfig {
            seed,
            mac: MacConfig::default(),
            loss: LossConfig::ieee802154_default(),
            record_bucket: Duration::from_secs(60),
        }
    }
}

enum Ev {
    MacTimer(NodeId, MacTimer),
    TxEnd(u64),
    AppSend(NodeId),
    CoapSweep,
}

struct InFlight {
    id: u64,
    tx: TxId,
    src: NodeId,
    frame: MacFrame,
}

struct IeeeNode {
    mac: Radio802154,
    stack: Ipv6Stack,
    client: Client,
    server: Server,
    reassembler: frag::Reassembler,
    next_frag_tag: u16,
    rng: Rng,
}

/// The 802.15.4 testbed world.
pub struct IeeeWorld {
    queue: EventQueue<Ev>,
    medium: Medium,
    nodes: Vec<IeeeNode>,
    inflight: Vec<InFlight>,
    next_tx: u64,
    channel: Channel,
    records: Records,
    /// Control-plane event counter (`trace_dropped` in results).
    pub trace: Trace,
    app: AppConfig,
    started: bool,
    events: u64,
}

impl IeeeWorld {
    /// Build the world; `node_cfgs[i]` configures node `i` (the
    /// statconn edges are ignored — 802.15.4 needs none).
    pub fn new(cfg: IeeeConfig, node_cfgs: Vec<NodeConfig>, app: AppConfig) -> Self {
        let n = node_cfgs.len();
        assert!(n >= 2);
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let medium = Medium::new(MediumConfig {
            n_nodes: n,
            loss: cfg.loss,
            seed: rng.fork(0xF00D).next_u64(),
            radio_links: None,
        });
        let channel = Channel::ieee802154(cfg.mac.channel);
        let nodes = node_cfgs
            .into_iter()
            .enumerate()
            .map(|(i, nc)| {
                let id = NodeId(i as u16);
                let mut stack = Ipv6Stack::new(NetConfig::for_node(id.0));
                stack.bind_udp(COAP_PORT);
                for (dst, via) in nc.routes {
                    stack.routing_mut().add_host(dst, via);
                }
                IeeeNode {
                    mac: Radio802154::new(id, cfg.mac, rng.fork(1000 + i as u64)),
                    stack,
                    client: Client::new(i as u16),
                    server: Server::new(0x8000 | i as u16),
                    reassembler: frag::Reassembler::new(REASSEMBLY_TIMEOUT.nanos()),
                    next_frag_tag: 0,
                    rng: rng.fork(3000 + i as u64),
                }
            })
            .collect();
        IeeeWorld {
            queue: EventQueue::new(),
            medium,
            nodes,
            inflight: Vec::new(),
            next_tx: 0,
            channel,
            records: Records::new(cfg.record_bucket),
            trace: Trace::default(),
            app,
            started: false,
            events: 0,
        }
    }

    /// Kernel events processed (popped and dispatched) since
    /// construction — the denominator of events-per-second figures.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Current simulation time.
    pub fn now(&self) -> Instant {
        self.queue.now()
    }

    /// Records.
    pub fn records(&self) -> &Records {
        &self.records
    }

    /// Consume the world, returning its records.
    pub fn into_records(self) -> Records {
        self.records
    }

    /// MAC counters of one node.
    pub fn mac_counters(&self, node: NodeId) -> MacCounters {
        self.nodes[node.index()].mac.counters()
    }

    /// Start producers and housekeeping.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for p in self.app.producers.clone() {
            let jittered = self.nodes[p.index()].rng.jittered_nanos(
                self.app.producer_interval.nanos(),
                self.app.producer_jitter.nanos(),
            );
            let at = self.queue.now() + self.app.warmup + Duration::from_nanos(jittered);
            self.queue.schedule_at(at, Ev::AppSend(p));
        }
        self.queue
            .schedule_in(Duration::from_secs(5), Ev::CoapSweep);
    }

    /// Run until `t`.
    pub fn run_until(&mut self, t: Instant) {
        self.start();
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
    }

    fn step(&mut self) {
        let Some((now, ev)) = self.queue.pop() else {
            return;
        };
        self.events += 1;
        match ev {
            Ev::MacTimer(node, timer) => {
                let channel = self.channel;
                // CCA closure consults the live medium.
                let medium = &self.medium;
                let outs = self.nodes[node.index()]
                    .mac
                    .on_timer(now, timer, || medium.carrier_sense(node, channel, now));
                self.apply_mac(node, outs);
            }
            Ev::TxEnd(id) => self.tx_end(now, id),
            Ev::AppSend(node) => self.producer_send(now, node),
            Ev::CoapSweep => {
                let timeout = self.app.coap_timeout.nanos();
                for n in &mut self.nodes {
                    let _ = n.client.expire(now.nanos(), timeout);
                    let _ = n.reassembler.expire(now.nanos());
                }
                self.queue.schedule_in(Duration::from_secs(5), Ev::CoapSweep);
            }
        }
    }

    fn tx_end(&mut self, now: Instant, id: u64) {
        let idx = self
            .inflight
            .iter()
            .position(|f| f.id == id)
            .expect("tx tracked");
        let fl = self.inflight.swap_remove(idx);
        // Every other node's receiver is on (802.15.4 is always
        // listening unless transmitting; the medium's collision model
        // accounts for a transmitting listener).
        let listeners: Vec<NodeId> = (0..self.nodes.len() as u16)
            .map(NodeId)
            .filter(|n| *n != fl.src)
            .collect();
        let outcomes = self.medium.finish_tx(fl.tx, &listeners);
        // Link-layer accounting for unicast data frames: channel slot 0
        // (single channel — the per-channel axis is BLE-specific).
        if let MacFrame::Data {
            dst: Some(dst), ..
        } = &fl.frame
        {
            let ok = outcomes.iter().any(|(l, o)| l == dst && o.is_ok());
            self.records.ll_attempt(fl.src, *dst, now, 0, ok);
        }
        for (listener, outcome) in outcomes {
            if outcome.is_ok() {
                let outs = self.nodes[listener.index()].mac.on_frame_rx(now, &fl.frame);
                self.apply_mac(listener, outs);
            }
        }
        let outs = self.nodes[fl.src.index()].mac.on_tx_done(now);
        self.apply_mac(fl.src, outs);
    }

    fn apply_mac(&mut self, node: NodeId, outputs: Vec<MacOutput>) {
        let now = self.queue.now();
        for o in outputs {
            match o {
                MacOutput::Arm { at, timer } => {
                    self.queue
                        .schedule_at(at.max(now), Ev::MacTimer(node, timer));
                }
                MacOutput::Tx { frame } => {
                    let airtime = frame.airtime();
                    let tx = self.medium.begin_tx(TxParams {
                        src: node,
                        channel: self.channel,
                        start: now,
                        airtime,
                    });
                    let id = self.next_tx;
                    self.next_tx += 1;
                    self.inflight.push(InFlight {
                        id,
                        tx,
                        src: node,
                        frame,
                    });
                    self.queue.schedule_at(now + airtime, Ev::TxEnd(id));
                }
                MacOutput::Rx { src, payload } => {
                    self.mac_rx(node, src, payload);
                }
                MacOutput::TxOk => {}
                MacOutput::TxFailed { reason } => {
                    self.records.drop(reason);
                    self.trace.emit();
                }
            }
        }
    }

    fn mac_rx(&mut self, node: NodeId, src: NodeId, payload: Vec<u8>) {
        let now = self.queue.now();
        let datagram = if frag::is_fragment(&payload) {
            match self.nodes[node.index()].reassembler.on_fragment(
                src.0 as u64,
                &payload,
                now.nanos(),
            ) {
                Ok(Some(d)) => d,
                Ok(None) => return,
                Err(_) => {
                    self.records.drop("bad_fragment");
                    return;
                }
            }
        } else {
            payload
        };
        let ctx = LinkContext {
            src: LlAddr::from_node_index(src.0),
            dst: LlAddr::from_node_index(node.0),
        };
        let packet = match iphc::decode_frame(&datagram, &ctx) {
            Ok(p) => p,
            Err(_) => {
                self.records.drop("sixlowpan_malformed");
                return;
            }
        };
        let events = self.nodes[node.index()].stack.on_datagram(&packet);
        self.handle_stack_events(node, events);
    }

    fn handle_stack_events(&mut self, node: NodeId, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::DeliverUdp {
                    src,
                    src_port,
                    dst_port,
                    payload,
                } => {
                    if dst_port == COAP_PORT {
                        self.coap_rx(node, src, src_port, &payload);
                    }
                }
                StackEvent::Transmit {
                    packet,
                    next_hop_ll,
                } => {
                    self.send_ip(node, packet, next_hop_ll);
                }
                StackEvent::Dropped { reason } => self.records.drop(reason),
                StackEvent::DeliverEchoReply { .. } => {}
            }
        }
    }

    fn coap_rx(&mut self, node: NodeId, src: Ipv6Addr, src_port: u16, payload: &[u8]) {
        let now = self.queue.now();
        let Ok(msg) = Message::decode(payload) else {
            self.records.drop("coap_malformed");
            return;
        };
        if msg.code.is_request() {
            let response_payload = vec![0x5A; self.app.response_payload];
            let reply = self.nodes[node.index()]
                .server
                .respond(&msg, Code::CONTENT, response_payload);
            if let Some(reply) = reply {
                let bytes = reply.message.encode();
                self.send_udp(node, src, COAP_PORT, src_port, &bytes);
            }
        } else if msg.code.is_response() {
            let done = self.nodes[node.index()].client.on_response(&msg, now.nanos());
            if let Some(c) = done {
                self.records.coap_done(
                    node,
                    Instant::from_nanos(c.request.sent_at_ns),
                    Duration::from_nanos(c.rtt_ns),
                );
            }
        }
    }

    fn send_udp(&mut self, node: NodeId, dst: Ipv6Addr, src_port: u16, dst_port: u16, data: &[u8]) {
        let res = self.nodes[node.index()]
            .stack
            .send_udp(dst, src_port, dst_port, data);
        match res {
            Ok((packet, ll)) => self.send_ip(node, packet, ll),
            Err(_) => self.records.drop("no_route_local"),
        }
    }

    fn send_ip(&mut self, node: NodeId, packet: Vec<u8>, next_hop_ll: LlAddr) {
        let now = self.queue.now();
        let dst = if next_hop_ll == LlAddr::BROADCAST {
            None
        } else {
            Some(NodeId(u16::from_be_bytes([
                next_hop_ll.0[6],
                next_hop_ll.0[7],
            ])))
        };
        let ctx = LinkContext {
            src: LlAddr::from_node_index(node.0),
            dst: dst
                .map(|d| LlAddr::from_node_index(d.0))
                .unwrap_or(LlAddr::BROADCAST),
        };
        let frame6 = iphc::encode_frame(&packet, &ctx);
        let n = &mut self.nodes[node.index()];
        if frame6.len() <= MAX_MAC_PAYLOAD {
            let outs = n.mac.enqueue(now, dst, frame6);
            self.apply_mac(node, outs);
        } else {
            // RFC 4944 fragmentation (§4.3 keeps packets below this,
            // but the stack handles larger datagrams).
            let tag = n.next_frag_tag;
            n.next_frag_tag = n.next_frag_tag.wrapping_add(1);
            let frags = frag::fragment(&frame6, tag, MAX_MAC_PAYLOAD);
            for f in frags {
                let outs = self.nodes[node.index()].mac.enqueue(now, dst, f);
                self.apply_mac(node, outs);
            }
        }
    }

    fn producer_send(&mut self, now: Instant, node: NodeId) {
        let consumer = Ipv6Addr::of_node(self.app.consumer.0);
        let payload = vec![0xA5; self.app.payload];
        let msg = self.nodes[node.index()].client.request(
            now.nanos(),
            MsgType::NonConfirmable,
            Code::GET,
            BENCH_PATH,
            payload,
        );
        self.records.coap_sent(node, now);
        let bytes = msg.encode();
        self.send_udp(node, consumer, COAP_PORT, COAP_PORT, &bytes);
        let jittered = self.nodes[node.index()].rng.jittered_nanos(
            self.app.producer_interval.nanos(),
            self.app.producer_jitter.nanos(),
        );
        self.queue
            .schedule_at(now + Duration::from_nanos(jittered), Ev::AppSend(node));
    }
}
