//! A two-or-more-node link-layer world: [`LinkLayer`]s over a shared
//! [`Medium`] with one event queue.
//!
//! The full simulation world in `mindgap-core` adds L2CAP, IPv6,
//! connection management and observability on top of the same loop.
//! [`LlWorld`] drives the link layer alone, so link-layer behaviour
//! (connection setup, ARQ, supervision, shading) can be tested in
//! isolation and single-link throughput (§5.2) measured without the
//! upper layers.

use mindgap_phy::{Channel, Medium, TxId, TxParams};
use mindgap_sim::{EventQueue, Instant, NodeId};

use crate::{ConnId, ConnParams, Frame, LinkLayer, ListenTag, LossReason, Output, Role, Timer};

enum Ev {
    Timer(NodeId, Timer),
    TxEnd(u64),
}

struct InFlight {
    id: u64,
    tx: TxId,
    src: NodeId,
    frame: Frame,
    channel: Channel,
    start: Instant,
}

/// What the link layers reported, in order.
#[derive(Default)]
pub struct Log {
    /// Connections that came up: (node, connection, role).
    pub conn_up: Vec<(NodeId, ConnId, Role)>,
    /// Connections that went down: (node, connection, reason, when).
    pub conn_down: Vec<(NodeId, ConnId, LossReason, Instant)>,
    /// Payloads received: (node, connection, payload).
    pub rx: Vec<(NodeId, ConnId, Vec<u8>)>,
}

/// Link layers over one medium, driven by one event queue.
pub struct LlWorld {
    queue: EventQueue<Ev>,
    /// The shared radio medium.
    pub medium: Medium,
    /// One link layer per node, indexed by [`NodeId`].
    pub lls: Vec<LinkLayer>,
    listening: Vec<Option<(ListenTag, Channel, Instant, Instant)>>,
    inflight: Vec<InFlight>,
    next_tx: u64,
    /// Everything the link layers reported.
    pub log: Log,
    /// (node, conn) pairs whose LL queue is kept saturated with dummy
    /// PDUs of the given size (throughput runs).
    pub saturate: Vec<(NodeId, ConnId, usize)>,
}

impl LlWorld {
    /// A world over `medium` with link layer `i` at node `i`.
    pub fn new(medium: Medium, lls: Vec<LinkLayer>) -> Self {
        LlWorld {
            queue: EventQueue::new(),
            medium,
            listening: vec![None; lls.len()],
            lls,
            inflight: Vec::new(),
            next_tx: 0,
            log: Log::default(),
            saturate: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.queue.now()
    }

    fn apply(&mut self, node: NodeId, outputs: &mut Vec<Output>) {
        let now = self.queue.now();
        for o in outputs.drain(..) {
            match o {
                Output::Arm { at, timer } => {
                    self.queue.schedule_at(at.max(now), Ev::Timer(node, timer));
                }
                Output::Tx { channel, frame } => {
                    let airtime = frame.airtime();
                    let tx = self.medium.begin_tx(TxParams {
                        src: node,
                        channel,
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
                        channel,
                        start: now,
                    });
                    self.queue.schedule_at(now + airtime, Ev::TxEnd(id));
                }
                Output::Listen {
                    channel,
                    until,
                    tag,
                } => {
                    self.listening[node.index()] = Some((tag, channel, now, until));
                }
                Output::ListenOff { tag } => {
                    if self.listening[node.index()].map(|(t, ..)| t) == Some(tag) {
                        self.listening[node.index()] = None;
                    }
                }
                Output::ConnUp { conn, role, .. } => {
                    self.log.conn_up.push((node, conn, role));
                }
                Output::ConnDown { conn, reason, .. } => {
                    self.log.conn_down.push((node, conn, reason, now));
                }
                Output::Rx { conn, payload } => {
                    self.log.rx.push((node, conn, payload));
                }
                Output::TxSpace { conn } => {
                    self.refill(node, conn);
                }
                // Traces, observability events and discovery sightings
                // are the full world's concern.
                Output::Trace { .. } | Output::Obs(_) | Output::AdvSighting { .. } => {}
            }
        }
    }

    fn refill(&mut self, node: NodeId, conn: ConnId) {
        let Some(&(_, _, size)) = self
            .saturate
            .iter()
            .find(|(n, c, _)| *n == node && *c == conn)
        else {
            return;
        };
        let ll = &mut self.lls[node.index()];
        while ll.queue_space(conn) > 0 {
            if ll.enqueue(conn, vec![0xAB; size]).is_err() {
                break;
            }
        }
    }

    /// Top up all saturated queues (call after registering them).
    pub fn kick_saturation(&mut self) {
        for (node, conn, _) in self.saturate.clone() {
            self.refill(node, conn);
        }
    }

    /// Process a single queued event. Returns false when idle.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        match ev {
            Ev::Timer(node, timer) => {
                let mut outs = Vec::new();
                self.lls[node.index()].on_timer(now, timer, &mut outs);
                self.apply(node, &mut outs);
            }
            Ev::TxEnd(id) => {
                let idx = self
                    .inflight
                    .iter()
                    .position(|f| f.id == id)
                    .expect("tx tracked");
                let fl = self.inflight.swap_remove(idx);
                // Who was listening for the whole frame?
                let listeners: Vec<NodeId> = self
                    .listening
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| {
                        let (_, ch, since, until) = (*l)?;
                        (ch == fl.channel && since <= fl.start && until >= now)
                            .then_some(NodeId(i as u16))
                    })
                    .collect();
                let outcomes = self.medium.finish_tx(fl.tx, &listeners);
                let mut outs = Vec::new();
                for (listener, outcome) in outcomes {
                    if outcome.is_ok() {
                        self.lls[listener.index()]
                            .on_frame_rx(now, &fl.frame, fl.channel, &mut outs);
                        self.apply(listener, &mut outs);
                    }
                }
                self.lls[fl.src.index()].on_tx_done(now, &fl.frame, &mut outs);
                self.apply(fl.src, &mut outs);
            }
        }
        true
    }

    /// Run every event due at or before `t` (or until the queue drains).
    pub fn run_until(&mut self, t: Instant) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
    }

    /// Start `advertiser` advertising and `coordinator` scanning for
    /// it; the connection will carry `conn_id` and `params`.
    pub fn connect(
        &mut self,
        coordinator: NodeId,
        advertiser: NodeId,
        conn_id: ConnId,
        params: ConnParams,
    ) {
        let now = self.queue.now();
        let mut outs = Vec::new();
        self.lls[advertiser.index()].start_advertising(now, &mut outs);
        self.apply(advertiser, &mut outs);
        self.lls[coordinator.index()].start_scanning(now, advertiser, conn_id, params, &mut outs);
        self.apply(coordinator, &mut outs);
    }

    /// Run until both ends report `conn` up.
    ///
    /// # Panics
    /// If the next event lies after `deadline` (or the queue drains)
    /// first.
    pub fn await_up(&mut self, conn: ConnId, deadline: Instant) {
        loop {
            let ups = self
                .log
                .conn_up
                .iter()
                .filter(|(_, c, _)| *c == conn)
                .count();
            if ups >= 2 {
                return;
            }
            assert!(
                self.queue
                    .peek_time()
                    .map(|t| t <= deadline)
                    .unwrap_or(false),
                "connection {conn:?} not established before {deadline}"
            );
            self.step();
        }
    }

    /// Connection losses reported so far (both ends count).
    pub fn losses(&self) -> usize {
        self.log.conn_down.len()
    }
}
