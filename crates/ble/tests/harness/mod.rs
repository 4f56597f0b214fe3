//! A miniature simulation world for link-layer integration tests.
//!
//! Drives several [`LinkLayer`]s against a shared [`Medium`] with a
//! single event queue — a scaled-down preview of the full world in
//! `mindgap-core`, kept here so link-layer behaviour (connection
//! setup, ARQ, supervision, shading) can be tested in isolation.

use mindgap_ble::{
    ConnId, ConnParams, Frame, LinkLayer, ListenTag, LlConfig, LossReason, Output, Role, Timer,
};
use mindgap_phy::{Channel, LossConfig, Medium, MediumConfig, TxId};
use mindgap_sim::{Clock, EventQueue, Instant, NodeId, Rng};

pub enum Ev {
    Timer(NodeId, Timer),
    TxEnd(u64),
}

pub struct InFlight {
    pub id: u64,
    pub tx: TxId,
    pub src: NodeId,
    pub frame: Frame,
    pub channel: Channel,
    pub start: Instant,
}

#[derive(Default)]
pub struct Log {
    pub conn_up: Vec<(NodeId, ConnId, Role)>,
    pub conn_down: Vec<(NodeId, ConnId, LossReason, Instant)>,
    pub rx: Vec<(NodeId, ConnId, Vec<u8>)>,
    pub sightings: Vec<(NodeId, NodeId)>,
}

pub struct MiniWorld {
    pub queue: EventQueue<Ev>,
    pub medium: Medium,
    pub lls: Vec<LinkLayer>,
    listening: Vec<Option<(ListenTag, Channel, Instant, Instant)>>,
    inflight: Vec<InFlight>,
    next_tx: u64,
    pub log: Log,
    /// (node, conn) pairs whose LL queue is kept saturated with dummy
    /// PDUs of the given size (throughput tests).
    pub saturate: Vec<(NodeId, ConnId, usize)>,
}

impl MiniWorld {
    pub fn new(clocks: &[f64], loss: LossConfig, seed: u64) -> Self {
        Self::with_cfg(clocks, loss, seed, LlConfig::default())
    }

    pub fn with_cfg(clocks: &[f64], loss: LossConfig, seed: u64, cfg: LlConfig) -> Self {
        let n = clocks.len();
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
        MiniWorld {
            queue: EventQueue::new(),
            medium: Medium::new(MediumConfig {
                n_nodes: n,
                loss,
                seed: rng.next_u64(),
                radio_links: None,
            }),
            lls,
            listening: vec![None; n],
            inflight: Vec::new(),
            next_tx: 0,
            log: Log::default(),
            saturate: Vec::new(),
        }
    }

    pub fn now(&self) -> Instant {
        self.queue.now()
    }

    pub fn apply(&mut self, node: NodeId, outputs: &mut Vec<Output>) {
        let now = self.queue.now();
        for o in outputs.drain(..) {
            match o {
                Output::Arm { at, timer } => {
                    self.queue.schedule_at(at.max(now), Ev::Timer(node, timer));
                }
                Output::Tx { channel, frame } => {
                    let airtime = frame.airtime();
                    let tx = self.medium.begin_tx(mindgap_phy::TxParams {
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
                Output::Trace { .. } => {}
                // Observability events are the World's concern; the
                // LL harness only exercises protocol behaviour.
                Output::Obs(_) => {}
                Output::AdvSighting { advertiser } => {
                    self.log.sightings.push((node, advertiser));
                }
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

    /// Run until the given instant (or the queue drains).
    pub fn run_until(&mut self, t: Instant) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
    }

    /// Convenience: connect `coordinator → advertiser` with `params`,
    /// returning the ConnId used.
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

    /// Wait until both ends report the connection up (panics after
    /// `deadline`).
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

    pub fn losses(&self) -> usize {
        self.log.conn_down.len()
    }
}
