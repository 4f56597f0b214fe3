//! # mindgap-adv — connection-less IPv6-over-BLE transport
//!
//! The paper's transport (and this repo's default) runs 6LoWPAN over
//! L2CAP connection-oriented channels: per-link connection state,
//! credit-based flow control, and the connection-event scheduling whose
//! interactions ("shading", §6.1) the paper dissects. This crate is the
//! *other* design point from the BLE mesh literature: carry each
//! compressed 6LoWPAN frame in an **extended-advertising PDU** and
//! receive with **duty-cycled scanning** — no connection state, no
//! credit flow, no shading, at the cost of contention on three shared
//! advertising channels and receive-side duty cycling.
//!
//! [`AdvLink`] is sans-I/O in the same style as `ble::LinkLayer`: the
//! world drives it through [`AdvLink::on_timer`], [`AdvLink::on_frame_rx`]
//! and [`AdvLink::on_tx_done`], and it pushes [`AdvOut`] actions into a
//! caller-owned buffer. All randomness (advDelay jitter, initial
//! desynchronisation) comes from a forked simulation [`Rng`], so runs
//! are deterministic and byte-identical across worker counts.
//!
//! ## Protocol model
//!
//! * Every [`ADV_INTERVAL`] (plus a 0..=[`ADV_JITTER`] advDelay, Vol 6
//!   Part B §4.4.2.2.1) the node runs an **advertising event**: up to
//!   [`TRAINS_PER_EVENT`] back-to-back trains, each train transmitting
//!   the same PDU on channels 37, 38 and 39 with `T_IFS` spacing.
//! * Queued frames are sent [`REPEATS`] trains each (receivers scan a
//!   single channel at a time, so one train gives one reception
//!   opportunity per listening neighbor; repeats trade airtime and
//!   energy for delivery probability).
//! * With an empty queue the node sends a **beacon** train (empty
//!   payload, broadcast) — this is the neighbor discovery behind
//!   [`AdvLink::neighbors`] and [`AdvLink::admit`], surfaced as
//!   [`AdvOut::NeighborUp`] / [`AdvOut::NeighborDown`].
//! * Scanning rotates over 37/38/39 every [`SCAN_INTERVAL`], listening
//!   for [`AdvConfig::scan_window`] of it. The radio is half-duplex: a
//!   train interrupts the scan window and the remainder resumes
//!   afterwards.
//! * Receive-side **duplicate suppression** keys on the per-advertiser
//!   `(advertiser, seq)` pair in a bounded ring — it collapses the
//!   [`REPEATS`] × 3 copies of each frame to one delivery (see
//!   DESIGN.md §10). A frame travels one radio hop; IPv6 forwarding
//!   above the transport carries it further.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mindgap_ble::Frame;
use mindgap_phy::{airtime, Channel};
use mindgap_sim::{Clock, Duration, Instant, NodeId, Rng};
use mindgap_sixlowpan::LlAddr;

/// The three advertising channels a train walks, in order.
const ADV_CHANNELS: [u8; 3] = [37, 38, 39];

/// Nominal spacing of advertising events (local clock).
pub const ADV_INTERVAL: Duration = Duration::from_millis(50);
/// Upper bound of the per-event pseudo-random advDelay.
pub const ADV_JITTER: Duration = Duration::from_millis(10);
/// Scan channel rotation period (local clock).
pub const SCAN_INTERVAL: Duration = Duration::from_millis(100);
/// Maximum back-to-back trains per advertising event.
pub const TRAINS_PER_EVENT: u8 = 3;
/// Trains each queued frame is transmitted in before being dropped
/// from the queue.
pub const REPEATS: u8 = 2;
/// Transmit queue depth; beyond it [`AdvLink::send`] reports
/// backpressure.
const QUEUE_CAP: usize = 16;
/// Duplicate-suppression ring size, in `(advertiser, seq)` entries.
const DEDUP_CAP: usize = 64;
/// A neighbor not heard for this long is declared down.
const NEIGHBOR_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest 6LoWPAN frame one PDU can carry: the largest
/// advertising-data unit minus the [`Frame::ADV_DATA_OVERHEAD`]
/// addressing bytes.
const MTU: usize = airtime::BLE_EXT_ADV_MAX_PAYLOAD as usize - Frame::ADV_DATA_OVERHEAD;

/// Tuning parameters of the advertising transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvConfig {
    /// Listening span inside each [`SCAN_INTERVAL`]; equal to it means
    /// continuous scanning.
    pub scan_window: Duration,
}

impl Default for AdvConfig {
    fn default() -> Self {
        AdvConfig {
            scan_window: SCAN_INTERVAL,
        }
    }
}

/// What an advertising-transport timer is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvTimerKind {
    /// Start of an advertising event.
    AdvEvent,
    /// Transmit step `n` (0..=2) of the in-progress train.
    TrainStep(u8),
    /// Rotate the scan channel and open the next scan window.
    ScanRotate,
    /// Expire silent neighbors.
    NeighborSweep,
}

/// A timer token; `gen` invalidates timers armed before a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvTimer {
    /// What to do when it fires.
    pub kind: AdvTimerKind,
    /// Generation the timer belongs to.
    pub gen: u64,
}

/// Observability events surfaced to the world's metrics/timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvObsEvent {
    /// A train started transmitting.
    TrainStart {
        /// Sequence number of the PDU (beacons consume one too).
        seq: u16,
        /// Queue depth at train start.
        queued: u16,
        /// Whether this is an empty beacon train.
        beacon: bool,
    },
    /// A scan window opened.
    ScanWindow {
        /// Advertising channel being listened on.
        channel: u8,
    },
    /// A received PDU was suppressed as a duplicate.
    Duplicate {
        /// Per-hop sender of the duplicate.
        advertiser: u16,
        /// Its sequence number.
        seq: u16,
    },
}

/// Actions the world must execute on behalf of the transport.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvOut {
    /// Arm `timer` to fire at `at`.
    Arm {
        /// Global firing time.
        at: Instant,
        /// The timer token to deliver back.
        timer: AdvTimer,
    },
    /// Begin transmitting `frame` on `channel` now.
    Tx {
        /// Advertising channel (37..=39).
        channel: Channel,
        /// The PDU (always [`Frame::AdvData`]).
        frame: Frame,
    },
    /// Start listening on `channel` until `until` (scan tag).
    Listen {
        /// Advertising channel (37..=39).
        channel: Channel,
        /// End of the listening span.
        until: Instant,
    },
    /// Stop the scan listening span.
    ListenOff,
    /// A frame for this node survived dedup — hand it to 6LoWPAN.
    Deliver {
        /// Per-hop sender.
        src: NodeId,
        /// The compressed 6LoWPAN frame.
        sdu: Vec<u8>,
    },
    /// First PDU heard from `peer` (or heard again after a down).
    NeighborUp {
        /// The neighbor.
        peer: NodeId,
    },
    /// `peer` fell silent past the neighbor timeout.
    NeighborDown {
        /// The neighbor.
        peer: NodeId,
    },
    /// Metrics/timeline event.
    Obs(AdvObsEvent),
}

/// Why [`AdvLink::send`] refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvSendError {
    /// Transmit queue holds its 16 frames.
    QueueFull,
    /// Frame exceeds the 240 B one PDU carries after its addressing
    /// bytes.
    TooBig,
}

/// Answer of [`AdvLink::admit`]: would a frame towards this next hop
/// be queued right now?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxAdmission {
    /// The transport would take the frame.
    Ok,
    /// No beacon heard from the next hop within the neighbor timeout.
    /// The world counts this as a `link_down` drop.
    NoLink,
    /// The hop is known but the transmit queue is full right now.
    Backpressure,
}

/// Transport counters, sampled into the observability registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvCounters {
    /// Advertising events run (with or without a train).
    pub adv_events: u64,
    /// Data trains completed (3 PDUs each).
    pub adv_trains: u64,
    /// Beacon trains completed.
    pub beacon_trains: u64,
    /// Individual PDUs transmitted.
    pub pdus_tx: u64,
    /// Data PDUs received intact (any destination, pre-dedup).
    pub pdus_rx: u64,
    /// Beacon PDUs received.
    pub beacons_rx: u64,
    /// PDUs suppressed by the duplicate cache.
    pub dups_suppressed: u64,
    /// Frames delivered up to 6LoWPAN.
    pub delivered: u64,
    /// Frames refused because the queue was full.
    pub queue_drops: u64,
    /// Link-up edges.
    pub neighbor_ups: u64,
    /// Link-down edges.
    pub neighbor_downs: u64,
    /// Scan windows opened.
    pub scan_windows: u64,
    /// Radio transmit time, nanoseconds.
    pub tx_ns: u64,
    /// Radio listen time actually spent, nanoseconds.
    pub listen_ns: u64,
}

/// A frame waiting for airtime.
#[derive(Debug, Clone)]
struct Queued {
    dst: u16,
    seq: u16,
    repeats_left: u8,
    payload: Vec<u8>,
}

/// The PDU the in-progress train is transmitting.
#[derive(Debug, Clone)]
struct PendingTrain {
    dst: u16,
    seq: u16,
    payload: Vec<u8>,
    beacon: bool,
}

/// One node's advertising transport.
#[derive(Debug)]
pub struct AdvLink {
    me: NodeId,
    cfg: AdvConfig,
    clock: Clock,
    rng: Rng,
    gen: u64,
    started: bool,
    // transmit side
    queue: Vec<Queued>,
    next_seq: u16,
    in_train: bool,
    train_step: u8,
    bursts_left: u8,
    current: Option<PendingTrain>,
    // receive side
    scan_idx: usize,
    scan_channel: Channel,
    scan_until: Instant,
    listen_since: Option<Instant>,
    dedup: Vec<(u16, u16)>,
    dedup_next: usize,
    neighbors: Vec<(NodeId, Instant)>,
    counters: AdvCounters,
}

impl AdvLink {
    /// Build the transport for node `me`. `rng` must be a fork private
    /// to this transport; `clock` carries the node's crystal ppm.
    pub fn new(me: NodeId, cfg: AdvConfig, clock: Clock, rng: Rng) -> Self {
        AdvLink {
            me,
            cfg,
            clock,
            rng,
            gen: 0,
            started: false,
            queue: Vec::new(),
            next_seq: 0,
            in_train: false,
            train_step: 0,
            bursts_left: 0,
            current: None,
            scan_idx: 0,
            scan_channel: Channel::ble_adv(37),
            scan_until: Instant::ZERO,
            listen_since: None,
            dedup: Vec::new(),
            dedup_next: 0,
            neighbors: Vec::new(),
            counters: AdvCounters::default(),
        }
    }

    /// Replace the local clock (chaos drift faults step a node's
    /// oscillator mid-run). Takes effect from the next timer arm;
    /// already-armed timers fire at their original times.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Counter snapshot.
    pub fn counters(&self) -> AdvCounters {
        self.counters
    }

    /// Current transmit-queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Current neighbor count.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether a frame towards `next_hop` would be queued right now:
    /// a full queue refuses everything, a hop never heard (or timed
    /// out) is no link.
    pub fn admit(&self, next_hop: LlAddr) -> TxAdmission {
        if self.queue.len() >= QUEUE_CAP {
            return TxAdmission::Backpressure;
        }
        let known = self
            .neighbors
            .iter()
            .any(|(p, _)| LlAddr::from_node_index(p.0) == next_hop);
        if known {
            TxAdmission::Ok
        } else {
            TxAdmission::NoLink
        }
    }

    /// Current neighbors, in discovery order.
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.neighbors.iter().map(|&(p, _)| p).collect()
    }

    /// Listen time including the still-open scan span (for sampling
    /// at snapshot time; [`AdvCounters::listen_ns`] only books spans
    /// that have closed).
    pub fn listen_ns_through(&self, now: Instant) -> u64 {
        let mut t = self.counters.listen_ns;
        if let Some(since) = self.listen_since {
            t += self.scan_until.min(now).saturating_since(since).nanos();
        }
        t
    }

    /// Start advertising and scanning. The first advertising event is
    /// placed uniformly inside one interval to desynchronise nodes
    /// that boot together.
    pub fn start(&mut self, now: Instant, out: &mut Vec<AdvOut>) {
        self.gen += 1;
        self.started = true;
        let first = self.rng.below(ADV_INTERVAL.nanos());
        self.arm(
            now,
            Duration::from_nanos(first),
            AdvTimerKind::AdvEvent,
            out,
        );
        // Open the first scan window immediately; rotation proceeds
        // from here. `ScanRotate` at `now` keeps all scheduling on the
        // timer path so start() and steady state share one code path.
        out.push(AdvOut::Arm {
            at: now,
            timer: AdvTimer {
                kind: AdvTimerKind::ScanRotate,
                gen: self.gen,
            },
        });
        self.arm(now, NEIGHBOR_TIMEOUT, AdvTimerKind::NeighborSweep, out);
    }

    fn arm(&mut self, now: Instant, local: Duration, kind: AdvTimerKind, out: &mut Vec<AdvOut>) {
        out.push(AdvOut::Arm {
            at: self.clock.fires_at(now, local),
            timer: AdvTimer {
                kind,
                gen: self.gen,
            },
        });
    }

    /// Queue a 6LoWPAN frame for transmission. `dst` is the next-hop
    /// node index, or [`Frame::ADV_BROADCAST`].
    pub fn send(&mut self, dst: u16, payload: Vec<u8>) -> Result<(), AdvSendError> {
        if payload.len() > MTU {
            return Err(AdvSendError::TooBig);
        }
        if self.queue.len() >= QUEUE_CAP {
            self.counters.queue_drops += 1;
            return Err(AdvSendError::QueueFull);
        }
        let seq = self.alloc_seq();
        self.queue.push(Queued {
            dst,
            seq,
            repeats_left: REPEATS,
            payload,
        });
        Ok(())
    }

    fn alloc_seq(&mut self) -> u16 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// A timer armed via [`AdvOut::Arm`] fired.
    pub fn on_timer(&mut self, now: Instant, timer: AdvTimer, out: &mut Vec<AdvOut>) {
        if timer.gen != self.gen || !self.started {
            return;
        }
        match timer.kind {
            AdvTimerKind::AdvEvent => self.on_adv_event(now, out),
            AdvTimerKind::TrainStep(step) => self.tx_step(step, out),
            AdvTimerKind::ScanRotate => self.on_scan_rotate(now, out),
            AdvTimerKind::NeighborSweep => self.on_neighbor_sweep(now, out),
        }
    }

    fn on_adv_event(&mut self, now: Instant, out: &mut Vec<AdvOut>) {
        // Book the next event first: interval + advDelay in local time.
        let jitter = self.rng.below(ADV_JITTER.nanos() + 1);
        let local = Duration::from_nanos(ADV_INTERVAL.nanos() + jitter);
        self.arm(now, local, AdvTimerKind::AdvEvent, out);
        self.counters.adv_events += 1;
        if self.in_train {
            // An oversized burst from the previous event is still on
            // air; skip rather than preempt.
            return;
        }
        self.bursts_left = TRAINS_PER_EVENT;
        self.begin_train(now, out);
    }

    /// Load the next train from the queue (or a beacon) and transmit
    /// its first step.
    fn begin_train(&mut self, now: Instant, out: &mut Vec<AdvOut>) {
        let pending = self.front_train().unwrap_or_else(|| PendingTrain {
            dst: Frame::ADV_BROADCAST,
            seq: self.alloc_seq(),
            payload: Vec::new(),
            beacon: true,
        });
        if !self.in_train {
            // Half-duplex: suspend the scan window for the train.
            self.close_listen(now);
            out.push(AdvOut::ListenOff);
            self.in_train = true;
        }
        out.push(AdvOut::Obs(AdvObsEvent::TrainStart {
            seq: pending.seq,
            queued: self.queue.len() as u16,
            beacon: pending.beacon,
        }));
        self.current = Some(pending);
        self.train_step = 0;
        self.tx_step(0, out);
    }

    fn tx_step(&mut self, step: u8, out: &mut Vec<AdvOut>) {
        let Some(cur) = &self.current else { return };
        let frame = Frame::AdvData {
            advertiser: self.me,
            dst: cur.dst,
            seq: cur.seq,
            payload: cur.payload.clone(),
        };
        self.counters.pdus_tx += 1;
        self.counters.tx_ns += frame.airtime().nanos();
        self.train_step = step;
        out.push(AdvOut::Tx {
            channel: Channel::ble_adv(ADV_CHANNELS[step as usize % 3]),
            frame,
        });
    }

    /// The world finished transmitting one of our PDUs.
    pub fn on_tx_done(&mut self, now: Instant, out: &mut Vec<AdvOut>) {
        if !self.in_train || self.current.is_none() {
            return;
        }
        if (self.train_step as usize) < ADV_CHANNELS.len() - 1 {
            let next = self.train_step + 1;
            self.arm_global(now + airtime::T_IFS, AdvTimerKind::TrainStep(next), out);
            return;
        }
        // Train complete on all three channels.
        let beacon = self.current.as_ref().map(|c| c.beacon).unwrap_or(false);
        if beacon {
            self.counters.beacon_trains += 1;
        } else {
            self.counters.adv_trains += 1;
            if let Some(front) = self.queue.first_mut() {
                front.repeats_left = front.repeats_left.saturating_sub(1);
                if front.repeats_left == 0 {
                    self.queue.remove(0);
                }
            }
        }
        self.current = None;
        self.bursts_left = self.bursts_left.saturating_sub(1);
        if self.bursts_left > 0 && !self.queue.is_empty() {
            // Back-to-back train after one inter-frame space.
            self.train_step = 0;
            self.arm_global(now + airtime::T_IFS, AdvTimerKind::TrainStep(0), out);
            // TrainStep(0) transmits the new queue front.
            self.current = self.front_train();
            return;
        }
        self.in_train = false;
        self.resume_listen(now, out);
    }

    /// The queue front as a train to transmit, if anything is queued.
    fn front_train(&self) -> Option<PendingTrain> {
        self.queue.first().map(|front| PendingTrain {
            dst: front.dst,
            seq: front.seq,
            payload: front.payload.clone(),
            beacon: false,
        })
    }

    fn arm_global(&mut self, at: Instant, kind: AdvTimerKind, out: &mut Vec<AdvOut>) {
        out.push(AdvOut::Arm {
            at,
            timer: AdvTimer {
                kind,
                gen: self.gen,
            },
        });
    }

    fn on_scan_rotate(&mut self, now: Instant, out: &mut Vec<AdvOut>) {
        self.close_listen(now);
        self.scan_idx = (self.scan_idx + 1) % ADV_CHANNELS.len();
        self.scan_channel = Channel::ble_adv(ADV_CHANNELS[self.scan_idx]);
        self.scan_until = self.clock.fires_at(now, self.cfg.scan_window);
        self.counters.scan_windows += 1;
        out.push(AdvOut::Obs(AdvObsEvent::ScanWindow {
            channel: ADV_CHANNELS[self.scan_idx],
        }));
        if !self.in_train {
            out.push(AdvOut::Listen {
                channel: self.scan_channel,
                until: self.scan_until,
            });
            self.listen_since = Some(now);
        }
        self.arm(now, SCAN_INTERVAL, AdvTimerKind::ScanRotate, out);
    }

    fn resume_listen(&mut self, now: Instant, out: &mut Vec<AdvOut>) {
        if now < self.scan_until {
            out.push(AdvOut::Listen {
                channel: self.scan_channel,
                until: self.scan_until,
            });
            self.listen_since = Some(now);
        }
    }

    fn close_listen(&mut self, now: Instant) {
        if let Some(since) = self.listen_since.take() {
            let end = self.scan_until.min(now);
            self.counters.listen_ns += end.saturating_since(since).nanos();
        }
    }

    fn on_neighbor_sweep(&mut self, now: Instant, out: &mut Vec<AdvOut>) {
        let timeout = NEIGHBOR_TIMEOUT;
        let mut i = 0;
        while i < self.neighbors.len() {
            let (peer, last) = self.neighbors[i];
            if now.saturating_since(last) > timeout {
                self.neighbors.remove(i);
                self.counters.neighbor_downs += 1;
                out.push(AdvOut::NeighborDown { peer });
            } else {
                i += 1;
            }
        }
        // Sweep at half the timeout so staleness is bounded by 1.5×.
        let half = Duration::from_nanos((timeout.nanos() / 2).max(1));
        self.arm(now, half, AdvTimerKind::NeighborSweep, out);
    }

    fn note_neighbor(&mut self, now: Instant, peer: NodeId, out: &mut Vec<AdvOut>) {
        if let Some(entry) = self.neighbors.iter_mut().find(|(p, _)| *p == peer) {
            entry.1 = now;
            return;
        }
        self.neighbors.push((peer, now));
        self.counters.neighbor_ups += 1;
        out.push(AdvOut::NeighborUp { peer });
    }

    fn dedup_seen(&mut self, advertiser: u16, seq: u16) -> bool {
        if self.dedup.contains(&(advertiser, seq)) {
            return true;
        }
        if self.dedup.len() < DEDUP_CAP {
            self.dedup.push((advertiser, seq));
        } else {
            self.dedup[self.dedup_next] = (advertiser, seq);
            self.dedup_next = (self.dedup_next + 1) % self.dedup.len();
        }
        false
    }

    /// A PDU arrived intact while we were listening.
    pub fn on_frame_rx(&mut self, now: Instant, frame: &Frame, out: &mut Vec<AdvOut>) {
        let Frame::AdvData {
            advertiser,
            dst,
            seq,
            payload,
        } = frame
        else {
            return;
        };
        if *advertiser == self.me {
            return;
        }
        self.note_neighbor(now, *advertiser, out);
        if payload.is_empty() {
            self.counters.beacons_rx += 1;
            return;
        }
        self.counters.pdus_rx += 1;
        if *dst != Frame::ADV_BROADCAST && *dst != self.me.0 {
            return;
        }
        if self.dedup_seen(advertiser.0, *seq) {
            self.counters.dups_suppressed += 1;
            out.push(AdvOut::Obs(AdvObsEvent::Duplicate {
                advertiser: advertiser.0,
                seq: *seq,
            }));
            return;
        }
        self.counters.delivered += 1;
        out.push(AdvOut::Deliver {
            src: *advertiser,
            sdu: payload.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(me: u16) -> AdvLink {
        let mut rng = Rng::seed_from_u64(42);
        AdvLink::new(
            NodeId(me),
            AdvConfig::default(),
            Clock::with_ppm(0.0),
            rng.fork(4000 + me as u64),
        )
    }

    /// Minimal deterministic driver: runs timers/tx-completions in
    /// time order, collecting the world-facing actions.
    struct Driver {
        link: AdvLink,
        now: Instant,
        timers: Vec<(Instant, AdvTimer)>,
        tx_done_at: Option<Instant>,
        txs: Vec<(Instant, Channel, Frame)>,
        delivered: Vec<(NodeId, Vec<u8>)>,
    }

    impl Driver {
        fn new(mut link: AdvLink) -> Self {
            let mut out = Vec::new();
            link.start(Instant::ZERO, &mut out);
            let mut d = Driver {
                link,
                now: Instant::ZERO,
                timers: Vec::new(),
                tx_done_at: None,
                txs: Vec::new(),
                delivered: Vec::new(),
            };
            d.absorb(out);
            d
        }

        fn absorb(&mut self, out: Vec<AdvOut>) {
            for o in out {
                match o {
                    AdvOut::Arm { at, timer } => self.timers.push((at, timer)),
                    AdvOut::Tx { channel, frame } => {
                        let end = self.now + frame.airtime();
                        self.txs.push((self.now, channel, frame));
                        self.tx_done_at = Some(end);
                    }
                    AdvOut::Deliver { src, sdu } => self.delivered.push((src, sdu)),
                    _ => {}
                }
            }
        }

        fn step(&mut self) -> bool {
            let next_timer = self
                .timers
                .iter()
                .enumerate()
                .min_by_key(|(i, (at, _))| (*at, *i))
                .map(|(i, (at, _))| (*at, i));
            let take_tx = match (self.tx_done_at, next_timer) {
                (Some(t), Some((at, _))) => t <= at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return false,
            };
            let mut out = Vec::new();
            if take_tx {
                self.now = self.tx_done_at.take().unwrap();
                self.link.on_tx_done(self.now, &mut out);
            } else {
                let (at, i) = next_timer.unwrap();
                let (_, timer) = self.timers.remove(i);
                self.now = at;
                self.link.on_timer(self.now, timer, &mut out);
            }
            self.absorb(out);
            true
        }

        fn run_until(&mut self, t: Instant) {
            loop {
                let next = self
                    .timers
                    .iter()
                    .map(|(at, _)| *at)
                    .chain(self.tx_done_at)
                    .min();
                match next {
                    Some(at) if at <= t => {
                        if !self.step() {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            self.now = t;
        }
    }

    #[test]
    fn beacon_trains_walk_all_three_channels() {
        let mut d = Driver::new(mk(0));
        d.run_until(Instant::from_millis(200));
        let c = d.link.counters();
        assert!(
            c.beacon_trains >= 2,
            "beacons in 200 ms: {}",
            c.beacon_trains
        );
        assert_eq!(c.pdus_tx, 3 * (c.beacon_trains + c.adv_trains));
        // First train covers 37, 38, 39 in order.
        let chans: Vec<u8> = d.txs.iter().take(3).map(|(_, ch, _)| ch.index()).collect();
        assert_eq!(chans, vec![37, 38, 39]);
    }

    #[test]
    fn unicast_send_respects_repeats_then_drains() {
        let mut d = Driver::new(mk(0));
        d.link.send(5, vec![0xAB; 40]).unwrap();
        assert_eq!(d.link.queue_len(), 1);
        d.run_until(Instant::from_millis(300));
        assert_eq!(d.link.queue_len(), 0);
        let c = d.link.counters();
        assert_eq!(c.adv_trains, REPEATS as u64);
        // Every data PDU carries the same seq and dst.
        let data: Vec<_> = d
            .txs
            .iter()
            .filter_map(|(_, _, f)| match f {
                Frame::AdvData {
                    dst, seq, payload, ..
                } if !payload.is_empty() => Some((*dst, *seq)),
                _ => None,
            })
            .collect();
        assert_eq!(data.len(), 3 * REPEATS as usize);
        assert!(data.iter().all(|&x| x == data[0]));
        assert_eq!(data[0].0, 5);
    }

    #[test]
    fn queue_cap_backpressure() {
        let mut link = mk(0);
        for _ in 0..QUEUE_CAP {
            link.send(1, vec![1]).unwrap();
        }
        assert_eq!(link.send(1, vec![1]), Err(AdvSendError::QueueFull));
        assert_eq!(link.counters().queue_drops, 1);
        assert_eq!(
            link.admit(LlAddr::from_node_index(1)),
            TxAdmission::Backpressure
        );
        assert_eq!(link.send(1, vec![0; MTU + 1]), Err(AdvSendError::TooBig));
    }

    #[test]
    fn dedup_suppresses_repeats_and_delivers_once() {
        let mut d = Driver::new(mk(7));
        let frame = Frame::AdvData {
            advertiser: NodeId(3),
            dst: 7,
            seq: 9,
            payload: vec![1, 2, 3],
        };
        let mut out = Vec::new();
        d.link
            .on_frame_rx(Instant::from_millis(1), &frame, &mut out);
        d.link
            .on_frame_rx(Instant::from_millis(2), &frame, &mut out);
        d.absorb(out);
        assert_eq!(d.delivered.len(), 1);
        assert_eq!(d.delivered[0], (NodeId(3), vec![1, 2, 3]));
        let c = d.link.counters();
        assert_eq!(c.delivered, 1);
        assert_eq!(c.dups_suppressed, 1);
    }

    #[test]
    fn neighbor_up_then_down_after_timeout() {
        let mut d = Driver::new(mk(0));
        let beacon = Frame::AdvData {
            advertiser: NodeId(2),
            dst: Frame::ADV_BROADCAST,
            seq: 0,
            payload: Vec::new(),
        };
        let mut out = Vec::new();
        d.link
            .on_frame_rx(Instant::from_millis(10), &beacon, &mut out);
        d.absorb(out);
        assert_eq!(d.link.neighbor_count(), 1);
        assert_eq!(d.link.admit(LlAddr::from_node_index(2)), TxAdmission::Ok);
        assert_eq!(
            d.link.admit(LlAddr::from_node_index(3)),
            TxAdmission::NoLink
        );
        // Run past the timeout with no further beacons: Down fires.
        d.run_until(Instant::from_secs(4));
        assert_eq!(d.link.neighbor_count(), 0);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Driver::new(mk(0));
        let mut b = Driver::new(mk(0));
        a.link.send(1, vec![7; 30]).unwrap();
        b.link.send(1, vec![7; 30]).unwrap();
        a.run_until(Instant::from_secs(1));
        b.run_until(Instant::from_secs(1));
        assert_eq!(a.txs, b.txs);
        assert_eq!(a.link.counters(), b.link.counters());
    }

    #[test]
    fn scan_duty_cycle_reduces_listen_time() {
        let cfg = AdvConfig {
            scan_window: Duration::from_millis(30),
        };
        let mut rng = Rng::seed_from_u64(1);
        let duty = AdvLink::new(NodeId(0), cfg, Clock::with_ppm(0.0), rng.fork(1));
        let mut cont_cfg = cfg;
        cont_cfg.scan_window = SCAN_INTERVAL;
        let cont = AdvLink::new(NodeId(0), cont_cfg, Clock::with_ppm(0.0), rng.fork(2));
        let mut d1 = Driver::new(duty);
        let mut d2 = Driver::new(cont);
        d1.run_until(Instant::from_secs(2));
        d2.run_until(Instant::from_secs(2));
        // Force the open windows closed so listen_ns is fully booked.
        d1.link.close_listen(Instant::from_secs(2));
        d2.link.close_listen(Instant::from_secs(2));
        let l1 = d1.link.counters().listen_ns;
        let l2 = d2.link.counters().listen_ns;
        assert!(l1 * 3 < l2 + l2 / 10, "duty {l1} vs continuous {l2}");
        assert!(l2 >= Duration::from_millis(1900).nanos());
    }
}
