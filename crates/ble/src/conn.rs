//! Per-connection link-layer state.
//!
//! A [`Connection`] holds everything one end of a BLE connection
//! tracks: role, timing (anchor, event counter), channel selection,
//! the 1-bit ARQ state, the transmit queue, and the bookkeeping that
//! feeds the experiments (skipped events, misses, retransmissions).
//! The behaviour lives in [`crate::ll`]; this module is data plus the
//! small pure helpers that are worth unit-testing in isolation.

use std::collections::VecDeque;

use mindgap_sim::{BytePool, Duration, Instant, NodeId};

use crate::channels::ChannelSelector;
use crate::config::ConnParams;
use crate::ctrl::ControlPdu;
use crate::pdu::{DataPdu, Llid};
use crate::sched::ResId;

/// Globally unique connection identity (assigned by the world; both
/// ends of a link share the same id, simplifying bookkeeping — on air
/// the access address plays this role).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

impl core::fmt::Display for ConnId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Connection role (paper §2.1; the spec's "central"/"peripheral").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Dictates connection-event timing.
    Coordinator,
    /// Follows the coordinator's timing, subject to window widening.
    Subordinate,
}

/// Why a connection went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// No valid packet within the supervision timeout (§2.2) — the
    /// failure mode connection shading provokes.
    SupervisionTimeout,
    /// Closed deliberately by the local host (e.g. statconn's
    /// interval-collision rejection, §6.3).
    LocalClose,
    /// Connection establishment failed: no packet within six
    /// connection intervals of the first anchor (Core Spec Vol 6
    /// Part B §4.5.2). Not a loss of an established link.
    EstablishFailed,
}

/// What the connection state machine is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CeState {
    /// Between connection events.
    Idle,
    /// Coordinator: our packet is on the air.
    CoordTx,
    /// Coordinator: waiting for the subordinate's reply.
    CoordAwaitReply,
    /// Subordinate: listening for a coordinator packet.
    SubListening,
    /// Subordinate: our reply is on the air.
    SubTx,
    /// Either role: IFS pause before the next action in this event.
    Gap,
}

/// One end of a BLE connection.
pub(crate) struct Connection {
    pub id: ConnId,
    pub peer: NodeId,
    pub role: Role,
    pub access_address: u32,
    pub params: ConnParams,
    pub selector: ChannelSelector,

    /// Event counter (drives CSA#2 and diagnostics).
    pub event_counter: u16,
    /// Coordinator: exact global time of the next anchor.
    /// Subordinate: best estimate of it.
    pub next_anchor: Instant,
    /// Subordinate: residual anchor uncertainty beyond clock drift
    /// (transmit-window size before the first sync, 0 afterwards).
    pub sync_uncertainty: Duration,
    /// Global time of the last successful anchor sync (subordinate)
    /// — window widening grows from here.
    pub last_sync: Instant,
    /// Global time of the last valid packet received (supervision).
    pub last_rx: Instant,
    /// Whether any packet has been received yet. Until then the
    /// establishment timeout (6 × interval) applies instead of the
    /// supervision timeout.
    pub established: bool,

    // --- 1-bit ARQ (Core Spec Vol 6 Part B §4.5.9) ---
    /// Sequence number of the next PDU we transmit.
    pub sn: bool,
    /// Next sequence number expected from the peer.
    pub nesn: bool,
    /// PDU sent but not yet acknowledged (retransmitted next event;
    /// each retransmission costs a full connection interval — the
    /// latency mechanism of §5.1).
    pub in_flight: Option<(Llid, Vec<u8>)>,
    /// Queued LL payloads: L2CAP K-frames (`DataStart`) and LL control
    /// PDUs (`Control`, queued at the front).
    pub queue: VecDeque<(Llid, Vec<u8>)>,
    /// A parameter/channel-map update awaiting its instant.
    pub pending_update: Option<ControlPdu>,
    /// Per-channel event attempts (coordinator-side AFH statistics).
    pub ch_attempts: [u32; 37],
    /// Per-channel reply failures (coordinator-side AFH statistics).
    pub ch_fails: [u32; 37],
    /// Events since the last AFH evaluation.
    pub afh_events: u32,

    // --- event runtime ---
    pub state: CeState,
    pub reservation: Option<ResId>,
    /// Hard end of the current event (next own anchor minus IFS).
    pub event_limit: Instant,
    /// Channel of the current event.
    pub event_channel: Option<mindgap_phy::Channel>,
    /// Whether this event has synced on a first packet (subordinate).
    pub event_synced: bool,
    /// Whether any data PDU moved in this event (diagnostics).
    pub event_had_data: bool,
    /// MD flag of the last PDU received from the peer (drives event
    /// continuation, §2.2).
    pub peer_md: bool,
    /// End of the currently booked listen window (subordinate).
    pub window_end: Instant,
    /// Event-scoped generation: EventPrep/EventStart/ListenStart
    /// timers armed for an older generation are ignored.
    pub gen: u64,
    /// Exchange-scoped generation: ReplyWait/Continue/ListenEnd timers
    /// from an earlier exchange of the same event are ignored.
    pub xgen: u64,

    // --- statistics the experiments consume ---
    pub stats: ConnStats,
}

/// Per-connection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Connection events we participated in (anchor transmitted or
    /// first packet heard).
    pub events: u64,
    /// Events skipped because the radio was booked by another activity
    /// — the raw signal of connection shading.
    pub events_skipped: u64,
    /// Subordinate events where the window passed without hearing the
    /// coordinator.
    pub events_missed: u64,
    /// Listen windows shortened by a booking conflict (late listen).
    pub partial_listens: u64,
    /// Data PDUs sent (excluding empties).
    pub data_pdus_tx: u64,
    /// Data PDUs received (excluding empties and duplicates).
    pub data_pdus_rx: u64,
    /// Retransmissions of an unacknowledged PDU.
    pub retransmissions: u64,
    /// Duplicate receptions discarded by the ARQ.
    pub duplicates_rx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Payload bytes sent (first transmissions only).
    pub bytes_tx: u64,
    /// Event extensions performed (additional exchanges).
    pub ext_ok: u64,
    /// Extensions refused: own event limit reached.
    pub ext_blocked_limit: u64,
    /// Extensions refused: another radio reservation too close.
    pub ext_blocked_sched: u64,
    /// Extensions refused: no more data on either side.
    pub ext_no_more: u64,
}

impl Connection {
    /// Fresh connection state at creation time `now`.
    pub fn new(
        id: ConnId,
        peer: NodeId,
        role: Role,
        access_address: u32,
        params: ConnParams,
        now: Instant,
    ) -> Self {
        Connection {
            id,
            peer,
            role,
            access_address,
            params,
            selector: ChannelSelector::new(params.channel_map, access_address),
            event_counter: 0,
            next_anchor: now,
            sync_uncertainty: Duration::ZERO,
            last_sync: now,
            last_rx: now,
            established: false,
            sn: false,
            nesn: false,
            in_flight: None,
            queue: VecDeque::new(),
            pending_update: None,
            ch_attempts: [0; 37],
            ch_fails: [0; 37],
            afh_events: 0,
            state: CeState::Idle,
            reservation: None,
            event_limit: Instant::MAX,
            event_channel: None,
            event_synced: false,
            event_had_data: false,
            peer_md: false,
            window_end: Instant::MAX,
            gen: 0,
            xgen: 0,
            stats: ConnStats::default(),
        }
    }

    /// `true` if there is anything to send (fresh or retransmission),
    /// including an unacknowledged keep-alive.
    pub fn has_tx_data(&self) -> bool {
        self.in_flight.is_some() || !self.queue.is_empty()
    }

    /// Build the next PDU to transmit, honouring the ARQ: an
    /// unacknowledged PDU is retransmitted verbatim; otherwise the
    /// queue head (or an empty keep-alive) is promoted to in-flight.
    /// `md` is set when more data would remain after this PDU.
    ///
    /// Empty PDUs occupy a sequence number exactly like data PDUs
    /// (Core Spec Vol 6 Part B §4.5.9): until the peer acknowledges
    /// one, no new payload may take its SN — putting fresh data on an
    /// unacked SN would make the receiver discard it as a
    /// retransmission while still acknowledging it, silently losing
    /// the packet.
    ///
    /// The transmitted copy of the payload is drawn from `bufs` (and
    /// recycled by the world when the frame leaves the air), so steady
    /// state transmits without heap allocation.
    pub fn next_pdu(&mut self, bufs: &mut BytePool) -> DataPdu {
        let (llid, payload): (Llid, Vec<u8>) = match &self.in_flight {
            Some((l, p)) => {
                if !p.is_empty() {
                    self.stats.retransmissions += 1;
                }
                (
                    *l,
                    if p.is_empty() {
                        Vec::new()
                    } else {
                        bufs.take_copy(p)
                    },
                )
            }
            None => {
                let (l, p) = self
                    .queue
                    .pop_front()
                    .unwrap_or((Llid::DataContinuation, Vec::new()));
                if !p.is_empty() && l != Llid::Control {
                    self.stats.data_pdus_tx += 1;
                    self.stats.bytes_tx += p.len() as u64;
                }
                let copy = if p.is_empty() {
                    Vec::new()
                } else {
                    bufs.take_copy(&p)
                };
                self.in_flight = Some((l, p));
                (l, copy)
            }
        };
        let md = !self.queue.is_empty();
        if payload.is_empty() {
            DataPdu::empty(self.nesn, self.sn, md)
        } else {
            DataPdu {
                llid,
                nesn: self.nesn,
                sn: self.sn,
                md,
                payload,
            }
        }
    }

    /// Process a received PDU's ARQ bits. Returns the payload if it is
    /// new data (not a duplicate, not empty); the returned buffer is
    /// drawn from `bufs`, and an acknowledged in-flight payload is
    /// recycled into it.
    pub fn process_rx(&mut self, pdu: &DataPdu, bufs: &mut BytePool) -> Option<Vec<u8>> {
        // Their NESN acknowledges our SN: if it moved past our current
        // SN, our in-flight PDU arrived.
        if pdu.nesn != self.sn {
            self.sn = !self.sn;
            if let Some((_, p)) = self.in_flight.take() {
                bufs.put(p);
            }
        }
        // Their SN vs our NESN: new data or a retransmission?
        if pdu.sn == self.nesn {
            self.nesn = !self.nesn;
            if pdu.payload.is_empty() {
                None
            } else {
                if pdu.llid != Llid::Control {
                    self.stats.data_pdus_rx += 1;
                    self.stats.bytes_rx += pdu.payload.len() as u64;
                }
                Some(bufs.take_copy(&pdu.payload))
            }
        } else {
            if !pdu.payload.is_empty() {
                self.stats.duplicates_rx += 1;
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(role: Role) -> Connection {
        let params = ConnParams::with_interval(Duration::from_millis(75));
        Connection::new(
            ConnId(1),
            NodeId(2),
            role,
            0x5713_9AD6,
            params,
            Instant::ZERO,
        )
    }

    /// Run one lossless exchange in both directions and return what
    /// each side delivered upward.
    fn exchange(c: &mut Connection, s: &mut Connection) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        let bufs = &mut BytePool::new();
        let c_pdu = c.next_pdu(bufs);
        let to_sub = s.process_rx(&c_pdu, bufs);
        let s_pdu = s.next_pdu(bufs);
        let to_coord = c.process_rx(&s_pdu, bufs);
        (to_sub, to_coord)
    }

    #[test]
    fn idle_exchange_moves_no_data() {
        let mut c = conn(Role::Coordinator);
        let mut s = conn(Role::Subordinate);
        let (a, b) = exchange(&mut c, &mut s);
        assert!(a.is_none() && b.is_none());
        assert_eq!(c.stats.data_pdus_tx, 0);
    }

    #[test]
    fn data_flows_and_acks() {
        let mut c = conn(Role::Coordinator);
        let mut s = conn(Role::Subordinate);
        c.queue.push_back((Llid::DataStart, vec![1, 2, 3]));
        let (a, _) = exchange(&mut c, &mut s);
        assert_eq!(a, Some(vec![1, 2, 3]));
        // Subordinate's reply acknowledged it:
        assert!(c.in_flight.is_none());
        assert_eq!(s.stats.data_pdus_rx, 1);
    }

    #[test]
    fn lost_reply_causes_retransmission_and_dedup() {
        let mut c = conn(Role::Coordinator);
        let mut s = conn(Role::Subordinate);
        c.queue.push_back((Llid::DataStart, vec![9]));
        let bufs = &mut BytePool::new();
        // Coordinator sends; subordinate receives; reply is LOST.
        let c_pdu = c.next_pdu(bufs);
        assert_eq!(s.process_rx(&c_pdu, bufs), Some(vec![9]));
        let _lost_reply = s.next_pdu(bufs);
        // Next event: coordinator retransmits (no ack seen).
        assert!(c.in_flight.is_some());
        let c_pdu2 = c.next_pdu(bufs);
        assert_eq!(c_pdu2.payload, vec![9]);
        assert_eq!(c.stats.retransmissions, 1);
        // Subordinate recognises the duplicate.
        assert_eq!(s.process_rx(&c_pdu2, bufs), None);
        assert_eq!(s.stats.duplicates_rx, 1);
        // Its reply now acks; coordinator clears in-flight.
        let s_pdu2 = s.next_pdu(bufs);
        let _ = c.process_rx(&s_pdu2, bufs);
        assert!(c.in_flight.is_none());
    }

    #[test]
    fn md_flag_reflects_queue() {
        let mut c = conn(Role::Coordinator);
        c.queue.push_back((Llid::DataStart, vec![1]));
        c.queue.push_back((Llid::DataStart, vec![2]));
        let bufs = &mut BytePool::new();
        let p1 = c.next_pdu(bufs);
        assert!(p1.md, "more data queued");
        // Simulate ack so the next pop happens.
        c.sn = !c.sn;
        c.in_flight = None;
        let p2 = c.next_pdu(bufs);
        assert!(!p2.md, "queue drained");
        assert_eq!(p2.payload, vec![2]);
    }

    #[test]
    fn bidirectional_transfer() {
        let mut c = conn(Role::Coordinator);
        let mut s = conn(Role::Subordinate);
        c.queue.push_back((Llid::DataStart, vec![0xC0]));
        s.queue.push_back((Llid::DataStart, vec![0x50]));
        let (a, b) = exchange(&mut c, &mut s);
        assert_eq!(a, Some(vec![0xC0]));
        assert_eq!(b, Some(vec![0x50]));
        // Second exchange completes both acks; only keep-alive (empty)
        // PDUs may remain unacknowledged.
        let (a2, b2) = exchange(&mut c, &mut s);
        assert!(a2.is_none() && b2.is_none());
        assert!(c.in_flight.is_none());
        assert!(s.in_flight.as_ref().is_none_or(|(_, p)| p.is_empty()));
        assert_eq!(c.stats.bytes_tx, 1);
        assert_eq!(s.stats.bytes_rx, 1);
    }

    #[test]
    fn long_lossless_run_stays_in_sync() {
        let mut c = conn(Role::Coordinator);
        let mut s = conn(Role::Subordinate);
        for i in 0..100u8 {
            c.queue.push_back((Llid::DataStart, vec![i]));
            let (a, _) = exchange(&mut c, &mut s);
            assert_eq!(a, Some(vec![i]));
        }
        assert_eq!(s.stats.data_pdus_rx, 100);
        assert_eq!(s.stats.duplicates_rx, 0);
        assert_eq!(c.stats.retransmissions, 0);
    }
}
