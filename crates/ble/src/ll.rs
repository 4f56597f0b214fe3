//! The link-layer state machine.
//!
//! One [`LinkLayer`] instance models the BLE controller + thin host of
//! one node. It is driven by three entry points — [`LinkLayer::on_timer`],
//! [`LinkLayer::on_frame_rx`], [`LinkLayer::on_tx_done`] — and produces
//! [`Output`] actions the simulation world executes.
//!
//! ## Timing model
//!
//! All `Instant`s crossing this API are **global** simulation time.
//! Internally, every span the spec defines in the node's own time
//! (connection interval, supervision timeout, advertising interval) is
//! converted through the node's [`Clock`], so two nodes configured
//! with the same 75 ms interval place their events at *physically
//! different* spacings — the root cause of connection shading (§6.1
//! of the paper).
//!
//! ## Connection events
//!
//! At the end of each connection event (or at the would-be anchor of
//! a skipped one) the connection books its next radio reservation one
//! interval ahead. Coordinators must transmit exactly at the anchor:
//! a booking conflict skips the whole event. Subordinates listen in a
//! widened window around their anchor estimate; on conflict they fall
//! back to a *late partial listen* when the blocker ends inside the
//! window — catching some events during a shading episode (the ≈50 %
//! link-PDR plateaus of Fig. 12) and missing others (the supervision
//! timeouts of Fig. 14).
//!
//! ## Timer staleness
//!
//! Timers carry a generation. Event-scoped timers (`EventPrep`,
//! `EventStart`, `ListenStart`) check the connection's `gen`, bumped
//! at each event end; exchange-scoped timers (`ReplyWait`, `Continue`,
//! `ListenEnd`) check `xgen`, bumped at every exchange step, so a
//! reply timeout armed for exchange *n* can never abort exchange
//! *n+1*. Supervision timers check connection existence only.
//!
//! ## Known deviations
//!
//! * Continuation exchanges on the coordinator side are delayed by a
//!   size-dependent host overhead beyond the IFS to model host-side
//!   packet processing; subordinates keep listening until the event
//!   limit, so no packets are lost to this (calibrates §5.2
//!   throughput).
//! * Connection termination is host-driven on both ends at once
//!   (`close`); the LL_TERMINATE_IND exchange is not simulated.

use mindgap_phy::{airtime, Channel};
use mindgap_sim::{BytePool, Clock, Duration, Instant, NodeId, Rng};

use crate::aa;
use crate::channels::ChannelMap;
use crate::config::{BlePhy, ConnParams, LlConfig};
use crate::conn::{CeState, ConnId, ConnStats, Connection, LossReason, Role};
use crate::ctrl::{ControlPdu, MIN_INSTANT_LEAD};
use crate::pdu::{DataPdu, Llid};
use crate::sched::{RadioScheduler, ResKind};

/// T_IFS.
const IFS: Duration = airtime::T_IFS;
/// Guard slack added to listen windows and reply timeouts.
const SLACK: Duration = Duration::from_micros(100);
/// Minimum useful tail for a partial (late) listen.
const MIN_PARTIAL_LISTEN: Duration = Duration::from_micros(300);
/// Delay from CONNECT_IND end to the start of the transmit window.
const TRANSMIT_WINDOW_DELAY: Duration = Duration::from_micros(1_250);
/// CONNECT_IND airtime: (1+4+2+34+3) bytes at 8 µs/byte.
const CONNECT_IND_AIR: Duration = Duration::from_micros(352);
/// Sleep-clock accuracy *assumed for window widening*, per side, in
/// ppm. The spec requires ≤ 250; NimBLE defaults to claiming far
/// better. This is the *claimed* accuracy used for widening math —
/// the node's *actual* drift is the `Clock` the link layer is
/// constructed with.
const SCA_PPM: f64 = 50.0;
/// Per-connection LL transmit queue capacity in PDUs (NimBLE keeps a
/// short controller-side queue; the big buffer is the host mbuf pool
/// modelled in `mindgap-l2cap`).
const LL_QUEUE_CAP: usize = 8;
/// Radio time reserved per connection event at booking time; the
/// event may extend beyond it while the radio stays free (Fig. 4).
const MIN_EVENT_LEN: Duration = Duration::from_micros(2_500);
/// Host-side processing cost per *additional* data exchange within
/// one connection event: fixed part (thread wakeups) plus a per-byte
/// part (mbuf copies through GNRC/NimBLE). Calibrates single-link
/// L2CAP throughput to the paper's ≈500 kbps (§5.2); irrelevant at
/// one packet per event.
const HOST_OVERHEAD_BASE: Duration = Duration::from_micros(200);
/// Per-byte component of the host overhead (ns per payload byte).
const HOST_OVERHEAD_PER_BYTE_NS: u64 = 5_200;
/// Advertising interval (paper: 90 ms, §4.2).
const ADV_INTERVAL: Duration = Duration::from_millis(90);
/// Scan interval (paper: 100 ms, §4.2).
const SCAN_INTERVAL: Duration = Duration::from_millis(100);
/// Scan window (paper: 100 ms — continuous scanning, §4.2).
const SCAN_WINDOW: Duration = Duration::from_millis(100);
/// Advertising payload length in bytes (AD structures: flags + IPSS
/// service UUID).
const ADV_PAYLOAD: usize = 22;

/// Window widening (§6.1) of a subordinate listen `elapsed` after the
/// last sync: both sides' claimed sleep-clock accuracy accumulating
/// since then, plus the spec's 32 µs minimum instant-jitter allowance.
fn window_widening(elapsed: Duration) -> Duration {
    Duration::from_nanos((elapsed.nanos() as f64 * 2.0 * SCA_PPM * 1e-6) as u64)
        + Duration::from_micros(32)
}

/// Host processing delay before the next exchange carrying a PDU of
/// `len` payload bytes.
fn exchange_overhead(len: usize) -> Duration {
    HOST_OVERHEAD_BASE + Duration::from_nanos(HOST_OVERHEAD_PER_BYTE_NS * len as u64)
}

/// Timer payloads. The world echoes them back verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Book the next event/listen window of a connection.
    EventPrep(ConnId),
    /// Coordinator anchor: transmit the event's first packet.
    EventStart(ConnId),
    /// Subordinate: begin listening (window booked earlier).
    ListenStart(ConnId),
    /// Subordinate: listen window over.
    ListenEnd(ConnId),
    /// Coordinator: reply did not arrive in time.
    ReplyWait(ConnId),
    /// Continue the event with another exchange (transmit moment).
    Continue(ConnId),
    /// Supervision-timeout check.
    Supervision(ConnId),
    /// Begin an advertising train.
    AdvEvent,
    /// Next step in the advertising train (transmit on channel 37+n,
    /// or finish the train at n == 3).
    AdvStep(u8),
    /// Begin a scan window.
    ScanStart,
    /// Scan window over.
    ScanEnd,
    /// Transmit a CONNECT_IND (one IFS after the heard ADV_IND).
    SendConnectInd,
}

impl TimerKind {
    /// The connection this timer belongs to, if it is conn-scoped.
    pub fn conn(&self) -> Option<ConnId> {
        match *self {
            TimerKind::EventPrep(c)
            | TimerKind::EventStart(c)
            | TimerKind::ListenStart(c)
            | TimerKind::ListenEnd(c)
            | TimerKind::ReplyWait(c)
            | TimerKind::Continue(c)
            | TimerKind::Supervision(c) => Some(c),
            TimerKind::AdvEvent
            | TimerKind::AdvStep(_)
            | TimerKind::ScanStart
            | TimerKind::ScanEnd
            | TimerKind::SendConnectInd => None,
        }
    }
}

/// A timer with its anti-staleness generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// What to do when it fires.
    pub kind: TimerKind,
    /// Generation captured when armed; stale timers are ignored.
    pub gen: u64,
}

/// Frames on the air. Typed rather than byte-encoded (the data-PDU
/// byte codec lives in [`crate::pdu`] and is exercised separately);
/// [`Frame::airtime`] reports the exact on-air duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// ADV_IND.
    AdvInd {
        /// Advertising node.
        advertiser: NodeId,
        /// AD payload length in bytes.
        payload_len: usize,
    },
    /// CONNECT_IND: initiates a connection.
    ConnectInd {
        /// Scanner becoming coordinator.
        initiator: NodeId,
        /// Advertiser becoming subordinate.
        advertiser: NodeId,
        /// World-unique connection id.
        conn_id: ConnId,
        /// Access address of the new connection.
        access_address: u32,
        /// Connection parameters (interval, timeout, map, CSA).
        params: ConnParams,
        /// Transmit-window offset after the 1.25 ms delay.
        win_offset: Duration,
        /// Transmit-window size (the anchor lies within it).
        win_size: Duration,
    },
    /// A data-channel PDU of an established connection.
    Data {
        /// Connection it belongs to.
        conn: ConnId,
        /// Access address (must match the connection's).
        access_address: u32,
        /// PHY mode the frame is sent on.
        phy: BlePhy,
        /// The PDU.
        pdu: DataPdu,
    },
    /// An extended-advertising PDU carrying a 6LoWPAN frame — the
    /// connection-less transport's data unit (`mindgap-adv`). The
    /// connection link layer ignores these; the advertising transport
    /// consumes them. Addressing is carried in-band: `dst` is a node
    /// index or [`Frame::ADV_BROADCAST`], and `seq` is per-advertiser
    /// and keys receive-side duplicate suppression.
    AdvData {
        /// Transmitting node (per-hop sender, not the IP source).
        advertiser: NodeId,
        /// Destination node index, or [`Frame::ADV_BROADCAST`].
        dst: u16,
        /// Per-advertiser sequence number (duplicate-suppression key).
        seq: u16,
        /// The compressed 6LoWPAN frame.
        payload: Vec<u8>,
    },
}

impl Frame {
    /// Broadcast destination for [`Frame::AdvData`].
    pub const ADV_BROADCAST: u16 = u16::MAX;

    /// In-band addressing bytes an [`Frame::AdvData`] PDU spends on
    /// top of its 6LoWPAN payload: dst (2) + seq (2) + one reserved
    /// header byte.
    pub const ADV_DATA_OVERHEAD: usize = 5;

    /// Exact on-air duration on the 1 Mbps PHY.
    pub fn airtime(&self) -> Duration {
        match self {
            Frame::AdvInd { payload_len, .. } => airtime::ble_adv_1m(*payload_len as u32),
            Frame::ConnectInd { .. } => CONNECT_IND_AIR,
            Frame::Data { pdu, phy, .. } => data_air(*phy, pdu.payload.len()),
            Frame::AdvData { payload, .. } => {
                airtime::ble_adv_ext_1m((payload.len() + Frame::ADV_DATA_OVERHEAD) as u32)
            }
        }
    }
}

/// Who owns a listening period (so a stale stop from one activity can
/// never silence another's receiver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListenTag {
    /// A connection's listen (windows, reply waits, continuations).
    Conn(ConnId),
    /// The post-ADV_IND listen for CONNECT_INDs.
    Adv,
    /// A scan window.
    Scan,
}

/// Actions the world must execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Arm a timer at an absolute global time.
    Arm {
        /// Fire time.
        at: Instant,
        /// Payload to echo into [`LinkLayer::on_timer`].
        timer: Timer,
    },
    /// Start transmitting `frame` on `channel` now. The world calls
    /// [`LinkLayer::on_tx_done`] when the airtime elapses.
    Tx {
        /// Channel.
        channel: Channel,
        /// Frame.
        frame: Frame,
    },
    /// Open the receiver on `channel` until `until`.
    Listen {
        /// Channel.
        channel: Channel,
        /// Closing time.
        until: Instant,
        /// Owner of this listening period.
        tag: ListenTag,
    },
    /// Close the receiver — only if the current listening period is
    /// still owned by `tag`.
    ListenOff {
        /// Owner issuing the stop.
        tag: ListenTag,
    },
    /// A connection reached the connected state.
    ConnUp {
        /// Connection id.
        conn: ConnId,
        /// Peer node.
        peer: NodeId,
        /// Our role.
        role: Role,
    },
    /// A connection went down.
    ConnDown {
        /// Connection id.
        conn: ConnId,
        /// Peer node.
        peer: NodeId,
        /// Why.
        reason: LossReason,
    },
    /// An LL payload (L2CAP K-frame) arrived on a connection.
    Rx {
        /// Connection id.
        conn: ConnId,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// The connection's transmit queue has room — the host may refill.
    TxSpace {
        /// Connection id.
        conn: ConnId,
    },
    /// Control-plane diagnostic, counted by the host's `Trace`.
    Trace {
        /// Machine-readable tag.
        tag: &'static str,
        /// Free-form detail (usually a connection id).
        detail: u64,
    },
    /// Structured observability event (timeline feed). Separate from
    /// [`Output::Trace`] so the timeline gets typed payloads (anchors,
    /// intervals) instead of a single `u64` detail.
    Obs(LlObsEvent),
    /// A discovery-mode scanner heard an ADV_IND that matched no
    /// connect target. The world models RSSI from the advertiser's
    /// distance and feeds the sighting to the peer-manager policy.
    /// Only emitted after [`LinkLayer::start_discovery`] — worlds that
    /// never enable discovery never see this variant.
    AdvSighting {
        /// Node whose advertising train we heard.
        advertiser: NodeId,
    },
}

/// Typed link-layer events for the observability timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlObsEvent {
    /// A connection event opened (coordinator TX or subordinate
    /// sync). The anchor sequence is the raw material of the paper's
    /// §6.2 shading analysis.
    ConnEvent {
        /// Connection id.
        conn: ConnId,
        /// `true` when this node coordinates the connection.
        coord: bool,
        /// Event anchor point (global time).
        anchor: Instant,
        /// Connection interval, in this node's global-time units.
        interval: Duration,
    },
    /// A channel-map update took effect at its instant boundary.
    ChannelMapUpdate {
        /// Connection id.
        conn: ConnId,
        /// Data channels still in use.
        used: u8,
    },
    /// A connection-parameter update took effect.
    ConnParamUpdate {
        /// Connection id.
        conn: ConnId,
        /// New connection interval (local-clock units).
        interval: Duration,
    },
}

/// Link-layer counters (energy model and experiment metrics feed on
/// these).
#[derive(Debug, Clone, Copy, Default)]
pub struct LlCounters {
    /// Connection events participated in as coordinator.
    pub coord_events: u64,
    /// Connection events participated in as subordinate (synced).
    pub sub_events: u64,
    /// Subordinate windows that passed without hearing the peer.
    pub sub_missed: u64,
    /// Events skipped because the radio was booked elsewhere.
    pub skipped_events: u64,
    /// Advertising trains transmitted.
    pub adv_trains: u64,
    /// Scan windows opened.
    pub scan_windows: u64,
    /// Cumulative transmit airtime (ns).
    pub tx_ns: u64,
    /// Cumulative scheduled listen time (ns).
    pub listen_ns: u64,
}

struct AdvState {
    reservation: Option<crate::sched::ResId>,
    train_start: Instant,
    /// Index of the ADV_IND currently on the air (0–2).
    current_step: u8,
}

struct ScanTarget {
    advertiser: NodeId,
    conn_id: ConnId,
    params: ConnParams,
}

struct ScanState {
    targets: Vec<ScanTarget>,
    /// Index of the *next* window's channel (0..3 → 37..39).
    channel_idx: u8,
    reservation: Option<crate::sched::ResId>,
    /// Target index we are about to answer with a CONNECT_IND.
    pending: Option<usize>,
    /// Passive-discovery mode: keep scanning with no connect targets
    /// and surface every foreign ADV_IND as [`Output::AdvSighting`].
    discovery: bool,
}

struct PendingConnect {
    conn_id: ConnId,
    peer: NodeId,
    access_address: u32,
    params: ConnParams,
    win_offset: Duration,
    win_size: Duration,
}

/// Data-PDU airtime on the configured PHY.
fn data_air(phy: BlePhy, payload_len: usize) -> Duration {
    match phy {
        BlePhy::OneM => airtime::ble_data_1m(payload_len as u32),
        BlePhy::TwoM => airtime::ble_data_2m(payload_len as u32),
    }
}

fn arm_out(at: Instant, kind: TimerKind, gen: u64) -> Output {
    Output::Arm {
        at,
        timer: Timer { kind, gen },
    }
}

/// Worst-case length of one packet exchange starting with a PDU of
/// `first_len` payload bytes (reply assumed `reply_len`).
fn exchange_len(phy: BlePhy, reply_len: usize, first_len: usize) -> Duration {
    data_air(phy, first_len) + IFS + data_air(phy, reply_len) + IFS + SLACK
}

/// The per-node link layer.
pub struct LinkLayer {
    cfg: LlConfig,
    node: NodeId,
    clock: Clock,
    rng: Rng,
    sched: RadioScheduler,
    /// Live connections, sorted by id (a node coordinates/subordinates
    /// a handful at most, so linear scans beat tree lookups and keep
    /// iteration order identical to the former BTreeMap).
    conns: Vec<Connection>,
    adv: Option<AdvState>,
    adv_gen: u64,
    scan: Option<ScanState>,
    scan_gen: u64,
    pending_connect: Option<PendingConnect>,
    counters: LlCounters,
    /// Recycling storage for data-path payload buffers (PDU copies,
    /// delivered payloads, L2CAP K-frames). See `mindgap_sim::BytePool`.
    bufs: BytePool,
}

/// Keyed lookups over the (small, id-sorted) connection list. Free
/// functions so callers can borrow `conns` alongside other fields.
fn find_conn(conns: &[Connection], id: ConnId) -> Option<&Connection> {
    conns.iter().find(|c| c.id == id)
}

fn find_conn_mut(conns: &mut [Connection], id: ConnId) -> Option<&mut Connection> {
    conns.iter_mut().find(|c| c.id == id)
}

fn take_conn(conns: &mut Vec<Connection>, id: ConnId) -> Option<Connection> {
    let i = conns.iter().position(|c| c.id == id)?;
    Some(conns.remove(i))
}

fn add_conn(conns: &mut Vec<Connection>, conn: Connection) {
    let pos = conns.partition_point(|c| c.id < conn.id);
    conns.insert(pos, conn);
}

impl LinkLayer {
    /// Create the link layer of `node`, whose sleep clock drifts per
    /// `clock`.
    pub fn new(node: NodeId, clock: Clock, cfg: LlConfig, rng: Rng) -> Self {
        LinkLayer {
            cfg,
            node,
            clock,
            rng,
            sched: RadioScheduler::new(),
            conns: Vec::new(),
            adv: None,
            adv_gen: 0,
            scan: None,
            scan_gen: 0,
            pending_connect: None,
            counters: LlCounters::default(),
            bufs: BytePool::new(),
        }
    }

    /// The node's recycling buffer pool. The world borrows this to
    /// source L2CAP K-frame buffers and to return payload buffers
    /// whose journey ended (frame transmitted, datagram decoded).
    pub fn buffers(&mut self) -> &mut BytePool {
        &mut self.bufs
    }

    /// Return a payload buffer to the node's pool once the kernel is
    /// done with it.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.bufs.put(buf);
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Replace the node's clock (chaos clock-drift steps). Existing
    /// anchors keep their booked global times; only future
    /// local→global conversions use the new rate.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Counters.
    pub fn counters(&self) -> LlCounters {
        self.counters
    }

    /// Stats of one connection.
    pub fn conn_stats(&self, conn: ConnId) -> Option<ConnStats> {
        find_conn(&self.conns, conn).map(|c| c.stats)
    }

    /// Ids, peers and roles of live connections.
    pub fn connections(&self) -> Vec<(ConnId, NodeId, Role)> {
        self.conns.iter().map(|c| (c.id, c.peer, c.role)).collect()
    }

    /// Interval of a live connection (local units).
    pub fn conn_interval(&self, conn: ConnId) -> Option<Duration> {
        find_conn(&self.conns, conn).map(|c| c.params.interval)
    }

    /// Free PDU slots in a connection's transmit queue.
    pub fn queue_space(&self, conn: ConnId) -> usize {
        find_conn(&self.conns, conn)
            .map(|c| LL_QUEUE_CAP.saturating_sub(c.queue.len()))
            .unwrap_or(0)
    }

    /// Enqueue an LL payload (an L2CAP K-frame). Fails when the queue
    /// is full or the connection is gone, returning the payload.
    pub fn enqueue(&mut self, conn: ConnId, payload: Vec<u8>) -> Result<(), Vec<u8>> {
        assert!(payload.len() <= self.cfg.max_pdu, "PDU exceeds LL maximum");
        match find_conn_mut(&mut self.conns, conn) {
            Some(c) if c.queue.len() < LL_QUEUE_CAP => {
                c.queue.push_back((crate::pdu::Llid::DataStart, payload));
                Ok(())
            }
            _ => Err(payload),
        }
    }

    // ------------------------------------------------------------------
    // Advertising / scanning control
    // ------------------------------------------------------------------

    /// Begin advertising (subordinate role in statconn). Outputs are
    /// pushed into `out` (the world's reusable scratch buffer).
    pub fn start_advertising(&mut self, now: Instant, out: &mut Vec<Output>) {
        if self.adv.is_some() {
            return;
        }
        self.adv_gen += 1;
        self.adv = Some(AdvState {
            reservation: None,
            train_start: now,
            current_step: 0,
        });
        // First train after a random fraction of the interval so
        // restarted advertisers do not synchronise.
        let interval = self.clock.to_global(ADV_INTERVAL);
        let delay = Duration::from_nanos(self.rng.below(interval.nanos().max(1)));
        out.push(arm_out(now + delay, TimerKind::AdvEvent, self.adv_gen));
    }

    /// Stop advertising.
    fn stop_advertising(&mut self) {
        if let Some(adv) = self.adv.take() {
            if let Some(r) = adv.reservation {
                self.sched.remove(r);
            }
            self.adv_gen += 1;
        }
    }

    /// Begin scanning to initiate a connection to `advertiser`
    /// (coordinator role in statconn). `conn_id` is the world-assigned
    /// identity the new connection will carry.
    pub fn start_scanning(
        &mut self,
        now: Instant,
        advertiser: NodeId,
        conn_id: ConnId,
        params: ConnParams,
        out: &mut Vec<Output>,
    ) {
        params.validate();
        let target = ScanTarget {
            advertiser,
            conn_id,
            params,
        };
        match &mut self.scan {
            Some(s) => {
                s.targets.push(target);
            }
            None => {
                self.scan_gen += 1;
                // Start on a node-dependent advertising channel and
                // with a random sub-interval delay so simultaneous
                // initiators do not answer the same ADV_IND with
                // colliding CONNECT_INDs.
                let jitter = Duration::from_nanos(
                    self.rng
                        .below(self.clock.to_global(SCAN_INTERVAL).nanos().max(1)),
                );
                self.scan = Some(ScanState {
                    targets: vec![target],
                    channel_idx: (self.node.0 % 3) as u8,
                    reservation: None,
                    pending: None,
                    discovery: false,
                });
                out.push(arm_out(now + jitter, TimerKind::ScanStart, self.scan_gen));
            }
        }
    }

    /// Begin passive neighbor discovery: scan indefinitely (even with
    /// no connect target) and emit [`Output::AdvSighting`] for every
    /// ADV_IND heard from a non-target advertiser. Idempotent; the
    /// scan machinery is shared with [`LinkLayer::start_scanning`], so
    /// connect targets added later ride the same windows.
    pub fn start_discovery(&mut self, now: Instant, out: &mut Vec<Output>) {
        match &mut self.scan {
            Some(s) => s.discovery = true,
            None => {
                self.scan_gen += 1;
                // Same desynchronizing jitter as a connect scan.
                let jitter = Duration::from_nanos(
                    self.rng
                        .below(self.clock.to_global(SCAN_INTERVAL).nanos().max(1)),
                );
                self.scan = Some(ScanState {
                    targets: Vec::new(),
                    channel_idx: (self.node.0 % 3) as u8,
                    reservation: None,
                    pending: None,
                    discovery: true,
                });
                out.push(arm_out(now + jitter, TimerKind::ScanStart, self.scan_gen));
            }
        }
    }

    /// Abandon scanning for one advertiser. A discovery-mode scan
    /// stays alive with zero targets.
    pub fn cancel_scan_target(&mut self, advertiser: NodeId) {
        if let Some(s) = &mut self.scan {
            // `pending` indexes into `targets`; compacting the list
            // below would leave it dangling. Drop it if it points at
            // the cancelled advertiser (the armed SendConnectInd then
            // no-ops and the window's ScanEnd keeps the chain alive),
            // else shift it past the removed entries.
            if let Some(p) = s.pending {
                let hits_pending = s
                    .targets
                    .get(p)
                    .map(|t| t.advertiser == advertiser)
                    .unwrap_or(true);
                if hits_pending {
                    s.pending = None;
                } else {
                    let removed_before = s.targets[..p]
                        .iter()
                        .filter(|t| t.advertiser == advertiser)
                        .count();
                    s.pending = Some(p - removed_before);
                }
            }
            s.targets.retain(|t| t.advertiser != advertiser);
            if s.targets.is_empty() && !s.discovery {
                if let Some(r) = s.reservation {
                    self.sched.remove(r);
                }
                self.scan = None;
                self.scan_gen += 1;
            }
        }
    }

    /// Host-initiated connection close (both ends are closed by the
    /// world; see module docs).
    pub fn close(&mut self, conn: ConnId, now: Instant, out: &mut Vec<Output>) {
        self.teardown(conn, now, LossReason::LocalClose, out);
    }

    /// Initiate the LL connection-update procedure (coordinator only):
    /// switch to `new_interval` (and re-randomize the anchor phase) at
    /// an instant a few events ahead. This is the standard mechanism
    /// the paper's §6.3 design-space discussion weighs against its
    /// randomize-at-open proposal.
    pub fn request_conn_update(
        &mut self,
        conn: ConnId,
        new_interval: Duration,
    ) -> Result<(), &'static str> {
        let max_off = new_interval.nanos().max(1_250_000);
        let win_offset = Duration::from_nanos(self.rng.below(max_off) / 1_250_000 * 1_250_000);
        let Some(c) = find_conn_mut(&mut self.conns, conn) else {
            return Err("unknown connection");
        };
        if c.role != Role::Coordinator {
            return Err("only the coordinator updates parameters");
        }
        if c.pending_update.is_some() {
            return Err("update already pending");
        }
        let instant = c.event_counter.wrapping_add(MIN_INSTANT_LEAD + 6);
        let pdu = ControlPdu::ConnUpdateInd {
            win_offset,
            interval: new_interval,
            instant,
        };
        c.pending_update = Some(pdu);
        c.queue.push_front((Llid::Control, pdu.encode()));
        Ok(())
    }

    /// Initiate the LL channel-map-update procedure (coordinator
    /// only): adaptive frequency hopping uses this to retire noisy
    /// channels.
    pub fn request_channel_map(
        &mut self,
        conn: ConnId,
        map: ChannelMap,
    ) -> Result<(), &'static str> {
        let Some(c) = find_conn_mut(&mut self.conns, conn) else {
            return Err("unknown connection");
        };
        if c.role != Role::Coordinator {
            return Err("only the coordinator updates the map");
        }
        if c.pending_update.is_some() {
            return Err("update already pending");
        }
        let instant = c.event_counter.wrapping_add(MIN_INSTANT_LEAD + 6);
        let pdu = ControlPdu::ChannelMapInd { map, instant };
        c.pending_update = Some(pdu);
        c.queue.push_front((Llid::Control, pdu.encode()));
        Ok(())
    }

    /// Channel map currently used by a connection.
    pub fn conn_channel_map(&self, conn: ConnId) -> Option<ChannelMap> {
        find_conn(&self.conns, conn).map(|c| c.selector.map())
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// A timer armed earlier fires. Outputs are pushed into `out`, a
    /// scratch buffer the caller owns and drains — the hot path
    /// allocates nothing per event.
    pub fn on_timer(&mut self, now: Instant, timer: Timer, out: &mut Vec<Output>) {
        match timer.kind {
            TimerKind::EventPrep(id) => {
                if self.gen_ok(id, timer.gen) {
                    self.prep_event(now, id, out);
                }
            }
            TimerKind::EventStart(id) => {
                if self.gen_ok(id, timer.gen) {
                    self.coord_event_start(now, id, out);
                }
            }
            TimerKind::ListenStart(id) => {
                if self.gen_ok(id, timer.gen) {
                    self.sub_listen_start(now, id, out);
                }
            }
            TimerKind::ListenEnd(id) => {
                if self.xgen_ok(id, timer.gen) {
                    self.sub_listen_end(now, id, out);
                }
            }
            TimerKind::ReplyWait(id) => {
                if self.xgen_ok(id, timer.gen) {
                    self.coord_reply_timeout(now, id, out);
                }
            }
            TimerKind::Continue(id) => {
                if self.xgen_ok(id, timer.gen) {
                    self.continue_event(now, id, out);
                }
            }
            TimerKind::Supervision(id) => self.supervision_check(now, id, out),
            TimerKind::AdvEvent => {
                if timer.gen == self.adv_gen && self.adv.is_some() {
                    self.adv_train_begin(now, out);
                }
            }
            TimerKind::AdvStep(step) => {
                if timer.gen == self.adv_gen && self.adv.is_some() {
                    self.adv_step(now, step, out);
                }
            }
            TimerKind::ScanStart => {
                if timer.gen == self.scan_gen && self.scan.is_some() {
                    self.scan_window_begin(now, out);
                }
            }
            TimerKind::ScanEnd => {
                if timer.gen == self.scan_gen && self.scan.is_some() {
                    self.scan_window_end(now, out);
                }
            }
            TimerKind::SendConnectInd => {
                if timer.gen == self.scan_gen && self.scan.is_some() {
                    self.send_connect_ind(now, out);
                }
            }
        }
    }

    /// A frame finished arriving intact while we were listening.
    /// Outputs are pushed into `out` (see [`LinkLayer::on_timer`]).
    pub fn on_frame_rx(
        &mut self,
        now: Instant,
        frame: &Frame,
        channel: Channel,
        out: &mut Vec<Output>,
    ) {
        match frame {
            Frame::Data {
                conn,
                access_address,
                pdu,
                ..
            } => self.conn_frame_rx(now, *conn, *access_address, pdu, channel, out),
            Frame::ConnectInd {
                initiator,
                advertiser,
                conn_id,
                access_address,
                params,
                win_offset,
                win_size,
            } => {
                if *advertiser == self.node && self.adv.is_some() {
                    self.accept_connect_ind(
                        now,
                        *initiator,
                        *conn_id,
                        *access_address,
                        *params,
                        *win_offset,
                        *win_size,
                        out,
                    );
                }
            }
            Frame::AdvInd { advertiser, .. } => {
                self.scanner_saw_adv(now, *advertiser, out);
            }
            // The connection-less transport's PDUs are not ours: the
            // advertising transport (`mindgap-adv`) owns the radio in
            // worlds that carry them.
            Frame::AdvData { .. } => {}
        }
    }

    /// The frame we were transmitting has left the antenna. The world
    /// passes the frame back so completions are attributed correctly
    /// even when (buggy or adversarial) schedules overlap
    /// transmissions. Outputs are pushed into `out` (see
    /// [`LinkLayer::on_timer`]).
    pub fn on_tx_done(&mut self, now: Instant, frame: &Frame, out: &mut Vec<Output>) {
        match frame {
            Frame::Data { conn, .. } => self.conn_tx_done(now, *conn, out),
            Frame::AdvInd { .. } => {
                let step = self.adv.as_ref().map(|a| a.current_step).unwrap_or(0);
                self.adv_tx_done(now, step, out);
            }
            Frame::ConnectInd { conn_id, .. } => self.connect_ind_tx_done(now, *conn_id, out),
            Frame::AdvData { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // Event-counter advance (with update instants)
    // ------------------------------------------------------------------

    /// Advance a connection by one event: bump the counter, move the
    /// anchor one (old) interval, then apply any pending update whose
    /// instant has arrived (Core Spec Vol 6 Part B §5.1.1/§5.1.2).
    fn advance_event(conn: &mut Connection, clock: Clock, out: &mut Vec<Output>) {
        conn.event_counter = conn.event_counter.wrapping_add(1);
        conn.next_anchor += clock.to_global(conn.params.interval);
        let Some(update) = conn.pending_update else {
            return;
        };
        let instant = match update {
            ControlPdu::ConnUpdateInd { instant, .. } => instant,
            ControlPdu::ChannelMapInd { instant, .. } => instant,
        };
        if conn.event_counter != instant {
            return;
        }
        match update {
            ControlPdu::ConnUpdateInd {
                win_offset,
                interval,
                ..
            } => {
                conn.next_anchor += win_offset;
                conn.params.interval = interval;
                // The coordinator may transmit anywhere inside the
                // (minimal) transmit window; widen the next listen.
                conn.sync_uncertainty += Duration::from_micros(1_250);
                out.push(Output::Trace {
                    tag: "conn_update_applied",
                    detail: conn.id.0,
                });
                out.push(Output::Obs(LlObsEvent::ConnParamUpdate {
                    conn: conn.id,
                    interval,
                }));
            }
            ControlPdu::ChannelMapInd { map, .. } => {
                conn.selector.set_map(map);
                out.push(Output::Trace {
                    tag: "chmap_update_applied",
                    detail: conn.id.0,
                });
                out.push(Output::Obs(LlObsEvent::ChannelMapUpdate {
                    conn: conn.id,
                    used: map.used() as u8,
                }));
            }
        }
        conn.pending_update = None;
    }

    // ------------------------------------------------------------------
    // Generation checks
    // ------------------------------------------------------------------

    fn gen_ok(&self, id: ConnId, gen: u64) -> bool {
        find_conn(&self.conns, id)
            .map(|c| c.gen == gen)
            .unwrap_or(false)
    }

    fn xgen_ok(&self, id: ConnId, gen: u64) -> bool {
        find_conn(&self.conns, id)
            .map(|c| c.xgen == gen)
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Connection event lifecycle
    // ------------------------------------------------------------------

    /// Book the next event (coordinator) or listen window (subordinate)
    /// of connection `id`, whose `next_anchor` is already set.
    fn prep_event(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let clock = self.clock;
        let cfg = self.cfg;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        debug_assert_eq!(conn.state, CeState::Idle);
        let anchor = conn.next_anchor;

        if anchor <= now {
            // We are late (another connection's long event ran past our
            // anchor): count a skip and move one interval on.
            Self::advance_event(conn, clock, out);
            conn.stats.events_skipped += 1;
            let gen = conn.gen;
            self.counters.skipped_events += 1;
            out.push(Output::Trace {
                tag: "event_skipped",
                detail: id.0,
            });
            out.push(arm_out(now, TimerKind::EventPrep(id), gen));
            return;
        }

        let head_len = conn
            .in_flight
            .as_ref()
            .map(|(_, p)| p.len())
            .or_else(|| conn.queue.front().map(|(_, p)| p.len()))
            .unwrap_or(0);
        let role = conn.role;
        let gen = conn.gen;
        let sync_uncertainty = conn.sync_uncertainty;
        let last_sync = conn.last_sync;

        match role {
            Role::Coordinator => {
                let len = exchange_len(cfg.phy, cfg.max_pdu, head_len).max(MIN_EVENT_LEN);
                let mut booked = self
                    .sched
                    .try_book(anchor, anchor + len, ResKind::ConnEvent(id));
                if booked.is_err() && self.preempt_for_conn(anchor, anchor + len, out) {
                    booked = self
                        .sched
                        .try_book(anchor, anchor + len, ResKind::ConnEvent(id));
                }
                match booked {
                    Ok(res) => {
                        let conn = find_conn_mut(&mut self.conns, id).expect("present");
                        conn.reservation = Some(res);
                        out.push(arm_out(anchor, TimerKind::EventStart(id), gen));
                    }
                    Err(_) => self.skip_event(now, id, out),
                }
            }
            Role::Subordinate => {
                // Widened window around the anchor, plus the residual
                // transmit-window uncertainty after it.
                let ww = window_widening(anchor.saturating_since(last_sync));
                let first_air = data_air(cfg.phy, cfg.max_pdu);
                let start = anchor - ww;
                let end = anchor + sync_uncertainty + ww + first_air + SLACK;
                let mut booked = self.sched.try_book(start, end, ResKind::Listen(id));
                if booked.is_err() && self.preempt_for_conn(start, end, out) {
                    booked = self.sched.try_book(start, end, ResKind::Listen(id));
                }
                match booked {
                    Ok(res) => {
                        let conn = find_conn_mut(&mut self.conns, id).expect("present");
                        conn.reservation = Some(res);
                        conn.window_end = end;
                        out.push(arm_out(start.max(now), TimerKind::ListenStart(id), gen));
                    }
                    Err(conflict) if conflict.busy_until + MIN_PARTIAL_LISTEN < end => {
                        // Opportunistic late listen on the window tail.
                        match self
                            .sched
                            .try_book(conflict.busy_until, end, ResKind::Listen(id))
                        {
                            Ok(res) => {
                                let conn = find_conn_mut(&mut self.conns, id).expect("present");
                                conn.reservation = Some(res);
                                conn.window_end = end;
                                conn.stats.partial_listens += 1;
                                out.push(Output::Trace {
                                    tag: "partial_listen",
                                    detail: id.0,
                                });
                                out.push(arm_out(
                                    conflict.busy_until.max(now),
                                    TimerKind::ListenStart(id),
                                    gen,
                                ));
                            }
                            Err(_) => self.skip_event(now, id, out),
                        }
                    }
                    Err(_) => self.skip_event(now, id, out),
                }
            }
        }
    }

    /// Try to clear `[start, end)` of advertising/scan reservations so
    /// a connection booking can take the slot (controllers prioritise
    /// connections over background activities). Restarts the evicted
    /// activity after `end`. Returns `true` when the span is now free.
    fn preempt_for_conn(&mut self, start: Instant, end: Instant, out: &mut Vec<Output>) -> bool {
        let Some(victims) = self.sched.preempt_non_conn(start, end) else {
            return false;
        };
        if victims.is_empty() {
            return false;
        }
        for v in victims {
            match v.kind {
                ResKind::Scan => {
                    if let Some(scan) = self.scan.as_mut() {
                        scan.reservation = None;
                        scan.pending = None;
                    }
                    self.scan_gen += 1;
                    out.push(arm_out(end, TimerKind::ScanStart, self.scan_gen));
                }
                ResKind::Adv => {
                    if let Some(adv) = self.adv.as_mut() {
                        adv.reservation = None;
                    }
                    self.adv_gen += 1;
                    let delay = Duration::from_nanos(self.rng.below(5_000_000));
                    out.push(arm_out(end + delay, TimerKind::AdvEvent, self.adv_gen));
                }
                _ => unreachable!("preempt_non_conn only returns adv/scan"),
            }
        }
        true
    }

    /// The radio is booked elsewhere: skip this event entirely and
    /// re-prep at the would-be anchor (keeping one interval of booking
    /// lead time, which preserves anchor-order fairness).
    fn skip_event(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let clock = self.clock;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        let anchor = conn.next_anchor;
        Self::advance_event(conn, clock, out);
        conn.stats.events_skipped += 1;
        let gen = conn.gen;
        self.counters.skipped_events += 1;
        out.push(Output::Trace {
            tag: "event_skipped",
            detail: id.0,
        });
        out.push(arm_out(anchor.max(now), TimerKind::EventPrep(id), gen));
    }

    /// Coordinator: anchor reached — transmit the event's first PDU.
    fn coord_event_start(&mut self, _now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let clock = self.clock;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        debug_assert_eq!(conn.role, Role::Coordinator);
        let channel = conn.selector.channel_for_event(conn.event_counter);
        conn.event_channel = Some(channel);
        conn.event_had_data = false;
        conn.event_synced = true;
        conn.peer_md = false;
        // Hard limit: our own next anchor minus the IFS the spec
        // demands before the following event (§2.2).
        conn.event_limit = conn.next_anchor + clock.to_global(conn.params.interval) - IFS;
        conn.state = CeState::CoordTx;
        conn.stats.events += 1;
        let pdu = conn.next_pdu(&mut self.bufs);
        let aa_val = conn.access_address;
        out.push(Output::Obs(LlObsEvent::ConnEvent {
            conn: id,
            coord: true,
            anchor: conn.next_anchor,
            interval: clock.to_global(conn.params.interval),
        }));
        self.counters.coord_events += 1;
        self.counters.tx_ns += data_air(self.cfg.phy, pdu.payload.len()).nanos();
        out.push(Output::Tx {
            channel,
            frame: Frame::Data {
                conn: id,
                access_address: aa_val,
                phy: self.cfg.phy,
                pdu,
            },
        });
    }

    /// Subordinate: listen window opens.
    fn sub_listen_start(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let clock = self.clock;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        debug_assert_eq!(conn.role, Role::Subordinate);
        let channel = conn.selector.channel_for_event(conn.event_counter);
        conn.event_channel = Some(channel);
        conn.event_had_data = false;
        conn.event_synced = false;
        conn.peer_md = false;
        conn.event_limit = conn.next_anchor + clock.to_global(conn.params.interval) - IFS;
        conn.state = CeState::SubListening;
        let until = conn.window_end;
        let xgen = conn.xgen;
        self.counters.listen_ns += until.saturating_since(now).nanos();
        out.push(Output::Listen {
            channel,
            until,
            tag: ListenTag::Conn(id),
        });
        out.push(arm_out(until, TimerKind::ListenEnd(id), xgen));
    }

    /// Subordinate: listen window closed. Either the event ended (we
    /// synced and the dialogue is over) or we missed it.
    fn sub_listen_end(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        if conn.state != CeState::SubListening {
            return;
        }
        out.push(Output::ListenOff {
            tag: ListenTag::Conn(id),
        });
        if !conn.event_synced {
            conn.stats.events_missed += 1;
            self.counters.sub_missed += 1;
            out.push(Output::Trace {
                tag: "event_missed",
                detail: id.0,
            });
        }
        self.end_event(now, id, out);
    }

    /// Coordinator: no reply arrived. Per the paper (§5.2) the event is
    /// aborted; unacknowledged data waits a full interval.
    fn coord_reply_timeout(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        if conn.state != CeState::CoordAwaitReply {
            return;
        }
        if let Some(ch) = conn.event_channel {
            if ch.is_ble_data() {
                conn.ch_attempts[ch.index() as usize] += 1;
                conn.ch_fails[ch.index() as usize] += 1;
            }
        }
        out.push(Output::ListenOff {
            tag: ListenTag::Conn(id),
        });
        out.push(Output::Trace {
            tag: "event_no_reply",
            detail: id.0,
        });
        self.end_event(now, id, out);
    }

    /// Transmit the next exchange's PDU (either role).
    fn continue_event(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        if conn.state != CeState::Gap {
            return;
        }
        let channel = conn.event_channel.expect("event in progress");
        // One radio: if another reservation has begun (our reply or
        // continuation would overlap it), abandon the event instead of
        // transmitting over it. The peer times the exchange out and
        // retransmits next event.
        let head_air = data_air(
            self.cfg.phy,
            conn.in_flight
                .as_ref()
                .map(|(_, p)| p.len())
                .or_else(|| conn.queue.front().map(|(_, p)| p.len()))
                .unwrap_or(0),
        );
        let res = conn.reservation;
        if !self.sched.is_free(now, now + head_air, res) {
            out.push(Output::Trace {
                tag: "tx_suppressed",
                detail: id.0,
            });
            self.end_event(now, id, out);
            return;
        }
        let conn = find_conn_mut(&mut self.conns, id).expect("present");
        let pdu = conn.next_pdu(&mut self.bufs);
        let aa_val = conn.access_address;
        conn.state = match conn.role {
            Role::Coordinator => CeState::CoordTx,
            Role::Subordinate => CeState::SubTx,
        };
        self.counters.tx_ns += data_air(self.cfg.phy, pdu.payload.len()).nanos();
        out.push(Output::Tx {
            channel,
            frame: Frame::Data {
                conn: id,
                access_address: aa_val,
                phy: self.cfg.phy,
                pdu,
            },
        });
    }

    /// Data-PDU reception for a connection.
    fn conn_frame_rx(
        &mut self,
        now: Instant,
        id: ConnId,
        access_address: u32,
        pdu: &DataPdu,
        channel: Channel,
        out: &mut Vec<Output>,
    ) {
        let clock = self.clock;
        let cfg = self.cfg;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        if conn.access_address != access_address || conn.event_channel != Some(channel) {
            return; // stale or foreign frame
        }
        match conn.state {
            CeState::SubListening => {
                if !conn.event_synced {
                    // Anchor sync — but only if this really is the
                    // event's *first* packet. A partial (late) listen
                    // can catch a mid-event continuation packet; using
                    // that for sync would shift the anchor estimate by
                    // whole exchanges and leave every later window
                    // mispointed (permanent deafness ending in a
                    // supervision timeout). Accept the computed anchor
                    // only when it falls inside the predicted window.
                    let anchor = now - data_air(cfg.phy, pdu.payload.len());
                    let tol = Duration::from_millis(1);
                    let in_window = anchor + tol >= conn.next_anchor
                        && anchor.saturating_since(conn.next_anchor) <= conn.sync_uncertainty + tol;
                    if in_window {
                        conn.next_anchor = anchor;
                        conn.last_sync = now;
                        conn.sync_uncertainty = Duration::ZERO;
                    }
                    conn.event_limit =
                        conn.next_anchor + clock.to_global(conn.params.interval) - IFS;
                    conn.event_synced = true;
                    conn.stats.events += 1;
                    self.counters.sub_events += 1;
                    out.push(Output::Obs(LlObsEvent::ConnEvent {
                        conn: id,
                        coord: false,
                        anchor: conn.next_anchor,
                        interval: clock.to_global(conn.params.interval),
                    }));
                }
                conn.last_rx = now;
                conn.established = true;
                conn.peer_md = pdu.md;
                conn.xgen += 1;
                let xgen = conn.xgen;
                let payload = conn.process_rx(pdu, &mut self.bufs);
                conn.event_had_data |= payload.is_some();
                let has_space = conn.queue.len() < LL_QUEUE_CAP;
                conn.state = CeState::Gap;
                if let Some(p) = payload {
                    if pdu.llid == Llid::Control {
                        Self::accept_control(conn, &p, out);
                        self.bufs.put(p);
                    } else {
                        out.push(Output::Rx {
                            conn: id,
                            payload: p,
                        });
                    }
                }
                if has_space {
                    out.push(Output::TxSpace { conn: id });
                }
                out.push(Output::ListenOff {
                    tag: ListenTag::Conn(id),
                });
                // Reply exactly one IFS after the packet's end.
                out.push(arm_out(now + IFS, TimerKind::Continue(id), xgen));
            }
            CeState::CoordAwaitReply => {
                conn.last_rx = now;
                conn.established = true;
                conn.peer_md = pdu.md;
                let reply_len = pdu.payload.len();
                conn.xgen += 1;
                let xgen = conn.xgen;
                let payload = conn.process_rx(pdu, &mut self.bufs);
                conn.event_had_data |= payload.is_some();
                let has_space = conn.queue.len() < LL_QUEUE_CAP;
                if let Some(ch) = conn.event_channel {
                    if ch.is_ble_data() {
                        conn.ch_attempts[ch.index() as usize] += 1;
                    }
                }
                if let Some(p) = payload {
                    if pdu.llid == Llid::Control {
                        Self::accept_control(conn, &p, out);
                        self.bufs.put(p);
                    } else {
                        out.push(Output::Rx {
                            conn: id,
                            payload: p,
                        });
                    }
                }
                if has_space {
                    out.push(Output::TxSpace { conn: id });
                }
                out.push(Output::ListenOff {
                    tag: ListenTag::Conn(id),
                });
                // Decide whether to run another exchange (§2.2): more
                // data on either side and room before the event limit
                // and the next booked radio activity.
                let conn = find_conn_mut(&mut self.conns, id).expect("present");
                let more = conn.has_tx_data() || conn.peer_md;
                if more {
                    let head_len = conn
                        .in_flight
                        .as_ref()
                        .map(|(_, p)| p.len())
                        .or_else(|| conn.queue.front().map(|(_, p)| p.len()))
                        .unwrap_or(0);
                    let next_tx_at = now + IFS + exchange_overhead(head_len);
                    // Expected reply: sized from the reply we just
                    // received (with head-room) when the peer announced
                    // more data, an empty keep-alive otherwise. This
                    // adaptive estimate lets small exchanges fit into
                    // the gaps in front of other connections' events
                    // (Fig. 4); a controller that conservatively
                    // assumed the DLE maximum would strangle
                    // bidirectional links whenever schedules phase-lock.
                    let reply_est = if conn.peer_md {
                        ((reply_len * 2).max(40)).min(cfg.max_pdu)
                    } else {
                        0
                    };
                    let needed = exchange_len(cfg.phy, reply_est, head_len);
                    let event_limit = conn.event_limit;
                    let res = conn.reservation;
                    let fits_own = next_tx_at + needed <= event_limit;
                    let fits_sched = match res {
                        Some(r) => self
                            .sched
                            .next_start_after(now, r)
                            .map(|next| next_tx_at + needed <= next)
                            .unwrap_or(true),
                        None => true,
                    };
                    let conn = find_conn_mut(&mut self.conns, id).expect("present");
                    if fits_own && fits_sched {
                        conn.stats.ext_ok += 1;
                        conn.state = CeState::Gap;
                        out.push(arm_out(next_tx_at, TimerKind::Continue(id), xgen));
                        return;
                    } else if !fits_own {
                        conn.stats.ext_blocked_limit += 1;
                    } else {
                        conn.stats.ext_blocked_sched += 1;
                    }
                } else {
                    conn.stats.ext_no_more += 1;
                }
                self.end_event(now, id, out);
            }
            _ => {}
        }
    }

    /// A connection data PDU we were transmitting is done.
    fn conn_tx_done(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let cfg = self.cfg;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        let channel = conn.event_channel.expect("event in progress");
        match conn.state {
            CeState::CoordTx => {
                // Await the subordinate's reply.
                conn.state = CeState::CoordAwaitReply;
                conn.xgen += 1;
                let xgen = conn.xgen;
                let deadline = now + IFS + data_air(cfg.phy, cfg.max_pdu) + SLACK;
                self.counters.listen_ns += deadline.saturating_since(now).nanos();
                out.push(Output::Listen {
                    channel,
                    until: deadline,
                    tag: ListenTag::Conn(id),
                });
                out.push(arm_out(deadline, TimerKind::ReplyWait(id), xgen));
            }
            CeState::SubTx => {
                // The coordinator continues the event iff either side
                // announced more data (§2.2): its own MD flag, or the
                // MD we just sent (set when our queue was non-empty).
                // Our in-flight PDU alone does not extend the event —
                // its acknowledgement rides on the next event's first
                // packet.
                let more = conn.peer_md || !conn.queue.is_empty();
                if more {
                    // Cap the continuation listen so it never runs into
                    // another booked radio activity.
                    let cap = conn
                        .reservation
                        .and_then(|r| self.sched.next_start_after(now, r))
                        .unwrap_or(Instant::MAX);
                    let until = (now
                        + IFS
                        + exchange_overhead(cfg.max_pdu)
                        + data_air(cfg.phy, cfg.max_pdu)
                        + SLACK)
                        .min(conn.event_limit)
                        .min(cap);
                    if until > now + MIN_PARTIAL_LISTEN {
                        conn.state = CeState::SubListening;
                        conn.xgen += 1;
                        let xgen = conn.xgen;
                        self.counters.listen_ns += until.saturating_since(now).nanos();
                        out.push(Output::Listen {
                            channel,
                            until,
                            tag: ListenTag::Conn(id),
                        });
                        out.push(arm_out(until, TimerKind::ListenEnd(id), xgen));
                        return;
                    }
                }
                self.end_event(now, id, out);
            }
            _ => {}
        }
    }

    /// Common end-of-event bookkeeping: advance timing, release the
    /// radio, prepare the next event.
    fn end_event(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let clock = self.clock;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        conn.state = CeState::Idle;
        conn.gen += 1;
        conn.xgen += 1;
        if let Some(r) = conn.reservation.take() {
            self.sched.remove(r);
        }
        conn.event_channel = None;
        Self::advance_event(conn, clock, out);
        if conn.queue.len() < LL_QUEUE_CAP {
            out.push(Output::TxSpace { conn: id });
        }
        self.sched.purge_before(now);
        self.maybe_afh(id, out);
        self.prep_event(now, id, out);
    }

    /// Supervision-timeout check (§2.2): fires at `last_rx + timeout`;
    /// if nothing was received since, the connection is dead.
    fn supervision_check(&mut self, now: Instant, id: ConnId, out: &mut Vec<Output>) {
        let clock = self.clock;
        let Some(conn) = find_conn(&self.conns, id) else {
            return;
        };
        // Before the first received packet, the shorter establishment
        // timeout of 6 × connInterval applies (Core Spec Vol 6 Part B
        // §4.5.2) — a CONNECT_IND lost to a collision must not tie up
        // the initiator for the full supervision timeout.
        let timeout = if conn.established {
            clock.to_global(conn.params.supervision_timeout)
        } else {
            clock.to_global(conn.params.interval * 6)
        };
        let elapsed = now.saturating_since(conn.last_rx);
        if elapsed >= timeout {
            let reason = if conn.established {
                LossReason::SupervisionTimeout
            } else {
                LossReason::EstablishFailed
            };
            self.teardown(id, now, reason, out);
        } else {
            out.push(arm_out(
                conn.last_rx + timeout,
                TimerKind::Supervision(id),
                0,
            ));
        }
    }

    /// A received LL control PDU (subordinate side).
    fn accept_control(conn: &mut Connection, payload: &[u8], out: &mut Vec<Output>) {
        let Some(pdu) = ControlPdu::decode(payload) else {
            out.push(Output::Trace {
                tag: "ctrl_malformed",
                detail: conn.id.0,
            });
            return;
        };
        conn.pending_update = Some(pdu);
        out.push(Output::Trace {
            tag: "ctrl_update_rx",
            detail: conn.id.0,
        });
    }

    /// Adaptive frequency hopping (coordinator side): periodically
    /// retire the channel with a clearly elevated failure rate. The
    /// Bluetooth standard defines the update mechanism but leaves the
    /// policy to implementers (paper §2.2); this is a deliberately
    /// simple threshold policy in that spirit.
    fn maybe_afh(&mut self, id: ConnId, out: &mut Vec<Output>) {
        let cfg = self.cfg;
        let Some(conn) = find_conn_mut(&mut self.conns, id) else {
            return;
        };
        if !cfg.afh_enabled || conn.role != Role::Coordinator || conn.pending_update.is_some() {
            return;
        }
        conn.afh_events += 1;
        if conn.afh_events < cfg.afh_period_events {
            return;
        }
        conn.afh_events = 0;
        let total_att: u32 = conn.ch_attempts.iter().sum();
        let total_fail: u32 = conn.ch_fails.iter().sum();
        if total_att == 0 {
            return;
        }
        let overall = total_fail as f64 / total_att as f64;
        let mut worst: Option<(u8, f64)> = None;
        for ch in 0..37u8 {
            let att = conn.ch_attempts[ch as usize];
            let fail = conn.ch_fails[ch as usize];
            if att < 8 || !conn.selector.map().contains(ch) {
                continue;
            }
            let rate = fail as f64 / att as f64;
            if rate > (3.0 * overall).max(0.35) && worst.map(|(_, w)| rate > w).unwrap_or(true) {
                worst = Some((ch, rate));
            }
        }
        conn.ch_attempts = [0; 37];
        conn.ch_fails = [0; 37];
        let Some((ch, _)) = worst else {
            return;
        };
        let map = conn.selector.map();
        if map.used() <= 10 {
            return; // keep a healthy hopping pool
        }
        let new_map = map.without(ch);
        out.push(Output::Trace {
            tag: "afh_exclude",
            detail: ch as u64,
        });
        let _ = self.request_channel_map(id, new_map);
    }

    fn teardown(&mut self, id: ConnId, now: Instant, reason: LossReason, out: &mut Vec<Output>) {
        if let Some(conn) = take_conn(&mut self.conns, id) {
            self.sched.remove_conn(id);
            self.sched.purge_before(now);
            if matches!(conn.state, CeState::SubListening | CeState::CoordAwaitReply) {
                out.push(Output::ListenOff {
                    tag: ListenTag::Conn(id),
                });
            }
            out.push(Output::Trace {
                tag: "conn_lost",
                detail: id.0,
            });
            out.push(Output::ConnDown {
                conn: id,
                peer: conn.peer,
                reason,
            });
        }
    }

    // ------------------------------------------------------------------
    // Advertising
    // ------------------------------------------------------------------

    fn adv_train_begin(&mut self, now: Instant, out: &mut Vec<Output>) {
        let step_len = airtime::ble_adv_1m(ADV_PAYLOAD as u32) + IFS + CONNECT_IND_AIR + SLACK;
        let train_len = step_len * 3;
        match self.sched.try_book(now, now + train_len, ResKind::Adv) {
            Ok(res) => {
                let adv = self.adv.as_mut().expect("advertising");
                adv.reservation = Some(res);
                adv.train_start = now;
                self.counters.adv_trains += 1;
                self.adv_transmit_step(now, 0, out);
            }
            Err(conflict) => {
                // Advertising yields to connections: retry when the
                // blocker is done.
                out.push(arm_out(
                    conflict.busy_until + Duration::from_micros(150),
                    TimerKind::AdvEvent,
                    self.adv_gen,
                ));
            }
        }
    }

    fn adv_transmit_step(&mut self, _now: Instant, step: u8, out: &mut Vec<Output>) {
        let channel = Channel::ble_adv(37 + step);
        if let Some(adv) = self.adv.as_mut() {
            adv.current_step = step;
        }
        self.counters.tx_ns += airtime::ble_adv_1m(ADV_PAYLOAD as u32).nanos();
        out.push(Output::Tx {
            channel,
            frame: Frame::AdvInd {
                advertiser: self.node,
                payload_len: ADV_PAYLOAD,
            },
        });
    }

    fn adv_tx_done(&mut self, now: Instant, step: u8, out: &mut Vec<Output>) {
        // The train may have been preempted by a connection booking
        // while this PDU was on the air.
        if self
            .adv
            .as_ref()
            .map(|a| a.reservation.is_none())
            .unwrap_or(true)
        {
            return;
        }
        // Listen for a CONNECT_IND answering this ADV_IND.
        let until = now + IFS + CONNECT_IND_AIR + SLACK;
        let channel = Channel::ble_adv(37 + step);
        self.counters.listen_ns += until.saturating_since(now).nanos();
        out.push(Output::Listen {
            channel,
            until,
            tag: ListenTag::Adv,
        });
        out.push(arm_out(until, TimerKind::AdvStep(step + 1), self.adv_gen));
    }

    fn adv_step(&mut self, now: Instant, step: u8, out: &mut Vec<Output>) {
        out.push(Output::ListenOff {
            tag: ListenTag::Adv,
        });
        if step < 3 {
            self.adv_transmit_step(now, step, out);
            return;
        }
        // Train complete.
        let clock = self.clock;
        let Some(adv) = self.adv.as_mut() else {
            return;
        };
        if let Some(r) = adv.reservation.take() {
            self.sched.remove(r);
        }
        let train_start = adv.train_start;
        // Next train: advInterval + advDelay ∈ [0, 10 ms] (spec).
        let delay =
            clock.to_global(ADV_INTERVAL) + Duration::from_nanos(self.rng.below(10_000_000));
        let at = (train_start + delay).max(now);
        out.push(arm_out(at, TimerKind::AdvEvent, self.adv_gen));
    }

    /// CONNECT_IND addressed to us: become subordinate.
    #[allow(clippy::too_many_arguments)]
    fn accept_connect_ind(
        &mut self,
        now: Instant,
        initiator: NodeId,
        conn_id: ConnId,
        access_address: u32,
        params: ConnParams,
        win_offset: Duration,
        win_size: Duration,
        out: &mut Vec<Output>,
    ) {
        debug_assert!(aa::is_valid(access_address));
        let clock = self.clock;
        out.push(Output::ListenOff {
            tag: ListenTag::Adv,
        });
        self.stop_advertising();
        let anchor_base = now + TRANSMIT_WINDOW_DELAY + win_offset;
        let mut conn = Connection::new(
            conn_id,
            initiator,
            Role::Subordinate,
            access_address,
            params,
            now,
        );
        conn.next_anchor = anchor_base;
        conn.sync_uncertainty = win_size;
        add_conn(&mut self.conns, conn);
        out.push(Output::ConnUp {
            conn: conn_id,
            peer: initiator,
            role: Role::Subordinate,
        });
        out.push(Output::Trace {
            tag: "conn_open_sub",
            detail: conn_id.0,
        });
        let timeout_at = now + clock.to_global(params.interval * 6);
        out.push(arm_out(timeout_at, TimerKind::Supervision(conn_id), 0));
        self.prep_event(now, conn_id, out);
        if self.cfg.resume_adv_on_connect {
            self.start_advertising(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Scanning / initiating
    // ------------------------------------------------------------------

    fn scan_window_begin(&mut self, now: Instant, out: &mut Vec<Output>) {
        /// A scan stretch shorter than this cannot catch a full
        /// advertising PDU reliably; wait for the next gap instead.
        const MIN_SCAN_STRETCH: Duration = Duration::from_millis(2);
        let window = self.clock.to_global(SCAN_WINDOW);
        // A busy node rarely has a full scan window free between its
        // connection events; scan the gap until the next reservation —
        // exactly what real controllers do with background scanning.
        let mut until = now + window;
        let booked = match self.sched.try_book(now, until, ResKind::Scan) {
            Ok(res) => Some(res),
            Err(conflict) if conflict.busy_from > now + MIN_SCAN_STRETCH => {
                until = conflict.busy_from;
                self.sched.try_book(now, until, ResKind::Scan).ok()
            }
            Err(conflict) => {
                out.push(arm_out(
                    conflict.busy_until + Duration::from_micros(150),
                    TimerKind::ScanStart,
                    self.scan_gen,
                ));
                return;
            }
        };
        let Some(res) = booked else {
            // Raced with a fresh booking; retry shortly.
            out.push(arm_out(
                now + Duration::from_millis(1),
                TimerKind::ScanStart,
                self.scan_gen,
            ));
            return;
        };
        let scan = self.scan.as_mut().expect("scanning");
        scan.reservation = Some(res);
        let channel = Channel::ble_adv(37 + scan.channel_idx);
        scan.channel_idx = (scan.channel_idx + 1) % 3;
        self.counters.scan_windows += 1;
        self.counters.listen_ns += until.saturating_since(now).nanos();
        out.push(Output::Listen {
            channel,
            until,
            tag: ListenTag::Scan,
        });
        out.push(arm_out(until, TimerKind::ScanEnd, self.scan_gen));
    }

    fn scan_window_end(&mut self, now: Instant, out: &mut Vec<Output>) {
        out.push(Output::ListenOff {
            tag: ListenTag::Scan,
        });
        let mut idle = {
            let clock = self.clock;
            clock
                .to_global(SCAN_INTERVAL)
                .saturating_sub(clock.to_global(SCAN_WINDOW))
        };
        // A node that advertises *and* scans (several statconn edges
        // down at once) must not let back-to-back scan windows starve
        // its advertising trains — real controllers interleave the two.
        if self.adv.is_some() {
            let step_len = airtime::ble_adv_1m(ADV_PAYLOAD as u32) + IFS + CONNECT_IND_AIR + SLACK;
            idle = idle.max(step_len * 3 + Duration::from_micros(500));
        }
        let Some(scan) = self.scan.as_mut() else {
            return;
        };
        if let Some(r) = scan.reservation.take() {
            self.sched.remove(r);
        }
        out.push(arm_out(now + idle, TimerKind::ScanStart, self.scan_gen));
    }

    /// While scanning we heard an ADV_IND; if it is one of our targets,
    /// answer with a CONNECT_IND one IFS later.
    fn scanner_saw_adv(&mut self, now: Instant, advertiser: NodeId, out: &mut Vec<Output>) {
        let Some(scan) = self.scan.as_mut() else {
            return;
        };
        if scan.pending.is_some() || scan.reservation.is_none() {
            return;
        }
        let Some(idx) = scan.targets.iter().position(|t| t.advertiser == advertiser) else {
            // Not someone we are trying to connect to — but in
            // discovery mode a foreign ADV_IND is a neighbor sighting
            // the policy layer wants. The receiver stays open.
            if scan.discovery {
                out.push(Output::AdvSighting { advertiser });
            }
            return;
        };
        scan.pending = Some(idx);
        out.push(Output::ListenOff {
            tag: ListenTag::Scan,
        });
        out.push(arm_out(now + IFS, TimerKind::SendConnectInd, self.scan_gen));
    }

    fn send_connect_ind(&mut self, now: Instant, out: &mut Vec<Output>) {
        let node = self.node;
        let clock = self.clock;
        let aa_val = aa::generate(&mut self.rng);
        // Randomisation draws are taken before borrowing scan state.
        let raw_offset = self.rng.next_u64();
        let scan_res = self.scan.as_ref().and_then(|s| s.reservation);
        // The CONNECT_IND must fit before the next booked radio
        // activity (our scan stretch may have been shortened).
        if !self
            .sched
            .is_free(now, now + CONNECT_IND_AIR + SLACK, scan_res)
        {
            // Abandon this attempt and restart scanning cleanly.
            if let Some(scan) = self.scan.as_mut() {
                scan.pending = None;
                if let Some(r) = scan.reservation.take() {
                    self.sched.remove(r);
                }
            }
            self.scan_gen += 1;
            out.push(arm_out(now, TimerKind::ScanStart, self.scan_gen));
            return;
        }
        let Some(scan) = self.scan.as_mut() else {
            return;
        };
        let Some(idx) = scan.pending else {
            return;
        };
        let target = &scan.targets[idx];
        let params = target.params;
        // Transmit window (§2.3): the coordinator's freedom in placing
        // the first anchor randomises the phase of every connection.
        let interval_g = clock.to_global(params.interval);
        let max_off = interval_g.saturating_sub(TRANSMIT_WINDOW_DELAY);
        let win_offset = Duration::from_nanos(raw_offset % max_off.nanos().max(1));
        let win_size = Duration::from_millis(10)
            .min(max_off.saturating_sub(win_offset))
            .max(Duration::from_micros(1_250));
        let frame = Frame::ConnectInd {
            initiator: node,
            advertiser: target.advertiser,
            conn_id: target.conn_id,
            access_address: aa_val,
            params,
            win_offset,
            win_size,
        };
        // The CONNECT_IND goes out on the advertising channel of the
        // current window (channel_idx already advanced past it).
        let channel = Channel::ble_adv(37 + (scan.channel_idx + 2) % 3);
        self.pending_connect = Some(PendingConnect {
            conn_id: target.conn_id,
            peer: target.advertiser,
            access_address: aa_val,
            params,
            win_offset,
            win_size,
        });
        self.counters.tx_ns += CONNECT_IND_AIR.nanos();
        out.push(Output::Tx { channel, frame });
    }

    fn connect_ind_tx_done(&mut self, now: Instant, conn_id: ConnId, out: &mut Vec<Output>) {
        let clock = self.clock;
        let Some(pc) = self.pending_connect.take() else {
            return;
        };
        debug_assert_eq!(pc.conn_id, conn_id);
        // Coordinator picks the actual first anchor inside the window.
        let anchor = now
            + TRANSMIT_WINDOW_DELAY
            + pc.win_offset
            + Duration::from_nanos(self.rng.below(pc.win_size.nanos().max(1)));
        let mut conn = Connection::new(
            pc.conn_id,
            pc.peer,
            Role::Coordinator,
            pc.access_address,
            pc.params,
            now,
        );
        conn.next_anchor = anchor;
        add_conn(&mut self.conns, conn);
        // Remove the fulfilled target; stop or continue scanning.
        let mut rearm_scan = false;
        if let Some(scan) = self.scan.as_mut() {
            if let Some(idx) = scan.pending.take() {
                scan.targets.remove(idx);
            }
            if let Some(r) = scan.reservation.take() {
                self.sched.remove(r);
            }
            if scan.targets.is_empty() && !scan.discovery {
                self.scan = None;
                self.scan_gen += 1;
            } else {
                rearm_scan = true;
            }
        }
        if rearm_scan {
            out.push(arm_out(now, TimerKind::ScanStart, self.scan_gen));
        }
        out.push(Output::ConnUp {
            conn: pc.conn_id,
            peer: pc.peer,
            role: Role::Coordinator,
        });
        out.push(Output::Trace {
            tag: "conn_open_coord",
            detail: pc.conn_id.0,
        });
        let timeout_at = now + clock.to_global(pc.params.interval * 6);
        out.push(arm_out(timeout_at, TimerKind::Supervision(pc.conn_id), 0));
        self.prep_event(now, pc.conn_id, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ll_world::LlWorld;
    use mindgap_phy::{LossConfig, Medium, MediumConfig};

    #[test]
    fn window_widening_matches_the_spec_formula() {
        // 2 × 50 ppm × interval, plus 32 µs.
        assert_eq!(
            window_widening(Duration::from_millis(75)),
            Duration::from_nanos(39_500)
        );
        assert_eq!(
            window_widening(Duration::from_secs(4)),
            Duration::from_micros(432)
        );
    }

    /// Connection-update procedure with 0 ppm clocks (Core Spec Vol 6
    /// Part B §5.1.1): the instant lies `MIN_INSTANT_LEAD + 6` events
    /// ahead, and the anchor moves by the old interval plus
    /// `win_offset` exactly once, at the instant.
    #[test]
    fn conn_update_instant_and_anchors_follow_the_spec() {
        let old = Duration::from_millis(50);
        let new = Duration::from_millis(75);
        let mut rng = Rng::seed_from_u64(7);
        let lls = (0..2)
            .map(|i| {
                let clock = Clock::with_ppm(0.0);
                LinkLayer::new(NodeId(i), clock, LlConfig::default(), rng.fork(i as u64))
            })
            .collect();
        let medium = Medium::new(MediumConfig {
            n_nodes: 2,
            loss: LossConfig::LOSSLESS,
            seed: rng.next_u64(),
            radio_links: None,
        });
        let mut w = LlWorld::new(medium, lls);
        let id = ConnId(1);
        w.connect(NodeId(0), NodeId(1), id, ConnParams::with_interval(old));
        w.await_up(id, Instant::from_secs(2));
        w.run_until(w.now() + Duration::from_secs(1));

        let coord = |w: &LlWorld| {
            let c = find_conn(&w.lls[0].conns, id).expect("conn alive");
            (c.event_counter, c.next_anchor)
        };
        let (requested_at, _) = coord(&w);
        w.lls[0].request_conn_update(id, new).expect("coordinator");
        let Some(ControlPdu::ConnUpdateInd {
            win_offset,
            interval,
            instant,
        }) = find_conn(&w.lls[0].conns, id).and_then(|c| c.pending_update)
        else {
            panic!("no update pending");
        };
        assert_eq!(interval, new);
        assert_eq!(instant, requested_at.wrapping_add(MIN_INSTANT_LEAD + 6));
        assert_eq!(win_offset.nanos() % 1_250_000, 0, "{win_offset}");
        assert!(win_offset < new, "{win_offset}");

        // The anchor of each event, keyed by its counter.
        let mut anchors = vec![coord(&w)];
        let mut last = anchors[0];
        while last.0 != instant.wrapping_add(4) {
            assert!(w.step(), "queue drained before the instant");
            let now = coord(&w);
            if now.0 != last.0 {
                assert_eq!(now.0, last.0.wrapping_add(1), "an event went unrecorded");
                anchors.push(now);
                last = now;
            }
        }
        let at = anchors
            .iter()
            .position(|&(e, _)| e == instant)
            .expect("instant reached");
        assert!(at >= 2, "too few old-interval events recorded");
        assert_eq!(anchors[at - 1].1, anchors[at - 2].1 + old);
        assert_eq!(anchors[at].1, anchors[at - 1].1 + old + win_offset);
        for pair in anchors[at..].windows(2) {
            assert_eq!(pair[1].1, pair[0].1 + new, "event {}", pair[1].0);
        }
    }
}
