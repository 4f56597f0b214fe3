//! The simulated BLE testbed.
//!
//! [`World`] owns everything one experiment needs: the shared radio
//! medium, one full node stack per board (link layer, L2CAP channel
//! per connection, NimBLE-sized mbuf pool, 6LoWPAN, IPv6 router, CoAP
//! endpoints, statconn), the event queue, and the measurement
//! [`Records`].
//!
//! The data path reproduces the paper's Fig. 2/Fig. 5 stack exactly:
//!
//! ```text
//! CoAP ─ UDP ─ IPv6 (static routes) ─ 6LoWPAN IPHC ─ L2CAP CoC
//!   (credit flow control, mbuf pool) ─ LL queue ─ connection events
//! ```
//!
//! Packets are dropped in precisely the places the paper identifies:
//! the mbuf pool when links are slower than the offered load (§5.2),
//! and the absence of a live connection while statconn reconnects
//! (§5.1).

use mindgap_adv::{AdvConfig, AdvLink, AdvObsEvent, AdvOut, AdvSendError, AdvTimer};
use mindgap_ble::{
    ConnId, ConnParams, Frame, LinkLayer, ListenTag, LlConfig, LlObsEvent, LossReason, Output,
    Role, Timer,
};
use mindgap_chaos::{labels, FaultKind, FaultSchedule, FOREVER_NS};
use mindgap_coap::{Client, Code, Message, MsgType, Server};
use mindgap_l2cap::frame::{self as l2frame, Signal, CID_LE_SIGNALING};
use mindgap_l2cap::{BufPool, CocChannel, CocConfig, NIMBLE_BUF_BYTES};
use mindgap_net::{
    Ipv6Addr, Ipv6Stack, LinkService, LinkSignal, NetConfig, SignalLog, StackEvent, TxAdmission,
};
use mindgap_obs::{AdvMetrics, MetricsSnapshot, Obs, PeerMetrics, Span};
use mindgap_peers::{PeerAction, PeerConfig, PeerCounters, PeerManager};
use mindgap_phy::{
    Channel, LossConfig, Medium, MediumConfig, Mobility, MobilityModel, PathLossConfig,
    RxOutcome, TxId, TxParams, BLE_JAMMED_CHANNEL, CHANNEL_TABLE_SIZE,
};
use mindgap_sim::{
    Clock, Duration, EventQueue, Instant, NodeId, Rng, ScheduledEvent, Trace,
};
use mindgap_sixlowpan::{iphc, LinkContext, LlAddr};

use crate::records::Records;
use crate::rpl::{RplAgent, RplConfig, RplMsg, RplSend, RPL_PORT};
use crate::statconn::{EdgeConfig, IntervalPolicy, ScAction, Statconn};
use crate::{BENCH_PATH, COAP_PAYLOAD};

/// The CoAP port used throughout.
const COAP_PORT: u16 = 5683;

/// Node index behind a conventional simulation address (the inverse
/// of [`Ipv6Addr::of_node`]; the index lives in the IID's last two
/// bytes).
fn node_of_addr(a: Ipv6Addr) -> u16 {
    u16::from_be_bytes([a.0[14], a.0[15]])
}

/// Application (workload) configuration — the paper's
/// producer/consumer scenario (§4.3).
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Nodes that periodically send CoAP requests.
    pub producers: Vec<NodeId>,
    /// The node answering them (tree root / line end).
    pub consumer: NodeId,
    /// Base producer interval (default 1 s).
    pub producer_interval: Duration,
    /// Uniform jitter around the base (default ±0.5 s).
    pub producer_jitter: Duration,
    /// Request payload bytes (default 39, §4.3).
    pub payload: usize,
    /// Response payload bytes (CoAP "acknowledgment" content).
    pub response_payload: usize,
    /// Client-side timeout after which a request counts as lost.
    pub coap_timeout: Duration,
    /// Producers stay silent until the network has formed.
    pub warmup: Duration,
}

impl AppConfig {
    /// The paper's default workload for the given producer set.
    pub fn paper_default(producers: Vec<NodeId>, consumer: NodeId) -> Self {
        AppConfig {
            producers,
            consumer,
            producer_interval: Duration::from_secs(1),
            producer_jitter: Duration::from_millis(500),
            payload: COAP_PAYLOAD,
            response_payload: 10,
            coap_timeout: Duration::from_secs(30),
            warmup: Duration::from_secs(30),
        }
    }
}

/// Per-node static configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// statconn edges (who we connect to, in which role).
    pub edges: Vec<EdgeConfig>,
    /// Static routes: destination address → next-hop address.
    pub routes: Vec<(Ipv6Addr, Ipv6Addr)>,
}

/// Which link transport carries 6LoWPAN frames between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransportMode {
    /// The paper's data path: L2CAP connection-oriented channels over
    /// LL connections (statconn-managed, credit flow control).
    #[default]
    Conn,
    /// Connection-less: extended-advertising PDUs + duty-cycled
    /// scanning (`mindgap-adv`; DESIGN.md §10).
    Adv(AdvConfig),
}

/// Configuration of the dynamic peer-management mode (`mindgap-peers`,
/// DESIGN.md §12). When set, the world starts **cold**: statconn gets
/// no edges and every node instead advertises, discovery-scans, and
/// runs a [`PeerManager`] that forms connections from beacon sightings
/// ranked by modelled RSSI. Node geometry lives here too: per-link PER
/// and sighting RSSI both derive from the same log-distance path-loss
/// model, and an optional mobility model moves nodes on a fixed tick.
#[derive(Debug, Clone)]
pub struct PeersWorldConfig {
    /// Per-node connection-pool policy (targets, RSSI thresholds,
    /// backoff, rotation).
    pub pool: PeerConfig,
    /// Geometric path-loss model both the sighting RSSI and the
    /// per-link PER derive from.
    pub path_loss: PathLossConfig,
    /// Seed of the deterministic shadowing term. Use the topology
    /// seed so link PER matches the generated radio graph.
    pub geo_seed: u64,
    /// Node positions in metres, indexed by node id.
    pub positions: Vec<(f64, f64)>,
    /// Arena bounds in metres; mobility reflects off these walls.
    pub arena: (f64, f64),
    /// Radio-range cutoff: pairs farther apart than this hear
    /// nothing at all (beyond it the PER ramp has hit 1.0 anyway).
    pub max_link_m: f64,
    /// Policy-evaluation cadence (stale expiry, attempt timeout,
    /// new attempts).
    pub tick: Duration,
    /// Node mobility (`None` = static field).
    pub mobility: Option<MobilityModel>,
    /// Mobility step cadence.
    pub mobility_tick: Duration,
    /// Nodes that never move (typically the consumer/root).
    pub pinned: Vec<u16>,
}

impl PeersWorldConfig {
    /// Defaults for a field of `positions` inside `arena`: default
    /// pool policy and path loss, 500 ms policy tick, static nodes,
    /// range cutoff at 1.5× the good-signal range (matching the
    /// testbed topology generator's link radius).
    pub fn new(positions: Vec<(f64, f64)>, arena: (f64, f64), geo_seed: u64) -> Self {
        let path_loss = PathLossConfig::default();
        PeersWorldConfig {
            pool: PeerConfig::default(),
            max_link_m: 1.5 * path_loss.good_range_m(),
            path_loss,
            geo_seed,
            positions,
            arena,
            tick: Duration::from_millis(500),
            mobility: None,
            mobility_tick: Duration::from_secs(1),
            pinned: Vec::new(),
        }
    }
}

/// World-level configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything random derives from it.
    pub seed: u64,
    /// Connection-interval policy (static vs randomized, §6.3).
    pub policy: IntervalPolicy,
    /// Link-layer configuration shared by all nodes.
    pub ll: LlConfig,
    /// Channel-error process.
    pub loss: LossConfig,
    /// Per-node clock drift drawn uniformly from ±this (ppm).
    pub clock_ppm_range: f64,
    /// Emulate the testbed's permanently jammed channel 22 (§4.2).
    pub jam_channel_22: bool,
    /// Channel map for all initiated connections. The paper excludes
    /// the jammed channel statically; set `ChannelMap::ALL` together
    /// with `ll.afh_enabled` for the adaptive-hopping ablation.
    pub conn_channel_map: mindgap_ble::channels::ChannelMap,
    /// Run the RPL-style routing agent instead of static routes (the
    /// paper's future-work direction; see `mindgap_core::rpl`). The
    /// consumer acts as DODAG root.
    pub dynamic_routing: bool,
    /// Periodic DAO refresh cadence for the routing agent, in routing
    /// ticks (`1` = every tick, the small-testbed default). Large
    /// meshes stretch this: every node's DAO funnels hop-by-hop to the
    /// root, so near-root relays forward O(subtree) DAOs per refresh
    /// and exhaust their buffer pools when the cadence is too hot.
    pub rpl_dao_period_ticks: u32,
    /// Time-bucket width for records.
    pub record_bucket: Duration,
    /// Observability timeline capacity in events (ring buffer; `0`
    /// disables timeline recording; metrics counters are unaffected).
    pub timeline_cap: usize,
    /// Override the supervision timeout statconn requests for every
    /// connection (`None` keeps the policy's default). Must exceed the
    /// largest drawable connection interval; the chaos recovery
    /// experiments sweep this knob.
    pub supervision_timeout: Option<Duration>,
    /// Link transport. [`TransportMode::Conn`] is the paper's stack;
    /// [`TransportMode::Adv`] swaps in the connection-less
    /// advertising transport behind the same [`LinkService`] boundary.
    pub transport: TransportMode,
    /// Radio adjacency: `Some(links)` puts only the listed unordered
    /// pairs in radio range (large generated meshes); `None` keeps the
    /// paper's shared-room default where everyone hears everyone.
    pub radio_links: Option<Vec<(u16, u16)>>,
    /// Dynamic peer management (`Some` = cold start + discovery +
    /// policy-formed connections; `None` = statconn's static edges,
    /// the paper's testbed).
    pub peers: Option<PeersWorldConfig>,
}

impl WorldConfig {
    /// The paper's testbed defaults with the given interval policy.
    pub fn paper_default(seed: u64, policy: IntervalPolicy) -> Self {
        WorldConfig {
            seed,
            policy,
            ll: LlConfig::default(),
            loss: LossConfig::ble_default(),
            clock_ppm_range: 3.0,
            jam_channel_22: true,
            conn_channel_map: mindgap_ble::channels::ChannelMap::all_except_jammed(),
            dynamic_routing: false,
            rpl_dao_period_ticks: 1,
            record_bucket: Duration::from_secs(60),
            timeline_cap: 1 << 16,
            supervision_timeout: None,
            transport: TransportMode::Conn,
            radio_links: None,
            peers: None,
        }
    }
}

/// Canonical queue key for an event homed on `node`: node index + 1
/// (key 0 is what the unkeyed schedule APIs use, so global events —
/// CoapSweep, faults, PeersTick, MobilityTick — sort ahead of every
/// node-homed event at the same instant). With this, same-instant
/// ties across *different* nodes fire in node order — a property of
/// the event content, not of insertion history — so artifacts do not
/// depend on the order in which handlers happened to schedule work
/// (DESIGN.md §13).
#[inline]
fn node_key(node: NodeId) -> u32 {
    node.0 as u32 + 1
}

/// Events in the world's queue.
enum Ev {
    LlTimer(NodeId, Timer),
    /// Carries the in-flight slab slot of the finished transmission.
    TxEnd(usize),
    /// Periodic producer request. Carries the node's boot epoch at
    /// scheduling time: a crash bumps the epoch, so chains scheduled
    /// by a previous incarnation die silently.
    AppSend(NodeId, u32),
    CoapSweep,
    /// Routing-agent tick, epoch-stamped like [`Ev::AppSend`].
    RplTick(NodeId, u32),
    /// Inject fault `i` of the installed [`FaultSchedule`].
    Fault(u32),
    /// Clear (or, for crashes, reboot after) fault `i`.
    FaultClear(u32),
    /// Move sweeping jammer `fault` to its `step`-th channel.
    SweepStep { fault: u32, step: u8 },
    /// Advertising-transport timer (adv mode only).
    AdvTimer(NodeId, AdvTimer),
    /// Peer-manager policy evaluation, all nodes in index order
    /// (peers mode only).
    PeersTick,
    /// Mobility step: move nodes, re-derive per-link PER from the
    /// new geometry (peers mode with mobility only).
    MobilityTick,
}

struct InFlight {
    tx: TxId,
    src: NodeId,
    frame: Frame,
    channel: Channel,
    start: Instant,
    /// Sender's boot epoch when the frame went on air; a mismatch at
    /// `TxEnd` means the sender crashed mid-flight and the rebuilt
    /// link layer must not see the completion.
    src_epoch: u32,
}

struct CocState {
    chan: CocChannel,
    peer: NodeId,
    pending_credits: u16,
}

/// The connection-oriented transport behind the [`LinkService`]
/// boundary: L2CAP credit-based channels over LL connections plus the
/// NimBLE-sized mbuf pool, exactly the paper's data path (§3). The
/// data path itself stays in `World`'s hot loop; this struct owns the
/// per-node transport state and answers the introspection/admission
/// queries the trait defines.
pub(crate) struct ConnLink {
    /// Live L2CAP channels, in connection-creation order. A node has
    /// a handful at most, so a linear scan beats hashing on the data
    /// path (and iteration order is deterministic, unlike a HashMap).
    cocs: Vec<(ConnId, CocState)>,
    pool: BufPool,
    /// Ordered link-up/down log (channel establishment / teardown).
    signals: SignalLog,
}

impl ConnLink {
    fn new() -> Self {
        ConnLink {
            cocs: Vec::new(),
            pool: BufPool::new(NIMBLE_BUF_BYTES),
            signals: SignalLog::new(LINK_SIGNAL_CAP),
        }
    }

    fn coc(&self, conn: ConnId) -> Option<&CocState> {
        self.cocs.iter().find(|(c, _)| *c == conn).map(|(_, s)| s)
    }

    fn coc_mut(&mut self, conn: ConnId) -> Option<&mut CocState> {
        self.cocs
            .iter_mut()
            .find(|(c, _)| *c == conn)
            .map(|(_, s)| s)
    }

    fn coc_remove(&mut self, conn: ConnId) -> Option<CocState> {
        let i = self.cocs.iter().position(|(c, _)| *c == conn)?;
        Some(self.cocs.remove(i).1)
    }
}

impl LinkService for ConnLink {
    fn mtu(&self) -> usize {
        // RFC 7668: IPv6 over BLE relies on L2CAP segmentation, so the
        // link presents the IPv6 minimum MTU to the stack.
        1280
    }

    fn admit(&self, next_hop: LlAddr) -> TxAdmission {
        if self
            .cocs
            .iter()
            .any(|(_, s)| LlAddr::from_node_index(s.peer.0) == next_hop)
        {
            TxAdmission::Ok
        } else {
            TxAdmission::NoLink
        }
    }

    fn neighbors(&self) -> Vec<LlAddr> {
        self.cocs
            .iter()
            .map(|(_, s)| LlAddr::from_node_index(s.peer.0))
            .collect()
    }

    fn signals(&self) -> &[LinkSignal] {
        self.link_signals()
    }
}

impl ConnLink {
    fn link_signals(&self) -> &[LinkSignal] {
        self.signals.as_slice()
    }
}

/// Signal-log bound shared by both transports: long enough for every
/// formation/teardown sequence the experiments produce, bounded so
/// chaos campaigns with endless reconnect churn cannot grow it.
const LINK_SIGNAL_CAP: usize = 4096;

struct BleNode {
    ll: LinkLayer,
    stack: Ipv6Stack,
    statconn: Statconn,
    /// Connection-oriented transport state (L2CAP channels + pool).
    link: ConnLink,
    /// Connection-less advertising transport (adv mode only; `None`
    /// in connection mode, so the paper's data path carries no cost).
    adv: Option<AdvLink>,
    client: Client,
    server: Server,
    rpl: Option<RplAgent>,
    /// Dynamic connection-manager policy (peers mode only; `None`
    /// keeps statconn's static edges on the paper's data path).
    peers: Option<PeerManager>,
    rng: Rng,
}

impl BleNode {
    fn coc(&self, conn: ConnId) -> Option<&CocState> {
        self.link.coc(conn)
    }

    fn coc_mut(&mut self, conn: ConnId) -> Option<&mut CocState> {
        self.link.coc_mut(conn)
    }

    fn coc_remove(&mut self, conn: ConnId) -> Option<CocState> {
        self.link.coc_remove(conn)
    }

    /// The active transport behind the link-service boundary.
    fn link_service_ref(&self) -> &dyn LinkService {
        match &self.adv {
            Some(adv) => adv,
            None => &self.link,
        }
    }
}

/// The BLE testbed world.
pub struct World {
    queue: EventQueue<Ev>,
    medium: Medium,
    nodes: Vec<BleNode>,
    listening: Vec<Option<(ListenTag, Channel, Instant, Instant)>>,
    /// Node indices currently registered as listening, per channel
    /// (sorted ascending — the medium's RNG draw order is per-listener
    /// in order, so this ordering is part of the determinism contract).
    listeners_by_channel: Vec<Vec<u16>>,
    /// Slab of in-flight transmissions; `Ev::TxEnd` carries the slot.
    inflight: Vec<Option<InFlight>>,
    /// Recycled `inflight` slots.
    free_tx: Vec<usize>,
    /// Free list of `Output` scratch buffers for the LL hot path
    /// (re-entrant `apply_ll` calls each take their own).
    out_scratch: Vec<Vec<Output>>,
    /// Reusable buffers for `tx_end` (listener candidates, verdicts).
    cand_scratch: Vec<NodeId>,
    outcome_scratch: Vec<(NodeId, RxOutcome)>,
    /// Per-node connection-slot counters: connection ids encode
    /// `(initiator, slot)` (see [`World::alloc_conn`]), so the id a
    /// connection gets depends only on how many connections *its
    /// initiator* opened before it — not on the global interleaving
    /// of connection attempts across nodes, so ids (and every artifact
    /// that names them) survive changes to unrelated nodes' timing.
    next_conn: Vec<u32>,
    /// Both endpoints (and the §6.3 doomed flag) of every connection
    /// ever initiated, indexed `[initiator][slot]`.
    conn_ends: Vec<Vec<Option<ConnSlot>>>,
    /// LL maximum payload (mirrors the LlConfig).
    max_pdu: usize,
    records: Records,
    /// Control-plane event counter (`trace_dropped` in results).
    pub trace: Trace,
    /// Observability: layered metrics registry + event timeline
    /// (see `mindgap-obs` and DESIGN.md §8).
    pub obs: Obs,
    app: AppConfig,
    /// Echo replies observed (for examples/tests): (node, from, seq).
    pub echo_replies: Vec<(NodeId, Ipv6Addr, u16)>,
    started: bool,
    events: u64,
    /// Retained construction inputs, so a crashed node can be rebuilt
    /// from scratch (a reboot is "run the constructor again with
    /// nothing remembered").
    cfg: WorldConfig,
    node_cfgs: Vec<NodeConfig>,
    /// Current clock rate per node: the construction-time draw plus
    /// any injected drift steps. Survives reboots — crystal error is
    /// a hardware property, not state.
    clock_ppms: Vec<f64>,
    /// Per-node boot counter, bumped on every crash.
    boot_epoch: Vec<u32>,
    /// Nodes currently powered off.
    down: Vec<bool>,
    /// Independent RNG stream for post-crash rebuilds. Forking the
    /// master RNG here would perturb its draw sequence and change
    /// fault-free runs, so reboots get their own seed derivation.
    reboot_rng: Rng,
    /// Installed fault script plus per-fault scratch (`None` ⇒ no
    /// chaos: the hot path carries no cost beyond this check).
    chaos: Option<Box<ChaosState>>,
    /// Pending LL timer tokens per node, tagged with the owning
    /// connection (`None` = advertising/scanning timers). Lets conn
    /// teardown and node crashes cancel dead timers at the queue
    /// instead of leaking them into the far future. Adv-transport
    /// timers are tracked here too (always `None`-tagged).
    ll_timers: Vec<Vec<(Option<ConnId>, ScheduledEvent)>>,
    /// Advertising-transport metric ids; registered only in adv mode
    /// so connection-mode metric exports are byte-identical.
    adv_m: Option<AdvMetrics>,
    /// Peer-manager metric ids; registered only in peers mode, same
    /// byte-identity argument as `adv_m`.
    peer_m: Option<PeerMetrics>,
    /// World-side peers-mode state (geometry, mobility, adjacency).
    /// `None` on the paper's static data path: the hot loop carries
    /// no cost beyond this check.
    peers_world: Option<Box<PeersState>>,
}

/// One allocated connection: its endpoints plus the §6.3
/// collision-close flag (a statconn killed the connection before both
/// ends finished setting up).
#[derive(Debug, Clone, Copy)]
struct ConnSlot {
    ends: (NodeId, NodeId),
    doomed: bool,
}

/// World-side state of the dynamic peer-management mode: the node
/// field (positions + mobility) and the current radio adjacency so
/// mobility steps only flip links that actually crossed the range
/// cutoff.
struct PeersState {
    geo: PathLossConfig,
    geo_seed: u64,
    max_link_m: f64,
    tick: Duration,
    mobility_tick: Duration,
    /// Positions + stepping. Built even for static fields (the model
    /// just never steps), so distance queries have one home.
    field: Mobility,
    /// Whether a mobility model was configured (drives MobilityTick).
    mobile: bool,
    /// Upper-triangular adjacency from the last geometry refresh:
    /// `in_range[pair(i, j)]` for `i < j`.
    in_range: Vec<bool>,
}

impl PeersState {
    /// Dense upper-triangular pair index for `a < b` over `n` nodes.
    fn pair(n: usize, a: usize, b: usize) -> usize {
        debug_assert!(a < b && b < n);
        a * n - a * (a + 1) / 2 + (b - a - 1)
    }
}

/// Injector state: the installed schedule plus one scratch slot per
/// fault (previous channel interference for jammers, seized mbuf
/// bytes for pool-pressure faults).
struct ChaosState {
    faults: Vec<mindgap_chaos::Fault>,
    scratch: Vec<f64>,
}

/// The independent RNG streams a node's stack draws from. The `adv`
/// stream exists only in advertising mode — connection-mode runs draw
/// exactly the sequence they always did.
struct NodeRngs {
    ll: Rng,
    sc: Rng,
    node: Rng,
    adv: Option<Rng>,
    /// Peer-manager stream (backoff jitter, interval draws). Exists
    /// only in peers mode — same draw-neutrality contract as `adv`.
    peers: Option<Rng>,
}

/// Build one node's full stack from its static config. Used at world
/// construction and again on post-crash reboots, which is exactly the
/// fault model: full LL + stack state loss.
fn make_node(
    cfg: &WorldConfig,
    consumer: NodeId,
    nc: &NodeConfig,
    id: NodeId,
    ppm: f64,
    rngs: NodeRngs,
) -> BleNode {
    let mut stack = Ipv6Stack::new(NetConfig::for_node(id.0));
    stack.bind_udp(COAP_PORT);
    let rpl = if cfg.dynamic_routing {
        stack.bind_udp(RPL_PORT);
        Some(RplAgent::new(Ipv6Addr::of_node(id.0), {
            let mut rc = RplConfig::new(id == consumer);
            rc.dao_period_ticks = cfg.rpl_dao_period_ticks;
            rc
        }))
    } else {
        None
    };
    for (dst, via) in &nc.routes {
        stack.routing_mut().add_host(*dst, *via);
    }
    let mut statconn =
        Statconn::with_channel_map(id, &nc.edges, cfg.policy, cfg.conn_channel_map, rngs.sc);
    if let Some(t) = cfg.supervision_timeout {
        statconn.set_supervision_timeout(t);
    }
    let adv = match (&cfg.transport, rngs.adv) {
        (TransportMode::Adv(ac), Some(r)) => {
            Some(AdvLink::new(id, *ac, Clock::with_ppm(ppm), r))
        }
        _ => None,
    };
    let peers = match (&cfg.peers, rngs.peers) {
        (Some(pc), Some(r)) => Some(PeerManager::new(id, pc.pool, r)),
        _ => None,
    };
    let mut ll_cfg = cfg.ll;
    if peers.is_some() {
        // Dynamic peer management needs every node to stay
        // discoverable: resume advertising after accepting a
        // connection instead of going dark (legacy-BLE default).
        ll_cfg.resume_adv_on_connect = true;
    }
    BleNode {
        ll: LinkLayer::new(id, Clock::with_ppm(ppm), ll_cfg, rngs.ll),
        stack,
        statconn,
        link: ConnLink::new(),
        adv,
        client: Client::new(id.0),
        server: Server::new(0x8000 | id.0),
        rpl,
        peers,
        rng: rngs.node,
    }
}

impl World {
    /// Build a world. `nodes[i]` configures node `i`.
    pub fn new(cfg: WorldConfig, node_cfgs: Vec<NodeConfig>, app: AppConfig) -> Self {
        let n = node_cfgs.len();
        assert!(n >= 2, "a testbed needs at least two nodes");
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let mut medium = Medium::new(MediumConfig {
            n_nodes: n,
            loss: cfg.loss,
            seed: rng.fork(0xF00D).next_u64(),
            radio_links: cfg.radio_links.clone(),
        });
        if cfg.jam_channel_22 {
            medium.set_channel_interference(Channel::ble_data(BLE_JAMMED_CHANNEL), 0.97);
        }
        // The RNG draw order below (drift draw, then the three forks,
        // per node in index order) is part of the determinism
        // contract — fault-free runs stay byte-identical to builds
        // without the chaos subsystem.
        let mut clock_ppms = Vec::with_capacity(n);
        let nodes = node_cfgs
            .iter()
            .enumerate()
            .map(|(i, nc)| {
                let id = NodeId(i as u16);
                let ppm = rng.range_f64(-cfg.clock_ppm_range, cfg.clock_ppm_range);
                clock_ppms.push(ppm);
                let rngs = NodeRngs {
                    ll: rng.fork(1000 + i as u64),
                    sc: rng.fork(2000 + i as u64),
                    node: rng.fork(3000 + i as u64),
                    // The extra forks happen only in adv/peers mode,
                    // so connection-mode runs keep their exact draw
                    // order.
                    adv: matches!(cfg.transport, TransportMode::Adv(_))
                        .then(|| rng.fork(4000 + i as u64)),
                    peers: cfg.peers.is_some().then(|| rng.fork(5000 + i as u64)),
                };
                make_node(&cfg, app.consumer, nc, id, ppm, rngs)
            })
            .collect();
        let mut obs = Obs::new(n, cfg.timeline_cap);
        let adv_m = matches!(cfg.transport, TransportMode::Adv(_))
            .then(|| AdvMetrics::register(&mut obs.reg));
        let peer_m = cfg.peers.is_some().then(|| PeerMetrics::register(&mut obs.reg));
        // Peers mode: the world owns geometry. One dedicated fork
        // feeds mobility (drawn after the node loop, gated on the
        // mode, so non-peers runs never see it).
        let peers_world = cfg.peers.as_ref().map(|pc| {
            assert_eq!(
                pc.positions.len(),
                n,
                "peers mode needs one position per node"
            );
            assert!(
                cfg.radio_links.is_none(),
                "peers mode derives radio range from geometry; leave radio_links None"
            );
            let model = pc.mobility.unwrap_or_else(MobilityModel::walk_default);
            let mut field = Mobility::new(
                model,
                pc.arena,
                pc.positions.clone(),
                rng.fork(0x3050),
            );
            for &p in &pc.pinned {
                field.pin(p as usize);
            }
            Box::new(PeersState {
                geo: pc.path_loss,
                geo_seed: pc.geo_seed,
                max_link_m: pc.max_link_m,
                tick: pc.tick,
                mobility_tick: pc.mobility_tick,
                field,
                mobile: pc.mobility.is_some(),
                in_range: vec![true; n * (n - 1) / 2],
            })
        });
        let mut w = World {
            queue: EventQueue::new(),
            medium,
            nodes,
            listening: vec![None; n],
            listeners_by_channel: vec![Vec::new(); CHANNEL_TABLE_SIZE],
            inflight: Vec::new(),
            free_tx: Vec::new(),
            out_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            outcome_scratch: Vec::new(),
            next_conn: vec![0; n],
            conn_ends: vec![Vec::new(); n],
            max_pdu: cfg.ll.max_pdu,
            records: Records::new(cfg.record_bucket),
            trace: Trace::default(),
            obs,
            app,
            echo_replies: Vec::new(),
            started: false,
            events: 0,
            clock_ppms,
            boot_epoch: vec![0; n],
            down: vec![false; n],
            reboot_rng: Rng::seed_from_u64(cfg.seed ^ 0xC4A0_5BAD_F00D_0001),
            chaos: None,
            ll_timers: vec![Vec::new(); n],
            adv_m,
            peer_m,
            peers_world,
            cfg,
            node_cfgs,
        };
        // Apply the initial geometry: per-link PER for in-range pairs,
        // out-of-range for the rest. Medium mutators are draw-neutral,
        // so this perturbs nothing on non-peers paths (where it is
        // skipped entirely).
        w.refresh_geometry();
        w
    }

    /// Re-derive every pair's radio state from current positions:
    /// distance → path loss → PER, with pairs beyond the range cutoff
    /// taken out of range entirely. Only links whose range state
    /// changed are flipped; in-range PERs are rewritten every call
    /// (distance moves continuously under mobility). No-op without
    /// peers mode.
    fn refresh_geometry(&mut self) {
        let World {
            peers_world, medium, ..
        } = &mut *self;
        let Some(ps) = peers_world.as_mut() else {
            return;
        };
        let n = ps.field.len();
        for a in 0..n {
            for b in (a + 1)..n {
                let d = ps.field.distance(a, b).max(0.01);
                let idx = PeersState::pair(n, a, b);
                let (na, nb) = (NodeId(a as u16), NodeId(b as u16));
                let was = ps.in_range[idx];
                let now_in = d <= ps.max_link_m;
                ps.in_range[idx] = now_in;
                if now_in {
                    if !was {
                        medium.set_in_range(na, nb, true);
                    }
                    let per = ps.geo.link_per(ps.geo_seed, a as u16, b as u16, d);
                    medium.set_link_loss(na, nb, per, true);
                } else if was {
                    medium.set_out_of_range(na, nb, true);
                }
            }
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Instant {
        self.queue.now()
    }

    /// Kernel events processed (popped and dispatched) since
    /// construction — the `kernelbench` throughput denominator.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Measurement records.
    pub fn records(&self) -> &Records {
        &self.records
    }

    /// Consume the world, returning its records.
    pub fn into_records(self) -> Records {
        self.records
    }

    /// Reset measurement records (e.g. after warmup) without touching
    /// network state.
    pub fn reset_records(&mut self) {
        let bucket = self.records.bucket;
        self.records = Records::new(bucket);
    }

    /// Link-layer counters of one node.
    pub fn ll_counters(&self, node: NodeId) -> mindgap_ble::LlCounters {
        self.nodes[node.index()].ll.counters()
    }

    /// Advertising-transport counters of one node (`None` in
    /// connection mode).
    pub fn adv_counters(&self, node: NodeId) -> Option<mindgap_adv::AdvCounters> {
        self.nodes[node.index()].adv.as_ref().map(|a| a.counters())
    }

    /// Fold component-held counters (LL counters, `NetStats`, CoC
    /// credit stalls, routing rank) into the registry's sampled
    /// metrics and return a point-in-time snapshot of everything.
    pub fn obs_snapshot(&mut self) -> MetricsSnapshot {
        let m = self.obs.m;
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u16);
            let n = &self.nodes[i];
            let c = n.ll.counters();
            let reg = &mut self.obs.reg;
            reg.set_counter(m.phy_tx_airtime_ns, id, c.tx_ns);
            reg.set_counter(m.phy_listen_ns, id, c.listen_ns);
            reg.set_counter(m.ll_conn_events_coord, id, c.coord_events);
            reg.set_counter(m.ll_conn_events_sub, id, c.sub_events);
            reg.set_counter(m.ll_events_skipped, id, c.skipped_events);
            reg.set_counter(m.ll_events_missed, id, c.sub_missed);
            let s = n.stack.stats();
            reg.set_counter(m.ipv6_originated, id, s.originated);
            reg.set_counter(m.ipv6_forwarded, id, s.forwarded);
            reg.set_counter(m.ipv6_delivered, id, s.delivered);
            reg.set_counter(m.ipv6_dropped, id, s.dropped);
            reg.set_counter(m.ipv6_no_route, id, s.no_route);
            let stalls: u64 = n.link.cocs.iter().map(|(_, s)| s.chan.credit_stalls()).sum();
            reg.set_counter(m.l2cap_credit_stalls, id, stalls);
            let rank = n.rpl.as_ref().map(|a| a.rank() as i64).unwrap_or(-1);
            reg.gauge_set(m.rpl_rank, id, rank);
            if let (Some(adv), Some(am)) = (&n.adv, self.adv_m) {
                let a = adv.counters();
                // In adv mode the connection LL is idle, so the PHY
                // radio-time samples come from the adv transport.
                reg.set_counter(m.phy_tx_airtime_ns, id, c.tx_ns + a.tx_ns);
                reg.set_counter(
                    m.phy_listen_ns,
                    id,
                    c.listen_ns + adv.listen_ns_through(self.queue.now()),
                );
                reg.set_counter(am.adv_events, id, a.adv_events);
                reg.set_counter(am.adv_trains, id, a.adv_trains);
                reg.set_counter(am.adv_beacon_trains, id, a.beacon_trains);
                reg.set_counter(am.adv_pdus_tx, id, a.pdus_tx);
                reg.set_counter(am.adv_pdus_rx, id, a.pdus_rx);
                reg.set_counter(am.adv_beacons_rx, id, a.beacons_rx);
                reg.set_counter(am.adv_dups_suppressed, id, a.dups_suppressed);
                reg.set_counter(am.adv_delivered, id, a.delivered);
                reg.set_counter(am.adv_rebroadcasts, id, a.rebroadcasts);
                reg.set_counter(am.adv_queue_drops, id, a.queue_drops);
                reg.set_counter(am.adv_neighbor_ups, id, a.neighbor_ups);
                reg.set_counter(am.adv_neighbor_downs, id, a.neighbor_downs);
                reg.set_counter(am.adv_scan_windows, id, a.scan_windows);
                reg.gauge_set(am.adv_neighbors, id, adv.neighbor_count() as i64);
                reg.gauge_set(am.adv_queue_depth, id, adv.queue_len() as i64);
            }
            if let (Some(pm), Some(qm)) = (&n.peers, self.peer_m) {
                let p = pm.counters();
                reg.set_counter(qm.peer_sightings, id, p.sightings);
                reg.set_counter(qm.peer_discoveries, id, p.discoveries);
                reg.set_counter(qm.peer_attempts, id, p.attempts);
                reg.set_counter(qm.peer_successes, id, p.successes);
                reg.set_counter(qm.peer_failures, id, p.failures);
                reg.set_counter(qm.peer_timeouts, id, p.timeouts);
                reg.set_counter(qm.peer_rotations, id, p.rotations);
                reg.set_counter(qm.peer_refusals, id, p.refusals);
                reg.set_counter(qm.peer_losses, id, p.losses);
                reg.gauge_set(qm.peer_pool_size, id, pm.connected_count() as i64);
                reg.gauge_set(qm.peer_known, id, pm.known_count() as i64);
            }
        }
        self.obs.snapshot()
    }

    /// Interval of a live connection at any node (debug).
    pub fn nodes_interval(&self, conn: ConnId) -> u64 {
        self.nodes
            .iter()
            .find_map(|n| n.ll.conn_interval(conn))
            .map(|d| d.millis())
            .unwrap_or(0)
    }

    /// Allocate a connection id for an attempt initiated by `node`
    /// towards `peer`, and register its endpoints.
    ///
    /// Ids encode `(initiator + 1, per-initiator slot)` in the
    /// high/low halves of the `u64`, so the id depends only on the
    /// initiator's own connection history — two nodes opening
    /// connections "at the same time" get the same ids no matter
    /// which one the event loop happens to run first. (The `+ 1` keeps
    /// world-assigned ids disjoint from the hand-rolled small ids
    /// unit tests construct.)
    fn alloc_conn(&mut self, node: NodeId, peer: NodeId) -> ConnId {
        let slot = self.next_conn[node.index()];
        self.next_conn[node.index()] += 1;
        let row = &mut self.conn_ends[node.index()];
        debug_assert_eq!(row.len(), slot as usize);
        row.push(Some(ConnSlot {
            ends: (node, peer),
            doomed: false,
        }));
        ConnId(((node.0 as u64 + 1) << 32) | slot as u64)
    }

    /// The `[initiator][slot]` coordinates a world-assigned conn id
    /// decodes to; `None` for foreign (test-constructed) ids.
    fn conn_coords(&self, conn: ConnId) -> Option<(usize, usize)> {
        let initiator = (conn.0 >> 32).checked_sub(1)? as usize;
        let slot = (conn.0 & 0xFFFF_FFFF) as usize;
        (initiator < self.conn_ends.len()).then_some((initiator, slot))
    }

    /// Endpoints of a connection.
    fn conn_end_of(&self, conn: ConnId) -> Option<(NodeId, NodeId)> {
        let (i, s) = self.conn_coords(conn)?;
        self.conn_ends[i].get(s).copied().flatten().map(|c| c.ends)
    }

    fn is_doomed(&self, conn: ConnId) -> bool {
        self.conn_coords(conn)
            .and_then(|(i, s)| self.conn_ends[i].get(s).copied().flatten())
            .is_some_and(|c| c.doomed)
    }

    fn set_doomed(&mut self, conn: ConnId) {
        if let Some((i, s)) = self.conn_coords(conn) {
            if let Some(Some(c)) = self.conn_ends[i].get_mut(s) {
                c.doomed = true;
            }
        }
    }

    /// Debug probe: (tx credits, CoC queued bytes, pool used, LL queue
    /// space) of one connection.
    pub fn coc_debug(&self, node: NodeId, conn: ConnId) -> Option<(u32, usize, usize, usize)> {
        let n = &self.nodes[node.index()];
        let c = n.coc(conn)?;
        Some((
            c.chan.tx_credits(),
            c.chan.queued_bytes(),
            n.link.pool.used(),
            n.ll.queue_space(conn),
        ))
    }

    /// Per-connection stats of one node: (conn, peer, role, stats).
    pub fn conn_stats_of(
        &self,
        node: NodeId,
    ) -> Vec<(ConnId, NodeId, Role, mindgap_ble::ConnStats)> {
        let n = &self.nodes[node.index()];
        n.ll
            .connections()
            .into_iter()
            .filter_map(|(c, p, r)| n.ll.conn_stats(c).map(|s| (c, p, r, s)))
            .collect()
    }

    /// statconn reconnect count of one node.
    pub fn reconnects(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].statconn.reconnects
    }

    /// statconn collision-close count of one node (§6.3 rejections).
    pub fn collision_closes(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].statconn.collision_closes
    }

    /// mbuf-pool drop count of one node.
    pub fn pool_drops(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].link.pool.drops()
    }

    /// `true` once every configured edge of every node is connected.
    pub fn fully_connected(&self) -> bool {
        self.nodes.iter().all(|n| n.statconn.fully_connected())
    }

    /// Peer-manager counters of one node (`None` outside peers mode).
    pub fn peer_counters(&self, node: NodeId) -> Option<PeerCounters> {
        self.nodes[node.index()].peers.as_ref().map(|p| p.counters())
    }

    /// Established pool size of one node's peer manager (`None`
    /// outside peers mode).
    pub fn peer_pool_size(&self, node: NodeId) -> Option<usize> {
        self.nodes[node.index()]
            .peers
            .as_ref()
            .map(|p| p.connected_count())
    }

    /// Peers currently connected to `node` under dynamic management
    /// (`None` outside peers mode).
    pub fn peer_neighbors(&self, node: NodeId) -> Option<Vec<NodeId>> {
        let n = &self.nodes[node.index()];
        n.peers
            .as_ref()
            .map(|_| n.link.cocs.iter().map(|(_, s)| s.peer).collect())
    }

    /// Current node positions in metres (`None` outside peers mode).
    pub fn positions(&self) -> Option<&[(f64, f64)]> {
        self.peers_world.as_ref().map(|p| p.field.positions())
    }

    /// Broadcast a raw link-layer SDU from `node` over the
    /// advertising transport (adv mode only; flooded up to the
    /// configured `rebroadcast_hops`). Returns `false` when the node
    /// has no advertising transport or its queue refused the payload.
    /// Receivers count it in `adv_counters().delivered`; the payload
    /// is not parsed as 6LoWPAN unless it is one.
    pub fn adv_broadcast(&mut self, node: NodeId, payload: Vec<u8>) -> bool {
        let Some(adv) = self.nodes[node.index()].adv.as_mut() else {
            return false;
        };
        adv.send(Frame::ADV_BROADCAST, payload).is_ok()
    }

    /// Kick off statconn, producers and housekeeping. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if self.nodes[i].peers.is_some() {
                // Cold start: every node advertises (to be found) and
                // discovery-scans (to find); the policy tick below
                // turns sightings into connections.
                self.start_peer_node(NodeId(i as u16));
            } else if self.nodes[i].adv.is_some() {
                // Connection-less transport: no statconn, no L2CAP —
                // each node just starts advertising and scanning.
                self.start_adv(NodeId(i as u16));
            } else {
                let actions = self.nodes[i].statconn.start();
                self.apply_sc_actions(NodeId(i as u16), actions);
            }
        }
        if let Some(ps) = self.peers_world.as_ref() {
            let (tick, mobile, mtick) = (ps.tick, ps.mobile, ps.mobility_tick);
            self.queue.schedule_in(tick, Ev::PeersTick);
            if mobile {
                self.queue.schedule_in(mtick, Ev::MobilityTick);
            }
        }
        for p in self.app.producers.clone() {
            let jittered = self.nodes[p.index()].rng.jittered_nanos(
                self.app.producer_interval.nanos(),
                self.app.producer_jitter.nanos(),
            );
            let at = self.queue.now() + self.app.warmup + Duration::from_nanos(jittered);
            let epoch = self.boot_epoch[p.index()];
            self.queue
                .schedule_at_keyed(at, node_key(p), Ev::AppSend(p, epoch));
        }
        self.queue
            .schedule_in(Duration::from_secs(5), Ev::CoapSweep);
        // Routing agents tick with per-node jitter so beacons spread.
        for i in 0..self.nodes.len() as u16 {
            if self.nodes[i as usize].rpl.is_some() {
                let jitter = self.nodes[i as usize].rng.below(2_000_000_000);
                let epoch = self.boot_epoch[i as usize];
                self.queue.schedule_in_keyed(
                    Duration::from_secs(1) + Duration::from_nanos(jitter),
                    node_key(NodeId(i)),
                    Ev::RplTick(NodeId(i), epoch),
                );
            }
        }
    }

    /// Run the simulation until `t`.
    pub fn run_until(&mut self, t: Instant) {
        self.start();
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
    }

    /// Re-randomize every coordinator connection's interval through
    /// the LL connection-update procedure, drawing per-node-unique
    /// values from `[lo, hi]` in 1.25 ms quanta — the §6.3
    /// design-space alternative to closing and reopening connections.
    /// Returns how many updates were initiated.
    pub fn rerandomize_intervals(&mut self, lo: Duration, hi: Duration) -> usize {
        use crate::statconn::INTERVAL_QUANTUM;
        assert!(lo <= hi);
        let span = (hi - lo) / INTERVAL_QUANTUM;
        let mut updated = 0;
        for i in 0..self.nodes.len() {
            let conns: Vec<(ConnId, Role)> = self.nodes[i]
                .ll
                .connections()
                .into_iter()
                .map(|(c, _, r)| (c, r))
                .collect();
            for (conn, role) in &conns {
                if *role != Role::Coordinator {
                    continue;
                }
                let n = &mut self.nodes[i];
                let used: Vec<Duration> = conns
                    .iter()
                    .filter_map(|(c, _)| n.ll.conn_interval(*c))
                    .collect();
                let interval = loop {
                    let k = n.rng.range_inclusive(0, span);
                    let candidate = lo + INTERVAL_QUANTUM * k;
                    if !used.contains(&candidate) || span == 0 {
                        break candidate;
                    }
                };
                if n.ll.request_conn_update(*conn, interval).is_ok() {
                    n.statconn.note_interval(*conn, interval);
                    updated += 1;
                }
            }
        }
        updated
    }

    /// Channel map currently used by a node's connection (diagnostics
    /// for the AFH ablation).
    pub fn conn_channel_map(
        &self,
        node: NodeId,
        conn: ConnId,
    ) -> Option<mindgap_ble::channels::ChannelMap> {
        self.nodes[node.index()].ll.conn_channel_map(conn)
    }

    /// Physically sever the radio link between two nodes (they move
    /// out of range): the connection dies by supervision timeout and —
    /// unlike a transient loss — statconn's reconnects keep failing.
    pub fn break_link(&mut self, a: NodeId, b: NodeId) {
        self.medium.set_out_of_range(a, b, true);
    }

    /// Bring two nodes back into radio range (inverse of
    /// [`World::break_link`]); statconn's standing advertising and
    /// scanning re-establish the configured edge on their own.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        self.medium.set_in_range(a, b, true);
    }

    /// Install a static extra packet-error rate on the link `a`↔`b`
    /// (symmetric, both directions). Testbed specs use this to model
    /// distance-derived loss (see `mindgap_phy::PathLossConfig`).
    pub fn set_link_per(&mut self, a: NodeId, b: NodeId, per: f64) {
        self.medium.set_link_loss(a, b, per, true);
    }

    /// Bytes currently held in a node's NimBLE mbuf pool (diagnostics).
    pub fn pool_used(&self, node: NodeId) -> usize {
        self.nodes[node.index()].link.pool.used()
    }

    /// The node's transport viewed through the link-service boundary
    /// (MTU, tx admission, neighbor set, link-up/down signal log).
    pub fn link_service(&self, node: NodeId) -> &dyn LinkService {
        self.nodes[node.index()].link_service_ref()
    }

    /// Ordered link-up/down signals observed by one node's transport.
    pub fn link_signals(&self, node: NodeId) -> &[LinkSignal] {
        self.link_service(node).signals()
    }

    /// Next hop a node's routing table picks for `dst` (diagnostics).
    pub fn route_of(&self, node: NodeId, dst: Ipv6Addr) -> Option<Ipv6Addr> {
        self.nodes[node.index()].stack.routing().lookup(&dst)
    }

    /// Routing-agent state of a node: (rank, parent), when dynamic
    /// routing is on.
    pub fn rpl_state(&self, node: NodeId) -> Option<(u16, Option<Ipv6Addr>)> {
        self.nodes[node.index()]
            .rpl
            .as_ref()
            .map(|a| (a.rank(), a.parent()))
    }

    /// Send an ICMPv6 echo request from `src` to `dst` (examples).
    pub fn ping(&mut self, src: NodeId, dst: Ipv6Addr, seq: u16) -> bool {
        let node = &mut self.nodes[src.index()];
        match node.stack.send_echo_request(dst, 0xEC40, seq, b"mindgap") {
            Ok((packet, ll)) => {
                self.send_ip(src, packet, ll);
                true
            }
            Err(_) => false,
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn step(&mut self) {
        let Some((now, ev)) = self.queue.pop() else {
            return;
        };
        self.events += 1;
        match ev {
            Ev::LlTimer(node, timer) => {
                let mut outs = self.take_out();
                self.nodes[node.index()].ll.on_timer(now, timer, &mut outs);
                self.apply_ll(node, &mut outs);
                self.put_out(outs);
            }
            Ev::TxEnd(slot) => self.tx_end(now, slot),
            Ev::AppSend(node, epoch) => {
                if epoch == self.boot_epoch[node.index()] {
                    self.producer_send(now, node);
                }
            }
            Ev::CoapSweep => {
                let timeout = self.app.coap_timeout.nanos();
                for i in 0..self.nodes.len() {
                    let expired =
                        self.nodes[i].client.expire(now.nanos(), timeout).len() as u64;
                    if expired > 0 {
                        self.obs
                            .reg
                            .add(self.obs.m.coap_timeouts, NodeId(i as u16), expired);
                    }
                }
                self.queue.schedule_in(Duration::from_secs(5), Ev::CoapSweep);
            }
            Ev::RplTick(node, epoch) => {
                if epoch == self.boot_epoch[node.index()] {
                    self.rpl_tick(now, node);
                }
            }
            Ev::Fault(i) => self.inject_fault(now, i),
            Ev::FaultClear(i) => self.clear_fault(now, i),
            Ev::SweepStep { fault, step } => self.sweep_step(now, fault, step),
            Ev::AdvTimer(node, timer) => {
                let mut outs = Vec::new();
                if let Some(adv) = self.nodes[node.index()].adv.as_mut() {
                    adv.on_timer(now, timer, &mut outs);
                }
                self.apply_adv(node, outs);
            }
            Ev::PeersTick => self.peers_tick(now),
            Ev::MobilityTick => self.mobility_tick(),
        }
    }

    /// (Re)start a peers-mode node: advertise so others can find it,
    /// discovery-scan so it finds others.
    fn start_peer_node(&mut self, node: NodeId) {
        let now = self.queue.now();
        let mut outs = self.take_out();
        self.nodes[node.index()].ll.start_advertising(now, &mut outs);
        self.nodes[node.index()].ll.start_discovery(now, &mut outs);
        self.apply_ll(node, &mut outs);
        self.put_out(outs);
    }

    /// One policy round: every live node's manager expires stale
    /// discoveries, times out its in-flight attempt, and starts a new
    /// attempt when below target — in node-index order, so the draw
    /// sequence is independent of sighting arrival order.
    fn peers_tick(&mut self, now: Instant) {
        let Some(ps) = self.peers_world.as_ref() else {
            return;
        };
        let tick = ps.tick;
        for i in 0..self.nodes.len() {
            if self.down[i] {
                continue;
            }
            let Some(pm) = self.nodes[i].peers.as_mut() else {
                continue;
            };
            let actions = pm.tick(now);
            if !actions.is_empty() {
                self.apply_peer_actions(NodeId(i as u16), actions);
            }
        }
        self.queue.schedule_in(tick, Ev::PeersTick);
    }

    /// One mobility step: advance positions, re-derive every link's
    /// PER/range from the new geometry. Established connections to
    /// peers that walked out of range die the BLE way — supervision
    /// timeout — and the policy heals around them.
    fn mobility_tick(&mut self) {
        let Some(ps) = self.peers_world.as_mut() else {
            return;
        };
        let dt = ps.mobility_tick;
        ps.field.step(dt.nanos() as f64 / 1e9);
        self.refresh_geometry();
        self.queue.schedule_in(dt, Ev::MobilityTick);
    }

    /// (Re)start a node's advertising transport.
    fn start_adv(&mut self, node: NodeId) {
        let now = self.queue.now();
        let mut outs = Vec::new();
        if let Some(adv) = self.nodes[node.index()].adv.as_mut() {
            adv.start(now, &mut outs);
        }
        self.apply_adv(node, outs);
    }

    fn rpl_tick(&mut self, now: Instant, node: NodeId) {
        let sends = {
            let n = &mut self.nodes[node.index()];
            let Some(agent) = n.rpl.as_mut() else {
                return;
            };
            let (agent, stack) = (agent, &mut n.stack);
            agent.on_tick(now, stack.routing_mut())
        };
        self.rpl_transmit(node, sends);
        // Fixed 5 s trickle base with up to 0.5 s of per-tick jitter.
        let jitter = self.nodes[node.index()].rng.below(500_000_000);
        let epoch = self.boot_epoch[node.index()];
        self.queue.schedule_in_keyed(
            Duration::from_secs(5) + Duration::from_nanos(jitter),
            node_key(node),
            Ev::RplTick(node, epoch),
        );
    }

    fn rpl_transmit(&mut self, node: NodeId, sends: Vec<RplSend>) {
        for s in sends {
            let bytes = s.msg.encode();
            self.send_udp(node, s.to, RPL_PORT, RPL_PORT, &bytes);
        }
    }

    fn rpl_rx(&mut self, node: NodeId, src: Ipv6Addr, payload: &[u8]) {
        let Some(msg) = RplMsg::decode(payload) else {
            self.records.drop("rpl_malformed");
            return;
        };
        self.obs.reg.inc(self.obs.m.rpl_msgs_rx, node);
        let (sends, switch) = {
            let n = &mut self.nodes[node.index()];
            let Some(agent) = n.rpl.as_mut() else {
                return;
            };
            let before = agent.parent();
            let sends = agent.on_msg(src, msg, n.stack.routing_mut());
            let after = agent.parent();
            (sends, (before != after).then_some((before, after)))
        };
        if let Some((old, new)) = switch {
            self.obs.reg.inc(self.obs.m.rpl_parent_switches, node);
            self.obs.timeline.record(
                self.queue.now(),
                node,
                Span::RplParentSwitch {
                    old: old.map(node_of_addr).unwrap_or(u16::MAX),
                    new: new.map(node_of_addr).unwrap_or(u16::MAX),
                },
            );
        }
        self.rpl_transmit(node, sends);
    }

    fn tx_end(&mut self, now: Instant, slot: usize) {
        let fl = self.inflight[slot].take().expect("tx tracked");
        self.free_tx.push(slot);
        // Candidate listeners come from the per-channel index (kept
        // node-ascending) filtered by their listen window; the medium
        // then draws per-listener verdicts in that order. Out-of-range
        // listeners are dropped up front: the medium draws no RNG for
        // them (OutOfRange short-circuits before the noise chain) and
        // every consumer below filters on `is_ok()`, so skipping them
        // is draw- and behavior-neutral — it just keeps adv-channel
        // broadcasts in a 1000-node mesh from fanning out to all n.
        let mut cand = std::mem::take(&mut self.cand_scratch);
        for &ni in &self.listeners_by_channel[fl.channel.table_index()] {
            if let Some((_, ch, since, until)) = self.listening[ni as usize] {
                if ch == fl.channel
                    && since <= fl.start
                    && until >= now
                    && self.medium.hears(fl.src, NodeId(ni))
                {
                    cand.push(NodeId(ni));
                }
            }
        }
        let mut outcomes = std::mem::take(&mut self.outcome_scratch);
        self.medium.finish_tx_into(fl.tx, &cand, &mut outcomes);
        cand.clear();
        self.cand_scratch = cand;
        // Advertising-transport PDUs never touch the connection LL:
        // dispatch to each listener's AdvLink and hand the completion
        // back to the sender's.
        if let Frame::AdvData { dst, payload, .. } = &fl.frame {
            if *dst != Frame::ADV_BROADCAST && !payload.is_empty() {
                let dstn = NodeId(*dst);
                let ok = outcomes.iter().any(|(l, o)| *l == dstn && o.is_ok());
                self.obs.reg.inc(self.obs.m.ll_data_attempts, fl.src);
                if ok {
                    self.obs.reg.inc(self.obs.m.ll_data_delivered, fl.src);
                }
                self.records
                    .ll_attempt(fl.src, dstn, now, fl.channel.index(), ok);
            }
            for &(listener, outcome) in &outcomes {
                if outcome.is_ok() {
                    let mut outs = Vec::new();
                    if let Some(adv) = self.nodes[listener.index()].adv.as_mut() {
                        adv.on_frame_rx(now, &fl.frame, &mut outs);
                    }
                    self.apply_adv(listener, outs);
                }
            }
            outcomes.clear();
            self.outcome_scratch = outcomes;
            if fl.src_epoch != self.boot_epoch[fl.src.index()] {
                return;
            }
            let mut outs = Vec::new();
            if let Some(adv) = self.nodes[fl.src.index()].adv.as_mut() {
                adv.on_tx_done(now, &mut outs);
            }
            self.apply_adv(fl.src, outs);
            return;
        }
        // Link-layer delivery accounting for data PDUs.
        if let Frame::Data { conn, pdu, .. } = &fl.frame {
            if !pdu.payload.is_empty() {
                if let Some((a, b)) = self.conn_end_of(*conn) {
                    let dst = if a == fl.src { b } else { a };
                    let ok = outcomes
                        .iter()
                        .any(|(l, o)| *l == dst && o.is_ok());
                    self.obs.reg.inc(self.obs.m.ll_data_attempts, fl.src);
                    if ok {
                        self.obs.reg.inc(self.obs.m.ll_data_delivered, fl.src);
                    }
                    self.records
                        .ll_attempt(fl.src, dst, now, fl.channel.index(), ok);
                }
            }
        }
        for &(listener, outcome) in &outcomes {
            if outcome.is_ok() {
                let mut outs = self.take_out();
                self.nodes[listener.index()]
                    .ll
                    .on_frame_rx(now, &fl.frame, fl.channel, &mut outs);
                self.apply_ll(listener, &mut outs);
                self.put_out(outs);
            }
        }
        outcomes.clear();
        self.outcome_scratch = outcomes;
        // A sender that crashed mid-flight was rebuilt with a fresh
        // link layer (and a fresh buffer pool): the completion and the
        // payload recycle belong to the dead incarnation.
        if fl.src_epoch != self.boot_epoch[fl.src.index()] {
            return;
        }
        let mut outs = self.take_out();
        self.nodes[fl.src.index()]
            .ll
            .on_tx_done(now, &fl.frame, &mut outs);
        self.apply_ll(fl.src, &mut outs);
        self.put_out(outs);
        // The on-air payload copy came from the sender's LL buffer
        // pool (see `Connection::next_pdu`); give it back.
        if let Frame::Data { pdu, .. } = fl.frame {
            if !pdu.payload.is_empty() {
                self.nodes[fl.src.index()].ll.recycle(pdu.payload);
            }
        }
    }

    // ------------------------------------------------------------------
    // Link-layer output handling
    // ------------------------------------------------------------------

    /// Grab a scratch `Output` buffer from the free list. Re-entrant
    /// `apply_ll` chains (conn-up → statconn → close → …) each hold
    /// their own buffer, so the list may grow a few entries deep.
    fn take_out(&mut self) -> Vec<Output> {
        self.out_scratch.pop().unwrap_or_default()
    }

    /// Return a scratch buffer (cleared) to the free list.
    fn put_out(&mut self, mut v: Vec<Output>) {
        v.clear();
        if self.out_scratch.len() < 16 {
            self.out_scratch.push(v);
        }
    }

    /// Register `node` under `channel` in the listener index, keeping
    /// each channel's list sorted by node index.
    fn index_listen_on(&mut self, node: NodeId, channel: Channel) {
        let list = &mut self.listeners_by_channel[channel.table_index()];
        if let Err(pos) = list.binary_search(&node.0) {
            list.insert(pos, node.0);
        }
    }

    /// Drop `node` from `channel`'s listener list.
    fn index_listen_off(&mut self, node: NodeId, channel: Channel) {
        let list = &mut self.listeners_by_channel[channel.table_index()];
        if let Ok(pos) = list.binary_search(&node.0) {
            list.remove(pos);
        }
    }

    fn apply_ll(&mut self, node: NodeId, outputs: &mut Vec<Output>) {
        let now = self.queue.now();
        for o in outputs.drain(..) {
            match o {
                Output::Arm { at, timer } => {
                    let conn = timer.kind.conn();
                    let tok = self.queue.schedule_at_keyed(
                        at.max(now),
                        node_key(node),
                        Ev::LlTimer(node, timer),
                    );
                    self.track_ll_timer(node, conn, tok);
                }
                Output::Tx { channel, frame } => {
                    self.begin_frame_tx(now, node, channel, frame);
                }
                Output::Listen { channel, until, tag } => {
                    if let Some((_, old_ch, _, _)) = self.listening[node.index()] {
                        if old_ch != channel {
                            self.index_listen_off(node, old_ch);
                        }
                    }
                    self.index_listen_on(node, channel);
                    self.listening[node.index()] = Some((tag, channel, now, until));
                }
                Output::ListenOff { tag } => {
                    if let Some((t, ch, _, _)) = self.listening[node.index()] {
                        if t == tag {
                            self.index_listen_off(node, ch);
                            self.listening[node.index()] = None;
                        }
                    }
                }
                Output::ConnUp { conn, peer, role } => {
                    self.conn_up(node, conn, peer, role);
                }
                Output::ConnDown { conn, peer, reason } => {
                    self.conn_down(node, conn, peer, reason);
                }
                Output::Rx { conn, payload } => {
                    self.ll_rx(node, conn, payload);
                }
                Output::TxSpace { conn } => {
                    self.pump(node, conn);
                }
                Output::Trace { tag, detail } => {
                    if tag == "event_skipped" {
                        self.obs
                            .timeline
                            .record(now, node, Span::EventSkipped { conn: detail });
                    }
                    self.trace.emit();
                }
                Output::Obs(ev) => self.obs_ll_event(now, node, ev),
                Output::AdvSighting { advertiser } => {
                    self.peer_sighting(now, node, advertiser);
                }
            }
        }
    }

    /// A discovery scan heard `advertiser`'s beacon: model the RSSI
    /// from the current geometry and feed the sighting to the node's
    /// peer manager. First-time discoveries earn a timeline span.
    fn peer_sighting(&mut self, now: Instant, node: NodeId, advertiser: NodeId) {
        let Some(ps) = self.peers_world.as_ref() else {
            return;
        };
        let d = ps
            .field
            .distance(advertiser.index(), node.index())
            .max(0.01);
        let rssi = ps.geo.rssi_dbm(ps.geo_seed, advertiser.0, node.0, d);
        let Some(pm) = self.nodes[node.index()].peers.as_mut() else {
            return;
        };
        if pm.on_sighting(now, advertiser, rssi) {
            self.obs
                .timeline
                .record(now, node, Span::Discovery { peer: advertiser });
            self.trace.emit();
        }
    }

    /// Connection interval for a peer-initiated connection: drawn per
    /// the world's interval policy from the manager's own RNG stream,
    /// unique among the node's live connection intervals (the same
    /// §6.3 collision-avoidance statconn's randomized policy applies).
    fn draw_peer_interval(&mut self, node: NodeId) -> Duration {
        use crate::statconn::INTERVAL_QUANTUM;
        match self.cfg.policy {
            IntervalPolicy::Static(d) => d,
            IntervalPolicy::Randomized { lo, hi } => {
                let span = (hi - lo) / INTERVAL_QUANTUM;
                let n = &mut self.nodes[node.index()];
                let used: Vec<Duration> = n
                    .ll
                    .connections()
                    .into_iter()
                    .filter_map(|(c, _, _)| n.ll.conn_interval(c))
                    .collect();
                let Some(pm) = n.peers.as_mut() else {
                    return lo;
                };
                loop {
                    let k = pm.rng_mut().range_inclusive(0, span);
                    let candidate = lo + INTERVAL_QUANTUM * k;
                    if !used.contains(&candidate) || span == 0 {
                        break candidate;
                    }
                }
            }
        }
    }

    /// Execute the peer manager's decisions on the link layer — the
    /// peers-mode counterpart of [`World::apply_sc_actions`].
    fn apply_peer_actions(&mut self, node: NodeId, actions: Vec<PeerAction>) {
        let now = self.queue.now();
        for a in actions {
            match a {
                PeerAction::Connect { peer } => {
                    let interval = self.draw_peer_interval(node);
                    let mut params = ConnParams::with_interval_nimble(interval);
                    if let Some(t) = self.cfg.supervision_timeout {
                        params.supervision_timeout = t;
                    }
                    params.channel_map = self.cfg.conn_channel_map;
                    let conn = self.alloc_conn(node, peer);
                    if let Some(pm) = self.nodes[node.index()].peers.as_mut() {
                        pm.attempt_started(conn.0);
                    }
                    self.obs.timeline.record(
                        now,
                        node,
                        Span::PeerAttempt { conn: conn.0, peer },
                    );
                    self.trace.emit();
                    let mut outs = self.take_out();
                    self.nodes[node.index()]
                        .ll
                        .start_scanning(now, peer, conn, params, &mut outs);
                    self.apply_ll(node, &mut outs);
                    self.put_out(outs);
                }
                PeerAction::CancelAttempt { peer, rotated } => {
                    // Discovery keeps the scan alive; only the connect
                    // target is abandoned.
                    self.nodes[node.index()].ll.cancel_scan_target(peer);
                    self.obs.timeline.record(
                        now,
                        node,
                        Span::PeerAttemptFail {
                            peer,
                            timeout: true,
                        },
                    );
                    if rotated {
                        self.obs
                            .timeline
                            .record(now, node, Span::PeerRotation { peer });
                    }
                    self.trace.emit();
                }
                PeerAction::Close { conn } => {
                    let conn = ConnId(conn);
                    self.trace.emit();
                    self.set_doomed(conn);
                    self.close_both(conn);
                }
            }
        }
    }

    /// Put `frame` on air from `node`: PHY accounting, medium
    /// registration, in-flight slot, `TxEnd` scheduling. Shared by
    /// both transports' output executors.
    fn begin_frame_tx(&mut self, now: Instant, node: NodeId, channel: Channel, frame: Frame) {
        let payload_bytes = match &frame {
            Frame::AdvInd { payload_len, .. } => *payload_len as u64,
            Frame::ConnectInd { .. } => 34,
            Frame::Data { pdu, .. } => pdu.payload.len() as u64,
            Frame::AdvData { payload, .. } => {
                (payload.len() + Frame::ADV_DATA_OVERHEAD) as u64
            }
        };
        self.obs.reg.inc(self.obs.m.phy_tx_frames, node);
        self.obs.reg.add(self.obs.m.phy_tx_bytes, node, payload_bytes);
        let airtime = frame.airtime();
        let tx = self.medium.begin_tx(TxParams {
            src: node,
            channel,
            start: now,
            airtime,
        });
        let fl = InFlight {
            tx,
            src: node,
            frame,
            channel,
            start: now,
            src_epoch: self.boot_epoch[node.index()],
        };
        let slot = match self.free_tx.pop() {
            Some(s) => {
                self.inflight[s] = Some(fl);
                s
            }
            None => {
                self.inflight.push(Some(fl));
                self.inflight.len() - 1
            }
        };
        self.queue
            .schedule_at_keyed(now + airtime, node_key(node), Ev::TxEnd(slot));
    }

    /// Execute the advertising transport's output actions — the adv
    /// counterpart of [`World::apply_ll`]. Listening uses
    /// [`ListenTag::Scan`]; in adv mode statconn never runs, so the
    /// tag cannot collide with connection-establishment scanning.
    fn apply_adv(&mut self, node: NodeId, outs: Vec<AdvOut>) {
        let now = self.queue.now();
        for o in outs {
            match o {
                AdvOut::Arm { at, timer } => {
                    let tok = self.queue.schedule_at_keyed(
                        at.max(now),
                        node_key(node),
                        Ev::AdvTimer(node, timer),
                    );
                    self.track_ll_timer(node, None, tok);
                }
                AdvOut::Tx { channel, frame } => {
                    self.begin_frame_tx(now, node, channel, frame);
                }
                AdvOut::Listen { channel, until } => {
                    if let Some((_, old_ch, _, _)) = self.listening[node.index()] {
                        if old_ch != channel {
                            self.index_listen_off(node, old_ch);
                        }
                    }
                    self.index_listen_on(node, channel);
                    self.listening[node.index()] =
                        Some((ListenTag::Scan, channel, now, until));
                }
                AdvOut::ListenOff => {
                    if let Some((t, ch, _, _)) = self.listening[node.index()] {
                        if t == ListenTag::Scan {
                            self.index_listen_off(node, ch);
                            self.listening[node.index()] = None;
                        }
                    }
                }
                AdvOut::Deliver { src, sdu } => {
                    self.handle_sdu(node, src, sdu);
                }
                AdvOut::NeighborUp { peer } => {
                    self.trace.emit();
                    self.obs
                        .timeline
                        .record(now, node, Span::NeighborUp { peer });
                }
                AdvOut::NeighborDown { peer } => {
                    self.trace.emit();
                    self.obs
                        .timeline
                        .record(now, node, Span::NeighborDown { peer });
                    // Mirror conn_down's routing notification so the
                    // RPL agent reacts to lost adv neighbors too.
                    let sends = {
                        let n = &mut self.nodes[node.index()];
                        n.rpl.as_mut().map(|agent| {
                            agent.on_neighbor_down(
                                Ipv6Addr::of_node(peer.0),
                                n.stack.routing_mut(),
                            )
                        })
                    };
                    if let Some(sends) = sends {
                        self.rpl_transmit(node, sends);
                    }
                }
                AdvOut::Obs(ev) => {
                    if !self.obs.timeline.enabled() {
                        continue;
                    }
                    let span = match ev {
                        AdvObsEvent::TrainStart { seq, queued, beacon } => {
                            Span::AdvTrain { seq, queued, beacon }
                        }
                        AdvObsEvent::ScanWindow { channel } => Span::ScanWindow { channel },
                        AdvObsEvent::Duplicate { advertiser, seq } => {
                            Span::AdvDuplicate { advertiser, seq }
                        }
                    };
                    self.obs.timeline.record(now, node, span);
                }
            }
        }
    }

    /// Fold a typed link-layer observability event into the timeline.
    fn obs_ll_event(&mut self, now: Instant, node: NodeId, ev: LlObsEvent) {
        if !self.obs.timeline.enabled() {
            return;
        }
        let span = match ev {
            LlObsEvent::ConnEvent {
                conn,
                coord,
                anchor,
                interval,
            } => Span::ConnEvent {
                conn: conn.0,
                coord,
                anchor_ns: anchor.nanos(),
                interval_ns: interval.nanos(),
            },
            LlObsEvent::ChannelMapUpdate { conn, used } => Span::ChannelMapUpdate {
                conn: conn.0,
                used,
            },
            LlObsEvent::ConnParamUpdate { conn, interval } => Span::ConnParamUpdate {
                conn: conn.0,
                interval_ns: interval.nanos(),
            },
        };
        self.obs.timeline.record(now, node, span);
    }

    fn conn_up(&mut self, node: NodeId, conn: ConnId, peer: NodeId, role: Role) {
        let now = self.queue.now();
        // The peer's statconn already rejected this connection
        // (interval collision) before our end finished setting up.
        if self.is_doomed(conn) {
            let mut outs = self.take_out();
            self.nodes[node.index()].ll.close(conn, now, &mut outs);
            self.apply_ll(node, &mut outs);
            self.put_out(outs);
            return;
        }
        self.trace.emit();
        let interval = self.nodes[node.index()]
            .ll
            .conn_interval(conn)
            .expect("fresh connection");
        self.obs.reg.inc(self.obs.m.ll_conn_established, node);
        self.obs.timeline.record(
            now,
            node,
            Span::ConnUp {
                conn: conn.0,
                peer,
                coord: role == Role::Coordinator,
                interval_ns: interval.nanos(),
            },
        );
        if self.nodes[node.index()].peers.is_some() {
            // Peers mode: the policy decides whether to keep the
            // connection (pool capacity, duplicate pair) instead of
            // statconn's edge table.
            let initiated = role == Role::Coordinator;
            let pm = self.nodes[node.index()].peers.as_mut().expect("peers mode");
            let actions = pm.on_conn_up(now, conn.0, peer, initiated);
            let rejected = actions
                .iter()
                .any(|a| matches!(a, PeerAction::Close { conn: c } if *c == conn.0));
            if !rejected {
                self.register_coc(node, conn, peer);
            }
            self.apply_peer_actions(node, actions);
            return;
        }
        let actions =
            self.nodes[node.index()]
                .statconn
                .on_conn_up(conn, peer, role, interval);
        // Register the L2CAP channel unless statconn rejects it.
        let rejected = actions
            .iter()
            .any(|a| matches!(a, ScAction::Close { conn: c } if *c == conn));
        if !rejected {
            self.register_coc(node, conn, peer);
        }
        self.apply_sc_actions(node, actions);
    }

    /// Open the L2CAP channel for a freshly accepted connection and
    /// log the link-up signal (shared by both connection managers).
    fn register_coc(&mut self, node: NodeId, conn: ConnId, peer: NodeId) {
        let link = &mut self.nodes[node.index()].link;
        link.cocs.push((
            conn,
            CocState {
                chan: CocChannel::symmetric(CocConfig::default(), 0x40, 0x40),
                peer,
                pending_credits: 0,
            },
        ));
        link.signals.push(LinkSignal::Up {
            peer: LlAddr::from_node_index(peer.0),
        });
    }

    fn conn_down(&mut self, node: NodeId, conn: ConnId, peer: NodeId, reason: LossReason) {
        let now = self.queue.now();
        // The LL forgot this connection: cancel its pending timers at
        // the queue instead of letting them fire into nothing (they
        // would otherwise sit until their deadline — for supervision
        // timers, potentially seconds of dead weight per churn).
        self.cancel_conn_timers(node, conn);
        self.trace.emit();
        self.obs.reg.inc(self.obs.m.ll_conn_lost, node);
        if reason == LossReason::SupervisionTimeout {
            self.obs.reg.inc(self.obs.m.ll_supervision_timeouts, node);
        }
        self.obs.timeline.record(
            now,
            node,
            Span::ConnDown {
                conn: conn.0,
                peer,
                reason: match reason {
                    LossReason::SupervisionTimeout => "supervision_timeout",
                    LossReason::LocalClose => "local_close",
                    LossReason::EstablishFailed => "establish_failed",
                },
            },
        );
        if reason == LossReason::SupervisionTimeout {
            self.records.conn_loss(now, node, peer);
        }
        if let Some(coc) = self.nodes[node.index()].coc_remove(conn) {
            // Release mbufs still queued for this channel.
            let queued = coc.chan.queued_pool_cost();
            if queued > 0 {
                self.nodes[node.index()].link.pool.free(queued);
            }
            self.nodes[node.index()].link.signals.push(LinkSignal::Down {
                peer: LlAddr::from_node_index(peer.0),
            });
        }
        {
            let sends = {
                let n = &mut self.nodes[node.index()];
                n.rpl.as_mut().map(|agent| {
                    agent.on_neighbor_down(Ipv6Addr::of_node(peer.0), n.stack.routing_mut())
                })
            };
            if let Some(sends) = sends {
                self.rpl_transmit(node, sends);
            }
        }
        if self.nodes[node.index()].peers.is_some() {
            let pm = self.nodes[node.index()].peers.as_mut().expect("peers mode");
            let info = pm.on_conn_down(now, conn.0, peer);
            if info.was_attempt {
                self.obs.timeline.record(
                    now,
                    node,
                    Span::PeerAttemptFail {
                        peer,
                        timeout: false,
                    },
                );
                if info.rotated {
                    self.obs
                        .timeline
                        .record(now, node, Span::PeerRotation { peer });
                }
            }
            // The freed pool slot refills on the next PeersTick.
            return;
        }
        let actions = self.nodes[node.index()].statconn.on_conn_down(conn, peer);
        self.apply_sc_actions(node, actions);
    }

    fn apply_sc_actions(&mut self, node: NodeId, actions: Vec<ScAction>) {
        let now = self.queue.now();
        for a in actions {
            match a {
                ScAction::Advertise => {
                    let mut outs = self.take_out();
                    self.nodes[node.index()].ll.start_advertising(now, &mut outs);
                    self.apply_ll(node, &mut outs);
                    self.put_out(outs);
                }
                ScAction::Scan { peer, params } => {
                    let conn = self.alloc_conn(node, peer);
                    let mut outs = self.take_out();
                    self.nodes[node.index()]
                        .ll
                        .start_scanning(now, peer, conn, params, &mut outs);
                    self.apply_ll(node, &mut outs);
                    self.put_out(outs);
                }
                ScAction::Close { conn } => {
                    self.trace.emit();
                    self.set_doomed(conn);
                    self.close_both(conn);
                }
            }
        }
    }

    /// Close a connection on both ends (models the LL_TERMINATE_IND
    /// exchange; see `mindgap-ble` docs).
    fn close_both(&mut self, conn: ConnId) {
        let now = self.queue.now();
        let Some((a, b)) = self.conn_end_of(conn) else {
            return;
        };
        for node in [a, b] {
            let mut outs = self.take_out();
            self.nodes[node.index()].ll.close(conn, now, &mut outs);
            self.apply_ll(node, &mut outs);
            self.put_out(outs);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (mindgap-chaos)
    // ------------------------------------------------------------------

    /// Install a [`FaultSchedule`]: every fault becomes a regular
    /// event at its exact simulated instant, so injection timing is
    /// byte-reproducible regardless of host parallelism. Call before
    /// (or during) the run; faults whose time already passed fire
    /// immediately. Panics on an invalid schedule or if one is
    /// already installed.
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        if schedule.is_empty() {
            return;
        }
        if let Err(e) = schedule.validate(self.nodes.len()) {
            panic!("invalid fault schedule: {e}");
        }
        assert!(self.chaos.is_none(), "a fault schedule is already installed");
        let faults = schedule.faults.clone();
        let now = self.queue.now();
        for (i, f) in faults.iter().enumerate() {
            let at = Instant::ZERO + Duration::from_nanos(f.at_ns);
            self.queue.schedule_at(at.max(now), Ev::Fault(i as u32));
        }
        self.chaos = Some(Box::new(ChaosState {
            scratch: vec![0.0; faults.len()],
            faults,
        }));
    }

    /// Whether a node is currently crashed (radio-silent, all state
    /// lost, waiting for its scheduled reboot).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Test probe: tracked, still-pending LL timers bound to `conn`.
    /// After a connection dies this must drop to zero — a positive
    /// count is the timer leak the teardown path used to have.
    #[doc(hidden)]
    pub fn live_conn_timers(&self, conn: ConnId) -> usize {
        self.ll_timers
            .iter()
            .flatten()
            .filter(|(c, tok)| *c == Some(conn) && self.queue.token_is_live(*tok))
            .count()
    }

    /// Remember a pending LL timer so teardown can cancel it. The
    /// list self-prunes dead tokens once it grows past the working
    /// set, keeping it bounded by the node's genuinely live timers.
    fn track_ll_timer(&mut self, node: NodeId, conn: Option<ConnId>, tok: ScheduledEvent) {
        let World {
            ll_timers, queue, ..
        } = &mut *self;
        let list = &mut ll_timers[node.index()];
        if list.len() >= 32 {
            list.retain(|&(_, t)| queue.token_is_live(t));
        }
        list.push((conn, tok));
    }

    /// Cancel every tracked timer of `conn` on `node` (and drop any
    /// stale entries encountered along the way).
    fn cancel_conn_timers(&mut self, node: NodeId, conn: ConnId) {
        let World {
            ll_timers, queue, ..
        } = &mut *self;
        ll_timers[node.index()].retain(|&(c, tok)| {
            if c == Some(conn) {
                queue.cancel(tok);
                return false;
            }
            queue.token_is_live(tok)
        });
    }

    /// Record a fault marker on the timeline (the ground truth the
    /// recovery analysis keys off).
    fn record_fault(&mut self, now: Instant, node: NodeId, label: &'static str, a: u64, b: u64) {
        self.obs.timeline.record(now, node, Span::Fault { label, a, b });
        self.trace.emit();
    }

    /// Schedule the clearing event unless the fault is permanent.
    fn schedule_clear(&mut self, now: Instant, idx: u32, lasts: Duration) {
        if lasts.nanos() < FOREVER_NS {
            self.queue.schedule_at(now + lasts, Ev::FaultClear(idx));
        }
    }

    fn inject_fault(&mut self, now: Instant, idx: u32) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        let fault = chaos.faults[idx as usize];
        match fault.kind {
            FaultKind::NodeCrash { node, down_for } => {
                let id = NodeId(node);
                self.record_fault(
                    now,
                    id,
                    labels::NODE_CRASH,
                    node as u64,
                    down_for.nanos().min(FOREVER_NS),
                );
                self.crash_node(id);
                self.schedule_clear(now, idx, down_for);
            }
            FaultKind::LinkBlackout { a, b, lasts } => {
                self.record_fault(now, NodeId(a), labels::LINK_BLACKOUT, a as u64, b as u64);
                self.medium.set_out_of_range(NodeId(a), NodeId(b), true);
                self.schedule_clear(now, idx, lasts);
            }
            FaultKind::PerRamp { a, b, per, lasts } => {
                self.record_fault(now, NodeId(a), labels::PER_RAMP, a as u64, b as u64);
                self.medium.set_link_loss(NodeId(a), NodeId(b), per, true);
                self.schedule_clear(now, idx, lasts);
            }
            FaultKind::JammerBurst { channel, per, lasts } => {
                let ch = Channel::ble_data(channel);
                let prev = self.medium.channel_interference(ch);
                self.chaos.as_mut().expect("checked above").scratch[idx as usize] = prev;
                self.record_fault(
                    now,
                    NodeId(mindgap_chaos::recovery::NO_NODE),
                    labels::JAMMER_BURST,
                    channel as u64,
                    u64::MAX,
                );
                self.medium.set_channel_interference(ch, per);
                self.schedule_clear(now, idx, lasts);
            }
            FaultKind::JammerSweep {
                first_channel,
                per,
                dwell,
                ..
            } => {
                let ch = Channel::ble_data(first_channel);
                let prev = self.medium.channel_interference(ch);
                self.chaos.as_mut().expect("checked above").scratch[idx as usize] = prev;
                self.record_fault(
                    now,
                    NodeId(mindgap_chaos::recovery::NO_NODE),
                    labels::JAMMER_SWEEP,
                    first_channel as u64,
                    u64::MAX,
                );
                self.medium.set_channel_interference(ch, per);
                self.queue
                    .schedule_at(now + dwell, Ev::SweepStep { fault: idx, step: 1 });
            }
            FaultKind::ClockDrift { node, delta_ppm } => {
                self.record_fault(now, NodeId(node), labels::CLOCK_DRIFT, node as u64, u64::MAX);
                let i = node as usize;
                // Clock::with_ppm rejects |ppm| ≥ 10_000; repeated
                // drift steps saturate just below that.
                self.clock_ppms[i] = (self.clock_ppms[i] + delta_ppm).clamp(-9_999.0, 9_999.0);
                let clock = Clock::with_ppm(self.clock_ppms[i]);
                self.nodes[i].ll.set_clock(clock);
                if let Some(adv) = self.nodes[i].adv.as_mut() {
                    adv.set_clock(clock);
                }
            }
            FaultKind::MbufPressure { node, bytes, lasts } => {
                self.record_fault(
                    now,
                    NodeId(node),
                    labels::MBUF_PRESSURE,
                    node as u64,
                    bytes as u64,
                );
                let seized = self.nodes[node as usize].link.pool.seize(bytes as usize);
                self.chaos.as_mut().expect("checked above").scratch[idx as usize] = seized as f64;
                self.schedule_clear(now, idx, lasts);
            }
        }
    }

    fn clear_fault(&mut self, now: Instant, idx: u32) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        let fault = chaos.faults[idx as usize];
        match fault.kind {
            FaultKind::NodeCrash { node, .. } => self.reboot_node(now, NodeId(node)),
            FaultKind::LinkBlackout { a, b, .. } => {
                self.record_fault(now, NodeId(a), labels::LINK_RESTORE, a as u64, b as u64);
                self.medium.set_in_range(NodeId(a), NodeId(b), true);
            }
            FaultKind::PerRamp { a, b, .. } => {
                self.record_fault(now, NodeId(a), labels::PER_CLEAR, a as u64, b as u64);
                self.medium.set_link_loss(NodeId(a), NodeId(b), 0.0, true);
            }
            FaultKind::JammerBurst { channel, .. } => {
                let prev = chaos.scratch[idx as usize];
                self.record_fault(
                    now,
                    NodeId(mindgap_chaos::recovery::NO_NODE),
                    labels::JAMMER_CLEAR,
                    channel as u64,
                    u64::MAX,
                );
                self.medium
                    .set_channel_interference(Channel::ble_data(channel), prev);
            }
            // Sweeps end via their last SweepStep; drifts are
            // permanent steps — neither schedules a clear.
            FaultKind::JammerSweep { .. } | FaultKind::ClockDrift { .. } => {}
            FaultKind::MbufPressure { node, .. } => {
                let seized = chaos.scratch[idx as usize] as usize;
                self.chaos.as_mut().expect("checked above").scratch[idx as usize] = 0.0;
                self.record_fault(
                    now,
                    NodeId(node),
                    labels::MBUF_RELEASE,
                    node as u64,
                    seized as u64,
                );
                // A crash while the pressure was active rebuilt the
                // pool and zeroed the scratch: nothing to release.
                if seized > 0 {
                    self.nodes[node as usize].link.pool.release(seized);
                }
            }
        }
    }

    /// Advance a sweeping jammer: restore the channel it just left,
    /// jam the next one (or finish).
    fn sweep_step(&mut self, now: Instant, idx: u32, step: u8) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        let FaultKind::JammerSweep {
            first_channel,
            channels,
            per,
            dwell,
        } = chaos.faults[idx as usize].kind
        else {
            return;
        };
        let prev_per = chaos.scratch[idx as usize];
        self.medium
            .set_channel_interference(Channel::ble_data(first_channel + step - 1), prev_per);
        if step < channels {
            let ch = Channel::ble_data(first_channel + step);
            self.chaos.as_mut().expect("checked above").scratch[idx as usize] =
                self.medium.channel_interference(ch);
            self.medium.set_channel_interference(ch, per);
            self.record_fault(
                now,
                NodeId(mindgap_chaos::recovery::NO_NODE),
                labels::SWEEP_STEP,
                (first_channel + step) as u64,
                u64::MAX,
            );
            self.queue.schedule_at(
                now + dwell,
                Ev::SweepStep {
                    fault: idx,
                    step: step + 1,
                },
            );
        } else {
            self.record_fault(
                now,
                NodeId(mindgap_chaos::recovery::NO_NODE),
                labels::JAMMER_CLEAR,
                (first_channel + step - 1) as u64,
                u64::MAX,
            );
        }
    }

    /// Power-fail a node: all LL, L2CAP, stack, CoAP and statconn
    /// state is lost instantly. Peers only find out the BLE way —
    /// their supervision timeout expires. The node stays radio-silent
    /// until [`World::reboot_node`] runs.
    fn crash_node(&mut self, id: NodeId) {
        let i = id.index();
        assert!(!self.down[i], "node {} crashed while already down", id.0);
        // Cancel every pending LL timer: the rebuilt link layer
        // restarts its generation counters at zero, so a stale queued
        // timer could masquerade as a fresh one.
        {
            let World {
                ll_timers, queue, ..
            } = &mut *self;
            for (_, tok) in ll_timers[i].drain(..) {
                queue.cancel(tok);
            }
        }
        if let Some((_, ch, _, _)) = self.listening[i] {
            self.index_listen_off(id, ch);
            self.listening[i] = None;
        }
        self.down[i] = true;
        self.boot_epoch[i] = self.boot_epoch[i].wrapping_add(1);
        // Any mbuf bytes a pressure fault seized lived in the pool
        // that just died with the node.
        if let Some(chaos) = self.chaos.as_mut() {
            for (k, f) in chaos.faults.iter().enumerate() {
                if let FaultKind::MbufPressure { node, .. } = f.kind {
                    if node == id.0 {
                        chaos.scratch[k] = 0.0;
                    }
                }
            }
        }
        // Rebuild the node from its static config. RNG streams come
        // from the dedicated reboot stream so fault-free runs are
        // untouched; draws happen in event order, hence exactly
        // reproducible.
        let mut r = self.reboot_rng.fork(id.0 as u64);
        let rngs = NodeRngs {
            ll: r.fork(1),
            sc: r.fork(2),
            node: r.fork(3),
            adv: matches!(self.cfg.transport, TransportMode::Adv(_)).then(|| r.fork(4)),
            peers: self.cfg.peers.is_some().then(|| r.fork(5)),
        };
        self.nodes[i] = make_node(
            &self.cfg,
            self.app.consumer,
            &self.node_cfgs[i],
            id,
            self.clock_ppms[i],
            rngs,
        );
    }

    /// Power the node back on: statconn starts from scratch
    /// (advertise + scan its configured edges) and the periodic
    /// drivers restart with fresh jitter.
    fn reboot_node(&mut self, now: Instant, id: NodeId) {
        let i = id.index();
        debug_assert!(self.down[i], "reboot of a node that is not down");
        self.down[i] = false;
        self.record_fault(now, id, labels::NODE_REBOOT, id.0 as u64, u64::MAX);
        if self.nodes[i].peers.is_some() {
            // Rejoin from scratch: empty discovery cache, empty pool.
            self.start_peer_node(id);
        } else if self.nodes[i].adv.is_some() {
            self.start_adv(id);
        } else {
            let actions = self.nodes[i].statconn.start();
            self.apply_sc_actions(id, actions);
        }
        let epoch = self.boot_epoch[i];
        if self.app.producers.contains(&id) {
            let jittered = self.nodes[i].rng.jittered_nanos(
                self.app.producer_interval.nanos(),
                self.app.producer_jitter.nanos(),
            );
            // Honour the global warmup gate if the reboot lands
            // inside it (fault schedules usually don't).
            let at = (now + Duration::from_nanos(jittered)).max(Instant::ZERO + self.app.warmup);
            self.queue
                .schedule_at_keyed(at, node_key(id), Ev::AppSend(id, epoch));
        }
        if self.nodes[i].rpl.is_some() {
            let jitter = self.nodes[i].rng.below(2_000_000_000);
            self.queue.schedule_at_keyed(
                now + Duration::from_secs(1) + Duration::from_nanos(jitter),
                node_key(id),
                Ev::RplTick(id, epoch),
            );
        }
    }

    // ------------------------------------------------------------------
    // L2CAP pump & data path
    // ------------------------------------------------------------------

    /// Move pending credits and K-frames from the CoC into the LL
    /// queue while there is room.
    fn pump(&mut self, node: NodeId, conn: ConnId) {
        let max_pdu = self.max_pdu;
        loop {
            let n = &mut self.nodes[node.index()];
            let BleNode { ll, link, .. } = n;
            let ConnLink { cocs, pool, .. } = link;
            let Some(coc) = cocs
                .iter_mut()
                .find(|(c, _)| *c == conn)
                .map(|(_, s)| s)
            else {
                return;
            };
            // Fast exit for the common case: every received PDU and
            // every ended event reports TxSpace, but most of the time
            // there is nothing to move.
            if coc.pending_credits == 0 && !coc.chan.has_pending() {
                return;
            }
            if ll.queue_space(conn) == 0 {
                return;
            }
            // Credits first: flow control must not starve behind data.
            if coc.pending_credits > 0 {
                let sig = Signal::Credit {
                    identifier: 1,
                    cid: 0x40,
                    credits: coc.pending_credits,
                };
                let pdu = l2frame::encode_basic(CID_LE_SIGNALING, &sig.encode());
                if ll.enqueue(conn, pdu).is_ok() {
                    coc.pending_credits = 0;
                    continue;
                }
                return;
            }
            match coc.chan.next_pdu(max_pdu, pool, ll.buffers()) {
                Some(pdu) => {
                    ll.enqueue(conn, pdu)
                        .expect("space checked before pull");
                }
                None => {
                    // A zero-credit stall with data queued is the §5.2
                    // flow-control coupling — timestamp its onset.
                    let stalled = coc.chan.take_stall_event();
                    let queued = coc.chan.queued_bytes() as u64;
                    if stalled {
                        self.obs.timeline.record(
                            self.queue.now(),
                            node,
                            Span::CreditStall {
                                conn: conn.0,
                                queued_bytes: queued,
                            },
                        );
                    }
                    return;
                }
            }
        }
    }

    /// An LL payload (one L2CAP PDU) arrived on `conn`.
    ///
    /// `payload` came out of this node's LL buffer pool (see
    /// `Connection::process_rx`); it goes back once decoded, as does
    /// the pooled `body` copy.
    fn ll_rx(&mut self, node: NodeId, conn: ConnId, payload: Vec<u8>) {
        let (cid, body) = {
            let n = &mut self.nodes[node.index()];
            match l2frame::decode_basic(&payload) {
                Ok(p) => {
                    let cid = p.cid;
                    let body = n.ll.buffers().take_copy(p.payload);
                    n.ll.recycle(payload);
                    (cid, body)
                }
                Err(_) => {
                    n.ll.recycle(payload);
                    self.obs.reg.inc(self.obs.m.l2cap_rx_malformed, node);
                    self.records.drop("l2cap_malformed");
                    return;
                }
            }
        };
        if cid == CID_LE_SIGNALING {
            let sig = Signal::decode(&body);
            let n = &mut self.nodes[node.index()];
            n.ll.recycle(body);
            if let Ok(Signal::Credit { credits, .. }) = sig {
                if let Some(coc) = n.coc_mut(conn) {
                    coc.chan.grant(credits);
                }
                self.pump(node, conn);
            }
            return;
        }
        let (sdu, peer) = {
            let BleNode { ll, link, .. } = &mut self.nodes[node.index()];
            let Some(coc) = link
                .cocs
                .iter_mut()
                .find(|(c, _)| *c == conn)
                .map(|(_, s)| s)
            else {
                ll.recycle(body);
                return;
            };
            match coc.chan.on_pdu(&body) {
                Ok(sdu) => {
                    let back = coc.chan.credits_to_return();
                    if back > 0 {
                        coc.pending_credits = coc.pending_credits.saturating_add(back);
                    }
                    let peer = coc.peer;
                    ll.recycle(body);
                    (sdu, peer)
                }
                Err(_) => {
                    ll.recycle(body);
                    self.obs.reg.inc(self.obs.m.l2cap_rx_malformed, node);
                    self.records.drop("l2cap_protocol");
                    return;
                }
            }
        };
        self.pump(node, conn); // flush credits (and any queued data)
        if let Some(sdu) = sdu {
            self.obs.reg.inc(self.obs.m.l2cap_sdu_rx, node);
            self.obs
                .reg
                .observe(self.obs.m.l2cap_sdu_bytes, node, sdu.len() as u64);
            self.handle_sdu(node, peer, sdu);
        }
    }

    /// A complete 6LoWPAN frame arrived from `peer`.
    fn handle_sdu(&mut self, node: NodeId, peer: NodeId, sdu: Vec<u8>) {
        let ctx = LinkContext {
            src: LlAddr::from_node_index(peer.0),
            dst: LlAddr::from_node_index(node.0),
        };
        let packet = match iphc::decode_frame(&sdu, &ctx) {
            Ok(p) => p,
            Err(_) => {
                self.obs.reg.inc(self.obs.m.sixlowpan_decode_errors, node);
                self.records.drop("sixlowpan_malformed");
                return;
            }
        };
        self.obs.reg.inc(self.obs.m.sixlowpan_frames_decoded, node);
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
                    } else if dst_port == RPL_PORT {
                        self.rpl_rx(node, src, &payload);
                    }
                }
                StackEvent::DeliverEchoReply { from, sequence, .. } => {
                    self.echo_replies.push((node, from, sequence));
                }
                StackEvent::Transmit {
                    packet,
                    next_hop_ll,
                } => {
                    self.send_ip(node, packet, next_hop_ll);
                }
                StackEvent::Dropped { reason } => {
                    self.records.drop(reason);
                }
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
            let reply = {
                let n = &mut self.nodes[node.index()];
                n.server.respond(&msg, Code::CONTENT, response_payload)
            };
            if let Some(reply) = reply {
                self.obs.reg.inc(self.obs.m.coap_resp_tx, node);
                let bytes = reply.message.encode();
                self.send_udp(node, src, COAP_PORT, src_port, &bytes);
            }
        } else if msg.code.is_response() {
            let done = {
                let n = &mut self.nodes[node.index()];
                n.client.on_response(&msg, now.nanos())
            };
            if let Some(c) = done {
                self.obs.reg.inc(self.obs.m.coap_resp_rx, node);
                self.obs
                    .reg
                    .observe(self.obs.m.coap_rtt_us, node, c.rtt_ns / 1_000);
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
            Err(_) => {
                self.obs.reg.inc(self.obs.m.ipv6_send_failures, node);
                self.records.drop("no_route_local");
            }
        }
    }

    /// Hand an IPv6 packet to the BLE link towards `next_hop_ll`.
    fn send_ip(&mut self, node: NodeId, packet: Vec<u8>, next_hop_ll: LlAddr) {
        if self.nodes[node.index()].adv.is_some() {
            self.send_ip_adv(node, packet, next_hop_ll);
            return;
        }
        if next_hop_ll == LlAddr::BROADCAST {
            // RFC 7668: multicast is replicated over every link.
            let conns: Vec<(ConnId, NodeId)> = self.nodes[node.index()]
                .link
                .cocs
                .iter()
                .map(|(c, s)| (*c, s.peer))
                .collect();
            for (conn, peer) in conns {
                self.send_on_conn(node, conn, peer, &packet);
            }
            return;
        }
        let peer = NodeId(u16::from_be_bytes([next_hop_ll.0[6], next_hop_ll.0[7]]));
        let conn = match self.nodes[node.index()].peers.as_ref() {
            Some(pm) => pm.conn_to(peer).map(ConnId),
            None => self.nodes[node.index()].statconn.conn_to(peer),
        };
        let Some(conn) = conn else {
            self.obs.reg.inc(self.obs.m.ipv6_send_failures, node);
            self.records.drop("link_down");
            return;
        };
        // Admission through the link-service boundary: no open L2CAP
        // channel towards the hop means the frame cannot leave.
        if self.nodes[node.index()].link.admit(next_hop_ll) != TxAdmission::Ok {
            self.obs.reg.inc(self.obs.m.ipv6_send_failures, node);
            self.records.drop("link_down");
            return;
        }
        self.send_on_conn(node, conn, peer, &packet);
    }

    /// Adv-mode IP egress: compress per hop and queue on the
    /// advertising transport. Multicast replicates to every current
    /// neighbor as link-layer unicast, mirroring the conn path's
    /// per-link replication (RFC 7668 semantics).
    fn send_ip_adv(&mut self, node: NodeId, packet: Vec<u8>, next_hop_ll: LlAddr) {
        if next_hop_ll == LlAddr::BROADCAST {
            let peers: Vec<NodeId> = {
                let Some(adv) = self.nodes[node.index()].adv.as_ref() else {
                    return;
                };
                adv.neighbors()
                    .iter()
                    .map(|a| NodeId(u16::from_be_bytes([a.0[6], a.0[7]])))
                    .collect()
            };
            for peer in peers {
                self.send_on_adv(node, peer, &packet);
            }
            return;
        }
        let peer = NodeId(u16::from_be_bytes([next_hop_ll.0[6], next_hop_ll.0[7]]));
        // Admission through the link-service boundary: a next hop we
        // have never heard a beacon from cannot be reached yet.
        match self.nodes[node.index()].link_service_ref().admit(next_hop_ll) {
            TxAdmission::Ok => self.send_on_adv(node, peer, &packet),
            TxAdmission::NoLink => {
                self.obs.reg.inc(self.obs.m.ipv6_send_failures, node);
                self.records.drop("link_down");
            }
            TxAdmission::Backpressure => {
                self.obs.reg.inc(self.obs.m.ipv6_send_failures, node);
                self.records.drop("adv_queue_full");
            }
        }
    }

    fn send_on_adv(&mut self, node: NodeId, peer: NodeId, packet: &[u8]) {
        let ctx = LinkContext {
            src: LlAddr::from_node_index(node.0),
            dst: LlAddr::from_node_index(peer.0),
        };
        let frame = iphc::encode_frame(packet, &ctx);
        let n = &mut self.nodes[node.index()];
        let Some(adv) = n.adv.as_mut() else {
            self.records.drop("link_down");
            return;
        };
        match adv.send(peer.0, frame) {
            Ok(()) => {}
            Err(AdvSendError::QueueFull) => {
                self.records.drop("adv_queue_full");
                self.trace.emit();
            }
            Err(AdvSendError::TooBig) => {
                self.records.drop("adv_too_big");
            }
        }
    }

    fn send_on_conn(&mut self, node: NodeId, conn: ConnId, peer: NodeId, packet: &[u8]) {
        let ctx = LinkContext {
            src: LlAddr::from_node_index(node.0),
            dst: LlAddr::from_node_index(peer.0),
        };
        let frame = iphc::encode_frame(packet, &ctx);
        let n = &mut self.nodes[node.index()];
        let ConnLink { cocs, pool, .. } = &mut n.link;
        let Some(coc) = cocs
            .iter_mut()
            .find(|(c, _)| *c == conn)
            .map(|(_, s)| s)
        else {
            self.records.drop("link_down");
            return;
        };
        match coc.chan.send_sdu(frame, pool) {
            Ok(()) => {
                self.obs.reg.inc(self.obs.m.l2cap_sdu_tx, node);
                self.pump(node, conn)
            }
            Err(_) => {
                // The paper's §5.2 loss mechanism: mbuf pool exhausted.
                self.obs.reg.inc(self.obs.m.l2cap_mbuf_drops, node);
                self.obs.timeline.record(
                    self.queue.now(),
                    node,
                    Span::MbufExhausted { conn: conn.0 },
                );
                self.records.drop("mbuf_exhausted");
                self.trace.emit();
            }
        }
    }

    // ------------------------------------------------------------------
    // Application
    // ------------------------------------------------------------------

    fn producer_send(&mut self, now: Instant, node: NodeId) {
        let consumer = Ipv6Addr::of_node(self.app.consumer.0);
        let payload = vec![0xA5; self.app.payload];
        let msg = {
            let n = &mut self.nodes[node.index()];
            n.client
                .request(now.nanos(), MsgType::NonConfirmable, Code::GET, BENCH_PATH, payload)
        };
        self.obs.reg.inc(self.obs.m.coap_req_tx, node);
        self.records.coap_sent(node, now);
        let bytes = msg.encode();
        self.send_udp(node, consumer, COAP_PORT, COAP_PORT, &bytes);
        // Schedule the next request with fresh jitter.
        let jittered = self.nodes[node.index()].rng.jittered_nanos(
            self.app.producer_interval.nanos(),
            self.app.producer_jitter.nanos(),
        );
        let epoch = self.boot_epoch[node.index()];
        self.queue.schedule_at_keyed(
            now + Duration::from_nanos(jittered),
            node_key(node),
            Ev::AppSend(node, epoch),
        );
    }
}
