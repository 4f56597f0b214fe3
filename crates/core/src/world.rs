//! The simulated testbed.
//!
//! [`World`] owns everything one experiment needs: the shared radio
//! medium, one node stack per board, the event queue, and the
//! measurement [`Records`]. Every node holds the same upper stack
//! (6LoWPAN, IPv6 router, CoAP endpoints, optional routing agent) over
//! exactly one link, the same kind for every node of a world:
//!
//! * the paper's connection link: link layer, a connection manager
//!   (statconn or the peer policy), one L2CAP channel per connection
//!   and the NimBLE-sized mbuf pool;
//! * the connection-less advertising link ([`TransportMode::Adv`]);
//! * the 802.15.4 CSMA/CA MAC, one 6LoWPAN frame per MAC frame
//!   ([`World::new_ieee`], `crate::ieee`).
//!
//! Every frame, whatever its link, goes on air through one in-flight
//! slab and ends in one `TxEnd` handler: one candidate scan, one
//! delivery-accounting step, then each listener's link gets the frame
//! and the sender's link gets its completion.
//!
//! The fault injector that runs `mindgap-chaos` schedules lives in
//! the child module `chaos`.
//!
//! The connection data path reproduces the paper's Fig. 2/Fig. 5
//! stack exactly:
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

use mindgap_adv::{AdvConfig, AdvLink, AdvObsEvent, AdvOut, AdvSendError, AdvTimer, TxAdmission};
use mindgap_ble::{
    ConnId, ConnParams, Frame, LinkLayer, ListenTag, LlConfig, LlObsEvent, LossReason, Output,
    Role, Timer,
};
use mindgap_coap::{Client, Code, MessageView, MsgType, Server};
use mindgap_dot15d4::{
    MacCounters, MacFrame, MacOutput, MacTimer, Radio802154, CHANNEL, MAX_MAC_PAYLOAD,
};
use mindgap_l2cap::frame::{self as l2frame, Signal, CID_LE_SIGNALING};
use mindgap_l2cap::{BufPool, CocChannel, CocConfig, NIMBLE_BUF_BYTES};
use mindgap_net::{
    Delivery, Ipv6Addr, Ipv6Header, Ipv6Stack, NetConfig, StackEvent, Verdict, IPV6_HEADER_LEN,
    UDP_HEADROOM,
};
use mindgap_obs::{AdvMetrics, MetricsSnapshot, Obs, PeerMetrics, Span};
use mindgap_phy::{
    path_loss, Channel, LossConfig, Medium, MediumConfig, Mobility, RxOutcome, TxId, TxParams,
    BLE_JAMMED_CHANNEL, CHANNEL_TABLE_SIZE,
};
use mindgap_sim::{Clock, Duration, EventQueue, Instant, NodeId, Rng, Trace};
use mindgap_sixlowpan::{iphc, LinkContext, LlAddr};

use crate::ieee::IeeeConfig;
use crate::peers::{PeerCounters, PeerManager};
use crate::records::Records;
use crate::rpl::{self, RplAgent, RplConfig, RplMsg, RplSend, RPL_PORT};
use crate::statconn::{draw_unused_interval, ConnAction, EdgeConfig, IntervalPolicy, Statconn};
use crate::{BENCH_PATH, COAP_PAYLOAD};

mod chaos;
use chaos::ChaosState;

/// The CoAP port used throughout.
const COAP_PORT: u16 = 5683;

/// Response payload bytes (CoAP "acknowledgment" content).
const RESPONSE_PAYLOAD: usize = 10;

/// Client-side timeout after which a request counts as lost.
const COAP_TIMEOUT: Duration = Duration::from_secs(30);

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

/// Configuration of the dynamic peer-management mode (DESIGN.md §12).
/// When set, the world starts **cold**: no node has statconn edges;
/// every node instead advertises, discovery-scans, and runs the peer
/// policy (`crate::peers`) that forms connections from beacon
/// sightings ranked by modelled RSSI. Node geometry lives here too:
/// per-link PER and sighting RSSI both derive from the log-distance
/// [`path_loss`] model (the testbed mesh generator's), pairs beyond
/// [`path_loss::link_range_m`] hear nothing, the policy runs every
/// 500 ms, and walking nodes move on a fixed 1 s tick. The consumer
/// never moves.
#[derive(Debug, Clone)]
pub struct PeersWorldConfig {
    /// Seed of the deterministic shadowing term. Use the topology
    /// seed so link PER matches the generated radio graph.
    pub geo_seed: u64,
    /// Node positions in metres, indexed by node id.
    pub positions: Vec<(f64, f64)>,
    /// Arena bounds in metres; walking nodes reflect off these walls.
    pub arena: (f64, f64),
    /// Whether nodes walk (`mindgap_phy::mobility`'s random walk);
    /// `false` keeps the field static.
    pub mobile: bool,
}

impl PeersWorldConfig {
    /// A static field of `positions` inside `arena`.
    pub fn new(positions: Vec<(f64, f64)>, arena: (f64, f64), geo_seed: u64) -> Self {
        PeersWorldConfig {
            geo_seed,
            positions,
            arena,
            mobile: false,
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
    /// Per-node clock drift drawn uniformly from ±this (ppm).
    pub clock_ppm_range: f64,
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
    /// Observability timeline capacity in events: a ring buffer kept
    /// for export and inspection (`0` disables timeline recording;
    /// metrics counters and fault recovery are unaffected).
    pub timeline_cap: usize,
    /// Override the supervision timeout requested for every initiated
    /// connection (`None` keeps the policy's default). Must exceed the
    /// largest drawable connection interval; the chaos recovery
    /// experiments sweep this knob.
    pub supervision_timeout: Option<Duration>,
    /// Link transport. [`TransportMode::Conn`] is the paper's stack;
    /// [`TransportMode::Adv`] swaps in the connection-less
    /// advertising transport under the same IPv6/6LoWPAN stack.
    pub transport: TransportMode,
    /// Radio adjacency: `Some(links)` puts only the listed unordered
    /// pairs in radio range (large generated meshes); `None` keeps the
    /// paper's shared-room default where everyone hears everyone.
    pub radio_links: Option<Vec<(u16, u16)>>,
    /// Dynamic peer management (`Some` = cold start + discovery +
    /// policy-formed connections; `None` = statconn's static edges,
    /// the paper's testbed). Peers manage LL connections, so `Some`
    /// needs `transport` = [`TransportMode::Conn`]; [`World::new`]
    /// panics otherwise.
    pub peers: Option<PeersWorldConfig>,
}

impl WorldConfig {
    /// The paper's testbed defaults with the given interval policy.
    pub fn paper_default(seed: u64, policy: IntervalPolicy) -> Self {
        WorldConfig {
            seed,
            policy,
            ll: LlConfig::default(),
            clock_ppm_range: 3.0,
            conn_channel_map: mindgap_ble::channels::ChannelMap::all_except_jammed(),
            dynamic_routing: false,
            rpl_dao_period_ticks: 1,
            timeline_cap: 1 << 16,
            supervision_timeout: None,
            transport: TransportMode::Conn,
            radio_links: None,
            peers: None,
        }
    }
}

/// Step cadence of peers-mode mobility.
const MOBILITY_TICK: Duration = Duration::from_secs(1);

/// Policy-evaluation cadence of peers mode (stale expiry, attempt
/// timeout, new attempts).
const PEERS_TICK: Duration = Duration::from_millis(500);

/// Time-bucket width of the measurement [`Records`].
const RECORD_BUCKET: Duration = Duration::from_secs(60);

/// Canonical queue key for an event homed on `node`: node index + 1
/// (key 0 is what the unkeyed schedule APIs use, so global events —
/// CoapSweep, faults, PeersTick, MobilityTick — and the 802.15.4 MAC
/// events sort ahead of every node-homed event at the same instant).
/// With this, same-instant ties across *different* nodes fire in node
/// order — a property of the event content, not of insertion history
/// — so artifacts do not depend on the order in which handlers
/// happened to schedule work (DESIGN.md §13).
#[inline]
fn node_key(node: NodeId) -> u32 {
    node.0 as u32 + 1
}

/// Events in the world's queue.
enum Ev {
    /// Link-layer timer, epoch-stamped like [`Ev::AppSend`]: a rebuilt
    /// link layer restarts its generation counters at 0, so without
    /// the epoch a pre-crash timer could pass for one of its own.
    LlTimer(NodeId, u32, Timer),
    /// End of a frame on air, whatever its link; carries the
    /// in-flight slab slot.
    TxEnd(usize),
    /// Periodic producer request. Carries the node's boot epoch at
    /// scheduling time: a crash bumps the epoch, so chains scheduled
    /// by a previous incarnation die silently.
    AppSend(NodeId, u32),
    CoapSweep,
    /// Routing-agent tick, epoch-stamped like [`Ev::AppSend`].
    RplTick(NodeId, u32),
    /// Inject fault `i` of the installed
    /// [`FaultSchedule`](mindgap_chaos::FaultSchedule).
    Fault(u32),
    /// Clear (or, for crashes, reboot after) fault `i`.
    FaultClear(u32),
    /// Advertising-transport timer (adv mode only), epoch-stamped
    /// like [`Ev::LlTimer`].
    AdvTimer(NodeId, u32, AdvTimer),
    /// Peer-manager policy evaluation, all nodes in index order
    /// (peers mode only).
    PeersTick,
    /// Mobility step: move nodes, re-derive per-link PER from the
    /// new geometry (peers mode with mobility only).
    MobilityTick,
    /// 802.15.4 MAC timer (802.15.4 worlds only).
    MacTimer(NodeId, MacTimer),
}

// Every queue entry carries an `Ev` inline, so its size is paid on
// every schedule, every move between the queue's tiers and every pop.
const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

/// A frame on air: a BLE PDU (connection or advertising link) or an
/// 802.15.4 MAC frame.
enum AirFrame {
    Ble(Frame),
    Mac(MacFrame),
}

struct InFlight {
    tx: TxId,
    src: NodeId,
    frame: AirFrame,
    channel: Channel,
    start: Instant,
    /// Sender's boot epoch when the frame went on air; a mismatch at
    /// `TxEnd` means the sender crashed mid-flight and the rebuilt
    /// link layer must not see the completion.
    src_epoch: u32,
}

/// A datagram on its way to a link: a whole IPv6 packet, or a relayed
/// frame's parsed base header (hop limit already lowered) and the rest
/// of the frame, which goes on verbatim.
#[derive(Clone, Copy)]
enum Outgoing<'a> {
    Packet(&'a [u8]),
    Relay(&'a iphc::Header, &'a [u8]),
}

impl Outgoing<'_> {
    /// Append the 6LoWPAN frame for the hop `ctx` to `frame`.
    fn encode(self, ctx: &LinkContext, frame: &mut Vec<u8>) {
        match self {
            Outgoing::Packet(packet) => iphc::encode_frame_into(packet, ctx, frame),
            Outgoing::Relay(h, rest) => iphc::encode_relay(h, rest, ctx, frame),
        }
    }
}

struct CocState {
    chan: CocChannel,
    peer: NodeId,
    pending_credits: u16,
}

/// The connection-oriented link: the link layer, its connection
/// manager, one L2CAP credit-based channel per connection and the
/// NimBLE-sized mbuf pool, exactly the paper's data path (§3). The
/// data path itself stays in `World`'s hot loop; this struct owns the
/// per-node state.
pub(crate) struct ConnLink {
    ll: LinkLayer,
    manager: Manager,
    /// Live L2CAP channels, in connection-creation order. A node has
    /// a handful at most, so a linear scan beats hashing on the data
    /// path (and iteration order is deterministic, unlike a HashMap).
    cocs: Vec<(ConnId, CocState)>,
    pool: BufPool,
}

impl ConnLink {
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

    /// The connection towards `peer`, as the node's manager knows it.
    fn conn_to(&self, peer: NodeId) -> Option<ConnId> {
        match &self.manager {
            Manager::Static(sc) => sc.conn_to(peer),
            Manager::Peers(pm) => pm.conn_to(peer),
        }
    }

    /// Whether an L2CAP channel towards `next_hop` is open.
    fn has_channel_to(&self, next_hop: LlAddr) -> bool {
        self.cocs
            .iter()
            .any(|(_, s)| LlAddr::from_node_index(s.peer.0) == next_hop)
    }
}

/// A node's connection manager: statconn's static edges (the paper's
/// testbed) or, in peers mode, the discovery-driven peer policy. Both
/// answer link events with [`ConnAction`]s, which
/// [`World::apply_conn_actions`] executes.
enum Manager {
    Static(Statconn),
    Peers(PeerManager),
}

impl Manager {
    /// Actions that (re)start the node's link.
    fn start(&mut self) -> Vec<ConnAction> {
        match self {
            Manager::Static(sc) => sc.start(),
            // Cold start: advertise (to be found) and discovery-scan
            // (to find); the policy tick turns sightings into
            // connections.
            Manager::Peers(_) => vec![ConnAction::Advertise, ConnAction::Discover],
        }
    }

    /// A connection opened; the actions may close it again.
    fn on_conn_up(
        &mut self,
        conn: ConnId,
        peer: NodeId,
        role: Role,
        interval: Duration,
    ) -> Vec<ConnAction> {
        match self {
            Manager::Static(sc) => sc.on_conn_up(conn, peer, role, interval),
            Manager::Peers(pm) => pm.on_conn_up(conn, peer, role == Role::Coordinator),
        }
    }

    /// A connection closed, or an attempt failed before it opened.
    fn on_conn_down(&mut self, now: Instant, conn: ConnId, peer: NodeId) -> Vec<ConnAction> {
        match self {
            Manager::Static(sc) => sc.on_conn_down(conn, peer),
            // A freed pool slot refills on the next PeersTick.
            Manager::Peers(pm) => {
                let info = pm.on_conn_down(now, conn, peer);
                let rotated = info.rotated;
                let failed = ConnAction::AttemptFailed { peer, rotated };
                info.was_attempt.then_some(failed).into_iter().collect()
            }
        }
    }
}

/// A node's one link. Every node of a world has the same kind.
enum Link {
    /// The paper's connection-oriented data path (boxed: it is twice
    /// the size of the others).
    Conn(Box<ConnLink>),
    /// Connection-less extended advertising (`mindgap-adv`,
    /// DESIGN.md §10).
    Adv(AdvLink),
    /// The IEEE 802.15.4 baseline (`crate::ieee`).
    Ieee(Radio802154),
}

impl Link {
    fn conn(&self) -> Option<&ConnLink> {
        match self {
            Link::Conn(c) => Some(c),
            _ => None,
        }
    }

    fn conn_mut(&mut self) -> Option<&mut ConnLink> {
        match self {
            Link::Conn(c) => Some(c),
            _ => None,
        }
    }
}

/// One board: the upper stack over its one link.
struct Node {
    link: Link,
    stack: Ipv6Stack,
    client: Client,
    server: Server,
    rpl: Option<RplAgent>,
    rng: Rng,
}

/// The testbed world.
pub struct World {
    queue: EventQueue<Ev>,
    medium: Medium,
    nodes: Vec<Node>,
    listening: Vec<Option<(ListenTag, Channel, Instant, Instant)>>,
    /// Node indices currently registered as listening, per channel
    /// (sorted ascending — the medium's RNG draw order is per-listener
    /// in order, so this ordering is part of the determinism contract).
    listeners_by_channel: Vec<Vec<u16>>,
    /// Slab of in-flight frames of every link; `Ev::TxEnd` carries
    /// the slot.
    inflight: Vec<Option<InFlight>>,
    /// Recycled `inflight` slots.
    free_tx: Vec<usize>,
    /// Free list of `Output` scratch buffers for the LL hot path
    /// (re-entrant `apply_ll` calls each take their own).
    out_scratch: Vec<Vec<Output>>,
    /// Reusable buffers for `tx_end` (listener candidates, verdicts).
    cand_scratch: Vec<NodeId>,
    outcome_scratch: Vec<(NodeId, RxOutcome)>,
    /// Scratch for the datagram a received frame decodes to, when it
    /// is delivered here or refused with an ICMPv6 error; a relayed
    /// frame is never decoded.
    rx_packet: Vec<u8>,
    /// Scratch for a datagram a node originates, built in place:
    /// room for the IPv6 and UDP headers, then the message.
    tx_packet: Vec<u8>,
    /// The producers' request payload and the consumer's response
    /// payload, fixed by the [`AppConfig`].
    req_payload: Vec<u8>,
    resp_payload: Vec<u8>,
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
    /// `Some` in an 802.15.4 world.
    ieee_cfg: Option<IeeeConfig>,
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
    geo_seed: u64,
    /// Positions + stepping. Built even for static fields (the model
    /// just never steps), so distance queries have one home.
    field: Mobility,
    /// Whether nodes walk (drives MobilityTick).
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

/// Build one node from its static config. Used at world construction
/// and again on post-crash reboots, which is exactly the fault model:
/// full link and stack state loss.
///
/// `fork(k)` yields the node's `k`-th RNG stream. The draw order is
/// part of the determinism contract: 1 feeds the link layer (or the
/// MAC), 2 statconn, 3 the node itself, then 4 the advertising link or
/// 5 the peer manager. An advertising node still draws streams 1 and 2
/// and drops them, and a peers-mode node drops stream 2: each fork
/// advances the source, so skipping them would change every later
/// draw.
fn make_node(
    cfg: &WorldConfig,
    ieee: Option<&IeeeConfig>,
    consumer: NodeId,
    nc: &NodeConfig,
    id: NodeId,
    ppm: f64,
    mut fork: impl FnMut(u64) -> Rng,
) -> Node {
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
    let (link, rng) = match (ieee, cfg.transport) {
        (Some(_), _) => {
            let mac = fork(1);
            (Link::Ieee(Radio802154::new(id, mac)), fork(3))
        }
        (None, TransportMode::Adv(ac)) => {
            let _ = (fork(1), fork(2));
            let node = fork(3);
            let adv = AdvLink::new(id, ac, Clock::with_ppm(ppm), fork(4));
            (Link::Adv(adv), node)
        }
        (None, TransportMode::Conn) => {
            let (ll_rng, sc_rng, node) = (fork(1), fork(2), fork(3));
            let mut ll_cfg = cfg.ll;
            let manager = match cfg.peers {
                None => Manager::Static(Statconn::new(&nc.edges, cfg.policy, sc_rng)),
                Some(_) => {
                    // Dynamic peer management needs every node to stay
                    // discoverable: resume advertising after accepting
                    // a connection instead of going dark (legacy-BLE
                    // default).
                    ll_cfg.resume_adv_on_connect = true;
                    Manager::Peers(PeerManager::new(id, fork(5)))
                }
            };
            let link = ConnLink {
                ll: LinkLayer::new(id, Clock::with_ppm(ppm), ll_cfg, ll_rng),
                manager,
                cocs: Vec::new(),
                pool: BufPool::new(NIMBLE_BUF_BYTES),
            };
            (Link::Conn(Box::new(link)), node)
        }
    };
    Node {
        link,
        stack,
        client: Client::new(id.0),
        server: Server::new(0x8000 | id.0),
        rpl,
        rng,
    }
}

impl World {
    /// Build a world. `nodes[i]` configures node `i`. Panics when
    /// `cfg.peers` is set together with `cfg.transport` =
    /// [`TransportMode::Adv`].
    pub fn new(cfg: WorldConfig, node_cfgs: Vec<NodeConfig>, app: AppConfig) -> Self {
        Self::build(cfg, node_cfgs, app, None)
    }

    /// Build an IEEE 802.15.4 world, the paper's §5.3 baseline: the
    /// same upper stack over the CSMA/CA MAC on one channel. Statconn
    /// edges in `node_cfgs` are ignored (802.15.4 needs none), as are
    /// chaos and peers: fault injection panics.
    pub fn new_ieee(cfg: IeeeConfig, node_cfgs: Vec<NodeConfig>, app: AppConfig) -> Self {
        // No node has a link layer, so the interval policy is never read.
        let policy = IntervalPolicy::Static(Duration::from_millis(75));
        let world_cfg = WorldConfig::paper_default(cfg.seed, policy);
        Self::build(world_cfg, node_cfgs, app, Some(cfg))
    }

    fn build(
        cfg: WorldConfig,
        node_cfgs: Vec<NodeConfig>,
        app: AppConfig,
        ieee_cfg: Option<IeeeConfig>,
    ) -> Self {
        let n = node_cfgs.len();
        assert!(n >= 2, "a testbed needs at least two nodes");
        assert!(
            cfg.peers.is_none() || cfg.transport == TransportMode::Conn,
            "WorldConfig::peers needs WorldConfig::transport = TransportMode::Conn: \
             peer management forms LL connections, which the advertising transport does not use"
        );
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let mut medium = Medium::new(MediumConfig {
            n_nodes: n,
            loss: ieee_cfg
                .as_ref()
                .map_or_else(LossConfig::ble_default, |c| c.loss),
            seed: rng.fork(0xF00D).next_u64(),
            radio_links: cfg.radio_links.clone(),
        });
        if ieee_cfg.is_none() {
            // The testbed's permanently jammed BLE channel 22 (§4.2).
            medium.set_channel_interference(Channel::ble_data(BLE_JAMMED_CHANNEL), 0.97);
        }
        // Per node in index order: the drift draw (BLE only), then the
        // node's forks (see `make_node`). This order is part of the
        // determinism contract.
        let mut clock_ppms = Vec::with_capacity(n);
        let nodes = node_cfgs
            .iter()
            .enumerate()
            .map(|(i, nc)| {
                let ppm = match ieee_cfg {
                    Some(_) => 0.0,
                    None => rng.range_f64(-cfg.clock_ppm_range, cfg.clock_ppm_range),
                };
                clock_ppms.push(ppm);
                let id = NodeId(i as u16);
                let fork = |k: u64| rng.fork(k * 1000 + i as u64);
                make_node(&cfg, ieee_cfg.as_ref(), app.consumer, nc, id, ppm, fork)
            })
            .collect();
        let mut obs = Obs::new(n, cfg.timeline_cap);
        let adv_m = matches!(cfg.transport, TransportMode::Adv(_))
            .then(|| AdvMetrics::register(&mut obs.reg));
        let peer_m = cfg
            .peers
            .is_some()
            .then(|| PeerMetrics::register(&mut obs.reg));
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
            let mut field = Mobility::new(pc.arena, pc.positions.clone(), rng.fork(0x3050));
            field.pin(app.consumer.index());
            Box::new(PeersState {
                geo_seed: pc.geo_seed,
                field,
                mobile: pc.mobile,
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
            rx_packet: Vec::new(),
            tx_packet: Vec::new(),
            req_payload: vec![0xA5; app.payload],
            resp_payload: vec![0x5A; RESPONSE_PAYLOAD],
            next_conn: vec![0; n],
            conn_ends: vec![Vec::new(); n],
            max_pdu: cfg.ll.max_pdu,
            records: Records::new(RECORD_BUCKET),
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
            adv_m,
            peer_m,
            peers_world,
            cfg,
            node_cfgs,
            ieee_cfg,
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
            peers_world,
            medium,
            ..
        } = &mut *self;
        let Some(ps) = peers_world.as_mut() else {
            return;
        };
        let max_link_m = path_loss::link_range_m();
        let n = ps.field.len();
        for a in 0..n {
            for b in (a + 1)..n {
                let d = ps.field.distance(a, b).max(0.01);
                let idx = PeersState::pair(n, a, b);
                let (na, nb) = (NodeId(a as u16), NodeId(b as u16));
                let was = ps.in_range[idx];
                let now_in = d <= max_link_m;
                ps.in_range[idx] = now_in;
                if now_in {
                    if !was {
                        medium.set_in_range(na, nb, true);
                    }
                    let per = path_loss::link_per(ps.geo_seed, a as u16, b as u16, d);
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
    /// construction — the denominator of events-per-second figures.
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

    /// Link-layer counters of one node (all zero for a node without a
    /// connection link).
    pub fn ll_counters(&self, node: NodeId) -> mindgap_ble::LlCounters {
        self.conn_link(node)
            .map(|c| c.ll.counters())
            .unwrap_or_default()
    }

    /// Advertising-transport counters of one node (`None` unless it
    /// runs the advertising link).
    pub fn adv_counters(&self, node: NodeId) -> Option<mindgap_adv::AdvCounters> {
        match &self.nodes[node.index()].link {
            Link::Adv(adv) => Some(adv.counters()),
            _ => None,
        }
    }

    /// 802.15.4 MAC counters of one node (`None` in BLE worlds).
    pub fn mac_counters(&self, node: NodeId) -> Option<MacCounters> {
        match &self.nodes[node.index()].link {
            Link::Ieee(mac) => Some(mac.counters()),
            _ => None,
        }
    }

    /// The connection link of `node` (`None` for other links).
    fn conn_link(&self, node: NodeId) -> Option<&ConnLink> {
        self.nodes[node.index()].link.conn()
    }

    /// Fold component-held counters (LL counters, `NetStats`, CoC
    /// credit stalls, routing rank) into the registry's sampled
    /// metrics and return a point-in-time snapshot of everything.
    /// Components a node's link does not have are not sampled: their
    /// registry slots keep their default of zero.
    pub fn obs_snapshot(&mut self) -> MetricsSnapshot {
        let m = self.obs.m;
        let now = self.queue.now();
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u16);
            let n = &self.nodes[i];
            let reg = &mut self.obs.reg;
            let s = n.stack.stats();
            reg.set_counter(m.ipv6_originated, id, s.originated);
            reg.set_counter(m.ipv6_forwarded, id, s.forwarded);
            reg.set_counter(m.ipv6_delivered, id, s.delivered);
            reg.set_counter(m.ipv6_dropped, id, s.dropped);
            reg.set_counter(m.ipv6_no_route, id, s.no_route);
            let rank = n.rpl.as_ref().map(|a| a.rank() as i64).unwrap_or(-1);
            reg.gauge_set(m.rpl_rank, id, rank);
            match &n.link {
                Link::Conn(conn) => {
                    let c = conn.ll.counters();
                    reg.set_counter(m.phy_tx_airtime_ns, id, c.tx_ns);
                    reg.set_counter(m.phy_listen_ns, id, c.listen_ns);
                    reg.set_counter(m.ll_conn_events_coord, id, c.coord_events);
                    reg.set_counter(m.ll_conn_events_sub, id, c.sub_events);
                    reg.set_counter(m.ll_events_skipped, id, c.skipped_events);
                    reg.set_counter(m.ll_events_missed, id, c.sub_missed);
                    let stalls = conn.cocs.iter().map(|(_, s)| s.chan.credit_stalls()).sum();
                    reg.set_counter(m.l2cap_credit_stalls, id, stalls);
                    if let (Manager::Peers(pm), Some(qm)) = (&conn.manager, self.peer_m) {
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
                Link::Adv(adv) => {
                    let a = adv.counters();
                    reg.set_counter(m.phy_tx_airtime_ns, id, a.tx_ns);
                    reg.set_counter(m.phy_listen_ns, id, adv.listen_ns_through(now));
                    if let Some(am) = self.adv_m {
                        reg.set_counter(am.adv_events, id, a.adv_events);
                        reg.set_counter(am.adv_trains, id, a.adv_trains);
                        reg.set_counter(am.adv_beacon_trains, id, a.beacon_trains);
                        reg.set_counter(am.adv_pdus_tx, id, a.pdus_tx);
                        reg.set_counter(am.adv_pdus_rx, id, a.pdus_rx);
                        reg.set_counter(am.adv_beacons_rx, id, a.beacons_rx);
                        reg.set_counter(am.adv_dups_suppressed, id, a.dups_suppressed);
                        reg.set_counter(am.adv_delivered, id, a.delivered);
                        reg.set_counter(am.adv_queue_drops, id, a.queue_drops);
                        reg.set_counter(am.adv_neighbor_ups, id, a.neighbor_ups);
                        reg.set_counter(am.adv_neighbor_downs, id, a.neighbor_downs);
                        reg.set_counter(am.adv_scan_windows, id, a.scan_windows);
                        reg.gauge_set(am.adv_neighbors, id, adv.neighbor_count() as i64);
                        reg.gauge_set(am.adv_queue_depth, id, adv.queue_len() as i64);
                    }
                }
                Link::Ieee(_) => {}
            }
        }
        self.obs.snapshot()
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
    /// unit tests construct.) An id is never handed out twice, not
    /// even after its initiator reboots (`next_conn` outlives
    /// crashes), so the timers a torn-down connection leaves queued
    /// can never act on a later one.
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

    /// Per-connection stats of one node: (conn, peer, role, stats).
    /// Empty for a node without a connection link.
    pub fn conn_stats_of(
        &self,
        node: NodeId,
    ) -> Vec<(ConnId, NodeId, Role, mindgap_ble::ConnStats)> {
        let Some(c) = self.conn_link(node) else {
            return Vec::new();
        };
        c.ll.connections()
            .into_iter()
            .filter_map(|(conn, p, r)| c.ll.conn_stats(conn).map(|s| (conn, p, r, s)))
            .collect()
    }

    /// statconn reconnect count of one node (0 without statconn).
    pub fn reconnects(&self, node: NodeId) -> u64 {
        self.statconn(node).map_or(0, |sc| sc.reconnects)
    }

    /// statconn collision-close count of one node (§6.3 rejections;
    /// 0 without statconn).
    pub fn collision_closes(&self, node: NodeId) -> u64 {
        self.statconn(node).map_or(0, |sc| sc.collision_closes)
    }

    fn statconn(&self, node: NodeId) -> Option<&Statconn> {
        match &self.conn_link(node)?.manager {
            Manager::Static(sc) => Some(sc),
            Manager::Peers(_) => None,
        }
    }

    fn peers(&self, node: NodeId) -> Option<&PeerManager> {
        match &self.conn_link(node)?.manager {
            Manager::Peers(pm) => Some(pm),
            Manager::Static(_) => None,
        }
    }

    /// mbuf-pool drop count of one node (0 without a connection link).
    pub fn pool_drops(&self, node: NodeId) -> u64 {
        self.conn_link(node).map_or(0, |c| c.pool.drops())
    }

    /// `true` once every configured edge of every node is connected.
    /// Nodes without statconn have no edges to bring up.
    pub fn fully_connected(&self) -> bool {
        (0..self.nodes.len() as u16).all(|i| {
            self.statconn(NodeId(i))
                .is_none_or(Statconn::fully_connected)
        })
    }

    /// Peer-manager counters of one node (`None` outside peers mode).
    pub fn peer_counters(&self, node: NodeId) -> Option<PeerCounters> {
        self.peers(node).map(PeerManager::counters)
    }

    /// Established pool size of one node's peer manager (`None`
    /// outside peers mode).
    pub fn peer_pool_size(&self, node: NodeId) -> Option<usize> {
        self.peers(node).map(PeerManager::connected_count)
    }

    /// Current node positions in metres (`None` outside peers mode).
    pub fn positions(&self) -> Option<&[(f64, f64)]> {
        self.peers_world.as_ref().map(|p| p.field.positions())
    }

    /// Kick off statconn, producers and housekeeping. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.bring_up(NodeId(i as u16));
        }
        if let Some(ps) = self.peers_world.as_ref() {
            let mobile = ps.mobile;
            self.queue.schedule_in(PEERS_TICK, Ev::PeersTick);
            if mobile {
                self.queue.schedule_in(MOBILITY_TICK, Ev::MobilityTick);
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
        assert!(lo <= hi);
        let mut updated = 0;
        for n in &mut self.nodes {
            let Link::Conn(c) = &mut n.link else {
                continue;
            };
            let conns: Vec<(ConnId, Role)> =
                c.ll.connections()
                    .into_iter()
                    .map(|(c, _, r)| (c, r))
                    .collect();
            for (conn, role) in &conns {
                if *role != Role::Coordinator {
                    continue;
                }
                let used: Vec<Duration> = conns
                    .iter()
                    .filter_map(|(conn, _)| c.ll.conn_interval(*conn))
                    .collect();
                let interval = draw_unused_interval(&mut n.rng, lo, hi, &used);
                if c.ll.request_conn_update(*conn, interval).is_ok() {
                    if let Manager::Static(sc) = &mut c.manager {
                        sc.note_interval(*conn, interval);
                    }
                    updated += 1;
                }
            }
        }
        updated
    }

    /// Channel map currently used by a node's connection (diagnostics
    /// for the AFH ablation; `None` without a connection link).
    pub fn conn_channel_map(
        &self,
        node: NodeId,
        conn: ConnId,
    ) -> Option<mindgap_ble::channels::ChannelMap> {
        self.conn_link(node)?.ll.conn_channel_map(conn)
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
    /// distance-derived loss (see `mindgap_phy::path_loss`).
    pub fn set_link_per(&mut self, a: NodeId, b: NodeId, per: f64) {
        self.medium.set_link_loss(a, b, per, true);
    }

    /// Bytes currently held in a node's NimBLE mbuf pool (diagnostics;
    /// 0 without a connection link).
    pub fn pool_used(&self, node: NodeId) -> usize {
        self.conn_link(node).map_or(0, |c| c.pool.used())
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
                self.send_ip(src, Outgoing::Packet(&packet), ll);
                true
            }
            Err(_) => false,
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    // Always inlined into `run_until`: with observability compiled
    // in, `step` outgrows the inliner's threshold and becomes a call
    // per event, which cost about 4 % of `tree-1h` throughput
    // (DESIGN.md §8).
    #[inline(always)]
    fn step(&mut self) {
        let Some((now, ev)) = self.queue.pop() else {
            return;
        };
        self.events += 1;
        match ev {
            Ev::LlTimer(node, epoch, timer) => {
                if epoch == self.boot_epoch[node.index()] {
                    self.with_ll(node, |ll, outs| ll.on_timer(now, timer, outs))
                }
            }
            Ev::TxEnd(slot) => self.tx_end(now, slot),
            Ev::AppSend(node, epoch) => {
                if epoch == self.boot_epoch[node.index()] {
                    self.producer_send(now, node);
                }
            }
            Ev::CoapSweep => {
                let timeout = COAP_TIMEOUT.nanos();
                for i in 0..self.nodes.len() {
                    let n = &mut self.nodes[i];
                    let expired = n.client.expire(now.nanos(), timeout).len() as u64;
                    if expired > 0 {
                        self.obs
                            .reg
                            .add(self.obs.m.coap_timeouts, NodeId(i as u16), expired);
                    }
                }
                self.queue
                    .schedule_in(Duration::from_secs(5), Ev::CoapSweep);
            }
            Ev::RplTick(node, epoch) => {
                if epoch == self.boot_epoch[node.index()] {
                    self.rpl_tick(now, node);
                }
            }
            Ev::Fault(i) => self.inject_fault(now, i),
            Ev::FaultClear(i) => self.clear_fault(now, i),
            Ev::AdvTimer(node, epoch, timer) => {
                if epoch == self.boot_epoch[node.index()] {
                    self.with_adv(node, |adv, outs| adv.on_timer(now, timer, outs))
                }
            }
            Ev::PeersTick => self.peers_tick(now),
            Ev::MobilityTick => self.mobility_tick(),
            Ev::MacTimer(node, timer) => self.mac_timer(now, node, timer),
        }
    }

    /// (Re)start a node's link, at world start and after a reboot.
    fn bring_up(&mut self, node: NodeId) {
        let now = self.queue.now();
        match &mut self.nodes[node.index()].link {
            Link::Conn(c) => {
                let actions = c.manager.start();
                self.apply_conn_actions(node, actions);
            }
            // Connection-less: no statconn, no L2CAP, just advertising
            // and scanning.
            Link::Adv(_) => self.with_adv(node, |adv, outs| adv.start(now, outs)),
            // An 802.15.4 radio listens on its channel whenever it is
            // not transmitting.
            Link::Ieee(_) => {
                let channel = Channel::ieee802154(CHANNEL);
                self.listen(node, ListenTag::Scan, channel, Instant::MAX);
            }
        }
    }

    /// One policy round: every live node's manager expires stale
    /// discoveries, times out its in-flight attempt, and starts a new
    /// attempt when below target — in node-index order, so the draw
    /// sequence is independent of sighting arrival order.
    fn peers_tick(&mut self, now: Instant) {
        if self.peers_world.is_none() {
            return;
        }
        for i in 0..self.nodes.len() {
            if self.down[i] {
                continue;
            }
            let Some(pm) = self.peer_manager(NodeId(i as u16)) else {
                continue;
            };
            let actions = pm.tick(now);
            if !actions.is_empty() {
                self.apply_conn_actions(NodeId(i as u16), actions);
            }
        }
        self.queue.schedule_in(PEERS_TICK, Ev::PeersTick);
    }

    /// One mobility step: advance positions, re-derive every link's
    /// PER/range from the new geometry. Established connections to
    /// peers that walked out of range die the BLE way — supervision
    /// timeout — and the policy heals around them.
    fn mobility_tick(&mut self) {
        let Some(ps) = self.peers_world.as_mut() else {
            return;
        };
        ps.field.step(MOBILITY_TICK.nanos() as f64 / 1e9);
        self.refresh_geometry();
        self.queue.schedule_in(MOBILITY_TICK, Ev::MobilityTick);
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
        // Fixed trickle base with up to 0.5 s of per-tick jitter.
        let jitter = self.nodes[node.index()].rng.below(500_000_000);
        let epoch = self.boot_epoch[node.index()];
        self.queue.schedule_in_keyed(
            rpl::TICK + Duration::from_nanos(jitter),
            node_key(node),
            Ev::RplTick(node, epoch),
        );
    }

    fn rpl_transmit(&mut self, node: NodeId, sends: Vec<RplSend>) {
        let mut packet = std::mem::take(&mut self.tx_packet);
        for s in sends {
            packet.clear();
            packet.resize(UDP_HEADROOM, 0);
            s.msg.encode_into(&mut packet);
            self.send_udp_packet(node, s.to, RPL_PORT, RPL_PORT, &mut packet);
        }
        self.tx_packet = packet;
    }

    /// Tell the routing agent (if any) that the link to `peer` is gone.
    fn rpl_neighbor_down(&mut self, node: NodeId, peer: NodeId) {
        let n = &mut self.nodes[node.index()];
        let Some(agent) = n.rpl.as_mut() else {
            return;
        };
        let sends = agent.on_neighbor_down(Ipv6Addr::of_node(peer.0), n.stack.routing_mut());
        self.rpl_transmit(node, sends);
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
            self.record_recovery_span(
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

    /// A frame of any link ended: find its listeners, account the
    /// delivery, hand the frame to every listener that received it and
    /// the completion to the sender.
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
        // Link-layer delivery accounting for unicast data frames.
        if let Some((dst, channel_slot)) = self.intended_rx(&fl) {
            let ok = outcomes.iter().any(|&(l, o)| l == dst && o.is_ok());
            self.obs.reg.inc(self.obs.m.ll_data_attempts, fl.src);
            if ok {
                self.obs.reg.inc(self.obs.m.ll_data_delivered, fl.src);
            }
            self.records.ll_attempt(fl.src, dst, now, channel_slot, ok);
        }
        for &(listener, outcome) in &outcomes {
            if outcome.is_ok() {
                self.link_rx(now, listener, &fl);
            }
        }
        outcomes.clear();
        self.outcome_scratch = outcomes;
        // A sender that crashed mid-flight was rebuilt with a fresh
        // link (and a fresh buffer pool): the completion and the
        // payload recycle belong to the dead incarnation.
        if fl.src_epoch != self.boot_epoch[fl.src.index()] {
            return;
        }
        let src = fl.src;
        match fl.frame {
            AirFrame::Mac(_) => self.with_mac(src, |mac, _| mac.on_tx_done(now)),
            AirFrame::Ble(_) if self.is_adv(src) => {
                self.with_adv(src, |adv, outs| adv.on_tx_done(now, outs))
            }
            AirFrame::Ble(frame) => {
                self.with_ll(src, |ll, outs| ll.on_tx_done(now, &frame, outs));
                // The on-air payload copy came from the sender's LL
                // buffer pool (see `Connection::next_pdu`); give it back.
                if let (Frame::Data { pdu, .. }, Link::Conn(c)) =
                    (frame, &mut self.nodes[src.index()].link)
                {
                    if !pdu.payload.is_empty() {
                        c.ll.recycle(pdu.payload);
                    }
                }
            }
        }
    }

    /// The receiver a unicast data frame was meant for, with the
    /// channel slot its link-layer attempt is recorded under; `None`
    /// for control frames, empty PDUs and broadcasts. 802.15.4 runs on
    /// a single channel and records under slot 0 (the per-channel axis
    /// is BLE-specific).
    fn intended_rx(&self, fl: &InFlight) -> Option<(NodeId, u8)> {
        match &fl.frame {
            AirFrame::Ble(Frame::Data { conn, pdu, .. }) if !pdu.payload.is_empty() => {
                let (a, b) = self.conn_end_of(*conn)?;
                Some((if a == fl.src { b } else { a }, fl.channel.index()))
            }
            AirFrame::Ble(Frame::AdvData { dst, payload, .. })
                if *dst != Frame::ADV_BROADCAST && !payload.is_empty() =>
            {
                Some((NodeId(*dst), fl.channel.index()))
            }
            AirFrame::Mac(MacFrame::Data { dst: Some(dst), .. }) => Some((*dst, 0)),
            _ => None,
        }
    }

    /// Hand a received frame to `node`'s link.
    fn link_rx(&mut self, now: Instant, node: NodeId, fl: &InFlight) {
        match &fl.frame {
            AirFrame::Mac(frame) => self.with_mac(node, |mac, _| mac.on_frame_rx(now, frame)),
            AirFrame::Ble(frame) if self.is_adv(node) => {
                self.with_adv(node, |adv, outs| adv.on_frame_rx(now, frame, outs))
            }
            AirFrame::Ble(frame) => self.with_ll(node, |ll, outs| {
                ll.on_frame_rx(now, frame, fl.channel, outs)
            }),
        }
    }

    fn is_adv(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.index()].link, Link::Adv(_))
    }

    /// Run one call into `node`'s link layer and execute its outputs
    /// (a no-op without a connection link). The `Output` buffer comes
    /// from a free list: re-entrant chains (conn-up → statconn → close
    /// → …) each hold their own, so the list may grow a few deep.
    fn with_ll(&mut self, node: NodeId, f: impl FnOnce(&mut LinkLayer, &mut Vec<Output>)) {
        let mut outs = self.out_scratch.pop().unwrap_or_default();
        if let Link::Conn(c) = &mut self.nodes[node.index()].link {
            f(&mut c.ll, &mut outs);
        }
        self.apply_ll(node, &mut outs);
        if self.out_scratch.len() < 16 {
            self.out_scratch.push(outs);
        }
    }

    /// [`World::with_ll`] for the advertising link.
    fn with_adv(&mut self, node: NodeId, f: impl FnOnce(&mut AdvLink, &mut Vec<AdvOut>)) {
        let mut outs = Vec::new();
        if let Link::Adv(adv) = &mut self.nodes[node.index()].link {
            f(adv, &mut outs);
        }
        self.apply_adv(node, outs);
    }

    /// [`World::with_ll`] for the 802.15.4 MAC, which also gets the
    /// medium for clear-channel assessment.
    fn with_mac(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Radio802154, &Medium) -> Vec<MacOutput>,
    ) {
        let World { nodes, medium, .. } = &mut *self;
        let Link::Ieee(mac) = &mut nodes[node.index()].link else {
            return;
        };
        let outs = f(mac, medium);
        self.apply_mac(node, outs);
    }

    // ------------------------------------------------------------------
    // Link-layer output handling
    // ------------------------------------------------------------------

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

    /// Open `node`'s receive window on `channel` from now until
    /// `until`, replacing any window it had.
    fn listen(&mut self, node: NodeId, tag: ListenTag, channel: Channel, until: Instant) {
        if let Some((_, old_ch, _, _)) = self.listening[node.index()] {
            if old_ch != channel {
                self.index_listen_off(node, old_ch);
            }
        }
        self.index_listen_on(node, channel);
        self.listening[node.index()] = Some((tag, channel, self.queue.now(), until));
    }

    /// Close `node`'s receive window if it is the one tagged `tag`.
    fn listen_off(&mut self, node: NodeId, tag: ListenTag) {
        if let Some((t, ch, _, _)) = self.listening[node.index()] {
            if t == tag {
                self.index_listen_off(node, ch);
                self.listening[node.index()] = None;
            }
        }
    }

    fn apply_ll(&mut self, node: NodeId, outputs: &mut Vec<Output>) {
        let now = self.queue.now();
        for o in outputs.drain(..) {
            match o {
                Output::Arm { at, timer } => {
                    let epoch = self.boot_epoch[node.index()];
                    self.queue.schedule_at_keyed(
                        at.max(now),
                        node_key(node),
                        Ev::LlTimer(node, epoch, timer),
                    );
                }
                Output::Tx { channel, frame } => {
                    self.begin_tx(now, node, channel, AirFrame::Ble(frame));
                }
                Output::Listen {
                    channel,
                    until,
                    tag,
                } => self.listen(node, tag, channel, until),
                Output::ListenOff { tag } => self.listen_off(node, tag),
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
        let rssi = path_loss::rssi_dbm(ps.geo_seed, advertiser.0, node.0, d);
        let Some(pm) = self.peer_manager(node) else {
            return;
        };
        if pm.on_sighting(now, advertiser, rssi) {
            self.obs
                .timeline
                .record(now, node, Span::Discovery { peer: advertiser });
            self.trace.emit();
        }
    }

    /// The peer manager of `node` (`None` outside peers mode).
    fn peer_manager(&mut self, node: NodeId) -> Option<&mut PeerManager> {
        match &mut self.nodes[node.index()].link.conn_mut()?.manager {
            Manager::Peers(pm) => Some(pm),
            Manager::Static(_) => None,
        }
    }

    /// Connection interval for a peer-initiated connection: drawn per
    /// the world's interval policy from the manager's own RNG stream,
    /// unique among the node's live connection intervals (the same
    /// §6.3 collision-avoidance statconn's randomized policy applies).
    fn draw_peer_interval(&mut self, node: NodeId) -> Duration {
        match self.cfg.policy {
            IntervalPolicy::Static(d) => d,
            IntervalPolicy::Randomized { lo, hi } => {
                let Some(ConnLink {
                    ll,
                    manager: Manager::Peers(pm),
                    ..
                }) = self.nodes[node.index()].link.conn_mut()
                else {
                    return lo;
                };
                let used: Vec<Duration> = ll
                    .connections()
                    .into_iter()
                    .filter_map(|(c, _, _)| ll.conn_interval(c))
                    .collect();
                draw_unused_interval(pm.rng_mut(), lo, hi, &used)
            }
        }
    }

    /// Put `frame` on air from `node`: PHY accounting, medium
    /// registration, in-flight slot, `TxEnd` scheduling. Shared by
    /// every link's output executor.
    fn begin_tx(&mut self, now: Instant, node: NodeId, channel: Channel, frame: AirFrame) {
        self.obs.reg.inc(self.obs.m.phy_tx_frames, node);
        // MAC events stay unkeyed (see `apply_mac`); BLE events are
        // homed on their node.
        let (airtime, key) = match &frame {
            AirFrame::Ble(f) => {
                let payload_bytes = match f {
                    Frame::AdvInd { payload_len, .. } => *payload_len as u64,
                    Frame::ConnectInd { .. } => 34,
                    Frame::Data { pdu, .. } => pdu.payload.len() as u64,
                    Frame::AdvData { payload, .. } => {
                        (payload.len() + Frame::ADV_DATA_OVERHEAD) as u64
                    }
                };
                self.obs
                    .reg
                    .add(self.obs.m.phy_tx_bytes, node, payload_bytes);
                (f.airtime(), node_key(node))
            }
            // 802.15.4 frames count in `phy_tx_frames` only.
            AirFrame::Mac(f) => (f.airtime(), 0),
        };
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
            .schedule_at_keyed(now + airtime, key, Ev::TxEnd(slot));
    }

    /// Execute the advertising transport's output actions — the adv
    /// counterpart of [`World::apply_ll`]. Listening uses
    /// [`ListenTag::Scan`]; an adv node has no link layer, so the tag
    /// cannot collide with connection-establishment scanning.
    fn apply_adv(&mut self, node: NodeId, outs: Vec<AdvOut>) {
        let now = self.queue.now();
        for o in outs {
            match o {
                AdvOut::Arm { at, timer } => {
                    let epoch = self.boot_epoch[node.index()];
                    self.queue.schedule_at_keyed(
                        at.max(now),
                        node_key(node),
                        Ev::AdvTimer(node, epoch, timer),
                    );
                }
                AdvOut::Tx { channel, frame } => {
                    self.begin_tx(now, node, channel, AirFrame::Ble(frame));
                }
                AdvOut::Listen { channel, until } => {
                    self.listen(node, ListenTag::Scan, channel, until)
                }
                AdvOut::ListenOff => self.listen_off(node, ListenTag::Scan),
                AdvOut::Deliver { src, sdu } => {
                    self.handle_sdu(node, src, &sdu);
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
                    self.rpl_neighbor_down(node, peer);
                }
                AdvOut::Obs(ev) => {
                    if !self.obs.timeline.enabled() {
                        continue;
                    }
                    let span = match ev {
                        AdvObsEvent::TrainStart {
                            seq,
                            queued,
                            beacon,
                        } => Span::AdvTrain {
                            seq,
                            queued,
                            beacon,
                        },
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
            LlObsEvent::ChannelMapUpdate { conn, used } => {
                Span::ChannelMapUpdate { conn: conn.0, used }
            }
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
            self.with_ll(node, |ll, outs| ll.close(conn, now, outs));
            return;
        }
        self.trace.emit();
        let Some(c) = self.nodes[node.index()].link.conn_mut() else {
            return;
        };
        let interval = c.ll.conn_interval(conn).expect("fresh connection");
        self.obs.reg.inc(self.obs.m.ll_conn_established, node);
        self.record_recovery_span(
            now,
            node,
            Span::ConnUp {
                conn: conn.0,
                peer,
                coord: role == Role::Coordinator,
                interval_ns: interval.nanos(),
            },
        );
        let Some(c) = self.nodes[node.index()].link.conn_mut() else {
            return;
        };
        let actions = c.manager.on_conn_up(conn, peer, role, interval);
        // Register the L2CAP channel unless the manager rejects the
        // connection (statconn: interval collision; peers: duplicate
        // pair or full pool).
        let rejected = actions
            .iter()
            .any(|a| matches!(a, ConnAction::Close { conn: c } if *c == conn));
        if !rejected {
            self.register_coc(node, conn, peer);
        }
        self.apply_conn_actions(node, actions);
    }

    /// Open the L2CAP channel for a freshly accepted connection.
    fn register_coc(&mut self, node: NodeId, conn: ConnId, peer: NodeId) {
        let Some(link) = self.nodes[node.index()].link.conn_mut() else {
            return;
        };
        link.cocs.push((
            conn,
            CocState {
                chan: CocChannel::symmetric(CocConfig::default(), 0x40, 0x40),
                peer,
                pending_credits: 0,
            },
        ));
    }

    fn conn_down(&mut self, node: NodeId, conn: ConnId, peer: NodeId, reason: LossReason) {
        let now = self.queue.now();
        // The LL forgot this connection. Its timers still queued stay
        // there and pop as no-ops: the LL no longer finds `conn`, and
        // `alloc_conn` never hands the id out again.
        self.trace.emit();
        self.obs.reg.inc(self.obs.m.ll_conn_lost, node);
        if reason == LossReason::SupervisionTimeout {
            self.obs.reg.inc(self.obs.m.ll_supervision_timeouts, node);
        }
        self.record_recovery_span(
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
        if let Some(c) = self.nodes[node.index()].link.conn_mut() {
            if let Some(coc) = c.coc_remove(conn) {
                // Release mbufs still queued for this channel.
                let queued = coc.chan.queued_pool_cost();
                if queued > 0 {
                    c.pool.free(queued);
                }
            }
        }
        self.rpl_neighbor_down(node, peer);
        let Some(c) = self.nodes[node.index()].link.conn_mut() else {
            return;
        };
        let actions = c.manager.on_conn_down(now, conn, peer);
        self.apply_conn_actions(node, actions);
    }

    /// Execute a connection manager's decisions on the link layer.
    fn apply_conn_actions(&mut self, node: NodeId, actions: Vec<ConnAction>) {
        let now = self.queue.now();
        for a in actions {
            match a {
                ConnAction::Advertise => {
                    self.with_ll(node, |ll, outs| ll.start_advertising(now, outs));
                }
                ConnAction::Discover => {
                    self.with_ll(node, |ll, outs| ll.start_discovery(now, outs));
                }
                ConnAction::Scan { peer, interval } => {
                    self.initiate(node, peer, interval);
                }
                ConnAction::Connect { peer } => {
                    let interval = self.draw_peer_interval(node);
                    let conn = self.initiate(node, peer, interval);
                    if let Some(pm) = self.peer_manager(node) {
                        pm.attempt_started(conn);
                    }
                    self.obs
                        .timeline
                        .record(now, node, Span::PeerAttempt { conn: conn.0, peer });
                    self.trace.emit();
                }
                ConnAction::CancelAttempt { peer, rotated }
                | ConnAction::AttemptFailed { peer, rotated } => {
                    let timeout = matches!(a, ConnAction::CancelAttempt { .. });
                    if timeout {
                        // Discovery keeps the scan alive; only the
                        // connect target is abandoned.
                        if let Some(c) = self.nodes[node.index()].link.conn_mut() {
                            c.ll.cancel_scan_target(peer);
                        }
                        self.trace.emit();
                    }
                    let tl = &mut self.obs.timeline;
                    tl.record(now, node, Span::PeerAttemptFail { peer, timeout });
                    if rotated {
                        tl.record(now, node, Span::PeerRotation { peer });
                    }
                }
                ConnAction::Close { conn } => {
                    self.trace.emit();
                    self.set_doomed(conn);
                    self.close_both(conn);
                }
            }
        }
    }

    /// Allocate a connection from `node` towards `peer` and scan for
    /// it at `interval`, with the world's supervision timeout and
    /// channel map.
    fn initiate(&mut self, node: NodeId, peer: NodeId, interval: Duration) -> ConnId {
        let now = self.queue.now();
        let mut params = ConnParams::with_interval_nimble(interval);
        if let Some(t) = self.cfg.supervision_timeout {
            params.supervision_timeout = t;
        }
        params.channel_map = self.cfg.conn_channel_map;
        let conn = self.alloc_conn(node, peer);
        self.with_ll(node, |ll, outs| {
            ll.start_scanning(now, peer, conn, params, outs)
        });
        conn
    }

    /// Close a connection on both ends (models the LL_TERMINATE_IND
    /// exchange; see `mindgap-ble` docs).
    fn close_both(&mut self, conn: ConnId) {
        let now = self.queue.now();
        let Some((a, b)) = self.conn_end_of(conn) else {
            return;
        };
        for node in [a, b] {
            self.with_ll(node, |ll, outs| ll.close(conn, now, outs));
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
            let Some(ConnLink { ll, cocs, pool, .. }) = self.nodes[node.index()].link.conn_mut()
            else {
                return;
            };
            let Some(coc) = cocs.iter_mut().find(|(c, _)| *c == conn).map(|(_, s)| s) else {
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
                let mut pdu = ll.buffers().take();
                let start = l2frame::begin_basic(&mut pdu, CID_LE_SIGNALING);
                sig.encode_into(&mut pdu);
                l2frame::finish_basic(&mut pdu, start);
                match ll.enqueue(conn, pdu) {
                    Ok(()) => {
                        coc.pending_credits = 0;
                        continue;
                    }
                    Err(pdu) => {
                        ll.recycle(pdu);
                        return;
                    }
                }
            }
            match coc.chan.next_pdu(max_pdu, pool, ll.buffers()) {
                Some(pdu) => {
                    ll.enqueue(conn, pdu).expect("space checked before pull");
                }
                None => {
                    // A zero-credit stall with data queued is the §5.2
                    // flow-control coupling — timestamp its onset.
                    let stalled = coc.chan.take_stall_event();
                    let queued = coc.chan.queued_bytes() as u64;
                    if stalled {
                        self.record_recovery_span(
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
    /// `Connection::process_rx`) and goes back once read; the channel
    /// reassembles the SDU into a buffer from the same pool, which goes
    /// back once the SDU is handled.
    fn ll_rx(&mut self, node: NodeId, conn: ConnId, payload: Vec<u8>) {
        let Link::Conn(c) = &mut self.nodes[node.index()].link else {
            return;
        };
        let ConnLink { ll, cocs, .. } = &mut **c;
        let Ok(pdu) = l2frame::decode_basic(&payload) else {
            ll.recycle(payload);
            self.obs.reg.inc(self.obs.m.l2cap_rx_malformed, node);
            self.records.drop("l2cap_malformed");
            return;
        };
        if pdu.cid == CID_LE_SIGNALING {
            let sig = Signal::decode(pdu.payload);
            ll.recycle(payload);
            if let Ok(Signal::Credit { credits, .. }) = sig {
                if let Some(coc) = c.coc_mut(conn) {
                    coc.chan.grant(credits);
                }
                self.pump(node, conn);
            }
            return;
        }
        let Some(coc) = cocs.iter_mut().find(|(c, _)| *c == conn).map(|(_, s)| s) else {
            ll.recycle(payload);
            return;
        };
        let rx = coc.chan.on_pdu_into(pdu.payload, ll.buffers());
        ll.recycle(payload);
        let sdu = match rx {
            Ok(sdu) => {
                let back = coc.chan.credits_to_return();
                if back > 0 {
                    coc.pending_credits = coc.pending_credits.saturating_add(back);
                }
                sdu
            }
            Err(_) => {
                self.obs.reg.inc(self.obs.m.l2cap_rx_malformed, node);
                self.records.drop("l2cap_protocol");
                return;
            }
        };
        let peer = coc.peer;
        self.pump(node, conn); // flush credits (and any queued data)
        if let Some(sdu) = sdu {
            self.obs.reg.inc(self.obs.m.l2cap_sdu_rx, node);
            self.obs
                .reg
                .observe(self.obs.m.l2cap_sdu_bytes, node, sdu.len() as u64);
            self.handle_sdu(node, peer, &sdu);
            if let Some(c) = self.nodes[node.index()].link.conn_mut() {
                c.ll.recycle(sdu);
            }
        }
    }

    /// A complete 6LoWPAN frame arrived from `peer`.
    ///
    /// An IPHC frame is parsed, not decompressed: the IPv6 decision is
    /// made on its header, and a relay re-encodes only the base header
    /// for the next hop and copies the rest of the frame. The datagram
    /// is rebuilt (into `rx_packet`) only to deliver it here or to
    /// quote it in an ICMPv6 error.
    fn handle_sdu(&mut self, node: NodeId, peer: NodeId, sdu: &[u8]) {
        let ctx = LinkContext {
            src: LlAddr::from_node_index(peer.0),
            dst: LlAddr::from_node_index(node.0),
        };
        let mut packet = std::mem::take(&mut self.rx_packet);
        packet.clear();
        match iphc::parse(sdu, &ctx) {
            Ok((h, at)) => {
                self.obs.reg.inc(self.obs.m.sixlowpan_frames_decoded, node);
                self.receive(node, &h, &sdu[at..], &mut packet);
            }
            // The uncompressed dispatch: a whole datagram.
            Err(_)
                if sdu.first() == Some(&iphc::DISPATCH_IPV6)
                    && iphc::decode_frame_into(sdu, &ctx, &mut packet).is_ok() =>
            {
                self.obs.reg.inc(self.obs.m.sixlowpan_frames_decoded, node);
                let events = self.nodes[node.index()].stack.on_datagram(&packet);
                self.handle_stack_events(node, events);
            }
            Err(_) => {
                self.obs.reg.inc(self.obs.m.sixlowpan_decode_errors, node);
                self.records.drop("sixlowpan_malformed");
            }
        }
        self.rx_packet = packet;
    }

    /// Act on a parsed IPHC frame: header `h`, then `rest` (the NHC
    /// UDP header or inline next header, and the payload). `packet` is
    /// empty scratch for the datagram, should it be needed.
    fn receive(&mut self, node: NodeId, h: &iphc::Header, rest: &[u8], packet: &mut Vec<u8>) {
        let stack = &mut self.nodes[node.index()].stack;
        let hdr = Ipv6Header::from(h);
        match stack.on_header(&hdr) {
            Verdict::Forward {
                next_hop_ll,
                hop_limit,
            } => {
                let h = iphc::Header { hop_limit, ..*h };
                self.send_ip(node, Outgoing::Relay(&h, rest), next_hop_ll);
            }
            Verdict::Local => {
                iphc::datagram_into(h, rest, packet);
                match stack.deliver(&hdr, &packet[IPV6_HEADER_LEN..]) {
                    Delivery::Udp {
                        src,
                        src_port,
                        dst_port,
                        payload,
                    } => self.deliver_udp(node, src, src_port, dst_port, payload),
                    Delivery::Events(events) => self.handle_stack_events(node, events),
                }
            }
            Verdict::Refuse(refusal) => {
                let error = refusal.quotes().then(|| {
                    iphc::datagram_into(h, rest, packet);
                    stack.quote_error(refusal, packet)
                });
                self.records.drop(refusal.reason());
                if let Some(ev) = error.flatten() {
                    self.handle_stack_event(node, ev);
                }
            }
        }
    }

    fn handle_stack_events(&mut self, node: NodeId, events: Vec<StackEvent>) {
        for ev in events {
            self.handle_stack_event(node, ev);
        }
    }

    fn handle_stack_event(&mut self, node: NodeId, ev: StackEvent) {
        match ev {
            StackEvent::DeliverUdp {
                src,
                src_port,
                dst_port,
                payload,
            } => self.deliver_udp(node, src, src_port, dst_port, &payload),
            StackEvent::DeliverEchoReply { from, sequence, .. } => {
                self.echo_replies.push((node, from, sequence));
            }
            StackEvent::Transmit {
                packet,
                next_hop_ll,
            } => {
                self.send_ip(node, Outgoing::Packet(&packet), next_hop_ll);
            }
            StackEvent::Dropped { reason } => {
                self.records.drop(reason);
            }
        }
    }

    fn deliver_udp(
        &mut self,
        node: NodeId,
        src: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        if dst_port == COAP_PORT {
            self.coap_rx(node, src, src_port, payload);
        } else if dst_port == RPL_PORT {
            self.rpl_rx(node, src, payload);
        }
    }

    fn coap_rx(&mut self, node: NodeId, src: Ipv6Addr, src_port: u16, payload: &[u8]) {
        let now = self.queue.now();
        let Ok(msg) = MessageView::parse(payload) else {
            self.records.drop("coap_malformed");
            return;
        };
        if msg.code.is_request() {
            let mut packet = std::mem::take(&mut self.tx_packet);
            packet.clear();
            packet.resize(UDP_HEADROOM, 0);
            let n = &mut self.nodes[node.index()];
            if n.server
                .respond_into(&msg, Code::CONTENT, &self.resp_payload, &mut packet)
            {
                self.obs.reg.inc(self.obs.m.coap_resp_tx, node);
                self.send_udp_packet(node, src, COAP_PORT, src_port, &mut packet);
            }
            self.tx_packet = packet;
        } else if msg.code.is_response() {
            let done = {
                let n = &mut self.nodes[node.index()];
                n.client.on_response_view(&msg, now.nanos())
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

    /// Originate the UDP datagram built in `packet`: [`UDP_HEADROOM`]
    /// bytes of room for the headers, then the data.
    fn send_udp_packet(
        &mut self,
        node: NodeId,
        dst: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        packet: &mut [u8],
    ) {
        let res = self.nodes[node.index()]
            .stack
            .send_udp_in_place(dst, src_port, dst_port, packet);
        match res {
            Ok(ll) => self.send_ip(node, Outgoing::Packet(packet), ll),
            Err(_) => {
                self.obs.reg.inc(self.obs.m.ipv6_send_failures, node);
                self.records.drop("no_route_local");
            }
        }
    }

    /// Hand an IPv6 datagram to the link towards `next_hop_ll`.
    fn send_ip(&mut self, node: NodeId, out: Outgoing<'_>, next_hop_ll: LlAddr) {
        let c = match &self.nodes[node.index()].link {
            Link::Conn(c) => c,
            Link::Adv(_) => return self.send_ip_adv(node, out, next_hop_ll),
            Link::Ieee(_) => return self.send_ip_ieee(node, out, next_hop_ll),
        };
        if next_hop_ll == LlAddr::BROADCAST {
            // RFC 7668: multicast is replicated over every link.
            let conns: Vec<(ConnId, NodeId)> = c.cocs.iter().map(|(c, s)| (*c, s.peer)).collect();
            for (conn, peer) in conns {
                self.send_on_conn(node, conn, peer, out);
            }
            return;
        }
        let peer = NodeId(next_hop_ll.node_index());
        // No open L2CAP channel towards the hop means the frame cannot
        // leave.
        let conn = c.conn_to(peer).filter(|_| c.has_channel_to(next_hop_ll));
        let Some(conn) = conn else {
            self.obs.reg.inc(self.obs.m.ipv6_send_failures, node);
            self.records.drop("link_down");
            return;
        };
        self.send_on_conn(node, conn, peer, out);
    }

    /// Adv-mode IP egress: compress per hop and queue on the
    /// advertising transport. Multicast replicates to every current
    /// neighbor as link-layer unicast, mirroring the conn path's
    /// per-link replication (RFC 7668 semantics).
    fn send_ip_adv(&mut self, node: NodeId, out: Outgoing<'_>, next_hop_ll: LlAddr) {
        let Link::Adv(adv) = &self.nodes[node.index()].link else {
            return;
        };
        if next_hop_ll == LlAddr::BROADCAST {
            for peer in adv.neighbors() {
                self.send_on_adv(node, peer, out);
            }
            return;
        }
        let peer = NodeId(next_hop_ll.node_index());
        // A next hop we have never heard a beacon from cannot be
        // reached yet.
        match adv.admit(next_hop_ll) {
            TxAdmission::Ok => self.send_on_adv(node, peer, out),
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

    fn send_on_adv(&mut self, node: NodeId, peer: NodeId, out: Outgoing<'_>) {
        let ctx = LinkContext {
            src: LlAddr::from_node_index(node.0),
            dst: LlAddr::from_node_index(peer.0),
        };
        let mut frame = Vec::new();
        out.encode(&ctx, &mut frame);
        let Link::Adv(adv) = &mut self.nodes[node.index()].link else {
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

    /// 802.15.4 IP egress: compress for the hop and queue the frame on
    /// the MAC as one MAC payload. A frame over `MAX_MAC_PAYLOAD` is
    /// dropped as `ieee_too_big`. Multicast goes out as one MAC
    /// broadcast.
    fn send_ip_ieee(&mut self, node: NodeId, out: Outgoing<'_>, next_hop_ll: LlAddr) {
        let now = self.queue.now();
        let dst = (next_hop_ll != LlAddr::BROADCAST).then(|| NodeId(next_hop_ll.node_index()));
        let ctx = LinkContext {
            src: LlAddr::from_node_index(node.0),
            dst: dst.map_or(LlAddr::BROADCAST, |d| LlAddr::from_node_index(d.0)),
        };
        let mut frame6 = Vec::new();
        out.encode(&ctx, &mut frame6);
        if frame6.len() > MAX_MAC_PAYLOAD {
            self.records.drop("ieee_too_big");
            return;
        }
        self.with_mac(node, |mac, _| mac.enqueue(now, dst, frame6));
    }

    fn mac_timer(&mut self, now: Instant, node: NodeId, timer: MacTimer) {
        self.with_mac(node, |mac, medium| {
            // CCA consults the live medium.
            let channel = Channel::ieee802154(CHANNEL);
            mac.on_timer(now, timer, || medium.carrier_sense(node, channel, now))
        });
    }

    /// Execute the 802.15.4 MAC's output actions — the MAC
    /// counterpart of [`World::apply_ll`]. MAC events stay unkeyed, so
    /// same-instant ties fire in insertion order: the receivers of one
    /// frame arm timers on the same nanosecond, and keying them by
    /// node would reorder those ties and change the 802.15.4 results.
    fn apply_mac(&mut self, node: NodeId, outputs: Vec<MacOutput>) {
        let now = self.queue.now();
        for o in outputs {
            match o {
                MacOutput::Arm { at, timer } => {
                    self.queue
                        .schedule_at(at.max(now), Ev::MacTimer(node, timer));
                }
                MacOutput::Tx { frame } => {
                    let channel = Channel::ieee802154(CHANNEL);
                    self.begin_tx(now, node, channel, AirFrame::Mac(frame));
                }
                MacOutput::Rx { src, payload } => self.handle_sdu(node, src, &payload),
                MacOutput::TxOk => {}
                MacOutput::TxFailed { reason } => {
                    self.records.drop(reason);
                    self.trace.emit();
                }
            }
        }
    }

    /// Compress `out` for the hop to `peer` into a buffer from the
    /// node's pool and queue it on the channel of `conn`.
    fn send_on_conn(&mut self, node: NodeId, conn: ConnId, peer: NodeId, out: Outgoing<'_>) {
        let ctx = LinkContext {
            src: LlAddr::from_node_index(node.0),
            dst: LlAddr::from_node_index(peer.0),
        };
        let Some(ConnLink { ll, cocs, pool, .. }) = self.nodes[node.index()].link.conn_mut() else {
            return;
        };
        let Some(coc) = cocs.iter_mut().find(|(c, _)| *c == conn).map(|(_, s)| s) else {
            self.records.drop("link_down");
            return;
        };
        let mut frame = ll.buffers().take();
        out.encode(&ctx, &mut frame);
        match coc.chan.queue_sdu(frame, pool) {
            Ok(()) => {
                self.obs.reg.inc(self.obs.m.l2cap_sdu_tx, node);
                self.pump(node, conn)
            }
            Err((_, frame)) => {
                ll.recycle(frame);
                // The paper's §5.2 loss mechanism: mbuf pool exhausted.
                self.obs.reg.inc(self.obs.m.l2cap_mbuf_drops, node);
                self.record_recovery_span(
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
        let mut packet = std::mem::take(&mut self.tx_packet);
        packet.clear();
        packet.resize(UDP_HEADROOM, 0);
        self.nodes[node.index()].client.request_into(
            now.nanos(),
            MsgType::NonConfirmable,
            Code::GET,
            BENCH_PATH,
            &self.req_payload,
            &mut packet,
        );
        self.obs.reg.inc(self.obs.m.coap_req_tx, node);
        self.records.coap_sent(node, now);
        self.send_udp_packet(node, consumer, COAP_PORT, COAP_PORT, &mut packet);
        self.tx_packet = packet;
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
