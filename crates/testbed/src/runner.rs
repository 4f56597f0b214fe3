//! One-call experiment execution.
//!
//! An [`ExperimentSpec`] captures everything the paper's YAML
//! descriptions do (§A.3): topology, interval policy, workload,
//! duration, seed. [`run_ble`] / [`run_ieee`] build a BLE or an
//! 802.15.4 [`World`], let the network form during the warmup, then
//! measure for the configured duration and return an
//! [`ExperimentResult`].

use mindgap_chaos::recovery::FaultRecovery;
use mindgap_chaos::FaultSchedule;
use mindgap_core::{
    AdvConfig, AppConfig, IeeeConfig, IntervalPolicy, NodeConfig, PeersWorldConfig, Records,
    TransportMode, World, WorldConfig,
};
use mindgap_sim::{Duration, Instant, NodeId};

use crate::topology::{MeshTopology, Topology};

/// Dynamic peer management for a run (DESIGN.md §12). Requires a
/// generated mesh ([`ExperimentSpec::mesh`]) for node positions; the
/// world then starts **cold** — no statconn edges — and forms its
/// connection graph from discovery + RSSI-ranked policy alone.
#[derive(Debug, Clone, Default)]
pub struct PeersSpec {
    /// Whether nodes walk (`false` = static field). The consumer/root
    /// never moves.
    pub mobile: bool,
}

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Network shape.
    pub topology: Topology,
    /// Generated large-mesh topology (scaling studies). When set it
    /// replaces [`ExperimentSpec::topology`] wholesale: node configs,
    /// producers, consumer, radio range and per-link PER all come from
    /// the mesh, and the world is built with only the mesh's radio
    /// links in range. Pair with
    /// [`ExperimentSpec::dynamic_routing`] — meshes carry no static
    /// routes.
    pub mesh: Option<MeshTopology>,
    /// Run the RPL-style routing agent instead of static routes
    /// (BLE only; the consumer acts as DODAG root).
    pub dynamic_routing: bool,
    /// Connection-interval policy (BLE only).
    pub policy: IntervalPolicy,
    /// Producer base interval.
    pub producer_interval: Duration,
    /// Producer jitter (±).
    pub producer_jitter: Duration,
    /// Measured duration (after warmup).
    pub duration: Duration,
    /// Warmup for network formation (not measured).
    pub warmup: Duration,
    /// Master seed.
    pub seed: u64,
    /// Per-node clock drift range in ppm (±). The paper measured up
    /// to 6 µs/s relative drift between board pairs (§6.2).
    pub clock_ppm_range: f64,
    /// Timeline ring capacity in events (0 disables span recording;
    /// metrics counters and fault recovery are unaffected). BLE only.
    pub timeline_cap: usize,
    /// Scripted faults to inject (BLE only; see `mindgap-chaos`).
    /// `None` runs fault-free with zero chaos overhead.
    pub faults: Option<FaultSchedule>,
    /// Override the supervision timeout statconn requests (BLE only;
    /// `None` keeps the policy default). Must exceed the largest
    /// drawable connection interval.
    pub supervision_timeout: Option<Duration>,
    /// Link transport: connection-oriented L2CAP (the paper's path,
    /// default) or connection-less extended advertising (BLE only).
    pub transport: TransportMode,
    /// Extra static packet-error rate per link, `(a, b, per)`,
    /// installed symmetrically after world construction (BLE only).
    /// Empty leaves the medium untouched.
    pub link_per: Vec<(u16, u16, f64)>,
    /// CoAP request payload bytes (default: the paper's 39, §4.3).
    pub payload: usize,
    /// Dynamic peer management (BLE only; needs `mesh`). `Some` starts
    /// the world cold and lets discovery + policy form the connection
    /// graph; `None` keeps statconn's static edges.
    pub peers: Option<PeersSpec>,
    /// Inert: nothing reads it, and every run uses the one serial
    /// event loop. It stays only because the external `perfbench`
    /// crate asserts `spec.par <= 1` (`perfbench/src/workload.rs:188`),
    /// and that crate is frozen.
    pub par: usize,
}

impl ExperimentSpec {
    /// The paper's defaults: given topology and policy, producer
    /// interval 1 s ±0.5 s, 1 h runtime.
    pub fn paper_default(topology: Topology, policy: IntervalPolicy, seed: u64) -> Self {
        ExperimentSpec {
            topology,
            mesh: None,
            dynamic_routing: false,
            policy,
            producer_interval: Duration::from_secs(1),
            producer_jitter: Duration::from_millis(500),
            duration: Duration::from_secs(3600),
            warmup: Duration::from_secs(30),
            seed,
            clock_ppm_range: 3.0,
            timeline_cap: 1 << 16,
            faults: None,
            supervision_timeout: None,
            transport: TransportMode::Conn,
            link_per: Vec::new(),
            payload: mindgap_core::COAP_PAYLOAD,
            peers: None,
            par: 1,
        }
    }

    /// Defaults for a generated large mesh: the paper's producer
    /// cadence is scaled back (30 s ±15 s — at hundreds of nodes the
    /// aggregate rate at the root is what matters), RPL routing is on,
    /// and the warmup is stretched to 120 s so the DODAG converges
    /// before measurement.
    pub fn mesh_default(mesh: MeshTopology, policy: IntervalPolicy, seed: u64) -> Self {
        // The `topology` field is a placeholder here; `mesh` overrides
        // every use of it in `run_ble`.
        let mut spec = Self::paper_default(Topology::line(2), policy, seed)
            .with_producer_interval(Duration::from_secs(30));
        spec.mesh = Some(mesh);
        spec.dynamic_routing = true;
        spec.warmup = Duration::from_secs(120);
        spec
    }

    /// Override the timeline ring capacity (0 disables span capture).
    pub fn with_timeline_cap(mut self, cap: usize) -> Self {
        self.timeline_cap = cap;
        self
    }

    /// Override the clock-drift range (±ppm).
    pub fn with_clock_ppm(mut self, ppm: f64) -> Self {
        self.clock_ppm_range = ppm;
        self
    }

    /// Shorten the run (quick mode for CI and `--quick` benches).
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Adjust the producer interval, keeping the paper's ±50 % jitter.
    pub fn with_producer_interval(mut self, interval: Duration) -> Self {
        self.producer_interval = interval;
        self.producer_jitter = interval / 2;
        self
    }

    /// Install a fault schedule (BLE only).
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Override the supervision timeout (BLE only).
    pub fn with_supervision_timeout(mut self, timeout: Duration) -> Self {
        self.supervision_timeout = Some(timeout);
        self
    }

    /// Select the link transport (BLE only).
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.transport = transport;
        self
    }

    /// Switch to the advertising transport with its default tuning.
    pub fn with_adv_transport(self) -> Self {
        self.with_transport(TransportMode::Adv(AdvConfig::default()))
    }

    /// Add a static symmetric packet-error rate on one link (BLE only).
    pub fn with_link_per(mut self, a: u16, b: u16, per: f64) -> Self {
        self.link_per.push((a, b, per));
        self
    }

    /// Override the CoAP request payload size.
    pub fn with_payload(mut self, payload: usize) -> Self {
        self.payload = payload;
        self
    }

    /// Enable dynamic peer management (BLE only; needs
    /// [`ExperimentSpec::mesh`] for positions).
    /// Forces RPL routing — a cold-started world has no static routes.
    pub fn with_peers(mut self) -> Self {
        self.peers = Some(PeersSpec::default());
        self.dynamic_routing = true;
        self
    }

    /// Enable dynamic peer management with walking nodes.
    pub fn with_peers_mobility(mut self) -> Self {
        self.peers = Some(PeersSpec { mobile: true });
        self.dynamic_routing = true;
        self
    }
}

/// Everything a figure needs from one run.
pub struct ExperimentResult {
    /// Measurement records (collected after warmup).
    pub records: Records,
    /// BLE connection losses during measurement (equals
    /// `records.conn_losses.len()`, kept for convenience).
    pub conn_losses: usize,
    /// statconn reconnect count summed over nodes.
    pub reconnects: u64,
    /// mbuf-pool drops summed over nodes (BLE).
    pub pool_drops: u64,
    /// Per-node skipped-event counts (BLE shading signal).
    pub skipped_events: Vec<u64>,
    /// Control-plane trace emits beyond the 2²⁰ budget
    /// ([`mindgap_sim::Trace::dropped`]); no records are stored.
    pub trace_dropped: u64,
    /// Kernel events processed over the whole run (warmup + measured
    /// + drain) — the denominator of events-per-second figures.
    pub events_processed: u64,
    /// Layered metrics snapshot taken at the end of the run (cumulative
    /// over warmup + measured + drain). Empty when the workspace is
    /// built with `obs-off`.
    pub metrics: mindgap_obs::MetricsSnapshot,
    /// The run's span timeline, moved out of the world before record
    /// extraction: an export window of the last `timeline_cap` spans.
    /// Empty when `timeline_cap` is 0 and under `obs-off`.
    pub timeline: mindgap_obs::Timeline,
    /// Per-fault recovery metrics, one per fault the run reached, in
    /// firing order (empty without a fault schedule and for IEEE
    /// runs). The world folds them as it records the spans, so they
    /// do not depend on `timeline_cap` or on `obs-off`.
    pub recovery: Vec<FaultRecovery>,
    /// Cold-start convergence time in seconds: first 1 s-granular
    /// instant at which every non-root node holds an RPL parent
    /// (peers mode only; `None` for statconn runs, IEEE runs, and
    /// peers runs that never fully converged).
    pub convergence_s: Option<f64>,
    /// Label for tables ("tree static 75ms" …).
    pub label: String,
    /// Inert: the type cannot hold a value, so this is always `None`.
    /// It stays only because the external `perfbench` crate builds
    /// this struct with `par_stats: None`
    /// (`perfbench/src/workload.rs:332`), and that crate is frozen.
    pub par_stats: Option<std::convert::Infallible>,
}

/// Run a BLE experiment.
pub fn run_ble(spec: &ExperimentSpec) -> ExperimentResult {
    let (node_cfgs, producers, consumer, topo_name, n) = match &spec.mesh {
        Some(m) => (
            m.node_configs(),
            m.producers(),
            m.consumer,
            m.name.clone(),
            m.len(),
        ),
        None => (
            spec.topology.node_configs(),
            spec.topology.producers(),
            spec.topology.consumer,
            spec.topology.name.to_string(),
            spec.topology.len(),
        ),
    };
    // Peers mode starts cold: the mesh's statconn edges and static
    // routes are discarded — discovery + policy must form the graph.
    let node_cfgs = if spec.peers.is_some() {
        (0..n)
            .map(|_| NodeConfig {
                edges: Vec::new(),
                routes: Vec::new(),
            })
            .collect()
    } else {
        node_cfgs
    };
    let app = AppConfig {
        producer_interval: spec.producer_interval,
        producer_jitter: spec.producer_jitter,
        warmup: spec.warmup,
        payload: spec.payload,
        ..AppConfig::paper_default(producers, consumer)
    };
    let mut cfg = WorldConfig::paper_default(spec.seed, spec.policy);
    cfg.clock_ppm_range = spec.clock_ppm_range;
    cfg.timeline_cap = spec.timeline_cap;
    cfg.supervision_timeout = spec.supervision_timeout;
    cfg.transport = spec.transport;
    cfg.dynamic_routing = spec.dynamic_routing;
    if let Some(m) = &spec.mesh {
        cfg.radio_links = Some(m.links.clone());
        // DAO refresh every 30 s instead of 5 s: at hundreds of nodes
        // the per-5s DAO funnel saturates near-root relays (every DAO
        // is forwarded hop-by-hop, so a relay forwards O(subtree) of
        // them per refresh). Reparenting still announces immediately.
        cfg.rpl_dao_period_ticks = 6;
    }
    if let Some(p) = &spec.peers {
        let m = spec
            .mesh
            .as_ref()
            .expect("peers mode needs a generated mesh for node positions");
        cfg.dynamic_routing = true;
        // Geometry gates radio range and derives per-link PER from
        // positions — which is what lets mobility re-shape the radio
        // graph. Peers mode uses the mesh generator's path loss and
        // range cutoff. The mesh's precomputed adjacency would pin the
        // world to the initial positions, so drop it.
        cfg.radio_links = None;
        let (mut w, mut h) = (0.0f64, 0.0f64);
        for &(x, y) in &m.positions {
            w = w.max(x);
            h = h.max(y);
        }
        let mut pc = PeersWorldConfig::new(m.positions.clone(), (w + 1.0, h + 1.0), m.seed);
        pc.mobile = p.mobile;
        cfg.peers = Some(pc);
    }
    let peers_mode = spec.peers.is_some();
    let mut world = World::new(cfg, node_cfgs, app);
    if let Some(m) = &spec.mesh {
        if !peers_mode {
            // Distance-induced PER from the log-distance model, on top
            // of the Gilbert–Elliott chains (peers mode derives the
            // same PER live from geometry instead).
            for (a, b, per) in m.link_per_list() {
                world.set_link_per(NodeId(a), NodeId(b), per);
            }
        }
    }
    for &(a, b, per) in &spec.link_per {
        world.set_link_per(NodeId(a), NodeId(b), per);
    }
    if let Some(faults) = &spec.faults {
        world.install_faults(faults);
    }
    let end = Instant::ZERO + spec.warmup + spec.duration;
    let mut convergence_s = None;
    if peers_mode {
        // Step in 1 s increments to observe the first instant the
        // DODAG covers every node — the run's convergence time.
        // (Event-stream identical to a single run_until: stepping only
        // adds observation points.)
        let mut t = Duration::ZERO;
        let total = spec.warmup + spec.duration;
        let observe = |world: &World, t: Duration, c: &mut Option<f64>| {
            if c.is_none() && rpl_converged(world, n, consumer) {
                *c = Some(t.nanos() as f64 / 1e9);
            }
        };
        while t < spec.warmup {
            t = (t + Duration::from_secs(1)).min(spec.warmup);
            world.run_until(Instant::ZERO + t);
            observe(&world, t, &mut convergence_s);
        }
        world.reset_records();
        while t < total {
            t = (t + Duration::from_secs(1)).min(total);
            world.run_until(Instant::ZERO + t);
            observe(&world, t, &mut convergence_s);
        }
    } else {
        // Formation phase.
        world.run_until(Instant::ZERO + spec.warmup);
        world.reset_records();
        world.run_until(end);
    }
    // Drain: let in-flight exchanges finish so PDR is not truncated.
    let drained = end + Duration::from_secs(10);
    world.run_until(drained);

    let transport_label = match spec.transport {
        TransportMode::Conn => spec.policy.label(),
        TransportMode::Adv(_) => "adv".to_string(),
    };
    let mode = if peers_mode { "peers " } else { "" };
    let label = format!(
        "{} {}{} producer={}ms",
        topo_name,
        mode,
        transport_label,
        spec.producer_interval.millis()
    );
    harvest(world, n, label, convergence_s)
}

/// Collect a finished run's counters, metrics, timeline and records.
fn harvest(
    mut world: World,
    n: usize,
    label: String,
    convergence_s: Option<f64>,
) -> ExperimentResult {
    let reconnects = (0..n as u16).map(|i| world.reconnects(NodeId(i))).sum();
    let pool_drops = (0..n as u16).map(|i| world.pool_drops(NodeId(i))).sum();
    let skipped_events = (0..n as u16)
        .map(|i| world.ll_counters(NodeId(i)).skipped_events)
        .collect();
    let trace_dropped = world.trace.dropped();
    let events_processed = world.events_processed();
    let metrics = world.obs_snapshot();
    let timeline = std::mem::take(&mut world.obs.timeline);
    let recovery = world.recovery();
    let records = world.into_records();
    let conn_losses = records.conn_losses.len();
    ExperimentResult {
        conn_losses,
        reconnects,
        pool_drops,
        skipped_events,
        trace_dropped,
        events_processed,
        metrics,
        timeline,
        recovery,
        convergence_s,
        label,
        records,
        par_stats: None,
    }
}

/// Every non-root node holds an RPL parent — the DODAG covers the
/// mesh and upward routes exist everywhere.
fn rpl_converged(world: &World, n: usize, root: NodeId) -> bool {
    (0..n as u16).filter(|&i| NodeId(i) != root).all(|i| {
        world
            .rpl_state(NodeId(i))
            .map(|(_, parent)| parent.is_some())
            .unwrap_or(false)
    })
}

/// Run an IEEE 802.15.4 experiment on the same [`World`] event loop
/// (interval policy is ignored). Records cover the warmup too. Panics
/// on spec fields the 802.15.4 baseline cannot honour: `mesh`,
/// `peers`, `faults`, `link_per`, a non-`Conn` `transport` and
/// `dynamic_routing`.
pub fn run_ieee(spec: &ExperimentSpec) -> ExperimentResult {
    let unsupported = [
        ("mesh", spec.mesh.is_some()),
        ("peers", spec.peers.is_some()),
        ("faults", spec.faults.is_some()),
        ("link_per", !spec.link_per.is_empty()),
        ("transport", spec.transport != TransportMode::Conn),
        ("dynamic_routing", spec.dynamic_routing),
    ];
    for (field, set) in unsupported {
        assert!(!set, "run_ieee cannot honour ExperimentSpec::{field}");
    }
    let app = AppConfig {
        producer_interval: spec.producer_interval,
        producer_jitter: spec.producer_jitter,
        warmup: spec.warmup,
        payload: spec.payload,
        ..AppConfig::paper_default(spec.topology.producers(), spec.topology.consumer)
    };
    let cfg = IeeeConfig::paper_default(spec.seed);
    let mut world = World::new_ieee(cfg, spec.topology.node_configs(), app);
    let end = Instant::ZERO + spec.warmup + spec.duration;
    world.run_until(end);
    world.run_until(end + Duration::from_secs(10));
    let label = format!(
        "{} 802.15.4 producer={}ms",
        spec.topology.name,
        spec.producer_interval.millis()
    );
    harvest(world, spec.topology.len(), label, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tree_run_delivers() {
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(60));
        let res = run_ble(&spec);
        assert!(
            res.records.total_sent() > 500,
            "{}",
            res.records.total_sent()
        );
        assert!(
            res.records.coap_pdr() > 0.95,
            "tree PDR {}",
            res.records.coap_pdr()
        );
    }

    #[test]
    fn quick_mesh_run_forms_and_delivers() {
        // A 60-node random-geometric mesh: RPL converges during the
        // 120 s warmup, producers then deliver through the DODAG.
        let mesh = MeshTopology::random_geometric(60, 280.0, 42);
        let spec = ExperimentSpec::mesh_default(
            mesh,
            IntervalPolicy::Randomized {
                lo: Duration::from_millis(65),
                hi: Duration::from_millis(85),
            },
            42,
        )
        .with_duration(Duration::from_secs(120));
        let res = run_ble(&spec);
        assert!(res.label.starts_with("geo60"), "{}", res.label);
        assert!(
            res.records.total_sent() > 200,
            "{}",
            res.records.total_sent()
        );
        assert!(
            res.records.coap_pdr() > 0.7,
            "mesh PDR {}",
            res.records.coap_pdr()
        );
    }

    #[test]
    fn crash_fault_is_detected_and_recovered() {
        let faults = mindgap_chaos::FaultSchedule::new()
            // Crash the middle relay for 5 s, one minute in.
            .node_crash(Duration::from_secs(60), 1, Duration::from_secs(5));
        let spec = ExperimentSpec::paper_default(
            Topology::line(3),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(120))
        .with_faults(faults);
        let res = run_ble(&spec);
        assert_eq!(res.recovery.len(), 1, "one injected fault, one record");
        let r = res.recovery[0];
        assert_eq!(r.label, mindgap_chaos::labels::NODE_CRASH);
        assert_eq!(r.node, 1);
        // Detection is the peer's supervision timeout: strictly after
        // the crash, well under a minute.
        let detect = r.detect_ns.expect("crash must be detected");
        assert!(detect > 0 && detect < 60_000_000_000, "detect {detect} ns");
        // The node reboots after 5 s; statconn re-forms the edges.
        let reconnect = r.reconnect_ns.expect("crash must be recovered");
        assert!(reconnect > detect, "reconnect after detect");
        assert!(reconnect < 120_000_000_000, "reconnect {reconnect} ns");
    }

    #[test]
    fn quick_adv_line_run_delivers() {
        let spec = ExperimentSpec::paper_default(
            Topology::line(3),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(60))
        .with_adv_transport();
        let res = run_ble(&spec);
        assert!(res.label.contains("adv"), "{}", res.label);
        assert!(
            res.records.total_sent() > 50,
            "{}",
            res.records.total_sent()
        );
        assert!(
            res.records.coap_pdr() > 0.5,
            "adv line PDR {}",
            res.records.coap_pdr()
        );
    }

    #[test]
    fn quick_adv_tree_run_delivers() {
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(60))
        .with_adv_transport();
        let res = run_ble(&spec);
        assert!(
            res.records.total_sent() > 100,
            "{}",
            res.records.total_sent()
        );
        assert!(
            res.records.coap_pdr() > 0.5,
            "adv tree PDR {}",
            res.records.coap_pdr()
        );
    }

    #[test]
    fn link_per_degrades_delivery() {
        let base = ExperimentSpec::paper_default(
            Topology::line(3),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(60));
        let clean = run_ble(&base);
        let lossy = run_ble(
            &base
                .clone()
                .with_link_per(0, 1, 0.6)
                .with_link_per(1, 2, 0.6),
        );
        assert!(
            lossy.records.ll_attempts() > clean.records.ll_attempts(),
            "loss must force LL retransmissions ({} vs {})",
            lossy.records.ll_attempts(),
            clean.records.ll_attempts()
        );
    }

    #[test]
    fn peers_cold_start_converges_and_heals() {
        // The issue's headline scenario: a 50-node random-geometric
        // world starts with zero connections, forms a connected RPL
        // DODAG through discovery + peer policy alone, then heals
        // after a scripted crash/reboot burst.
        let mesh = MeshTopology::random_geometric(50, 250.0, 42);
        let faults = mindgap_chaos::FaultSchedule::new().churn(
            42,
            &(1..50u16).collect::<Vec<_>>(),
            Duration::from_secs(200),
            Duration::from_secs(60),
            4,
            Duration::from_secs(10),
        );
        let spec = ExperimentSpec::mesh_default(
            mesh,
            IntervalPolicy::Randomized {
                lo: Duration::from_millis(50),
                hi: Duration::from_millis(200),
            },
            42,
        )
        .with_peers()
        .with_producer_interval(Duration::from_secs(10))
        .with_duration(Duration::from_secs(180))
        .with_faults(faults);
        let res = run_ble(&spec);
        assert!(res.label.contains("peers"), "{}", res.label);
        let conv = res.convergence_s.expect("cold start must converge");
        assert!(
            conv < 120.0,
            "DODAG took {conv} s to cover 50 nodes (warmup is 120 s)"
        );
        assert!(
            res.records.total_sent() > 100,
            "{}",
            res.records.total_sent()
        );
        assert!(
            res.records.coap_pdr() > 0.5,
            "PDR under churn collapsed: {}",
            res.records.coap_pdr()
        );
        assert_eq!(res.recovery.len(), 4, "one record per scripted crash");
        // At least one crash must be detected and healed: a new
        // connection forms after the loss is noticed.
        let healed = res
            .recovery
            .iter()
            .any(|r| r.detect_ns.is_some() && r.reconnect_ns.is_some());
        assert!(healed, "no crash healed: {:?}", res.recovery);
    }

    /// Recovery is folded as spans are recorded, so a run that keeps
    /// no timeline reports the same recovery as one with a ring.
    #[test]
    fn recovery_does_not_depend_on_the_timeline_ring() {
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(70))
        .with_faults(mindgap_chaos::FaultSchedule::new().node_crash(
            Duration::from_secs(40),
            1,
            Duration::from_secs(5),
        ));
        let ring = run_ble(&spec).recovery;
        let none = run_ble(&spec.with_timeline_cap(0)).recovery;
        assert_eq!(none.len(), 1, "one injected fault, one record");
        assert!(none[0].detect_ns.is_some() && none[0].reconnect_ns.is_some());
        assert_eq!(none, ring);
    }

    #[test]
    fn quick_ieee_run_delivers() {
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(60));
        let res = run_ieee(&spec);
        assert!(res.records.total_sent() > 500);
        assert!(res.records.coap_pdr() > 0.5);
    }

    #[test]
    fn run_ieee_rejects_spec_fields_it_cannot_honour() {
        let base = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(1));
        let mesh = ExperimentSpec::mesh_default(
            MeshTopology::random_geometric(10, 100.0, 42),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        );
        let mut routed = base.clone();
        routed.dynamic_routing = true;
        let cases = [
            ("mesh", mesh),
            ("peers", base.clone().with_peers()),
            (
                "faults",
                base.clone()
                    .with_faults(mindgap_chaos::FaultSchedule::new()),
            ),
            ("link_per", base.clone().with_link_per(0, 1, 0.5)),
            ("transport", base.clone().with_adv_transport()),
            ("dynamic_routing", routed),
        ];
        for (field, spec) in cases {
            let err = std::panic::catch_unwind(|| run_ieee(&spec))
                .err()
                .unwrap_or_else(|| panic!("run_ieee accepted `{field}`"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.ends_with(&format!("ExperimentSpec::{field}")),
                "`{field}` spec panicked with {msg:?}"
            );
        }
    }
}
