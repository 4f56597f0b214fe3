//! The four workloads, and the phase-stepped path that runs one of
//! them through the public `World` API with a host timestamp at every
//! phase boundary.
//!
//! The phase-stepped path makes exactly the calls `run_ble` makes —
//! same world construction, same `run_until` boundaries, same harvest —
//! so its result must be bit-identical to `run_ble` on the same spec.
//! The benchmark checks that on every invocation.

use std::time::Instant as HostInstant;

use mindgap_core::{AppConfig, IntervalPolicy, TransportMode, World, WorldConfig};
use mindgap_obs::MetricsSnapshot;
use mindgap_sim::{Duration, Instant, NodeId};
use mindgap_testbed::{ExperimentResult, ExperimentSpec, MeshTopology, Topology};

use crate::stats::Fingerprint;

/// Seed of `mesh500`'s node placement. The field is part of the
/// workload's definition, as `paper_tree` is of the trees; `--seed`
/// drives the simulation on it. (Drawing a new field per seed moved
/// the DODAG's depth, and with it RTT p50 by ±30 % between seeds.)
const MESH_FIELD_SEED: u64 = 42;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7: the 15-node tree, static 75 ms, 1 s producers, 1 h.
    Tree1h,
    /// Fig. 9a: the same tree overloaded by 100 ms producers.
    TreeBurst,
    /// 500-node random-geometric mesh under RPL, randomized intervals.
    Mesh500,
    /// The tree over the extended-advertising transport.
    AdvTree,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Tree1h,
        Workload::TreeBurst,
        Workload::Mesh500,
        Workload::AdvTree,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tree1h => "tree-1h",
            Workload::TreeBurst => "tree-burst",
            Workload::Mesh500 => "mesh500",
            Workload::AdvTree => "adv-tree",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent simulations one rep of the workload runs. How an
    /// overloaded tree's queues build up depends on each seed's draw of
    /// connection intervals, so its rep pools sixteen sub-seeds' 60 s
    /// windows: with four 150 s windows RTT p99's interquartile spread
    /// across seeds was 16 %, with sixteen 60 s windows it is 5 %.
    pub fn subruns(self) -> u64 {
        match self {
            Workload::TreeBurst => 16,
            _ => 1,
        }
    }

    /// Build the experiment spec of sub-run `sub` for `seed`. For
    /// `mesh500` this generates the topology, which is why it is timed
    /// as set-up.
    pub fn spec(self, seed: u64, sub: u64) -> ExperimentSpec {
        // Sub-run 0 uses the seed itself; the others are spread far
        // apart so neighbouring seeds share no sub-run.
        let seed = seed.wrapping_add(sub.wrapping_mul(1_000_003));
        let static75 = IntervalPolicy::Static(Duration::from_millis(75));
        let tree = |policy| ExperimentSpec::paper_default(Topology::paper_tree(), policy, seed);
        match self {
            Workload::Tree1h => tree(static75),
            // Randomized intervals (the paper's fix for shading, §6.3):
            // with static ones, whether fast producers overload the tree
            // depends on each seed's drift-induced shading, and CoAP PDR
            // swings between 0.5 and 1.0 from seed to seed. With them,
            // 80 ms producers (12.5× `tree-1h`'s load) overload it the
            // same way every time (PDR ≈ 0.94).
            Workload::TreeBurst => tree(IntervalPolicy::Randomized {
                lo: Duration::from_millis(65),
                hi: Duration::from_millis(85),
            })
            .with_producer_interval(Duration::from_millis(80))
            .with_duration(Duration::from_secs(60)),
            Workload::Mesh500 => ExperimentSpec::mesh_default(
                MeshTopology::random_geometric(500, 800.0, MESH_FIELD_SEED),
                IntervalPolicy::Randomized {
                    lo: Duration::from_millis(65),
                    hi: Duration::from_millis(85),
                },
                seed,
            )
            // 20 s producers instead of `mesh_default`'s 30 s: 1.5× the
            // RTT samples cut RTT p99's interquartile spread across seeds
            // from 12 % to 5 %, and the DODAG still delivers ~90 %.
            .with_producer_interval(Duration::from_secs(20))
            .with_duration(Duration::from_secs(120)),
            Workload::AdvTree => tree(static75)
                .with_adv_transport()
                .with_duration(Duration::from_secs(1800)),
        }
    }
}

/// Host-time stamps of one phase-stepped run, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Spec construction, including topology generation.
    pub topology_s: f64,
    /// `World::new`.
    pub world_new_s: f64,
    /// Static per-link PER installation (meshes only).
    pub per_install_s: f64,
    /// Formation phase: `run_until(warmup)`.
    pub formation_s: f64,
    /// Kernel events processed during formation.
    pub formation_events: u64,
    /// Measured window plus drain.
    pub steady_s: f64,
    /// Kernel events processed after formation.
    pub steady_events: u64,
    /// Result harvest (counters, snapshot, records).
    pub harvest_s: f64,
    /// Of the harvest, the `obs_snapshot` call alone.
    pub snapshot_s: f64,
}

impl PhaseTimes {
    /// Accumulate another sub-run's times.
    pub fn add(&mut self, o: &PhaseTimes) {
        self.topology_s += o.topology_s;
        self.world_new_s += o.world_new_s;
        self.per_install_s += o.per_install_s;
        self.formation_s += o.formation_s;
        self.formation_events += o.formation_events;
        self.steady_s += o.steady_s;
        self.steady_events += o.steady_events;
        self.harvest_s += o.harvest_s;
        self.snapshot_s += o.snapshot_s;
    }

    /// Spec → first simulated event.
    pub fn setup_s(&self) -> f64 {
        self.topology_s + self.world_new_s + self.per_install_s
    }

    /// Host time spent inside `run_until`.
    pub fn simulate_s(&self) -> f64 {
        self.formation_s + self.steady_s
    }

    /// Spec → finished result.
    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.simulate_s() + self.harvest_s
    }
}

/// One slice of a traced run: the host time a `run_until` step took
/// and the kernel events it processed.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Phase the slice belongs to.
    pub phase: &'static str,
    /// Simulated time at the end of the slice, seconds.
    pub sim_end_s: f64,
    /// Host time of the slice, nanoseconds.
    pub host_ns: u64,
    /// Kernel events processed in the slice.
    pub events: u64,
}

/// Build the world for `spec` exactly as `run_ble` does for a static
/// (non-peers) topology: `World::new`, then the mesh's per-link PER.
fn build_world(spec: &ExperimentSpec, t: &mut PhaseTimes) -> World {
    assert!(
        spec.peers.is_none() && spec.faults.is_none() && spec.par <= 1 && spec.link_per.is_empty(),
        "the benchmark's workloads are static, fault-free and serial"
    );
    let start = HostInstant::now();
    let (node_cfgs, producers, consumer) = match &spec.mesh {
        Some(m) => (m.node_configs(), m.producers(), m.consumer),
        None => (
            spec.topology.node_configs(),
            spec.topology.producers(),
            spec.topology.consumer,
        ),
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
        cfg.rpl_dao_period_ticks = 6;
    }
    let mut world = World::new(cfg, node_cfgs, app);
    let built = HostInstant::now();
    if let Some(m) = &spec.mesh {
        for (a, b, per) in m.link_per_list() {
            world.set_link_per(NodeId(a), NodeId(b), per);
        }
    }
    t.world_new_s = (built - start).as_secs_f64();
    t.per_install_s = built.elapsed().as_secs_f64();
    world
}

/// Set sub-run `sub` up once: spec (with topology generation), world,
/// per-link PER. Returns the world ready for its first event.
pub fn set_up(w: Workload, seed: u64, sub: u64) -> (ExperimentSpec, World, PhaseTimes) {
    let mut t = PhaseTimes::default();
    let start = HostInstant::now();
    let spec = w.spec(seed, sub);
    t.topology_s = start.elapsed().as_secs_f64();
    let world = build_world(&spec, &mut t);
    (spec, world, t)
}

/// Advance `world` from `from` to `to`, in one call or (when `spans`
/// is given) in 1 s simulated slices with a span per slice. Slicing
/// only adds observation points; the event stream is the same.
fn advance(
    world: &mut World,
    from: Instant,
    to: Instant,
    phase: &'static str,
    spans: Option<&mut Vec<Span>>,
) {
    let Some(spans) = spans else {
        world.run_until(to);
        return;
    };
    let mut at = from;
    while at < to {
        at = (at + Duration::from_secs(1)).min(to);
        let (e0, h0) = (world.events_processed(), HostInstant::now());
        world.run_until(at);
        spans.push(Span {
            phase,
            sim_end_s: at.nanos() as f64 / 1e9,
            host_ns: h0.elapsed().as_nanos() as u64,
            events: world.events_processed() - e0,
        });
    }
}

/// Run a set-up world through formation, measurement and drain, then
/// harvest it into the same `ExperimentResult` `run_ble` returns.
/// `between` runs, untimed, after formation and after measurement.
pub fn run_phases(
    spec: &ExperimentSpec,
    mut world: World,
    t: &mut PhaseTimes,
    mut spans: Option<&mut Vec<Span>>,
    between: &mut dyn FnMut(),
) -> ExperimentResult {
    let warm = Instant::ZERO + spec.warmup;
    let end = warm + spec.duration;
    let drained = end + Duration::from_secs(10);
    let start = HostInstant::now();
    advance(
        &mut world,
        Instant::ZERO,
        warm,
        "formation",
        spans.as_deref_mut(),
    );
    world.reset_records();
    t.formation_s = start.elapsed().as_secs_f64();
    t.formation_events = world.events_processed();
    between();

    let start = HostInstant::now();
    advance(&mut world, warm, end, "measure", spans.as_deref_mut());
    let measure_s = start.elapsed().as_secs_f64();
    between();
    let start = HostInstant::now();
    advance(&mut world, end, drained, "drain", spans);
    t.steady_s = measure_s + start.elapsed().as_secs_f64();
    t.steady_events = world.events_processed() - t.formation_events;

    let start = HostInstant::now();
    let n = node_count(spec) as u16;
    let reconnects = (0..n).map(|i| world.reconnects(NodeId(i))).sum();
    let pool_drops = (0..n).map(|i| world.pool_drops(NodeId(i))).sum();
    let skipped_events = (0..n)
        .map(|i| world.ll_counters(NodeId(i)).skipped_events)
        .collect();
    let trace_dropped = world.trace.dropped();
    let events_processed = world.events_processed();
    let snap = HostInstant::now();
    let metrics = world.obs_snapshot();
    t.snapshot_s = snap.elapsed().as_secs_f64();
    let timeline = std::mem::take(&mut world.obs.timeline);
    let recovery = mindgap_chaos::recovery::analyze(&timeline);
    let records = world.into_records();
    let conn_losses = records.conn_losses.len();
    let res = ExperimentResult {
        conn_losses,
        reconnects,
        pool_drops,
        skipped_events,
        trace_dropped,
        events_processed,
        metrics,
        timeline,
        recovery,
        convergence_s: None,
        label: label_of(spec),
        records,
        par_stats: None,
    };
    t.harvest_s = start.elapsed().as_secs_f64();
    res
}

/// The label `run_ble` gives a static-topology run.
fn label_of(spec: &ExperimentSpec) -> String {
    let topo = match &spec.mesh {
        Some(m) => m.name.clone(),
        None => spec.topology.name.to_string(),
    };
    let transport = match spec.transport {
        TransportMode::Conn => spec.policy.label(),
        TransportMode::Adv(_) => "adv".to_string(),
    };
    format!(
        "{topo} {transport} producer={}ms",
        spec.producer_interval.millis()
    )
}

/// Node count of the spec's topology.
pub fn node_count(spec: &ExperimentSpec) -> usize {
    spec.mesh
        .as_ref()
        .map_or(spec.topology.len(), MeshTopology::len)
}

/// The simulated outcome of a rep, pooled over its sub-runs: ratios
/// of summed counts, quantiles over all RTT samples.
pub fn fingerprint(results: &[ExperimentResult]) -> Fingerprint {
    let sum = |f: &dyn Fn(&ExperimentResult) -> u64| results.iter().map(f).sum::<u64>();
    let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
    let mut rtt: Vec<f64> = results
        .iter()
        .flat_map(|r| r.records.rtt.iter().map(|s| s.rtt.as_secs_f64()))
        .collect();
    rtt.sort_by(f64::total_cmp);
    // Nearest rank, as `Records::rtt_quantile_secs` picks it.
    let ms = |q: f64| match rtt.len() {
        0 => f64::NAN,
        n => rtt[((n - 1) as f64 * q).round() as usize] * 1e3,
    };
    let ll = |pick: fn(&(u64, u64)) -> u64| {
        sum(&|r| {
            r.records
                .links
                .values()
                .flat_map(|l| l.buckets.iter().map(pick))
                .sum()
        })
    };
    Fingerprint {
        events: sum(&|r| r.events_processed),
        coap_pdr: ratio(
            sum(&|r| r.records.total_done()),
            sum(&|r| r.records.total_sent()),
        ),
        rtt_p50_ms: ms(0.5),
        rtt_p99_ms: ms(0.99),
        ll_pdr: ratio(ll(|b| b.1), ll(|b| b.0)),
        conn_losses: sum(&|r| r.conn_losses as u64),
    }
}

/// Sanity conditions every rep's results must meet, beyond matching
/// the other reps. Returns the first violated one.
pub fn invariant_violation(results: &[ExperimentResult]) -> Option<String> {
    for res in results {
        let r = &res.records;
        let pdr = r.coap_pdr();
        if !(pdr > 0.0 && pdr <= 1.0) {
            return Some(format!("coap_pdr {pdr} outside (0, 1]"));
        }
        if r.total_done() > r.total_sent() {
            return Some(format!(
                "{} responses for {} requests",
                r.total_done(),
                r.total_sent()
            ));
        }
        let (req, resp) = (
            total(&res.metrics, "coap_req_tx"),
            total(&res.metrics, "coap_resp_rx"),
        );
        if resp > req {
            return Some(format!("obs: {resp} responses received for {req} requests"));
        }
    }
    // rtt_p99_ms is only meaningful with ten samples beyond it.
    let samples: usize = results.iter().map(|r| r.records.rtt.len()).sum();
    if samples < 1000 {
        return Some(format!("only {samples} RTT samples; p99 needs 1000"));
    }
    None
}

/// Network-wide total of an obs metric, 0 when the world did not
/// register it (e.g. advertising counters in connection mode).
pub fn total(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.get(name).map_or(0.0, |e| e.total())
}
