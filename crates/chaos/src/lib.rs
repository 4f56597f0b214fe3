//! # mindgap-chaos — deterministic fault injection & recovery analysis
//!
//! The paper's multi-hop BLE results hinge on how the stack *recovers*:
//! supervision timeouts tearing down shaded connections (§6.2),
//! statconn reconnects (§6.3), RPL parent switches after link loss.
//! This crate makes failure a first-class, reproducible input instead
//! of something that happens incidentally inside figure runs.
//!
//! Three pieces:
//!
//! * [`FaultSchedule`] — a declarative, pure-data script of
//!   [`FaultKind`]s pinned to exact simulated instants, with a
//!   canonical serde-free JSON codec (same style as the campaign
//!   artifact store: sorted keys, shortest-round-trip floats), so a
//!   schedule can live in an artifact and round-trip byte-identically.
//! * The **injector** lives in `mindgap-core::World::install_faults`:
//!   faults become ordinary events on the simulation queue, so their
//!   timing is exact simulated time and byte-reproducible under any
//!   worker count. When no schedule is installed the hot path pays
//!   nothing.
//! * [`recovery`] — consumes the observability [`Timeline`]
//!   (`mindgap-obs`) and computes, per injected fault, time-to-detect
//!   (supervision-timeout latency), time-to-reconnect,
//!   time-to-RPL-repair and packets lost, ready for aggregation with
//!   `testbed::stats`.
//!
//! # Example
//!
//! Script a crash, a jammer burst, and a seeded churn window, then
//! round-trip the schedule through its canonical JSON:
//!
//! ```
//! use mindgap_chaos::{labels, FaultSchedule};
//! use mindgap_sim::Duration;
//!
//! let s = Duration::from_secs;
//! let sched = FaultSchedule::new()
//!     .node_crash(s(10), 3, s(5))
//!     .jammer_burst(s(20), 17, 0.9, s(4))
//!     .churn(42, &[1, 2, 3], s(30), s(60), 4, s(8));
//! assert_eq!(sched.len(), 6);
//! sched.validate(8).expect("every victim exists in an 8-node world");
//!
//! // Canonical codec: byte-identical round trip, artifact-safe.
//! let json = sched.to_json();
//! let back = FaultSchedule::from_json(&json).unwrap();
//! assert_eq!(back, sched);
//! assert_eq!(back.to_json(), json);
//!
//! // Injection labels open recovery-attribution windows.
//! assert!(labels::is_injection(labels::NODE_CRASH));
//! assert!(!labels::is_injection(labels::NODE_REBOOT));
//! ```
//!
//! [`Timeline`]: mindgap_obs::Timeline

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use mindgap_campaign::json::Value;
use mindgap_sim::Duration;

pub mod recovery;

pub use recovery::{analyze, FaultRecovery};

/// The `fault_`-prefixed labels the injector records as
/// [`mindgap_obs::Span::Fault`] markers. Injection labels start each
/// fault's attribution window; the clearing labels are documentation
/// markers only (restores, reboots, sweep steps).
pub mod labels {
    /// A node crashed (injection).
    pub const NODE_CRASH: &str = "fault_node_crash";
    /// A link went dark (injection).
    pub const LINK_BLACKOUT: &str = "fault_link_blackout";
    /// A link PER override was raised (injection).
    pub const PER_RAMP: &str = "fault_per_ramp";
    /// A channel jammer burst started (injection).
    pub const JAMMER_BURST: &str = "fault_jammer_burst";
    /// A jammer sweep started (injection).
    pub const JAMMER_SWEEP: &str = "fault_jammer_sweep";
    /// A clock-rate step was applied (injection).
    pub const CLOCK_DRIFT: &str = "fault_clock_drift";
    /// mbuf-pool bytes were seized (injection).
    pub const MBUF_PRESSURE: &str = "fault_mbuf_pressure";

    /// A crashed node rebooted (clearing).
    pub const NODE_REBOOT: &str = "fault_node_reboot";
    /// A blacked-out link came back (clearing).
    pub const LINK_RESTORE: &str = "fault_link_restore";
    /// A link PER override was removed (clearing).
    pub const PER_CLEAR: &str = "fault_per_clear";
    /// A jammer burst ended (clearing).
    pub const JAMMER_CLEAR: &str = "fault_jammer_clear";
    /// A sweeping jammer moved to its next channel.
    pub const SWEEP_STEP: &str = "fault_sweep_step";
    /// Seized mbuf bytes were released (clearing).
    pub const MBUF_RELEASE: &str = "fault_mbuf_release";

    /// `true` for labels that *start* a fault (and hence an
    /// attribution window in [`crate::recovery::analyze`]).
    pub fn is_injection(label: &str) -> bool {
        matches!(
            label,
            NODE_CRASH
                | LINK_BLACKOUT
                | PER_RAMP
                | JAMMER_BURST
                | JAMMER_SWEEP
                | CLOCK_DRIFT
                | MBUF_PRESSURE
        )
    }
}

/// Durations at or above this many nanoseconds mean "never cleared".
/// Chosen below 2^53 so the JSON round trip through `f64` is exact
/// (≈104 days of simulated time — far beyond any experiment).
pub const FOREVER_NS: u64 = (1 << 53) - 1;

/// A duration meaning "the fault is never cleared".
pub fn forever() -> Duration {
    Duration::from_nanos(FOREVER_NS)
}

/// One kind of scripted disturbance. Durations are "how long the
/// fault stays active"; pass [`forever`] to make it permanent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Power-cycle a node: the link layer, L2CAP channels, mbuf pool,
    /// statconn state and host stack are all rebuilt from scratch
    /// (full state loss). Peers find out the hard way, via their
    /// supervision timeouts. After `down_for` the node reboots and
    /// statconn re-forms its configured edges.
    NodeCrash {
        /// Index of the crashing node.
        node: u16,
        /// Outage length before the reboot.
        down_for: Duration,
    },
    /// Take the radio link between two nodes out of range in both
    /// directions, restoring it after `lasts`.
    LinkBlackout {
        /// One link end.
        a: u16,
        /// Other link end.
        b: u16,
        /// Blackout length.
        lasts: Duration,
    },
    /// Add a static packet-error-rate override on the `a ↔ b` link
    /// (both directions, on top of the Gilbert–Elliott chain). Step
    /// several of these to script a ramp.
    PerRamp {
        /// One link end.
        a: u16,
        /// Other link end.
        b: u16,
        /// Additional loss probability in `[0, 1]`.
        per: f64,
        /// How long the override holds.
        lasts: Duration,
    },
    /// Jam one data channel with an additional loss probability —
    /// a transient interferer beyond the static channel-22 jammer.
    JammerBurst {
        /// BLE data-channel index (0..=36).
        channel: u8,
        /// Loss probability while jammed.
        per: f64,
        /// Burst length.
        lasts: Duration,
    },
    /// A jammer sweeping a contiguous block of data channels: each
    /// channel is jammed for `dwell`, then the jammer moves on and
    /// the previous channel's interference level is restored.
    JammerSweep {
        /// First data channel of the sweep.
        first_channel: u8,
        /// Number of channels swept (wrapping is not modelled;
        /// `first_channel + channels` must stay ≤ 37).
        channels: u8,
        /// Loss probability on the currently jammed channel.
        per: f64,
        /// Time spent on each channel.
        dwell: Duration,
    },
    /// Step a node's crystal by `delta_ppm` (cumulative with earlier
    /// steps and the configured baseline drift). Never cleared.
    ClockDrift {
        /// Affected node.
        node: u16,
        /// Parts-per-million added to the node's clock rate.
        delta_ppm: f64,
    },
    /// Seize bytes from a node's mbuf pool, simulating competing
    /// allocations (e.g. a co-hosted application), and release them
    /// after `lasts`.
    MbufPressure {
        /// Affected node.
        node: u16,
        /// Bytes to seize (clamped to what is free at injection time).
        bytes: u32,
        /// How long the pressure holds.
        lasts: Duration,
    },
}

impl FaultKind {
    /// The kind tag used in the JSON encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::LinkBlackout { .. } => "link_blackout",
            FaultKind::PerRamp { .. } => "per_ramp",
            FaultKind::JammerBurst { .. } => "jammer_burst",
            FaultKind::JammerSweep { .. } => "jammer_sweep",
            FaultKind::ClockDrift { .. } => "clock_drift",
            FaultKind::MbufPressure { .. } => "mbuf_pressure",
        }
    }
}

/// One scheduled fault: *what* happens and *when* (simulated time
/// since world start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Injection instant, nanoseconds since simulation start.
    pub at_ns: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative fault script: pure data, built with the fluent
/// methods below, injected with `World::install_faults`, serialised
/// with [`FaultSchedule::to_json`].
///
/// ```
/// use mindgap_chaos::FaultSchedule;
/// use mindgap_sim::Duration;
///
/// let s = FaultSchedule::new()
///     .node_crash(Duration::from_secs(60), 4, Duration::from_secs(10))
///     .link_blackout(Duration::from_secs(120), 0, 1, Duration::from_secs(30));
/// let json = s.to_json();
/// assert_eq!(FaultSchedule::from_json(&json).unwrap(), s);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// The scripted faults, in script order. Ties in `at_ns` are
    /// injected in script order (the event queue is insertion-stable).
    pub faults: Vec<Fault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Whether the schedule contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Add an arbitrary fault at `at` (since simulation start).
    pub fn push(mut self, at: Duration, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            at_ns: at.nanos(),
            kind,
        });
        self
    }

    /// Crash `node` at `at`, rebooting it after `down_for`.
    pub fn node_crash(self, at: Duration, node: u16, down_for: Duration) -> Self {
        self.push(at, FaultKind::NodeCrash { node, down_for })
    }

    /// Black out the `a ↔ b` radio link at `at` for `lasts`.
    pub fn link_blackout(self, at: Duration, a: u16, b: u16, lasts: Duration) -> Self {
        self.push(at, FaultKind::LinkBlackout { a, b, lasts })
    }

    /// Raise the `a ↔ b` loss probability by `per` at `at` for `lasts`.
    pub fn per_ramp(self, at: Duration, a: u16, b: u16, per: f64, lasts: Duration) -> Self {
        self.push(at, FaultKind::PerRamp { a, b, per, lasts })
    }

    /// Jam one data channel at `at` for `lasts`.
    pub fn jammer_burst(self, at: Duration, channel: u8, per: f64, lasts: Duration) -> Self {
        self.push(at, FaultKind::JammerBurst { channel, per, lasts })
    }

    /// Sweep a jammer across `channels` channels starting at
    /// `first_channel`, `dwell` per channel.
    pub fn jammer_sweep(
        self,
        at: Duration,
        first_channel: u8,
        channels: u8,
        per: f64,
        dwell: Duration,
    ) -> Self {
        self.push(
            at,
            FaultKind::JammerSweep {
                first_channel,
                channels,
                per,
                dwell,
            },
        )
    }

    /// Step `node`'s clock rate by `delta_ppm` at `at`.
    pub fn clock_drift(self, at: Duration, node: u16, delta_ppm: f64) -> Self {
        self.push(at, FaultKind::ClockDrift { node, delta_ppm })
    }

    /// Seize `bytes` from `node`'s mbuf pool at `at` for `lasts`.
    pub fn mbuf_pressure(self, at: Duration, node: u16, bytes: u32, lasts: Duration) -> Self {
        self.push(at, FaultKind::MbufPressure { node, bytes, lasts })
    }

    /// Append a deterministic churn script: `events` node crashes
    /// spread uniformly over `[start, start + window)`, victims drawn
    /// (with replacement) from `victims`, each down for `down_for`
    /// before its reboot. Crash instants and victim picks derive only
    /// from `seed`, so the same arguments always script the same
    /// churn — the join/leave driver for the peers-mode campaigns.
    /// Crashes are appended in time order.
    pub fn churn(
        mut self,
        seed: u64,
        victims: &[u16],
        start: Duration,
        window: Duration,
        events: usize,
        down_for: Duration,
    ) -> Self {
        assert!(!victims.is_empty(), "churn needs at least one victim");
        assert!(window > Duration::ZERO, "churn window must be positive");
        let mut rng = mindgap_sim::Rng::seed_from_u64(seed).fork(0xC4B7);
        let mut crashes: Vec<(u64, u16)> = (0..events)
            .map(|_| {
                let at = start.nanos() + rng.below(window.nanos());
                let victim = victims[rng.below(victims.len() as u64) as usize];
                (at, victim)
            })
            .collect();
        crashes.sort_unstable();
        for (at_ns, node) in crashes {
            self.faults.push(Fault {
                at_ns,
                kind: FaultKind::NodeCrash {
                    node,
                    down_for,
                },
            });
        }
        self
    }

    /// Check the schedule against a world of `n_nodes` nodes. The
    /// injector calls this on installation; a bad schedule is a
    /// configuration error, reported with context instead of
    /// surfacing as an index panic mid-run.
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        let node_ok = |n: u16| (n as usize) < n_nodes;
        let per_ok = |p: f64| (0.0..=1.0).contains(&p);
        for (i, f) in self.faults.iter().enumerate() {
            let err = |msg: String| Err(format!("fault #{i} ({}): {msg}", f.kind.tag()));
            match f.kind {
                FaultKind::NodeCrash { node, down_for } => {
                    if !node_ok(node) {
                        return err(format!("node {node} out of range (n={n_nodes})"));
                    }
                    if down_for == Duration::ZERO {
                        return err("zero down time".into());
                    }
                }
                FaultKind::LinkBlackout { a, b, .. } => {
                    if !node_ok(a) || !node_ok(b) || a == b {
                        return err(format!("bad link {a} ↔ {b} (n={n_nodes})"));
                    }
                }
                FaultKind::PerRamp { a, b, per, .. } => {
                    if !node_ok(a) || !node_ok(b) || a == b {
                        return err(format!("bad link {a} ↔ {b} (n={n_nodes})"));
                    }
                    if !per_ok(per) {
                        return err(format!("per {per} out of [0,1]"));
                    }
                }
                FaultKind::JammerBurst { channel, per, .. } => {
                    if channel > 36 {
                        return err(format!("data channel {channel} out of 0..=36"));
                    }
                    if !per_ok(per) {
                        return err(format!("per {per} out of [0,1]"));
                    }
                }
                FaultKind::JammerSweep {
                    first_channel,
                    channels,
                    per,
                    dwell,
                } => {
                    if channels == 0 {
                        return err("empty sweep".into());
                    }
                    if first_channel as u16 + channels as u16 > 37 {
                        return err(format!(
                            "sweep {first_channel}+{channels} exceeds data channel 36"
                        ));
                    }
                    if !per_ok(per) {
                        return err(format!("per {per} out of [0,1]"));
                    }
                    if dwell == Duration::ZERO {
                        return err("zero dwell".into());
                    }
                }
                FaultKind::ClockDrift { node, delta_ppm } => {
                    if !node_ok(node) {
                        return err(format!("node {node} out of range (n={n_nodes})"));
                    }
                    if !delta_ppm.is_finite() {
                        return err(format!("delta_ppm {delta_ppm} not finite"));
                    }
                }
                FaultKind::MbufPressure { node, bytes, .. } => {
                    if !node_ok(node) {
                        return err(format!("node {node} out of range (n={n_nodes})"));
                    }
                    if bytes == 0 {
                        return err("zero bytes".into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Canonical JSON encoding: sorted object keys, shortest
    /// round-trip numbers — the same bytes for the same schedule,
    /// always (the campaign store's codec underneath).
    pub fn to_json(&self) -> String {
        let faults: Vec<Value> = self.faults.iter().map(fault_to_value).collect();
        let mut root = BTreeMap::new();
        root.insert("faults".to_string(), Value::Arr(faults));
        Value::Obj(root).encode()
    }

    /// Parse a schedule previously produced by [`FaultSchedule::to_json`].
    pub fn from_json(input: &str) -> Result<Self, String> {
        let root = Value::parse(input)?;
        let obj = root.as_obj().ok_or("schedule root must be an object")?;
        let arr = obj
            .get("faults")
            .and_then(|v| v.as_arr())
            .ok_or("missing \"faults\" array")?;
        let mut faults = Vec::with_capacity(arr.len());
        for (i, v) in arr.iter().enumerate() {
            faults.push(fault_from_value(v).map_err(|e| format!("fault #{i}: {e}"))?);
        }
        Ok(FaultSchedule { faults })
    }
}

fn num(v: u64) -> Value {
    debug_assert!(v < (1 << 53), "not exactly representable as f64: {v}");
    Value::Num(v as f64)
}

fn fault_to_value(f: &Fault) -> Value {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: Value| m.insert(k.to_string(), v);
    put("at_ns", num(f.at_ns));
    put("kind", Value::Str(f.kind.tag().to_string()));
    match f.kind {
        FaultKind::NodeCrash { node, down_for } => {
            put("node", num(node as u64));
            put("down_ns", num(down_for.nanos().min(FOREVER_NS)));
        }
        FaultKind::LinkBlackout { a, b, lasts } => {
            put("a", num(a as u64));
            put("b", num(b as u64));
            put("for_ns", num(lasts.nanos().min(FOREVER_NS)));
        }
        FaultKind::PerRamp { a, b, per, lasts } => {
            put("a", num(a as u64));
            put("b", num(b as u64));
            put("per", Value::Num(per));
            put("for_ns", num(lasts.nanos().min(FOREVER_NS)));
        }
        FaultKind::JammerBurst { channel, per, lasts } => {
            put("channel", num(channel as u64));
            put("per", Value::Num(per));
            put("for_ns", num(lasts.nanos().min(FOREVER_NS)));
        }
        FaultKind::JammerSweep {
            first_channel,
            channels,
            per,
            dwell,
        } => {
            put("first_channel", num(first_channel as u64));
            put("channels", num(channels as u64));
            put("per", Value::Num(per));
            put("dwell_ns", num(dwell.nanos().min(FOREVER_NS)));
        }
        FaultKind::ClockDrift { node, delta_ppm } => {
            put("node", num(node as u64));
            put("delta_ppm", Value::Num(delta_ppm));
        }
        FaultKind::MbufPressure { node, bytes, lasts } => {
            put("node", num(node as u64));
            put("bytes", num(bytes as u64));
            put("for_ns", num(lasts.nanos().min(FOREVER_NS)));
        }
    }
    Value::Obj(m)
}

fn fault_from_value(v: &Value) -> Result<Fault, String> {
    let obj = v.as_obj().ok_or("fault must be an object")?;
    let get_num = |key: &str| -> Result<f64, String> {
        obj.get(key)
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("missing numeric \"{key}\""))
    };
    let get_u64 = |key: &str| -> Result<u64, String> {
        let n = get_num(key)?;
        if n < 0.0 || n.fract() != 0.0 || n >= (1u64 << 53) as f64 {
            return Err(format!("\"{key}\" = {n} is not an exact non-negative integer"));
        }
        Ok(n as u64)
    };
    let get_u16 = |key: &str| -> Result<u16, String> {
        u16::try_from(get_u64(key)?).map_err(|_| format!("\"{key}\" exceeds u16"))
    };
    let get_u8 = |key: &str| -> Result<u8, String> {
        u8::try_from(get_u64(key)?).map_err(|_| format!("\"{key}\" exceeds u8"))
    };
    let dur = |ns: u64| Duration::from_nanos(ns);
    let at_ns = get_u64("at_ns")?;
    let kind_tag = obj
        .get("kind")
        .and_then(|v| v.as_str())
        .ok_or("missing \"kind\"")?;
    let kind = match kind_tag {
        "node_crash" => FaultKind::NodeCrash {
            node: get_u16("node")?,
            down_for: dur(get_u64("down_ns")?),
        },
        "link_blackout" => FaultKind::LinkBlackout {
            a: get_u16("a")?,
            b: get_u16("b")?,
            lasts: dur(get_u64("for_ns")?),
        },
        "per_ramp" => FaultKind::PerRamp {
            a: get_u16("a")?,
            b: get_u16("b")?,
            per: get_num("per")?,
            lasts: dur(get_u64("for_ns")?),
        },
        "jammer_burst" => FaultKind::JammerBurst {
            channel: get_u8("channel")?,
            per: get_num("per")?,
            lasts: dur(get_u64("for_ns")?),
        },
        "jammer_sweep" => FaultKind::JammerSweep {
            first_channel: get_u8("first_channel")?,
            channels: get_u8("channels")?,
            per: get_num("per")?,
            dwell: dur(get_u64("dwell_ns")?),
        },
        "clock_drift" => FaultKind::ClockDrift {
            node: get_u16("node")?,
            delta_ppm: get_num("delta_ppm")?,
        },
        "mbuf_pressure" => FaultKind::MbufPressure {
            node: get_u16("node")?,
            bytes: get_u64("bytes")? as u32,
            lasts: dur(get_u64("for_ns")?),
        },
        other => return Err(format!("unknown fault kind \"{other}\"")),
    };
    Ok(Fault { at_ns, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSchedule {
        FaultSchedule::new()
            .node_crash(Duration::from_secs(60), 4, Duration::from_secs(10))
            .link_blackout(Duration::from_secs(90), 0, 1, forever())
            .per_ramp(Duration::from_secs(100), 2, 3, 0.35, Duration::from_secs(5))
            .jammer_burst(Duration::from_secs(110), 17, 0.9, Duration::from_secs(2))
            .jammer_sweep(Duration::from_secs(120), 10, 5, 0.8, Duration::from_millis(500))
            .clock_drift(Duration::from_secs(130), 7, 2.5)
            .mbuf_pressure(Duration::from_secs(140), 1, 4096, Duration::from_secs(3))
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let s = sample();
        let json = s.to_json();
        let back = FaultSchedule::from_json(&json).unwrap();
        assert_eq!(back, s);
        // Canonical: re-encoding parsed data reproduces the bytes.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn forever_survives_roundtrip() {
        let s = FaultSchedule::new().link_blackout(Duration::from_secs(1), 0, 1, forever());
        let back = FaultSchedule::from_json(&s.to_json()).unwrap();
        match back.faults[0].kind {
            FaultKind::LinkBlackout { lasts, .. } => {
                assert!(lasts.nanos() >= FOREVER_NS);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn validation_catches_config_errors() {
        let n = 5;
        assert!(sample().validate(16).is_ok());
        let bad_node = FaultSchedule::new().node_crash(Duration::ZERO, 9, forever());
        assert!(bad_node.validate(n).is_err());
        let self_link = FaultSchedule::new().link_blackout(Duration::ZERO, 2, 2, forever());
        assert!(self_link.validate(n).is_err());
        let bad_per = FaultSchedule::new().jammer_burst(Duration::ZERO, 5, 1.5, forever());
        assert!(bad_per.validate(n).is_err());
        let bad_sweep =
            FaultSchedule::new().jammer_sweep(Duration::ZERO, 35, 5, 0.5, Duration::from_secs(1));
        assert!(bad_sweep.validate(n).is_err());
    }

    #[test]
    fn churn_is_deterministic_time_ordered_and_valid() {
        let mk = || {
            FaultSchedule::new().churn(
                42,
                &[1, 2, 3, 7],
                Duration::from_secs(120),
                Duration::from_secs(300),
                12,
                Duration::from_secs(10),
            )
        };
        let a = mk();
        assert_eq!(a, mk(), "same seed must script the same churn");
        assert_eq!(a.len(), 12);
        assert!(a.validate(8).is_ok());
        let mut last = 0;
        for f in &a.faults {
            assert!(f.at_ns >= last, "crashes must be time-ordered");
            assert!((120_000_000_000..420_000_000_000).contains(&f.at_ns));
            last = f.at_ns;
            match f.kind {
                FaultKind::NodeCrash { node, down_for } => {
                    assert!([1, 2, 3, 7].contains(&node));
                    assert_eq!(down_for, Duration::from_secs(10));
                }
                _ => panic!("churn scripts only node crashes"),
            }
        }
        // A different seed reshuffles the schedule.
        let b = FaultSchedule::new().churn(
            43,
            &[1, 2, 3, 7],
            Duration::from_secs(120),
            Duration::from_secs(300),
            12,
            Duration::from_secs(10),
        );
        assert_ne!(a, b);
        // And it round-trips through the canonical JSON codec.
        assert_eq!(FaultSchedule::from_json(&a.to_json()).unwrap(), a);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(FaultSchedule::from_json("[]").is_err());
        assert!(FaultSchedule::from_json("{\"faults\":[{\"kind\":\"nope\",\"at_ns\":0}]}").is_err());
        assert!(FaultSchedule::from_json("{\"faults\":[{\"kind\":\"node_crash\"}]}").is_err());
    }
}
