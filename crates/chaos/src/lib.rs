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
//!   [`FaultKind`]s (node crashes, link blackouts, jammer bursts, clock
//!   drift) pinned to exact simulated instants, checked against the
//!   world by [`FaultSchedule::validate`].
//! * The **injector** lives in `mindgap-core::World::install_faults`:
//!   faults become ordinary events on the simulation queue, so their
//!   timing is exact simulated time and byte-reproducible under any
//!   worker count. When no schedule is installed the hot path pays
//!   nothing.
//! * [`recovery`] — a [`RecoveryTracker`] the world feeds with the
//!   recovery spans it records on the observability [`Timeline`]
//!   (`mindgap-obs`); it computes, per injected fault, time-to-detect
//!   (supervision-timeout latency), time-to-reconnect,
//!   time-to-RPL-repair and packets lost, ready for aggregation with
//!   `testbed::stats`.
//!
//! # Example
//!
//! Script a crash, a jammer burst, and a seeded churn window, then
//! check the schedule against an 8-node world:
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
//! // A second crash of node 3 while it is still down is rejected.
//! let twice = sched.clone().node_crash(s(12), 3, s(5));
//! assert!(twice.validate(8).is_err());
//!
//! // Injection labels open recovery-attribution windows.
//! assert!(labels::is_injection(labels::NODE_CRASH));
//! assert!(!labels::is_injection(labels::NODE_REBOOT));
//! ```
//!
//! [`Timeline`]: mindgap_obs::Timeline

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mindgap_obs::Span;
use mindgap_sim::{Duration, NodeId};

pub mod recovery;

pub use recovery::{analyze, FaultRecovery, RecoveryTracker};

/// The `fault_`-prefixed labels the injector records as
/// [`mindgap_obs::Span::Fault`] markers. Injection labels start each
/// fault's attribution window; the clearing labels are documentation
/// markers only (restores and reboots).
pub mod labels {
    /// A node crashed (injection).
    pub const NODE_CRASH: &str = "fault_node_crash";
    /// A link went dark (injection).
    pub const LINK_BLACKOUT: &str = "fault_link_blackout";
    /// A channel jammer burst started (injection).
    pub const JAMMER_BURST: &str = "fault_jammer_burst";
    /// A clock-rate step was applied (injection).
    pub const CLOCK_DRIFT: &str = "fault_clock_drift";

    /// A crashed node rebooted (clearing).
    pub const NODE_REBOOT: &str = "fault_node_reboot";
    /// A blacked-out link came back (clearing).
    pub const LINK_RESTORE: &str = "fault_link_restore";
    /// A jammer burst ended (clearing).
    pub const JAMMER_CLEAR: &str = "fault_jammer_clear";

    /// `true` for labels that *start* a fault (and hence an
    /// attribution window of a [`crate::RecoveryTracker`]).
    pub fn is_injection(label: &str) -> bool {
        matches!(
            label,
            NODE_CRASH | LINK_BLACKOUT | JAMMER_BURST | CLOCK_DRIFT
        )
    }
}

/// Durations at or above this many nanoseconds mean "never cleared".
/// Crash markers on the timeline record the outage clamped to this
/// value. It stays below 2^53, so it is exact wherever a marker field
/// passes through an `f64` (≈104 days of simulated time — far beyond
/// any experiment).
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
    /// Step a node's crystal by `delta_ppm` (cumulative with earlier
    /// steps and the configured baseline drift). Never cleared.
    ClockDrift {
        /// Affected node.
        node: u16,
        /// Parts-per-million added to the node's clock rate.
        delta_ppm: f64,
    },
}

impl FaultKind {
    /// The kind's name, as [`FaultSchedule::validate`] errors print it.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::LinkBlackout { .. } => "link_blackout",
            FaultKind::JammerBurst { .. } => "jammer_burst",
            FaultKind::ClockDrift { .. } => "clock_drift",
        }
    }

    /// The injection marker the injector records for this fault: the
    /// node it is recorded on ([`recovery::NO_NODE`] for network-wide
    /// faults) and the [`Span::Fault`] itself, whose payloads are the
    /// fault's primary numbers (DESIGN.md §9).
    ///
    /// [`Span::Fault`]: mindgap_obs::Span::Fault
    pub fn marker(&self) -> (NodeId, Span) {
        let (node, label, a, b) = match *self {
            FaultKind::NodeCrash { node, down_for } => (
                node,
                labels::NODE_CRASH,
                node as u64,
                down_for.nanos().min(FOREVER_NS),
            ),
            FaultKind::LinkBlackout { a, b, .. } => (a, labels::LINK_BLACKOUT, a as u64, b as u64),
            FaultKind::JammerBurst { channel, .. } => (
                recovery::NO_NODE,
                labels::JAMMER_BURST,
                channel as u64,
                u64::MAX,
            ),
            FaultKind::ClockDrift { node, .. } => {
                (node, labels::CLOCK_DRIFT, node as u64, u64::MAX)
            }
        };
        (NodeId(node), Span::Fault { label, a, b })
    }

    /// The target the fault occupies while active and for how long:
    /// a node, a link (ends in ascending order) or a channel. Two
    /// faults of one kind on one target must not be active at once.
    /// `None` for clock drift, which steps and never clears.
    fn occupies(&self) -> Option<((u16, u16), Duration)> {
        match *self {
            FaultKind::NodeCrash { node, down_for } => Some(((node, node), down_for)),
            FaultKind::LinkBlackout { a, b, lasts } => Some(((a.min(b), a.max(b)), lasts)),
            FaultKind::JammerBurst { channel, lasts, .. } => Some(((channel as u16, 0), lasts)),
            FaultKind::ClockDrift { .. } => None,
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
/// methods below and injected with `World::install_faults`.
///
/// ```
/// use mindgap_chaos::FaultSchedule;
/// use mindgap_sim::Duration;
///
/// let s = FaultSchedule::new()
///     .node_crash(Duration::from_secs(60), 4, Duration::from_secs(10))
///     .link_blackout(Duration::from_secs(120), 0, 1, Duration::from_secs(30));
/// assert_eq!(s.len(), 2);
/// assert!(s.validate(5).is_ok());
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

    /// Jam one data channel at `at` for `lasts`.
    pub fn jammer_burst(self, at: Duration, channel: u8, per: f64, lasts: Duration) -> Self {
        self.push(
            at,
            FaultKind::JammerBurst {
                channel,
                per,
                lasts,
            },
        )
    }

    /// Step `node`'s clock rate by `delta_ppm` at `at`.
    pub fn clock_drift(self, at: Duration, node: u16, delta_ppm: f64) -> Self {
        self.push(at, FaultKind::ClockDrift { node, delta_ppm })
    }

    /// Append a deterministic churn script: `events` node crashes
    /// spread uniformly over `[start, start + window)`, victims drawn
    /// (with replacement) from `victims`, each down for `down_for`
    /// before its reboot. Crash instants and victim picks derive only
    /// from `seed`, so the same arguments always script the same
    /// churn — the join/leave driver for the peers-mode campaigns.
    /// Crashes are appended in time order. A drawn victim that is
    /// still down at its crash instant is replaced by the next victim
    /// in `victims` order that is up, so no node crashes twice in one
    /// outage; panics if every victim is down.
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
        let mut crashes: Vec<(u64, u16, usize)> = (0..events)
            .map(|_| {
                let at = start.nanos() + rng.below(window.nanos());
                let k = rng.below(victims.len() as u64) as usize;
                (at, victims[k], k)
            })
            .collect();
        crashes.sort_unstable();
        // Last instant each node is still down (see `validate`: a
        // crash at the very instant of the reboot still overlaps).
        let mut down_until: Vec<(u16, u64)> = Vec::new();
        for (at_ns, _, k) in crashes {
            let is_up = |v: u16| {
                down_until
                    .iter()
                    .all(|&(node, until)| node != v || at_ns > until)
            };
            let node = (0..victims.len())
                .map(|off| victims[(k + off) % victims.len()])
                .find(|&v| is_up(v))
                .unwrap_or_else(|| panic!("churn: every victim is down at {at_ns} ns"));
            down_until.retain(|&(n, _)| n != node);
            down_until.push((node, at_ns.saturating_add(down_for.nanos())));
            self.faults.push(Fault {
                at_ns,
                kind: FaultKind::NodeCrash { node, down_for },
            });
        }
        self
    }

    /// Check the schedule against a world of `n_nodes` nodes. The
    /// injector calls this on installation; a bad schedule is a
    /// configuration error, reported with context instead of
    /// surfacing as an index panic mid-run.
    ///
    /// Besides ranges, it rejects two faults of one kind on one target
    /// — crashes of one node, blackouts of one link, bursts on one
    /// channel — that are active at once, including one that starts
    /// at the very instant the other clears. The injector restores
    /// what the first fault found, so an overlap would crash a node
    /// that is already down or restore a link or channel early.
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
                FaultKind::JammerBurst { channel, per, .. } => {
                    if channel > 36 {
                        return err(format!("data channel {channel} out of 0..=36"));
                    }
                    if !per_ok(per) {
                        return err(format!("per {per} out of [0,1]"));
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
            }
        }
        // Active spans `[at, at + lasts]` per (kind, target), sorted by
        // start. Spans before the first overlap are disjoint, so
        // comparing each with its predecessor finds it.
        let mut spans: Vec<_> = self
            .faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let (target, lasts) = f.kind.occupies()?;
                Some((
                    (f.kind.tag(), target),
                    f.at_ns,
                    f.at_ns.saturating_add(lasts.nanos()),
                    i,
                ))
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            let [(key, _, end, i), (next_key, next_at, _, j)] = *w else {
                unreachable!("windows of two")
            };
            if key == next_key && next_at <= end {
                let (tag, _) = next_key;
                return Err(format!(
                    "fault #{j} ({tag}): overlaps fault #{i} on the same target"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSchedule {
        FaultSchedule::new()
            .node_crash(Duration::from_secs(60), 4, Duration::from_secs(10))
            .link_blackout(Duration::from_secs(90), 0, 1, forever())
            .jammer_burst(Duration::from_secs(110), 17, 0.9, Duration::from_secs(2))
            .clock_drift(Duration::from_secs(130), 7, 2.5)
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
        let bad_channel = FaultSchedule::new().jammer_burst(Duration::ZERO, 37, 0.5, forever());
        assert!(bad_channel.validate(n).is_err());
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
    }

    /// The seed-45 churn of `churn --full` draws node 6 twice inside
    /// one 10 s outage (478.4 s and 482.1 s): the second crash must go
    /// to a node that is up, or the injector panics.
    #[test]
    fn churn_never_crashes_a_node_that_is_down() {
        let s = Duration::from_secs;
        let victims: Vec<u16> = (1..=59).collect();
        let sched = FaultSchedule::new().churn(45, &victims, s(150), s(540), 20, s(10));
        assert_eq!(sched.len(), 20);
        sched.validate(60).expect("no overlapping crashes");
        let crashes: Vec<(u64, u16)> = sched
            .faults
            .iter()
            .map(|f| match f.kind {
                FaultKind::NodeCrash { node, .. } => (f.at_ns, node),
                _ => panic!("churn scripts only node crashes"),
            })
            .collect();
        for (i, &(at, node)) in crashes.iter().enumerate() {
            for &(earlier, other) in &crashes[..i] {
                assert!(
                    other != node || at > earlier + s(10).nanos(),
                    "node {node} crashed at {at} ns while down since {earlier} ns"
                );
            }
        }
    }

    #[test]
    fn validation_rejects_overlaps_on_one_target() {
        let s = Duration::from_secs;
        let n = 5;
        let crashes = FaultSchedule::new()
            .node_crash(s(10), 3, s(5))
            .node_crash(s(14), 3, s(5));
        assert!(crashes.validate(n).is_err());
        // The second crash lands at the reboot instant: still down.
        let at_reboot = FaultSchedule::new()
            .node_crash(s(10), 3, s(5))
            .node_crash(s(15), 3, s(5));
        assert!(at_reboot.validate(n).is_err());
        // A permanent blackout overlaps everything after it, whichever
        // way round the later one names the link.
        let blackouts = FaultSchedule::new()
            .link_blackout(s(10), 0, 1, forever())
            .link_blackout(s(500), 1, 0, s(1));
        assert!(blackouts.validate(n).is_err());
        // Script order does not matter: the earlier burst is scripted last.
        let bursts = FaultSchedule::new()
            .jammer_burst(s(12), 17, 0.5, s(4))
            .jammer_burst(s(10), 17, 0.9, s(4));
        assert!(bursts.validate(n).is_err());

        // Same times on different targets, or back to back on one
        // target, are fine.
        let disjoint = FaultSchedule::new()
            .node_crash(s(10), 3, s(5))
            .node_crash(s(10), 4, s(5))
            .node_crash(s(16), 3, s(5))
            .link_blackout(s(10), 0, 1, s(5))
            .link_blackout(s(10), 1, 2, s(5))
            .jammer_burst(s(10), 17, 0.9, s(4))
            .jammer_burst(s(10), 18, 0.9, s(4))
            .jammer_burst(s(15), 17, 0.9, s(4))
            .clock_drift(s(10), 3, 5.0)
            .clock_drift(s(11), 3, 5.0);
        assert!(disjoint.validate(n).is_ok());
    }
}
