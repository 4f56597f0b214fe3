//! Recovery analysis: per-fault detection and repair latencies.
//!
//! The injector records a [`Span::Fault`] marker at every injection
//! (and clearing) instant. A [`RecoveryTracker`] built from the
//! installed schedule folds the run's recovery spans as they are
//! recorded and derives, per injected fault:
//!
//! * **time-to-detect** — the first `conn_down` with reason
//!   `supervision_timeout` involving an affected node (the latency of
//!   BLE's only failure detector);
//! * **time-to-reconnect** — the first `conn_up` involving an affected
//!   node after detection (statconn's re-formation latency);
//! * **time-to-RPL-repair** — the first `rpl_parent_switch` after the
//!   fault (routing convergence, dynamic-routing worlds only);
//! * loss counters — supervision timeouts, credit stalls and
//!   mbuf-exhaustion drops attributed to the fault's window.
//!
//! A fault's attribution window runs from its injection to the next
//! injection (or the end of the run): overlapping recovery is
//! credited to the latest fault at or before the span, which is the
//! honest choice when faults are spaced — and schedules that
//! interleave faults faster than the stack recovers are measuring
//! something else anyway. The rule is causal, so the fold keeps
//! O(faults) state and never reads the timeline ring; [`analyze`]
//! replays a recorded timeline through the same fold.

use mindgap_obs::{Span, Timeline};

use crate::{labels, FaultSchedule};

/// Marker value for "no specific node" (network-wide faults).
pub const NO_NODE: u16 = u16::MAX;

/// Recovery metrics of one injected fault. All latencies are relative
/// to the injection instant; `None` means the event never happened
/// inside the fault's attribution window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecovery {
    /// Injection order (index into the timeline's fault markers).
    pub index: usize,
    /// Injection instant in ns since simulation start.
    pub at_ns: u64,
    /// The `fault_`-prefixed kind label.
    pub label: &'static str,
    /// Primary affected node ([`NO_NODE`] for network-wide faults).
    pub node: u16,
    /// Second link end for link faults, [`NO_NODE`] otherwise.
    pub peer: u16,
    /// ns from injection to the first supervision timeout.
    pub detect_ns: Option<u64>,
    /// ns from injection to the first re-established connection
    /// (after detection).
    pub reconnect_ns: Option<u64>,
    /// ns from injection to the first RPL parent switch.
    pub rpl_repair_ns: Option<u64>,
    /// Supervision-timeout connection losses in the window.
    pub conn_downs: u64,
    /// L2CAP credit stalls in the window.
    pub credit_stalls: u64,
    /// Packets dropped to mbuf exhaustion in the window.
    pub pkts_lost: u64,
}

/// Which nodes a fault touches (for span attribution).
#[derive(Debug, Clone, Copy)]
enum Scope {
    One(u16),
    Pair(u16, u16),
    All,
}

impl Scope {
    fn of(label: &str, a: u64, b: u64) -> Scope {
        match label {
            labels::NODE_CRASH | labels::CLOCK_DRIFT => Scope::One(a as u16),
            labels::LINK_BLACKOUT => Scope::Pair(a as u16, b as u16),
            _ => Scope::All,
        }
    }

    fn contains(&self, node: u16) -> bool {
        match *self {
            Scope::One(n) => n == node,
            Scope::Pair(a, b) => a == node || b == node,
            Scope::All => true,
        }
    }

    /// Does a span recorded on `node` (optionally naming `peer`)
    /// involve this fault's nodes?
    fn involves(&self, node: u16, peer: Option<u16>) -> bool {
        self.contains(node) || peer.is_some_and(|p| self.contains(p))
    }
}

/// Online recovery fold: per-fault attribution windows fixed up front,
/// fed one span at a time as the run records them.
///
/// Every window opens at its fault's injection instant and runs to
/// the next one, so attribution needs no look-ahead and O(faults)
/// state. Because the windows are known before any span arrives, a
/// span at exactly a later fault's instant goes to that later fault
/// even when it is observed before the fault's marker.
#[derive(Debug)]
pub struct RecoveryTracker {
    /// One record per window, in firing order.
    faults: Vec<FaultRecovery>,
    scopes: Vec<Scope>,
    /// Injection markers observed: faults `..fired` have fired.
    fired: usize,
    /// Window of the latest observed span.
    cur: usize,
}

impl RecoveryTracker {
    /// Windows for every fault of `schedule`, installed at
    /// `install_ns`: a fault fires at `max(at_ns, install_ns)`, and
    /// faults due at one instant fire in schedule order.
    pub fn new(schedule: &FaultSchedule, install_ns: u64) -> Self {
        let mut windows: Vec<(u64, Span)> = schedule
            .faults
            .iter()
            .map(|f| (f.at_ns.max(install_ns), f.kind.marker().1))
            .collect();
        windows.sort_by_key(|&(at, _)| at);
        Self::with_windows(windows)
    }

    /// Windows opened by the injection markers among `(t_ns, span)`,
    /// which must come in time order.
    fn with_windows(markers: impl IntoIterator<Item = (u64, Span)>) -> Self {
        let mut faults = Vec::new();
        let mut scopes = Vec::new();
        for (at_ns, span) in markers {
            let Span::Fault { label, a, b } = span else {
                continue;
            };
            if !labels::is_injection(label) {
                continue;
            }
            let scope = Scope::of(label, a, b);
            let (node, peer) = match scope {
                Scope::One(n) => (n, NO_NODE),
                Scope::Pair(x, y) => (x, y),
                Scope::All => (NO_NODE, NO_NODE),
            };
            faults.push(FaultRecovery {
                index: faults.len(),
                at_ns,
                label,
                node,
                peer,
                detect_ns: None,
                reconnect_ns: None,
                rpl_repair_ns: None,
                conn_downs: 0,
                credit_stalls: 0,
                pkts_lost: 0,
            });
            scopes.push(scope);
        }
        RecoveryTracker {
            faults,
            scopes,
            fired: 0,
            cur: 0,
        }
    }

    /// Fold one span recorded on `node` at `t_ns`. Spans must arrive
    /// in time order; those before the first window are ignored.
    pub fn observe(&mut self, t_ns: u64, node: u16, span: &Span) {
        if let Span::Fault { label, .. } = *span {
            if labels::is_injection(label) {
                debug_assert_eq!(
                    self.faults.get(self.fired).map(|f| (f.at_ns, f.label)),
                    Some((t_ns, label)),
                    "injection marker out of schedule order"
                );
                self.fired += 1;
            }
        }
        let Some(first) = self.faults.first() else {
            return;
        };
        if t_ns < first.at_ns {
            return;
        }
        while self.cur + 1 < self.faults.len() && t_ns >= self.faults[self.cur + 1].at_ns {
            self.cur += 1;
        }
        let f = &mut self.faults[self.cur];
        let scope = self.scopes[self.cur];
        let rel = t_ns - f.at_ns;
        match *span {
            Span::ConnDown {
                peer,
                reason: "supervision_timeout",
                ..
            } if scope.involves(node, Some(peer.0)) => {
                f.conn_downs += 1;
                if f.detect_ns.is_none() {
                    f.detect_ns = Some(rel);
                }
            }
            // A reconnect only counts once the loss was detected —
            // conn churn before the supervision timeout belongs to
            // normal operation, not recovery.
            Span::ConnUp { peer, .. }
                if f.reconnect_ns.is_none()
                    && f.detect_ns.is_some_and(|d| rel > d)
                    && scope.involves(node, Some(peer.0)) =>
            {
                f.reconnect_ns = Some(rel);
            }
            Span::RplParentSwitch { .. }
                if f.rpl_repair_ns.is_none() && scope.involves(node, None) =>
            {
                f.rpl_repair_ns = Some(rel);
            }
            Span::CreditStall { .. } if scope.involves(node, None) => {
                f.credit_stalls += 1;
            }
            Span::MbufExhausted { .. } if scope.involves(node, None) => {
                f.pkts_lost += 1;
            }
            _ => {}
        }
    }

    /// One record per fault that has fired, in firing order.
    pub fn finish(&self) -> Vec<FaultRecovery> {
        self.faults[..self.fired].to_vec()
    }
}

/// Replay a recorded timeline through a [`RecoveryTracker`] whose
/// windows are the recorded injection markers. A run's own report
/// comes from the tracker `World::install_faults` feeds live; this
/// replay sees only what the ring kept, so it returns nothing under
/// `obs-off` or with `timeline_cap = 0` and may miss faults whose
/// markers the ring evicted.
pub fn analyze(tl: &Timeline) -> Vec<FaultRecovery> {
    let mut tracker = RecoveryTracker::with_windows(tl.iter().map(|ev| (ev.t.nanos(), ev.span)));
    for ev in tl.iter() {
        tracker.observe(ev.t.nanos(), ev.node.0, &ev.span);
    }
    tracker.finish()
}

/// Detection latencies in seconds (faults that were never detected
/// are omitted).
pub fn detect_secs(rs: &[FaultRecovery]) -> Vec<f64> {
    rs.iter()
        .filter_map(|r| r.detect_ns.map(|ns| ns as f64 / 1e9))
        .collect()
}

/// Reconnect latencies in seconds (unrecovered faults omitted).
pub fn reconnect_secs(rs: &[FaultRecovery]) -> Vec<f64> {
    rs.iter()
        .filter_map(|r| r.reconnect_ns.map(|ns| ns as f64 / 1e9))
        .collect()
}

/// RPL repair latencies in seconds (faults without a parent switch
/// omitted).
pub fn rpl_repair_secs(rs: &[FaultRecovery]) -> Vec<f64> {
    rs.iter()
        .filter_map(|r| r.rpl_repair_ns.map(|ns| ns as f64 / 1e9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindgap_sim::{Duration, Instant, NodeId};

    const S: u64 = 1_000_000_000;

    fn crashes(at_s: &[u64]) -> FaultSchedule {
        at_s.iter()
            .enumerate()
            .fold(FaultSchedule::new(), |s, (i, &at)| {
                s.node_crash(
                    Duration::from_secs(at),
                    i as u16 + 1,
                    Duration::from_secs(5),
                )
            })
    }

    /// Feed the `i`-th fault's injection marker, as the injector
    /// records it.
    fn fire(tr: &mut RecoveryTracker, sched: &FaultSchedule, i: usize) {
        let f = sched.faults[i];
        let (node, span) = f.kind.marker();
        tr.observe(f.at_ns, node.0, &span);
    }

    fn up(peer: u16) -> Span {
        Span::ConnUp {
            conn: 1,
            peer: NodeId(peer),
            coord: true,
            interval_ns: 75_000_000,
        }
    }

    fn timeout(peer: u16) -> Span {
        Span::ConnDown {
            conn: 1,
            peer: NodeId(peer),
            reason: "supervision_timeout",
        }
    }

    #[test]
    fn crash_detect_reconnect_sequence() {
        let sched =
            FaultSchedule::new().node_crash(Duration::from_secs(60), 4, Duration::from_secs(10));
        let mut tr = RecoveryTracker::new(&sched, 0);
        // Normal churn before the fault must not be attributed.
        tr.observe(10 * S, 3, &up(4));
        fire(&mut tr, &sched, 0);
        // Peer 3 detects via supervision timeout 2.5 s later …
        tr.observe(62 * S + S / 2, 3, &timeout(4));
        // … an unrelated pair reconnects (must not count: nodes 7/8) …
        tr.observe(63 * S, 7, &up(8));
        // … and the crashed node is reconnected at +12 s.
        tr.observe(72 * S, 3, &up(4));
        let rs = tr.finish();
        assert_eq!(rs.len(), 1);
        let r = rs[0];
        assert_eq!(r.label, labels::NODE_CRASH);
        assert_eq!((r.node, r.peer), (4, NO_NODE));
        assert_eq!(r.detect_ns, Some(2_500_000_000));
        assert_eq!(r.reconnect_ns, Some(12_000_000_000));
        assert_eq!(r.conn_downs, 1);
        assert_eq!(detect_secs(&rs), vec![2.5]);
    }

    #[test]
    fn windows_split_attribution_between_faults() {
        let sched = crashes(&[10, 50]);
        let mut tr = RecoveryTracker::new(&sched, 0);
        fire(&mut tr, &sched, 0);
        tr.observe(12 * S, 0, &timeout(1));
        tr.observe(20 * S, 1, &Span::MbufExhausted { conn: 1 });
        fire(&mut tr, &sched, 1);
        tr.observe(53 * S, 0, &timeout(2));
        // Node 1's drop after t = 50 s falls in fault 2's window,
        // whose scope (node 2) does not involve it.
        tr.observe(54 * S, 1, &Span::MbufExhausted { conn: 1 });
        let rs = tr.finish();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].detect_ns, Some(2 * S));
        assert_eq!(rs[1].detect_ns, Some(3 * S));
        assert_eq!((rs[0].pkts_lost, rs[1].pkts_lost), (1, 0));
        // A conn_up never arrived: unrecovered faults stay None.
        assert_eq!(rs[0].reconnect_ns, None);
        assert!(reconnect_secs(&rs).is_empty());
    }

    /// A span at exactly a later fault's instant belongs to that
    /// fault, even when it is observed before the fault's marker.
    #[test]
    fn span_at_a_later_faults_instant_goes_to_that_fault() {
        let sched = FaultSchedule::new()
            .jammer_burst(Duration::from_secs(10), 5, 0.9, Duration::from_secs(4))
            .jammer_burst(Duration::from_secs(30), 6, 0.9, Duration::from_secs(4));
        let mut tr = RecoveryTracker::new(&sched, 0);
        fire(&mut tr, &sched, 0);
        tr.observe(
            30 * S,
            2,
            &Span::CreditStall {
                conn: 1,
                queued_bytes: 9,
            },
        );
        fire(&mut tr, &sched, 1);
        let rs = tr.finish();
        assert_eq!((rs[0].credit_stalls, rs[1].credit_stalls), (0, 1));
    }

    /// Faults the run never reached have no record; faults due before
    /// installation fire at the install instant.
    #[test]
    fn only_fired_faults_are_reported() {
        let sched = crashes(&[5, 40, 1_000]);
        let mut tr = RecoveryTracker::new(&sched, 20 * S);
        let (node, span) = sched.faults[0].kind.marker();
        tr.observe(20 * S, node.0, &span);
        fire(&mut tr, &sched, 1);
        tr.observe(41 * S, 0, &timeout(2));
        let rs = tr.finish();
        assert_eq!(rs.len(), 2, "the fault at 1000 s never fired");
        assert_eq!(rs[0].at_ns, 20 * S);
        assert_eq!((rs[1].index, rs[1].node), (1, 2));
        assert_eq!(rs[1].detect_ns, Some(S));
    }

    #[test]
    fn replay_matches_the_online_fold() {
        let sched = crashes(&[10, 50]);
        let mut tr = RecoveryTracker::new(&sched, 0);
        let mut tl = Timeline::new(64);
        let [(n0, m0), (n1, m1)] = [0, 1].map(|i| sched.faults[i].kind.marker());
        let spans = [
            (10, n0, m0),
            (12, NodeId(0), timeout(1)),
            (30, NodeId(1), up(0)),
            (50, n1, m1),
            (53, NodeId(0), timeout(2)),
        ];
        for (secs, node, span) in spans {
            tr.observe(secs * S, node.0, &span);
            tl.record(Instant::from_secs(secs), node, span);
        }
        if mindgap_obs::enabled() {
            assert_eq!(analyze(&tl), tr.finish());
        } else {
            assert!(analyze(&tl).is_empty());
        }
    }

    #[test]
    fn empty_timeline_yields_no_faults() {
        assert!(analyze(&Timeline::new(16)).is_empty());
    }
}
