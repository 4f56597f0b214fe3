//! Recovery analysis over the observability timeline.
//!
//! The injector records a [`Span::Fault`] marker at every injection
//! (and clearing) instant, so the timeline carries the ground truth of
//! *when* each disturbance started. This module walks the span stream
//! once and derives, per injected fault:
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
//! injection (or the end of the timeline): overlapping recovery is
//! credited to the earliest unresolved fault, which is the honest
//! choice when faults are spaced — and schedules that interleave
//! faults faster than the stack recovers are measuring something else
//! anyway.

use mindgap_obs::{Span, Timeline};

use crate::labels;

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
#[derive(Clone, Copy)]
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

/// Walk the timeline and compute per-fault recovery metrics, in
/// injection order. Returns an empty vector when the timeline carries
/// no fault markers (no schedule installed, `timeline_cap = 0`, or an
/// `obs-off` build).
pub fn analyze(tl: &Timeline) -> Vec<FaultRecovery> {
    // Pass 1: the injection markers define the attribution windows.
    let mut out: Vec<FaultRecovery> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    for ev in tl.iter() {
        if let Span::Fault { label, a, b } = ev.span {
            if !labels::is_injection(label) {
                continue;
            }
            let scope = Scope::of(label, a, b);
            let (node, peer) = match scope {
                Scope::One(n) => (n, NO_NODE),
                Scope::Pair(x, y) => (x, y),
                Scope::All => (NO_NODE, NO_NODE),
            };
            out.push(FaultRecovery {
                index: out.len(),
                at_ns: ev.t.nanos(),
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
    }
    if out.is_empty() {
        return out;
    }
    // Pass 2: attribute recovery spans to the fault whose window
    // contains them. `cur` tracks the window we are inside.
    let mut cur: usize = 0;
    for ev in tl.iter() {
        let t = ev.t.nanos();
        if t < out[0].at_ns {
            continue;
        }
        while cur + 1 < out.len() && t >= out[cur + 1].at_ns {
            cur += 1;
        }
        let f = &mut out[cur];
        let scope = scopes[cur];
        let rel = t - f.at_ns;
        match ev.span {
            Span::ConnDown {
                peer,
                reason: "supervision_timeout",
                ..
            } if scope.involves(ev.node.0, Some(peer.0)) => {
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
                    && scope.involves(ev.node.0, Some(peer.0)) =>
            {
                f.reconnect_ns = Some(rel);
            }
            Span::RplParentSwitch { .. }
                if f.rpl_repair_ns.is_none() && scope.involves(ev.node.0, None) =>
            {
                f.rpl_repair_ns = Some(rel);
            }
            Span::CreditStall { .. } if scope.involves(ev.node.0, None) => {
                f.credit_stalls += 1;
            }
            Span::MbufExhausted { .. } if scope.involves(ev.node.0, None) => {
                f.pkts_lost += 1;
            }
            _ => {}
        }
    }
    out
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

    fn at(s: u64) -> Instant {
        Instant::ZERO + Duration::from_secs(s)
    }

    fn crash_marker(tl: &mut Timeline, t: Instant, node: u16, down_ns: u64) {
        tl.record(
            t,
            NodeId(node),
            Span::Fault {
                label: labels::NODE_CRASH,
                a: node as u64,
                b: down_ns,
            },
        );
    }

    #[test]
    fn crash_detect_reconnect_sequence() {
        if !mindgap_obs::enabled() {
            return;
        }
        let mut tl = Timeline::new(64);
        // Normal churn before the fault must not be attributed.
        tl.record(
            at(10),
            NodeId(3),
            Span::ConnUp { conn: 1, peer: NodeId(4), coord: true, interval_ns: 75_000_000 },
        );
        crash_marker(&mut tl, at(60), 4, 10_000_000_000);
        // Peer 3 detects via supervision timeout 2.5 s later …
        tl.record(
            at(62) + Duration::from_millis(500),
            NodeId(3),
            Span::ConnDown { conn: 1, peer: NodeId(4), reason: "supervision_timeout" },
        );
        // … an unrelated pair reconnects (must not count: nodes 7/8) …
        tl.record(
            at(63),
            NodeId(7),
            Span::ConnUp { conn: 9, peer: NodeId(8), coord: true, interval_ns: 75_000_000 },
        );
        // … and the crashed node is reconnected at +12 s.
        tl.record(
            at(72),
            NodeId(3),
            Span::ConnUp { conn: 2, peer: NodeId(4), coord: true, interval_ns: 75_000_000 },
        );
        let rs = analyze(&tl);
        assert_eq!(rs.len(), 1);
        let r = rs[0];
        assert_eq!(r.label, labels::NODE_CRASH);
        assert_eq!(r.node, 4);
        assert_eq!(r.detect_ns, Some(2_500_000_000));
        assert_eq!(r.reconnect_ns, Some(12_000_000_000));
        assert_eq!(r.conn_downs, 1);
        assert_eq!(detect_secs(&rs), vec![2.5]);
    }

    #[test]
    fn windows_split_attribution_between_faults() {
        if !mindgap_obs::enabled() {
            return;
        }
        let mut tl = Timeline::new(64);
        crash_marker(&mut tl, at(10), 1, 1);
        tl.record(
            at(12),
            NodeId(0),
            Span::ConnDown { conn: 1, peer: NodeId(1), reason: "supervision_timeout" },
        );
        crash_marker(&mut tl, at(50), 2, 1);
        tl.record(
            at(53),
            NodeId(0),
            Span::ConnDown { conn: 2, peer: NodeId(2), reason: "supervision_timeout" },
        );
        let rs = analyze(&tl);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].detect_ns, Some(2_000_000_000));
        assert_eq!(rs[1].detect_ns, Some(3_000_000_000));
        // A conn_up never arrived: unrecovered faults stay None.
        assert_eq!(rs[0].reconnect_ns, None);
        assert!(reconnect_secs(&rs).is_empty());
    }

    #[test]
    fn empty_timeline_yields_no_faults() {
        assert!(analyze(&Timeline::new(16)).is_empty());
    }
}
