//! Connection-shading detection on top of the timeline.
//!
//! The paper found shading by *looking at anchor timelines* (§6.2):
//! two connections on the same node with the same interval form event
//! trains whose relative phase slides with clock drift; when the
//! trains overlap, the node can serve only one of them and the other
//! is starved ("shaded") until the phase drifts apart again — often
//! long enough to trip the supervision timeout.
//!
//! This module re-derives that analysis from recorded
//! [`Span::ConnEvent`] anchors: for every
//! same-interval connection pair on a node it tracks the circular
//! phase distance between the two anchor trains and merges the
//! stretches where that distance stays below the combined event
//! length into [`OverlapWindow`]s. The `sec62_shading` closed-form
//! model predicts how often such windows recur; this detector shows
//! *where they actually were* in a concrete run.

use crate::timeline::{Span, TimelineEvent};

/// One connection-event anchor extracted from a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorSample {
    /// Event time (ns since sim start).
    pub t_ns: u64,
    /// Node the event belongs to.
    pub node: u16,
    /// Connection handle.
    pub conn: u64,
    /// Anchor point in ns.
    pub anchor_ns: u64,
    /// Connection interval in ns.
    pub interval_ns: u64,
}

/// Extract the anchor samples (the `conn_event` spans) from a
/// timeline, in order.
pub fn anchor_samples<'a>(
    events: impl IntoIterator<Item = &'a TimelineEvent>,
) -> Vec<AnchorSample> {
    events
        .into_iter()
        .filter_map(|ev| match ev.span {
            Span::ConnEvent {
                conn,
                anchor_ns,
                interval_ns,
                ..
            } => Some(AnchorSample {
                t_ns: ev.t.nanos(),
                node: ev.node.0,
                conn,
                anchor_ns,
                interval_ns,
            }),
            _ => None,
        })
        .collect()
}

/// A contiguous stretch during which two same-interval connections on
/// one node had overlapping event trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapWindow {
    /// Node both connections live on.
    pub node: u16,
    /// First connection handle (lower).
    pub conn_a: u64,
    /// Second connection handle.
    pub conn_b: u64,
    /// Window start (ns).
    pub start_ns: u64,
    /// Window end (ns) — time of the last overlapping event seen.
    pub end_ns: u64,
    /// Smallest circular phase distance observed inside the window.
    pub min_gap_ns: u64,
    /// Anchor samples that fell inside the window.
    pub samples: u32,
}

impl OverlapWindow {
    /// Window duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// How long (in connection intervals) a train may go silent before
/// its last anchor stops being compared against. Live coordinators
/// sample every interval (skipped events included, since the *next*
/// event still reports); only dead connections fall this far behind.
pub const STALE_INTERVALS: u64 = 16;

/// Circular distance between two phases in `[0, interval)`.
fn phase_gap(a: u64, b: u64, interval: u64) -> u64 {
    let d = a.abs_diff(b) % interval;
    d.min(interval - d)
}

/// Scan anchor samples for shading overlap windows.
///
/// `overlap_ns` is the phase-distance threshold below which two event
/// trains are considered colliding — the combined length of both
/// connection events (≈3 ms for the paper's 7-fragment trains) is the
/// natural choice; see `mindgap_testbed::analysis`.
///
/// Windows closed by more than `overlap_ns` of clear phase are
/// emitted; a trailing open window is emitted too.
///
/// A train that stops producing samples (its connection died) goes
/// *stale* after [`STALE_INTERVALS`] of silence and is no longer
/// compared against — otherwise a dead connection's frozen anchor
/// would generate phantom overlaps as live trains drift past it.
pub fn find_overlap_windows(samples: &[AnchorSample], overlap_ns: u64) -> Vec<OverlapWindow> {
    // Per (node, conn): latest anchor + interval + sample time, in
    // first-seen order so output order is deterministic.
    let mut latest: Vec<(u16, u64, u64, u64, u64)> = Vec::new(); // node, conn, anchor, interval, t
                                                                 // Open windows per (node, conn_a, conn_b).
    let mut open: Vec<OverlapWindow> = Vec::new();
    let mut done: Vec<OverlapWindow> = Vec::new();

    for s in samples {
        // Update this connection's latest anchor.
        match latest
            .iter_mut()
            .find(|(n, c, ..)| *n == s.node && *c == s.conn)
        {
            Some(slot) => {
                slot.2 = s.anchor_ns;
                slot.3 = s.interval_ns;
                slot.4 = s.t_ns;
            }
            None => latest.push((s.node, s.conn, s.anchor_ns, s.interval_ns, s.t_ns)),
        }
        // Compare against every other same-interval connection on the
        // same node. "Same interval" is tested with 1000 ppm of
        // tolerance: a recorded interval is the coordinator's nominal
        // interval seen through its own drifting clock, so two equal
        // nominal intervals recorded on different nodes differ by up
        // to twice the sleep-clock error budget (±250 ppm each) —
        // while genuinely distinct intervals sit ≥ one 1.25 ms unit
        // apart, far outside the tolerance.
        for &(n, c, anchor, interval, t) in &latest {
            if n != s.node
                || c == s.conn
                || interval == 0
                || interval.abs_diff(s.interval_ns) > interval / 1000
            {
                continue;
            }
            if s.t_ns.saturating_sub(t) > STALE_INTERVALS * interval {
                continue;
            }
            let (a, b) = if c < s.conn { (c, s.conn) } else { (s.conn, c) };
            let gap = phase_gap(s.anchor_ns % interval, anchor % interval, interval);
            let slot = open
                .iter_mut()
                .position(|w| w.node == n && w.conn_a == a && w.conn_b == b);
            if gap < overlap_ns {
                match slot {
                    Some(i) => {
                        let w = &mut open[i];
                        w.end_ns = s.t_ns;
                        w.min_gap_ns = w.min_gap_ns.min(gap);
                        w.samples += 1;
                    }
                    None => open.push(OverlapWindow {
                        node: n,
                        conn_a: a,
                        conn_b: b,
                        start_ns: s.t_ns,
                        end_ns: s.t_ns,
                        min_gap_ns: gap,
                        samples: 1,
                    }),
                }
            } else if let Some(i) = slot {
                done.push(open.remove(i));
            }
        }
    }
    done.extend(open);
    done.sort_by_key(|w| (w.start_ns, w.node, w.conn_a, w.conn_b));
    done
}

/// Connection endpoints `(conn, lo_node, hi_node)` reconstructed from
/// the timeline, deduplicated, in first-seen order.
///
/// `ConnUp`/`ConnDown` spans name the peer directly; for connections
/// whose up/down events fell off the ring (long-lived links in a
/// wrapped timeline) the endpoints are inferred from `ConnEvent`
/// spans instead — both sides record their events with a `coord`
/// flag, so the first coordinator-side and subordinate-side recording
/// nodes identify the pair.
pub fn conn_endpoints<'a>(
    events: impl IntoIterator<Item = &'a TimelineEvent>,
) -> Vec<(u64, u16, u16)> {
    let mut out: Vec<(u64, u16, u16)> = Vec::new();
    // conn → (coordinator-side node, subordinate-side node) observed.
    let mut roles: Vec<(u64, Option<u16>, Option<u16>)> = Vec::new();
    for ev in events {
        match ev.span {
            Span::ConnUp { conn, peer, .. } | Span::ConnDown { conn, peer, .. } => {
                let (a, b) = if ev.node.0 < peer.0 {
                    (ev.node.0, peer.0)
                } else {
                    (peer.0, ev.node.0)
                };
                if !out.iter().any(|&(c, x, y)| c == conn && x == a && y == b) {
                    out.push((conn, a, b));
                }
            }
            Span::ConnEvent { conn, coord, .. } => {
                let slot = match roles.iter_mut().find(|(c, ..)| *c == conn) {
                    Some(s) => s,
                    None => {
                        roles.push((conn, None, None));
                        roles.last_mut().unwrap()
                    }
                };
                let side = if coord { &mut slot.1 } else { &mut slot.2 };
                side.get_or_insert(ev.node.0);
            }
            _ => {}
        }
    }
    for (conn, coord, sub) in roles {
        if out.iter().any(|&(c, _, _)| c == conn) {
            continue;
        }
        if let (Some(x), Some(y)) = (coord, sub) {
            if x != y {
                out.push((conn, x.min(y), x.max(y)));
            }
        }
    }
    out
}

/// Shading detection grouped by *shared topology node*.
///
/// [`find_overlap_windows`] compares anchor trains recorded on the
/// same node — but each connection's dense train is recorded at its
/// *coordinator*, which for the paper's deployments is the downstream
/// endpoint, while shading happens wherever two connections share a
/// radio. This variant regroups: for every node, the anchor trains of
/// all incident connections (wherever they were recorded — anchors
/// are global time) are compared pairwise, and the resulting windows
/// carry the shared node in [`OverlapWindow::node`].
///
/// Pairs whose two connections have *identical* endpoints are
/// dropped: those are reconnect generations of the same link (the old
/// connection is dead while the new one runs — a link cannot shade
/// itself), and they would otherwise be reported at both shared
/// nodes.
pub fn find_shared_node_windows(
    samples: &[AnchorSample],
    endpoints: &[(u64, u16, u16)],
    overlap_ns: u64,
) -> Vec<OverlapWindow> {
    let mut nodes: Vec<u16> = endpoints.iter().flat_map(|&(_, a, b)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut out = Vec::new();
    for n in nodes {
        let incident: Vec<u64> = endpoints
            .iter()
            .filter(|&&(_, a, b)| a == n || b == n)
            .map(|&(c, _, _)| c)
            .collect();
        if incident.len() < 2 {
            continue;
        }
        let remapped: Vec<AnchorSample> = samples
            .iter()
            .filter(|s| incident.contains(&s.conn))
            .map(|s| AnchorSample { node: n, ..*s })
            .collect();
        out.extend(find_overlap_windows(&remapped, overlap_ns));
    }
    let ends_of = |c: u64| {
        endpoints
            .iter()
            .find(|&&(cc, _, _)| cc == c)
            .map(|&(_, a, b)| (a, b))
    };
    out.retain(|w| ends_of(w.conn_a) != ends_of(w.conn_b));
    out.sort_by_key(|w| (w.start_ns, w.node, w.conn_a, w.conn_b));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITV: u64 = 75_000_000; // 75 ms
    const OVERLAP: u64 = 3_000_000; // 3 ms combined event length

    fn sample(t_ns: u64, conn: u64, anchor_ns: u64) -> AnchorSample {
        AnchorSample {
            t_ns,
            node: 1,
            conn,
            anchor_ns,
            interval_ns: ITV,
        }
    }

    #[test]
    fn phase_gap_is_circular() {
        assert_eq!(phase_gap(0, 10, 100), 10);
        assert_eq!(phase_gap(95, 5, 100), 10);
        assert_eq!(phase_gap(50, 50, 100), 0);
    }

    #[test]
    fn drifting_trains_produce_one_window() {
        // Conn 1 anchored at phase 0; conn 2 starts 10 ms away and
        // drifts 1 ms closer each round until it crosses, then away.
        let mut samples = Vec::new();
        let mut t = 0;
        for round in 0..20i64 {
            let phase2 = (10_000_000 - round * 1_000_000).unsigned_abs();
            samples.push(sample(t, 1, (t / ITV) * ITV));
            samples.push(sample(t + 1, 2, (t / ITV) * ITV + phase2));
            t += ITV;
        }
        let windows = find_overlap_windows(&samples, OVERLAP);
        assert_eq!(windows.len(), 1, "{windows:?}");
        let w = windows[0];
        assert_eq!((w.conn_a, w.conn_b), (1, 2));
        assert_eq!(w.min_gap_ns, 0);
        // Rounds 8..=13: both trains' samples see the <3 ms phase gap
        // (conn 1's sample compares against conn 2's previous-round
        // anchor), so ~two overlapping samples per colliding round.
        assert_eq!(w.samples, 10);
        assert!(w.duration_ns() >= 4 * ITV);
    }

    #[test]
    fn separated_trains_produce_none() {
        let mut samples = Vec::new();
        for round in 0..10 {
            let t = round * ITV;
            samples.push(sample(t, 1, t));
            samples.push(sample(t + 1, 2, t + ITV / 2));
        }
        assert!(find_overlap_windows(&samples, OVERLAP).is_empty());
    }

    #[test]
    fn shared_node_regroups_across_recording_nodes() {
        use crate::timeline::TimelineEvent;
        use mindgap_sim::{Instant, NodeId};
        // Connections 1 (nodes 4–1) and 2 (nodes 1–0) share node 1 but
        // their coordinators — where the anchors are recorded — are
        // nodes 4 and 1 respectively.
        let ups = [
            TimelineEvent {
                t: Instant::ZERO,
                node: NodeId(4),
                span: Span::ConnUp {
                    conn: 1,
                    peer: NodeId(1),
                    coord: true,
                    interval_ns: ITV,
                },
            },
            TimelineEvent {
                t: Instant::ZERO,
                node: NodeId(1),
                span: Span::ConnUp {
                    conn: 2,
                    peer: NodeId(0),
                    coord: true,
                    interval_ns: ITV,
                },
            },
        ];
        let ends = conn_endpoints(ups.iter());
        assert_eq!(ends, vec![(1, 1, 4), (2, 0, 1)]);
        // Both trains anchored at the same phase: overlapping from the
        // start — but recorded on different nodes, so the plain
        // per-recording-node scan sees nothing.
        let mut samples = Vec::new();
        for round in 0..5u64 {
            let t = round * ITV;
            samples.push(AnchorSample {
                t_ns: t,
                node: 4,
                conn: 1,
                anchor_ns: t,
                interval_ns: ITV,
            });
            samples.push(AnchorSample {
                t_ns: t + 1,
                node: 1,
                conn: 2,
                anchor_ns: t,
                interval_ns: ITV,
            });
        }
        assert!(find_overlap_windows(&samples, OVERLAP).is_empty());
        let windows = find_shared_node_windows(&samples, &ends, OVERLAP);
        assert_eq!(windows.len(), 1, "{windows:?}");
        assert_eq!(windows[0].node, 1);
        assert_eq!((windows[0].conn_a, windows[0].conn_b), (1, 2));
    }

    #[test]
    fn different_interval_pairs_are_ignored() {
        let mut samples = vec![sample(0, 1, 0)];
        samples.push(AnchorSample {
            t_ns: 1,
            node: 1,
            conn: 2,
            anchor_ns: 0,
            interval_ns: ITV * 2,
        });
        assert!(find_overlap_windows(&samples, OVERLAP).is_empty());
    }

    #[test]
    fn clock_skewed_intervals_still_pair() {
        // Same nominal 75 ms interval recorded through two clocks
        // 500 ppm apart — inside the matching tolerance, so the
        // overlapping trains are detected.
        let skewed = ITV + ITV / 2000;
        let mut samples = Vec::new();
        for round in 0..5u64 {
            let t = round * ITV;
            samples.push(sample(t, 1, t));
            samples.push(AnchorSample {
                t_ns: t + 1,
                node: 1,
                conn: 2,
                anchor_ns: t,
                interval_ns: skewed,
            });
        }
        let windows = find_overlap_windows(&samples, OVERLAP);
        assert_eq!(windows.len(), 1, "{windows:?}");
    }
}
