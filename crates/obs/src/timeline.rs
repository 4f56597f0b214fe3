//! The ring-buffered timeline recorder.
//!
//! Where the metrics registry answers "how many", the timeline answers
//! "when, in what order": it captures typed [`Span`]s — connection
//! events with their anchor points, supervision timeouts, channel-map
//! updates, credit stalls, parent switches — into a fixed-capacity
//! ring, overwriting the oldest entries when full (and counting how
//! many were overwritten, so truncation is never silent).
//!
//! Export is byte-deterministic: same seed, same capacity → identical
//! JSONL and CSV, which the determinism test pins. Keys are emitted in
//! a fixed order and numbers are plain integers (the kernel is
//! integer-time), so no float-formatting ambiguity exists.

use mindgap_sim::{Instant, NodeId};

/// One recorded span with its timestamp and owning node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Simulation time of the event.
    pub t: Instant,
    /// Node the event happened on.
    pub node: NodeId,
    /// What happened.
    pub span: Span,
}

/// Typed timeline spans. Connection handles are raw `u64`s so the
/// crate stays below the BLE layer in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// A link-layer connection event opened at `anchor_ns`. The
    /// anchor sequence per connection is the raw material of the
    /// paper's §6.2 shading analysis.
    ConnEvent {
        /// Connection handle.
        conn: u64,
        /// `true` when this node coordinates the connection.
        coord: bool,
        /// Anchor point (event start) in ns since sim start.
        anchor_ns: u64,
        /// Connection interval in ns.
        interval_ns: u64,
    },
    /// A connection reached Open.
    ConnUp {
        /// Connection handle.
        conn: u64,
        /// Peer node.
        peer: NodeId,
        /// `true` when this node coordinates the connection.
        coord: bool,
        /// Connection interval in ns.
        interval_ns: u64,
    },
    /// A connection closed (reason label is `&'static` from the LL).
    ConnDown {
        /// Connection handle.
        conn: u64,
        /// Peer node.
        peer: NodeId,
        /// Loss reason ("supervision_timeout", "collision_close", …).
        reason: &'static str,
    },
    /// A coordinator skipped a scheduled connection event (shading's
    /// direct mechanism: overlapping event trains starve each other).
    EventSkipped {
        /// Connection handle.
        conn: u64,
    },
    /// A channel-map update was applied at an instant boundary.
    ChannelMapUpdate {
        /// Connection handle.
        conn: u64,
        /// Number of channels still in use.
        used: u8,
    },
    /// A connection-parameter update was applied.
    ConnParamUpdate {
        /// Connection handle.
        conn: u64,
        /// New connection interval in ns.
        interval_ns: u64,
    },
    /// An L2CAP channel wanted to send but had zero credits.
    CreditStall {
        /// Connection handle.
        conn: u64,
        /// Bytes queued behind the stall.
        queued_bytes: u64,
    },
    /// The RPL agent switched preferred parent (`u16::MAX` = none).
    RplParentSwitch {
        /// Previous parent index, `u16::MAX` when none.
        old: u16,
        /// New parent index, `u16::MAX` when none.
        new: u16,
    },
    /// An SDU was dropped because the mbuf pool was exhausted (§5.2).
    MbufExhausted {
        /// Connection handle.
        conn: u64,
    },
    /// A scripted fault was injected (or cleared) by the chaos engine.
    /// The label is the full kind string ("fault_node_crash",
    /// "fault_link_restore", …) so exports need no extra column; the
    /// two payloads carry the fault's primary numbers (node / link
    /// ends / channel, duration — see DESIGN.md §9).
    Fault {
        /// Fault-kind label, `fault_`-prefixed.
        label: &'static str,
        /// First numeric payload (`u64::MAX` when unused).
        a: u64,
        /// Second numeric payload (`u64::MAX` when unused).
        b: u64,
    },
    /// The advertising transport started a train (connection-less
    /// transport only; see DESIGN.md §10).
    AdvTrain {
        /// Per-advertiser sequence number of the PDU.
        seq: u16,
        /// Transmit-queue depth at train start.
        queued: u16,
        /// Whether this is an empty beacon train.
        beacon: bool,
    },
    /// A scan window opened on an advertising channel.
    ScanWindow {
        /// Advertising channel (37..=39).
        channel: u8,
    },
    /// A received advertising PDU was suppressed as a duplicate.
    AdvDuplicate {
        /// Per-hop sender of the duplicate.
        advertiser: u16,
        /// Its sequence number.
        seq: u16,
    },
    /// The advertising transport heard a new neighbor.
    NeighborUp {
        /// The neighbor.
        peer: NodeId,
    },
    /// An advertising-transport neighbor fell silent.
    NeighborDown {
        /// The neighbor.
        peer: NodeId,
    },
    /// The peer manager sighted a peer for the first time (it entered
    /// the discovery cache). Convergence-time analysis starts here.
    Discovery {
        /// The discovered peer.
        peer: NodeId,
    },
    /// The peer manager started a connect attempt toward `peer`.
    PeerAttempt {
        /// Connection handle allocated for the attempt.
        conn: u64,
        /// The chosen peer.
        peer: NodeId,
    },
    /// A connect attempt failed (establishment failure or timeout).
    PeerAttemptFail {
        /// The peer the attempt targeted.
        peer: NodeId,
        /// `true` when the attempt timed out rather than failing fast.
        timeout: bool,
    },
    /// The peer manager rotated away from a repeatedly-failing peer.
    PeerRotation {
        /// The rotated-away peer.
        peer: NodeId,
    },
}

impl Span {
    /// Short kind label used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Span::ConnEvent { .. } => "conn_event",
            Span::ConnUp { .. } => "conn_up",
            Span::ConnDown { .. } => "conn_down",
            Span::EventSkipped { .. } => "event_skipped",
            Span::ChannelMapUpdate { .. } => "chmap_update",
            Span::ConnParamUpdate { .. } => "conn_param_update",
            Span::CreditStall { .. } => "credit_stall",
            Span::RplParentSwitch { .. } => "rpl_parent_switch",
            Span::MbufExhausted { .. } => "mbuf_exhausted",
            Span::Fault { label, .. } => label,
            Span::AdvTrain { .. } => "adv_train",
            Span::ScanWindow { .. } => "scan_window",
            Span::AdvDuplicate { .. } => "adv_duplicate",
            Span::NeighborUp { .. } => "neighbor_up",
            Span::NeighborDown { .. } => "neighbor_down",
            Span::Discovery { .. } => "discovery",
            Span::PeerAttempt { .. } => "peer_attempt",
            Span::PeerAttemptFail { .. } => "peer_attempt_fail",
            Span::PeerRotation { .. } => "peer_rotation",
        }
    }
}

/// Fixed-capacity ring of [`TimelineEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
    cap: usize,
    /// Oldest entry and next write position once the ring is full
    /// (0 until then).
    next: usize,
    overwritten: u64,
}

impl Timeline {
    /// A timeline holding at most `cap` events (`0` disables
    /// recording entirely — [`Timeline::record`] becomes a no-op).
    pub fn new(cap: usize) -> Self {
        Timeline {
            events: Vec::with_capacity(cap.min(1 << 20)),
            cap,
            next: 0,
            overwritten: 0,
        }
    }

    /// Whether this timeline records anything.
    pub fn enabled(&self) -> bool {
        self.cap > 0 && cfg!(not(feature = "off"))
    }

    /// Record one event. O(1); overwrites the oldest entry when full.
    #[inline]
    pub fn record(&mut self, t: Instant, node: NodeId, span: Span) {
        #[cfg(not(feature = "off"))]
        {
            if self.cap == 0 {
                return;
            }
            let ev = TimelineEvent { t, node, span };
            if self.events.len() < self.cap {
                self.events.push(ev);
            } else {
                self.events[self.next] = ev;
                self.next += 1;
                if self.next == self.cap {
                    self.next = 0;
                }
                self.overwritten += 1;
            }
        }
        #[cfg(feature = "off")]
        {
            let _ = (t, node, span);
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full. Non-zero means
    /// the exported window starts later than sim start.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Events in chronological order (oldest surviving entry first).
    pub fn iter(&self) -> impl Iterator<Item = &TimelineEvent> {
        let (newest, oldest) = self.events.split_at(self.next);
        oldest.iter().chain(newest.iter())
    }

    /// JSONL export: one JSON object per line, fixed key order
    /// (`t_ns`, `node`, `kind`, then span fields), byte-deterministic
    /// for a given run.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(self.len() * 96);
        for ev in self.iter() {
            push_jsonl(&mut s, ev);
        }
        s
    }
}

fn push_jsonl(s: &mut String, ev: &TimelineEvent) {
    use std::fmt::Write;
    let _ = write!(
        s,
        "{{\"t_ns\":{},\"node\":{},\"kind\":\"{}\"",
        ev.t.nanos(),
        ev.node.0,
        ev.span.kind()
    );
    let _ = match ev.span {
        Span::ConnEvent {
            conn,
            coord,
            anchor_ns,
            interval_ns,
        } => write!(
            s,
            ",\"conn\":{conn},\"coord\":{coord},\"anchor_ns\":{anchor_ns},\"interval_ns\":{interval_ns}"
        ),
        Span::ConnUp {
            conn,
            peer,
            coord,
            interval_ns,
        } => write!(
            s,
            ",\"conn\":{conn},\"peer\":{},\"coord\":{coord},\"interval_ns\":{interval_ns}",
            peer.0
        ),
        Span::ConnDown { conn, peer, reason } => write!(
            s,
            ",\"conn\":{conn},\"peer\":{},\"reason\":\"{reason}\"",
            peer.0
        ),
        Span::EventSkipped { conn } => write!(s, ",\"conn\":{conn}"),
        Span::ChannelMapUpdate { conn, used } => {
            write!(s, ",\"conn\":{conn},\"used\":{used}")
        }
        Span::ConnParamUpdate { conn, interval_ns } => {
            write!(s, ",\"conn\":{conn},\"interval_ns\":{interval_ns}")
        }
        Span::CreditStall { conn, queued_bytes } => {
            write!(s, ",\"conn\":{conn},\"queued_bytes\":{queued_bytes}")
        }
        Span::RplParentSwitch { old, new } => {
            write!(s, ",\"old\":{old},\"new\":{new}")
        }
        Span::MbufExhausted { conn } => write!(s, ",\"conn\":{conn}"),
        Span::Fault { a, b, .. } => write!(s, ",\"a\":{a},\"b\":{b}"),
        Span::AdvTrain { seq, queued, beacon } => {
            write!(s, ",\"seq\":{seq},\"queued\":{queued},\"beacon\":{beacon}")
        }
        Span::ScanWindow { channel } => write!(s, ",\"channel\":{channel}"),
        Span::AdvDuplicate { advertiser, seq } => {
            write!(s, ",\"advertiser\":{advertiser},\"seq\":{seq}")
        }
        Span::NeighborUp { peer } => write!(s, ",\"peer\":{}", peer.0),
        Span::NeighborDown { peer } => write!(s, ",\"peer\":{}", peer.0),
        Span::Discovery { peer } => write!(s, ",\"peer\":{}", peer.0),
        Span::PeerAttempt { conn, peer } => {
            write!(s, ",\"conn\":{conn},\"peer\":{}", peer.0)
        }
        Span::PeerAttemptFail { peer, timeout } => {
            write!(s, ",\"peer\":{},\"timeout\":{timeout}", peer.0)
        }
        Span::PeerRotation { peer } => write!(s, ",\"peer\":{}", peer.0),
    };
    s.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindgap_sim::Duration;

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let mut tl = Timeline::new(3);
        for i in 0..5u64 {
            tl.record(at(i), NodeId(0), Span::EventSkipped { conn: i });
        }
        if cfg!(feature = "off") {
            assert!(tl.is_empty());
            return;
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.overwritten(), 2);
        let kept: Vec<u64> = tl
            .iter()
            .map(|e| match e.span {
                Span::EventSkipped { conn } => conn,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        // Chronological even after wrap.
        let ts: Vec<u64> = tl.iter().map(|e| e.t.nanos()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut tl = Timeline::new(0);
        tl.record(at(1), NodeId(0), Span::EventSkipped { conn: 0 });
        assert!(tl.is_empty());
        assert!(!tl.enabled());
        assert_eq!(tl.to_jsonl(), "");
    }

    #[test]
    fn fault_span_exports_label_and_payloads() {
        let mut tl = Timeline::new(4);
        tl.record(
            at(9),
            NodeId(3),
            Span::Fault {
                label: "fault_node_crash",
                a: 3,
                b: 10_000_000_000,
            },
        );
        if cfg!(feature = "off") {
            return;
        }
        assert_eq!(
            tl.to_jsonl(),
            "{\"t_ns\":9000000,\"node\":3,\"kind\":\"fault_node_crash\",\"a\":3,\"b\":10000000000}\n"
        );
    }

    #[test]
    fn jsonl_fixed_key_order() {
        let mut tl = Timeline::new(8);
        tl.record(
            at(5),
            NodeId(1),
            Span::ConnEvent {
                conn: 7,
                coord: true,
                anchor_ns: 123,
                interval_ns: 75_000_000,
            },
        );
        tl.record(
            at(6),
            NodeId(2),
            Span::ConnDown {
                conn: 7,
                peer: NodeId(1),
                reason: "supervision_timeout",
            },
        );
        if cfg!(feature = "off") {
            return;
        }
        let jsonl = tl.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"t_ns\":5000000,\"node\":1,\"kind\":\"conn_event\",\"conn\":7,\"coord\":true,\"anchor_ns\":123,\"interval_ns\":75000000}"
        );
        assert_eq!(
            lines[1],
            "{\"t_ns\":6000000,\"node\":2,\"kind\":\"conn_down\",\"conn\":7,\"peer\":1,\"reason\":\"supervision_timeout\"}"
        );
    }
}
