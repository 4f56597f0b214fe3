//! # mindgap-obs — metrics and timeline observability
//!
//! The paper's headline phenomenon, connection shading (§6.2), was
//! found by *looking at timelines* of connection anchors drifting into
//! collision — not by staring at end-of-run aggregates. This crate
//! gives every simulator run that same inspectability, cheaply enough
//! to leave on by default:
//!
//! * [`MetricsRegistry`] — dense, index-addressed counters, gauges and
//!   log2-bucket histograms, scoped per node and per stack [`Layer`]
//!   (PHY/LL/L2CAP/6LoWPAN/IPv6/RPL/CoAP). Everything is registered at
//!   `World` build time, so recording on the hot path is a single
//!   array write through a copyable id — no hashing, no strings, no
//!   allocation.
//! * [`Timeline`] — a fixed-capacity ring of typed [`Span`]s
//!   (connection events with anchors, supervision timeouts,
//!   channel-map updates, credit stalls, RPL parent switches) with
//!   byte-deterministic JSONL/CSV export.
//! * [`shading`] — re-derives the paper's §6.2 shading detection from
//!   recorded anchors: [`shading::find_overlap_windows`] flags the
//!   stretches where two same-interval event trains collide.
//!
//! [`StackMetrics`] is the canonical id-set the simulator registers;
//! its field docs double as the metric glossary (mirrored in
//! DESIGN.md §8).
//!
//! Building with the `off` feature (exposed as `obs-off` downstream)
//! compiles all recording to no-ops while keeping the API intact, so
//! call sites need no conditional code.
//!
//! ## Example
//!
//! ```
//! use mindgap_obs::{Layer, MetricsRegistry, Span, Timeline};
//! use mindgap_sim::{Instant, NodeId};
//!
//! // Registration happens once, up front …
//! let mut reg = MetricsRegistry::new(2);
//! let rtt = reg.histogram(Layer::Coap, "coap_rtt_us", "us", "request RTT");
//!
//! // … recording is an array write.
//! reg.observe(rtt, NodeId(0), 180_000);
//! reg.observe(rtt, NodeId(1), 95_000);
//!
//! let snap = reg.snapshot();
//! # #[cfg(not(feature = "off"))]
//! assert_eq!(snap.total("coap_rtt_us"), 2.0); // sample count
//!
//! // The timeline captures ordered, typed events …
//! let mut tl = Timeline::new(1024);
//! tl.record(
//!     Instant::from_millis(75),
//!     NodeId(0),
//!     Span::ConnEvent { conn: 1, coord: true, anchor_ns: 75_000_000, interval_ns: 75_000_000 },
//! );
//! // … and exports them byte-deterministically.
//! # #[cfg(not(feature = "off"))]
//! assert!(tl.to_jsonl().starts_with("{\"t_ns\":75000000,"));
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod shading;
pub mod timeline;

pub use metrics::{
    bucket_of, CounterId, GaugeId, HistId, Layer, MetricDef, MetricKind, MetricsRegistry,
    MetricsSnapshot, SnapEntry, SnapValue, HIST_BUCKETS,
};
pub use timeline::{Span, Timeline, TimelineEvent};

/// Whether observability is compiled in (`false` under the `off`
/// feature). Lets harnesses skip work that only matters when
/// recording is live.
pub const fn enabled() -> bool {
    cfg!(not(feature = "off"))
}

/// The canonical metric id-set registered by the simulator's `World`.
///
/// Field docs are the glossary source of truth: each entry states the
/// unit, how it is recorded (hot-path vs sampled at snapshot time),
/// and which paper figure or section it backs. DESIGN.md §8 mirrors
/// this table.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // each field documented below
pub struct StackMetrics {
    // ---- PHY ------------------------------------------------------
    /// PDUs put on air (frames, hot-path). Airtime denominator for
    /// the duty-cycle discussion around Fig. 8.
    pub phy_tx_frames: CounterId,
    /// Bytes put on air (bytes, hot-path).
    pub phy_tx_bytes: CounterId,
    /// Cumulative radio TX time (ns, sampled from `LlCounters`).
    pub phy_tx_airtime_ns: CounterId,
    /// Cumulative radio listen time (ns, sampled from `LlCounters`).
    pub phy_listen_ns: CounterId,

    // ---- LL -------------------------------------------------------
    /// Connection events opened as coordinator (events, sampled).
    /// Basis of the §6.2 anchor trains.
    pub ll_conn_events_coord: CounterId,
    /// Connection events followed as subordinate (events, sampled).
    pub ll_conn_events_sub: CounterId,
    /// Scheduled events the coordinator skipped because the radio was
    /// busy (events, sampled) — the direct §6.2 shading mechanism.
    pub ll_events_skipped: CounterId,
    /// Events where the subordinate heard nothing (events, sampled);
    /// sustained runs precede supervision timeouts (Fig. 10).
    pub ll_events_missed: CounterId,
    /// Data-PDU transmission attempts (frames, hot-path). With
    /// `ll_data_delivered` gives the per-link PRR behind Fig. 9.
    pub ll_data_attempts: CounterId,
    /// Data PDUs delivered (frames, hot-path).
    pub ll_data_delivered: CounterId,
    /// Connections reaching Open (conns, hot-path). Fig. 10/11
    /// churn numerator together with `ll_conn_lost`.
    pub ll_conn_established: CounterId,
    /// Connections lost, any reason (conns, hot-path).
    pub ll_conn_lost: CounterId,
    /// Losses whose reason was supervision timeout (conns, hot-path)
    /// — the shading fingerprint of §6.2 / Fig. 10.
    pub ll_supervision_timeouts: CounterId,

    // ---- L2CAP ----------------------------------------------------
    /// SDUs accepted for transmission on CoC channels (sdus,
    /// hot-path).
    pub l2cap_sdu_tx: CounterId,
    /// SDUs reassembled and delivered up (sdus, hot-path).
    pub l2cap_sdu_rx: CounterId,
    /// Times a channel had queued data but zero credits (stalls,
    /// sampled) — the §5.2 flow-control coupling.
    pub l2cap_credit_stalls: CounterId,
    /// SDUs dropped because the mbuf pool was exhausted (sdus,
    /// hot-path) — the §5.2 buffer-sizing failure mode (Fig. 14).
    pub l2cap_mbuf_drops: CounterId,
    /// Frames dropped as malformed or protocol-violating (frames,
    /// hot-path).
    pub l2cap_rx_malformed: CounterId,
    /// Distribution of received SDU sizes (bytes, hot-path
    /// histogram). Shows the fragmentation regime of §5.1.
    pub l2cap_sdu_bytes: HistId,

    // ---- 6LoWPAN --------------------------------------------------
    /// IPHC frames decoded successfully (frames, hot-path).
    pub sixlowpan_frames_decoded: CounterId,
    /// Frames that failed IPHC decoding (frames, hot-path).
    pub sixlowpan_decode_errors: CounterId,

    // ---- IPv6 -----------------------------------------------------
    /// Packets originated locally (pkts, sampled from `NetStats`).
    pub ipv6_originated: CounterId,
    /// Packets forwarded for others (pkts, sampled) — the multi-hop
    /// load split of Fig. 12.
    pub ipv6_forwarded: CounterId,
    /// Packets delivered to a local binding (pkts, sampled).
    pub ipv6_delivered: CounterId,
    /// Packets dropped in the stack (pkts, sampled).
    pub ipv6_dropped: CounterId,
    /// Sends failing locally: no route or link down (pkts,
    /// hot-path).
    pub ipv6_send_failures: CounterId,
    /// Routing failures: no-route forward drops plus refused local
    /// sends (pkts, sampled from `NetStats`) — the route-churn signal
    /// under dynamic topologies (§7).
    pub ipv6_no_route: CounterId,

    // ---- RPL ------------------------------------------------------
    /// Routing messages received (msgs, hot-path).
    pub rpl_msgs_rx: CounterId,
    /// Preferred-parent switches (switches, hot-path) — route churn
    /// under dynamic topologies (§7).
    pub rpl_parent_switches: CounterId,
    /// Current rank (rank, gauge; `-1` before joining a DODAG).
    pub rpl_rank: GaugeId,

    // ---- CoAP -----------------------------------------------------
    /// Requests sent by producers (msgs, hot-path). Fig. 12/15 PDR
    /// denominator.
    pub coap_req_tx: CounterId,
    /// Responses received by producers (msgs, hot-path). PDR
    /// numerator.
    pub coap_resp_rx: CounterId,
    /// Responses sent by the consumer (msgs, hot-path).
    pub coap_resp_tx: CounterId,
    /// Requests expired without a response (msgs, hot-path).
    pub coap_timeouts: CounterId,
    /// Request→response round-trip time (µs, hot-path histogram) —
    /// the latency distributions of Fig. 12/13/15.
    pub coap_rtt_us: HistId,
}

impl StackMetrics {
    /// Register the full stack id-set on `reg`.
    pub fn register(reg: &mut MetricsRegistry) -> Self {
        use Layer::*;
        StackMetrics {
            phy_tx_frames: reg.counter(Phy, "phy_tx_frames", "frames", "PDUs put on air"),
            phy_tx_bytes: reg.counter(Phy, "phy_tx_bytes", "bytes", "bytes put on air"),
            phy_tx_airtime_ns: reg.sampled(
                Phy,
                "phy_tx_airtime_ns",
                "ns",
                "cumulative radio TX time",
            ),
            phy_listen_ns: reg.sampled(Phy, "phy_listen_ns", "ns", "cumulative listen time"),
            ll_conn_events_coord: reg.sampled(
                Ll,
                "ll_conn_events_coord",
                "events",
                "connection events opened as coordinator",
            ),
            ll_conn_events_sub: reg.sampled(
                Ll,
                "ll_conn_events_sub",
                "events",
                "connection events followed as subordinate",
            ),
            ll_events_skipped: reg.sampled(
                Ll,
                "ll_events_skipped",
                "events",
                "coordinator events skipped while radio busy (shading)",
            ),
            ll_events_missed: reg.sampled(
                Ll,
                "ll_events_missed",
                "events",
                "subordinate events with nothing heard",
            ),
            ll_data_attempts: reg.counter(
                Ll,
                "ll_data_attempts",
                "frames",
                "data-PDU transmission attempts",
            ),
            ll_data_delivered: reg.counter(
                Ll,
                "ll_data_delivered",
                "frames",
                "data PDUs delivered",
            ),
            ll_conn_established: reg.counter(
                Ll,
                "ll_conn_established",
                "conns",
                "connections reaching Open",
            ),
            ll_conn_lost: reg.counter(Ll, "ll_conn_lost", "conns", "connections lost"),
            ll_supervision_timeouts: reg.counter(
                Ll,
                "ll_supervision_timeouts",
                "conns",
                "losses by supervision timeout",
            ),
            l2cap_sdu_tx: reg.counter(L2cap, "l2cap_sdu_tx", "sdus", "SDUs accepted for TX"),
            l2cap_sdu_rx: reg.counter(L2cap, "l2cap_sdu_rx", "sdus", "SDUs delivered up"),
            l2cap_credit_stalls: reg.sampled(
                L2cap,
                "l2cap_credit_stalls",
                "stalls",
                "sends stalled on zero credits",
            ),
            l2cap_mbuf_drops: reg.counter(
                L2cap,
                "l2cap_mbuf_drops",
                "sdus",
                "SDUs dropped, mbuf pool exhausted",
            ),
            l2cap_rx_malformed: reg.counter(
                L2cap,
                "l2cap_rx_malformed",
                "frames",
                "malformed/protocol-violating frames dropped",
            ),
            l2cap_sdu_bytes: reg.histogram(L2cap, "l2cap_sdu_bytes", "bytes", "received SDU sizes"),
            sixlowpan_frames_decoded: reg.counter(
                Sixlowpan,
                "sixlowpan_frames_decoded",
                "frames",
                "IPHC frames decoded",
            ),
            sixlowpan_decode_errors: reg.counter(
                Sixlowpan,
                "sixlowpan_decode_errors",
                "frames",
                "IPHC decode failures",
            ),
            ipv6_originated: reg.sampled(
                Ipv6,
                "ipv6_originated",
                "pkts",
                "packets originated locally",
            ),
            ipv6_forwarded: reg.sampled(
                Ipv6,
                "ipv6_forwarded",
                "pkts",
                "packets forwarded for others",
            ),
            ipv6_delivered: reg.sampled(
                Ipv6,
                "ipv6_delivered",
                "pkts",
                "packets delivered locally",
            ),
            ipv6_dropped: reg.sampled(Ipv6, "ipv6_dropped", "pkts", "packets dropped in stack"),
            ipv6_send_failures: reg.counter(
                Ipv6,
                "ipv6_send_failures",
                "pkts",
                "local send failures (no route / link down)",
            ),
            ipv6_no_route: reg.sampled(
                Ipv6,
                "ipv6_no_route",
                "pkts",
                "routing failures (no-route drops + refused sends)",
            ),
            rpl_msgs_rx: reg.counter(Rpl, "rpl_msgs_rx", "msgs", "routing messages received"),
            rpl_parent_switches: reg.counter(
                Rpl,
                "rpl_parent_switches",
                "switches",
                "preferred-parent switches",
            ),
            rpl_rank: reg.gauge(Rpl, "rpl_rank", "rank", "current rank (-1 unjoined)"),
            coap_req_tx: reg.counter(Coap, "coap_req_tx", "msgs", "requests sent"),
            coap_resp_rx: reg.counter(Coap, "coap_resp_rx", "msgs", "responses received"),
            coap_resp_tx: reg.counter(Coap, "coap_resp_tx", "msgs", "responses sent"),
            coap_timeouts: reg.counter(Coap, "coap_timeouts", "msgs", "requests expired"),
            coap_rtt_us: reg.histogram(Coap, "coap_rtt_us", "us", "request RTT"),
        }
    }
}

/// Metric id-set of the connection-less advertising transport
/// (`mindgap-adv`). Registered **only** when a world runs in
/// advertising mode, so connection-mode metric exports stay
/// byte-identical to builds without this transport.
#[derive(Debug, Clone, Copy)]
pub struct AdvMetrics {
    /// Advertising events run (events, sampled).
    pub adv_events: CounterId,
    /// Data trains completed — 3 PDUs each (trains, sampled).
    pub adv_trains: CounterId,
    /// Beacon trains completed (trains, sampled).
    pub adv_beacon_trains: CounterId,
    /// Individual advertising PDUs transmitted (frames, sampled).
    pub adv_pdus_tx: CounterId,
    /// Data PDUs received intact, pre-dedup (frames, sampled).
    pub adv_pdus_rx: CounterId,
    /// Beacon PDUs received (frames, sampled).
    pub adv_beacons_rx: CounterId,
    /// PDUs suppressed by the duplicate cache (frames, sampled).
    pub adv_dups_suppressed: CounterId,
    /// Frames delivered up to 6LoWPAN (frames, sampled).
    pub adv_delivered: CounterId,
    /// Always 0: the advertising transport relays nothing, so no frame
    /// is re-queued. Registered because the benchmark reads the
    /// metric by name (frames, sampled).
    pub adv_rebroadcasts: CounterId,
    /// Frames refused at a full transmit queue (frames, sampled).
    pub adv_queue_drops: CounterId,
    /// Neighbor link-up edges (edges, sampled).
    pub adv_neighbor_ups: CounterId,
    /// Neighbor link-down edges (edges, sampled).
    pub adv_neighbor_downs: CounterId,
    /// Scan windows opened (windows, sampled).
    pub adv_scan_windows: CounterId,
    /// Current neighbor-table size (neighbors, gauge).
    pub adv_neighbors: GaugeId,
    /// Current transmit-queue depth (frames, gauge).
    pub adv_queue_depth: GaugeId,
}

impl AdvMetrics {
    /// Register the advertising-transport id-set on `reg`.
    pub fn register(reg: &mut MetricsRegistry) -> Self {
        use Layer::*;
        AdvMetrics {
            adv_events: reg.sampled(Ll, "ll_adv_events", "events", "advertising events run"),
            adv_trains: reg.sampled(Ll, "ll_adv_trains", "trains", "data trains completed"),
            adv_beacon_trains: reg.sampled(
                Ll,
                "ll_adv_beacon_trains",
                "trains",
                "beacon trains completed",
            ),
            adv_pdus_tx: reg.sampled(Ll, "ll_adv_pdus_tx", "frames", "advertising PDUs sent"),
            adv_pdus_rx: reg.sampled(
                Ll,
                "ll_adv_pdus_rx",
                "frames",
                "data PDUs received (pre-dedup)",
            ),
            adv_beacons_rx: reg.sampled(Ll, "ll_adv_beacons_rx", "frames", "beacons received"),
            adv_dups_suppressed: reg.sampled(
                Ll,
                "ll_adv_dups_suppressed",
                "frames",
                "duplicates suppressed",
            ),
            adv_delivered: reg.sampled(Ll, "ll_adv_delivered", "frames", "frames delivered up"),
            adv_rebroadcasts: reg.sampled(
                Ll,
                "ll_adv_rebroadcasts",
                "frames",
                "always 0: the transport relays nothing; kept for the benchmark, which reads it by name",
            ),
            adv_queue_drops: reg.sampled(
                Ll,
                "ll_adv_queue_drops",
                "frames",
                "frames refused at full queue",
            ),
            adv_neighbor_ups: reg.sampled(Ll, "ll_adv_neighbor_ups", "edges", "link-up edges"),
            adv_neighbor_downs: reg.sampled(
                Ll,
                "ll_adv_neighbor_downs",
                "edges",
                "link-down edges",
            ),
            adv_scan_windows: reg.sampled(Ll, "ll_adv_scan_windows", "windows", "scan windows"),
            adv_neighbors: reg.gauge(Ll, "ll_adv_neighbors", "neighbors", "neighbor-table size"),
            adv_queue_depth: reg.gauge(Ll, "ll_adv_queue_depth", "frames", "tx-queue depth"),
        }
    }
}

/// Metric id-set of the peer-manager policy (`mindgap_core::peers`).
/// Registered **only** when a world runs with dynamic peer management,
/// so static-topology metric exports stay byte-identical to builds
/// without the policy layer.
#[derive(Debug, Clone, Copy)]
pub struct PeerMetrics {
    /// Advertising sightings fed to the policy (sightings, sampled).
    pub peer_sightings: CounterId,
    /// First-time discoveries — new cache entries (peers, sampled).
    pub peer_discoveries: CounterId,
    /// Connect attempts started (attempts, sampled).
    pub peer_attempts: CounterId,
    /// Attempts that reached an open connection (attempts, sampled).
    pub peer_successes: CounterId,
    /// Attempts that failed (attempts, sampled).
    pub peer_failures: CounterId,
    /// Failed attempts that were timeouts (attempts, sampled).
    pub peer_timeouts: CounterId,
    /// Peers rotated away from (peers, sampled).
    pub peer_rotations: CounterId,
    /// Inbound connections refused (conns, sampled).
    pub peer_refusals: CounterId,
    /// Established connections lost (conns, sampled).
    pub peer_losses: CounterId,
    /// Current established-connection count (conns, gauge).
    pub peer_pool_size: GaugeId,
    /// Current discovery-cache size (peers, gauge).
    pub peer_known: GaugeId,
}

impl PeerMetrics {
    /// Register the peer-manager id-set on `reg`.
    pub fn register(reg: &mut MetricsRegistry) -> Self {
        use Layer::*;
        PeerMetrics {
            peer_sightings: reg.sampled(
                Ll,
                "ll_peer_sightings",
                "sightings",
                "adv sightings fed to policy",
            ),
            peer_discoveries: reg.sampled(
                Ll,
                "ll_peer_discoveries",
                "peers",
                "first-time discoveries",
            ),
            peer_attempts: reg.sampled(
                Ll,
                "ll_peer_attempts",
                "attempts",
                "connect attempts started",
            ),
            peer_successes: reg.sampled(
                Ll,
                "ll_peer_successes",
                "attempts",
                "attempts established",
            ),
            peer_failures: reg.sampled(Ll, "ll_peer_failures", "attempts", "attempts failed"),
            peer_timeouts: reg.sampled(Ll, "ll_peer_timeouts", "attempts", "attempts timed out"),
            peer_rotations: reg.sampled(Ll, "ll_peer_rotations", "peers", "peers rotated away"),
            peer_refusals: reg.sampled(Ll, "ll_peer_refusals", "conns", "inbound conns refused"),
            peer_losses: reg.sampled(Ll, "ll_peer_losses", "conns", "established conns lost"),
            peer_pool_size: reg.gauge(Ll, "ll_peer_pool_size", "conns", "established conns"),
            peer_known: reg.gauge(Ll, "ll_peer_known", "peers", "discovery-cache size"),
        }
    }
}

/// Everything a simulator world owns for observability: the registry,
/// the pre-registered [`StackMetrics`] ids, and the timeline.
#[derive(Debug)]
pub struct Obs {
    /// The metrics registry.
    pub reg: MetricsRegistry,
    /// Pre-registered stack metric ids (copy freely).
    pub m: StackMetrics,
    /// The event timeline (`cap = 0` disables it).
    pub timeline: Timeline,
}

impl Obs {
    /// Build a registry scoped to `n_nodes` with the canonical stack
    /// metrics registered and a timeline of `timeline_cap` events.
    pub fn new(n_nodes: usize, timeline_cap: usize) -> Self {
        let mut reg = MetricsRegistry::new(n_nodes);
        let m = StackMetrics::register(&mut reg);
        Obs {
            reg,
            m,
            timeline: Timeline::new(timeline_cap),
        }
    }

    /// Snapshot the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.reg.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_metrics_register_unique_names() {
        let mut reg = MetricsRegistry::new(4);
        let _m = StackMetrics::register(&mut reg);
        let names: Vec<&str> = reg.defs().map(|d| d.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate metric names");
        // Every layer is represented.
        for layer in ["phy", "ll", "l2cap", "6lowpan", "ipv6", "rpl", "coap"] {
            assert!(
                reg.defs().any(|d| d.layer.label() == layer),
                "no metrics for layer {layer}"
            );
        }
        // Names are layer-prefixed (6lowpan uses the identifier-safe
        // `sixlowpan` prefix).
        for d in reg.defs() {
            let prefix = match d.layer {
                Layer::Sixlowpan => "sixlowpan",
                other => other.label(),
            };
            assert!(
                d.name.starts_with(prefix),
                "{} not prefixed with {prefix}",
                d.name
            );
        }
    }

    #[test]
    fn obs_bundle_snapshot_roundtrip() {
        let mut obs = Obs::new(3, 64);
        obs.reg.inc(obs.m.coap_req_tx, mindgap_sim::NodeId(2));
        let snap = obs.snapshot();
        if cfg!(feature = "off") {
            assert_eq!(snap.total("coap_req_tx"), 0.0);
        } else {
            assert_eq!(snap.total("coap_req_tx"), 1.0);
        }
        assert!(snap.get("ll_events_skipped").is_some());
    }
}
