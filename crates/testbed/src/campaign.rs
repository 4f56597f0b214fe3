//! Glue between the experiment runner and the campaign engine.
//!
//! The figure binaries hand `mindgap_campaign` a job body built from
//! [`run_ble`](crate::run_ble)/[`run_ieee`](crate::run_ieee); this
//! module defines the canonical
//! flattening of an [`ExperimentResult`] into the engine's
//! [`JobResult`] so every artifact uses the same metric and series
//! keys (listed in [`keys`]) and the binaries agree on what they read
//! back.

use mindgap_campaign::JobResult;
use mindgap_sim::NodeId;

use crate::runner::ExperimentResult;

/// Canonical metric/series keys used in campaign artifacts.
pub mod keys {
    /// CoAP packet delivery ratio over the measured window.
    pub const COAP_PDR: &str = "coap_pdr";
    /// Link-layer delivery ratio.
    pub const LL_PDR: &str = "ll_pdr";
    /// BLE connection losses during measurement.
    pub const CONN_LOSSES: &str = "conn_losses";
    /// statconn reconnects summed over nodes.
    pub const RECONNECTS: &str = "reconnects";
    /// mbuf-pool drops summed over nodes.
    pub const POOL_DROPS: &str = "pool_drops";
    /// CoAP requests sent.
    pub const TOTAL_SENT: &str = "total_sent";
    /// CoAP exchanges completed.
    pub const TOTAL_DONE: &str = "total_done";
    /// Records bucket width in seconds (needed to label PDR series).
    pub const BUCKET_S: &str = "bucket_s";
    /// Sorted RTT samples in seconds (series).
    pub const RTT_S: &str = "rtt_s";
    /// Network-average CoAP PDR per bucket (series).
    pub const PDR_SERIES: &str = "pdr_series";
    /// Per-node PDR series prefix: `"pdr_node_<n>"`.
    pub const PDR_NODE_PREFIX: &str = "pdr_node_";
    /// Stack drop-counter prefix: `"drop_<reason>"`.
    pub const DROP_PREFIX: &str = "drop_";
    /// Layered observability metric prefix: `"obs.<metric>"` (see the
    /// glossary in DESIGN.md §8). Histograms contribute
    /// `obs.<metric>.count` and `obs.<metric>.mean`.
    pub const OBS_PREFIX: &str = "obs.";
    /// Injected faults in the run (chaos runs only; see
    /// `mindgap-chaos` and DESIGN.md §9).
    pub const CHAOS_FAULTS: &str = "chaos.faults";
    /// Faults whose loss was detected (supervision timeout fired).
    pub const CHAOS_DETECTED: &str = "chaos.detected";
    /// Faults whose connection re-formed after detection.
    pub const CHAOS_RECONNECTED: &str = "chaos.reconnected";
    /// Per-fault time-to-detect in seconds, undetected omitted
    /// (series).
    pub const CHAOS_TTD_S: &str = "chaos.ttd_s";
    /// Per-fault time-to-reconnect in seconds, unrecovered omitted
    /// (series).
    pub const CHAOS_TTR_S: &str = "chaos.ttr_s";
    /// Per-fault time-to-RPL-repair in seconds (series; empty without
    /// dynamic routing).
    pub const CHAOS_TTRPL_S: &str = "chaos.ttrpl_s";
    /// Per-fault mbuf-exhaustion drops inside the fault window
    /// (series, one entry per fault).
    pub const CHAOS_PKTS_LOST: &str = "chaos.pkts_lost";
    /// Cold-start convergence time in seconds: first instant every
    /// non-root node holds an RPL parent (peers-mode runs only;
    /// absent when the run never fully converged).
    pub const CONVERGENCE_S: &str = "convergence_s";
}

/// Flatten an experiment result into a campaign artifact.
///
/// `per_node_series` lists node ids whose individual CoAP PDR series
/// should be recorded (Fig. 9's per-producer heatmap); pass `&[]`
/// when only network-level metrics are needed.
pub fn to_job_result(res: &ExperimentResult, per_node_series: &[u16]) -> JobResult {
    let r = &res.records;
    let mut out = JobResult::new(&res.label);
    out.trace_dropped = res.trace_dropped;
    out.metric(keys::COAP_PDR, r.coap_pdr())
        .metric(keys::LL_PDR, r.ll_pdr())
        .metric(keys::CONN_LOSSES, res.conn_losses as f64)
        .metric(keys::RECONNECTS, res.reconnects as f64)
        .metric(keys::POOL_DROPS, res.pool_drops as f64)
        .metric(keys::TOTAL_SENT, r.total_sent() as f64)
        .metric(keys::TOTAL_DONE, r.total_done() as f64)
        .metric(keys::BUCKET_S, r.bucket.as_secs_f64());
    for (reason, count) in &r.drops {
        out.metric(&format!("{}{reason}", keys::DROP_PREFIX), *count as f64);
    }
    for (name, value) in res.metrics.flat(keys::OBS_PREFIX) {
        out.metric(&name, value);
    }
    if let Some(conv) = res.convergence_s {
        out.metric(keys::CONVERGENCE_S, conv);
    }
    if !res.recovery.is_empty() {
        use mindgap_chaos::recovery;
        let rec = &res.recovery;
        out.metric(keys::CHAOS_FAULTS, rec.len() as f64)
            .metric(
                keys::CHAOS_DETECTED,
                rec.iter().filter(|f| f.detect_ns.is_some()).count() as f64,
            )
            .metric(
                keys::CHAOS_RECONNECTED,
                rec.iter().filter(|f| f.reconnect_ns.is_some()).count() as f64,
            );
        out.series(keys::CHAOS_TTD_S, recovery::detect_secs(rec))
            .series(keys::CHAOS_TTR_S, recovery::reconnect_secs(rec))
            .series(keys::CHAOS_TTRPL_S, recovery::rpl_repair_secs(rec))
            .series(
                keys::CHAOS_PKTS_LOST,
                rec.iter().map(|f| f.pkts_lost as f64).collect(),
            );
    }
    out.series(keys::RTT_S, r.rtt_sorted_secs())
        .series(keys::PDR_SERIES, r.coap_pdr_series());
    for &n in per_node_series {
        out.series(
            &format!("{}{n}", keys::PDR_NODE_PREFIX),
            r.coap_pdr_series_for(NodeId(n)),
        );
    }
    out
}

/// Reconstruct the stack drop-counter map (`Records::drops`) from a
/// job artifact's `drop_*` metrics, sorted by reason.
pub fn drops_of(jr: &JobResult) -> std::collections::BTreeMap<String, u64> {
    jr.metrics
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix(keys::DROP_PREFIX)
                .map(|reason| (reason.to_string(), *v as u64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_ble, ExperimentSpec};
    use crate::topology::Topology;
    use mindgap_core::IntervalPolicy;
    use mindgap_sim::Duration;

    #[test]
    fn flattening_matches_direct_accessors() {
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            7,
        )
        .with_duration(Duration::from_secs(30));
        let res = run_ble(&spec);
        let jr = to_job_result(&res, &[1, 2]);
        assert_eq!(jr.get(keys::COAP_PDR), res.records.coap_pdr());
        assert_eq!(jr.get(keys::LL_PDR), res.records.ll_pdr());
        assert_eq!(jr.get(keys::CONN_LOSSES), res.conn_losses as f64);
        assert_eq!(jr.get_series(keys::RTT_S), res.records.rtt_sorted_secs());
        assert_eq!(
            jr.get_series(keys::PDR_SERIES),
            res.records.coap_pdr_series()
        );
        assert_eq!(
            jr.get_series("pdr_node_2"),
            res.records.coap_pdr_series_for(NodeId(2))
        );
        assert_eq!(jr.trace_dropped, res.trace_dropped);
        assert_eq!(jr.label, res.label);
        if mindgap_obs::enabled() {
            assert_eq!(
                jr.get("obs.ll_conn_established"),
                res.metrics.total("ll_conn_established")
            );
            assert!(jr.get("obs.coap_req_tx") > 0.0);
        }
    }
}
