//! Export determinism of both BLE transports: the same spec and seed
//! produce byte-identical timeline exports and identical metric
//! snapshots on repeated runs, for the connection transport and the
//! advertising transport alike, and adv-only metrics stay out of
//! connection-mode snapshots.

use mindgap_core::IntervalPolicy;
use mindgap_obs::{MetricsSnapshot, SnapValue};
use mindgap_sim::Duration;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

fn spec(adv: bool) -> ExperimentSpec {
    let s = ExperimentSpec::paper_default(
        Topology::line(4),
        IntervalPolicy::Static(Duration::from_millis(75)),
        42,
    )
    .with_duration(Duration::from_secs(45));
    if adv {
        s.with_adv_transport()
    } else {
        s
    }
}

/// Exports of one run: (timeline JSONL, metrics snapshot).
fn exports(adv: bool) -> (String, MetricsSnapshot) {
    let res = run_ble(&spec(adv));
    (res.timeline.to_jsonl(), res.metrics)
}

/// Every metric as `(name, per-node values)`, in registration order.
fn values(m: &MetricsSnapshot) -> Vec<(&'static str, &SnapValue)> {
    m.entries.iter().map(|e| (e.def.name, &e.value)).collect()
}

#[test]
fn same_seed_exports_are_byte_identical_conn() {
    let (tl_a, m_a) = exports(false);
    let (tl_b, m_b) = exports(false);
    assert_eq!(tl_a, tl_b, "conn timeline must be deterministic");
    assert_eq!(
        values(&m_a),
        values(&m_b),
        "conn metrics must be deterministic"
    );
    assert!(!m_a.entries.is_empty());
}

#[test]
fn same_seed_exports_are_byte_identical_adv() {
    let (tl_a, m_a) = exports(true);
    let (tl_b, m_b) = exports(true);
    assert_eq!(tl_a, tl_b, "adv timeline must be deterministic");
    assert_eq!(
        values(&m_a),
        values(&m_b),
        "adv metrics must be deterministic"
    );
    if mindgap_obs::enabled() {
        assert!(
            m_a.get("ll_adv_trains").is_some(),
            "adv metrics must be registered in adv mode"
        );
    }
}

#[test]
fn adv_metrics_stay_out_of_conn_exports() {
    let (_, m) = exports(false);
    assert!(
        m.get("ll_adv_trains").is_none(),
        "adv metrics must not register in conn mode (export stability)"
    );
}
