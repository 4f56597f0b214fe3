//! Export determinism of both BLE transports: the same spec and seed
//! produce byte-identical timeline and metrics exports on repeated
//! runs, for the connection transport and the advertising transport
//! alike, and adv-only metrics stay out of connection-mode exports.

use mindgap_core::IntervalPolicy;
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

/// Exports of one run: (timeline JSONL, metrics CSV).
fn exports(adv: bool) -> (String, String) {
    let res = run_ble(&spec(adv));
    (res.timeline.to_jsonl(), res.metrics.to_csv())
}

#[test]
fn same_seed_exports_are_byte_identical_conn() {
    let (tl_a, m_a) = exports(false);
    let (tl_b, m_b) = exports(false);
    assert_eq!(tl_a, tl_b, "conn timeline must be deterministic");
    assert_eq!(m_a, m_b, "conn metrics must be deterministic");
    assert!(!m_a.is_empty());
}

#[test]
fn same_seed_exports_are_byte_identical_adv() {
    let (tl_a, m_a) = exports(true);
    let (tl_b, m_b) = exports(true);
    assert_eq!(tl_a, tl_b, "adv timeline must be deterministic");
    assert_eq!(m_a, m_b, "adv metrics must be deterministic");
    if mindgap_obs::enabled() {
        assert!(
            m_a.contains("ll_adv_trains"),
            "adv metrics must be registered in adv mode"
        );
    }
}

#[test]
fn adv_metrics_stay_out_of_conn_exports() {
    let (_, m) = exports(false);
    assert!(
        !m.contains("ll_adv_trains"),
        "adv metrics must not register in conn mode (export stability)"
    );
}
