//! Workspace-level integration tests: the paper's experiments run
//! end-to-end through every crate, with assertions on the *shapes*
//! the paper reports.

use mindgap::core::IntervalPolicy;
use mindgap::sim::{Duration, NodeId};
use mindgap::testbed::{run_ble, run_ieee, ExperimentSpec, Topology};

fn static_75() -> IntervalPolicy {
    IntervalPolicy::Static(Duration::from_millis(75))
}

fn randomized() -> IntervalPolicy {
    IntervalPolicy::Randomized {
        lo: Duration::from_millis(65),
        hi: Duration::from_millis(85),
    }
}

/// §5.1: the tree under moderate load delivers ≳99.9 % with RTTs a
/// small multiple of the connection interval.
#[test]
fn tree_moderate_load_matches_paper_operating_point() {
    let spec = ExperimentSpec::paper_default(Topology::paper_tree(), static_75(), 42)
        .with_duration(Duration::from_secs(300));
    let res = run_ble(&spec);
    let r = &res.records;
    assert!(r.total_sent() > 3_500, "workload ran: {}", r.total_sent());
    assert!(r.coap_pdr() > 0.99, "PDR {}", r.coap_pdr());
    assert!(
        r.ll_pdr() > 0.96 && r.ll_pdr() < 1.0,
        "LL PDR {}",
        r.ll_pdr()
    );
    let p50 = r.rtt_quantile_secs(0.5).unwrap();
    // Mean 2.14 hops each way at 75 ms → roughly 2–4 intervals.
    assert!(p50 > 0.075 && p50 < 0.35, "p50 {p50}");
}

/// §5.1: the line's RTT scales with its hop count relative to the
/// tree (paper: factor ≈ 3.5 = 7.5 / 2.14 mean hops).
#[test]
fn line_rtt_scales_with_hops() {
    let tree = run_ble(
        &ExperimentSpec::paper_default(Topology::paper_tree(), static_75(), 1)
            .with_duration(Duration::from_secs(240)),
    );
    let line = run_ble(
        &ExperimentSpec::paper_default(Topology::paper_line(), static_75(), 1)
            .with_duration(Duration::from_secs(240)),
    );
    let t = tree.records.rtt_quantile_secs(0.5).unwrap();
    let l = line.records.rtt_quantile_secs(0.5).unwrap();
    let ratio = l / t;
    assert!(
        ratio > 2.0 && ratio < 8.0,
        "line/tree RTT ratio {ratio:.2} (paper ≈ 3.5)"
    );
    assert!(line.records.coap_pdr() > 0.99);
}

/// §5.2: overload loses packets to buffer overflow, and the loss is
/// unevenly distributed across producers.
#[test]
fn overload_loses_packets_unevenly() {
    let spec = ExperimentSpec::paper_default(Topology::paper_tree(), static_75(), 42)
        .with_duration(Duration::from_secs(300))
        .with_producer_interval(Duration::from_millis(100));
    let res = run_ble(&spec);
    let r = &res.records;
    let pdr = r.coap_pdr();
    assert!(pdr < 0.95, "overload must lose packets: {pdr}");
    assert!(pdr > 0.3, "but not collapse entirely: {pdr}");
    assert!(res.pool_drops > 0, "mbuf pool must overflow");
    // Uneven distribution: at least one producer far below another.
    let per_node: Vec<f64> = (1..15u16)
        .map(|n| {
            let s: u64 = r
                .coap_sent
                .get(&NodeId(n))
                .map(|v| v.iter().sum())
                .unwrap_or(0);
            let d: u64 = r
                .coap_done
                .get(&NodeId(n))
                .map(|v| v.iter().sum())
                .unwrap_or(0);
            d as f64 / s.max(1) as f64
        })
        .collect();
    let best = per_node.iter().cloned().fold(0.0, f64::max);
    let worst = per_node.iter().cloned().fold(1.0, f64::min);
    assert!(
        best - worst > 0.2,
        "PDR must spread across producers: best {best:.2} worst {worst:.2}"
    );
}

/// §6.3 headline: over a multi-hour tree run with realistic drift,
/// static intervals lose connections, randomized intervals lose none.
#[test]
fn mitigation_eliminates_connection_losses() {
    let hours = 3;
    let duration = Duration::from_secs(hours * 3600);
    let stat = run_ble(
        &ExperimentSpec::paper_default(Topology::paper_tree(), static_75(), 9)
            .with_duration(duration)
            .with_clock_ppm(6.0),
    );
    let rand = run_ble(
        &ExperimentSpec::paper_default(Topology::paper_tree(), randomized(), 9)
            .with_duration(duration)
            .with_clock_ppm(6.0),
    );
    assert!(
        stat.conn_losses > 0,
        "static intervals must shade within {hours} h"
    );
    assert_eq!(
        rand.conn_losses, 0,
        "randomized intervals must not lose connections"
    );
    // The paper's trade-off: randomized LL PDR is slightly lower.
    assert!(rand.records.ll_pdr() < stat.records.ll_pdr());
    assert!(rand.records.ll_pdr() > 0.93);
    // And CoAP reliability is *better* (no loss episodes).
    assert!(rand.records.coap_pdr() >= stat.records.coap_pdr());
}

/// §5.3: 802.15.4 loses more but answers faster than BLE, on the same
/// topology and workload.
#[test]
fn ieee_vs_ble_shape() {
    let spec = ExperimentSpec::paper_default(Topology::paper_tree(), static_75(), 4)
        .with_duration(Duration::from_secs(240));
    let ble = run_ble(&spec);
    let ieee = run_ieee(&spec);
    assert!(
        ieee.records.coap_pdr() < ble.records.coap_pdr() - 0.05,
        "802.15.4 {} vs BLE {}",
        ieee.records.coap_pdr(),
        ble.records.coap_pdr()
    );
    assert!(ieee.records.coap_pdr() > 0.7, "but still functional");
    let ieee_p50 = ieee.records.rtt_quantile_secs(0.5).unwrap();
    let ble_p50 = ble.records.rtt_quantile_secs(0.5).unwrap();
    assert!(
        ieee_p50 < ble_p50 / 2.0,
        "802.15.4 delivers faster: {ieee_p50} vs {ble_p50}"
    );
}

/// The whole experiment pipeline is deterministic from the seed.
#[test]
fn experiments_are_deterministic() {
    let run = || {
        let res = run_ble(
            &ExperimentSpec::paper_default(Topology::paper_tree(), randomized(), 77)
                .with_duration(Duration::from_secs(120)),
        );
        (
            res.records.total_sent(),
            res.records.total_done(),
            res.records.ll_pdr().to_bits(),
            res.conn_losses,
            res.reconnects,
        )
    };
    assert_eq!(run(), run());
}

/// Different seeds genuinely change the run (jitter, drift, phases).
#[test]
fn seeds_matter() {
    let run = |seed| {
        run_ble(
            &ExperimentSpec::paper_default(Topology::paper_tree(), static_75(), seed)
                .with_duration(Duration::from_secs(90)),
        )
        .records
        .rtt
        .len()
    };
    assert_ne!(run(1), run(2));
}
