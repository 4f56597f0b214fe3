//! Observability is part of the determinism contract: two runs with
//! the same seed must produce byte-identical timeline exports and
//! identical metric snapshots — otherwise exported artifacts could
//! not be compared across machines or re-runs, and the resumable
//! campaign store would thrash.

use mindgap::core::IntervalPolicy;
use mindgap::sim::Duration;
use mindgap::testbed::{run_ble, ExperimentSpec, Topology};

fn run(seed: u64) -> (String, Vec<(String, f64)>) {
    let spec = ExperimentSpec::paper_default(
        Topology::paper_tree(),
        IntervalPolicy::Static(Duration::from_millis(75)),
        seed,
    )
    .with_duration(Duration::from_secs(60))
    .with_timeline_cap(1 << 14);
    let res = run_ble(&spec);
    (res.timeline.to_jsonl(), res.metrics.flat("obs."))
}

#[test]
fn same_seed_timeline_and_metrics_are_identical() {
    let (jsonl_a, metrics_a) = run(7);
    let (jsonl_b, metrics_b) = run(7);

    assert_eq!(jsonl_a, jsonl_b, "timeline JSONL diverged across runs");
    assert_eq!(metrics_a, metrics_b, "metric snapshots diverged");

    if mindgap::obs::enabled() {
        // Non-vacuous: the run actually recorded something.
        assert!(
            jsonl_a.contains("\"kind\":\"conn_event\""),
            "no conn_event spans recorded"
        );
        assert!(
            metrics_a
                .iter()
                .any(|(k, v)| k == "obs.coap_req_tx" && *v > 0.0),
            "no CoAP traffic counted"
        );
        // The ring cap caps the export: 2^14 spans max.
        assert!(jsonl_a.lines().count() <= 1 << 14);
    } else {
        assert!(jsonl_a.is_empty());
        assert!(metrics_a.iter().all(|(_, v)| *v == 0.0));
    }
}

/// Chaos is inside the contract too: a scripted node reboot wipes and
/// rebuilds a full node mid-run, which exercises the reboot RNG
/// stream, timer cancellation and epoch-stamped producer chains — all
/// of it must replay byte-identically.
#[test]
fn fault_schedule_exports_are_identical_across_runs() {
    let run_faulted = || {
        let faults = mindgap::chaos::FaultSchedule::new()
            .node_crash(Duration::from_secs(45), 2, Duration::from_secs(5))
            .jammer_burst(Duration::from_secs(60), 10, 0.9, Duration::from_secs(5))
            .node_crash(Duration::from_secs(75), 1, Duration::from_secs(8));
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            7,
        )
        .with_duration(Duration::from_secs(90))
        // Ring large enough to keep the whole run, markers included.
        .with_timeline_cap(1 << 18)
        .with_faults(faults);
        let res = run_ble(&spec);
        (
            res.timeline.to_jsonl(),
            res.metrics.flat("obs."),
            res.recovery,
        )
    };
    let (jsonl_a, metrics_a, rec_a) = run_faulted();
    let (jsonl_b, metrics_b, rec_b) = run_faulted();
    assert_eq!(jsonl_a, jsonl_b, "faulted timeline diverged across runs");
    assert_eq!(metrics_a, metrics_b, "faulted metrics diverged");
    assert_eq!(rec_a, rec_b, "recovery metrics diverged");
    if mindgap::obs::enabled() {
        assert_eq!(
            jsonl_a.matches("\"kind\":\"fault_node_crash\"").count(),
            2,
            "both crash markers must be on the timeline"
        );
        assert!(
            jsonl_a.contains("\"kind\":\"fault_node_reboot\""),
            "reboot markers missing"
        );
    }
    // Recovery is folded online, so it holds under `obs-off` too.
    assert_eq!(rec_a.len(), 3, "three injections, three records");
    assert!(
        rec_a.iter().filter(|r| r.detect_ns.is_some()).count() >= 2,
        "crashes must be detected via supervision timeout"
    );
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the equality above isn't trivially true.
    let (jsonl_a, _) = run(7);
    let (jsonl_b, _) = run(8);
    if mindgap::obs::enabled() {
        assert_ne!(
            jsonl_a, jsonl_b,
            "different seeds produced identical timelines"
        );
    }
}
