//! End-to-end campaign-engine regression tests on top of the real
//! BLE experiment runner: worker-count independence (byte-identical
//! artifacts), resume, and panic isolation.
//!
//! These complement the synthetic unit tests inside
//! `mindgap_campaign::pool` — here the job body is a genuine
//! (short) `run_ble` simulation, so the test also guards the
//! determinism of the whole simulation stack under the pool's
//! arbitrary scheduling order.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use mindgap_campaign::{GridBuilder, RunConfig};
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::{run_ble, run_ieee, ExperimentResult, ExperimentSpec, Topology};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mindgap-campaign-it")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn quiet(out_root: PathBuf, workers: usize) -> RunConfig {
    RunConfig {
        workers,
        out_root,
        resume: true,
        progress: false,
    }
}

fn small_grid() -> mindgap_campaign::Campaign {
    GridBuilder::new("it-det", 42)
        .axis("conn", ["25", "100"].iter().map(|s| s.to_string()))
        .explicit_seeds(&[42, 43])
        .build()
}

fn run_job(job: &mindgap_campaign::Job) -> mindgap_campaign::JobResult {
    let ms: u64 = job.params["conn"].parse().unwrap();
    let spec = ExperimentSpec::paper_default(
        Topology::paper_tree(),
        IntervalPolicy::Static(Duration::from_millis(ms)),
        job.seed,
    )
    .with_duration(Duration::from_secs(20));
    to_job_result(&run_ble(&spec), &[])
}

/// Read every job artifact of a campaign directory as raw bytes.
fn artifact_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let jobs = root.join("it-det").join("jobs");
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(&jobs).expect("jobs dir") {
        let path = entry.unwrap().path();
        out.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            fs::read(&path).unwrap(),
        );
    }
    out
}

#[test]
fn artifacts_identical_across_worker_counts_and_resume_skips() {
    let root1 = scratch("w1");
    let root4 = scratch("w4");

    let report1 = mindgap_campaign::run(&small_grid(), &quiet(root1.clone(), 1), run_job);
    let report4 = mindgap_campaign::run(&small_grid(), &quiet(root4.clone(), 4), run_job);
    assert_eq!(report1.completed(), 4);
    assert_eq!(report4.completed(), 4);
    assert!(report1.failures().is_empty());

    let bytes1 = artifact_bytes(&root1);
    let bytes4 = artifact_bytes(&root4);
    assert_eq!(bytes1.len(), 4);
    assert_eq!(bytes1, bytes4, "artifacts must not depend on worker count");

    // Second launch over the same store: every job is served from the
    // artifacts, the body never runs.
    let calls = AtomicUsize::new(0);
    let resumed = mindgap_campaign::run(&small_grid(), &quiet(root1.clone(), 4), |job| {
        calls.fetch_add(1, Ordering::SeqCst);
        run_job(job)
    });
    assert_eq!(
        calls.load(Ordering::SeqCst),
        0,
        "resume must skip completed jobs"
    );
    assert_eq!(resumed.cached(), 4);
    assert_eq!(
        bytes1,
        artifact_bytes(&root1),
        "resume must not rewrite artifacts"
    );

    let _ = fs::remove_dir_all(&root1);
    let _ = fs::remove_dir_all(&root4);
}

/// Regression guard for the zero-allocation hot path: short
/// figure-07/figure-15-shaped workloads (tree and line topology,
/// static and randomized connection intervals) must produce byte-identical
/// artifacts across two independent runs at the same seed. The buffer
/// pool, the scratch-output reuse, the indexed `tx_end` slab, and the
/// slot-stamped event queue all recycle state between events — any
/// leak of recycled bytes or reordering of RNG draws shows up here.
#[test]
fn figure_workloads_are_bytewise_reproducible() {
    let ms = Duration::from_millis;
    let grid = || {
        GridBuilder::new("fig-shape", 42)
            .axis(
                "case",
                ["tree-75", "line-75", "tree-40-60"]
                    .iter()
                    .map(|s| s.to_string()),
            )
            .explicit_seeds(&[42])
            .build()
    };
    // fig07 shape: both topologies at the paper's 75 ms static
    // interval; fig15 shape: a randomized-interval cell. 70 s covers
    // the 30 s warmup plus real producer traffic on the data path.
    let body = |job: &mindgap_campaign::Job| {
        let (topo, policy) = match job.params["case"].as_str() {
            "line-75" => (Topology::paper_line(), IntervalPolicy::Static(ms(75))),
            "tree-40-60" => (
                Topology::paper_tree(),
                IntervalPolicy::Randomized {
                    lo: ms(40),
                    hi: ms(60),
                },
            ),
            _ => (Topology::paper_tree(), IntervalPolicy::Static(ms(75))),
        };
        let spec = ExperimentSpec::paper_default(topo, policy, job.seed)
            .with_duration(Duration::from_secs(70));
        to_job_result(&run_ble(&spec), &[])
    };
    let root_a = scratch("fig-a");
    let root_b = scratch("fig-b");
    let report_a = mindgap_campaign::run(&grid(), &quiet(root_a.clone(), 2), body);
    let report_b = mindgap_campaign::run(&grid(), &quiet(root_b.clone(), 1), body);
    assert!(report_a.failures().is_empty());
    assert!(report_b.failures().is_empty());
    let bytes_a = figure_artifact_bytes(&root_a);
    let bytes_b = figure_artifact_bytes(&root_b);
    assert_eq!(bytes_a.len(), 3);
    assert_eq!(
        bytes_a, bytes_b,
        "figure-shaped artifacts must be byte-identical across repeated runs"
    );
    let _ = fs::remove_dir_all(&root_a);
    let _ = fs::remove_dir_all(&root_b);
}

/// Like [`artifact_bytes`] but for the figure-shaped campaign name.
fn figure_artifact_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let jobs = root.join("fig-shape").join("jobs");
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(&jobs).expect("jobs dir") {
        let path = entry.unwrap().path();
        out.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            fs::read(&path).unwrap(),
        );
    }
    out
}

/// Chaos runs are part of the worker-count-independence contract: a
/// scripted crash/reboot rebuilds an entire node mid-run from the
/// dedicated reboot RNG stream, and the recovery series land in the
/// artifact — all byte-identical whether the pool runs 1 or 4 jobs
/// in parallel.
#[test]
fn chaos_artifacts_identical_across_worker_counts() {
    use mindgap::chaos::FaultSchedule;
    let grid = || {
        GridBuilder::new("chaos-det", 42)
            .axis("sup_ms", ["500", "2000"].iter().map(|s| s.to_string()))
            .explicit_seeds(&[42, 43])
            .build()
    };
    let body = |job: &mindgap_campaign::Job| {
        let sup: u64 = job.params["sup_ms"].parse().unwrap();
        let faults = FaultSchedule::new()
            .node_crash(Duration::from_secs(40), 1, Duration::from_secs(5))
            .node_crash(Duration::from_secs(60), 2, Duration::from_secs(5));
        let spec = ExperimentSpec::paper_default(
            Topology::paper_line(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            job.seed,
        )
        .with_duration(Duration::from_secs(50))
        .with_supervision_timeout(Duration::from_millis(sup))
        .with_faults(faults);
        to_job_result(&run_ble(&spec), &[])
    };
    let root1 = scratch("chaos-w1");
    let root4 = scratch("chaos-w4");
    let report1 = mindgap_campaign::run(&grid(), &quiet(root1.clone(), 1), body);
    let report4 = mindgap_campaign::run(&grid(), &quiet(root4.clone(), 4), body);
    assert!(report1.failures().is_empty(), "{:?}", report1.failures());
    assert!(report4.failures().is_empty());
    let bytes1 = named_artifact_bytes(&root1, "chaos-det");
    let bytes4 = named_artifact_bytes(&root4, "chaos-det");
    assert_eq!(bytes1.len(), 4);
    assert_eq!(
        bytes1, bytes4,
        "chaos artifacts must not depend on worker count"
    );
    // Non-vacuous: the chaos series actually made it into the
    // artifacts.
    let any = bytes1.values().next().unwrap();
    let text = std::str::from_utf8(any).unwrap();
    assert!(text.contains("chaos.faults"), "chaos metrics missing");
    assert!(text.contains("chaos.ttd_s"), "chaos series missing");
    let _ = fs::remove_dir_all(&root1);
    let _ = fs::remove_dir_all(&root4);
}

/// Peers-mode churn runs join the worker-count-independence contract:
/// a world that starts cold, forms its connection graph from
/// discovery + RSSI policy, walks its nodes around, and absorbs a
/// scripted crash burst must still produce byte-identical artifacts
/// whether the pool runs 1 or 4 jobs in parallel. This is the widest
/// determinism surface in the repo — discovery jitter, peer backoff,
/// mobility steps, and reboot RNG forks all land in the artifact.
#[test]
fn churn_artifacts_identical_across_worker_counts() {
    use mindgap::chaos::FaultSchedule;
    use mindgap_testbed::MeshTopology;
    let grid = || {
        GridBuilder::new("churn-det", 42)
            .axis("mobility", ["static", "walk"].iter().map(|s| s.to_string()))
            .explicit_seeds(&[42, 43])
            .build()
    };
    let body = |job: &mindgap_campaign::Job| {
        let mesh = MeshTopology::random_geometric(20, 160.0, job.seed);
        let faults = FaultSchedule::new().churn(
            job.seed,
            &(1..20u16).collect::<Vec<_>>(),
            Duration::from_secs(70),
            Duration::from_secs(30),
            2,
            Duration::from_secs(8),
        );
        let mut spec = ExperimentSpec::mesh_default(
            mesh,
            IntervalPolicy::Randomized {
                lo: Duration::from_millis(50),
                hi: Duration::from_millis(200),
            },
            job.seed,
        )
        .with_producer_interval(Duration::from_secs(10))
        .with_duration(Duration::from_secs(60))
        .with_faults(faults);
        spec.warmup = Duration::from_secs(60);
        spec = if job.params["mobility"] == "walk" {
            spec.with_peers_mobility()
        } else {
            spec.with_peers()
        };
        to_job_result(&run_ble(&spec), &[])
    };
    let root1 = scratch("churn-w1");
    let root4 = scratch("churn-w4");
    let report1 = mindgap_campaign::run(&grid(), &quiet(root1.clone(), 1), body);
    let report4 = mindgap_campaign::run(&grid(), &quiet(root4.clone(), 4), body);
    assert!(report1.failures().is_empty(), "{:?}", report1.failures());
    assert!(report4.failures().is_empty());
    let bytes1 = named_artifact_bytes(&root1, "churn-det");
    let bytes4 = named_artifact_bytes(&root4, "churn-det");
    assert_eq!(bytes1.len(), 4);
    assert_eq!(
        bytes1, bytes4,
        "peers-mode churn artifacts must not depend on worker count"
    );
    // Non-vacuous: the cold start converged and recorded its
    // convergence time in every artifact.
    for (name, bytes) in &bytes1 {
        let text = std::str::from_utf8(bytes).unwrap();
        assert!(
            text.contains("convergence_s"),
            "{name}: convergence metric missing"
        );
        if mindgap::obs::enabled() {
            assert!(
                text.contains("ll_peer_attempts"),
                "{name}: peer-manager counters missing"
            );
        }
    }
    let _ = fs::remove_dir_all(&root1);
    let _ = fs::remove_dir_all(&root4);
}

/// Like [`artifact_bytes`] but for any campaign name.
fn named_artifact_bytes(root: &Path, name: &str) -> BTreeMap<String, Vec<u8>> {
    let jobs = root.join(name).join("jobs");
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(&jobs).expect("jobs dir") {
        let path = entry.unwrap().path();
        out.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            fs::read(&path).unwrap(),
        );
    }
    out
}

/// FNV-1a over a job result's canonical JSON (the artifact's result
/// fields, keys in `BTreeMap` order). Stable across Rust releases,
/// unlike `std`'s `DefaultHasher`.
fn result_fingerprint(r: &mindgap_campaign::JobResult) -> u64 {
    use mindgap_campaign::json::Value;
    let mut doc = BTreeMap::new();
    doc.insert("label".into(), Value::Str(r.label.clone()));
    doc.insert("trace_dropped".into(), Value::Num(r.trace_dropped as f64));
    let metrics = r.metrics.iter().map(|(k, v)| (k.clone(), Value::Num(*v)));
    doc.insert("metrics".into(), Value::Obj(metrics.collect()));
    let series = r.series.iter().map(|(k, vs)| {
        (
            k.clone(),
            Value::Arr(vs.iter().map(|&v| Value::Num(v)).collect()),
        )
    });
    doc.insert("series".into(), Value::Obj(series.collect()));
    Value::Obj(doc)
        .encode()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Golden serial output at seed 42: the event count and a fingerprint
/// of each run's campaign result must equal the values pinned here.
/// The cells span both BLE transports, the 802.15.4 baseline, a 5 s
/// crash and two 1 ms crashes mid-run (each on both BLE transports),
/// clock drift on an advertising node
/// and the widest determinism surface (peers mode: cold
/// start, discovery, mobility and a crash burst). Every other test
/// here compares two runs of the same build; this one catches a
/// change that shifts all of them alike. An intended behaviour change
/// re-pins the constants and says so in its change notes.
#[test]
fn serial_output_matches_golden_fingerprints() {
    use mindgap::chaos::FaultSchedule;
    use mindgap_testbed::MeshTopology;
    let tree = || {
        ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            42,
        )
        .with_duration(Duration::from_secs(70))
    };
    let churn = || {
        let faults = FaultSchedule::new().churn(
            42,
            &(1..20u16).collect::<Vec<_>>(),
            Duration::from_secs(70),
            Duration::from_secs(30),
            2,
            Duration::from_secs(8),
        );
        let mut spec = ExperimentSpec::mesh_default(
            MeshTopology::random_geometric(20, 160.0, 42),
            IntervalPolicy::Randomized {
                lo: Duration::from_millis(50),
                hi: Duration::from_millis(200),
            },
            42,
        )
        .with_producer_interval(Duration::from_secs(10))
        .with_duration(Duration::from_secs(60))
        .with_faults(faults);
        spec.warmup = Duration::from_secs(60);
        spec.with_peers_mobility()
    };
    // Two 1 ms crashes: the node reboots while timers it armed before
    // each crash are still queued, so only their boot epoch keeps them
    // out of the rebuilt link. The second lands while it re-forms its
    // edges, so advertising and scanning timers are among them; their
    // generations restart at 0 with the link and could pass for fresh.
    let blip = || {
        let ms = Duration::from_millis(1);
        FaultSchedule::new()
            .node_crash(Duration::from_secs(40), 1, ms)
            .node_crash(Duration::from_secs(41), 1, ms)
    };
    type Runner = fn(&ExperimentSpec) -> ExperimentResult;
    // (cell, runner, spec, events_processed, result fingerprint)
    let cells: [(_, Runner, _, _, _); 8] = [
        (
            "conn-tree",
            run_ble,
            tree(),
            149_239u64,
            0xa726_5f3d_e82a_eebd_u64,
        ),
        (
            "adv-tree",
            run_ble,
            tree().with_adv_transport(),
            223_724,
            0x5475_d0dd_dd98_b64c,
        ),
        (
            "chaos-crash",
            run_ble,
            tree().with_faults(FaultSchedule::new().node_crash(
                Duration::from_secs(40),
                1,
                Duration::from_secs(5),
            )),
            148_378,
            0xb247_f5af_5100_391d,
        ),
        (
            "adv-faults",
            run_ble,
            tree().with_adv_transport().with_faults(
                FaultSchedule::new()
                    .node_crash(Duration::from_secs(40), 1, Duration::from_secs(5))
                    .clock_drift(Duration::from_secs(50), 2, 40.0),
            ),
            222_429,
            0xe0f4_1d64_8825_8f24,
        ),
        (
            "peers-churn-walk",
            run_ble,
            churn(),
            1_065_555,
            0x6ba2_ebbe_1282_a08b,
        ),
        ("ieee-tree", run_ieee, tree(), 37_200, 0x7eb5_7e23_7b8c_1be6),
        (
            "conn-blip",
            run_ble,
            tree().with_faults(blip()),
            149_003,
            0xd22b_c85a_34bf_bb14,
        ),
        (
            "adv-blip",
            run_ble,
            tree().with_adv_transport().with_faults(blip()),
            223_675,
            0xbdd3_1534_940e_5762,
        ),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (cell, run, spec, events, fingerprint) in cells {
        let res = run(&spec);
        let mut jr = to_job_result(&res, &[]);
        // The 802.15.4 cell leaves the `obs.*` metrics out of its
        // fingerprint, so it holds under `obs-off` too.
        let obs_free = cell == "ieee-tree";
        if obs_free {
            jr.metrics.retain(|k, _| !k.starts_with(keys::OBS_PREFIX));
        }
        // The other fingerprints cover the metrics export, which
        // compiles out under `obs-off`; the event count does not.
        let fp = if obs_free || mindgap::obs::enabled() {
            result_fingerprint(&jr)
        } else {
            fingerprint
        };
        got.push((cell, res.events_processed, fp));
        want.push((cell, events, fingerprint));
    }
    assert_eq!(got, want, "serial output drifted from the pinned values");
}

#[test]
fn panicking_job_does_not_abort_the_campaign() {
    let root = scratch("panic");
    let report = mindgap_campaign::run(&small_grid(), &quiet(root.clone(), 2), |job| {
        if job.params["conn"] == "25" && job.seed_index == 0 {
            panic!("injected failure for {}", job.id);
        }
        run_job(job)
    });
    assert_eq!(report.completed(), 3);
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert!(failures[0].1.contains("injected failure"));
    // The surviving jobs still produced loadable artifacts.
    assert_eq!(artifact_bytes(&root).len(), 3);
    let _ = fs::remove_dir_all(&root);
}
