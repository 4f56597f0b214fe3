//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tree-1h --seed 42 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` the program runs the workload's reference run
//! (`run_ble`), then fresh-process reps of the phase-stepped `World`
//! path until `--seconds` have passed (at least three), and prints the
//! end-to-end metrics as medians over the reps. With `--trace 1` it
//! alternates untraced and traced reps, then replays each layer crate's
//! public API on inputs shaped like the workload, and prints the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! README.md describes every metric.

mod host;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant as HostInstant;

use mindgap_testbed::campaign::to_job_result;
use mindgap_testbed::{run_ble, ExperimentResult};

use stats::{median, quartiles, Fingerprint};
use workload::{total, PhaseTimes, Workload};

/// Reps a measuring run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Reps a measuring run makes at most.
const MAX_REPS: usize = 41;
/// World set-ups timed per rep for `setup_s`: at least
/// `SETUP_REPS_MIN`, then more until `SETUP_BUDGET_S` is spent or
/// `SETUP_REPS_MAX` are done. The last one is the world that runs.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 1000;
const SETUP_BUDGET_S: f64 = 0.05;
/// Prefix of the line a child process reports on.
const REPORT: &str = "perfbench-report";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: which part of the run this process does.
    child: Option<String>,
    /// Replay children: data PDUs per connection event of the run.
    data_per_event: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::Tree1h,
        seed: 42,
        seconds: 10.0,
        trace: false,
        child: None,
        data_per_event: 0.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {name} (expected one of {})",
                        names.join(", ")
                    )
                })?;
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--child" => a.child = Some(value()?),
            "--data-per-event" => {
                a.data_per_event = value()?
                    .parse()
                    .map_err(|e| format!("--data-per-event: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown argument {other} (expected --workload/--seed/--seconds/--trace)"
                ))
            }
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.child.as_deref() {
        Some(role) => child(&args, role),
        None => parent(&args),
    }
}

// ---------------------------------------------------------------------
// Child processes: each does one part of a run and reports one line.
// ---------------------------------------------------------------------

fn child(args: &Args, role: &str) -> ExitCode {
    let (w, seed) = (args.workload, args.seed);
    let mut out: Vec<String> = Vec::new();
    fn put(out: &mut Vec<String>, k: &str, v: impl std::fmt::Display) {
        out.push(format!("{k}={v}"));
    }
    match role {
        "ref" => {
            let results: Vec<_> = (0..w.subruns())
                .map(|sub| run_ble(&w.spec(seed, sub)))
                .collect();
            out.push(workload::fingerprint(&results).encode());
            put(&mut out, "violation", violation_field(&results));
        }
        "rep" | "traced" => {
            let traced = role == "traced";
            // Calibration before the rep, between its phases once 2 s
            // have passed (long reps), and after it, so the mean tracks
            // the host's speed over the whole rep.
            let mut cal = host::Calibrator::start();
            // Extra set-ups for a steadier setup_s (tree worlds build in
            // tens of microseconds); they are dropped unrun, and only the
            // worlds that run count towards the rep's other metrics.
            let mut setups: Vec<f64> = Vec::new();
            while setups.len() + 1 < SETUP_REPS_MIN
                || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < SETUP_REPS_MAX)
            {
                setups.push(workload::set_up(w, seed, 0).2.setup_s());
            }
            let (cpu0, cal_cpu0) = (host::cpu_s(), cal.cpu_s());
            let (mut t, mut spans, mut results) = (PhaseTimes::default(), Vec::new(), Vec::new());
            for sub in 0..w.subruns() {
                let (spec, world, mut ts) = workload::set_up(w, seed, sub);
                setups.push(ts.setup_s());
                let mut between = || cal.sample_if_due();
                results.push(workload::run_phases(
                    &spec,
                    world,
                    &mut ts,
                    traced.then_some(&mut spans),
                    &mut between,
                ));
                t.add(&ts);
                cal.sample_if_due();
            }
            put(
                &mut out,
                "cpu_s",
                host::cpu_s() - cpu0 - (cal.cpu_s() - cal_cpu0),
            );
            cal.sample();
            put(&mut out, "cal_s", cal.mean_s());
            put(&mut out, "peak_rss_mib", host::peak_rss_mib());
            put(
                &mut out,
                "setups",
                setups
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            );
            put(&mut out, "wall_s", t.wall_s());
            put(&mut out, "sim_s", t.simulate_s());
            out.push(workload::fingerprint(&results).encode());
            put(&mut out, "violation", violation_field(&results));
            if traced {
                let start = HostInstant::now();
                let json: Vec<String> = results.iter().map(job_json).collect();
                put(&mut out, "encode_s", start.elapsed().as_secs_f64());
                std::hint::black_box(json);
                for (k, v) in [
                    ("topology_s", t.topology_s),
                    ("world_new_s", t.world_new_s),
                    ("harvest_s", t.harvest_s),
                    ("snapshot_s", t.snapshot_s),
                    ("formation_s", t.formation_s),
                    ("formation_events", t.formation_events as f64),
                    ("steady_s", t.steady_s),
                    ("steady_events", t.steady_events as f64),
                ] {
                    put(&mut out, k, v);
                }
                for (k, v) in run_counts(&results) {
                    put(&mut out, k, v);
                }
                write_spans(w, seed, &spans);
            }
        }
        "replay" => {
            let spec = w.spec(seed, 0);
            let shape = replay::Shape {
                n_nodes: workload::node_count(&spec),
                radio_links: spec.mesh.as_ref().map(|m| m.links.clone()),
                adv: matches!(spec.transport, mindgap_core::TransportMode::Adv(_)),
                payload: spec.payload,
                data_per_event: args.data_per_event,
            };
            let mut cal = host::Calibrator::start();
            let (ll_ns, calls_per_event) = replay::ll_ns_per_callback(&shape);
            for (k, v) in [
                ("queue_ns", replay::queue_ns_per_op(&shape)),
                ("medium_ns", replay::medium_ns_per_tx(&shape)),
                ("ll_ns", ll_ns),
                ("ll_calls_per_event", calls_per_event),
                ("l2cap_ns", replay::l2cap_ns_per_sdu(&shape)),
                ("sixlowpan_ns", replay::sixlowpan_ns_per_frame(&shape)),
                ("net_ns", replay::net_ns_per_pkt(&shape)),
                ("coap_ns", replay::coap_ns_per_msg(&shape)),
            ] {
                put(&mut out, k, v);
            }
            cal.sample();
            put(&mut out, "cal_s", cal.mean_s());
        }
        other => {
            eprintln!("perfbench: unknown child role {other}");
            return ExitCode::FAILURE;
        }
    }
    println!("{REPORT} {}", out.join(" "));
    ExitCode::SUCCESS
}

/// `-` when the results meet every invariant, else the violated one
/// with spaces replaced so it stays one `key=value` token.
fn violation_field(results: &[ExperimentResult]) -> String {
    workload::invariant_violation(results).map_or("-".into(), |v| v.replace(' ', "_"))
}

/// The campaign artifact of a result: `to_job_result` plus canonical
/// JSON, as the figure binaries store it.
fn job_json(res: &ExperimentResult) -> String {
    use mindgap_campaign::json::Value;
    let jr = to_job_result(res, &[]);
    let mut obj = BTreeMap::new();
    obj.insert("label".into(), Value::Str(jr.label.clone()));
    obj.insert(
        "metrics".into(),
        Value::Obj(
            jr.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                .collect(),
        ),
    );
    obj.insert(
        "series".into(),
        Value::Obj(
            jr.series
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        Value::Arr(v.iter().map(|x| Value::Num(*x)).collect()),
                    )
                })
                .collect(),
        ),
    );
    Value::Obj(obj).encode()
}

/// The per-layer operation counts of a rep, from its obs snapshots,
/// summed over its sub-runs.
fn run_counts(results: &[ExperimentResult]) -> Vec<(&'static str, f64)> {
    let t = |name| results.iter().map(|r| total(&r.metrics, name)).sum::<f64>();
    let conn_losses = results.iter().map(|r| r.conn_losses as f64).sum();
    let rtt_samples = results.iter().map(|r| r.records.rtt.len() as f64).sum();
    vec![
        ("phy_tx_frames", t("phy_tx_frames")),
        ("ll_conn_events", t("ll_conn_events_coord")),
        ("ll_events_skipped", t("ll_events_skipped")),
        ("ll_data_attempts", t("ll_data_attempts")),
        ("ll_data_delivered", t("ll_data_delivered")),
        ("conn_losses", conn_losses),
        ("l2cap_sdu_tx", t("l2cap_sdu_tx")),
        ("l2cap_credit_stalls", t("l2cap_credit_stalls")),
        ("l2cap_mbuf_drops", t("l2cap_mbuf_drops")),
        ("sixlowpan_frames_decoded", t("sixlowpan_frames_decoded")),
        ("ipv6_forwarded", t("ipv6_forwarded")),
        ("ipv6_dropped", t("ipv6_dropped")),
        (
            "ipv6_handled",
            t("ipv6_originated") + t("ipv6_forwarded") + t("ipv6_delivered"),
        ),
        ("coap_req_tx", t("coap_req_tx")),
        ("coap_resp_tx", t("coap_resp_tx")),
        ("coap_timeouts", t("coap_timeouts")),
        ("rtt_samples", rtt_samples),
        ("adv_pdus_tx", t("ll_adv_pdus_tx")),
        ("adv_pdus_rx", t("ll_adv_pdus_rx")),
        ("adv_dups", t("ll_adv_dups_suppressed")),
        ("adv_rebroadcasts", t("ll_adv_rebroadcasts")),
        ("rpl_msgs_rx", t("rpl_msgs_rx")),
    ]
}

/// Write a traced rep's spans (one per simulated second) as CSV next to
/// the benchmark's sources, under `out/`. Best effort: a read-only
/// checkout loses the file, not the run.
fn write_spans(w: Workload, seed: u64, spans: &[workload::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut csv = String::from("phase,sim_end_s,host_ns,events\n");
    for s in spans {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            s.phase, s.sim_end_s, s.host_ns, s.events
        ));
    }
    let path = dir.join(format!("spans-{}-seed{seed}.csv", w.name()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

// ---------------------------------------------------------------------
// The parent: schedules children, checks them, reports.
// ---------------------------------------------------------------------

/// One child's report; `None` when the child failed (panicked, or
/// printed no report).
type Report = Option<BTreeMap<String, String>>;

fn spawn(args: &Args, role: &str, extra: &[String]) -> Report {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--child", role, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: cannot start {role} child: {e}");
            return None;
        }
    };
    if !out.status.success() {
        eprintln!("perfbench: {role} child failed: {}", out.status);
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().rev().find_map(|l| l.strip_prefix(REPORT))?;
    Some(
        line.split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

fn num(r: &BTreeMap<String, String>, key: &str) -> f64 {
    r.get(key).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN)
}

fn fingerprint_of(r: &BTreeMap<String, String>) -> Option<Fingerprint> {
    Fingerprint::decode(|k| r.get(k)?.parse().ok())
}

/// Tally of a run's reps: which failed and why.
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    /// Check the reference and every rep: each must have finished, met
    /// the invariants, and (reps) matched the reference fingerprint.
    fn of(reference: &Report, reps: &[&Report]) -> (Checks, Option<Fingerprint>) {
        let mut failed = 0;
        let mut check = |r: &Report, what: &str| match r {
            None => {
                failed += 1;
                None
            }
            Some(r) => {
                let v = r.get("violation").map_or("missing", String::as_str);
                if v != "-" {
                    eprintln!("perfbench: {what} violates an invariant: {v}");
                    failed += 1;
                }
                fingerprint_of(r)
            }
        };
        let ref_fp = check(reference, "reference run");
        let rep_fps: Vec<Option<Fingerprint>> = reps.iter().map(|r| check(r, "rep")).collect();
        // Without a reference, the first rep that finished stands in.
        let baseline = ref_fp.or_else(|| rep_fps.iter().flatten().next().copied());
        if let Some(base) = baseline {
            let bad = stats::mismatches(&base, &rep_fps);
            let differing = bad.iter().filter(|&&i| rep_fps[i].is_some()).count();
            if differing > 0 {
                eprintln!("perfbench: {differing} rep(s) disagree with run_ble's result");
            }
            failed += differing;
        }
        (
            Checks {
                attempted: 1 + reps.len(),
                failed,
            },
            baseline,
        )
    }
}

/// A metric as reported: name, samples (reported as their median),
/// unit.
type Metric = (&'static str, Vec<f64>, &'static str);

fn value(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn parent(args: &Args) -> ExitCode {
    let start = HostInstant::now();
    let elapsed = || start.elapsed().as_secs_f64();
    let name = args.workload.name();
    eprintln!(
        "perfbench: {name} seed {} — reference run (run_ble)",
        args.seed
    );
    let reference = spawn(args, "ref", &[]);

    let (checks, metrics) = if args.trace {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while plain.is_empty() || elapsed() < args.seconds {
            plain.push(spawn(args, "rep", &[]));
            traced.push(spawn(args, "traced", &[]));
        }
        let reps: Vec<&Report> = plain.iter().chain(&traced).collect();
        let (checks, _) = Checks::of(&reference, &reps);
        let plain: Vec<_> = plain.into_iter().flatten().collect();
        let traced: Vec<_> = traced.into_iter().flatten().collect();
        (checks, per_layer(args, &plain, &traced))
    } else {
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS || (elapsed() < args.seconds && reps.len() < MAX_REPS) {
            reps.push(spawn(args, "rep", &[]));
        }
        let (checks, fp) = Checks::of(&reference, &reps.iter().collect::<Vec<_>>());
        let ok: Vec<_> = reps.into_iter().flatten().collect();
        (checks, end_to_end(&ok, fp))
    };

    print_table(name, &metrics);
    let finite = metrics.iter().all(|(_, v, _)| value(v).is_finite());
    if !finite {
        eprintln!("perfbench: a metric could not be computed");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| {
            let v = value(v);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && finite,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A per-rep value over the reports.
fn each(
    reps: &[BTreeMap<String, String>],
    f: impl Fn(&BTreeMap<String, String>) -> f64,
) -> Vec<f64> {
    reps.iter().map(f).collect()
}

fn end_to_end(reps: &[BTreeMap<String, String>], fp: Option<Fingerprint>) -> Vec<Metric> {
    // Set-up times in reference seconds: each scaled by its own rep's
    // calibration (see `host::CAL_REF_S`).
    let setups: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            let scale = host::CAL_REF_S / num(r, "cal_s");
            let raw = r.get("setups").map_or("", String::as_str);
            raw.split(',')
                .filter_map(|x| x.parse::<f64>().ok())
                .map(move |s| s * scale)
        })
        .collect();
    let sim = |f: fn(&Fingerprint) -> f64| vec![fp.as_ref().map_or(f64::NAN, f)];
    let per_cal = |k: &'static str| move |r: &BTreeMap<String, String>| num(r, k) / num(r, "cal_s");
    vec![
        (
            "events_per_cal",
            each(reps, |r| {
                num(r, "events") / num(r, "sim_s") * num(r, "cal_s")
            }),
            "1/cal",
        ),
        ("wall_vs_cal", each(reps, per_cal("wall_s")), "ratio"),
        ("cpu_vs_cal", each(reps, per_cal("cpu_s")), "ratio"),
        ("setup_s", setups, "s"),
        (
            "peak_rss_mib",
            each(reps, |r| num(r, "peak_rss_mib")),
            "MiB",
        ),
        ("coap_pdr", sim(|f| f.coap_pdr), "fraction"),
        ("rtt_p50_ms", sim(|f| f.rtt_p50_ms), "ms"),
        ("rtt_p99_ms", sim(|f| f.rtt_p99_ms), "ms"),
        ("ll_pdr", sim(|f| f.ll_pdr), "fraction"),
    ]
}

fn per_layer(
    args: &Args,
    plain: &[BTreeMap<String, String>],
    traced: &[BTreeMap<String, String>],
) -> Vec<Metric> {
    let Some(run) = traced.first() else {
        return Vec::new();
    };
    let c = |k: &str| num(run, k);
    let conn_events = c("ll_conn_events");
    let data_per_event = if conn_events > 0.0 {
        c("ll_data_attempts") / conn_events
    } else {
        0.0
    };
    eprintln!("perfbench: replaying layer APIs");
    let Some(rp) = spawn(
        args,
        "replay",
        &["--data-per-event".into(), data_per_event.to_string()],
    ) else {
        return Vec::new();
    };
    let r = |k: &str| num(&rp, k);
    // Shares are against the untraced reps' host time inside
    // `run_until`, rescaled by calibration to the host's speed while
    // the replays ran.
    let host_ns = value(&each(plain, |p| num(p, "sim_s") / num(p, "cal_s"))) * r("cal_s") * 1e9;
    let share = |ns: f64, count: f64| stats::share(ns, count, host_ns);
    let ll_calls = r("ll_calls_per_event") * conn_events;
    let shares = [
        share(r("queue_ns"), c("events")),
        share(r("medium_ns"), c("phy_tx_frames")),
        share(r("ll_ns"), ll_calls),
        share(r("l2cap_ns"), c("l2cap_sdu_tx")),
        share(r("sixlowpan_ns"), c("sixlowpan_frames_decoded")),
        share(r("net_ns"), c("ipv6_handled")),
        share(r("coap_ns"), c("coap_req_tx") + c("coap_resp_tx")),
    ];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall = |reps: &[BTreeMap<String, String>]| {
        value(&each(reps, |p| num(p, "wall_s") / num(p, "cal_s")))
    };
    // Host times vary per traced rep: keep every sample.
    let tm = |k: &str| each(traced, |p| num(p, k));
    let per_event = |k: &str, events: &str| each(traced, |p| num(p, k) * 1e9 / num(p, events));
    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("sim.events", c("events"), "count"),
        ("sim.queue_ns_per_op", r("queue_ns"), "ns"),
        ("sim.share", shares[0], "fraction"),
        ("phy.tx_frames", c("phy_tx_frames"), "count"),
        ("phy.medium_ns_per_tx", r("medium_ns"), "ns"),
        ("phy.share", shares[1], "fraction"),
        ("ble.conn_events", conn_events, "count"),
        ("ble.events_skipped", c("ll_events_skipped"), "count"),
        (
            "ble.data_prr",
            ratio(c("ll_data_delivered"), c("ll_data_attempts")),
            "fraction",
        ),
        ("ble.conn_losses", c("conn_losses"), "count"),
        ("ble.ll_ns_per_callback", r("ll_ns"), "ns"),
        ("ble.share", shares[2], "fraction"),
        ("l2cap.sdu_tx", c("l2cap_sdu_tx"), "count"),
        ("l2cap.credit_stalls", c("l2cap_credit_stalls"), "count"),
        ("l2cap.mbuf_drops", c("l2cap_mbuf_drops"), "count"),
        ("l2cap.ns_per_sdu", r("l2cap_ns"), "ns"),
        ("l2cap.share", shares[3], "fraction"),
        (
            "sixlowpan.frames_decoded",
            c("sixlowpan_frames_decoded"),
            "count",
        ),
        ("sixlowpan.ns_per_frame", r("sixlowpan_ns"), "ns"),
        ("sixlowpan.share", shares[4], "fraction"),
        ("net.ipv6_forwarded", c("ipv6_forwarded"), "count"),
        ("net.ipv6_dropped", c("ipv6_dropped"), "count"),
        ("net.ns_per_pkt", r("net_ns"), "ns"),
        ("net.share", shares[5], "fraction"),
        ("coap.req_tx", c("coap_req_tx"), "count"),
        ("coap.timeouts", c("coap_timeouts"), "count"),
        ("coap.rtt_samples", c("rtt_samples"), "count"),
        ("coap.ns_per_msg", r("coap_ns"), "ns"),
        ("coap.share", shares[6], "fraction"),
        ("adv.pdus_tx", c("adv_pdus_tx"), "count"),
        ("adv.pdus_rx", c("adv_pdus_rx"), "count"),
        (
            "adv.dup_ratio",
            ratio(c("adv_dups"), c("adv_pdus_rx")),
            "fraction",
        ),
        ("adv.rebroadcasts", c("adv_rebroadcasts"), "count"),
        ("core.rpl_msgs_rx", c("rpl_msgs_rx"), "count"),
        ("core.glue_share", stats::remainder(&shares), "fraction"),
        (
            "trace.overhead_pct",
            (wall(traced) / wall(plain) - 1.0) * 100.0,
            "%",
        ),
    ];
    let mut out: Vec<Metric> = metrics
        .into_iter()
        .map(|(k, v, u)| (k, vec![v], u))
        .collect();
    out.extend([
        ("host.wall_s", each(plain, |p| num(p, "wall_s")), "s"),
        ("host.cpu_s", each(plain, |p| num(p, "cpu_s")), "s"),
        (
            "host.events_per_s",
            each(plain, |p| num(p, "events") / num(p, "sim_s")),
            "1/s",
        ),
        ("host.cal_s", each(plain, |p| num(p, "cal_s")), "s"),
        ("core.world_new_s", tm("world_new_s"), "s"),
        (
            "core.formation_ns_per_event",
            per_event("formation_s", "formation_events"),
            "ns",
        ),
        (
            "core.steady_ns_per_event",
            per_event("steady_s", "steady_events"),
            "ns",
        ),
        ("testbed.topology_s", tm("topology_s"), "s"),
        ("testbed.harvest_s", tm("harvest_s"), "s"),
        ("obs.snapshot_s", tm("snapshot_s"), "s"),
        ("campaign.encode_s", tm("encode_s"), "s"),
    ]);
    out
}

/// Human-readable summary on standard error: median, quartiles and
/// sample count of every metric.
fn print_table(name: &str, metrics: &[Metric]) {
    eprintln!(
        "perfbench: {name}\n  {:<30} {:>16} {:>16} {:>16} {:>4}",
        "metric", "median", "q1", "q3", "n"
    );
    for (k, v, unit) in metrics {
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        eprintln!(
            "  {k:<30} {:>16.6} {q1:>16.6} {q3:>16.6} {:>4} {unit}",
            value(v),
            v.len()
        );
    }
}
