//! kernelbench — raw DES-kernel throughput on fig07-shaped workloads.
//!
//! The figure campaigns are gated on how fast the kernel turns over
//! events, not on campaign parallelism, so this binary tracks the
//! repo's perf trajectory: it times the exact tree/line workloads of
//! Figure 7 (75 ms static interval, 1 s ±0.5 s producers) and reports
//!
//! * **events/sec** — kernel events popped per wall-clock second,
//! * **sim-s/wall-s** — simulated seconds per wall-clock second.
//!
//! Results are written as canonical JSON (`BENCH_kernel.json`) so the
//! numbers live in git history next to the code they measure.
//!
//! Usage:
//!
//! * `kernelbench --quick` — measure, print, write `BENCH_kernel.json`
//!   (preserving a `baseline` block already present in that file).
//! * `--as-baseline` — also record this run as the baseline block
//!   (run once on the pre-optimization tree).
//! * `--baseline <path>` — import the baseline block from another
//!   results file (e.g. one captured with `--as-baseline`).
//! * `--check <path>` — regression gate for CI: re-measure and fail
//!   (exit 1) if events/sec drops below 70 % of the `current` numbers
//!   committed in `<path>`.
//! * `--floor <f>` — override the check floor (e.g. `--floor 0.95`
//!   pins the observability layer's <5 % overhead budget against
//!   numbers measured with `obs-off`; see DESIGN.md §8).
//!
//! Determinism note: the event *count* of a workload is part of the
//! byte-identical-artifacts contract (same seed → same event stream),
//! so across kernel rewrites only the wall time may legitimately move.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use mindgap_bench::microbench;
use mindgap_campaign::json::Value;
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::{run_ble, ExperimentSpec, MeshTopology, Topology};

/// Default fraction of the committed events/sec a `--check` run must
/// reach (override with `--floor`).
const CHECK_FLOOR: f64 = 0.70;

struct Args {
    full: bool,
    seed: u64,
    reps: usize,
    json: PathBuf,
    as_baseline: bool,
    baseline_from: Option<PathBuf>,
    check: Option<PathBuf>,
    floor: f64,
    label: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        full: false,
        seed: 42,
        reps: 0,
        json: PathBuf::from("BENCH_kernel.json"),
        as_baseline: false,
        baseline_from: None,
        check: None,
        floor: CHECK_FLOOR,
        label: "HEAD".to_string(),
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => a.full = true,
            "--quick" => a.full = false,
            "--seed" => a.seed = next(&mut args, "--seed").parse().expect("--seed: number"),
            "--reps" => a.reps = next(&mut args, "--reps").parse().expect("--reps: number"),
            "--json" => a.json = next(&mut args, "--json").into(),
            "--as-baseline" => a.as_baseline = true,
            "--baseline" => a.baseline_from = Some(next(&mut args, "--baseline").into()),
            "--check" => a.check = Some(next(&mut args, "--check").into()),
            "--floor" => {
                a.floor = next(&mut args, "--floor").parse().expect("--floor: fraction");
                assert!(a.floor > 0.0 && a.floor <= 1.0, "--floor must be in (0, 1]");
            }
            "--label" => a.label = next(&mut args, "--label"),
            other => panic!(
                "unknown argument {other} (expected --full/--quick/--seed/--reps/--json/\
                 --as-baseline/--baseline/--check/--floor/--label)"
            ),
        }
    }
    if a.reps == 0 {
        a.reps = if a.full { 1 } else { 3 };
    }
    a
}

/// One measured workload.
struct Measurement {
    name: &'static str,
    /// Simulated span (warmup + measured + drain), seconds.
    sim_s: f64,
    /// Kernel events processed by one run.
    events: u64,
    /// Best wall time over the reps, seconds.
    wall_s: f64,
    /// Peak RSS growth while running this workload, KiB (Linux VmHWM
    /// delta; 0 where the kernel interface is unavailable). Memory
    /// regressions — an O(n²) structure sneaking back in — show here
    /// before they show in wall time.
    peak_rss_kb: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn sim_per_wall(&self) -> f64 {
        self.sim_s / self.wall_s
    }
}

/// Reset the process peak-RSS watermark (Linux: `clear_refs` code 5).
/// Best-effort — on other platforms the watermark just never resets
/// and the per-workload delta reads 0.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current peak RSS in KiB (Linux `VmHWM`; 0 elsewhere).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

fn measure(args: &Args) -> Vec<Measurement> {
    let duration = if args.full {
        Duration::from_secs(3600)
    } else {
        Duration::from_secs(600)
    };
    // The scaling workload simulates less time: at n=500 each
    // simulated second carries ~40× the fig07 event load.
    let mesh_duration = if args.full {
        Duration::from_secs(600)
    } else {
        Duration::from_secs(120)
    };
    let policy = IntervalPolicy::Static(Duration::from_millis(75));
    let mesh_policy = IntervalPolicy::Randomized {
        lo: Duration::from_millis(65),
        hi: Duration::from_millis(85),
    };
    let tree_spec = ExperimentSpec::paper_default(Topology::paper_tree(), policy, args.seed)
        .with_duration(duration);
    let line_spec = ExperimentSpec::paper_default(Topology::paper_line(), policy, args.seed)
        .with_duration(duration);
    // The scaling workload: 500 nodes placed uniformly in an 800 m
    // square (mean radio degree ≈ 11), RPL over degree-capped statconn
    // edges, randomized intervals.
    let mesh_spec = ExperimentSpec::mesh_default(
        MeshTopology::random_geometric(500, 800.0, args.seed),
        mesh_policy,
        args.seed,
    )
    .with_duration(mesh_duration);
    let workloads = [
        ("fig07-tree", tree_spec),
        ("fig07-line", line_spec),
        ("n500-geo", mesh_spec),
    ];
    let mut out: Vec<Measurement> = Vec::new();
    for (name, spec) in workloads {
        // Simulated span mirrors run_ble: warmup + measured + 10 s drain.
        let sim_s = (spec.warmup + spec.duration + Duration::from_secs(10)).nanos() as f64 / 1e9;
        let mut events = 0u64;
        reset_peak_rss();
        let rss_before = peak_rss_kb();
        let walls = microbench::samples_n(args.reps, || {
            let res = run_ble(&spec);
            events = res.events_processed;
        });
        let peak_rss = peak_rss_kb().saturating_sub(rss_before);
        out.push(Measurement {
            name,
            sim_s,
            events,
            wall_s: walls[0].as_secs_f64(),
            peak_rss_kb: peak_rss,
        });
    }
    out
}

fn print_table(title: &str, ms: &[Measurement]) {
    microbench::group(title);
    println!(
        "{:<12} {:>12} {:>10} {:>14} {:>14} {:>12}",
        "workload", "events", "wall", "events/sec", "sim-s/wall-s", "peak-rss"
    );
    for m in ms {
        println!(
            "{:<12} {:>12} {:>9.3}s {:>14.0} {:>14.0} {:>9} KiB",
            m.name,
            m.events,
            m.wall_s,
            m.events_per_sec(),
            m.sim_per_wall(),
            m.peak_rss_kb
        );
    }
    let (events, wall): (u64, f64) = (ms.iter().map(|m| m.events).sum(), ms.iter().map(|m| m.wall_s).sum());
    println!(
        "{:<12} {:>12} {:>9.3}s {:>14.0}",
        "total",
        events,
        wall,
        events as f64 / wall
    );
}

fn results_obj(label: &str, ms: &[Measurement]) -> Value {
    let mut workloads = BTreeMap::new();
    for m in ms {
        let mut o = BTreeMap::new();
        o.insert("events".into(), Value::Num(m.events as f64));
        o.insert("wall_s".into(), Value::Num(m.wall_s));
        o.insert("events_per_sec".into(), Value::Num(m.events_per_sec()));
        o.insert("sim_s".into(), Value::Num(m.sim_s));
        o.insert("sim_s_per_wall_s".into(), Value::Num(m.sim_per_wall()));
        o.insert("peak_rss_kb".into(), Value::Num(m.peak_rss_kb as f64));
        workloads.insert(m.name.to_string(), Value::Obj(o));
    }
    let mut obj = BTreeMap::new();
    obj.insert("label".into(), Value::Str(label.to_string()));
    obj.insert("workloads".into(), Value::Obj(workloads));
    obj.insert(
        "total_events_per_sec".into(),
        Value::Num(
            ms.iter().map(|m| m.events).sum::<u64>() as f64
                / ms.iter().map(|m| m.wall_s).sum::<f64>(),
        ),
    );
    Value::Obj(obj)
}

fn load_json(path: &PathBuf) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    Value::parse(&text).ok()
}

/// Pull `key` ("baseline" or "current") out of a results file.
fn block_of(file: Option<&Value>, key: &str) -> Option<Value> {
    Some(file?.as_obj()?.get(key)?.clone())
}

fn events_per_sec_of(block: &Value, workload: &str) -> Option<f64> {
    block
        .as_obj()?
        .get("workloads")?
        .as_obj()?
        .get(workload)?
        .as_obj()?
        .get("events_per_sec")?
        .as_num()
}

fn main() -> ExitCode {
    let args = parse_args();
    println!("================================================================");
    println!("kernelbench: DES kernel throughput on the fig07 workloads");
    println!(
        "mode: {}   seed: {}   reps: {} (best-of)",
        if args.full { "FULL" } else { "QUICK" },
        args.seed,
        args.reps
    );
    println!("================================================================");

    let measured = measure(&args);
    print_table("measured (best-of reps)", &measured);

    // ---- CI regression gate --------------------------------------------
    if let Some(path) = &args.check {
        let committed = load_json(path);
        let Some(current) = block_of(committed.as_ref(), "current") else {
            eprintln!("[kernelbench] --check: no `current` block in {path:?}");
            return ExitCode::FAILURE;
        };
        let mut ok = true;
        microbench::group("regression check");
        for m in &measured {
            match events_per_sec_of(&current, m.name) {
                Some(reference) => {
                    let ratio = m.events_per_sec() / reference;
                    let pass = ratio >= args.floor;
                    ok &= pass;
                    println!(
                        "{:<12} {:>14.0} vs committed {:>14.0}  ({:>5.1}%)  {}",
                        m.name,
                        m.events_per_sec(),
                        reference,
                        ratio * 100.0,
                        if pass { "ok" } else { "REGRESSION" }
                    );
                }
                None => {
                    ok = false;
                    println!("{:<12} missing from committed results", m.name);
                }
            }
        }
        if !ok {
            eprintln!(
                "[kernelbench] FAILED: events/sec fell below {:.0}% of {path:?}",
                args.floor * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("[kernelbench] check passed (floor {:.0}%)", args.floor * 100.0);
    }

    // ---- Persist -------------------------------------------------------
    // Baseline priority: --as-baseline (this run) > --baseline <file>'s
    // `current` block > whatever the output file already holds.
    let current = results_obj(&args.label, &measured);
    let baseline = if args.as_baseline {
        Some(results_obj(&args.label, &measured))
    } else if let Some(from) = &args.baseline_from {
        let file = load_json(from);
        block_of(file.as_ref(), "current").or_else(|| block_of(file.as_ref(), "baseline"))
    } else {
        block_of(load_json(&args.json).as_ref(), "baseline")
    };

    let mut top = BTreeMap::new();
    top.insert("schema".into(), Value::Str("mindgap-kernelbench/1".into()));
    top.insert(
        "mode".into(),
        Value::Str(if args.full { "full" } else { "quick" }.into()),
    );
    top.insert("seed".into(), Value::Num(args.seed as f64));
    if let Some(b) = &baseline {
        let mut speedup = BTreeMap::new();
        for m in &measured {
            if let Some(base) = events_per_sec_of(b, m.name) {
                speedup.insert(m.name.to_string(), Value::Num(m.events_per_sec() / base));
            }
        }
        top.insert("baseline".into(), b.clone());
        top.insert("speedup_events_per_sec".into(), Value::Obj(speedup));
    }
    top.insert("current".into(), current);
    let doc = Value::Obj(top);
    if let Some(dir) = args.json.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&args.json, doc.encode() + "\n") {
        Ok(()) => println!("[json] wrote {:?}", args.json),
        Err(e) => {
            eprintln!("[kernelbench] cannot write {:?}: {e}", args.json);
            return ExitCode::FAILURE;
        }
    }
    if let Some(b) = &baseline {
        microbench::group("speedup vs baseline");
        for m in &measured {
            if let Some(base) = events_per_sec_of(b, m.name) {
                println!("{:<12} {:>6.2}×", m.name, m.events_per_sec() / base);
            }
        }
    }
    ExitCode::SUCCESS
}
