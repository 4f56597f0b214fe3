//! timeline — inspect a run's observability timeline.
//!
//! The paper found connection shading by *looking at timelines* of
//! connection-event anchors drifting into collision (§6.2). This
//! binary does the same on the simulator's timeline artifacts:
//!
//! * `--demo` — run the fig07 tree topology with elevated clock drift
//!   (±15 ppm, so same-interval event trains wrap within the run),
//!   export the timeline as JSONL under `results/`, detect shading
//!   overlap windows from the recorded anchors (re-deriving
//!   `sec62_shading`'s analysis from data instead of the closed form),
//!   render a per-connection anchor chart for the most-shaded node,
//!   and compare the window count with the §6.2 model expectation.
//! * `--load <path>` — run the same analysis on an existing JSONL
//!   timeline artifact (e.g. one exported by a campaign run).
//!
//! Options: `--full` (1 h instead of 30 min demo), `--seed <n>`,
//! `--out <dir>` (default `results`), `--overlap-us <n>` (phase
//! threshold, default 3000 µs ≈ the combined event length).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use mindgap_campaign::json::Value;
use mindgap_core::IntervalPolicy;
use mindgap_obs::shading::{
    anchor_samples, conn_endpoints, find_shared_node_windows, AnchorSample, OverlapWindow,
};
use mindgap_obs::{Span, TimelineEvent};
use mindgap_sim::{Duration, Instant, NodeId};
use mindgap_testbed::{analysis, run_ble, ExperimentSpec, Topology};

struct Args {
    demo: bool,
    load: Option<PathBuf>,
    full: bool,
    seed: u64,
    out_dir: PathBuf,
    overlap_ns: u64,
}

fn parse_args() -> Args {
    let mut a = Args {
        demo: false,
        load: None,
        full: false,
        seed: 42,
        out_dir: PathBuf::from("results"),
        overlap_ns: 3_000_000,
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--demo" => a.demo = true,
            "--load" => a.load = Some(next(&mut args, "--load").into()),
            "--full" => a.full = true,
            "--quick" => a.full = false,
            "--seed" => a.seed = next(&mut args, "--seed").parse().expect("--seed: number"),
            "--out" => a.out_dir = next(&mut args, "--out").into(),
            "--overlap-us" => {
                let us: u64 = next(&mut args, "--overlap-us").parse().expect("--overlap-us: µs");
                a.overlap_ns = us * 1000;
            }
            other => panic!(
                "unknown argument {other} (expected --demo/--load/--full/--quick/--seed/--out/--overlap-us)"
            ),
        }
    }
    a
}

/// Everything the analysis needs, independent of where it came from
/// (a live run or a parsed JSONL artifact).
struct TimelineData {
    samples: Vec<AnchorSample>,
    endpoints: Vec<(u64, u16, u16)>,
    kind_counts: BTreeMap<String, u64>,
    total_events: usize,
    overwritten: u64,
}

// ---------------------------------------------------------------------------
// --demo: run, export, analyze
// ---------------------------------------------------------------------------

/// Demo drift: ±15 ppm per node. Two independent U(−15,15) draws are
/// on average 10 ppm apart, so a same-phase 75 ms pair wraps its full
/// interval in 7500 s — a 30 min run catches a good fraction of the
/// tree's pairs mid-overlap, a 1 h run most of them.
const DEMO_PPM: f64 = 15.0;

fn demo(args: &Args) -> TimelineData {
    let minutes = if args.full { 60 } else { 30 };
    let topo = Topology::paper_tree();
    let pairs = shading_pairs(&topo);
    println!(
        "demo: fig07 tree, static 75 ms, drift ±{DEMO_PPM} ppm/node, {minutes} min, seed {}",
        args.seed
    );
    let spec = ExperimentSpec::paper_default(
        topo,
        IntervalPolicy::Static(Duration::from_millis(75)),
        args.seed,
    )
    .with_duration(Duration::from_secs(minutes * 60))
    .with_clock_ppm(DEMO_PPM)
    .with_timeline_cap(1 << 20);
    let res = run_ble(&spec);
    println!(
        "run done: CoAP PDR {:.4}, {} connection losses, {} skipped events",
        res.records.coap_pdr(),
        res.conn_losses,
        res.metrics.total("ll_events_skipped"),
    );

    // Export the artifact.
    let tl = &res.timeline;
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("warning: cannot create {:?}: {e}", args.out_dir);
    }
    let path = args.out_dir.join("timeline_tree.jsonl");
    match std::fs::write(&path, tl.to_jsonl()) {
        Ok(()) => println!("[jsonl] wrote {path:?} ({} events)", tl.len()),
        Err(e) => eprintln!("warning: cannot write {path:?}: {e}"),
    }

    // Closed-form §6.2 expectation for comparison (printed here, while
    // we still know the run parameters; detection itself is data-only).
    let hours = minutes as f64 / 60.0;
    let mean_rel_ppm = 2.0 * DEMO_PPM / 3.0; // E|U−U| over ±ppm
    let per_h = analysis::network_shading_events_per_hour(
        Duration::from_millis(75),
        mean_rel_ppm,
        pairs,
    );
    println!(
        "closed-form §6.2: {pairs} shading pairs × {:.3}/h (mean rel drift {mean_rel_ppm:.1} ppm) \
         → {:.1} overlap episodes expected in {hours:.1} h",
        per_h / pairs as f64,
        per_h * hours
    );

    let mut kind_counts = BTreeMap::new();
    for ev in tl.iter() {
        *kind_counts.entry(ev.span.kind().to_string()).or_insert(0u64) += 1;
    }
    TimelineData {
        samples: anchor_samples(tl.iter()),
        endpoints: conn_endpoints(tl.iter()),
        kind_counts,
        total_events: tl.len(),
        overwritten: tl.overwritten(),
    }
}

/// Same-interval connection pairs sharing a node: per node with
/// degree k, k·(k−1)/2 pairs (§6.2's preconditions; all links run the
/// same static interval here).
fn shading_pairs(topo: &Topology) -> usize {
    let mut degree = vec![0usize; topo.len()];
    for (child, par) in topo.parent.iter().enumerate() {
        if let Some(p) = *par {
            degree[child] += 1;
            degree[p] += 1;
        }
    }
    degree.iter().map(|k| k * (k - 1) / 2).sum()
}

// ---------------------------------------------------------------------------
// --load: parse a JSONL artifact
// ---------------------------------------------------------------------------

fn load(path: &PathBuf) -> Option<TimelineData> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[timeline] cannot read {path:?}: {e}");
            return None;
        }
    };
    let mut kind_counts = BTreeMap::new();
    let mut total_events = 0usize;
    // Reconstruct the analysis-relevant spans as real `TimelineEvent`s
    // so the exact same extraction runs on loaded artifacts as on live
    // timelines — in particular `conn_endpoints`' inference of a
    // connection's endpoints from its coordinator/subordinate
    // recording sides, which is what recovers connections whose
    // `conn_up` the ring overwrote.
    let mut events: Vec<TimelineEvent> = Vec::new();
    let num = |o: &BTreeMap<String, Value>, k: &str| o.get(k).and_then(Value::as_num);
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match Value::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("[timeline] {path:?}:{}: bad JSON: {e}", i + 1);
                return None;
            }
        };
        let Some(o) = v.as_obj() else {
            eprintln!("[timeline] {path:?}:{}: not an object", i + 1);
            return None;
        };
        let kind = o.get("kind").and_then(Value::as_str).unwrap_or("?");
        *kind_counts.entry(kind.to_string()).or_insert(0) += 1;
        total_events += 1;
        let t = Instant::from_nanos(num(o, "t_ns").unwrap_or(0.0) as u64);
        let node = NodeId(num(o, "node").unwrap_or(0.0) as u16);
        match kind {
            "conn_event" => {
                let (Some(conn), Some(coord), Some(anchor), Some(itv)) = (
                    num(o, "conn"),
                    o.get("coord").and_then(Value::as_bool),
                    num(o, "anchor_ns"),
                    num(o, "interval_ns"),
                ) else {
                    eprintln!("[timeline] {path:?}:{}: incomplete conn_event", i + 1);
                    return None;
                };
                events.push(TimelineEvent {
                    t,
                    node,
                    span: Span::ConnEvent {
                        conn: conn as u64,
                        coord,
                        anchor_ns: anchor as u64,
                        interval_ns: itv as u64,
                    },
                });
            }
            "conn_up" => {
                if let (Some(conn), Some(peer), Some(coord), Some(itv)) = (
                    num(o, "conn"),
                    num(o, "peer"),
                    o.get("coord").and_then(Value::as_bool),
                    num(o, "interval_ns"),
                ) {
                    events.push(TimelineEvent {
                        t,
                        node,
                        span: Span::ConnUp {
                            conn: conn as u64,
                            peer: NodeId(peer as u16),
                            coord,
                            interval_ns: itv as u64,
                        },
                    });
                }
            }
            "conn_down" => {
                if let (Some(conn), Some(peer)) = (num(o, "conn"), num(o, "peer")) {
                    events.push(TimelineEvent {
                        t,
                        node,
                        span: Span::ConnDown {
                            conn: conn as u64,
                            peer: NodeId(peer as u16),
                            // The reason label is not needed for
                            // endpoint/anchor analysis.
                            reason: "",
                        },
                    });
                }
            }
            _ => {}
        }
    }
    println!("loaded {path:?}: {total_events} events");
    Some(TimelineData {
        samples: anchor_samples(events.iter()),
        endpoints: conn_endpoints(events.iter()),
        kind_counts,
        total_events,
        overwritten: 0,
    })
}

// ---------------------------------------------------------------------------
// Analysis + rendering
// ---------------------------------------------------------------------------

fn analyze(data: &TimelineData, args: &Args) -> Vec<OverlapWindow> {
    println!("\ntimeline contents ({} events):", data.total_events);
    for (kind, n) in &data.kind_counts {
        println!("  {kind:<20} {n:>8}");
    }
    if data.overwritten > 0 {
        println!(
            "  (ring overwrote {} older events — the window starts late)",
            data.overwritten
        );
    }

    let windows = find_shared_node_windows(&data.samples, &data.endpoints, args.overlap_ns);
    println!(
        "\nshading overlap windows (phase gap < {} µs between same-interval\n\
         connections sharing a node):",
        args.overlap_ns / 1000
    );
    if windows.is_empty() {
        println!("  none detected");
        return windows;
    }
    println!(
        "{:>6} {:>6}x{:<6} {:>10} {:>10} {:>12} {:>8}",
        "node", "conn", "conn", "start", "duration", "min gap", "samples"
    );
    for w in &windows {
        println!(
            "{:>6} {:>6}x{:<6} {:>9.1}s {:>9.1}s {:>9} µs {:>8}",
            w.node,
            w.conn_a,
            w.conn_b,
            w.start_ns as f64 / 1e9,
            w.duration_ns() as f64 / 1e9,
            w.min_gap_ns / 1000,
            w.samples
        );
    }
    let rows: Vec<String> = windows
        .iter()
        .map(|w| {
            format!(
                "{},{},{},{:.3},{:.3},{},{}",
                w.node,
                w.conn_a,
                w.conn_b,
                w.start_ns as f64 / 1e9,
                w.duration_ns() as f64 / 1e9,
                w.min_gap_ns / 1000,
                w.samples
            )
        })
        .collect();
    let path = args.out_dir.join("timeline_windows.csv");
    let mut content = String::from("node,conn_a,conn_b,start_s,duration_s,min_gap_us,samples\n");
    for r in &rows {
        content.push_str(r);
        content.push('\n');
    }
    if std::fs::create_dir_all(&args.out_dir).is_ok()
        && std::fs::write(&path, content).is_ok()
    {
        println!("[csv] wrote {path:?}");
    }
    windows
}

/// ASCII anchor chart: one row per time bucket, anchor phase (mod the
/// connection interval) on the x-axis, one letter per connection
/// incident to `node`. Rows intersecting a detected overlap window
/// are flagged in the margin.
fn anchor_chart(data: &TimelineData, windows: &[OverlapWindow], node: u16) {
    const ROWS: usize = 36;
    const COLS: usize = 64;
    let incident: Vec<u64> = data
        .endpoints
        .iter()
        .filter(|&&(_, a, b)| a == node || b == node)
        .map(|&(c, _, _)| c)
        .collect();
    let samples: Vec<&AnchorSample> = data
        .samples
        .iter()
        .filter(|s| incident.contains(&s.conn))
        .collect();
    let Some(interval) = samples.iter().map(|s| s.interval_ns).find(|&i| i > 0) else {
        return;
    };
    let (t0, t1) = samples
        .iter()
        .fold((u64::MAX, 0u64), |(lo, hi), s| (lo.min(s.t_ns), hi.max(s.t_ns)));
    if t0 >= t1 {
        return;
    }
    let bucket = (t1 - t0) / ROWS as u64 + 1;

    println!(
        "\nanchor phase chart, node {node} (x: anchor mod {} ms; y: time):",
        (interval + 500_000) / 1_000_000
    );
    let mut legend: Vec<u64> = Vec::new();
    let mut grid = vec![[b' '; COLS]; ROWS];
    for s in &samples {
        let sym_idx = match legend.iter().position(|&c| c == s.conn) {
            Some(i) => i,
            None => {
                legend.push(s.conn);
                legend.len() - 1
            }
        };
        let row = ((s.t_ns - t0) / bucket) as usize;
        let col = ((s.anchor_ns % interval) as u128 * COLS as u128 / interval as u128) as usize;
        let sym = b'A' + (sym_idx % 26) as u8;
        let cell = &mut grid[row.min(ROWS - 1)][col.min(COLS - 1)];
        *cell = if *cell == b' ' || *cell == sym { sym } else { b'X' };
    }
    for (i, row) in grid.iter().enumerate() {
        let t_lo = t0 + i as u64 * bucket;
        let t_hi = t_lo + bucket;
        let shaded = windows
            .iter()
            .any(|w| w.node == node && w.start_ns < t_hi && w.end_ns > t_lo);
        println!(
            "{:>7.1}s |{}| {}",
            t_lo as f64 / 1e9,
            String::from_utf8_lossy(row),
            if shaded { "<< overlap" } else { "" }
        );
    }
    let names: Vec<String> = legend
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let ep = data
                .endpoints
                .iter()
                .find(|&&(cc, _, _)| cc == *c)
                .map(|&(_, a, b)| format!(" ({a}-{b})"))
                .unwrap_or_default();
            format!("{} = conn {c}{ep}", (b'A' + (i % 26) as u8) as char)
        })
        .collect();
    println!("legend: {}  (X = two trains in one cell)", names.join(", "));
}

fn main() -> ExitCode {
    let args = parse_args();
    if !args.demo && args.load.is_none() {
        eprintln!(
            "usage: timeline --demo [--full] [--seed <n>] [--out <dir>] [--overlap-us <n>]\n\
             \u{20}      timeline --load <timeline.jsonl> [--overlap-us <n>]"
        );
        return ExitCode::FAILURE;
    }
    println!("================================================================");
    println!("timeline: anchor-drift / shading inspector (§6.2)");
    println!("================================================================");

    let data = if let Some(path) = &args.load {
        match load(path) {
            Some(d) => d,
            None => return ExitCode::FAILURE,
        }
    } else {
        demo(&args)
    };
    if data.samples.is_empty() {
        eprintln!("[timeline] no conn_event spans — was the timeline enabled?");
        return ExitCode::FAILURE;
    }
    let windows = analyze(&data, &args);

    // Chart the node with the longest overlap window — or, when no
    // window was found, the node with the most incident connections.
    let node = windows
        .iter()
        .max_by_key(|w| w.duration_ns())
        .map(|w| w.node)
        .or_else(|| {
            let mut nodes: Vec<u16> = data
                .endpoints
                .iter()
                .flat_map(|&(_, a, b)| [a, b])
                .collect();
            nodes.sort_unstable();
            let mut best = None;
            let mut best_deg = 0;
            for &n in &nodes {
                let deg = nodes.iter().filter(|&&m| m == n).count();
                if deg > best_deg {
                    best_deg = deg;
                    best = Some(n);
                }
            }
            best
        });
    if let Some(n) = node {
        anchor_chart(&data, &windows, n);
    }

    if args.demo && windows.is_empty() {
        eprintln!("[timeline] demo found no overlap windows — unexpected for this drift");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
