//! # mindgap-bench — the experiment harness
//!
//! One binary per table and figure of the paper (see DESIGN.md §3 for
//! the full index). Every binary:
//!
//! * accepts `--full` to run at paper scale (1 h/24 h durations, five
//!   seeds); the default *quick* mode shrinks durations so the whole
//!   set finishes in minutes,
//! * accepts `--seed <n>` to change the base seed,
//! * prints the regenerated rows/series to stdout with the paper's
//!   reported values alongside,
//! * writes machine-readable CSV under `results/`,
//! * and, for campaign-backed binaries, accepts `--fleet <n>` to
//!   shard the grid across `n` worker processes with a live ops view
//!   (`--dash <port>` HTTP dashboard, `--tui` terminal frame) — see
//!   [`run_campaign`] and the `mindgap-fleet` crate.
//!
//! Performance is measured by the separate `perfbench` package at the
//! repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

/// Common command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Paper-scale durations and seed counts.
    pub full: bool,
    /// Base seed.
    pub seed: u64,
    /// Output directory for CSV files (campaign artifacts go to
    /// `<out>/campaigns/`).
    pub out_dir: PathBuf,
    /// Campaign worker threads; 0 = available parallelism.
    pub jobs: usize,
    /// Ignore existing campaign artifacts instead of resuming.
    pub fresh: bool,
    /// Worker *processes* to shard the campaign across (0 = run
    /// in-process with `jobs` threads).
    pub fleet: usize,
    /// Set when this process IS a fleet worker (`--fleet-worker w0`):
    /// claim shards, write artifacts, exit — no CSVs.
    pub fleet_worker: Option<String>,
    /// Serve the live dashboard on this loopback port (0 = pick one).
    pub dash: Option<u16>,
    /// Repaint a terminal status frame while the fleet runs.
    pub tui: bool,
}

impl Opts {
    /// Parse from `std::env::args`.
    pub fn parse() -> Opts {
        let mut full = false;
        let mut seed = 42;
        let mut out_dir = PathBuf::from("results");
        let mut jobs = 0usize;
        let mut fresh = false;
        let mut fleet = 0usize;
        let mut fleet_worker = None;
        let mut dash = None;
        let mut tui = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => full = true,
                "--quick" => full = false,
                "--seed" => {
                    seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs a number");
                }
                "--out" => {
                    out_dir = args.next().expect("--out needs a path").into();
                }
                "--jobs" => {
                    jobs = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--jobs needs a number");
                }
                "--fresh" => fresh = true,
                "--fleet" => {
                    fleet = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--fleet needs a worker count");
                }
                "--fleet-worker" => {
                    fleet_worker = Some(args.next().expect("--fleet-worker needs an id"));
                }
                "--dash" => {
                    dash = Some(
                        args.next()
                            .and_then(|s| s.parse().ok())
                            .expect("--dash needs a port (0 = ephemeral)"),
                    );
                }
                "--tui" => tui = true,
                other => panic!(
                    "unknown argument {other} (expected --full/--quick/--seed/--out/--jobs/--fresh/\
                     --fleet/--fleet-worker/--dash/--tui)"
                ),
            }
        }
        Opts {
            full,
            seed,
            out_dir,
            jobs,
            fresh,
            fleet,
            fleet_worker,
            dash,
            tui,
        }
    }

    /// Seeds for repeated runs: 5 in full mode (the paper's 5×1 h),
    /// 1 in quick mode.
    pub fn seeds(&self) -> Vec<u64> {
        let n = if self.full { 5 } else { 1 };
        (0..n).map(|i| self.seed + i).collect()
    }

    /// Mode suffix for campaign names, so `--quick` and `--full`
    /// artifact sets never shadow each other.
    pub fn mode(&self) -> &'static str {
        if self.full {
            "full"
        } else {
            "quick"
        }
    }

    /// Campaign engine configuration for this invocation: artifacts
    /// under `<out>/campaigns/`, resume on unless `--fresh`.
    pub fn campaign(&self) -> mindgap_campaign::RunConfig {
        mindgap_campaign::RunConfig {
            workers: self.jobs,
            out_root: self.out_dir.join("campaigns"),
            resume: !self.fresh,
            progress: true,
        }
    }
}

/// Run a campaign honouring the process-topology flags: plain
/// in-process pool by default, shard-claiming worker under
/// `--fleet-worker <id>` (writes artifacts, never CSVs, then exits),
/// or fleet supervisor under `--fleet <n>` (spawns `n` re-invocations
/// of this binary as workers, serves the `--dash`/`--tui` live view,
/// then merges from the store).
///
/// All three topologies produce byte-identical artifacts and CSVs for
/// the same seed: job bodies are pure functions of the [`Job`], the
/// store is atomic, and the supervisor's merge pass resumes every job
/// from its artifact — exactly what `--jobs N` would have written.
///
/// [`Job`]: mindgap_campaign::Job
pub fn run_campaign<F>(
    opts: &Opts,
    campaign: &mindgap_campaign::Campaign,
    body: F,
) -> mindgap_campaign::CampaignReport
where
    F: Fn(&mindgap_campaign::Job) -> mindgap_campaign::JobResult + Send + Sync,
{
    let cfg = opts.campaign();
    if let Some(id) = &opts.fleet_worker {
        // Worker process: claim jobs until the grid is resolved, then
        // return a cache-loaded report so binaries that chain several
        // campaigns (fig08 runs two) keep participating in the later
        // ones. CSV/stdout reporting stays supervisor-only —
        // [`write_csv`] is a no-op in worker mode.
        let shard = mindgap_campaign::ShardConfig {
            worker: id.clone(),
            ..mindgap_campaign::ShardConfig::default()
        };
        let wr = mindgap_campaign::run_worker(campaign, &cfg, &shard, &body);
        eprintln!(
            "[fleet-worker {id}] {}: ran {} job(s), {} failed, {} already done",
            campaign.name,
            wr.ran.len(),
            wr.failed.len(),
            wr.seen_done
        );
        let merge_cfg = mindgap_campaign::RunConfig {
            resume: true,
            progress: false,
            ..cfg
        };
        return mindgap_campaign::run(campaign, &merge_cfg, body);
    }
    if opts.fleet > 0 {
        let store = mindgap_campaign::ArtifactStore::new(&cfg.out_root, &campaign.name);
        if opts.fresh {
            // `--fresh` is a supervisor-side decision: clear the store
            // once here, then let workers (and the merge pass) resume
            // over it.
            fs::remove_dir_all(store.dir()).ok();
        }
        let exe = std::env::current_exe().expect("cannot resolve current executable");
        let worker_args = fleet_worker_args();
        let fleet_cfg = mindgap_fleet::FleetConfig {
            workers: opts.fleet,
            dash_port: opts.dash,
            tui: opts.tui,
            ..mindgap_fleet::FleetConfig::default()
        };
        let outcome = mindgap_fleet::supervise(campaign, &cfg, &fleet_cfg, |i| {
            let mut c = std::process::Command::new(&exe);
            c.args(&worker_args)
                .arg("--fleet-worker")
                .arg(mindgap_fleet::worker_id(i));
            c
        })
        .expect("fleet supervisor failed");
        if !outcome.all_ok() {
            eprintln!("[fleet] some workers exited abnormally; merge pass re-runs gaps");
        }
        // Merge pass: every artifact is on disk, so this resumes from
        // cache and emits the same report (and therefore the same
        // CSVs) as a single-process run. Keep the dashboard serving
        // until the merge finishes.
        let merge_cfg = mindgap_campaign::RunConfig {
            resume: true,
            ..cfg
        };
        let report = mindgap_campaign::run(campaign, &merge_cfg, body);
        drop(outcome);
        return report;
    }
    mindgap_campaign::run(campaign, &cfg, body)
}

/// The current invocation's arguments with the fleet-topology flags
/// stripped, for re-invoking this binary as a worker. `--fresh` is
/// also stripped (the supervisor clears the store once; workers must
/// resume over it) and `--dash`/`--tui` stay supervisor-only.
fn fleet_worker_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fleet" | "--dash" | "--fleet-worker" => {
                args.next();
            }
            "--tui" | "--fresh" => {}
            _ => out.push(a),
        }
    }
    out
}

/// Print a figure banner.
pub fn banner(id: &str, title: &str, opts: &Opts) {
    println!("================================================================");
    println!("{id}: {title}");
    println!(
        "mode: {}   base seed: {}",
        if opts.full { "FULL (paper scale)" } else { "QUICK" },
        opts.seed
    );
    println!("================================================================");
}

/// Write a CSV file under the results directory. Fleet worker
/// processes skip this: only the supervisor's merge pass reports, so
/// concurrent workers never race on the output files.
pub fn write_csv(opts: &Opts, name: &str, header: &str, rows: &[String]) {
    if opts.fleet_worker.is_some() {
        return;
    }
    let dir = &opts.out_dir;
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(name);
    let mut content = String::with_capacity(rows.len() * 32 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for r in rows {
        content.push_str(r);
        content.push('\n');
    }
    match fs::write(&path, content) {
        Ok(()) => println!("[csv] wrote {path:?}"),
        Err(e) => eprintln!("warning: cannot write {path:?}: {e}"),
    }
}

/// Format a PDR/ratio for tables.
pub fn pct(v: f64) -> String {
    format!("{:6.3}%", v * 100.0)
}

/// CDF evaluation points matching a figure's x-axis.
pub fn cdf_points(max_secs: f64, n: usize) -> Vec<f64> {
    mindgap_testbed::stats::linspace(0.0, max_secs, n)
}
