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
//! * and, for campaign-backed binaries, runs the grid on a `--jobs N`
//!   thread pool that resumes from saved artifacts unless `--fresh`
//!   (see [`Opts::campaign`]).
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
}

impl Opts {
    /// Parse from `std::env::args`.
    pub fn parse() -> Opts {
        let mut full = false;
        let mut seed = 42;
        let mut out_dir = PathBuf::from("results");
        let mut jobs = 0usize;
        let mut fresh = false;
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
                other => panic!(
                    "unknown argument {other} (expected --full/--quick/--seed/--out/--jobs/--fresh)"
                ),
            }
        }
        Opts {
            full,
            seed,
            out_dir,
            jobs,
            fresh,
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

/// Print a figure banner.
pub fn banner(id: &str, title: &str, opts: &Opts) {
    println!("================================================================");
    println!("{id}: {title}");
    println!(
        "mode: {}   base seed: {}",
        if opts.full {
            "FULL (paper scale)"
        } else {
            "QUICK"
        },
        opts.seed
    );
    println!("================================================================");
}

/// Write a CSV file under the results directory.
pub fn write_csv(opts: &Opts, name: &str, header: &str, rows: &[String]) {
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
