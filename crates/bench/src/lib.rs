//! # mindgap-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation, plus this
//! repository's own studies, is a module under [`exp`] (DESIGN.md §3
//! has the full index). Each exposes one function,
//! `run(&Opts) -> Report`, that a test can call like any other: the
//! [`Report`] holds the CSV tables and the named scalars that
//! EXPERIMENTS.md quotes, each next to the paper's value.
//!
//! `src/bin/<name>.rs` wraps `exp::<name>::run` in [`main`], which
//! parses [`Opts`], runs the experiment, prints the scalars and writes
//! the tables. On the command line every binary
//!
//! * accepts `--full` to run at paper scale (1 h/24 h durations, five
//!   seeds); the default *quick* mode shrinks durations so the whole
//!   set finishes in minutes,
//! * accepts `--seed <n>` to change the base seed,
//! * writes machine-readable CSV under `results/` (`--out <dir>`),
//! * for campaign-backed experiments, runs the grid on a `--jobs N`
//!   thread pool that resumes from saved artifacts unless `--fresh`
//!   (see [`Report::campaign`]),
//! * and exits non-zero when a campaign job failed or a table could
//!   not be written.
//!
//! Performance is measured by the separate `perfbench` package at the
//! repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mindgap_campaign::{Campaign, CampaignReport, GridBuilder, Job, JobResult, RunConfig};

pub mod exp;

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
        let mut opts = Opts {
            full: false,
            seed: 42,
            out_dir: PathBuf::from("results"),
            jobs: 0,
            fresh: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = |f: &str| args.next().unwrap_or_else(|| panic!("{f} needs a value"));
            match a.as_str() {
                "--full" => opts.full = true,
                "--quick" => opts.full = false,
                "--seed" => opts.seed = value("--seed").parse().expect("--seed needs a number"),
                "--out" => opts.out_dir = value("--out").into(),
                "--jobs" => opts.jobs = value("--jobs").parse().expect("--jobs needs a number"),
                "--fresh" => opts.fresh = true,
                other => panic!(
                    "unknown argument {other} (expected --full/--quick/--seed/--out/--jobs/--fresh)"
                ),
            }
        }
        opts
    }

    /// `full` in `--full` mode, `quick` otherwise.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// Seeds for repeated runs: 5 in full mode (the paper's 5×1 h),
    /// 1 in quick mode.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.pick(5, 1)).map(|i| self.seed + i).collect()
    }

    /// A campaign grid named `<name>-full` or `<name>-quick` under the
    /// base seed, so the two modes' artifact sets never shadow each
    /// other.
    pub fn grid(&self, name: &str) -> GridBuilder {
        let mode = self.pick("full", "quick");
        GridBuilder::new(&format!("{name}-{mode}"), self.seed)
    }
}

/// One CSV file of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// File name under `--out`.
    pub file: String,
    /// Header line, without the newline.
    pub header: String,
    /// Data lines, without newlines.
    pub rows: Vec<String>,
}

impl Table {
    /// The file's bytes: header and rows, each ending in a newline.
    pub fn csv(&self) -> String {
        let lines = std::iter::once(&self.header).chain(&self.rows);
        lines.map(|line| format!("{line}\n")).collect()
    }
}

/// A named number an experiment reports, with the paper's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalar {
    /// Dotted name, e.g. `tree.coap_pdr`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// The paper's value as text (`—` where the paper has none).
    pub paper: String,
}

/// Everything one experiment run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// CSV tables, written under `--out` by [`emit`].
    pub tables: Vec<Table>,
    /// Named scalars, printed by [`emit`] in insertion order.
    pub scalars: Vec<Scalar>,
    /// Verdict lines printed after the scalars.
    pub notes: Vec<String>,
    /// Campaign jobs that failed, one line each.
    pub failed: Vec<String>,
}

impl Report {
    /// Add a CSV table.
    pub fn table(&mut self, file: &str, header: &str, rows: Vec<String>) {
        self.tables.push(Table {
            file: file.to_string(),
            header: header.to_string(),
            rows,
        });
    }

    /// Add a named scalar with the paper's value as text.
    pub fn scalar(&mut self, name: impl Into<String>, value: f64, paper: &str) {
        self.scalars.push(Scalar {
            name: name.into(),
            value,
            paper: paper.to_string(),
        });
    }

    /// The value of the scalar called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// Run `campaign` on `--jobs` workers with artifacts under
    /// `<out>/campaigns/`, resuming unless `--fresh`, and record every
    /// failed job.
    pub fn campaign<F>(&mut self, opts: &Opts, campaign: &Campaign, body: F) -> CampaignReport
    where
        F: Fn(&Job) -> JobResult + Send + Sync,
    {
        let cfg = RunConfig {
            workers: opts.jobs,
            out_root: opts.out_dir.join("campaigns"),
            resume: !opts.fresh,
            progress: true,
        };
        let report = mindgap_campaign::run(campaign, &cfg, body);
        for (job, err) in report.failures() {
            self.failed
                .push(format!("campaign {} job {}: {err}", report.name, job.id));
        }
        report
    }
}

/// The shared `main` of every experiment binary: parse [`Opts`],
/// print a banner, run the experiment and [`emit`] its report.
/// Exits non-zero when [`emit`] fails.
pub fn main(run: fn(&Opts) -> Report) -> ExitCode {
    let opts = Opts::parse();
    let bin = std::env::args().next().unwrap_or_default();
    let name = Path::new(&bin).file_stem().unwrap_or_default();
    let mode = opts.pick("FULL (paper scale)", "QUICK");
    println!(
        "== {}   mode: {mode}   base seed: {} ==",
        name.to_string_lossy(),
        opts.seed
    );
    match emit(&opts, &run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the report's scalars (each next to the paper's value) and
/// notes, then write every table under `--out`. Writes all it can,
/// then fails if a table could not be written or a campaign job
/// failed.
pub fn emit(opts: &Opts, report: &Report) -> Result<(), String> {
    if !report.scalars.is_empty() {
        println!("\n{:<40} {:>12}   paper", "scalar", "measured");
    }
    for s in &report.scalars {
        // Rounded to 6 decimals; integers print without a fraction.
        let value = (s.value * 1e6).round() / 1e6;
        println!("{:<40} {value:>12}   {}", s.name, s.paper);
    }
    for n in &report.notes {
        println!("{n}");
    }
    let mut errors = Vec::new();
    for t in &report.tables {
        if let Err(e) = write_csv(&opts.out_dir, t) {
            errors.push(format!(
                "cannot write {:?}: {e}",
                opts.out_dir.join(&t.file)
            ));
        }
    }
    errors.extend(report.failed.iter().cloned());
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// Write `table` to `<dir>/<table.file>`, creating `dir` if needed.
pub fn write_csv(dir: &Path, table: &Table) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = dir.join(&table.file);
    fs::write(&path, table.csv())?;
    println!("[csv] wrote {path:?}");
    Ok(())
}
