//! The parallel campaign executor.
//!
//! A `std::thread::scope` worker pool pulls job indices off a shared
//! atomic cursor (no work-stealing needed — jobs are coarse), runs the
//! user-supplied job body under `catch_unwind`, persists each result
//! through the [`ArtifactStore`], and streams completions back over an
//! `mpsc` channel to the main thread, which renders progress/ETA on
//! stderr and assembles the final [`CampaignReport`].
//!
//! Determinism: a job's seed and parameters are fixed by the grid, the
//! job body is a pure function of the [`Job`], and artifacts contain
//! no timing — so `--jobs 1` and `--jobs 32` produce byte-identical
//! artifacts, merely at different wall-clock cost. Panic isolation: a
//! crashing job is recorded as failed (with the panic message in the
//! manifest) and the remaining jobs keep running.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use crate::grid::Campaign;
use crate::job::{Job, JobResult};
use crate::store::ArtifactStore;

/// Execution knobs for one campaign run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads; `0` means `std::thread::available_parallelism`.
    pub workers: usize,
    /// Artifact root; the campaign adds its own subdirectory.
    pub out_root: PathBuf,
    /// Skip jobs whose artifacts already exist (resume).
    pub resume: bool,
    /// Live progress/ETA lines on stderr.
    pub progress: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            workers: 0,
            out_root: PathBuf::from("results/campaigns"),
            resume: true,
            progress: true,
        }
    }
}

impl RunConfig {
    /// Resolve `workers == 0` to the machine's parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Ran in this launch.
    Done(JobResult),
    /// Loaded from an existing artifact (resume).
    Cached(JobResult),
    /// The job body panicked or its artifact could not be written.
    Failed(String),
}

impl JobStatus {
    /// The result, if the job completed (fresh or cached).
    pub fn result(&self) -> Option<&JobResult> {
        match self {
            JobStatus::Done(r) | JobStatus::Cached(r) => Some(r),
            JobStatus::Failed(_) => None,
        }
    }
}

/// Everything a figure binary needs after a campaign completes.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// `(job, outcome)` in grid order, independent of scheduling.
    pub outcomes: Vec<(Job, JobStatus)>,
    /// Wall-clock seconds for this launch (cached jobs cost ~0).
    pub wall_secs: f64,
}

impl CampaignReport {
    /// Completed (fresh + cached) job count.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, s)| s.result().is_some())
            .count()
    }

    /// Jobs resumed from existing artifacts.
    pub fn cached(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, s)| matches!(s, JobStatus::Cached(_)))
            .count()
    }

    /// Failed jobs with their panic/error messages, in grid order.
    pub fn failures(&self) -> Vec<(&Job, &str)> {
        self.outcomes
            .iter()
            .filter_map(|(j, s)| match s {
                JobStatus::Failed(e) => Some((j, e.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Results of all completed jobs for one configuration key, in
    /// seed order — the aggregation input for one table cell.
    pub fn results_for_config(&self, config: &str) -> Vec<&JobResult> {
        self.outcomes
            .iter()
            .filter(|(j, _)| j.config == config)
            .filter_map(|(_, s)| s.result())
            .collect()
    }
}

/// Run a campaign: resume what exists, shard the rest across the
/// worker pool, persist artifacts and the manifest, report progress.
///
/// `body` must be a pure function of the [`Job`] (use `job.seed` for
/// all randomness) for the determinism guarantee to hold.
pub fn run<F>(campaign: &Campaign, cfg: &RunConfig, body: F) -> CampaignReport
where
    F: Fn(&Job) -> JobResult + Send + Sync,
{
    let t0 = Instant::now();
    let store = ArtifactStore::new(&cfg.out_root, &campaign.name);
    let total = campaign.jobs.len();

    // Resume pass: collect cached results, list what still runs.
    let mut outcomes: Vec<Option<JobStatus>> = Vec::with_capacity(total);
    let mut pending: Vec<usize> = Vec::new();
    for (idx, job) in campaign.jobs.iter().enumerate() {
        match cfg.resume.then(|| store.load(job)).flatten() {
            Some(result) => outcomes.push(Some(JobStatus::Cached(result))),
            None => {
                outcomes.push(None);
                pending.push(idx);
            }
        }
    }
    let cached = total - pending.len();
    let workers = cfg.effective_workers().min(pending.len().max(1));
    if cfg.progress {
        eprintln!(
            "[campaign {}] {total} jobs: {cached} cached, {} to run on {workers} worker{}",
            campaign.name,
            pending.len(),
            if workers == 1 { "" } else { "s" },
        );
    }

    if !pending.is_empty() {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<JobResult, String>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (cursor, pending, body, store) = (&cursor, &pending, &body, &store);
                scope.spawn(move || loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&job_idx) = pending.get(k) else {
                        break;
                    };
                    let job = &campaign.jobs[job_idx];
                    let outcome = match catch_unwind(AssertUnwindSafe(|| body(job))) {
                        Ok(result) => match store.save(job, &result) {
                            Ok(()) => Ok(result),
                            Err(e) => Err(format!("artifact write failed: {e}")),
                        },
                        Err(payload) => Err(format!("job panicked: {}", panic_msg(&*payload))),
                    };
                    if tx.send((job_idx, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Collector: the scope's owning thread renders progress.
            let mut finished = 0usize;
            let run_t0 = Instant::now();
            for (job_idx, outcome) in rx {
                finished += 1;
                let job = &campaign.jobs[job_idx];
                let status = match outcome {
                    Ok(result) => JobStatus::Done(result),
                    Err(e) => {
                        eprintln!("[campaign {}] job {} FAILED: {e}", campaign.name, job.id);
                        JobStatus::Failed(e)
                    }
                };
                outcomes[job_idx] = Some(status);
                if cfg.progress {
                    let elapsed = run_t0.elapsed().as_secs_f64();
                    let remaining = pending.len() - finished;
                    let eta = elapsed / finished as f64 * remaining as f64;
                    eprintln!(
                        "[campaign {}] {}/{} done ({cached} cached) | {} | elapsed {} | eta {}",
                        campaign.name,
                        finished,
                        pending.len(),
                        job.id,
                        fmt_secs(elapsed),
                        fmt_secs(eta),
                    );
                }
            }
        });
    }

    let outcomes: Vec<(Job, JobStatus)> = campaign
        .jobs
        .iter()
        .cloned()
        .zip(outcomes.into_iter().map(|s| s.expect("every job resolved")))
        .collect();

    let wall_secs = t0.elapsed().as_secs_f64();
    let statuses: Vec<(String, &'static str, String)> = outcomes
        .iter()
        .map(|(j, s)| match s {
            JobStatus::Done(_) => (j.id.clone(), "done", String::new()),
            JobStatus::Cached(_) => (j.id.clone(), "cached", String::new()),
            JobStatus::Failed(e) => (j.id.clone(), "failed", e.clone()),
        })
        .collect();
    if let Err(e) = store.write_manifest(&campaign.name, campaign.master_seed, &statuses, wall_secs)
    {
        eprintln!(
            "[campaign {}] warning: cannot write manifest: {e}",
            campaign.name
        );
    }

    let report = CampaignReport {
        name: campaign.name.clone(),
        outcomes,
        wall_secs,
    };
    if cfg.progress {
        eprintln!(
            "[campaign {}] finished: {}/{} completed ({} cached, {} failed) in {}",
            report.name,
            report.completed(),
            total,
            report.cached(),
            report.failures().len(),
            fmt_secs(wall_secs),
        );
    }
    report
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn fmt_secs(s: f64) -> String {
    if s < 60.0 {
        format!("{s:.1}s")
    } else {
        format!("{}m{:02}s", (s / 60.0) as u64, (s % 60.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBuilder;

    fn temp_cfg(tag: &str, workers: usize) -> RunConfig {
        let dir =
            std::env::temp_dir().join(format!("mindgap-pool-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        RunConfig {
            workers,
            out_root: dir,
            resume: true,
            progress: false,
        }
    }

    fn body(job: &Job) -> JobResult {
        let mut r = JobResult::new(&job.label());
        r.metric("seed_as_f64_lo32", (job.seed & 0xffff_ffff) as f64);
        r.series("echo", vec![job.seed_index as f64]);
        r
    }

    #[test]
    fn all_jobs_complete_in_grid_order() {
        let c = GridBuilder::new("pool-order", 1)
            .axis("a", ["1", "2", "3"])
            .derived_seeds(2)
            .build();
        let cfg = temp_cfg("order", 3);
        let report = run(&c, &cfg, body);
        assert_eq!(report.completed(), 6);
        let ids: Vec<_> = report.outcomes.iter().map(|(j, _)| j.id.clone()).collect();
        let want: Vec<_> = c.jobs.iter().map(|j| j.id.clone()).collect();
        assert_eq!(ids, want);
        std::fs::remove_dir_all(&cfg.out_root).ok();
    }

    #[test]
    fn panicking_job_is_isolated() {
        let c = GridBuilder::new("pool-panic", 1)
            .axis("a", ["ok1", "boom", "ok2"])
            .build();
        let cfg = temp_cfg("panic", 2);
        let report = run(&c, &cfg, |job| {
            if job.params["a"] == "boom" {
                panic!("intentional test panic");
            }
            body(job)
        });
        assert_eq!(report.completed(), 2);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].1.contains("intentional test panic"));
        assert_eq!(failures[0].0.params["a"], "boom");
        std::fs::remove_dir_all(&cfg.out_root).ok();
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let c = GridBuilder::new("pool-resume", 1)
            .axis("a", ["1", "2"])
            .derived_seeds(2)
            .build();
        let cfg = temp_cfg("resume", 2);
        let first = run(&c, &cfg, body);
        assert_eq!(first.cached(), 0);
        assert_eq!(first.completed(), 4);
        let calls = AtomicUsize::new(0);
        let second = run(&c, &cfg, |job| {
            calls.fetch_add(1, Ordering::Relaxed);
            body(job)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0, "nothing should re-run");
        assert_eq!(second.cached(), 4);
        // Cached results equal fresh ones.
        for ((_, a), (_, b)) in first.outcomes.iter().zip(second.outcomes.iter()) {
            assert_eq!(a.result(), b.result());
        }
        std::fs::remove_dir_all(&cfg.out_root).ok();
    }

    #[test]
    fn failed_jobs_rerun_on_next_launch() {
        let c = GridBuilder::new("pool-retry", 1)
            .axis("a", ["x", "y"])
            .build();
        let cfg = temp_cfg("retry", 1);
        let first = run(&c, &cfg, |job| {
            if job.params["a"] == "y" {
                panic!("first launch fails y");
            }
            body(job)
        });
        assert_eq!(first.completed(), 1);
        let second = run(&c, &cfg, body);
        assert_eq!(second.completed(), 2);
        assert_eq!(second.cached(), 1, "only x was cached");
        std::fs::remove_dir_all(&cfg.out_root).ok();
    }

    #[test]
    fn worker_count_does_not_change_artifacts() {
        let c = GridBuilder::new("pool-det", 99)
            .axis("a", ["1", "2", "3", "4"])
            .derived_seeds(3)
            .build();
        let cfg1 = temp_cfg("det-serial", 1);
        let cfg4 = {
            let mut cfg = temp_cfg("det-parallel", 4);
            cfg.resume = false;
            cfg
        };
        run(&c, &cfg1, body);
        run(&c, &cfg4, body);
        for job in &c.jobs {
            let a = std::fs::read(ArtifactStore::new(&cfg1.out_root, &c.name).job_path(&job.id))
                .unwrap();
            let b = std::fs::read(ArtifactStore::new(&cfg4.out_root, &c.name).job_path(&job.id))
                .unwrap();
            assert_eq!(a, b, "artifact {} differs between -j1 and -j4", job.id);
        }
        std::fs::remove_dir_all(&cfg1.out_root).ok();
        std::fs::remove_dir_all(&cfg4.out_root).ok();
    }
}
