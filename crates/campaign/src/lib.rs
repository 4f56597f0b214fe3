//! # mindgap-campaign — the parallel experiment-campaign engine
//!
//! Every artefact of the paper is a grid of *independent* simulations:
//! Fig. 15 alone is 60 configurations × 5 seeds, Fig. 14 is 5×1 h per
//! configuration. This crate turns "run this grid" into a first-class,
//! parallel, resumable operation while preserving the repo's
//! bit-for-bit determinism guarantee:
//!
//! * [`grid`] — a typed parameter grid ([`GridBuilder`]) expanded into
//!   [`Job`]s, each with a deterministic per-job seed derived from the
//!   master seed ([`derive_seed`]), so results are byte-identical
//!   regardless of worker count or scheduling order.
//! * [`pool`] — a `std::thread` worker pool with channel-based result
//!   collection, per-job `catch_unwind` panic isolation (a crashed job
//!   is recorded as failed, the campaign continues) and live
//!   progress/ETA reporting on stderr.
//! * [`store`] — one JSON artifact per job plus a campaign manifest
//!   under `results/campaigns/<name>/`; a re-launched campaign skips
//!   jobs whose artifacts already exist (resume after interrupt).
//! * [`agg`] — folds per-seed metric sets into mean/min/max/CI95
//!   summaries compatible with `mindgap_testbed::stats`.
//! * [`json`] — the minimal, dependency-free JSON codec backing the
//!   artifact store (deterministic output: `BTreeMap` key order,
//!   shortest-round-trip float formatting).
//!
//! The engine is generic over the job body: [`pool::run`] takes any
//! `Fn(&Job) -> JobResult + Send + Sync`, so the figure binaries plug
//! their existing `run_ble` calls straight in.
//!
//! ```
//! use mindgap_campaign::{GridBuilder, JobResult, RunConfig};
//!
//! let campaign = GridBuilder::new("doc-demo", 42)
//!     .axis("conn_ms", ["25", "75"])
//!     .derived_seeds(2)
//!     .build();
//! let cfg = RunConfig {
//!     workers: 2,
//!     out_root: std::env::temp_dir().join("mindgap-doc-demo"),
//!     ..RunConfig::default()
//! };
//! let report = mindgap_campaign::run(&campaign, &cfg, |job| {
//!     let conn_ms: f64 = job.params["conn_ms"].parse().unwrap();
//!     let mut r = JobResult::new(&job.label());
//!     r.metric("conn_ms", conn_ms);
//!     r.metric("seed_lsb", (job.seed & 1) as f64);
//!     r
//! });
//! assert_eq!(report.completed(), 4);
//! # std::fs::remove_dir_all(cfg.out_root).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod grid;
pub mod job;
pub mod json;
pub mod pool;
pub mod store;

pub use agg::{concat_series, summarize, summarize_metric, Summary};
pub use grid::{Campaign, GridBuilder};
pub use job::{derive_seed, Job, JobResult};
pub use pool::{run, CampaignReport, JobStatus, RunConfig};
pub use store::ArtifactStore;
