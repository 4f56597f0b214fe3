//! # mindgap-testbed — reproducible experiments (paper §4 / Appendix A)
//!
//! The simulation counterpart of the paper's FIT IoT-lab deployment
//! and YAML-driven experimentation framework:
//!
//! * [`topology`] — the 15-node tree (max 3 hops, mean 2.14) and
//!   14-hop line of Fig. 6, with statconn edges (downstream nodes
//!   coordinate, upstream nodes advertise — giving the consumer its
//!   three subordinate connections, as in Fig. 12) and complete static
//!   host routes in both directions.
//! * [`runner`] — one-call experiment execution: build the world, form
//!   the network, run the workload, collect [`mindgap_core::Records`]
//!   plus the run's observability data (a `mindgap_obs` metrics
//!   snapshot and span timeline; DESIGN.md §8).
//! * [`analysis`] — the §6.2 closed-form shading model
//!   (`ConnItvl / ClkDrift`) used to sanity-check measured loss
//!   counts.
//! * [`campaign`] — the canonical flattening of an experiment result
//!   into a `mindgap_campaign` job artifact (shared metric keys), so
//!   the figure binaries can shard their grids across a worker pool.
//! * [`stats`] — CDF/percentile helpers for the figures.
//!
//! The paper's two qualitative tables (radio comparison, open-source
//! IP-over-BLE implementations) measure nothing; EXPERIMENTS.md §T1/T2
//! reproduces them as text.
//!
//! ## Example
//!
//! A complete (tiny) experiment: a 3-node BLE line at the paper's
//! defaults, 10 s measured. The result carries aggregate records,
//! the per-layer metrics snapshot and the span timeline.
//!
//! ```
//! use mindgap_core::IntervalPolicy;
//! use mindgap_sim::Duration;
//! use mindgap_testbed::{run_ble, ExperimentSpec, Topology};
//!
//! let spec = ExperimentSpec::paper_default(
//!     Topology::line(3),
//!     IntervalPolicy::Static(Duration::from_millis(75)),
//!     42,
//! )
//! .with_duration(Duration::from_secs(10));
//!
//! let res = run_ble(&spec);
//! assert!(res.records.coap_pdr() > 0.9);
//! if mindgap_obs::enabled() {
//!     // Metrics land in campaign artifacts as `obs.*` keys …
//!     assert!(res.metrics.total("coap_req_tx") >= 1.0);
//!     // … and the timeline exports deterministic JSONL.
//!     assert!(res.timeline.to_jsonl().contains("\"kind\":\"conn_up\""));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod runner;
pub mod stats;
pub mod throughput;
pub mod topology;

pub use runner::{run_ble, run_ieee, ExperimentResult, ExperimentSpec};
pub use throughput::{measure_single_link, ThroughputResult};
pub use topology::{MeshTopology, Topology};
