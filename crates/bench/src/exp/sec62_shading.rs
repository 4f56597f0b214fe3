//! §6.2 — how likely is connection shading?
//!
//! Evaluates the paper's closed-form analysis (`ConnItvl / ClkDrift`)
//! for its reference cases, then validates the model against
//! simulated connection-loss counts: a long tree run with static
//! intervals should lose connections at roughly the predicted rate
//! (the paper estimates 14 links × 0.24/h = 3.4 events/h, i.e. 80.6
//! per 24 h, and observed 95 losses in 24 h).
//!
//! Interpretation, as in the paper: the order of magnitude of the
//! closed-form estimate matches the measurement; exact counts depend
//! on the unknown per-pair drifts and on how many losses one overlap
//! episode causes before the phases separate.

use mindgap_sim::Duration;
use mindgap_testbed::analysis;
use mindgap_testbed::run_ble;

use crate::{Opts, Report};

/// Run the §6.2 analysis and its simulation check.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let mut rows = Vec::new();
    for (itvl_ms, drift, paper) in [
        (7.5f64, 500.0f64, "240/h (every 15 s)"),
        (75.0, 5.0, "0.24/h (4.17 h)"),
        (100.0, 10.0, "—"),
        (75.0, 1.0, "—"),
    ] {
        let itvl = Duration::from_micros((itvl_ms * 1000.0) as u64);
        let t = analysis::time_to_overlap(itvl, drift);
        let per_h = analysis::shading_events_per_hour(itvl, drift);
        rep.scalar(
            format!("model.{itvl_ms}ms_{drift}ppm.events_per_h"),
            per_h,
            paper,
        );
        rows.push(format!(
            "{itvl_ms},{drift},{:.4},{per_h:.4}",
            t.as_secs_f64() / 3600.0
        ));
    }
    rep.table(
        "sec62_model.csv",
        "itvl_ms,drift_ppm,hours_to_overlap,events_per_hour",
        rows,
    );
    let network = analysis::network_shading_events_per_hour(Duration::from_millis(75), 5.0, 14);
    rep.scalar("model.network_events_per_24h", network * 24.0, "80.6");

    // Simulation validation.
    let hours = opts.pick(24, 4);
    let duration = Duration::from_secs(hours * 3600);
    // Apply the drift the paper measured (max relative 6 µs/s →
    // ±3 ppm per node gives pairs up to 6 ppm apart).
    let spec = super::tree_static(75, opts.seed)
        .with_duration(duration)
        .with_clock_ppm(3.0);
    let res = run_ble(&spec);
    // Expected: mean |Δppm| of two independent U(−3,3) draws = 2 ppm.
    let per_h = analysis::network_shading_events_per_hour(Duration::from_millis(75), 2.0, 14);
    rep.scalar("sim.hours", hours as f64, "24");
    rep.scalar("sim.conn_losses", res.conn_losses as f64, "95 in 24 h");
    rep.scalar("sim.expected_losses", per_h * hours as f64, "80.6 in 24 h");
    rep.scalar("sim.coap_pdr", res.records.coap_pdr(), "—");
    rep.scalar("sim.ll_pdr", res.records.ll_pdr(), "—");
    rep
}
