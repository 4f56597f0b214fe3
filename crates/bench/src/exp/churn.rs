//! Churn study — do self-forming networks converge, and do they heal?
//!
//! The statconn experiments (fig07…fig15, chaos) all start from a
//! *prescribed* connection graph. This campaign drops that crutch: a
//! random-geometric field of nodes boots **cold** under the dynamic
//! peer manager (`mindgap-peers`, DESIGN.md §12) and must discover
//! neighbours, form a connection pool, and converge to a connected
//! RPL DODAG on its own — then keep doing so while scripted churn
//! (crash/reboot cycles drawn from `FaultSchedule::churn`) and node
//! mobility reshape the radio graph underneath it.
//!
//! The grid sweeps churn intensity against mobility:
//!
//! * **churn** — scripted crash events spread over the measured
//!   window (0 = formation only);
//! * **mobility** — `static` (nodes never move) vs `walk` (random
//!   walk, root pinned).
//!
//! Per cell the campaign reports the cold-start **convergence time**
//! (first instant every non-root node holds an RPL parent), CoAP PDR
//! over the measured window, fault detection/reconnection counts with
//! time-to-reconnect quantiles, and the peer-manager's own counters
//! (attempts, successes, losses, rotations).
//!
//! Shape checks: convergence lands well inside the 120 s warmup (a
//! cold field discovers, connects and grows the DODAG in tens of
//! seconds); PDR dips with churn but stays useful, because crashes are
//! detected by supervision timeout and the pool re-forms from the
//! discovery cache; mobility adds peer losses and rotations
//! (link-budget churn) on top of the scripted crashes, without
//! collapsing delivery.
//!
//! Outputs `churn_summary.csv` (per-configuration aggregates) and
//! `churn_recovery_cdf.csv` (time-to-reconnect CDFs). Quick mode:
//! 40 nodes × 2 mobility × 2 churn levels, ~5 min of simulated time
//! per cell; `--full` grows the field to 60 nodes, triples the churn
//! axis, and runs every seed.

use mindgap_campaign::concat_series;
use mindgap_chaos::FaultSchedule;
use mindgap_core::{IntervalPolicy, MobilityModel};
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, MeshTopology};

use crate::{Opts, Report};

/// Run the churn study.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let (n, side_m) = opts.pick((60, 280.0), (40, 220.0));
    let duration = Duration::from_secs(opts.pick(600, 180));
    let warmup = Duration::from_secs(120);
    let churn_events: Vec<usize> = opts.pick(vec![0, 10, 20], vec![0, 4]);
    let mobility = ["static", "walk"];
    // Churn starts 30 s into the measured window and stops 30 s before
    // its end so the last reboot's recovery stays observable.
    let churn_start = warmup + Duration::from_secs(30);
    let churn_window = duration - Duration::from_secs(60);

    let campaign = opts
        .grid("churn")
        .axis("mobility", mobility)
        .axis("churn", churn_events.iter().map(usize::to_string))
        .explicit_seeds(&opts.seeds())
        .build();
    let report = rep.campaign(opts, &campaign, |job| {
        let mob = job.params["mobility"].as_str();
        let events: usize = job.params["churn"].parse().expect("churn axis");
        let mesh = MeshTopology::random_geometric(n, side_m, job.seed);
        let victims: Vec<u16> = (1..n as u16).collect();
        let mut spec = ExperimentSpec::mesh_default(
            mesh,
            IntervalPolicy::Randomized {
                lo: Duration::from_millis(50),
                hi: Duration::from_millis(200),
            },
            job.seed,
        )
        .with_producer_interval(Duration::from_secs(10))
        .with_duration(duration);
        spec = if mob == "walk" {
            spec.with_peers_mobility(MobilityModel::walk_default())
        } else {
            spec.with_peers()
        };
        if events > 0 {
            spec = spec.with_faults(FaultSchedule::new().churn(
                job.seed,
                &victims,
                churn_start,
                churn_window,
                events,
                Duration::from_secs(10),
            ));
        }
        to_job_result(&run_ble(&spec), &[])
    });

    let mut summary_rows = Vec::new();
    let mut cdf_rows = Vec::new();
    for mob in &mobility {
        for &events in &churn_events {
            let config = format!("mobility={mob},churn={events}");
            let results = report.results_for_config(&config);
            if results.is_empty() {
                continue;
            }
            // Convergence: mean over the seeds that converged; count
            // the ones that never did (metric absent → NaN).
            let convs: Vec<f64> = results
                .iter()
                .map(|r| r.get(keys::CONVERGENCE_S))
                .filter(|v| !v.is_nan())
                .collect();
            let unconverged = results.len() - convs.len();
            let conv_mean = stats::mean(&convs).unwrap_or(f64::NAN);
            let pdr = stats::mean(
                &results
                    .iter()
                    .map(|r| r.get(keys::COAP_PDR))
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(f64::NAN);
            let sum_key = |k: &str| -> f64 { results.iter().map(|r| nan0(r.get(k))).sum() };
            let faults = sum_key(keys::CHAOS_FAULTS);
            let detected = sum_key(keys::CHAOS_DETECTED);
            let reconnected = sum_key(keys::CHAOS_RECONNECTED);
            let ttr = concat_series(&report, &config, keys::CHAOS_TTR_S);
            let p = |v: &[f64], q| stats::quantile(v, q).unwrap_or(f64::NAN);
            let attempts = sum_key("obs.ll_peer_attempts");
            let successes = sum_key("obs.ll_peer_successes");
            let losses = sum_key("obs.ll_peer_losses");
            let rotations = sum_key("obs.ll_peer_rotations");
            summary_rows.push(format!(
                "{mob},{events},{n},{conv_mean:.3},{unconverged},{pdr:.4},{faults},{detected},\
                 {reconnected},{:.4},{:.4},{attempts},{successes},{losses},{rotations}",
                p(&ttr, 0.5),
                p(&ttr, 0.95),
            ));
            if !ttr.is_empty() {
                let hi = ttr.iter().cloned().fold(f64::MIN, f64::max) * 1.02;
                let grid = stats::linspace(0.0, hi, 33);
                for (x, c) in grid.iter().zip(stats::cdf_at(&ttr, &grid)) {
                    cdf_rows.push(format!("{mob},{events},{x:.4},{c:.5}"));
                }
            }
        }
    }
    rep.table(
        "churn_summary.csv",
        "mobility,churn_events,nodes,convergence_mean_s,unconverged_runs,coap_pdr,faults,\
         detected,reconnected,ttr_p50_s,ttr_p95_s,peer_attempts,peer_successes,peer_losses,\
         peer_rotations",
        summary_rows,
    );
    rep.table(
        "churn_recovery_cdf.csv",
        "mobility,churn_events,x_s,cdf",
        cdf_rows,
    );

    rep
}

/// Treat a missing metric (NaN under `obs-off`) as zero.
fn nan0(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}
