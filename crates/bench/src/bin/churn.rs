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
//! Outputs `churn_summary.csv` (per-configuration aggregates) and
//! `churn_recovery_cdf.csv` (time-to-reconnect CDFs). Quick mode:
//! 40 nodes × 2 mobility × 2 churn levels, ~5 min of simulated time
//! per cell; `--full` grows the field to 60 nodes, triples the churn
//! axis, and runs every seed.

use mindgap_bench::{banner, write_csv, Opts};
use mindgap_campaign::GridBuilder;
use mindgap_chaos::FaultSchedule;
use mindgap_core::{IntervalPolicy, MobilityModel};
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, MeshTopology};

fn main() {
    let opts = Opts::parse();
    banner("Churn", "cold-start formation + healing under churn", &opts);
    let (n, side_m) = if opts.full { (60, 280.0) } else { (40, 220.0) };
    let duration = if opts.full {
        Duration::from_secs(600)
    } else {
        Duration::from_secs(180)
    };
    let warmup = Duration::from_secs(120);
    let churn_events: Vec<usize> = if opts.full {
        vec![0, 10, 20]
    } else {
        vec![0, 4]
    };
    let mobility = ["static", "walk"];
    // Churn starts 30 s into the measured window and stops 30 s before
    // its end so the last reboot's recovery stays observable.
    let churn_start = warmup + Duration::from_secs(30);
    let churn_window = duration - Duration::from_secs(60);

    let campaign = GridBuilder::new(&format!("churn-{}", opts.mode()), opts.seed)
        .axis("mobility", mobility.iter().map(|s| s.to_string()))
        .axis("churn", churn_events.iter().map(usize::to_string))
        .explicit_seeds(&opts.seeds())
        .build();
    let report = mindgap_campaign::run(&campaign, &opts.campaign(), |job| {
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
    println!(
        "\n{:>8} {:>6} {:>8} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "mobility", "churn", "conv s", "pdr", "faults", "healed", "ttr p50", "ttr p95", "losses"
    );
    for mob in &mobility {
        for &events in &churn_events {
            let config = format!("mobility={mob},churn={events}");
            let results = report.results_for_config(&config);
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
            let faults: f64 = results
                .iter()
                .map(|r| nan0(r.get(keys::CHAOS_FAULTS)))
                .sum();
            let detected: f64 = results
                .iter()
                .map(|r| nan0(r.get(keys::CHAOS_DETECTED)))
                .sum();
            let reconnected: f64 = results
                .iter()
                .map(|r| nan0(r.get(keys::CHAOS_RECONNECTED)))
                .sum();
            let ttr = mindgap_campaign::agg::concat_series(&report, &config, keys::CHAOS_TTR_S);
            let p = |v: &[f64], q| stats::quantile(v, q).unwrap_or(f64::NAN);
            let sum_key = |k: &str| -> f64 { results.iter().map(|r| nan0(r.get(k))).sum() };
            let attempts = sum_key("obs.ll_peer_attempts");
            let successes = sum_key("obs.ll_peer_successes");
            let losses = sum_key("obs.ll_peer_losses");
            let rotations = sum_key("obs.ll_peer_rotations");
            println!(
                "{mob:>8} {events:>6} {conv_mean:>8.1} {pdr:>7.3} {faults:>7} {reconnected:>7} \
                 {:>8.3}s {:>8.3}s {losses:>9}",
                p(&ttr, 0.5),
                p(&ttr, 0.95),
            );
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
    write_csv(
        &opts,
        "churn_summary.csv",
        "mobility,churn_events,nodes,convergence_mean_s,unconverged_runs,coap_pdr,faults,\
         detected,reconnected,ttr_p50_s,ttr_p95_s,peer_attempts,peer_successes,peer_losses,\
         peer_rotations",
        &summary_rows,
    );
    write_csv(
        &opts,
        "churn_recovery_cdf.csv",
        "mobility,churn_events,x_s,cdf",
        &cdf_rows,
    );

    println!("\nShape checks:");
    println!("  * convergence lands well inside the 120 s warmup: a cold field");
    println!("    discovers, connects, and grows the DODAG in tens of seconds;");
    println!("  * PDR dips with churn but stays useful — crashes are detected by");
    println!("    supervision timeout and the pool re-forms from the discovery cache;");
    println!("  * mobility adds peer losses and rotations (link-budget churn) on");
    println!("    top of the scripted crashes, without collapsing delivery.");
}

/// Treat a missing metric (NaN under `obs-off`) as zero.
fn nan0(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}
