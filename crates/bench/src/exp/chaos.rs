//! Chaos recovery study — how fast does the IP-over-BLE stack heal?
//!
//! Injects repeated relay-node crashes (full state loss, 5 s power
//! cycle) into the paper's line and tree topologies and measures the
//! three recovery latencies defined in DESIGN.md §9:
//!
//! * **time-to-detect** — the peer's supervision timeout, BLE's only
//!   failure detector, so it is lower-bounded by the supervision
//!   timeout itself;
//! * **time-to-reconnect** — statconn re-forming the edge once the
//!   loss is known (advertise/scan latency + connection setup);
//! * packets lost to mbuf exhaustion inside each fault window.
//!
//! The fault grid sweeps the supervision timeout against the
//! connection interval: the paper's §5.1 observation that "the
//! connection is the failure domain" becomes quantitative — detection
//! scales with the supervision timeout while reconnection cost scales
//! with the connection interval.
//!
//! Shape checks: time-to-detect p50 sits just below the supervision
//! timeout (0.48 s at 500 ms, 1.98 s at 2 s — supervision counts from
//! the last frame heard); time-to-reconnect ≈ scripted downtime (5 s)
//! plus statconn re-formation; every injected fault is detected and
//! reconnected.
//!
//! Outputs `chaos_recovery.csv` (per-configuration aggregates) and
//! `chaos_recovery_cdf.csv` (detect/reconnect latency CDFs). Quick
//! mode: 2 topologies × 2 supervision timeouts × 2 connection
//! intervals × 4 crashes, minutes of wall clock; `--full` widens the
//! grid and runs 5 seeds × ~29 crashes per cell.

use mindgap_campaign::concat_series;
use mindgap_chaos::FaultSchedule;
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

use crate::{Opts, Report};

/// Middle relay whose crash severs real traffic: node 7 halves the
/// line; node 1 carries the tree's deepest subtree (4, 5, 10, 11).
fn victim(topo: &str) -> u16 {
    if topo == "line" {
        7
    } else {
        1
    }
}

/// Crash the victim every 60 s (5 s down), from after network
/// formation to one slot before the end of the measured window.
fn crash_schedule(victim: u16, end_s: u64) -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    let mut t = 60;
    while t + 60 <= end_s {
        faults = faults.node_crash(Duration::from_secs(t), victim, Duration::from_secs(5));
        t += 60;
    }
    faults
}

/// Run the crash-recovery study.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let ms = Duration::from_millis;
    let duration = Duration::from_secs(opts.pick(1800, 270));
    let sup_timeouts_ms: Vec<u64> = opts.pick(vec![500, 1_000, 2_000, 5_000], vec![500, 2_000]);
    let conn_intervals_ms: Vec<u64> = vec![25, 75];
    let topos = ["line", "tree"];
    // Warmup (30 s) + measured window, in whole seconds; fault times
    // are absolute simulated time.
    let end_s = 30 + duration.nanos() / 1_000_000_000;

    let campaign = opts
        .grid("chaos")
        .axis("topo", topos)
        .axis("sup", sup_timeouts_ms.iter().map(u64::to_string))
        .axis("conn", conn_intervals_ms.iter().map(u64::to_string))
        .explicit_seeds(&opts.seeds())
        .build();
    let report = rep.campaign(opts, &campaign, |job| {
        let topo_name = job.params["topo"].as_str();
        let sup: u64 = job.params["sup"].parse().expect("sup axis");
        let conn: u64 = job.params["conn"].parse().expect("conn axis");
        let topo = if topo_name == "line" {
            Topology::paper_line()
        } else {
            Topology::paper_tree()
        };
        let v = victim(topo_name);
        let spec = ExperimentSpec::paper_default(topo, IntervalPolicy::Static(ms(conn)), job.seed)
            .with_duration(duration)
            .with_supervision_timeout(ms(sup))
            .with_faults(crash_schedule(v, end_s));
        to_job_result(&run_ble(&spec), &[])
    });

    let mut summary_rows = Vec::new();
    let mut cdf_rows = Vec::new();
    let mut total_faults = 0u64;
    let mut total_detected = 0u64;
    let mut total_reconnected = 0u64;
    for topo in &topos {
        for &sup in &sup_timeouts_ms {
            for &conn in &conn_intervals_ms {
                let config = format!("topo={topo},sup={sup},conn={conn}");
                let results = report.results_for_config(&config);
                if results.is_empty() {
                    continue;
                }
                let sum = |key| results.iter().map(|r| r.get(key)).sum::<f64>();
                let faults = sum(keys::CHAOS_FAULTS);
                let detected = sum(keys::CHAOS_DETECTED);
                let reconnected = sum(keys::CHAOS_RECONNECTED);
                let ttd = concat_series(&report, &config, keys::CHAOS_TTD_S);
                let ttr = concat_series(&report, &config, keys::CHAOS_TTR_S);
                let lost: f64 = concat_series(&report, &config, keys::CHAOS_PKTS_LOST)
                    .iter()
                    .sum();
                total_faults += faults as u64;
                total_detected += detected as u64;
                total_reconnected += reconnected as u64;
                let p = |v: &[f64], q| stats::quantile(v, q).unwrap_or(f64::NAN);
                summary_rows.push(format!(
                    "{topo},{sup},{conn},{faults},{detected},{reconnected},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{lost}",
                    stats::mean(&ttd).unwrap_or(f64::NAN),
                    p(&ttd, 0.5),
                    p(&ttd, 0.95),
                    stats::mean(&ttr).unwrap_or(f64::NAN),
                    p(&ttr, 0.5),
                    p(&ttr, 0.95),
                ));
                // Latency CDFs on a shared per-config grid.
                for (metric, vals) in [("ttd", &ttd), ("ttr", &ttr)] {
                    if vals.is_empty() {
                        continue;
                    }
                    let hi = vals.iter().cloned().fold(f64::MIN, f64::max) * 1.02;
                    let grid = stats::linspace(0.0, hi, 33);
                    for (x, c) in grid.iter().zip(stats::cdf_at(vals, &grid)) {
                        cdf_rows.push(format!("{metric},{topo},{sup},{conn},{x:.4},{c:.5}"));
                    }
                }
            }
        }
    }
    rep.table(
        "chaos_recovery.csv",
        "topology,sup_ms,conn_ms,faults,detected,reconnected,\
         ttd_mean_s,ttd_p50_s,ttd_p95_s,ttr_mean_s,ttr_p50_s,ttr_p95_s,pkts_lost",
        summary_rows,
    );
    rep.table(
        "chaos_recovery_cdf.csv",
        "metric,topology,sup_ms,conn_ms,x_s,cdf",
        cdf_rows,
    );

    let every = "every fault detected and reconnected";
    rep.scalar("faults", total_faults as f64, "—");
    rep.scalar("detected", total_detected as f64, every);
    rep.scalar("reconnected", total_reconnected as f64, every);
    rep.notes.push(
        if total_faults > 0 && total_detected == total_faults && total_reconnected == total_faults {
            "all faults detected & reconnected".to_string()
        } else {
            format!(
                "WARNING: {} faults missing detection, {} missing reconnection",
                total_faults - total_detected,
                total_faults - total_reconnected
            )
        },
    );
    rep
}
