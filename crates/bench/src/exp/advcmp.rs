//! Transport head-to-head — connection-oriented L2CAP vs
//! connection-less extended advertising.
//!
//! The paper's transport (§3) multiplexes IPv6 over L2CAP channels on
//! static connections; `mindgap-adv` carries the same 6LoWPAN frames
//! in extended-advertising PDUs with duty-cycled scanning instead.
//! This campaign runs both transports over the same topologies, seeds
//! and fault scenarios and compares end-to-end CoAP PDR, RTT and the
//! modelled node current:
//!
//! * **payload sweep** — advertising pays per-PDU train overhead three
//!   channels wide, the connection pays per-event overhead; the
//!   crossover depends on payload size;
//! * **hop sweep** (line vs tree) — every advertising hop re-arbitrates
//!   the shared 37/38/39 channels, so loss compounds per hop where the
//!   connection path's per-link retransmission does not;
//! * **faults** — a wideband jammer over data channels 10–15 degrades
//!   the connection path but never touches the three advertising
//!   channels (the testbed's channel 22 is already statically jammed
//!   and excluded from the connection map, mirroring §4.2); clock
//!   drift stresses the connection's anchor-point discipline but
//!   advertising has no shared timing state at all;
//! * **scan duty cycle** — the adv transport's receive cost is its
//!   always-on scanner. The `adv-d50` (and `--full` `adv-d25`)
//!   transport variants shrink the scan window to 50 %/25 % of the
//!   scan interval: mean current drops roughly with the duty cycle
//!   while PDR degrades per hop (a train that lands outside the
//!   window is simply never heard). The CSV's `scan_duty_pct` column
//!   carries the swept value (100 = continuous scanning; conn rows
//!   use 0 — the connection transport has no scanner to throttle).
//!
//! Shape checks: conn delivers ≈100 % fault-free; adv trades PDR for
//! statelessness and loses more per hop (line worse than tree at equal
//! payload); the data-channel jammer degrades only the conn transport,
//! as the advertising channels 37–39 are untouched; drift perturbs
//! conn anchor timing while adv is timing-free and flat; adv RTT is
//! dominated by the advertising interval per hop, conn RTT by the
//! connection interval; adv node current is dominated by the scan
//! duty cycle (mean µA well above conn), the price of connection-less
//! reception; throttling the scanner (adv-d50/adv-d25) trades that
//! current roughly linearly for per-hop PDR, because trains landing
//! outside the scan window are never heard.
//!
//! Outputs `advcmp.csv` (per-configuration aggregates) and
//! `advcmp_hops.csv` (CoAP PDR grouped by producer hop count). Quick
//! mode: 3 transports × 2 topologies × 2 payloads × 3 faults × 3 min;
//! `--full` widens the payload and duty axes and runs 5 seeds ×
//! 15 min. The grid shards across the campaign pool (`--jobs N`) and
//! its CSVs are byte-identical for any worker count.

use std::collections::BTreeMap;

use mindgap_adv::SCAN_INTERVAL;
use mindgap_campaign::concat_series;
use mindgap_chaos::FaultSchedule;
use mindgap_core::{AdvConfig, IntervalPolicy, TransportMode};
use mindgap_energy::EnergyModel;
use mindgap_obs::{MetricsSnapshot, SnapValue};
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::stats;
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

use crate::{Opts, Report};

/// Per-node values of a counter metric; empty under `obs-off`.
fn per_node(snap: &MetricsSnapshot, name: &str) -> Vec<u64> {
    match snap.get(name).map(|e| &e.value) {
        Some(SnapValue::Counter { per_node }) => per_node.clone(),
        _ => Vec::new(),
    }
}

/// Modelled average current of every node (µA) from the run's metric
/// snapshot: conn-transport nodes pay per-connection-event charges
/// plus data airtime, adv-transport nodes pay per-train overhead plus
/// TX airtime and the scan duty cycle. Empty under `obs-off`.
fn node_currents(snap: &MetricsSnapshot, adv: bool, elapsed_s: f64) -> Vec<f64> {
    let m = EnergyModel::default();
    let tx_ns = per_node(snap, "phy_tx_airtime_ns");
    let listen_ns = per_node(snap, "phy_listen_ns");
    if adv {
        let trains = per_node(snap, "ll_adv_trains");
        (0..trains.len())
            .map(|n| m.adv_node_current_ua(elapsed_s, trains[n], tx_ns[n], listen_ns[n]))
            .collect()
    } else {
        let coord = per_node(snap, "ll_conn_events_coord");
        let sub = per_node(snap, "ll_conn_events_sub");
        (0..coord.len())
            .map(|n| {
                // Keep-alive airtime allowance per event ≈160 µs is
                // inside the per-event charge (as in sec54_energy);
                // scanning/idle listening is charged at a 12 % RX duty
                // derating, matching the §5.4 cross-check.
                let events = coord[n] + sub[n];
                let extra_us = (tx_ns[n] as f64 / 1_000.0 + listen_ns[n] as f64 / 1_000.0 * 0.12
                    - events as f64 * 160.0)
                    .max(0.0);
                m.node_current_ua(elapsed_s, coord[n], sub[n], 0, extra_us)
            })
            .collect()
    }
}

fn topology_of(name: &str) -> Topology {
    // A 6-node line keeps the adv transport inside its train-rate
    // budget (5 producers through one bottleneck relay) while still
    // stretching hop counts to 5; the tree is the paper's 15-node one.
    if name == "line" {
        Topology::line(6)
    } else {
        Topology::paper_tree()
    }
}

/// Scan duty cycle (percent) encoded in the transport axis value:
/// `adv` scans continuously, `adv-dNN` keeps the scanner on for NN %
/// of each scan interval, `conn` has no scanner at all.
fn scan_duty_pct(transport: &str) -> u64 {
    match transport {
        "conn" => 0,
        "adv" => 100,
        other => other
            .strip_prefix("adv-d")
            .and_then(|d| d.parse().ok())
            .expect("transport axis value"),
    }
}

fn fault_schedule(fault: &str, duration: Duration) -> Option<FaultSchedule> {
    // Fault times are absolute simulated time (30 s warmup ahead of
    // the measured window); each fault covers the middle of the run.
    let start = Duration::from_secs(60);
    let lasts = Duration::from_nanos(duration.nanos() / 2);
    match fault {
        "none" => None,
        // Wideband interferer over data channels 10–15 — hits the
        // connection hopping sequence (channel 22 alone would be
        // invisible: the default map already excludes it, §4.2), never
        // the advertising channels.
        "jam" => Some((10u8..=15).fold(FaultSchedule::new(), |f, ch| {
            f.jammer_burst(start, ch, 0.9, lasts)
        })),
        // The first relay drifts 40 ppm away from its peers.
        "drift" => Some(FaultSchedule::new().clock_drift(start, 1, 40.0)),
        other => panic!("unknown fault axis value {other}"),
    }
}

/// Run the transport head-to-head.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let duration = Duration::from_secs(opts.pick(900, 180));
    let payloads: Vec<usize> = opts.pick(vec![16, 64, 128, 192], vec![16, 96]);
    let transports: Vec<&str> = opts.pick(
        vec!["conn", "adv", "adv-d50", "adv-d25"],
        vec!["conn", "adv", "adv-d50"],
    );
    let topos = ["line", "tree"];
    let faults = ["none", "jam", "drift"];
    let elapsed_s = 30.0 + duration.as_secs_f64() + 10.0; // warmup + measured + drain

    let campaign = opts
        .grid("advcmp")
        .axis("transport", transports.iter().copied())
        .axis("topo", topos)
        .axis("payload", payloads.iter().map(usize::to_string))
        .axis("fault", faults)
        .explicit_seeds(&opts.seeds())
        .build();
    let report = rep.campaign(opts, &campaign, |job| {
        let transport = job.params["transport"].as_str();
        let adv = transport.starts_with("adv");
        let topo = topology_of(&job.params["topo"]);
        let payload: usize = job.params["payload"].parse().expect("payload axis");
        let mut spec = ExperimentSpec::paper_default(
            topo.clone(),
            IntervalPolicy::Static(Duration::from_millis(75)),
            job.seed,
        )
        .with_duration(duration)
        .with_payload(payload);
        if adv {
            let duty = scan_duty_pct(transport);
            let ac = AdvConfig {
                scan_window: Duration::from_nanos(SCAN_INTERVAL.nanos() * duty / 100),
            };
            spec = spec.with_transport(TransportMode::Adv(ac));
        }
        if let Some(f) = fault_schedule(&job.params["fault"], duration) {
            spec = spec.with_faults(f);
        }
        let res = run_ble(&spec);
        let currents = node_currents(&res.metrics, adv, elapsed_s);
        let mut jr = to_job_result(&res, &[]);
        jr.metric("energy_mean_ua", stats::mean(&currents).unwrap_or(f64::NAN))
            .metric(
                "energy_max_ua",
                currents.iter().cloned().fold(f64::NAN, f64::max),
            );
        // Per-producer delivery, for the hop-count breakdown.
        for p in topo.producers() {
            let sent: u64 = res
                .records
                .coap_sent
                .get(&p)
                .map(|v| v.iter().sum())
                .unwrap_or(0);
            let done: u64 = res
                .records
                .coap_done
                .get(&p)
                .map(|v| v.iter().sum())
                .unwrap_or(0);
            jr.metric(&format!("sent_node_{}", p.0), sent as f64)
                .metric(&format!("done_node_{}", p.0), done as f64);
        }
        jr
    });

    let mut rows = Vec::new();
    let mut hop_rows = Vec::new();
    for transport in &transports {
        for topo_name in &topos {
            let topo = topology_of(topo_name);
            for &payload in &payloads {
                for fault in &faults {
                    let config = format!(
                        "transport={transport},topo={topo_name},payload={payload},fault={fault}"
                    );
                    let results = report.results_for_config(&config);
                    if results.is_empty() {
                        continue;
                    }
                    let n = results.len() as f64;
                    let coap: f64 = results.iter().map(|r| r.get(keys::COAP_PDR)).sum::<f64>() / n;
                    let ll: f64 = results.iter().map(|r| r.get(keys::LL_PDR)).sum::<f64>() / n;
                    let e_mean: f64 =
                        results.iter().map(|r| r.get("energy_mean_ua")).sum::<f64>() / n;
                    let e_max: f64 =
                        results.iter().map(|r| r.get("energy_max_ua")).sum::<f64>() / n;
                    let rtts = concat_series(&report, &config, keys::RTT_S);
                    let p50 = stats::quantile(&rtts, 0.5).unwrap_or(f64::NAN);
                    let p99 = stats::quantile(&rtts, 0.99).unwrap_or(f64::NAN);
                    let duty = scan_duty_pct(transport);
                    rows.push(format!(
                        "{transport},{duty},{topo_name},{payload},{fault},{coap:.5},{ll:.5},{p50:.4},{p99:.4},{e_mean:.2},{e_max:.2}"
                    ));

                    // Group producers by hop count to the consumer.
                    let mut by_hops: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
                    for p in topo.producers() {
                        let h = topo.hops(p.index());
                        let sent: f64 = results
                            .iter()
                            .map(|r| r.get(&format!("sent_node_{}", p.0)))
                            .sum();
                        let done: f64 = results
                            .iter()
                            .map(|r| r.get(&format!("done_node_{}", p.0)))
                            .sum();
                        let e = by_hops.entry(h).or_insert((0, 0));
                        e.0 += sent as u64;
                        e.1 += done as u64;
                    }
                    for (h, (sent, done)) in &by_hops {
                        let pdr = if *sent == 0 {
                            1.0
                        } else {
                            *done as f64 / *sent as f64
                        };
                        hop_rows.push(format!(
                            "{transport},{topo_name},{payload},{fault},{h},{sent},{done},{pdr:.5}"
                        ));
                    }
                }
            }
        }
    }
    rep.table(
        "advcmp.csv",
        "transport,scan_duty_pct,topo,payload,fault,coap_pdr,ll_pdr,rtt_p50,rtt_p99,energy_mean_ua,energy_max_ua",
        rows,
    );
    rep.table(
        "advcmp_hops.csv",
        "transport,topo,payload,fault,hops,sent,done,coap_pdr",
        hop_rows,
    );

    rep
}
