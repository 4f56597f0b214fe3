//! §5.4 — energy efficiency.
//!
//! Reproduces every derived number of the paper's energy section from
//! the calibrated model constants (measured charges are data — see
//! `mindgap-energy`: 2.3 µC per coordinator event, 2.6 µC per
//! subordinate event, 15 µA idle), and cross-checks the forwarder
//! scenario against link-layer counters from an actual simulated run.
//!
//! The paper's conclusion: battery-powered IP-over-BLE routers are
//! feasible — months on a coin cell, years on an 18650 — and an IP
//! node costs beacon-class energy while providing full networking.

use mindgap_core::{AppConfig, World, WorldConfig};
use mindgap_energy::{ConnRole, EnergyModel};
use mindgap_sim::{Duration, Instant, NodeId};

use crate::{Opts, Report};

/// Run the §5.4 energy model and its cross-check.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let m = EnergyModel::default();
    let mut rows = Vec::new();
    let mut row = |key: &str, name: &str, model: f64, paper: f64, unit: &str| {
        rep.scalar(key, model, &format!("{paper} {unit}"));
        rows.push(format!("{name},{model:.2},{paper:.2},{unit}"));
    };

    row(
        "idle_75ms.coordinator_ua",
        "idle connection @75ms, coordinator",
        m.idle_connection_ua(75.0, ConnRole::Coordinator),
        30.7,
        "uA",
    );
    row(
        "idle_75ms.subordinate_ua",
        "idle connection @75ms, subordinate",
        m.idle_connection_ua(75.0, ConnRole::Subordinate),
        34.7,
        "uA",
    );
    let forwarder = m.forwarder_extra_ua(0, 3, 75.0, 4.0, 1_000.0);
    row(
        "forwarder_ua",
        "forwarder, 3 subordinate conns, moderate load",
        forwarder,
        123.0,
        "uA",
    );
    let total = 15.0 + forwarder;
    row(
        "forwarder.coin_cell_days",
        "  → 230 mAh coin cell lifetime",
        m.battery_days(230.0, total),
        69.0,
        "days",
    );
    row(
        "forwarder.18650_years",
        "  → 2500 mAh 18650 lifetime",
        m.battery_days(2500.0, total) / 365.0,
        2.05,
        "years",
    );
    row(
        "beacon_ua",
        "BLE beacon, 31 B @1 s advertising",
        m.beacon_ua(1_000.0, 31),
        12.0,
        "uA",
    );
    row(
        "ip_node_ua",
        "IP-over-BLE node, 1 conn, 1 CoAP/s (250 ms itvl)",
        m.ip_node_ua(250.0, 1.0, 560.0),
        16.0,
        "uA",
    );

    // Cross-check with simulated counters: tree run, consumer node has
    // three subordinate connections (moderate load scenario).
    let duration = Duration::from_secs(opts.pick(3600, 600));
    let spec = super::tree_static(75, opts.seed).with_duration(duration);

    // Run a world directly to read counters (the runner consumes it).
    let app = AppConfig {
        producer_interval: spec.producer_interval,
        producer_jitter: spec.producer_jitter,
        warmup: spec.warmup,
        ..AppConfig::paper_default(spec.topology.producers(), spec.topology.consumer)
    };
    let cfg = WorldConfig::paper_default(spec.seed, spec.policy);
    let mut world = World::new(cfg, spec.topology.node_configs(), app);
    world.run_until(Instant::ZERO + spec.warmup + duration);
    let elapsed = duration.as_secs_f64() + spec.warmup.as_secs_f64();
    for node in [0u16, 1, 14] {
        let c = world.ll_counters(NodeId(node));
        // Airtime beyond the keep-alive allowance: two empty PDUs per
        // event ≈ 160 µs of the budget is inside the per-event charge.
        let events = c.coord_events + c.sub_events;
        let allowance_us = events as f64 * 160.0;
        let extra_us = ((c.tx_ns as f64 / 1_000.0) + (c.listen_ns as f64 / 1_000.0) * 0.12
            - allowance_us)
            .max(0.0);
        let ua = m.node_current_ua(
            elapsed,
            c.coord_events,
            c.sub_events,
            c.adv_trains,
            extra_us,
        );
        let role = match node {
            0 => "consumer (3 subordinate conns)",
            1 => "forwarder (3 conns)",
            _ => "leaf producer (1 conn)",
        };
        rep.scalar(format!("sim.node{node}_ua"), ua, "—");
        let days = m.battery_days(230.0, ua);
        rep.scalar(format!("sim.node{node}.coin_cell_days"), days, "—");
        rows.push(format!("sim node {node} {role},{ua:.1},,uA"));
    }
    rep.table("sec54_energy.csv", "quantity,model,paper,unit", rows);
    rep
}
