//! Ablation (§6.3 design space) — mitigating shading with the LL
//! connection-update procedure instead of randomize-at-open.
//!
//! The paper argues updates are awkward (Bluetooth 4.2 updates are
//! non-negotiated; controllers hide the response logic behind HCI) and
//! proposes randomizing at connection setup instead. Here we *measure*
//! the update alternative: same tree, static 75 ms everywhere, drift
//! ±6 ppm, but the host periodically re-randomizes every coordinated
//! connection's interval via LL_CONNECTION_UPDATE_IND.
//!
//! Expected: periodic updates break the persistent phase alignment and
//! eliminate most losses, approaching the randomize-at-open results —
//! at the cost of update traffic and transient widened windows. It is
//! the same cure (distinct, moving phases) delivered late; the paper
//! prefers randomize-at-open because it needs no extra procedures and
//! cannot ping-pong (§6.3 design-space discussion).

use mindgap_core::{AppConfig, IntervalPolicy, World, WorldConfig};
use mindgap_sim::{Duration, Instant};
use mindgap_testbed::Topology;

use crate::{Opts, Report};

/// Run the connection-update ablation.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let hours = opts.pick(12, 3);
    rep.scalar("hours", hours as f64, "—");
    let mut rows = Vec::new();
    for (key, label, update_period) in [
        ("none", "no mitigation (static 75 ms)", None),
        (
            "every10min",
            "periodic updates every 10 min → [65:85] ms",
            Some(Duration::from_secs(600)),
        ),
        (
            "every60min",
            "periodic updates every 60 min → [65:85] ms",
            Some(Duration::from_secs(3600)),
        ),
    ] {
        let topo = Topology::paper_tree();
        let app = AppConfig {
            warmup: Duration::from_secs(30),
            ..AppConfig::paper_default(topo.producers(), topo.consumer)
        };
        let mut cfg = WorldConfig::paper_default(
            opts.seed,
            IntervalPolicy::Static(Duration::from_millis(75)),
        );
        cfg.clock_ppm_range = 6.0;
        let mut world = World::new(cfg, topo.node_configs(), app);
        let end = Instant::from_secs(hours * 3600);
        let mut updates = 0usize;
        if let Some(period) = update_period {
            let mut t = Instant::ZERO + period;
            while t <= end {
                world.run_until(t);
                updates += world
                    .rerandomize_intervals(Duration::from_millis(65), Duration::from_millis(85));
                t += period;
            }
        }
        world.run_until(end);
        let r = world.records();
        let losses = r.conn_losses.len();
        rep.scalar(
            format!("{key}.conn_losses"),
            losses as f64,
            "— (not measured)",
        );
        rep.scalar(format!("{key}.coap_pdr"), r.coap_pdr(), "—");
        rep.scalar(format!("{key}.ll_pdr"), r.ll_pdr(), "—");
        rep.scalar(format!("{key}.updates"), updates as f64, "—");
        rows.push(format!(
            "{label},{losses},{:.5},{:.5},{updates}",
            r.coap_pdr(),
            r.ll_pdr()
        ));
    }
    rep.table(
        "ablation_update.csv",
        "config,conn_losses,coap_pdr,ll_pdr,updates",
        rows,
    );
    rep
}
