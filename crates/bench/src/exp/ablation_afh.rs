//! Ablation (related work, Spörk et al.) — adaptive frequency hopping
//! against the testbed's jammed channel.
//!
//! The paper *statically* excludes the permanently jammed channel 22
//! from every channel map (§4.2) and cites AFH work as a promising
//! complement. This ablation quantifies the choice on the tree
//! topology (static 75 ms, producer 1 s ±0.5 s):
//!
//! 1. channel 22 excluded statically (the paper's setup),
//! 2. channel 22 included, no AFH — every 37th event lands on the
//!    jammed channel and is lost,
//! 3. channel 22 included, AFH on — coordinators detect the failure
//!    concentration and retire the channel via LL_CHANNEL_MAP_IND.
//!
//! Reading: including the jammed channel costs ≈1/37 of events as
//! link-layer retransmissions; AFH recovers most of it at runtime,
//! and static exclusion (with site knowledge) remains the cleanest.

use mindgap_ble::channels::ChannelMap;
use mindgap_core::{AppConfig, IntervalPolicy, World, WorldConfig};
use mindgap_sim::{Duration, Instant, NodeId};
use mindgap_testbed::Topology;

use crate::{Opts, Report};

/// Run the AFH ablation.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let minutes = opts.pick(60, 20);
    let variants = [
        (
            "static",
            "channel 22 excluded statically (paper)",
            ChannelMap::all_except_jammed(),
            false,
        ),
        (
            "no_afh",
            "channel 22 in the map, no AFH",
            ChannelMap::ALL,
            false,
        ),
        (
            "afh",
            "channel 22 in the map, AFH enabled",
            ChannelMap::ALL,
            true,
        ),
    ];

    let mut rows = Vec::new();
    for (key, label, map, afh) in variants {
        let topo = Topology::paper_tree();
        let app = AppConfig {
            warmup: Duration::from_secs(30),
            ..AppConfig::paper_default(topo.producers(), topo.consumer)
        };
        let mut cfg = WorldConfig::paper_default(
            opts.seed,
            IntervalPolicy::Static(Duration::from_millis(75)),
        );
        cfg.conn_channel_map = map;
        cfg.ll.afh_enabled = afh;
        let mut world = World::new(cfg, topo.node_configs(), app);
        world.run_until(Instant::from_secs(minutes * 60));
        let r = world.records();
        // How many links have retired channel 22 by the end?
        let mut retired = 0usize;
        let mut total = 0usize;
        for i in 0..topo.len() as u16 {
            for (c, _, _, _) in world.conn_stats_of(NodeId(i)) {
                total += 1;
                if world
                    .conn_channel_map(NodeId(i), c)
                    .map(|m| !m.contains(22))
                    .unwrap_or(false)
                {
                    retired += 1;
                }
            }
        }
        rep.scalar(format!("{key}.ll_pdr"), r.ll_pdr(), "— (not measured)");
        rep.scalar(format!("{key}.coap_pdr"), r.coap_pdr(), "—");
        rep.scalar(format!("{key}.ch22_retired"), retired as f64, "—");
        rep.scalar(format!("{key}.conn_ends"), total as f64, "—");
        rows.push(format!(
            "{label},{:.5},{:.5},{retired},{total}",
            r.ll_pdr(),
            r.coap_pdr()
        ));
    }
    rep.table(
        "ablation_afh.csv",
        "config,ll_pdr,coap_pdr,ch22_retired,conn_ends",
        rows,
    );
    rep
}
