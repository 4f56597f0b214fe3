//! # mindgap — multi-hop IPv6 over BLE, reproduced in Rust
//!
//! A full-system reproduction of *“Mind the Gap: Multi-hop IPv6 over
//! BLE in the IoT”* (Petersen, Schmidt, Wählisch — CoNEXT ’21) as a
//! deterministic discrete-event simulation: the complete IP-over-BLE
//! stack of the paper's software platform, the testbed experiments of
//! its evaluation, the *connection shading* pathology it discovers,
//! and the randomized-connection-interval mitigation it proposes.
//!
//! This facade crate re-exports every subsystem under one roof:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `mindgap-sim` | DES kernel: time, drifting clocks, event queue, RNG |
//! | [`phy`] | `mindgap-phy` | radio medium: channels, airtime, collisions, noise |
//! | [`ble`] | `mindgap-ble` | BLE link layer: connections, CSA#2, ARQ, adv/scan |
//! | [`l2cap`] | `mindgap-l2cap` | LE credit-based channels, mbuf pool |
//! | [`sixlowpan`] | `mindgap-sixlowpan` | IPHC, UDP NHC, fragmentation |
//! | [`net`] | `mindgap-net` | IPv6, UDP, ICMPv6, static routing |
//! | [`coap`] | `mindgap-coap` | CoAP codec and endpoints |
//! | [`dot15d4`] | `mindgap-dot15d4` | IEEE 802.15.4 CSMA/CA baseline |
//! | [`energy`] | `mindgap-energy` | §5.4 battery model |
//! | [`core`] | `mindgap-core` | node stacks, statconn, the testbed world (BLE or 802.15.4 link) |
//! | [`obs`] | `mindgap-obs` | layered metrics registry, span timeline, shading detection |
//! | [`testbed`] | `mindgap-testbed` | topologies, runner, analysis, stats |
//! | [`campaign`] | `mindgap-campaign` | parallel experiment campaigns, resumable artifacts |
//! | [`chaos`] | `mindgap-chaos` | scripted fault injection, recovery-latency analysis |
//!
//! ## Quickstart
//!
//! ```
//! use mindgap::core::IntervalPolicy;
//! use mindgap::sim::Duration;
//! use mindgap::testbed::{run_ble, ExperimentSpec, Topology};
//!
//! // One minute of the paper's tree topology at the default settings.
//! let spec = ExperimentSpec::paper_default(
//!     Topology::paper_tree(),
//!     IntervalPolicy::Static(Duration::from_millis(75)),
//!     42,
//! )
//! .with_duration(Duration::from_secs(60));
//! let result = run_ble(&spec);
//! assert!(result.records.coap_pdr() > 0.95);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/`
//! for the binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mindgap_ble as ble;
pub use mindgap_campaign as campaign;
pub use mindgap_chaos as chaos;
pub use mindgap_coap as coap;
pub use mindgap_core as core;
pub use mindgap_dot15d4 as dot15d4;
pub use mindgap_energy as energy;
pub use mindgap_l2cap as l2cap;
pub use mindgap_net as net;
pub use mindgap_obs as obs;
pub use mindgap_phy as phy;
pub use mindgap_sim as sim;
pub use mindgap_sixlowpan as sixlowpan;
pub use mindgap_testbed as testbed;
