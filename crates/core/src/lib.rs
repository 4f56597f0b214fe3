//! # mindgap-core — the paper's contribution, assembled
//!
//! This crate is the analogue of the paper's software platform (§3):
//! it glues the BLE link layer (`mindgap-ble`), L2CAP channels
//! (`mindgap-l2cap`), the 6LoWPAN adaptation (`mindgap-sixlowpan`),
//! the IPv6 stack (`mindgap-net`) and CoAP (`mindgap-coap`) into full
//! nodes — the role `nimble_netif` plays in RIOT — and runs them in a
//! simulated testbed:
//!
//! * statconn — the static connection manager of §3, including the
//!   §6.3 mitigation: randomized, per-node-unique connection intervals
//!   with subordinate-side collision rejection, configured through
//!   [`EdgeConfig`] and [`IntervalPolicy`].
//! * the peer policy — the second connection manager, behind
//!   [`PeersWorldConfig`]: discovery-driven, RSSI-ranked connections
//!   for self-forming networks (the paper's §9 future work; DESIGN.md
//!   §12). Both managers answer link events with one action
//!   vocabulary, which the world executes in one place.
//! * [`World`] — the discrete-event testbed: BLE medium, per-node
//!   clocks with drift, the full packet path from a CoAP producer
//!   through 6LoWPAN/L2CAP/LL to the consumer and back, plus the
//!   measurement records every experiment consumes. Each node runs
//!   the same upper stack over exactly one link: the paper's L2CAP
//!   connections, the extended-advertising transport
//!   ([`TransportMode::Adv`]), or, built with [`World::new_ieee`], the
//!   IEEE 802.15.4 CSMA/CA MAC (`mindgap-dot15d4`), the paper's §5.3
//!   baseline, in the same event loop.
//!
//! The world is deterministic: a master seed fixes every random
//! draw (clock drift assignment, producer jitter, backoffs,
//! advertising delays, channel errors).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ieee;
mod peers;
mod records;
pub mod rpl;
mod statconn;
mod world;

pub use ieee::IeeeConfig;
pub use mindgap_adv::{AdvConfig, AdvCounters};
pub use peers::PeerCounters;
pub use records::{LinkStats, Records, RttSample};
pub use statconn::{EdgeConfig, EdgeRole, IntervalPolicy};
pub use world::{AppConfig, NodeConfig, PeersWorldConfig, TransportMode, World, WorldConfig};

/// CoAP resource path used by the paper's producer/consumer benchmark.
pub const BENCH_PATH: &str = "/bench";

/// The paper's CoAP request payload size (§4.3).
pub const COAP_PAYLOAD: usize = 39;
