//! # mindgap-ble — the BLE link layer
//!
//! A faithful, timing-accurate model of the Bluetooth Low Energy link
//! layer as the paper's experiments exercise it (§2):
//!
//! * **Connections** (`conn`, `ll`) — connection events paced by
//!   the *connection interval*, the strict IFS-separated packet
//!   ping-pong of Fig. 3, the More-Data flag, 1-bit SN/NESN ARQ with
//!   retransmission on the next event, and the supervision timeout.
//!   Subordinate latency is always 0, as in the paper's experiments.
//! * **Channel hopping** ([`channels`]) — channel maps over the 37
//!   data channels and CSA#2 channel selection.
//! * **Advertising and scanning** (`ll`) — ADV_IND on the three
//!   advertising channels with the spec's 0–10 ms advDelay, scan
//!   windows, and CONNECT_IND-based connection setup with the
//!   transmit-window anchor randomisation that places each new
//!   connection at an unpredictable phase (§2.3).
//! * **The radio reservation timeline** ([`sched`]) — one radio per
//!   node, first-booked-wins arbitration, opportunistic late listens.
//!   Together with per-node clock drift this is where *connection
//!   shading* (§6.1) emerges: connection events of different
//!   connections slide into each other, events get skipped, links
//!   degrade, and supervision timeouts fire.
//! * **A link-layer world** ([`ll_world`]) — link layers over one
//!   medium with one event queue and nothing above them: the driver of
//!   the link-layer tests and of the §5.2 single-link throughput runs.
//!
//! The layer is sans-I/O in the smoltcp tradition: every entry point
//! returns [`Output`] actions (arm timer, transmit frame, listen,
//! connection up/down, payload received) that the simulation world in
//! `mindgap-core` executes against the shared [`mindgap_phy::Medium`].
//!
//! What is deliberately *not* modelled, and why it is safe: GATT/ATT
//! (the IPSS service only gates connection setup, which statconn
//! already decides), encryption (experiments run open links), and the
//! byte-exact advertising PDU formats (the typed [`Frame`] carries the
//! same information and its wire length — see [`pdu`] for the data-PDU
//! codec that *is* byte-exact).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aa;
pub mod channels;
pub mod pdu;
pub mod sched;

mod config;
mod conn;
pub mod ctrl;
mod ll;
pub mod ll_world;

pub use config::{BlePhy, ConnParams, LlConfig};
pub use conn::{ConnId, ConnStats, LossReason, Role};
pub use ll::{Frame, LinkLayer, ListenTag, LlCounters, LlObsEvent, Output, Timer, TimerKind};
