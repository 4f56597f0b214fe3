//! # mindgap-dot15d4 — IEEE 802.15.4 unslotted CSMA/CA MAC
//!
//! The paper's baseline radio (§5.3): the m3 nodes in the Strasbourg
//! IoT-lab run IEEE 802.15.4 at 250 kbps with contention-based medium
//! access instead of BLE's time-sliced channel hopping. The two
//! properties the comparison hinges on are both *mechanical* and
//! reproduced here exactly:
//!
//! * **Small backoff delays** — the unit backoff period is 320 µs and
//!   the exponent starts at 3, so a frame typically waits well under
//!   3 ms for the channel. Delivered packets are therefore much
//!   *faster* than over BLE, whose per-hop latency is dominated by the
//!   connection interval (Fig. 10b).
//! * **Drop after a bounded number of retries** — unlike BLE's
//!   persistent link-layer ARQ, a frame is discarded after
//!   `macMaxFrameRetries` (3) failed transmissions or
//!   `macMaxCSMABackoffs` (4) failed clear-channel assessments, so
//!   losses surface immediately as missing packets (Fig. 10a).
//!
//! The MAC is sans-I/O like the BLE link layer: entry points return
//! [`MacOutput`] actions; clear-channel assessment is provided by the
//! caller (the world owns the medium) through a closure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mac;

pub use mac::{MacCounters, MacFrame, MacOutput, MacTimer, Radio802154, CHANNEL};

/// MAC header + FCS overhead in bytes for our data frames: frame
/// control (2) + sequence (1) + PAN id (2) + dst short (2) + src short
/// (2) + FCS (2).
pub const MAC_OVERHEAD: usize = 11;

/// Maximum MAC payload per frame (127 B PSDU minus overhead).
pub const MAX_MAC_PAYLOAD: usize = 127 - MAC_OVERHEAD;
