//! # mindgap-l2cap — LE Credit-Based Connection-Oriented Channels
//!
//! RFC 7668 mandates that IPv6 datagrams cross a BLE link through an
//! L2CAP *connection-oriented channel with credit-based flow control*
//! (paper §2.1: "work similar compared to a pipe and guarantee full
//! duplex, reliable, and in-order transfer of IP data").
//!
//! This crate implements that machinery:
//!
//! * [`frame`] — wire codecs for K-frames and the LE credit-based
//!   signaling PDUs (connection request/response, flow-control credit).
//! * [`CocChannel`] — the per-channel state machine: SDU segmentation
//!   into K-frames of at most MPS bytes, credit consumption and
//!   replenishment, reassembly with SDU-length validation.
//! * [`BufPool`] — a byte-budget allocator mirroring NimBLE's msys
//!   mbuf pool (6600 B in the paper's configuration, §4.2). When the
//!   pool is exhausted, outgoing SDUs are dropped — one of the two
//!   buffer-overflow loss mechanisms behind the paper's high-load
//!   results (Fig. 9).
//!
//! The crate is I/O-free and simulation-agnostic: it transforms bytes
//! and updates counters. The BLE link layer pulls PDUs out of
//! channels; `mindgap-core` wires channels to the IP stack.
//!
//! ## Buffer-writing forms
//!
//! The data path recycles its buffers through a
//! [`mindgap_sim::BytePool`]: [`CocChannel::next_pdu`] builds each
//! K-frame in place in a pooled buffer, [`CocChannel::queue_sdu`]
//! takes an SDU built in a pooled buffer and returns it to the pool
//! once sent (or with the error, if refused), and
//! [`CocChannel::on_pdu_into`] reassembles into a pooled buffer that
//! the caller hands back after use. [`frame::begin_basic`] /
//! [`frame::finish_basic`] and [`frame::Signal::encode_into`] write
//! signaling PDUs in place. [`CocChannel::send_sdu`] and
//! [`CocChannel::on_pdu`] are the owning forms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

mod channel;
mod pool;

pub use channel::{mbuf_cost, CocChannel, CocConfig, CocError, SduSendError, MBUF_BLOCK};
pub use pool::BufPool;

/// The dynamic L2CAP Protocol/Service Multiplexer assigned to the
/// Internet Protocol Support Profile (IPSP), per the Bluetooth
/// assigned numbers. RFC 7668 transports IPv6 on this PSM.
pub const PSM_IPSP: u16 = 0x0023;

/// NimBLE's default msys buffer budget in the paper's configuration
/// (§4.2: "NimBLE's packet buffer is configured to be 6600 bytes").
pub const NIMBLE_BUF_BYTES: usize = 6600;
