//! # mindgap-phy — simulated radio medium
//!
//! Models the physical layer of the paper's testbed at the granularity
//! the experiments need:
//!
//! * **Channels** — BLE's 40 channels (37 data + 3 advertising) on the
//!   1 Mbps PHY and IEEE 802.15.4's 16 channels at 250 kbps
//!   ([`Channel`], [`Band`]).
//! * **Airtime** — exact frame durations from byte counts
//!   ([`airtime`]). A BLE data PDU of the paper's 115 B takes
//!   `(1+4+2+…+3)·8 µs`; an 802.15.4 frame runs at 32 µs/byte.
//! * **Collisions** — two frames overlapping in time on the same
//!   channel, both audible at a receiver, corrupt each other
//!   ([`Medium`]). With BLE's time-sliced channel hopping collisions
//!   are rare but real; with CSMA/CA they are the dominant loss source
//!   under load.
//! * **Channel errors** — a Gilbert–Elliott bursty loss process per
//!   directed link ([`GilbertElliott`]), plus static per-channel
//!   interference such as the permanently jammed BLE channel 22 the
//!   authors observed in the IoT-lab (§4.2).
//! * **Geometry** — log-distance path loss with deterministic
//!   shadowing ([`path_loss`]) turning node positions into
//!   per-link RSSI and PER, and a random-walk [`mobility`] model that
//!   moves the positions mid-run so link quality evolves.
//!
//! The medium is *passive*: protocol crates decide when to transmit
//! and when to listen; the medium only answers "did this frame arrive
//! intact at that listener?". This keeps the PHY reusable for both the
//! BLE link layer and the IEEE 802.15.4 MAC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airtime;
mod channel;
mod loss;
mod medium;
pub mod mobility;
pub mod path_loss;

pub use channel::{
    Band, Channel, BLE_ADV_CHANNELS, BLE_ADV_FIRST, BLE_DATA_CHANNELS, BLE_JAMMED_CHANNEL,
    CHANNEL_TABLE_SIZE,
};
pub use loss::{GilbertElliott, LossConfig, NoiseModel};
pub use medium::{Medium, MediumConfig, RxOutcome, TxId, TxParams};
pub use mobility::Mobility;
