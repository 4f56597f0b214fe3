//! The IEEE 802.15.4 link — the paper's §5.3 baseline.
//!
//! [`crate::World::new_ieee`] runs the same upper stack as the BLE
//! testbed (IPv6 router, static routes, CoAP producers/consumer) over
//! the m3 boards' radio: the `mindgap-dot15d4` CSMA/CA MAC on a single
//! channel at 250 kbps. This module holds its configuration. Each node
//! of such a world holds its `Radio802154` as the `Link::Ieee`
//! variant, and `World`'s event loop drives it. Its frames go through
//! the same in-flight slab and `TxEnd` handler as BLE frames, and
//! `World::send_ip` reaches it by matching on `Link`, as it does the
//! two BLE links.
//!
//! Each 6LoWPAN frame travels in one MAC frame. The paper sizes every
//! CoAP request to fit one (§4.3), so there is no RFC 4944
//! fragmentation: a frame over `MAX_MAC_PAYLOAD` is dropped at the
//! sender and counted as `ieee_too_big`.
//!
//! There is no connection concept: the network is "up" immediately,
//! losses come from CSMA collisions, noisy-channel retries running
//! out, and MAC queue overflow — which is exactly the contrast with
//! BLE the paper draws (fast-but-lossy vs slow-but-reliable).

use mindgap_phy::LossConfig;

/// Configuration of the 802.15.4 world.
#[derive(Debug, Clone)]
pub struct IeeeConfig {
    /// Master seed.
    pub seed: u64,
    /// Channel-error process. The paper's Strasbourg site is noisier
    /// than the BLE room; see `LossConfig::ieee802154_default`.
    pub loss: LossConfig,
}

impl IeeeConfig {
    /// Paper-calibrated defaults.
    pub fn paper_default(seed: u64) -> Self {
        IeeeConfig {
            seed,
            loss: LossConfig::ieee802154_default(),
        }
    }
}
