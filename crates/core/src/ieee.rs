//! The IEEE 802.15.4 link — the paper's §5.3 baseline.
//!
//! [`crate::World::new_ieee`] runs the same upper stack as the BLE
//! testbed (IPv6 router, static routes, CoAP producers/consumer) over
//! the m3 boards' radio: the `mindgap-dot15d4` CSMA/CA MAC on a single
//! channel at 250 kbps, with RFC 4944 fragmentation for datagrams
//! beyond one frame. This module holds its configuration and the
//! per-node [`IeeeLink`], which is the `Link::Ieee` variant of every
//! node of such a world; `World`'s event loop drives it. Its frames go
//! through the same in-flight slab and `TxEnd` handler as BLE frames,
//! and `World::send_ip` reaches it by matching on `Link`, as it does
//! the two BLE links.
//!
//! There is no connection concept: the network is "up" immediately,
//! losses come from CSMA collisions, noisy-channel retries running
//! out, and MAC queue overflow — which is exactly the contrast with
//! BLE the paper draws (fast-but-lossy vs slow-but-reliable).

use mindgap_dot15d4::{Radio802154, CHANNEL, MAX_MAC_PAYLOAD};
use mindgap_phy::{Channel, LossConfig};
use mindgap_sim::{Duration, Instant, NodeId, Rng};
use mindgap_sixlowpan::frag;

/// RFC 4944 reassembly timeout.
const REASSEMBLY_TIMEOUT: Duration = Duration::from_secs(60);

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

/// One node's 802.15.4 link: the CSMA/CA MAC and RFC 4944
/// fragmentation state.
pub(crate) struct IeeeLink {
    pub(crate) mac: Radio802154,
    pub(crate) reassembler: frag::Reassembler,
    next_frag_tag: u16,
}

impl IeeeLink {
    pub(crate) fn new(id: NodeId, rng: Rng) -> Self {
        IeeeLink {
            mac: Radio802154::new(id, rng),
            reassembler: frag::Reassembler::new(REASSEMBLY_TIMEOUT.nanos()),
            next_frag_tag: 0,
        }
    }

    /// The single channel the MAC runs on.
    pub(crate) fn channel(&self) -> Channel {
        Channel::ieee802154(CHANNEL)
    }

    /// Split a 6LoWPAN frame into MAC payloads: itself when it fits
    /// one frame, RFC 4944 fragments otherwise (§4.3 keeps packets
    /// below this, but the stack handles larger datagrams).
    pub(crate) fn frames(&mut self, frame6: Vec<u8>) -> Vec<Vec<u8>> {
        if frame6.len() <= MAX_MAC_PAYLOAD {
            return vec![frame6];
        }
        let tag = self.next_frag_tag;
        self.next_frag_tag = tag.wrapping_add(1);
        frag::fragment(&frame6, tag, MAX_MAC_PAYLOAD)
    }

    /// Feed one received MAC payload: `Ok(Some)` is a complete 6LoWPAN
    /// frame, `Ok(None)` a fragment still waiting for the rest.
    pub(crate) fn reassemble(
        &mut self,
        src: NodeId,
        payload: Vec<u8>,
        now: Instant,
    ) -> Result<Option<Vec<u8>>, ()> {
        if !frag::is_fragment(&payload) {
            return Ok(Some(payload));
        }
        self.reassembler
            .on_fragment(src.0 as u64, &payload, now.nanos())
            .map_err(|_| ())
    }
}
