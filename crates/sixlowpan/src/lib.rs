//! # mindgap-sixlowpan — 6LoWPAN adaptation layer
//!
//! The paper's stack carries IPv6 over both BLE (RFC 7668) and
//! IEEE 802.15.4 (RFC 4944/6282) through the 6LoWPAN adaptation layer.
//! This crate implements the pieces those RFCs require:
//!
//! * [`iphc`] — stateless IPHC header compression (RFC 6282 §3): the
//!   40-byte IPv6 header of the paper's link-local CoAP traffic
//!   compresses to 2–3 bytes, which is how a 100 B IPv6 packet becomes
//!   a 115 B BLE link-layer frame *including* all lower-layer headers
//!   (paper §4.3).
//! * [`nhc`] — UDP next-header compression (RFC 6282 §4.3).
//!
//!   Both encode and decode into caller buffers (`*_into`), and a relay
//!   re-encodes only the base header ([`iphc::parse`],
//!   [`iphc::encode_relay`]); see [`iphc`]'s buffer-writing forms.
//! * [`frag`] — fragmentation and reassembly (RFC 4944 §5.3), needed on
//!   802.15.4 whose 127 B frames cannot carry a full 1280 B IPv6 MTU.
//!   (Over BLE, RFC 7668 forbids 6LoWPAN fragmentation — L2CAP
//!   segmentation does the job; our BLE path therefore never uses
//!   [`frag`], exactly like the paper's.)
//!
//! ## Scope and deviations
//!
//! Compression is stateless (no context identifiers): the paper's
//! experiments use link-local addressing on every hop, where stateless
//! IPHC already reaches maximal compression. On the fragmentation path,
//! `datagram_size`/`datagram_offset` describe the byte stream actually
//! fragmented (the compressed datagram) rather than the uncompressed
//! size; both ends of this implementation agree on that framing, and no
//! experiment depends on interop with foreign stacks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frag;
pub mod iphc;
pub mod nhc;

/// A link-layer address in EUI-64 form.
///
/// BLE device addresses (48-bit) expand to EUI-64 by inserting
/// `ff:fe` in the middle (RFC 7668 §3.2.2); 802.15.4 long addresses are
/// native EUI-64. The IPv6 interface identifier is this EUI-64 with the
/// universal/local bit inverted (RFC 4291 App. A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlAddr(pub [u8; 8]);

impl LlAddr {
    /// The link-layer broadcast address (all ones). Used as the
    /// destination for IPv6 multicast (e.g. `ff02::1`).
    pub const BROADCAST: LlAddr = LlAddr([0xff; 8]);

    /// Deterministic per-node address used throughout the simulation:
    /// a locally administered EUI-64 derived from the node index.
    pub fn from_node_index(index: u16) -> Self {
        let [hi, lo] = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        LlAddr([0x02, 0x00, 0x00, 0xff, 0xfe, 0x00, hi, lo])
    }

    /// The IPv6 interface identifier for this address (U/L bit flipped).
    pub fn iid(&self) -> [u8; 8] {
        let mut iid = self.0;
        iid[0] ^= 0x02;
        iid
    }

    /// The link-local IPv6 address (`fe80::/64` + IID) as raw bytes.
    pub fn link_local(&self) -> [u8; 16] {
        let mut addr = [0u8; 16];
        addr[0] = 0xfe;
        addr[1] = 0x80;
        addr[8..].copy_from_slice(&self.iid());
        addr
    }
}

/// Per-packet compression context: the link-layer addresses of the
/// frame carrying the compressed datagram. IPHC elides IPv6 addresses
/// that are derivable from these.
#[derive(Debug, Clone, Copy)]
pub struct LinkContext {
    /// Sender of the link-layer frame.
    pub src: LlAddr,
    /// Receiver of the link-layer frame.
    pub dst: LlAddr,
}

/// Errors shared across the adaptation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Input shorter than the format requires.
    Truncated,
    /// A field combination the decoder does not support.
    Unsupported,
    /// Not an IPv6 packet (version nibble ≠ 6) or inconsistent lengths.
    Malformed,
    /// Reassembly failure (overlap, size mismatch, tag reuse).
    BadFragment,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_addresses_are_unique() {
        let a = LlAddr::from_node_index(1);
        let b = LlAddr::from_node_index(2);
        let c = LlAddr::from_node_index(258);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn iid_flips_universal_local_bit() {
        let a = LlAddr::from_node_index(7);
        assert_eq!(a.0[0] & 0x02, 0x02);
        assert_eq!(a.iid()[0] & 0x02, 0x00);
        assert_eq!(&a.iid()[1..], &a.0[1..]);
    }

    #[test]
    fn link_local_prefix() {
        let ll = LlAddr::from_node_index(3).link_local();
        assert_eq!(ll[0], 0xfe);
        assert_eq!(ll[1], 0x80);
        assert!(ll[2..8].iter().all(|&b| b == 0));
    }
}
