//! The fixed IPv6 header (RFC 8200).

use crate::addr::Ipv6Addr;
use crate::CodecError;

/// Length of the fixed IPv6 header.
pub const IPV6_HEADER_LEN: usize = 40;

/// Upper-layer protocol numbers used in this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NextHeader {
    /// UDP (17).
    Udp,
    /// ICMPv6 (58).
    Icmpv6,
    /// No next header (59).
    NoNextHeader,
    /// Anything else, carried opaquely.
    Other(u8),
}

impl NextHeader {
    /// Protocol number.
    pub fn value(self) -> u8 {
        match self {
            NextHeader::Udp => 17,
            NextHeader::Icmpv6 => 58,
            NextHeader::NoNextHeader => 59,
            NextHeader::Other(v) => v,
        }
    }
}

impl From<u8> for NextHeader {
    fn from(v: u8) -> Self {
        match v {
            17 => NextHeader::Udp,
            58 => NextHeader::Icmpv6,
            59 => NextHeader::NoNextHeader,
            other => NextHeader::Other(other),
        }
    }
}

/// A parsed fixed IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Traffic class (DSCP + ECN).
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Payload length in bytes.
    pub payload_len: u16,
    /// Upper-layer protocol.
    pub next_header: NextHeader,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
}

impl Ipv6Header {
    /// A default header for locally originated packets: hop limit 64
    /// (RIOT's default), zero traffic class and flow label.
    pub fn new(next_header: NextHeader, src: Ipv6Addr, dst: Ipv6Addr, payload_len: u16) -> Self {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            payload_len,
            next_header,
            hop_limit: 64,
            src,
            dst,
        }
    }

    /// Encode into 40 bytes.
    pub fn encode(&self) -> [u8; IPV6_HEADER_LEN] {
        let mut b = [0u8; IPV6_HEADER_LEN];
        b[0] = 0x60 | (self.traffic_class >> 4);
        b[1] = ((self.traffic_class & 0x0F) << 4) | ((self.flow_label >> 16) as u8 & 0x0F);
        b[2] = (self.flow_label >> 8) as u8;
        b[3] = self.flow_label as u8;
        b[4..6].copy_from_slice(&self.payload_len.to_be_bytes());
        b[6] = self.next_header.value();
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.src.0);
        b[24..40].copy_from_slice(&self.dst.0);
        b
    }

    /// Decode from the start of `bytes`, validating version and that
    /// the buffer holds the announced payload.
    pub fn decode(bytes: &[u8]) -> Result<Ipv6Header, CodecError> {
        if bytes.len() < IPV6_HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        if bytes[0] >> 4 != 6 {
            return Err(CodecError::Malformed);
        }
        let payload_len = u16::from_be_bytes([bytes[4], bytes[5]]);
        if bytes.len() < IPV6_HEADER_LEN + payload_len as usize {
            return Err(CodecError::Truncated);
        }
        let mut src = [0u8; 16];
        src.copy_from_slice(&bytes[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&bytes[24..40]);
        Ok(Ipv6Header {
            traffic_class: (bytes[0] << 4) | (bytes[1] >> 4),
            flow_label: ((bytes[1] as u32 & 0x0F) << 16)
                | ((bytes[2] as u32) << 8)
                | bytes[3] as u32,
            payload_len,
            next_header: NextHeader::from(bytes[6]),
            hop_limit: bytes[7],
            src: Ipv6Addr(src),
            dst: Ipv6Addr(dst),
        })
    }

    /// Build a complete datagram: header + payload.
    pub fn build_packet(
        next_header: NextHeader,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        payload: &[u8],
    ) -> Vec<u8> {
        assert!(payload.len() <= u16::MAX as usize);
        let hdr = Ipv6Header::new(next_header, src, dst, payload.len() as u16);
        let mut out = Vec::with_capacity(IPV6_HEADER_LEN + payload.len());
        out.extend_from_slice(&hdr.encode());
        out.extend_from_slice(payload);
        out
    }
}

impl From<&mindgap_sixlowpan::iphc::Header> for Ipv6Header {
    /// The header a compressed frame decodes to, as
    /// [`Ipv6Header::decode`] of the decompressed datagram gives it.
    fn from(h: &mindgap_sixlowpan::iphc::Header) -> Self {
        Ipv6Header {
            traffic_class: h.traffic_class,
            flow_label: h.flow_label,
            payload_len: h.payload_len as u16,
            next_header: NextHeader::from(h.next_header),
            hop_limit: h.hop_limit,
            src: Ipv6Addr(h.src),
            dst: Ipv6Addr(h.dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = Ipv6Header {
            traffic_class: 0xB8,
            flow_label: 0xABCDE,
            payload_len: 0,
            next_header: NextHeader::Udp,
            hop_limit: 17,
            src: Ipv6Addr::of_node(1),
            dst: Ipv6Addr::of_node(2),
        };
        let enc = h.encode();
        assert_eq!(Ipv6Header::decode(&enc).unwrap(), h);
    }

    #[test]
    fn build_packet_sets_length() {
        let p = Ipv6Header::build_packet(
            NextHeader::Udp,
            Ipv6Addr::of_node(1),
            Ipv6Addr::of_node(2),
            &[1, 2, 3],
        );
        let h = Ipv6Header::decode(&p).unwrap();
        assert_eq!(h.payload_len, 3);
        assert_eq!(h.hop_limit, 64);
        assert_eq!(&p[40..], &[1, 2, 3]);
    }

    #[test]
    fn rejects_v4_and_short_input() {
        let mut p = Ipv6Header::build_packet(
            NextHeader::NoNextHeader,
            Ipv6Addr::of_node(1),
            Ipv6Addr::of_node(2),
            &[],
        );
        p[0] = 0x45;
        assert_eq!(Ipv6Header::decode(&p), Err(CodecError::Malformed));
        assert_eq!(Ipv6Header::decode(&p[..10]), Err(CodecError::Truncated));
    }

    #[test]
    fn rejects_truncated_payload() {
        let mut p = Ipv6Header::build_packet(
            NextHeader::Udp,
            Ipv6Addr::of_node(1),
            Ipv6Addr::of_node(2),
            &[0; 10],
        );
        p.truncate(45);
        assert_eq!(Ipv6Header::decode(&p), Err(CodecError::Truncated));
    }

    #[test]
    fn next_header_mapping() {
        assert_eq!(NextHeader::from(17), NextHeader::Udp);
        assert_eq!(NextHeader::from(58), NextHeader::Icmpv6);
        assert_eq!(NextHeader::from(59), NextHeader::NoNextHeader);
        assert_eq!(NextHeader::from(6), NextHeader::Other(6));
        assert_eq!(NextHeader::Other(6).value(), 6);
    }
}
