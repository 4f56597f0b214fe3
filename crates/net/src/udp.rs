//! UDP (RFC 768) over IPv6, with full pseudo-header checksums.

use crate::addr::Ipv6Addr;
use crate::CodecError;

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Total datagram length (header + data).
    pub length: u16,
    /// Transport checksum (mandatory over IPv6).
    pub checksum: u16,
}

/// Internet checksum (RFC 1071) over the IPv6 pseudo-header and the
/// UDP/ICMPv6 message.
pub fn pseudo_checksum(src: &Ipv6Addr, dst: &Ipv6Addr, next_header: u8, message: &[u8]) -> u16 {
    checksum_except(src, dst, next_header, message, message.len())
}

/// [`pseudo_checksum`] with the two bytes at the even offset `skip`
/// read as zero (`skip` at or past the end skips nothing): verifying a
/// datagram's checksum field needs no zeroed copy of it.
fn checksum_except(
    src: &Ipv6Addr,
    dst: &Ipv6Addr,
    next_header: u8,
    message: &[u8],
    skip: usize,
) -> u16 {
    let mut sum: u32 = 0;
    for chunk in src.0.chunks(2).chain(dst.0.chunks(2)) {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    let len = message.len() as u32;
    sum += len >> 16;
    sum += len & 0xFFFF;
    sum += next_header as u32;
    let (head, tail) = message.split_at(skip.min(message.len()));
    sum = add_words(sum, head);
    if tail.len() >= 2 {
        sum = add_words(sum, &tail[2..]);
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    let folded = !(sum as u16);
    // UDP: an all-zero checksum means "absent", transmitted as 0xFFFF.
    if folded == 0 {
        0xFFFF
    } else {
        folded
    }
}

/// Add `bytes` to `sum` as big-endian 16-bit words (an odd last byte
/// padded with zero).
fn add_words(mut sum: u32, bytes: &[u8]) -> u32 {
    let mut iter = bytes.chunks_exact(2);
    for chunk in &mut iter {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = iter.remainder() {
        sum += u16::from_be_bytes([*last, 0]) as u32;
    }
    sum
}

/// Fill in the UDP header of `datagram`, whose first
/// [`UDP_HEADER_LEN`] bytes are room for it and whose rest is the
/// data, checksum included. The in-place form of [`encode`]: a caller
/// that writes the data straight into its outgoing buffer copies
/// nothing.
pub fn encode_in_place(
    src: &Ipv6Addr,
    dst: &Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    datagram: &mut [u8],
) {
    let length = datagram.len() as u16;
    datagram[0..2].copy_from_slice(&src_port.to_be_bytes());
    datagram[2..4].copy_from_slice(&dst_port.to_be_bytes());
    datagram[4..6].copy_from_slice(&length.to_be_bytes());
    let csum = checksum_except(src, dst, 17, datagram, 6);
    datagram[6..8].copy_from_slice(&csum.to_be_bytes());
}

/// Build a complete UDP datagram (header + data) with a valid
/// checksum.
pub fn encode(
    src: &Ipv6Addr,
    dst: &Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    data: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(UDP_HEADER_LEN + data.len());
    out.extend_from_slice(&[0; UDP_HEADER_LEN]);
    out.extend_from_slice(data);
    encode_in_place(src, dst, src_port, dst_port, &mut out);
    out
}

/// Parse and verify a UDP datagram; returns the header and data slice.
pub fn decode<'a>(
    src: &Ipv6Addr,
    dst: &Ipv6Addr,
    datagram: &'a [u8],
) -> Result<(UdpHeader, &'a [u8]), CodecError> {
    if datagram.len() < UDP_HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let hdr = UdpHeader {
        src_port: u16::from_be_bytes([datagram[0], datagram[1]]),
        dst_port: u16::from_be_bytes([datagram[2], datagram[3]]),
        length: u16::from_be_bytes([datagram[4], datagram[5]]),
        checksum: u16::from_be_bytes([datagram[6], datagram[7]]),
    };
    if hdr.length as usize != datagram.len() || (hdr.length as usize) < UDP_HEADER_LEN {
        return Err(CodecError::Malformed);
    }
    // Verify: recompute with the checksum field read as zero.
    if checksum_except(src, dst, 17, datagram, 6) != hdr.checksum {
        return Err(CodecError::BadChecksum);
    }
    Ok((hdr, &datagram[UDP_HEADER_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (Ipv6Addr::of_node(1), Ipv6Addr::of_node(2))
    }

    #[test]
    fn roundtrip() {
        let (s, d) = addrs();
        let dg = encode(&s, &d, 5683, 5683, b"coap payload");
        let (hdr, data) = decode(&s, &d, &dg).unwrap();
        assert_eq!(hdr.src_port, 5683);
        assert_eq!(hdr.dst_port, 5683);
        assert_eq!(hdr.length as usize, dg.len());
        assert_eq!(data, b"coap payload");
    }

    #[test]
    fn corrupted_payload_detected() {
        let (s, d) = addrs();
        let mut dg = encode(&s, &d, 1, 2, b"data!");
        let last = dg.len() - 1;
        dg[last] ^= 0x01;
        assert_eq!(decode(&s, &d, &dg), Err(CodecError::BadChecksum));
    }

    #[test]
    fn wrong_addresses_detected() {
        let (s, d) = addrs();
        let dg = encode(&s, &d, 1, 2, b"data");
        let other = Ipv6Addr::of_node(9);
        assert_eq!(decode(&other, &d, &dg), Err(CodecError::BadChecksum));
    }

    #[test]
    fn length_mismatch_detected() {
        let (s, d) = addrs();
        let mut dg = encode(&s, &d, 1, 2, b"data");
        dg.push(0);
        assert_eq!(decode(&s, &d, &dg), Err(CodecError::Malformed));
    }

    #[test]
    fn odd_length_payload() {
        let (s, d) = addrs();
        let dg = encode(&s, &d, 7, 8, b"odd");
        assert!(decode(&s, &d, &dg).is_ok());
    }

    #[test]
    fn empty_payload() {
        let (s, d) = addrs();
        let dg = encode(&s, &d, 7, 8, b"");
        let (hdr, data) = decode(&s, &d, &dg).unwrap();
        assert_eq!(hdr.length, 8);
        assert!(data.is_empty());
    }

    #[test]
    fn checksum_never_zero_on_wire() {
        // Exhaustively search a few payloads; the encoder must never
        // emit 0 (it would mean "no checksum" over IPv6, which is
        // illegal).
        let (s, d) = addrs();
        for i in 0..2000u16 {
            let dg = encode(&s, &d, i, i.wrapping_add(1), &i.to_be_bytes());
            let csum = u16::from_be_bytes([dg[6], dg[7]]);
            assert_ne!(csum, 0);
        }
    }

    #[test]
    fn truncated_rejected() {
        let (s, d) = addrs();
        assert_eq!(decode(&s, &d, &[0; 7]), Err(CodecError::Truncated));
    }
}
