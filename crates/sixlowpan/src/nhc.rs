//! UDP next-header compression (RFC 6282 §4.3).
//!
//! The paper's CoAP traffic runs on UDP; NHC shrinks the 8-byte UDP
//! header to 2–5 bytes. The UDP length field is always elided
//! (recomputed from the IPv6 payload length); the checksum is always
//! carried inline (`C = 0`) — eliding it requires upper-layer
//! authorization that CoAP does not grant.

use crate::Error;

/// NHC UDP dispatch: `11110CPP`.
const NHC_UDP_MASK: u8 = 0xF8;
const NHC_UDP: u8 = 0xF0;

/// The 4-bit-port space `0xF0Bx` (RFC 6282: ports 61616–61631).
const PORT4_BASE: u16 = 0xF0B0;
/// The 8-bit-port space `0xF0xx` (61440–61695).
const PORT8_BASE: u16 = 0xF000;

const UDP_HDR_LEN: usize = 8;

/// `true` if `payload` is a well-formed UDP datagram whose header NHC
/// can compress (it always can — this only checks well-formedness).
pub fn compressible(payload: &[u8]) -> bool {
    if payload.len() < UDP_HDR_LEN {
        return false;
    }
    let len = u16::from_be_bytes([payload[4], payload[5]]) as usize;
    len == payload.len()
}

/// Append the NHC-compressed form of the UDP datagram `payload` to
/// `out`.
pub fn compress_udp(payload: &[u8], out: &mut Vec<u8>) -> Result<(), Error> {
    if !compressible(payload) {
        return Err(Error::Malformed);
    }
    let src = u16::from_be_bytes([payload[0], payload[1]]);
    let dst = u16::from_be_bytes([payload[2], payload[3]]);
    let checksum = &payload[6..8];

    let both4 = src & 0xFFF0 == PORT4_BASE && dst & 0xFFF0 == PORT4_BASE;
    let dst8 = dst & 0xFF00 == PORT8_BASE;
    let src8 = src & 0xFF00 == PORT8_BASE;

    if both4 {
        out.push(NHC_UDP | 0b11);
        out.push((((src & 0x0F) as u8) << 4) | (dst & 0x0F) as u8);
    } else if dst8 {
        out.push(NHC_UDP | 0b01);
        out.extend_from_slice(&src.to_be_bytes());
        out.push(dst as u8);
    } else if src8 {
        out.push(NHC_UDP | 0b10);
        out.push(src as u8);
        out.extend_from_slice(&dst.to_be_bytes());
    } else {
        out.push(NHC_UDP);
        out.extend_from_slice(&src.to_be_bytes());
        out.extend_from_slice(&dst.to_be_bytes());
    }
    out.extend_from_slice(checksum);
    out.extend_from_slice(&payload[UDP_HDR_LEN..]);
    Ok(())
}

/// A parsed NHC UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UdpNhc {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// The checksum, carried inline.
    pub checksum: [u8; 2],
    /// Bytes the compressed header occupies in the frame.
    pub header_len: usize,
}

/// Parse and validate the NHC UDP header at the start of `frame`; the
/// data after it must fit a UDP length field.
pub(crate) fn parse_udp(frame: &[u8]) -> Result<UdpNhc, Error> {
    if frame.is_empty() {
        return Err(Error::Truncated);
    }
    let head = frame[0];
    if head & NHC_UDP_MASK != NHC_UDP {
        return Err(Error::Unsupported);
    }
    if head & 0b100 != 0 {
        // C=1: checksum elided — we never produce it and reject it on
        // input, as RFC 6282 only allows it with out-of-band assurance.
        return Err(Error::Unsupported);
    }
    let mut pos = 1usize;
    let mut take = |n: usize| -> Result<&[u8], Error> {
        if pos + n > frame.len() {
            return Err(Error::Truncated);
        }
        let s = &frame[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let (src_port, dst_port) = match head & 0b11 {
        0b00 => {
            let s = take(2)?;
            let sp = u16::from_be_bytes([s[0], s[1]]);
            let d = take(2)?;
            let dp = u16::from_be_bytes([d[0], d[1]]);
            (sp, dp)
        }
        0b01 => {
            let s = take(2)?;
            let sp = u16::from_be_bytes([s[0], s[1]]);
            let dp = PORT8_BASE | take(1)?[0] as u16;
            (sp, dp)
        }
        0b10 => {
            let sp = PORT8_BASE | take(1)?[0] as u16;
            let d = take(2)?;
            let dp = u16::from_be_bytes([d[0], d[1]]);
            (sp, dp)
        }
        _ => {
            let b = take(1)?[0];
            (PORT4_BASE | (b >> 4) as u16, PORT4_BASE | (b & 0x0F) as u16)
        }
    };
    let c = take(2)?;
    let checksum = [c[0], c[1]];
    if UDP_HDR_LEN + (frame.len() - pos) > u16::MAX as usize {
        return Err(Error::Malformed);
    }
    Ok(UdpNhc {
        src_port,
        dst_port,
        checksum,
        header_len: pos,
    })
}

impl UdpNhc {
    /// Length of the UDP datagram `frame`, the frame this header was
    /// parsed from, decompresses to.
    pub(crate) fn datagram_len(&self, frame: &[u8]) -> usize {
        UDP_HDR_LEN + frame.len() - self.header_len
    }
}

/// Decompress an NHC UDP header + data, appending the full UDP
/// datagram to `out`. On error `out` is left as it was.
pub fn decompress_udp(frame: &[u8], out: &mut Vec<u8>) -> Result<(), Error> {
    let h = parse_udp(frame)?;
    let total = h.datagram_len(frame);
    out.reserve(total);
    out.extend_from_slice(&h.src_port.to_be_bytes());
    out.extend_from_slice(&h.dst_port.to_be_bytes());
    out.extend_from_slice(&(total as u16).to_be_bytes());
    out.extend_from_slice(&h.checksum);
    out.extend_from_slice(&frame[h.header_len..]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udp(src: u16, dst: u16, data: &[u8]) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&src.to_be_bytes());
        p.extend_from_slice(&dst.to_be_bytes());
        p.extend_from_slice(&((8 + data.len()) as u16).to_be_bytes());
        p.extend_from_slice(&[0xAB, 0xCD]); // checksum placeholder
        p.extend_from_slice(data);
        p
    }

    fn roundtrip(src: u16, dst: u16, data: &[u8]) -> usize {
        let original = udp(src, dst, data);
        let mut c = Vec::new();
        compress_udp(&original, &mut c).unwrap();
        let mut d = Vec::new();
        decompress_udp(&c, &mut d).unwrap();
        assert_eq!(d, original, "ports {src}->{dst}");
        c.len()
    }

    #[test]
    fn both_ports_in_4bit_space() {
        // 61616 = 0xF0B0
        let clen = roundtrip(61617, 61630, b"hi");
        // 1 NHC + 1 ports + 2 checksum + 2 data
        assert_eq!(clen, 6);
    }

    #[test]
    fn coap_port_needs_full_inline() {
        // CoAP's 5683 is outside both compressed spaces.
        let clen = roundtrip(5683, 5683, b"hi");
        assert_eq!(clen, 1 + 4 + 2 + 2);
    }

    #[test]
    fn dst_in_8bit_space() {
        let clen = roundtrip(5683, 0xF042, b"");
        assert_eq!(clen, 1 + 3 + 2);
    }

    #[test]
    fn src_in_8bit_space() {
        let clen = roundtrip(0xF042, 5683, b"");
        assert_eq!(clen, 1 + 3 + 2);
    }

    #[test]
    fn zero_length_payload() {
        roundtrip(1000, 2000, b"");
    }

    #[test]
    fn length_field_reconstructed() {
        let original = udp(7, 9, &[0u8; 100]);
        let mut c = Vec::new();
        compress_udp(&original, &mut c).unwrap();
        let mut d = Vec::new();
        decompress_udp(&c, &mut d).unwrap();
        assert_eq!(u16::from_be_bytes([d[4], d[5]]), 108);
    }

    #[test]
    fn malformed_length_rejected() {
        let mut p = udp(1, 2, b"abc");
        p[5] = 99; // corrupt length
        let mut c = Vec::new();
        assert_eq!(compress_udp(&p, &mut c), Err(Error::Malformed));
        assert!(!compressible(&p));
    }

    #[test]
    fn truncated_input_rejected() {
        let original = udp(5683, 5683, b"data");
        let mut c = Vec::new();
        compress_udp(&original, &mut c).unwrap();
        for cut in 0..7 {
            assert!(decompress_udp(&c[..cut], &mut Vec::new()).is_err());
        }
    }

    #[test]
    fn elided_checksum_rejected() {
        let frame = [NHC_UDP | 0b100 | 0b11, 0x00];
        assert_eq!(
            decompress_udp(&frame, &mut Vec::new()),
            Err(Error::Unsupported)
        );
    }

    #[test]
    fn non_udp_nhc_rejected() {
        assert_eq!(
            decompress_udp(&[0xE0, 0, 0], &mut Vec::new()),
            Err(Error::Unsupported)
        );
    }
}
