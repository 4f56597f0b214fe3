//! IPHC — IPv6 header compression (RFC 6282 §3), stateless subset.
//!
//! The encoder takes a complete IPv6 datagram and the link-layer
//! context and emits a 6LoWPAN frame payload: either
//!
//! * the IPHC dispatch (`011…`) with compressed headers, optionally a
//!   compressed UDP header ([`crate::nhc`]), followed by the payload, or
//! * the uncompressed-IPv6 dispatch byte `0x41` followed by the raw
//!   datagram, when the packet resists compression.
//!
//! The decoder reverses the transformation exactly; payload length and
//! UDP length are reconstructed from the frame length, as the RFC
//! specifies.
//!
//! ## Buffer-writing forms
//!
//! The data path encodes and decodes into caller buffers, so a pooled
//! buffer can carry a packet through a hop without a heap allocation:
//! [`encode_frame_into`] and [`decode_frame_into`] append to an `out`
//! vector, and [`encode_frame`] and [`decode_frame`] are thin wrappers
//! that allocate one.
//!
//! A relay does not need the datagram at all. [`parse`] decodes only
//! the compressed base header into a [`Header`] and locates the rest of
//! the frame — the NHC UDP header or inline next header and the
//! payload — which is the same on every hop (a UDP checksum's
//! pseudo-header excludes the hop limit). [`encode_relay`] writes the
//! next hop's base header through the encoder [`encode_frame`] uses and
//! copies that rest verbatim. For every frame this encoder emits, the
//! result is byte for byte what decompressing, lowering the hop limit
//! and recompressing would give; a frame from another encoder (say,
//! with a different NHC port encoding) is relayed as it came.

use crate::nhc;
use crate::{Error, LinkContext};

/// Dispatch byte for uncompressed IPv6 (RFC 4944 §5.1).
pub const DISPATCH_IPV6: u8 = 0x41;
/// High bits marking an IPHC dispatch: `011xxxxx`.
pub const DISPATCH_IPHC_MASK: u8 = 0xE0;
/// Value of the masked bits for IPHC.
pub const DISPATCH_IPHC: u8 = 0x60;

const IPV6_HDR_LEN: usize = 40;
const PROTO_UDP: u8 = 17;

/// The fields of a fixed IPv6 header, as an IPHC base header carries
/// them, plus how the frame encodes what follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Traffic class (DSCP + ECN).
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Upper-layer protocol (17 when the UDP header is NHC-compressed).
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: [u8; 16],
    /// Destination address.
    pub dst: [u8; 16],
    /// Length of the IPv6 payload (what follows the fixed header).
    pub payload_len: usize,
    /// Whether the UDP header is NHC-compressed in the frame.
    pub udp_nhc: bool,
}

impl Header {
    /// The 40-byte IPv6 header. The payload length is cut to 16 bits,
    /// as the wire field is.
    fn ipv6_bytes(&self) -> [u8; IPV6_HDR_LEN] {
        let mut b = [0u8; IPV6_HDR_LEN];
        b[0] = 0x60 | (self.traffic_class >> 4);
        b[1] = ((self.traffic_class & 0x0F) << 4) | ((self.flow_label >> 16) as u8 & 0x0F);
        b[2] = (self.flow_label >> 8) as u8;
        b[3] = self.flow_label as u8;
        b[4..6].copy_from_slice(&(self.payload_len as u16).to_be_bytes());
        b[6] = self.next_header;
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.src);
        b[24..40].copy_from_slice(&self.dst);
        b
    }
}

/// Parse the fixed header of an IPv6 datagram; the payload must fill
/// the rest of `packet` exactly.
fn parse_ipv6(packet: &[u8]) -> Result<Header, Error> {
    if packet.len() < IPV6_HDR_LEN {
        return Err(Error::Truncated);
    }
    if packet[0] >> 4 != 6 {
        return Err(Error::Malformed);
    }
    let payload_len = u16::from_be_bytes([packet[4], packet[5]]) as usize;
    if packet.len() != IPV6_HDR_LEN + payload_len {
        return Err(Error::Malformed);
    }
    let mut src = [0u8; 16];
    src.copy_from_slice(&packet[8..24]);
    let mut dst = [0u8; 16];
    dst.copy_from_slice(&packet[24..40]);
    let next_header = packet[6];
    Ok(Header {
        traffic_class: (packet[0] << 4) | (packet[1] >> 4),
        flow_label: ((packet[1] as u32 & 0x0F) << 16)
            | ((packet[2] as u32) << 8)
            | packet[3] as u32,
        next_header,
        hop_limit: packet[7],
        src,
        dst,
        payload_len,
        // UDP goes through NHC when possible.
        udp_nhc: next_header == PROTO_UDP && nhc::compressible(&packet[IPV6_HDR_LEN..]),
    })
}

/// Address compression decision for SAM/DAM (stateless).
enum AddrMode {
    /// 0 bits — derived from the link-layer address.
    Elided,
    /// 16 bits — `fe80::ff:fe00:XXXX`.
    Short([u8; 2]),
    /// 64 bits — `fe80::` + inline IID.
    Iid([u8; 8]),
    /// 128 bits inline (unicast or multicast).
    Full([u8; 16]),
    /// Multicast `ff02::00XX` — 8 bits.
    Mcast8(u8),
    /// Multicast `ffXX::00XX:XXXX` — flags/scope byte + 3 bytes.
    Mcast32([u8; 4]),
    /// Multicast `ffXX::00XX:XXXX:XXXX` — flags/scope byte + 5 bytes.
    Mcast48([u8; 6]),
}

fn classify_unicast(addr: &[u8; 16], ll: &crate::LlAddr) -> AddrMode {
    let is_link_local = addr[0] == 0xfe && addr[1] == 0x80 && addr[2..8].iter().all(|&b| b == 0);
    if !is_link_local {
        return AddrMode::Full(*addr);
    }
    let iid = &addr[8..16];
    if iid == ll.iid() {
        return AddrMode::Elided;
    }
    if iid[0..6] == [0, 0, 0, 0xff, 0xfe, 0] {
        return AddrMode::Short([iid[6], iid[7]]);
    }
    let mut out = [0u8; 8];
    out.copy_from_slice(iid);
    AddrMode::Iid(out)
}

/// Multicast DAM selection (M=1, DAC=0).
fn classify_multicast(dst: &[u8; 16]) -> AddrMode {
    if dst[1] == 0x02 && dst[2..15].iter().all(|&b| b == 0) {
        return AddrMode::Mcast8(dst[15]);
    }
    if dst[2..13].iter().all(|&b| b == 0) {
        return AddrMode::Mcast32([dst[1], dst[13], dst[14], dst[15]]);
    }
    if dst[2..11].iter().all(|&b| b == 0) {
        return AddrMode::Mcast48([dst[1], dst[11], dst[12], dst[13], dst[14], dst[15]]);
    }
    AddrMode::Full(*dst)
}

fn addr_mode_bits(mode: &AddrMode) -> u8 {
    match mode {
        AddrMode::Full(_) => 0b00,
        AddrMode::Iid(_) | AddrMode::Mcast48(_) => 0b01,
        AddrMode::Short(_) | AddrMode::Mcast32(_) => 0b10,
        AddrMode::Elided | AddrMode::Mcast8(_) => 0b11,
    }
}

fn push_addr(out: &mut Vec<u8>, mode: &AddrMode) {
    match mode {
        AddrMode::Full(a) => out.extend_from_slice(a),
        AddrMode::Iid(i) => out.extend_from_slice(i),
        AddrMode::Short(s) => out.extend_from_slice(s),
        AddrMode::Elided => {}
        AddrMode::Mcast8(b) => out.push(*b),
        AddrMode::Mcast32(b) => out.extend_from_slice(b),
        AddrMode::Mcast48(b) => out.extend_from_slice(b),
    }
}

/// Append the IPHC base header for `h` on the link `ctx` to `out`: the
/// two dispatch bytes and every inline field, up to where the NHC UDP
/// header or the payload starts.
fn encode_base(h: &Header, ctx: &LinkContext, out: &mut Vec<u8>) {
    // --- TF bits ---
    let tf_bits = if h.traffic_class == 0 && h.flow_label == 0 {
        0b11
    } else if h.flow_label == 0 {
        0b10
    } else {
        0b00 // full ECN+DSCP+flow label (4 bytes, RFC 6282 figure)
    };
    let nh_bit = u8::from(h.udp_nhc);
    // --- HLIM bits ---
    let hlim_bits = match h.hop_limit {
        1 => 0b01,
        64 => 0b10,
        255 => 0b11,
        _ => 0b00,
    };
    // --- addresses ---
    let unspecified = h.src == [0u8; 16];
    // SAC=1, SAM=00 encodes ::, no inline bytes.
    let (sac, sam_mode) = if unspecified {
        (1u8, AddrMode::Elided)
    } else {
        (0u8, classify_unicast(&h.src, &ctx.src))
    };
    let sam_bits = if unspecified {
        0b00
    } else {
        addr_mode_bits(&sam_mode)
    };
    let multicast = h.dst[0] == 0xff;
    let dam_mode = if multicast {
        classify_multicast(&h.dst)
    } else {
        classify_unicast(&h.dst, &ctx.dst)
    };

    out.push(DISPATCH_IPHC | (tf_bits << 3) | (nh_bit << 2) | hlim_bits);
    out.push((sac << 6) | (sam_bits << 4) | (u8::from(multicast) << 3) | addr_mode_bits(&dam_mode));
    match tf_bits {
        0b10 => out.push(h.traffic_class),
        0b00 => out.extend_from_slice(&[
            h.traffic_class,
            ((h.flow_label >> 16) & 0x0F) as u8,
            (h.flow_label >> 8) as u8,
            h.flow_label as u8,
        ]),
        _ => {}
    }
    if !h.udp_nhc {
        out.push(h.next_header);
    }
    if hlim_bits == 0b00 {
        out.push(h.hop_limit);
    }
    push_addr(out, &sam_mode);
    push_addr(out, &dam_mode);
}

/// Compress a complete IPv6 datagram with IPHC, appending the 6LoWPAN
/// frame payload to `out`. On error `out` is left as it was.
fn compress_into(packet: &[u8], ctx: &LinkContext, out: &mut Vec<u8>) -> Result<(), Error> {
    let h = parse_ipv6(packet)?;
    let payload = &packet[IPV6_HDR_LEN..];
    out.reserve(packet.len());
    encode_base(&h, ctx, out);
    if h.udp_nhc {
        nhc::compress_udp(payload, out).expect("compressibility checked by parse_ipv6");
    } else {
        out.extend_from_slice(payload);
    }
    Ok(())
}

/// [`encode_frame`] into `out` (appended).
pub fn encode_frame_into(packet: &[u8], ctx: &LinkContext, out: &mut Vec<u8>) {
    if compress_into(packet, ctx, out).is_err() {
        out.reserve(1 + packet.len());
        out.push(DISPATCH_IPV6);
        out.extend_from_slice(packet);
    }
}

/// Encode with automatic fallback: IPHC when possible, otherwise the
/// uncompressed dispatch.
pub fn encode_frame(packet: &[u8], ctx: &LinkContext) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(packet, ctx, &mut out);
    out
}

/// Append a relayed frame to `out`: the base header of `h` (whose hop
/// limit the caller has already lowered) for the next hop's link
/// `ctx`, then `rest` — the received frame after its base header —
/// verbatim. For a frame [`encode_frame`] emitted, this equals
/// decompressing and recompressing.
pub fn encode_relay(h: &Header, rest: &[u8], ctx: &LinkContext, out: &mut Vec<u8>) {
    out.reserve(IPV6_HDR_LEN + rest.len());
    encode_base(h, ctx, out);
    out.extend_from_slice(rest);
}

/// [`decode_frame`] into `out` (appended). On error `out` is left as
/// it was.
pub fn decode_frame_into(frame: &[u8], ctx: &LinkContext, out: &mut Vec<u8>) -> Result<(), Error> {
    if frame.is_empty() {
        return Err(Error::Truncated);
    }
    if frame[0] == DISPATCH_IPV6 {
        parse_ipv6(&frame[1..])?;
        out.extend_from_slice(&frame[1..]);
        return Ok(());
    }
    if frame[0] & DISPATCH_IPHC_MASK == DISPATCH_IPHC {
        let (h, at) = parse(frame, ctx)?;
        datagram_into(&h, &frame[at..], out);
        return Ok(());
    }
    Err(Error::Unsupported)
}

/// Decode a 6LoWPAN frame payload (either dispatch) back into a full
/// IPv6 datagram.
pub fn decode_frame(frame: &[u8], ctx: &LinkContext) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    decode_frame_into(frame, ctx, &mut out)?;
    Ok(out)
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn byte(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
}

/// Parse an IPHC frame's base header. Returns the decoded header and
/// the offset where the rest of the frame (NHC UDP header or payload)
/// starts. Validates the whole frame, so a frame that parses also
/// decodes ([`datagram_into`]).
pub fn parse(frame: &[u8], ctx: &LinkContext) -> Result<(Header, usize), Error> {
    let mut r = Reader { buf: frame, pos: 0 };
    let byte1 = r.byte()?;
    let byte2 = r.byte()?;
    if byte1 & DISPATCH_IPHC_MASK != DISPATCH_IPHC {
        return Err(Error::Unsupported);
    }
    let tf = (byte1 >> 3) & 0b11;
    let nh_compressed = byte1 & 0b100 != 0;
    let hlim_bits = byte1 & 0b11;
    let cid = byte2 & 0x80 != 0;
    let sac = byte2 & 0x40 != 0;
    let sam = (byte2 >> 4) & 0b11;
    let m = byte2 & 0x08 != 0;
    let dac = byte2 & 0x04 != 0;
    let dam = byte2 & 0b11;

    if cid || dac {
        // Context-based compression: out of scope (stateless only).
        return Err(Error::Unsupported);
    }

    let (traffic_class, flow_label) = match tf {
        0b00 => {
            let b = r.take(4)?;
            (
                b[0],
                ((b[1] as u32 & 0x0F) << 16) | ((b[2] as u32) << 8) | b[3] as u32,
            )
        }
        0b01 => {
            let b = r.take(3)?;
            // ECN in top 2 bits, DSCP elided.
            (
                b[0] & 0xC0,
                ((b[0] as u32 & 0x0F) << 16) | ((b[1] as u32) << 8) | b[2] as u32,
            )
        }
        0b10 => (r.byte()?, 0),
        _ => (0, 0),
    };

    let next_header = if nh_compressed { PROTO_UDP } else { r.byte()? };

    let hop_limit = match hlim_bits {
        0b00 => r.byte()?,
        0b01 => 1,
        0b10 => 64,
        _ => 255,
    };

    let src = if sac {
        if sam != 0 {
            return Err(Error::Unsupported);
        }
        [0u8; 16] // unspecified ::
    } else {
        read_unicast(&mut r, sam, &ctx.src)?
    };

    let dst = if m {
        read_multicast(&mut r, dam)?
    } else {
        read_unicast(&mut r, dam, &ctx.dst)?
    };

    // Remaining bytes: NHC-compressed UDP or raw payload.
    let rest = &frame[r.pos..];
    let payload_len = if nh_compressed {
        nhc::parse_udp(rest)?.datagram_len(rest)
    } else {
        rest.len()
    };
    Ok((
        Header {
            traffic_class,
            flow_label,
            next_header,
            hop_limit,
            src,
            dst,
            payload_len,
            udp_nhc: nh_compressed,
        },
        r.pos,
    ))
}

/// Append the IPv6 datagram a parsed frame decodes to: header `h` and
/// `rest` as [`parse`] split the frame (`h` possibly with a new hop
/// limit).
pub fn datagram_into(h: &Header, rest: &[u8], out: &mut Vec<u8>) {
    out.reserve(IPV6_HDR_LEN + h.payload_len);
    out.extend_from_slice(&h.ipv6_bytes());
    if h.udp_nhc {
        nhc::decompress_udp(rest, out).expect("validated by parse");
    } else {
        out.extend_from_slice(rest);
    }
}

fn read_unicast(r: &mut Reader<'_>, mode: u8, ll: &crate::LlAddr) -> Result<[u8; 16], Error> {
    let mut addr = [0u8; 16];
    match mode {
        0b00 => addr.copy_from_slice(r.take(16)?),
        0b01 => {
            addr[0] = 0xfe;
            addr[1] = 0x80;
            addr[8..].copy_from_slice(r.take(8)?);
        }
        0b10 => {
            addr[0] = 0xfe;
            addr[1] = 0x80;
            addr[11] = 0xff;
            addr[12] = 0xfe;
            let b = r.take(2)?;
            addr[14] = b[0];
            addr[15] = b[1];
        }
        _ => {
            addr[0] = 0xfe;
            addr[1] = 0x80;
            addr[8..].copy_from_slice(&ll.iid());
        }
    }
    Ok(addr)
}

fn read_multicast(r: &mut Reader<'_>, mode: u8) -> Result<[u8; 16], Error> {
    let mut addr = [0u8; 16];
    addr[0] = 0xff;
    match mode {
        0b00 => addr.copy_from_slice(r.take(16)?),
        0b01 => {
            let b = r.take(6)?;
            addr[1] = b[0];
            addr[11..].copy_from_slice(&b[1..]);
        }
        0b10 => {
            let b = r.take(4)?;
            addr[1] = b[0];
            addr[13..].copy_from_slice(&b[1..]);
        }
        _ => {
            addr[1] = 0x02;
            addr[15] = r.byte()?;
        }
    }
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LlAddr;

    fn ctx() -> LinkContext {
        LinkContext {
            src: LlAddr::from_node_index(1),
            dst: LlAddr::from_node_index(2),
        }
    }

    /// Build a valid IPv6 packet.
    fn ipv6(
        tc: u8,
        fl: u32,
        nh: u8,
        hlim: u8,
        src: [u8; 16],
        dst: [u8; 16],
        payload: &[u8],
    ) -> Vec<u8> {
        let mut p = vec![
            0x60 | (tc >> 4),
            ((tc & 0x0F) << 4) | ((fl >> 16) as u8 & 0x0F),
            (fl >> 8) as u8,
            fl as u8,
        ];
        p.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        p.push(nh);
        p.push(hlim);
        p.extend_from_slice(&src);
        p.extend_from_slice(&dst);
        p.extend_from_slice(payload);
        p
    }

    fn roundtrip(packet: &[u8]) -> (usize, Vec<u8>) {
        let c = encode_frame(packet, &ctx());
        let d = decode_frame(&c, &ctx()).expect("decode");
        (c.len(), d)
    }

    #[test]
    fn best_case_link_local_compresses_to_two_bytes() {
        // Both addresses derived from link context, hop limit 64,
        // tc/fl zero, non-UDP payload → 2 IPHC bytes + 1 NH byte.
        let p = ipv6(
            0,
            0,
            59, // no-next-header
            64,
            LlAddr::from_node_index(1).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"",
        );
        let (clen, d) = roundtrip(&p);
        assert_eq!(d, p);
        assert_eq!(clen, 3, "expected 3-byte compressed header");
    }

    #[test]
    fn global_addresses_fall_back_to_full_inline() {
        let mut src = [0u8; 16];
        src[0] = 0x20;
        src[1] = 0x01;
        src[15] = 1;
        let mut dst = src;
        dst[15] = 2;
        let p = ipv6(0, 0, 59, 64, src, dst, b"xy");
        let (clen, d) = roundtrip(&p);
        assert_eq!(d, p);
        // 2 IPHC + 1 NH + 32 addr + 2 payload
        assert_eq!(clen, 37);
        assert!(clen < p.len());
    }

    #[test]
    fn nonzero_traffic_class_carried() {
        let p = ipv6(
            0xB8,
            0,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"q",
        );
        let (_, d) = roundtrip(&p);
        assert_eq!(d, p);
    }

    #[test]
    fn nonzero_flow_label_carried() {
        let p = ipv6(
            0x04,
            0xABCDE,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"q",
        );
        let (_, d) = roundtrip(&p);
        assert_eq!(d, p);
    }

    #[test]
    fn odd_hop_limits_inline() {
        for hlim in [1u8, 2, 63, 64, 200, 255] {
            let p = ipv6(
                0,
                0,
                59,
                hlim,
                LlAddr::from_node_index(1).link_local(),
                LlAddr::from_node_index(2).link_local(),
                b"abc",
            );
            let (_, d) = roundtrip(&p);
            assert_eq!(d, p, "hop limit {hlim}");
        }
    }

    #[test]
    fn short_form_16bit_addresses() {
        // fe80::ff:fe00:XXXX (matches our LlAddr layout only when the
        // upper IID bytes are the ff:fe pattern with zero prefix).
        let mut src = [0u8; 16];
        src[0] = 0xfe;
        src[1] = 0x80;
        src[11] = 0xff;
        src[12] = 0xfe;
        src[14] = 0x12;
        src[15] = 0x34;
        let p = ipv6(
            0,
            0,
            59,
            64,
            src,
            LlAddr::from_node_index(2).link_local(),
            b"z",
        );
        let (clen, d) = roundtrip(&p);
        assert_eq!(d, p);
        // 2 IPHC + 1 NH + 2 src + 0 dst + 1 payload
        assert_eq!(clen, 6);
    }

    #[test]
    fn foreign_node_address_uses_16bit_form() {
        // Node 9 is not the frame's link-layer source, but its IID
        // matches the fe80::ff:fe00:XXXX pattern → 16-bit SAM.
        let p = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(9).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"z",
        );
        let (clen, d) = roundtrip(&p);
        assert_eq!(d, p);
        assert_eq!(clen, 2 + 1 + 2 + 1);
    }

    #[test]
    fn foreign_link_local_iid_inline_64() {
        // A link-local address whose IID matches neither the link
        // context nor the short form must carry the full 64-bit IID.
        let mut src = [0u8; 16];
        src[0] = 0xfe;
        src[1] = 0x80;
        src[8..].copy_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22]);
        let p = ipv6(
            0,
            0,
            59,
            64,
            src,
            LlAddr::from_node_index(2).link_local(),
            b"z",
        );
        let (clen, d) = roundtrip(&p);
        assert_eq!(d, p);
        assert_eq!(clen, 2 + 1 + 8 + 1);
    }

    #[test]
    fn multicast_all_nodes_one_byte() {
        let mut dst = [0u8; 16];
        dst[0] = 0xff;
        dst[1] = 0x02;
        dst[15] = 0x01; // ff02::1
        let p = ipv6(
            0,
            0,
            59,
            255,
            LlAddr::from_node_index(1).link_local(),
            dst,
            b"m",
        );
        let (clen, d) = roundtrip(&p);
        assert_eq!(d, p);
        assert_eq!(clen, 2 + 1 + 1 + 1);
    }

    #[test]
    fn multicast_wider_scopes() {
        // 32-bit form: ff05::1:3 (DHCP relay agents example).
        let mut dst = [0u8; 16];
        dst[0] = 0xff;
        dst[1] = 0x05;
        dst[13] = 0x01;
        dst[15] = 0x03;
        let p = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            dst,
            b"",
        );
        let (_, d) = roundtrip(&p);
        assert_eq!(d, p);
        // 48-bit form.
        let mut dst2 = [0u8; 16];
        dst2[0] = 0xff;
        dst2[1] = 0x08;
        dst2[11] = 0xAA;
        dst2[15] = 0x01;
        let p2 = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            dst2,
            b"",
        );
        let (_, d2) = roundtrip(&p2);
        assert_eq!(d2, p2);
        // Full 128-bit multicast.
        let mut dst3 = [0xEEu8; 16];
        dst3[0] = 0xff;
        let p3 = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            dst3,
            b"",
        );
        let (_, d3) = roundtrip(&p3);
        assert_eq!(d3, p3);
    }

    #[test]
    fn unspecified_source() {
        let p = ipv6(
            0,
            0,
            59,
            255,
            [0u8; 16],
            LlAddr::from_node_index(2).link_local(),
            b"dad",
        );
        let (_, d) = roundtrip(&p);
        assert_eq!(d, p);
    }

    #[test]
    fn non_ipv6_rejected() {
        let mut p = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"",
        );
        p[0] = 0x40; // version 4
        assert!(compress_into(&p, &ctx(), &mut Vec::new()).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut p = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"abc",
        );
        p.pop();
        assert_eq!(
            compress_into(&p, &ctx(), &mut Vec::new()),
            Err(Error::Malformed)
        );
    }

    #[test]
    fn truncated_iphc_rejected() {
        let p = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(9).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"",
        );
        let c = encode_frame(&p, &ctx());
        for cut in 1..c.len().min(10) {
            assert!(
                decode_frame(&c[..cut], &ctx()).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn uncompressed_dispatch_roundtrip() {
        let p = ipv6(
            0,
            0,
            59,
            64,
            LlAddr::from_node_index(1).link_local(),
            LlAddr::from_node_index(2).link_local(),
            b"raw",
        );
        let mut framed = Vec::with_capacity(1 + p.len());
        framed.push(DISPATCH_IPV6);
        framed.extend_from_slice(&p);
        assert_eq!(decode_frame(&framed, &ctx()).unwrap(), p);
    }
}
