//! 6LoWPAN fragmentation and reassembly (RFC 4944 §5.3).
//!
//! Used on the IEEE 802.15.4 path, where the 127 B frame cannot hold a
//! full IPv6 packet. The paper keeps its packets at 100 B precisely to
//! *avoid* fragmentation in the comparison experiments (§4.3), but a
//! complete stack must handle larger datagrams — and our test suite
//! exercises this path with CoAP payloads beyond one frame.
//!
//! Framing: `FRAG1` = `11000` dispatch + 11-bit datagram size + 16-bit
//! tag, then the first chunk. `FRAGN` = `11100` dispatch + size + tag +
//! 8-bit offset (in 8-byte units), then a chunk. As noted in the crate
//! docs, size/offset describe the byte stream being fragmented (the
//! compressed datagram), consistently at both ends.

use std::collections::HashMap;

use crate::Error;

const FRAG1_DISPATCH: u8 = 0b1100_0000;
const FRAGN_DISPATCH: u8 = 0b1110_0000;
const DISPATCH_MASK: u8 = 0b1111_1000;
/// FRAG1 header bytes.
pub const FRAG1_HDR: usize = 4;
/// FRAGN header bytes.
pub const FRAGN_HDR: usize = 5;
/// Offsets are expressed in units of 8 bytes.
const OFFSET_UNIT: usize = 8;
/// Maximum datagram size encodable in the 11-bit field.
pub const MAX_DATAGRAM: usize = 0x7FF;

/// `true` if a frame payload starts with a fragmentation dispatch.
pub fn is_fragment(frame: &[u8]) -> bool {
    !frame.is_empty()
        && (frame[0] & DISPATCH_MASK == FRAG1_DISPATCH
            || frame[0] & DISPATCH_MASK == FRAGN_DISPATCH)
}

/// Split `datagram` into link frames of at most `link_mtu` bytes each
/// (headers included). Panics on a datagram too large for the size
/// field or an MTU too small to make progress.
pub fn fragment(datagram: &[u8], tag: u16, link_mtu: usize) -> Vec<Vec<u8>> {
    assert!(
        datagram.len() <= MAX_DATAGRAM,
        "datagram too large to fragment"
    );
    assert!(
        link_mtu > FRAGN_HDR + OFFSET_UNIT,
        "link MTU {link_mtu} cannot carry fragments"
    );
    let size_tag = |dispatch: u8| -> [u8; 4] {
        let size = datagram.len() as u16;
        [
            dispatch | ((size >> 8) as u8 & 0x07),
            size as u8,
            (tag >> 8) as u8,
            tag as u8,
        ]
    };

    let mut frames = Vec::new();
    // First fragment: as much as fits, rounded down to 8-byte units
    // (required so later offsets are expressible).
    let first_room = (link_mtu - FRAG1_HDR) / OFFSET_UNIT * OFFSET_UNIT;
    let first_len = first_room.min(datagram.len());
    let mut frame = Vec::with_capacity(FRAG1_HDR + first_len);
    frame.extend_from_slice(&size_tag(FRAG1_DISPATCH));
    frame.extend_from_slice(&datagram[..first_len]);
    frames.push(frame);

    let mut offset = first_len;
    while offset < datagram.len() {
        let room = (link_mtu - FRAGN_HDR) / OFFSET_UNIT * OFFSET_UNIT;
        let len = room.min(datagram.len() - offset);
        let mut frame = Vec::with_capacity(FRAGN_HDR + len);
        frame.extend_from_slice(&size_tag(FRAGN_DISPATCH));
        frame.push((offset / OFFSET_UNIT) as u8);
        frame.extend_from_slice(&datagram[offset..offset + len]);
        frames.push(frame);
        offset += len;
    }
    frames
}

/// Key identifying one datagram's fragments: (sender id, tag).
type Key = (u64, u16);

struct Partial {
    size: usize,
    received: usize,
    buf: Vec<u8>,
    have: Vec<bool>, // per 8-byte unit
    deadline: u64,
}

/// Reassembly engine. The caller provides opaque sender ids and a
/// monotonic timestamp (nanoseconds); stale partial datagrams are
/// discarded by [`Reassembler::expire`], mirroring the 60 s reassembly
/// timeout of RFC 4944.
pub struct Reassembler {
    partials: HashMap<Key, Partial>,
    timeout_ns: u64,
    timeouts: u64,
}

impl Reassembler {
    /// A reassembler with the given per-datagram timeout.
    pub fn new(timeout_ns: u64) -> Self {
        Reassembler {
            partials: HashMap::new(),
            timeout_ns,
            timeouts: 0,
        }
    }

    /// Feed one fragment frame from `sender`. Returns the complete
    /// datagram when the last fragment arrives.
    pub fn on_fragment(
        &mut self,
        sender: u64,
        frame: &[u8],
        now_ns: u64,
    ) -> Result<Option<Vec<u8>>, Error> {
        if frame.len() < FRAG1_HDR {
            return Err(Error::Truncated);
        }
        let dispatch = frame[0] & DISPATCH_MASK;
        let size = (((frame[0] & 0x07) as usize) << 8) | frame[1] as usize;
        let tag = u16::from_be_bytes([frame[2], frame[3]]);
        let (offset, data) = match dispatch {
            FRAG1_DISPATCH => (0usize, &frame[FRAG1_HDR..]),
            FRAGN_DISPATCH => {
                if frame.len() < FRAGN_HDR {
                    return Err(Error::Truncated);
                }
                (frame[4] as usize * OFFSET_UNIT, &frame[FRAGN_HDR..])
            }
            _ => return Err(Error::Unsupported),
        };
        if offset + data.len() > size {
            return Err(Error::BadFragment);
        }

        let key = (sender, tag);
        let units = size.div_ceil(OFFSET_UNIT);
        let p = self.partials.entry(key).or_insert_with(|| Partial {
            size,
            received: 0,
            buf: vec![0; size],
            have: vec![false; units],
            deadline: now_ns.saturating_add(self.timeout_ns),
        });
        if p.size != size {
            // Same tag reused with a different size: drop the old state
            // and start over with this fragment.
            *p = Partial {
                size,
                received: 0,
                buf: vec![0; size],
                have: vec![false; units],
                deadline: now_ns.saturating_add(self.timeout_ns),
            };
        }
        let first_unit = offset / OFFSET_UNIT;
        let n_units = data.len().div_ceil(OFFSET_UNIT);
        // Duplicate fragments are benign (link-layer retransmission);
        // ignore units we already hold.
        let mut fresh = 0usize;
        for u in first_unit..first_unit + n_units {
            if u >= p.have.len() {
                return Err(Error::BadFragment);
            }
            if !p.have[u] {
                p.have[u] = true;
                fresh += 1;
            }
        }
        if fresh > 0 {
            p.buf[offset..offset + data.len()].copy_from_slice(data);
            p.received += data.len();
        }
        if p.have.iter().all(|&h| h) {
            let done = self.partials.remove(&key).expect("present");
            return Ok(Some(done.buf));
        }
        Ok(None)
    }

    /// Discard partial datagrams whose deadline passed. Returns how
    /// many were dropped.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let before = self.partials.len();
        self.partials.retain(|_, p| p.deadline > now_ns);
        let dropped = before - self.partials.len();
        self.timeouts += dropped as u64;
        dropped
    }

    /// Number of datagrams currently being reassembled.
    pub fn in_progress(&self) -> usize {
        self.partials.len()
    }

    /// Total datagrams dropped by timeout so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datagram(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7) as u8).collect()
    }

    #[test]
    fn fragment_respects_mtu() {
        let d = datagram(300);
        let frames = fragment(&d, 1, 96);
        assert!(frames.len() >= 4);
        for f in &frames {
            assert!(f.len() <= 96, "frame {} over MTU", f.len());
        }
    }

    #[test]
    fn roundtrip_in_order() {
        let d = datagram(500);
        let frames = fragment(&d, 42, 96);
        let mut r = Reassembler::new(60_000_000_000);
        let mut out = None;
        for f in &frames {
            assert!(is_fragment(f));
            out = r.on_fragment(1, f, 0).unwrap().or(out);
        }
        assert_eq!(out.unwrap(), d);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn roundtrip_out_of_order() {
        let d = datagram(500);
        let mut frames = fragment(&d, 42, 96);
        frames.reverse();
        let mut r = Reassembler::new(60_000_000_000);
        let mut out = None;
        for f in &frames {
            out = r.on_fragment(1, f, 0).unwrap().or(out);
        }
        assert_eq!(out.unwrap(), d);
    }

    #[test]
    fn duplicates_are_ignored() {
        let d = datagram(200);
        let frames = fragment(&d, 7, 96);
        let mut r = Reassembler::new(60_000_000_000);
        assert!(r.on_fragment(1, &frames[0], 0).unwrap().is_none());
        assert!(r.on_fragment(1, &frames[0], 0).unwrap().is_none());
        let mut out = None;
        for f in &frames[1..] {
            out = r.on_fragment(1, f, 0).unwrap().or(out);
        }
        assert_eq!(out.unwrap(), d);
    }

    #[test]
    fn interleaved_senders_do_not_mix() {
        let da = datagram(200);
        let db: Vec<u8> = datagram(200).iter().map(|b| b ^ 0xFF).collect();
        let fa = fragment(&da, 5, 96);
        let fb = fragment(&db, 5, 96); // same tag, different sender
        let mut r = Reassembler::new(60_000_000_000);
        let mut got = Vec::new();
        for (a, b) in fa.iter().zip(fb.iter()) {
            if let Some(d) = r.on_fragment(1, a, 0).unwrap() {
                got.push(d);
            }
            if let Some(d) = r.on_fragment(2, b, 0).unwrap() {
                got.push(d);
            }
        }
        assert_eq!(got.len(), 2);
        assert!(got.contains(&da));
        assert!(got.contains(&db));
    }

    #[test]
    fn expiry_drops_stale_partials() {
        let d = datagram(300);
        let frames = fragment(&d, 3, 96);
        let mut r = Reassembler::new(1_000);
        let _ = r.on_fragment(1, &frames[0], 0).unwrap();
        assert_eq!(r.in_progress(), 1);
        assert_eq!(r.expire(500), 0);
        assert_eq!(r.expire(2_000), 1);
        assert_eq!(r.in_progress(), 0);
        assert_eq!(r.timeouts(), 1);
    }

    #[test]
    fn oversize_fragment_rejected() {
        let d = datagram(64);
        let mut frames = fragment(&d, 9, 96);
        // Corrupt the size field downward so data overflows it.
        frames[0][1] = 8;
        frames[0][0] &= !0x07;
        let mut r = Reassembler::new(1_000_000);
        assert_eq!(r.on_fragment(1, &frames[0], 0), Err(Error::BadFragment));
    }

    #[test]
    fn small_datagram_single_fragment() {
        let d = datagram(40);
        let frames = fragment(&d, 1, 96);
        assert_eq!(frames.len(), 1);
        let mut r = Reassembler::new(1_000_000);
        assert_eq!(r.on_fragment(1, &frames[0], 0).unwrap().unwrap(), d);
    }

    #[test]
    fn non_fragment_dispatch_rejected() {
        let mut r = Reassembler::new(1_000_000);
        assert_eq!(
            r.on_fragment(1, &[0x60, 0, 0, 0], 0),
            Err(Error::Unsupported)
        );
        assert!(!is_fragment(&[0x60]));
    }

    #[test]
    #[should_panic]
    fn tiny_mtu_panics() {
        let _ = fragment(&datagram(100), 1, 10);
    }
}
