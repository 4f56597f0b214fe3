//! Randomized tests over the wire codecs, spanning crates.
//!
//! Each property is a structural invariant a fuzzer would look for:
//! round-trips are identity, decoders never panic on arbitrary bytes,
//! compression never corrupts. Cases are generated from the kernel's
//! deterministic [`Rng`] (one seed per case), so every run explores
//! the same inputs and failures reproduce exactly.

use mindgap::ble::pdu::{DataPdu, Llid};
use mindgap::coap::{Code, Message, MessageView, MsgType, OptionNumber};
use mindgap::net::{udp, Ipv6Addr, Ipv6Header, NextHeader};
use mindgap::sim::Rng;
use mindgap::sixlowpan::{frag, iphc, LinkContext, LlAddr};

const CASES: u64 = 64;

fn ctx(a: u16, b: u16) -> LinkContext {
    LinkContext {
        src: LlAddr::from_node_index(a),
        dst: LlAddr::from_node_index(b),
    }
}

fn random_bytes(rng: &mut Rng, max_len: u64) -> Vec<u8> {
    let n = rng.below(max_len + 1) as usize;
    (0..n).map(|_| rng.below(256) as u8).collect()
}

/// UDP encode → decode is the identity on (ports, payload), and
/// the checksum always verifies.
#[test]
fn udp_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C001 ^ case);
        let sp = rng.below(1 << 16) as u16;
        let dp = rng.below(1 << 16) as u16;
        let a = rng.below(100) as u16;
        let b = rng.below(100) as u16;
        let payload = random_bytes(&mut rng, 599);
        let src = Ipv6Addr::of_node(a);
        let dst = Ipv6Addr::of_node(b);
        let dgram = udp::encode(&src, &dst, sp, dp, &payload);
        let (hdr, data) = udp::decode(&src, &dst, &dgram).expect("verify");
        assert_eq!(hdr.src_port, sp);
        assert_eq!(hdr.dst_port, dp);
        assert_eq!(data, &payload[..]);
    }
}

/// A single corrupted byte anywhere in a UDP datagram is detected
/// (length or checksum), except in the checksum field itself when
/// the flip produces the alternate zero representation.
#[test]
fn udp_detects_single_byte_corruption() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C002 ^ case);
        let payload: Vec<u8> = {
            let n = rng.range_inclusive(1, 99) as usize;
            (0..n).map(|_| rng.below(256) as u8).collect()
        };
        let src = Ipv6Addr::of_node(1);
        let dst = Ipv6Addr::of_node(2);
        let mut dgram = udp::encode(&src, &dst, 5683, 5683, &payload);
        let idx = rng.below(dgram.len() as u64) as usize;
        let flip_bit = rng.below(8) as u8;
        dgram[idx] ^= 1 << flip_bit;
        if let Ok((_, data)) = udp::decode(&src, &dst, &dgram) {
            // Accepted ⇒ semantically identical payload & the flip hit
            // the checksum's redundant encoding.
            assert_eq!(data, &payload[..]);
            assert!((6..8).contains(&idx));
        }
    }
}

/// IPv6 header encode/decode identity.
#[test]
fn ipv6_header_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C003 ^ case);
        let hdr = Ipv6Header {
            traffic_class: rng.below(256) as u8,
            flow_label: rng.below(1 << 20) as u32,
            payload_len: rng.below(512) as u16,
            next_header: NextHeader::from(rng.below(256) as u8),
            hop_limit: rng.below(256) as u8,
            src: Ipv6Addr::of_node(rng.below(1000) as u16),
            dst: Ipv6Addr::of_node(rng.below(1000) as u16),
        };
        let mut bytes = hdr.encode().to_vec();
        bytes.extend(std::iter::repeat_n(0u8, hdr.payload_len as usize));
        assert_eq!(Ipv6Header::decode(&bytes).unwrap(), hdr);
    }
}

/// IPHC compress → decompress is the identity for any UDP packet
/// between link-local nodes, with any traffic class, flow label
/// and hop limit.
#[test]
fn iphc_roundtrip_udp() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C004 ^ case);
        let a = rng.below(64) as u16;
        let b = (a + 1 + rng.below(63) as u16) % 64;
        if a == b {
            continue;
        }
        let tc = rng.below(256) as u8;
        let fl = rng.below(1 << 20) as u32;
        let hlim = rng.range_inclusive(1, 255) as u8;
        let sp = rng.below(1 << 16) as u16;
        let dp = rng.below(1 << 16) as u16;
        let payload = random_bytes(&mut rng, 255);
        let src = Ipv6Addr::of_node(a);
        let dst = Ipv6Addr::of_node(b);
        let dgram = udp::encode(&src, &dst, sp, dp, &payload);
        let mut packet = Ipv6Header::build_packet(NextHeader::Udp, src, dst, &dgram);
        packet[0] = 0x60 | (tc >> 4);
        packet[1] = ((tc & 0x0F) << 4) | ((fl >> 16) as u8 & 0x0F);
        packet[2] = (fl >> 8) as u8;
        packet[3] = fl as u8;
        packet[7] = hlim;
        let frame = iphc::encode_frame(&packet, &ctx(a, b));
        let back = iphc::decode_frame(&frame, &ctx(a, b)).expect("roundtrip");
        assert_eq!(back, packet);
    }
}

/// The IPHC decoder never panics on arbitrary input bytes.
#[test]
fn iphc_decoder_total() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C005 ^ case);
        let bytes = random_bytes(&mut rng, 299);
        let _ = iphc::decode_frame(&bytes, &ctx(1, 2));
    }
}

/// A relay's frame — the next hop's base header, then the received
/// frame after its base header, verbatim — is byte for byte what
/// decompressing, lowering the hop limit and recompressing gives, for
/// every packet the encoder emits. On arbitrary bytes, a frame that
/// parses decodes, to the datagram `datagram_into` rebuilds.
#[test]
fn iphc_relay_matches_recompression() {
    let mut relayed = 0;
    for case in 0..4 * CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C00D ^ case);
        let (prev, relay, next) = (
            rng.below(64) as u16,
            64 + rng.below(64) as u16,
            128 + rng.below(64) as u16,
        );
        let (in_ctx, out_ctx) = (ctx(prev, relay), ctx(relay, next));
        let own = case % 4 != 3;
        let pick = |rng: &mut Rng, own: u16| match rng.below(5) {
            0 => LlAddr::from_node_index(own).link_local(),
            1 => [0u8; 16],
            2 => {
                let mut g = [0x20u8; 16];
                g[15] = rng.below(256) as u8;
                g
            }
            3 => {
                let mut m = [0u8; 16];
                m[0] = 0xff;
                m[1] = rng.below(16) as u8;
                m[15] = rng.below(256) as u8;
                m[11] = if rng.chance(0.5) { 0 } else { 7 };
                m
            }
            _ => Ipv6Addr::of_node(rng.below(1000) as u16).octets(),
        };
        let (src, dst) = (pick(&mut rng, prev), pick(&mut rng, relay));
        let (src, dst) = (Ipv6Addr(src), Ipv6Addr(dst));
        let data = random_bytes(&mut rng, 120);
        let ports = [5683, 0xF0B3, 0xF042, rng.below(1 << 16) as u16];
        let (sp, dp) = (ports[rng.below(4) as usize], ports[rng.below(4) as usize]);
        let (nh, body) = if rng.chance(0.7) {
            (NextHeader::Udp, udp::encode(&src, &dst, sp, dp, &data))
        } else {
            (NextHeader::from(rng.below(256) as u8), data)
        };
        let mut packet = Ipv6Header::build_packet(nh, src, dst, &body);
        let tc = [0, 0, rng.below(256) as u8][rng.below(3) as usize];
        let fl = [0, rng.below(1 << 20) as u32][rng.below(2) as usize];
        packet[0] = 0x60 | (tc >> 4);
        packet[1] = ((tc & 0x0F) << 4) | ((fl >> 16) as u8 & 0x0F);
        packet[2] = (fl >> 8) as u8;
        packet[3] = fl as u8;
        packet[7] = [1, 2, 64, 65, 255, rng.below(256) as u8][rng.below(6) as usize];
        let mut frame = iphc::encode_frame(&packet, &in_ctx);
        if !own {
            frame = random_bytes(&mut rng, 120);
            if let Some(b) = frame.first_mut() {
                *b = iphc::DISPATCH_IPHC | (*b & 0x1F);
            }
        }
        let Ok((h, at)) = iphc::parse(&frame, &in_ctx) else {
            assert!(!own, "the encoder's own frames parse");
            assert!(iphc::decode_frame(&frame, &in_ctx).is_err());
            continue;
        };
        let decoded = iphc::decode_frame(&frame, &in_ctx).expect("a parsed frame decodes");
        let rest = &frame[at..];
        let mut rebuilt = Vec::new();
        iphc::datagram_into(&h, rest, &mut rebuilt);
        assert_eq!(rebuilt, decoded);
        if !own {
            continue;
        }
        let lowered = iphc::Header {
            hop_limit: h.hop_limit.wrapping_sub(1),
            ..h
        };
        let mut want = decoded;
        want[7] = lowered.hop_limit;
        let want = iphc::encode_frame(&want, &out_ctx);
        let mut got = vec![0xEE];
        iphc::encode_relay(&lowered, rest, &out_ctx, &mut got);
        assert_eq!(got[1..], want[..], "case {case}");
        relayed += 1;
    }
    assert_eq!(relayed, 3 * CASES, "every own frame relays");
}

/// Fragmentation reassembles any datagram at any viable MTU, even
/// with fragments delivered in reverse.
#[test]
fn fragmentation_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C006 ^ case);
        let datagram: Vec<u8> = {
            let n = rng.range_inclusive(1, 1499) as usize;
            (0..n).map(|_| rng.below(256) as u8).collect()
        };
        let mtu = rng.range_inclusive(50, 127) as usize;
        let tag = rng.below(1 << 16) as u16;
        let reverse = rng.chance(0.5);
        let mut frames = frag::fragment(&datagram, tag, mtu);
        if reverse {
            frames.reverse();
        }
        let mut r = frag::Reassembler::new(u64::MAX);
        let mut out = None;
        for f in &frames {
            assert!(f.len() <= mtu);
            out = r.on_fragment(9, f, 0).expect("valid fragment").or(out);
        }
        assert_eq!(out.expect("complete"), datagram);
    }
}

/// CoAP encode → decode identity for arbitrary messages.
#[test]
fn coap_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C007 ^ case);
        let mid = rng.below(1 << 16) as u16;
        let token = random_bytes(&mut rng, 8);
        let nopts = rng.below(6) as usize;
        let opt_base = rng.range_inclusive(1, 99) as u16;
        let payload = random_bytes(&mut rng, 199);
        let con = rng.chance(0.5);
        let mut msg = Message {
            mtype: if con {
                MsgType::Confirmable
            } else {
                MsgType::NonConfirmable
            },
            code: Code::GET,
            message_id: mid,
            token,
            options: Vec::new(),
            payload,
        };
        for i in 0..nopts {
            msg.options.push((
                OptionNumber::from(opt_base + i as u16 * 37),
                vec![i as u8; i],
            ));
        }
        let enc = msg.encode();
        let dec = Message::decode(&enc).expect("roundtrip");
        // Encoder sorts options; compare as multisets.
        let mut want = msg.options.clone();
        want.sort_by_key(|(n, _)| n.value());
        assert_eq!(dec.options, want);
        assert_eq!(dec.message_id, msg.message_id);
        assert_eq!(dec.token, msg.token);
        assert_eq!(dec.payload, msg.payload);
    }
}

/// The CoAP decoder never panics on arbitrary bytes.
#[test]
fn coap_decoder_total() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C008 ^ case);
        let bytes = random_bytes(&mut rng, 299);
        let _ = Message::decode(&bytes);
    }
}

/// `MessageView::parse` accepts exactly what `Message::decode`
/// accepts, with the same error, and reads the same fields — on
/// encoded messages, on mutations of them and on arbitrary bytes.
#[test]
fn coap_view_matches_decode() {
    for case in 0..4 * CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C00E ^ case);
        let mut bytes = if case % 2 == 0 {
            let mut m = Message::request(
                MsgType::Confirmable,
                Code::GET,
                rng.below(1 << 16) as u16,
                &random_bytes(&mut rng, 8),
            );
            for i in 0..rng.below(5) {
                m.options.push((
                    OptionNumber::from(rng.below(600) as u16),
                    vec![i as u8; rng.below(300) as usize],
                ));
            }
            m.with_payload(random_bytes(&mut rng, 50)).encode()
        } else {
            random_bytes(&mut rng, 80)
        };
        if !bytes.is_empty() && rng.chance(0.5) {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = rng.below(256) as u8;
        }
        let view = MessageView::parse(&bytes).map(|v| {
            (
                v.mtype,
                v.code,
                v.message_id,
                v.token.to_vec(),
                v.payload.to_vec(),
            )
        });
        let owned =
            Message::decode(&bytes).map(|m| (m.mtype, m.code, m.message_id, m.token, m.payload));
        assert_eq!(view, owned);
    }
}

/// BLE data-PDU codec identity, and the decoder is total.
#[test]
fn ble_pdu_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C009 ^ case);
        let payload = random_bytes(&mut rng, 251);
        let pdu = DataPdu {
            llid: if payload.is_empty() {
                Llid::DataContinuation
            } else {
                Llid::DataStart
            },
            nesn: rng.chance(0.5),
            sn: rng.chance(0.5),
            md: rng.chance(0.5),
            payload,
        };
        assert_eq!(DataPdu::decode(&pdu.encode()), Some(pdu));
    }
}

#[test]
fn ble_pdu_decoder_total() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C00A ^ case);
        let bytes = random_bytes(&mut rng, 299);
        let _ = DataPdu::decode(&bytes);
    }
}

/// L2CAP K-frame segmentation and reassembly is the identity for
/// any SDU size and any link budget.
#[test]
fn l2cap_sdu_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C00B ^ case);
        let sdu = random_bytes(&mut rng, 1279);
        let max_pdu = rng.range_inclusive(27, 251) as usize;
        use mindgap::l2cap::{BufPool, CocChannel, CocConfig};
        let cfg = CocConfig::default();
        let mut a = CocChannel::symmetric(cfg, 0x40, 0x41);
        let mut b = CocChannel::symmetric(cfg, 0x41, 0x40);
        let mut pool = BufPool::new(1 << 16);
        let mut bufs = mindgap::sim::BytePool::new();
        a.send_sdu(sdu.clone(), &mut pool).expect("fits");
        let mut got = None;
        while let Some(pdu) = a.next_pdu(max_pdu, &mut pool, &mut bufs) {
            let dec = mindgap::l2cap::frame::decode_basic(&pdu).expect("frame");
            if let Some(s) = b.on_pdu(dec.payload).expect("protocol") {
                got = Some(s);
            }
            let back = b.credits_to_return();
            if back > 0 {
                a.grant(back);
            }
        }
        assert_eq!(got.expect("sdu complete"), sdu);
        assert_eq!(pool.used(), 0);
    }
}

/// CSA#2 always returns a channel inside the map, for any access
/// address, event counter and (valid) map.
#[test]
fn csa2_stays_in_map() {
    use mindgap::ble::channels::{csa2_channel, ChannelMap};
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0DE_C00C ^ case);
        let aa = rng.below(1 << 32) as u32;
        let ev = rng.below(1 << 16) as u16;
        let mask = rng.below(1 << 37);
        if mask.count_ones() < 2 {
            continue;
        }
        let map = ChannelMap::from_mask(mask);
        let ch = csa2_channel(aa, ev, map);
        assert!(map.contains(ch));
    }
}

/// Generated access addresses always satisfy the spec rules.
#[test]
fn access_addresses_valid() {
    use mindgap::ble::aa;
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(0xC0DE_C00D ^ case);
        let mut rng = Rng::seed_from_u64(meta.next_u64());
        let a = aa::generate(&mut rng);
        assert!(aa::is_valid(a));
    }
}

/// Inputs for the decoder-totality checks below: `cases` byte strings
/// of up to `max_len` bytes. Half are short (up to 24 bytes, where the
/// fixed-length checks live), and half start with one of `leads` (the
/// decoder's type or opcode bytes) so the inputs get past the first
/// dispatch.
fn arbitrary_inputs(seed: u64, max_len: u64, leads: &[u8]) -> Vec<Vec<u8>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..16 * CASES)
        .map(|_| {
            let cap = if rng.chance(0.5) { 24 } else { max_len };
            let mut bytes = random_bytes(&mut rng, cap);
            if !bytes.is_empty() && rng.chance(0.5) {
                bytes[0] = *rng.pick(leads);
            }
            bytes
        })
        .collect()
}

/// The LL control-PDU decoder is total on arbitrary bytes.
#[test]
fn ble_control_pdu_decoder_total() {
    use mindgap::ble::ctrl::{ControlPdu, OP_CHANNEL_MAP_IND, OP_CONN_UPDATE_IND};
    for bytes in arbitrary_inputs(0xC0DE_C00E, 64, &[OP_CONN_UPDATE_IND, OP_CHANNEL_MAP_IND]) {
        let _ = ControlPdu::decode(&bytes);
    }
}

/// The L2CAP basic-frame and signaling decoders are total on
/// arbitrary bytes, including frames whose length field disagrees
/// with their size.
#[test]
fn l2cap_decoders_total() {
    use mindgap::l2cap::frame::{decode_basic, Signal};
    for bytes in arbitrary_inputs(0xC0DE_C00F, 299, &[0x00, 0x04, 0x05, 0x40]) {
        let _ = decode_basic(&bytes);
    }
    for bytes in arbitrary_inputs(0xC0DE_C010, 64, &[0x14, 0x15, 0x16]) {
        let _ = Signal::decode(&bytes);
    }
}

/// The ICMPv6 and UDP decoders are total on arbitrary bytes. Every
/// other input gets a correct checksum, so the decoders' body parsing
/// runs on garbage too, not only their checksum rejection.
#[test]
fn icmpv6_and_udp_decoders_total() {
    use mindgap::net::icmpv6::Icmpv6;
    let src = Ipv6Addr::of_node(3);
    let dst = Ipv6Addr::of_node(7);
    let fix = |bytes: &mut Vec<u8>, at: usize, next_header: u8, i: usize| {
        if i.is_multiple_of(2) && bytes.len() >= at + 2 {
            bytes[at..at + 2].fill(0);
            let csum = udp::pseudo_checksum(&src, &dst, next_header, bytes);
            bytes[at..at + 2].copy_from_slice(&csum.to_be_bytes());
        }
    };
    for (i, mut bytes) in arbitrary_inputs(0xC0DE_C011, 299, &[1, 3, 128, 129])
        .into_iter()
        .enumerate()
    {
        fix(&mut bytes, 2, 58, i);
        let _ = Icmpv6::decode(&src, &dst, &bytes);
    }
    for (i, mut bytes) in arbitrary_inputs(0xC0DE_C012, 299, &[0x16, 0x33])
        .into_iter()
        .enumerate()
    {
        fix(&mut bytes, 6, 17, i);
        let _ = udp::decode(&src, &dst, &bytes);
    }
}

/// The RPL control-message decoder is total on arbitrary bytes.
#[test]
fn rpl_decoder_total() {
    use mindgap::core::rpl::RplMsg;
    for bytes in arbitrary_inputs(0xC0DE_C013, 64, &[0x01, 0x02]) {
        let _ = RplMsg::decode(&bytes);
    }
}
