//! Byte-level pipeline test: a CoAP request is pushed down through
//! every codec in the stack (CoAP → UDP → IPv6 → 6LoWPAN IPHC) and
//! back up, verifying each layer's framing against its neighbours —
//! the cross-crate seam the simulated worlds rely on.

use mindgap::coap::{Code, Message, MsgType};
use mindgap::net::{udp, Ipv6Addr, Ipv6Header, NextHeader};
use mindgap::sixlowpan::{iphc, LinkContext, LlAddr};

fn context(src: u16, dst: u16) -> LinkContext {
    LinkContext {
        src: LlAddr::from_node_index(src),
        dst: LlAddr::from_node_index(dst),
    }
}

#[test]
fn coap_to_air_and_back() {
    let src = Ipv6Addr::of_node(7);
    let dst = Ipv6Addr::of_node(3);

    // 1. Application: the paper's benchmark request.
    let req = Message::request(MsgType::NonConfirmable, Code::GET, 0x0102, b"tok1")
        .with_path_segment("bench")
        .with_payload(vec![0xA5; 39]);
    let coap_bytes = req.encode();

    // 2. Transport: UDP with the pseudo-header checksum.
    let udp_dgram = udp::encode(&src, &dst, 5683, 5683, &coap_bytes);

    // 3. Network: IPv6.
    let packet = Ipv6Header::build_packet(NextHeader::Udp, src, dst, &udp_dgram);
    assert!(
        (95..=110).contains(&packet.len()),
        "paper: ≈100 B IP packets, got {}",
        packet.len()
    );

    // 4. Adaptation: IPHC + UDP NHC squeeze 48 B of headers into a few.
    let frame = iphc::encode_frame(&packet, &context(7, 3));
    assert!(
        frame.len() < packet.len() - 30,
        "compression must save ≥30 B: {} → {}",
        packet.len(),
        frame.len()
    );

    // …the frame crosses the link…

    // 4'. Decompress.
    let packet2 = iphc::decode_frame(&frame, &context(7, 3)).expect("decompress");
    assert_eq!(packet2, packet, "bit-exact IPv6 reconstruction");

    // 3'. Parse IPv6.
    let hdr = Ipv6Header::decode(&packet2).expect("ipv6");
    assert_eq!(hdr.src, src);
    assert_eq!(hdr.dst, dst);
    assert_eq!(hdr.next_header, NextHeader::Udp);

    // 2'. Verify + parse UDP.
    let (uh, data) = udp::decode(&hdr.src, &hdr.dst, &packet2[40..]).expect("udp");
    assert_eq!(uh.dst_port, 5683);

    // 1'. Parse CoAP.
    let req2 = Message::decode(data).expect("coap");
    assert_eq!(req2, req);
    assert_eq!(req2.uri_path(), "/bench");
}

#[test]
fn corruption_at_any_layer_is_caught() {
    let src = Ipv6Addr::of_node(1);
    let dst = Ipv6Addr::of_node(2);
    let req =
        Message::request(MsgType::NonConfirmable, Code::GET, 7, b"t").with_payload(vec![1, 2, 3]);
    let udp_dgram = udp::encode(&src, &dst, 5683, 5683, &req.encode());
    let packet = Ipv6Header::build_packet(NextHeader::Udp, src, dst, &udp_dgram);
    let frame = iphc::encode_frame(&packet, &context(1, 2));

    // Flip one payload bit anywhere after the compressed headers: the
    // UDP checksum must catch it after decompression.
    let mut bad = frame.clone();
    let n = bad.len() - 1;
    bad[n] ^= 0x01;
    let packet2 = iphc::decode_frame(&bad, &context(1, 2)).expect("structure intact");
    let hdr = Ipv6Header::decode(&packet2).expect("header intact");
    assert!(
        udp::decode(&hdr.src, &hdr.dst, &packet2[40..]).is_err(),
        "UDP checksum must catch payload corruption"
    );
}

#[test]
fn multihop_addresses_survive_any_link_context() {
    // On intermediate hops the IP endpoints differ from the frame's
    // link-layer endpoints. Our node addresses match IPHC's 16-bit
    // short form, so they reconstruct independent of which link
    // carried the frame.
    let src = Ipv6Addr::of_node(20); // not a link endpoint below
    let dst = Ipv6Addr::of_node(21);
    let packet = Ipv6Header::build_packet(NextHeader::NoNextHeader, src, dst, b"x");
    let frame = iphc::encode_frame(&packet, &context(5, 6));
    let decoded = iphc::decode_frame(&frame, &context(9, 10)).expect("context-free");
    let h = Ipv6Header::decode(&decoded).unwrap();
    assert_eq!(h.src, src);
    assert_eq!(h.dst, dst);
}

#[test]
fn elided_addresses_are_link_context_dependent_by_design() {
    // When the IP source equals the frame's link-layer source, IPHC
    // elides it completely (SAM=11): reconstruction then *must* use
    // the receiving link's context. RFC 6282 semantics, worth pinning.
    let src = Ipv6Addr::of_node(5);
    let dst = Ipv6Addr::of_node(6);
    let packet = Ipv6Header::build_packet(NextHeader::NoNextHeader, src, dst, b"x");
    let frame = iphc::encode_frame(&packet, &context(5, 6));
    let same = iphc::decode_frame(&frame, &context(5, 6)).unwrap();
    assert_eq!(same, packet);
    let other = iphc::decode_frame(&frame, &context(9, 10)).unwrap();
    let h = Ipv6Header::decode(&other).unwrap();
    assert_eq!(h.src, Ipv6Addr::of_node(9), "elided → context address");
}

#[test]
fn response_pipeline_roundtrip() {
    // The consumer's reply travels the same path in reverse.
    let consumer = Ipv6Addr::of_node(0);
    let producer = Ipv6Addr::of_node(14);
    let mut server = mindgap::coap::Server::new(1);
    let mut client = mindgap::coap::Client::new(2);

    let req = client.request(
        1_000,
        MsgType::NonConfirmable,
        Code::GET,
        "/bench",
        vec![0; 39],
    );
    let reply = server
        .respond(&req, Code::CONTENT, vec![0x5A; 10])
        .expect("server answers");
    let udp_dgram = udp::encode(&consumer, &producer, 5683, 5683, &reply.message.encode());
    let packet = Ipv6Header::build_packet(NextHeader::Udp, consumer, producer, &udp_dgram);
    let frame = iphc::encode_frame(&packet, &context(0, 14));
    let packet2 = iphc::decode_frame(&frame, &context(0, 14)).unwrap();
    let hdr = Ipv6Header::decode(&packet2).unwrap();
    let (_, data) = udp::decode(&hdr.src, &hdr.dst, &packet2[40..]).unwrap();
    let msg = Message::decode(data).unwrap();
    let done = client.on_response(&msg, 250_000_000).expect("matched");
    assert_eq!(done.rtt_ns, 249_999_000);
    assert_eq!(done.payload.len(), 10);
}
