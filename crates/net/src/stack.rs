//! The per-node IPv6 stack: origination, delivery, forwarding.
//!
//! Sans-I/O by design: [`Ipv6Stack::on_datagram`] consumes a received
//! IPv6 packet and returns the [`StackEvent`]s the node must act on —
//! deliver a UDP payload to the application, transmit a forwarded or
//! generated packet towards a next hop, or record a drop. The caller
//! (the node glue in `mindgap-core`) owns queues, buffers and timing.
//!
//! ## Buffer-writing forms
//!
//! `on_datagram` copies: a forwarded packet is cloned to lower its hop
//! limit, a delivered payload is copied out, and the events come in a
//! fresh `Vec`. The data path uses its parts instead.
//! [`Ipv6Stack::on_header`] decides on a parsed [`Ipv6Header`] alone,
//! so a relay that holds the packet compressed never rebuilds it: a
//! [`Verdict::Forward`] names the next hop and the lowered hop limit.
//! [`Ipv6Stack::deliver`] hands a UDP payload back borrowed, and only
//! a refusal that answers with an ICMPv6 error
//! ([`Ipv6Stack::quote_error`]) needs the whole datagram, which the
//! error quotes. [`Ipv6Stack::send_udp_in_place`] fills in the headers
//! of a datagram the caller built in its own buffer.

use mindgap_sixlowpan::LlAddr;

use crate::addr::Ipv6Addr;
use crate::icmpv6::Icmpv6;
use crate::ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use crate::neighbor::NeighborCache;
use crate::routing::RoutingTable;
use crate::{udp, CodecError};

/// Bytes of room a UDP datagram built in place
/// ([`Ipv6Stack::send_udp_in_place`]) needs before its data: the IPv6
/// and UDP headers.
pub const UDP_HEADROOM: usize = IPV6_HEADER_LEN + udp::UDP_HEADER_LEN;

/// Node-level IP configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// This node's (link-local) address.
    pub addr: Ipv6Addr,
}

impl NetConfig {
    /// The paper's standard configuration for node `index`.
    pub fn for_node(index: u16) -> Self {
        NetConfig {
            addr: Ipv6Addr::of_node(index),
        }
    }
}

/// Why the stack could not send a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// No route and the destination is not on-link.
    NoRoute,
    /// Next hop has no known link-layer address.
    NoNeighbor,
    /// Payload exceeds what a 16-bit payload length can carry.
    PayloadTooBig,
    /// A buffer for [`Ipv6Stack::send_udp_in_place`] is shorter than
    /// [`UDP_HEADROOM`].
    NoHeadroom,
}

/// Actions produced by the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEvent {
    /// A UDP datagram for a locally bound port.
    DeliverUdp {
        /// Sender address.
        src: Ipv6Addr,
        /// Sender port.
        src_port: u16,
        /// Local port it arrived on.
        dst_port: u16,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// An ICMPv6 echo reply for a ping we sent.
    DeliverEchoReply {
        /// Replying node.
        from: Ipv6Addr,
        /// Ping session id.
        identifier: u16,
        /// Sequence number.
        sequence: u16,
        /// Echoed payload.
        payload: Vec<u8>,
    },
    /// A packet to transmit on the link towards `next_hop_ll`
    /// (forwarded traffic, echo replies, ICMP errors).
    Transmit {
        /// Complete IPv6 datagram.
        packet: Vec<u8>,
        /// Link-layer destination.
        next_hop_ll: LlAddr,
    },
    /// The packet was dropped; `reason` is a static tag for metrics
    /// ("no_route", "hop_limit", "bad_checksum", "no_port",
    /// "malformed").
    Dropped {
        /// Machine-readable drop reason.
        reason: &'static str,
    },
}

/// What a received datagram's fixed header decides
/// ([`Ipv6Stack::on_header`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Addressed to this node: hand the payload to
    /// [`Ipv6Stack::deliver`].
    Local,
    /// Relay the datagram unchanged but for its hop limit.
    Forward {
        /// Link-layer address of the next hop.
        next_hop_ll: LlAddr,
        /// The lowered hop limit the relayed copy carries.
        hop_limit: u8,
    },
    /// Neither delivered nor forwarded. Some refusals answer with an
    /// ICMPv6 error that quotes the datagram
    /// ([`Ipv6Stack::quote_error`]).
    Refuse(Refusal),
}

/// Why a datagram was neither delivered nor forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Multicast for a group this node is not in (never forwarded).
    Multicast,
    /// The hop limit ran out (answered with Time Exceeded).
    HopLimit,
    /// No route to the destination (answered with Destination
    /// Unreachable).
    NoRoute,
}

impl Refusal {
    /// The drop reason tag, as [`StackEvent::Dropped`] carries it.
    pub fn reason(self) -> &'static str {
        match self {
            Refusal::Multicast => "multicast_not_forwarded",
            Refusal::HopLimit => "hop_limit",
            Refusal::NoRoute => "no_route",
        }
    }

    /// Whether [`Ipv6Stack::quote_error`] answers this refusal, and so
    /// needs the whole datagram.
    pub fn quotes(self) -> bool {
        matches!(self, Refusal::HopLimit | Refusal::NoRoute)
    }
}

/// The outcome of [`Ipv6Stack::deliver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery<'a> {
    /// A UDP datagram for a locally bound port, its data borrowed from
    /// the delivered payload.
    Udp {
        /// Sender address.
        src: Ipv6Addr,
        /// Sender port.
        src_port: u16,
        /// Local port it arrived on.
        dst_port: u16,
        /// Application payload.
        payload: &'a [u8],
    },
    /// Anything else — ICMPv6, drops and the errors they answer with.
    Events(Vec<StackEvent>),
}

/// Counters the experiments and tests read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to the stack by the link layer.
    pub received: u64,
    /// Packets delivered to local upper layers.
    pub delivered: u64,
    /// Packets forwarded towards another hop.
    pub forwarded: u64,
    /// Packets originated locally.
    pub originated: u64,
    /// Drops for any reason.
    pub dropped: u64,
    /// Routing failures: forwarded packets with no route (a subset of
    /// `dropped`) plus local sends refused with [`NetError::NoRoute`].
    /// Broken out because route loss is the interesting failure mode
    /// under dynamic topologies — the observability layer samples it
    /// separately from generic drops.
    pub no_route: u64,
}

/// The stack proper.
pub struct Ipv6Stack {
    cfg: NetConfig,
    routing: RoutingTable,
    neighbors: NeighborCache,
    bound_udp: Vec<u16>,
    stats: NetStats,
}

impl Ipv6Stack {
    /// Create a stack for one node.
    pub fn new(cfg: NetConfig) -> Self {
        Ipv6Stack {
            cfg,
            routing: RoutingTable::new(),
            neighbors: NeighborCache::default(),
            bound_udp: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// This node's address.
    pub fn addr(&self) -> Ipv6Addr {
        self.cfg.addr
    }

    /// Mutable access to the routing table (static configuration).
    pub fn routing_mut(&mut self) -> &mut RoutingTable {
        &mut self.routing
    }

    /// The routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Mutable access to the neighbour cache.
    pub fn neighbors_mut(&mut self) -> &mut NeighborCache {
        &mut self.neighbors
    }

    /// Accept UDP datagrams on `port`.
    pub fn bind_udp(&mut self, port: u16) {
        if !self.bound_udp.contains(&port) {
            self.bound_udp.push(port);
        }
    }

    /// Counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Resolve the next hop for `dst`: multicast maps to the link
    /// broadcast address; otherwise the routing table decides, with
    /// on-link delivery for link-local destinations as fallback.
    pub fn resolve(&self, dst: &Ipv6Addr) -> Result<LlAddr, NetError> {
        if dst.is_multicast() {
            return Ok(LlAddr::BROADCAST);
        }
        let next_hop = match self.routing.lookup(dst) {
            Some(nh) => nh,
            None if dst.is_link_local() => *dst,
            None => return Err(NetError::NoRoute),
        };
        self.neighbors.lookup(&next_hop).ok_or(NetError::NoNeighbor)
    }

    /// [`Ipv6Stack::resolve`] with `NetStats::no_route` accounting.
    fn resolve_counted(&mut self, dst: &Ipv6Addr) -> Result<LlAddr, NetError> {
        let res = self.resolve(dst);
        if res == Err(NetError::NoRoute) {
            self.stats.no_route += 1;
        }
        res
    }

    /// Originate a UDP datagram built in place: `packet` holds
    /// [`UDP_HEADROOM`] bytes of room followed by the data, and this
    /// fills in the IPv6 and UDP headers. Returns the resolved next-hop
    /// link address. An application that encodes its message straight
    /// into the outgoing buffer copies nothing.
    pub fn send_udp_in_place(
        &mut self,
        dst: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        packet: &mut [u8],
    ) -> Result<LlAddr, NetError> {
        if packet.len() < UDP_HEADROOM {
            return Err(NetError::NoHeadroom);
        }
        if packet.len() - IPV6_HEADER_LEN > u16::MAX as usize {
            return Err(NetError::PayloadTooBig);
        }
        let ll = self.resolve_counted(&dst)?;
        let (ip, datagram) = packet.split_at_mut(IPV6_HEADER_LEN);
        udp::encode_in_place(&self.cfg.addr, &dst, src_port, dst_port, datagram);
        let hdr = Ipv6Header::new(NextHeader::Udp, self.cfg.addr, dst, datagram.len() as u16);
        ip.copy_from_slice(&hdr.encode());
        self.stats.originated += 1;
        Ok(ll)
    }

    /// Originate an ICMPv6 echo request.
    pub fn send_echo_request(
        &mut self,
        dst: Ipv6Addr,
        identifier: u16,
        sequence: u16,
        payload: &[u8],
    ) -> Result<(Vec<u8>, LlAddr), NetError> {
        let ll = self.resolve_counted(&dst)?;
        let msg = Icmpv6::EchoRequest {
            identifier,
            sequence,
            payload: payload.to_vec(),
        }
        .encode(&self.cfg.addr, &dst);
        let packet = Ipv6Header::build_packet(NextHeader::Icmpv6, self.cfg.addr, dst, &msg);
        self.stats.originated += 1;
        Ok((packet, ll))
    }

    /// Process a datagram received from the link layer: the
    /// owning form of [`Ipv6Stack::on_header`] followed by
    /// [`Ipv6Stack::deliver`], a forwarded copy or
    /// [`Ipv6Stack::quote_error`].
    pub fn on_datagram(&mut self, packet: &[u8]) -> Vec<StackEvent> {
        let hdr = match Ipv6Header::decode(packet) {
            Ok(h) => h,
            Err(_) => {
                self.stats.received += 1;
                return self.drop("malformed");
            }
        };
        match self.on_header(&hdr) {
            Verdict::Local => match self.deliver(&hdr, &packet[IPV6_HEADER_LEN..]) {
                Delivery::Udp {
                    src,
                    src_port,
                    dst_port,
                    payload,
                } => vec![StackEvent::DeliverUdp {
                    src,
                    src_port,
                    dst_port,
                    payload: payload.to_vec(),
                }],
                Delivery::Events(evs) => evs,
            },
            Verdict::Forward {
                next_hop_ll,
                hop_limit,
            } => {
                let mut out = packet.to_vec();
                out[7] = hop_limit;
                vec![StackEvent::Transmit {
                    packet: out,
                    next_hop_ll,
                }]
            }
            Verdict::Refuse(refusal) => {
                let mut evs = vec![StackEvent::Dropped {
                    reason: refusal.reason(),
                }];
                evs.extend(self.quote_error(refusal, packet));
                evs
            }
        }
    }

    /// Decide what happens to a received datagram from its fixed
    /// header alone, and account it: every call counts as received, a
    /// [`Verdict::Forward`] as forwarded, a [`Verdict::Refuse`] as
    /// dropped.
    pub fn on_header(&mut self, hdr: &Ipv6Header) -> Verdict {
        self.stats.received += 1;
        let for_me = hdr.dst == self.cfg.addr
            || hdr.dst == Ipv6Addr::ALL_NODES
            || hdr.dst == Ipv6Addr::ALL_ROUTERS;
        let verdict = if for_me {
            Verdict::Local
        } else if hdr.dst.is_multicast() {
            // We do not forward multicast (no MPL in the paper either).
            Verdict::Refuse(Refusal::Multicast)
        } else if hdr.hop_limit <= 1 {
            Verdict::Refuse(Refusal::HopLimit)
        } else {
            match self.resolve(&hdr.dst) {
                Ok(next_hop_ll) => {
                    self.stats.forwarded += 1;
                    Verdict::Forward {
                        next_hop_ll,
                        hop_limit: hdr.hop_limit - 1,
                    }
                }
                Err(_) => {
                    self.stats.no_route += 1;
                    Verdict::Refuse(Refusal::NoRoute)
                }
            }
        };
        if let Verdict::Refuse(_) = verdict {
            self.stats.dropped += 1;
        }
        verdict
    }

    /// The ICMPv6 error a [`Verdict::Refuse`] answers with, quoting
    /// the refused datagram `packet`: Time Exceeded for an expired hop
    /// limit, Destination Unreachable for a missing route, nothing for
    /// the others (or when the source is unreachable itself).
    pub fn quote_error(&mut self, refusal: Refusal, packet: &[u8]) -> Option<StackEvent> {
        let invoking = packet[..packet.len().min(crate::icmpv6::MAX_INVOKING)].to_vec();
        let msg = match refusal {
            Refusal::HopLimit => Icmpv6::TimeExceeded { invoking },
            Refusal::NoRoute => Icmpv6::DestUnreachable { code: 0, invoking },
            Refusal::Multicast => return None,
        };
        let mut src = [0u8; 16];
        src.copy_from_slice(&packet[8..24]);
        self.icmp_error_to(Ipv6Addr(src), msg)
    }

    fn drop(&mut self, reason: &'static str) -> Vec<StackEvent> {
        self.stats.dropped += 1;
        vec![StackEvent::Dropped { reason }]
    }

    /// Deliver the payload of a datagram [`Ipv6Stack::on_header`]
    /// found to be [`Verdict::Local`]. A UDP datagram for a bound port
    /// comes back borrowed from `payload`; everything else (ICMPv6,
    /// drops and the errors they answer with) as events.
    pub fn deliver<'a>(&mut self, hdr: &Ipv6Header, payload: &'a [u8]) -> Delivery<'a> {
        Delivery::Events(match hdr.next_header {
            NextHeader::Udp => match udp::decode(&hdr.src, &hdr.dst, payload) {
                Ok((uh, data)) => {
                    if self.bound_udp.contains(&uh.dst_port) {
                        self.stats.delivered += 1;
                        return Delivery::Udp {
                            src: hdr.src,
                            src_port: uh.src_port,
                            dst_port: uh.dst_port,
                            payload: data,
                        };
                    }
                    // Port unreachable.
                    let mut evs = self.drop("no_port");
                    evs.extend(self.icmp_error_to(
                        hdr.src,
                        Icmpv6::DestUnreachable {
                            code: 4,
                            invoking: truncated_invoking(hdr, payload),
                        },
                    ));
                    evs
                }
                Err(CodecError::BadChecksum) => self.drop("bad_checksum"),
                Err(_) => self.drop("malformed"),
            },
            NextHeader::Icmpv6 => match Icmpv6::decode(&hdr.src, &hdr.dst, payload) {
                Ok(Icmpv6::EchoRequest {
                    identifier,
                    sequence,
                    payload,
                }) => {
                    self.stats.delivered += 1;
                    let reply = Icmpv6::EchoReply {
                        identifier,
                        sequence,
                        payload,
                    };
                    self.icmp_error_to(hdr.src, reply).into_iter().collect()
                }
                Ok(Icmpv6::EchoReply {
                    identifier,
                    sequence,
                    payload,
                }) => {
                    self.stats.delivered += 1;
                    vec![StackEvent::DeliverEchoReply {
                        from: hdr.src,
                        identifier,
                        sequence,
                        payload,
                    }]
                }
                Ok(_) => {
                    // Error messages terminate here; metrics layers can
                    // observe them via traces if needed.
                    self.stats.delivered += 1;
                    Vec::new()
                }
                Err(CodecError::BadChecksum) => self.drop("bad_checksum"),
                Err(_) => self.drop("malformed"),
            },
            _ => self.drop("unknown_next_header"),
        })
    }

    /// Build and route an ICMPv6 message towards `dst`. Produces no
    /// event if `dst` is unroutable or not a valid unicast source.
    fn icmp_error_to(&mut self, dst: Ipv6Addr, msg: Icmpv6) -> Option<StackEvent> {
        if dst.is_multicast() || dst.is_unspecified() {
            return None;
        }
        match self.resolve(&dst) {
            Ok(ll) => {
                let bytes = msg.encode(&self.cfg.addr, &dst);
                let packet =
                    Ipv6Header::build_packet(NextHeader::Icmpv6, self.cfg.addr, dst, &bytes);
                self.stats.originated += 1;
                Some(StackEvent::Transmit {
                    packet,
                    next_hop_ll: ll,
                })
            }
            Err(_) => None,
        }
    }
}

fn truncated_invoking(hdr: &Ipv6Header, payload: &[u8]) -> Vec<u8> {
    let mut v = hdr.encode().to_vec();
    v.extend_from_slice(payload);
    v.truncate(crate::icmpv6::MAX_INVOKING);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(index: u16) -> Ipv6Stack {
        Ipv6Stack::new(NetConfig::for_node(index))
    }

    /// Originate a UDP datagram from `s` in a fresh buffer.
    fn send_udp(
        s: &mut Ipv6Stack,
        dst: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Result<(Vec<u8>, LlAddr), NetError> {
        let mut packet = vec![0xEE; UDP_HEADROOM];
        packet.extend_from_slice(payload);
        let ll = s.send_udp_in_place(dst, src_port, dst_port, &mut packet)?;
        Ok((packet, ll))
    }

    #[test]
    fn send_and_deliver_udp_direct() {
        let mut a = stack(1);
        let mut b = stack(2);
        b.bind_udp(5683);
        let (pkt, ll) = send_udp(&mut a, b.addr(), 1000, 5683, b"hello").unwrap();
        assert_eq!(ll, LlAddr::from_node_index(2));
        let evs = b.on_datagram(&pkt);
        assert_eq!(
            evs,
            vec![StackEvent::DeliverUdp {
                src: a.addr(),
                src_port: 1000,
                dst_port: 5683,
                payload: b"hello".to_vec(),
            }]
        );
        assert_eq!(b.stats().delivered, 1);
    }

    #[test]
    fn unbound_port_generates_unreachable() {
        let mut a = stack(1);
        let mut b = stack(2);
        let (pkt, _) = send_udp(&mut a, b.addr(), 1000, 7777, b"x").unwrap();
        let evs = b.on_datagram(&pkt);
        assert!(matches!(evs[0], StackEvent::Dropped { reason: "no_port" }));
        assert!(
            matches!(&evs[1], StackEvent::Transmit { next_hop_ll, .. } if *next_hop_ll == LlAddr::from_node_index(1))
        );
    }

    #[test]
    fn forwarding_decrements_hop_limit() {
        // a → b (router) → c, via host route on a and b.
        let mut a = stack(1);
        let mut b = stack(2);
        let c_addr = Ipv6Addr::of_node(3);
        a.routing_mut().add_host(c_addr, Ipv6Addr::of_node(2));
        b.routing_mut().add_host(c_addr, c_addr);
        let (pkt, ll) = send_udp(&mut a, c_addr, 1, 2, b"fw").unwrap();
        assert_eq!(ll, LlAddr::from_node_index(2));
        let evs = b.on_datagram(&pkt);
        match &evs[0] {
            StackEvent::Transmit {
                packet,
                next_hop_ll,
            } => {
                assert_eq!(*next_hop_ll, LlAddr::from_node_index(3));
                assert_eq!(packet[7], 63, "hop limit decremented");
            }
            other => panic!("expected Transmit, got {other:?}"),
        }
        assert_eq!(b.stats().forwarded, 1);
    }

    #[test]
    fn hop_limit_expiry_generates_time_exceeded() {
        let mut a = stack(1);
        let mut b = stack(2);
        let c_addr = Ipv6Addr::of_node(3);
        a.routing_mut().add_host(c_addr, Ipv6Addr::of_node(2));
        let (mut pkt, _) = send_udp(&mut a, c_addr, 1, 2, b"fw").unwrap();
        pkt[7] = 1; // about to expire
        let evs = b.on_datagram(&pkt);
        assert!(matches!(
            evs[0],
            StackEvent::Dropped {
                reason: "hop_limit"
            }
        ));
        match &evs[1] {
            StackEvent::Transmit { packet, .. } => {
                let h = Ipv6Header::decode(packet).unwrap();
                assert_eq!(h.next_header, NextHeader::Icmpv6);
                assert_eq!(h.dst, a.addr());
            }
            other => panic!("expected ICMP error, got {other:?}"),
        }
    }

    #[test]
    fn no_route_generates_unreachable() {
        let mut a = stack(1);
        let mut b = stack(2);
        // A global (non-link-local) destination with no route at b.
        let mut g = [0u8; 16];
        g[0] = 0x20;
        g[1] = 0x01;
        g[15] = 9;
        let gaddr = Ipv6Addr(g);
        a.routing_mut().add_host(gaddr, Ipv6Addr::of_node(2));
        a.neighbors_mut(); // (implicit resolution suffices)
        let (pkt, _) = send_udp(&mut a, gaddr, 1, 2, b"x").unwrap();
        let evs = b.on_datagram(&pkt);
        assert!(matches!(evs[0], StackEvent::Dropped { reason: "no_route" }));
        assert!(matches!(evs[1], StackEvent::Transmit { .. }));
    }

    #[test]
    fn send_without_route_fails() {
        let mut a = stack(1);
        let mut g = [0u8; 16];
        g[0] = 0x20;
        g[15] = 9;
        assert_eq!(
            send_udp(&mut a, Ipv6Addr(g), 1, 2, b"x"),
            Err(NetError::NoRoute)
        );
    }

    #[test]
    fn echo_request_answered() {
        let mut a = stack(1);
        let mut b = stack(2);
        let (pkt, _) = a.send_echo_request(b.addr(), 7, 1, b"probe").unwrap();
        let evs = b.on_datagram(&pkt);
        let reply_pkt = match &evs[0] {
            StackEvent::Transmit { packet, .. } => packet.clone(),
            other => panic!("expected reply, got {other:?}"),
        };
        let evs_a = a.on_datagram(&reply_pkt);
        assert_eq!(
            evs_a,
            vec![StackEvent::DeliverEchoReply {
                from: b.addr(),
                identifier: 7,
                sequence: 1,
                payload: b"probe".to_vec(),
            }]
        );
    }

    #[test]
    fn all_nodes_multicast_delivered_not_forwarded() {
        let mut a = stack(1);
        let mut b = stack(2);
        b.bind_udp(9999);
        let (pkt, _) = send_udp(&mut a, Ipv6Addr::ALL_NODES, 1, 9999, b"mc").unwrap();
        let evs = b.on_datagram(&pkt);
        assert!(matches!(evs[0], StackEvent::DeliverUdp { .. }));
    }

    #[test]
    fn corrupted_packet_dropped() {
        let mut a = stack(1);
        let mut b = stack(2);
        b.bind_udp(5683);
        let (mut pkt, _) = send_udp(&mut a, b.addr(), 1, 5683, b"payload").unwrap();
        let n = pkt.len() - 1;
        pkt[n] ^= 0xFF;
        let evs = b.on_datagram(&pkt);
        assert_eq!(
            evs,
            vec![StackEvent::Dropped {
                reason: "bad_checksum"
            }]
        );
    }

    #[test]
    fn multicast_resolves_to_broadcast() {
        let a = stack(1);
        assert_eq!(a.resolve(&Ipv6Addr::ALL_NODES), Ok(LlAddr::BROADCAST));
        assert_eq!(a.resolve(&Ipv6Addr::ALL_ROUTERS), Ok(LlAddr::BROADCAST));
    }

    #[test]
    fn in_place_send_matches_build_packet() {
        let mut a = stack(1);
        let dst = Ipv6Addr::of_node(2);
        let (packet, ll) = send_udp(&mut a, dst, 1000, 5683, b"payload").unwrap();
        assert_eq!(ll, LlAddr::from_node_index(2));
        let dgram = udp::encode(&a.addr(), &dst, 1000, 5683, b"payload");
        let want = Ipv6Header::build_packet(NextHeader::Udp, a.addr(), dst, &dgram);
        assert_eq!(packet, want);
        assert_eq!(a.stats().originated, 1);
    }

    #[test]
    fn in_place_send_rejects_short_buffer() {
        let mut a = stack(1);
        let dst = Ipv6Addr::of_node(2);
        for len in [0, IPV6_HEADER_LEN - 1, IPV6_HEADER_LEN, UDP_HEADROOM - 1] {
            let mut packet = vec![0; len];
            assert_eq!(
                a.send_udp_in_place(dst, 1, 2, &mut packet),
                Err(NetError::NoHeadroom),
                "{len} bytes"
            );
        }
        let mut packet = vec![0; UDP_HEADROOM];
        assert!(a.send_udp_in_place(dst, 1, 2, &mut packet).is_ok());
        assert_eq!(a.stats().originated, 1);
    }

    #[test]
    fn header_verdicts_and_borrowed_delivery() {
        let mut a = stack(1);
        let mut b = stack(2);
        b.bind_udp(5683);
        let c_addr = Ipv6Addr::of_node(3);
        a.routing_mut().add_host(c_addr, Ipv6Addr::of_node(2));
        b.routing_mut().add_host(c_addr, c_addr);
        let (pkt, _) = send_udp(&mut a, c_addr, 1, 2, b"fw").unwrap();
        let hdr = Ipv6Header::decode(&pkt).unwrap();
        assert_eq!(
            b.on_header(&hdr),
            Verdict::Forward {
                next_hop_ll: LlAddr::from_node_index(3),
                hop_limit: 63,
            }
        );
        let (pkt, _) = send_udp(&mut a, b.addr(), 9, 5683, b"here").unwrap();
        let hdr = Ipv6Header::decode(&pkt).unwrap();
        assert_eq!(b.on_header(&hdr), Verdict::Local);
        assert_eq!(
            b.deliver(&hdr, &pkt[IPV6_HEADER_LEN..]),
            Delivery::Udp {
                src: a.addr(),
                src_port: 9,
                dst_port: 5683,
                payload: b"here",
            }
        );
        let mut expired = hdr;
        expired.dst = c_addr;
        expired.hop_limit = 1;
        assert_eq!(b.on_header(&expired), Verdict::Refuse(Refusal::HopLimit));
        let stats = b.stats();
        assert_eq!(
            (
                stats.received,
                stats.forwarded,
                stats.delivered,
                stats.dropped
            ),
            (3, 1, 1, 1)
        );
    }
}
