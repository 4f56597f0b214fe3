//! The per-node IPv6 stack: origination, delivery, forwarding.
//!
//! Sans-I/O by design: [`Ipv6Stack::on_datagram`] consumes a received
//! IPv6 packet and returns the [`StackEvent`]s the node must act on —
//! deliver a UDP payload to the application, transmit a forwarded or
//! generated packet towards a next hop, or record a drop. The caller
//! (the node glue in `mindgap-core`) owns queues, buffers and timing.

use mindgap_sixlowpan::LlAddr;

use crate::addr::Ipv6Addr;
use crate::icmpv6::Icmpv6;
use crate::ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use crate::neighbor::NeighborCache;
use crate::routing::RoutingTable;
use crate::{udp, CodecError};

/// Node-level IP configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// This node's (link-local) address.
    pub addr: Ipv6Addr,
    /// This node's link-layer address.
    pub ll: LlAddr,
    /// Whether the node forwards packets (all the paper's nodes are
    /// 6LoWPAN routers, §4.2).
    pub is_router: bool,
    /// Hop limit for originated packets.
    pub hop_limit: u8,
}

impl NetConfig {
    /// The paper's standard configuration for node `index`.
    pub fn for_node(index: u16) -> Self {
        NetConfig {
            addr: Ipv6Addr::of_node(index),
            ll: LlAddr::from_node_index(index),
            is_router: true,
            hop_limit: 64,
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
    /// ("no_route", "hop_limit", "bad_checksum", "not_router",
    /// "no_port", "malformed").
    Dropped {
        /// Machine-readable drop reason.
        reason: &'static str,
    },
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

    /// Originate a UDP datagram. Returns the packet and the resolved
    /// next-hop link address; the caller enqueues it on the right link.
    pub fn send_udp(
        &mut self,
        dst: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Result<(Vec<u8>, LlAddr), NetError> {
        if payload.len() + udp::UDP_HEADER_LEN > u16::MAX as usize {
            return Err(NetError::PayloadTooBig);
        }
        let ll = self.resolve_counted(&dst)?;
        let dgram = udp::encode(&self.cfg.addr, &dst, src_port, dst_port, payload);
        let mut packet = Ipv6Header::build_packet(NextHeader::Udp, self.cfg.addr, dst, &dgram);
        packet[7] = self.cfg.hop_limit;
        self.stats.originated += 1;
        Ok((packet, ll))
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
        let mut packet = Ipv6Header::build_packet(NextHeader::Icmpv6, self.cfg.addr, dst, &msg);
        packet[7] = self.cfg.hop_limit;
        self.stats.originated += 1;
        Ok((packet, ll))
    }

    /// Process a datagram received from the link layer.
    pub fn on_datagram(&mut self, packet: &[u8]) -> Vec<StackEvent> {
        self.stats.received += 1;
        let hdr = match Ipv6Header::decode(packet) {
            Ok(h) => h,
            Err(_) => return self.drop("malformed"),
        };
        let for_me = hdr.dst == self.cfg.addr
            || hdr.dst == Ipv6Addr::ALL_NODES
            || (self.cfg.is_router && hdr.dst == Ipv6Addr::ALL_ROUTERS);
        if for_me {
            return self.deliver(&hdr, &packet[IPV6_HEADER_LEN..]);
        }
        if hdr.dst.is_multicast() {
            // We do not forward multicast (no MPL in the paper either).
            return self.drop("multicast_not_forwarded");
        }
        self.forward(hdr, packet)
    }

    fn drop(&mut self, reason: &'static str) -> Vec<StackEvent> {
        self.stats.dropped += 1;
        vec![StackEvent::Dropped { reason }]
    }

    fn deliver(&mut self, hdr: &Ipv6Header, payload: &[u8]) -> Vec<StackEvent> {
        match hdr.next_header {
            NextHeader::Udp => match udp::decode(&hdr.src, &hdr.dst, payload) {
                Ok((uh, data)) => {
                    if self.bound_udp.contains(&uh.dst_port) {
                        self.stats.delivered += 1;
                        vec![StackEvent::DeliverUdp {
                            src: hdr.src,
                            src_port: uh.src_port,
                            dst_port: uh.dst_port,
                            payload: data.to_vec(),
                        }]
                    } else {
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
                    self.icmp_error_to(hdr.src, reply)
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
        }
    }

    fn forward(&mut self, mut hdr: Ipv6Header, packet: &[u8]) -> Vec<StackEvent> {
        if !self.cfg.is_router {
            return self.drop("not_router");
        }
        if hdr.hop_limit <= 1 {
            let mut evs = self.drop("hop_limit");
            evs.extend(self.icmp_error_to(
                hdr.src,
                Icmpv6::TimeExceeded {
                    invoking: packet[..packet.len().min(crate::icmpv6::MAX_INVOKING)].to_vec(),
                },
            ));
            return evs;
        }
        match self.resolve(&hdr.dst) {
            Ok(ll) => {
                hdr.hop_limit -= 1;
                let mut out = packet.to_vec();
                out[7] = hdr.hop_limit;
                self.stats.forwarded += 1;
                vec![StackEvent::Transmit {
                    packet: out,
                    next_hop_ll: ll,
                }]
            }
            Err(_) => {
                self.stats.no_route += 1;
                let mut evs = self.drop("no_route");
                evs.extend(self.icmp_error_to(
                    hdr.src,
                    Icmpv6::DestUnreachable {
                        code: 0,
                        invoking: packet[..packet.len().min(crate::icmpv6::MAX_INVOKING)].to_vec(),
                    },
                ));
                evs
            }
        }
    }

    /// Build and route an ICMPv6 message towards `dst`. Produces no
    /// event if `dst` is unroutable or not a valid unicast source.
    fn icmp_error_to(&mut self, dst: Ipv6Addr, msg: Icmpv6) -> Vec<StackEvent> {
        if dst.is_multicast() || dst.is_unspecified() {
            return Vec::new();
        }
        match self.resolve(&dst) {
            Ok(ll) => {
                let bytes = msg.encode(&self.cfg.addr, &dst);
                let mut packet =
                    Ipv6Header::build_packet(NextHeader::Icmpv6, self.cfg.addr, dst, &bytes);
                packet[7] = self.cfg.hop_limit;
                self.stats.originated += 1;
                vec![StackEvent::Transmit {
                    packet,
                    next_hop_ll: ll,
                }]
            }
            Err(_) => Vec::new(),
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

    #[test]
    fn send_and_deliver_udp_direct() {
        let mut a = stack(1);
        let mut b = stack(2);
        b.bind_udp(5683);
        let (pkt, ll) = a.send_udp(b.addr(), 1000, 5683, b"hello").unwrap();
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
        let (pkt, _) = a.send_udp(b.addr(), 1000, 7777, b"x").unwrap();
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
        let (pkt, ll) = a.send_udp(c_addr, 1, 2, b"fw").unwrap();
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
    fn non_router_does_not_forward() {
        let mut a = stack(1);
        let mut cfg = NetConfig::for_node(2);
        cfg.is_router = false;
        let mut b = Ipv6Stack::new(cfg);
        let c_addr = Ipv6Addr::of_node(3);
        a.routing_mut().add_host(c_addr, Ipv6Addr::of_node(2));
        let (pkt, _) = a.send_udp(c_addr, 1, 2, b"fw").unwrap();
        let evs = b.on_datagram(&pkt);
        assert_eq!(
            evs,
            vec![StackEvent::Dropped {
                reason: "not_router"
            }]
        );
    }

    #[test]
    fn hop_limit_expiry_generates_time_exceeded() {
        let mut a = stack(1);
        let mut b = stack(2);
        let c_addr = Ipv6Addr::of_node(3);
        a.routing_mut().add_host(c_addr, Ipv6Addr::of_node(2));
        let (mut pkt, _) = a.send_udp(c_addr, 1, 2, b"fw").unwrap();
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
        let (pkt, _) = a.send_udp(gaddr, 1, 2, b"x").unwrap();
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
        assert_eq!(a.send_udp(Ipv6Addr(g), 1, 2, b"x"), Err(NetError::NoRoute));
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
        let (pkt, _) = a.send_udp(Ipv6Addr::ALL_NODES, 1, 9999, b"mc").unwrap();
        let evs = b.on_datagram(&pkt);
        assert!(matches!(evs[0], StackEvent::DeliverUdp { .. }));
    }

    #[test]
    fn corrupted_packet_dropped() {
        let mut a = stack(1);
        let mut b = stack(2);
        b.bind_udp(5683);
        let (mut pkt, _) = a.send_udp(b.addr(), 1, 5683, b"payload").unwrap();
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
}
