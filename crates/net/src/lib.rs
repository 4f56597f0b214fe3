//! # mindgap-net — a GNRC-style IPv6 network layer
//!
//! A compact, sans-I/O IPv6 stack modelled on RIOT's GNRC (the network
//! stack of the paper's software platform, §3): IPv6 with static
//! routing, UDP with full pseudo-header checksums, ICMPv6
//! echo/diagnostics, and a bounded neighbour cache.
//!
//! Like smoltcp, the stack is event-driven and I/O-free: callers hand
//! it datagrams and it returns *actions* ([`StackEvent`]) — deliver to
//! a local socket, forward via a next hop, answer with ICMPv6. The
//! simulation's node glue (in `mindgap-core`) turns those actions into
//! 6LoWPAN frames on the node's one link, an arm of `World`'s `Link`
//! enum (BLE connections, BLE advertising or 802.15.4); the stack
//! itself knows no link type. On the data path it decides
//! on a parsed header instead ([`Ipv6Stack::on_header`] → [`Verdict`]),
//! so a relay never rebuilds the datagram, delivers borrowed payloads
//! ([`Delivery`]) and originates UDP in the caller's buffer
//! ([`Ipv6Stack::send_udp_in_place`]); see the `stack` module.
//!
//! Configuration mirrors the paper (§4.2): every node is a 6LoWPAN
//! router; routes are statically configured towards the tree root /
//! line end; the neighbour cache holds up to 32 entries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod icmpv6;
mod ipv6;
mod neighbor;
mod routing;
mod stack;
pub mod udp;

pub use addr::Ipv6Addr;
pub use ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
pub use neighbor::NeighborCache;
pub use routing::RoutingTable;
pub use stack::{
    Delivery, Ipv6Stack, NetConfig, NetError, NetStats, Refusal, StackEvent, Verdict, UDP_HEADROOM,
};

/// Errors shared by the codecs in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer shorter than the header demands.
    Truncated,
    /// A version/length/field consistency check failed.
    Malformed,
    /// Checksum verification failed.
    BadChecksum,
}
