//! A minimal RPL-style routing agent — the paper's future work.
//!
//! The paper configures IP routes statically and names "the coupling
//! of BLE topologies with IP routing" and "adaptability to dynamic
//! environments" as open questions (§9). This module implements the
//! smallest useful answer in the spirit of RPL (RFC 6550), enough to
//! let a redundant BLE mesh heal around broken links:
//!
//! * the root (the paper's consumer) periodically multicasts a
//!   **DIO**-like beacon carrying its rank (0) and a sequence number;
//!   every node re-beacons with `rank = parent_rank + 1`;
//! * each node picks the lowest-rank neighbour as **preferred parent**
//!   and points its default route (towards the root) at it;
//! * each node periodically unicasts a **DAO**-like announcement of
//!   its own address to the parent; intermediate nodes install the
//!   downward host route and forward the DAO towards the root — so
//!   responses can travel back down;
//! * when a parent's beacons stop (link broken, supervision loss), the
//!   node detaches after a few missed beacons and re-attaches to the
//!   next-best neighbour.
//!
//! The agent is sans-I/O: it consumes received messages and clock
//! ticks, mutates the node's [`RoutingTable`], and returns messages to
//! transmit. `World` carries them in UDP datagrams on the RPL port.

use mindgap_net::{Ipv6Addr, RoutingTable};
use mindgap_sim::{Duration, Instant};

/// UDP port the agent uses (RPL proper rides on ICMPv6; a UDP port
/// keeps the simulation's dispatch uniform).
pub const RPL_PORT: u16 = 521;

/// Rank of an unattached node.
pub const RANK_INFINITE: u16 = u16::MAX;

/// Agent configuration.
#[derive(Debug, Clone, Copy)]
pub struct RplConfig {
    /// The root originates the DODAG (the consumer node).
    pub is_root: bool,
    /// Beacon/announcement period.
    pub tick: Duration,
    /// Detach after this many missed parent beacons.
    pub staleness_ticks: u32,
    /// Refresh the DAO towards the parent every this many ticks.
    /// Reparenting always announces immediately, and installed host
    /// routes never expire, so the periodic DAO is pure redundancy —
    /// large meshes stretch it to keep the aggregate DAO funnel at the
    /// root from exhausting relay buffers.
    pub dao_period_ticks: u32,
}

impl RplConfig {
    /// Defaults: 5 s ticks, detach after 3 missed beacons, DAO refresh
    /// every tick.
    pub fn new(is_root: bool) -> Self {
        RplConfig {
            is_root,
            tick: Duration::from_secs(5),
            staleness_ticks: 3,
            dao_period_ticks: 1,
        }
    }
}

/// Wire messages (fixed-size little codec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RplMsg {
    /// Rank beacon (multicast to neighbours).
    Dio {
        /// Sender's rank.
        rank: u16,
        /// Root sequence number (freshness).
        seq: u8,
    },
    /// Downward-route announcement (unicast towards the root).
    Dao {
        /// The address this announcement creates a route for.
        origin: Ipv6Addr,
    },
}

impl RplMsg {
    /// Append the encoded message to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            RplMsg::Dio { rank, seq } => {
                out.push(0x01);
                out.extend_from_slice(&rank.to_be_bytes());
                out.push(seq);
            }
            RplMsg::Dao { origin } => {
                out.push(0x02);
                out.extend_from_slice(&origin.octets());
            }
        }
    }

    /// Decode from bytes.
    pub fn decode(bytes: &[u8]) -> Option<RplMsg> {
        match bytes.first()? {
            0x01 if bytes.len() == 4 => Some(RplMsg::Dio {
                rank: u16::from_be_bytes([bytes[1], bytes[2]]),
                seq: bytes[3],
            }),
            0x02 if bytes.len() == 17 => {
                let mut a = [0u8; 16];
                a.copy_from_slice(&bytes[1..]);
                Some(RplMsg::Dao {
                    origin: Ipv6Addr(a),
                })
            }
            _ => None,
        }
    }
}

/// A message the world should transmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RplSend {
    /// Destination (`ff02::1` for DIOs).
    pub to: Ipv6Addr,
    /// Payload.
    pub msg: RplMsg,
}

/// The per-node agent.
pub struct RplAgent {
    cfg: RplConfig,
    /// Our address.
    addr: Ipv6Addr,
    /// Current rank (0 at the root).
    rank: u16,
    /// Preferred parent, if attached.
    parent: Option<Ipv6Addr>,
    /// Root sequence we last heard.
    seq: u8,
    /// Ticks since the parent's beacon was last refreshed.
    stale: u32,
    /// Ticks elapsed (gates the periodic DAO refresh).
    ticks: u32,
    /// Parent switches performed (diagnostic).
    pub reparents: u64,
}

impl RplAgent {
    /// Create the agent for a node.
    pub fn new(addr: Ipv6Addr, cfg: RplConfig) -> Self {
        RplAgent {
            cfg,
            addr,
            rank: if cfg.is_root { 0 } else { RANK_INFINITE },
            parent: None,
            seq: 0,
            stale: 0,
            ticks: 0,
            reparents: 0,
        }
    }

    /// Current rank.
    pub fn rank(&self) -> u16 {
        self.rank
    }

    /// Preferred parent.
    pub fn parent(&self) -> Option<Ipv6Addr> {
        self.parent
    }

    /// `true` when attached to the DODAG (or the root itself).
    pub fn attached(&self) -> bool {
        self.cfg.is_root || self.parent.is_some()
    }

    /// Periodic tick: age the parent, emit beacons/announcements.
    pub fn on_tick(&mut self, _now: Instant, routing: &mut RoutingTable) -> Vec<RplSend> {
        let mut out = Vec::new();
        self.ticks = self.ticks.wrapping_add(1);
        if self.cfg.is_root {
            self.seq = self.seq.wrapping_add(1);
            out.push(RplSend {
                to: Ipv6Addr::ALL_NODES,
                msg: RplMsg::Dio {
                    rank: 0,
                    seq: self.seq,
                },
            });
            return out;
        }
        // Staleness: detach when the parent went quiet.
        if self.parent.is_some() {
            self.stale += 1;
            if self.stale > self.cfg.staleness_ticks {
                self.detach(routing);
            }
        }
        match self.parent {
            Some(parent) => {
                out.push(RplSend {
                    to: Ipv6Addr::ALL_NODES,
                    msg: RplMsg::Dio {
                        rank: self.rank,
                        seq: self.seq,
                    },
                });
                if self.ticks.is_multiple_of(self.cfg.dao_period_ticks.max(1)) {
                    out.push(RplSend {
                        to: parent,
                        msg: RplMsg::Dao { origin: self.addr },
                    });
                }
            }
            None => {
                // Poison: keep telling (possibly stale) children that
                // this branch is gone, so they do not lure us back —
                // the count-to-infinity guard (RFC 6550 §8.2.2.5).
                out.push(RplSend {
                    to: Ipv6Addr::ALL_NODES,
                    msg: RplMsg::Dio {
                        rank: RANK_INFINITE,
                        seq: self.seq,
                    },
                });
            }
        }
        out
    }

    /// A routing message arrived from on-link neighbour `from`.
    pub fn on_msg(
        &mut self,
        from: Ipv6Addr,
        msg: RplMsg,
        routing: &mut RoutingTable,
    ) -> Vec<RplSend> {
        match msg {
            RplMsg::Dio { rank, seq } => {
                if self.cfg.is_root {
                    return Vec::new();
                }
                // Poison from our parent: the branch above us is gone;
                // detach immediately and poison onward.
                if Some(from) == self.parent && rank == RANK_INFINITE {
                    self.detach(routing);
                    return vec![RplSend {
                        to: Ipv6Addr::ALL_NODES,
                        msg: RplMsg::Dio {
                            rank: RANK_INFINITE,
                            seq: self.seq,
                        },
                    }];
                }
                if rank == RANK_INFINITE {
                    return Vec::new();
                }
                let candidate = rank.saturating_add(1);
                let fresher = seq_newer(seq, self.seq);
                let refresh = Some(from) == self.parent && (fresher || seq == self.seq);
                if refresh {
                    self.stale = 0;
                    self.seq = seq;
                    if candidate != self.rank {
                        self.rank = candidate;
                    }
                    return Vec::new();
                }
                // Adopt a strictly better parent (or any parent when
                // detached). Requiring strict improvement avoids
                // flapping between equal-rank neighbours.
                if candidate < self.rank {
                    if self.parent != Some(from) {
                        self.reparents += u64::from(self.parent.is_some());
                    }
                    self.parent = Some(from);
                    self.rank = candidate;
                    self.seq = seq;
                    self.stale = 0;
                    routing.set_default(from);
                    // Announce ourselves immediately so downward routes
                    // form without waiting for the next tick.
                    return vec![RplSend {
                        to: from,
                        msg: RplMsg::Dao { origin: self.addr },
                    }];
                }
                Vec::new()
            }
            RplMsg::Dao { origin } => {
                if origin == self.addr {
                    return Vec::new();
                }
                // Downward route: origin is reachable via the sender.
                routing.add_host(origin, from);
                // Forward towards the root.
                match self.parent {
                    Some(parent) if !self.cfg.is_root => vec![RplSend {
                        to: parent,
                        msg: RplMsg::Dao { origin },
                    }],
                    _ => Vec::new(),
                }
            }
        }
    }

    /// The link to `peer` died (connection loss). When the peer was
    /// the parent, detach and return a poison beacon for the world to
    /// broadcast immediately (children must not lure us back).
    pub fn on_neighbor_down(&mut self, peer: Ipv6Addr, routing: &mut RoutingTable) -> Vec<RplSend> {
        routing.remove_via(&peer);
        if self.parent == Some(peer) {
            self.detach(routing);
            if !self.cfg.is_root {
                return vec![RplSend {
                    to: Ipv6Addr::ALL_NODES,
                    msg: RplMsg::Dio {
                        rank: RANK_INFINITE,
                        seq: self.seq,
                    },
                }];
            }
        }
        Vec::new()
    }

    fn detach(&mut self, routing: &mut RoutingTable) {
        if let Some(p) = self.parent.take() {
            routing.remove_via(&p);
        }
        self.rank = RANK_INFINITE;
        self.stale = 0;
    }
}

/// Serial-number comparison for the 8-bit root sequence.
fn seq_newer(a: u8, b: u8) -> bool {
    a != b && a.wrapping_sub(b) < 128
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u16) -> Ipv6Addr {
        Ipv6Addr::of_node(i)
    }

    #[test]
    fn codec_roundtrip() {
        for msg in [
            RplMsg::Dio { rank: 7, seq: 200 },
            RplMsg::Dao { origin: addr(3) },
        ] {
            let mut bytes = vec![0xaa];
            msg.encode_into(&mut bytes);
            assert_eq!(RplMsg::decode(&bytes[1..]), Some(msg));
        }
        assert_eq!(RplMsg::decode(&[]), None);
        assert_eq!(RplMsg::decode(&[9, 9]), None);
    }

    #[test]
    fn root_beacons_with_increasing_seq() {
        let mut rt = RoutingTable::new();
        let mut root = RplAgent::new(addr(0), RplConfig::new(true));
        let a = root.on_tick(Instant::ZERO, &mut rt);
        let b = root.on_tick(Instant::ZERO, &mut rt);
        let seq = |s: &RplSend| match s.msg {
            RplMsg::Dio { seq, .. } => seq,
            _ => panic!("root emits DIOs"),
        };
        assert_eq!(seq(&b[0]), seq(&a[0]).wrapping_add(1));
        assert_eq!(a[0].to, Ipv6Addr::ALL_NODES);
        assert!(root.attached());
    }

    #[test]
    fn node_attaches_and_installs_default_route() {
        let mut rt = RoutingTable::new();
        let mut n = RplAgent::new(addr(5), RplConfig::new(false));
        assert!(!n.attached());
        let out = n.on_msg(addr(1), RplMsg::Dio { rank: 0, seq: 1 }, &mut rt);
        assert!(n.attached());
        assert_eq!(n.rank(), 1);
        assert_eq!(rt.lookup(&addr(0)), Some(addr(1)), "default via parent");
        // Immediate DAO towards the parent.
        assert_eq!(
            out,
            vec![RplSend {
                to: addr(1),
                msg: RplMsg::Dao { origin: addr(5) }
            }]
        );
    }

    #[test]
    fn prefers_lower_rank_and_does_not_flap_on_equal() {
        let mut rt = RoutingTable::new();
        let mut n = RplAgent::new(addr(5), RplConfig::new(false));
        let _ = n.on_msg(addr(2), RplMsg::Dio { rank: 3, seq: 1 }, &mut rt);
        assert_eq!(n.rank(), 4);
        // Equal-rank alternative: ignored.
        let _ = n.on_msg(addr(3), RplMsg::Dio { rank: 3, seq: 1 }, &mut rt);
        assert_eq!(n.parent(), Some(addr(2)));
        // Strictly better: adopted.
        let _ = n.on_msg(addr(4), RplMsg::Dio { rank: 1, seq: 1 }, &mut rt);
        assert_eq!(n.parent(), Some(addr(4)));
        assert_eq!(n.rank(), 2);
        assert_eq!(n.reparents, 1);
    }

    #[test]
    fn dao_installs_downward_route_and_forwards() {
        let mut rt = RoutingTable::new();
        let mut n = RplAgent::new(addr(5), RplConfig::new(false));
        let _ = n.on_msg(addr(1), RplMsg::Dio { rank: 0, seq: 1 }, &mut rt);
        let fwd = n.on_msg(addr(9), RplMsg::Dao { origin: addr(14) }, &mut rt);
        assert_eq!(rt.lookup(&addr(14)), Some(addr(9)));
        assert_eq!(
            fwd,
            vec![RplSend {
                to: addr(1),
                msg: RplMsg::Dao { origin: addr(14) }
            }]
        );
        // The root consumes DAOs without forwarding.
        let mut root = RplAgent::new(addr(0), RplConfig::new(true));
        let stop = root.on_msg(addr(1), RplMsg::Dao { origin: addr(14) }, &mut rt);
        assert!(stop.is_empty());
    }

    #[test]
    fn parent_staleness_detaches() {
        let mut rt = RoutingTable::new();
        let cfg = RplConfig::new(false);
        let mut n = RplAgent::new(addr(5), cfg);
        let _ = n.on_msg(addr(1), RplMsg::Dio { rank: 0, seq: 1 }, &mut rt);
        assert!(n.attached());
        // Beacons keep it fresh…
        for seq in 2..5u8 {
            let _ = n.on_tick(Instant::ZERO, &mut rt);
            let _ = n.on_msg(addr(1), RplMsg::Dio { rank: 0, seq }, &mut rt);
            assert!(n.attached());
        }
        // …silence detaches after staleness_ticks.
        for _ in 0..=cfg.staleness_ticks {
            let _ = n.on_tick(Instant::ZERO, &mut rt);
        }
        assert!(!n.attached());
        assert_eq!(n.rank(), RANK_INFINITE);
        assert_eq!(rt.lookup(&addr(0)), None, "default route removed");
    }

    #[test]
    fn neighbor_down_triggers_immediate_detach() {
        let mut rt = RoutingTable::new();
        let mut n = RplAgent::new(addr(5), RplConfig::new(false));
        let _ = n.on_msg(addr(1), RplMsg::Dio { rank: 0, seq: 1 }, &mut rt);
        let _ = n.on_msg(addr(9), RplMsg::Dao { origin: addr(14) }, &mut rt);
        let poison = n.on_neighbor_down(addr(1), &mut rt);
        assert!(!n.attached());
        assert!(
            matches!(
                poison.first(),
                Some(RplSend {
                    msg: RplMsg::Dio {
                        rank: RANK_INFINITE,
                        ..
                    },
                    ..
                })
            ),
            "detaching must poison: {poison:?}"
        );
        // Routes via the dead neighbour are gone, others survive.
        assert_eq!(rt.lookup(&addr(0)), None);
        assert_eq!(rt.lookup(&addr(14)), Some(addr(9)));
        // Re-attach to a surviving neighbour on its next beacon.
        let _ = n.on_msg(addr(9), RplMsg::Dio { rank: 2, seq: 1 }, &mut rt);
        assert_eq!(n.parent(), Some(addr(9)));
        assert_eq!(n.rank(), 3);
    }

    #[test]
    fn poison_cascades_through_children() {
        let mut rt = RoutingTable::new();
        let mut n = RplAgent::new(addr(5), RplConfig::new(false));
        let _ = n.on_msg(addr(1), RplMsg::Dio { rank: 2, seq: 1 }, &mut rt);
        assert!(n.attached());
        // Parent poisons: we detach and re-poison.
        let out = n.on_msg(
            addr(1),
            RplMsg::Dio {
                rank: RANK_INFINITE,
                seq: 1,
            },
            &mut rt,
        );
        assert!(!n.attached());
        assert!(matches!(
            out.first(),
            Some(RplSend {
                msg: RplMsg::Dio {
                    rank: RANK_INFINITE,
                    ..
                },
                ..
            })
        ));
        // A poison DIO from a non-parent is never adopted.
        let out = n.on_msg(
            addr(7),
            RplMsg::Dio {
                rank: RANK_INFINITE,
                seq: 1,
            },
            &mut rt,
        );
        assert!(out.is_empty());
        assert!(!n.attached());
        // Detached nodes beacon poison on ticks.
        let sends = n.on_tick(Instant::ZERO, &mut rt);
        assert!(matches!(
            sends.first(),
            Some(RplSend {
                msg: RplMsg::Dio {
                    rank: RANK_INFINITE,
                    ..
                },
                ..
            })
        ));
    }

    #[test]
    fn seq_wraparound() {
        assert!(seq_newer(1, 0));
        assert!(seq_newer(0, 255));
        assert!(!seq_newer(0, 1));
        assert!(!seq_newer(5, 5));
    }
}
