//! Dynamic peer discovery and connection management (DESIGN.md §12):
//! the policy that lets a peers-mode world *form itself*, the
//! counterpart of statconn's static edges. The world feeds it
//! advertising **sightings** with modelled RSSI, and it answers with
//! the same [`ConnAction`]s statconn does: connect to this peer, give
//! up on that attempt, refuse this inbound connection.
//!
//! The shape follows production BLE mesh connection managers (pollinet
//! et al., SNIPPETS.md snippet 2):
//!
//! * a **discovery cache** of recently-sighted peers with their last
//!   RSSI, expiring entries silent for [`STALE_AFTER`];
//! * **RSSI-ranked selection** — connect to the strongest eligible
//!   candidate while below [`TARGET_PEERS`], accept inbound up to
//!   [`MAX_PEERS`], never consider peers below [`MIN_RSSI_DBM`];
//! * **capped exponential backoff** per peer after a failed attempt,
//!   jittered from the manager's own RNG fork so retry storms
//!   desynchronize deterministically;
//! * **rotation** away from peers that keep failing ([`MAX_FAILURES`]
//!   consecutive failures → [`ROTATION_COOLDOWN`] before they are
//!   considered again), so one broken-but-loud neighbor cannot starve
//!   the pool.
//!
//! Everything is deterministic: the manager owns one RNG (a dedicated
//! per-node fork created by the world), draws only on its own
//! decisions, and is driven purely by simulation time passed in by the
//! caller.

use mindgap_ble::ConnId;
use mindgap_sim::{Duration, Instant, NodeId, Rng};

use crate::statconn::ConnAction;

/// Connections a node actively tries to reach.
const TARGET_PEERS: usize = 3;
/// Hard cap on simultaneous connections, inbound included.
const MAX_PEERS: usize = 5;
/// Candidates weaker than this are never considered.
const MIN_RSSI_DBM: f64 = -90.0;
/// Discovery-cache entries unseen for this long are dropped.
const STALE_AFTER: Duration = Duration::from_secs(30);
/// A connect attempt still pending after this long is abandoned.
const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(5);
/// Backoff after the first failed attempt to a peer.
const BACKOFF_BASE: Duration = Duration::from_secs(1);
/// Upper bound on the exponential backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(60);
/// Consecutive failures after which a peer is rotated away from.
const MAX_FAILURES: u32 = 3;
/// How long a rotated-away peer is ignored.
const ROTATION_COOLDOWN: Duration = Duration::from_secs(120);

/// What a closed connection meant to the policy — returned by
/// [`PeerManager::on_conn_down`] so the world can record the right
/// span kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ConnDownInfo {
    /// The close was our own outstanding connect attempt failing.
    pub(crate) was_attempt: bool,
    /// The failure tripped the rotation threshold.
    pub(crate) rotated: bool,
}

/// Running totals the world samples into the obs registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCounters {
    /// Sightings fed in (accepted `on_sighting` calls).
    pub sightings: u64,
    /// First-time discoveries (new cache entries).
    pub discoveries: u64,
    /// Connect attempts started.
    pub attempts: u64,
    /// Attempts that reached an established connection.
    pub successes: u64,
    /// Attempts that failed (establish failure or timeout).
    pub failures: u64,
    /// Failed attempts that were timeouts.
    pub timeouts: u64,
    /// Peers rotated away from.
    pub rotations: u64,
    /// Inbound connections refused (duplicate peer or pool full).
    pub refusals: u64,
    /// Established connections lost after being up.
    pub losses: u64,
}

/// One discovery-cache entry.
#[derive(Debug, Clone, Copy)]
struct PeerEntry {
    peer: NodeId,
    rssi_dbm: f64,
    last_seen: Instant,
    /// Consecutive failed attempts since the last success.
    failures: u32,
    /// No attempts before this instant (backoff / rotation gate).
    not_before: Instant,
}

/// An in-flight outbound connect attempt.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    peer: NodeId,
    /// Connection the world allocated for the attempt, once known.
    conn: Option<ConnId>,
    started: Instant,
}

/// The per-node connection manager of peers mode. See the module docs
/// for the policy; drive it with [`PeerManager::on_sighting`],
/// [`PeerManager::tick`], [`PeerManager::on_conn_up`], and
/// [`PeerManager::on_conn_down`].
#[derive(Debug, Clone)]
pub(crate) struct PeerManager {
    node: NodeId,
    rng: Rng,
    /// Sorted by peer id — binary-searchable and deterministic to
    /// iterate regardless of sighting order.
    cache: Vec<PeerEntry>,
    /// Established connections: `(conn, peer)`.
    connected: Vec<(ConnId, NodeId)>,
    attempt: Option<Attempt>,
    counters: PeerCounters,
}

impl PeerManager {
    /// A manager for `node`. `rng` must be a dedicated fork — the
    /// manager draws backoff jitter from it.
    pub(crate) fn new(node: NodeId, rng: Rng) -> Self {
        PeerManager {
            node,
            rng,
            cache: Vec::new(),
            connected: Vec::new(),
            attempt: None,
            counters: PeerCounters::default(),
        }
    }

    /// Running totals for the obs registry.
    pub(crate) fn counters(&self) -> PeerCounters {
        self.counters
    }

    /// The manager's own RNG — the world also draws connection-interval
    /// randomization from here so peers-mode draws stay off the shared
    /// streams.
    pub(crate) fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Feed one advertising sighting of `peer` at modelled `rssi_dbm`.
    /// Returns `true` the first time a peer enters the cache (a
    /// *discovery* — worth a timeline span), `false` on refresh.
    pub(crate) fn on_sighting(&mut self, now: Instant, peer: NodeId, rssi_dbm: f64) -> bool {
        if peer == self.node {
            return false;
        }
        self.counters.sightings += 1;
        match self.cache.binary_search_by_key(&peer.0, |e| e.peer.0) {
            Ok(i) => {
                self.cache[i].rssi_dbm = rssi_dbm;
                self.cache[i].last_seen = now;
                false
            }
            Err(i) => {
                self.counters.discoveries += 1;
                self.cache.insert(
                    i,
                    PeerEntry {
                        peer,
                        rssi_dbm,
                        last_seen: now,
                        failures: 0,
                        not_before: Instant::ZERO,
                    },
                );
                true
            }
        }
    }

    /// Periodic policy evaluation: expire stale cache entries, time
    /// out the in-flight attempt, and start a new attempt when below
    /// target. Call on a fixed tick.
    pub(crate) fn tick(&mut self, now: Instant) -> Vec<ConnAction> {
        let mut out = Vec::new();
        // Expiry: drop entries unseen for STALE_AFTER, unless we are
        // connected to them (an established link is its own liveness
        // signal) or mid-attempt toward them.
        let stale_before = now.checked_since(Instant::ZERO).map(|since_start| {
            if since_start.nanos() > STALE_AFTER.nanos() {
                Instant::ZERO + Duration::from_nanos(since_start.nanos() - STALE_AFTER.nanos())
            } else {
                Instant::ZERO
            }
        });
        if let Some(cutoff) = stale_before {
            let connected = &self.connected;
            let attempt_peer = self.attempt.map(|a| a.peer);
            self.cache.retain(|e| {
                e.last_seen >= cutoff
                    || connected.iter().any(|&(_, p)| p == e.peer)
                    || attempt_peer == Some(e.peer)
            });
        }

        // Attempt timeout.
        if let Some(a) = self.attempt {
            if now.saturating_since(a.started) >= ATTEMPT_TIMEOUT {
                self.counters.timeouts += 1;
                let rotated = self.record_failure(now, a.peer);
                self.attempt = None;
                out.push(ConnAction::CancelAttempt {
                    peer: a.peer,
                    rotated,
                });
            }
        }

        // Start a new attempt when below target and idle.
        if self.attempt.is_none() && self.connected.len() < TARGET_PEERS {
            if let Some(peer) = self.best_candidate(now) {
                self.counters.attempts += 1;
                self.attempt = Some(Attempt {
                    peer,
                    conn: None,
                    started: now,
                });
                out.push(ConnAction::Connect { peer });
            }
        }
        out
    }

    /// Strongest eligible candidate: in cache, not us, not connected,
    /// above the RSSI floor, past its backoff/rotation gate. Ties on
    /// RSSI break toward the lower node id, so selection is a pure
    /// function of the cache state.
    fn best_candidate(&self, now: Instant) -> Option<NodeId> {
        let mut best: Option<&PeerEntry> = None;
        for e in &self.cache {
            if e.rssi_dbm < MIN_RSSI_DBM
                || now < e.not_before
                || self.connected.iter().any(|&(_, p)| p == e.peer)
            {
                continue;
            }
            best = match best {
                None => Some(e),
                Some(b) if e.rssi_dbm > b.rssi_dbm => Some(e),
                Some(b) => Some(b),
            };
        }
        best.map(|e| e.peer)
    }

    /// The world allocated `conn` for the attempt returned by the last
    /// [`ConnAction::Connect`].
    pub(crate) fn attempt_started(&mut self, conn: ConnId) {
        if let Some(a) = &mut self.attempt {
            a.conn = Some(conn);
        }
    }

    /// A connection reached Open. Returns a [`ConnAction::Close`] when
    /// the policy refuses it (duplicate peer, pool full); otherwise
    /// registers it in the pool. `initiated` is `true` when this side
    /// sent the CONNECT_IND.
    pub(crate) fn on_conn_up(
        &mut self,
        conn: ConnId,
        peer: NodeId,
        initiated: bool,
    ) -> Vec<ConnAction> {
        let duplicate = self.connected.iter().any(|&(_, p)| p == peer);
        if duplicate || self.connected.len() >= MAX_PEERS {
            self.counters.refusals += 1;
            // A refused outbound attempt still clears the attempt slot
            // (its conn is the refused one).
            if self.attempt.map(|a| a.conn) == Some(Some(conn)) {
                self.attempt = None;
            }
            return vec![ConnAction::Close { conn }];
        }
        self.connected.push((conn, peer));
        if initiated {
            if let Some(a) = self.attempt {
                if a.peer == peer {
                    self.attempt = None;
                }
            }
            self.counters.successes += 1;
        }
        // A working link clears the peer's failure history.
        if let Ok(i) = self.cache.binary_search_by_key(&peer.0, |e| e.peer.0) {
            self.cache[i].failures = 0;
            self.cache[i].not_before = Instant::ZERO;
        }
        Vec::new()
    }

    /// A connection closed (or a connect attempt failed before
    /// opening). Applies failure backoff when it was our attempt and
    /// reports what the close meant so the world can record spans.
    pub(crate) fn on_conn_down(
        &mut self,
        now: Instant,
        conn: ConnId,
        peer: NodeId,
    ) -> ConnDownInfo {
        let mut info = ConnDownInfo::default();
        if let Some(i) = self.connected.iter().position(|&(c, _)| c == conn) {
            self.connected.remove(i);
            self.counters.losses += 1;
        }
        if self.attempt.map(|a| a.conn) == Some(Some(conn)) {
            self.attempt = None;
            info.was_attempt = true;
            info.rotated = self.record_failure(now, peer);
        }
        info
    }

    /// Record a failed attempt toward `peer`: bump its failure count,
    /// arm the (jittered, capped-exponential) backoff gate, and rotate
    /// away when the threshold trips. Returns `true` on rotation.
    fn record_failure(&mut self, now: Instant, peer: NodeId) -> bool {
        self.counters.failures += 1;
        let Ok(i) = self.cache.binary_search_by_key(&peer.0, |e| e.peer.0) else {
            return false;
        };
        self.cache[i].failures += 1;
        let failures = self.cache[i].failures;
        if failures >= MAX_FAILURES {
            self.counters.rotations += 1;
            self.cache[i].failures = 0;
            self.cache[i].not_before = now + ROTATION_COOLDOWN;
            return true;
        }
        let base = BACKOFF_BASE.nanos();
        let exp = base.saturating_mul(1u64 << (failures - 1).min(20));
        let capped = exp.min(BACKOFF_CAP.nanos());
        // Up to 25% jitter desynchronizes retry storms across nodes.
        let delay = self.rng.jittered_nanos(capped, capped / 4);
        self.cache[i].not_before = now + Duration::from_nanos(delay);
        false
    }

    /// Established connection to `peer`, if any.
    pub(crate) fn conn_to(&self, peer: NodeId) -> Option<ConnId> {
        self.connected
            .iter()
            .find(|&&(_, p)| p == peer)
            .map(|&(c, _)| c)
    }

    /// Number of established connections.
    pub(crate) fn connected_count(&self) -> usize {
        self.connected.len()
    }

    /// Number of peers currently in the discovery cache.
    pub(crate) fn known_count(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> PeerManager {
        PeerManager::new(NodeId(0), Rng::seed_from_u64(42).fork(5000))
    }

    fn t(s: u64) -> Instant {
        Instant::ZERO + Duration::from_secs(s)
    }

    /// The policy loop by hand — sightings in, actions out, the world
    /// reporting link events back (in the simulator, `World` in peers
    /// mode does exactly this on a fixed tick).
    #[test]
    fn policy_loop_by_hand() {
        let mut pm = mgr();
        // Two advertisers sighted; the stronger one wins the next tick.
        assert!(pm.on_sighting(t(1), NodeId(1), -80.0));
        assert!(pm.on_sighting(t(1), NodeId(2), -60.0));
        assert_eq!(pm.tick(t(2)), vec![ConnAction::Connect { peer: NodeId(2) }]);

        // The world allocates connection 7 and the link opens; two
        // inbound connections fill the pool to its target, so the
        // next tick asks for nothing.
        pm.attempt_started(ConnId(7));
        assert!(pm.on_conn_up(ConnId(7), NodeId(2), true).is_empty());
        assert_eq!(pm.conn_to(NodeId(2)), Some(ConnId(7)));
        for (conn, peer) in [(8, 3), (9, 4)] {
            assert!(pm.on_conn_up(ConnId(conn), NodeId(peer), false).is_empty());
        }
        assert!(pm.tick(t(4)).is_empty());
    }

    #[test]
    fn discovery_then_connect_to_strongest() {
        let mut pm = mgr();
        assert!(pm.on_sighting(t(1), NodeId(1), -80.0));
        assert!(pm.on_sighting(t(1), NodeId(2), -60.0));
        assert!(pm.on_sighting(t(1), NodeId(3), -95.0)); // below floor
        assert!(!pm.on_sighting(t(2), NodeId(1), -79.0)); // refresh
        let acts = pm.tick(t(2));
        assert_eq!(acts, vec![ConnAction::Connect { peer: NodeId(2) }]);
        // One attempt at a time.
        assert!(pm.tick(t(2)).is_empty());
        pm.attempt_started(ConnId(7));
        assert!(pm.on_conn_up(ConnId(7), NodeId(2), true).is_empty());
        assert_eq!(pm.conn_to(NodeId(2)), Some(ConnId(7)));
        // Next tick goes for the next-best candidate (node 1; node 3
        // is below MIN_RSSI_DBM).
        let acts = pm.tick(t(3));
        assert_eq!(acts, vec![ConnAction::Connect { peer: NodeId(1) }]);
    }

    #[test]
    fn rssi_tie_breaks_to_lower_id() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(9), -70.0);
        pm.on_sighting(t(1), NodeId(4), -70.0);
        assert_eq!(pm.tick(t(1)), vec![ConnAction::Connect { peer: NodeId(4) }]);
    }

    #[test]
    fn attempt_timeout_backs_off_then_retries() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(1), -60.0);
        assert_eq!(pm.tick(t(1)), vec![ConnAction::Connect { peer: NodeId(1) }]);
        pm.attempt_started(ConnId(1));
        // Refresh the sighting so the entry never goes stale.
        pm.on_sighting(t(5), NodeId(1), -60.0);
        let acts = pm.tick(t(7)); // 6 s > ATTEMPT_TIMEOUT of 5 s
        assert_eq!(
            acts,
            vec![ConnAction::CancelAttempt {
                peer: NodeId(1),
                rotated: false
            }]
        );
        assert_eq!(pm.counters().timeouts, 1);
        // Immediately after, the peer is in backoff (~1 s): no attempt.
        assert!(pm.tick(t(7)).is_empty());
        pm.on_sighting(t(9), NodeId(1), -60.0);
        assert_eq!(pm.tick(t(9)), vec![ConnAction::Connect { peer: NodeId(1) }]);
    }

    #[test]
    fn repeated_failures_rotate_away() {
        let mut pm = mgr();
        let mut now = 1u64;
        let mut rotations = 0;
        for round in 0..3 {
            pm.on_sighting(t(now), NodeId(1), -60.0);
            let acts = pm.tick(t(now));
            assert_eq!(
                acts,
                vec![ConnAction::Connect { peer: NodeId(1) }],
                "round {round}"
            );
            pm.attempt_started(ConnId(round as u64));
            // The establishment fails outright.
            let info = pm.on_conn_down(t(now + 1), ConnId(round as u64), NodeId(1));
            assert!(info.was_attempt);
            if info.rotated {
                rotations += 1;
                break;
            }
            now += 200; // well past any backoff
        }
        assert_eq!(rotations, 1, "third failure must rotate");
        assert_eq!(pm.counters().rotations, 1);
        // During the 120 s cooldown the peer is not a candidate even
        // though it is the only one known.
        now += 60;
        pm.on_sighting(t(now), NodeId(1), -60.0);
        assert!(pm.tick(t(now)).is_empty());
        // After the cooldown it is considered again.
        now += 100;
        pm.on_sighting(t(now), NodeId(1), -60.0);
        assert_eq!(
            pm.tick(t(now)),
            vec![ConnAction::Connect { peer: NodeId(1) }]
        );
    }

    #[test]
    fn inbound_refused_when_pool_full_or_duplicate() {
        let mut pm = PeerManager::new(NodeId(0), Rng::seed_from_u64(1).fork(5000));
        assert!(pm.on_conn_up(ConnId(10), NodeId(1), false).is_empty());
        // Duplicate peer refused.
        assert_eq!(
            pm.on_conn_up(ConnId(11), NodeId(1), false),
            vec![ConnAction::Close { conn: ConnId(11) }]
        );
        assert!(pm.on_conn_up(ConnId(12), NodeId(2), false).is_empty());
        // Fill the rest of the pool.
        for peer in 4..(MAX_PEERS as u16 + 2) {
            assert!(pm
                .on_conn_up(ConnId(10 + peer as u64), NodeId(peer), false)
                .is_empty());
        }
        // Pool full refused.
        assert_eq!(
            pm.on_conn_up(ConnId(13), NodeId(3), false),
            vec![ConnAction::Close { conn: ConnId(13) }]
        );
        assert_eq!(pm.counters().refusals, 2);
        assert_eq!(pm.connected_count(), MAX_PEERS);
    }

    #[test]
    fn stale_entries_expire_but_connected_survive() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(1), -60.0);
        pm.on_sighting(t(1), NodeId(2), -65.0);
        assert_eq!(pm.tick(t(1)), vec![ConnAction::Connect { peer: NodeId(1) }]);
        pm.attempt_started(ConnId(5));
        assert!(pm.on_conn_up(ConnId(5), NodeId(1), true).is_empty());
        // 40 s later (> STALE_AFTER of 30 s) with no fresh sightings:
        // the unconnected peer expires, the connected one survives.
        let _ = pm.tick(t(41));
        assert_eq!(pm.known_count(), 1);
        assert_eq!(pm.conn_to(NodeId(1)), Some(ConnId(5)));
    }

    #[test]
    fn conn_loss_reopens_the_slot() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(1), -60.0);
        assert_eq!(pm.tick(t(1)), vec![ConnAction::Connect { peer: NodeId(1) }]);
        pm.attempt_started(ConnId(3));
        assert!(pm.on_conn_up(ConnId(3), NodeId(1), true).is_empty());
        let info = pm.on_conn_down(t(10), ConnId(3), NodeId(1));
        assert!(!info.was_attempt);
        assert_eq!(pm.counters().losses, 1);
        // The peer is eligible again right away (losing an established
        // link is not an attempt failure).
        pm.on_sighting(t(10), NodeId(1), -60.0);
        assert_eq!(
            pm.tick(t(10)),
            vec![ConnAction::Connect { peer: NodeId(1) }]
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let run = || {
            let mut pm = mgr();
            let mut log = Vec::new();
            for s in 0..120u64 {
                for p in 1..6u16 {
                    pm.on_sighting(t(s), NodeId(p), -60.0 - (p as f64) * 3.0);
                }
                let acts = pm.tick(t(s));
                for a in &acts {
                    if let ConnAction::Connect { peer } = a {
                        // Fail every attempt instantly to exercise the
                        // backoff/rotation paths.
                        pm.attempt_started(ConnId(s));
                        let _ = pm.on_conn_down(t(s), ConnId(s), *peer);
                    }
                }
                log.push(format!("{s}:{acts:?}"));
            }
            (log, pm.counters())
        };
        let (la, ca) = run();
        let (lb, cb) = run();
        assert_eq!(la, lb);
        assert_eq!(ca, cb);
        assert!(ca.rotations > 0, "scenario must exercise rotation");
    }
}
