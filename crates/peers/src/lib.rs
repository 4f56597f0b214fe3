//! # mindgap-peers — dynamic peer discovery and connection management
//!
//! Every static scenario pre-plumbs its connections; this crate is the
//! policy layer that lets a network *form itself*. It sits above the
//! link layer (which mechanically advertises, scans, and connects) and
//! below the testbed (which only places nodes): the world feeds it
//! advertising **sightings** with modelled RSSI, and it answers with
//! **actions** — connect to this peer, give up on that attempt, refuse
//! this inbound connection.
//!
//! The shape follows production BLE mesh connection managers (pollinet
//! et al., SNIPPETS.md snippet 2):
//!
//! * a **discovery cache** of recently-sighted peers with their last
//!   RSSI, expiring entries that fall silent ([`PeerConfig::stale_after`]);
//! * **RSSI-ranked selection** — connect to the strongest eligible
//!   candidate while below [`PeerConfig::target_peers`], accept
//!   inbound up to [`PeerConfig::max_peers`], never consider peers
//!   below [`PeerConfig::min_rssi_dbm`];
//! * **capped exponential backoff** per peer after a failed attempt,
//!   jittered from the manager's own RNG fork so retry storms
//!   desynchronize deterministically;
//! * **rotation** away from peers that keep failing
//!   ([`PeerConfig::max_failures`] consecutive failures → a long
//!   [`PeerConfig::rotation_cooldown`] before they are considered
//!   again), so one broken-but-loud neighbor cannot starve the pool.
//!
//! Everything is deterministic: the manager owns one RNG (a dedicated
//! per-node fork created by the world), draws only on its own
//! decisions, and is driven purely by simulation time passed in by the
//! caller. Connection handles are raw `u64`s so the crate stays below
//! the BLE layer in the dependency graph (the same trick `mindgap-obs`
//! uses).
//!
//! # Example
//!
//! The policy loop by hand — sightings in, actions out, the world
//! reporting link events back (in the simulator, `World` in peers
//! mode does exactly this on a fixed tick):
//!
//! ```
//! use mindgap_peers::{PeerAction, PeerConfig, PeerManager};
//! use mindgap_sim::{Duration, Instant, NodeId, Rng};
//!
//! let t = |s| Instant::ZERO + Duration::from_secs(s);
//! let mut pm = PeerManager::new(
//!     NodeId(0),
//!     PeerConfig { target_peers: 1, ..PeerConfig::default() },
//!     Rng::seed_from_u64(42).fork(5000),
//! );
//!
//! // Two advertisers sighted; the stronger one wins the next tick.
//! assert!(pm.on_sighting(t(1), NodeId(1), -80.0));
//! assert!(pm.on_sighting(t(1), NodeId(2), -60.0));
//! assert_eq!(pm.tick(t(2)), vec![PeerAction::Connect { peer: NodeId(2) }]);
//!
//! // The world allocates handle 7, the link opens, and the pool is
//! // at target — the next tick asks for nothing.
//! pm.attempt_started(7);
//! assert!(pm.on_conn_up(t(3), 7, NodeId(2), true).is_empty());
//! assert_eq!(pm.conn_to(NodeId(2)), Some(7));
//! assert!(pm.tick(t(4)).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mindgap_sim::{Duration, Instant, NodeId, Rng};

/// Tuning knobs for the connection-manager policy.
///
/// Defaults follow the production BLE peer managers this is modelled
/// on: 3 target / 5 max connections, −70 dBm "good" / −90 dBm minimum
/// RSSI, seconds-scale backoff capped at a minute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerConfig {
    /// Connections the node actively tries to reach.
    pub target_peers: usize,
    /// Hard cap on simultaneous connections (inbound included).
    pub max_peers: usize,
    /// RSSI at or above which a candidate is considered strong.
    pub good_rssi_dbm: f64,
    /// Candidates weaker than this are never considered.
    pub min_rssi_dbm: f64,
    /// Discovery-cache entries unseen for this long are dropped.
    pub stale_after: Duration,
    /// A connect attempt still pending after this long is abandoned.
    pub attempt_timeout: Duration,
    /// Backoff after the first failed attempt to a peer.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Consecutive failures after which a peer is rotated away from.
    pub max_failures: u32,
    /// How long a rotated-away peer is ignored.
    pub rotation_cooldown: Duration,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            target_peers: 3,
            max_peers: 5,
            good_rssi_dbm: -70.0,
            min_rssi_dbm: -90.0,
            stale_after: Duration::from_secs(30),
            attempt_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(60),
            max_failures: 3,
            rotation_cooldown: Duration::from_secs(120),
        }
    }
}

impl PeerConfig {
    fn validate(&self) {
        assert!(self.target_peers >= 1, "target_peers must be >= 1");
        assert!(
            self.max_peers >= self.target_peers,
            "max_peers {} < target_peers {}",
            self.max_peers,
            self.target_peers
        );
        assert!(
            self.good_rssi_dbm >= self.min_rssi_dbm,
            "good_rssi above min_rssi required"
        );
        assert!(self.max_failures >= 1, "max_failures must be >= 1");
        assert!(!self.backoff_base.is_zero(), "backoff_base must be > 0");
    }
}

/// What the world should do on the link layer for this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerAction {
    /// Start a connect attempt (scan for `peer` and send CONNECT_IND
    /// when sighted). The world allocates the connection handle and
    /// reports it back via [`PeerManager::attempt_started`].
    Connect {
        /// The chosen peer.
        peer: NodeId,
    },
    /// Abandon the in-flight attempt to `peer` (cancel the scan
    /// target). `rotated` is `true` when this failure tripped the
    /// rotation threshold.
    CancelAttempt {
        /// The abandoned peer.
        peer: NodeId,
        /// Whether the peer was rotated away from.
        rotated: bool,
    },
    /// Refuse an inbound connection (already connected to that peer,
    /// or the pool is full): close `conn` immediately.
    Close {
        /// The connection handle to close.
        conn: u64,
    },
}

/// What a closed connection meant to the policy — returned by
/// [`PeerManager::on_conn_down`] so the world can record the right
/// span kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnDownInfo {
    /// The close killed an established pool connection.
    pub was_connected: bool,
    /// The close was our own outstanding connect attempt failing.
    pub was_attempt: bool,
    /// The failure tripped the rotation threshold.
    pub rotated: bool,
}

/// Running totals the world samples into the obs registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCounters {
    /// Sightings fed in ([`PeerManager::on_sighting`] calls accepted).
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
    /// Handle the world allocated for the attempt, once known.
    conn: Option<u64>,
    started: Instant,
}

/// The per-node connection manager. See the crate docs for the policy;
/// drive it with [`PeerManager::on_sighting`], [`PeerManager::tick`],
/// [`PeerManager::on_conn_up`], and [`PeerManager::on_conn_down`].
#[derive(Debug, Clone)]
pub struct PeerManager {
    node: NodeId,
    cfg: PeerConfig,
    rng: Rng,
    /// Sorted by peer id — binary-searchable and deterministic to
    /// iterate regardless of sighting order.
    cache: Vec<PeerEntry>,
    /// Established connections: `(handle, peer)`.
    connected: Vec<(u64, NodeId)>,
    attempt: Option<Attempt>,
    counters: PeerCounters,
}

impl PeerManager {
    /// A manager for `node`. `rng` must be a dedicated fork — the
    /// manager draws backoff jitter from it.
    pub fn new(node: NodeId, cfg: PeerConfig, rng: Rng) -> Self {
        cfg.validate();
        PeerManager {
            node,
            cfg,
            rng,
            cache: Vec::new(),
            connected: Vec::new(),
            attempt: None,
            counters: PeerCounters::default(),
        }
    }

    /// The node this manager belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configured policy.
    pub fn config(&self) -> &PeerConfig {
        &self.cfg
    }

    /// Running totals for the obs registry.
    pub fn counters(&self) -> PeerCounters {
        self.counters
    }

    /// The manager's own RNG — the world also draws connection-interval
    /// randomization from here so peers-mode draws stay off the shared
    /// streams.
    pub fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Feed one advertising sighting of `peer` at modelled `rssi_dbm`.
    /// Returns `true` the first time a peer enters the cache (a
    /// *discovery* — worth a timeline span), `false` on refresh.
    pub fn on_sighting(&mut self, now: Instant, peer: NodeId, rssi_dbm: f64) -> bool {
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
    pub fn tick(&mut self, now: Instant) -> Vec<PeerAction> {
        let mut out = Vec::new();
        // Expiry: drop entries unseen for stale_after, unless we are
        // connected to them (an established link is its own liveness
        // signal) or mid-attempt toward them.
        let stale_before = now.checked_since(Instant::ZERO).map(|since_start| {
            if since_start.nanos() > self.cfg.stale_after.nanos() {
                Instant::ZERO
                    + Duration::from_nanos(since_start.nanos() - self.cfg.stale_after.nanos())
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
            if now.saturating_since(a.started) >= self.cfg.attempt_timeout {
                self.counters.timeouts += 1;
                let rotated = self.record_failure(now, a.peer);
                self.attempt = None;
                out.push(PeerAction::CancelAttempt {
                    peer: a.peer,
                    rotated,
                });
            }
        }

        // Start a new attempt when below target and idle.
        if self.attempt.is_none() && self.connected.len() < self.cfg.target_peers {
            if let Some(peer) = self.best_candidate(now) {
                self.counters.attempts += 1;
                self.attempt = Some(Attempt {
                    peer,
                    conn: None,
                    started: now,
                });
                out.push(PeerAction::Connect { peer });
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
            if e.rssi_dbm < self.cfg.min_rssi_dbm
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
    /// [`PeerAction::Connect`].
    pub fn attempt_started(&mut self, conn: u64) {
        if let Some(a) = &mut self.attempt {
            a.conn = Some(conn);
        }
    }

    /// A connection reached Open. Returns a [`PeerAction::Close`] when
    /// the policy refuses it (duplicate peer, pool full); otherwise
    /// registers it in the pool. `initiated` is `true` when this side
    /// sent the CONNECT_IND.
    pub fn on_conn_up(
        &mut self,
        _now: Instant,
        conn: u64,
        peer: NodeId,
        initiated: bool,
    ) -> Vec<PeerAction> {
        let duplicate = self.connected.iter().any(|&(_, p)| p == peer);
        if duplicate || self.connected.len() >= self.cfg.max_peers {
            self.counters.refusals += 1;
            // A refused outbound attempt still clears the attempt slot
            // (its conn is the refused one).
            if self.attempt.map(|a| a.conn) == Some(Some(conn)) {
                self.attempt = None;
            }
            return vec![PeerAction::Close { conn }];
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
    pub fn on_conn_down(&mut self, now: Instant, conn: u64, peer: NodeId) -> ConnDownInfo {
        let mut info = ConnDownInfo::default();
        if let Some(i) = self.connected.iter().position(|&(c, _)| c == conn) {
            self.connected.remove(i);
            self.counters.losses += 1;
            info.was_connected = true;
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
        if failures >= self.cfg.max_failures {
            self.counters.rotations += 1;
            self.cache[i].failures = 0;
            self.cache[i].not_before = now + self.cfg.rotation_cooldown;
            return true;
        }
        let base = self.cfg.backoff_base.nanos();
        let exp = base.saturating_mul(1u64 << (failures - 1).min(20));
        let capped = exp.min(self.cfg.backoff_cap.nanos());
        // Up to 25% jitter desynchronizes retry storms across nodes.
        let delay = self.rng.jittered_nanos(capped, capped / 4);
        self.cache[i].not_before = now + Duration::from_nanos(delay);
        false
    }

    /// Established connection handle to `peer`, if any.
    pub fn conn_to(&self, peer: NodeId) -> Option<u64> {
        self.connected
            .iter()
            .find(|&&(_, p)| p == peer)
            .map(|&(c, _)| c)
    }

    /// Number of established connections.
    pub fn connected_count(&self) -> usize {
        self.connected.len()
    }

    /// Number of peers currently in the discovery cache.
    pub fn known_count(&self) -> usize {
        self.cache.len()
    }

    /// The peer of the in-flight connect attempt, if one is pending.
    pub fn attempt_peer(&self) -> Option<NodeId> {
        self.attempt.map(|a| a.peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> PeerManager {
        PeerManager::new(
            NodeId(0),
            PeerConfig::default(),
            Rng::seed_from_u64(42).fork(5000),
        )
    }

    fn t(s: u64) -> Instant {
        Instant::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn discovery_then_connect_to_strongest() {
        let mut pm = mgr();
        assert!(pm.on_sighting(t(1), NodeId(1), -80.0));
        assert!(pm.on_sighting(t(1), NodeId(2), -60.0));
        assert!(pm.on_sighting(t(1), NodeId(3), -95.0)); // below floor
        assert!(!pm.on_sighting(t(2), NodeId(1), -79.0)); // refresh
        let acts = pm.tick(t(2));
        assert_eq!(acts, vec![PeerAction::Connect { peer: NodeId(2) }]);
        // One attempt at a time.
        assert!(pm.tick(t(2)).is_empty());
        pm.attempt_started(7);
        assert!(pm.on_conn_up(t(3), 7, NodeId(2), true).is_empty());
        assert_eq!(pm.conn_to(NodeId(2)), Some(7));
        // Next tick goes for the next-best candidate (node 1; node 3
        // is below min_rssi).
        let acts = pm.tick(t(3));
        assert_eq!(acts, vec![PeerAction::Connect { peer: NodeId(1) }]);
    }

    #[test]
    fn rssi_tie_breaks_to_lower_id() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(9), -70.0);
        pm.on_sighting(t(1), NodeId(4), -70.0);
        assert_eq!(pm.tick(t(1)), vec![PeerAction::Connect { peer: NodeId(4) }]);
    }

    #[test]
    fn attempt_timeout_backs_off_then_retries() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(1), -60.0);
        assert_eq!(pm.tick(t(1)), vec![PeerAction::Connect { peer: NodeId(1) }]);
        pm.attempt_started(1);
        // Refresh the sighting so the entry never goes stale.
        pm.on_sighting(t(5), NodeId(1), -60.0);
        let acts = pm.tick(t(7)); // 6 s > attempt_timeout of 5 s
        assert_eq!(
            acts,
            vec![PeerAction::CancelAttempt {
                peer: NodeId(1),
                rotated: false
            }]
        );
        assert_eq!(pm.counters().timeouts, 1);
        // Immediately after, the peer is in backoff (~1 s): no attempt.
        assert!(pm.tick(t(7)).is_empty());
        pm.on_sighting(t(9), NodeId(1), -60.0);
        assert_eq!(pm.tick(t(9)), vec![PeerAction::Connect { peer: NodeId(1) }]);
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
                vec![PeerAction::Connect { peer: NodeId(1) }],
                "round {round}"
            );
            pm.attempt_started(round as u64);
            // The establishment fails outright.
            let info = pm.on_conn_down(t(now + 1), round as u64, NodeId(1));
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
            vec![PeerAction::Connect { peer: NodeId(1) }]
        );
    }

    #[test]
    fn inbound_refused_when_pool_full_or_duplicate() {
        let mut pm = PeerManager::new(
            NodeId(0),
            PeerConfig {
                target_peers: 1,
                max_peers: 2,
                ..PeerConfig::default()
            },
            Rng::seed_from_u64(1).fork(5000),
        );
        assert!(pm.on_conn_up(t(1), 10, NodeId(1), false).is_empty());
        // Duplicate peer refused.
        assert_eq!(
            pm.on_conn_up(t(1), 11, NodeId(1), false),
            vec![PeerAction::Close { conn: 11 }]
        );
        assert!(pm.on_conn_up(t(1), 12, NodeId(2), false).is_empty());
        // Pool full refused.
        assert_eq!(
            pm.on_conn_up(t(1), 13, NodeId(3), false),
            vec![PeerAction::Close { conn: 13 }]
        );
        assert_eq!(pm.counters().refusals, 2);
        assert_eq!(pm.connected_count(), 2);
    }

    #[test]
    fn stale_entries_expire_but_connected_survive() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(1), -60.0);
        pm.on_sighting(t(1), NodeId(2), -65.0);
        assert_eq!(pm.tick(t(1)), vec![PeerAction::Connect { peer: NodeId(1) }]);
        pm.attempt_started(5);
        assert!(pm.on_conn_up(t(2), 5, NodeId(1), true).is_empty());
        // 40 s later (> stale_after 30 s) with no fresh sightings: the
        // unconnected peer expires, the connected one survives.
        let _ = pm.tick(t(41));
        assert_eq!(pm.known_count(), 1);
        assert_eq!(pm.conn_to(NodeId(1)), Some(5));
    }

    #[test]
    fn conn_loss_reopens_the_slot() {
        let mut pm = mgr();
        pm.on_sighting(t(1), NodeId(1), -60.0);
        assert_eq!(pm.tick(t(1)), vec![PeerAction::Connect { peer: NodeId(1) }]);
        pm.attempt_started(3);
        assert!(pm.on_conn_up(t(2), 3, NodeId(1), true).is_empty());
        let info = pm.on_conn_down(t(10), 3, NodeId(1));
        assert!(info.was_connected && !info.was_attempt);
        assert_eq!(pm.counters().losses, 1);
        // The peer is eligible again right away (losing an established
        // link is not an attempt failure).
        pm.on_sighting(t(10), NodeId(1), -60.0);
        assert_eq!(
            pm.tick(t(10)),
            vec![PeerAction::Connect { peer: NodeId(1) }]
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
                    if let PeerAction::Connect { peer } = a {
                        // Fail every attempt instantly to exercise the
                        // backoff/rotation paths.
                        pm.attempt_started(s);
                        let _ = pm.on_conn_down(t(s), s, *peer);
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
