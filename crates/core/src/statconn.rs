//! `statconn` — static connection management (paper §3) with the
//! randomized-connection-interval mitigation (paper §6.3).
//!
//! Each node is configured with a static set of *edges* (peer + role).
//! For every edge the manager keeps a BLE connection alive: the
//! coordinator side scans and initiates, the subordinate side
//! advertises; when a connection drops, the manager immediately goes
//! back to scanning/advertising — the quick-reconnect behaviour the
//! paper credits for the small CoAP loss under connection churn
//! (§5.1).
//!
//! The §6.3 mitigation is implemented exactly as the paper describes:
//!
//! 1. the coordinator draws the connection interval uniformly from a
//!    window, in the spec's 1.25 ms quanta, redrawing until the value
//!    is unique among its own connections;
//! 2. the subordinate compares every freshly opened connection's
//!    interval against its other connections and *closes* the new
//!    connection on a collision, forcing the coordinator to redraw.

use mindgap_ble::{ConnId, Role};
use mindgap_sim::{Duration, NodeId, Rng};

/// BLE connection intervals are multiples of 1.25 ms.
pub const INTERVAL_QUANTUM: Duration = Duration::from_micros(1_250);

/// Draw an interval from `[lo, hi]` in [`INTERVAL_QUANTUM`] steps,
/// redrawing until it equals no entry of `used`. A one-quantum window
/// (`lo == hi`) returns `lo` even when it is in use.
///
/// # Panics
///
/// If `used` holds every quantum of a wider window, where no draw
/// could ever succeed.
pub(crate) fn draw_unused_interval(
    rng: &mut Rng,
    lo: Duration,
    hi: Duration,
    used: &[Duration],
) -> Duration {
    let span = (hi - lo) / INTERVAL_QUANTUM;
    assert!(
        span == 0 || (0..=span).any(|k| !used.contains(&(lo + INTERVAL_QUANTUM * k))),
        "window too narrow for per-node-unique intervals"
    );
    loop {
        let candidate = lo + INTERVAL_QUANTUM * rng.range_inclusive(0, span);
        if span == 0 || !used.contains(&candidate) {
            return candidate;
        }
    }
}

/// How the coordinator picks connection intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalPolicy {
    /// Every connection uses the same interval — standard BLE-mesh
    /// practice, and the configuration that suffers connection
    /// shading.
    Static(Duration),
    /// Draw uniformly from `[lo, hi]` in 1.25 ms quanta, keep per-node
    /// uniqueness, let subordinates reject collisions — the paper's
    /// proposal.
    Randomized {
        /// Window lower bound (inclusive).
        lo: Duration,
        /// Window upper bound (inclusive).
        hi: Duration,
    },
}

impl IntervalPolicy {
    /// The paper's notation: `75` → static 75 ms; `[65:85]` →
    /// randomized window.
    pub fn label(&self) -> String {
        match self {
            IntervalPolicy::Static(d) => format!("{}ms", d.millis()),
            IntervalPolicy::Randomized { lo, hi } => {
                format!("[{}:{}]ms", lo.millis(), hi.millis())
            }
        }
    }
}

/// Our role for one configured edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRole {
    /// We initiate (scan) — the downstream node in the paper's trees.
    Coordinator,
    /// We advertise and accept.
    Subordinate,
}

/// One configured edge.
#[derive(Debug, Clone, Copy)]
pub struct EdgeConfig {
    /// Peer node.
    pub peer: NodeId,
    /// Our role.
    pub role: EdgeRole,
}

#[derive(Debug)]
struct EdgeState {
    peer: NodeId,
    role: EdgeRole,
    conn: Option<ConnId>,
    /// Interval of the live (or in-progress) connection.
    interval: Option<Duration>,
}

/// What a connection manager asks the world to do on the link layer.
/// Statconn and the peer policy (`crate::peers`) speak this one
/// vocabulary, and `World` executes it in one place, which also builds
/// the `ConnParams` of every connection a node initiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ConnAction {
    /// Start advertising (the link layer is idempotent about it).
    Advertise,
    /// Start the passive discovery scan that reports every advertiser
    /// heard (peers mode's cold start).
    Discover,
    /// Scan for `peer` and initiate at `interval`, which statconn's
    /// policy drew.
    Scan { peer: NodeId, interval: Duration },
    /// Start a connect attempt to `peer` that the peer policy tracks:
    /// the world draws the interval, unique among the node's live
    /// connections, and reports the connection back.
    Connect { peer: NodeId },
    /// The attempt to `peer` timed out: abandon its scan target.
    /// `rotated` is `true` when the failure tripped the rotation
    /// threshold.
    CancelAttempt { peer: NodeId, rotated: bool },
    /// The attempt to `peer` failed on the link layer before it
    /// opened; `rotated` as for `CancelAttempt`.
    AttemptFailed { peer: NodeId, rotated: bool },
    /// Close `conn` on both ends: a subordinate-side interval
    /// collision (§6.3), or an inbound connection the peer policy
    /// refuses (duplicate peer, pool full).
    Close { conn: ConnId },
}

/// The per-node static connection manager.
pub(crate) struct Statconn {
    edges: Vec<EdgeState>,
    policy: IntervalPolicy,
    rng: Rng,
    /// Reconnections performed (diagnostic).
    pub(crate) reconnects: u64,
    /// Collision closes issued (diagnostic, §6.3 mechanism).
    pub(crate) collision_closes: u64,
}

impl Statconn {
    /// Build the manager for a node with its configured edges.
    pub(crate) fn new(edges: &[EdgeConfig], policy: IntervalPolicy, rng: Rng) -> Self {
        if let IntervalPolicy::Randomized { lo, hi } = policy {
            assert!(lo <= hi, "empty randomization window");
            let quanta = (hi - lo) / INTERVAL_QUANTUM + 1;
            assert!(
                quanta as usize >= edges.len().max(2),
                "window too narrow for per-node-unique intervals"
            );
        }
        Statconn {
            edges: edges
                .iter()
                .map(|e| EdgeState {
                    peer: e.peer,
                    role: e.role,
                    conn: None,
                    interval: None,
                })
                .collect(),
            policy,
            rng,
            reconnects: 0,
            collision_closes: 0,
        }
    }

    /// `true` once every configured edge has a live connection.
    pub(crate) fn fully_connected(&self) -> bool {
        self.edges.iter().all(|e| e.conn.is_some())
    }

    /// Draw an interval per policy, unique among this node's live
    /// connections (coordinator side of §6.3).
    fn draw_interval(&mut self) -> Duration {
        match self.policy {
            IntervalPolicy::Static(d) => d,
            IntervalPolicy::Randomized { lo, hi } => {
                let used: Vec<Duration> = self.edges.iter().filter_map(|e| e.interval).collect();
                draw_unused_interval(&mut self.rng, lo, hi, &used)
            }
        }
    }

    fn scan_action(&mut self, idx: usize) -> ConnAction {
        let interval = self.draw_interval();
        self.edges[idx].interval = Some(interval);
        ConnAction::Scan {
            peer: self.edges[idx].peer,
            interval,
        }
    }

    /// Initial bring-up: advertise if any edge wants us subordinate,
    /// scan for every coordinator edge.
    pub(crate) fn start(&mut self) -> Vec<ConnAction> {
        let mut actions = Vec::new();
        if self.edges.iter().any(|e| e.role == EdgeRole::Subordinate) {
            actions.push(ConnAction::Advertise);
        }
        for i in 0..self.edges.len() {
            if self.edges[i].role == EdgeRole::Coordinator {
                actions.push(self.scan_action(i));
            }
        }
        actions
    }

    /// A connection to `peer` reached the connected state with the
    /// given role and interval. May return a collision [`ConnAction::Close`].
    pub(crate) fn on_conn_up(
        &mut self,
        conn: ConnId,
        peer: NodeId,
        role: Role,
        interval: Duration,
    ) -> Vec<ConnAction> {
        let Some(idx) = self.edges.iter().position(|e| {
            e.peer == peer
                && matches!(
                    (e.role, role),
                    (EdgeRole::Coordinator, Role::Coordinator)
                        | (EdgeRole::Subordinate, Role::Subordinate)
                )
        }) else {
            // A connection we did not ask for; tolerate (tests).
            return Vec::new();
        };
        // §6.3 subordinate check: a fresh connection whose interval
        // collides with any other live connection is closed
        // immediately, forcing the coordinator to redraw. Only active
        // under the randomized policy (the paper's enhanced manager).
        if matches!(self.policy, IntervalPolicy::Randomized { .. }) && role == Role::Subordinate {
            let collides = self
                .edges
                .iter()
                .enumerate()
                .any(|(i, e)| i != idx && e.conn.is_some() && e.interval == Some(interval));
            if collides {
                self.collision_closes += 1;
                return vec![ConnAction::Close { conn }];
            }
        }
        self.edges[idx].conn = Some(conn);
        self.edges[idx].interval = Some(interval);
        let mut actions = Vec::new();
        // Keep advertising only while some subordinate edge is down.
        if self
            .edges
            .iter()
            .any(|e| e.role == EdgeRole::Subordinate && e.conn.is_none())
        {
            actions.push(ConnAction::Advertise);
        }
        actions
    }

    /// A connection died (supervision timeout or close): go back to
    /// advertising/scanning for its edge.
    pub(crate) fn on_conn_down(&mut self, conn: ConnId, peer: NodeId) -> Vec<ConnAction> {
        let Some(idx) = self
            .edges
            .iter()
            .position(|e| e.conn == Some(conn) || (e.conn.is_none() && e.peer == peer))
        else {
            return Vec::new();
        };
        self.edges[idx].conn = None;
        self.edges[idx].interval = None;
        self.reconnects += 1;
        match self.edges[idx].role {
            EdgeRole::Subordinate => vec![ConnAction::Advertise],
            EdgeRole::Coordinator => vec![self.scan_action(idx)],
        }
    }

    /// Record an interval change applied through the LL connection
    /// update procedure (keeps per-node uniqueness bookkeeping valid).
    pub(crate) fn note_interval(&mut self, conn: ConnId, interval: Duration) {
        if let Some(e) = self.edges.iter_mut().find(|e| e.conn == Some(conn)) {
            e.interval = Some(interval);
        }
    }

    /// The connection id serving `peer`, if up.
    pub(crate) fn conn_to(&self, peer: NodeId) -> Option<ConnId> {
        self.edges
            .iter()
            .find(|e| e.peer == peer)
            .and_then(|e| e.conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(1)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn start_advertises_and_scans_per_role() {
        let mut sc = Statconn::new(
            &[
                EdgeConfig {
                    peer: NodeId(0),
                    role: EdgeRole::Subordinate,
                },
                EdgeConfig {
                    peer: NodeId(2),
                    role: EdgeRole::Coordinator,
                },
            ],
            IntervalPolicy::Static(ms(75)),
            rng(),
        );
        let actions = sc.start();
        assert_eq!(actions[0], ConnAction::Advertise);
        assert!(matches!(&actions[1], ConnAction::Scan { peer, interval }
                if *peer == NodeId(2) && *interval == ms(75)));
    }

    #[test]
    fn reconnect_after_loss() {
        let mut sc = Statconn::new(
            &[EdgeConfig {
                peer: NodeId(2),
                role: EdgeRole::Coordinator,
            }],
            IntervalPolicy::Static(ms(75)),
            rng(),
        );
        let _ = sc.start();
        let _ = sc.on_conn_up(ConnId(9), NodeId(2), Role::Coordinator, ms(75));
        assert!(sc.fully_connected());
        let actions = sc.on_conn_down(ConnId(9), NodeId(2));
        assert!(matches!(actions[0], ConnAction::Scan { .. }));
        assert_eq!(sc.reconnects, 1);
        assert!(!sc.fully_connected());
    }

    #[test]
    fn randomized_draws_are_quantized_and_in_window() {
        let mut sc = Statconn::new(
            &[EdgeConfig {
                peer: NodeId(2),
                role: EdgeRole::Coordinator,
            }],
            IntervalPolicy::Randomized {
                lo: ms(65),
                hi: ms(85),
            },
            rng(),
        );
        for _ in 0..100 {
            let actions = sc.on_conn_down(ConnId(1), NodeId(2));
            let ConnAction::Scan { interval: i, .. } = actions[0] else {
                panic!("expected scan");
            };
            assert!(i >= ms(65) && i <= ms(85), "{i}");
            assert_eq!((i - ms(65)) % INTERVAL_QUANTUM, Duration::ZERO);
        }
    }

    #[test]
    fn coordinator_draws_unique_intervals() {
        let edges: Vec<EdgeConfig> = (2..6)
            .map(|i| EdgeConfig {
                peer: NodeId(i),
                role: EdgeRole::Coordinator,
            })
            .collect();
        let mut sc = Statconn::new(
            &edges,
            IntervalPolicy::Randomized {
                lo: ms(65),
                hi: ms(85),
            },
            rng(),
        );
        let actions = sc.start();
        let mut intervals: Vec<Duration> = actions
            .iter()
            .filter_map(|a| match a {
                ConnAction::Scan { interval, .. } => Some(*interval),
                _ => None,
            })
            .collect();
        assert_eq!(intervals.len(), 4);
        intervals.sort();
        intervals.dedup();
        assert_eq!(intervals.len(), 4, "intervals must be unique per node");
    }

    #[test]
    fn subordinate_closes_interval_collision() {
        let mut sc = Statconn::new(
            &[
                EdgeConfig {
                    peer: NodeId(0),
                    role: EdgeRole::Subordinate,
                },
                EdgeConfig {
                    peer: NodeId(2),
                    role: EdgeRole::Subordinate,
                },
            ],
            IntervalPolicy::Randomized {
                lo: ms(65),
                hi: ms(85),
            },
            rng(),
        );
        let _ = sc.start();
        let a = sc.on_conn_up(ConnId(1), NodeId(0), Role::Subordinate, ms(75));
        assert!(!a.iter().any(|x| matches!(x, ConnAction::Close { .. })));
        // Second connection arrives with the SAME interval → reject.
        let a = sc.on_conn_up(ConnId(2), NodeId(2), Role::Subordinate, ms(75));
        assert_eq!(a, vec![ConnAction::Close { conn: ConnId(2) }]);
        assert_eq!(sc.collision_closes, 1);
        // A different interval is accepted.
        let a = sc.on_conn_up(ConnId(3), NodeId(2), Role::Subordinate, ms(80));
        assert!(!a.iter().any(|x| matches!(x, ConnAction::Close { .. })));
        assert!(sc.fully_connected());
    }

    #[test]
    fn static_policy_never_collision_closes() {
        let mut sc = Statconn::new(
            &[
                EdgeConfig {
                    peer: NodeId(0),
                    role: EdgeRole::Subordinate,
                },
                EdgeConfig {
                    peer: NodeId(2),
                    role: EdgeRole::Subordinate,
                },
            ],
            IntervalPolicy::Static(ms(75)),
            rng(),
        );
        let _ = sc.start();
        let _ = sc.on_conn_up(ConnId(1), NodeId(0), Role::Subordinate, ms(75));
        let a = sc.on_conn_up(ConnId(2), NodeId(2), Role::Subordinate, ms(75));
        assert!(!a.iter().any(|x| matches!(x, ConnAction::Close { .. })));
    }

    #[test]
    fn policy_labels_match_paper_notation() {
        assert_eq!(IntervalPolicy::Static(ms(75)).label(), "75ms");
        assert_eq!(
            IntervalPolicy::Randomized {
                lo: ms(65),
                hi: ms(85)
            }
            .label(),
            "[65:85]ms"
        );
    }

    #[test]
    #[should_panic]
    fn too_narrow_window_rejected() {
        let edges: Vec<EdgeConfig> = (0..4)
            .map(|i| EdgeConfig {
                peer: NodeId(i),
                role: EdgeRole::Coordinator,
            })
            .collect();
        let _ = Statconn::new(
            &edges,
            IntervalPolicy::Randomized {
                lo: ms(75),
                hi: ms(76),
            },
            rng(),
        );
    }
}
