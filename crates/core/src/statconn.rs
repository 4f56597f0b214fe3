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

use mindgap_ble::channels::ChannelMap;
use mindgap_ble::{ConnId, ConnParams, Role};
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

/// Actions the world executes on behalf of the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScAction {
    /// Start advertising (the link layer is idempotent about it).
    Advertise,
    /// Scan for `peer` and initiate with `params`.
    Scan {
        /// Peer to connect to.
        peer: NodeId,
        /// Connection parameters (interval drawn by the policy).
        params: ConnParams,
    },
    /// Close a connection (both ends) — subordinate-side interval
    /// collision (§6.3).
    Close {
        /// The offending connection.
        conn: ConnId,
    },
}

/// The per-node connection manager.
pub struct Statconn {
    node: NodeId,
    edges: Vec<EdgeState>,
    policy: IntervalPolicy,
    /// Channel map used for initiated connections (the paper excludes
    /// the jammed channel 22; ablations may pass `ChannelMap::ALL`).
    channel_map: ChannelMap,
    /// Explicit supervision timeout overriding NimBLE's default (the
    /// paper's configuration; chaos fault grids sweep this knob).
    supervision_override: Option<Duration>,
    rng: Rng,
    /// Reconnections performed (diagnostic).
    pub reconnects: u64,
    /// Collision closes issued (diagnostic, §6.3 mechanism).
    pub collision_closes: u64,
}

impl Statconn {
    /// Build the manager for `node` with its configured edges.
    pub fn new(node: NodeId, edges: &[EdgeConfig], policy: IntervalPolicy, rng: Rng) -> Self {
        Self::with_channel_map(node, edges, policy, ChannelMap::all_except_jammed(), rng)
    }

    /// Like [`Statconn::new`] with an explicit channel map for the
    /// connections this node initiates.
    pub fn with_channel_map(
        node: NodeId,
        edges: &[EdgeConfig],
        policy: IntervalPolicy,
        channel_map: ChannelMap,
        rng: Rng,
    ) -> Self {
        if let IntervalPolicy::Randomized { lo, hi } = policy {
            assert!(lo <= hi, "empty randomization window");
            let quanta = (hi - lo) / INTERVAL_QUANTUM + 1;
            assert!(
                quanta as usize >= edges.len().max(2),
                "window too narrow for per-node-unique intervals"
            );
        }
        Statconn {
            node,
            channel_map,
            supervision_override: None,
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

    /// This node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// `true` once every configured edge has a live connection.
    pub fn fully_connected(&self) -> bool {
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

    /// Force a specific supervision timeout on every connection this
    /// node initiates (must exceed the largest connection interval the
    /// policy can draw — `ConnParams::validate` enforces it).
    pub fn set_supervision_timeout(&mut self, timeout: Duration) {
        self.supervision_override = Some(timeout);
    }

    fn scan_action(&mut self, idx: usize) -> ScAction {
        let interval = self.draw_interval();
        self.edges[idx].interval = Some(interval);
        let mut params = ConnParams::with_interval_nimble(interval);
        if let Some(t) = self.supervision_override {
            params.supervision_timeout = t;
        }
        params.channel_map = self.channel_map;
        ScAction::Scan {
            peer: self.edges[idx].peer,
            params,
        }
    }

    /// Initial bring-up: advertise if any edge wants us subordinate,
    /// scan for every coordinator edge.
    pub fn start(&mut self) -> Vec<ScAction> {
        let mut actions = Vec::new();
        if self.edges.iter().any(|e| e.role == EdgeRole::Subordinate) {
            actions.push(ScAction::Advertise);
        }
        for i in 0..self.edges.len() {
            if self.edges[i].role == EdgeRole::Coordinator {
                actions.push(self.scan_action(i));
            }
        }
        actions
    }

    /// A connection to `peer` reached the connected state with the
    /// given role and interval. May return a collision [`ScAction::Close`].
    pub fn on_conn_up(
        &mut self,
        conn: ConnId,
        peer: NodeId,
        role: Role,
        interval: Duration,
    ) -> Vec<ScAction> {
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
                return vec![ScAction::Close { conn }];
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
            actions.push(ScAction::Advertise);
        }
        actions
    }

    /// A connection died (supervision timeout or close): go back to
    /// advertising/scanning for its edge.
    pub fn on_conn_down(&mut self, conn: ConnId, peer: NodeId) -> Vec<ScAction> {
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
            EdgeRole::Subordinate => vec![ScAction::Advertise],
            EdgeRole::Coordinator => vec![self.scan_action(idx)],
        }
    }

    /// Record an interval change applied through the LL connection
    /// update procedure (keeps per-node uniqueness bookkeeping valid).
    pub fn note_interval(&mut self, conn: ConnId, interval: Duration) {
        if let Some(e) = self.edges.iter_mut().find(|e| e.conn == Some(conn)) {
            e.interval = Some(interval);
        }
    }

    /// The connection id serving `peer`, if up.
    pub fn conn_to(&self, peer: NodeId) -> Option<ConnId> {
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
            NodeId(1),
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
        assert_eq!(actions[0], ScAction::Advertise);
        assert!(matches!(&actions[1], ScAction::Scan { peer, params }
                if *peer == NodeId(2) && params.interval == ms(75)));
    }

    #[test]
    fn reconnect_after_loss() {
        let mut sc = Statconn::new(
            NodeId(1),
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
        assert!(matches!(actions[0], ScAction::Scan { .. }));
        assert_eq!(sc.reconnects, 1);
        assert!(!sc.fully_connected());
    }

    #[test]
    fn randomized_draws_are_quantized_and_in_window() {
        let mut sc = Statconn::new(
            NodeId(1),
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
            let ScAction::Scan { params, .. } = &actions[0] else {
                panic!("expected scan");
            };
            let i = params.interval;
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
            NodeId(1),
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
                ScAction::Scan { params, .. } => Some(params.interval),
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
            NodeId(1),
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
        assert!(!a.iter().any(|x| matches!(x, ScAction::Close { .. })));
        // Second connection arrives with the SAME interval → reject.
        let a = sc.on_conn_up(ConnId(2), NodeId(2), Role::Subordinate, ms(75));
        assert_eq!(a, vec![ScAction::Close { conn: ConnId(2) }]);
        assert_eq!(sc.collision_closes, 1);
        // A different interval is accepted.
        let a = sc.on_conn_up(ConnId(3), NodeId(2), Role::Subordinate, ms(80));
        assert!(!a.iter().any(|x| matches!(x, ScAction::Close { .. })));
        assert!(sc.fully_connected());
    }

    #[test]
    fn static_policy_never_collision_closes() {
        let mut sc = Statconn::new(
            NodeId(1),
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
        assert!(!a.iter().any(|x| matches!(x, ScAction::Close { .. })));
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
            NodeId(9),
            &edges,
            IntervalPolicy::Randomized {
                lo: ms(75),
                hi: ms(76),
            },
            rng(),
        );
    }
}
