//! The paper's network topologies (Fig. 6).
//!
//! Both are trees in the graph sense (the line is a degenerate one),
//! so connectivity is a parent array. Link-layer roles follow the
//! paper's deployment: the *downstream* node of each link initiates
//! the connection (coordinator), the upstream node advertises
//! (subordinate). Fig. 12 confirms this: the consumer (root) holds
//! all three of its connections as subordinate.
//!
//! Routes are installed exactly as the paper describes (§4.3):
//! statically, towards the consumer for upstream traffic and back
//! down every branch for the responses.

use mindgap_core::{EdgeConfig, EdgeRole, NodeConfig};
use mindgap_net::Ipv6Addr;
use mindgap_sim::NodeId;

pub mod geo;
pub use geo::{MeshTopology, MAX_CONN_DEGREE};

/// A tree-shaped testbed topology.
#[derive(Debug, Clone)]
pub struct Topology {
    /// `parent[i]` — the upstream neighbour of node `i` (None for the
    /// consumer/root).
    pub parent: Vec<Option<usize>>,
    /// The consumer node (tree root / line end).
    pub consumer: NodeId,
    /// Human-readable name ("tree", "line").
    pub name: &'static str,
}

impl Topology {
    /// The paper's 15-node tree: the root (consumer) has 3 children,
    /// each of which has 2, and five leaves hang at depth 3 — giving
    /// the paper's mean producer hop count of 2.14 and maximum of 3.
    ///
    /// Node 0 is the consumer; producers are 1–14.
    pub fn paper_tree() -> Self {
        // depth-1: 1, 2, 3   (children of 0)
        // depth-2: 4..=9     (two children per depth-1 node)
        // depth-3: 10..=14   (five leaves, spread over depth-2 nodes)
        let mut parent = vec![None; 15];
        for (child, par) in [
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 1),
            (5, 1),
            (6, 2),
            (7, 2),
            (8, 3),
            (9, 3),
            (10, 4),
            (11, 5),
            (12, 6),
            (13, 7),
            (14, 8),
        ] {
            parent[child] = Some(par);
        }
        Topology {
            parent,
            consumer: NodeId(0),
            name: "tree",
        }
    }

    /// The paper's 15-node line: 0 — 1 — … — 14, consumer at node 0,
    /// maximum hop count 14, mean producer hop count 7.5.
    pub fn paper_line() -> Self {
        let parent = (0..15)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        Topology {
            parent,
            consumer: NodeId(0),
            name: "line",
        }
    }

    /// A line of arbitrary length (for scaling studies and tests).
    pub fn line(n: usize) -> Self {
        assert!(n >= 2);
        let parent = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        Topology {
            parent,
            consumer: NodeId(0),
            name: "line",
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` for an (invalid) empty topology — kept for API hygiene.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// All nodes except the consumer, i.e. the paper's producers.
    pub fn producers(&self) -> Vec<NodeId> {
        (0..self.len() as u16)
            .map(NodeId)
            .filter(|n| *n != self.consumer)
            .collect()
    }

    /// Hop count from `node` to the consumer.
    pub fn hops(&self, node: usize) -> usize {
        let mut n = node;
        let mut hops = 0;
        while let Some(p) = self.parent[n] {
            n = p;
            hops += 1;
            assert!(hops <= self.len(), "parent cycle");
        }
        hops
    }

    /// Mean producer hop count (paper: 2.14 tree, 7.5 line).
    pub fn mean_hops(&self) -> f64 {
        let producers = self.producers();
        let total: usize = producers.iter().map(|p| self.hops(p.index())).sum();
        total as f64 / producers.len() as f64
    }

    /// Children of a node.
    pub fn children(&self, node: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.parent[i] == Some(node))
            .collect()
    }

    /// The next hop from `from` towards `to` along tree paths.
    fn next_hop(&self, from: usize, to: usize) -> usize {
        assert_ne!(from, to);
        // Collect `to`'s ancestor chain (including itself).
        let mut chain = vec![to];
        let mut n = to;
        while let Some(p) = self.parent[n] {
            chain.push(p);
            n = p;
        }
        // If `from` is on the chain, descend one step towards `to`.
        if let Some(pos) = chain.iter().position(|&x| x == from) {
            assert!(pos > 0);
            return chain[pos - 1];
        }
        // Otherwise route upward.
        self.parent[from].expect("root is on every chain")
    }

    /// Build the per-node world configuration: statconn edges and the
    /// complete static host-route set.
    pub fn node_configs(&self) -> Vec<NodeConfig> {
        (0..self.len())
            .map(|i| {
                let mut edges = Vec::new();
                // Upstream edge: we coordinate towards the parent.
                if let Some(p) = self.parent[i] {
                    edges.push(EdgeConfig {
                        peer: NodeId(p as u16),
                        role: EdgeRole::Coordinator,
                    });
                }
                // Downstream edges: we advertise for our children.
                for c in self.children(i) {
                    edges.push(EdgeConfig {
                        peer: NodeId(c as u16),
                        role: EdgeRole::Subordinate,
                    });
                }
                // Host routes to every non-neighbour (direct neighbours
                // resolve on-link without a route).
                let mut routes = Vec::new();
                for dst in 0..self.len() {
                    if dst == i {
                        continue;
                    }
                    let nh = self.next_hop(i, dst);
                    if nh != dst {
                        routes.push((Ipv6Addr::of_node(dst as u16), Ipv6Addr::of_node(nh as u16)));
                    }
                }
                NodeConfig { edges, routes }
            })
            .collect()
    }
}

/// A `cols × rows` grid mesh with redundant links — the substrate for
/// the dynamic-routing (future-work) experiments. Node 0 (a corner)
/// is the consumer/DODAG root. Each grid edge becomes a statconn
/// edge: the lower-id endpoint advertises (subordinate), the higher-id
/// endpoint initiates (coordinator). No static routes are installed —
/// pair with `WorldConfig::dynamic_routing`.
pub fn mesh_node_configs(cols: usize, rows: usize) -> Vec<NodeConfig> {
    assert!(cols >= 2 && rows >= 1);
    let n = cols * rows;
    let id = |c: usize, r: usize| r * cols + c;
    let mut edges: Vec<Vec<EdgeConfig>> = vec![Vec::new(); n];
    let mut add = |a: usize, b: usize| {
        let (lo, hi) = (a.min(b), a.max(b));
        edges[lo].push(EdgeConfig {
            peer: NodeId(hi as u16),
            role: EdgeRole::Subordinate,
        });
        edges[hi].push(EdgeConfig {
            peer: NodeId(lo as u16),
            role: EdgeRole::Coordinator,
        });
    };
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                add(id(c, r), id(c + 1, r));
            }
            if r + 1 < rows {
                add(id(c, r), id(c, r + 1));
            }
        }
    }
    edges
        .into_iter()
        .map(|e| NodeConfig {
            edges: e,
            routes: Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tree_matches_reported_statistics() {
        let t = Topology::paper_tree();
        assert_eq!(t.len(), 15);
        assert_eq!(t.producers().len(), 14);
        assert!((t.mean_hops() - 2.142).abs() < 0.01, "{}", t.mean_hops());
        let max = t
            .producers()
            .iter()
            .map(|p| t.hops(p.index()))
            .max()
            .unwrap();
        assert_eq!(max, 3);
        // Fig. 12: the consumer subordinates exactly three connections.
        assert_eq!(t.children(0).len(), 3);
    }

    #[test]
    fn paper_line_matches_reported_statistics() {
        let t = Topology::paper_line();
        assert_eq!(t.len(), 15);
        assert!((t.mean_hops() - 7.5).abs() < 1e-9);
        assert_eq!(t.hops(14), 14);
    }

    #[test]
    fn edges_mirror_between_neighbours() {
        let t = Topology::paper_tree();
        let cfgs = t.node_configs();
        for (i, cfg) in cfgs.iter().enumerate() {
            for e in &cfg.edges {
                let peer_cfg = &cfgs[e.peer.index()];
                let back = peer_cfg
                    .edges
                    .iter()
                    .find(|b| b.peer == NodeId(i as u16))
                    .expect("edge must be mirrored");
                assert_ne!(e.role, back.role, "roles must be complementary");
            }
        }
        // Each node has at most 4 connections (the hardware's radio
        // scheduling limit the paper mentions in §4.3).
        assert!(cfgs.iter().all(|c| c.edges.len() <= 4));
    }

    #[test]
    fn routes_form_loop_free_paths() {
        for t in [Topology::paper_tree(), Topology::paper_line()] {
            let n = t.len();
            for from in 0..n {
                for to in 0..n {
                    if from == to {
                        continue;
                    }
                    // Walk next hops; must reach `to` within n steps.
                    let mut cur = from;
                    for step in 0..=n {
                        if cur == to {
                            break;
                        }
                        assert!(step < n, "routing loop {from}→{to} in {}", t.name);
                        cur = t.next_hop(cur, to);
                    }
                }
            }
        }
    }

    #[test]
    fn consumer_has_no_upstream_edge() {
        let t = Topology::paper_tree();
        let cfgs = t.node_configs();
        assert!(cfgs[0]
            .edges
            .iter()
            .all(|e| e.role == EdgeRole::Subordinate));
    }

    #[test]
    fn mesh_grid_edges_are_mirrored_and_redundant() {
        let cfgs = mesh_node_configs(3, 3);
        assert_eq!(cfgs.len(), 9);
        // 3×3 grid: 12 edges; corner degree 2, centre degree 4.
        let total_edges: usize = cfgs.iter().map(|c| c.edges.len()).sum();
        assert_eq!(total_edges, 24, "12 links × 2 endpoints");
        assert_eq!(cfgs[0].edges.len(), 2);
        assert_eq!(cfgs[4].edges.len(), 4);
        for (i, cfg) in cfgs.iter().enumerate() {
            for e in &cfg.edges {
                let back = cfgs[e.peer.index()]
                    .edges
                    .iter()
                    .find(|b| b.peer.index() == i)
                    .expect("mirrored");
                assert_ne!(e.role, back.role);
            }
            assert!(cfg.routes.is_empty(), "mesh uses dynamic routing");
        }
    }

    #[test]
    fn custom_line_lengths() {
        let t = Topology::line(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.hops(3), 3);
        assert_eq!(t.node_configs().len(), 4);
    }
}
