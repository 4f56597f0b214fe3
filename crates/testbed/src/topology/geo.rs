//! Synthetic large-mesh topology generator (scaling studies).
//!
//! The paper's testbed stops at 15 nodes; the scaling question
//! (Rondón et al., PAPERS.md) needs hundreds. A [`MeshTopology`]
//! places nodes on a 2-D floor, derives the *radio graph* (which pairs
//! can hear each other at all) from the [`path_loss`] log-distance
//! model (cut off at [`path_loss::link_range_m`]), and selects a
//! degree-bounded *connection graph* (which pairs run a BLE
//! connection) as a distance-greedy spanning structure plus redundant
//! shortcuts. [`MeshTopology::random_geometric`] places nodes
//! uniformly in a square, re-drawn (deterministically) until the radio
//! graph is connected.
//!
//! Everything derives from the seed: placement, the shadowing term in
//! per-link PER, and therefore the adjacency itself. Same seed — same
//! graph, byte for byte.

use mindgap_core::{EdgeConfig, EdgeRole, NodeConfig};
use mindgap_phy::path_loss;
use mindgap_sim::{NodeId, Rng};

/// Per-node cap on BLE connections — the radio-scheduling limit the
/// paper mentions in §4.3 and `Topology::node_configs` also respects.
pub const MAX_CONN_DEGREE: usize = 4;

/// A generated large-mesh topology: node positions, the radio graph,
/// and a degree-bounded connection graph for statconn + RPL.
#[derive(Debug, Clone)]
pub struct MeshTopology {
    /// Human-readable name (`geo<n>`, e.g. "geo500").
    pub name: String,
    /// Node positions in metres.
    pub positions: Vec<(f64, f64)>,
    /// Radio adjacency: unordered pairs `(lo, hi)` with `lo < hi`,
    /// sorted ascending. A pair not listed here is out of range.
    pub links: Vec<(u16, u16)>,
    /// Connection graph: the subset of [`MeshTopology::links`] that
    /// carries a BLE connection (`lo` advertises, `hi` initiates),
    /// degree ≤ [`MAX_CONN_DEGREE`], spanning, sorted ascending.
    pub edges: Vec<(u16, u16)>,
    /// The consumer / DODAG root (always node 0, placed at a corner).
    pub consumer: NodeId,
    /// Seed the placement and shadowing derive from.
    pub seed: u64,
}

impl MeshTopology {
    /// `n` nodes placed uniformly at random in a `side_m × side_m`
    /// square. Placement is re-drawn (deterministically — the attempt
    /// counter folds into the RNG stream) until the radio graph is
    /// connected; the node closest to the origin corner is swapped to
    /// id 0 and becomes the consumer.
    pub fn random_geometric(n: usize, side_m: f64, seed: u64) -> Self {
        assert!((2..=u16::MAX as usize).contains(&n));
        assert!(side_m > 0.0);
        for attempt in 0..64u64 {
            let mut rng = Rng::seed_from_u64(seed).fork(0x6E0_0000 ^ attempt);
            let mut positions: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.range_f64(0.0, side_m), rng.range_f64(0.0, side_m)))
                .collect();
            // The consumer is the corner-most node: swap it to id 0 so
            // the root sits at the edge of the field, as in a real
            // deployment (gateway by the wall, not mid-floor).
            let corner = (0..n)
                .min_by(|&a, &b| {
                    let da = positions[a].0.hypot(positions[a].1);
                    let db = positions[b].0.hypot(positions[b].1);
                    da.total_cmp(&db).then(a.cmp(&b))
                })
                .unwrap();
            positions.swap(0, corner);
            if let Some(t) = Self::from_positions(format!("geo{n}"), positions, seed) {
                return t;
            }
        }
        panic!(
            "random_geometric({n}, {side_m} m, seed {seed}): no connected placement \
             in 64 attempts — the field is too sparse for the radio range"
        );
    }

    /// Derive radio links and the connection graph from positions.
    /// Returns `None` if the radio graph does not connect node 0 to
    /// every other node.
    fn from_positions(name: String, positions: Vec<(f64, f64)>, seed: u64) -> Option<Self> {
        let links = radio_links(&positions, seed);
        if !connected(positions.len(), &links) {
            return None;
        }
        let pers: Vec<f64> = links
            .iter()
            .map(|&(a, b)| {
                let (ax, ay) = positions[a as usize];
                let (bx, by) = positions[b as usize];
                path_loss::link_per(seed, a, b, (ax - bx).hypot(ay - by))
            })
            .collect();
        let edges = select_conn_edges(positions.len(), &links, &pers, &positions);
        Some(MeshTopology {
            name,
            positions,
            links,
            edges,
            consumer: NodeId(0),
            seed,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` for an (invalid) empty topology — kept for API hygiene.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Euclidean distance between two nodes in metres.
    pub fn distance(&self, a: u16, b: u16) -> f64 {
        let (ax, ay) = self.positions[a as usize];
        let (bx, by) = self.positions[b as usize];
        (ax - bx).hypot(ay - by)
    }

    /// All nodes except the consumer.
    pub fn producers(&self) -> Vec<NodeId> {
        (0..self.len() as u16)
            .map(NodeId)
            .filter(|n| *n != self.consumer)
            .collect()
    }

    /// Radio-graph degree of a node.
    pub fn radio_degree(&self, node: u16) -> usize {
        self.links
            .iter()
            .filter(|&&(a, b)| a == node || b == node)
            .count()
    }

    /// Connection-graph degree of a node.
    pub fn conn_degree(&self, node: u16) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| a == node || b == node)
            .count()
    }

    /// Distance-induced PER of the directed-symmetric link `(a, b)`
    /// (shadowing keys on the unordered pair, so both directions
    /// match).
    pub fn link_per(&self, a: u16, b: u16) -> f64 {
        path_loss::link_per(self.seed, a, b, self.distance(a, b))
    }

    /// The lossy subset of the radio graph: `(a, b, per)` for every
    /// link whose distance-induced PER is non-zero. Feed to
    /// `World::set_link_per`.
    pub fn link_per_list(&self) -> Vec<(u16, u16, f64)> {
        self.links
            .iter()
            .filter_map(|&(a, b)| {
                let per = self.link_per(a, b);
                (per > 0.0).then_some((a, b, per))
            })
            .collect()
    }

    /// Per-node world configuration: one statconn edge per connection-
    /// graph edge — the lower id advertises (subordinate), the higher
    /// id initiates (coordinator), matching `mesh_node_configs` — and
    /// no static routes (pair with `WorldConfig::dynamic_routing`).
    pub fn node_configs(&self) -> Vec<NodeConfig> {
        let mut edges: Vec<Vec<EdgeConfig>> = vec![Vec::new(); self.len()];
        for &(lo, hi) in &self.edges {
            edges[lo as usize].push(EdgeConfig {
                peer: NodeId(hi),
                role: EdgeRole::Subordinate,
            });
            edges[hi as usize].push(EdgeConfig {
                peer: NodeId(lo),
                role: EdgeRole::Coordinator,
            });
        }
        edges
            .into_iter()
            .map(|e| NodeConfig {
                edges: e,
                routes: Vec::new(),
            })
            .collect()
    }
}

/// All pairs within the hard cutoff ([`path_loss::link_range_m`])
/// whose shadowed link budget leaves PER < 1 (i.e. the receiver is
/// above sensitivity at least some of the time). Pairs farther apart
/// never share a link even if a lucky shadowing draw would give them
/// margin. Uses a uniform cell grid so candidate enumeration is
/// O(n · local density), not O(n²).
fn radio_links(positions: &[(f64, f64)], seed: u64) -> Vec<(u16, u16)> {
    let max_link_m = path_loss::link_range_m();
    let cell = max_link_m.max(1e-9);
    let key = |x: f64, y: f64| ((x / cell).floor() as i64, (y / cell).floor() as i64);
    let mut grid: std::collections::HashMap<(i64, i64), Vec<u16>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in positions.iter().enumerate() {
        grid.entry(key(x, y)).or_default().push(i as u16);
    }
    let mut links = Vec::new();
    for (i, &(x, y)) in positions.iter().enumerate() {
        let i = i as u16;
        let (cx, cy) = key(x, y);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = grid.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in bucket {
                    if j <= i {
                        continue;
                    }
                    let (jx, jy) = positions[j as usize];
                    let d = (x - jx).hypot(y - jy);
                    if d <= max_link_m && path_loss::link_per(seed, i, j, d) < 1.0 {
                        links.push((i, j));
                    }
                }
            }
        }
    }
    links.sort_unstable();
    links
}

/// BFS connectivity of the radio graph from node 0.
fn connected(n: usize, links: &[(u16, u16)]) -> bool {
    let mut adj: Vec<Vec<u16>> = vec![Vec::new(); n];
    for &(a, b) in links {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([0u16]);
    seen[0] = true;
    let mut reached = 1;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u as usize] {
            if !seen[v as usize] {
                seen[v as usize] = true;
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    reached == n
}

/// Pick the connection graph: quality-greedy spanning forest under
/// the degree cap (Kruskal over links sorted by PER then distance — a
/// supervision timeout on a lossy edge costs far more than an extra
/// hop), a rescue pass that ignores the cap if the capped forest
/// failed to span (rare — only in pathological geometries), then
/// redundant shortcuts added best-first while both endpoints have
/// degree headroom.
fn select_conn_edges(
    n: usize,
    links: &[(u16, u16)],
    pers: &[f64],
    positions: &[(f64, f64)],
) -> Vec<(u16, u16)> {
    let dist = |a: u16, b: u16| {
        let (ax, ay) = positions[a as usize];
        let (bx, by) = positions[b as usize];
        (ax - bx).hypot(ay - by)
    };
    let mut cand: Vec<(usize, (u16, u16))> = links.iter().copied().enumerate().collect();
    cand.sort_by(|&(i1, (a1, b1)), &(i2, (a2, b2))| {
        pers[i1]
            .total_cmp(&pers[i2])
            .then(dist(a1, b1).total_cmp(&dist(a2, b2)))
            .then(a1.cmp(&a2))
            .then(b1.cmp(&b2))
    });
    let cand: Vec<(u16, u16)> = cand.into_iter().map(|(_, l)| l).collect();
    // Links worth running a connection over: a supervision timeout
    // storm on a PER>0.2 edge costs more than any detour. The rescue
    // pass below still sees the full list, so a node whose links are
    // all lossy stays attached.
    let clean_end = cand
        .iter()
        .position(|&(a, b)| {
            let i = links.binary_search(&(a, b)).expect("cand ⊆ links");
            pers[i] > 0.2
        })
        .unwrap_or(cand.len());

    // Union-find.
    let mut parent: Vec<u16> = (0..n as u16).collect();
    fn find(parent: &mut [u16], mut x: u16) -> u16 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    let mut degree = vec![0usize; n];
    let mut chosen: Vec<(u16, u16)> = Vec::new();
    let mut components = n;
    // Pass 1: capped spanning forest, best (clean, short) links first.
    for &(a, b) in &cand[..clean_end] {
        if components == 1 {
            break;
        }
        if degree[a as usize] >= MAX_CONN_DEGREE || degree[b as usize] >= MAX_CONN_DEGREE {
            continue;
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra as usize] = rb;
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            chosen.push((a, b));
            components -= 1;
        }
    }
    // Pass 2 (rescue): if the cap or the PER filter stranded a
    // component, span anyway — an over-cap or lossy edge beats a
    // partitioned mesh.
    if components > 1 {
        for &(a, b) in &cand {
            if components == 1 {
                break;
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra as usize] = rb;
                degree[a as usize] += 1;
                degree[b as usize] += 1;
                chosen.push((a, b));
                components -= 1;
            }
        }
    }
    // Pass 3: redundancy — RPL wants alternative parents. Best
    // remaining clean links while both endpoints have headroom.
    let in_tree: std::collections::HashSet<(u16, u16)> = chosen.iter().copied().collect();
    for &(a, b) in &cand[..clean_end] {
        if in_tree.contains(&(a, b)) {
            continue;
        }
        if degree[a as usize] < MAX_CONN_DEGREE && degree[b as usize] < MAX_CONN_DEGREE {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            chosen.push((a, b));
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Connection-graph BFS from the consumer.
    fn conn_reaches_all(t: &MeshTopology) -> bool {
        connected(t.len(), &t.edges)
    }

    #[test]
    fn generators_are_deterministic() {
        let a = MeshTopology::random_geometric(120, 300.0, 7);
        let b = MeshTopology::random_geometric(120, 300.0, 7);
        assert_eq!(a.positions, b.positions, "same seed, same placement");
        assert_eq!(a.links, b.links, "same seed, same radio graph");
        assert_eq!(a.edges, b.edges, "same seed, same connection graph");
        // And a different seed genuinely moves the placement.
        let c = MeshTopology::random_geometric(120, 300.0, 8);
        let a = MeshTopology::random_geometric(120, 300.0, 7);
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn geometric_connectivity_across_seeds() {
        for seed in 0..8 {
            let t = MeshTopology::random_geometric(100, 250.0, seed);
            assert!(conn_reaches_all(&t), "seed {seed}: root reaches everyone");
            assert!(connected(t.len(), &t.links), "radio graph connected");
        }
    }

    #[test]
    fn geometric_degree_bounds() {
        for seed in 0..4 {
            let t = MeshTopology::random_geometric(150, 300.0, seed);
            for node in 0..t.len() as u16 {
                let cd = t.conn_degree(node);
                assert!(
                    (1..=MAX_CONN_DEGREE).contains(&cd),
                    "seed {seed} node {node}: conn degree {cd}"
                );
                // Radio degree is bounded by disc packing: nodes
                // within the link range of each other. At this density the
                // expected degree is ~12; 64 is a generous regression
                // bound that a dense-matrix bug would blow through.
                assert!(t.radio_degree(node) <= 64);
            }
            // The conn graph is a strict (degree-capped) subgraph.
            for e in &t.edges {
                assert!(t.links.contains(e), "conn edge {e:?} must be a radio link");
            }
        }
    }

    #[test]
    fn node_configs_mirror_roles_and_respect_cap() {
        let t = MeshTopology::random_geometric(80, 220.0, 11);
        let cfgs = t.node_configs();
        assert_eq!(cfgs.len(), 80);
        for (i, cfg) in cfgs.iter().enumerate() {
            assert!(cfg.edges.len() <= MAX_CONN_DEGREE, "node {i}");
            assert!(cfg.routes.is_empty(), "mesh uses dynamic routing");
            for e in &cfg.edges {
                let back = cfgs[e.peer.index()]
                    .edges
                    .iter()
                    .find(|b| b.peer.index() == i)
                    .expect("mirrored");
                assert_ne!(e.role, back.role, "roles complementary");
                // Lower id advertises.
                let expect = if i < e.peer.index() {
                    EdgeRole::Subordinate
                } else {
                    EdgeRole::Coordinator
                };
                assert_eq!(e.role, expect);
            }
        }
    }

    /// Pins one generated mesh bit for bit: its radio graph, its
    /// connection graph and the PER of every lossy link, which all
    /// derive from the path-loss model.
    #[test]
    fn random_geometric_mesh_is_pinned() {
        let t = MeshTopology::random_geometric(120, 300.0, 7);
        let fnv = |h: u64, x: u64| {
            x.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut h = 0xcbf2_9ce4_8422_2325;
        for &(a, b) in t.links.iter().chain(&t.edges) {
            h = fnv(fnv(h, a as u64), b as u64);
        }
        let pers = t.link_per_list();
        for &(a, b, per) in &pers {
            h = fnv(fnv(fnv(h, a as u64), b as u64), per.to_bits());
        }
        assert_eq!(
            (t.links.len(), t.edges.len(), pers.len(), h),
            (1265, 234, 612, 0xc62b_bb46_a4fe_895c),
            "{h:#018x}"
        );
    }

    #[test]
    fn link_per_is_symmetric_and_mostly_clean() {
        let t = MeshTopology::random_geometric(100, 250.0, 5);
        for &(a, b) in t.links.iter().take(200) {
            assert_eq!(t.link_per(a, b), t.link_per(b, a));
            assert!(t.link_per(a, b) < 1.0, "links are audible by construction");
        }
        // The spanning structure prefers short links, so most conn
        // edges sit inside the zero-PER range.
        let lossy = t
            .edges
            .iter()
            .filter(|&&(a, b)| t.link_per(a, b) > 0.0)
            .count();
        assert!(
            lossy * 2 < t.edges.len(),
            "{lossy}/{} conn edges lossy",
            t.edges.len()
        );
    }
}
