//! Node mobility.
//!
//! Static topologies freeze the geometry that [`path_loss`]
//! turns into per-link PER; this module makes the geometry move with
//! the classic **random walk** from the MANET literature: each node
//! walks at [`SPEED_MPS`], turns to a fresh uniform heading every
//! [`TURN_EVERY_S`] and reflects off the arena walls, so links break
//! and form as nodes drift in and out of each other's radio range.
//!
//! Determinism contract: a [`Mobility`] owns its RNG, every
//! [`Mobility::step`] draws in node-index order, and all arithmetic is
//! plain `f64` on a fixed tick — so the same seed yields byte-identical
//! position trajectories (and therefore byte-identical PER
//! trajectories through [`path_loss::link_per`]), which the
//! property tests pin. Pinned nodes (the DODAG root, say) never move
//! and never draw. All nodes share the one stream, so pinning a node
//! does move others: each turn draw it skips goes to the next node
//! that turns. The same seed and the same pins give the same paths.
//!
//! [`path_loss`]: crate::path_loss
//! [`path_loss::link_per`]: crate::path_loss::link_per

use mindgap_sim::Rng;

/// Walking speed in metres per second: a gentle indoor pace.
pub const SPEED_MPS: f64 = 1.0;

/// Seconds between heading changes.
pub const TURN_EVERY_S: f64 = 10.0;

/// Per-node motion state: heading in radians and seconds until the
/// next turn.
#[derive(Debug, Clone, Copy)]
struct Walking {
    heading: f64,
    until_turn_s: f64,
}

/// The moving geometry: positions, per-node motion state, and the RNG
/// that drives both. Built from a topology's initial positions; the
/// world steps it on a fixed tick and re-derives link PER from the
/// updated distances.
#[derive(Debug, Clone)]
pub struct Mobility {
    /// Arena size in metres; positions are clamped to `[0, w] × [0, h]`.
    bounds: (f64, f64),
    positions: Vec<(f64, f64)>,
    pinned: Vec<bool>,
    motion: Vec<Walking>,
    rng: Rng,
}

impl Mobility {
    /// A mobility field over `positions` inside `bounds` (width,
    /// height in metres). Initial motion state is drawn immediately in
    /// node-index order, so two fields built from equal inputs are
    /// identical. Positions outside the arena are clamped in.
    pub fn new(bounds: (f64, f64), positions: Vec<(f64, f64)>, mut rng: Rng) -> Self {
        assert!(
            bounds.0 > 0.0 && bounds.1 > 0.0,
            "arena must have positive area"
        );
        let positions: Vec<(f64, f64)> = positions
            .into_iter()
            .map(|(x, y)| (x.clamp(0.0, bounds.0), y.clamp(0.0, bounds.1)))
            .collect();
        let motion = positions
            .iter()
            .map(|_| Walking {
                heading: rng.unit_f64() * std::f64::consts::TAU,
                // Desynchronize the first turn so the whole field does
                // not re-orient on the same tick.
                until_turn_s: rng.unit_f64() * TURN_EVERY_S,
            })
            .collect();
        Mobility {
            bounds,
            pinned: vec![false; positions.len()],
            positions,
            motion,
            rng,
        }
    }

    /// Pin one node in place: it never moves and draws no RNG. The
    /// draws it skips shift the shared stream, so other nodes' later
    /// turns change too (see the module docs).
    pub fn pin(&mut self, node: usize) {
        self.pinned[node] = true;
    }

    /// Current positions, indexable by node.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Euclidean distance between two nodes in metres.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.positions[a];
        let (bx, by) = self.positions[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Number of nodes in the field.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the field holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Advance every unpinned node by `dt_s` seconds, in node-index
    /// order. Call with a fixed tick for reproducible trajectories.
    pub fn step(&mut self, dt_s: f64) {
        assert!(dt_s > 0.0, "mobility tick must be positive");
        for i in 0..self.positions.len() {
            if self.pinned[i] {
                continue;
            }
            self.step_node(i, dt_s);
        }
    }

    fn step_node(&mut self, i: usize, dt_s: f64) {
        let (w, h) = self.bounds;
        let Walking {
            mut heading,
            mut until_turn_s,
        } = self.motion[i];
        until_turn_s -= dt_s;
        if until_turn_s <= 0.0 {
            heading = self.rng.unit_f64() * std::f64::consts::TAU;
            until_turn_s = TURN_EVERY_S;
        }
        let (x, y) = self.positions[i];
        let mut nx = x + heading.cos() * SPEED_MPS * dt_s;
        let mut ny = y + heading.sin() * SPEED_MPS * dt_s;
        // Reflect off the walls: fold the overshoot back in and
        // mirror the heading component that crossed.
        if nx < 0.0 || nx > w {
            nx = nx.clamp(0.0, w) * 2.0 - nx;
            heading = std::f64::consts::PI - heading;
        }
        if ny < 0.0 || ny > h {
            ny = ny.clamp(0.0, h) * 2.0 - ny;
            heading = -heading;
        }
        self.positions[i] = (nx.clamp(0.0, w), ny.clamp(0.0, h));
        self.motion[i] = Walking {
            heading,
            until_turn_s,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_loss;

    fn grid_positions(n: usize, pitch: f64) -> Vec<(f64, f64)> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| ((i % side) as f64 * pitch, (i / side) as f64 * pitch))
            .collect()
    }

    fn build(seed: u64) -> Mobility {
        Mobility::new(
            (100.0, 100.0),
            grid_positions(25, 20.0),
            Rng::seed_from_u64(seed).fork(0x3050),
        )
    }

    /// Property: same seed → bit-identical position trajectory across
    /// many ticks.
    #[test]
    fn same_seed_same_trajectory() {
        let mut a = build(42);
        let mut b = build(42);
        for step in 0..500 {
            a.step(1.0);
            b.step(1.0);
            assert_eq!(a.positions(), b.positions(), "diverged at step {step}");
        }
    }

    /// Property: the PER trajectory derived through the path-loss
    /// model is identical too (same seed, same link, every tick).
    #[test]
    fn same_seed_same_per_trajectory() {
        let mut a = build(7);
        let mut b = build(7);
        for _ in 0..200 {
            a.step(1.0);
            b.step(1.0);
            for (x, y) in [(0usize, 1usize), (3, 17), (8, 24)] {
                let pa = path_loss::link_per(7, x as u16, y as u16, a.distance(x, y).max(0.01));
                let pb = path_loss::link_per(7, x as u16, y as u16, b.distance(x, y).max(0.01));
                assert!(pa == pb, "PER diverged on ({x},{y})");
            }
        }
    }

    /// Property: different seeds decorrelate the trajectories.
    #[test]
    fn different_seed_different_trajectory() {
        let mut a = build(1);
        let mut b = build(2);
        for _ in 0..50 {
            a.step(1.0);
            b.step(1.0);
        }
        assert_ne!(a.positions(), b.positions());
    }

    /// Property: every position stays inside the arena forever.
    #[test]
    fn positions_stay_in_bounds() {
        let mut m = build(9);
        for _ in 0..2_000 {
            m.step(1.0);
            for &(x, y) in m.positions() {
                assert!((0.0..=100.0).contains(&x), "x escaped: {x}");
                assert!((0.0..=100.0).contains(&y), "y escaped: {y}");
            }
        }
    }

    /// Property: a pinned node never moves, and a field with the same
    /// pins and seed walks the same trajectory. Pinning does change
    /// other nodes' paths, because the pinned node's skipped turn draws
    /// shift the shared stream.
    #[test]
    fn pinned_node_is_inert() {
        let mut free = build(11);
        let mut pinned = build(11);
        pinned.pin(0);
        let origin = pinned.positions()[0];
        for _ in 0..300 {
            free.step(1.0);
            pinned.step(1.0);
            assert_eq!(pinned.positions()[0], origin);
            // Node 0 stops drawing when pinned, which shifts the draw
            // stream — but only for node 0's own decisions: the walk
            // model draws per-node at fixed turn epochs, so others may
            // differ. What must hold is that the pinned field is
            // internally deterministic, checked by rebuilding:
        }
        let mut pinned2 = build(11);
        pinned2.pin(0);
        for _ in 0..300 {
            pinned2.step(1.0);
        }
        assert_eq!(pinned.positions(), pinned2.positions());
    }

    /// Nodes actually move at roughly the configured speed.
    #[test]
    fn walk_covers_ground() {
        let mut m = build(13);
        let start = m.positions().to_vec();
        for _ in 0..30 {
            m.step(1.0);
        }
        let moved = start
            .iter()
            .zip(m.positions())
            .filter(|(&(ax, ay), &(bx, by))| ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() > 1.0)
            .count();
        assert!(moved >= 20, "only {moved}/25 nodes moved");
    }
}
