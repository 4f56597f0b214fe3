//! Typed parameter grids and their expansion into job lists.

use std::collections::BTreeMap;

use crate::job::{derive_seed, Job};

/// A fully expanded campaign: a name, the master seed, and the job
/// list in grid order (axes vary slowest-first, seeds fastest).
///
/// The job order is part of the campaign's identity — reports present
/// outcomes in this order no matter which worker finished first.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name; also the artifact directory name.
    pub name: String,
    /// Master seed all derived per-job seeds stem from.
    pub master_seed: u64,
    /// Expanded `(configuration, seed)` grid.
    pub jobs: Vec<Job>,
}

impl Campaign {
    /// Distinct configuration keys, in first-appearance (grid) order.
    pub fn configs(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        self.jobs
            .iter()
            .filter(|j| seen.insert(j.config.as_str()))
            .map(|j| j.config.as_str())
            .collect()
    }
}

/// How the per-job seeds of one grid point are chosen.
#[derive(Debug, Clone)]
enum SeedPlan {
    /// `seed[i] = derive_seed(master, config, i)` — the default, and
    /// what guarantees distinct configurations never share streams.
    Derived(u32),
    /// Caller-supplied seed values, one job per entry. Used by the
    /// figure binaries to reproduce the historical `base + i` seeds
    /// (and their CSV values) exactly.
    Explicit(Vec<u64>),
}

/// Builder for a cartesian parameter grid.
///
/// ```
/// use mindgap_campaign::GridBuilder;
/// let c = GridBuilder::new("demo", 1)
///     .axis("conn", ["25", "75"])
///     .axis("prod", ["100", "1000"])
///     .derived_seeds(3)
///     .build();
/// assert_eq!(c.jobs.len(), 2 * 2 * 3);
/// assert_eq!(c.jobs[0].config, "conn=25,prod=100");
/// ```
#[derive(Debug, Clone)]
pub struct GridBuilder {
    name: String,
    master_seed: u64,
    axes: Vec<(String, Vec<String>)>,
    seeds: SeedPlan,
}

impl GridBuilder {
    /// Start a grid for campaign `name` with the given master seed.
    pub fn new(name: &str, master_seed: u64) -> Self {
        GridBuilder {
            name: name.to_string(),
            master_seed,
            axes: Vec::new(),
            seeds: SeedPlan::Derived(1),
        }
    }

    /// Add an axis. Order matters: earlier axes vary slower in the
    /// expanded job list. Value labels are kept verbatim in
    /// `Job::params` and in the configuration key.
    pub fn axis<I, S>(mut self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis {name} has no values");
        self.axes.push((name.to_string(), values));
        self
    }

    /// Run each configuration `n` times with seeds derived from the
    /// master seed ([`derive_seed`]).
    pub fn derived_seeds(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one seed");
        self.seeds = SeedPlan::Derived(n);
        self
    }

    /// Run each configuration once per explicit seed value (the
    /// figure binaries pass `Opts::seeds()` here so the regenerated
    /// numbers match the pre-campaign serial loops bit for bit).
    pub fn explicit_seeds(mut self, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "need at least one seed");
        self.seeds = SeedPlan::Explicit(seeds.to_vec());
        self
    }

    /// Expand the grid. Panics if two grid points collide after
    /// filesystem sanitization (would silently share artifacts).
    pub fn build(self) -> Campaign {
        assert!(!self.axes.is_empty(), "grid needs at least one axis");
        let n_seeds = match &self.seeds {
            SeedPlan::Derived(n) => *n as usize,
            SeedPlan::Explicit(s) => s.len(),
        };
        let mut jobs = Vec::new();
        let mut ids = std::collections::HashSet::new();
        let mut indices = vec![0usize; self.axes.len()];
        loop {
            let mut params = BTreeMap::new();
            let mut key_parts = Vec::with_capacity(self.axes.len());
            for (axis_idx, (axis, values)) in self.axes.iter().enumerate() {
                let v = &values[indices[axis_idx]];
                params.insert(axis.clone(), v.clone());
                key_parts.push(format!("{axis}={v}"));
            }
            let config = key_parts.join(",");
            for idx in 0..n_seeds {
                let seed = match &self.seeds {
                    SeedPlan::Derived(_) => derive_seed(self.master_seed, &config, idx as u32),
                    SeedPlan::Explicit(s) => s[idx],
                };
                let id = format!("{}-s{idx}", sanitize(&config));
                assert!(
                    ids.insert(id.clone()),
                    "grid points collide after sanitization: {id}"
                );
                jobs.push(Job {
                    id,
                    config: config.clone(),
                    seed_index: idx as u32,
                    seed,
                    params: params.clone(),
                });
            }
            // Odometer increment, last axis fastest.
            let mut axis = self.axes.len();
            loop {
                if axis == 0 {
                    return Campaign {
                        name: self.name,
                        master_seed: self.master_seed,
                        jobs,
                    };
                }
                axis -= 1;
                indices[axis] += 1;
                if indices[axis] < self.axes[axis].1.len() {
                    break;
                }
                indices[axis] = 0;
            }
        }
    }
}

/// Map a configuration key to a filesystem-safe slug: alphanumerics,
/// `.`, `-` and `_` pass through, everything else becomes `_`.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | '=') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_axes_slowest_first_seeds_fastest() {
        let c = GridBuilder::new("t", 7)
            .axis("a", ["1", "2"])
            .axis("b", ["x", "y"])
            .derived_seeds(2)
            .build();
        let keys: Vec<_> = c
            .jobs
            .iter()
            .map(|j| (j.config.clone(), j.seed_index))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a=1,b=x".into(), 0),
                ("a=1,b=x".into(), 1),
                ("a=1,b=y".into(), 0),
                ("a=1,b=y".into(), 1),
                ("a=2,b=x".into(), 0),
                ("a=2,b=x".into(), 1),
                ("a=2,b=y".into(), 0),
                ("a=2,b=y".into(), 1),
            ]
        );
        assert_eq!(c.configs().len(), 4);
    }

    #[test]
    fn explicit_seeds_pass_through() {
        let c = GridBuilder::new("t", 0)
            .axis("a", ["1"])
            .explicit_seeds(&[42, 43, 44])
            .build();
        assert_eq!(
            c.jobs.iter().map(|j| j.seed).collect::<Vec<_>>(),
            vec![42, 43, 44]
        );
    }

    #[test]
    fn ids_are_filesystem_safe() {
        let c = GridBuilder::new("t", 0)
            .axis("conn", ["[15:35]", "[40:60]"])
            .build();
        for j in &c.jobs {
            assert!(j
                .id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | '=')));
        }
        assert_ne!(c.jobs[0].id, c.jobs[1].id);
    }

    #[test]
    #[should_panic(expected = "collide")]
    fn colliding_slugs_rejected() {
        let _ = GridBuilder::new("t", 0).axis("a", ["x:", "x;"]).build();
    }
}
