//! Jobs — the unit of campaign work — and their results.

use std::collections::BTreeMap;

/// One `(configuration, seed)` cell of a campaign grid.
///
/// A job is pure data: the engine hands it to the user-supplied job
/// body, which reads the parameter map and the derived seed and runs
/// whatever simulation it likes. Everything needed to reproduce the
/// job is in here, and everything in here is deterministic — no
/// wall-clock, no allocation addresses, no thread identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Unique, filesystem-safe identifier (`<config-slug>-s<idx>`).
    pub id: String,
    /// The configuration key: axis values joined as
    /// `"axis1=v1,axis2=v2"`, *without* the seed — all seeds of one
    /// grid point share it, and aggregation groups by it.
    pub config: String,
    /// Which repetition of the configuration this is (0-based).
    pub seed_index: u32,
    /// The RNG seed the job body must use. Either supplied explicitly
    /// by the grid builder or derived via [`derive_seed`]; in both
    /// cases it depends only on the grid definition, never on worker
    /// count or scheduling order.
    pub seed: u64,
    /// Axis name → value label for this grid point.
    pub params: BTreeMap<String, String>,
}

impl Job {
    /// Human-readable label, e.g. `"conn=75,prod=1000 seed#2"`.
    pub fn label(&self) -> String {
        format!("{} seed#{}", self.config, self.seed_index)
    }
}

/// What one job produces: a flat metric set plus named value series.
///
/// Artifacts must be byte-identical across re-runs, so a result holds
/// only simulation outputs — no timing, hostnames or timestamps. Keys
/// live in `BTreeMap`s so JSON encoding order is deterministic too.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobResult {
    /// Scalar metrics (`"coap_pdr"` → 0.9995, …).
    pub metrics: BTreeMap<String, f64>,
    /// Value series (sorted RTTs, per-bucket PDR, …).
    pub series: BTreeMap<String, Vec<f64>>,
    /// Control-plane trace emits beyond the 2²⁰ budget; no records
    /// are stored (see `mindgap_sim::Trace`).
    pub trace_dropped: u64,
    /// Free-form label for tables ("tree static 75ms" …).
    pub label: String,
}

impl JobResult {
    /// An empty result with the given label.
    pub fn new(label: &str) -> Self {
        JobResult {
            label: label.to_string(),
            ..JobResult::default()
        }
    }

    /// Set a scalar metric (builder-style helper).
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.insert(key.to_string(), value);
        self
    }

    /// Set a value series (builder-style helper).
    pub fn series(&mut self, key: &str, values: Vec<f64>) -> &mut Self {
        self.series.insert(key.to_string(), values);
        self
    }

    /// Fetch a scalar metric, `NaN` when absent (keeps figure code
    /// free of `Option` plumbing; NaN propagates visibly).
    pub fn get(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(f64::NAN)
    }

    /// Fetch a series, empty when absent.
    pub fn get_series(&self, key: &str) -> &[f64] {
        self.series.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Derive the RNG seed for one job from the campaign master seed and
/// the job's identity.
///
/// FNV-1a folds the configuration key into 64 bits, the seed index is
/// mixed in on a different stride, and a splitmix64 finalizer spreads
/// the result over the whole state space. The derivation depends only
/// on `(master, key, index)` — never on scheduling — which is what
/// makes campaign artifacts byte-identical for any `--jobs N`.
pub fn derive_seed(master: u64, key: &str, index: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3); // FNV prime
    }
    h ^= master;
    h = h.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    splitmix64(h)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(42, "conn=75", 0);
        assert_eq!(a, derive_seed(42, "conn=75", 0), "must be a pure function");
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 42, u64::MAX] {
            for key in ["conn=25", "conn=75", "conn=75,prod=1000"] {
                for idx in 0..5 {
                    assert!(seen.insert(derive_seed(master, key, idx)));
                }
            }
        }
    }

    #[test]
    fn result_accessors() {
        let mut r = JobResult::new("demo");
        r.metric("pdr", 0.5).series("rtt", vec![1.0, 2.0]);
        assert_eq!(r.get("pdr"), 0.5);
        assert!(r.get("missing").is_nan());
        assert_eq!(r.get_series("rtt"), &[1.0, 2.0]);
        assert!(r.get_series("missing").is_empty());
    }
}
