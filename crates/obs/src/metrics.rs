//! The dense, index-addressed metrics registry.
//!
//! All metrics are **registered up front** (at `World` build time) and
//! recorded through copyable ids, so the hot path performs exactly one
//! array write per recording — no hashing, no string lookups, no
//! allocation. Per-node scoping is baked into the storage layout:
//! metric `m` of node `n` lives at `m.base + n`.
//!
//! Three kinds exist:
//!
//! * **counters** — monotonically increasing `u64`s (`inc`/`add`).
//!   A few are *sampled*: set once at snapshot time from component
//!   state rather than incremented on the hot path (`set_counter`);
//!   the glossary in DESIGN.md §8 marks them.
//! * **gauges** — signed instantaneous values (`gauge_set`).
//! * **histograms** — fixed log2 buckets (32 of them) plus a running
//!   sum, so snapshots can report counts, bucket shapes and means
//!   without ever allocating per sample.
//!
//! With the crate's `off` feature the recording methods compile to
//! nothing and snapshots are empty; registration still hands out ids
//! so call sites need no conditional code.

use mindgap_sim::NodeId;

/// Number of log2 histogram buckets. Bucket `i` holds values whose
/// bit length is `i` (bucket 0: value 0; bucket `i`: `2^(i-1) ..
/// 2^i - 1`; the last bucket also absorbs everything larger).
pub const HIST_BUCKETS: usize = 32;

/// Which stack layer a metric accounts for. Mirrors the paper's
/// Fig. 2/Fig. 5 protocol stack, plus the routing agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Radio medium: transmissions, airtime.
    Phy,
    /// BLE link layer: connection events, losses, skips.
    Ll,
    /// L2CAP credit-based channels and the mbuf pool.
    L2cap,
    /// 6LoWPAN adaptation (IPHC compression).
    Sixlowpan,
    /// IPv6 origination/forwarding/delivery.
    Ipv6,
    /// The RPL-style routing agent.
    Rpl,
    /// CoAP request/response application layer.
    Coap,
}

impl Layer {
    /// Lower-case label; metric names start with it (6LoWPAN metrics
    /// with `sixlowpan`).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Phy => "phy",
            Layer::Ll => "ll",
            Layer::L2cap => "l2cap",
            Layer::Sixlowpan => "6lowpan",
            Layer::Ipv6 => "ipv6",
            Layer::Rpl => "rpl",
            Layer::Coap => "coap",
        }
    }
}

/// Metric kind (determines storage and snapshot shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64`, incremented on the hot path.
    Counter,
    /// Monotonic `u64`, written from component state at snapshot time.
    SampledCounter,
    /// Signed instantaneous value.
    Gauge,
    /// Log2-bucketed distribution with running sum.
    Histogram,
}

/// Static description of one registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Snake-case name, prefixed with its layer (`ll_conn_events`).
    pub name: &'static str,
    /// Stack layer.
    pub layer: Layer,
    /// Unit label (`"events"`, `"bytes"`, `"ns"`).
    pub unit: &'static str,
    /// One-line description (the glossary entry).
    pub help: &'static str,
    /// Kind.
    pub kind: MetricKind,
}

/// Handle of a registered counter: base index into the dense counter
/// array (node 0's slot; node `n` lives at `base + n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// The registry: metric definitions plus their dense storage.
#[derive(Debug)]
pub struct MetricsRegistry {
    n_nodes: usize,
    defs: Vec<(MetricDef, u32)>,
    counters: Vec<u64>,
    gauges: Vec<i64>,
    /// `n_hists * n_nodes * HIST_BUCKETS` bucket slots.
    hist_buckets: Vec<u64>,
    /// Running sum per histogram per node (for snapshot means).
    hist_sums: Vec<u64>,
}

impl MetricsRegistry {
    /// An empty registry scoped to `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        MetricsRegistry {
            n_nodes: n_nodes.max(1),
            defs: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hist_buckets: Vec::new(),
            hist_sums: Vec::new(),
        }
    }

    /// Number of nodes this registry is scoped to.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Registered metric definitions, in registration order.
    pub fn defs(&self) -> impl Iterator<Item = &MetricDef> {
        self.defs.iter().map(|(d, _)| d)
    }

    fn push_counter(&mut self, def: MetricDef) -> CounterId {
        let base = self.counters.len() as u32;
        self.defs.push((def, base));
        self.counters.resize(self.counters.len() + self.n_nodes, 0);
        CounterId(base)
    }

    /// Register a hot-path counter.
    pub fn counter(
        &mut self,
        layer: Layer,
        name: &'static str,
        unit: &'static str,
        help: &'static str,
    ) -> CounterId {
        self.push_counter(MetricDef {
            name,
            layer,
            unit,
            help,
            kind: MetricKind::Counter,
        })
    }

    /// Register a sampled counter (written at snapshot time).
    pub fn sampled(
        &mut self,
        layer: Layer,
        name: &'static str,
        unit: &'static str,
        help: &'static str,
    ) -> CounterId {
        self.push_counter(MetricDef {
            name,
            layer,
            unit,
            help,
            kind: MetricKind::SampledCounter,
        })
    }

    /// Register a gauge.
    pub fn gauge(
        &mut self,
        layer: Layer,
        name: &'static str,
        unit: &'static str,
        help: &'static str,
    ) -> GaugeId {
        let base = self.gauges.len() as u32;
        self.defs.push((
            MetricDef {
                name,
                layer,
                unit,
                help,
                kind: MetricKind::Gauge,
            },
            base,
        ));
        self.gauges.resize(self.gauges.len() + self.n_nodes, 0);
        GaugeId(base)
    }

    /// Register a histogram.
    pub fn histogram(
        &mut self,
        layer: Layer,
        name: &'static str,
        unit: &'static str,
        help: &'static str,
    ) -> HistId {
        let base = self.hist_sums.len() as u32;
        self.defs.push((
            MetricDef {
                name,
                layer,
                unit,
                help,
                kind: MetricKind::Histogram,
            },
            base,
        ));
        self.hist_sums
            .resize(self.hist_sums.len() + self.n_nodes, 0);
        self.hist_buckets
            .resize(self.hist_buckets.len() + self.n_nodes * HIST_BUCKETS, 0);
        HistId(base)
    }

    // ------------------------------------------------------------------
    // Recording (one array write each; no-ops under `off`)
    // ------------------------------------------------------------------

    /// Increment a counter for `node` by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId, node: NodeId) {
        #[cfg(not(feature = "off"))]
        {
            self.counters[id.0 as usize + node.index()] += 1;
        }
        #[cfg(feature = "off")]
        {
            let _ = (id, node);
        }
    }

    /// Add `v` to a counter for `node`.
    #[inline]
    pub fn add(&mut self, id: CounterId, node: NodeId, v: u64) {
        #[cfg(not(feature = "off"))]
        {
            self.counters[id.0 as usize + node.index()] += v;
        }
        #[cfg(feature = "off")]
        {
            let _ = (id, node, v);
        }
    }

    /// Overwrite a (sampled) counter for `node`.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, node: NodeId, v: u64) {
        #[cfg(not(feature = "off"))]
        {
            self.counters[id.0 as usize + node.index()] = v;
        }
        #[cfg(feature = "off")]
        {
            let _ = (id, node, v);
        }
    }

    /// Set a gauge for `node`.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, node: NodeId, v: i64) {
        #[cfg(not(feature = "off"))]
        {
            self.gauges[id.0 as usize + node.index()] = v;
        }
        #[cfg(feature = "off")]
        {
            let _ = (id, node, v);
        }
    }

    /// Record a histogram sample for `node`.
    #[inline]
    pub fn observe(&mut self, id: HistId, node: NodeId, v: u64) {
        #[cfg(not(feature = "off"))]
        {
            let bucket = bucket_of(v);
            let hist = id.0 as usize;
            self.hist_buckets[(hist + node.index()) * HIST_BUCKETS + bucket] += 1;
            self.hist_sums[hist + node.index()] += v;
        }
        #[cfg(feature = "off")]
        {
            let _ = (id, node, v);
        }
    }

    /// Take a point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries = Vec::with_capacity(self.defs.len());
        for &(def, base) in &self.defs {
            let base = base as usize;
            let value = match def.kind {
                MetricKind::Counter | MetricKind::SampledCounter => SnapValue::Counter {
                    per_node: self.counters[base..base + self.n_nodes].to_vec(),
                },
                MetricKind::Gauge => SnapValue::Gauge {
                    per_node: self.gauges[base..base + self.n_nodes].to_vec(),
                },
                MetricKind::Histogram => {
                    let mut buckets = [0u64; HIST_BUCKETS];
                    let mut per_node_count = vec![0u64; self.n_nodes];
                    for (n, count) in per_node_count.iter_mut().enumerate() {
                        let off = (base + n) * HIST_BUCKETS;
                        for (b, slot) in buckets.iter_mut().enumerate() {
                            let c = self.hist_buckets[off + b];
                            *slot += c;
                            *count += c;
                        }
                    }
                    SnapValue::Histogram {
                        buckets: buckets.to_vec(),
                        per_node_count,
                        sum: self.hist_sums[base..base + self.n_nodes].iter().sum(),
                    }
                }
            };
            entries.push(SnapEntry { def, value });
        }
        MetricsSnapshot {
            n_nodes: self.n_nodes,
            entries,
        }
    }
}

/// Log2 bucket index of a value (see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Snapshot value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// Counter (hot-path or sampled): per-node values.
    Counter {
        /// Value of node `i` at index `i`.
        per_node: Vec<u64>,
    },
    /// Gauge: per-node values.
    Gauge {
        /// Value of node `i` at index `i`.
        per_node: Vec<i64>,
    },
    /// Histogram: network-wide bucket counts plus per-node totals.
    Histogram {
        /// Sample count per log2 bucket, summed over nodes.
        buckets: Vec<u64>,
        /// Sample count per node.
        per_node_count: Vec<u64>,
        /// Sum of all samples (for means).
        sum: u64,
    },
}

/// One snapshot entry: definition plus captured values.
#[derive(Debug, Clone)]
pub struct SnapEntry {
    /// The metric's registration-time definition.
    pub def: MetricDef,
    /// Captured values.
    pub value: SnapValue,
}

impl SnapEntry {
    /// Network-wide total (counters/gauges summed over nodes;
    /// histograms report their sample count).
    pub fn total(&self) -> f64 {
        match &self.value {
            SnapValue::Counter { per_node } => per_node.iter().sum::<u64>() as f64,
            SnapValue::Gauge { per_node } => per_node.iter().sum::<i64>() as f64,
            SnapValue::Histogram { per_node_count, .. } => {
                per_node_count.iter().sum::<u64>() as f64
            }
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Nodes the registry was scoped to.
    pub n_nodes: usize,
    /// One entry per registered metric, in registration order.
    pub entries: Vec<SnapEntry>,
}

impl MetricsSnapshot {
    /// Entry by metric name.
    pub fn get(&self, name: &str) -> Option<&SnapEntry> {
        self.entries.iter().find(|e| e.def.name == name)
    }

    /// Network-wide total of a metric, `NaN` when absent (mirrors
    /// `JobResult::get`: NaN propagates visibly into figures).
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).map(SnapEntry::total).unwrap_or(f64::NAN)
    }

    /// Flatten into `(key, value)` pairs for campaign artifacts:
    /// counters and gauges become `<prefix><name>` totals; histograms
    /// become `<prefix><name>.count` and `<prefix><name>.mean`.
    pub fn flat(&self, prefix: &str) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            match &e.value {
                SnapValue::Counter { .. } | SnapValue::Gauge { .. } => {
                    out.push((format!("{prefix}{}", e.def.name), e.total()));
                }
                SnapValue::Histogram {
                    per_node_count,
                    sum,
                    ..
                } => {
                    let count: u64 = per_node_count.iter().sum();
                    out.push((format!("{prefix}{}.count", e.def.name), count as f64));
                    let mean = if count == 0 {
                        0.0
                    } else {
                        *sum as f64 / count as f64
                    };
                    out.push((format!("{prefix}{}.mean", e.def.name), mean));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_per_node_array_writes() {
        let mut reg = MetricsRegistry::new(3);
        let a = reg.counter(Layer::Ll, "ll_a", "events", "first");
        let b = reg.counter(Layer::Coap, "coap_b", "msgs", "second");
        reg.inc(a, NodeId(0));
        reg.inc(a, NodeId(2));
        reg.inc(a, NodeId(2));
        reg.add(b, NodeId(1), 7);
        let snap = reg.snapshot();
        if cfg!(feature = "off") {
            assert_eq!(snap.total("ll_a"), 0.0);
            return;
        }
        assert_eq!(snap.total("ll_a"), 3.0);
        assert_eq!(snap.total("coap_b"), 7.0);
        match &snap.get("ll_a").unwrap().value {
            SnapValue::Counter { per_node } => assert_eq!(per_node, &[1, 0, 2]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn histogram_buckets_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);

        let mut reg = MetricsRegistry::new(2);
        let h = reg.histogram(Layer::Coap, "coap_rtt_us", "us", "rtt");
        reg.observe(h, NodeId(0), 100);
        reg.observe(h, NodeId(1), 300);
        let snap = reg.snapshot();
        if cfg!(feature = "off") {
            return;
        }
        match &snap.get("coap_rtt_us").unwrap().value {
            SnapValue::Histogram {
                per_node_count,
                sum,
                buckets,
            } => {
                assert_eq!(per_node_count, &[1, 1]);
                assert_eq!(*sum, 400);
                assert_eq!(buckets[bucket_of(100)], 1);
                assert_eq!(buckets[bucket_of(300)], 1);
            }
            other => panic!("{other:?}"),
        }
        let flat = snap.flat("obs.");
        assert!(flat.contains(&("obs.coap_rtt_us.count".to_string(), 2.0)));
        assert!(flat.contains(&("obs.coap_rtt_us.mean".to_string(), 200.0)));
    }
}
