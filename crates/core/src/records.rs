//! Measurement records — what the paper's STDIO event dump becomes in
//! simulation.
//!
//! The experiments (§5, §6) consume four kinds of data, all collected
//! here with bounded memory:
//!
//! * **CoAP accounting** per producer per time bucket (sent /
//!   completed) → PDR time series (Fig. 7a, 9, 10a, 13a);
//! * **RTT samples** (completion time minus send time) → CDFs
//!   (Fig. 7b, 8, 10b, 13c);
//! * **link-layer delivery** per directed link per bucket and per
//!   channel → LL PDR series and channel heatmaps (Fig. 12, 13b, 15);
//! * **connection losses** with timestamps (Fig. 13a, 14, §6.2).

use std::collections::HashMap;

use mindgap_sim::{Duration, Instant, NodeId};

/// One completed CoAP exchange.
#[derive(Debug, Clone, Copy)]
pub struct RttSample {
    /// Producer node.
    pub node: NodeId,
    /// When the request entered the stack.
    pub sent_at: Instant,
    /// Round-trip time.
    pub rtt: Duration,
}

/// Per-directed-link link-layer delivery statistics.
#[derive(Debug, Clone)]
pub struct LinkStats {
    /// (attempts, delivered) per time bucket.
    pub buckets: Vec<(u64, u64)>,
    /// (attempts, delivered) per BLE channel (0–36 data, 37–39
    /// advertising — the connection-less transport's PDUs land there).
    pub per_channel: [(u64, u64); 40],
}

impl Default for LinkStats {
    fn default() -> Self {
        LinkStats {
            buckets: Vec::new(),
            per_channel: [(0, 0); 40],
        }
    }
}

impl LinkStats {
    /// Overall delivery ratio.
    pub fn pdr(&self) -> f64 {
        let (a, d) = self
            .buckets
            .iter()
            .fold((0u64, 0u64), |(a, d), (ba, bd)| (a + ba, d + bd));
        if a == 0 {
            1.0
        } else {
            d as f64 / a as f64
        }
    }
}

/// Per-link statistics, keyed by directed `(src, dst)`, kept in
/// first-traffic order: iteration order is deterministic, unlike a
/// HashMap's, and the figures and the link-layer PDR fold rely on it.
/// `ll_attempt` runs once per data PDU, so lookups go through a
/// per-source index rather than a scan of every link: a 500-node mesh
/// has thousands of directed links, a node only its neighbours' worth.
#[derive(Debug, Clone, Default)]
pub struct LinkTable {
    entries: Vec<((NodeId, NodeId), LinkStats)>,
    /// `by_src[src]`: `(dst, index into entries)` of each link from
    /// `src`.
    by_src: Vec<Vec<(NodeId, usize)>>,
}

impl LinkTable {
    fn slot(&self, (src, dst): (NodeId, NodeId)) -> Option<usize> {
        self.by_src
            .get(src.index())?
            .iter()
            .find(|(d, _)| *d == dst)
            .map(|&(_, i)| i)
    }

    /// The stats slot of a link, created empty on first use.
    pub fn entry_mut(&mut self, key: (NodeId, NodeId)) -> &mut LinkStats {
        let i = match self.slot(key) {
            Some(i) => i,
            None => {
                let i = self.entries.len();
                self.entries.push((key, LinkStats::default()));
                let src = key.0.index();
                if self.by_src.len() <= src {
                    self.by_src.resize_with(src + 1, Vec::new);
                }
                self.by_src[src].push((key.1, i));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Stats of a link, if it ever carried an attempt.
    pub fn get(&self, key: &(NodeId, NodeId)) -> Option<&LinkStats> {
        self.slot(*key).map(|i| &self.entries[i].1)
    }

    /// All per-link stats, in first-traffic order.
    pub fn values(&self) -> impl Iterator<Item = &LinkStats> {
        self.entries.iter().map(|(_, s)| s)
    }

    /// `((src, dst), stats)` pairs, in first-traffic order.
    pub fn iter(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &LinkStats)> {
        self.entries.iter().map(|(k, s)| (k, s))
    }

    /// Number of links that carried traffic.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no link carried traffic yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::ops::Index<&(NodeId, NodeId)> for LinkTable {
    type Output = LinkStats;
    fn index(&self, key: &(NodeId, NodeId)) -> &LinkStats {
        self.get(key).expect("link has no recorded attempts")
    }
}

impl<'a> IntoIterator for &'a LinkTable {
    type Item = (&'a (NodeId, NodeId), &'a LinkStats);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, ((NodeId, NodeId), LinkStats)>,
        fn(&'a ((NodeId, NodeId), LinkStats)) -> (&'a (NodeId, NodeId), &'a LinkStats),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, s)| (k, s))
    }
}

/// All records of one run.
pub struct Records {
    /// Width of a time bucket.
    pub bucket: Duration,
    /// CoAP requests sent, per node, per bucket.
    pub coap_sent: HashMap<NodeId, Vec<u64>>,
    /// CoAP exchanges completed (keyed by *send* bucket so PDR is
    /// well-defined), per node.
    pub coap_done: HashMap<NodeId, Vec<u64>>,
    /// All completed-exchange RTT samples.
    pub rtt: Vec<RttSample>,
    /// Link-layer delivery per directed link.
    pub links: LinkTable,
    /// Connection losses: (time, node observing, peer).
    pub conn_losses: Vec<(Instant, NodeId, NodeId)>,
    /// Drop counters by reason tag.
    pub drops: HashMap<&'static str, u64>,
}

impl Records {
    /// Records with the given bucket width.
    pub fn new(bucket: Duration) -> Self {
        assert!(!bucket.is_zero());
        Records {
            bucket,
            coap_sent: HashMap::new(),
            coap_done: HashMap::new(),
            rtt: Vec::new(),
            links: LinkTable::default(),
            conn_losses: Vec::new(),
            drops: HashMap::new(),
        }
    }

    fn bucket_idx(&self, t: Instant) -> usize {
        (t.nanos() / self.bucket.nanos()) as usize
    }

    fn bump(series: &mut Vec<u64>, idx: usize) {
        if series.len() <= idx {
            series.resize(idx + 1, 0);
        }
        series[idx] += 1;
    }

    /// A producer handed a request to the stack.
    pub fn coap_sent(&mut self, node: NodeId, at: Instant) {
        let idx = self.bucket_idx(at);
        Self::bump(self.coap_sent.entry(node).or_default(), idx);
    }

    /// A response matched a request sent at `sent_at`.
    pub fn coap_done(&mut self, node: NodeId, sent_at: Instant, rtt: Duration) {
        let idx = self.bucket_idx(sent_at);
        Self::bump(self.coap_done.entry(node).or_default(), idx);
        self.rtt.push(RttSample { node, sent_at, rtt });
    }

    /// A link-layer data PDU attempt on `src → dst` over `channel`.
    pub fn ll_attempt(&mut self, src: NodeId, dst: NodeId, at: Instant, channel: u8, ok: bool) {
        let idx = self.bucket_idx(at);
        let stats = self.links.entry_mut((src, dst));
        if stats.buckets.len() <= idx {
            stats.buckets.resize(idx + 1, (0, 0));
        }
        stats.buckets[idx].0 += 1;
        let ch = &mut stats.per_channel[channel as usize];
        ch.0 += 1;
        if ok {
            stats.buckets[idx].1 += 1;
            ch.1 += 1;
        }
    }

    /// A connection loss was observed.
    pub fn conn_loss(&mut self, at: Instant, node: NodeId, peer: NodeId) {
        self.conn_losses.push((at, node, peer));
    }

    /// A packet was dropped for `reason`.
    pub fn drop(&mut self, reason: &'static str) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    // ---------------------------------------------------------------
    // Aggregations the figures use
    // ---------------------------------------------------------------

    /// Total CoAP requests sent (optionally restricted to sends within
    /// `[from, to)`).
    pub fn total_sent(&self) -> u64 {
        self.coap_sent.values().flatten().sum()
    }

    /// Total completed exchanges.
    pub fn total_done(&self) -> u64 {
        self.coap_done.values().flatten().sum()
    }

    /// Overall CoAP packet delivery rate.
    pub fn coap_pdr(&self) -> f64 {
        let sent = self.total_sent();
        if sent == 0 {
            1.0
        } else {
            self.total_done() as f64 / sent as f64
        }
    }

    /// CoAP PDR time series over all producers: one value per bucket.
    pub fn coap_pdr_series(&self) -> Vec<f64> {
        let n = self.coap_sent.values().map(|v| v.len()).max().unwrap_or(0);
        (0..n)
            .map(|i| {
                let sent: u64 = self
                    .coap_sent
                    .values()
                    .map(|v| v.get(i).copied().unwrap_or(0))
                    .sum();
                let done: u64 = self
                    .coap_done
                    .values()
                    .map(|v| v.get(i).copied().unwrap_or(0))
                    .sum();
                if sent == 0 {
                    1.0
                } else {
                    done as f64 / sent as f64
                }
            })
            .collect()
    }

    /// Per-node CoAP PDR time series (Fig. 9a heatmap rows).
    pub fn coap_pdr_series_for(&self, node: NodeId) -> Vec<f64> {
        let sent = self.coap_sent.get(&node).cloned().unwrap_or_default();
        let done = self.coap_done.get(&node).cloned().unwrap_or_default();
        (0..sent.len())
            .map(|i| {
                let s = sent[i];
                let d = done.get(i).copied().unwrap_or(0);
                if s == 0 {
                    1.0
                } else {
                    d as f64 / s as f64
                }
            })
            .collect()
    }

    /// Sorted RTT values in seconds (for CDF plotting).
    pub fn rtt_sorted_secs(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.rtt.iter().map(|s| s.rtt.as_secs_f64()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v
    }

    /// RTT quantile (0 ≤ q ≤ 1) in seconds; `None` when empty.
    pub fn rtt_quantile_secs(&self, q: f64) -> Option<f64> {
        let v = self.rtt_sorted_secs();
        if v.is_empty() {
            return None;
        }
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }

    /// Total link-layer data PDU attempts across all links (retries
    /// included), the denominator of [`Records::ll_pdr`].
    pub fn ll_attempts(&self) -> u64 {
        self.links
            .values()
            .map(|s| s.buckets.iter().map(|(a, _)| a).sum::<u64>())
            .sum()
    }

    /// Overall link-layer PDR across all links.
    pub fn ll_pdr(&self) -> f64 {
        let (a, d) = self.links.values().fold((0u64, 0u64), |(a, d), s| {
            let (sa, sd) = s
                .buckets
                .iter()
                .fold((0u64, 0u64), |(x, y), (ba, bd)| (x + ba, y + bd));
            (a + sa, d + sd)
        });
        if a == 0 {
            1.0
        } else {
            d as f64 / a as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Instant {
        Instant::from_secs(s)
    }

    #[test]
    fn pdr_accounting_by_send_bucket() {
        let mut r = Records::new(Duration::from_secs(60));
        let n = NodeId(1);
        r.coap_sent(n, t(10));
        r.coap_sent(n, t(20));
        r.coap_sent(n, t(70));
        // The exchange sent at t=20 completes late, at t=90: it still
        // counts for the first bucket.
        r.coap_done(n, t(20), Duration::from_secs(70));
        assert_eq!(r.total_sent(), 3);
        assert_eq!(r.total_done(), 1);
        let series = r.coap_pdr_series();
        assert_eq!(series.len(), 2);
        assert!((series[0] - 0.5).abs() < 1e-9);
        assert!((series[1] - 0.0).abs() < 1e-9);
        assert!((r.coap_pdr() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_quantiles() {
        let mut r = Records::new(Duration::from_secs(60));
        for i in 1..=100u64 {
            r.coap_done(NodeId(1), t(0), Duration::from_millis(i));
        }
        assert!((r.rtt_quantile_secs(0.5).unwrap() - 0.050).abs() < 0.002);
        assert!((r.rtt_quantile_secs(1.0).unwrap() - 0.100).abs() < 1e-9);
        assert!(r.rtt_quantile_secs(0.0).unwrap() <= 0.002);
    }

    #[test]
    fn link_stats_track_channels_and_buckets() {
        let mut r = Records::new(Duration::from_secs(1));
        let (a, b) = (NodeId(1), NodeId(2));
        r.ll_attempt(a, b, t(0), 5, true);
        r.ll_attempt(a, b, t(0), 5, false);
        r.ll_attempt(a, b, t(2), 9, true);
        let s = &r.links[&(a, b)];
        assert_eq!(s.buckets[0], (2, 1));
        assert_eq!(s.buckets[2], (1, 1));
        assert_eq!(s.per_channel[5], (2, 1));
        assert_eq!(s.per_channel[9], (1, 1));
        assert!((s.pdr() - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.ll_pdr() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn link_table_indexes_many_links_in_first_traffic_order() {
        // A mesh-sized table: 3000 directed links over 500 nodes,
        // first seen in a scrambled order, each revisited later.
        let mut table = LinkTable::default();
        let key = |i: u64| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            (NodeId((x % 500) as u16), NodeId((x / 500 % 500) as u16))
        };
        let mut order = Vec::new();
        for i in 0..3000 {
            let k = key(i);
            if !order.contains(&k) {
                order.push(k);
            }
            table.entry_mut(k).buckets.push((i, 0));
        }
        for i in (0..3000).rev() {
            table.entry_mut(key(i)).buckets.push((i, 1));
        }
        assert_eq!(table.len(), order.len());
        let keys: Vec<_> = table.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, order, "iteration keeps first-traffic order");
        for i in 0..3000 {
            let s = table.get(&key(i)).expect("recorded link");
            assert!(s.buckets.contains(&(i, 0)) && s.buckets.contains(&(i, 1)));
        }
        let absent = (0..500)
            .map(|d| (order[0].0, NodeId(d)))
            .find(|k| !order.contains(k))
            .expect("a node has fewer than 500 links");
        assert!(table.get(&absent).is_none());
        assert!(table.get(&(NodeId(600), NodeId(1))).is_none());
    }

    #[test]
    fn empty_records_report_unity_pdr() {
        let r = Records::new(Duration::from_secs(60));
        assert_eq!(r.coap_pdr(), 1.0);
        assert_eq!(r.ll_pdr(), 1.0);
        assert!(r.rtt_quantile_secs(0.5).is_none());
    }

    #[test]
    fn drops_and_losses_accumulate() {
        let mut r = Records::new(Duration::from_secs(60));
        r.drop("no_route");
        r.drop("no_route");
        r.conn_loss(t(5), NodeId(1), NodeId(2));
        assert_eq!(r.drops["no_route"], 2);
        assert_eq!(r.conn_losses.len(), 1);
    }
}
