//! The shared radio medium.
//!
//! Protocol crates drive the medium with three calls:
//!
//! 1. [`Medium::begin_tx`] when a frame's first bit hits the air,
//! 2. [`Medium::finish_tx`] when its last bit has been sent — this
//!    returns, per listening node, whether the frame arrived intact,
//! 3. [`Medium::carrier_sense`] for CSMA/CA clear-channel assessment.
//!
//! A frame is received correctly by a listener iff:
//! * the transmitter is in range of the listener,
//! * no *other* frame audible at the listener overlapped it in time on
//!   the same channel (collision),
//! * the per-link Gilbert–Elliott chain and the per-channel interferer
//!   both let it through.
//!
//! Whether a node was actually *listening* (right channel, right time
//! window) is the protocol layer's business — the BLE link layer knows
//! its connection-event windows, the 802.15.4 MAC is always-on — so
//! `finish_tx` takes the candidate listener set from the caller.
//!
//! # Scaling structures
//!
//! Nothing here does per-event work proportional to the node or link
//! count:
//!
//! * Radio adjacency is a [`RangeMatrix`] — packed bitset rows, 1 bit
//!   per ordered pair (n=1000 → 125 KiB, where the former `Vec<bool>`
//!   held 1 MB and the per-pair loss state another ~40 MB).
//! * In-flight transmissions live in a generation-stamped slab indexed
//!   *per channel*, so mutual-interference collection in
//!   [`Medium::begin_tx`] and the [`Medium::carrier_sense`] scan touch
//!   only the handful of frames actually sharing a channel, and
//!   [`Medium::finish_tx`] resolves its handle in O(1).
//! * With a sparse topology ([`MediumConfig::radio_links`]), the
//!   channel-error state is allocated per *radio link* instead of per
//!   node pair (see [`NoiseModel::sparse`]).

use crate::channel::{Channel, CHANNEL_TABLE_SIZE};
use crate::loss::{LossConfig, NoiseModel};
#[cfg(test)]
use mindgap_sim::Rng;
use mindgap_sim::{Duration, Instant, NodeId};

/// Handle to an in-flight transmission.
///
/// Internally a `(generation, slot)` pair into the medium's active-
/// transmission slab: the slot is reused after the frame finishes, the
/// generation disambiguates the reuse so a stale handle still fails
/// loudly instead of corrupting a later frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

impl TxId {
    #[inline]
    fn pack(slot: u32, gen: u32) -> Self {
        TxId((gen as u64) << 32 | slot as u64)
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Parameters of a transmission.
#[derive(Debug, Clone, Copy)]
pub struct TxParams {
    /// Transmitting node.
    pub src: NodeId,
    /// Channel the frame is sent on.
    pub channel: Channel,
    /// Global time of the first bit.
    pub start: Instant,
    /// On-air duration (see [`crate::airtime`]).
    pub airtime: Duration,
}

/// Per-listener reception verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Frame arrived intact.
    Ok,
    /// Another audible frame overlapped on the same channel.
    Collision,
    /// Lost to the channel-error process (noise/interference).
    ChannelError,
    /// Transmitter not in radio range of this listener.
    OutOfRange,
}

impl RxOutcome {
    /// `true` only for [`RxOutcome::Ok`].
    pub fn is_ok(self) -> bool {
        matches!(self, RxOutcome::Ok)
    }
}

/// Medium construction parameters.
#[derive(Debug, Clone)]
pub struct MediumConfig {
    /// Number of nodes sharing the medium.
    pub n_nodes: usize,
    /// Channel-error process applied to every directed link.
    pub loss: LossConfig,
    /// Seed for the medium's private RNG stream.
    pub seed: u64,
    /// Radio adjacency: `Some(links)` puts only the listed unordered
    /// pairs in range; `None` keeps the shared-room default where
    /// everyone hears everyone.
    pub radio_links: Option<Vec<(u16, u16)>>,
}

/// Packed-bitset radio adjacency: bit `b` of row `a` answers "can `b`
/// hear `a`?". One row is `⌈n/64⌉` words, so the whole matrix for a
/// 1000-node mesh is 125 KiB and a row (the unit every range query
/// touches) spans two cache lines.
struct RangeMatrix {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl RangeMatrix {
    fn filled(n: usize, value: bool) -> Self {
        let words_per_row = n.div_ceil(64);
        RangeMatrix {
            words_per_row,
            bits: vec![if value { !0u64 } else { 0 }; n * words_per_row],
        }
    }

    #[inline]
    fn get(&self, a: usize, b: usize) -> bool {
        let w = self.bits[a * self.words_per_row + b / 64];
        w >> (b % 64) & 1 == 1
    }

    #[inline]
    fn set(&mut self, a: usize, b: usize, value: bool) {
        let w = &mut self.bits[a * self.words_per_row + b / 64];
        let mask = 1u64 << (b % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Heap bytes held by the matrix.
    fn mem_bytes(&self) -> usize {
        self.bits.capacity() * 8
    }
}

/// One slab slot: an in-flight transmission plus the generation stamp
/// that validates [`TxId`] handles. The `interferers` vector's
/// allocation survives slot reuse, so steady-state operation does not
/// allocate.
struct ActiveTx {
    gen: u32,
    live: bool,
    src: NodeId,
    channel: Channel,
    start: Instant,
    end: Instant,
    /// Position of this slot's entry in `by_channel[channel]`.
    ch_pos: u32,
    /// Sources of other frames that overlapped this one in time on the
    /// same channel. A listener that can hear any of them sees a
    /// collision.
    interferers: Vec<NodeId>,
}

/// The shared radio medium (one per band in practice; nothing stops a
/// caller from mixing bands — channels compare unequal across bands,
/// so they never collide).
pub struct Medium {
    /// Active-transmission slab; `TxId` carries `(slot, gen)`.
    slab: Vec<ActiveTx>,
    free: Vec<u32>,
    /// Slot indices of in-flight transmissions, per channel.
    by_channel: Vec<Vec<u32>>,
    live: usize,
    noise: NoiseModel,
    range: RangeMatrix,
    collisions_observed: u64,
}

impl Medium {
    /// Build a medium.
    pub fn new(cfg: MediumConfig) -> Self {
        let n = cfg.n_nodes;
        let (range, noise) = match &cfg.radio_links {
            None => (
                RangeMatrix::filled(n, true),
                NoiseModel::uniform(n, cfg.loss, cfg.seed),
            ),
            Some(links) => {
                let mut m = RangeMatrix::filled(n, false);
                for &(a, b) in links {
                    m.set(a as usize, b as usize, true);
                    m.set(b as usize, a as usize, true);
                }
                (m, NoiseModel::sparse(n, cfg.loss, links, cfg.seed))
            }
        };
        Medium {
            slab: Vec::new(),
            free: Vec::new(),
            by_channel: vec![Vec::new(); CHANNEL_TABLE_SIZE],
            live: 0,
            noise,
            range,
            collisions_observed: 0,
        }
    }

    /// Additional static loss probability on one channel (jammer).
    pub fn set_channel_interference(&mut self, channel: Channel, per: f64) {
        self.noise.set_channel_extra(channel, per);
    }

    /// Static loss probability currently configured on a channel.
    pub fn channel_interference(&self, channel: Channel) -> f64 {
        self.noise.channel_extra(channel)
    }

    /// Additional static loss probability on the directed link `a → b`
    /// (and `b → a` if `symmetric`), on top of the Gilbert–Elliott
    /// chain. `1.0` blacks the link out; `0.0` removes the override.
    pub fn set_link_loss(&mut self, a: NodeId, b: NodeId, per: f64, symmetric: bool) {
        self.noise.set_link_extra(a.index(), b.index(), per);
        if symmetric {
            self.noise.set_link_extra(b.index(), a.index(), per);
        }
    }

    /// Mark the directed pair `a → b` (and `b → a` if `symmetric`) as
    /// out of radio range.
    pub fn set_out_of_range(&mut self, a: NodeId, b: NodeId, symmetric: bool) {
        self.range.set(a.index(), b.index(), false);
        if symmetric {
            self.range.set(b.index(), a.index(), false);
        }
    }

    /// Mark the directed pair `a → b` (and `b → a` if `symmetric`) as
    /// in radio range again.
    pub fn set_in_range(&mut self, a: NodeId, b: NodeId, symmetric: bool) {
        self.range.set(a.index(), b.index(), true);
        if symmetric {
            self.range.set(b.index(), a.index(), true);
        }
    }

    /// Can `listener` hear `src`?
    #[inline]
    pub fn hears(&self, src: NodeId, listener: NodeId) -> bool {
        src != listener && self.range.get(src.index(), listener.index())
    }

    /// Register the start of a transmission.
    pub fn begin_tx(&mut self, p: TxParams) -> TxId {
        let ch = p.channel.table_index();
        let end = p.start + p.airtime;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slab.push(ActiveTx {
                    gen: 0,
                    live: false,
                    src: NodeId(0),
                    channel: p.channel,
                    start: p.start,
                    end,
                    ch_pos: 0,
                    interferers: Vec::new(),
                });
                (self.slab.len() - 1) as u32
            }
        };
        // Mutual interference with every already-active frame on the
        // same channel — only that channel's slots are visited.
        let mut interferers = std::mem::take(&mut self.slab[slot as usize].interferers);
        debug_assert!(interferers.is_empty());
        for &other in &self.by_channel[ch] {
            let tx = &mut self.slab[other as usize];
            if tx.end > p.start {
                tx.interferers.push(p.src);
                interferers.push(tx.src);
                self.collisions_observed += 1;
            }
        }
        let pos = self.by_channel[ch].len() as u32;
        let e = &mut self.slab[slot as usize];
        e.live = true;
        e.src = p.src;
        e.channel = p.channel;
        e.start = p.start;
        e.end = end;
        e.ch_pos = pos;
        e.interferers = interferers;
        let gen = e.gen;
        self.by_channel[ch].push(slot);
        self.live += 1;
        TxId::pack(slot, gen)
    }

    /// Detach a live slot from its channel list and retire it for
    /// reuse, returning `(src, channel, interferers)`. The interferer
    /// vector is handed back to the slot in `finish_tx_into` to keep
    /// the slab allocation-free across reuse.
    fn detach(&mut self, id: TxId) -> (NodeId, Channel, Vec<NodeId>) {
        let slot = id.slot();
        let e = self
            .slab
            .get_mut(slot)
            .filter(|e| e.live && e.gen == id.gen())
            .expect("finish_tx: unknown or already finished transmission");
        e.live = false;
        e.gen = e.gen.wrapping_add(1);
        let (src, channel, ch_pos) = (e.src, e.channel, e.ch_pos as usize);
        let interferers = std::mem::take(&mut e.interferers);
        let list = &mut self.by_channel[channel.table_index()];
        list.swap_remove(ch_pos);
        if let Some(&moved) = list.get(ch_pos) {
            self.slab[moved as usize].ch_pos = ch_pos as u32;
        }
        self.free.push(slot as u32);
        self.live -= 1;
        (src, channel, interferers)
    }

    /// Finish a transmission and compute reception verdicts for each
    /// candidate listener. The transmission is removed from the medium.
    ///
    /// Panics if `id` is unknown (i.e. already finished) — finishing a
    /// frame twice is a protocol-layer bug worth failing loudly on.
    pub fn finish_tx(&mut self, id: TxId, listeners: &[NodeId]) -> Vec<(NodeId, RxOutcome)> {
        let mut out = Vec::with_capacity(listeners.len());
        self.finish_tx_into(id, listeners, &mut out);
        out
    }

    /// Allocation-free variant of [`Medium::finish_tx`]: verdicts are
    /// appended to `out` (one per listener, in listener order — the RNG
    /// draw order is part of the determinism contract).
    pub fn finish_tx_into(
        &mut self,
        id: TxId,
        listeners: &[NodeId],
        out: &mut Vec<(NodeId, RxOutcome)>,
    ) {
        let (src, channel, mut interferers) = self.detach(id);
        out.extend(
            listeners
                .iter()
                .map(|&l| (l, self.verdict(src, channel, &interferers, l))),
        );
        // Hand the allocation back to the retired slot for reuse.
        interferers.clear();
        self.slab[id.slot()].interferers = interferers;
    }

    fn verdict(
        &mut self,
        src: NodeId,
        channel: Channel,
        interferers: &[NodeId],
        listener: NodeId,
    ) -> RxOutcome {
        if !self.hears(src, listener) {
            return RxOutcome::OutOfRange;
        }
        if interferers
            .iter()
            .any(|&i| i == listener || self.hears(i, listener))
        {
            return RxOutcome::Collision;
        }
        if self
            .noise
            .frame_lost(src.index(), listener.index(), channel)
        {
            return RxOutcome::ChannelError;
        }
        RxOutcome::Ok
    }

    /// Clear-channel assessment: is any frame audible to `node` on
    /// `channel` at time `now`? Used by the 802.15.4 CSMA/CA MAC.
    /// Scans only the transmissions sharing `channel`.
    pub fn carrier_sense(&self, node: NodeId, channel: Channel, now: Instant) -> bool {
        self.by_channel[channel.table_index()].iter().any(|&s| {
            let tx = &self.slab[s as usize];
            tx.start <= now && now < tx.end && self.hears(tx.src, node)
        })
    }

    /// Number of pairwise frame overlaps seen so far (diagnostic).
    pub fn collisions_observed(&self) -> u64 {
        self.collisions_observed
    }

    /// Number of currently in-flight transmissions (diagnostic).
    pub fn in_flight(&self) -> usize {
        self.live
    }

    /// Approximate heap footprint of the medium's topology-dependent
    /// state (adjacency, channel-error state, active slab) in bytes.
    /// The scaling tests pin this so a dense O(n²) structure cannot
    /// silently come back.
    pub fn approx_mem_bytes(&self) -> usize {
        self.range.mem_bytes()
            + self.noise.approx_mem_bytes()
            + self.slab.capacity() * std::mem::size_of::<ActiveTx>()
            + self
                .by_channel
                .iter()
                .map(|v| v.capacity() * 4)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airtime;

    fn medium(n: usize) -> Medium {
        Medium::new(MediumConfig {
            n_nodes: n,
            loss: LossConfig::LOSSLESS,
            seed: 42,
            radio_links: None,
        })
    }

    fn tx(src: u16, ch: u8, start_us: u64, len_payload: u32) -> TxParams {
        TxParams {
            src: NodeId(src),
            channel: Channel::ble_data(ch),
            start: Instant::from_micros(start_us),
            airtime: airtime::ble_data_1m(len_payload),
        }
    }

    #[test]
    fn clean_delivery() {
        let mut m = medium(2);
        let id = m.begin_tx(tx(0, 5, 0, 100));
        let out = m.finish_tx(id, &[NodeId(1)]);
        assert_eq!(out, vec![(NodeId(1), RxOutcome::Ok)]);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn overlapping_same_channel_collides() {
        let mut m = medium(3);
        let a = m.begin_tx(tx(0, 5, 0, 100));
        let b = m.begin_tx(tx(1, 5, 100, 100)); // overlaps a
        let out_a = m.finish_tx(a, &[NodeId(2)]);
        let out_b = m.finish_tx(b, &[NodeId(2)]);
        assert_eq!(out_a[0].1, RxOutcome::Collision);
        assert_eq!(out_b[0].1, RxOutcome::Collision);
        assert_eq!(m.collisions_observed(), 1);
    }

    #[test]
    fn different_channels_do_not_collide() {
        let mut m = medium(3);
        let a = m.begin_tx(tx(0, 5, 0, 100));
        let b = m.begin_tx(tx(1, 6, 0, 100));
        assert_eq!(m.finish_tx(a, &[NodeId(2)])[0].1, RxOutcome::Ok);
        assert_eq!(m.finish_tx(b, &[NodeId(2)])[0].1, RxOutcome::Ok);
    }

    #[test]
    fn sequential_frames_do_not_collide() {
        let mut m = medium(2);
        let a = m.begin_tx(tx(0, 5, 0, 100)); // ends at 880 µs
        let out = m.finish_tx(a, &[NodeId(1)]);
        assert_eq!(out[0].1, RxOutcome::Ok);
        let b = m.begin_tx(tx(1, 5, 1000, 100));
        assert_eq!(m.finish_tx(b, &[NodeId(0)])[0].1, RxOutcome::Ok);
    }

    #[test]
    fn out_of_range_listener() {
        let mut m = medium(2);
        m.set_out_of_range(NodeId(0), NodeId(1), true);
        let a = m.begin_tx(tx(0, 5, 0, 10));
        assert_eq!(m.finish_tx(a, &[NodeId(1)])[0].1, RxOutcome::OutOfRange);
    }

    #[test]
    fn collision_requires_listener_to_hear_interferer() {
        // 0 and 1 transmit simultaneously on the same channel, but the
        // listener 2 cannot hear 1 → no collision from 2's view.
        let mut m = medium(3);
        m.set_out_of_range(NodeId(1), NodeId(2), false);
        let a = m.begin_tx(tx(0, 5, 0, 100));
        let _b = m.begin_tx(tx(1, 5, 0, 100));
        assert_eq!(m.finish_tx(a, &[NodeId(2)])[0].1, RxOutcome::Ok);
    }

    #[test]
    fn jammed_channel_loses_frames() {
        let mut m = medium(2);
        m.set_channel_interference(Channel::ble_data(22), 1.0);
        let a = m.begin_tx(tx(0, 22, 0, 10));
        assert_eq!(m.finish_tx(a, &[NodeId(1)])[0].1, RxOutcome::ChannelError);
    }

    #[test]
    fn carrier_sense_sees_active_frames() {
        let mut m = medium(2);
        let ch = Channel::ble_data(5);
        let id = m.begin_tx(tx(0, 5, 0, 100)); // 880 µs airtime
        assert!(m.carrier_sense(NodeId(1), ch, Instant::from_micros(10)));
        assert!(m.carrier_sense(NodeId(1), ch, Instant::from_micros(800)));
        assert!(!m.carrier_sense(NodeId(1), ch, Instant::from_micros(900)));
        assert!(!m.carrier_sense(NodeId(1), Channel::ble_data(6), Instant::from_micros(10)));
        // Transmitter does not carrier-sense its own frame.
        assert!(!m.carrier_sense(NodeId(0), ch, Instant::from_micros(10)));
        let _ = m.finish_tx(id, &[]);
    }

    #[test]
    fn sender_listening_to_itself_is_out_of_range() {
        let mut m = medium(2);
        let a = m.begin_tx(tx(0, 5, 0, 10));
        assert_eq!(m.finish_tx(a, &[NodeId(0)])[0].1, RxOutcome::OutOfRange);
    }

    #[test]
    #[should_panic]
    fn double_finish_panics() {
        let mut m = medium(2);
        let a = m.begin_tx(tx(0, 5, 0, 10));
        let _ = m.finish_tx(a, &[]);
        let _ = m.finish_tx(a, &[]);
    }

    #[test]
    fn listener_transmitting_during_frame_collides() {
        // Node 1 starts its own frame while 0's frame is in the air; at
        // node 1 the frames overlap, so 0's frame is corrupted there
        // (half-duplex radio).
        let mut m = medium(3);
        let a = m.begin_tx(tx(0, 5, 0, 100));
        let b = m.begin_tx(tx(1, 5, 50, 10));
        let out = m.finish_tx(a, &[NodeId(1)]);
        assert_eq!(out[0].1, RxOutcome::Collision);
        let _ = m.finish_tx(b, &[]);
    }

    #[test]
    fn slot_reuse_invalidates_stale_handles() {
        let mut m = medium(3);
        let a = m.begin_tx(tx(0, 5, 0, 10));
        let _ = m.finish_tx(a, &[]);
        // The slot is reused by the next transmission; the stale
        // handle must not resolve to it.
        let b = m.begin_tx(tx(1, 5, 2000, 10));
        assert_ne!(a, b);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.finish_tx(a, &[])));
        assert!(caught.is_err(), "stale TxId must panic");
    }

    #[test]
    fn sparse_topology_memory_stays_linear_at_n1000() {
        // 1000 nodes in a ring (2 radio links each): the adjacency and
        // loss state must be far below the ~50 MB the dense pair
        // matrix and per-pair chains would occupy.
        let n = 1000u16;
        let links: Vec<(u16, u16)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let m = Medium::new(MediumConfig {
            n_nodes: n as usize,
            loss: LossConfig::ble_default(),
            seed: 7,
            radio_links: Some(links),
        });
        let bytes = m.approx_mem_bytes();
        assert!(
            bytes < 2 << 20,
            "sparse n=1000 medium holds {bytes} bytes (expected < 2 MiB)"
        );
        // Sanity: the adjacency still answers queries.
        assert!(m.hears(NodeId(0), NodeId(1)));
        assert!(m.hears(NodeId(999), NodeId(0)));
        assert!(!m.hears(NodeId(0), NodeId(2)));
    }

    /// Reference implementation with the pre-index semantics: a flat
    /// active list scanned linearly, dense adjacency, dense noise.
    /// The fuzz test below drives it in lockstep with [`Medium`].
    struct DenseRef {
        active: Vec<(u64, NodeId, Channel, Instant, Instant, Vec<NodeId>)>,
        next_id: u64,
        in_range: Vec<bool>,
        n: usize,
        noise: NoiseModel,
    }

    impl DenseRef {
        fn new(n: usize, loss: LossConfig, seed: u64, links: &[(u16, u16)]) -> Self {
            let mut in_range = vec![false; n * n];
            for &(a, b) in links {
                in_range[a as usize * n + b as usize] = true;
                in_range[b as usize * n + a as usize] = true;
            }
            DenseRef {
                active: Vec::new(),
                next_id: 0,
                in_range,
                n,
                noise: NoiseModel::uniform(n, loss, seed),
            }
        }

        fn hears(&self, src: NodeId, l: NodeId) -> bool {
            src != l && self.in_range[src.index() * self.n + l.index()]
        }

        fn begin(&mut self, p: TxParams) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            let end = p.start + p.airtime;
            let mut interferers = Vec::new();
            for tx in &mut self.active {
                if tx.2 == p.channel && tx.4 > p.start {
                    tx.5.push(p.src);
                    interferers.push(tx.1);
                }
            }
            self.active
                .push((id, p.src, p.channel, p.start, end, interferers));
            id
        }

        fn finish(&mut self, id: u64, listeners: &[NodeId]) -> Vec<(NodeId, RxOutcome)> {
            let idx = self.active.iter().position(|t| t.0 == id).unwrap();
            let (_, src, ch, _, _, interferers) = self.active.swap_remove(idx);
            listeners
                .iter()
                .map(|&l| {
                    let o = if !self.hears(src, l) {
                        RxOutcome::OutOfRange
                    } else if interferers.iter().any(|&i| i == l || self.hears(i, l)) {
                        RxOutcome::Collision
                    } else if self.noise.frame_lost(src.index(), l.index(), ch) {
                        RxOutcome::ChannelError
                    } else {
                        RxOutcome::Ok
                    };
                    (l, o)
                })
                .collect()
        }

        fn sense(&self, node: NodeId, channel: Channel, now: Instant) -> bool {
            self.active
                .iter()
                .any(|t| t.2 == channel && t.3 <= now && now < t.4 && self.hears(t.1, node))
        }
    }

    #[test]
    fn indexed_medium_matches_dense_reference_on_fuzz() {
        // Seeded fuzz: random sparse topology, randomly overlapping
        // transmissions on random channels, random listener sets. The
        // per-channel indexed medium must produce byte-identical
        // verdicts (including the RNG-driven ChannelError draws) to
        // the dense linear-scan reference.
        let n = 24u16;
        let mut fuzz = Rng::seed_from_u64(0xF022);
        let mut links = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if fuzz.chance(0.3) {
                    links.push((a, b));
                }
            }
        }
        let loss = LossConfig::ble_default();
        let mut m = Medium::new(MediumConfig {
            n_nodes: n as usize,
            loss,
            seed: 99,
            radio_links: Some(links.clone()),
        });
        let mut r = DenseRef::new(n as usize, loss, 99, &links);

        let mut open: Vec<(TxId, u64, Instant)> = Vec::new();
        let mut now_us = 0u64;
        for round in 0..2000 {
            now_us += fuzz.below(120);
            let now = Instant::from_micros(now_us);
            // Finish any expired transmissions first, oldest first.
            while let Some(&(mid, rid, end)) = open.first() {
                if end > now {
                    break;
                }
                open.remove(0);
                let listeners: Vec<NodeId> =
                    (0..n).filter(|_| fuzz.chance(0.25)).map(NodeId).collect();
                assert_eq!(
                    m.finish_tx(mid, &listeners),
                    r.finish(rid, &listeners),
                    "verdict mismatch at round {round}"
                );
            }
            // Random carrier-sense probes agree.
            let probe = NodeId(fuzz.below(n as u64) as u16);
            let pch = Channel::ble_data(fuzz.below(37) as u8);
            assert_eq!(m.carrier_sense(probe, pch, now), r.sense(probe, pch, now));
            // Start a new transmission on a small channel set so
            // overlaps are common.
            let p = TxParams {
                src: NodeId(fuzz.below(n as u64) as u16),
                channel: Channel::ble_data((fuzz.below(4) * 7) as u8),
                start: now,
                airtime: airtime::ble_data_1m(fuzz.below(200) as u32),
            };
            let end = p.start + p.airtime;
            let mid = m.begin_tx(p);
            let rid = r.begin(p);
            let pos = open.partition_point(|&(_, _, e)| e <= end);
            open.insert(pos, (mid, rid, end));
            assert_eq!(m.in_flight(), open.len());
        }
        // Drain the rest, oldest first.
        open.sort_by_key(|&(_, _, e)| e);
        for (mid, rid, _) in open {
            let listeners: Vec<NodeId> = (0..n).filter(|_| fuzz.chance(0.25)).map(NodeId).collect();
            assert_eq!(m.finish_tx(mid, &listeners), r.finish(rid, &listeners));
        }
        assert_eq!(m.in_flight(), 0);
    }
}
