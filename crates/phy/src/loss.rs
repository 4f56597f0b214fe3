//! Channel-error models.
//!
//! Two loss processes act on every frame independently of collisions:
//!
//! 1. A **Gilbert–Elliott** two-state Markov process per *directed
//!    link* models bursty background interference on the crowded
//!    2.4 GHz band. In the *good* state frames are lost with a small
//!    probability, in the *bad* state with a large one; the chain
//!    occasionally visits the bad state for a handful of frames. This
//!    reproduces the scattered link-layer retransmissions visible in
//!    the paper's LL PDR numbers (≈98–99 % per link, Fig. 13b).
//! 2. A **static per-channel offset** models frequency-selective
//!    interferers. The paper found BLE channel 22 permanently jammed
//!    by an external signal (§4.2); we model that channel with a loss
//!    probability near one so that any configuration which fails to
//!    exclude it from the channel map visibly suffers — and exclude it
//!    in the default experiment setup exactly as the authors did.

use crate::channel::{Channel, CHANNEL_TABLE_SIZE};
use mindgap_sim::Rng;
use std::collections::HashMap;

/// Parameters of the Gilbert–Elliott process (per frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Frame loss probability in the good state.
    pub per_good: f64,
    /// Frame loss probability in the bad state.
    pub per_bad: f64,
    /// Probability of transitioning good → bad at each frame.
    pub p_good_to_bad: f64,
    /// Probability of transitioning bad → good at each frame.
    pub p_bad_to_good: f64,
}

impl LossConfig {
    /// No channel errors at all (for unit tests and clean-room runs).
    pub const LOSSLESS: LossConfig = LossConfig {
        per_good: 0.0,
        per_bad: 0.0,
        p_good_to_bad: 0.0,
        p_bad_to_good: 1.0,
    };

    /// Calibrated BLE defaults: ≈1 % average loss, mildly bursty,
    /// matching the paper's static-interval per-link LL PDR of ≈98 %
    /// (which includes shading losses on top of channel noise).
    pub fn ble_default() -> LossConfig {
        LossConfig {
            per_good: 0.006,
            per_bad: 0.20,
            p_good_to_bad: 0.002,
            p_bad_to_good: 0.08,
        }
    }

    /// Calibrated 802.15.4 defaults for the Strasbourg m3 deployment:
    /// noticeably noisier (shared-site Wi-Fi, no channel hopping),
    /// strongly bursty. Combined with CSMA/CA collisions and the
    /// 3-retry drop policy this lands the tree/moderate-load scenario
    /// near the paper's 83 % CoAP PDR (§5.3).
    pub fn ieee802154_default() -> LossConfig {
        LossConfig {
            per_good: 0.055,
            per_bad: 0.62,
            p_good_to_bad: 0.025,
            p_bad_to_good: 0.08,
        }
    }

    /// Long-run average frame loss probability of this process.
    pub fn mean_per(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            return self.per_good;
        }
        let frac_bad = self.p_good_to_bad / denom;
        self.per_good * (1.0 - frac_bad) + self.per_bad * frac_bad
    }

    fn validate(&self) {
        for (name, p) in [
            ("per_good", self.per_good),
            ("per_bad", self.per_bad),
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} out of [0,1]");
        }
    }
}

/// One Gilbert–Elliott chain (state + parameters).
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    cfg: LossConfig,
    in_bad: bool,
}

impl GilbertElliott {
    /// A chain starting in the good state.
    pub fn new(cfg: LossConfig) -> Self {
        cfg.validate();
        GilbertElliott { cfg, in_bad: false }
    }

    /// Advance the chain by one frame and return `true` if that frame
    /// is lost to channel error.
    pub fn frame_lost(&mut self, rng: &mut Rng) -> bool {
        // Transition first, then draw: a burst begins with the frame
        // that enters the bad state.
        if self.in_bad {
            if rng.chance(self.cfg.p_bad_to_good) {
                self.in_bad = false;
            }
        } else if rng.chance(self.cfg.p_good_to_bad) {
            self.in_bad = true;
        }
        let per = if self.in_bad {
            self.cfg.per_bad
        } else {
            self.cfg.per_good
        };
        rng.chance(per)
    }

    /// `true` if the chain is currently in the bad (bursty) state.
    pub fn is_bad(&self) -> bool {
        self.in_bad
    }

    /// The configured parameters.
    pub fn config(&self) -> &LossConfig {
        &self.cfg
    }
}

/// Per-directed-link state: the burst chain, the static loss override
/// the chaos engine scripts PER ramps through, and the link's *own*
/// RNG stream.
///
/// Giving every directed link a private RNG (forked purely from the
/// model seed and the link endpoints) makes each link's verdict
/// sequence a function of how many frames crossed *that link*, not of
/// the global interleaving of frames across links: a change in one
/// part of the network (a new producer, a reordered same-instant
/// transmission) perturbs no other link's draws (DESIGN.md §13). It
/// is a saner model besides: one link's traffic no longer changes
/// another link's burst pattern.
#[derive(Debug, Clone)]
struct LinkState {
    chain: GilbertElliott,
    extra: f64,
    rng: Rng,
}

impl LinkState {
    /// Fresh state for the directed link `src → dst` of a model
    /// seeded with `seed`. Pure function of its arguments, so lazily
    /// created overflow state is indistinguishable from eager state.
    fn new(cfg: LossConfig, seed: u64, src: u16, dst: u16) -> Self {
        let tag = 0x4C1C_0000_0000_0000 ^ ((src as u64) << 16) ^ dst as u64;
        LinkState {
            chain: GilbertElliott::new(cfg),
            extra: 0.0,
            rng: Rng::seed_from_u64(seed).fork(tag),
        }
    }
}

/// Storage backing [`NoiseModel`]: dense per-pair for the shared-room
/// default, CSR per-*link* when the topology is sparse.
#[derive(Debug)]
enum LinkStore {
    /// One entry per ordered node pair, indexed `src*n + dst`.
    Dense(Vec<LinkState>),
    /// One entry per *directed radio link* in CSR form: row `src`'s
    /// neighbours are `col[row_start[src]..row_start[src+1]]`, sorted,
    /// with `state` parallel to `col`. Pairs outside the link set
    /// (possible when a caller re-ranges the medium at runtime) fall
    /// back to `overflow`, created lazily — [`LinkState::new`] is a
    /// pure function of `(cfg, seed, src, dst)`, so lazy creation
    /// never perturbs any draw stream.
    Sparse {
        row_start: Vec<u32>,
        col: Vec<u16>,
        state: Vec<LinkState>,
        overflow: HashMap<(u16, u16), LinkState>,
    },
}

/// Channel-error model for the whole medium: one Gilbert–Elliott chain
/// per directed link plus static per-channel loss offsets. Every
/// directed link owns an independent RNG stream keyed on `(seed, src,
/// dst)`, so verdicts on one link are unaffected by traffic elsewhere.
#[derive(Debug)]
pub struct NoiseModel {
    store: LinkStore,
    /// Template for lazily-created overflow chains.
    cfg: LossConfig,
    /// Base seed the per-link streams fork from.
    seed: u64,
    n_nodes: usize,
    /// Additional independent loss probability per channel
    /// (e.g. jammed BLE channel 22 → ≈ 0.97).
    channel_extra: [f64; CHANNEL_TABLE_SIZE],
}

impl NoiseModel {
    /// A model for `n_nodes` nodes with the same link config everywhere
    /// and no channel-specific interference. Holds state for every
    /// ordered pair — O(n²) memory, fine for room-sized worlds.
    pub fn uniform(n_nodes: usize, cfg: LossConfig, seed: u64) -> Self {
        cfg.validate();
        NoiseModel {
            store: LinkStore::Dense(
                (0..n_nodes * n_nodes)
                    .map(|i| {
                        LinkState::new(cfg, seed, (i / n_nodes) as u16, (i % n_nodes) as u16)
                    })
                    .collect(),
            ),
            cfg,
            seed,
            n_nodes,
            channel_extra: [0.0; CHANNEL_TABLE_SIZE],
        }
    }

    /// A model that holds channel-error state only for the directed
    /// links actually in range — O(nodes + links) memory instead of
    /// O(n²). Each unordered pair in `links` gets two independent
    /// chains, one per direction, exactly like [`NoiseModel::uniform`].
    /// Queries on pairs outside the link set still work (a state is
    /// created on first touch), so runtime re-ranging stays correct.
    pub fn sparse(n_nodes: usize, cfg: LossConfig, links: &[(u16, u16)], seed: u64) -> Self {
        cfg.validate();
        let mut degree = vec![0u32; n_nodes];
        for &(a, b) in links {
            assert!(
                (a as usize) < n_nodes && (b as usize) < n_nodes,
                "link ({a},{b}) out of range for {n_nodes} nodes"
            );
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut row_start = Vec::with_capacity(n_nodes + 1);
        let mut acc = 0u32;
        for &d in &degree {
            row_start.push(acc);
            acc += d;
        }
        row_start.push(acc);
        let mut col = vec![0u16; acc as usize];
        let mut fill = row_start.clone();
        for &(a, b) in links {
            col[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            col[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        for r in 0..n_nodes {
            col[row_start[r] as usize..row_start[r + 1] as usize].sort_unstable();
        }
        let mut state = Vec::with_capacity(acc as usize);
        for src in 0..n_nodes {
            for &dst in &col[row_start[src] as usize..row_start[src + 1] as usize] {
                state.push(LinkState::new(cfg, seed, src as u16, dst));
            }
        }
        NoiseModel {
            store: LinkStore::Sparse {
                row_start,
                col,
                state,
                overflow: HashMap::new(),
            },
            cfg,
            seed,
            n_nodes,
            channel_extra: [0.0; CHANNEL_TABLE_SIZE],
        }
    }

    /// Mutable state for one directed link, creating overflow state on
    /// first touch of an unlisted pair in sparse mode.
    fn link_state(&mut self, src: usize, dst: usize) -> &mut LinkState {
        debug_assert!(src < self.n_nodes && dst < self.n_nodes);
        match &mut self.store {
            LinkStore::Dense(states) => &mut states[src * self.n_nodes + dst],
            LinkStore::Sparse {
                row_start,
                col,
                state,
                overflow,
            } => {
                let row = &col[row_start[src] as usize..row_start[src + 1] as usize];
                match row.binary_search(&(dst as u16)) {
                    Ok(i) => &mut state[row_start[src] as usize + i],
                    Err(_) => overflow
                        .entry((src as u16, dst as u16))
                        .or_insert_with(|| {
                            LinkState::new(self.cfg, self.seed, src as u16, dst as u16)
                        }),
                }
            }
        }
    }

    /// Shared-ref lookup; `None` for an unlisted sparse pair that has
    /// never been touched (whose state is the pristine default).
    fn link_state_ref(&self, src: usize, dst: usize) -> Option<&LinkState> {
        debug_assert!(src < self.n_nodes && dst < self.n_nodes);
        match &self.store {
            LinkStore::Dense(states) => Some(&states[src * self.n_nodes + dst]),
            LinkStore::Sparse {
                row_start,
                col,
                state,
                overflow,
            } => {
                let row = &col[row_start[src] as usize..row_start[src + 1] as usize];
                match row.binary_search(&(dst as u16)) {
                    Ok(i) => Some(&state[row_start[src] as usize + i]),
                    Err(_) => overflow.get(&(src as u16, dst as u16)),
                }
            }
        }
    }

    /// Set an additional static loss probability on one directed link
    /// (on top of the Gilbert–Elliott chain; `1.0` blacks it out).
    pub fn set_link_extra(&mut self, src: usize, dst: usize, per: f64) {
        assert!((0.0..=1.0).contains(&per), "per {per} out of [0,1]");
        self.link_state(src, dst).extra = per;
    }

    /// Static loss probability configured on a directed link.
    pub fn link_extra(&self, src: usize, dst: usize) -> f64 {
        self.link_state_ref(src, dst).map_or(0.0, |s| s.extra)
    }

    /// Set an additional static loss probability on one channel.
    pub fn set_channel_extra(&mut self, channel: Channel, per: f64) {
        assert!((0.0..=1.0).contains(&per), "per {per} out of [0,1]");
        self.channel_extra[channel.table_index()] = per;
    }

    /// Static loss probability configured for a channel.
    pub fn channel_extra(&self, channel: Channel) -> f64 {
        self.channel_extra[channel.table_index()]
    }

    /// Decide whether a frame from `src` to `dst` on `channel` is lost
    /// to channel error (burst chain and per-channel interferer). All
    /// draws come from the link's own stream, so the verdict sequence
    /// on one link is independent of traffic on every other link.
    pub fn frame_lost(&mut self, src: usize, dst: usize, channel: Channel) -> bool {
        let channel_extra = self.channel_extra[channel.table_index()];
        let state = self.link_state(src, dst);
        if state.chain.frame_lost(&mut state.rng) {
            return true;
        }
        // Both overrides draw only when active, so installing none
        // keeps the RNG draw sequence identical to a run without them.
        let link = state.extra;
        if link > 0.0 && state.rng.chance(link) {
            return true;
        }
        channel_extra > 0.0 && state.rng.chance(channel_extra)
    }

    /// Approximate heap bytes held by the per-link state.
    pub fn approx_mem_bytes(&self) -> usize {
        let st = std::mem::size_of::<LinkState>();
        match &self.store {
            LinkStore::Dense(states) => states.capacity() * st,
            LinkStore::Sparse {
                row_start,
                col,
                state,
                overflow,
            } => {
                row_start.capacity() * 4
                    + col.capacity() * 2
                    + state.capacity() * st
                    // HashMap overhead approximated at 2x entry size.
                    + overflow.len() * 2 * (st + 4)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Log-distance path loss (distance-based PER)
// ---------------------------------------------------------------------

/// Log-distance path-loss model with deterministic log-normal
/// shadowing — the standard indoor 2.4 GHz propagation model the
/// BLE-mesh literature calibrates RSSI estimates with (log-distance
/// plus Gaussian shadowing noise, typically σ ≈ 2 dBm).
///
/// Where the Gilbert–Elliott chains model *time-varying* interference,
/// this model turns *geometry* into a static per-link PER: every link
/// gets an RSSI from its distance, the link margin over the receiver
/// sensitivity maps to a frame error rate, and the result plugs into
/// [`NoiseModel::set_link_extra`] (via `Medium::set_link_loss`). The
/// shadowing draw is a pure function of `(seed, src, dst)`, so worlds
/// built from the same seed get byte-identical link PER grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossConfig {
    /// Path loss at the reference distance of 1 m, in dB. Free-space
    /// loss at 2.44 GHz over 1 m is ≈ 40.2 dB.
    pub ref_loss_db: f64,
    /// Path-loss exponent (2.0 free space; 2.5–3.5 indoor).
    pub exponent: f64,
    /// Standard deviation of the shadowing noise in dB (0 disables).
    pub shadow_sigma_db: f64,
    /// Transmit power in dBm (BLE default 0 dBm).
    pub tx_power_dbm: f64,
    /// Receiver sensitivity in dBm (nRF52 at 1 Mbps: ≈ −96 dBm).
    pub sensitivity_dbm: f64,
    /// Link margin (dB above sensitivity) at and above which the
    /// distance-induced PER is zero.
    pub good_margin_db: f64,
}

impl Default for PathLossConfig {
    fn default() -> Self {
        PathLossConfig {
            ref_loss_db: 40.2,
            exponent: 2.7,
            shadow_sigma_db: 2.0,
            tx_power_dbm: 0.0,
            sensitivity_dbm: -96.0,
            good_margin_db: 10.0,
        }
    }
}

impl PathLossConfig {
    /// Mean path loss in dB at `distance_m` metres (no shadowing).
    pub fn loss_db(&self, distance_m: f64) -> f64 {
        assert!(distance_m > 0.0, "distance must be positive");
        self.ref_loss_db + 10.0 * self.exponent * distance_m.log10()
    }

    /// Received signal strength in dBm at `distance_m`, including the
    /// deterministic shadowing draw for the directed link `src → dst`.
    pub fn rssi_dbm(&self, seed: u64, src: u16, dst: u16, distance_m: f64) -> f64 {
        self.tx_power_dbm - self.loss_db(distance_m) + self.shadow_db(seed, src, dst)
    }

    /// The link's shadowing offset in dB: a zero-mean approximately
    /// Gaussian draw (Irwin–Hall sum of 12 uniforms) scaled to
    /// `shadow_sigma_db`, derived purely from `(seed, src, dst)`.
    /// Shadowing is a property of the *path*, so both directions of a
    /// link share one draw (the unordered pair keys the stream).
    pub fn shadow_db(&self, seed: u64, src: u16, dst: u16) -> f64 {
        if self.shadow_sigma_db == 0.0 {
            return 0.0;
        }
        let (lo, hi) = if src <= dst { (src, dst) } else { (dst, src) };
        let tag = 0x5AD0_0000_0000_0000 ^ ((lo as u64) << 16) ^ hi as u64;
        let mut rng = Rng::seed_from_u64(seed).fork(tag);
        let sum: f64 = (0..12).map(|_| rng.unit_f64()).sum();
        (sum - 6.0) * self.shadow_sigma_db
    }

    /// Frame error rate induced by the link budget at `distance_m`:
    /// 0 at or above `good_margin_db` of margin, 1 below sensitivity,
    /// quadratic ramp in between (the waterfall region of the BLE
    /// GFSK BER curve, coarsened to the frame level).
    pub fn link_per(&self, seed: u64, src: u16, dst: u16, distance_m: f64) -> f64 {
        let margin = self.rssi_dbm(seed, src, dst, distance_m) - self.sensitivity_dbm;
        if margin >= self.good_margin_db {
            0.0
        } else if margin <= 0.0 {
            1.0
        } else {
            let x = 1.0 - margin / self.good_margin_db;
            (x * x).clamp(0.0, 1.0)
        }
    }

    /// Largest distance whose *mean* link budget (no shadowing) still
    /// yields zero PER — handy for placing nodes in experiments.
    pub fn good_range_m(&self) -> f64 {
        let budget = self.tx_power_dbm - self.sensitivity_dbm - self.good_margin_db;
        10f64.powf((budget - self.ref_loss_db) / (10.0 * self.exponent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;

    #[test]
    fn lossless_never_loses() {
        let mut ge = GilbertElliott::new(LossConfig::LOSSLESS);
        let mut rng = Rng::seed_from_u64(1);
        assert!((0..10_000).all(|_| !ge.frame_lost(&mut rng)));
    }

    #[test]
    fn mean_per_formula() {
        let cfg = LossConfig {
            per_good: 0.0,
            per_bad: 1.0,
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.3,
        };
        // Stationary bad fraction = 0.1 / 0.4 = 0.25.
        assert!((cfg.mean_per() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empirical_loss_matches_mean() {
        let cfg = LossConfig::ble_default();
        let mut ge = GilbertElliott::new(cfg);
        let mut rng = Rng::seed_from_u64(2);
        let n = 400_000;
        let lost = (0..n).filter(|_| ge.frame_lost(&mut rng)).count();
        let rate = lost as f64 / n as f64;
        let mean = cfg.mean_per();
        assert!(
            (rate - mean).abs() < 0.25 * mean + 0.002,
            "rate {rate} vs mean {mean}"
        );
    }

    #[test]
    fn losses_are_bursty() {
        // The conditional loss probability after a loss must exceed the
        // marginal loss probability for a bursty process.
        let cfg = LossConfig::ieee802154_default();
        let mut ge = GilbertElliott::new(cfg);
        let mut rng = Rng::seed_from_u64(3);
        let seq: Vec<bool> = (0..300_000).map(|_| ge.frame_lost(&mut rng)).collect();
        let marginal = seq.iter().filter(|&&l| l).count() as f64 / seq.len() as f64;
        let mut after_loss = 0usize;
        let mut after_loss_lost = 0usize;
        for w in seq.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    after_loss_lost += 1;
                }
            }
        }
        let conditional = after_loss_lost as f64 / after_loss as f64;
        assert!(
            conditional > 1.5 * marginal,
            "conditional {conditional} vs marginal {marginal}"
        );
    }

    #[test]
    fn jammed_channel_dominates() {
        let mut nm = NoiseModel::uniform(2, LossConfig::LOSSLESS, 4);
        nm.set_channel_extra(Channel::ble_data(22), 0.97);
        let jam_lost = (0..10_000)
            .filter(|_| nm.frame_lost(0, 1, Channel::ble_data(22)))
            .count();
        let clean_lost = (0..10_000)
            .filter(|_| nm.frame_lost(0, 1, Channel::ble_data(21)))
            .count();
        assert!(jam_lost > 9_500, "jammed channel only lost {jam_lost}");
        assert_eq!(clean_lost, 0);
    }

    #[test]
    fn link_extra_overrides_one_direction() {
        let mut nm = NoiseModel::uniform(2, LossConfig::LOSSLESS, 6);
        nm.set_link_extra(0, 1, 1.0);
        assert!((0..100).all(|_| nm.frame_lost(0, 1, Channel::ble_data(5))));
        assert!((0..100).all(|_| !nm.frame_lost(1, 0, Channel::ble_data(5))));
        assert_eq!(nm.link_extra(0, 1), 1.0);
        nm.set_link_extra(0, 1, 0.0);
        assert!((0..100).all(|_| !nm.frame_lost(0, 1, Channel::ble_data(5))));
    }

    #[test]
    fn sparse_matches_uniform_draw_sequence_on_listed_links() {
        // On links that exist in the sparse store, the chains and the
        // per-link RNG streams must be indistinguishable from the
        // dense model's: same seed → same verdict sequences.
        let cfg = LossConfig::ble_default();
        let mut dense = NoiseModel::uniform(4, cfg, 11);
        let mut sp = NoiseModel::sparse(4, cfg, &[(0, 1), (2, 3), (1, 2)], 11);
        for i in 0..5_000usize {
            let (s, d) = [(0usize, 1usize), (1, 0), (2, 3), (1, 2)][i % 4];
            let ch = Channel::ble_data((i % 37) as u8);
            assert_eq!(
                dense.frame_lost(s, d, ch),
                sp.frame_lost(s, d, ch),
                "divergence at frame {i}"
            );
        }
    }

    #[test]
    fn draw_sequence_is_per_link_not_global() {
        // The verdict sequence on one link must not depend on how frames
        // on *other* links interleave with it. Run link (0,1) alone,
        // then again with heavy unrelated traffic interspersed — the
        // (0,1) verdicts must match draw for draw.
        let cfg = LossConfig::ble_default();
        let mut alone = NoiseModel::uniform(4, cfg, 42);
        let solo: Vec<bool> = (0..3_000)
            .map(|i| alone.frame_lost(0, 1, Channel::ble_data((i % 37) as u8)))
            .collect();
        let mut busy = NoiseModel::uniform(4, cfg, 42);
        let mut interleaved = Vec::new();
        for i in 0..3_000usize {
            // Unrelated traffic before every probe, in a pattern that
            // varies per step (this is what event reordering does).
            for _ in 0..(i % 5) {
                busy.frame_lost(2, 3, Channel::ble_data(9));
                busy.frame_lost(1, 0, Channel::ble_data(9));
                busy.frame_lost(3, 2, Channel::ble_data(20));
            }
            interleaved.push(busy.frame_lost(0, 1, Channel::ble_data((i % 37) as u8)));
        }
        assert_eq!(solo, interleaved, "link (0,1) stream was perturbed");
    }

    #[test]
    fn sparse_unlisted_pairs_work_via_overflow() {
        let mut sp = NoiseModel::sparse(3, LossConfig::LOSSLESS, &[(0, 1)], 12);
        assert_eq!(sp.link_extra(0, 2), 0.0);
        assert!(!sp.frame_lost(0, 2, Channel::ble_data(5)));
        sp.set_link_extra(0, 2, 1.0);
        assert!((0..50).all(|_| sp.frame_lost(0, 2, Channel::ble_data(5))));
        assert_eq!(sp.link_extra(0, 2), 1.0);
        // Listed links are unaffected by the overflow entry.
        assert!(!sp.frame_lost(0, 1, Channel::ble_data(5)));
    }

    #[test]
    fn overflow_state_matches_eager_state() {
        // A pair reached via sparse overflow must produce the exact
        // verdict stream a dense (eagerly-built) model gives it:
        // LinkState::new is pure in (cfg, seed, src, dst).
        let cfg = LossConfig::ble_default();
        let mut sp = NoiseModel::sparse(3, cfg, &[(0, 1)], 77);
        let mut dn = NoiseModel::uniform(3, cfg, 77);
        for i in 0..2_000usize {
            let ch = Channel::ble_data((i % 37) as u8);
            assert_eq!(sp.frame_lost(0, 2, ch), dn.frame_lost(0, 2, ch));
        }
    }

    #[test]
    fn sparse_memory_is_linear_in_links() {
        // A 1000-node path has 999 links → 1998 directed states; the
        // dense model would hold 10⁶ (≈ 48 MB).
        let n = 1000;
        let links: Vec<(u16, u16)> = (0..n as u16 - 1).map(|i| (i, i + 1)).collect();
        let sp = NoiseModel::sparse(n, LossConfig::ble_default(), &links, 1);
        let bytes = sp.approx_mem_bytes();
        assert!(bytes < 300 * 1024, "sparse noise holds {bytes} bytes");
    }

    #[test]
    fn links_have_independent_chains() {
        // Force link (0,1) into the bad state; link (1,0) must be
        // unaffected because each direction has its own chain.
        let cfg = LossConfig {
            per_good: 0.0,
            per_bad: 1.0,
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
        };
        let mut nm = NoiseModel::uniform(2, cfg, 5);
        assert!(nm.frame_lost(0, 1, Channel::ble_data(0)));
        // Reconfigure the reverse link's chain to lossless by rebuilding:
        let mut nm2 = NoiseModel::uniform(2, LossConfig::LOSSLESS, 5);
        assert!(!nm2.frame_lost(1, 0, Channel::ble_data(0)));
    }

    #[test]
    fn path_loss_increases_with_distance() {
        let pl = PathLossConfig::default();
        assert!((pl.loss_db(1.0) - 40.2).abs() < 1e-12);
        // One decade of distance adds 10·n dB.
        assert!((pl.loss_db(10.0) - pl.loss_db(1.0) - 27.0).abs() < 1e-9);
        assert!(pl.loss_db(30.0) > pl.loss_db(10.0));
    }

    #[test]
    fn per_is_zero_close_and_one_far() {
        let pl = PathLossConfig {
            shadow_sigma_db: 0.0,
            ..PathLossConfig::default()
        };
        assert_eq!(pl.link_per(42, 0, 1, 1.0), 0.0);
        assert_eq!(pl.link_per(42, 0, 1, 10_000.0), 1.0);
        // The transition region is monotone.
        let r = pl.good_range_m();
        let near = pl.link_per(42, 0, 1, r * 1.2);
        let far = pl.link_per(42, 0, 1, r * 2.0);
        assert!(near <= far, "{near} vs {far}");
    }

    #[test]
    fn shadowing_is_deterministic_and_symmetric() {
        let pl = PathLossConfig::default();
        // Same inputs → same draw; shadowing keys the unordered pair.
        assert_eq!(pl.shadow_db(42, 3, 7), pl.shadow_db(42, 3, 7));
        assert_eq!(pl.shadow_db(42, 3, 7), pl.shadow_db(42, 7, 3));
        // Different seeds and different links decorrelate.
        assert_ne!(pl.shadow_db(42, 3, 7), pl.shadow_db(43, 3, 7));
        assert_ne!(pl.shadow_db(42, 3, 7), pl.shadow_db(42, 3, 8));
        // Roughly zero-mean, roughly the configured sigma.
        let draws: Vec<f64> = (0..500u16)
            .map(|i| pl.shadow_db(42, i, i + 1))
            .collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>()
            / draws.len() as f64;
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.5, "sigma {}", var.sqrt());
    }

    #[test]
    fn good_range_matches_mean_budget() {
        let pl = PathLossConfig {
            shadow_sigma_db: 0.0,
            ..PathLossConfig::default()
        };
        let r = pl.good_range_m();
        // Just inside the range: zero PER; just outside: non-zero.
        assert_eq!(pl.link_per(1, 0, 1, r * 0.99), 0.0);
        assert!(pl.link_per(1, 0, 1, r * 1.05) > 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        let _ = GilbertElliott::new(LossConfig {
            per_good: 1.5,
            ..LossConfig::LOSSLESS
        });
    }
}
