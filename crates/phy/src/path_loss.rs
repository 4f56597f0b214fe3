//! Log-distance path loss with deterministic log-normal shadowing —
//! the standard indoor 2.4 GHz propagation model the BLE-mesh
//! literature calibrates RSSI estimates with (log-distance plus
//! Gaussian shadowing noise, typically σ ≈ 2 dBm).
//!
//! Where the Gilbert–Elliott chains model *time-varying* interference,
//! this model turns *geometry* into a static per-link PER: every link
//! gets an RSSI from its distance, the link margin over the receiver
//! sensitivity maps to a frame error rate, and the result plugs into
//! [`NoiseModel::set_link_extra`] (via `Medium::set_link_loss`). The
//! shadowing draw is a pure function of `(seed, src, dst)`, so worlds
//! built from the same seed get byte-identical link PER grids.
//!
//! [`NoiseModel::set_link_extra`]: crate::NoiseModel::set_link_extra

use mindgap_sim::Rng;

/// Path loss at the reference distance of 1 m, in dB. Free-space loss
/// at 2.44 GHz over 1 m is ≈ 40.2 dB.
const REF_LOSS_DB: f64 = 40.2;
/// Path-loss exponent (2.0 free space; 2.5–3.5 indoor).
const EXPONENT: f64 = 2.7;
/// Standard deviation of the shadowing noise in dB.
const SHADOW_SIGMA_DB: f64 = 2.0;
/// Transmit power in dBm (BLE default 0 dBm).
const TX_POWER_DBM: f64 = 0.0;
/// Receiver sensitivity in dBm (nRF52 at 1 Mbps: ≈ −96 dBm).
const SENSITIVITY_DBM: f64 = -96.0;
/// Link margin (dB above sensitivity) at and above which the
/// distance-induced PER is zero.
const GOOD_MARGIN_DB: f64 = 10.0;

/// Mean path loss in dB at `distance_m` metres (no shadowing).
fn loss_db(distance_m: f64) -> f64 {
    assert!(distance_m > 0.0, "distance must be positive");
    REF_LOSS_DB + 10.0 * EXPONENT * distance_m.log10()
}

/// Received signal strength in dBm at `distance_m`, including the
/// deterministic shadowing draw for the directed link `src → dst`.
pub fn rssi_dbm(seed: u64, src: u16, dst: u16, distance_m: f64) -> f64 {
    TX_POWER_DBM - loss_db(distance_m) + shadow_db(seed, src, dst)
}

/// The link's shadowing offset in dB: a zero-mean approximately
/// Gaussian draw (Irwin–Hall sum of 12 uniforms) scaled to
/// `SHADOW_SIGMA_DB`, derived purely from `(seed, src, dst)`.
/// Shadowing is a property of the *path*, so both directions of a
/// link share one draw (the unordered pair keys the stream).
fn shadow_db(seed: u64, src: u16, dst: u16) -> f64 {
    let (lo, hi) = if src <= dst { (src, dst) } else { (dst, src) };
    let tag = 0x5AD0_0000_0000_0000 ^ ((lo as u64) << 16) ^ hi as u64;
    let mut rng = Rng::seed_from_u64(seed).fork(tag);
    let sum: f64 = (0..12).map(|_| rng.unit_f64()).sum();
    (sum - 6.0) * SHADOW_SIGMA_DB
}

/// Frame error rate induced by the link budget at `distance_m`: 0 at
/// or above 10 dB of margin over the −96 dBm sensitivity, 1 below sensitivity,
/// quadratic ramp in between (the waterfall region of the BLE GFSK BER
/// curve, coarsened to the frame level).
pub fn link_per(seed: u64, src: u16, dst: u16, distance_m: f64) -> f64 {
    let margin = rssi_dbm(seed, src, dst, distance_m) - SENSITIVITY_DBM;
    if margin >= GOOD_MARGIN_DB {
        0.0
    } else if margin <= 0.0 {
        1.0
    } else {
        let x = 1.0 - margin / GOOD_MARGIN_DB;
        (x * x).clamp(0.0, 1.0)
    }
}

/// Largest distance whose *mean* link budget (no shadowing) still
/// yields zero PER.
fn good_range_m() -> f64 {
    let budget = TX_POWER_DBM - SENSITIVITY_DBM - GOOD_MARGIN_DB;
    10f64.powf((budget - REF_LOSS_DB) / (10.0 * EXPONENT))
}

/// Radio-range cutoff of generated fields: pairs farther apart hear
/// nothing at all. 1.5× the zero-PER range admits the lossy waterfall
/// region without linking pairs whose margin is pure shadowing luck.
pub fn link_range_m() -> f64 {
    1.5 * good_range_m()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_loss_increases_with_distance() {
        assert!((loss_db(1.0) - 40.2).abs() < 1e-12);
        // One decade of distance adds 10·n dB.
        assert!((loss_db(10.0) - loss_db(1.0) - 27.0).abs() < 1e-9);
        assert!(loss_db(30.0) > loss_db(10.0));
    }

    #[test]
    fn per_is_zero_close_and_one_far() {
        assert_eq!(link_per(42, 0, 1, 1.0), 0.0);
        assert_eq!(link_per(42, 0, 1, 10_000.0), 1.0);
        // The transition region is monotone: one link, one shadow draw.
        let r = good_range_m();
        let near = link_per(42, 0, 1, r * 1.2);
        let far = link_per(42, 0, 1, r * 2.0);
        assert!(near <= far, "{near} vs {far}");
    }

    #[test]
    fn shadowing_is_deterministic_and_symmetric() {
        // Same inputs → same draw; shadowing keys the unordered pair.
        assert_eq!(shadow_db(42, 3, 7), shadow_db(42, 3, 7));
        assert_eq!(shadow_db(42, 3, 7), shadow_db(42, 7, 3));
        // Different seeds and different links decorrelate.
        assert_ne!(shadow_db(42, 3, 7), shadow_db(43, 3, 7));
        assert_ne!(shadow_db(42, 3, 7), shadow_db(42, 3, 8));
        // Roughly zero-mean, roughly the configured sigma.
        let draws: Vec<f64> = (0..500u16).map(|i| shadow_db(42, i, i + 1)).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.5, "sigma {}", var.sqrt());
    }

    #[test]
    fn good_range_matches_mean_budget() {
        let margin = TX_POWER_DBM - loss_db(good_range_m()) - SENSITIVITY_DBM;
        assert!((margin - GOOD_MARGIN_DB).abs() < 1e-9, "margin {margin}");
    }
}
