//! Per-node drifting clocks.
//!
//! Every BLE timer in the paper's system — connection anchor points,
//! supervision timeouts, advertising intervals — is driven by the
//! owning board's *sleep clock*. The Bluetooth Core Specification
//! requires a sleep-clock accuracy of ≤ 250 ppm (paper §6.2); the
//! authors measured a maximum *relative* drift of 6 µs/s (6 ppm)
//! between their nRF52 boards.
//!
//! A [`Clock`] maps spans between a node's local time domain and the
//! global simulation time domain. A connection coordinator that
//! schedules its next connection event "one connection interval from
//! now" measures that interval on its own clock; two coordinators with
//! different drifts therefore place physically different global spans
//! between their events — which is exactly what makes connection
//! events of independent connections slide past each other and shade
//! (paper §6.1, Fig. 11).

use crate::{Duration, Instant};

/// A local clock with constant frequency offset, expressed in
/// parts-per-million relative to ideal (global) time.
///
/// Positive ppm means the clock runs *fast*: when it believes a span
/// `d_local` has elapsed, only `d_local / (1 + ppm·1e-6)` of global
/// time has actually passed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Frequency error in parts per million. `0.0` is an ideal clock.
    ppm: f64,
    /// Precomputed `1 / (1 + ppm·1e-6)` — the local→global scale.
    /// Cached at construction so the per-event conversion is a single
    /// multiply (the division would otherwise sit on the kernel's
    /// hottest path).
    scale_global: f64,
    /// Precomputed `1 + ppm·1e-6` — the global→local scale.
    scale_local: f64,
}

impl Clock {
    /// An ideal, drift-free clock.
    pub const IDEAL: Clock = Clock {
        ppm: 0.0,
        scale_global: 1.0,
        scale_local: 1.0,
    };

    /// Create a clock with the given frequency error in ppm.
    ///
    /// The Bluetooth spec allows up to ±250 ppm for the sleep clock;
    /// we reject clearly nonsensical values early.
    pub fn with_ppm(ppm: f64) -> Self {
        assert!(
            ppm.is_finite() && ppm.abs() < 10_000.0,
            "unreasonable clock drift: {ppm} ppm"
        );
        Clock {
            ppm,
            scale_global: 1.0 / (1.0 + ppm * 1e-6),
            scale_local: 1.0 + ppm * 1e-6,
        }
    }

    /// The clock's frequency error in ppm.
    #[inline]
    pub fn ppm(&self) -> f64 {
        self.ppm
    }

    /// Convert a span measured on this local clock into global time.
    ///
    /// A fast clock (ppm > 0) "finishes" its local span early in global
    /// time, so the global span is slightly shorter.
    #[inline]
    pub fn to_global(&self, local: Duration) -> Duration {
        Duration::from_nanos((local.nanos() as f64 * self.scale_global).round() as u64)
    }

    /// Convert a global span into this clock's local time domain.
    #[inline]
    pub fn to_local(&self, global: Duration) -> Duration {
        Duration::from_nanos((global.nanos() as f64 * self.scale_local).round() as u64)
    }

    /// Global instant at which a timer of `local` span set at global
    /// time `now` fires.
    #[inline]
    pub fn fires_at(&self, now: Instant, local: Duration) -> Instant {
        now + self.to_global(local)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::IDEAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_clock_is_identity() {
        let c = Clock::IDEAL;
        let d = Duration::from_millis(75);
        assert_eq!(c.to_global(d), d);
        assert_eq!(c.to_local(d), d);
    }

    #[test]
    fn fast_clock_shortens_global_span() {
        // +10 ppm fast: a local 1 s timer fires ~10 µs early.
        let c = Clock::with_ppm(10.0);
        let g = c.to_global(Duration::from_secs(1));
        let early = Duration::from_secs(1) - g;
        assert!(early.nanos() > 9_800 && early.nanos() < 10_200, "{early}");
    }

    #[test]
    fn slow_clock_stretches_global_span() {
        let c = Clock::with_ppm(-10.0);
        let g = c.to_global(Duration::from_secs(1));
        let late = g - Duration::from_secs(1);
        assert!(late.nanos() > 9_800 && late.nanos() < 10_200, "{late}");
    }

    #[test]
    fn relative_drift_matches_paper_example() {
        // Paper §6.1: relative drift of 36 ms/h ≈ 10 ppm. Two clocks at
        // +5 and -5 ppm accumulate that offset over one hour.
        let a = Clock::with_ppm(5.0);
        let b = Clock::with_ppm(-5.0);
        let hour = Duration::from_secs(3600);
        let ga = a.to_global(hour);
        let gb = b.to_global(hour);
        let offset = gb - ga; // fast clock finishes earlier
        let ms = offset.nanos() as f64 / 1e6;
        assert!((ms - 36.0).abs() < 0.1, "offset {ms} ms");
    }

    #[test]
    fn roundtrip_error_is_tiny() {
        let c = Clock::with_ppm(250.0); // worst spec-compliant clock
        let d = Duration::from_secs(86_400); // 24 h experiment
        let rt = c.to_local(c.to_global(d));
        let err = if rt > d { rt - d } else { d - rt };
        // Allowed error: second-order ppm² term plus rounding.
        assert!(err < Duration::from_micros(10), "err {err}");
    }

    #[test]
    fn fires_at_adds_converted_span() {
        let c = Clock::with_ppm(100.0);
        let now = Instant::from_secs(10);
        let t = c.fires_at(now, Duration::from_secs(1));
        assert!(t > now);
        assert!(t < now + Duration::from_secs(1));
    }

    #[test]
    #[should_panic]
    fn absurd_ppm_rejected() {
        let _ = Clock::with_ppm(1e9);
    }
}
