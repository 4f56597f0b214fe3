//! Deterministic random number generation.
//!
//! The simulation needs randomness in many places the paper calls out
//! explicitly: producer-interval jitter (§4.3), randomized connection
//! intervals (§6.3), advertising delay (`advDelay`, 0–10 ms per the
//! Bluetooth spec), channel-error draws, and clock-drift assignment.
//!
//! All of it flows from one master seed through [`Rng::fork`], so a
//! whole experiment is reproducible from a single `u64`. The generator
//! is xoshiro256★★ (Blackman & Vigna, public domain), seeded through
//! SplitMix64 as its authors recommend.

/// A small, fast, seedable PRNG (xoshiro256★★).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child stream. Used to give every node (and
    /// every subsystem within a node) its own stream so that adding a
    /// random draw in one place cannot perturb any other.
    pub fn fork(&mut self, tag: u64) -> Rng {
        // Mix the tag in so forks with different tags from the same
        // parent state are decorrelated.
        let mut seed = self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        seed ^= seed >> 33;
        Rng::seed_from_u64(seed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased
    /// output.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below(0)");
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (bound as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == hi {
            return lo;
        }
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi);
        lo + self.unit_f64() * (hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Rng::pick on empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// A duration jittered uniformly in `[base - jitter, base + jitter]`,
    /// clamped below at zero. This matches the paper's producer-interval
    /// notation "1 s ±0.5 s" (§4.3).
    pub fn jittered_nanos(&mut self, base: u64, jitter: u64) -> u64 {
        if jitter == 0 {
            return base;
        }
        let lo = base.saturating_sub(jitter);
        let hi = base.saturating_add(jitter);
        self.range_inclusive(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_decorrelated_and_deterministic() {
        let mut parent1 = Rng::seed_from_u64(7);
        let mut parent2 = Rng::seed_from_u64(7);
        let mut c1 = parent1.fork(100);
        let mut c2 = parent2.fork(100);
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut p = Rng::seed_from_u64(7);
        let mut a = p.fork(1);
        let mut b = p.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let x = r.below(10);
            assert!(x < 10);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_inclusive_hits_bounds() {
        let mut r = Rng::seed_from_u64(4);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match r.range_inclusive(5, 7) {
                5 => lo_seen = true,
                7 => hi_seen = true,
                6 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn unit_f64_in_bounds_with_sane_mean() {
        let mut r = Rng::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from_u64(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn jitter_matches_paper_notation() {
        // "1 s ±0.5 s" → uniform in [0.5 s, 1.5 s]
        let mut r = Rng::seed_from_u64(8);
        for _ in 0..10_000 {
            let ns = r.jittered_nanos(1_000_000_000, 500_000_000);
            assert!((500_000_000..=1_500_000_000).contains(&ns));
        }
    }
}
