//! Randomized tests of the simulation kernel's invariants.
//!
//! Each test drives many deterministic pseudo-random cases from the
//! kernel's own [`Rng`] (seeded per case), so the suite needs no
//! external property-testing dependency yet still explores the same
//! input space on every run — failures reproduce exactly.

use mindgap_sim::{Clock, Duration, EventQueue, Instant, Rng};

const CASES: u64 = 64;

/// Events pop in non-decreasing time order regardless of the
/// insertion order, and same-time events keep insertion order.
#[test]
fn queue_pops_sorted_and_stable() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51ED_0001 ^ case);
        let n = rng.range_inclusive(1, 199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Instant::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            assert_eq!(at.nanos(), t);
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "stability violated");
            }
            last = Some((t, i));
        }
    }
}

/// The queue's wheel horizon (2048 buckets of 2¹⁶ ns ≈ 134 ms):
/// delays are drawn around and well beyond it so events cross all
/// three tiers of the calendar queue.
const HORIZON_NS: u64 = 2048 << 16;

/// A delay from one of the shapes the simulator produces: at `now`,
/// within one bucket, within the horizon, a few horizons out, or far
/// beyond (seconds). `sparse` cases skip the near shapes more often,
/// so the front jumps across empty buckets and the overflow.
fn draw_delay(rng: &mut Rng, sparse: bool) -> u64 {
    match rng.below(if sparse { 4 } else { 8 }) {
        0 => rng.below(4) * HORIZON_NS + rng.below(3),
        1 => rng.range_inclusive(HORIZON_NS / 2, 5 * HORIZON_NS),
        2 => rng.range_inclusive(1_000_000_000, 30_000_000_000),
        3 => rng.below(HORIZON_NS),
        4 => 0,
        5 => rng.below(1 << 16),
        _ => rng.below(200_000),
    }
}

/// Differential test against a `BTreeMap` keyed by `(at, key, seq)`:
/// random mixes of every scheduling entry point, pops and peeks, with
/// delays from zero to many wheel horizons and same-instant keyed
/// ties, must agree on every pop, every peek and every emptiness
/// check.
#[test]
fn queue_matches_a_sorted_map_reference() {
    use std::collections::BTreeMap;
    type Key = (u64, u32, u64);
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51ED_0003 ^ case);
        let sparse = case % 4 == 0;
        let mut q = EventQueue::new();
        let mut reference: BTreeMap<Key, u64> = BTreeMap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut recent = vec![0u64];
        for step in 0..3_000u64 {
            match rng.below(11) {
                // Schedule through each entry point: one event or, now
                // and then, a burst like a world's start-up.
                0..=6 => {
                    let burst = if rng.chance(0.05) {
                        rng.range_inclusive(50, 300)
                    } else {
                        1
                    };
                    for _ in 0..burst {
                        let (at, key) = if rng.chance(0.2) {
                            // A same-instant keyed tie with a recent time.
                            (now.max(*rng.pick(&recent)), rng.below(4) as u32)
                        } else {
                            (now + draw_delay(&mut rng, sparse), rng.below(3) as u32)
                        };
                        let delay = Duration::from_nanos(at - now);
                        let entry = rng.below(4);
                        let key = if matches!(entry, 1 | 3) { key } else { 0 };
                        match entry {
                            0 => q.schedule_at(Instant::from_nanos(at), seq),
                            1 => q.schedule_at_keyed(Instant::from_nanos(at), key, seq),
                            2 => q.schedule_in(delay, seq),
                            _ => q.schedule_in_keyed(delay, key, seq),
                        }
                        reference.insert((at, key, seq), seq);
                        if recent.len() < 16 {
                            recent.push(at);
                        } else {
                            recent[(seq % 16) as usize] = at;
                        }
                        seq += 1;
                    }
                }
                // Pop a few, or drain a window.
                _ => {
                    let (count, until) = if rng.chance(0.8) {
                        (rng.range_inclusive(1, 24), u64::MAX)
                    } else {
                        (u64::MAX, now + draw_delay(&mut rng, sparse))
                    };
                    for _ in 0..count {
                        let expect = reference.first_key_value().map(|(k, v)| (*k, *v));
                        assert_eq!(q.peek_time().map(Instant::nanos), expect.map(|e| e.0 .0));
                        let Some(((at, _, _), payload)) = expect else {
                            assert!(q.pop().is_none());
                            break;
                        };
                        if at > until {
                            break;
                        }
                        assert_eq!(q.pop(), Some((Instant::from_nanos(at), payload)));
                        reference.pop_first();
                        now = at;
                    }
                }
            }
            assert_eq!(q.now().nanos(), now, "step {step}");
            assert_eq!(q.is_empty(), reference.is_empty());
        }
        while let Some((at, payload)) = q.pop() {
            let ((rat, _, _), rp) = reference.pop_first().expect("reference not exhausted");
            assert_eq!((at.nanos(), payload), (rat, rp));
        }
        assert!(reference.is_empty());
    }
}

/// Release builds clamp a schedule in the past to `now` (debug builds
/// assert instead): the event fires at `now`, after the events already
/// queued there, and the queue stays ordered.
#[cfg(not(debug_assertions))]
#[test]
fn queue_clamps_past_schedules_in_release() {
    let mut q = EventQueue::new();
    q.schedule_at(Instant::from_millis(500), "far");
    q.schedule_at(Instant::from_millis(200), "near");
    assert_eq!(q.pop(), Some((Instant::from_millis(200), "near")));
    q.schedule_at(Instant::from_millis(200), "tie");
    q.schedule_at(Instant::from_millis(1), "past");
    assert_eq!(q.pop(), Some((Instant::from_millis(200), "tie")));
    assert_eq!(q.pop(), Some((Instant::from_millis(200), "past")));
    assert_eq!(q.pop(), Some((Instant::from_millis(500), "far")));
}

/// `Rng::below` is always within bounds.
#[test]
fn rng_below_in_bounds() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(0x51ED_0003 ^ case);
        let seed = meta.next_u64();
        let bound = meta.next_u64().max(1);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            assert!(rng.below(bound) < bound);
        }
    }
}

/// `range_inclusive` respects both bounds.
#[test]
fn rng_range_inclusive_in_bounds() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(0x51ED_0004 ^ case);
        let (a, b) = (meta.next_u64(), meta.next_u64());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut rng = Rng::seed_from_u64(meta.next_u64());
        for _ in 0..32 {
            let v = rng.range_inclusive(lo, hi);
            assert!(v >= lo && v <= hi);
        }
    }
}

/// Clock conversion round-trips within a tiny error bound for any
/// spec-legal drift and any span up to 48 h.
#[test]
fn clock_roundtrip_error_bounded() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51ED_0005 ^ case);
        let ppm = rng.range_f64(-250.0, 250.0);
        let secs = rng.below(48 * 3600);
        let c = Clock::with_ppm(ppm);
        let d = Duration::from_secs(secs);
        let rt = c.to_local(c.to_global(d));
        let err = if rt > d { rt - d } else { d - rt };
        // Second-order ppm² term: 250 ppm² over 48 h ≈ 11 µs.
        assert!(err <= Duration::from_micros(15), "err {err}");
    }
}

/// A faster clock always yields a shorter global span (monotonic
/// in drift), for any positive span.
#[test]
fn clock_monotonic_in_drift() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51ED_0006 ^ case);
        let ppm = rng.range_f64(0.1, 250.0);
        let ms = rng.range_inclusive(1, 100_000);
        let fast = Clock::with_ppm(ppm);
        let slow = Clock::with_ppm(-ppm);
        let d = Duration::from_millis(ms);
        assert!(fast.to_global(d) <= d);
        assert!(slow.to_global(d) >= d);
        assert!(fast.to_global(d) <= slow.to_global(d));
    }
}

/// Forked streams never panic and differ from their parent.
#[test]
fn rng_forks_differ() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from_u64(0x51ED_0007 ^ case);
        let (seed, tag) = (meta.next_u64(), meta.next_u64());
        let mut parent = Rng::seed_from_u64(seed);
        let mut child = parent.fork(tag);
        let same = (0..32)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(same < 4);
    }
}
