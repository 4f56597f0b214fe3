//! The benchmark's own arithmetic: order statistics over reps, the
//! per-layer share model, and the fingerprint that decides whether two
//! reps simulated the same thing.

/// Median of `values` (mean of the two middle values for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the figures printed here match the ones a reader gets
/// from the JSON with the standard library. A single value is its own
/// quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                // Negative (extrapolating) for very short inputs, as in
                // Python.
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            Some((cut(1), cut(3)))
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Share of host time a layer accounts for: its replayed cost per
/// operation times the run's operation count, over the host time of
/// the simulated phase.
pub fn share(ns_per_op: f64, count: f64, host_ns: f64) -> f64 {
    if host_ns <= 0.0 {
        0.0
    } else {
        ns_per_op * count / host_ns
    }
}

/// What the replayed layers leave unexplained: one minus the sum of
/// their shares. Negative when the replays over-account.
pub fn remainder(shares: &[f64]) -> f64 {
    1.0 - shares.iter().sum::<f64>()
}

/// The simulated outcome of one rep. Two reps of the same spec on the
/// same build must produce bit-identical fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    /// Kernel events processed over the whole run.
    pub events: u64,
    /// CoAP packet delivery ratio over the measured window.
    pub coap_pdr: f64,
    /// Median CoAP round-trip time, simulated ms.
    pub rtt_p50_ms: f64,
    /// 99th-percentile CoAP round-trip time, simulated ms.
    pub rtt_p99_ms: f64,
    /// Link-layer data-PDU delivery ratio.
    pub ll_pdr: f64,
    /// Connection losses during the measured window.
    pub conn_losses: u64,
}

impl Fingerprint {
    /// Bitwise equality: `-0.0 != 0.0` and `NaN == NaN` here, which is
    /// what "the same simulated result" means.
    pub fn same_as(&self, other: &Fingerprint) -> bool {
        self.events == other.events
            && self.conn_losses == other.conn_losses
            && [
                (self.coap_pdr, other.coap_pdr),
                (self.rtt_p50_ms, other.rtt_p50_ms),
                (self.rtt_p99_ms, other.rtt_p99_ms),
                (self.ll_pdr, other.ll_pdr),
            ]
            .iter()
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Encode as `key=value` pairs for the child → parent report.
    /// Floats travel as raw bits so the comparison stays exact.
    pub fn encode(&self) -> String {
        format!(
            "events={} coap_pdr_bits={} rtt_p50_bits={} rtt_p99_bits={} ll_pdr_bits={} conn_losses={}",
            self.events,
            self.coap_pdr.to_bits(),
            self.rtt_p50_ms.to_bits(),
            self.rtt_p99_ms.to_bits(),
            self.ll_pdr.to_bits(),
            self.conn_losses
        )
    }

    /// Inverse of [`Fingerprint::encode`] over a parsed report.
    pub fn decode(get: impl Fn(&str) -> Option<u64>) -> Option<Fingerprint> {
        let f = |k: &str| get(k).map(f64::from_bits);
        Some(Fingerprint {
            events: get("events")?,
            coap_pdr: f("coap_pdr_bits")?,
            rtt_p50_ms: f("rtt_p50_bits")?,
            rtt_p99_ms: f("rtt_p99_bits")?,
            ll_pdr: f("ll_pdr_bits")?,
            conn_losses: get("conn_losses")?,
        })
    }
}

/// Indices of the reps whose fingerprint differs from `reference`.
/// Reps that produced no fingerprint (they panicked) are `None` and
/// count as differing.
pub fn mismatches(reference: &Fingerprint, reps: &[Option<Fingerprint>]) -> Vec<usize> {
    reps.iter()
        .enumerate()
        .filter(|(_, fp)| !fp.is_some_and(|fp| fp.same_as(reference)))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([7, 1, 4, 9, 2], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0, 2.0]), Some((1.5, 8.0)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn shares_and_remainder() {
        // 100 ns × 1e6 ops over 0.4 s of host time = 25 %.
        assert!((share(100.0, 1e6, 0.4e9) - 0.25).abs() < 1e-12);
        assert_eq!(share(100.0, 1e6, 0.0), 0.0);
        assert!((remainder(&[0.25, 0.5]) - 0.25).abs() < 1e-12);
        assert!(remainder(&[0.75, 0.5]) < 0.0, "over-accounting shows");
        assert_eq!(remainder(&[]), 1.0);
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            events: 5_000_000,
            coap_pdr: 0.9991,
            rtt_p50_ms: 152.5,
            rtt_p99_ms: 480.25,
            ll_pdr: 0.97,
            conn_losses: 2,
        }
    }

    #[test]
    fn fingerprint_roundtrips_and_compares_bitwise() {
        let a = fp();
        let line = a.encode();
        let get = |k: &str| {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{k}=")))
                .and_then(|v| v.parse().ok())
        };
        assert!(Fingerprint::decode(get).unwrap().same_as(&a));
        let mut b = a;
        b.rtt_p99_ms = f64::from_bits(a.rtt_p99_ms.to_bits() + 1);
        assert!(!a.same_as(&b), "one ulp apart is a different result");
        let mut c = a;
        c.events += 1;
        assert!(!a.same_as(&c));
        let mut d = a;
        d.coap_pdr = f64::NAN;
        assert!(d.same_as(&d), "NaN compares equal to itself bitwise");
    }

    #[test]
    fn mismatches_flag_differing_and_missing_reps() {
        let a = fp();
        let mut b = a;
        b.conn_losses = 3;
        assert_eq!(
            mismatches(&a, &[Some(a), Some(b), None, Some(a)]),
            vec![1, 2]
        );
        assert!(mismatches(&a, &[Some(a), Some(a)]).is_empty());
    }
}
