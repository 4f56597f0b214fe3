//! Single-link raw throughput measurement (paper §5.2).
//!
//! The paper reports "close to 500 kbps" of raw L2CAP goodput on a
//! single nrf52dk↔nrf52dk link with the data length extension. This
//! module runs a two-node [`LlWorld`] whose coordinator's LL queue is
//! kept saturated with LL payloads the size of an L2CAP K-frame; no
//! L2CAP code runs.

use mindgap_ble::ll_world::LlWorld;
use mindgap_ble::{BlePhy, ConnId, ConnParams, LinkLayer, LlConfig};
use mindgap_phy::{LossConfig, Medium, MediumConfig};
use mindgap_sim::{Clock, Duration, Instant, NodeId, Rng};

/// Result of a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Payload goodput in kbit/s at the receiver.
    pub kbps: f64,
    /// Bytes received.
    pub bytes: u64,
    /// Measurement span.
    pub span: Duration,
}

/// Saturate one BLE link for `span` (after connection setup and a
/// 200 ms lead-in) and measure receiver goodput. `pdu_len` is the LL
/// payload per PDU (≤ 251 with DLE; the L2CAP K-frame).
pub fn measure_single_link(
    seed: u64,
    interval: Duration,
    pdu_len: usize,
    span: Duration,
    phy: BlePhy,
) -> ThroughputResult {
    let mut rng = Rng::seed_from_u64(seed);
    let medium = Medium::new(MediumConfig {
        n_nodes: 2,
        loss: LossConfig::LOSSLESS,
        seed: rng.next_u64(),
        radio_links: None,
    });
    let cfg = LlConfig {
        phy,
        ..LlConfig::default()
    };
    let lls = vec![
        LinkLayer::new(NodeId(0), Clock::with_ppm(1.0), cfg, rng.fork(1)),
        LinkLayer::new(NodeId(1), Clock::with_ppm(-1.0), cfg, rng.fork(2)),
    ];
    let mut w = LlWorld::new(medium, lls);
    let conn = ConnId(1);
    w.connect(
        NodeId(0),
        NodeId(1),
        conn,
        ConnParams::with_interval(interval),
    );
    w.await_up(conn, Instant::from_secs(30));
    w.saturate.push((NodeId(0), conn, pdu_len));
    w.kick_saturation();
    // `run_until` would stop one event earlier and move `base`.
    let start = w.now() + Duration::from_millis(200);
    while w.now() < start && w.step() {}
    let base = w.lls[1].conn_stats(conn).expect("alive").bytes_rx;
    let end = start + span;
    while w.now() < end && w.step() {}
    let bytes = w.lls[1].conn_stats(conn).expect("alive").bytes_rx - base;
    ThroughputResult {
        kbps: bytes as f64 * 8.0 / span.as_secs_f64() / 1000.0,
        bytes,
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITVL: Duration = Duration::from_millis(75);

    /// The CSV rounds to 0.1 kbps, which would hide a small move; pin
    /// the received byte counts of the §5.2 defaults at seed 42.
    #[test]
    fn seed_42_bytes_are_pinned() {
        let span = Duration::from_secs(8);
        let bytes = |pdu, phy| measure_single_link(42, ITVL, pdu, span, phy).bytes;
        assert_eq!(bytes(247, BlePhy::OneM), 500_669);
        assert_eq!(bytes(27, BlePhy::OneM), 210_249);
        assert_eq!(bytes(247, BlePhy::TwoM), 685_178);
    }

    #[test]
    fn throughput_near_paper_value() {
        let r = measure_single_link(7, ITVL, 247, Duration::from_secs(5), BlePhy::OneM);
        assert!(
            (380.0..650.0).contains(&r.kbps),
            "throughput {:.0} kbps",
            r.kbps
        );
    }

    #[test]
    fn two_m_phy_raises_throughput() {
        let span = Duration::from_secs(3);
        let m1 = measure_single_link(9, ITVL, 247, span, BlePhy::OneM);
        let m2 = measure_single_link(9, ITVL, 247, span, BlePhy::TwoM);
        assert!(
            m2.kbps > 1.25 * m1.kbps,
            "2M {:.0} kbps vs 1M {:.0} kbps",
            m2.kbps,
            m1.kbps
        );
    }

    #[test]
    fn small_pdus_cost_throughput() {
        let span = Duration::from_secs(3);
        let big = measure_single_link(7, ITVL, 247, span, BlePhy::OneM);
        let small = measure_single_link(7, ITVL, 27, span, BlePhy::OneM);
        assert!(
            big.kbps > 2.0 * small.kbps,
            "{} vs {}",
            big.kbps,
            small.kbps
        );
    }
}
