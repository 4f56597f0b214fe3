//! §5.2 baseline — raw L2CAP throughput on a single link.
//!
//! Paper reference: "close to 500 kbps" between two nrf52dk boards
//! with the data length extension. Sweeps PDU size and connection
//! interval to show what the number is made of. Only the link layer
//! runs (`mindgap_ble::ll_world::LlWorld`): the sender queues LL
//! payloads the size of an L2CAP K-frame; no L2CAP code runs.
//!
//! Shape checks: ≈500 kbps at the defaults, and the interval matters
//! little because events extend to fill it; without the DLE (27 B
//! PDUs) throughput collapses towards the ≈220 kbps ceiling of older
//! studies the paper cites. The 2M PHY (nrf52840-class hardware;
//! related work reports ≈1300 kbps) is higher than 1M but host-bound,
//! not radio-bound: the per-PDU processing cost of a RIOT-class host
//! dominates, and Bulić et al.'s 1300 kbps needs an optimized data
//! path. The high-load scenario of Fig. 9a offers 128.8 kbps of CoAP
//! requests towards the consumer — under half of this capacity — and
//! still loses packets to buffer overflow, which is the paper's point
//! about per-connection capacity fluctuation.

use mindgap_ble::BlePhy;
use mindgap_sim::Duration;
use mindgap_testbed::measure_single_link;

use crate::{Opts, Report};

/// Run the §5.2 throughput sweeps.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let span = Duration::from_secs(opts.pick(30, 8));
    let kbps = |itvl_ms, pdu, phy| {
        measure_single_link(opts.seed, Duration::from_millis(itvl_ms), pdu, span, phy).kbps
    };

    let mut rows = Vec::new();
    for itvl in [25u64, 50, 75, 100, 250] {
        let r = kbps(itvl, 247, BlePhy::OneM);
        rep.scalar(format!("itvl{itvl}ms.pdu247_kbps"), r, "≈500");
        rows.push(format!("{itvl},247,{r:.1}"));
    }
    for (pdu, paper) in [
        (27usize, "≈220 (older studies)"),
        (100, "—"),
        (180, "—"),
        (247, "≈500"),
    ] {
        let r = kbps(75, pdu, BlePhy::OneM);
        rep.scalar(format!("pdu{pdu}.itvl75ms_kbps"), r, paper);
        rows.push(format!("75,{pdu},{r:.1}"));
    }

    let r2 = kbps(75, 247, BlePhy::TwoM);
    rep.scalar("phy2m_75ms_kbps", r2, "≈1300 (related work)");
    rows.push(format!("75,247-2M,{r2:.1}"));
    rep.table("sec52_throughput.csv", "itvl_ms,pdu_b,kbps", rows);
    rep
}
