//! Frame airtime computation.
//!
//! All of the paper's latency structure is built out of these numbers:
//! the inter-frame spacing (`T_IFS` = 150 µs, §2.2), the time a 115 B
//! BLE packet occupies the channel, and the much slower 802.15.4
//! symbol rate that caps that radio at 250 kbps.

use mindgap_sim::Duration;

/// BLE inter frame spacing on the 1 Mbps PHY (§2.2 of the paper,
/// Vol 6 Part B §4.1.1 of the Bluetooth Core Specification).
pub const T_IFS: Duration = Duration::from_micros(150);

/// BLE LL overhead on air for the 1M PHY: preamble (1 B) + access
/// address (4 B) + PDU header (2 B) + CRC (3 B) = 10 B.
pub const BLE_1M_OVERHEAD_BYTES: u32 = 1 + 4 + 2 + 3;

/// Maximum LL payload with the Data Length Extension the paper enables
/// (§4.2): 251 B.
pub const BLE_DLE_MAX_PAYLOAD: u32 = 251;

/// Maximum LL payload without DLE: 27 B.
pub const BLE_LEGACY_MAX_PAYLOAD: u32 = 27;

/// Airtime of a BLE data PDU with `payload_len` payload bytes on the
/// 1 Mbps PHY (1 µs per bit).
pub fn ble_data_1m(payload_len: u32) -> Duration {
    debug_assert!(
        payload_len <= BLE_DLE_MAX_PAYLOAD,
        "LL payload {payload_len} exceeds DLE maximum"
    );
    Duration::from_micros(((BLE_1M_OVERHEAD_BYTES + payload_len) * 8) as u64)
}

/// BLE LE 2M PHY overhead on air: preamble (2 B) + access address
/// (4 B) + PDU header (2 B) + CRC (3 B) = 11 B at 4 µs/byte.
pub const BLE_2M_OVERHEAD_BYTES: u32 = 2 + 4 + 2 + 3;

/// Airtime of a BLE data PDU with `payload_len` payload bytes on the
/// 2 Mbps PHY (0.5 µs per bit). The paper's nrf52dk boards only
/// support 1M (§4.2); the nrf52840 supports this mode, and related
/// work reaches ≈1300 kbps with it.
pub fn ble_data_2m(payload_len: u32) -> Duration {
    debug_assert!(
        payload_len <= BLE_DLE_MAX_PAYLOAD,
        "LL payload {payload_len} exceeds DLE maximum"
    );
    Duration::from_micros(((BLE_2M_OVERHEAD_BYTES + payload_len) * 4) as u64)
}

/// Airtime of a BLE advertising PDU with `payload_len` bytes of
/// advertising data (AdvA 6 B + AD payload).
pub fn ble_adv_1m(payload_len: u32) -> Duration {
    debug_assert!(
        payload_len <= 31,
        "legacy advertising payload limit is 31 B"
    );
    Duration::from_micros(((BLE_1M_OVERHEAD_BYTES + 6 + payload_len) * 8) as u64)
}

/// Maximum advertising data in one extended-advertising PDU
/// (AUX_ADV_IND): 255 B LL payload minus the extended header.
pub const BLE_EXT_ADV_MAX_PAYLOAD: u32 = 255 - BLE_EXT_ADV_HEADER_BYTES;

/// Extended-advertising header inside the LL payload: extended header
/// length/mode (1 B) + flags (1 B) + AdvA (6 B) + ADI (2 B) = 10 B.
pub const BLE_EXT_ADV_HEADER_BYTES: u32 = 10;

/// Airtime of an extended-advertising PDU carrying `payload_len` bytes
/// of advertising data on the 1M PHY. Extended advertising (Bluetooth
/// 5.0, Vol 6 Part B §2.3.4) lifts the 31 B legacy limit to 255 B of
/// LL payload — enough for a whole compressed 6LoWPAN frame, which is
/// what makes the connection-less IPv6 transport possible at all.
pub fn ble_adv_ext_1m(payload_len: u32) -> Duration {
    debug_assert!(
        payload_len <= BLE_EXT_ADV_MAX_PAYLOAD,
        "extended advertising payload {payload_len} exceeds {BLE_EXT_ADV_MAX_PAYLOAD} B"
    );
    Duration::from_micros(
        ((BLE_1M_OVERHEAD_BYTES + BLE_EXT_ADV_HEADER_BYTES + payload_len) * 8) as u64,
    )
}

/// IEEE 802.15.4 2.4 GHz O-QPSK: 62.5 ksymbols/s, 4 bits/symbol
/// → 32 µs per byte.
pub const IEEE802154_US_PER_BYTE: u64 = 32;

/// 802.15.4 synchronisation header + PHY header: preamble (4 B) +
/// SFD (1 B) + frame length (1 B).
pub const IEEE802154_PHY_OVERHEAD_BYTES: u32 = 6;

/// Maximum 802.15.4 PSDU (MAC frame incl. FCS).
pub const IEEE802154_MAX_PSDU: u32 = 127;

/// Airtime of an 802.15.4 frame whose MAC frame (header + payload +
/// 2 B FCS) is `psdu_len` bytes.
pub fn ieee802154_frame(psdu_len: u32) -> Duration {
    debug_assert!(
        psdu_len <= IEEE802154_MAX_PSDU,
        "PSDU {psdu_len} exceeds 127 B"
    );
    Duration::from_micros(
        ((IEEE802154_PHY_OVERHEAD_BYTES + psdu_len) as u64) * IEEE802154_US_PER_BYTE,
    )
}

/// Airtime of an 802.15.4 immediate acknowledgement frame (5 B PSDU).
pub fn ieee802154_ack() -> Duration {
    ieee802154_frame(5)
}

/// 802.15.4 unit backoff period: 20 symbols = 320 µs.
pub const IEEE802154_UNIT_BACKOFF: Duration = Duration::from_micros(320);

/// 802.15.4 turnaround time (RX→TX) = 12 symbols = 192 µs.
pub const IEEE802154_TURNAROUND: Duration = Duration::from_micros(192);

/// 802.15.4 macAckWaitDuration ≈ 54 symbols = 864 µs.
pub const IEEE802154_ACK_WAIT: Duration = Duration::from_micros(864);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_airtime() {
        // §4.3: final BLE packet size 115 B — that is the LL payload
        // (L2CAP + compressed IP). On air: (10 + 115) * 8 µs = 1 ms.
        assert_eq!(ble_data_1m(115), Duration::from_micros(1000));
    }

    #[test]
    fn dle_frame_just_over_2ms() {
        assert_eq!(ble_data_1m(251), Duration::from_micros(2088));
    }

    #[test]
    fn adv_pdu_with_31b_payload() {
        // 10 + 6 + 31 = 47 B → 376 µs
        assert_eq!(ble_adv_1m(31), Duration::from_micros(376));
    }

    #[test]
    fn ext_adv_pdu_airtime() {
        // 10 + 10 + 100 = 120 B → 960 µs: a full compressed 6LoWPAN
        // frame fits in one extended-advertising PDU at ~1 ms on air.
        assert_eq!(ble_adv_ext_1m(100), Duration::from_micros(960));
        // Largest PDU stays close to a full DLE data PDU.
        assert_eq!(
            ble_adv_ext_1m(BLE_EXT_ADV_MAX_PAYLOAD),
            Duration::from_micros(2120)
        );
    }

    #[test]
    fn two_m_phy_halves_airtime_roughly() {
        // Same 251 B payload: 2088 µs on 1M vs 1048 µs on 2M.
        assert_eq!(ble_data_2m(251), Duration::from_micros(1048));
        assert!(ble_data_2m(251).nanos() * 2 > ble_data_1m(251).nanos());
        assert_eq!(ble_data_2m(0), Duration::from_micros(44));
    }

    #[test]
    fn ieee_frame_rate_is_250kbps() {
        // 127 B PSDU + 6 B PHY overhead at 32 µs/B = 4256 µs.
        assert_eq!(ieee802154_frame(127), Duration::from_micros(4256));
        // sanity: one byte takes 32 µs → 250 kbit/s payload rate
        let one_byte = ieee802154_frame(10) - ieee802154_frame(9);
        assert_eq!(one_byte, Duration::from_micros(32));
    }

    #[test]
    fn ieee_ack_airtime() {
        assert_eq!(ieee802154_ack(), Duration::from_micros(352));
    }

    #[test]
    fn ble_is_4x_faster_than_ieee_on_air() {
        // Same 100 B payload: BLE 1 µs/B·8 vs 802.15.4 32 µs/B.
        let ble = ble_data_1m(100);
        let ieee = ieee802154_frame(100);
        assert!(ieee.nanos() > 3 * ble.nanos());
    }
}
