//! # mindgap-energy — the battery model of §5.4
//!
//! The paper measures per-activity charge on an nrf52dk with the
//! Nordic Power Profiler and derives battery lifetimes. We keep the
//! *measured* numbers as model constants — they are data, not
//! something a simulation can derive — and reproduce every derived
//! figure of §5.4:
//!
//! * charge per connection event: **2.3 µC** (coordinator) /
//!   **2.6 µC** (subordinate);
//! * an idle 75 ms connection therefore adds **30.7 µA** / **34.7 µA**
//!   to the average current, depending on role;
//! * a subordinate forwarder with three active connections under the
//!   moderate-load workload draws **≈123 µA** extra;
//! * with the board's 15 µA idle draw that gives **69 days** on a
//!   230 mAh coin cell and a little over **2 years** on a 2500 mAh
//!   18650 cell;
//! * a BLE beacon (31 B payload, 1 s advertising interval) adds
//!   **12 µA**, while an IP-over-BLE coordinator sending one CoAP
//!   packet per second adds **16 µA** — IP connectivity at beacon-like
//!   cost.
//!
//! Data transfer beyond the idle keep-alive exchange is charged as
//! radio-active time at the nRF52's ≈5.5 mA; link-layer counters from
//! `mindgap-ble` plug straight into [`EnergyModel::node_current_ua`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Hours in a day, for lifetime conversions.
const HOURS_PER_DAY: f64 = 24.0;

/// Role of a node in one connection (mirrors `mindgap-ble`'s `Role`
/// without depending on it — energy is a leaf crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnRole {
    /// Connection coordinator.
    Coordinator,
    /// Connection subordinate.
    Subordinate,
}

/// The calibrated energy model (nrf52dk, 3 V, DC/DC enabled).
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// Charge per idle connection event as coordinator (µC).
    pub coord_event_uc: f64,
    /// Charge per idle connection event as subordinate (µC).
    pub sub_event_uc: f64,
    /// Board idle (sleep) current (µA).
    pub idle_ua: f64,
    /// Radio-active supply current (mA) charged for airtime beyond
    /// the keep-alive exchange already covered by the per-event cost.
    pub radio_active_ma: f64,
    /// Fixed per-advertising-event overhead (µC): ramp-up, channel
    /// switching, CPU — calibrated so a 31 B, 1 s beacon draws the
    /// paper's 12 µA.
    pub adv_event_base_uc: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            coord_event_uc: 2.3,
            sub_event_uc: 2.6,
            idle_ua: 15.0,
            radio_active_ma: 5.5,
            adv_event_base_uc: 3.0,
        }
    }
}

/// Airtime of one ADV_IND train with `payload` bytes of AD data:
/// three PDUs of (10 + 6 + payload) bytes at 8 µs/byte, plus a short
/// post-PDU listen for connection requests (~500 µs total per train).
fn adv_train_radio_us(payload: usize) -> f64 {
    let pdu_us = ((10 + 6 + payload) * 8) as f64;
    3.0 * pdu_us + 500.0
}

/// Airtime of one *extended*-advertising train with `payload` bytes
/// of AdvData: three PDUs of (10 B 1M-PHY overhead + 10 B extended
/// header + payload) at 8 µs/byte, mirroring
/// `mindgap_phy::ble_adv_ext_1m` (energy is a leaf crate, so the
/// framing constants are duplicated here). No post-PDU listen — the
/// mindgap-adv transport is non-connectable and non-scannable.
fn adv_ext_train_radio_us(payload: usize) -> f64 {
    3.0 * ((10 + 10 + payload) * 8) as f64
}

impl EnergyModel {
    /// Average current added by one *idle* connection at `interval_ms`
    /// (paper: 30.7 µA coordinator / 34.7 µA subordinate at 75 ms).
    pub fn idle_connection_ua(&self, interval_ms: f64, role: ConnRole) -> f64 {
        let per_event = match role {
            ConnRole::Coordinator => self.coord_event_uc,
            ConnRole::Subordinate => self.sub_event_uc,
        };
        per_event / (interval_ms / 1_000.0)
    }

    /// Average current added by data airtime: `airtime_us_per_s` of
    /// radio activity per second beyond the keep-alive exchanges.
    pub fn data_airtime_ua(&self, airtime_us_per_s: f64) -> f64 {
        // mA · µs/s = nC/s → µA / 1000.
        self.radio_active_ma * airtime_us_per_s / 1_000.0
    }

    /// Average current of a forwarding node: `subordinate_conns` +
    /// `coordinator_conns` idle connections at `interval_ms`, plus
    /// `data_packets_per_s` packets of `packet_air_us` airtime crossing
    /// the radio (each counted once for RX and once for TX when
    /// forwarded — pass the total).
    pub fn forwarder_extra_ua(
        &self,
        coordinator_conns: u32,
        subordinate_conns: u32,
        interval_ms: f64,
        data_packets_per_s: f64,
        packet_air_us: f64,
    ) -> f64 {
        let conns = coordinator_conns as f64
            * self.idle_connection_ua(interval_ms, ConnRole::Coordinator)
            + subordinate_conns as f64
                * self.idle_connection_ua(interval_ms, ConnRole::Subordinate);
        conns + self.data_airtime_ua(data_packets_per_s * packet_air_us)
    }

    /// Average current added by connection-less beaconing with
    /// `payload` bytes every `adv_interval_ms`.
    pub fn beacon_ua(&self, adv_interval_ms: f64, payload: usize) -> f64 {
        let per_train_uc =
            self.adv_event_base_uc + self.radio_active_ma * adv_train_radio_us(payload) / 1_000.0;
        per_train_uc / (adv_interval_ms / 1_000.0)
    }

    /// Average current added by an IP-over-BLE coordinator with one
    /// connection at `interval_ms` sending `packets_per_s` CoAP
    /// packets of `packet_air_us` airtime (plus their responses).
    pub fn ip_node_ua(&self, interval_ms: f64, packets_per_s: f64, packet_air_us: f64) -> f64 {
        self.idle_connection_ua(interval_ms, ConnRole::Coordinator)
            + self.data_airtime_ua(packets_per_s * packet_air_us * 2.0)
    }

    /// Total node current from link-layer counters over `elapsed_s`
    /// seconds: idle draw + per-event charges + data airtime beyond
    /// the per-event allowance.
    #[allow(clippy::too_many_arguments)]
    pub fn node_current_ua(
        &self,
        elapsed_s: f64,
        coord_events: u64,
        sub_events: u64,
        adv_trains: u64,
        extra_radio_us: f64,
    ) -> f64 {
        assert!(elapsed_s > 0.0);
        let events_uc = coord_events as f64 * self.coord_event_uc
            + sub_events as f64 * self.sub_event_uc
            + adv_trains as f64
                * (self.adv_event_base_uc
                    + self.radio_active_ma * adv_train_radio_us(22) / 1_000.0);
        self.idle_ua + (events_uc + self.radio_active_ma * extra_radio_us / 1_000.0) / elapsed_s
    }

    /// Charge of one extended-advertising train carrying `payload`
    /// bytes of AdvData on all three primary channels (µC): the fixed
    /// per-event overhead plus radio-active airtime. This is the
    /// payload-aware cost of one `mindgap-adv` data or beacon train.
    pub fn adv_ext_train_uc(&self, payload: usize) -> f64 {
        self.adv_event_base_uc + self.radio_active_ma * adv_ext_train_radio_us(payload) / 1_000.0
    }

    /// Average current added by duty-cycled scanning: the radio
    /// listens `window_ms` out of every `interval_ms` (µA). A 100 %
    /// duty cycle is the radio's full active draw.
    pub fn scan_ua(&self, window_ms: f64, interval_ms: f64) -> f64 {
        assert!(interval_ms > 0.0 && window_ms >= 0.0);
        self.radio_active_ma * 1_000.0 * (window_ms / interval_ms).min(1.0)
    }

    /// Total node current of an advertising-transport node from
    /// `mindgap-adv` counters over `elapsed_s` seconds: idle draw +
    /// per-train base overhead + TX airtime + scan-listen time. Pass
    /// the transport's cumulative `adv_trains`, `tx_ns` and
    /// `listen_ns` counters straight in.
    pub fn adv_node_current_ua(
        &self,
        elapsed_s: f64,
        adv_trains: u64,
        tx_ns: u64,
        listen_ns: u64,
    ) -> f64 {
        assert!(elapsed_s > 0.0);
        let base_uc = adv_trains as f64 * self.adv_event_base_uc;
        let radio_uc = self.radio_active_ma * (tx_ns + listen_ns) as f64 / 1_000_000.0;
        self.idle_ua + (base_uc + radio_uc) / elapsed_s
    }

    /// Battery lifetime in days at a constant average current.
    pub fn battery_days(&self, capacity_mah: f64, avg_current_ua: f64) -> f64 {
        assert!(avg_current_ua > 0.0);
        capacity_mah * 1_000.0 / avg_current_ua / HOURS_PER_DAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn idle_connection_matches_paper() {
        let m = EnergyModel::default();
        // §5.4: 75 ms interval → 30.7 µA (coordinator), 34.7 µA (sub).
        assert!(close(
            m.idle_connection_ua(75.0, ConnRole::Coordinator),
            30.7,
            0.1
        ));
        assert!(close(
            m.idle_connection_ua(75.0, ConnRole::Subordinate),
            34.7,
            0.1
        ));
    }

    #[test]
    fn forwarder_matches_paper_ballpark() {
        let m = EnergyModel::default();
        // §5.4: subordinate forwarder, three active connections,
        // moderate load (≈4 producer-sized packets/s crossing the
        // radio at ≈1 ms each): ≈123 µA.
        let ua = m.forwarder_extra_ua(0, 3, 75.0, 4.0, 1_000.0);
        assert!(close(ua, 123.0, 8.0), "forwarder current {ua:.1} µA");
    }

    #[test]
    fn battery_lifetimes_match_paper() {
        let m = EnergyModel::default();
        let total = 15.0 + 123.0; // idle + forwarder (paper's sum)
        let coin = m.battery_days(230.0, total);
        assert!(close(coin, 69.0, 1.5), "coin cell {coin:.1} days");
        let cell18650 = m.battery_days(2500.0, total);
        assert!(cell18650 > 730.0, "18650 {cell18650:.0} days ≈ 2 years");
    }

    #[test]
    fn beacon_matches_paper() {
        let m = EnergyModel::default();
        // §5.4: 31 B beacon at 1 s → +12 µA.
        let ua = m.beacon_ua(1_000.0, 31);
        assert!(close(ua, 12.0, 1.0), "beacon {ua:.1} µA");
    }

    #[test]
    fn ip_node_close_to_beacon() {
        let m = EnergyModel::default();
        // §5.4: one connection + 1 CoAP/s → +16 µA. The CoAP packet
        // carries the beacon's 31 B payload → ≈60 B on air ≈ 560 µs.
        // The paper does not state the connection interval for this
        // scenario; a standard 250 ms reproduces the number.
        let ua = m.ip_node_ua(250.0, 1.0, 560.0);
        assert!(close(ua, 16.0, 2.0), "IP node {ua:.1} µA");
        // The headline comparison: same order of magnitude as beacon.
        assert!(ua < 2.0 * m.beacon_ua(1_000.0, 31));
    }

    #[test]
    fn node_current_combines_components() {
        let m = EnergyModel::default();
        // One hour, one idle coordinator connection at 75 ms.
        let events = 3_600_000 / 75;
        let ua = m.node_current_ua(3_600.0, events, 0, 0, 0.0);
        assert!(close(ua, 15.0 + 30.7, 0.5), "{ua:.1}");
    }

    #[test]
    fn longer_intervals_save_energy() {
        let m = EnergyModel::default();
        let fast = m.idle_connection_ua(25.0, ConnRole::Subordinate);
        let slow = m.idle_connection_ua(500.0, ConnRole::Subordinate);
        assert!(fast > 15.0 * slow);
    }

    #[test]
    #[should_panic]
    fn zero_current_lifetime_rejected() {
        let _ = EnergyModel::default().battery_days(230.0, 0.0);
    }

    #[test]
    fn adv_ext_train_charge_is_payload_aware_and_pinned() {
        let m = EnergyModel::default();
        // Empty beacon train: 3 × (10+10)·8 µs = 480 µs on air →
        // 3.0 µC base + 5.5 mA × 480 µs = 3.0 + 2.64 = 5.64 µC.
        assert!(close(m.adv_ext_train_uc(0), 5.64, 1e-9));
        // 100 B data train: 3 × 960 µs = 2 880 µs → 3.0 + 15.84 µC.
        assert!(close(m.adv_ext_train_uc(100), 18.84, 1e-9));
        assert!(m.adv_ext_train_uc(100) > m.adv_ext_train_uc(0));
    }

    #[test]
    fn scan_current_scales_with_duty_cycle_and_is_pinned() {
        let m = EnergyModel::default();
        // Full-duty scanning is the radio's active draw: 5 500 µA.
        assert!(close(m.scan_ua(100.0, 100.0), 5_500.0, 1e-9));
        // 10 % duty: 30 ms window in a 300 ms interval → 550 µA.
        assert!(close(m.scan_ua(30.0, 300.0), 550.0, 1e-9));
        // Window longer than interval clamps to 100 %.
        assert!(close(m.scan_ua(400.0, 300.0), 5_500.0, 1e-9));
    }

    #[test]
    fn adv_node_current_combines_counters_and_is_pinned() {
        let m = EnergyModel::default();
        // One hour, beacon train every second (empty payload), 10 %
        // scan duty: 3600 trains × 5.64 µC + 360 s listen × 5.5 mA.
        let trains = 3_600u64;
        let tx_ns = trains * 480_000; // 480 µs/train
        let listen_ns = 360 * 1_000_000_000u64;
        let ua = m.adv_node_current_ua(3_600.0, trains, tx_ns, listen_ns);
        // 15 idle + 3600×3.0/3600 + 5.5 mA × (1.728 s + 360 s)/3600 s
        // = 15 + 3.0 + 552.64 µA.
        assert!(close(ua, 570.64, 0.01), "{ua:.2}");
        // And the conn-path pinned numbers are untouched.
        let events = 3_600_000 / 75;
        assert!(close(
            m.node_current_ua(3_600.0, events, 0, 0, 0.0),
            45.7,
            0.5
        ));
    }
}
