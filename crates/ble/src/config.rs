//! Link-layer configuration.

use mindgap_sim::Duration;

use crate::channels::ChannelMap;

/// BLE PHY mode for data channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlePhy {
    /// 1 Mbps — the paper's mode (nrf52dk boards support nothing else,
    /// §4.2).
    OneM,
    /// 2 Mbps — supported by the nrf52840; roughly halves data airtime
    /// while T_IFS stays 150 µs.
    TwoM,
}

/// Parameters of one connection, fixed by the coordinator at
/// connection initiation (paper §2.2). Durations are expressed in the
/// *coordinator's local clock*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnParams {
    /// Connection interval. The spec allows 7.5 ms – 4 s in units of
    /// 1.25 ms; the paper sweeps 25 ms – 2 s with 75 ms as default.
    pub interval: Duration,
    /// Supervision timeout: the connection is declared lost when no
    /// valid packet is received for this long (§2.2).
    pub supervision_timeout: Duration,
    /// Channel map (the paper excludes jammed channel 22, §4.2).
    /// Channels are always selected with CSA#2.
    pub channel_map: ChannelMap,
}

impl ConnParams {
    /// Spec-clean defaults for a given connection interval: channel 22
    /// excluded, and NimBLE's supervision timeout (2.56 s)
    /// stretched when the interval is long so the spec's
    /// `timeout > 2 · interval` bound holds with margin.
    pub fn with_interval(interval: Duration) -> Self {
        let floor = Duration::from_millis(2560);
        ConnParams {
            interval,
            supervision_timeout: floor.max(interval * 4),
            channel_map: ChannelMap::all_except_jammed(),
        }
    }

    /// The *literal* NimBLE default: a fixed 2.56 s supervision
    /// timeout regardless of interval — what the paper's platform ran
    /// with ("we use the default configurations", §4.2). For intervals
    /// beyond ≈640 ms this violates the spec's
    /// `timeout ≥ 2·interval` recommendation: at a 2 s interval a
    /// single failed connection event already exceeds the timeout,
    /// which is a large part of Fig. 9b's collapse.
    pub fn with_interval_nimble(interval: Duration) -> Self {
        let timeout = Duration::from_millis(2560).max(interval + Duration::from_millis(500));
        ConnParams {
            interval,
            supervision_timeout: timeout,
            channel_map: ChannelMap::all_except_jammed(),
        }
    }

    /// Validate the functional constraints a controller must enforce;
    /// panics on violations. Call at connection setup.
    pub fn validate(&self) {
        assert!(
            self.interval >= Duration::from_micros(7_500),
            "interval below 7.5 ms"
        );
        assert!(
            self.interval <= Duration::from_secs(4),
            "interval above 4 s"
        );
        assert!(
            self.supervision_timeout > self.interval,
            "supervision timeout {} shorter than interval {}",
            self.supervision_timeout,
            self.interval
        );
    }

    /// Additionally check the spec's recommended
    /// `timeout > 2 · interval` bound (subordinate latency is always
    /// 0), which real stacks (including the paper's NimBLE defaults at
    /// long intervals) do not always honour.
    pub fn validate_spec(&self) {
        self.validate();
        assert!(
            self.supervision_timeout > self.interval * 2,
            "supervision timeout {} below the spec bound for interval {}",
            self.supervision_timeout,
            self.interval
        );
    }
}

/// Static configuration of a node's link layer.
#[derive(Debug, Clone, Copy)]
pub struct LlConfig {
    /// Maximum LL payload (251 with the Data Length Extension the
    /// paper enables, §4.2).
    pub max_pdu: usize,
    /// Data-channel PHY mode.
    pub phy: BlePhy,
    /// Enable the adaptive-frequency-hopping policy (coordinator-side
    /// channel retirement via LL_CHANNEL_MAP_IND). Off by default —
    /// the paper excludes the jammed channel statically instead.
    pub afh_enabled: bool,
    /// Events between AFH evaluations.
    pub afh_period_events: u32,
    /// Restart advertising right after accepting a CONNECT_IND.
    /// Legacy BLE stops the advertiser on connect (statconn restarts
    /// it per down edge); the dynamic peer manager instead keeps every
    /// node discoverable for further inbound connections, like a
    /// multi-role controller re-enabling advertising from the host.
    pub resume_adv_on_connect: bool,
}

impl Default for LlConfig {
    fn default() -> Self {
        LlConfig {
            max_pdu: 251,
            phy: BlePhy::OneM,
            afh_enabled: false,
            afh_period_events: 400,
            resume_adv_on_connect: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_across_paper_sweep() {
        // All intervals of Fig. 8(a)/Fig. 14/Fig. 15.
        for ms in [25u64, 50, 75, 100, 250, 500, 750, 2000] {
            ConnParams::with_interval(Duration::from_millis(ms)).validate_spec();
            ConnParams::with_interval_nimble(Duration::from_millis(ms)).validate();
        }
    }

    #[test]
    fn nimble_default_violates_spec_bound_at_long_intervals() {
        let p = ConnParams::with_interval_nimble(Duration::from_secs(2));
        p.validate(); // functional: fine
        let spec = std::panic::catch_unwind(|| p.validate_spec());
        assert!(
            spec.is_err(),
            "2 s interval with 2.56 s timeout breaks the spec bound"
        );
    }

    #[test]
    fn long_interval_gets_stretched_timeout() {
        let p = ConnParams::with_interval(Duration::from_secs(2));
        assert!(p.supervision_timeout >= Duration::from_secs(8));
    }

    #[test]
    #[should_panic]
    fn tiny_interval_rejected() {
        ConnParams::with_interval(Duration::from_millis(5)).validate();
    }

    #[test]
    #[should_panic]
    fn timeout_bound_enforced() {
        let mut p = ConnParams::with_interval(Duration::from_millis(75));
        p.supervision_timeout = Duration::from_millis(50);
        p.validate();
    }
}
