//! Radio channels for the two technologies the paper compares.

use core::fmt;

/// Radio technology / frequency plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Band {
    /// Bluetooth Low Energy: 40 channels of 2 MHz in 2.4 GHz.
    /// Indices 0–36 are data channels, 37–39 advertising channels.
    Ble,
    /// IEEE 802.15.4 (2.4 GHz O-QPSK): channels 11–26, 5 MHz spacing.
    Ieee802154,
}

/// A radio channel within a [`Band`].
///
/// BLE and 802.15.4 channels overlap in the spectrum, but the paper's
/// two testbeds are in different cities (Saclay vs Strasbourg), so we
/// treat the bands as non-interfering, matching the deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    band: Band,
    index: u8,
}

/// Number of BLE data channels (indices 0–36).
pub const BLE_DATA_CHANNELS: u8 = 37;
/// First BLE advertising channel index.
pub const BLE_ADV_FIRST: u8 = 37;
/// BLE advertising channel indices.
pub const BLE_ADV_CHANNELS: [u8; 3] = [37, 38, 39];
/// The BLE data channel the paper found permanently jammed in the
/// IoT-lab (§4.2) and statically excluded from all channel maps.
pub const BLE_JAMMED_CHANNEL: u8 = 22;

impl Channel {
    /// A BLE data channel (index 0–36).
    pub fn ble_data(index: u8) -> Self {
        assert!(
            index < BLE_DATA_CHANNELS,
            "BLE data channel {index} out of range"
        );
        Channel {
            band: Band::Ble,
            index,
        }
    }

    /// A BLE advertising channel (index 37–39).
    pub fn ble_adv(index: u8) -> Self {
        assert!(
            (BLE_ADV_FIRST..40).contains(&index),
            "BLE advertising channel {index} out of range"
        );
        Channel {
            band: Band::Ble,
            index,
        }
    }

    /// An IEEE 802.15.4 channel (11–26).
    pub fn ieee802154(index: u8) -> Self {
        assert!(
            (11..=26).contains(&index),
            "802.15.4 channel {index} out of range"
        );
        Channel {
            band: Band::Ieee802154,
            index,
        }
    }

    /// The band this channel belongs to.
    #[inline]
    pub fn band(self) -> Band {
        self.band
    }

    /// The channel index within its band.
    #[inline]
    pub fn index(self) -> u8 {
        self.index
    }

    /// `true` for BLE data channels (as opposed to advertising).
    pub fn is_ble_data(self) -> bool {
        self.band == Band::Ble && self.index < BLE_DATA_CHANNELS
    }

    /// `true` for BLE advertising channels.
    pub fn is_ble_adv(self) -> bool {
        self.band == Band::Ble && self.index >= BLE_ADV_FIRST
    }

    /// Dense index for table lookups: BLE 0–39, 802.15.4 40–55.
    pub fn table_index(self) -> usize {
        match self.band {
            Band::Ble => self.index as usize,
            Band::Ieee802154 => 40 + (self.index as usize - 11),
        }
    }
}

/// Total number of distinct channels across both bands, for sizing
/// per-channel statistics tables.
pub const CHANNEL_TABLE_SIZE: usize = 40 + 16;

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.band {
            Band::Ble if self.is_ble_adv() => write!(f, "ble-adv{}", self.index),
            Band::Ble => write!(f, "ble{}", self.index),
            Band::Ieee802154 => write!(f, "154ch{}", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_vs_adv_classification() {
        assert!(Channel::ble_data(0).is_ble_data());
        assert!(Channel::ble_data(36).is_ble_data());
        assert!(Channel::ble_adv(37).is_ble_adv());
        assert!(Channel::ble_adv(39).is_ble_adv());
        assert!(!Channel::ble_adv(38).is_ble_data());
        assert!(!Channel::ieee802154(15).is_ble_data());
    }

    #[test]
    #[should_panic]
    fn ble_data_range_checked() {
        let _ = Channel::ble_data(37);
    }

    #[test]
    #[should_panic]
    fn ieee_range_checked() {
        let _ = Channel::ieee802154(27);
    }

    #[test]
    fn table_indices_are_unique_and_dense() {
        let mut seen = [false; CHANNEL_TABLE_SIZE];
        for i in 0..37 {
            seen[Channel::ble_data(i).table_index()] = true;
        }
        for i in 37..40 {
            seen[Channel::ble_adv(i).table_index()] = true;
        }
        for i in 11..=26 {
            seen[Channel::ieee802154(i).table_index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "table index collision or gap");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Channel::ble_data(22).to_string(), "ble22");
        assert_eq!(Channel::ble_adv(37).to_string(), "ble-adv37");
        assert_eq!(Channel::ieee802154(26).to_string(), "154ch26");
    }
}
