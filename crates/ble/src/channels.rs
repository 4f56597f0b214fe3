//! Channel maps and channel selection algorithms.
//!
//! BLE connections hop over the 37 data channels (§2.2 of the paper:
//! time-sliced channel hopping). The channel map restricts the pool —
//! the paper statically excludes channel 22, which an external signal
//! permanently jammed in their testbed (§4.2). Every connection selects
//! its channel with CSA#2 (Bluetooth 5, PRNG-based; Core Spec Vol 6
//! Part B §4.5.8.3), as NimBLE does.

use mindgap_phy::{Channel, BLE_DATA_CHANNELS};

/// A set of enabled data channels (bit i = channel i).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelMap(u64);

impl ChannelMap {
    /// All 37 data channels enabled.
    pub const ALL: ChannelMap = ChannelMap((1u64 << BLE_DATA_CHANNELS) - 1);

    /// Build from a raw 37-bit mask. Panics if empty or out of range —
    /// the spec requires at least two used channels.
    pub fn from_mask(mask: u64) -> Self {
        assert_eq!(mask >> BLE_DATA_CHANNELS, 0, "mask has bits above 36");
        assert!(mask.count_ones() >= 2, "channel map needs ≥ 2 channels");
        ChannelMap(mask)
    }

    /// The paper's experiment map: everything except the jammed
    /// channel 22 (§4.2).
    pub fn all_except_jammed() -> Self {
        ChannelMap(Self::ALL.0 & !(1 << mindgap_phy::BLE_JAMMED_CHANNEL))
    }

    /// Disable one channel (adaptive hopping would call this).
    pub fn without(self, ch: u8) -> Self {
        assert!(ch < BLE_DATA_CHANNELS);
        let m = self.0 & !(1u64 << ch);
        assert!(m.count_ones() >= 2, "cannot drop below 2 channels");
        ChannelMap(m)
    }

    /// Is channel `ch` usable?
    #[inline]
    pub fn contains(self, ch: u8) -> bool {
        ch < BLE_DATA_CHANNELS && self.0 & (1u64 << ch) != 0
    }

    /// Number of used channels.
    #[inline]
    pub fn used(self) -> u32 {
        self.0.count_ones()
    }

    /// The `n`-th used channel in ascending order (for remapping).
    fn nth_used(self, n: u32) -> u8 {
        let mut seen = 0;
        for ch in 0..BLE_DATA_CHANNELS {
            if self.contains(ch) {
                if seen == n {
                    return ch;
                }
                seen += 1;
            }
        }
        unreachable!("remap index out of range")
    }
}

/// Per-connection channel selection state.
#[derive(Debug, Clone)]
pub struct ChannelSelector {
    map: ChannelMap,
    access_address: u32,
}

impl ChannelSelector {
    /// Create a selector for a connection.
    pub fn new(map: ChannelMap, access_address: u32) -> Self {
        ChannelSelector {
            map,
            access_address,
        }
    }

    /// The channel map in use.
    pub fn map(&self) -> ChannelMap {
        self.map
    }

    /// Apply a channel-map update (adaptive hopping).
    pub fn set_map(&mut self, map: ChannelMap) {
        self.map = map;
    }

    /// Select the data channel for `event_counter`: a pure function
    /// of the counter, so skipped events never desynchronise the two
    /// ends.
    pub fn channel_for_event(&self, event_counter: u16) -> Channel {
        Channel::ble_data(csa2_channel(self.access_address, event_counter, self.map))
    }
}

/// CSA#2 (Core Spec Vol 6 Part B §4.5.8.3.2–3).
pub fn csa2_channel(access_address: u32, event_counter: u16, map: ChannelMap) -> u8 {
    let ch_id = ((access_address >> 16) ^ (access_address & 0xFFFF)) as u16;
    let prn_e = csa2_prn_e(event_counter, ch_id);
    let unmapped = (prn_e % 37) as u8;
    if map.contains(unmapped) {
        return unmapped;
    }
    // Remap onto the used channels.
    let n = map.used();
    let remap_idx = (n * prn_e as u32) >> 16;
    map.nth_used(remap_idx)
}

/// The PRN pipeline of CSA#2: three rounds of PERM + MAM, then a final
/// XOR with the channel identifier.
fn csa2_prn_e(counter: u16, ch_id: u16) -> u16 {
    let mut x = counter ^ ch_id;
    for _ in 0..3 {
        x = perm(x);
        x = mam(x, ch_id);
    }
    x ^ ch_id
}

/// PERM: reverse the bits within each byte.
fn perm(x: u16) -> u16 {
    let lo = (x as u8).reverse_bits() as u16;
    let hi = ((x >> 8) as u8).reverse_bits() as u16;
    (hi << 8) | lo
}

/// MAM: multiply-add-modulo 2^16.
fn mam(a: u16, b: u16) -> u16 {
    a.wrapping_mul(17).wrapping_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let m = ChannelMap::ALL;
        assert_eq!(m.used(), 37);
        assert!(m.contains(0) && m.contains(36));
        let m2 = ChannelMap::all_except_jammed();
        assert_eq!(m2.used(), 36);
        assert!(!m2.contains(22));
    }

    #[test]
    #[should_panic]
    fn map_needs_two_channels() {
        let _ = ChannelMap::from_mask(1);
    }

    #[test]
    #[should_panic]
    fn map_rejects_high_bits() {
        let _ = ChannelMap::from_mask(1 << 37 | 1 << 3);
    }

    #[test]
    fn csa2_is_deterministic_and_stateless() {
        let map = ChannelMap::all_except_jammed();
        for ev in [0u16, 1, 100, 65535] {
            let a = csa2_channel(0x5713_9AD6, ev, map);
            let b = csa2_channel(0x5713_9AD6, ev, map);
            assert_eq!(a, b);
            assert!(map.contains(a));
        }
    }

    #[test]
    fn csa2_respects_channel_map() {
        let map = ChannelMap::from_mask(0b1010_1010_1010);
        for ev in 0..2000u16 {
            let ch = csa2_channel(0xDEAD_BEE5, ev, map);
            assert!(map.contains(ch), "event {ev} picked disabled {ch}");
        }
    }

    #[test]
    fn csa2_distributes_over_used_channels() {
        let map = ChannelMap::all_except_jammed();
        let mut counts = [0u32; 37];
        for ev in 0..37_000u32 {
            let ch = csa2_channel(0x5713_9AD6, (ev % 65536) as u16, map);
            counts[ch as usize] += 1;
        }
        assert_eq!(counts[22], 0);
        for (ch, &c) in counts.iter().enumerate() {
            if ch == 22 {
                continue;
            }
            assert!(
                (500..2000).contains(&c),
                "channel {ch} hit {c} times — not uniform"
            );
        }
    }

    #[test]
    fn csa2_differs_between_connections() {
        let map = ChannelMap::ALL;
        let same = (0..100u16)
            .filter(|&ev| csa2_channel(0x5713_9AD6, ev, map) == csa2_channel(0x1234_5678, ev, map))
            .count();
        assert!(same < 30, "{same} matching events for different AAs");
    }

    /// The Core spec's CSA#2 sample data (Vol 6 Part C §3, access
    /// address 0x8E89BED6).
    #[test]
    fn csa2_matches_spec_sample_data() {
        let aa = 0x8E89_BED6;
        for (counter, ch) in [(0, 25), (1, 20), (2, 6), (3, 21)] {
            assert_eq!(
                csa2_channel(aa, counter, ChannelMap::ALL),
                ch,
                "all 37, {counter}"
            );
        }
        let used = [9u8, 10, 21, 22, 23, 33, 34, 35, 36];
        let map = ChannelMap::from_mask(used.iter().fold(0, |m, &c| m | 1 << c));
        for (counter, ch) in [(6, 23), (7, 9), (8, 34)] {
            assert_eq!(csa2_channel(aa, counter, map), ch, "9 used, {counter}");
        }
    }

    #[test]
    fn perm_reverses_byte_bits() {
        assert_eq!(perm(0x0180), 0x8001);
        assert_eq!(perm(perm(0xABCD)), 0xABCD);
    }

    #[test]
    fn selector_csa2_matches_free_function() {
        let map = ChannelMap::all_except_jammed();
        let sel = ChannelSelector::new(map, 0x5713_9AD6);
        for ev in 0..50u16 {
            assert_eq!(
                sel.channel_for_event(ev).index(),
                csa2_channel(0x5713_9AD6, ev, map)
            );
        }
    }
}
