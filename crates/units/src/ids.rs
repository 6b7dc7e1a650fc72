//! Identifiers for racks and power-hierarchy devices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Identifier of a server rack within a simulated fleet.
///
/// # Examples
///
/// ```
/// use recharge_units::RackId;
///
/// let id = RackId::new(7);
/// assert_eq!(id.index(), 7);
/// assert_eq!(format!("{id}"), "rack-7");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct RackId(u32);

impl RackId {
    /// Creates a rack identifier from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        RackId(index)
    }

    /// The dense index backing this identifier.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl core::fmt::Display for RackId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "rack-{}", self.0)
    }
}

impl From<u32> for RackId {
    fn from(index: u32) -> Self {
        RackId(index)
    }
}

/// A hash map keyed by [`RackId`] with the cheap `RackHasher`.
pub type RackMap<V> = HashMap<RackId, V, BuildHasherDefault<RackHasher>>;

/// A [`Hasher`] for [`RackId`] keys: one multiply per id instead of SipHash.
///
/// Rack ids are dense simulator indices, not attacker-chosen input, so hash
/// flooding is not a concern. The multiply spreads the id over the high
/// bits, and folding the high half down mixes all 32 id bits into the low
/// bits the table indexes by as well. The hash is fixed (no per-process
/// seed), so iteration order of a [`RackMap`] is deterministic — though no
/// caller may depend on it.
///
/// # Examples
///
/// ```
/// use recharge_units::{RackId, RackMap};
///
/// let mut currents: RackMap<f64> = RackMap::default();
/// currents.insert(RackId::new(7), 2.5);
/// assert_eq!(currents[&RackId::new(7)], 2.5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RackHasher(u64);

impl RackHasher {
    /// The 64-bit golden-ratio constant (Fibonacci hashing).
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for RackHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached by keys other than `RackId`; correct, not fast.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(32) ^ n).wrapping_mul(Self::MUL);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Identifier of a device (breaker, board, panel…) in the power hierarchy tree.
///
/// `DeviceId`s are dense indices handed out by the topology arena in
/// `recharge-power`; they are only meaningful relative to the topology that
/// created them.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct DeviceId(u32);

impl DeviceId {
    /// Creates a device identifier from a dense arena index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        DeviceId(index)
    }

    /// The dense arena index backing this identifier.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl core::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "dev-{}", self.0)
    }
}

impl From<u32> for DeviceId {
    fn from(index: u32) -> Self {
        DeviceId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_id_round_trip() {
        let id = RackId::from(42u32);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "rack-42");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(RackId::new(1));
        set.insert(RackId::new(1));
        assert_eq!(set.len(), 1);
        assert!(RackId::new(1) < RackId::new(2));
        assert!(DeviceId::new(3) < DeviceId::new(4));
    }

    fn rack_hash(id: u32) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<RackHasher>::default().hash_one(RackId::new(id))
    }

    #[test]
    fn rack_hasher_mixes_every_id_bit_into_the_low_bits() {
        // Flipping any single id bit moves the low 16 bits the table indexes
        // by, high id bits included.
        for bit in 0..32 {
            assert_ne!(
                rack_hash(0) & 0xffff,
                rack_hash(1 << bit) & 0xffff,
                "bit {bit} does not reach the low bits"
            );
        }
        // Ids that differ only above bit 16 still spread over 1024 buckets.
        let buckets: std::collections::HashSet<u64> =
            (0..1024u32).map(|k| rack_hash(k << 16) & 1023).collect();
        assert!(buckets.len() > 600, "{} buckets of 1024", buckets.len());
    }

    #[test]
    fn rack_map_is_a_plain_map() {
        let mut map: RackMap<u32> = RackMap::default();
        for i in 0..1000 {
            map.insert(RackId::new(i * 7919), i);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|i| map[&RackId::new(i * 7919)] == i));
        assert!(!map.contains_key(&RackId::new(1)));
    }

    #[test]
    fn device_display() {
        assert_eq!(format!("{}", DeviceId::new(9)), "dev-9");
    }
}
