//! Serial numbers.
//!
//! "A system-wide unique 64-80 bit serial number" (Table 1), issued by the
//! SCPU with *consecutive, monotonically increasing* values — the property
//! the whole window-authentication scheme rests on (§4.1).

/// Bit position of the shard lane within a serial number.
///
/// A sharded witness plane partitions the 64-bit SN space into *lanes*:
/// shard `i` issues dense, consecutive serial numbers starting at
/// `i · 2^56 + 1`, so the owning shard of any SN is simply its high
/// byte. Within a lane the paper's density invariants (consecutive
/// issue, contiguous base advance, window adjacency) hold unchanged,
/// and lane 0 numbers exactly as a single-SCPU server always has.
pub const SHARD_LANE_BITS: u32 = 56;

/// Highest shard count a lane-partitioned deployment can address (the
/// lane index must fit the SN's high byte).
pub const MAX_SHARDS: u32 = 1 << (u64::BITS - SHARD_LANE_BITS);

/// SCPU-issued serial number of a virtual record.
///
/// Serial numbers start at 1; 0 is reserved as "none issued yet" so that
/// `SN_current = 0` describes an empty store. (In a sharded deployment
/// each lane reserves its own origin `i · 2^56` the same way.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SerialNumber(pub u64);

impl SerialNumber {
    /// The reserved pre-first value.
    pub const ZERO: SerialNumber = SerialNumber(0);

    /// The shard lane this serial number belongs to (its high byte).
    pub const fn lane(self) -> u32 {
        (self.0 >> SHARD_LANE_BITS) as u32
    }

    /// The reserved pre-first serial value of shard lane `lane` — what
    /// that shard's firmware boots its `SN_current` to.
    pub const fn lane_origin(lane: u32) -> u64 {
        (lane as u64) << SHARD_LANE_BITS
    }

    /// The next serial number.
    pub fn next(self) -> SerialNumber {
        SerialNumber(self.0 + 1)
    }

    /// The previous serial number (saturating at zero).
    pub fn prev(self) -> SerialNumber {
        SerialNumber(self.0.saturating_sub(1))
    }

    /// Raw value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SerialNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sn:{}", self.0)
    }
}

impl From<u64> for SerialNumber {
    fn from(v: u64) -> Self {
        SerialNumber(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_next() {
        let a = SerialNumber(5);
        assert_eq!(a.next(), SerialNumber(6));
        assert_eq!(a.prev(), SerialNumber(4));
        assert_eq!(SerialNumber::ZERO.prev(), SerialNumber::ZERO);
        assert!(a < a.next());
        assert_eq!(SerialNumber::from(9).get(), 9);
        assert_eq!(a.to_string(), "sn:5");
    }
}
