//! Retention policies and regulation presets.
//!
//! Table 1's `attr` field carries the "applicable regulation policy" and
//! retention period. This module provides the common presets the paper's
//! introduction cites, plus fully custom policies.

use std::time::Duration;
use wormstore::Shredder;

const DAY: u64 = 24 * 60 * 60;
const YEAR: u64 = 365 * DAY;

/// The regulation a record is stored under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Regulation {
    /// SEC Rule 17a-4 — broker-dealer records.
    Sec17a4,
    /// HIPAA — health records.
    Hipaa,
    /// FERPA — educational records.
    Ferpa,
    /// DoD 5015.2 — defense records management.
    Dod5015,
    /// Sarbanes-Oxley — audit work papers.
    SarbanesOxley,
    /// FDA 21 CFR Part 11 — electronic records/signatures.
    Fda21Cfr11,
    /// Unregulated / site-specific policy.
    Custom,
}

impl Regulation {
    /// Stable numeric code used in the canonical encoding.
    pub fn code(self) -> u8 {
        match self {
            Regulation::Sec17a4 => 1,
            Regulation::Hipaa => 2,
            Regulation::Ferpa => 3,
            Regulation::Dod5015 => 4,
            Regulation::SarbanesOxley => 5,
            Regulation::Fda21Cfr11 => 6,
            Regulation::Custom => 0,
        }
    }

    /// Decodes a numeric code.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Regulation::Custom,
            1 => Regulation::Sec17a4,
            2 => Regulation::Hipaa,
            3 => Regulation::Ferpa,
            4 => Regulation::Dod5015,
            5 => Regulation::SarbanesOxley,
            6 => Regulation::Fda21Cfr11,
            _ => return None,
        })
    }
}

/// A complete retention policy attached to a virtual record at write time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Governing regulation.
    pub regulation: Regulation,
    /// How long the record must be retained after creation.
    pub retention: Duration,
    /// Shredding discipline applied on expiry.
    pub shredder: Shredder,
}

impl RetentionPolicy {
    /// SEC 17a-4: six-year retention, multi-pass shredding.
    pub fn sec17a4() -> Self {
        RetentionPolicy {
            regulation: Regulation::Sec17a4,
            retention: Duration::from_secs(6 * YEAR),
            shredder: Shredder::MultiPass { passes: 3 },
        }
    }

    /// HIPAA: six-year retention.
    pub fn hipaa() -> Self {
        RetentionPolicy {
            regulation: Regulation::Hipaa,
            retention: Duration::from_secs(6 * YEAR),
            shredder: Shredder::MultiPass { passes: 3 },
        }
    }

    /// Custom policy with an arbitrary retention period.
    pub fn custom(retention: Duration, shredder: Shredder) -> Self {
        RetentionPolicy {
            regulation: Regulation::Custom,
            retention,
            shredder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for r in [
            Regulation::Sec17a4,
            Regulation::Hipaa,
            Regulation::Ferpa,
            Regulation::Dod5015,
            Regulation::SarbanesOxley,
            Regulation::Fda21Cfr11,
            Regulation::Custom,
        ] {
            assert_eq!(Regulation::from_code(r.code()), Some(r));
        }
        assert_eq!(Regulation::from_code(200), None);
    }

    #[test]
    fn presets_have_multiyear_retention() {
        for p in [RetentionPolicy::sec17a4(), RetentionPolicy::hipaa()] {
            assert!(p.retention >= Duration::from_secs(5 * YEAR));
        }
    }

    #[test]
    fn custom_policy() {
        let p = RetentionPolicy::custom(Duration::from_secs(60), Shredder::ZeroFill);
        assert_eq!(p.regulation, Regulation::Custom);
        assert_eq!(p.retention, Duration::from_secs(60));
    }
}
