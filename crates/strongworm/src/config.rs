//! Configuration of the WORM deployment.

use scpu::DeviceConfig;
use std::time::Duration;

/// Who hashes the record data for `datasig` (§4.2.2, *Write*).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HashMode {
    /// The SCPU DMAs the data in and hashes it itself — the full-strength
    /// model.
    #[default]
    ScpuHashes,
    /// "The main CPU will be trusted to provide datasig's hash which will
    /// be verified later during idle times" — the slightly weaker,
    /// faster burst model.
    TrustHostHash,
}

/// Witnessing tier requested for a write (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WitnessMode {
    /// Permanent-key signatures immediately.
    #[default]
    Strong,
    /// Short-lived (e.g. 512-bit) signatures now, strengthened during
    /// idle periods within their security lifetime.
    Deferred,
    /// HMAC now (fastest; clients cannot verify until strengthened).
    Hmac,
}

/// Deployment parameters for a [`WormServer`](crate::WormServer).
#[derive(Clone, Debug)]
pub struct WormConfig {
    /// Modulus width of the permanent keys `s` and `d` (paper: 1024).
    pub strong_bits: usize,
    /// Modulus width of short-lived burst keys (paper: 512).
    pub weak_bits: usize,
    /// Security lifetime of a short-lived signature — the window in which
    /// a well-resourced Alice cannot factor the weak modulus (paper
    /// assumes 60–180 minutes).
    pub weak_lifetime: Duration,
    /// How often the SCPU re-issues the timestamped head certificate even
    /// without updates (paper: "every few minutes").
    pub head_refresh_interval: Duration,
    /// Validity period of base certificates (anti-replay expiry).
    pub base_cert_lifetime: Duration,
    /// Default hashing model for writes.
    pub hash_mode: HashMode,
    /// Default witnessing tier for writes.
    pub default_witness: WitnessMode,
    /// Minimum contiguous expired run compacted into a window (paper: 3).
    pub min_compaction_run: usize,
    /// Secure coprocessor parameters.
    pub device: DeviceConfig,
    /// Storage capacity of the record store in bytes.
    pub store_capacity: usize,
    /// Pre-first serial value this SCPU boots `SN_current` to. 0 for a
    /// single-SCPU deployment; shard `i` of a sharded witness plane uses
    /// [`SerialNumber::lane_origin(i)`](crate::SerialNumber::lane_origin)
    /// so each shard issues dense SNs in its own lane of the SN space.
    pub sn_origin: u64,
}

impl Default for WormConfig {
    fn default() -> Self {
        WormConfig {
            strong_bits: 1024,
            weak_bits: 512,
            weak_lifetime: Duration::from_secs(120 * 60),
            head_refresh_interval: Duration::from_secs(120),
            base_cert_lifetime: Duration::from_secs(24 * 60 * 60),
            hash_mode: HashMode::ScpuHashes,
            default_witness: WitnessMode::Strong,
            min_compaction_run: 3,
            device: DeviceConfig::default(),
            store_capacity: 64 << 20,
            sn_origin: 0,
        }
    }
}

impl WormConfig {
    /// Small-key configuration for fast tests: 512-bit permanent keys and
    /// a zero-cost device model. Cryptographically meaningful, just not
    /// paper-strength.
    pub fn test_small() -> Self {
        WormConfig {
            strong_bits: 512,
            weak_bits: 512,
            device: DeviceConfig {
                cost_model: scpu::CostModel::free(),
                secure_memory_bytes: 1 << 20,
                serial: 0x7e57,
                rng_seed: 0x5eed,
            },
            store_capacity: 4 << 20,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WormConfig::default();
        assert_eq!(c.strong_bits, 1024);
        assert_eq!(c.weak_bits, 512);
        assert!(c.weak_lifetime >= Duration::from_secs(60 * 60));
        assert!(c.weak_lifetime <= Duration::from_secs(180 * 60));
        assert_eq!(c.min_compaction_run, 3);
        assert_eq!(c.hash_mode, HashMode::ScpuHashes);
        assert_eq!(c.default_witness, WitnessMode::Strong);
    }

    #[test]
    fn test_config_is_smaller() {
        let c = WormConfig::test_small();
        assert_eq!(c.strong_bits, 512);
        assert!(c.store_capacity < WormConfig::default().store_capacity);
    }
}
