//! Error types for the WORM layer.

use crate::sn::SerialNumber;
use crate::wire::WireError;

/// Errors from server-side WORM operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum WormError {
    /// The secure coprocessor refused or is dead.
    Device(scpu::DeviceError),
    /// The record store failed.
    Store(wormstore::StoreError),
    /// The durable journal region failed (device error or region full).
    Journal(wormstore::JournalError),
    /// The firmware rejected the request (reason inside).
    Firmware(String),
    /// The serial number does not name an active record.
    NotActive(SerialNumber),
    /// A persisted structure failed to decode.
    Wire(WireError),
    /// The serial number's shard lane is outside this deployment (no
    /// shard owns it, so no SCPU could ever have issued it).
    NoSuchShard {
        /// The lane the serial number routes to.
        lane: u32,
        /// How many shards this deployment runs.
        shard_count: u32,
    },
}

impl std::fmt::Display for WormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WormError::Device(e) => write!(f, "secure coprocessor failure: {e}"),
            WormError::Store(e) => write!(f, "record store failure: {e}"),
            WormError::Journal(e) => write!(f, "durable journal failure: {e}"),
            WormError::Firmware(msg) => write!(f, "firmware rejected request: {msg}"),
            WormError::NotActive(sn) => write!(f, "{sn} is not an active record"),
            WormError::Wire(e) => write!(f, "persisted structure corrupt: {e}"),
            WormError::NoSuchShard { lane, shard_count } => write!(
                f,
                "serial number routes to shard lane {lane}, but only {shard_count} shards exist"
            ),
        }
    }
}

impl std::error::Error for WormError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WormError::Device(e) => Some(e),
            WormError::Store(e) => Some(e),
            WormError::Journal(e) => Some(e),
            WormError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<scpu::DeviceError> for WormError {
    fn from(e: scpu::DeviceError) -> Self {
        WormError::Device(e)
    }
}

impl From<wormstore::StoreError> for WormError {
    fn from(e: wormstore::StoreError) -> Self {
        WormError::Store(e)
    }
}

impl From<wormstore::JournalError> for WormError {
    fn from(e: wormstore::JournalError) -> Self {
        WormError::Journal(e)
    }
}

impl From<WireError> for WormError {
    fn from(e: WireError) -> Self {
        WormError::Wire(e)
    }
}

/// Why a client rejected a host response (each maps to an attack the
/// verifier must catch for Theorems 1 and 2).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A signature failed to verify (field name inside).
    BadSignature(&'static str),
    /// The head certificate is older than the freshness tolerance.
    StaleHead {
        /// Head age in milliseconds.
        age_ms: u64,
    },
    /// A weak (short-lived) witness was presented past its lifetime
    /// without having been strengthened.
    WeakWitnessExpired {
        /// Which field carried the expired witness.
        field: &'static str,
    },
    /// An HMAC witness cannot be verified by clients at all (§4.3
    /// drawback); the record is pending strengthening.
    UnverifiableMac {
        /// Which field carried the MAC.
        field: &'static str,
    },
    /// The two window-bound signatures carry different window ids —
    /// bounds of unrelated windows were combined.
    WindowIdMismatch,
    /// The evidence does not actually cover the requested serial number.
    EvidenceDoesNotCoverSn,
    /// The response's VRD is for a different serial number than requested.
    WrongSerialNumber,
    /// The returned data does not hash to the value `datasig` covers.
    DataHashMismatch,
    /// The host claimed non-existence for an SN at or below the certified
    /// head.
    HiddenRecord,
    /// A certificate (base) was presented past its expiry.
    ExpiredCertificate(&'static str),
    /// A record was deleted before its retention period elapsed.
    PrematureDeletion,
    /// The composite binding's root does not match the presented
    /// per-shard head certificates — the host mixed head sets from
    /// different instants (or altered one) after the coordinator signed.
    CompositeRootMismatch,
    /// The serial number names a lane the verifier holds no keys for: no
    /// SCPU the deployment published could have issued it, and no
    /// evidence the host presents for it is checked.
    ShardNotBound {
        /// The lane the serial number routes to.
        lane: u32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BadSignature(field) => write!(f, "invalid signature on {field}"),
            VerifyError::StaleHead { age_ms } => {
                write!(f, "head certificate is stale ({age_ms} ms old)")
            }
            VerifyError::WeakWitnessExpired { field } => {
                write!(f, "short-lived witness on {field} expired unstrengthened")
            }
            VerifyError::UnverifiableMac { field } => {
                write!(
                    f,
                    "{field} carries an hmac witness only the scpu can verify"
                )
            }
            VerifyError::WindowIdMismatch => {
                f.write_str("window bound signatures carry different window ids")
            }
            VerifyError::EvidenceDoesNotCoverSn => {
                f.write_str("deletion evidence does not cover the requested serial number")
            }
            VerifyError::WrongSerialNumber => {
                f.write_str("response is for a different serial number")
            }
            VerifyError::DataHashMismatch => {
                f.write_str("record data does not match the signed data hash")
            }
            VerifyError::HiddenRecord => {
                f.write_str("host denies a record the head certificate proves was written")
            }
            VerifyError::ExpiredCertificate(what) => write!(f, "{what} certificate expired"),
            VerifyError::PrematureDeletion => {
                f.write_str("record was deleted before its retention period elapsed")
            }
            VerifyError::CompositeRootMismatch => {
                f.write_str("composite binding root does not match the presented shard heads")
            }
            VerifyError::ShardNotBound { lane } => {
                write!(f, "no published lane key covers shard lane {lane}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(WormError::NotActive(SerialNumber(3))),
            Box::new(WormError::Firmware("nope".into())),
            Box::new(VerifyError::StaleHead { age_ms: 999 }),
            Box::new(VerifyError::BadSignature("metasig")),
            Box::new(VerifyError::HiddenRecord),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions() {
        fn takes(_: WormError) {}
        takes(WireError { expected: "x" }.into());
        takes(scpu::DeviceError::Tampered(scpu::TamperCause::Voltage).into());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<WormError>();
        check::<VerifyError>();
    }
}
