//! WORM record attributes — the `attr` field of Table 1.
//!
//! Attributes carry "creation time, retention period, applicable regulation
//! policy, shredding algorithm, litigation hold, f_flag, MAC, DAC
//! attributes". They are covered by `metasig`, so they have a canonical
//! encoding and any bit of post-hoc tampering invalidates the SCPU
//! signature.
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::as_conversions))]

use scpu::Timestamp;
use wormstore::Shredder;

use crate::policy::Regulation;
use crate::sn::SerialNumber;
use crate::wire::{WireError, WireReader, WireWriter};

/// A litigation hold placed on a record (§4.2.2, *Litigation*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LitigationHold {
    /// Identifier of the court proceeding.
    pub litigation_id: u64,
    /// Time after which the hold lapses automatically.
    pub hold_until: Timestamp,
    /// The regulator credential `S_reg(SN, time)` that authorized the
    /// hold, kept in `attr` so release can be bound to the same authority.
    pub credential: Vec<u8>,
}

/// WORM-related attributes of a virtual record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordAttributes {
    /// Trusted creation time (stamped by the SCPU).
    pub created_at: Timestamp,
    /// End of the mandated retention period.
    pub retention_until: Timestamp,
    /// Governing regulation.
    pub regulation: Regulation,
    /// Shredding discipline on expiry.
    pub shredder: Shredder,
    /// Active litigation hold, if any.
    pub litigation_hold: Option<LitigationHold>,
    /// Free-form flag bits (`f_flag`, MAC/DAC placeholder).
    pub flags: u32,
}

impl RecordAttributes {
    /// Canonical encoding (the byte string `metasig` covers, together with
    /// the SN).
    pub fn encode(&self) -> Vec<u8> {
        WireWriter::encoded(|w| self.encode_into(w))
    }

    /// Writes the canonical encoding in place (the one definition of
    /// its layout; [`RecordAttributes::encode`] is this into a fresh
    /// writer).
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_str("strongworm.attr.v1");
        w.put_u64(self.created_at.as_millis());
        w.put_u64(self.retention_until.as_millis());
        w.put_u8(self.regulation.code());
        let (kind, arg) = self.shredder.code();
        w.put_u8(kind);
        w.put_u8(arg);
        match &self.litigation_hold {
            None => {
                w.put_u8(0);
            }
            Some(h) => {
                w.put_u8(1);
                w.put_u64(h.litigation_id);
                w.put_u64(h.hold_until.as_millis());
                w.put_bytes(&h.credential);
            }
        }
        w.put_u32(self.flags);
    }

    /// Decodes the canonical encoding.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, unknown codes, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::tagged(bytes, "strongworm.attr.v1", "attr tag")?;
        let created_at = Timestamp::from_millis(r.get_u64()?);
        let retention_until = Timestamp::from_millis(r.get_u64()?);
        let regulation = Regulation::from_code(r.get_u8()?).ok_or(WireError {
            expected: "regulation code",
        })?;
        let shredder = Shredder::from_code(r.get_u8()?, r.get_u8()?).ok_or(WireError {
            expected: "shredder code",
        })?;
        let litigation_hold = match r.get_u8()? {
            0 => None,
            1 => Some(LitigationHold {
                litigation_id: r.get_u64()?,
                hold_until: Timestamp::from_millis(r.get_u64()?),
                credential: r.get_bytes()?.to_vec(),
            }),
            _ => {
                return Err(WireError {
                    expected: "hold presence flag",
                })
            }
        };
        let flags = r.get_u32()?;
        r.expect_end()?;
        Ok(RecordAttributes {
            created_at,
            retention_until,
            regulation,
            shredder,
            litigation_hold,
            flags,
        })
    }
}

/// Canonical message a regulator signs to authorize a litigation hold:
/// `S_reg(SN, current_time, litigation_id)` plus the court-ordered hold
/// timeout (§4.2.2).
pub fn hold_credential_message(
    sn: SerialNumber,
    issued_at: Timestamp,
    litigation_id: u64,
    hold_until: Timestamp,
) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.holdcred.v1");
    w.put_u64(sn.get());
    w.put_u64(issued_at.as_millis());
    w.put_u64(litigation_id);
    w.put_u64(hold_until.as_millis());
    w.finish()
}

/// Canonical message a regulator signs to release a hold.
pub fn release_credential_message(
    sn: SerialNumber,
    issued_at: Timestamp,
    litigation_id: u64,
) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.releasecred.v1");
    w.put_u64(sn.get());
    w.put_u64(issued_at.as_millis());
    w.put_u64(litigation_id);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> RecordAttributes {
        RecordAttributes {
            created_at: Timestamp::from_millis(1_000),
            retention_until: Timestamp::from_millis(100_000),
            regulation: Regulation::Sec17a4,
            shredder: Shredder::MultiPass { passes: 3 },
            litigation_hold: None,
            flags: 0b1010,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = sample();
        assert_eq!(RecordAttributes::decode(&a.encode()).unwrap(), a);

        let mut held = sample();
        held.litigation_hold = Some(LitigationHold {
            litigation_id: 77,
            hold_until: Timestamp::from_millis(500_000),
            credential: vec![1, 2, 3],
        });
        assert_eq!(RecordAttributes::decode(&held.encode()).unwrap(), held);
    }

    #[test]
    fn all_shredders_roundtrip() {
        for s in [
            Shredder::ZeroFill,
            Shredder::MultiPass { passes: 7 },
            Shredder::RandomPass,
        ] {
            let mut a = sample();
            a.shredder = s;
            assert_eq!(RecordAttributes::decode(&a.encode()).unwrap().shredder, s);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RecordAttributes::decode(b"").is_err());
        assert!(RecordAttributes::decode(b"junkjunkjunk").is_err());
        let mut enc = sample().encode();
        enc.push(0); // trailing byte
        assert!(RecordAttributes::decode(&enc).is_err());
        let enc = sample().encode();
        assert!(RecordAttributes::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn any_field_change_alters_encoding() {
        let base = sample().encode();
        let mut a = sample();
        a.flags ^= 1;
        assert_ne!(a.encode(), base);
        let mut a = sample();
        a.retention_until = a.retention_until.after(Duration::from_millis(1));
        assert_ne!(a.encode(), base);
        let mut a = sample();
        a.regulation = Regulation::Hipaa;
        assert_ne!(a.encode(), base);
    }

    #[test]
    fn credential_messages_are_domain_separated() {
        let sn = SerialNumber(9);
        let t = Timestamp::from_millis(5);
        let until = Timestamp::from_millis(99);
        assert_ne!(
            hold_credential_message(sn, t, 1, until),
            release_credential_message(sn, t, 1)
        );
        assert_ne!(
            hold_credential_message(sn, t, 1, until),
            hold_credential_message(sn, t, 2, until)
        );
        assert_ne!(
            hold_credential_message(sn, t, 1, until),
            hold_credential_message(sn, t, 1, Timestamp::from_millis(98))
        );
    }
}
