//! Witnessing constructs: signatures, witness tiers, and the canonical
//! payloads the SCPU signs.
//!
//! All SCPU trust flows through a handful of signed statements. Each has a
//! domain-separated canonical payload defined here, so neither the host
//! nor a client can repurpose one signature as another:
//!
//! * `metasig = S_s("meta", SN, attr)` and
//!   `datasig = S_s("data", SN, Hash(data))` — Table 1;
//! * head and base certificates with timestamps — §4.2.1;
//! * correlated deletion-window bound pairs — §4.2.1;
//! * deletion proofs `S_d("del", SN, t)` — §4.2.2.
//!
//! [`Witness`] captures the paper's three strength tiers (§4.3): permanent
//! strong signatures, short-lived weak signatures awaiting strengthening,
//! and HMACs verifiable only by the SCPU itself.

use scpu::Timestamp;
use wormcrypt::{HashAlg, RsaPrivateKey, RsaPublicKey};

use crate::attr::RecordAttributes;
use crate::sn::SerialNumber;
use crate::wire::WireWriter;

/// Role of an SCPU-held key, bound into its certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyRole {
    /// `s` — the permanent witnessing key (metasig, datasig, head/base,
    /// window bounds).
    Sign,
    /// `d` — the deletion-proof key.
    Delete,
    /// A short-lived burst key (deferred-strength scheme).
    Weak,
    /// The regulatory authority issuing litigation credentials.
    Regulator,
}

impl KeyRole {
    /// Stable code used in certificates.
    pub fn code(self) -> u8 {
        match self {
            KeyRole::Sign => 1,
            KeyRole::Delete => 2,
            KeyRole::Weak => 3,
            KeyRole::Regulator => 4,
        }
    }
}

/// An RSA signature tagged with the signing key's fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Fingerprint of the signing key (first 8 bytes of SHA-256(n‖e)).
    pub key_id: [u8; 8],
    /// PKCS#1 v1.5 signature bytes.
    pub bytes: Vec<u8>,
}

impl Signature {
    /// Signs `msg` with `key` (SHA-256, PKCS#1 v1.5), tagging the
    /// signature with the key's fingerprint.
    ///
    /// Every signing key in this stack — SCPU keys minted at `Init`,
    /// authority keys from `generate` — is created with a modulus sized
    /// to hold a SHA-256 digest, so signing cannot fail. A failure here
    /// means the key material itself is corrupt, and the enclosure must
    /// halt rather than emit unsigned evidence.
    #[expect(
        clippy::expect_used,
        reason = "every signing key is minted with a modulus sized for a SHA-256 digest (see doc); failure means corrupt key material and must halt the enclosure"
    )]
    pub fn sign(key: &RsaPrivateKey, msg: &[u8]) -> Signature {
        let sig = key.sign(msg, HashAlg::Sha256);
        Signature {
            key_id: key.public().fingerprint(),
            bytes: sig.expect("modulus sized for SHA-256"),
        }
    }

    /// Signs each of `msgs` with one `key`: one [`Signature::sign`] each,
    /// byte for byte, with up to four in one private-key pass where the
    /// key's engine takes them (`RsaPrivateKey::sign_many`). The
    /// constructs the paper issues in twos go through here — `metasig`
    /// with `datasig` (Table 1) and the two bounds of a deleted window
    /// (§4.2.1) — and so do the records of one `Write` command.
    #[expect(
        clippy::expect_used,
        reason = "as in `sign`: every signing key is minted with a modulus sized for a SHA-256 digest; failure means corrupt key material and must halt the enclosure"
    )]
    pub fn sign_many(key: &RsaPrivateKey, msgs: &[&[u8]]) -> Vec<Signature> {
        let sigs = key.sign_many(msgs, HashAlg::Sha256);
        sigs.expect("modulus sized for SHA-256")
            .into_iter()
            .map(|bytes| Signature {
                key_id: key.public().fingerprint(),
                bytes,
            })
            .collect()
    }

    /// Verifies this signature over `msg` with `key`, also checking the
    /// fingerprint matches.
    pub fn verify(&self, key: &RsaPublicKey, msg: &[u8]) -> bool {
        key.fingerprint() == self.key_id && key.verify(msg, &self.bytes, HashAlg::Sha256)
    }
}

/// One witnessing construct at one of the three strength tiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// Permanent-key signature.
    Strong(Signature),
    /// Short-lived-key signature; worthless after `expires_at` unless
    /// strengthened first.
    Weak {
        /// The short-lived signature.
        sig: Signature,
        /// End of the construct's security lifetime.
        expires_at: Timestamp,
    },
    /// Keyed MAC under an SCPU-internal key; clients cannot verify it
    /// until the SCPU upgrades it to a signature (§4.3, *HMACs*).
    Mac {
        /// The authentication tag.
        tag: Vec<u8>,
    },
}

impl Witness {
    /// Whether this is a full-strength signature.
    pub fn is_strong(&self) -> bool {
        matches!(self, Witness::Strong(_))
    }

    /// Whether this witness still needs SCPU strengthening.
    pub fn needs_strengthening(&self) -> bool {
        !self.is_strong()
    }

    /// Short human-readable tier name.
    pub fn tier(&self) -> &'static str {
        match self {
            Witness::Strong(_) => "strong",
            Witness::Weak { .. } => "weak",
            Witness::Mac { .. } => "hmac",
        }
    }
}

/// A statement the SCPU signs, by its fields. Each is one canonical
/// payload: [`Statement::payload`] builds it (what the `*_payload`
/// function of the same name returns) and [`Statement::put`] writes it in
/// place, which is how a verifier hashes a statement in a buffer it
/// reuses.
#[derive(Clone, Copy, Debug)]
pub enum Statement<'a> {
    /// `metasig`'s: binds a serial number to its attributes.
    Meta(SerialNumber, &'a RecordAttributes),
    /// `datasig`'s: binds a serial number to the chained hash of its data
    /// records.
    Data(SerialNumber, &'a [u8]),
    /// The head certificate `S_s(SN_current, t)` (§4.2.1 freshness
    /// mechanism (ii)).
    Head(SerialNumber, Timestamp),
    /// The base certificate `S_s(SN_base)` with its anti-replay expiration
    /// time (§4.2.1).
    Base(SerialNumber, Timestamp),
    /// The composite freshness head binding: shard count, root, time.
    Composite(u32, &'a [u8], Timestamp),
    /// One deleted-window bound: window id, bound, side.
    Window(u64, SerialNumber, WindowSide),
    /// A deletion proof `S_d(SN)` with the trusted deletion time.
    Deletion(SerialNumber, Timestamp),
}

impl Statement<'_> {
    /// Writes this statement's canonical payload into `w`.
    pub fn put(&self, w: &mut WireWriter) {
        match *self {
            Statement::Meta(sn, attr) => put_meta(w, sn, |w| attr.encode_into(w)),
            Statement::Data(sn, data_hash) => {
                w.put_str("strongworm.data.v1");
                w.put_u64(sn.get());
                w.put_bytes(data_hash);
            }
            Statement::Head(sn_current, issued_at) => {
                w.put_str("strongworm.head.v1");
                w.put_u64(sn_current.get());
                w.put_u64(issued_at.as_millis());
            }
            Statement::Base(sn_base, expires_at) => {
                w.put_str("strongworm.base.v1");
                w.put_u64(sn_base.get());
                w.put_u64(expires_at.as_millis());
            }
            Statement::Composite(shard_count, root, issued_at) => {
                w.put_str("strongworm.composite.v1");
                w.put_u32(shard_count);
                w.put_bytes(root);
                w.put_u64(issued_at.as_millis());
            }
            Statement::Window(window_id, bound, side) => {
                w.put_str("strongworm.window.v1");
                w.put_u64(window_id);
                w.put_u8(match side {
                    WindowSide::Lower => 0,
                    WindowSide::Upper => 1,
                });
                w.put_u64(bound.get());
            }
            Statement::Deletion(sn, deleted_at) => {
                w.put_str("strongworm.del.v1");
                w.put_u64(sn.get());
                w.put_u64(deleted_at.as_millis());
            }
        }
    }

    /// This statement's canonical payload.
    pub fn payload(&self) -> Vec<u8> {
        WireWriter::encoded(|w| self.put(w))
    }
}

/// `metasig`'s payload with the attributes' encoding written by `attr`:
/// the one layout both [`Statement::Meta`] and [`meta_payload`] use.
fn put_meta(w: &mut WireWriter, sn: SerialNumber, attr: impl FnOnce(&mut WireWriter)) {
    w.put_str("strongworm.meta.v1");
    w.put_u64(sn.get());
    w.put_nested(attr);
}

/// Payload of `metasig` over attributes already encoded
/// ([`RecordAttributes::encode`]): [`Statement::Meta`]'s bytes.
pub fn meta_payload(sn: SerialNumber, attr_bytes: &[u8]) -> Vec<u8> {
    WireWriter::encoded(|w| {
        put_meta(w, sn, |w| {
            w.put_raw(attr_bytes);
        });
    })
}

/// Payload of `datasig`: binds a serial number to the chained hash of its
/// data records.
pub fn data_payload(sn: SerialNumber, data_hash: &[u8]) -> Vec<u8> {
    Statement::Data(sn, data_hash).payload()
}

/// Payload of the head certificate `S_s(SN_current, t)` (§4.2.1 freshness
/// mechanism (ii)).
pub fn head_payload(sn_current: SerialNumber, issued_at: Timestamp) -> Vec<u8> {
    Statement::Head(sn_current, issued_at).payload()
}

/// Payload of the base certificate `S_s(SN_base)` with its anti-replay
/// expiration time (§4.2.1).
pub fn base_payload(sn_base: SerialNumber, expires_at: Timestamp) -> Vec<u8> {
    Statement::Base(sn_base, expires_at).payload()
}

/// Payload of the composite freshness head binding: the coordinator
/// shard's SCPU signs the shard count and the root hash folding every
/// shard's head certificate, so a host cannot present shard heads from
/// different instants (or hide a shard entirely) without forging a
/// signature — cross-shard equivocation becomes provable, not trusted.
pub fn composite_payload(shard_count: u32, root: &[u8], issued_at: Timestamp) -> Vec<u8> {
    Statement::Composite(shard_count, root, issued_at).payload()
}

/// Which end of a deleted window a bound signature covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSide {
    /// Lower bound (first expired SN of the segment).
    Lower,
    /// Upper bound (last expired SN of the segment).
    Upper,
}

/// Payload of one deleted-window bound. The shared random `window_id`
/// correlates the two bounds so the host cannot "combine two unrelated
/// window bounds and thus in effect construct arbitrary windows" (§4.2.1).
pub fn window_payload(window_id: u64, bound: SerialNumber, side: WindowSide) -> Vec<u8> {
    Statement::Window(window_id, bound, side).payload()
}

/// Payload of a deletion proof `S_d(SN)` with the trusted deletion time.
pub fn deletion_payload(sn: SerialNumber, deleted_at: Timestamp) -> Vec<u8> {
    Statement::Deletion(sn, deleted_at).payload()
}

/// Payload of a key certificate: the CA binds a public key to a role.
pub fn key_cert_payload(role: KeyRole, key: &RsaPublicKey) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.keycert.v1");
    w.put_u8(role.code());
    w.put_bytes(&key.to_bytes());
    w.finish()
}

/// Payload of a weak-key certificate: the permanent key `s` binds a
/// short-lived public key to the latest signature expiry it may assert.
/// Because factoring the weak modulus takes at least the security
/// lifetime, by the time an adversary recovers the key every expiry it
/// could claim is already in the past.
pub fn weak_cert_payload(key: &RsaPublicKey, max_sig_expiry: Timestamp) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.weakcert.v1");
    w.put_bytes(&key.to_bytes());
    w.put_u64(max_sig_expiry.as_millis());
    w.finish()
}

/// Wrapper signed by weak keys: binds the witnessed payload to the
/// signature's own expiration time, so the expiry cannot be forged by the
/// host after the fact.
pub fn weak_wrap(payload: &[u8], expires_at: Timestamp) -> Vec<u8> {
    WireWriter::encoded(|w| {
        put_weak_wrap(w, expires_at, |w| {
            w.put_raw(payload);
        });
    })
}

/// [`weak_wrap`] in place, around the payload `payload` writes.
pub(crate) fn put_weak_wrap(
    w: &mut WireWriter,
    expires_at: Timestamp,
    payload: impl FnOnce(&mut WireWriter),
) {
    w.put_str("strongworm.weakwrap.v1");
    w.put_nested(payload);
    w.put_u64(expires_at.as_millis());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use wormcrypt::RsaPrivateKey;

    fn key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(7), 512))
    }

    #[test]
    fn signature_verifies_with_fingerprint_check() {
        let k = key();
        let msg = meta_payload(SerialNumber(1), b"attrs");
        let sig = Signature {
            key_id: k.public().fingerprint(),
            bytes: k.sign(&msg, HashAlg::Sha256).unwrap(),
        };
        assert!(sig.verify(k.public(), &msg));
        // Wrong fingerprint fails even with valid bytes.
        let bad = Signature {
            key_id: [0; 8],
            bytes: sig.bytes.clone(),
        };
        assert!(!bad.verify(k.public(), &msg));
        // Wrong message fails.
        assert!(!sig.verify(k.public(), b"other"));
    }

    #[test]
    fn sign_pair_is_two_signs() {
        let k = key();
        let (a, b) = (
            meta_payload(SerialNumber(1), b"attrs"),
            data_payload(SerialNumber(1), b"h"),
        );
        let sigs = Signature::sign_many(k, &[&a, &b, &b]);
        assert_eq!(sigs, [0, 1, 1].map(|i| Signature::sign(k, [&a, &b][i])));
        let (sa, sb) = (&sigs[0], &sigs[1]);
        assert!(sa.verify(k.public(), &a) && sb.verify(k.public(), &b));
        assert!(!sa.verify(k.public(), &b));
    }

    #[test]
    fn payloads_are_pairwise_distinct() {
        let sn = SerialNumber(5);
        let t = Timestamp::from_millis(9);
        let payloads = [
            meta_payload(sn, b"x"),
            data_payload(sn, b"x"),
            head_payload(sn, t),
            base_payload(sn, t),
            window_payload(1, sn, WindowSide::Lower),
            window_payload(1, sn, WindowSide::Upper),
            deletion_payload(sn, t),
            composite_payload(1, b"x", t),
        ];
        for i in 0..payloads.len() {
            for j in 0..payloads.len() {
                if i != j {
                    assert_ne!(payloads[i], payloads[j], "payload {i} vs {j}");
                }
            }
        }
    }

    /// `metasig`'s payload written in place from the attributes is the
    /// one built from their encoding, with a hold and without, and so is a
    /// weak wrap written around it.
    #[test]
    fn a_statement_written_in_place_is_the_payload_built_from_its_encoding() {
        let mut attr = RecordAttributes {
            created_at: Timestamp::from_millis(1),
            retention_until: Timestamp::from_millis(2),
            regulation: crate::policy::Regulation::Custom,
            shredder: wormstore::Shredder::ZeroFill,
            litigation_hold: None,
            flags: 3,
        };
        let sn = SerialNumber(9);
        let t = Timestamp::from_millis(77);
        for hold in [None, Some(vec![5u8; 64])] {
            attr.litigation_hold = hold.map(|credential| crate::attr::LitigationHold {
                litigation_id: 4,
                hold_until: t,
                credential,
            });
            let built = meta_payload(sn, &attr.encode());
            assert_eq!(Statement::Meta(sn, &attr).payload(), built);
            let wrapped = WireWriter::encoded(|w| {
                put_weak_wrap(w, t, |w| Statement::Meta(sn, &attr).put(w));
            });
            assert_eq!(wrapped, weak_wrap(&built, t));
        }
    }

    #[test]
    fn window_sides_are_bound_to_id() {
        assert_ne!(
            window_payload(1, SerialNumber(5), WindowSide::Lower),
            window_payload(2, SerialNumber(5), WindowSide::Lower)
        );
    }

    #[test]
    fn witness_tiers() {
        let sig = Signature {
            key_id: [1; 8],
            bytes: vec![0; 64],
        };
        let strong = Witness::Strong(sig.clone());
        let weak = Witness::Weak {
            sig,
            expires_at: Timestamp::from_millis(10),
        };
        let mac = Witness::Mac { tag: vec![0; 32] };
        assert!(strong.is_strong() && !strong.needs_strengthening());
        assert!(!weak.is_strong() && weak.needs_strengthening());
        assert!(mac.needs_strengthening());
        assert_eq!(strong.tier(), "strong");
        assert_eq!(weak.tier(), "weak");
        assert_eq!(mac.tier(), "hmac");
    }

    #[test]
    fn key_cert_payload_differs_by_role() {
        let k = key().public();
        assert_ne!(
            key_cert_payload(KeyRole::Sign, k),
            key_cert_payload(KeyRole::Delete, k)
        );
    }
}
