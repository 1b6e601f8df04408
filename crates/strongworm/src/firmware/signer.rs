//! Witnessing: the write path and the deferred-strength machinery (§4.3).
//!
//! During bursts the firmware issues cheap short-lived signatures (512-bit
//! RSA) or HMACs and queues the signed payloads; during idle periods it
//! re-signs them with the permanent key `s` and pushes the strengthened
//! witnesses to the host through the outbox — "within their security
//! lifetime".

use scpu::{Env, Op, Timestamp};
use wormcrypt::{ct_eq, Hmac, Sha256};

use crate::attr::RecordAttributes;
use crate::config::WitnessMode;
use crate::policy::RetentionPolicy;
use crate::sn::SerialNumber;
use crate::witness::{data_payload, meta_payload, weak_wrap, Signature, Witness};

use super::{
    reject, FirmwareError, OutboxItem, WitnessField, WormFirmware, WormResponse, WriteData,
    WriteReceipt,
};

/// Secure-memory estimate per pending-strengthen entry (payload + keys).
const PENDING_OVERHEAD_BYTES: usize = 48;

/// A deferred witness awaiting idle-time strengthening.
#[derive(Clone, Debug)]
pub(crate) struct PendingStrengthen {
    /// The exact payload the strong signature must cover.
    pub payload: Vec<u8>,
    /// Secure memory reserved for this entry.
    pub reserved: usize,
}

impl WitnessField {
    fn code(self) -> u8 {
        match self {
            WitnessField::Meta => 0,
            WitnessField::Data => 1,
        }
    }
}

impl WormFirmware {
    /// `Write` (§4.2.2): issues the next serial number, stamps trusted
    /// attributes, and witnesses `(SN, attr)` and `(SN, Hash(data))` at
    /// the requested strength tier.
    pub(crate) fn write(
        &mut self,
        env: &mut Env,
        policy: RetentionPolicy,
        flags: u32,
        data: WriteData,
        witness: WitnessMode,
    ) -> Result<WormResponse, FirmwareError> {
        self.booted()?;
        if witness == WitnessMode::Deferred {
            self.maybe_rotate_weak_key(env);
        }
        let now = env.now();

        // Compute (or accept) the chained data hash (Table 1).
        let (chain_hash, audit_pending) = match &data {
            WriteData::Full(records) => {
                let total: usize = records.iter().map(|r| r.len()).sum();
                env.charge(Op::DmaIn { bytes: total });
                env.charge(Op::Sha256 { bytes: total });
                let digest = crate::vrd::data_chain_hash(records.iter().map(|r| r.as_slice()));
                (digest, false)
            }
            WriteData::HostHash { chain_hash, .. } => {
                if chain_hash.len() != 32 {
                    return reject("host-provided data hash must be 32 bytes");
                }
                env.charge(Op::DmaIn { bytes: 32 });
                (chain_hash.clone(), true)
            }
        };

        let attr = {
            let s = self.booted_mut()?;
            s.sn_current = s.sn_current.next();
            RecordAttributes {
                created_at: now,
                retention_until: now.after(policy.retention),
                regulation: policy.regulation,
                shredder: policy.shredder,
                litigation_hold: None,
                flags,
            }
        };
        let sn = self.booted()?.sn_current;
        let meta = meta_payload(sn, &attr.encode());
        let datap = data_payload(sn, &chain_hash);

        let [metasig, datasig] = self.issue_witnesses(env, sn, &meta, &datap, witness)?;

        if audit_pending {
            if let WriteData::HostHash { chain_hash, .. } = data {
                self.pending_audits.insert(sn, chain_hash);
            }
        }

        // Schedule expiration; on secure-memory exhaustion the host keeps
        // the entry instead and re-arms it from the signed attributes
        // (§4.2.2: VEXP "subject to secure storage space").
        let vexp_spilled = self
            .vexp
            .insert(env.memory(), sn, attr.retention_until, policy.shredder)
            .is_err();
        if vexp_spilled {
            self.spilled += 1;
        }

        Ok(WormResponse::Written(WriteReceipt {
            sn,
            attr,
            metasig,
            datasig,
            vexp_spilled,
        }))
    }

    /// Issues `metasig` and `datasig` at the requested tier, registering
    /// deferred tiers for idle-time strengthening. The two go out under one
    /// key, so an RSA tier signs them as one pair; the device is charged
    /// two signatures all the same.
    fn issue_witnesses(
        &mut self,
        env: &mut Env,
        sn: SerialNumber,
        meta: &[u8],
        data: &[u8],
        mode: WitnessMode,
    ) -> Result<[Witness; 2], FirmwareError> {
        let witnesses = match mode {
            WitnessMode::Strong => return Ok(self.sign_strong_pair(env, meta, data)),
            WitnessMode::Deferred => {
                let (weak_bits, lifetime) = (self.cfg.weak_bits, self.cfg.weak_lifetime);
                env.charge(Op::RsaSign { bits: weak_bits });
                env.charge(Op::RsaSign { bits: weak_bits });
                let s = self.booted()?;
                let expires_at = env.now().after(lifetime).min(s.weak_cert.max_sig_expiry);
                Signature::sign_pair(
                    &s.weak_key,
                    &weak_wrap(meta, expires_at),
                    &weak_wrap(data, expires_at),
                )
                .map(|sig| Witness::Weak { sig, expires_at })
            }
            WitnessMode::Hmac => {
                let s = self.booted()?;
                [meta, data].map(|payload| {
                    env.charge(Op::Hmac {
                        bytes: payload.len(),
                    });
                    Witness::Mac {
                        tag: Hmac::<Sha256>::mac(&s.hmac_key, payload),
                    }
                })
            }
        };
        self.register_pending(env, sn, WitnessField::Meta, meta);
        self.register_pending(env, sn, WitnessField::Data, data);
        Ok(witnesses)
    }

    /// Signs `payload` with the permanent key `s`.
    pub(crate) fn sign_strong(&mut self, env: &mut Env, payload: &[u8]) -> Witness {
        env.charge(Op::RsaSign {
            bits: self.cfg.strong_bits,
        });
        let s = self.booted_invariant();
        Witness::Strong(Signature::sign(&s.sign_key, payload))
    }

    /// Signs two payloads with the permanent key `s` in one private-key
    /// operation, charged as the two signatures they are.
    fn sign_strong_pair(&mut self, env: &mut Env, a: &[u8], b: &[u8]) -> [Witness; 2] {
        let bits = self.cfg.strong_bits;
        env.charge(Op::RsaSign { bits });
        env.charge(Op::RsaSign { bits });
        let s = self.booted_invariant();
        Signature::sign_pair(&s.sign_key, a, b).map(Witness::Strong)
    }

    /// Signs a deletion payload with the deletion key `d`.
    pub(crate) fn sign_deletion(&mut self, env: &mut Env, payload: &[u8]) -> Signature {
        env.charge(Op::RsaSign {
            bits: self.cfg.strong_bits,
        });
        let s = self.booted_invariant();
        Signature::sign(&s.del_key, payload)
    }

    /// Queues a deferred witness for strengthening. If secure memory is
    /// exhausted the firmware degrades gracefully by strengthening
    /// *immediately* (correct but slow — exactly the trade-off the paper's
    /// memory constraint forces).
    fn register_pending(
        &mut self,
        env: &mut Env,
        sn: SerialNumber,
        field: WitnessField,
        payload: &[u8],
    ) {
        let reserved = payload.len() + PENDING_OVERHEAD_BYTES;
        if env.memory().reserve(reserved).is_ok() {
            self.pending.insert(
                (sn, field.code()),
                PendingStrengthen {
                    payload: payload.to_vec(),
                    reserved,
                },
            );
        } else {
            let witness = self.sign_strong(env, payload);
            self.push_strengthened(sn, field, witness);
        }
    }

    /// Hands the host a strengthened witness to install in the VRD.
    fn push_strengthened(&mut self, sn: SerialNumber, field: WitnessField, witness: Witness) {
        self.outbox
            .push(OutboxItem::Strengthened { sn, field, witness });
    }

    /// Removes any deferred entries for `sn` (record deleted before
    /// strengthening — no point signing a dead record).
    pub(crate) fn drop_pending_for(&mut self, env: &mut Env, sn: SerialNumber) {
        for code in [0u8, 1u8] {
            if let Some(p) = self.pending.remove(&(sn, code)) {
                env.memory().release(p.reserved);
            }
        }
        self.pending_audits.remove(&sn);
    }

    /// Idle-time strengthening: re-signs queued payloads with `s` until
    /// the virtual-time budget runs out (§4.3).
    pub(crate) fn strengthen_pending(&mut self, env: &mut Env, budget_ns: u64) {
        let per_sig = env.peek_cost(Op::RsaSign {
            bits: self.cfg.strong_bits,
        });
        let mut spent = 0u64;
        while spent + per_sig <= budget_ns || (per_sig == 0 && !self.pending.is_empty()) {
            let Some(((sn, code), entry)) = self.pending.pop_first() else {
                break;
            };
            env.memory().release(entry.reserved);
            spent += per_sig;
            // A record's `Data` entry is the key after its `Meta` entry:
            // where the budget covers a second signature the two are one
            // pair.
            let partner = if code == WitnessField::Meta.code() && spent + per_sig <= budget_ns {
                self.pending.remove(&(sn, WitnessField::Data.code()))
            } else {
                None
            };
            match partner {
                Some(data) => {
                    env.memory().release(data.reserved);
                    spent += per_sig;
                    let [meta, data] = self.sign_strong_pair(env, &entry.payload, &data.payload);
                    self.push_strengthened(sn, WitnessField::Meta, meta);
                    self.push_strengthened(sn, WitnessField::Data, data);
                }
                None => {
                    let field = if code == WitnessField::Meta.code() {
                        WitnessField::Meta
                    } else {
                        WitnessField::Data
                    };
                    let witness = self.sign_strong(env, &entry.payload);
                    self.push_strengthened(sn, field, witness);
                }
            }
            if per_sig == 0 && self.pending.is_empty() {
                break;
            }
        }
    }

    /// Verifies a witness the host presents back to the firmware (e.g.,
    /// the current `metasig` in a litigation request). Uses the device's
    /// own public keys, the weak-key history, and the HMAC key.
    pub(crate) fn verify_own_witness(
        &self,
        now: Timestamp,
        payload: &[u8],
        witness: &Witness,
    ) -> bool {
        let s = match self.state.as_ref() {
            Some(s) => s,
            None => return false,
        };
        match witness {
            Witness::Strong(sig) => sig.verify(s.sign_key.public(), payload),
            Witness::Weak { sig, expires_at } => {
                if *expires_at < now {
                    return false;
                }
                let wrapped = weak_wrap(payload, *expires_at);
                if sig.verify(s.weak_key.public(), &wrapped) {
                    return true;
                }
                s.weak_history.iter().any(|k| sig.verify(k, &wrapped))
            }
            Witness::Mac { tag } => ct_eq(&Hmac::<Sha256>::mac(&s.hmac_key, payload), tag),
        }
    }

    /// `AuditData`: verifies a trust-host-hash write's claimed chain hash
    /// against the full data (§4.2.2: "verified later during idle times").
    pub(crate) fn audit_data(
        &mut self,
        env: &mut Env,
        sn: SerialNumber,
        data: Vec<Vec<u8>>,
    ) -> Result<WormResponse, FirmwareError> {
        self.booted()?;
        let claimed = match self.pending_audits.remove(&sn) {
            Some(h) => h,
            None => return reject(format!("{sn} has no pending audit")),
        };
        let total: usize = data.iter().map(|r| r.len()).sum();
        env.charge(Op::DmaIn { bytes: total });
        env.charge(Op::Sha256 { bytes: total });
        let digest = crate::vrd::data_chain_hash(data.iter().map(|r| r.as_slice()));
        let ok = ct_eq(&digest, &claimed);
        if !ok {
            self.outbox.push(OutboxItem::AuditFailure { sn });
        }
        Ok(WormResponse::Audited(ok))
    }
}
