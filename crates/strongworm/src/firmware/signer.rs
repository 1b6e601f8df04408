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
use crate::sn::SerialNumber;
use crate::witness::{data_payload, meta_payload, weak_wrap, Signature, Witness};

use super::{
    reject, FirmwareError, OutboxItem, WitnessField, WormFirmware, WormResponse, WriteData,
    WriteItem, WriteReceipt,
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

/// One write of a `Write` command between its serial number and its
/// witnesses.
struct Issued {
    sn: SerialNumber,
    attr: RecordAttributes,
    /// `(SN, attr)`, which `metasig` covers.
    meta: Vec<u8>,
    /// `(SN, Hash(data))`, which `datasig` covers.
    data: Vec<u8>,
    witness: WitnessMode,
    /// The host's claimed chain hash, queued for audit (trust-host-hash).
    audit: Option<Vec<u8>>,
}

impl WormFirmware {
    /// `Write` (§4.2.2): for each item, in request order, issues the next
    /// serial number, stamps trusted attributes, and witnesses `(SN,
    /// attr)` and `(SN, Hash(data))` at the item's tier. Each item is
    /// charged what a lone write is — its DMA, its hash and two signatures
    /// — and yields the receipt a lone write would: the RSA tiers sign
    /// every item's pair in one `sign_many`, four signatures a lane pass.
    /// An item the firmware refuses refuses the whole command before any
    /// serial number is issued.
    pub(crate) fn write(
        &mut self,
        env: &mut Env,
        items: Vec<WriteItem>,
    ) -> Result<WormResponse, FirmwareError> {
        self.booted()?;
        let short_hash = |item: &WriteItem| match &item.data {
            WriteData::HostHash { chain_hash, .. } => chain_hash.len() != 32,
            WriteData::Full(_) => false,
        };
        if items.iter().any(short_hash) {
            return reject("host-provided data hash must be 32 bytes");
        }
        if items
            .iter()
            .any(|item| item.witness == WitnessMode::Deferred)
        {
            self.maybe_rotate_weak_key(env);
        }
        let now = env.now();

        let mut issued = Vec::with_capacity(items.len());
        for WriteItem {
            policy,
            flags,
            data,
            witness,
        } in items
        {
            // Compute (or accept) the chained data hash (Table 1).
            let (chain_hash, audit) = match data {
                WriteData::Full(records) => {
                    let total: usize = records.iter().map(|r| r.len()).sum();
                    env.charge(Op::DmaIn { bytes: total });
                    env.charge(Op::Sha256 { bytes: total });
                    let digest = crate::vrd::data_chain_hash(records.iter().map(|r| r.as_slice()));
                    (digest.to_vec(), None)
                }
                WriteData::HostHash { chain_hash, .. } => {
                    env.charge(Op::DmaIn { bytes: 32 });
                    (chain_hash.clone(), Some(chain_hash))
                }
            };
            let s = self.booted_mut()?;
            s.sn_current = s.sn_current.next();
            let sn = s.sn_current;
            let attr = RecordAttributes {
                created_at: now,
                retention_until: now.after(policy.retention),
                regulation: policy.regulation,
                shredder: policy.shredder,
                litigation_hold: None,
                flags,
            };
            issued.push(Issued {
                sn,
                meta: meta_payload(sn, &attr.encode()),
                data: data_payload(sn, &chain_hash),
                attr,
                witness,
                audit,
            });
        }

        let mut witnesses = self.issue_witnesses(env, &issued)?.into_iter();
        let mut receipts = Vec::with_capacity(issued.len());
        for item in issued {
            let (Some(metasig), Some(datasig)) = (witnesses.next(), witnesses.next()) else {
                return reject("fewer witnesses than writes");
            };
            if item.witness != WitnessMode::Strong {
                self.register_pending(env, item.sn, WitnessField::Meta, &item.meta);
                self.register_pending(env, item.sn, WitnessField::Data, &item.data);
            }
            if let Some(chain_hash) = item.audit {
                self.pending_audits.insert(item.sn, chain_hash);
            }
            // Schedule expiration; on secure-memory exhaustion the host
            // keeps the entry instead and re-arms it from the signed
            // attributes (§4.2.2: VEXP "subject to secure storage space").
            let vexp_spilled = self
                .vexp
                .insert(
                    env.memory(),
                    item.sn,
                    item.attr.retention_until,
                    item.attr.shredder,
                )
                .is_err();
            if vexp_spilled {
                self.spilled += 1;
            }
            receipts.push(WriteReceipt {
                sn: item.sn,
                attr: item.attr,
                metasig,
                datasig,
                vexp_spilled,
            });
        }
        Ok(WormResponse::Written(receipts))
    }

    /// `metasig` and `datasig` of every write, in order, at each write's
    /// tier: two signatures charged a write on an RSA tier, every payload
    /// of a tier signed in one `sign_many`. The deferred tiers' entries
    /// for idle-time strengthening are the caller's to register.
    fn issue_witnesses(
        &mut self,
        env: &mut Env,
        issued: &[Issued],
    ) -> Result<Vec<Witness>, FirmwareError> {
        let payloads_at = |mode: WitnessMode| -> Vec<&[u8]> {
            issued
                .iter()
                .filter(|w| w.witness == mode)
                .flat_map(|w| [&w.meta[..], &w.data[..]])
                .collect()
        };
        let mut strong = self
            .sign_strong_many(env, &payloads_at(WitnessMode::Strong))
            .into_iter();
        let mut weak = self
            .sign_weak_many(env, &payloads_at(WitnessMode::Deferred))?
            .into_iter();
        let mut out = Vec::with_capacity(2 * issued.len());
        for w in issued {
            match w.witness {
                WitnessMode::Strong => out.extend(strong.by_ref().take(2)),
                WitnessMode::Deferred => out.extend(weak.by_ref().take(2)),
                WitnessMode::Hmac => {
                    let s = self.booted()?;
                    for payload in [&w.meta, &w.data] {
                        env.charge(Op::Hmac {
                            bytes: payload.len(),
                        });
                        out.push(Witness::Mac {
                            tag: Hmac::<Sha256>::mac(&s.hmac_key, payload),
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Signs `payload` with the permanent key `s`.
    pub(crate) fn sign_strong(&mut self, env: &mut Env, payload: &[u8]) -> Witness {
        env.charge(Op::RsaSign {
            bits: self.cfg.strong_bits,
        });
        let s = self.booted_invariant();
        Witness::Strong(Signature::sign(&s.sign_key, payload))
    }

    /// Signs each of `payloads` with the permanent key `s`, up to four in
    /// one private-key pass, charged as the signatures they are.
    fn sign_strong_many(&mut self, env: &mut Env, payloads: &[&[u8]]) -> Vec<Witness> {
        let bits = self.cfg.strong_bits;
        for _ in payloads {
            env.charge(Op::RsaSign { bits });
        }
        let s = self.booted_invariant();
        Signature::sign_many(&s.sign_key, payloads)
            .into_iter()
            .map(Witness::Strong)
            .collect()
    }

    /// Signs each of `payloads`, wrapped with one expiry, with the current
    /// short-lived key, charged as the signatures they are.
    fn sign_weak_many(
        &mut self,
        env: &mut Env,
        payloads: &[&[u8]],
    ) -> Result<Vec<Witness>, FirmwareError> {
        let (bits, lifetime) = (self.cfg.weak_bits, self.cfg.weak_lifetime);
        for _ in payloads {
            env.charge(Op::RsaSign { bits });
        }
        let s = self.booted()?;
        let Some(cert) = s.weak_certs.last() else {
            return reject("no weak key certificate");
        };
        let expires_at = env.now().after(lifetime).min(cert.max_sig_expiry);
        let wrapped: Vec<Vec<u8>> = payloads.iter().map(|p| weak_wrap(p, expires_at)).collect();
        let wrapped: Vec<&[u8]> = wrapped.iter().map(Vec::as_slice).collect();
        Ok(Signature::sign_many(&s.weak_key, &wrapped)
            .into_iter()
            .map(|sig| Witness::Weak { sig, expires_at })
            .collect())
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
                    let pair = self.sign_strong_many(env, &[&entry.payload, &data.payload]);
                    for (field, witness) in [WitnessField::Meta, WitnessField::Data]
                        .into_iter()
                        .zip(pair)
                    {
                        self.push_strengthened(sn, field, witness);
                    }
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

    /// `RequeueWitness`: queues a witness the host presents back for
    /// strengthening. The device builds the payload from `sn`, `field` and
    /// `signed`, and queues it only if the witness is not strong, is its
    /// own and still verifies (a weak one has not expired), and the
    /// record is not deleted. A witness already queued is acknowledged as
    /// it stands. Strengthening a payload the device already signed
    /// states nothing new.
    pub(crate) fn requeue_witness(
        &mut self,
        env: &mut Env,
        sn: SerialNumber,
        field: WitnessField,
        signed: &[u8],
        witness: &Witness,
    ) -> Result<WormResponse, FirmwareError> {
        if self.deleted(sn)? {
            return reject(format!("{sn} is deleted"));
        }
        if self.pending.contains_key(&(sn, field.code())) {
            return Ok(WormResponse::Queued);
        }
        let payload = match field {
            WitnessField::Meta => meta_payload(sn, signed),
            WitnessField::Data => data_payload(sn, signed),
        };
        if witness.is_strong() || !self.verify_own_witness(env.now(), &payload, witness) {
            return reject("presented witness is no live deferred witness of this device");
        }
        self.register_pending(env, sn, field, &payload);
        Ok(WormResponse::Queued)
    }

    /// Verifies a witness the host presents back to the firmware (e.g.,
    /// the current `metasig` in a litigation request). Uses the device's
    /// own public keys, its live weak-key certificates, and the HMAC key.
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
                s.weak_certs
                    .iter()
                    .any(|c| *expires_at <= c.max_sig_expiry && sig.verify(&c.key, &wrapped))
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
