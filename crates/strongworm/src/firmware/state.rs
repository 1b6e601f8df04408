//! Key material, serial-number issuing, and window/base tracking.
//!
//! "The SCPU securely maintains two private signature keys, s and d
//! respectively, that can be verified by WORM data clients" (§4.2.1).
//! This module owns those keys plus the deferred-strength weak key and
//! its certificates, the serial counter, and the in-enclosure view of
//! which serial numbers have expired — the ground truth behind base
//! certificates and deleted-window signatures.

use std::collections::BTreeSet;

use scpu::{Env, Op, Timestamp};
use wormcrypt::{RsaPrivateKey, RsaPublicKey};

use crate::config::{BASE_CERT_LIFETIME, MIN_COMPACTION_RUN};
use crate::proofs::{BaseCert, CompositeBinding, HeadCert, WindowProof};
use crate::sn::SerialNumber;
use crate::witness::{
    base_payload, composite_payload, head_payload, weak_cert_payload, window_payload, Signature,
    WindowSide,
};

use super::{reject, DeviceKeys, FirmwareError, WeakKeyCert, WormFirmware, WormResponse};

/// State that exists only after `Init`.
#[derive(Debug)]
pub(crate) struct BootedState {
    /// Permanent witnessing key `s`.
    pub sign_key: RsaPrivateKey,
    /// Deletion-proof key `d`.
    pub del_key: RsaPrivateKey,
    /// Current short-lived burst key.
    pub weak_key: RsaPrivateKey,
    /// Certificates (by `s`) for every weak key a witness may still
    /// verify under, the current key's last: the one list clients and
    /// the firmware itself check weak witnesses against.
    pub weak_certs: Vec<WeakKeyCert>,
    /// When the weak key must rotate so signatures can keep claiming a
    /// full lifetime.
    pub weak_rotate_after: Timestamp,
    /// HMAC witnessing key (never leaves the device).
    pub hmac_key: [u8; 32],
    /// Regulator public key for litigation credentials.
    pub regulator: RsaPublicKey,
    /// Highest issued serial number.
    pub sn_current: SerialNumber,
    /// Lowest possibly-active serial number; everything below has been
    /// rightfully deleted.
    pub sn_base: SerialNumber,
    /// Expired SNs at or above the base, not yet compacted into windows.
    pub expired: BTreeSet<SerialNumber>,
    /// Compacted deleted windows (disjoint, sorted).
    pub windows: Vec<(SerialNumber, SerialNumber)>,
    /// Last head-certificate issue time (heartbeat scheduling).
    pub last_head_issue: Timestamp,
}

impl WormFirmware {
    pub(crate) fn booted(&self) -> Result<&BootedState, FirmwareError> {
        self.state
            .as_ref()
            .ok_or_else(|| FirmwareError("device not initialized".into()))
    }

    pub(crate) fn booted_mut(&mut self) -> Result<&mut BootedState, FirmwareError> {
        self.state
            .as_mut()
            .ok_or_else(|| FirmwareError("device not initialized".into()))
    }

    /// The booted state on internal paths that cannot be reached before
    /// `Init`: every command handler gates on [`WormFirmware::booted`]
    /// first, and the alarm/idle hooks return early while `state` is
    /// `None`. A `None` here is firmware memory corruption, and the
    /// enclosure halts rather than fabricate evidence.
    #[expect(
        clippy::expect_used,
        reason = "reachable only behind a `booted()?` gate or an explicit `state.is_none()` early return (see doc); a `None` here must halt the enclosure"
    )]
    pub(crate) fn booted_invariant(&self) -> &BootedState {
        self.state.as_ref().expect("booted invariant")
    }

    /// `Init`: generates all key material inside the enclosure.
    pub(crate) fn init(
        &mut self,
        env: &mut Env,
        regulator: RsaPublicKey,
    ) -> Result<WormResponse, FirmwareError> {
        if self.state.is_some() {
            return reject("device already initialized");
        }
        let now = env.now();
        let strong_bits = self.cfg.strong_bits;
        let weak_bits = self.cfg.weak_bits;
        let sign_key = RsaPrivateKey::generate(env.rng(), strong_bits);
        let del_key = RsaPrivateKey::generate(env.rng(), strong_bits);
        let weak_key = RsaPrivateKey::generate(env.rng(), weak_bits);
        let mut hmac_key = [0u8; 32];
        env.rng().fill(&mut hmac_key);

        let max_sig_expiry = now.after(2 * self.cfg.weak_lifetime);
        let weak_cert = Self::make_weak_cert(env, &sign_key, weak_key.public(), max_sig_expiry);

        self.state = Some(BootedState {
            sign_key,
            del_key,
            weak_key,
            weak_certs: vec![weak_cert],
            weak_rotate_after: now.after(self.cfg.weak_lifetime),
            hmac_key,
            regulator,
            // Boot the counter at the configured origin: 0 for a lone
            // SCPU, or the shard's lane origin `i·2^56` in a sharded
            // deployment — within a lane numbering stays dense, so the
            // base-advance and window-adjacency invariants hold verbatim.
            sn_current: SerialNumber(self.cfg.sn_origin),
            sn_base: SerialNumber(self.cfg.sn_origin + 1),
            expired: BTreeSet::new(),
            windows: Vec::new(),
            last_head_issue: now,
        });
        Ok(WormResponse::Ready)
    }

    fn make_weak_cert(
        env: &mut Env,
        sign_key: &RsaPrivateKey,
        weak_pub: &RsaPublicKey,
        max_sig_expiry: Timestamp,
    ) -> WeakKeyCert {
        env.charge(Op::RsaSign {
            bits: sign_key.public().modulus_bits(),
        });
        let payload = weak_cert_payload(weak_pub, max_sig_expiry);
        WeakKeyCert {
            key: weak_pub.clone(),
            max_sig_expiry,
            sig: Signature::sign(sign_key, &payload),
        }
    }

    /// Rotates the weak key if its certificate can no longer cover a full
    /// signature lifetime, and drops every certificate whose
    /// `max_sig_expiry` has passed: a weak witness claims no later expiry
    /// than its certificate and verifies only until that expiry, so no
    /// witness needs them. Rotating after `L` and certifying to `2L`
    /// leaves at most two live certificates.
    pub(crate) fn maybe_rotate_weak_key(&mut self, env: &mut Env) {
        let now = env.now();
        let cfg_lifetime = self.cfg.weak_lifetime;
        let weak_bits = self.cfg.weak_bits;
        let state = match self.state.as_mut() {
            Some(s) => s,
            None => return,
        };
        if now < state.weak_rotate_after {
            return;
        }
        let new_key = RsaPrivateKey::generate(env.rng(), weak_bits);
        let max_sig_expiry = now.after(2 * cfg_lifetime);
        let cert = Self::make_weak_cert(env, &state.sign_key, new_key.public(), max_sig_expiry);
        state.weak_key = new_key;
        state.weak_certs.retain(|c| c.max_sig_expiry >= now);
        state.weak_certs.push(cert);
        state.weak_rotate_after = now.after(cfg_lifetime);
    }

    /// `GetKeys`: the permanent keys and every live weak-key certificate.
    pub(crate) fn get_keys(&self) -> Result<WormResponse, FirmwareError> {
        let s = self.booted()?;
        let keys = DeviceKeys {
            sign: s.sign_key.public().clone(),
            delete: s.del_key.public().clone(),
        };
        Ok(WormResponse::Keys(keys, s.weak_certs.clone()))
    }

    /// Issues a fresh timestamped head certificate.
    pub(crate) fn refresh_head(&mut self, env: &mut Env) -> Result<HeadCert, FirmwareError> {
        let now = env.now();
        let bits = self.cfg.strong_bits;
        env.charge(Op::RsaSign { bits });
        let s = self.booted_mut()?;
        let payload = head_payload(s.sn_current, now);
        let cert = HeadCert {
            sn_current: s.sn_current,
            issued_at: now,
            sig: Signature::sign(&s.sign_key, &payload),
        };
        s.last_head_issue = now;
        Ok(cert)
    }

    /// `SignComposite`: signs a composite-freshness binding over a shard
    /// count and per-shard head root. The SCPU stamps the trusted issue
    /// time; the host supplies the root, so the statement signed is only
    /// "these shard heads were presented together at time t" — each
    /// constituent head is still independently signed by its own shard.
    pub(crate) fn sign_composite(
        &mut self,
        env: &mut Env,
        shard_count: u32,
        root: Vec<u8>,
    ) -> Result<CompositeBinding, FirmwareError> {
        self.booted()?;
        if shard_count == 0 {
            return reject("composite binding over zero shards");
        }
        if root.len() != 32 {
            return reject("composite root must be a SHA-256 digest");
        }
        let now = env.now();
        let bits = self.cfg.strong_bits;
        env.charge(Op::RsaSign { bits });
        let s = self.booted()?;
        let payload = composite_payload(shard_count, &root, now);
        Ok(CompositeBinding {
            shard_count,
            root,
            issued_at: now,
            sig: Signature::sign(&s.sign_key, &payload),
        })
    }

    /// Signs an audit-chain anchor over `(seq, chain_hash)` with the
    /// permanent key `s`, stamping the trusted issue time itself. The
    /// payload is domain-separated (`wormaudit.anchor.v1`), so the
    /// signature can never be replayed as any other SCPU statement.
    pub(crate) fn sign_audit_anchor(
        &mut self,
        env: &mut Env,
        seq: u64,
        chain_hash: Vec<u8>,
    ) -> Result<wormaudit::AuditAnchor, FirmwareError> {
        self.booted()?;
        if chain_hash.len() != 32 {
            return reject("audit chain hash must be a SHA-256 digest");
        }
        let now = env.now();
        let bits = self.cfg.strong_bits;
        env.charge(Op::RsaSign { bits });
        let s = self.booted()?;
        let issued_at_ms = now.as_millis();
        let payload = wormaudit::anchor_payload(seq, &chain_hash, issued_at_ms);
        let sig = Signature::sign(&s.sign_key, &payload);
        let chain_hash: [u8; 32] = chain_hash.as_slice().try_into().map_err(|_| {
            // Length was checked above; this arm is unreachable but kept
            // typed rather than panicking inside the enclosure.
            FirmwareError("audit chain hash must be a SHA-256 digest".into())
        })?;
        Ok(wormaudit::AuditAnchor {
            seq,
            chain_hash,
            issued_at_ms,
            key_id: sig.key_id,
            sig: sig.bytes,
        })
    }

    /// Issues a fresh base certificate.
    pub(crate) fn refresh_base(&mut self, env: &mut Env) -> Result<BaseCert, FirmwareError> {
        let now = env.now();
        let bits = self.cfg.strong_bits;
        let lifetime = BASE_CERT_LIFETIME;
        env.charge(Op::RsaSign { bits });
        let s = self.booted()?;
        let expires_at = now.after(lifetime);
        let payload = base_payload(s.sn_base, expires_at);
        Ok(BaseCert {
            sn_base: s.sn_base,
            expires_at,
            sig: Signature::sign(&s.sign_key, &payload),
        })
    }

    /// Records that `sn` was deleted and advances the base past any
    /// contiguous deleted prefix. Returns `true` if the base moved.
    pub(crate) fn mark_expired(&mut self, sn: SerialNumber) -> bool {
        // Unbooted firmware has no base to advance.
        let Some(s) = self.state.as_mut() else {
            return false;
        };
        if sn >= s.sn_base {
            s.expired.insert(sn);
        }
        let mut moved = false;
        loop {
            if s.expired.remove(&s.sn_base) {
                s.sn_base = s.sn_base.next();
                moved = true;
                continue;
            }
            // The base may sit at the start of a compacted window.
            let base = s.sn_base;
            if let Some(&(_, hi)) = s.windows.iter().find(|&&(lo, hi)| lo <= base && base <= hi) {
                s.sn_base = hi.next();
                moved = true;
                continue;
            }
            break;
        }
        if moved {
            // Windows fully below the base carry no information any more.
            let base = s.sn_base;
            s.windows.retain(|&(_, hi)| hi >= base);
        }
        moved
    }

    /// `CompactWindow`: verifies the whole segment is expired and signs
    /// correlated lower/upper bounds (§4.2.1).
    pub(crate) fn compact_window(
        &mut self,
        env: &mut Env,
        lo: SerialNumber,
        hi: SerialNumber,
    ) -> Result<WormResponse, FirmwareError> {
        self.booted()?;
        if lo > hi {
            return reject("window bounds inverted");
        }
        let run = hi.get() - lo.get() + 1;
        if (run as usize) < MIN_COMPACTION_RUN {
            return reject(format!(
                "window of {run} entries below the minimum of {MIN_COMPACTION_RUN}"
            ));
        }
        {
            let s = self.booted()?;
            let mut sn = lo;
            while sn <= hi {
                let covered = s.expired.contains(&sn)
                    || s.windows.iter().any(|&(wlo, whi)| wlo <= sn && sn <= whi)
                    || sn < s.sn_base;
                if !covered {
                    return reject(format!("{sn} is not expired; refusing to certify window"));
                }
                sn = sn.next();
            }
        }
        let window_id = env.rng().next_u64();
        let bits = self.cfg.strong_bits;
        env.charge(Op::RsaSign { bits });
        env.charge(Op::RsaSign { bits });
        let s = self.booted_mut()?;
        let bounds = [
            window_payload(window_id, lo, WindowSide::Lower),
            window_payload(window_id, hi, WindowSide::Upper),
        ];
        let mut sigs = Signature::sign_many(&s.sign_key, &[&bounds[0], &bounds[1]]).into_iter();
        let (Some(lo_sig), Some(hi_sig)) = (sigs.next(), sigs.next()) else {
            return reject("fewer signatures than window bounds");
        };
        // Externalize: per-SN knowledge is replaced by the interval.
        let mut sn = lo;
        while sn <= hi {
            s.expired.remove(&sn);
            sn = sn.next();
        }
        let pos = s.windows.partition_point(|&(wlo, _)| wlo < lo);
        s.windows.insert(pos, (lo, hi));
        Ok(WormResponse::Window(WindowProof {
            window_id,
            lo,
            hi,
            lo_sig,
            hi_sig,
        }))
    }
}
