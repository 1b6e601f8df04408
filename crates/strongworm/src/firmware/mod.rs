//! WORM firmware — the certified logic running *inside* the SCPU.
//!
//! Everything in this module executes within the trusted enclosure
//! (`scpu::Device`). The host talks to it exclusively through
//! [`WormRequest`]/[`WormResponse`]; private keys, the serial-number
//! counter, the VEXP expiration list, and the expired-SN tracking never
//! leave the device except as signed statements.
//!
//! Responsibilities (paper sections in parentheses):
//!
//! * issuing consecutive serial numbers and the `metasig`/`datasig`
//!   witnesses on writes (§4.2.2 *Write*);
//! * the Retention Monitor: VEXP-driven wake/sleep deletion with
//!   litigation-hold awareness (§4.2.2 *Record Expiration*, *Litigation*);
//! * head/base certificates and deleted-window bound pairs (§4.2.1);
//! * the deferred-strength scheme: weak/HMAC witnessing during bursts and
//!   idle-time strengthening (§4.3).

mod litigation;
mod retention;
mod signer;
mod state;

pub use retention::VEXP_ENTRY_BYTES;

use std::collections::BTreeMap;
use std::time::Duration;

use scpu::{Applet, Env, Timestamp};
use wormcrypt::RsaPublicKey;
use wormstore::Shredder;

use crate::attr::RecordAttributes;
use crate::authority::{HoldCredential, ReleaseCredential};
use crate::config::WitnessMode;
use crate::policy::RetentionPolicy;
use crate::proofs::{BaseCert, CompositeBinding, DeletionProof, HeadCert, WindowProof};
use crate::sn::SerialNumber;
use crate::witness::{Signature, Witness};

use retention::VexpTable;
use signer::PendingStrengthen;
use state::BootedState;

/// Which VRD witness field an item refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WitnessField {
    /// `metasig` over `(SN, attr)`.
    Meta,
    /// `datasig` over `(SN, Hash(data))`.
    Data,
}

/// Data supplied with a write (§4.2.2).
#[derive(Clone, Debug)]
pub enum WriteData {
    /// Full record bytes: the SCPU DMAs them in and hashes them itself.
    Full(Vec<Vec<u8>>),
    /// Host-computed chain hash plus total length — the trust-host-hash
    /// burst mode; the firmware queues the record for later audit.
    HostHash {
        /// Claimed chained hash of the record list.
        chain_hash: Vec<u8>,
        /// Total data length (for throughput accounting and audit).
        total_len: u64,
    },
}

/// A weak (short-lived) key certificate chained off the permanent key `s`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeakKeyCert {
    /// The short-lived public key.
    pub key: RsaPublicKey,
    /// Latest `expires_at` any signature by this key may claim. Because
    /// factoring the weak modulus takes at least the security lifetime,
    /// by the time Alice recovers the private key every expiry it could
    /// assert is already in the past.
    pub max_sig_expiry: Timestamp,
    /// Signature by `s` over `(key, max_sig_expiry)`.
    pub sig: Signature,
}

/// Public keys and certificates the host publishes to clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceKeys {
    /// The permanent witnessing key `s`.
    pub sign: RsaPublicKey,
    /// The deletion-proof key `d`.
    pub delete: RsaPublicKey,
    /// Currently valid weak-key certificate.
    pub weak_cert: WeakKeyCert,
}

/// Receipt returned by a successful write.
#[derive(Clone, Debug)]
pub struct WriteReceipt {
    /// The freshly issued serial number.
    pub sn: SerialNumber,
    /// Attributes as stamped by the firmware (trusted `created_at` and
    /// `retention_until`).
    pub attr: RecordAttributes,
    /// Witness over `(SN, attr)`.
    pub metasig: Witness,
    /// Witness over `(SN, Hash(data))`.
    pub datasig: Witness,
    /// Sealing token handed back when secure memory had no room for the
    /// VEXP entry; the host must re-submit it via
    /// [`WormRequest::SyncVexp`] during an idle period.
    pub vexp_seal: Option<Vec<u8>>,
}

/// Items the firmware pushes out for the host to apply.
#[derive(Clone, Debug)]
pub enum OutboxItem {
    /// A record's retention elapsed: here is its deletion proof; shred the
    /// data with the given discipline.
    Deleted {
        /// SCPU-signed proof of rightful deletion.
        proof: DeletionProof,
        /// Shredding discipline from the record's attributes.
        shredder: Shredder,
    },
    /// A deferred witness has been strengthened to a permanent signature.
    Strengthened {
        /// The record whose witness was upgraded.
        sn: SerialNumber,
        /// Which field.
        field: WitnessField,
        /// The new strong witness.
        witness: Witness,
    },
    /// A new base certificate (the active window's lower bound advanced).
    NewBase(BaseCert),
    /// A periodic head re-issue (freshness heartbeat, §4.2.1).
    NewHead(HeadCert),
    /// The weak key rotated; publish the new certificate to clients.
    NewWeakKey(WeakKeyCert),
    /// A trust-host-hash audit failed: the host lied about a data hash.
    AuditFailure {
        /// The record whose claimed hash did not match.
        sn: SerialNumber,
    },
}

/// Commands accepted over the device channel.
#[derive(Clone, Debug)]
pub enum WormRequest {
    /// Generates keys and installs the regulator's public key. Must be the
    /// first command.
    Init {
        /// Public key of the regulatory authority (for litigation
        /// credentials).
        regulator: RsaPublicKey,
    },
    /// Returns the public keys / certificates for client distribution.
    GetKeys,
    /// Commits a new virtual record.
    Write {
        /// Retention policy for the new record.
        policy: RetentionPolicy,
        /// Free-form flag bits stored in `attr`.
        flags: u32,
        /// Record data (full or host-hashed).
        data: WriteData,
        /// Requested witnessing tier.
        witness: WitnessMode,
    },
    /// Re-issues the timestamped head certificate.
    RefreshHead,
    /// Re-issues the base certificate.
    RefreshBase,
    /// Signs a composite-freshness binding over the given shard count and
    /// per-shard head root (coordinator shard of a sharded deployment).
    /// The SCPU stamps the trusted issue time itself; it only attests
    /// "these heads were presented together at time t", which is exactly
    /// the statement clients need to reject mixed-instant head sets.
    SignComposite {
        /// Number of shards folded into the root.
        shard_count: u32,
        /// SHA-256 over the canonical per-shard head encodings.
        root: Vec<u8>,
    },
    /// Signs an audit-chain anchor: "audit event `seq` had chain hash
    /// `chain_hash` at trusted time t". The SCPU stamps the issue time
    /// itself, so the host cannot back- or forward-date the statement;
    /// the audit journal thereby inherits the device's tamper evidence.
    SignAuditAnchor {
        /// Sequence number of the chain tip being anchored.
        seq: u64,
        /// SHA-256 chain hash of that event.
        chain_hash: Vec<u8>,
    },
    /// Requests a signed deleted-window pair over `[lo, hi]` (§4.2.1).
    CompactWindow {
        /// First SN of the expired segment.
        lo: SerialNumber,
        /// Last SN of the expired segment.
        hi: SerialNumber,
    },
    /// Places a litigation hold on an active record.
    LitHold {
        /// Current attributes (verified against `metasig`).
        attr: RecordAttributes,
        /// Current metasig witness.
        metasig: Witness,
        /// Regulator authorization.
        credential: HoldCredential,
    },
    /// Releases a litigation hold.
    LitRelease {
        /// Current attributes (verified against `metasig`).
        attr: RecordAttributes,
        /// Current metasig witness.
        metasig: Witness,
        /// Regulator authorization.
        credential: ReleaseCredential,
    },
    /// Re-schedules a record's expiration from its SCPU-signed attributes
    /// (host-crash recovery; the firmware re-verifies `metasig`).
    SyncVexpFromAttr {
        /// Serial number of the record.
        sn: SerialNumber,
        /// The record's current attributes.
        attr: RecordAttributes,
        /// The metasig witness covering them.
        metasig: Witness,
    },
    /// Re-submits a spilled VEXP entry with its sealing token.
    SyncVexp {
        /// Serial number of the record.
        sn: SerialNumber,
        /// Its sealed expiration time.
        expires_at: Timestamp,
        /// Its sealed shredding discipline code.
        shredder: Shredder,
        /// The token issued at write time.
        seal: Vec<u8>,
    },
    /// Submits full record data for audit of a trust-host-hash write.
    AuditData {
        /// The record to audit.
        sn: SerialNumber,
        /// The full record bytes.
        data: Vec<Vec<u8>>,
    },
    /// Drains accumulated outbox items.
    DrainOutbox,
}

/// Successful responses.
#[derive(Clone, Debug)]
pub enum WormResponse {
    /// Device initialized.
    Ready,
    /// Public keys for clients.
    Keys(DeviceKeys),
    /// Write receipt.
    Written(WriteReceipt),
    /// Fresh head certificate.
    Head(HeadCert),
    /// Fresh base certificate.
    Base(BaseCert),
    /// Signed composite-freshness binding.
    Composite(CompositeBinding),
    /// Signed deleted-window pair.
    Window(WindowProof),
    /// SCPU-signed audit-chain anchor.
    AuditAnchor(wormaudit::AuditAnchor),
    /// Litigation hold/release applied: updated attributes and metasig.
    AttrUpdated {
        /// New attributes (hold set or cleared).
        attr: RecordAttributes,
        /// Fresh strong metasig over the new attributes.
        metasig: Witness,
    },
    /// VEXP entry accepted.
    Synced,
    /// Audit result for a trust-host-hash record (`true` = hash matched).
    Audited(bool),
    /// Drained outbox items.
    Outbox(Vec<OutboxItem>),
}

/// Firmware-level rejection (typed separately from transport errors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FirmwareError(pub String);

impl std::fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FirmwareError {}

fn reject<T>(msg: impl Into<String>) -> Result<T, FirmwareError> {
    Err(FirmwareError(msg.into()))
}

/// Firmware configuration burned in before boot.
#[derive(Clone, Debug)]
pub struct FirmwareConfig {
    /// Permanent key width in bits.
    pub strong_bits: usize,
    /// Weak (burst) key width in bits.
    pub weak_bits: usize,
    /// Security lifetime of weak signatures.
    pub weak_lifetime: Duration,
    /// Head-certificate heartbeat interval.
    pub head_refresh_interval: Duration,
    /// Base-certificate validity period.
    pub base_cert_lifetime: Duration,
    /// Minimum expired-run length for window compaction.
    pub min_compaction_run: usize,
    /// Pre-first serial value `Init` boots `SN_current` to (a shard's
    /// lane origin; 0 for a single-SCPU deployment).
    pub sn_origin: u64,
}

impl Default for FirmwareConfig {
    fn default() -> Self {
        FirmwareConfig {
            strong_bits: 1024,
            weak_bits: 512,
            weak_lifetime: Duration::from_secs(120 * 60),
            head_refresh_interval: Duration::from_secs(120),
            base_cert_lifetime: Duration::from_secs(24 * 60 * 60),
            min_compaction_run: 3,
            sn_origin: 0,
        }
    }
}

/// The Strong WORM applet.
#[derive(Debug)]
pub struct WormFirmware {
    pub(crate) cfg: FirmwareConfig,
    /// Key material and SN tracking; `None` until `Init`.
    pub(crate) state: Option<BootedState>,
    /// Sorted expiration list (Retention Monitor input).
    pub(crate) vexp: VexpTable,
    /// Active litigation holds: SN → hold lapse time.
    pub(crate) holds: BTreeMap<SerialNumber, Timestamp>,
    /// Deferred witnesses awaiting strengthening.
    pub(crate) pending: BTreeMap<(SerialNumber, u8), PendingStrengthen>,
    /// Trust-host-hash writes awaiting audit: SN → claimed chain hash.
    pub(crate) pending_audits: BTreeMap<SerialNumber, Vec<u8>>,
    /// Items for the host to collect.
    pub(crate) outbox: Vec<OutboxItem>,
    /// Count of records whose VEXP entry was spilled to the host.
    pub(crate) spilled: u64,
}

impl WormFirmware {
    /// Creates un-booted firmware with the given configuration.
    pub fn new(cfg: FirmwareConfig) -> Self {
        WormFirmware {
            cfg,
            state: None,
            vexp: VexpTable::new(),
            holds: BTreeMap::new(),
            pending: BTreeMap::new(),
            pending_audits: BTreeMap::new(),
            outbox: Vec::new(),
            spilled: 0,
        }
    }

    /// Number of VEXP entries currently resident in secure memory.
    pub fn vexp_len(&self) -> usize {
        self.vexp.len()
    }

    /// Number of deferred witnesses awaiting strengthening.
    pub fn pending_strengthen(&self) -> usize {
        self.pending.len()
    }

    /// Number of writes whose VEXP entry was spilled to the host.
    pub fn spilled_count(&self) -> u64 {
        self.spilled
    }

    fn dispatch(
        &mut self,
        env: &mut Env,
        request: WormRequest,
    ) -> Result<WormResponse, FirmwareError> {
        match request {
            WormRequest::Init { regulator } => self.init(env, regulator),
            WormRequest::GetKeys => self.get_keys(),
            WormRequest::Write {
                policy,
                flags,
                data,
                witness,
            } => self.write(env, policy, flags, data, witness),
            WormRequest::RefreshHead => self.refresh_head(env).map(WormResponse::Head),
            WormRequest::RefreshBase => self.refresh_base(env).map(WormResponse::Base),
            WormRequest::SignComposite { shard_count, root } => self
                .sign_composite(env, shard_count, root)
                .map(WormResponse::Composite),
            WormRequest::SignAuditAnchor { seq, chain_hash } => self
                .sign_audit_anchor(env, seq, chain_hash)
                .map(WormResponse::AuditAnchor),
            WormRequest::CompactWindow { lo, hi } => self.compact_window(env, lo, hi),
            WormRequest::LitHold {
                attr,
                metasig,
                credential,
            } => self.lit_hold(env, attr, metasig, credential),
            WormRequest::LitRelease {
                attr,
                metasig,
                credential,
            } => self.lit_release(env, attr, metasig, credential),
            WormRequest::SyncVexpFromAttr { sn, attr, metasig } => {
                self.sync_vexp_from_attr(env, sn, attr, metasig)
            }
            WormRequest::SyncVexp {
                sn,
                expires_at,
                shredder,
                seal,
            } => self.sync_vexp(env, sn, expires_at, shredder, seal),
            WormRequest::AuditData { sn, data } => self.audit_data(env, sn, data),
            WormRequest::DrainOutbox => Ok(WormResponse::Outbox(std::mem::take(&mut self.outbox))),
        }
    }
}

impl Applet for WormFirmware {
    type Request = WormRequest;
    type Response = Result<WormResponse, FirmwareError>;

    fn handle(&mut self, env: &mut Env, request: WormRequest) -> Self::Response {
        self.dispatch(env, request)
    }

    fn kind_of(request: &WormRequest) -> &'static str {
        match request {
            WormRequest::Init { .. } => "scpu.init",
            WormRequest::GetKeys => "scpu.get_keys",
            WormRequest::Write { .. } => "scpu.write",
            WormRequest::RefreshHead => "scpu.refresh_head",
            WormRequest::RefreshBase => "scpu.refresh_base",
            WormRequest::SignComposite { .. } => "scpu.sign_composite",
            WormRequest::SignAuditAnchor { .. } => "scpu.sign_audit_anchor",
            WormRequest::CompactWindow { .. } => "scpu.compact_window",
            WormRequest::LitHold { .. } => "scpu.lit_hold",
            WormRequest::LitRelease { .. } => "scpu.lit_release",
            WormRequest::SyncVexpFromAttr { .. } | WormRequest::SyncVexp { .. } => "scpu.sync_vexp",
            WormRequest::AuditData { .. } => "scpu.audit",
            WormRequest::DrainOutbox => "scpu.drain_outbox",
        }
    }

    fn next_alarm(&self) -> Option<Timestamp> {
        let rm = self.vexp.next_wakeup();
        let head = self
            .state
            .as_ref()
            .map(|s| s.last_head_issue.after(self.cfg.head_refresh_interval));
        match (rm, head) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_alarm(&mut self, env: &mut Env) {
        if self.state.is_none() {
            return;
        }
        let now = env.now();
        // Head heartbeat (§4.2.1: the SCPU updates the signed timestamp
        // every few minutes even in the absence of data updates).
        let due_head = self
            .state
            .as_ref()
            .is_some_and(|s| s.last_head_issue.after(self.cfg.head_refresh_interval) <= now);
        if due_head {
            if let Ok(head) = self.refresh_head(env) {
                self.outbox.push(OutboxItem::NewHead(head));
            }
        }
        // Retention Monitor: delete due records.
        self.run_retention_monitor(env);
    }

    fn on_idle(&mut self, env: &mut Env, budget_ns: u64) {
        if self.state.is_none() {
            return;
        }
        self.strengthen_pending(env, budget_ns);
    }

    fn zeroize(&mut self) {
        self.state = None;
        self.vexp.clear();
        self.holds.clear();
        self.pending.clear();
        self.pending_audits.clear();
        self.outbox.clear();
    }
}
