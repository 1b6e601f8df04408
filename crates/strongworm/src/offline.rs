//! Offline audit: Bob's investigation tool.
//!
//! The threat model's Bob ("e.g., federal investigators", §2.1) may not
//! trust anything the live server says. Given the artifacts a compliance
//! deployment must surrender — the VRDT journal, the SCPU's public key
//! certificates, and raw access to the medium — [`audit_journal`] replays
//! the journal and re-verifies the entire store independently: every
//! active record against its witnesses and data, every expired record
//! against its deletion evidence, and the overall serial-number space for
//! completeness against the freshest head certificate.

use bytes::Bytes;

use crate::client::Verifier;
use crate::error::VerifyError;
use crate::proofs::{DeletionEvidence, ReadOutcome};
use crate::sn::SerialNumber;
use crate::vrdt::{Lookup, Vrdt};
use crate::wire::WireError;
use wormstore::{Journal, RecordDescriptor};

/// Result of an offline audit.
#[derive(Clone, Debug, Default)]
pub struct OfflineAuditReport {
    /// Active records whose witnesses and data verified.
    pub verified: usize,
    /// Expired records with valid deletion evidence.
    pub expired: usize,
    /// Records that failed verification, with the reason.
    pub failures: Vec<(SerialNumber, VerifyError)>,
    /// Serial numbers at or below the head with no accounting at all
    /// (entries the host "lost" — each one is a finding).
    pub holes: Vec<SerialNumber>,
}

impl OfflineAuditReport {
    /// Whether the store passed the audit in full.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.holes.is_empty()
    }
}

/// Replays `journal` and verifies the full store via `read_record`, which
/// resolves a descriptor to raw bytes from the (seized) medium. Returns
/// `None` from the callback when an extent is unreadable; the record is
/// then reported as a failure.
///
/// # Errors
///
/// [`WireError`] if the journal itself is structurally corrupt beyond the
/// torn-tail tolerance.
pub fn audit_journal<F>(
    journal: &Journal,
    verifier: &Verifier,
    mut read_record: F,
) -> Result<OfflineAuditReport, WireError>
where
    F: FnMut(&RecordDescriptor) -> Option<Bytes>,
{
    let table = Vrdt::recover(journal.clone())?;
    let mut report = OfflineAuditReport::default();

    let head = match table.head() {
        Some(h) => h.clone(),
        None => return Ok(report), // empty store: trivially clean
    };
    if let Err(e) = verifier.check_head(&head) {
        // A store whose freshest head fails cannot attest to anything.
        report.failures.push((head.sn_current, e));
        return Ok(report);
    }

    let mut sn = SerialNumber(1);
    while sn <= head.sn_current {
        match table.lookup(sn) {
            Lookup::Active(vrd) => {
                let mut records = Vec::with_capacity(vrd.rdl.len());
                let mut unreadable = false;
                for rd in &vrd.rdl {
                    match read_record(rd) {
                        Some(b) => records.push(b),
                        None => {
                            unreadable = true;
                            break;
                        }
                    }
                }
                if unreadable {
                    report.failures.push((sn, VerifyError::DataHashMismatch));
                } else {
                    match verifier.verify_vrd(vrd, &records) {
                        Ok(()) => report.verified += 1,
                        Err(e) => report.failures.push((sn, e)),
                    }
                }
            }
            Lookup::Expired(p) => {
                let outcome = ReadOutcome::Deleted {
                    evidence: DeletionEvidence::Proof(p.clone()),
                    head: head.clone(),
                };
                match verifier.verify_read(sn, &outcome) {
                    Ok(_) => report.expired += 1,
                    Err(e) => report.failures.push((sn, e)),
                }
            }
            Lookup::InWindow(w) => {
                let outcome = ReadOutcome::Deleted {
                    evidence: DeletionEvidence::InWindow(w.clone()),
                    head: head.clone(),
                };
                match verifier.verify_read(sn, &outcome) {
                    Ok(_) => report.expired += 1,
                    Err(e) => report.failures.push((sn, e)),
                }
            }
            Lookup::BelowBase => {
                // Validate the base certificate once per run lazily: the
                // evidence constructor needs it anyway.
                match table.base() {
                    Some(base) => {
                        let outcome = ReadOutcome::Deleted {
                            evidence: DeletionEvidence::BelowBase(base.clone()),
                            head: head.clone(),
                        };
                        match verifier.verify_read(sn, &outcome) {
                            Ok(_) => report.expired += 1,
                            Err(e) => report.failures.push((sn, e)),
                        }
                    }
                    None => report.holes.push(sn),
                }
            }
            Lookup::Unknown => report.holes.push(sn),
        }
        sn = sn.next();
    }
    Ok(report)
}
