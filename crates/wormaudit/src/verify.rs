//! Auditor-side chain replay: recompute every link, check every
//! anchor, report the first divergence.

use wormcrypt::RsaPublicKey;

use crate::codec::event_hash;
use crate::log::AuditPage;

/// Why a fetched chain failed verification, anchored to the earliest
/// offending sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainDivergence {
    /// Sequence number at which the chain first diverges.
    pub seq: u64,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ChainDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "divergence at seq {}: {}", self.seq, self.reason)
    }
}

/// The result of replaying a fetched chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainReport {
    /// Events whose link to their predecessor verified.
    pub verified_links: usize,
    /// Anchors whose hash matched the replayed chain and whose SCPU
    /// signature verified against a known key.
    pub verified_anchors: usize,
    /// Anchors covering sequence numbers outside the fetched window
    /// (their signatures were still checked; their hashes cannot be).
    pub out_of_window_anchors: usize,
    /// Sequence of the newest in-window verified anchor, if any.
    pub last_anchored_seq: Option<u64>,
    /// Events newer than the newest verified anchor. The chain links
    /// attest every event except the very last one; an unattested tail
    /// of 0 means the tip itself is under an SCPU signature.
    pub unattested_tail: usize,
    /// The first divergence found, if any. `None` means the window
    /// replayed cleanly.
    pub divergence: Option<ChainDivergence>,
}

impl ChainReport {
    /// Whether the window replayed cleanly (no divergence).
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

fn diverge(report: &mut ChainReport, seq: u64, reason: String) {
    let earlier = report
        .divergence
        .as_ref()
        .is_none_or(|existing| seq < existing.seq);
    if earlier {
        report.divergence = Some(ChainDivergence { seq, reason });
    }
}

/// Replays a fetched page against the SCPU keys `keys` (the permanent
/// witnessing keys of every lane, from `GetShardKeys`).
///
/// Checks, in order of the chain:
///
/// 1. sequence numbers are dense (`seq[i+1] == seq[i] + 1`);
/// 2. every event's `prev_hash` equals the recomputed chain hash of
///    its predecessor;
/// 3. every anchor covering a fetched event carries that event's
///    recomputed chain hash and a valid signature under a known key.
///
/// The report records the **first** divergence (smallest sequence
/// number); a clean report with `unattested_tail == 0` means every
/// fetched byte is covered by the hash chain and an SCPU signature.
pub fn verify_chain(page: &AuditPage, keys: &[RsaPublicKey]) -> ChainReport {
    let mut report = ChainReport::default();

    let mut prev: Option<&crate::AuditEvent> = None;
    for event in &page.events {
        if let Some(p) = prev {
            if event.seq != p.seq + 1 {
                diverge(
                    &mut report,
                    event.seq,
                    format!("sequence gap: {} follows {}", event.seq, p.seq),
                );
                break;
            }
            if event.prev_hash != event_hash(p) {
                diverge(
                    &mut report,
                    p.seq,
                    format!("hash-chain break between seq {} and {}", p.seq, event.seq),
                );
                break;
            }
            report.verified_links += 1;
        }
        prev = Some(event);
    }

    let first_seq = page.events.first().map(|e| e.seq);
    let last_seq = page.events.last().map(|e| e.seq);
    for anchor in &page.anchors {
        let in_window = first_seq
            .zip(last_seq)
            .is_some_and(|(lo, hi)| lo <= anchor.seq && anchor.seq <= hi);
        if !in_window {
            report.out_of_window_anchors += 1;
            continue;
        }
        let covered = page.events.iter().find(|e| e.seq == anchor.seq);
        let Some(event) = covered else {
            // In-window but absent: the sequence gap already diverged.
            continue;
        };
        if anchor.chain_hash != event_hash(event) {
            diverge(
                &mut report,
                anchor.seq,
                format!(
                    "anchor over seq {} does not match replayed chain",
                    anchor.seq
                ),
            );
            continue;
        }
        let signer = keys.iter().find(|k| k.fingerprint() == anchor.key_id);
        let Some(key) = signer else {
            diverge(
                &mut report,
                anchor.seq,
                format!("anchor over seq {} signed by unknown key", anchor.seq),
            );
            continue;
        };
        if !anchor.verify(key) {
            diverge(
                &mut report,
                anchor.seq,
                format!("anchor signature over seq {} is invalid", anchor.seq),
            );
            continue;
        }
        report.verified_anchors += 1;
        if report.last_anchored_seq.is_none_or(|s| anchor.seq > s) {
            report.last_anchored_seq = Some(anchor.seq);
        }
    }

    if let Some(hi) = last_seq {
        let anchored_to = report.last_anchored_seq;
        report.unattested_tail = match anchored_to {
            Some(a) if a >= hi => 0,
            Some(a) => usize::try_from(hi - a).unwrap_or(usize::MAX),
            None => page.events.len(),
        };
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::event_hash;
    use crate::event::{anchor_payload, AuditAnchor, AuditClass, AuditEvent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wormcrypt::{HashAlg, RsaPrivateKey};

    fn key() -> &'static RsaPrivateKey {
        static KEY: std::sync::OnceLock<RsaPrivateKey> = std::sync::OnceLock::new();
        KEY.get_or_init(|| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(21), 512))
    }

    fn chain(n: u64) -> Vec<AuditEvent> {
        let mut events = Vec::new();
        let mut prev_hash = [0u8; 32];
        for seq in 0..n {
            let e = AuditEvent {
                seq,
                at_ms: 100 + seq,
                class: AuditClass::HeadRemint,
                sn: Some(seq),
                detail: format!("e{seq}"),
                prev_hash,
            };
            prev_hash = event_hash(&e);
            events.push(e);
        }
        events
    }

    fn anchor_over(e: &AuditEvent) -> AuditAnchor {
        let hash = event_hash(e);
        let payload = anchor_payload(e.seq, &hash, 5000);
        AuditAnchor {
            seq: e.seq,
            chain_hash: hash,
            issued_at_ms: 5000,
            key_id: key().public().fingerprint(),
            sig: key().sign(&payload, HashAlg::Sha256).unwrap(),
        }
    }

    #[test]
    fn clean_chain_fully_anchored() {
        let events = chain(5);
        let anchors = vec![anchor_over(&events[4])];
        let page = AuditPage { events, anchors };
        let report = verify_chain(&page, &[key().public().clone()]);
        assert!(report.is_clean(), "{:?}", report.divergence);
        assert_eq!(report.verified_links, 4);
        assert_eq!(report.verified_anchors, 1);
        assert_eq!(report.last_anchored_seq, Some(4));
        assert_eq!(report.unattested_tail, 0);
    }

    #[test]
    fn unanchored_tail_is_counted() {
        let events = chain(6);
        let anchors = vec![anchor_over(&events[3])];
        let page = AuditPage { events, anchors };
        let report = verify_chain(&page, &[key().public().clone()]);
        assert!(report.is_clean());
        assert_eq!(report.unattested_tail, 2);
    }

    #[test]
    fn flipped_event_breaks_the_chain() {
        let events = chain(5);
        let anchors = vec![anchor_over(&events[4])];
        let mut page = AuditPage { events, anchors };
        page.events[2].at_ms ^= 1;
        let report = verify_chain(&page, &[key().public().clone()]);
        let d = report.divergence.expect("must diverge");
        assert_eq!(d.seq, 2);
    }

    #[test]
    fn flipped_tip_is_caught_by_the_anchor() {
        let events = chain(3);
        let anchors = vec![anchor_over(&events[2])];
        let mut page = AuditPage { events, anchors };
        page.events[2].detail.push('!');
        let report = verify_chain(&page, &[key().public().clone()]);
        assert_eq!(report.divergence.expect("must diverge").seq, 2);
    }

    #[test]
    fn sequence_gap_diverges() {
        let mut events = chain(5);
        events.remove(2);
        let page = AuditPage {
            events,
            anchors: vec![],
        };
        let report = verify_chain(&page, &[key().public().clone()]);
        assert_eq!(report.divergence.expect("must diverge").seq, 3);
    }

    #[test]
    fn unknown_anchor_key_diverges() {
        let events = chain(2);
        let mut anchor = anchor_over(&events[1]);
        anchor.key_id = [0xAA; 8];
        let page = AuditPage {
            events,
            anchors: vec![anchor],
        };
        let report = verify_chain(&page, &[key().public().clone()]);
        assert!(report
            .divergence
            .expect("must diverge")
            .reason
            .contains("unknown key"));
    }

    #[test]
    fn forged_anchor_signature_diverges() {
        let events = chain(2);
        let mut anchor = anchor_over(&events[1]);
        anchor.issued_at_ms += 1; // signature no longer covers the payload
        let page = AuditPage {
            events,
            anchors: vec![anchor],
        };
        let report = verify_chain(&page, &[key().public().clone()]);
        assert!(report
            .divergence
            .expect("must diverge")
            .reason
            .contains("signature"));
    }

    #[test]
    fn out_of_window_anchor_is_skipped_not_failed() {
        // Fetch a window starting past an old anchor: the old anchor
        // cannot be hash-checked but must not fail the replay.
        let events = chain(6);
        let old = anchor_over(&events[1]);
        let tip = anchor_over(&events[5]);
        let window = events[3..].to_vec();
        let page = AuditPage {
            events: window,
            anchors: vec![old, tip],
        };
        let report = verify_chain(&page, &[key().public().clone()]);
        assert!(report.is_clean());
        assert_eq!(report.out_of_window_anchors, 1);
        assert_eq!(report.verified_anchors, 1);
        assert_eq!(report.unattested_tail, 0);
    }

    #[test]
    fn empty_page_is_clean() {
        let report = verify_chain(&AuditPage::default(), &[]);
        assert!(report.is_clean());
        assert_eq!(report.verified_links, 0);
        assert_eq!(report.unattested_tail, 0);
    }
}
