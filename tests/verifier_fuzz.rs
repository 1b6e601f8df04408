//! Verifier robustness: the client must never panic, whatever the host
//! serves — and any single byte-level mutation of signature material in
//! an honest outcome must flip the verdict to an error (no forgiving
//! parse paths).
//!
//! Every fixture here has already verified its honest outcome once, so
//! the verifier under test is *memo-warm*: the second half of the file
//! pins that its memos never change a verdict, and neither does checking
//! a record's two signatures as one pair — a warm verifier answers
//! exactly as one that has seen nothing, and both as the signatures
//! checked one after the other would.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{
    paper_widths, regulator, sequential_verdict, server, server_with, short_policy, verifier,
};
use proptest::prelude::*;
use scpu::{Clock, VirtualClock};
use strongworm::proofs::DeletionEvidence;
use strongworm::proofs::ReadOutcome;
use strongworm::witness::Witness;
use strongworm::{
    ReadVerdict, SerialNumber, Verifier, VerifyError, WitnessMode, WormConfig, WormServer,
};

/// Builds one honest, verifiable data outcome (shared across cases).
fn honest() -> (strongworm::Verifier, SerialNumber, ReadOutcome) {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write(&[b"record-one", b"record-two"], short_policy(100_000))
        .unwrap();
    let outcome = srv.read(sn).unwrap();
    assert!(v.verify_read(sn, &outcome).is_ok());
    (v, sn, outcome)
}

fn mutate_sig_bytes(w: &mut Witness, idx: usize, flip: u8) {
    match w {
        Witness::Strong(sig) | Witness::Weak { sig, .. } => {
            if !sig.bytes.is_empty() {
                let i = idx % sig.bytes.len();
                sig.bytes[i] ^= flip;
            }
        }
        Witness::Mac { tag } => {
            if !tag.is_empty() {
                let i = idx % tag.len();
                tag[i] ^= flip;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn metasig_bitflips_always_rejected(idx in 0usize..4096, flip in 1u8..=255) {
        let (v, sn, outcome) = honest();
        let mut m = outcome.clone();
        if let ReadOutcome::Data { vrd, .. } = &mut m {
            mutate_sig_bytes(&mut vrd.metasig, idx, flip);
        }
        prop_assert!(v.verify_read(sn, &m).is_err());
    }

    #[test]
    fn datasig_bitflips_always_rejected(idx in 0usize..4096, flip in 1u8..=255) {
        let (v, sn, outcome) = honest();
        let mut m = outcome.clone();
        if let ReadOutcome::Data { vrd, .. } = &mut m {
            mutate_sig_bytes(&mut vrd.datasig, idx, flip);
        }
        prop_assert!(v.verify_read(sn, &m).is_err());
    }

    #[test]
    fn record_byte_flips_always_rejected(rec in 0usize..2, idx in 0usize..4096, flip in 1u8..=255) {
        let (v, sn, outcome) = honest();
        let mut m = outcome.clone();
        if let ReadOutcome::Data { records, .. } = &mut m {
            let mut bytes = records[rec].to_vec();
            let i = idx % bytes.len();
            bytes[i] ^= flip;
            records[rec] = bytes.into();
        }
        prop_assert!(v.verify_read(sn, &m).is_err());
    }

    #[test]
    fn head_field_mutations_always_rejected(bump in 1u64..1_000_000, which in 0u8..2) {
        let (v, sn, outcome) = honest();
        let mut m = outcome.clone();
        if let ReadOutcome::Data { head, .. } = &mut m {
            match which {
                0 => head.sn_current = SerialNumber(head.sn_current.get() + bump),
                _ => head.issued_at = scpu::Timestamp::from_millis(
                    head.issued_at.as_millis() + bump,
                ),
            }
        }
        prop_assert!(v.verify_read(sn, &m).is_err());
    }

    #[test]
    fn truncated_or_padded_signatures_never_panic(extra in proptest::collection::vec(any::<u8>(), 0..90)) {
        let (v, sn, outcome) = honest();
        let mut m = outcome.clone();
        if let ReadOutcome::Data { vrd, .. } = &mut m {
            if let Witness::Strong(sig) = &mut vrd.metasig {
                sig.bytes = extra.clone(); // arbitrary garbage, any length
            }
        }
        // Must be a clean error, never a panic.
        prop_assert!(v.verify_read(sn, &m).is_err());
    }

    #[test]
    fn record_count_changes_always_rejected(drop_first in any::<bool>()) {
        let (v, sn, outcome) = honest();
        let mut m = outcome.clone();
        if let ReadOutcome::Data { records, .. } = &mut m {
            if drop_first {
                records.remove(0);
            } else {
                records.push(bytes::Bytes::from_static(b"injected"));
            }
        }
        prop_assert!(v.verify_read(sn, &m).is_err());
    }
}

#[test]
fn verdict_is_stable_across_repeated_verification() {
    let (v, sn, outcome) = honest();
    for _ in 0..10 {
        assert_eq!(
            v.verify_read(sn, &outcome).unwrap(),
            ReadVerdict::Intact { sn }
        );
    }
}

// ---------------------------------------------------------------------
// Record-memo soundness: a memo-warm verifier against a fresh one.
// ---------------------------------------------------------------------

/// A server, a record on it, and a verifier that has already accepted
/// that record's honest outcome (twice: the second was a memo hit).
struct Warm {
    srv: WormServer,
    clock: Arc<VirtualClock>,
    v: Verifier,
    sn: SerialNumber,
    outcome: ReadOutcome,
}

fn warm(witness: WitnessMode) -> Warm {
    warm_with(WormConfig::test_small(), witness)
}

fn warm_with(config: WormConfig, witness: WitnessMode) -> Warm {
    let (srv, clock) = server_with(config);
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write_with(
            &[b"record-one", b"record-two"],
            short_policy(10_000_000),
            0,
            witness,
        )
        .unwrap();
    let outcome = srv.read(sn).unwrap();
    for _ in 0..2 {
        assert_eq!(v.verify_read(sn, &outcome), Ok(ReadVerdict::Intact { sn }));
    }
    Warm {
        srv,
        clock,
        v,
        sn,
        outcome,
    }
}

impl Warm {
    /// What a verifier that has never seen anything says of `outcome`.
    fn fresh_verdict(&self, outcome: &ReadOutcome) -> Result<ReadVerdict, VerifyError> {
        verifier(&self.srv, self.clock.clone()).verify_read(self.sn, outcome)
    }

    /// What the signatures checked one after the other, on the scalar
    /// engine, say of `outcome`.
    fn sequential_verdict(&self, outcome: &ReadOutcome) -> Result<ReadVerdict, VerifyError> {
        let fresh = verifier(&self.srv, self.clock.clone());
        sequential_verdict(&self.srv, &fresh, self.sn, outcome)
    }
}

/// XORs `flip` into byte `idx % 8` of a 64-bit field.
fn flip_u64(field: u64, idx: usize, flip: u8) -> u64 {
    field ^ (u64::from(flip) << (8 * (idx % 8)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-byte change to a memo-warm response — a record, either
    /// witness or both, the attributes, the RDL — gets exactly the verdict
    /// a fresh verifier gives the same bytes, which is the verdict of the
    /// signatures checked one after the other: the signed parts are
    /// rejected with the same error, the unsigned RDL is a memo miss that
    /// still verifies. At 512-bit keys, which no machine checks in lanes,
    /// and at 1024, which one with the instructions does.
    #[test]
    fn memo_warm_byte_flips_get_the_fresh_verdict(
        lanes_width in any::<bool>(),
        part in 0u8..8,
        idx in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let config = if lanes_width { paper_widths() } else { WormConfig::test_small() };
        let w = warm_with(config, WitnessMode::Strong);
        let mut m = w.outcome.clone();
        let ReadOutcome::Data { vrd, records, .. } = &mut m else { unreachable!() };
        match part {
            0 => {
                let rec = idx % records.len();
                let mut bytes = records[rec].to_vec();
                let i = (idx / 2) % bytes.len();
                bytes[i] ^= flip;
                records[rec] = bytes.into();
            }
            1 => mutate_sig_bytes(&mut vrd.metasig, idx, flip),
            2 => mutate_sig_bytes(&mut vrd.datasig, idx, flip),
            3 => vrd.attr.retention_until = scpu::Timestamp::from_millis(
                flip_u64(vrd.attr.retention_until.as_millis(), idx, flip),
            ),
            4 => vrd.attr.created_at = scpu::Timestamp::from_millis(
                flip_u64(vrd.attr.created_at.as_millis(), idx, flip),
            ),
            5 => vrd.attr.flags ^= u32::from(flip) << (8 * (idx % 4)),
            6 => {
                let rd = &mut vrd.rdl[idx % 2];
                match idx % 3 {
                    0 => rd.id.0 = flip_u64(rd.id.0, idx / 3, flip),
                    1 => rd.offset = flip_u64(rd.offset, idx / 3, flip),
                    _ => rd.len = flip_u64(rd.len, idx / 3, flip),
                }
            }
            _ => {
                mutate_sig_bytes(&mut vrd.metasig, idx, flip);
                mutate_sig_bytes(&mut vrd.datasig, idx / 7, flip.rotate_left(3));
            }
        }
        let verdict = w.v.verify_read(w.sn, &m);
        prop_assert_eq!(&verdict, &w.fresh_verdict(&m));
        prop_assert_eq!(&verdict, &w.sequential_verdict(&m));
        // The RDL is the one part no witness covers.
        prop_assert_eq!(verdict.is_ok(), part == 6);
        // And the entry the good bytes left is still good for them.
        prop_assert_eq!(w.v.verify_read(w.sn, &w.outcome), Ok(ReadVerdict::Intact { sn: w.sn }));
    }
}

/// A record's two signatures are checked as one pair. Whichever half is
/// bad — metasig, datasig, both — a long-lived verifier, a fresh one and
/// the signatures checked one after the other report the same error, the
/// bad half is not remembered (the same bytes are rejected again, by each
/// verifier), and the honest response still verifies afterwards. The
/// same for the two bounds of a deleted window.
#[test]
fn a_pair_with_a_bad_half_gets_the_sequential_verdict_every_time() {
    for config in [WormConfig::test_small(), paper_widths()] {
        let w = warm_with(config, WitnessMode::Strong);
        let same_everywhere = |sn: SerialNumber, tampered: &ReadOutcome, honest: &ReadOutcome| {
            // One that has seen neither half; by its second turn it has
            // seen whichever half was good.
            let fresh = verifier(&w.srv, w.clock.clone());
            let expected = sequential_verdict(&w.srv, &fresh, sn, tampered);
            assert!(expected.is_err(), "{tampered:?}");
            for _ in 0..2 {
                assert_eq!(w.v.verify_read(sn, tampered), expected);
                assert_eq!(fresh.verify_read(sn, tampered), expected);
            }
            let accepted = sequential_verdict(&w.srv, &fresh, sn, honest);
            assert!(accepted.is_ok(), "{honest:?}");
            assert_eq!(w.v.verify_read(sn, honest), accepted);
            assert_eq!(fresh.verify_read(sn, honest), accepted);
            expected
        };

        for (bad_meta, bad_data) in [(true, false), (false, true), (true, true)] {
            let mut tampered = w.outcome.clone();
            let ReadOutcome::Data { vrd, .. } = &mut tampered else {
                unreachable!()
            };
            if bad_meta {
                mutate_sig_bytes(&mut vrd.metasig, 17, 0x20);
            }
            if bad_data {
                mutate_sig_bytes(&mut vrd.datasig, 40, 0x04);
            }
            let expected = if bad_meta {
                VerifyError::BadSignature("metasig")
            } else {
                VerifyError::DataHashMismatch
            };
            assert_eq!(same_everywhere(w.sn, &tampered, &w.outcome), Err(expected));
        }

        // A window of three expired records between two that stay.
        for _ in 0..3 {
            w.srv.write(&[b"brief"], short_policy(50)).unwrap();
        }
        w.srv.write(&[b"anchor"], short_policy(10_000_000)).unwrap();
        w.clock.advance(Duration::from_secs(60));
        w.srv.tick().unwrap();
        assert_eq!(w.srv.compact().unwrap(), 1);
        let inside = SerialNumber(w.sn.get() + 2);
        let honest = w.srv.read(inside).unwrap();
        let ReadOutcome::Deleted {
            evidence: DeletionEvidence::InWindow(window),
            head,
        } = &honest
        else {
            panic!("expected window evidence, got {honest:?}")
        };
        for (bad_lo, bad_hi) in [(true, false), (false, true), (true, true)] {
            let mut window = window.clone();
            if bad_lo {
                window.lo_sig.bytes[9] ^= 0x01;
            }
            if bad_hi {
                window.hi_sig.bytes[2] ^= 0x80;
            }
            let tampered = ReadOutcome::Deleted {
                evidence: DeletionEvidence::InWindow(window),
                head: head.clone(),
            };
            assert_eq!(
                same_everywhere(inside, &tampered, &honest),
                Err(VerifyError::BadSignature("window bound"))
            );
        }
    }
}

#[test]
fn alternating_good_and_tampered_responses_never_let_a_tampered_one_through() {
    let w = warm(WitnessMode::Strong);
    let mut tampered = w.outcome.clone();
    if let ReadOutcome::Data { records, .. } = &mut tampered {
        records[1] = bytes::Bytes::from_static(b"record-twO");
    }
    let rejected = w.fresh_verdict(&tampered);
    assert_eq!(rejected, Err(VerifyError::DataHashMismatch));
    for _ in 0..4 {
        // Twice in a row: a failure that got cached would pass the
        // second time.
        assert_eq!(w.v.verify_read(w.sn, &tampered), rejected);
        assert_eq!(w.v.verify_read(w.sn, &tampered), rejected);
        assert_eq!(
            w.v.verify_read(w.sn, &w.outcome),
            Ok(ReadVerdict::Intact { sn: w.sn })
        );
    }
}

#[test]
fn a_weak_witness_that_expired_is_rejected_on_a_memo_hit() {
    let w = warm(WitnessMode::Deferred);
    // Two hours on, the weak signatures' lifetime has lapsed. The host
    // replays the response that verified, under a head minted just now
    // so that freshness is not what fails.
    w.clock.advance(Duration::from_secs(121 * 60));
    let mut replay = w.outcome.clone();
    if let ReadOutcome::Data { head, .. } = &mut replay {
        *head = w.srv.current_head().unwrap();
    }
    let expired = Err(VerifyError::WeakWitnessExpired { field: "metasig" });
    assert_eq!(w.v.verify_read(w.sn, &replay), expired);
    assert_eq!(w.fresh_verdict(&replay), expired);
}

#[test]
fn a_stale_or_replayed_head_is_rejected_on_a_memo_hit() {
    let w = warm(WitnessMode::Strong);
    w.clock.advance(Duration::from_secs(301));
    // The very response that verified five minutes ago, head and all.
    let stale = w.v.verify_read(w.sn, &w.outcome);
    assert!(
        matches!(stale, Err(VerifyError::StaleHead { .. })),
        "{stale:?}"
    );
    assert_eq!(stale, w.fresh_verdict(&w.outcome));
    // A current response verifies; an old head spliced onto it is a
    // replay, and is rejected although the record is a memo hit.
    let current = w.srv.read(w.sn).unwrap();
    assert_eq!(
        w.v.verify_read(w.sn, &current),
        Ok(ReadVerdict::Intact { sn: w.sn })
    );
    let mut replayed = current.clone();
    if let ReadOutcome::Data { head, .. } = &mut replayed {
        *head = w.outcome.head().clone();
    }
    assert_eq!(w.v.verify_read(w.sn, &replayed), stale);
    // A head for another SN count under the old signature never verified.
    if let ReadOutcome::Data { head, .. } = &mut replayed {
        *head = current.head().clone();
        head.sn_current = SerialNumber(head.sn_current.get() + 1);
    }
    assert_eq!(
        w.v.verify_read(w.sn, &replayed),
        Err(VerifyError::BadSignature("head certificate"))
    );
}

#[test]
fn a_replaced_vrd_verifies_over_the_remembered_records() {
    // Strengthening, then a litigation hold, each replace the VRD the
    // memo holds while the records stay byte-identical.
    let w = warm(WitnessMode::Deferred);
    w.srv.idle(1_000_000_000).unwrap();
    let now = w.clock.now();
    let strengthened = w.srv.read(w.sn).unwrap();
    w.srv
        .lit_hold(regulator().issue_hold(w.sn, now, 77, now.after(Duration::from_secs(9_000))))
        .unwrap();
    let held = w.srv.read(w.sn).unwrap();
    for replaced in [&strengthened, &held] {
        assert_ne!(replaced, &w.outcome);
        for _ in 0..2 {
            assert_eq!(
                w.v.verify_read(w.sn, replaced),
                Ok(ReadVerdict::Intact { sn: w.sn })
            );
        }
    }
    // A VRD the memo no longer holds is simply verified again in full.
    assert_eq!(
        w.v.verify_read(w.sn, &strengthened),
        w.fresh_verdict(&strengthened)
    );
}
