//! Fuzz-style property tests of the persisted-structure codecs and the
//! wire layer: everything read back from untrusted storage must decode
//! defensively — errors, never panics — and any byte-level mutation of a
//! valid encoding must either fail to decode or decode to a different
//! value (no silent aliasing).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Timestamp, VirtualClock};
use strongworm::attr::RecordAttributes;
use strongworm::authority::{HoldCredential, ReleaseCredential};
use strongworm::codec;
use strongworm::policy::Regulation;
use strongworm::proofs::{
    BaseCert, DeletionEvidence, DeletionProof, HeadCert, ReadOutcome, WindowProof,
};
use strongworm::vrd::Vrd;
use strongworm::vrdt::VrdtEntry;
use strongworm::wire::WireWriter;
use strongworm::witness::{Signature, Witness};
use strongworm::{
    CompositeBinding, CompositeHead, RegulatoryAuthority, RetentionPolicy, SerialNumber,
    ShardedWormServer, WormConfig, WormError, WormServer,
};
use wormstore::{RecordDescriptor, RecordId, Shredder};
use wormtrace::{HistogramSnapshot, OpSnapshot, StatsSnapshot, NUM_BUCKETS};

/// The one encoder of a read outcome, into a fresh buffer.
fn encode_outcome(o: &ReadOutcome) -> Vec<u8> {
    WireWriter::encoded(|w| codec::encode_read_outcome_into(w, o))
}

fn arb_sig() -> impl Strategy<Value = Signature> {
    (
        any::<[u8; 8]>(),
        proptest::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(|(key_id, bytes)| Signature { key_id, bytes })
}

fn arb_witness() -> impl Strategy<Value = Witness> {
    prop_oneof![
        arb_sig().prop_map(Witness::Strong),
        (arb_sig(), any::<u64>()).prop_map(|(sig, t)| Witness::Weak {
            sig,
            expires_at: Timestamp::from_millis(t),
        }),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(|tag| Witness::Mac { tag }),
    ]
}

fn arb_shredder() -> impl Strategy<Value = Shredder> {
    prop_oneof![
        Just(Shredder::ZeroFill),
        any::<u8>().prop_map(|passes| Shredder::MultiPass { passes }),
        Just(Shredder::RandomPass),
    ]
}

fn arb_attr() -> impl Strategy<Value = RecordAttributes> {
    (
        any::<u64>(),
        any::<u64>(),
        0u8..7,
        arb_shredder(),
        any::<u32>(),
        proptest::option::of((
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..40),
        )),
    )
        .prop_map(|(c, r, reg, shredder, flags, hold)| RecordAttributes {
            created_at: Timestamp::from_millis(c),
            retention_until: Timestamp::from_millis(r),
            regulation: Regulation::from_code(reg).unwrap_or(Regulation::Custom),
            shredder,
            flags,
            litigation_hold: hold.map(|(id, until, credential)| strongworm::attr::LitigationHold {
                litigation_id: id,
                hold_until: Timestamp::from_millis(until),
                credential,
            }),
        })
}

fn arb_vrd() -> impl Strategy<Value = Vrd> {
    (
        any::<u64>(),
        arb_attr(),
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..6),
        arb_witness(),
        arb_witness(),
    )
        .prop_map(|(sn, attr, rdl, metasig, datasig)| Vrd {
            sn: SerialNumber(sn),
            attr,
            rdl: rdl
                .into_iter()
                .map(|(id, offset, len)| RecordDescriptor {
                    id: RecordId(id),
                    offset,
                    len: len as u64,
                })
                .collect(),
            metasig,
            datasig,
        })
}

fn arb_head() -> impl Strategy<Value = HeadCert> {
    (any::<u64>(), any::<u64>(), arb_sig()).prop_map(|(sn, t, sig)| HeadCert {
        sn_current: SerialNumber(sn),
        issued_at: Timestamp::from_millis(t),
        sig,
    })
}

fn arb_composite() -> impl Strategy<Value = CompositeHead> {
    (
        proptest::collection::vec(arb_head(), 0..5),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..48),
        any::<u64>(),
        arb_sig(),
    )
        .prop_map(|(heads, shard_count, root, t, sig)| CompositeHead {
            heads,
            binding: CompositeBinding {
                shard_count,
                root,
                issued_at: Timestamp::from_millis(t),
                sig,
            },
        })
}

fn arb_evidence() -> impl Strategy<Value = DeletionEvidence> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), arb_sig()).prop_map(|(sn, t, sig)| {
            DeletionEvidence::Proof(DeletionProof {
                sn: SerialNumber(sn),
                deleted_at: Timestamp::from_millis(t),
                sig,
            })
        }),
        (any::<u64>(), any::<u64>(), arb_sig()).prop_map(|(sn, t, sig)| {
            DeletionEvidence::BelowBase(BaseCert {
                sn_base: SerialNumber(sn),
                expires_at: Timestamp::from_millis(t),
                sig,
            })
        }),
        (
            any::<u64>(),
            any::<u64>(),
            0u64..1_000_000,
            arb_sig(),
            arb_sig()
        )
            .prop_map(|(id, lo, span, lo_sig, hi_sig)| {
                DeletionEvidence::InWindow(WindowProof {
                    window_id: id,
                    lo: SerialNumber(lo),
                    hi: SerialNumber(lo.saturating_add(span)),
                    lo_sig,
                    hi_sig,
                })
            }),
    ]
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(any::<u64>(), NUM_BUCKETS),
        any::<u64>(),
    )
        .prop_map(|(v, sum_ns)| {
            let mut buckets = [0u64; NUM_BUCKETS];
            buckets.copy_from_slice(&v);
            HistogramSnapshot { buckets, sum_ns }
        })
}

/// Sorted, deduplicated name lists — the canonical form the codec
/// demands of a snapshot's instrument sections.
fn arb_instrument_names(max: usize) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z.]{1,12}", 0..max).prop_map(|mut v| {
        v.sort();
        v.dedup();
        v
    })
}

fn arb_stats() -> impl Strategy<Value = StatsSnapshot> {
    (
        arb_instrument_names(4),
        arb_instrument_names(4),
        arb_instrument_names(4),
        proptest::collection::vec((any::<u64>(), any::<u64>(), arb_histogram()), 4),
        proptest::collection::vec(any::<u64>(), 4),
    )
        .prop_map(
            |(op_names, counter_names, gauge_names, ops, vals)| StatsSnapshot {
                ops: op_names
                    .into_iter()
                    .zip(ops)
                    .map(|(n, (ok, err, latency))| (n, OpSnapshot { ok, err, latency }))
                    .collect(),
                counters: counter_names.into_iter().zip(vals.clone()).collect(),
                gauges: gauge_names.into_iter().zip(vals).collect(),
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = ReadOutcome> {
    prop_oneof![
        (
            arb_vrd(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4),
            arb_head(),
        )
            .prop_map(|(vrd, records, head)| ReadOutcome::Data {
                vrd,
                records: records.into_iter().map(Bytes::from).collect(),
                head,
            }),
        (arb_evidence(), arb_head())
            .prop_map(|(evidence, head)| ReadOutcome::Deleted { evidence, head }),
        arb_head().prop_map(|head| ReadOutcome::NeverExisted { head }),
    ]
}

fn arb_audit_event() -> impl Strategy<Value = wormaudit::AuditEvent> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<prop::sample::Index>(),
        proptest::option::of(any::<u64>()),
        proptest::collection::vec(97u8..123, 0..16),
        any::<[u8; 32]>(),
    )
        .prop_map(
            |(seq, at_ms, class, sn, detail, prev_hash)| wormaudit::AuditEvent {
                seq,
                at_ms,
                class: wormaudit::ALL_CLASSES[class.index(wormaudit::ALL_CLASSES.len())],
                sn,
                detail: String::from_utf8(detail).unwrap_or_default(),
                prev_hash,
            },
        )
}

/// Arbitrary (not chain-consistent) pages — transport-level tests.
fn arb_audit_page() -> impl Strategy<Value = wormaudit::AuditPage> {
    (
        proptest::collection::vec(arb_audit_event(), 0..5),
        proptest::collection::vec(
            (
                any::<u64>(),
                any::<[u8; 32]>(),
                any::<u64>(),
                any::<[u8; 8]>(),
                proptest::collection::vec(any::<u8>(), 0..72),
            ),
            0..3,
        ),
    )
        .prop_map(|(events, anchors)| wormaudit::AuditPage {
            events,
            anchors: anchors
                .into_iter()
                .map(
                    |(seq, chain_hash, issued_at_ms, key_id, sig)| wormaudit::AuditAnchor {
                        seq,
                        chain_hash,
                        issued_at_ms,
                        key_id,
                        sig,
                    },
                )
                .collect(),
        })
}

/// Dense, correctly linked (anchorless) chains — integrity-level tests.
fn arb_audit_chain() -> impl Strategy<Value = wormaudit::AuditPage> {
    proptest::collection::vec(arb_audit_event(), 2..7).prop_map(|mut events| {
        let mut prev_hash = [0u8; 32];
        for (seq, e) in events.iter_mut().enumerate() {
            e.seq = seq as u64;
            e.prev_hash = prev_hash;
            prev_hash = wormaudit::codec::event_hash(e);
        }
        wormaudit::AuditPage {
            events,
            anchors: Vec::new(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::decode_vrd(&bytes);
        let _ = codec::decode_deletion_proof(&bytes);
        let _ = codec::decode_window_proof(&bytes);
        let _ = codec::decode_head_cert(&bytes);
        let _ = codec::decode_base_cert(&bytes);
        let _ = codec::decode_read_outcome_shared(&Bytes::from(bytes.clone()));
        let _ = codec::decode_hold_credential(&bytes);
        let _ = codec::decode_release_credential(&bytes);
        let _ = codec::decode_device_keys(&bytes);
        let _ = codec::decode_weak_key_cert(&bytes);
        let _ = codec::decode_composite_head(&bytes);
        let _ = RecordAttributes::decode(&bytes);
    }

    #[test]
    fn composite_head_roundtrip_holds(composite in arb_composite()) {
        let enc = codec::encode_composite_head(&composite);
        prop_assert_eq!(codec::decode_composite_head(&enc).unwrap(), composite);
    }

    #[test]
    fn composite_head_truncations_always_error(composite in arb_composite(), cut in any::<prop::sample::Index>()) {
        let enc = codec::encode_composite_head(&composite);
        let i = cut.index(enc.len());
        prop_assert!(codec::decode_composite_head(&enc[..i]).is_err());
    }

    #[test]
    fn composite_head_mutations_never_alias(composite in arb_composite(), pos in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let enc = codec::encode_composite_head(&composite);
        let mut mutated = enc.clone();
        let i = pos.index(mutated.len());
        mutated[i] ^= flip;
        match codec::decode_composite_head(&mutated) {
            Err(_) => {}
            Ok(other) => prop_assert_ne!(other, composite, "mutation at byte {} aliased", i),
        }
    }

    #[test]
    fn composite_root_is_deterministic_and_content_bound(
        heads in proptest::collection::vec(arb_head(), 0..5),
        extra in arb_head(),
    ) {
        let root = codec::composite_root(&heads);
        prop_assert_eq!(root.len(), 32);
        prop_assert_eq!(&codec::composite_root(&heads), &root);
        let mut extended = heads.clone();
        extended.push(extra);
        prop_assert_ne!(codec::composite_root(&extended), root,
            "appending a head must change the root");
    }

    #[test]
    fn read_outcome_roundtrip_holds(outcome in arb_outcome()) {
        let enc = Bytes::from(encode_outcome(&outcome));
        prop_assert_eq!(codec::decode_read_outcome_shared(&enc).unwrap(), outcome);
    }

    #[test]
    fn read_outcome_mutations_never_alias(outcome in arb_outcome(), pos in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let mut mutated = encode_outcome(&outcome);
        let i = pos.index(mutated.len());
        mutated[i] ^= flip;
        match codec::decode_read_outcome_shared(&Bytes::from(mutated)) {
            Err(_) => {}
            Ok(other) => prop_assert_ne!(other, outcome, "mutation at byte {} aliased", i),
        }
    }

    #[test]
    fn credential_roundtrips_hold(
        sn in any::<u64>(),
        t in any::<u64>(),
        id in any::<u64>(),
        until in any::<u64>(),
        sig in arb_sig(),
    ) {
        let hold = HoldCredential {
            sn: SerialNumber(sn),
            issued_at: Timestamp::from_millis(t),
            litigation_id: id,
            hold_until: Timestamp::from_millis(until),
            sig: sig.clone(),
        };
        prop_assert_eq!(
            codec::decode_hold_credential(&codec::encode_hold_credential(&hold)).unwrap(),
            hold
        );
        let release = ReleaseCredential {
            sn: SerialNumber(sn),
            issued_at: Timestamp::from_millis(t),
            litigation_id: id,
            sig,
        };
        prop_assert_eq!(
            codec::decode_release_credential(&codec::encode_release_credential(&release)).unwrap(),
            release
        );
    }

    #[test]
    fn vrd_roundtrip_holds_for_arbitrary_values(vrd in arb_vrd()) {
        let enc = codec::encode_vrd(&vrd);
        prop_assert_eq!(codec::decode_vrd(&enc).unwrap(), vrd);
    }

    #[test]
    fn attr_roundtrip_holds(attr in arb_attr()) {
        prop_assert_eq!(RecordAttributes::decode(&attr.encode()).unwrap(), attr);
    }

    #[test]
    fn vrd_mutations_never_alias(vrd in arb_vrd(), pos in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let enc = codec::encode_vrd(&vrd);
        prop_assume!(!enc.is_empty());
        let mut mutated = enc.clone();
        let i = pos.index(mutated.len());
        mutated[i] ^= flip;
        match codec::decode_vrd(&mutated) {
            Err(_) => {} // rejected: fine
            Ok(other) => prop_assert_ne!(other, vrd, "mutation at byte {} aliased", i),
        }
    }

    #[test]
    fn truncated_vrd_never_decodes_to_original(vrd in arb_vrd(), cut in any::<prop::sample::Index>()) {
        let enc = codec::encode_vrd(&vrd);
        let keep = cut.index(enc.len()); // strictly shorter than enc
        match codec::decode_vrd(&enc[..keep]) {
            Err(_) => {}
            Ok(other) => prop_assert_ne!(other, vrd),
        }
    }

    #[test]
    fn proof_roundtrips_hold(
        sn in any::<u64>(),
        t in any::<u64>(),
        id in any::<u64>(),
        lo in any::<u64>(),
        span in 0u64..1_000_000,
        sig1 in arb_sig(),
        sig2 in arb_sig(),
    ) {
        let p = DeletionProof {
            sn: SerialNumber(sn),
            deleted_at: Timestamp::from_millis(t),
            sig: sig1.clone(),
        };
        prop_assert_eq!(codec::decode_deletion_proof(&codec::encode_deletion_proof(&p)).unwrap(), p);

        let w = WindowProof {
            window_id: id,
            lo: SerialNumber(lo),
            hi: SerialNumber(lo.saturating_add(span)),
            lo_sig: sig1.clone(),
            hi_sig: sig2.clone(),
        };
        prop_assert_eq!(codec::decode_window_proof(&codec::encode_window_proof(&w)).unwrap(), w);

        let h = HeadCert {
            sn_current: SerialNumber(sn),
            issued_at: Timestamp::from_millis(t),
            sig: sig2.clone(),
        };
        prop_assert_eq!(codec::decode_head_cert(&codec::encode_head_cert(&h)).unwrap(), h);

        let b = BaseCert {
            sn_base: SerialNumber(sn),
            expires_at: Timestamp::from_millis(t),
            sig: sig1,
        };
        prop_assert_eq!(codec::decode_base_cert(&codec::encode_base_cert(&b)).unwrap(), b);
    }

    #[test]
    fn stats_snapshot_roundtrip_holds(stats in arb_stats()) {
        let enc = codec::encode_stats_snapshot(&stats);
        prop_assert_eq!(codec::decode_stats_snapshot(&enc).unwrap(), stats);
    }

    #[test]
    fn stats_snapshot_truncation_always_rejected(stats in arb_stats(), cut in any::<prop::sample::Index>()) {
        let enc = codec::encode_stats_snapshot(&stats);
        let keep = cut.index(enc.len()); // strictly shorter than enc
        prop_assert!(
            codec::decode_stats_snapshot(&enc[..keep]).is_err(),
            "every field is mandatory, so any prefix must fail"
        );
    }

    #[test]
    fn stats_snapshot_oversized_frame_rejected(stats in arb_stats(), extra in 1usize..16) {
        // Trailing bytes past the canonical encoding are an error, not
        // ignored padding — expect_end guards frame-splicing tricks.
        let mut enc = codec::encode_stats_snapshot(&stats);
        enc.extend(vec![0u8; extra]);
        prop_assert!(codec::decode_stats_snapshot(&enc).is_err());
    }

    #[test]
    fn stats_snapshot_mutations_never_alias(stats in arb_stats(), pos in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let enc = codec::encode_stats_snapshot(&stats);
        let mut mutated = enc.clone();
        let i = pos.index(mutated.len());
        mutated[i] ^= flip;
        match codec::decode_stats_snapshot(&mutated) {
            Err(_) => {}
            Ok(other) => prop_assert_ne!(other, stats, "mutation at byte {} aliased", i),
        }
    }

    #[test]
    fn stats_snapshot_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::decode_stats_snapshot(&bytes);
    }

    #[test]
    fn cross_type_decoding_always_fails(
        sn in any::<u64>(),
        t in any::<u64>(),
        sig in arb_sig(),
    ) {
        // Domain tags keep each structure in its own universe.
        let p = DeletionProof {
            sn: SerialNumber(sn),
            deleted_at: Timestamp::from_millis(t),
            sig,
        };
        let enc = codec::encode_deletion_proof(&p);
        prop_assert!(codec::decode_head_cert(&enc).is_err());
        prop_assert!(codec::decode_base_cert(&enc).is_err());
        prop_assert!(codec::decode_window_proof(&enc).is_err());
        prop_assert!(codec::decode_vrd(&enc).is_err());
        prop_assert!(codec::decode_stats_snapshot(&enc).is_err());
        prop_assert!(wormaudit::codec::decode_audit_page(&enc).is_err());
    }

    /// The `wormaudit.events.v1` page codec obeys the same discipline
    /// as every persisted structure here: exact roundtrip, every strict
    /// prefix rejected (deeper chain-level properties live in
    /// wormaudit's own `chain_property` suite).
    #[test]
    fn audit_pages_roundtrip_and_reject_prefixes(page in arb_audit_page()) {
        let enc = wormaudit::codec::encode_audit_page(&page);
        prop_assert_eq!(wormaudit::codec::decode_audit_page(&enc).unwrap(), page);
        for cut in 0..enc.len() {
            prop_assert!(wormaudit::codec::decode_audit_page(&enc[..cut]).is_err());
        }
    }

    /// Flipping a chain-carrying field (a `prev_hash` byte) survives
    /// decoding — it is a well-formed page — but must surface as a
    /// replay divergence: the codec's job is canonical transport, the
    /// chain's job is integrity, and neither may mask the other.
    #[test]
    fn audit_chain_field_mutations_fail_verification(
        chain in arb_audit_chain(),
        event_sel in any::<prop::sample::Index>(),
        byte_sel in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        prop_assert!(wormaudit::verify_chain(&chain, &[]).is_clean());
        let mut tampered = chain.clone();
        let i = event_sel.index(tampered.events.len());
        tampered.events[i].prev_hash[byte_sel.index(32)] ^= 1 << bit;
        let enc = wormaudit::codec::encode_audit_page(&tampered);
        let decoded = wormaudit::codec::decode_audit_page(&enc).unwrap();
        prop_assert_eq!(&decoded, &tampered);
        // A flip in any event's prev_hash either breaks its own stored
        // link or (through the hash-over-encoding) its successor's.
        let report = wormaudit::verify_chain(&decoded, &[]);
        prop_assert!(
            report.divergence.is_some(),
            "chain-field flip at event {} went unnoticed", i
        );
    }
}

#[test]
fn stats_snapshot_count_bomb_rejected() {
    // A forged section count far beyond the decode cap must be rejected
    // up front — not drive an unbounded allocation loop.
    let enc = codec::encode_stats_snapshot(&StatsSnapshot::default());
    let ops_count_at = 4 + "wormtrace.stats.v2".len();
    let mut bomb = enc;
    bomb[ops_count_at..ops_count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(codec::decode_stats_snapshot(&bomb).is_err());
}

#[test]
fn audit_page_count_bomb_rejected() {
    // Same discipline for the audit page: a forged event count must be
    // bounded before any allocation sized from it.
    let enc = wormaudit::codec::encode_audit_page(&wormaudit::AuditPage::default());
    let events_count_at = 4 + wormaudit::codec::PAGE_TAG.len();
    let mut bomb = enc;
    bomb[events_count_at..events_count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(wormaudit::codec::decode_audit_page(&bomb).is_err());
}

#[test]
fn device_keys_v2_is_the_tag_then_two_keys() {
    // `strongworm.devicekeys.v2` carries the tag, `sign` and `delete` and
    // nothing else: v1's reserved byte and weak-key certificate are gone
    // (certificates travel as their own encodings), and a v1 encoding no
    // longer decodes.
    const TAG: &[u8] = b"strongworm.devicekeys.v2";
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let srv = WormServer::new(WormConfig::test_small(), clock, regulator().public()).unwrap();
    let keys = srv.keys();
    let enc = codec::encode_device_keys(keys);
    let mut expected = (TAG.len() as u32).to_be_bytes().to_vec();
    expected.extend_from_slice(TAG);
    for key in [&keys.sign, &keys.delete] {
        let bytes = key.to_bytes();
        expected.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        expected.extend_from_slice(&bytes);
    }
    assert_eq!(enc, expected);
    assert_eq!(codec::decode_device_keys(&enc).unwrap(), *keys);
    let mut v1 = (TAG.len() as u32).to_be_bytes().to_vec();
    v1.extend_from_slice(b"strongworm.devicekeys.v1");
    v1.push(0);
    v1.extend_from_slice(&enc[4 + TAG.len()..]);
    assert!(codec::decode_device_keys(&v1).is_err());
}

// ---------------------------------------------------------------------
// The streaming read path (`read_into`) against the owned one (`read` +
// `encode_read_outcome_into`): one layout, so the same bytes, for every
// outcome variant, at one lane and across two.
// ---------------------------------------------------------------------

/// Writes `records` on the deployment's next lane, kept for
/// `retention_secs`.
fn put(srv: &ShardedWormServer, records: &[&[u8]], retention_secs: u64) -> SerialNumber {
    let policy = RetentionPolicy::custom(Duration::from_secs(retention_secs), Shredder::ZeroFill);
    srv.write(records, policy).unwrap()
}

/// Reads that took the slow path, summed over lanes (lane `i ≥ 1`'s
/// instruments carry a `shard{i}.` prefix).
fn slow_reads(srv: &ShardedWormServer) -> u64 {
    let counters = srv.stats_snapshot().counters;
    let slow = counters
        .iter()
        .filter(|(name, _)| name.ends_with("server.read_slow_path"));
    slow.map(|(_, n)| n).sum()
}

fn regulator() -> RegulatoryAuthority {
    RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0xB17E), 512)
}

/// Streams `sn` after bytes the writer already holds and checks the
/// result against the owned outcome's encoding; returns the outcome.
fn assert_streams_as_owned(srv: &ShardedWormServer, sn: SerialNumber) -> ReadOutcome {
    let mut w = WireWriter::from(b"kept".to_vec());
    srv.read_into(sn, &mut w).unwrap();
    let streamed = w.finish();
    let outcome = srv.read(sn).unwrap();
    assert_eq!(&streamed[..4], b"kept");
    assert_eq!(
        &streamed[4..],
        encode_outcome(&outcome),
        "{sn}: streamed bytes differ from the owned {} outcome's encoding",
        outcome.kind()
    );
    outcome
}

/// Every outcome variant, `lanes` times over (writes go round-robin, so
/// each lane gets the same layout).
fn streamed_reads_match_the_owned_encoding(
    srv: &ShardedWormServer,
    clock: &VirtualClock,
    lanes: usize,
) {
    const KEEP: u64 = 10_000_000;
    const BIG: &[u8] = &[0xA5; 3000];
    // Per lane: SN 1-3 an expired prefix (the base passes them), 4 one
    // record, 5 an isolated expiry (its proof stays resident), 6 several
    // records (one empty), 7-10 an interior expired run (compacts into a
    // window), 11 the upper anchor.
    let layout: [(&[&[u8]], u64, &str); 11] = [
        (&[b"a"], 50, "below-base"),
        (&[b"b"], 50, "below-base"),
        (&[b"c"], 50, "below-base"),
        (&[BIG], KEEP, "data"),
        (&[b"lone"], 50, "proof"),
        (&[b"first", b"", BIG], KEEP, "data"),
        (&[b"w"], 50, "in-window"),
        (&[b"x"], 50, "in-window"),
        (&[b"y"], 50, "in-window"),
        (&[b"z"], 50, "in-window"),
        (&[b"anchor"], KEEP, "data"),
    ];
    let mut written = Vec::new();
    for (records, secs, expect) in layout {
        for _ in 0..lanes {
            written.push((put(srv, records, secs), expect));
        }
    }
    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    srv.compact().unwrap();

    let evidence_kind = |outcome: &ReadOutcome| match outcome {
        ReadOutcome::Data { .. } => "data",
        ReadOutcome::Deleted { evidence, .. } => match evidence {
            DeletionEvidence::Proof(_) => "proof",
            DeletionEvidence::BelowBase(_) => "below-base",
            DeletionEvidence::InWindow(_) => "in-window",
        },
        ReadOutcome::NeverExisted { .. } => "never-existed",
    };
    for &(sn, expect) in &written {
        assert_eq!(
            evidence_kind(&assert_streams_as_owned(srv, sn)),
            expect,
            "{sn}"
        );
        // Above every lane's head.
        let beyond = SerialNumber(sn.0 + 1_000);
        assert_eq!(
            evidence_kind(&assert_streams_as_owned(srv, beyond)),
            "never-existed"
        );
    }

    // The expired-base slow path, streamed first and then owned first:
    // each refreshes the base through the witness plane and must still
    // put out what the other form then serves from the table.
    let below_base: Vec<SerialNumber> = written
        .iter()
        .filter(|(_, expect)| *expect == "below-base")
        .map(|(sn, _)| *sn)
        .collect();
    for streamed_first in [true, false] {
        clock.advance(Duration::from_secs(25 * 60 * 60));
        // Lane by lane: each lane's first below-base read is the slow one.
        for &sn in &below_base[..lanes] {
            let slow_before = slow_reads(srv);
            if streamed_first {
                assert_streams_as_owned(srv, sn);
            } else {
                let outcome = srv.read(sn).unwrap();
                let mut w = WireWriter::new();
                srv.read_into(sn, &mut w).unwrap();
                assert_eq!(w.finish(), encode_outcome(&outcome));
            }
            assert!(
                slow_reads(srv) > slow_before,
                "{sn}: an expired base certificate must take the slow path"
            );
        }
    }
}

#[test]
fn streamed_reads_match_the_owned_encoding_on_one_server() {
    let (srv, clock) = lanes(1);
    streamed_reads_match_the_owned_encoding(&srv, &clock, 1);
}

#[test]
fn streamed_reads_match_the_owned_encoding_across_two_shards() {
    let (srv, clock) = lanes(2);
    streamed_reads_match_the_owned_encoding(&srv, &clock, 2);
}

fn lanes(count: u32) -> (ShardedWormServer, Arc<VirtualClock>) {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let srv = ShardedWormServer::new(
        WormConfig::test_small(),
        clock.clone(),
        regulator().public(),
        count,
    )
    .unwrap();
    (srv, clock)
}

#[test]
fn a_store_error_after_the_vrd_was_written_leaves_the_writer_as_it_was() {
    let (srv, _clock) = lanes(1);
    let sn = put(&srv, &[b"reads fine", b"descriptor goes stale"], 1_000);
    {
        // The second extent now points past the device: the VRD and the
        // first record are already in the writer when the store fails.
        let (mut vrdt, _) = srv.coordinator().parts_mut_for_attack();
        match vrdt.entries_mut_for_attack().get_mut(&sn) {
            Some(VrdtEntry::Active(vrd)) => vrd.rdl[1].offset = u64::MAX / 2,
            _ => unreachable!("just written"),
        }
    }
    let mut w = WireWriter::from(b"kept".to_vec());
    assert!(matches!(
        srv.read_into(sn, &mut w),
        Err(WormError::Store(_))
    ));
    assert_eq!(w.finish(), b"kept");
    assert!(matches!(srv.read(sn), Err(WormError::Store(_))));
}
