//! Property tests: `Journal::from_bytes` on mutilated logs.
//!
//! The recovery contract is "exact prefix or nothing": whatever a crash
//! (truncation) or the medium (bit rot, garbage fill) did to the raw log
//! bytes, replay must never panic, and every entry it does yield must be
//! byte-identical to the entry originally appended at that position — a
//! torn or forged frame is dropped, never surfaced. An exhaustive sweep
//! covers every byte offset of a fixed log; proptest then randomizes the
//! journal shape itself. The frame checksum, `crc32`, is held to the
//! bit-at-a-time definition, so the on-disk format cannot drift.

use proptest::collection::vec;
use proptest::prelude::*;
use wormstore::{crc32, Journal};

/// CRC-32 (IEEE 802.3 polynomial, reflected) one bit at a time: the
/// definition the table-driven `crc32` must equal on every input.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn build(payloads: &[Vec<u8>]) -> Journal {
    let mut j = Journal::new();
    for p in payloads {
        j.append(p).expect("append");
    }
    j
}

/// Rehydrates `log` and checks the exact-prefix contract against the
/// `originals` the intact journal held.
fn assert_exact_prefix(log: Vec<u8>, originals: &[Vec<u8>]) {
    let j = Journal::from_bytes(log);
    let replayed: Vec<Vec<u8>> = j.replay().collect();
    assert!(
        replayed.len() <= originals.len(),
        "replay invented {} entries beyond the {} appended",
        replayed.len(),
        originals.len()
    );
    for (i, (got, want)) in replayed.iter().zip(originals).enumerate() {
        assert_eq!(got, want, "entry {i} must replay verbatim or not at all");
    }
}

#[test]
fn every_truncation_and_every_byte_flip_yields_an_exact_prefix() {
    let payloads: Vec<Vec<u8>> = (0u8..6)
        .map(|i| vec![i; (i as usize * 7) % 23 + 1])
        .collect();
    let bytes = build(&payloads).as_bytes().to_vec();
    // Every possible torn tail, byte by byte.
    for cut in 0..=bytes.len() {
        assert_exact_prefix(bytes[..cut].to_vec(), &payloads);
    }
    // Every single-byte corruption, at a few representative flip masks —
    // covering a length-header overrun (flips in the len field), epoch
    // rollback, and both CRC fields.
    for off in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut b = bytes.clone();
            b[off] ^= flip;
            assert_exact_prefix(b, &payloads);
        }
    }
}

proptest! {
    #[test]
    fn crc32_equals_the_bitwise_definition(data in vec(any::<u8>(), 0..1024)) {
        prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    #[test]
    fn truncation_never_panics_and_never_tears(
        payloads in vec(vec(any::<u8>(), 0..64), 0..12),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = build(&payloads).as_bytes().to_vec();
        let cut = cut.index(bytes.len() + 1);
        assert_exact_prefix(bytes[..cut].to_vec(), &payloads);
    }

    #[test]
    fn corruption_never_panics_and_never_tears(
        payloads in vec(vec(any::<u8>(), 0..64), 1..12),
        off in any::<prop::sample::Index>(),
        xor in 1..=255u8,
    ) {
        let bytes = build(&payloads).as_bytes().to_vec();
        let mut b = bytes.clone();
        let off = off.index(b.len());
        b[off] ^= xor;
        assert_exact_prefix(b, &payloads);
    }

    #[test]
    fn garbage_tail_never_replays(
        payloads in vec(vec(any::<u8>(), 0..64), 0..8),
        tail in vec(any::<u8>(), 1..96),
    ) {
        let mut bytes = build(&payloads).as_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        assert_exact_prefix(bytes, &payloads);
    }

    #[test]
    fn recovery_then_append_dominates_the_stale_tail(
        payloads in vec(vec(any::<u8>(), 0..64), 1..8),
        cut in any::<prop::sample::Index>(),
        fresh in vec(any::<u8>(), 0..64),
    ) {
        let bytes = build(&payloads).as_bytes().to_vec();
        let cut = cut.index(bytes.len() + 1);
        let mut j = Journal::from_bytes(bytes[..cut].to_vec());
        let kept = j.replay().count();
        // The epoch bump past the damaged tail means the post-recovery
        // append is always the one that replays last — a stale remnant
        // can never shadow it.
        j.append(&fresh).expect("post-recovery append");
        let replayed: Vec<Vec<u8>> = j.replay().collect();
        prop_assert_eq!(replayed.len(), kept + 1);
        prop_assert_eq!(replayed.last().map(Vec::as_slice), Some(fresh.as_slice()));
        for (got, want) in replayed.iter().take(kept).zip(&payloads) {
            prop_assert_eq!(got, want);
        }
    }
}
