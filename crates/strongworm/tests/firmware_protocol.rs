//! Protocol-level tests of the WORM firmware, driving the secure device
//! directly (no host server in between). These pin down the command
//! interface's rejection behaviour — the firmware must be safe against a
//! *hostile* host issuing malformed or out-of-order commands.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Applet, Clock, Device, DeviceConfig, VirtualClock};
use strongworm::attr::RecordAttributes;
use strongworm::firmware::{
    FirmwareError, OutboxItem, WeakKeyCert, WitnessField, WormFirmware, WormRequest, WormResponse,
    WriteData, WriteItem,
};
use strongworm::witness::{Signature, Witness};
use strongworm::{RegulatoryAuthority, RetentionPolicy, SerialNumber, WitnessMode, WormConfig};
use wormstore::Shredder;

type Fw = Device<WormFirmware>;

fn fw_config() -> WormConfig {
    WormConfig {
        strong_bits: 512,
        weak_bits: 512,
        weak_lifetime: Duration::from_secs(7200),
        head_refresh_interval: Duration::from_secs(120),
        ..WormConfig::default()
    }
}

fn device() -> (Fw, Arc<VirtualClock>, RegulatoryAuthority) {
    let clock = VirtualClock::starting_at_millis(5_000);
    let dev = Device::new(
        WormFirmware::new(fw_config()),
        DeviceConfig {
            cost_model: scpu::CostModel::free(),
            secure_memory_bytes: 1 << 20,
            serial: 1,
            rng_seed: 9,
        },
        clock.clone(),
    );
    let reg = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(55), 512);
    (dev, clock, reg)
}

fn booted() -> (Fw, Arc<VirtualClock>, RegulatoryAuthority) {
    let (mut dev, clock, reg) = device();
    dev.execute(WormRequest::Init {
        regulator: reg.public().clone(),
    })
    .unwrap()
    .unwrap();
    (dev, clock, reg)
}

fn policy(secs: u64) -> RetentionPolicy {
    RetentionPolicy::custom(Duration::from_secs(secs), Shredder::ZeroFill)
}

fn write(dev: &mut Fw, secs: u64) -> SerialNumber {
    match dev
        .execute(WormRequest::Write(vec![WriteItem {
            policy: policy(secs),
            flags: 0,
            data: WriteData::Full(vec![b"payload".to_vec()]),
            witness: WitnessMode::Strong,
        }]))
        .unwrap()
        .unwrap()
    {
        WormResponse::Written(r) => r[0].sn,
        other => panic!("unexpected {other:?}"),
    }
}

fn drain(dev: &mut Fw) -> Vec<OutboxItem> {
    match dev.execute(WormRequest::DrainOutbox).unwrap().unwrap() {
        WormResponse::Outbox(items) => items,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn commands_before_init_are_rejected() {
    let (mut dev, _clock, _reg) = device();
    for req in [
        WormRequest::GetKeys,
        WormRequest::RefreshHead,
        WormRequest::RefreshBase,
        WormRequest::CompactWindow {
            lo: SerialNumber(1),
            hi: SerialNumber(5),
        },
        WormRequest::Write(vec![WriteItem {
            policy: policy(10),
            flags: 0,
            data: WriteData::Full(vec![]),
            witness: WitnessMode::Strong,
        }]),
        WormRequest::SignAuditAnchor {
            seq: 0,
            chain_hash: vec![0u8; 32],
        },
    ] {
        let resp = dev.execute(req).unwrap();
        assert!(
            matches!(&resp, Err(e) if e.0.contains("not initialized")),
            "got {resp:?}"
        );
    }
}

#[test]
fn double_init_is_rejected() {
    let (mut dev, _clock, reg) = booted();
    let resp = dev
        .execute(WormRequest::Init {
            regulator: reg.public().clone(),
        })
        .unwrap();
    assert!(matches!(&resp, Err(e) if e.0.contains("already initialized")));
}

#[test]
fn audit_anchor_requires_a_sha256_hash() {
    let (mut dev, _clock, _reg) = booted();
    for bad in [vec![], vec![0u8; 31], vec![0u8; 33]] {
        let resp = dev
            .execute(WormRequest::SignAuditAnchor {
                seq: 3,
                chain_hash: bad,
            })
            .unwrap();
        assert!(
            matches!(&resp, Err(e) if e.0.contains("SHA-256")),
            "got {resp:?}"
        );
    }
}

#[test]
fn audit_anchor_signs_and_stamps_trusted_time() {
    let (mut dev, clock, _reg) = booted();
    let keys = match dev.execute(WormRequest::GetKeys).unwrap().unwrap() {
        WormResponse::Keys(k, _) => k,
        other => panic!("unexpected {other:?}"),
    };
    let chain_hash = vec![7u8; 32];
    let anchor = match dev
        .execute(WormRequest::SignAuditAnchor {
            seq: 41,
            chain_hash: chain_hash.clone(),
        })
        .unwrap()
        .unwrap()
    {
        WormResponse::AuditAnchor(a) => a,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(anchor.seq, 41);
    assert_eq!(anchor.chain_hash.to_vec(), chain_hash);
    assert_eq!(anchor.issued_at_ms, clock.now().as_millis());
    assert!(anchor.verify(&keys.sign), "anchor must verify under s");
    // The signature is domain-separated: it is not a head certificate
    // or any other statement over the same bytes.
    let mut forged = anchor.clone();
    forged.seq += 1;
    assert!(!forged.verify(&keys.sign));
    let mut redated = anchor;
    redated.issued_at_ms += 1;
    assert!(!redated.verify(&keys.sign));
}

#[test]
fn serial_numbers_are_consecutive_from_one() {
    let (mut dev, _clock, _reg) = booted();
    for expected in 1..=5u64 {
        assert_eq!(write(&mut dev, 1000), SerialNumber(expected));
    }
}

#[test]
fn attributes_are_stamped_with_trusted_time() {
    let (mut dev, clock, _reg) = booted();
    clock.advance(Duration::from_secs(100));
    match dev
        .execute(WormRequest::Write(vec![WriteItem {
            policy: policy(500),
            flags: 7,
            data: WriteData::Full(vec![b"x".to_vec()]),
            witness: WitnessMode::Strong,
        }]))
        .unwrap()
        .unwrap()
    {
        WormResponse::Written(r) => {
            let r = &r[0];
            assert_eq!(r.attr.created_at, clock.now());
            assert_eq!(
                r.attr.retention_until,
                clock.now().after(Duration::from_secs(500))
            );
            assert_eq!(r.attr.flags, 7);
            assert!(!r.vexp_spilled);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn host_hash_must_be_32_bytes() {
    let (mut dev, _clock, _reg) = booted();
    let resp = dev
        .execute(WormRequest::Write(vec![WriteItem {
            policy: policy(10),
            flags: 0,
            data: WriteData::HostHash {
                chain_hash: vec![1, 2, 3],
                total_len: 3,
            },
            witness: WitnessMode::Strong,
        }]))
        .unwrap();
    assert!(matches!(&resp, Err(e) if e.0.contains("32 bytes")));
}

#[test]
fn compact_window_rejects_active_and_malformed_ranges() {
    let (mut dev, clock, _reg) = booted();
    write(&mut dev, 10); // sn1, expires fast
    write(&mut dev, 10); // sn2
    write(&mut dev, 10); // sn3
    let survivor = write(&mut dev, 1_000_000); // sn4 long-lived
    write(&mut dev, 10); // sn5
    clock.advance(Duration::from_secs(20));
    dev.tick().unwrap();

    // Inverted bounds.
    let resp = dev
        .execute(WormRequest::CompactWindow {
            lo: SerialNumber(3),
            hi: SerialNumber(1),
        })
        .unwrap();
    assert!(matches!(&resp, Err(e) if e.0.contains("inverted")));

    // Too short a run.
    let resp = dev
        .execute(WormRequest::CompactWindow {
            lo: SerialNumber(1),
            hi: SerialNumber(2),
        })
        .unwrap();
    assert!(matches!(&resp, Err(e) if e.0.contains("minimum")));

    // Range containing the still-active sn4: the firmware must refuse to
    // certify it as deleted (this is the command a malicious host would
    // use to bury a live record inside a window).
    let resp = dev
        .execute(WormRequest::CompactWindow {
            lo: SerialNumber(3),
            hi: SerialNumber(5),
        })
        .unwrap();
    assert!(
        matches!(&resp, Err(e) if e.0.contains("not expired")),
        "got {resp:?}"
    );
    let _ = survivor;

    // The genuinely expired prefix works.
    let resp = dev
        .execute(WormRequest::CompactWindow {
            lo: SerialNumber(1),
            hi: SerialNumber(3),
        })
        .unwrap()
        .unwrap();
    match resp {
        WormResponse::Window(w) => {
            assert_eq!(w.lo, SerialNumber(1));
            assert_eq!(w.hi, SerialNumber(3));
            assert_ne!(w.lo_sig.bytes, w.hi_sig.bytes);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn window_ids_are_unique_per_compaction() {
    let (mut dev, clock, _reg) = booted();
    for _ in 0..3 {
        write(&mut dev, 10);
    }
    write(&mut dev, 1_000_000);
    for _ in 0..3 {
        write(&mut dev, 10);
    }
    write(&mut dev, 1_000_000);
    clock.advance(Duration::from_secs(20));
    dev.tick().unwrap();

    let w1 = match dev
        .execute(WormRequest::CompactWindow {
            lo: SerialNumber(1),
            hi: SerialNumber(3),
        })
        .unwrap()
        .unwrap()
    {
        WormResponse::Window(w) => w,
        other => panic!("unexpected {other:?}"),
    };
    let w2 = match dev
        .execute(WormRequest::CompactWindow {
            lo: SerialNumber(5),
            hi: SerialNumber(7),
        })
        .unwrap()
        .unwrap()
    {
        WormResponse::Window(w) => w,
        other => panic!("unexpected {other:?}"),
    };
    assert_ne!(w1.window_id, w2.window_id);
}

#[test]
fn deletion_orders_carry_the_records_shredder() {
    let (mut dev, clock, _reg) = booted();
    dev.execute(WormRequest::Write(vec![WriteItem {
        policy: RetentionPolicy::custom(Duration::from_secs(10), Shredder::MultiPass { passes: 3 }),
        flags: 0,
        data: WriteData::Full(vec![b"x".to_vec()]),
        witness: WitnessMode::Strong,
    }]))
    .unwrap()
    .unwrap();
    clock.advance(Duration::from_secs(11));
    dev.tick().unwrap();
    let items = drain(&mut dev);
    let deleted = items
        .iter()
        .find_map(|i| match i {
            OutboxItem::Deleted { proof, shredder } => Some((proof.sn, *shredder)),
            _ => None,
        })
        .expect("deletion order present");
    assert_eq!(deleted.0, SerialNumber(1));
    assert_eq!(deleted.1, Shredder::MultiPass { passes: 3 });
}

/// A device with almost no secure memory, and the first write under
/// `policy` whose VEXP entry it spilled: `(device, sn, attr, metasig)`.
fn spilled_write(policy: RetentionPolicy) -> (Fw, SerialNumber, RecordAttributes, Witness) {
    let clock = VirtualClock::starting_at_millis(5_000);
    let mut dev = Device::new(
        WormFirmware::new(fw_config()),
        DeviceConfig {
            cost_model: scpu::CostModel::free(),
            secure_memory_bytes: 64, // tiny: immediate spill
            serial: 1,
            rng_seed: 9,
        },
        clock,
    );
    let reg = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(55), 512);
    dev.execute(WormRequest::Init {
        regulator: reg.public().clone(),
    })
    .unwrap()
    .unwrap();
    loop {
        match dev
            .execute(WormRequest::Write(vec![WriteItem {
                policy,
                flags: 0,
                data: WriteData::Full(vec![b"x".to_vec()]),
                witness: WitnessMode::Strong,
            }]))
            .unwrap()
            .unwrap()
        {
            WormResponse::Written(mut r) if r[0].vexp_spilled => {
                let r = r.remove(0);
                return (dev, r.sn, r.attr, r.metasig);
            }
            WormResponse::Written(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Presents `(sn, attr, metasig)` to re-arm a spilled expiry.
fn rearm(
    dev: &mut Fw,
    sn: SerialNumber,
    attr: RecordAttributes,
    metasig: Witness,
) -> Result<WormResponse, FirmwareError> {
    dev.execute(WormRequest::SyncVexpFromAttr { sn, attr, metasig })
        .unwrap()
}

/// A refusal that names the metasig: the device re-verified the
/// presented attributes and they failed, before secure memory mattered.
fn refused_by_metasig(resp: &Result<WormResponse, FirmwareError>) -> bool {
    matches!(resp, Err(e) if e.0.contains("metasig"))
}

#[test]
fn a_metasig_the_device_never_issued_is_rejected_at_the_device() {
    let (mut dev, sn, attr, metasig) = spilled_write(policy(1000));
    let Witness::Strong(sig) = metasig else {
        panic!("a strong write's metasig is a signature")
    };
    // "Expire immediately", under a signature the firmware never made.
    let mut early = attr.clone();
    early.retention_until = scpu::Timestamp::from_millis(1);
    let forged = Witness::Strong(Signature {
        key_id: sig.key_id,
        bytes: vec![0u8; sig.bytes.len()],
    });
    assert!(refused_by_metasig(&rearm(
        &mut dev,
        sn,
        early,
        forged.clone()
    )));
    assert!(refused_by_metasig(&rearm(&mut dev, sn, attr, forged)));
}

#[test]
fn a_legitimate_metasig_with_tampered_attributes_is_rejected() {
    let (mut dev, sn, attr, metasig) = spilled_write(policy(1000));

    // Earlier expiry with the legitimate metasig: rejected (early
    // deletion attempt).
    let mut early = attr.clone();
    early.retention_until = attr.retention_until.before(Duration::from_secs(500));
    let resp = rearm(&mut dev, sn, early, metasig.clone());
    assert!(refused_by_metasig(&resp), "{resp:?}");

    // Different shredder with the legitimate metasig: rejected.
    let mut weaker = attr;
    weaker.shredder = Shredder::RandomPass;
    let resp = rearm(&mut dev, sn, weaker, metasig);
    assert!(refused_by_metasig(&resp), "{resp:?}");
}

#[test]
fn a_metasig_binds_the_multipass_count() {
    // Seventeen passes and one pass must not verify alike: a host that
    // re-arms the spilled entry with the weaker shredder is refused.
    let strong = Shredder::MultiPass { passes: 17 };
    let (mut dev, sn, attr, metasig) =
        spilled_write(RetentionPolicy::custom(Duration::from_secs(1000), strong));
    let mut weaker = attr.clone();
    weaker.shredder = Shredder::MultiPass { passes: 1 };
    let resp = rearm(&mut dev, sn, weaker, metasig.clone());
    assert!(refused_by_metasig(&resp), "{resp:?}");
    // The attributes it signed pass the metasig (and then meet the
    // still-full secure memory).
    let resp = rearm(&mut dev, sn, attr, metasig);
    assert!(
        matches!(&resp, Err(e) if e.0.contains("secure memory")),
        "{resp:?}"
    );
}

#[test]
fn audit_without_pending_entry_is_rejected() {
    let (mut dev, _clock, _reg) = booted();
    let sn = write(&mut dev, 1000); // Full-data write: no audit pending
    let resp = dev
        .execute(WormRequest::AuditData {
            sn,
            data: vec![b"payload".to_vec()],
        })
        .unwrap();
    assert!(matches!(&resp, Err(e) if e.0.contains("no pending audit")));
}

#[test]
fn head_heartbeat_fires_without_updates() {
    let (mut dev, clock, _reg) = booted();
    // §4.2.1: "the SCPU will update the signature timestamps on disk every
    // few minutes (even in the absence of data updates)".
    clock.advance(Duration::from_secs(121));
    dev.tick().unwrap();
    let items = drain(&mut dev);
    assert!(
        items.iter().any(|i| matches!(i, OutboxItem::NewHead(_))),
        "heartbeat head expected, got {items:?}"
    );
}

#[test]
fn retention_monitor_sleeps_until_next_expiry() {
    let (mut dev, clock, _reg) = booted();
    write(&mut dev, 100);
    write(&mut dev, 50);
    // The alarm must point at the *earlier* expiry (RM sleeps until then).
    let alarm = dev.applet_for_test().next_alarm().expect("alarm armed");
    assert_eq!(alarm, clock.now().after(Duration::from_secs(50)));
}

#[test]
fn zeroize_wipes_everything() {
    let (mut dev, _clock, _reg) = booted();
    write(&mut dev, 100);
    dev.trigger_tamper(scpu::TamperCause::Temperature);
    assert!(dev.execute(WormRequest::GetKeys).is_err());
    assert_eq!(dev.applet_for_test().vexp_len(), 0);
    assert_eq!(dev.applet_for_test().pending_strengthen(), 0);
}

/// A booted device on the IBM 4764 cost model, so an idle budget is spent
/// in whole signatures.
fn metered() -> (Fw, Arc<VirtualClock>) {
    let clock = VirtualClock::starting_at_millis(5_000);
    let mut dev = Device::new(
        WormFirmware::new(fw_config()),
        DeviceConfig {
            cost_model: scpu::CostModel::ibm4764(),
            secure_memory_bytes: 1 << 20,
            serial: 1,
            rng_seed: 9,
        },
        clock.clone(),
    );
    let reg = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(55), 512);
    dev.execute(WormRequest::Init {
        regulator: reg.public().clone(),
    })
    .unwrap()
    .unwrap();
    (dev, clock)
}

fn write_as(dev: &mut Fw, witness: WitnessMode) -> strongworm::firmware::WriteReceipt {
    match dev
        .execute(WormRequest::Write(vec![WriteItem {
            policy: policy(1_000_000),
            flags: 0,
            data: WriteData::Full(vec![b"payload".to_vec()]),
            witness,
        }]))
        .unwrap()
        .unwrap()
    {
        WormResponse::Written(mut r) => r.remove(0),
        other => panic!("unexpected {other:?}"),
    }
}

/// The device's permanent keys and its live weak-key certificates.
fn device_keys(dev: &mut Fw) -> (strongworm::firmware::DeviceKeys, Vec<WeakKeyCert>) {
    match dev.execute(WormRequest::GetKeys).unwrap().unwrap() {
        WormResponse::Keys(k, certs) => (k, certs),
        other => panic!("unexpected {other:?}"),
    }
}

/// What `datasig` covers for the one record `write_as` sends.
fn payload_hash() -> Vec<u8> {
    strongworm::vrd::data_chain_hash([b"payload".as_slice()]).to_vec()
}

/// `metasig` and `datasig` come out of one pair call; the device is still
/// charged the two signatures of Table 1, and each verifies on its own.
#[test]
fn a_write_is_charged_two_signatures_and_both_verify() {
    use strongworm::witness::{data_payload, meta_payload, weak_wrap, Witness};
    let (mut dev, _clock) = metered();
    let (keys, certs) = device_keys(&mut dev);
    let [weak] = &certs[..] else {
        panic!("a device before its first rotation holds one weak certificate")
    };
    let data_hash = payload_hash();
    for (mode, pending) in [(WitnessMode::Strong, 0), (WitnessMode::Deferred, 2)] {
        dev.reset_meter();
        let r = write_as(&mut dev, mode);
        assert_eq!(dev.meter().count("rsa_sign"), 2, "{mode:?}");
        assert_eq!(dev.applet_for_test().pending_strengthen(), pending);
        let payloads = [
            meta_payload(r.sn, &r.attr.encode()),
            data_payload(r.sn, &data_hash),
        ];
        for (witness, payload) in [&r.metasig, &r.datasig].into_iter().zip(&payloads) {
            match witness {
                Witness::Strong(sig) => {
                    assert_eq!(mode, WitnessMode::Strong);
                    assert!(sig.verify(&keys.sign, payload));
                }
                Witness::Weak { sig, expires_at } => {
                    assert_eq!(mode, WitnessMode::Deferred);
                    assert!(sig.verify(&weak.key, &weak_wrap(payload, *expires_at)));
                }
                Witness::Mac { .. } => panic!("no HMAC write was made"),
            }
        }
        // Neither signature stands in for the other.
        if let (Witness::Strong(m), Witness::Strong(d)) = (&r.metasig, &r.datasig) {
            assert!(!m.verify(&keys.sign, &payloads[1]));
            assert!(!d.verify(&keys.sign, &payloads[0]));
        }
    }
}

/// Idle-time strengthening signs a record's two payloads as one pair where
/// the budget covers two signatures and singly where it covers one; the
/// number signed, their order and their charges are those of one signature
/// per queue entry.
#[test]
fn idle_strengthening_pairs_within_budget_and_keeps_queue_order() {
    use strongworm::firmware::WitnessField;
    use strongworm::witness::{data_payload, meta_payload, Witness};
    let (mut dev, _clock) = metered();
    let (keys, _) = device_keys(&mut dev);
    let receipts = [(); 3].map(|()| write_as(&mut dev, WitnessMode::Deferred));
    assert_eq!(dev.applet_for_test().pending_strengthen(), 6);
    let per_sig = scpu::CostModel::ibm4764().cost_ns(scpu::Op::RsaSign {
        bits: fw_config().strong_bits,
    });
    let data_hash = payload_hash();

    let mut strengthened = Vec::new();
    // Less than one signature, exactly one (the partner stays queued), three
    // (a lone `Data` entry, then a whole record), and the rest.
    for (budget, signed) in [
        (per_sig - 1, 0),
        (per_sig, 1),
        (3 * per_sig + per_sig / 2, 3),
        (10 * per_sig, 2),
    ] {
        dev.reset_meter();
        dev.idle(budget).unwrap();
        assert_eq!(dev.meter().count("rsa_sign"), signed, "budget {budget}");
        let items = drain(&mut dev);
        assert_eq!(items.len() as u64, signed);
        strengthened.extend(items);
    }
    assert_eq!(dev.applet_for_test().pending_strengthen(), 0);

    let expected = receipts.iter().flat_map(|r| {
        [
            (
                r.sn,
                WitnessField::Meta,
                meta_payload(r.sn, &r.attr.encode()),
            ),
            (r.sn, WitnessField::Data, data_payload(r.sn, &data_hash)),
        ]
    });
    for (item, (sn, field, payload)) in strengthened.iter().zip(expected) {
        match item {
            OutboxItem::Strengthened {
                sn: got_sn,
                field: got_field,
                witness: Witness::Strong(sig),
            } => {
                assert_eq!((*got_sn, *got_field), (sn, field));
                assert!(sig.verify(&keys.sign, &payload), "{sn} {field:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// The two bounds of a deleted window are one pair call, charged as two
/// signatures, each bound verifying only as its own side.
#[test]
fn window_bounds_are_charged_two_signatures_and_both_verify() {
    use strongworm::witness::{window_payload, WindowSide};
    let (mut dev, clock) = metered();
    let (keys, _) = device_keys(&mut dev);
    for _ in 0..3 {
        write(&mut dev, 10);
    }
    write(&mut dev, 1_000_000);
    clock.advance(Duration::from_secs(20));
    dev.tick().unwrap();
    dev.reset_meter();
    let w = match dev
        .execute(WormRequest::CompactWindow {
            lo: SerialNumber(1),
            hi: SerialNumber(3),
        })
        .unwrap()
        .unwrap()
    {
        WormResponse::Window(w) => w,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(dev.meter().count("rsa_sign"), 2);
    let lower = window_payload(w.window_id, w.lo, WindowSide::Lower);
    let upper = window_payload(w.window_id, w.hi, WindowSide::Upper);
    assert!(w.lo_sig.verify(&keys.sign, &lower));
    assert!(w.hi_sig.verify(&keys.sign, &upper));
    assert!(!w.lo_sig.verify(&keys.sign, &upper));
    assert!(!w.hi_sig.verify(&keys.sign, &lower));
}

/// A deferred write's witnesses, strengthened at an idle whose outbox the
/// host then lost, are queued again when the host presents them back:
/// once, and only while the weak witness lives and verifies over what it
/// signs.
#[test]
fn a_weak_witness_presented_back_is_queued_again_once() {
    let (mut dev, clock, _) = booted();
    let item = WriteItem {
        policy: policy(100_000),
        flags: 0,
        data: WriteData::Full(vec![b"payload".to_vec()]),
        witness: WitnessMode::Deferred,
    };
    let receipt = match dev
        .execute(WormRequest::Write(vec![item]))
        .unwrap()
        .unwrap()
    {
        WormResponse::Written(mut receipts) => receipts.remove(0),
        other => panic!("unexpected {other:?}"),
    };
    let present = |dev: &mut Fw, field, signed: Vec<u8>, witness: &Witness| {
        let sn = receipt.sn;
        let witness = witness.clone();
        let req = WormRequest::RequeueWitness {
            sn,
            field,
            signed,
            witness,
        };
        dev.execute(req).unwrap()
    };
    let queued = |dev: &Fw| dev.applet_for_test().pending_strengthen();
    let (meta, metasig) = (receipt.attr.encode(), &receipt.metasig);
    // Still queued: acknowledged as it stands.
    let again = present(&mut dev, WitnessField::Meta, meta.clone(), metasig);
    assert!(matches!(again, Ok(WormResponse::Queued)));
    assert_eq!(queued(&dev), 2);
    // The device signs both strongly, and the host loses what it drained.
    dev.idle(1_000_000_000).unwrap();
    assert_eq!(drain(&mut dev).len(), 2);
    assert_eq!(queued(&dev), 0);
    // Other attributes, or a witness the device did not make, are refused.
    let mut held = receipt.attr.clone();
    held.flags ^= 1;
    assert!(present(&mut dev, WitnessField::Meta, held.encode(), metasig).is_err());
    let strong = Witness::Strong(Signature {
        key_id: [0; 8],
        bytes: vec![0; 64],
    });
    assert!(present(&mut dev, WitnessField::Meta, meta.clone(), &strong).is_err());
    // The weak witness comes back, once however often it is presented.
    for _ in 0..2 {
        let requeued = present(&mut dev, WitnessField::Meta, meta.clone(), metasig);
        assert!(matches!(requeued, Ok(WormResponse::Queued)));
        assert_eq!(queued(&dev), 1);
    }
    // Past its expiry a weak witness is refused.
    clock.advance(Duration::from_secs(7201));
    let hash = strongworm::vrd::data_chain_hash([&b"payload"[..]]).to_vec();
    let late = present(&mut dev, WitnessField::Data, hash, &receipt.datasig);
    assert!(late.is_err());
    assert_eq!(queued(&dev), 1);
}
