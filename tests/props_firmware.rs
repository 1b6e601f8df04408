//! Firmware-level safety properties under randomized histories.
//!
//! The single most load-bearing firmware invariant: the SCPU must never
//! sign a deleted-window pair whose range contains a live record — that
//! signature is exactly what would let Mallory bury active history
//! (§4.2.1). These properties drive the device with random retention
//! patterns and adversarial compaction requests and check the invariant
//! plus base-advance consistency against an oracle.

mod common;

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Device, DeviceConfig, VirtualClock};
use strongworm::firmware::{
    FirmwareConfig, WormFirmware, WormRequest, WormResponse, WriteData, WriteItem,
};
use strongworm::{RegulatoryAuthority, RetentionPolicy, SerialNumber, WitnessMode};
use wormstore::Shredder;

type Fw = Device<WormFirmware>;

fn boot() -> (Fw, Arc<VirtualClock>) {
    let clock = VirtualClock::starting_at_millis(10_000);
    let mut dev = Device::new(
        WormFirmware::new(FirmwareConfig {
            strong_bits: 512,
            weak_bits: 512,
            weak_lifetime: Duration::from_secs(7200),
            head_refresh_interval: Duration::from_secs(100_000), // quiet heartbeat
            base_cert_lifetime: Duration::from_secs(86_400),
            min_compaction_run: 3,
            sn_origin: 0,
        }),
        DeviceConfig {
            cost_model: scpu::CostModel::free(),
            secure_memory_bytes: 1 << 20,
            serial: 9,
            rng_seed: 1,
        },
        clock.clone(),
    );
    let reg = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(2), 512);
    dev.execute(WormRequest::Init {
        regulator: reg.public().clone(),
    })
    .unwrap()
    .unwrap();
    (dev, clock)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random retentions + adversarial window requests: the firmware
    /// accepts exactly the all-expired ranges, and every signed window is
    /// sound against the oracle.
    #[test]
    fn firmware_never_signs_windows_over_live_records(
        retentions in proptest::collection::vec(10u64..500, 4..24),
        advance in 0u64..600,
        attempts in proptest::collection::vec((0u64..30, 0u64..12), 1..12),
    ) {
        let (mut dev, clock) = boot();
        for (i, r) in retentions.iter().enumerate() {
            let resp = dev
                .execute(WormRequest::Write(vec![WriteItem {
                    policy: RetentionPolicy::custom(
                        Duration::from_secs(*r),
                        Shredder::ZeroFill,
                    ),
                    flags: i as u32,
                    data: WriteData::Full(vec![format!("r{i}").into_bytes()]),
                    witness: WitnessMode::Strong,
                }]))
                .unwrap();
            prop_assert!(resp.is_ok());
        }
        clock.advance(Duration::from_secs(advance));
        dev.tick().unwrap();
        let now_s = advance;

        // Oracle: a record is expired iff its retention elapsed.
        let expired: Vec<bool> = retentions.iter().map(|&r| r <= now_s).collect();

        for (lo_raw, span) in attempts {
            let lo = (lo_raw % retentions.len() as u64) + 1;
            let hi = (lo + span).min(retentions.len() as u64);
            let all_expired =
                (lo..=hi).all(|sn| expired[(sn - 1) as usize]);
            let run_len = hi - lo + 1;
            let resp = dev
                .execute(WormRequest::CompactWindow {
                    lo: SerialNumber(lo),
                    hi: SerialNumber(hi),
                })
                .unwrap();
            match resp {
                Ok(WormResponse::Window(w)) => {
                    prop_assert!(run_len >= 3, "window below the minimum run accepted");
                    prop_assert!(
                        all_expired,
                        "firmware signed window [{lo},{hi}] containing a live record"
                    );
                    prop_assert_eq!(w.lo, SerialNumber(lo));
                    prop_assert_eq!(w.hi, SerialNumber(hi));
                }
                Ok(other) => prop_assert!(false, "unexpected response {other:?}"),
                Err(_) => {
                    // Rejections are always permissible here: short runs,
                    // live records, or ranges overlapping prior windows
                    // (which the firmware treats as covered) all refuse —
                    // and overlap is not reconstructible from this side.
                    let _ = (run_len, all_expired);
                }
            }
        }
    }

    /// The base never advances past a live record, and everything below
    /// it really is expired.
    #[test]
    fn base_advance_is_exact(
        retentions in proptest::collection::vec(10u64..300, 3..20),
        advance in 0u64..400,
    ) {
        let (mut dev, clock) = boot();
        for (i, r) in retentions.iter().enumerate() {
            dev.execute(WormRequest::Write(vec![WriteItem {
                policy: RetentionPolicy::custom(Duration::from_secs(*r), Shredder::ZeroFill),
                flags: i as u32,
                data: WriteData::Full(vec![format!("r{i}").into_bytes()]),
                witness: WitnessMode::Strong,
            }]))
            .unwrap()
            .unwrap();
        }
        clock.advance(Duration::from_secs(advance));
        dev.tick().unwrap();

        let base = match dev.execute(WormRequest::RefreshBase).unwrap().unwrap() {
            WormResponse::Base(b) => b.sn_base,
            other => panic!("unexpected {other:?}"),
        };
        // Oracle: the base should be exactly one past the longest expired
        // prefix.
        let mut expect = 1u64;
        for &r in &retentions {
            if r <= advance {
                expect += 1;
            } else {
                break;
            }
        }
        prop_assert_eq!(base, SerialNumber(expect));
    }
}
