//! `lifecycle_durable`: records through their whole life on a
//! crash-atomic server — witnessed wire writes, retention expiry,
//! shredding, window and store compaction, a verified audit of every
//! serial number — and a restart from the medium at the end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use strongworm::{ReadOutcome, ReadVerdict, RetentionPolicy, SerialNumber, Verifier, WormServer};
use wormstore::{BlockDevice, MemDisk, Partition, Shredder};

use crate::gen::{jitter, scan_markers, Payloads};
use crate::layers;
use crate::rig::{self, drive, Call, Expect, Rig, FRESHNESS};
use crate::span::Recorder;
use crate::workload::{
    counters, instrument_values, keep_policy, read_values, shed_gate, vrdt_values, write_values,
    Built, Counters, Gate, Seg, Values, Workload,
};

pub const NAME: &str = "lifecycle_durable";
const RECORD_BYTES: usize = 64 << 10;
/// Records per cycle; three of four expire within the cycle.
const CYCLE_RECORDS: usize = 512;
const JOURNAL_BYTES: u64 = 32 << 20;
/// Zero pages until written, so the size costs nothing up front.
const MEDIUM_BYTES: usize = 1 << 30;
const RETENTION: Duration = Duration::from_secs(100);

type Medium = Arc<MemDisk>;
type Server = WormServer<Partition<Medium>>;

fn short_policy() -> RetentionPolicy {
    RetentionPolicy::custom(RETENTION, Shredder::MultiPass { passes: 3 })
}

pub struct Lifecycle {
    rig: Rig<Partition<Medium>>,
    disk: Medium,
    payloads: Payloads,
    sizes: StdRng,
    /// Per tag written so far: whether it was a short-retention victim
    /// (all of which have expired by the end of their cycle).
    victim: Vec<bool>,
    keeper_bytes: u64,
    /// Highest store offset ever allocated, for the raw-medium scan.
    peak_watermark: u64,
    last_journal_growth: usize,
    /// Tags of the newest full cycle, for the layer replay.
    last_cycle: std::ops::Range<u64>,
}

impl Lifecycle {
    pub fn build(seed: u64) -> Result<Built, String> {
        let disk: Medium = Arc::new(MemDisk::unmetered(MEDIUM_BYTES));
        let clock = rig::clock();
        let server = Server::with_durable(
            disk.clone(),
            JOURNAL_BYTES,
            rig::config(0), // capacity comes from the medium, not the config
            clock.clone(),
            rig::regulator().public(),
        )
        .map_err(|e| format!("boot: {e}"))?;
        let mut w = Lifecycle {
            rig: Rig::serve(server, clock, true, RECORD_BYTES),
            disk,
            payloads: Payloads::new(seed, RECORD_BYTES),
            sizes: StdRng::seed_from_u64(seed ^ 0x11FE),
            victim: Vec::new(),
            keeper_bytes: 0,
            peak_watermark: 0,
            last_journal_growth: 0,
            last_cycle: 0..0,
        };
        let warm = w.segment(CYCLE_RECORDS, None);
        if let Some(what) = warm.first_failure {
            return Err(format!("warm-up cycle: {what}"));
        }
        let setup_values = vrdt_values(&w.rig.server);
        Ok(Built {
            workload: Box::new(w),
            setup_values,
        })
    }

    fn now(&self) -> Counters {
        counters(&self.rig.server, self.disk.stats())
    }

    fn journal_len(&self) -> usize {
        self.rig.server.vrdt().journal().as_bytes().len()
    }
}

impl Workload for Lifecycle {
    fn seg_ops(&self) -> usize {
        CYCLE_RECORDS
    }

    fn record_bytes(&self) -> usize {
        RECORD_BYTES
    }

    fn can_continue(&self) -> bool {
        let store = self.rig.server.store();
        let cycle = (CYCLE_RECORDS * RECORD_BYTES) as u64;
        store.watermark() + 2 * cycle < store.device().capacity()
            && (self.journal_len() + 2 * self.last_journal_growth) as u64 <= JOURNAL_BYTES
    }

    fn segment(&mut self, records: usize, mut rec: Option<&mut Recorder>) -> Seg {
        let journal_before = self.journal_len();
        let first = self.victim.len() as u64;
        let mut user_bytes = 0u64;
        let mut victim_bytes = 0u64;
        let mut victims = 0u64;
        let ingest: Vec<Call> = (0..records as u64)
            .map(|pos| {
                let len = jitter(RECORD_BYTES, self.sizes.next_u64());
                let keep = pos % 4 == 3;
                self.victim.push(!keep);
                user_bytes += len as u64;
                if keep {
                    self.keeper_bytes += len as u64;
                } else {
                    victim_bytes += len as u64;
                    victims += 1;
                }
                Call::Write {
                    tag: first + pos,
                    len,
                    policy: if keep { keep_policy() } else { short_policy() },
                }
            })
            .collect();
        self.last_cycle = first..first + records as u64;

        let c0 = self.now();
        let written = drive(&mut self.rig, &self.payloads, ingest, rec.as_deref_mut());
        let c1 = self.now();
        self.peak_watermark = self.peak_watermark.max(self.rig.server.store().watermark());

        // Retention lapses; the Retention Monitor fires on the tick.
        self.rig.clock.advance(RETENTION + Duration::from_secs(1));
        let mut failed = written.failed;
        let mut first_failure = written.first_failure;
        let mut phase = |name: &'static str, f: &mut dyn FnMut() -> Result<usize, String>| {
            let start = Instant::now();
            let out = f();
            let end = Instant::now();
            if let Some(r) = rec.as_deref_mut() {
                let (a, b) = (r.at(start), r.at(end));
                r.push(name, a, b, 0, 0);
            }
            let n = out.unwrap_or_else(|e| {
                failed += 1;
                first_failure.get_or_insert(format!("{name}: {e}"));
                0
            });
            (end.duration_since(start).as_nanos() as f64, n as f64)
        };
        let (client, server) = (&mut self.rig.client, &self.rig.server);
        let (tick_ns, _) = phase("stage.tick", &mut || {
            client.tick().map(|()| 0).map_err(|e| e.to_string())
        });
        let (compact_ns, windows) = phase("stage.compact", &mut || {
            server.compact().map_err(|e| e.to_string())
        });
        let (compact_store_ns, moved) = phase("stage.compact_store", &mut || {
            server.compact_store().map_err(|e| e.to_string())
        });
        let c2 = self.now();

        let above_head = first + records as u64 + 1;
        let audit: Vec<Call> = (first..first + records as u64)
            .map(|tag| Call::Read {
                sn: tag + 1,
                expect: if self.victim[tag as usize] {
                    Expect::Deleted
                } else {
                    Expect::Intact(tag)
                },
            })
            .chain([Call::Read {
                sn: above_head,
                expect: Expect::NeverExisted,
            }])
            .collect();
        let audited = drive(&mut self.rig, &self.payloads, audit, rec);
        let c3 = self.now();
        self.last_journal_growth = self.journal_len() - journal_before;

        let mut v = Values::new();
        write_values(&mut v, &c0, &c1, records as u64);
        let dev_bytes =
            |a: &Counters, b: &Counters| (b.dev.bytes_written - a.dev.bytes_written) as f64;
        let n = records as f64;
        v.insert(
            "expire_per_s",
            victims as f64 / ((tick_ns + compact_ns + compact_store_ns) / 1e9),
        );
        v.insert("write_amp", dev_bytes(&c0, &c3) / user_bytes as f64);
        let store = self.rig.server.store();
        v.insert(
            "space_amp",
            (store.watermark() - store.free_bytes()) as f64 / self.keeper_bytes as f64,
        );
        v.insert(
            "scpu.virtual_ns_per_expire",
            (c2.scpu_busy_ns - c1.scpu_busy_ns) as f64 / victims as f64,
        );
        v.insert(
            "wormstore.journal_bytes_per_write",
            (dev_bytes(&c0, &c1) - user_bytes as f64) / n,
        );
        v.insert(
            "wormstore.retention_bytes_per_expired_byte",
            dev_bytes(&c1, &c2) / victim_bytes as f64,
        );
        v.insert("witness.tick_ns_per_expire", tick_ns / victims as f64);
        if windows > 0.0 {
            v.insert("witness.compact_ns_per_window", compact_ns / windows);
        }
        if moved > 0.0 {
            v.insert(
                "witness.compact_store_ns_per_extent",
                compact_store_ns / moved,
            );
        }
        let attempted = written.attempted + audited.attempted + 3;
        read_values(&mut v, &c2, &c3, audited.attempted);
        instrument_values(&mut v, &c0, &c3, attempted);

        Seg {
            attempted,
            failed: failed + audited.failed,
            first_failure: first_failure.or(audited.first_failure),
            // Ingest-phase witnessed writes per second: the paper's axis.
            ops_per_s: written.writes.len() as f64 / (written.wall_ns as f64 / 1e9),
            reads: audited.reads,
            writes: written.writes,
            values: v,
        }
    }

    fn layers(&mut self, rec: &mut Recorder) -> Values {
        let sns: Vec<u64> = self.last_cycle.clone().map(|tag| tag + 1).collect();
        let mut v = layers::read_stages(&mut self.rig, &sns, rec);
        let mut next_tag = self.victim.len() as u64;
        v.insert(
            "witness.write_ns",
            layers::witness_writes(
                &self.rig.server,
                &self.payloads,
                &mut next_tag,
                RECORD_BYTES,
                keep_policy(),
                rec,
            ),
        );
        self.victim.resize(next_tag as usize, false);
        v
    }

    fn finish(self: Box<Self>) -> Gate {
        let Gate {
            mut violations,
            mut values,
        } = shed_gate(&self.rig.server);

        // No expired record's payload may remain anywhere on the medium
        // after shredding: journal region and every store offset ever
        // allocated.
        {
            let raw = self.disk.raw();
            let scanned = (JOURNAL_BYTES + self.peak_watermark) as usize;
            for tag in scan_markers(&raw[..scanned.min(raw.len())]) {
                if self.victim.get(tag as usize).copied().unwrap_or(false) {
                    violations.push(format!(
                        "payload of expired record {tag} still on the medium"
                    ));
                }
            }
        }

        // Restart: the host dies; the battery-backed SCPU and the
        // medium survive. The medium is memory and the store has no
        // flush to lose, so nothing is discarded — this times recovery
        // and checks that the recovered server proves the same state.
        let Lifecycle {
            rig,
            disk,
            payloads,
            victim,
            ..
        } = *self;
        let clock = rig.clock.clone();
        let (device, store, journal) = rig.shutdown().into_parts();
        drop((store, journal));
        let started = Instant::now();
        let recovered =
            Server::recover_durable(disk, JOURNAL_BYTES, device, rig::config(0), clock.clone());
        values.insert("wormstore.recover_s", started.elapsed().as_secs_f64());
        match recovered {
            Err((e, _device)) => violations.push(format!("recovery failed: {e}")),
            Ok(server) => match Verifier::new(server.keys(), FRESHNESS, clock) {
                Err(e) => violations.push(format!("recovered keys: {e}")),
                Ok(verifier) => {
                    for (tag, &was_victim) in victim.iter().enumerate() {
                        let sn = SerialNumber(tag as u64 + 1);
                        let ok = server.read(sn).ok().is_some_and(|outcome| {
                            match (verifier.verify_read(sn, &outcome), &outcome) {
                                (Ok(ReadVerdict::ConfirmedDeleted { .. }), _) => was_victim,
                                (
                                    Ok(ReadVerdict::Intact { .. }),
                                    ReadOutcome::Data { records, .. },
                                ) => {
                                    !was_victim
                                        && records.len() == 1
                                        && payloads.matches(tag as u64, &records[0])
                                }
                                _ => false,
                            }
                        });
                        if !ok {
                            violations.push(format!("after restart, {sn:?} is not as written"));
                            break;
                        }
                    }
                }
            },
        }
        Gate { violations, values }
    }
}
