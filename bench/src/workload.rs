//! What every workload gives the measuring loop, and the four
//! `WormServer::new`-backed wire workloads.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use strongworm::{RetentionPolicy, WormServer};
use wormstore::{BlockDevice, IoStats, MemDisk, Shredder};

use crate::gen::{jitter, Payloads, Req, Stream};
use crate::layers;
use crate::rig::{self, drive, Call, Expect, Rig, Traffic};
use crate::span::Recorder;

/// Named values; a name missing from the map is "not applicable here".
pub type Values = BTreeMap<&'static str, f64>;

/// One measured segment: a fixed number of operations on a warm rig.
pub struct Seg {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The workload's headline rate for this segment.
    pub ops_per_s: f64,
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    /// Per-segment derived values (counter deltas over the segment);
    /// the loop reports the median of each across segments.
    pub values: Values,
}

/// The verdict of a workload's end-of-run correctness gate.
pub struct Gate {
    pub violations: Vec<String>,
    pub values: Values,
}

pub trait Workload {
    /// Operations per measured segment, frozen per workload.
    fn seg_ops(&self) -> usize;
    /// Nominal record size, for the primitives timed at that size.
    fn record_bytes(&self) -> usize;
    /// Whether the rig has room for another segment.
    fn can_continue(&self) -> bool {
        true
    }
    /// Runs one segment of `ops` operations, recording the benchmark's
    /// own spans when `rec` is given.
    fn segment(&mut self, ops: usize, rec: Option<&mut Recorder>) -> Seg;
    /// Replays the workload's requests in-process through each public
    /// boundary in turn and times the layers on their own.
    fn layers(&mut self, rec: &mut Recorder) -> Values;
    /// End-of-run gate; stops every thread the workload started.
    fn finish(self: Box<Self>) -> Gate;
}

/// A built workload and what its set-up measured.
pub struct Built {
    pub workload: Box<dyn Workload>,
    pub setup_values: Values,
}

/// The program's exported counters at one instant.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub dev: IoStats,
    pub scpu_busy_ns: u128,
    pub scpu_commands: u64,
    pub net_bytes_out: u64,
    pub audit_emitted: u64,
    pub traces_captured: u64,
}

pub fn counters<D: BlockDevice>(server: &WormServer<D>, dev: IoStats) -> Counters {
    let meter = server.device_meter();
    let snap = server.stats_snapshot();
    Counters {
        dev,
        scpu_busy_ns: meter.busy_ns(),
        scpu_commands: meter.count("command"),
        net_bytes_out: snap.counter("net.bytes_out"),
        audit_emitted: snap.counter("audit.emitted"),
        traces_captured: snap.counter("net.traces_captured"),
    }
}

/// Share of read requests the server answered without touching the
/// device. `ReadCache` exports no counter of its own; a served-from-
/// cache read is one that caused no device read.
pub fn hit_ratio(device_reads: u64, read_requests: u64) -> f64 {
    if read_requests == 0 {
        return 0.0;
    }
    1.0 - (device_reads as f64 / read_requests as f64).min(1.0)
}

/// Throughput lost to observation, in percent of the quiet rate.
pub fn effect_pct(observed_ops_per_s: f64, quiet_ops_per_s: f64) -> f64 {
    (1.0 - observed_ops_per_s / quiet_ops_per_s) * 100.0
}

/// Values every write-carrying interval reports, from counter deltas.
pub fn write_values(v: &mut Values, before: &Counters, after: &Counters, writes: u64) {
    if writes == 0 {
        return;
    }
    let busy = (after.scpu_busy_ns - before.scpu_busy_ns) as f64;
    let n = writes as f64;
    v.insert("scpu_bound_writes_per_s", n / (busy / 1e9));
    v.insert("scpu.virtual_ns_per_write", busy / n);
    v.insert(
        "scpu.commands_per_write",
        (after.scpu_commands - before.scpu_commands) as f64 / n,
    );
    v.insert(
        "wormstore.dev_writes_per_record",
        (after.dev.writes - before.dev.writes) as f64 / n,
    );
}

/// Values of an interval of reads: cache hits and bytes sent per read.
pub fn read_values(v: &mut Values, before: &Counters, after: &Counters, reads: u64) {
    v.insert(
        "readcache.hit_ratio",
        hit_ratio(after.dev.reads - before.dev.reads, reads),
    );
    v.insert(
        "net.bytes_out_per_read",
        (after.net_bytes_out - before.net_bytes_out) as f64 / reads.max(1) as f64,
    );
}

/// What the program's own instruments emitted per thousand operations.
pub fn instrument_values(v: &mut Values, before: &Counters, after: &Counters, ops: u64) {
    let per_kop = |n: u64| n as f64 / ops.max(1) as f64 * 1e3;
    v.insert(
        "audit.events_per_kop",
        per_kop(after.audit_emitted - before.audit_emitted),
    );
    v.insert(
        "trace.captured_per_kop",
        per_kop(after.traces_captured - before.traces_captured),
    );
}

/// VRDT residency, taken right after set-up so that it repeats exactly.
pub fn vrdt_values<D: BlockDevice>(server: &WormServer<D>) -> Values {
    let vrdt = server.vrdt();
    Values::from([
        ("vrdt.resident_entries", vrdt.resident_entries() as f64),
        ("vrdt.resident_windows", vrdt.resident_windows() as f64),
    ])
}

/// The admission gate every workload ends with: nothing was shed.
pub fn shed_gate<D: BlockDevice>(server: &WormServer<D>) -> Gate {
    let shed = server.stats_snapshot().counter("net.conn_shed");
    Gate {
        violations: (shed != 0)
            .then(|| format!("net.conn_shed = {shed}"))
            .into_iter()
            .collect(),
        values: Values::from([("net.conn_shed", shed as f64)]),
    }
}

/// Retention no run outlives; cheapest shredder.
pub fn keep_policy() -> RetentionPolicy {
    RetentionPolicy::custom(
        Duration::from_secs(10 * 365 * 24 * 3600),
        Shredder::ZeroFill,
    )
}

pub struct WireSpec {
    pub name: &'static str,
    pub records: usize,
    pub record_bytes: usize,
    pub seg_ops: usize,
    pub write_every: Option<usize>,
    /// Trace collection switched off before serving (the only state in
    /// which `ReadCache` serves); otherwise the server is as booted.
    pub quiet: bool,
}

/// Room for the corpus plus every write a run can make: the medium is
/// zero pages until written, so the size costs nothing up front.
const STORE_BYTES: usize = 1 << 30;

pub struct Wire {
    spec: &'static WireSpec,
    rig: Rig<MemDisk>,
    payloads: Payloads,
    stream: Stream,
    /// Tag of the next write (= records written so far).
    next_tag: u64,
}

impl Wire {
    /// Boots, serves, loads the corpus over the wire, and runs one
    /// warm-up segment.
    pub fn build(spec: &'static WireSpec, seed: u64) -> Result<Built, String> {
        let payloads = Payloads::new(seed, spec.record_bytes);
        let clock = rig::clock();
        let server = WormServer::new(
            rig::config(STORE_BYTES),
            clock.clone(),
            rig::regulator().public(),
        )
        .map_err(|e| format!("boot: {e}"))?;
        let mut rig = Rig::serve(server, clock, spec.quiet, spec.record_bytes);

        let mut sizes = StdRng::seed_from_u64(seed ^ 0xC0_4B05);
        let load: Vec<Call> = (0..spec.records as u64)
            .map(|tag| Call::Write {
                tag,
                len: jitter(spec.record_bytes, sizes.next_u64()),
                policy: keep_policy(),
            })
            .collect();
        let before = counters(&rig.server, rig.server.store().device().stats());
        let loaded = drive(&mut rig, &payloads, load, None);
        if let Some(what) = loaded.first_failure {
            return Err(format!("corpus load: {what}"));
        }
        let after = counters(&rig.server, rig.server.store().device().stats());
        let mut setup_values = Values::new();
        write_values(&mut setup_values, &before, &after, spec.records as u64);

        let mut w = Wire {
            spec,
            rig,
            payloads,
            stream: Stream::new(seed, spec.records, spec.write_every, spec.record_bytes),
            next_tag: spec.records as u64,
        };
        let warm = w.segment(spec.seg_ops, None);
        if let Some(what) = warm.first_failure {
            return Err(format!("warm-up: {what}"));
        }
        setup_values.extend(vrdt_values(&w.rig.server));
        Ok(Built {
            workload: Box::new(w),
            setup_values,
        })
    }

    fn now(&self) -> Counters {
        counters(&self.rig.server, self.rig.server.store().device().stats())
    }

    fn calls(&mut self, ops: usize) -> Vec<Call> {
        let mut calls = Vec::with_capacity(ops);
        for req in self.stream.by_ref().take(ops) {
            calls.push(match req {
                Req::Read(i) => Call::Read {
                    sn: i as u64 + 1,
                    expect: Expect::Intact(i as u64),
                },
                Req::Write(len) => {
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    Call::Write {
                        tag,
                        len,
                        policy: keep_policy(),
                    }
                }
            });
        }
        calls
    }
}

/// Folds a driven interval into a segment with the counter-derived
/// values every wire workload reports.
fn wire_seg(t: Traffic, before: &Counters, after: &Counters) -> Seg {
    let writes = t.writes.len() as u64;
    let mut values = Values::new();
    read_values(&mut values, before, after, t.attempted - writes);
    instrument_values(&mut values, before, after, t.attempted);
    write_values(&mut values, before, after, writes);
    Seg {
        attempted: t.attempted,
        failed: t.failed,
        first_failure: t.first_failure,
        ops_per_s: (t.attempted - t.failed) as f64 / (t.wall_ns as f64 / 1e9),
        reads: t.reads,
        writes: t.writes,
        values,
    }
}

impl Workload for Wire {
    fn seg_ops(&self) -> usize {
        self.spec.seg_ops
    }

    fn record_bytes(&self) -> usize {
        self.spec.record_bytes
    }

    fn segment(&mut self, ops: usize, rec: Option<&mut Recorder>) -> Seg {
        let calls = self.calls(ops);
        let before = self.now();
        let t = drive(&mut self.rig, &self.payloads, calls, rec);
        let after = self.now();
        wire_seg(t, &before, &after)
    }

    fn layers(&mut self, rec: &mut Recorder) -> Values {
        // The replay is read-only: the stream's write slots are skipped.
        let sns: Vec<u64> = self
            .stream
            .by_ref()
            .take(layers::REPLAY_OPS)
            .filter_map(|req| match req {
                Req::Read(i) => Some(i as u64 + 1),
                Req::Write(_) => None,
            })
            .collect();
        let mut v = layers::read_stages(&mut self.rig, &sns, rec);
        v.insert(
            "witness.write_ns",
            layers::witness_writes(
                &self.rig.server,
                &self.payloads,
                &mut self.next_tag,
                self.spec.record_bytes,
                keep_policy(),
                rec,
            ),
        );
        if !self.spec.quiet {
            // The same server with and without its instruments, one
            // segment each: what observation costs this workload.
            let ops = self.spec.seg_ops;
            let observed = self.segment(ops, None).ops_per_s;
            self.rig.server.trace().set_enabled(false);
            let quiet = self.segment(ops, None).ops_per_s;
            self.rig.server.trace().set_enabled(true);
            v.insert("obs.effect_pct", effect_pct(observed, quiet));
        }
        v
    }

    fn finish(mut self: Box<Self>) -> Gate {
        // Every record written during the run reads back intact.
        let written = self.spec.records as u64..self.next_tag;
        let audit: Vec<Call> = written
            .map(|tag| Call::Read {
                sn: tag + 1,
                expect: Expect::Intact(tag),
            })
            .collect();
        let t = drive(&mut self.rig, &self.payloads, audit, None);
        let mut gate = shed_gate(&self.rig.server);
        if let Some(what) = t.first_failure {
            gate.violations
                .push(format!("read-back of run writes: {what}"));
        }
        drop(self.rig.shutdown());
        gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_from_device_reads() {
        assert_eq!(hit_ratio(0, 1000), 1.0);
        assert_eq!(hit_ratio(1000, 1000), 0.0);
        assert_eq!(hit_ratio(250, 1000), 0.75);
        // A read may touch the device more than once; never negative.
        assert_eq!(hit_ratio(1500, 1000), 0.0);
        assert_eq!(hit_ratio(0, 0), 0.0);
    }

    #[test]
    fn observer_effect_in_percent_of_quiet() {
        assert!((effect_pct(80.0, 100.0) - 20.0).abs() < 1e-9);
        assert_eq!(effect_pct(100.0, 100.0), 0.0);
        assert!(effect_pct(110.0, 100.0) < 0.0);
    }
}
