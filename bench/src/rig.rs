//! The system under test and the one client that loads it: a
//! paper-strength `WormServer` behind a loopback `NetServer` with one
//! reactor worker, driven closed-loop over one TCP connection.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{CostModel, DeviceConfig, VirtualClock};
use strongworm::{
    HashMode, ReadVerdict, RegulatoryAuthority, RetentionPolicy, SerialNumber, Verifier,
    WitnessMode, WormConfig, WormServer,
};
use wormnet::{NetRequest, NetResponse, NetServer, NetServerConfig, RemoteWormClient};
use wormstore::BlockDevice;

use crate::gen::Payloads;
use crate::span::Recorder;

pub const STRONG_BITS: usize = 1024;
pub const WEAK_BITS: usize = 512;
/// Requests kept in flight for records of `record_bytes`: about
/// 128 KiB of payload, at least 8 and at most 32 requests. The
/// generator fills the window to this depth and drains it to half, so
/// requests leave in one coalesced write and responses arrive in few
/// buffered reads. The depth decides what is measured: at 8 with small
/// records each half-window gives the peer ~20 us to wake up, and on
/// this sandbox whether it makes that decides the rate (110k to 170k
/// reads/s from one hour to the next); at 32 the slack is ~80 us and
/// the rate is set by CPU work. With 64 KiB records more than 8 in
/// flight only queues megabytes in socket buffers and runs slower.
pub fn pipeline_depth(record_bytes: usize) -> usize {
    ((128 << 10) / record_bytes).clamp(8, 32)
}
pub const FRESHNESS: Duration = Duration::from_secs(300);

/// Paper-strength deployment parameters (1024/512-bit keys, IBM 4764
/// cost model, SCPU hashes the data, strong witnesses).
pub fn config(store_capacity: usize) -> WormConfig {
    WormConfig {
        strong_bits: STRONG_BITS,
        weak_bits: WEAK_BITS,
        hash_mode: HashMode::ScpuHashes,
        default_witness: WitnessMode::Strong,
        store_capacity,
        device: DeviceConfig {
            cost_model: CostModel::ibm4764(),
            secure_memory_bytes: 64 << 20,
            serial: 0x4764,
            rng_seed: 7,
        },
        ..WormConfig::default()
    }
}

pub fn regulator() -> RegulatoryAuthority {
    RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0x4E6), 512)
}

pub fn clock() -> Arc<VirtualClock> {
    VirtualClock::starting_at_millis(1_000_000)
}

/// A served `WormServer` with its single client session.
pub struct Rig<D: BlockDevice + 'static> {
    pub server: Arc<WormServer<D>>,
    pub clock: Arc<VirtualClock>,
    net: NetServer,
    pub client: RemoteWormClient,
    pub verifier: Verifier,
    /// See [`pipeline_depth`].
    pub depth: usize,
}

impl<D: BlockDevice + 'static> Rig<D> {
    /// Serves `server` on loopback and connects. `quiet` pulls the
    /// trace-collection kill switch first; otherwise the server runs
    /// exactly as booted.
    pub fn serve(
        server: WormServer<D>,
        clock: Arc<VirtualClock>,
        quiet: bool,
        record_bytes: usize,
    ) -> Self {
        if quiet {
            server.trace().set_enabled(false);
        }
        let server = Arc::new(server);
        let net = NetServer::bind(
            Arc::clone(&server),
            "127.0.0.1:0",
            NetServerConfig {
                workers: 1,
                ..NetServerConfig::default()
            },
        )
        .expect("bind loopback");
        let mut client = RemoteWormClient::connect(net.local_addr()).expect("connect");
        if crate::pin::place_server_and_generator().is_none() {
            eprintln!("wormbench: could not pin threads to two CPUs; rates will flip between runs");
        }
        let verifier = client
            .bootstrap_verifier(FRESHNESS, clock.clone())
            .expect("verifier from served keys");
        Rig {
            server,
            clock,
            net,
            client,
            verifier,
            depth: pipeline_depth(record_bytes),
        }
    }

    /// Stops the network front-end (joining its threads) and hands the
    /// server back.
    pub fn shutdown(self) -> WormServer<D> {
        let Rig {
            server,
            net,
            client,
            ..
        } = self;
        drop(client);
        net.shutdown();
        Arc::try_unwrap(server)
            .unwrap_or_else(|_| panic!("net threads joined; no other server handle remains"))
    }
}

/// What a read must verify to.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Live, with exactly the payload generated for this tag.
    Intact(u64),
    Deleted,
    NeverExisted,
}

/// One request of a segment. Tags are dense from 0 in write order and
/// this client is the server's only writer, so the record tagged `t`
/// must be given serial number `t + 1`.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    Read {
        sn: u64,
        expect: Expect,
    },
    Write {
        tag: u64,
        len: usize,
        policy: RetentionPolicy,
    },
}

/// What one segment of wire traffic measured.
#[derive(Default)]
pub struct Traffic {
    pub attempted: u64,
    pub failed: u64,
    pub wall_ns: u64,
    /// Submit-to-verified latency of every successful read, ns.
    pub reads: Vec<u64>,
    /// Submit-to-acknowledged latency of every successful write, ns.
    pub writes: Vec<u64>,
    pub first_failure: Option<String>,
}

impl Traffic {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }
}

struct Pending {
    call: Call,
    submitted: Instant,
    /// Root span id when tracing.
    root: u32,
}

/// Sends `calls` over the rig's connection with the fill-to-depth /
/// drain-to-half cadence, verifying every response against what the
/// generator expects. Nothing is sampled: every read goes through
/// `Verifier::verify_read` and a byte comparison.
pub fn drive<D: BlockDevice + 'static>(
    rig: &mut Rig<D>,
    payloads: &Payloads,
    calls: impl IntoIterator<Item = Call>,
    mut rec: Option<&mut Recorder>,
) -> Traffic {
    let Rig {
        client,
        verifier,
        depth,
        ..
    } = rig;
    let depth = *depth;
    let mut out = Traffic::default();
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(depth);
    let mut pipe = client.pipeline(depth);
    let mut calls = calls.into_iter();
    let mut exhausted = false;
    let started = Instant::now();
    loop {
        while !exhausted && pipe.in_flight() < depth {
            let Some(call) = calls.next() else {
                exhausted = true;
                break;
            };
            // Payload bytes are the generator's work, made before the
            // request's clock starts.
            let request = match call {
                Call::Read { sn, .. } => NetRequest::Read {
                    sn: SerialNumber(sn),
                },
                Call::Write { tag, len, policy } => NetRequest::Write {
                    records: vec![Bytes::from(payloads.make(tag, len))],
                    policy,
                    flags: 0,
                    witness: WitnessMode::Strong,
                },
            };
            let req_id = out.attempted as u32;
            out.attempted += 1;
            let submitted = Instant::now();
            let sent = pipe.send(&request);
            let root = match rec.as_deref_mut() {
                Some(r) => {
                    let start = r.at(submitted);
                    let root = r.open("req", start, 0, req_id);
                    let end = r.now();
                    r.push("client.send", start, end, root, req_id);
                    root
                }
                None => 0,
            };
            pending.push_back(Pending {
                call,
                submitted,
                root,
            });
            // The window never exceeds the depth, so `send` only queues.
            match sent {
                Ok(None) => {}
                Ok(Some(_)) => unreachable!("send collects only past the window depth"),
                Err(e) => {
                    out.fail(format!("send failed: {e}"));
                    return out;
                }
            }
        }
        let floor = if exhausted { 0 } else { depth / 2 };
        while pipe.in_flight() > floor {
            let recv_start = rec.as_deref().map(Recorder::now);
            let resp = match pipe.recv() {
                Ok(Some(resp)) => resp,
                Ok(None) => break,
                Err(e) => {
                    out.fail(format!("recv failed: {e}"));
                    return out;
                }
            };
            let recv_end = rec.as_deref().map(Recorder::now);
            let p = pending.pop_front().expect("a response has a request");
            let verdict = check(&p.call, &resp, verifier, payloads);
            let done = Instant::now();
            if let (Some(r), Some(a), Some(b)) = (rec.as_deref_mut(), recv_start, recv_end) {
                let req_id = r.spans[p.root as usize - 1].req;
                let end = r.at(done);
                r.push("client.recv", a, b, p.root, req_id);
                r.push("client.verify", b, end, p.root, req_id);
                r.close(p.root, end);
            }
            let ns = done.duration_since(p.submitted).as_nanos() as u64;
            match (verdict, p.call) {
                (Ok(()), Call::Read { .. }) => out.reads.push(ns),
                (Ok(()), Call::Write { .. }) => out.writes.push(ns),
                (Err(what), _) => out.fail(what),
            }
        }
        if exhausted && pipe.in_flight() == 0 {
            break;
        }
    }
    out.wall_ns = started.elapsed().as_nanos() as u64;
    out
}

fn check(
    call: &Call,
    resp: &NetResponse,
    verifier: &Verifier,
    payloads: &Payloads,
) -> Result<(), String> {
    match (call, resp) {
        (Call::Write { tag, .. }, NetResponse::Written { sn }) => {
            if sn.0 == tag + 1 {
                Ok(())
            } else {
                Err(format!("write {tag} got {sn:?}, expected SN {}", tag + 1))
            }
        }
        (Call::Read { sn, expect }, NetResponse::Outcome(outcome)) => {
            let sn = SerialNumber(*sn);
            let verdict = verifier
                .verify_read(sn, outcome)
                .map_err(|e| format!("read of {sn:?} failed verification: {e}"))?;
            let ok = match (expect, &verdict, outcome) {
                (
                    Expect::Intact(tag),
                    ReadVerdict::Intact { sn: got },
                    strongworm::ReadOutcome::Data { records, .. },
                ) => *got == sn && records.len() == 1 && payloads.matches(*tag, &records[0]),
                (Expect::Deleted, ReadVerdict::ConfirmedDeleted { .. }, _) => true,
                (Expect::NeverExisted, ReadVerdict::ConfirmedNeverExisted, _) => true,
                _ => false,
            };
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "read of {sn:?}: expected {expect:?}, verified {verdict:?}"
                ))
            }
        }
        (_, NetResponse::Error { code, message }) => Err(format!("server error {code}: {message}")),
        (call, _) => Err(format!("wrong response kind for {call:?}")),
    }
}
