//! Event-driven TCP front-end for a [`ShardedWormServer`] deployment.
//!
//! The network layer adds no trust: it is part of the untrusted host.
//! Serving is a small reactor (see [`crate::reactor`]): each worker
//! thread runs a readiness loop over *all* the connections assigned to
//! it — `poll(2)` via the vendored [`netpoll`] shim — so N workers
//! serve M ≫ N connections fairly instead of each worker owning one
//! connection for its lifetime. Requests on one connection may be
//! pipelined; responses return in request order, with decode batched
//! from a per-connection read buffer and flushes coalesced per
//! readiness burst, and sent before any device command: what a burst has
//! answered goes to the socket before any frame but a `Read` is served
//! (each of those may reach the SCPU), so an answered read does not wait
//! on an SCPU command that arrived behind it. A `Read` whose head or base
//! is stale refreshes it through the SCPU without that flush.
//!
//! Workers call straight into the fronted deployment — N ≥ 1
//! [`WormServer`] lanes, one SCPU each; a bound `WormServer` is the
//! one-lane case — so concurrent connections exercise the read plane in
//! parallel while mutations serialize per witness plane, exactly the
//! concurrency discipline in-process callers get. Writes fan out
//! round-robin across lanes and only same-lane writes contend; a read
//! goes to the lane its serial number names.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender, TrySendError};
use strongworm::wire::{WireError, WireWriter};
use strongworm::{RecordWrite, SerialNumber, ShardedWormServer, WormError, WormServer};
use wormstore::BlockDevice;

use crate::frame::{put_frame, write_frame, DEFAULT_MAX_FRAME};
use crate::protocol::{
    decode_request_traced, encode_response, error_code, put_outcome_response, put_response,
    NetRequest, NetResponse, CODE_BAD_REQUEST, CODE_BUSY,
};
use crate::reactor;
use crate::NetError;

/// What [`NetServer::bind`] fronts: a shared deployment, or one shared
/// [`WormServer`], which serves as a one-lane deployment (its registry
/// and audit journal are the deployment's, so nothing it serves changes).
///
/// A trait of its own because the coherence rules allow no
/// `From<Arc<WormServer>>` for `Arc<ShardedWormServer>`, both being
/// `Arc`s.
pub trait IntoLanes<D: BlockDevice> {
    /// The deployment to serve.
    fn into_lanes(self) -> Arc<ShardedWormServer<D>>;
}

impl<D: BlockDevice> IntoLanes<D> for Arc<ShardedWormServer<D>> {
    fn into_lanes(self) -> Arc<ShardedWormServer<D>> {
        self
    }
}

impl<D: BlockDevice> IntoLanes<D> for Arc<WormServer<D>> {
    fn into_lanes(self) -> Arc<ShardedWormServer<D>> {
        Arc::new(self.into())
    }
}

/// Tuning knobs for [`NetServer`].
#[derive(Clone, Copy, Debug)]
pub struct NetServerConfig {
    /// Worker threads, each running a readiness event loop over its
    /// share of the connections. Connections are multiplexed, not
    /// owned: a worker interleaves every connection assigned to it.
    pub workers: usize,
    /// Hard cap on request frame size; oversized announcements are
    /// rejected before allocation and the connection is dropped.
    pub max_frame: u32,
    /// A connection with no inbound bytes for this long is closed.
    pub read_timeout: Duration,
    /// A connection whose pending output makes no progress for this
    /// long (peer not draining) is closed.
    pub write_timeout: Duration,
    /// Per-worker hand-off inbox bound: connections accepted but not
    /// yet swept into a worker's set. A full inbox falls through to the
    /// next worker; when every inbox is full the acceptor sheds the
    /// connection with a [`CODE_BUSY`] frame.
    pub queue_depth: usize,
    /// Server-wide cap on concurrently open connections; beyond it the
    /// acceptor sheds new arrivals with a [`CODE_BUSY`] frame before
    /// closing them, so clients can tell load-shedding from a crash.
    pub max_connections: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            queue_depth: 64,
            max_connections: 1024,
        }
    }
}

/// How long blocked loops wait in `poll(2)` before re-checking the
/// shutdown flag (wakers usually cut this short).
pub(crate) const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Frame header size added to payload length for byte accounting.
pub(crate) const FRAME_HEADER_BYTES: u64 = 4;

/// Consecutive non-`WouldBlock` accept failures before the acceptor
/// backs off. A lone transient failure (`ECONNABORTED`, a blip of
/// `EMFILE`) must not add latency to the next accept; only a
/// persistent failure streak earns a sleep.
const ACCEPT_ERROR_STREAK: u32 = 16;

/// How long the acceptor spends pushing a [`CODE_BUSY`] frame to a
/// connection it is shedding. Best effort: a peer that will not take
/// one small frame promptly forfeits the courtesy.
const BUSY_FRAME_TIMEOUT: Duration = Duration::from_millis(100);

/// Net-layer instrument handles into the fronted server's trace
/// registry, resolved once at bind so per-frame accounting is pure
/// atomics, plus the audit journal sheds are recorded in.
#[derive(Clone)]
pub(crate) struct NetStats {
    pub(crate) trace: Arc<wormtrace::Registry>,
    audit: Arc<wormaudit::AuditLog>,
    pub(crate) request: Arc<wormtrace::OpStats>,
    pub(crate) conn_accepted: Arc<wormtrace::Counter>,
    pub(crate) conn_shed: Arc<wormtrace::Counter>,
    pub(crate) frames_in: Arc<wormtrace::Counter>,
    pub(crate) frames_out: Arc<wormtrace::Counter>,
    pub(crate) bytes_in: Arc<wormtrace::Counter>,
    pub(crate) bytes_out: Arc<wormtrace::Counter>,
    /// `write(2)` calls that sent response bytes.
    pub(crate) flushes: Arc<wormtrace::Counter>,
    /// Flushes of a burst's answered responses made before a frame other
    /// than a `Read` is served.
    pub(crate) flushes_before_device: Arc<wormtrace::Counter>,
    pub(crate) timeouts: Arc<wormtrace::Counter>,
    pub(crate) accept_errors: Arc<wormtrace::Counter>,
    pub(crate) queue_depth: Arc<wormtrace::Gauge>,
    pub(crate) queue_peak: Arc<wormtrace::Gauge>,
    pub(crate) conns_open: Arc<wormtrace::Gauge>,
    pub(crate) traces_captured: Arc<wormtrace::Counter>,
}

impl NetStats {
    fn new(trace: Arc<wormtrace::Registry>, audit: Arc<wormaudit::AuditLog>) -> Self {
        NetStats {
            audit,
            request: trace.op("net.request"),
            conn_accepted: trace.counter("net.conn_accepted"),
            conn_shed: trace.counter("net.conn_shed"),
            frames_in: trace.counter("net.frames_in"),
            frames_out: trace.counter("net.frames_out"),
            bytes_in: trace.counter("net.bytes_in"),
            bytes_out: trace.counter("net.bytes_out"),
            flushes: trace.counter("net.flushes"),
            flushes_before_device: trace.counter("net.flushes_before_device"),
            timeouts: trace.counter("net.timeouts"),
            accept_errors: trace.counter("net.accept_errors"),
            queue_depth: trace.gauge("net.queue_depth"),
            queue_peak: trace.gauge("net.queue_peak"),
            conns_open: trace.gauge("net.conns_open"),
            traces_captured: trace.counter("net.traces_captured"),
            trace,
        }
    }
}

/// A running network front-end. Dropping the handle leaks the threads;
/// call [`NetServer::shutdown`] for a graceful stop.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    frames_in: Arc<wormtrace::Counter>,
    /// One self-pipe writer per worker, so shutdown interrupts a
    /// mid-`poll` worker immediately instead of waiting out the poll
    /// timeout.
    wakers: Vec<Arc<netpoll::WakeWriter>>,
}

impl NetServer {
    /// Binds `addr` and starts the acceptor plus the worker event
    /// loops.
    ///
    /// # Errors
    ///
    /// Socket errors binding or configuring the listener; resource
    /// errors creating the worker wake pipes or threads.
    pub fn bind<D, A>(
        server: impl IntoLanes<D>,
        addr: A,
        config: NetServerConfig,
    ) -> Result<NetServer, NetError>
    where
        D: BlockDevice + 'static,
        A: ToSocketAddrs,
    {
        let server = server.into_lanes();
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept; readiness comes from polling the
        // listener fd, so the loop observes the stop flag promptly
        // without busy-spinning.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Connections admitted and not yet closed, shared between the
        // acceptor (admission control) and workers (close accounting).
        let live = Arc::new(AtomicUsize::new(0));
        let stats = NetStats::new(Arc::clone(server.trace()), Arc::clone(server.audit()));

        let mut txs: Vec<Sender<TcpStream>> = Vec::new();
        let mut wakers: Vec<Arc<netpoll::WakeWriter>> = Vec::new();
        let mut workers = Vec::new();
        for idx in 0..config.workers.max(1) {
            let (tx, rx) = bounded(config.queue_depth.max(1));
            let (wake_r, wake_w) = netpoll::wake_pipe()?;
            txs.push(tx);
            wakers.push(Arc::new(wake_w));
            let worker_stop = stop.clone();
            let server = server.clone();
            let stats = stats.clone();
            let live = live.clone();
            let handle = std::thread::Builder::new()
                .name(format!("wormnet-worker{idx}"))
                .spawn(move || {
                    reactor::worker_loop(
                        idx,
                        &rx,
                        &wake_r,
                        &worker_stop,
                        server.as_ref(),
                        &stats,
                        &live,
                        &config,
                    )
                })
                .map_err(|e| {
                    // Already-spawned workers see the flag and exit.
                    // ordering: one-shot shutdown flag (see `shutdown`).
                    stop.store(true, Ordering::SeqCst);
                    NetError::Io(e)
                })?;
            workers.push(handle);
        }

        let acceptor = {
            let acceptor_stop = stop.clone();
            let acceptor_wakers = wakers.clone();
            let stats = stats.clone();
            std::thread::Builder::new()
                .name("wormnet-acceptor".to_string())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &txs,
                        &acceptor_wakers,
                        &acceptor_stop,
                        &stats,
                        &live,
                        &config,
                    )
                })
                .map_err(|e| {
                    // ordering: one-shot shutdown flag (see `shutdown`).
                    stop.store(true, Ordering::SeqCst);
                    for w in &wakers {
                        w.wake();
                    }
                    NetError::Io(e)
                })?
        };

        Ok(NetServer {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
            frames_in: Arc::clone(&stats.frames_in),
            wakers,
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request frames taken up so far, across all workers: the
    /// `net.frames_in` counter, which counts whatever the instruments'
    /// kill switch says.
    pub fn requests_served(&self) -> u64 {
        self.frames_in.get()
    }

    /// Stops accepting, flushes responses already produced, closes
    /// every connection, and joins every thread. Requests already
    /// buffered but unserved when the flag lands are dropped with their
    /// connection — clients see EOF and treat it like any other
    /// connection loss against an untrusted transport.
    pub fn shutdown(mut self) {
        // ordering: one-shot shutdown flag on a cold path; SeqCst costs nothing here and
        // keeps the store/poll pairing obvious without auditing an Acquire/Release chain.
        self.stop.store(true, Ordering::SeqCst);
        // Acceptor first, so no new connections race into worker
        // inboxes after the workers drain them.
        if let Some(h) = self.acceptor.take() {
            // It exits within one poll interval.
            wormtrace::sync::blocking("joining the acceptor");
            let _ = h.join();
        }
        for w in &self.wakers {
            w.wake();
        }
        for h in self.workers.drain(..) {
            wormtrace::sync::blocking("joining a reactor worker, just woken");
            let _ = h.join();
        }
    }
}

/// Accepts connections as the listener becomes readable, applies
/// admission control, and hands admitted connections to workers
/// round-robin.
fn accept_loop(
    listener: &TcpListener,
    txs: &[Sender<TcpStream>],
    wakers: &[Arc<netpoll::WakeWriter>],
    stop: &AtomicBool,
    stats: &NetStats,
    live: &AtomicUsize,
    config: &NetServerConfig,
) {
    let mut next = 0usize;
    let mut error_streak = 0u32;
    // ordering: polls the one-shot shutdown flag; SeqCst pairs with the store in
    // `shutdown` on a path that waits in `poll` anyway.
    while !stop.load(Ordering::SeqCst) {
        // not blocking: the listener is non-blocking, so accept returns WouldBlock at once
        match listener.accept() {
            Ok((conn, _peer)) => {
                error_streak = 0;
                stats.conn_accepted.inc();
                admit(conn, txs, wakers, &mut next, stats, live, config);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Nothing pending: wait for listener readiness (or the
                // shutdown-poll bound), not a fixed sleep after which a
                // waiting SYN would still sit unserved.
                let mut fds = [netpoll::PollFd::new(listener.as_raw_fd(), netpoll::POLLIN)];
                let _ = netpoll::poll(&mut fds, Some(SHUTDOWN_POLL));
            }
            Err(_) => {
                stats.accept_errors.inc();
                error_streak = error_streak.saturating_add(1);
                // Transient failures (ECONNABORTED, a blip of EMFILE)
                // retry immediately; only a persistent streak backs off,
                // and never indefinitely.
                if error_streak >= ACCEPT_ERROR_STREAK {
                    wormtrace::sync::blocking("backing off after accept errors");
                    std::thread::sleep(SHUTDOWN_POLL);
                }
            }
        }
    }
}

/// Admission control plus round-robin hand-off. Sheds — with a
/// [`CODE_BUSY`] frame — when the server is at its connection cap or
/// every worker inbox is full.
fn admit(
    conn: TcpStream,
    txs: &[Sender<TcpStream>],
    wakers: &[Arc<netpoll::WakeWriter>],
    next: &mut usize,
    stats: &NetStats,
    live: &AtomicUsize,
    config: &NetServerConfig,
) {
    // ordering: advisory admission counter — the acceptor is the only
    // incrementer and a momentarily stale read only lets the count
    // overshoot the cap by in-flight closes, which is acceptable.
    if live.load(Ordering::Relaxed) >= config.max_connections {
        shed_busy(conn, stats, config);
        return;
    }
    // ordering: advisory admission counter (see above).
    live.fetch_add(1, Ordering::Relaxed);
    let mut conn = conn;
    for step in 0..txs.len() {
        let i = (*next + step) % txs.len();
        let (Some(tx), Some(wake)) = (txs.get(i), wakers.get(i)) else {
            break;
        };
        match tx.try_send(conn) {
            Ok(()) => {
                stats.queue_depth.inc();
                let depth = stats.queue_depth.get();
                if depth > stats.queue_peak.get() {
                    stats.queue_peak.set(depth);
                }
                wake.wake();
                *next = (i + 1) % txs.len();
                return;
            }
            // A full (or, during shutdown, disconnected) inbox falls
            // through to the next worker.
            Err(TrySendError::Full(c) | TrySendError::Disconnected(c)) => conn = c,
        }
    }
    // ordering: advisory admission counter (see above).
    live.fetch_sub(1, Ordering::Relaxed);
    shed_busy(conn, stats, config);
}

/// Sends a best-effort [`CODE_BUSY`] error frame on a connection being
/// shed, then closes it — so a client can tell load-shedding from a
/// crash (silent EOF) and back off instead of failing hard.
fn shed_busy(conn: TcpStream, stats: &NetStats, config: &NetServerConfig) {
    stats.conn_shed.inc();
    // Load-shedding is security-relevant: a flood that sheds auditors
    // is how a dishonest host would hide.
    stats.audit.emit(
        wormaudit::AuditClass::AdmissionShed,
        None,
        "connection shed at capacity",
    );
    let encoded = encode_response(&NetResponse::Error {
        code: CODE_BUSY,
        message: "server at capacity; back off and retry".to_string(),
    });
    let mut conn = conn;
    let _ = conn.set_write_timeout(Some(BUSY_FRAME_TIMEOUT));
    let _ = write_frame(&mut conn, &encoded, config.max_frame);
}

/// Serves one already-parsed request frame: full per-request
/// accounting, tracing and dispatch, with the response written in place
/// as one frame at the end of `out` (the connection's output buffer) —
/// header reserved and back-patched, no response buffer in between.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] for a response the peer would reject as
/// oversized; `out` is then exactly as it was.
pub(crate) fn respond<D: BlockDevice>(
    server: &ShardedWormServer<D>,
    stats: &NetStats,
    payload: &[u8],
    out: &mut Vec<u8>,
    max_frame: u32,
) -> Result<(), NetError> {
    let decoded = decode_request_traced(payload);
    serve(stats, payload.len(), decoded, out, max_frame, |req, w| {
        handle(server, req, w)
    })
}

/// Serves a run of two or more consecutive `Write` frames
/// ([`crate::protocol::is_write`]) as [`respond`] serves each, in request
/// order, except that the first one served hands every decodable write of
/// the run to [`ShardedWormServer::write_many`] — one SCPU command a lane
/// — and each then answers with its own verdict. The command's spans land in the
/// first request's trace, and its time in the first request's
/// `net.request` sample.
///
/// # Errors
///
/// As [`respond`], for the first response that cannot be framed; the
/// responses after it are not written.
pub(crate) fn respond_writes<D: BlockDevice>(
    server: &ShardedWormServer<D>,
    stats: &NetStats,
    payloads: &[&[u8]],
    out: &mut Vec<u8>,
    max_frame: u32,
) -> Result<(), NetError> {
    // Each frame's place among the run's writes, or why it is none.
    let mut run = Vec::with_capacity(payloads.len());
    let decoded: Vec<_> = payloads
        .iter()
        .map(|payload| match decode_request_traced(payload)? {
            (
                NetRequest::Write {
                    records,
                    policy,
                    flags,
                    witness,
                },
                ctx,
            ) => {
                run.push((records, policy, flags, witness));
                Ok((run.len() - 1, ctx))
            }
            // `is_write` read the opcode the decoder dispatches on.
            _ => Err(WireError {
                expected: "a write request",
            }),
        })
        .collect();
    let mut verdicts: Vec<Option<Result<SerialNumber, WormError>>> = Vec::new();
    let mut answer = |at: usize, w: &mut WireWriter| {
        if verdicts.is_empty() {
            let views: Vec<Vec<&[u8]>> = run
                .iter()
                .map(|(records, ..)| records.iter().map(|b| b.as_ref()).collect())
                .collect();
            let writes: Vec<RecordWrite<'_>> = run
                .iter()
                .zip(&views)
                .map(|(&(_, policy, flags, witness), records)| RecordWrite {
                    records,
                    policy,
                    flags,
                    witness,
                })
                .collect();
            verdicts = server.write_many(&writes).into_iter().map(Some).collect();
        }
        let verdict = verdicts.get_mut(at).and_then(Option::take);
        let sn =
            verdict.unwrap_or_else(|| Err(WormError::Firmware("a write got no verdict".into())))?;
        put_response(w, &NetResponse::Written { sn });
        Ok(())
    };
    for (payload, decoded) in payloads.iter().zip(decoded) {
        serve(stats, payload.len(), decoded, out, max_frame, &mut answer)?;
    }
    Ok(())
}

/// The per-request half of [`respond`]: accounting, the request's trace
/// and `net.request` sample around `handle`, and the response (or the
/// error `handle` or the decoder gave) framed at the end of `out`.
fn serve<T>(
    stats: &NetStats,
    payload_len: usize,
    decoded: Result<(T, Option<wormtrace::TraceContext>), WireError>,
    out: &mut Vec<u8>,
    max_frame: u32,
    handle: impl FnOnce(T, &mut WireWriter) -> Result<(), WormError>,
) -> Result<(), NetError> {
    stats.frames_in.inc();
    stats.bytes_in.add(payload_len as u64 + FRAME_HEADER_BYTES);
    // A trace is collected per decodable request whenever the registry
    // is live: attached to this thread, so the guard below opens its
    // root span and every span the planes/SCPU/store open lands under
    // that root. Wire context (envelope opcode 9) supplies the
    // identity; bare requests root a server-minted trace.
    let scope = match &decoded {
        Ok((_, ctx)) if stats.trace.enabled() => {
            let trace_id = ctx.map_or_else(wormtrace::span::fresh_trace_id, |c| c.trace_id);
            Some(wormtrace::span::enter(
                trace_id,
                ctx.map_or(0, |c| c.parent_span),
            ))
        }
        _ => None,
    };
    let observed = stats
        .trace
        .observe(&stats.request, "net.request", wormtrace::Plane::Net);
    let mut ok = true;
    let framed = put_frame(out, max_frame, |w| {
        let body = w.len();
        let handled = match decoded {
            Ok((req, _)) => handle(req, w).map_err(|e| (error_code(&e), e.to_string())),
            Err(e) => Err((CODE_BAD_REQUEST, format!("undecodable request: {e}"))),
        };
        if let Err((code, message)) = handled {
            // Whatever the failed request already wrote goes; the
            // client gets one clean error response.
            ok = false;
            w.truncate(body);
            put_response(w, &NetResponse::Error { code, message });
        }
    });
    // A response too large to frame is never sent: the reactor closes
    // the connection, so the request failed.
    let ok = ok && framed.is_ok();
    let elapsed = observed.finish(ok, None);
    // Tail capture: the flight recorder keeps the span tree of every
    // errored or over-threshold request, bounded memory.
    if let (Some(scope), Some(ns)) = (scope, elapsed) {
        if stats.trace.flight().offer(&scope, ns, ok) {
            stats.traces_captured.inc();
        }
    }
    framed
}

/// Dispatches one request, writing its response into `w`. On `Err`,
/// `w` may hold the start of a response; [`respond`] rolls it back.
fn handle<D: BlockDevice>(
    server: &ShardedWormServer<D>,
    req: NetRequest,
    w: &mut WireWriter,
) -> Result<(), WormError> {
    let resp = match req {
        NetRequest::Write {
            records,
            policy,
            flags,
            witness,
        } => {
            let views: Vec<&[u8]> = records.iter().map(|b| b.as_ref()).collect();
            let sn = server.write_with(&views, policy, flags, witness)?;
            NetResponse::Written { sn }
        }
        NetRequest::Read { sn } => return put_outcome_response(w, |w| server.read_into(sn, w)),
        NetRequest::Delete { sn } => {
            // Drive maintenance on the lane that owns `sn` so any due
            // expiry executes, then return the re-read: the client
            // verifies either the deletion evidence or — if retention
            // has not lapsed — proof the record is still intact. No
            // unilateral delete exists in a WORM store.
            let lane = server.owner(sn)?;
            lane.tick()?;
            return put_outcome_response(w, |w| lane.read_into(sn, w));
        }
        NetRequest::LitHold(cred) => {
            server.lit_hold(cred)?;
            NetResponse::Ack
        }
        NetRequest::LitRelease(cred) => {
            server.lit_release(cred)?;
            NetResponse::Ack
        }
        NetRequest::Tick => {
            server.tick()?;
            NetResponse::Ack
        }
        NetRequest::Stats => NetResponse::Stats(server.stats_snapshot()),
        NetRequest::Traces => {
            let flight = server.trace().flight();
            NetResponse::Traces(flight.recent(flight.capacity()))
        }
        NetRequest::GetCompositeHead => NetResponse::CompositeHead(server.composite_head()?),
        NetRequest::GetShardKeys => NetResponse::ShardKeys(server.shard_keys()?),
        NetRequest::FetchAuditEvents {
            from_seq,
            max_events,
        } => NetResponse::AuditEvents(
            server
                .audit()
                .page(from_seq, usize::try_from(max_events).unwrap_or(usize::MAX)),
        ),
    };
    put_response(w, &resp);
    Ok(())
}

#[cfg(test)]
mod tests {
    use rand::{rngs::StdRng, SeedableRng};
    use strongworm::vrdt::VrdtEntry;
    use strongworm::{RegulatoryAuthority, RetentionPolicy, SerialNumber, WormConfig};
    use wormstore::Shredder;

    use super::*;
    use crate::frame::{append_frame, parse_frame};
    use crate::protocol::{decode_response_shared, encode_request};

    /// A one-lane deployment holding one two-record VR, and what
    /// `respond` needs beside it.
    fn fixture() -> (ShardedWormServer, SerialNumber, NetStats) {
        let regulator = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0x5E1), 512);
        let server = ShardedWormServer::new(
            WormConfig::test_small(),
            scpu::VirtualClock::new(),
            regulator.public(),
            1,
        )
        .unwrap();
        let policy = RetentionPolicy::custom(Duration::from_secs(3600), Shredder::ZeroFill);
        let sn = server.write(&[&[7u8; 900], b"second"], policy).unwrap();
        let stats = NetStats::new(Arc::clone(server.trace()), Arc::clone(server.audit()));
        (server, sn, stats)
    }

    /// `respond` to a read of `sn`, appended to an output buffer that
    /// already holds an unflushed frame.
    fn respond_to_read(
        fixture: &(ShardedWormServer, SerialNumber, NetStats),
        max_frame: u32,
    ) -> (Result<(), NetError>, Vec<u8>, Vec<u8>) {
        let (server, sn, stats) = fixture;
        let mut pending = Vec::new();
        append_frame(&mut pending, b"an earlier response", DEFAULT_MAX_FRAME).unwrap();
        let mut out = pending.clone();
        let request = encode_request(&NetRequest::Read { sn: *sn });
        let framed = respond(server, stats, &request, &mut out, max_frame);
        (framed, pending, out)
    }

    #[test]
    fn a_read_is_framed_in_place_after_what_the_buffer_holds() {
        let fixture = fixture();
        let (framed, pending, out) = respond_to_read(&fixture, DEFAULT_MAX_FRAME);
        framed.unwrap();
        let mut expected = pending;
        let outcome = fixture.0.read(fixture.1).unwrap();
        let owned = encode_response(&NetResponse::Outcome(outcome));
        append_frame(&mut expected, &owned, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn a_store_error_after_partial_output_leaves_one_clean_error_frame() {
        let fixture = fixture();
        {
            // The second extent now points past the device: the VRD and
            // the first record are in the buffer when the store fails.
            let (mut vrdt, _) = fixture.0.coordinator().parts_mut_for_attack();
            match vrdt.entries_mut_for_attack().get_mut(&fixture.1) {
                Some(VrdtEntry::Active(vrd)) => vrd.rdl[1].offset = u64::MAX / 2,
                _ => unreachable!("just written"),
            }
        }
        let (framed, pending, out) = respond_to_read(&fixture, DEFAULT_MAX_FRAME);
        framed.unwrap();
        assert_eq!(&out[..pending.len()], &pending[..]);
        let (payload, consumed) = parse_frame(&out[pending.len()..], DEFAULT_MAX_FRAME)
            .unwrap()
            .expect("one whole frame");
        assert_eq!(
            pending.len() + consumed,
            out.len(),
            "nothing after the frame"
        );
        match decode_response_shared(&bytes::Bytes::from(payload)).unwrap() {
            NetResponse::Error { code, .. } => assert_eq!(code, 2, "a store error"),
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    #[test]
    fn a_response_over_max_frame_leaves_the_buffer_as_it_was() {
        let fixture = fixture();
        let (framed, pending, out) = respond_to_read(&fixture, 512);
        assert!(matches!(
            framed,
            Err(NetError::FrameTooLarge { max: 512, .. })
        ));
        assert_eq!(out, pending);
        // The reactor closes the connection over it: booked as failed.
        let stats = fixture.0.stats_snapshot();
        let request = stats.op("net.request").unwrap();
        assert_eq!((request.ok, request.err), (0, 1));
    }
}
