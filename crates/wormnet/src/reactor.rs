//! Per-worker readiness event loop: many connections, one thread.
//!
//! Each worker owns a *set* of connections (not one, as the old
//! thread-per-connection pool did) and multiplexes them with a single
//! `poll(2)` sweep per iteration via the vendored [`netpoll`] shim.
//! The loop is built around three amortizations:
//!
//! * **Batched decode** — bytes are pulled off a readable socket into a
//!   per-connection read buffer in large chunks; every complete frame
//!   already buffered is then parsed and served without another
//!   syscall. A pipelining client paying one wakeup for N requests is
//!   the whole point.
//! * **Deferred flush** — responses for a readiness burst accumulate in
//!   a per-connection write buffer and leave in one coalesced write,
//!   not one flush per frame.
//! * **Runs of writes** — a `Write` frame and the complete `Write`
//!   frames already buffered behind it (bare or in a trace envelope, up
//!   to the burst cap) go to the deployment together, one SCPU command a
//!   lane, so consecutive writes share the device's lane passes; the
//!   loop never waits for a run to grow, any other opcode ends it, and
//!   each frame still gets its own response in request order.
//! * **Fairness caps** — a connection serves at most [`BURST_FRAMES`]
//!   requests per iteration and reads at most [`READ_BUDGET`] bytes per
//!   wakeup, so one firehose connection cannot starve its neighbours;
//!   leftover buffered frames are served on the next iteration, which
//!   runs immediately (zero poll timeout) while deferred work exists.
//!
//! Backpressure: a connection whose un-flushed output exceeds
//! [`WBUF_PAUSE`] stops being read (and parsed) until the peer drains
//! it — in-flight memory per connection is bounded by that watermark
//! plus one maximum-size response.

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::channel::Receiver;
use strongworm::ShardedWormServer;
use wormstore::BlockDevice;

use crate::frame::parse_frame;
use crate::protocol::is_write;
use crate::server::{respond, respond_writes, NetServerConfig, NetStats, SHUTDOWN_POLL};

/// Cap on requests served from one connection per loop iteration.
pub(crate) const BURST_FRAMES: usize = 64;

/// Cap on bytes read from one connection per wakeup.
pub(crate) const READ_BUDGET: usize = 256 << 10;

/// Scratch chunk size for draining a readable socket.
const READ_CHUNK: usize = 64 << 10;

/// Pending-output watermark above which a connection stops being read.
pub(crate) const WBUF_PAUSE: usize = 1 << 20;

/// Retained buffer capacity above which an idle buffer is shrunk back.
const BUF_SHRINK: usize = 256 << 10;

/// Why a connection left the loop (close accounting).
enum Close {
    /// Peer hung up cleanly (or the session completed after EOF).
    Eof,
    /// Socket error, framing violation, or an unencodable response.
    Error,
    /// No read progress within `read_timeout`, or a write stalled
    /// beyond `write_timeout`.
    Timeout,
}

/// One multiplexed connection's state.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Unparsed request bytes (complete frames + a possible tail).
    rbuf: Vec<u8>,
    /// Encoded, un-flushed response bytes.
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf` (drained lazily, in one truncate).
    wpos: usize,
    /// Peer sent EOF; serve what is buffered, flush, then close.
    eof: bool,
    /// Set when the connection must be removed this iteration.
    close: Option<Close>,
    last_read: Instant,
    last_write: Instant,
}

impl Conn {
    fn register(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let fd = stream.as_raw_fd();
        let now = Instant::now();
        Ok(Conn {
            stream,
            fd,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            close: None,
            last_read: now,
            last_write: now,
        })
    }

    /// Un-flushed output bytes pending.
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Too much pending output: stop reading until the peer drains.
    fn paused(&self) -> bool {
        self.wbuf.len() - self.wpos >= WBUF_PAUSE
    }

    /// A buffered complete frame (or a buffered framing violation)
    /// that the burst cap deferred to the next iteration.
    fn deferred_work(&self, max_frame: u32) -> bool {
        if self.close.is_some() || self.paused() {
            return false;
        }
        !matches!(parse_frame(&self.rbuf, max_frame), Ok(None))
    }

    /// Drains the readable socket into `rbuf`, up to the fairness
    /// budget. Sets `eof` / `close` as the socket dictates.
    fn fill(&mut self, scratch: &mut [u8]) {
        use std::io::Read as _;
        let mut taken = 0usize;
        while taken < READ_BUDGET {
            match (&self.stream).read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => {
                    taken += n;
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.last_read = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close = Some(Close::Error);
                    return;
                }
            }
        }
    }

    /// Parses and serves every complete buffered frame, up to the burst
    /// cap and the write-buffer watermark. Each response is written in
    /// place at the end of `wbuf`. A `Write` frame and every complete
    /// `Write` frame buffered right behind it, up to the cap, are served
    /// as one run ([`respond_writes`]); any other frame ends the run, and
    /// it and a write with no other behind it are served alone
    /// ([`respond`]). Returns how many frames were served.
    fn serve<D: BlockDevice>(
        &mut self,
        server: &ShardedWormServer<D>,
        stats: &NetStats,
        config: &NetServerConfig,
    ) -> u64 {
        let mut consumed = 0usize;
        let mut frames = 0usize;
        while frames < BURST_FRAMES {
            if self.wbuf.len() - self.wpos >= WBUF_PAUSE {
                break;
            }
            let unparsed = self.rbuf.get(consumed..).unwrap_or_default();
            match parse_frame(unparsed, config.max_frame) {
                Ok(Some((payload, frame_len))) => {
                    let before = self.wbuf.len();
                    let (run, taken) = if is_write(payload) {
                        write_run(unparsed, BURST_FRAMES - frames, config.max_frame)
                    } else {
                        (Vec::new(), frame_len)
                    };
                    let framed = match run.len() {
                        0 | 1 => respond(server, stats, payload, &mut self.wbuf, config.max_frame),
                        _ => respond_writes(server, stats, &run, &mut self.wbuf, config.max_frame),
                    };
                    let served = run.len().max(1);
                    frames += served;
                    if framed.is_err() {
                        // A response the peer would reject as oversized:
                        // nothing sane to send; drop the connection.
                        self.close = Some(Close::Error);
                        return frames as u64;
                    }
                    stats.frames_out.add(served as u64);
                    stats.bytes_out.add((self.wbuf.len() - before) as u64);
                    consumed += taken;
                }
                Ok(None) => break,
                Err(_) => {
                    // Framing violation (oversized announcement): the
                    // stream is unrecoverable — close, as the blocking
                    // server did. Flush responses already owed first.
                    self.close = Some(Close::Error);
                    break;
                }
            }
        }
        if consumed > 0 {
            self.rbuf.drain(..consumed);
        }
        if self.rbuf.is_empty() && self.rbuf.capacity() > BUF_SHRINK {
            self.rbuf.shrink_to(READ_CHUNK);
        }
        frames as u64
    }

    /// Pushes pending output to the socket: one coalesced write per
    /// burst rather than one flush per frame.
    fn flush(&mut self) {
        use std::io::Write as _;
        while self.wants_write() {
            let pending = self.wbuf.get(self.wpos..).unwrap_or_default();
            match (&self.stream).write(pending) {
                Ok(0) => {
                    self.close = Some(Close::Error);
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_write = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close = Some(Close::Error);
                    return;
                }
            }
        }
        if !self.wants_write() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.wbuf.capacity() > BUF_SHRINK {
                self.wbuf.shrink_to(READ_CHUNK);
            }
        }
    }

    /// Post-step close decisions: clean EOF completion and timeouts.
    fn decide_close(&mut self, now: Instant, config: &NetServerConfig) {
        if self.close.is_some() {
            return;
        }
        if self.eof {
            let drained = matches!(parse_frame(&self.rbuf, config.max_frame), Ok(None));
            if drained && !self.wants_write() {
                self.close = Some(Close::Eof);
            }
            return;
        }
        let read_stalled = now.duration_since(self.last_read) > config.read_timeout;
        let write_stalled =
            self.wants_write() && now.duration_since(self.last_write) > config.write_timeout;
        if read_stalled || write_stalled {
            self.close = Some(Close::Timeout);
        }
    }
}

/// The complete `Write` frames at the start of `buf`, at most `room` of
/// them, and the bytes they take: what is buffered now, never more.
fn write_run(buf: &[u8], room: usize, max_frame: u32) -> (Vec<&[u8]>, usize) {
    let (mut run, mut taken) = (Vec::new(), 0);
    while run.len() < room {
        match parse_frame(buf.get(taken..).unwrap_or_default(), max_frame) {
            Ok(Some((payload, len))) if is_write(payload) => {
                run.push(payload);
                taken += len;
            }
            _ => break,
        }
    }
    (run, taken)
}

/// Per-worker gauge/counter rows (`net.worker{i}.*`), rendered by
/// `wormtop` as one line per worker.
struct WorkerStats {
    conns: std::sync::Arc<wormtrace::Gauge>,
    frames: std::sync::Arc<wormtrace::Counter>,
}

/// The worker body: an event loop over every connection assigned to
/// this worker, woken by readiness, the acceptor's hand-off pipe, or
/// the shutdown flag's poll interval.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one shared handle the acceptor hands its workers; bundling them would just move the list"
)]
pub(crate) fn worker_loop<D: BlockDevice>(
    idx: usize,
    rx: &Receiver<TcpStream>,
    wake: &netpoll::WakeReader,
    stop: &AtomicBool,
    server: &ShardedWormServer<D>,
    stats: &NetStats,
    live: &AtomicUsize,
    config: &NetServerConfig,
) {
    // Nothing on this thread may wait: one stalled call stalls every
    // connection the worker serves.
    wormtrace::sync::mark_reactor();
    let wstats = WorkerStats {
        conns: stats.trace.gauge(&format!("net.worker{idx}.conns")),
        frames: stats.trace.counter(&format!("net.worker{idx}.frames")),
    };
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<netpoll::PollFd> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];

    // ordering: one-shot shutdown flag; the poll timeout (not the memory
    // ordering) bounds shutdown latency, and the waker cuts even that short.
    while !stop.load(Ordering::SeqCst) {
        intake(rx, &mut conns, stats, &wstats, live);

        // One poll(2) over the waker plus every connection: read
        // interest unless backpressured, write interest while output is
        // pending. Zero timeout while any connection has deferred
        // buffered frames (burst-capped last iteration).
        fds.clear();
        fds.push(netpoll::PollFd::new(wake.fd(), netpoll::POLLIN));
        let mut deferred = false;
        for c in &conns {
            let mut interest = 0i16;
            if !c.paused() && !c.eof {
                interest |= netpoll::POLLIN;
            }
            if c.wants_write() {
                interest |= netpoll::POLLOUT;
            }
            fds.push(netpoll::PollFd::new(c.fd, interest));
            deferred |= c.deferred_work(config.max_frame);
        }
        let timeout = if deferred {
            std::time::Duration::ZERO
        } else {
            SHUTDOWN_POLL
        };
        let _ = netpoll::poll(&mut fds, Some(timeout));
        wake.drain();

        let now = Instant::now();
        for (i, conn) in conns.iter_mut().enumerate() {
            let ready = fds.get(i + 1).copied();
            let readable = ready.is_some_and(|r| r.readable() || r.errored());
            let writable = ready.is_some_and(|r| r.writable());
            if writable {
                // Free output space first so a backpressured connection
                // can resume serving within the same iteration.
                conn.flush();
            }
            if readable && !conn.paused() && conn.close.is_none() {
                conn.fill(&mut scratch);
            }
            if conn.close.is_none() {
                wstats.frames.add(conn.serve(server, stats, config));
                conn.flush();
            }
            conn.decide_close(now, config);
        }
        sweep(&mut conns, stats, &wstats, live);
    }

    // Graceful exit: push out responses already produced (best effort,
    // one attempt), then drop every connection and drain the inbox so
    // gauges return to the truth — zero.
    for conn in &mut conns {
        conn.flush();
    }
    for _ in conns.drain(..) {
        stats.conns_open.dec();
        wstats.conns.dec();
        // ordering: admission counter is advisory (see `admit`).
        live.fetch_sub(1, Ordering::Relaxed);
    }
    while let Ok(conn) = rx.try_recv() {
        stats.queue_depth.dec();
        // ordering: admission counter is advisory (see `admit`).
        live.fetch_sub(1, Ordering::Relaxed);
        drop(conn);
    }
}

/// Moves connections the acceptor handed off into this worker's set.
fn intake(
    rx: &Receiver<TcpStream>,
    conns: &mut Vec<Conn>,
    stats: &NetStats,
    wstats: &WorkerStats,
    live: &AtomicUsize,
) {
    while let Ok(stream) = rx.try_recv() {
        stats.queue_depth.dec();
        match Conn::register(stream) {
            Ok(conn) => {
                conns.push(conn);
                stats.conns_open.inc();
                wstats.conns.inc();
            }
            Err(_) => {
                // ordering: admission counter is advisory (see `admit`).
                live.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Removes connections marked for close, with gauge/counter accounting.
fn sweep(conns: &mut Vec<Conn>, stats: &NetStats, wstats: &WorkerStats, live: &AtomicUsize) {
    conns.retain_mut(|c| {
        let Some(reason) = &c.close else {
            return true;
        };
        if matches!(reason, Close::Timeout) {
            stats.timeouts.inc();
        }
        // Give buffered responses one last chance before the socket
        // drops (e.g. a framing violation after valid frames: the
        // valid frames' responses still go out).
        c.flush();
        stats.conns_open.dec();
        wstats.conns.dec();
        // ordering: admission counter is advisory (see `admit`).
        live.fetch_sub(1, Ordering::Relaxed);
        false
    });
}
