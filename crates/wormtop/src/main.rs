//! `wormtop` — live introspection for a Strong WORM network server.
//!
//! Polls a `NetServer`'s stats and flight-recorder endpoints over the
//! ordinary wire protocol (no privileged side channel: what wormtop
//! sees is exactly what any client can see) and renders per-op request
//! rates, p50/p99 latency estimates, queue depth, retention-daemon
//! health, and the span trees of recently captured slow or failing
//! requests.
//!
//! Modes:
//!
//! - default: full-screen refresh every `--interval` (top(1)-style);
//! - `--once`: a single poll emitted as one machine-readable JSON line,
//!   for scripts and CI smoke tests;
//! - `--self-test`: boot an in-process server on a loopback port and
//!   monitor it, generating enough traffic (including one failing
//!   request) that every panel has data. Combined with `--once` this
//!   exercises the whole observability path with zero setup.

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Clock, VirtualClock};
use strongworm::{
    DaemonConfig, RegulatoryAuthority, RetentionDaemon, RetentionPolicy, ShardedWormServer,
    WormConfig,
};
use wormnet::{NetServer, NetServerConfig, RemoteWormClient};
use wormstore::Shredder;
use wormtrace::{CapturedTrace, SpanRecord, StatsSnapshot};

const USAGE: &str = "\
wormtop — live introspection for a Strong WORM network server

USAGE:
    wormtop [OPTIONS]

OPTIONS:
    --addr HOST:PORT     Server to monitor (default 127.0.0.1:7474)
    --interval MS        Poll interval in milliseconds (default 1000)
    -n, --iterations N   Stop after N polls (default: run until killed)
    --once               Poll once and print one JSON line, then exit
    --self-test          Boot an in-process server with sample traffic
                         and monitor that instead of --addr
    --shards N           With --self-test: boot N SCPU lanes, each with
                         its own retention daemon (default 1)
    -h, --help           Show this help
";

struct Options {
    addr: String,
    interval: Duration,
    iterations: Option<u64>,
    once: bool,
    self_test: bool,
    shards: u32,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7474".to_string(),
        interval: Duration::from_millis(1000),
        iterations: None,
        once: false,
        self_test: false,
        shards: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--interval" => {
                let ms: u64 = value("--interval")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?;
                opts.interval = Duration::from_millis(ms.max(1));
            }
            "-n" | "--iterations" => {
                opts.iterations = Some(
                    value("--iterations")?
                        .parse()
                        .map_err(|e| format!("--iterations: {e}"))?,
                );
            }
            "--once" => opts.once = true,
            "--self-test" => opts.self_test = true,
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse::<u32>()
                    .map_err(|e| format!("--shards: {e}"))?
                    .max(1);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wormtop: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Self-test: the harness must outlive the polling loop, so the
    // server handle is held here until exit.
    let harness = if opts.self_test {
        Some(self_test_boot(opts.shards))
    } else {
        None
    };
    let addr = harness
        .as_ref()
        .map_or_else(|| opts.addr.clone(), |h| h.addr.to_string());

    let mut client = match RemoteWormClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wormtop: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let mut audit = AuditView::new();
    if opts.once {
        match poll(&mut client, &mut audit) {
            Ok((stats, traces)) => println!("{}", to_json_line(&addr, &stats, &traces, &audit)),
            Err(e) => {
                eprintln!("wormtop: poll failed: {e}");
                std::process::exit(1);
            }
        }
        if let Some(h) = harness {
            h.net.shutdown();
        }
        return;
    }

    let mut prev: Option<(Instant, StatsSnapshot)> = None;
    let mut polls: u64 = 0;
    loop {
        match poll(&mut client, &mut audit) {
            Ok((stats, traces)) => {
                polls += 1;
                render(
                    &addr,
                    polls,
                    opts.interval,
                    prev.as_ref(),
                    &stats,
                    &traces,
                    &audit,
                );
                prev = Some((Instant::now(), stats));
            }
            Err(e) => {
                eprintln!("wormtop: poll failed: {e}");
                std::process::exit(1);
            }
        }
        if opts.iterations.is_some_and(|n| polls >= n) {
            break;
        }
        std::thread::sleep(opts.interval);
    }
    if let Some(h) = harness {
        h.net.shutdown();
    }
}

fn poll(
    client: &mut RemoteWormClient,
    audit: &mut AuditView,
) -> Result<(StatsSnapshot, Vec<CapturedTrace>), wormnet::NetError> {
    let stats = client.stats()?;
    let traces = client.traces()?;
    audit.poll(client)?;
    Ok((stats, traces))
}

// ---------------------------------------------------------------------
// Audit panel
// ---------------------------------------------------------------------

/// Accumulated view of the server's tamper-evident audit chain,
/// maintained by cursor-paginated `FetchAuditEvents` polls: each poll
/// transfers only events past the cursor, so a long-running monitor
/// never refetches the chain it has already seen.
struct AuditView {
    /// Next journal sequence number to fetch.
    cursor: u64,
    /// Events seen per class, indexed as in [`wormaudit::ALL_CLASSES`].
    class_counts: Vec<u64>,
    /// Highest-seq anchor seen so far, if any.
    last_anchor_seq: Option<u64>,
    last_anchor_at_ms: u64,
    /// Timestamp of the newest event seen (server clock, ms).
    last_event_at_ms: u64,
}

/// Page size per audit fetch while catching up.
const AUDIT_PAGE: u32 = 1024;

impl AuditView {
    fn new() -> AuditView {
        AuditView {
            cursor: 0,
            class_counts: vec![0; wormaudit::ALL_CLASSES.len()],
            last_anchor_seq: None,
            last_anchor_at_ms: 0,
            last_event_at_ms: 0,
        }
    }

    /// Fetches every event past the cursor, page by page.
    fn poll(&mut self, client: &mut RemoteWormClient) -> Result<(), wormnet::NetError> {
        loop {
            let page = client.audit_events(self.cursor, AUDIT_PAGE)?;
            if page.events.is_empty() {
                return Ok(());
            }
            self.absorb(&page);
        }
    }

    fn absorb(&mut self, page: &wormaudit::AuditPage) {
        for e in &page.events {
            if let Some(i) = wormaudit::ALL_CLASSES.iter().position(|c| *c == e.class) {
                self.class_counts[i] += 1;
            }
            self.cursor = self.cursor.max(e.seq + 1);
            self.last_event_at_ms = self.last_event_at_ms.max(e.at_ms);
        }
        for a in &page.anchors {
            if self.last_anchor_seq.is_none_or(|prev| a.seq > prev) {
                self.last_anchor_seq = Some(a.seq);
                self.last_anchor_at_ms = a.issued_at_ms;
            }
        }
    }

    /// Events chained since the last SCPU anchor (0 when fully
    /// attested or nothing fetched yet).
    fn unattested_tail(&self) -> u64 {
        match self.last_anchor_seq {
            Some(seq) => self.cursor.saturating_sub(seq + 1),
            None => self.cursor,
        }
    }

    /// Server-clock ms between the newest event and the newest anchor —
    /// how stale the chain's attestation is.
    fn anchor_age_ms(&self) -> u64 {
        self.last_event_at_ms.saturating_sub(self.last_anchor_at_ms)
    }

    /// `(class name, count)` for every class seen at least once.
    fn seen_classes(&self) -> Vec<(&'static str, u64)> {
        wormaudit::ALL_CLASSES
            .iter()
            .zip(&self.class_counts)
            .filter(|(_, n)| **n > 0)
            .map(|(c, n)| (c.as_str(), *n))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Self-test harness
// ---------------------------------------------------------------------

struct SelfTest {
    net: NetServer,
    addr: SocketAddr,
    /// Per-lane retention daemons — held so their health gauges stay
    /// live while the monitor polls.
    _daemons: Vec<RetentionDaemon>,
}

/// Boots a loopback deployment of `shards` lanes and drives sample
/// traffic through it: writes (fanned out across lanes), verified reads,
/// and one rejected litigation hold, with the flight-recorder threshold
/// dropped to zero so every request's span tree is captured. One
/// retention daemon runs per lane, so the monitor has live data in every
/// panel (the shard panel from two lanes up).
fn self_test_boot(shards: u32) -> SelfTest {
    let clock = VirtualClock::new();
    let mut rng = StdRng::seed_from_u64(42);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    let server = Arc::new(
        ShardedWormServer::new(
            WormConfig::test_small(),
            clock.clone(),
            regulator.public(),
            shards,
        )
        .expect("self-test server boots"),
    );
    server.trace().flight().set_slow_threshold_ns(0);
    let _daemons = server.spawn_daemons(DaemonConfig {
        interval: Duration::from_millis(100),
        ..DaemonConfig::default()
    });
    let net = NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())
        .expect("self-test server binds a loopback port");
    let addr = net.local_addr();

    let mut client = RemoteWormClient::connect(addr).expect("self-test client connects");
    client.set_request_tracing(true);
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), clock.clone())
        .expect("self-test verifier bootstraps");
    let policy = RetentionPolicy::custom(Duration::from_secs(3600), Shredder::ZeroFill);
    let sns: Vec<_> = (0..8)
        .map(|i| {
            client
                .write(&[format!("self-test record {i}").as_bytes()], policy)
                .expect("self-test write")
        })
        .collect();
    for &sn in &sns {
        client
            .read_verified(sn, &verifier)
            .expect("self-test verified read");
    }
    client
        .composite_head_verified(&verifier)
        .expect("self-test composite head verifies");
    // One failing request, so the flight recorder shows an error
    // capture: a hold signed by an authority the device doesn't trust.
    let imposter = RegulatoryAuthority::generate(&mut rng, 512);
    let now = clock.now();
    let bad = imposter.issue_hold(sns[0], now, 1, now.after(Duration::from_secs(60)));
    assert!(
        client.lit_hold(bad).is_err(),
        "imposter hold must be rejected"
    );
    // One tick so the audit chain's tip is SCPU-anchored and the AUDIT
    // panel shows a bounded unattested tail.
    client.tick().expect("self-test tick");
    SelfTest {
        net,
        addr,
        _daemons,
    }
}

// ---------------------------------------------------------------------
// Shard panel
// ---------------------------------------------------------------------

/// One lane's health, extracted from the merged snapshot: lane 0's
/// instruments are unprefixed, lane `i ≥ 1`'s carry a `shard{i}.`
/// prefix (a one-lane deployment publishes no such prefixes, so the
/// panel is empty there).
#[derive(Debug, PartialEq, Eq)]
struct ShardRow {
    lane: u32,
    writes: u64,
    reads: u64,
    daemon_passes: u64,
    backoff_ms: u64,
    consecutive_failures: u64,
}

/// Splits a `shard{i}.rest` instrument name into its lane and the
/// unprefixed name. Names without the prefix (lane 0's and the network
/// layer's) return `None`.
fn shard_split(name: &str) -> Option<(u32, &str)> {
    let rest = name.strip_prefix("shard")?;
    let (lane, op) = rest.split_once('.')?;
    Some((lane.parse().ok()?, op))
}

/// Per-lane rows in lane order, lane 0 first, when the merged snapshot
/// has lanes beyond lane 0.
fn shard_rows(stats: &StatsSnapshot) -> Vec<ShardRow> {
    let mut lanes: Vec<u32> = stats
        .ops
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(stats.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(stats.counters.iter().map(|(n, _)| n.as_str()))
        .filter_map(|n| shard_split(n).map(|(lane, _)| lane))
        .collect();
    if lanes.is_empty() {
        return Vec::new();
    }
    lanes.push(0);
    lanes.sort_unstable();
    lanes.dedup();
    lanes
        .into_iter()
        .map(|lane| {
            let name_in = |name: &str| match lane {
                0 => name.to_string(),
                _ => format!("shard{lane}.{name}"),
            };
            let op_total = |name: &str| stats.op(&name_in(name)).map_or(0, |o| o.total());
            let gauge = |name: &str| stats.gauge(&name_in(name)).unwrap_or_default();
            ShardRow {
                lane,
                writes: op_total("server.write"),
                reads: op_total("server.read"),
                daemon_passes: op_total("daemon.pass"),
                backoff_ms: gauge("daemon.backoff_ms"),
                consecutive_failures: gauge("daemon.consecutive_failures"),
            }
        })
        .collect()
}

/// One serving worker's live load, from the `net.worker{i}.*`
/// instruments the event loop maintains.
#[derive(Debug, PartialEq, Eq)]
struct WorkerRow {
    idx: u32,
    /// Connections currently owned by this worker (gauge).
    conns: u64,
    /// Frames this worker has served since boot (counter).
    frames: u64,
}

/// Splits a `net.worker{i}.rest` instrument name into the worker index
/// and the unprefixed name.
fn worker_split(name: &str) -> Option<(u32, &str)> {
    let rest = name.strip_prefix("net.worker")?;
    let (idx, op) = rest.split_once('.')?;
    Some((idx.parse().ok()?, op))
}

/// Per-worker rows in index order — the load-balance view: connection
/// hand-off should spread sessions across workers, and a worker whose
/// frame counter stalls while it holds connections is starving them.
fn worker_rows(stats: &StatsSnapshot) -> Vec<WorkerRow> {
    let mut idxs: Vec<u32> = stats
        .gauges
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(stats.counters.iter().map(|(n, _)| n.as_str()))
        .filter_map(|n| worker_split(n).map(|(idx, _)| idx))
        .collect();
    idxs.sort_unstable();
    idxs.dedup();
    idxs.into_iter()
        .map(|idx| WorkerRow {
            idx,
            conns: stats
                .gauge(&format!("net.worker{idx}.conns"))
                .unwrap_or_default(),
            frames: stats.counter(&format!("net.worker{idx}.frames")),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Live rendering
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn render(
    addr: &str,
    polls: u64,
    interval: Duration,
    prev: Option<&(Instant, StatsSnapshot)>,
    stats: &StatsSnapshot,
    traces: &[CapturedTrace],
    audit: &AuditView,
) {
    let mut out = String::new();
    // Full-screen refresh: clear + home.
    out.push_str("\x1b[2J\x1b[H");
    out.push_str(&format!(
        "wormtop — {addr}   poll {polls}   interval {:.1}s\n",
        interval.as_secs_f64()
    ));
    out.push_str(&format!(
        "queue depth {}   conns accepted {}   shed {}   timeouts {}\n",
        stats.gauge("net.queue_depth").unwrap_or(0),
        stats.counter("net.conn_accepted"),
        stats.counter("net.conn_shed"),
        stats.counter("net.timeouts"),
    ));
    let daemon_passes = stats.op("daemon.pass").map_or(0, |o| o.total());
    out.push_str(&format!(
        "daemon: passes {}   backoff {} ms   consecutive failures {}\n\n",
        daemon_passes,
        stats.gauge("daemon.backoff_ms").unwrap_or(0),
        stats.gauge("daemon.consecutive_failures").unwrap_or(0),
    ));

    // Audit plane: the tamper-evident chain's growth, attestation lag,
    // and event mix. The rate comes from the emitted counter delta.
    let audit_rate = prev
        .map(|(at, p)| {
            let before = p.counter("audit.emitted");
            let elapsed = at.elapsed().as_secs_f64().max(1e-9);
            stats.counter("audit.emitted").saturating_sub(before) as f64 / elapsed
        })
        .unwrap_or(0.0);
    out.push_str(&format!(
        "AUDIT  chain height {}   events/s {:.1}   emitted {}   dropped {}   anchored {}   unattested tail {}   anchor age {}\n",
        stats.gauge("audit.chain_height").unwrap_or(0),
        audit_rate,
        stats.counter("audit.emitted"),
        stats.counter("audit.dropped"),
        stats.counter("audit.anchored"),
        audit.unattested_tail(),
        fmt_ns(audit.anchor_age_ms().saturating_mul(1_000_000)),
    ));
    let classes = audit.seen_classes();
    if !classes.is_empty() {
        out.push_str("  classes:");
        for (name, n) in &classes {
            out.push_str(&format!("  {name} {n}"));
        }
        out.push('\n');
    }
    out.push('\n');

    // Deployments of two lanes or more: one health row per lane, lane 0
    // from the unprefixed instruments, the rest from their `shard{i}.`
    // prefixes.
    let rows = shard_rows(stats);
    if !rows.is_empty() {
        out.push_str(&format!(
            "{:<8} {:>10} {:>10} {:>14} {:>11} {:>7}\n",
            "SHARD", "WRITES", "READS", "DAEMON PASSES", "BACKOFF ms", "FAILS"
        ));
        for r in &rows {
            out.push_str(&format!(
                "shard{:<3} {:>10} {:>10} {:>14} {:>11} {:>7}\n",
                r.lane, r.writes, r.reads, r.daemon_passes, r.backoff_ms, r.consecutive_failures,
            ));
        }
        out.push('\n');
    }

    // Event-loop workers: connection spread and per-worker serve rate.
    let wrows = worker_rows(stats);
    if !wrows.is_empty() {
        out.push_str(&format!(
            "{:<9} {:>7} {:>12} {:>10}\n",
            "WORKER", "CONNS", "FRAMES", "FRAMES/s"
        ));
        for r in &wrows {
            let rate = prev
                .map(|(at, p)| {
                    let before = p.counter(&format!("net.worker{}.frames", r.idx));
                    let elapsed = at.elapsed().as_secs_f64().max(1e-9);
                    r.frames.saturating_sub(before) as f64 / elapsed
                })
                .unwrap_or(0.0);
            out.push_str(&format!(
                "worker{:<3} {:>7} {:>12} {:>10.1}\n",
                r.idx, r.conns, r.frames, rate,
            ));
        }
        out.push('\n');
    }

    out.push_str(&format!(
        "{:<24} {:>10} {:>10} {:>6} {:>9} {:>9} {:>9}\n",
        "OP", "TOTAL", "OK", "ERR", "RATE/s", "P50", "P99"
    ));
    for (name, op) in &stats.ops {
        let rate = prev
            .map(|(at, p)| {
                let before = p.op(name).map_or(0, |o| o.total());
                let elapsed = at.elapsed().as_secs_f64().max(1e-9);
                (op.total().saturating_sub(before)) as f64 / elapsed
            })
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>6} {:>9.1} {:>9} {:>9}\n",
            name,
            op.total(),
            op.ok,
            op.err,
            rate,
            fmt_ns(op.p50_ns()),
            fmt_ns(op.p99_ns()),
        ));
    }

    out.push_str(&format!(
        "\nflight recorder: {} trace(s) held, {} captured since boot\n",
        traces.len(),
        stats.counter("net.traces_captured"),
    ));
    const SHOW: usize = 4;
    for t in traces.iter().rev().take(SHOW) {
        out.push_str(&format!(
            "  trace {:#018x} [{}] total {}{}\n",
            t.trace_id,
            t.trigger.as_str(),
            fmt_ns(t.total_ns),
            if t.truncated_spans > 0 {
                format!(" ({} spans truncated)", t.truncated_spans)
            } else {
                String::new()
            }
        ));
        for (depth, span) in tree_order(&t.spans) {
            out.push_str(&format!(
                "    {}{} [{}] {}{}{}\n",
                "  ".repeat(depth),
                span.op,
                span.plane.as_str(),
                fmt_ns(span.duration_ns),
                span.sn.map_or(String::new(), |sn| format!(" sn={sn}")),
                if span.ok { "" } else { " ERR" },
            ));
        }
    }
    print!("{out}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}

/// Depth-first order over a captured span list: children grouped under
/// parents, siblings by start time. Spans whose parent is not in the
/// capture (the root, or a remote parent from the wire context) rank
/// as roots.
fn tree_order(spans: &[SpanRecord]) -> Vec<(usize, &SpanRecord)> {
    let mut by_start: Vec<&SpanRecord> = spans.iter().collect();
    by_start.sort_by_key(|s| s.start_ns);
    let mut out = Vec::with_capacity(spans.len());
    fn visit<'a>(
        node: &'a SpanRecord,
        depth: usize,
        all: &[&'a SpanRecord],
        out: &mut Vec<(usize, &'a SpanRecord)>,
    ) {
        out.push((depth, node));
        for child in all.iter().filter(|s| s.parent_span == node.span_id) {
            visit(child, depth + 1, all, out);
        }
    }
    let local: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    for root in by_start
        .iter()
        .filter(|s| s.parent_span == 0 || !local.contains(&s.parent_span))
    {
        visit(root, 0, &by_start, &mut out);
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------
// --once machine-readable output
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One JSON object on one line: the full snapshot plus every held
/// trace. Hand-rolled (the workspace has no serde); keys are emitted
/// in a fixed order so output is diffable across runs.
fn to_json_line(
    addr: &str,
    stats: &StatsSnapshot,
    traces: &[CapturedTrace],
    audit: &AuditView,
) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str(&format!("{{\"addr\":\"{}\"", json_escape(addr)));

    s.push_str(&format!(
        ",\"audit\":{{\"chain_height\":{},\"emitted\":{},\"dropped\":{},\"anchored\":{},\"unattested_tail\":{},\"anchor_age_ms\":{},\"classes\":{{",
        stats.gauge("audit.chain_height").unwrap_or(0),
        stats.counter("audit.emitted"),
        stats.counter("audit.dropped"),
        stats.counter("audit.anchored"),
        audit.unattested_tail(),
        audit.anchor_age_ms(),
    ));
    for (i, (name, n)) in audit.seen_classes().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{n}", json_escape(name)));
    }
    s.push_str("}}");

    s.push_str(",\"counters\":{");
    for (i, (name, v)) in stats.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{v}", json_escape(name)));
    }
    s.push_str("},\"gauges\":{");
    for (i, (name, v)) in stats.gauges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{v}", json_escape(name)));
    }
    s.push_str("},\"ops\":{");
    for (i, (name, op)) in stats.ops.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\"{}\":{{\"total\":{},\"ok\":{},\"err\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            json_escape(name),
            op.total(),
            op.ok,
            op.err,
            op.p50_ns(),
            op.p99_ns(),
        ));
    }
    s.push_str("},\"shards\":[");
    for (i, r) in shard_rows(stats).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"lane\":{},\"writes\":{},\"reads\":{},\"daemon_passes\":{},\"backoff_ms\":{},\"consecutive_failures\":{}}}",
            r.lane, r.writes, r.reads, r.daemon_passes, r.backoff_ms, r.consecutive_failures,
        ));
    }
    s.push_str("],\"workers\":[");
    for (i, r) in worker_rows(stats).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"worker\":{},\"conns\":{},\"frames\":{}}}",
            r.idx, r.conns, r.frames,
        ));
    }
    s.push_str("],\"traces\":[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"trace_id\":{},\"trigger\":\"{}\",\"total_ns\":{},\"truncated_spans\":{},\"spans\":[",
            t.trace_id,
            t.trigger.as_str(),
            t.total_ns,
            t.truncated_spans,
        ));
        for (j, span) in t.spans.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"span_id\":{},\"parent_span\":{},\"op\":\"{}\",\"plane\":\"{}\",\"start_ns\":{},\"duration_ns\":{},\"sn\":{},\"ok\":{}}}",
                span.span_id,
                span.parent_span,
                json_escape(&span.op),
                span.plane.as_str(),
                span.start_ns,
                span.duration_ns,
                span.sn.map_or("null".to_string(), |sn| sn.to_string()),
                span.ok,
            ));
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("plain.op"), "plain.op");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn tree_order_nests_children_under_parents() {
        let mk = |span_id, parent_span, op: &'static str, start_ns| SpanRecord {
            span_id,
            parent_span,
            op: op.into(),
            plane: wormtrace::Plane::Net,
            start_ns,
            duration_ns: 1,
            sn: None,
            ok: true,
        };
        let spans = vec![
            mk(3, 2, "store.read", 20),
            mk(1, 0, "net.request", 0),
            mk(2, 1, "server.read", 10),
        ];
        let order: Vec<_> = tree_order(&spans)
            .into_iter()
            .map(|(d, s)| (d, s.op.as_ref()))
            .collect();
        assert_eq!(
            order,
            [(0, "net.request"), (1, "server.read"), (2, "store.read")]
        );
    }

    #[test]
    fn json_line_is_well_formed_for_empty_snapshot() {
        let line = to_json_line("x:1", &StatsSnapshot::default(), &[], &AuditView::new());
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"counters\":{}"));
        assert!(line.contains("\"traces\":[]"));
        assert!(line.contains("\"shards\":[]"));
        assert!(line.contains(
            "\"audit\":{\"chain_height\":0,\"emitted\":0,\"dropped\":0,\"anchored\":0,\
             \"unattested_tail\":0,\"anchor_age_ms\":0,\"classes\":{}}"
        ));
        assert!(!line.contains('\n'));
    }

    fn sample_page() -> wormaudit::AuditPage {
        let ev = |seq, at_ms, class| wormaudit::AuditEvent {
            seq,
            at_ms,
            class,
            sn: None,
            detail: String::new(),
            prev_hash: [0; 32],
        };
        wormaudit::AuditPage {
            events: vec![
                ev(0, 1_000, wormaudit::AuditClass::HeadRefresh),
                ev(1, 2_000, wormaudit::AuditClass::VerifyFailure),
                ev(2, 5_000, wormaudit::AuditClass::VerifyFailure),
            ],
            anchors: vec![wormaudit::AuditAnchor {
                seq: 1,
                chain_hash: [0; 32],
                issued_at_ms: 2_000,
                key_id: [0; 8],
                sig: Vec::new(),
            }],
        }
    }

    #[test]
    fn audit_view_accumulates_pages_into_panel_state() {
        let mut view = AuditView::new();
        view.absorb(&sample_page());
        // Cursor points past the newest event; one event past the anchor.
        assert_eq!(view.cursor, 3);
        assert_eq!(view.unattested_tail(), 1);
        assert_eq!(view.anchor_age_ms(), 3_000);
        assert_eq!(
            view.seen_classes(),
            vec![("verify-failure", 2), ("head-refresh", 1)]
        );
        // Re-absorbing an older (replayed) page never regresses the view.
        view.absorb(&wormaudit::AuditPage {
            events: Vec::new(),
            anchors: vec![wormaudit::AuditAnchor {
                seq: 0,
                chain_hash: [0; 32],
                issued_at_ms: 1_000,
                key_id: [0; 8],
                sig: Vec::new(),
            }],
        });
        assert_eq!(view.last_anchor_seq, Some(1));
        assert_eq!(view.anchor_age_ms(), 3_000);
    }

    #[test]
    fn audit_view_reaches_json_line() {
        let mut view = AuditView::new();
        view.absorb(&sample_page());
        let stats = StatsSnapshot {
            // Name-sorted: snapshot lookups binary-search.
            counters: vec![
                ("audit.anchored".to_string(), 1),
                ("audit.dropped".to_string(), 0),
                ("audit.emitted".to_string(), 3),
            ],
            gauges: vec![("audit.chain_height".to_string(), 3)],
            ..StatsSnapshot::default()
        };
        let line = to_json_line("x:1", &stats, &[], &view);
        assert!(line.contains(
            "\"audit\":{\"chain_height\":3,\"emitted\":3,\"dropped\":0,\"anchored\":1,\
             \"unattested_tail\":1,\"anchor_age_ms\":3000,\
             \"classes\":{\"verify-failure\":2,\"head-refresh\":1}}"
        ));
    }

    #[test]
    fn shard_split_parses_lane_prefixes() {
        assert_eq!(
            shard_split("shard0.server.write"),
            Some((0, "server.write"))
        );
        assert_eq!(
            shard_split("shard12.daemon.backoff_ms"),
            Some((12, "daemon.backoff_ms"))
        );
        assert_eq!(shard_split("server.write"), None);
        assert_eq!(shard_split("shardx.server.write"), None);
        assert_eq!(shard_split("shard3"), None);
    }

    fn sharded_snapshot() -> StatsSnapshot {
        let op = |ok, err| wormtrace::OpSnapshot {
            ok,
            err,
            ..Default::default()
        };
        StatsSnapshot {
            // Lane 0 unprefixed, lane 2 under its prefix.
            ops: vec![
                ("daemon.pass".to_string(), op(4, 0)),
                ("net.request".to_string(), op(9, 0)),
                ("server.read".to_string(), op(2, 1)),
                ("server.write".to_string(), op(5, 0)),
                ("shard2.server.write".to_string(), op(7, 0)),
            ],
            counters: Vec::new(),
            gauges: vec![
                ("daemon.backoff_ms".to_string(), 250),
                ("net.queue_depth".to_string(), 3),
                ("shard2.daemon.consecutive_failures".to_string(), 1),
            ],
        }
    }

    #[test]
    fn shard_rows_extract_per_lane_health() {
        let rows = shard_rows(&sharded_snapshot());
        assert_eq!(
            rows,
            vec![
                ShardRow {
                    lane: 0,
                    writes: 5,
                    reads: 3,
                    daemon_passes: 4,
                    backoff_ms: 250,
                    consecutive_failures: 0,
                },
                ShardRow {
                    lane: 2,
                    writes: 7,
                    reads: 0,
                    daemon_passes: 0,
                    backoff_ms: 0,
                    consecutive_failures: 1,
                },
            ]
        );
    }

    #[test]
    fn shard_rows_reach_json_line() {
        let line = to_json_line("x:1", &sharded_snapshot(), &[], &AuditView::new());
        assert!(line.contains("\"shards\":[{\"lane\":0,"));
        assert!(line.contains("\"lane\":2,\"writes\":7"));
        assert!(line.contains("\"backoff_ms\":250"));
    }

    fn worker_snapshot() -> StatsSnapshot {
        StatsSnapshot {
            ops: Vec::new(),
            // Name-sorted: snapshot lookups binary-search.
            counters: vec![
                ("net.conn_accepted".to_string(), 9),
                ("net.worker0.frames".to_string(), 120),
                ("net.worker2.frames".to_string(), 40),
            ],
            gauges: vec![
                ("net.queue_depth".to_string(), 1),
                ("net.worker0.conns".to_string(), 3),
            ],
        }
    }

    #[test]
    fn worker_split_parses_only_worker_instruments() {
        assert_eq!(worker_split("net.worker0.conns"), Some((0, "conns")));
        assert_eq!(worker_split("net.worker12.frames"), Some((12, "frames")));
        assert_eq!(worker_split("net.conn_accepted"), None);
        assert_eq!(worker_split("net.workerx.conns"), None);
        assert_eq!(worker_split("net.worker3"), None);
    }

    #[test]
    fn worker_rows_extract_per_worker_load() {
        let rows = worker_rows(&worker_snapshot());
        assert_eq!(
            rows,
            vec![
                WorkerRow {
                    idx: 0,
                    conns: 3,
                    frames: 120,
                },
                WorkerRow {
                    idx: 2,
                    conns: 0,
                    frames: 40,
                },
            ]
        );
    }

    #[test]
    fn worker_rows_reach_json_line() {
        let line = to_json_line("x:1", &worker_snapshot(), &[], &AuditView::new());
        assert!(line.contains("\"workers\":[{\"worker\":0,\"conns\":3,\"frames\":120}"));
        assert!(line.contains("{\"worker\":2,\"conns\":0,\"frames\":40}"));
    }
}
