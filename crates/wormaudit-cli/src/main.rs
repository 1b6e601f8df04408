//! `wormaudit` — the auditor's side of the integrity event plane.
//!
//! A compliance auditor does not trust the host that serves the audit
//! chain: the host could rewrite history after the fact. What it does
//! trust is the SCPU's signing key, published through the ordinary key
//! endpoints. `wormaudit verify` therefore fetches the full event chain
//! over the wire (cursor-paginated `FetchAuditEvents`), replays the
//! hash chain link by link, checks every SCPU anchor signature against
//! the published shard keys, and reports the first sequence number at
//! which the served history diverges from what the SCPU vouched for.
//!
//! Exit codes: 0 = chain replayed cleanly; 1 = divergence detected;
//! 2 = usage error; 3 = connection or protocol failure.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::VirtualClock;
use strongworm::{RegulatoryAuthority, RetentionPolicy, WormConfig, WormServer};
use wormaudit::{verify_chain, AuditPage, ChainReport};
use wormnet::{NetServer, NetServerConfig, RemoteWormClient};
use wormstore::Shredder;

const USAGE: &str = "\
wormaudit — replay a Strong WORM server's tamper-evident audit chain

USAGE:
    wormaudit verify [OPTIONS]

OPTIONS:
    --addr HOST:PORT   Server to audit (default 127.0.0.1:7474)
    --from SEQ         First sequence number to fetch (default 0)
    --page N           Events per fetch page (default 1024)
    --no-tick          Skip the tick request that forces the SCPU to
                       anchor the chain tip before fetching (an
                       unanchored tail is then expected)
    --json             Emit one machine-readable JSON line
    --self-test        Boot an in-process server, verify it clean, then
                       tamper with its journal and prove the replay
                       detects the flip
    -h, --help         Show this help
";

struct Options {
    addr: String,
    from: u64,
    page: u32,
    tick: bool,
    json: bool,
    self_test: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut args = args.peekable();
    match args.next().as_deref() {
        Some("verify") => {}
        Some("-h" | "--help") => {
            print!("{USAGE}");
            std::process::exit(0);
        }
        Some(other) => return Err(format!("unknown subcommand: {other}")),
        None => return Err("missing subcommand (expected `verify`)".to_string()),
    }
    let mut opts = Options {
        addr: "127.0.0.1:7474".to_string(),
        from: 0,
        page: 1024,
        tick: true,
        json: false,
        self_test: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--from" => {
                opts.from = value("--from")?
                    .parse()
                    .map_err(|e| format!("--from: {e}"))?;
            }
            "--page" => {
                opts.page = value("--page")?
                    .parse::<u32>()
                    .map_err(|e| format!("--page: {e}"))?
                    .max(1);
            }
            "--no-tick" => opts.tick = false,
            "--json" => opts.json = true,
            "--self-test" => opts.self_test = true,
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
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wormaudit: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    if opts.self_test {
        std::process::exit(self_test(&opts));
    }

    match run_verify(&opts.addr, opts.from, opts.page, opts.tick) {
        Ok(outcome) => {
            print_outcome(&outcome, opts.json);
            std::process::exit(i32::from(!outcome.report.is_clean()));
        }
        Err(e) => {
            eprintln!("wormaudit: {}: {e}", opts.addr);
            std::process::exit(3);
        }
    }
}

/// Everything one verification pass learned, ready for rendering.
struct VerifyOutcome {
    addr: String,
    page: AuditPage,
    report: ChainReport,
    lanes: usize,
}

/// Connects, optionally forces an anchor, fetches the published shard
/// keys and the event window starting at `from`, and replays the chain.
fn run_verify(
    addr: &str,
    from: u64,
    page_size: u32,
    tick: bool,
) -> Result<VerifyOutcome, wormnet::NetError> {
    let mut client = RemoteWormClient::connect(addr)?;
    if tick {
        // A tick drives the SCPU's maintenance pass, which anchors the
        // chain tip — without it the newest events are legitimately
        // unattested and the tail count is nonzero.
        client.tick()?;
    }
    // The permanent witnessing key of every lane, one for a one-lane
    // deployment. Anchors may be signed by any lane's SCPU.
    let shard_keys = client.fetch_shard_keys()?;
    let lanes = shard_keys.len();
    let keys: Vec<_> = shard_keys.into_iter().map(|(k, _)| k.sign).collect();

    let page = fetch_chain(&mut client, from, page_size)?;
    let report = verify_chain(&page, &keys);
    Ok(VerifyOutcome {
        addr: addr.to_string(),
        page,
        report,
        lanes,
    })
}

/// Drains every event past `from`, page by page, into one stitched
/// window. Pages overlap in the anchors they carry (each page repeats
/// the anchors covering its events), so anchors are deduplicated by
/// sequence number.
fn fetch_chain(
    client: &mut RemoteWormClient,
    from: u64,
    page_size: u32,
) -> Result<AuditPage, wormnet::NetError> {
    let mut all = AuditPage::default();
    let mut cursor = from;
    loop {
        let page = client.audit_events(cursor, page_size)?;
        let Some(last) = page.events.last() else {
            break;
        };
        cursor = last.seq + 1;
        all.events.extend(page.events);
        all.anchors.extend(page.anchors);
    }
    all.anchors.sort_by_key(|a| a.seq);
    all.anchors.dedup_by_key(|a| a.seq);
    Ok(all)
}

fn print_outcome(outcome: &VerifyOutcome, json: bool) {
    if json {
        println!("{}", to_json_line(outcome));
    } else {
        print!("{}", to_human(outcome));
    }
}

fn to_human(outcome: &VerifyOutcome) -> String {
    let mut s = String::new();
    let window = match (outcome.page.events.first(), outcome.page.events.last()) {
        (Some(first), Some(last)) => format!("seq {}..{}", first.seq, last.seq),
        _ => "empty window".to_string(),
    };
    s.push_str(&format!(
        "wormaudit: {} — {} events ({window}), {} anchors, {} lane(s)\n",
        outcome.addr,
        outcome.page.events.len(),
        outcome.page.anchors.len(),
        outcome.lanes,
    ));
    let r = &outcome.report;
    s.push_str(&format!("  verified links:    {}\n", r.verified_links));
    match r.last_anchored_seq {
        Some(seq) => s.push_str(&format!(
            "  verified anchors:  {} (newest over seq {seq})\n",
            r.verified_anchors
        )),
        None => s.push_str(&format!("  verified anchors:  {}\n", r.verified_anchors)),
    }
    s.push_str(&format!(
        "  out-of-window:     {}\n  unattested tail:   {}\n",
        r.out_of_window_anchors, r.unattested_tail
    ));
    match &r.divergence {
        None => s.push_str("  chain: CLEAN\n"),
        Some(d) => s.push_str(&format!(
            "  chain: DIVERGED at seq {}: {}\n",
            d.seq, d.reason
        )),
    }
    s
}

fn to_json_line(outcome: &VerifyOutcome) -> String {
    let r = &outcome.report;
    let mut s = format!(
        "{{\"addr\":\"{}\",\"events\":{},\"anchors\":{},\"lanes\":{}",
        json_escape(&outcome.addr),
        outcome.page.events.len(),
        outcome.page.anchors.len(),
        outcome.lanes,
    );
    if let (Some(first), Some(last)) = (outcome.page.events.first(), outcome.page.events.last()) {
        s.push_str(&format!(
            ",\"first_seq\":{},\"last_seq\":{}",
            first.seq, last.seq
        ));
    }
    s.push_str(&format!(
        ",\"verified_links\":{},\"verified_anchors\":{},\"out_of_window_anchors\":{},\"unattested_tail\":{},\"clean\":{}",
        r.verified_links,
        r.verified_anchors,
        r.out_of_window_anchors,
        r.unattested_tail,
        r.is_clean(),
    ));
    match &r.divergence {
        None => s.push_str(",\"divergence\":null}"),
        Some(d) => s.push_str(&format!(
            ",\"divergence\":{{\"seq\":{},\"reason\":\"{}\"}}}}",
            d.seq,
            json_escape(&d.reason)
        )),
    }
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

/// Boots a loopback server, proves the served chain replays cleanly,
/// then tampers with the host's journal in place and proves the same
/// replay pipeline reports the divergence — end-to-end evidence that a
/// clean verdict means something. Exits 0 only if both halves hold.
fn self_test(opts: &Options) -> i32 {
    let clock = VirtualClock::new();
    let mut rng = StdRng::seed_from_u64(77);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    let server = Arc::new(
        WormServer::new(WormConfig::test_small(), clock.clone(), regulator.public())
            .expect("self-test server boots"),
    );
    let net = NetServer::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("self-test server binds a loopback port");
    let addr = net.local_addr().to_string();

    let mut client = RemoteWormClient::connect(&addr).expect("self-test client connects");
    // Mixed-lifetime traffic: the ephemeral records expire before the
    // verify pass's tick, so the chain carries shred events alongside
    // the boot and heartbeat ones — a representative window, not a
    // single genesis entry.
    let anchor = RetentionPolicy::custom(Duration::from_secs(3600), Shredder::ZeroFill);
    let ephemeral = RetentionPolicy::custom(Duration::from_secs(1), Shredder::ZeroFill);
    client
        .write(&[b"self-test anchor record".as_slice()], anchor)
        .expect("self-test write");
    for i in 0..3u32 {
        client
            .write(&[format!("self-test record {i}").as_bytes()], ephemeral)
            .expect("self-test write");
    }
    clock.advance(Duration::from_secs(2));

    let clean = run_verify(&addr, 0, opts.page, true).expect("self-test verify pass");
    print_outcome(&clean, opts.json);
    if !clean.report.is_clean() || clean.report.unattested_tail != 0 {
        eprintln!("wormaudit: self-test FAILED: honest chain did not replay cleanly");
        net.shutdown();
        return 1;
    }

    // Now play the dishonest host: rewrite an already-served event in
    // the live journal and run the identical audit pass.
    server.audit().tamper_event_for_test(0);
    let tampered = run_verify(&addr, 0, opts.page, false).expect("self-test tamper pass");
    print_outcome(&tampered, opts.json);
    net.shutdown();
    match &tampered.report.divergence {
        Some(d) if d.seq == 0 => {
            println!("wormaudit: self-test OK (tamper detected at seq 0)");
            0
        }
        other => {
            eprintln!("wormaudit: self-test FAILED: tamper not pinned to seq 0, got {other:?}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormaudit::{AuditClass, AuditEvent, ChainDivergence};

    fn args(list: &[&str]) -> Result<Options, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn verify_args_parse_with_defaults_and_overrides() {
        let o = args(&["verify"]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:7474");
        assert_eq!((o.from, o.page), (0, 1024));
        assert!(o.tick && !o.json && !o.self_test);

        let o = args(&[
            "verify",
            "--addr",
            "h:1",
            "--from",
            "9",
            "--page",
            "2",
            "--no-tick",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.addr, "h:1");
        assert_eq!((o.from, o.page), (9, 2));
        assert!(!o.tick && o.json);
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(args(&[]).is_err());
        assert!(args(&["audit"]).is_err());
        assert!(args(&["verify", "--page"]).is_err());
        assert!(args(&["verify", "--bogus"]).is_err());
    }

    fn outcome(divergence: Option<ChainDivergence>) -> VerifyOutcome {
        VerifyOutcome {
            addr: "x:1".to_string(),
            page: AuditPage {
                events: vec![AuditEvent {
                    seq: 0,
                    at_ms: 1,
                    class: AuditClass::HeadRefresh,
                    sn: None,
                    detail: String::new(),
                    prev_hash: [0; 32],
                }],
                anchors: Vec::new(),
            },
            report: ChainReport {
                unattested_tail: 1,
                divergence,
                ..ChainReport::default()
            },
            lanes: 1,
        }
    }

    #[test]
    fn human_report_states_the_verdict() {
        let clean = to_human(&outcome(None));
        assert!(clean.contains("1 events (seq 0..0)"));
        assert!(clean.contains("chain: CLEAN"));

        let diverged = to_human(&outcome(Some(ChainDivergence {
            seq: 7,
            reason: "hash-chain break".to_string(),
        })));
        assert!(diverged.contains("chain: DIVERGED at seq 7: hash-chain break"));
    }

    #[test]
    fn json_report_is_one_well_formed_line() {
        let line = to_json_line(&outcome(None));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"first_seq\":0,\"last_seq\":0"));
        assert!(line.contains("\"clean\":true,\"divergence\":null"));

        let line = to_json_line(&outcome(Some(ChainDivergence {
            seq: 7,
            reason: "a \"quoted\" reason".to_string(),
        })));
        assert!(line.contains("\"clean\":false"));
        assert!(line.contains("\"divergence\":{\"seq\":7,\"reason\":\"a \\\"quoted\\\" reason\"}"));
    }

    #[test]
    fn end_to_end_verify_is_clean_then_pins_a_tamper() {
        let clock = VirtualClock::new();
        let mut rng = StdRng::seed_from_u64(4242);
        let regulator = RegulatoryAuthority::generate(&mut rng, 512);
        let server = Arc::new(
            WormServer::new(WormConfig::test_small(), clock.clone(), regulator.public()).unwrap(),
        );
        let net = NetServer::bind(
            Arc::clone(&server),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .unwrap();
        let addr = net.local_addr().to_string();

        let mut client = RemoteWormClient::connect(&addr).unwrap();
        // An anchor record plus ephemeral ones whose expiry the tick
        // will shred — each shred is an audited event, so the chain
        // grows well past one fetch page.
        let anchor = RetentionPolicy::custom(Duration::from_secs(3600), Shredder::ZeroFill);
        let ephemeral = RetentionPolicy::custom(Duration::from_secs(1), Shredder::ZeroFill);
        client.write(&[b"anchor".as_slice()], anchor).unwrap();
        for _ in 0..3 {
            client.write(&[b"r".as_slice()], ephemeral).unwrap();
        }
        clock.advance(Duration::from_secs(2));

        // Tiny pages force the pagination path: the chain must stitch
        // back together densely and still verify.
        let clean = run_verify(&addr, 0, 2, true).unwrap();
        assert!(clean.report.is_clean(), "{:?}", clean.report.divergence);
        assert_eq!(clean.report.unattested_tail, 0);
        assert!(clean.page.events.len() > 2, "pagination exercised");
        let seqs: Vec<u64> = clean.page.events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "dense: {seqs:?}");

        server.audit().tamper_event_for_test(1);
        let tampered = run_verify(&addr, 0, 2, false).unwrap();
        assert_eq!(tampered.report.divergence.expect("must diverge").seq, 1);

        net.shutdown();
    }
}
