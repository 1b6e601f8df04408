//! Request/response protocol, layered on the canonical wire codec.
//!
//! Each frame payload is a domain-tagged [`strongworm::wire`] message.
//! Structures that already have canonical encodings in
//! [`strongworm::codec`] — read outcomes, credentials, device keys —
//! are embedded as nested byte strings of those exact encodings, so a
//! verifier sees the same canonical bytes it would see in-process.
//! Decoding is defensive throughout: both sides treat the peer as
//! hostile, and malformed input yields an error, never a panic or an
//! unbounded allocation.
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::as_conversions))]

use bytes::Bytes;
use strongworm::authority::{HoldCredential, ReleaseCredential};
use strongworm::codec::{
    decode_captured_traces, decode_composite_head, decode_device_keys, decode_hold_credential,
    decode_read_outcome_shared, decode_release_credential, decode_stats_snapshot,
    decode_weak_key_cert, encode_captured_traces, encode_composite_head, encode_device_keys,
    encode_hold_credential, encode_read_outcome_into, encode_release_credential,
    encode_stats_snapshot, encode_weak_key_cert,
};
use strongworm::firmware::{DeviceKeys, WeakKeyCert};
use strongworm::wire::{WireError, WireReader, WireWriter};
use strongworm::{
    CompositeHead, ReadOutcome, Regulation, RetentionPolicy, SerialNumber, WitnessMode, WormError,
};
use wormstore::Shredder;

const REQ_TAG: &str = "wormnet.req.v1";
const RESP_TAG: &str = "wormnet.resp.v1";

/// Decoding cap on list lengths (records per write, weak certs per key
/// bundle): a hostile count must not drive unbounded allocation.
const MAX_LIST_LEN: usize = 1 << 20;

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetRequest {
    /// Commit a virtual record (§4.2.2 *Write*).
    Write {
        /// The data records of the VR, in order.
        records: Vec<Bytes>,
        /// Retention policy to stamp into the record's attributes.
        policy: RetentionPolicy,
        /// Application flag bits.
        flags: u32,
        /// Witness tier (§4.3 deferred strength).
        witness: WitnessMode,
    },
    /// Read a record by serial number (§4.2.2 *Read*).
    Read {
        /// The serial number to read.
        sn: SerialNumber,
    },
    /// Drive retention maintenance on the lane that owns `sn`, then
    /// re-read `sn` so the caller can
    /// verify the resulting deletion evidence. WORM semantics: there is
    /// no unilateral delete — only records past their retention
    /// deadline are actually removed, and the response proves whichever
    /// state holds.
    Delete {
        /// The serial number whose deletion is being driven.
        sn: SerialNumber,
    },
    /// Place a litigation hold (§4.2.2 *LitHold*).
    LitHold(
        /// Regulator-signed hold credential.
        HoldCredential,
    ),
    /// Release a litigation hold (§4.2.2 *LitRelease*).
    LitRelease(
        /// Regulator-signed release credential.
        ReleaseCredential,
    ),
    /// Drive due device alarms (Retention Monitor wake-ups, head
    /// heartbeats).
    Tick,
    /// Fetch a point-in-time snapshot of the server's trace registry:
    /// per-op latency histograms, outcome counters, and subsystem
    /// gauges. Observability only — nothing in it is signed, so it is
    /// diagnostic data, not compliance evidence.
    Stats,
    /// Fetch the flight recorder's retained slow/error span trees
    /// (newest last). Like `Stats`, unsigned diagnostic data only.
    Traces,
    /// Fetch the deployment's composite freshness head: every lane's
    /// head certificate folded into one root signed by lane 0, cached
    /// for the head-refresh interval. A one-lane deployment answers
    /// the same way with one head.
    GetCompositeHead,
    /// Fetch every lane's published keys and weak-key certificates, in
    /// lane order (lane 0 first), for bootstrapping a
    /// [`strongworm::Verifier`]. The bytes are untrusted until validated
    /// against CA certificates.
    GetShardKeys,
    /// Fetch a page of the tamper-evident audit journal, cursor-based:
    /// events with `seq >= from_seq`, at most `max_events` of them,
    /// plus every SCPU anchor covering the returned window. Unlike
    /// `Stats`/`Traces` this *is* compliance evidence — the auditor
    /// replays the hash chain against the anchors
    /// ([`wormaudit::verify_chain`]) rather than trusting the host.
    FetchAuditEvents {
        /// First journal sequence number wanted (0 for the oldest
        /// retained event; resume from `last.seq + 1` to paginate).
        from_seq: u64,
        /// Page size cap; the server additionally clamps to
        /// [`wormaudit::codec::MAX_PAGE_EVENTS`].
        max_events: u32,
    },
}

/// A server response.
#[derive(Clone, Debug)]
pub enum NetResponse {
    /// The request failed server-side.
    Error {
        /// Numeric error class from [`error_code`].
        code: u8,
        /// Human-readable message. Untrusted — display only.
        message: String,
    },
    /// A write committed.
    Written {
        /// The serial number the SCPU assigned.
        sn: SerialNumber,
    },
    /// A read (or delete re-read) outcome, carrying SCPU-signed
    /// evidence for the client to verify.
    Outcome(
        /// The outcome, in its canonical encoding.
        ReadOutcome,
    ),
    /// The request succeeded with nothing to return.
    Ack,
    /// A stats snapshot, in its canonical encoding.
    Stats(
        /// Every instrument registered server-side, name-sorted.
        wormtrace::StatsSnapshot,
    ),
    /// The flight recorder's retained span trees, oldest first.
    Traces(
        /// Captured slow/error traces, in their canonical encoding.
        Vec<wormtrace::CapturedTrace>,
    ),
    /// The composite freshness head, in its canonical encoding. The
    /// client verifies the coordinator's binding signature, the root,
    /// and every per-shard head before trusting any of it.
    CompositeHead(
        /// Per-shard heads plus the signed binding.
        CompositeHead,
    ),
    /// Every shard's published keys, in lane order.
    ShardKeys(
        /// `(keys, weak_certs)` per shard lane; untrusted until
        /// validated against CA certificates.
        Vec<(DeviceKeys, Vec<WeakKeyCert>)>,
    ),
    /// One page of the audit journal, in its canonical
    /// `wormaudit.events.v1` encoding. Untrusted until the client
    /// replays the chain against the embedded SCPU anchors.
    AuditEvents(
        /// Events plus covering anchors.
        wormaudit::AuditPage,
    ),
}

/// Maps a server-side error to a stable numeric class for the wire.
pub fn error_code(e: &WormError) -> u8 {
    match e {
        WormError::Device(_) => 1,
        WormError::Store(_) => 2,
        WormError::Firmware(_) => 3,
        WormError::NotActive(_) => 4,
        WormError::Wire(_) => 5,
        // `WormError` is non_exhaustive; future variants class as 0.
        _ => 0,
    }
}

/// Error class a server uses for requests it could not even decode.
pub const CODE_BAD_REQUEST: u8 = 6;

/// Error class a server sends — as the sole frame on the connection,
/// immediately before closing it — when admission control sheds the
/// connection (every worker saturated or the connection cap reached).
/// Distinguishes deliberate load-shedding from a network failure: a
/// client seeing `CODE_BUSY` should back off and retry, not alert.
pub const CODE_BUSY: u8 = 7;

fn put_policy(w: &mut WireWriter, p: &RetentionPolicy) {
    w.put_u8(p.regulation.code());
    w.put_u64(u64::try_from(p.retention.as_millis()).unwrap_or(u64::MAX));
    let (kind, arg) = p.shredder.code();
    w.put_u8(kind);
    w.put_u8(arg);
}

fn get_policy(r: &mut WireReader<'_>) -> Result<RetentionPolicy, WireError> {
    let regulation = Regulation::from_code(r.get_u8()?).ok_or(WireError {
        expected: "regulation code",
    })?;
    let retention = std::time::Duration::from_millis(r.get_u64()?);
    let shredder = Shredder::from_code(r.get_u8()?, r.get_u8()?).ok_or(WireError {
        expected: "shredder code",
    })?;
    Ok(RetentionPolicy {
        regulation,
        retention,
        shredder,
    })
}

/// One lane's published keys: the device keys, then every weak-key
/// certificate. `ShardKeys` carries one of these per lane.
fn put_lane_keys(w: &mut WireWriter, keys: &DeviceKeys, weak_certs: &[WeakKeyCert]) {
    w.put_bytes(&encode_device_keys(keys));
    w.put_count(weak_certs.len());
    for cert in weak_certs {
        w.put_bytes(&encode_weak_key_cert(cert));
    }
}

fn get_lane_keys(r: &mut WireReader<'_>) -> Result<(DeviceKeys, Vec<WeakKeyCert>), WireError> {
    let keys = decode_device_keys(r.get_bytes()?)?;
    let n = r.get_count_within(MAX_LIST_LEN, "weak cert count within bounds")?;
    let mut weak_certs = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        weak_certs.push(decode_weak_key_cert(r.get_bytes()?)?);
    }
    Ok((keys, weak_certs))
}

fn witness_code(m: WitnessMode) -> u8 {
    match m {
        WitnessMode::Strong => 0,
        WitnessMode::Deferred => 1,
        WitnessMode::Hmac => 2,
    }
}

fn witness_from_code(code: u8) -> Result<WitnessMode, WireError> {
    match code {
        0 => Ok(WitnessMode::Strong),
        1 => Ok(WitnessMode::Deferred),
        2 => Ok(WitnessMode::Hmac),
        _ => Err(WireError {
            expected: "witness mode code",
        }),
    }
}

/// Encodes a request frame payload.
pub fn encode_request(req: &NetRequest) -> Vec<u8> {
    WireWriter::encoded(|w| put_request(w, req, None))
}

/// Wraps an already-meaningful request in the versioned trace-context
/// envelope (opcode 9): trace id, parent span id, then the inner
/// request's complete canonical encoding as a nested byte string. A
/// server that understands the envelope serves the inner request with
/// its spans joined to the caller's trace; an old server rejects the
/// unknown opcode with a decode error and the connection survives —
/// tracing is strictly opt-in per request.
pub fn encode_request_traced(req: &NetRequest, ctx: wormtrace::TraceContext) -> Vec<u8> {
    WireWriter::encoded(|w| put_request(w, req, Some(ctx)))
}

/// Writes a request frame payload in place (the one definition of its
/// layout): bare, or inside the trace-context envelope when `ctx` is
/// given. The client encodes straight into its output buffer,
/// [`encode_request`] and [`encode_request_traced`] into a fresh one.
pub(crate) fn put_request(
    w: &mut WireWriter,
    req: &NetRequest,
    ctx: Option<wormtrace::TraceContext>,
) {
    w.put_str(REQ_TAG);
    if let Some(ctx) = ctx {
        w.put_u8(9);
        w.put_u64(ctx.trace_id);
        w.put_u64(ctx.parent_span);
        w.put_nested(|w| put_request(w, req, None));
        return;
    }
    match req {
        NetRequest::Write {
            records,
            policy,
            flags,
            witness,
        } => {
            w.put_u8(1);
            w.put_count(records.len());
            for rec in records {
                w.put_bytes(rec);
            }
            put_policy(w, policy);
            w.put_u32(*flags);
            w.put_u8(witness_code(*witness));
        }
        NetRequest::Read { sn } => {
            w.put_u8(2);
            w.put_u64(sn.0);
        }
        NetRequest::Delete { sn } => {
            w.put_u8(3);
            w.put_u64(sn.0);
        }
        NetRequest::LitHold(cred) => {
            w.put_u8(4);
            w.put_bytes(&encode_hold_credential(cred));
        }
        NetRequest::LitRelease(cred) => {
            w.put_u8(5);
            w.put_bytes(&encode_release_credential(cred));
        }
        NetRequest::Tick => {
            w.put_u8(6);
        }
        NetRequest::Stats => {
            w.put_u8(8);
        }
        NetRequest::Traces => {
            w.put_u8(10);
        }
        NetRequest::GetCompositeHead => {
            w.put_u8(11);
        }
        NetRequest::GetShardKeys => {
            w.put_u8(12);
        }
        NetRequest::FetchAuditEvents {
            from_seq,
            max_events,
        } => {
            w.put_u8(13);
            w.put_u64(*from_seq);
            w.put_u32(*max_events);
        }
    }
}

/// Decodes a request frame payload (context-free form). An envelope
/// (opcode 9) is rejected here — servers use
/// [`decode_request_traced`], which accepts both forms.
///
/// # Errors
///
/// [`WireError`] on an unknown tag or opcode, malformed fields,
/// truncation, or trailing bytes.
pub fn decode_request(bytes: &[u8]) -> Result<NetRequest, WireError> {
    decode_request_inner(bytes, false).map(|(req, _)| req)
}

/// Decodes a request frame payload, accepting either a bare request or
/// a trace-context envelope. Envelopes nest exactly one level: an
/// envelope inside an envelope is malformed.
///
/// # Errors
///
/// [`WireError`] on an unknown tag or opcode, malformed fields or
/// trace context, truncation, or trailing bytes — never a panic.
pub fn decode_request_traced(
    bytes: &[u8],
) -> Result<(NetRequest, Option<wormtrace::TraceContext>), WireError> {
    decode_request_inner(bytes, true)
}

fn decode_request_inner(
    bytes: &[u8],
    allow_envelope: bool,
) -> Result<(NetRequest, Option<wormtrace::TraceContext>), WireError> {
    let mut r = WireReader::tagged(bytes, REQ_TAG, "request tag")?;
    let opcode = r.get_u8()?;
    if opcode == 9 {
        if !allow_envelope {
            return Err(WireError {
                expected: "bare request opcode (envelope rejected here)",
            });
        }
        let trace_id = r.get_u64()?;
        let parent_span = r.get_u64()?;
        let inner = r.get_bytes()?;
        let (req, _) = decode_request_inner(inner, false)?;
        r.expect_end()?;
        return Ok((
            req,
            Some(wormtrace::TraceContext {
                trace_id,
                parent_span,
            }),
        ));
    }
    let req = match opcode {
        1 => {
            let n = r.get_count_within(MAX_LIST_LEN, "record count within bounds")?;
            let mut records = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                records.push(Bytes::from(r.get_bytes()?.to_vec()));
            }
            let policy = get_policy(&mut r)?;
            let flags = r.get_u32()?;
            let witness = witness_from_code(r.get_u8()?)?;
            NetRequest::Write {
                records,
                policy,
                flags,
                witness,
            }
        }
        2 => NetRequest::Read {
            sn: SerialNumber(r.get_u64()?),
        },
        3 => NetRequest::Delete {
            sn: SerialNumber(r.get_u64()?),
        },
        4 => NetRequest::LitHold(decode_hold_credential(r.get_bytes()?)?),
        5 => NetRequest::LitRelease(decode_release_credential(r.get_bytes()?)?),
        6 => NetRequest::Tick,
        8 => NetRequest::Stats,
        10 => NetRequest::Traces,
        11 => NetRequest::GetCompositeHead,
        12 => NetRequest::GetShardKeys,
        13 => NetRequest::FetchAuditEvents {
            from_seq: r.get_u64()?,
            max_events: r.get_u32()?,
        },
        _ => {
            return Err(WireError {
                expected: "request opcode",
            })
        }
    };
    r.expect_end()?;
    Ok((req, None))
}

/// Encodes a response frame payload.
pub fn encode_response(resp: &NetResponse) -> Vec<u8> {
    WireWriter::encoded(|w| put_response(w, resp))
}

/// Writes a response frame payload in place (the one definition of its
/// layout): the server encodes straight into a connection's output
/// buffer, [`encode_response`] into a fresh one.
pub(crate) fn put_response(w: &mut WireWriter, resp: &NetResponse) {
    w.put_str(RESP_TAG);
    match resp {
        NetResponse::Error { code, message } => {
            w.put_u8(0);
            w.put_u8(*code);
            w.put_str(message);
        }
        NetResponse::Written { sn } => {
            w.put_u8(1);
            w.put_u64(sn.0);
        }
        NetResponse::Outcome(outcome) => {
            w.put_u8(2);
            w.put_nested(|w| encode_read_outcome_into(w, outcome));
        }
        NetResponse::Ack => {
            w.put_u8(3);
        }
        NetResponse::Stats(snapshot) => {
            w.put_u8(5);
            w.put_bytes(&encode_stats_snapshot(snapshot));
        }
        NetResponse::Traces(traces) => {
            w.put_u8(6);
            w.put_bytes(&encode_captured_traces(traces));
        }
        NetResponse::CompositeHead(composite) => {
            w.put_u8(7);
            w.put_bytes(&encode_composite_head(composite));
        }
        NetResponse::ShardKeys(shards) => {
            w.put_u8(8);
            w.put_count(shards.len());
            for (keys, weak_certs) in shards {
                put_lane_keys(w, keys, weak_certs);
            }
        }
        NetResponse::AuditEvents(page) => {
            w.put_u8(9);
            w.put_bytes(&wormaudit::codec::encode_audit_page(page));
        }
    }
}

/// Writes the [`NetResponse::Outcome`] response to a read that
/// `read_into` serves by writing the outcome's encoding in place
/// ([`strongworm::WormServer::read_into`]): the bytes [`put_response`]
/// writes for the owned outcome, without building one.
///
/// # Errors
///
/// Whatever `read_into` returns; the outcome it may have half written
/// is truncated away, the response tag before it stays for the caller
/// to roll back.
pub(crate) fn put_outcome_response<E>(
    w: &mut WireWriter,
    read_into: impl FnOnce(&mut WireWriter) -> Result<(), E>,
) -> Result<(), E> {
    w.put_str(RESP_TAG);
    w.put_u8(2);
    w.try_put_nested(read_into)
}

/// Decodes a response frame payload. A read outcome's records are
/// slices of `src` (see [`decode_read_outcome_shared`]): the frame is
/// not copied again after it leaves the socket.
///
/// # Errors
///
/// [`WireError`] on an unknown tag or discriminant, malformed fields,
/// truncation, or trailing bytes.
pub fn decode_response_shared(src: &Bytes) -> Result<NetResponse, WireError> {
    let mut r = WireReader::tagged(src, RESP_TAG, "response tag")?;
    let resp = match r.get_u8()? {
        0 => NetResponse::Error {
            code: r.get_u8()?,
            message: r.get_str()?.to_string(),
        },
        1 => NetResponse::Written {
            sn: SerialNumber(r.get_u64()?),
        },
        2 => NetResponse::Outcome(decode_read_outcome_shared(&src.slice(r.get_range()?))?),
        3 => NetResponse::Ack,
        5 => NetResponse::Stats(decode_stats_snapshot(r.get_bytes()?)?),
        6 => NetResponse::Traces(decode_captured_traces(r.get_bytes()?)?),
        7 => NetResponse::CompositeHead(decode_composite_head(r.get_bytes()?)?),
        8 => {
            let n = r.get_count_within(MAX_LIST_LEN, "shard count within bounds")?;
            let mut shards = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                shards.push(get_lane_keys(&mut r)?);
            }
            NetResponse::ShardKeys(shards)
        }
        // The page keeps its own canonical codec (and count caps).
        9 => NetResponse::AuditEvents(wormaudit::codec::decode_audit_page(r.get_bytes()?)?),
        _ => {
            return Err(WireError {
                expected: "response discriminant",
            })
        }
    };
    r.expect_end()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use strongworm::witness::Signature;

    /// Decodes a response from plain bytes (the decoder takes the
    /// receive buffer as `Bytes`).
    fn decode_plain(bytes: &[u8]) -> Result<NetResponse, WireError> {
        decode_response_shared(&Bytes::from(bytes))
    }

    fn sig(b: u8) -> Signature {
        Signature {
            key_id: [b; 8],
            bytes: vec![b; 32],
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            NetRequest::Write {
                records: vec![Bytes::from(b"a".to_vec()), Bytes::from(Vec::new())],
                policy: RetentionPolicy::custom(
                    Duration::from_secs(30),
                    Shredder::MultiPass { passes: 3 },
                ),
                flags: 0xDEAD_BEEF,
                witness: WitnessMode::Deferred,
            },
            NetRequest::Read {
                sn: SerialNumber(42),
            },
            NetRequest::Delete {
                sn: SerialNumber(7),
            },
            NetRequest::LitHold(HoldCredential {
                sn: SerialNumber(9),
                issued_at: scpu::Timestamp::from_millis(4),
                litigation_id: 77,
                hold_until: scpu::Timestamp::from_millis(9999),
                sig: sig(1),
            }),
            NetRequest::LitRelease(ReleaseCredential {
                sn: SerialNumber(9),
                issued_at: scpu::Timestamp::from_millis(5),
                litigation_id: 77,
                sig: sig(2),
            }),
            NetRequest::Tick,
            NetRequest::Stats,
            NetRequest::Traces,
            NetRequest::GetCompositeHead,
            NetRequest::GetShardKeys,
            NetRequest::FetchAuditEvents {
                from_seq: 0,
                max_events: 4096,
            },
            NetRequest::FetchAuditEvents {
                from_seq: u64::MAX,
                max_events: 0,
            },
        ];
        for req in reqs {
            let enc = encode_request(&req);
            assert_eq!(decode_request(&enc).unwrap(), req);
            assert!(decode_request(&enc[..enc.len() - 1]).is_err());
            let mut noisy = enc.clone();
            noisy.push(0);
            assert!(decode_request(&noisy).is_err());
            // The traced form roundtrips request and context together.
            let ctx = wormtrace::TraceContext {
                trace_id: 0xABCD,
                parent_span: 17,
            };
            let traced = encode_request_traced(&req, ctx);
            assert_eq!(
                decode_request_traced(&traced).unwrap(),
                (req.clone(), Some(ctx))
            );
            // A bare request decodes through the traced entry point too,
            // with no context — old clients keep working.
            assert_eq!(decode_request_traced(&enc).unwrap(), (req, None));
            // The context-free decoder rejects envelopes (old servers).
            assert!(decode_request(&traced).is_err());
            for cut in 0..traced.len() {
                assert!(decode_request_traced(&traced[..cut]).is_err());
            }
        }
    }

    #[test]
    fn envelope_cannot_nest_and_garbage_context_rejected() {
        let inner = encode_request_traced(
            &NetRequest::Stats,
            wormtrace::TraceContext {
                trace_id: 1,
                parent_span: 0,
            },
        );
        // An envelope wrapping an envelope is malformed.
        let mut w = WireWriter::tagged(REQ_TAG);
        w.put_u8(9);
        w.put_u64(2);
        w.put_u64(0);
        w.put_bytes(&inner);
        assert!(decode_request_traced(&w.finish()).is_err());
        // An envelope around garbage inner bytes is malformed.
        let mut w = WireWriter::tagged(REQ_TAG);
        w.put_u8(9);
        w.put_u64(2);
        w.put_u64(0);
        w.put_bytes(b"not a request");
        assert!(decode_request_traced(&w.finish()).is_err());
        // Trailing bytes after the envelope are rejected.
        let mut padded = encode_request_traced(
            &NetRequest::Tick,
            wormtrace::TraceContext {
                trace_id: 3,
                parent_span: 4,
            },
        );
        padded.push(0);
        assert!(decode_request_traced(&padded).is_err());
    }

    #[test]
    fn traces_response_roundtrips() {
        let trace = wormtrace::CapturedTrace {
            trace_id: 9,
            trigger: wormtrace::TraceTrigger::Error,
            total_ns: 1234,
            truncated_spans: 0,
            spans: vec![wormtrace::SpanRecord {
                span_id: 1,
                parent_span: 0,
                op: "net.request".into(),
                plane: wormtrace::Plane::Net,
                start_ns: 0,
                duration_ns: 1234,
                sn: None,
                ok: false,
            }],
        };
        let enc = encode_response(&NetResponse::Traces(vec![trace.clone()]));
        match decode_plain(&enc).unwrap() {
            NetResponse::Traces(got) => assert_eq!(got, vec![trace]),
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(decode_plain(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn hostile_write_count_is_bounded() {
        let mut w = WireWriter::tagged("wormnet.req.v1");
        w.put_u8(1);
        w.put_u32(u32::MAX);
        assert!(decode_request(&w.finish()).is_err());
    }

    #[test]
    fn a_policy_shredder_decodes_only_from_its_canonical_pair() {
        let write = |kind: u8, arg: u8| {
            let mut w = WireWriter::tagged(REQ_TAG);
            w.put_u8(1);
            w.put_count(0);
            w.put_u8(Regulation::Custom.code());
            w.put_u64(30_000);
            w.put_u8(kind);
            w.put_u8(arg);
            w.put_u32(0);
            w.put_u8(witness_code(WitnessMode::Strong));
            decode_request(&w.finish())
        };
        assert!(write(0, 5).is_err());
        assert!(write(2, 5).is_err());
        for passes in [0, 5, u8::MAX] {
            match write(1, passes).unwrap() {
                NetRequest::Write { policy, .. } => {
                    assert_eq!(policy.shredder, Shredder::MultiPass { passes });
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_opcode_and_tag_rejected() {
        // 7 (`GetKeys`) and response 4 (`Keys`) are retired.
        for opcode in [7, 200] {
            let mut w = WireWriter::tagged(REQ_TAG);
            w.put_u8(opcode);
            assert!(decode_request(&w.finish()).is_err());
        }
        let mut w = WireWriter::tagged(RESP_TAG);
        w.put_u8(4);
        assert!(decode_plain(&w.finish()).is_err());
        let mut w = WireWriter::tagged("wormnet.resp.v2");
        w.put_u8(3);
        assert!(decode_plain(&w.finish()).is_err());
        assert!(decode_request(b"").is_err());
        assert!(decode_plain(b"").is_err());
    }

    #[test]
    fn stats_response_roundtrips() {
        let reg = wormtrace::Registry::new();
        reg.op("server.read").record(512, true);
        reg.counter("net.frames_in").add(7);
        let enc = encode_response(&NetResponse::Stats(reg.snapshot()));
        match decode_plain(&enc).unwrap() {
            NetResponse::Stats(s) => {
                assert_eq!(s, reg.snapshot());
                assert_eq!(s.counter("net.frames_in"), 7);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(decode_plain(&enc[..enc.len() - 1]).is_err());
    }

    fn tiny_key(n: u8) -> wormcrypt::RsaPublicKey {
        // Structurally valid key material (decode only checks non-zero).
        let mut raw = Vec::new();
        raw.extend_from_slice(&1u32.to_be_bytes());
        raw.push(n);
        raw.extend_from_slice(&1u32.to_be_bytes());
        raw.push(3);
        wormcrypt::RsaPublicKey::from_bytes(&raw).unwrap()
    }

    fn sample_shard_keys(lanes: u8) -> Vec<(DeviceKeys, Vec<WeakKeyCert>)> {
        (0..lanes)
            .map(|i| {
                let weak_cert = WeakKeyCert {
                    key: tiny_key(10 + i),
                    max_sig_expiry: scpu::Timestamp::from_millis(u64::from(i) * 100),
                    sig: sig(i),
                };
                let keys = DeviceKeys {
                    sign: tiny_key(20 + i),
                    delete: tiny_key(40 + i),
                    weak_cert: weak_cert.clone(),
                };
                (keys, vec![weak_cert])
            })
            .collect()
    }

    #[test]
    fn composite_head_response_roundtrips() {
        let heads = vec![
            strongworm::proofs::HeadCert {
                sn_current: SerialNumber(3),
                issued_at: scpu::Timestamp::from_millis(50),
                sig: sig(7),
            },
            strongworm::proofs::HeadCert {
                sn_current: SerialNumber(SerialNumber::lane_origin(1) + 2),
                issued_at: scpu::Timestamp::from_millis(50),
                sig: sig(8),
            },
        ];
        let composite = CompositeHead {
            binding: strongworm::CompositeBinding {
                shard_count: 2,
                root: strongworm::codec::composite_root(&heads),
                issued_at: scpu::Timestamp::from_millis(51),
                sig: sig(9),
            },
            heads,
        };
        let enc = encode_response(&NetResponse::CompositeHead(composite.clone()));
        match decode_plain(&enc).unwrap() {
            NetResponse::CompositeHead(got) => assert_eq!(got, composite),
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(decode_plain(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn shard_keys_response_roundtrips() {
        for lanes in [0u8, 1, 3] {
            let shards = sample_shard_keys(lanes);
            let enc = encode_response(&NetResponse::ShardKeys(shards.clone()));
            match decode_plain(&enc).unwrap() {
                NetResponse::ShardKeys(got) => {
                    assert_eq!(got.len(), shards.len());
                    for ((gk, gc), (wk, wc)) in got.iter().zip(shards.iter()) {
                        assert_eq!(gk.sign.fingerprint(), wk.sign.fingerprint());
                        assert_eq!(gk.delete.fingerprint(), wk.delete.fingerprint());
                        assert_eq!(gc, wc);
                    }
                }
                other => panic!("wrong variant: {other:?}"),
            }
            if lanes > 0 {
                assert!(decode_plain(&enc[..enc.len() - 1]).is_err());
            }
        }
    }

    #[test]
    fn hostile_shard_keys_count_is_bounded() {
        // A hostile shard count must not drive unbounded allocation.
        let mut w = WireWriter::tagged("wormnet.resp.v1");
        w.put_u8(8);
        w.put_u32(u32::MAX);
        assert!(decode_plain(&w.finish()).is_err());
        // Same for the nested weak-cert count.
        let (keys, _) = sample_shard_keys(1).pop().unwrap();
        let mut w = WireWriter::tagged("wormnet.resp.v1");
        w.put_u8(8);
        w.put_count(1);
        w.put_bytes(&encode_device_keys(&keys));
        w.put_u32(u32::MAX);
        assert!(decode_plain(&w.finish()).is_err());
    }

    #[test]
    fn audit_events_response_roundtrips() {
        let page = wormaudit::AuditPage {
            events: vec![wormaudit::AuditEvent {
                seq: 3,
                at_ms: 9_000,
                class: wormaudit::AuditClass::TamperDetected,
                sn: Some(8),
                detail: "hash mismatch".into(),
                prev_hash: [7; 32],
            }],
            anchors: vec![wormaudit::AuditAnchor {
                seq: 3,
                chain_hash: [9; 32],
                issued_at_ms: 9_100,
                key_id: [2; 8],
                sig: vec![5; 64],
            }],
        };
        let enc = encode_response(&NetResponse::AuditEvents(page.clone()));
        match decode_plain(&enc).unwrap() {
            NetResponse::AuditEvents(got) => assert_eq!(got, page),
            other => panic!("wrong variant: {other:?}"),
        }
        for cut in 0..enc.len() {
            assert!(decode_plain(&enc[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_audit_page_counts_are_bounded() {
        // A hostile event count inside the nested page must not drive
        // unbounded allocation; the nested codec's own cap rejects it
        // and the failure surfaces as this layer's wire error.
        let mut inner = strongworm::wire::WireWriter::tagged("wormaudit.events.v1");
        inner.put_u32(u32::MAX);
        let mut w = WireWriter::tagged("wormnet.resp.v1");
        w.put_u8(9);
        w.put_bytes(&inner.finish());
        assert!(decode_plain(&w.finish()).is_err());
    }

    #[test]
    fn error_response_roundtrips() {
        let enc = encode_response(&NetResponse::Error {
            code: CODE_BAD_REQUEST,
            message: "no".into(),
        });
        match decode_plain(&enc).unwrap() {
            NetResponse::Error { code, message } => {
                assert_eq!(code, CODE_BAD_REQUEST);
                assert_eq!(message, "no");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
