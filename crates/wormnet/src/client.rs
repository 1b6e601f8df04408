//! Remote client: speaks the framed protocol and verifies everything.
//!
//! [`RemoteWormClient`] is a thin transport; the security argument
//! lives in [`strongworm::Verifier`], which this client composes with
//! so every remote read is checked end-to-end. A man-in-the-middle (or
//! the server itself) altering a response in flight surfaces as a
//! [`strongworm::VerifyError`], never as silently wrong data.

use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use scpu::Clock;
use strongworm::authority::{HoldCredential, ReleaseCredential};
use strongworm::firmware::{DeviceKeys, WeakKeyCert};
use strongworm::{
    CompositeHead, ReadOutcome, ReadVerdict, RetentionPolicy, SerialNumber, Verifier, WitnessMode,
};

use crate::frame::{put_frame, FrameReader, DEFAULT_MAX_FRAME};
use crate::protocol::{decode_response_shared, put_request, NetRequest, NetResponse};
use crate::NetError;

/// A connected client session over one TCP stream.
///
/// Not `Sync`: one session serves one caller at a time. The default
/// methods are strictly request/response; [`RemoteWormClient::pipeline`]
/// opens a windowed mode that keeps several requests in flight on the
/// same connection (the server guarantees responses in request order).
/// Open one client per thread for concurrent load — sessions are
/// independent.
pub struct RemoteWormClient {
    stream: TcpStream,
    /// Read half (a cloned handle of the same socket) and the one
    /// receive buffer: a pipelined window of responses arrives in one
    /// `read(2)`, and each response is handed to the decoder as a view
    /// of that buffer — the one client copy is socket → buffer. A
    /// decoded record is a view too, so one the caller keeps holds on to
    /// the buffer it arrived in, and the next read takes a fresh one.
    reader: FrameReader<TcpStream>,
    /// Requests written in place and not yet sent: a strict call's one
    /// frame, or a pipeline's queue. Reused, so a request allocates
    /// nothing once it has grown.
    outbuf: Vec<u8>,
    max_frame: u32,
    /// When set, every request is wrapped in a trace-context envelope
    /// (opcode 9) carrying a fresh client-minted trace id, so the
    /// server's span tree for the request is findable by that id.
    tracing: bool,
    last_trace_id: Option<u64>,
    /// Set when the stream may hold a reply nobody will match up — a
    /// [`Pipeline`] dropped with responses in flight, or a request that
    /// failed after it may have reached the wire — so every subsequent
    /// call would read the wrong frame.
    desynced: bool,
}

impl RemoteWormClient {
    /// Connects with default timeouts (10 s read/write) and frame cap.
    ///
    /// # Errors
    ///
    /// Socket errors connecting or configuring the stream.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        Self::connect_with(addr, Duration::from_secs(10), DEFAULT_MAX_FRAME)
    }

    /// Connects with explicit socket timeout and frame cap.
    ///
    /// # Errors
    ///
    /// Socket errors connecting or configuring the stream.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
        max_frame: u32,
    ) -> Result<Self, NetError> {
        wormtrace::sync::blocking("connecting to a server");
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = FrameReader::new(stream.try_clone()?, max_frame);
        Ok(RemoteWormClient {
            stream,
            reader,
            outbuf: Vec::new(),
            max_frame,
            tracing: false,
            last_trace_id: None,
            desynced: false,
        })
    }

    /// Enables (or disables) wire-propagated trace context. While on,
    /// each request carries a fresh trace id, retrievable afterwards
    /// via [`RemoteWormClient::last_trace_id`] to correlate with traces
    /// captured by the server's flight recorder.
    ///
    /// Requires a server that understands the opcode-9 envelope (this
    /// repo's `NetServer`); older servers reject enveloped requests as
    /// bad requests without dropping the connection.
    pub fn set_request_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The trace id sent with the most recent enveloped request, if
    /// any. `None` until a request is sent with tracing enabled.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.last_trace_id
    }

    /// Writes `req` in place at the end of the output buffer as one
    /// frame, minting and recording a trace envelope when tracing is on.
    /// Shared by the call path and [`Pipeline`].
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] for a request over the frame cap; the
    /// buffer is then as it was.
    fn queue(&mut self, req: &NetRequest) -> Result<(), NetError> {
        let ctx = self.tracing.then(|| wormtrace::TraceContext {
            trace_id: wormtrace::span::fresh_trace_id(),
            parent_span: 0,
        });
        if let Some(ctx) = ctx {
            self.last_trace_id = Some(ctx.trace_id);
        }
        put_frame(&mut self.outbuf, self.max_frame, |w| {
            put_request(w, req, ctx);
        })
    }

    /// Writes every queued frame in one call and empties the queue. A
    /// write that fails may have sent part of a frame, so it leaves the
    /// session out of step.
    fn send_queued(&mut self) -> Result<(), NetError> {
        if self.outbuf.is_empty() {
            return Ok(());
        }
        wormtrace::sync::blocking("sending requests");
        let sent = self.stream.write_all(&self.outbuf);
        self.outbuf.clear();
        self.desynced |= sent.is_err();
        Ok(sent?)
    }

    /// Fails fast on a session whose stream may hold a reply nobody
    /// will match up (see `desynced`).
    fn check_sync(&self) -> Result<(), NetError> {
        if self.desynced {
            return Err(NetError::Protocol(
                "a request failed or was abandoned with its response due; reconnect",
            ));
        }
        Ok(())
    }

    fn call(&mut self, req: &NetRequest) -> Result<NetResponse, NetError> {
        self.check_sync()?;
        self.queue(req)?;
        if let Err(e) = self.send_queued() {
            // A write that dies on a broken connection may be racing a
            // courtesy error frame the server sent before closing (load
            // shed at admission sends CODE_BUSY, then hangs up). Drain
            // it so the caller sees *why* the server hung up instead of
            // a bare EPIPE; if there is nothing to read, surface the
            // original write error.
            if let Ok(Some(payload)) = self.reader.next_frame() {
                if let Ok(NetResponse::Error { code, message }) = decode_response_shared(&payload) {
                    return Err(NetError::Remote { code, message });
                }
            }
            return Err(e);
        }
        let payload = self
            .reader
            .next_frame()
            .and_then(|frame| frame.ok_or(NetError::Truncated));
        // A call that gives up on its response (a timeout, a truncated
        // or over-cap frame) leaves the rest of it on the wire. A whole
        // frame that fails to decode leaves the stream in step.
        self.desynced |= payload.is_err();
        let resp = decode_response_shared(&payload?)?;
        if let NetResponse::Error { code, message } = resp {
            return Err(NetError::Remote { code, message });
        }
        Ok(resp)
    }

    /// Opens a pipelined batch session over this connection: up to
    /// `depth` requests stay in flight before the oldest response is
    /// collected, amortizing the round trip the strict call path pays
    /// per request. The server answers in request order, so
    /// [`Pipeline::send`] / [`Pipeline::recv`] pair responses to
    /// requests by position alone.
    ///
    /// Unlike the typed convenience methods, the pipeline returns raw
    /// [`NetResponse`] values — including `Error` responses, which are
    /// *not* turned into `Err` — because a batch may mix request kinds.
    /// Callers match and verify each response themselves.
    ///
    /// Dropping a `Pipeline` with responses still in flight poisons the
    /// session (subsequent calls fail with a protocol error) — the
    /// stream would otherwise hand old responses to new requests. Call
    /// [`Pipeline::finish`] to drain cleanly.
    pub fn pipeline(&mut self, depth: usize) -> Pipeline<'_> {
        Pipeline {
            depth: depth.max(1),
            in_flight: 0,
            client: self,
        }
    }

    /// Commits a virtual record with the server's default witness tier
    /// semantics ([`WitnessMode::Strong`]).
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn write(
        &mut self,
        records: &[&[u8]],
        policy: RetentionPolicy,
    ) -> Result<SerialNumber, NetError> {
        self.write_with(records, policy, 0, WitnessMode::Strong)
    }

    /// Commits a virtual record with explicit flags and witness tier.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn write_with(
        &mut self,
        records: &[&[u8]],
        policy: RetentionPolicy,
        flags: u32,
        witness: WitnessMode,
    ) -> Result<SerialNumber, NetError> {
        let records = records
            .iter()
            .map(|r| bytes::Bytes::from(r.to_vec()))
            .collect();
        match self.call(&NetRequest::Write {
            records,
            policy,
            flags,
            witness,
        })? {
            NetResponse::Written { sn } => Ok(sn),
            _ => Err(NetError::Protocol("expected Written response")),
        }
    }

    /// Reads a record *without* verifying the outcome. Prefer
    /// [`RemoteWormClient::read_verified`]; this exists for callers
    /// that verify in a separate step (or deliberately test tampering).
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn read_raw(&mut self, sn: SerialNumber) -> Result<ReadOutcome, NetError> {
        match self.call(&NetRequest::Read { sn })? {
            NetResponse::Outcome(outcome) => Ok(outcome),
            _ => Err(NetError::Protocol("expected Outcome response")),
        }
    }

    /// Reads a record and verifies the outcome end-to-end, under the
    /// keys of the lane `sn` names: signatures, data hash, freshness,
    /// deletion evidence. Any in-flight or server-side tampering fails
    /// here as [`NetError::Verify`].
    ///
    /// # Errors
    ///
    /// Transport failures, a server-reported error, or verification
    /// failure.
    pub fn read_verified(
        &mut self,
        sn: SerialNumber,
        verifier: &Verifier,
    ) -> Result<(ReadVerdict, ReadOutcome), NetError> {
        let outcome = self.read_raw(sn)?;
        let verdict = verifier.verify_read(sn, &outcome)?;
        Ok((verdict, outcome))
    }

    /// Drives retention maintenance for `sn` and returns the re-read
    /// outcome. WORM semantics: only a record past its retention
    /// deadline (and free of holds) is actually deleted; verify the
    /// returned outcome to learn — with proof — which state holds.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn delete(&mut self, sn: SerialNumber) -> Result<ReadOutcome, NetError> {
        match self.call(&NetRequest::Delete { sn })? {
            NetResponse::Outcome(outcome) => Ok(outcome),
            _ => Err(NetError::Protocol("expected Outcome response")),
        }
    }

    /// Places a litigation hold.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error (e.g. a bad
    /// credential signature).
    pub fn lit_hold(&mut self, credential: HoldCredential) -> Result<(), NetError> {
        match self.call(&NetRequest::LitHold(credential))? {
            NetResponse::Ack => Ok(()),
            _ => Err(NetError::Protocol("expected Ack response")),
        }
    }

    /// Releases a litigation hold.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn lit_release(&mut self, credential: ReleaseCredential) -> Result<(), NetError> {
        match self.call(&NetRequest::LitRelease(credential))? {
            NetResponse::Ack => Ok(()),
            _ => Err(NetError::Protocol("expected Ack response")),
        }
    }

    /// Drives due device alarms (Retention Monitor, head heartbeat).
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn tick(&mut self) -> Result<(), NetError> {
        match self.call(&NetRequest::Tick)? {
            NetResponse::Ack => Ok(()),
            _ => Err(NetError::Protocol("expected Ack response")),
        }
    }

    /// Polls the server's observability snapshot: every registered
    /// counter, gauge, and per-op latency histogram, frozen at one
    /// instant. Stats are diagnostic only — nothing in the snapshot is
    /// signed, so it is *not* compliance evidence; use verified reads
    /// for that.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn stats(&mut self) -> Result<wormtrace::StatsSnapshot, NetError> {
        match self.call(&NetRequest::Stats)? {
            NetResponse::Stats(snapshot) => Ok(snapshot),
            _ => Err(NetError::Protocol("expected Stats response")),
        }
    }

    /// Fetches the server's flight recorder contents: the span trees of
    /// recent requests that errored or exceeded the slow threshold,
    /// newest last. Like stats, traces are diagnostic only.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn traces(&mut self) -> Result<Vec<wormtrace::CapturedTrace>, NetError> {
        match self.call(&NetRequest::Traces)? {
            NetResponse::Traces(traces) => Ok(traces),
            _ => Err(NetError::Protocol("expected Traces response")),
        }
    }

    /// Fetches every lane's permanent keys and the live weak-key
    /// certificates its SCPU answers now, in lane order (lane 0 first).
    /// The bytes are untrusted until validated against CA-issued
    /// certificates (see [`strongworm::Verifier::from_certificates`]); a
    /// client refreshes the certificates by fetching again and
    /// registering each with [`Verifier::add_weak_cert`].
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn fetch_shard_keys(&mut self) -> Result<Vec<(DeviceKeys, Vec<WeakKeyCert>)>, NetError> {
        match self.call(&NetRequest::GetShardKeys)? {
            NetResponse::ShardKeys(shards) => Ok(shards),
            _ => Err(NetError::Protocol("expected ShardKeys response")),
        }
    }

    /// Fetches every lane's keys and builds a [`Verifier`] over them,
    /// registering every live weak-key certificate with its lane.
    ///
    /// Convenience for tests and trusted-bootstrap deployments; when
    /// the server is not trusted to introduce its own keys, fetch the
    /// CA certificates out of band and use
    /// [`Verifier::from_certificates`] instead.
    ///
    /// # Errors
    ///
    /// Transport failures, a server-reported error, or an internally
    /// inconsistent key bundle.
    pub fn bootstrap_verifier(
        &mut self,
        tolerance: Duration,
        clock: Arc<dyn Clock>,
    ) -> Result<Verifier, NetError> {
        let lanes = self.fetch_shard_keys()?;
        let ((lane0, _), rest) = lanes
            .split_first()
            .ok_or(NetError::Protocol("the server published no lanes"))?;
        let mut verifier = Verifier::new(lane0, tolerance, clock)?;
        for (keys, _) in rest {
            verifier.add_lane(keys);
        }
        for cert in lanes.into_iter().flat_map(|(_, certs)| certs) {
            verifier.add_weak_cert(cert)?;
        }
        Ok(verifier)
    }

    /// Fetches one page of the server's tamper-evident audit journal:
    /// events with `seq >= from_seq` (at most `max_events`, further
    /// clamped by the server's page cap) plus the SCPU anchors covering
    /// the window. Paginate by resuming from `last.seq + 1`.
    ///
    /// The page is *untrusted as returned* — replay it through
    /// [`wormaudit::verify_chain`] against independently validated
    /// device keys before believing any of it. A host that edits,
    /// drops, or reorders events breaks the hash chain or the anchor
    /// signatures, and the replay reports the first divergence.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn audit_events(
        &mut self,
        from_seq: u64,
        max_events: u32,
    ) -> Result<wormaudit::AuditPage, NetError> {
        match self.call(&NetRequest::FetchAuditEvents {
            from_seq,
            max_events,
        })? {
            NetResponse::AuditEvents(page) => Ok(page),
            _ => Err(NetError::Protocol("expected AuditEvents response")),
        }
    }

    /// Fetches the deployment's composite freshness head *without*
    /// verifying it. Prefer
    /// [`RemoteWormClient::composite_head_verified`]; this exists for
    /// callers that verify separately (or deliberately test tampering).
    ///
    /// # Errors
    ///
    /// Transport failures or a server-reported error.
    pub fn composite_head_raw(&mut self) -> Result<CompositeHead, NetError> {
        match self.call(&NetRequest::GetCompositeHead)? {
            NetResponse::CompositeHead(composite) => Ok(composite),
            _ => Err(NetError::Protocol("expected CompositeHead response")),
        }
    }

    /// Fetches the composite freshness head and verifies it end-to-end:
    /// the coordinator's binding signature, the folded root, shard
    /// count, freshness, and every per-shard head certificate. A host
    /// hiding a shard, splicing heads from different instants, or
    /// doctoring the root fails here as [`NetError::Verify`] — the
    /// connection itself stays usable.
    ///
    /// # Errors
    ///
    /// Transport failures, a server-reported error, or verification
    /// failure.
    pub fn composite_head_verified(
        &mut self,
        verifier: &Verifier,
    ) -> Result<CompositeHead, NetError> {
        let composite = self.composite_head_raw()?;
        verifier.verify_composite(&composite)?;
        Ok(composite)
    }
}

/// A windowed, pipelined request batch over a [`RemoteWormClient`],
/// created by [`RemoteWormClient::pipeline`].
///
/// Frames queue locally and flush in coalesced writes; the server
/// answers in request order, so responses pair with requests by
/// position. The strict call path pays a full round trip per request;
/// a pipeline at depth *d* keeps *d* requests in flight and pays one
/// round trip per *window*.
pub struct Pipeline<'c> {
    depth: usize,
    in_flight: usize,
    client: &'c mut RemoteWormClient,
}

impl Pipeline<'_> {
    /// Queues one request. While fewer than `depth` requests are in
    /// flight this is purely local and returns `Ok(None)`; once the
    /// window is full, queued frames flush and the *oldest* in-flight
    /// response is collected and returned, keeping the window exactly
    /// `depth` deep.
    ///
    /// Server `Error` responses come back as `Ok(Some(Error { .. }))`,
    /// not `Err` — a batch may mix requests, and one request's failure
    /// does not disturb its neighbours.
    ///
    /// # Errors
    ///
    /// Transport failures, an over-cap request frame (the request is
    /// not queued), or an undecodable response.
    pub fn send(&mut self, req: &NetRequest) -> Result<Option<NetResponse>, NetError> {
        self.client.check_sync()?;
        self.client.queue(req)?;
        self.in_flight += 1;
        if self.in_flight <= self.depth {
            return Ok(None);
        }
        wormtrace::sync::blocking("collecting a pipelined response");
        self.recv()
    }

    /// Requests sent (or queued) whose responses are not yet collected.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Toggles wire trace-context envelopes for frames sent *after*
    /// this call. Each frame is encoded at send time, so a batch may
    /// interleave traced and untraced frames freely.
    pub fn set_request_tracing(&mut self, on: bool) {
        self.client.tracing = on;
    }

    /// The trace id minted for the most recent enveloped frame (see
    /// [`RemoteWormClient::last_trace_id`]).
    pub fn last_trace_id(&self) -> Option<u64> {
        self.client.last_trace_id
    }

    /// Pushes every queued frame to the socket in one coalesced write,
    /// without waiting for any response.
    ///
    /// # Errors
    ///
    /// Transport failures. A failed write may have sent part of a frame,
    /// so it poisons the session (see [`RemoteWormClient::pipeline`]).
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.client.send_queued()
    }

    /// Collects the oldest in-flight response, flushing queued frames
    /// first. `Ok(None)` when nothing is in flight. The response's
    /// records are views of the client's receive buffer.
    ///
    /// # Errors
    ///
    /// Transport failures or an undecodable response. After a read
    /// timeout the response is still due and the bytes received so far
    /// stay buffered: calling `recv` again resumes.
    pub fn recv(&mut self) -> Result<Option<NetResponse>, NetError> {
        if self.in_flight == 0 {
            return Ok(None);
        }
        self.client.check_sync()?;
        self.flush()?;
        let payload = self
            .client
            .reader
            .next_frame()?
            .ok_or(NetError::Truncated)?;
        // The frame is consumed whether or not it decodes: the window
        // position is spent either way.
        self.in_flight -= 1;
        Ok(Some(decode_response_shared(&payload)?))
    }

    /// Drains every outstanding response, in request order, and closes
    /// the batch cleanly.
    ///
    /// # Errors
    ///
    /// Transport failures or an undecodable response. The batch is
    /// dropped mid-drain in that case, poisoning the session (see
    /// [`RemoteWormClient::pipeline`]).
    pub fn finish(mut self) -> Result<Vec<NetResponse>, NetError> {
        let mut responses = Vec::with_capacity(self.in_flight);
        wormtrace::sync::blocking("draining a pipeline");
        while let Some(resp) = self.recv()? {
            responses.push(resp);
        }
        Ok(responses)
    }
}

impl Drop for Pipeline<'_> {
    fn drop(&mut self) {
        if self.in_flight > 0 {
            self.client.desynced = true;
        }
    }
}
