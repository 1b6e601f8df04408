//! # wormtrace — observability for the Strong WORM stack
//!
//! The paper's argument is quantitative: reads are served "at full
//! throughput, with main CPU cycles only" while every regulated update
//! pays an SCPU round-trip (§4.1). This crate makes that split visible
//! at runtime without distorting it:
//!
//! * [`Counter`] / [`Gauge`] — single relaxed atomics.
//! * [`Histogram`] — fixed log2 buckets of atomics; recording is two
//!   relaxed RMWs, and [`HistogramSnapshot`]s merge associatively and
//!   commutatively without losing counts (so per-shard or per-node
//!   histograms aggregate exactly).
//! * [`OpStats`] — the unit every instrumented operation records into:
//!   an ok counter, an err counter, and a latency histogram, always
//!   updated together, so `ok + err == histogram count` is an invariant
//!   tests can assert under arbitrary concurrency.
//! * [`Registry`] — get-or-register named metrics behind a read-mostly
//!   lock, one per deployment: lane 0 owns it, and each further lane
//!   records into it through a [`Registry::prefixed`] handle. Subsystems
//!   resolve their handles **once** at construction; the hot path never
//!   touches the registry lock.
//! * [`Observed`] — the guard every instrumented operation runs under
//!   ([`Registry::observe`]): one measurement feeds the op's
//!   [`OpStats`] and, when a request trace is attached to the thread,
//!   its span.
//! * [`StatsSnapshot`] — a point-in-time, order-canonical copy of the
//!   whole registry, cheap to ship over a wire (the canonical byte
//!   codec lives with the other codecs in `strongworm::codec`).
//! * [`span`] — request-scoped causal span trees (trace id / span id /
//!   parent id) attached to the handling thread, plus the
//!   [`FlightRecorder`]: a bounded ring retaining the complete span
//!   tree of any request that errors or exceeds a configurable latency
//!   threshold.
//! * [`sync`] — the ranked, poison-tolerant `Mutex`/`RwLock` every
//!   serving crate locks with: the `Rank` enum is the workspace's one
//!   lock order, checked at each acquisition in debug builds, beside
//!   the `blocking` assert.
//!
//! ## Hot-path budget
//!
//! The read path is the product; instrumentation must not tax it. What
//! it costs is counted per guard and per request, not estimated:
//!
//! * One [`Observed`] guard: one relaxed load of the kill switch, one
//!   `Instant` pair, and three relaxed RMWs (histogram bucket, histogram
//!   sum, ok-or-err counter). With a trace attached the same pair also
//!   becomes the guard's span, a push into the thread's own buffer.
//! * One wire read on a server as booted runs under three timed steps —
//!   the `net.request` and `server.read` guards and the store's
//!   `store.read` span — so it costs three clock pairs plus the one read
//!   that starts the trace, six histogram/counter RMWs, one RMW minting
//!   the trace id of a request that did not bring one, and the flight
//!   recorder's one relaxed load when it declines the request. No
//!   allocation (pinned by `tests/read_alloc_budget.rs`), no lock, no
//!   reference count; see [`span`].
//!
//! When a [`Registry`] is disabled ([`Registry::set_enabled`]),
//! [`Registry::observe`] returns an inert guard, no trace is attached,
//! and the whole record path collapses to one relaxed load per guard;
//! the repository benchmark's `wire_read_hot` / `wire_read_hot_observed`
//! pair prices the difference end to end (`obs.effect_pct`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod metrics;
mod registry;
mod snapshot;
pub mod span;
pub mod sync;

pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, OpSnapshot, OpStats,
    NUM_BUCKETS,
};
pub use registry::{Observed, Registry};
pub use snapshot::StatsSnapshot;
pub use span::{
    CapturedTrace, FlightRecorder, Plane, SpanRecord, TraceContext, TraceTrigger,
    DEFAULT_FLIGHT_CAPACITY, MAX_SPANS_PER_TRACE,
};
