//! The bounded, hash-chained audit journal.

use std::collections::VecDeque;
use std::sync::Arc;

use wormtrace::sync::{Mutex, Rank};
use wormtrace::{Counter, Gauge, Registry};

use crate::codec::{event_hash, MAX_DETAIL_BYTES, MAX_PAGE_ANCHORS, MAX_PAGE_EVENTS};
use crate::event::{AuditAnchor, AuditClass, AuditEvent};

/// Default bounded journal capacity (events retained).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Default number of anchors retained.
pub const DEFAULT_ANCHOR_CAPACITY: usize = MAX_PAGE_ANCHORS;

/// A fetched window of the journal: events plus every retained anchor.
///
/// Cursors are derived from the events' own (chain-protected) sequence
/// numbers — the page deliberately carries no unauthenticated header
/// fields. An empty `events` list means the cursor is at (or past) the
/// chain tip.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditPage {
    /// Events in sequence order, starting at the requested cursor (or
    /// the oldest retained event, whichever is later).
    pub events: Vec<AuditEvent>,
    /// Every retained SCPU anchor, in ascending sequence order.
    pub anchors: Vec<AuditAnchor>,
}

impl AuditPage {
    /// The cursor to pass to the next fetch: one past the last event,
    /// or `None` when the page is empty.
    pub fn next_cursor(&self) -> Option<u64> {
        self.events.last().map(|e| e.seq + 1)
    }
}

/// The milliseconds clock an [`AuditLog`] stamps events with.
pub type ClockFn = dyn Fn() -> u64 + Send + Sync;

struct LogInner {
    events: VecDeque<AuditEvent>,
    anchors: VecDeque<AuditAnchor>,
    /// Sequence number the next event will take (= chain height).
    next_seq: u64,
    /// Chain hash of the most recent event (genesis zero before any).
    last_hash: [u8; 32],
    /// Sequence of the last anchored event, if any.
    last_anchor_seq: Option<u64>,
}

/// The bounded, thread-safe integrity journal the serving planes emit
/// into.
///
/// Emission appends a hash-chained [`AuditEvent`]; when full, the
/// oldest event is evicted (and counted) — the retained suffix still
/// chains, and the oldest retained event's `prev_hash` commits to the
/// evicted prefix. Counters (`audit.emitted`, `audit.dropped`,
/// `audit.anchored`) and the `audit.chain_height` gauge register on
/// the deployment's [`Registry`], so stats pollers see audit health
/// without the dedicated fetch opcode.
pub struct AuditLog {
    inner: Mutex<LogInner>,
    clock: Box<ClockFn>,
    capacity: usize,
    anchor_capacity: usize,
    emitted: Arc<Counter>,
    dropped: Arc<Counter>,
    anchored: Arc<Counter>,
    height: Arc<Gauge>,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("capacity", &self.capacity)
            .field("height", &self.height.get())
            .finish()
    }
}

impl AuditLog {
    /// A journal retaining at most `capacity` events (min 1), stamping
    /// times from `clock` and registering its `audit.*` instruments on
    /// `registry`.
    pub fn new(capacity: usize, registry: &Registry, clock: Box<ClockFn>) -> Self {
        AuditLog {
            inner: Mutex::new(
                Rank::Audit,
                LogInner {
                    events: VecDeque::new(),
                    anchors: VecDeque::new(),
                    next_seq: 0,
                    last_hash: [0u8; 32],
                    last_anchor_seq: None,
                },
            ),
            clock,
            capacity: capacity.max(1),
            anchor_capacity: DEFAULT_ANCHOR_CAPACITY,
            emitted: registry.counter("audit.emitted"),
            dropped: registry.counter("audit.dropped"),
            anchored: registry.counter("audit.anchored"),
            height: registry.gauge("audit.chain_height"),
        }
    }

    /// Appends one event to the chain. Nothing the host can set turns
    /// this off: an integrity record that could be silenced would be
    /// deniable evidence.
    pub fn emit(&self, class: AuditClass, sn: Option<u64>, detail: &str) {
        let at_ms = (self.clock)();
        let mut inner = self.inner.lock();
        let event = AuditEvent {
            seq: inner.next_seq,
            at_ms,
            class,
            sn,
            detail: bounded_detail(detail),
            prev_hash: inner.last_hash,
        };
        inner.last_hash = event_hash(&event);
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            self.dropped.add(1);
        }
        inner.events.push_back(event);
        self.emitted.add(1);
        self.height.set(inner.next_seq);
    }

    /// The chain tip to anchor — `(seq, chain_hash)` of the latest
    /// event — when it is not already covered by the newest anchor.
    /// `None` when the journal is empty or the tip is anchored.
    pub fn needs_anchor(&self) -> Option<(u64, [u8; 32])> {
        let inner = self.inner.lock();
        if inner.next_seq == 0 {
            return None;
        }
        let tip = inner.next_seq - 1;
        if inner.last_anchor_seq == Some(tip) {
            return None;
        }
        Some((tip, inner.last_hash))
    }

    /// Installs an SCPU-minted anchor over the chain tip returned by
    /// [`AuditLog::needs_anchor`]. Anchors are kept in a bounded list
    /// (oldest evicted first).
    pub fn install_anchor(&self, anchor: AuditAnchor) {
        let mut inner = self.inner.lock();
        inner.last_anchor_seq = Some(anchor.seq);
        if inner.anchors.len() == self.anchor_capacity {
            inner.anchors.pop_front();
        }
        inner.anchors.push_back(anchor);
        self.anchored.add(1);
    }

    /// Copies out the window starting at `from_seq` (clamped to the
    /// oldest retained event), at most `max` events (clamped to the
    /// wire page bound), plus every retained anchor.
    pub fn page(&self, from_seq: u64, max: usize) -> AuditPage {
        let max = max.clamp(1, MAX_PAGE_EVENTS);
        let inner = self.inner.lock();
        let events = inner
            .events
            .iter()
            .skip_while(|e| e.seq < from_seq)
            .take(max)
            .cloned()
            .collect();
        AuditPage {
            events,
            anchors: inner.anchors.iter().cloned().collect(),
        }
    }

    /// Sequence number the next event will take (= chain height).
    pub fn height(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Oldest retained sequence number, if any event is retained.
    pub fn first_retained_seq(&self) -> Option<u64> {
        self.inner.lock().events.front().map(|e| e.seq)
    }

    /// Sequence of the last anchored event, if any anchor exists.
    pub fn last_anchor_seq(&self) -> Option<u64> {
        self.inner.lock().last_anchor_seq
    }

    /// Flips one byte of a retained event's stored detail — an
    /// **adversarial test hook** modelling a host that rewrites its
    /// audit journal. Subsequent fetches serve the doctored event;
    /// [`crate::verify_chain`] must report the divergence. No-op when
    /// `seq` is not retained.
    #[doc(hidden)]
    pub fn tamper_event_for_test(&self, seq: u64) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.events.iter_mut().find(|e| e.seq == seq) {
            // Flip the low bit of the timestamp: a minimal, detail-free
            // mutation that must still break the chain.
            e.at_ms ^= 1;
        }
    }
}

/// Truncates `detail` to the wire bound at a character boundary.
fn bounded_detail(detail: &str) -> String {
    if detail.len() <= MAX_DETAIL_BYTES {
        return detail.to_owned();
    }
    let mut end = MAX_DETAIL_BYTES;
    while end > 0 && !detail.is_char_boundary(end) {
        end -= 1;
    }
    detail.get(..end).unwrap_or_default().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::event_hash;

    fn log(capacity: usize) -> AuditLog {
        let registry = Registry::new();
        AuditLog::new(capacity, &registry, Box::new(|| 1234))
    }

    fn counted_log(capacity: usize) -> (AuditLog, std::sync::Arc<Registry>) {
        let registry = std::sync::Arc::new(Registry::new());
        let log = AuditLog::new(capacity, &registry, Box::new(|| 1234));
        (log, registry)
    }

    #[test]
    fn chain_links_and_counters() {
        let (log, registry) = counted_log(16);
        log.emit(AuditClass::HeadRefresh, Some(1), "a");
        log.emit(AuditClass::ShredComplete, None, "b");
        log.emit(AuditClass::VerifyFailure, Some(9), "c");
        let page = log.page(0, 100);
        assert_eq!(page.events.len(), 3);
        assert_eq!(page.events[0].prev_hash, [0u8; 32]);
        assert_eq!(page.events[1].prev_hash, event_hash(&page.events[0]));
        assert_eq!(page.events[2].prev_hash, event_hash(&page.events[1]));
        assert_eq!(page.next_cursor(), Some(3));
        assert_eq!(log.height(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("audit.emitted"), 3);
        assert_eq!(snap.counter("audit.dropped"), 0);
        assert_eq!(snap.gauge("audit.chain_height"), Some(3));
    }

    #[test]
    fn eviction_keeps_suffix_chained() {
        let (log, registry) = counted_log(4);
        for i in 0..10 {
            log.emit(AuditClass::HeadRemint, Some(i), "x");
        }
        assert_eq!(log.first_retained_seq(), Some(6));
        let page = log.page(0, 100);
        assert_eq!(page.events.len(), 4);
        for pair in page.events.windows(2) {
            assert_eq!(pair[1].prev_hash, event_hash(&pair[0]));
        }
        assert_eq!(registry.snapshot().counter("audit.dropped"), 6);
    }

    #[test]
    fn pagination_cursor_walks_the_chain() {
        let log = log(64);
        for i in 0..7 {
            log.emit(AuditClass::AdmissionShed, None, &format!("{i}"));
        }
        let mut cursor = 0;
        let mut seen = Vec::new();
        loop {
            let page = log.page(cursor, 3);
            let Some(next) = page.next_cursor() else {
                break;
            };
            seen.extend(page.events.iter().map(|e| e.seq));
            cursor = next;
        }
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn anchor_lifecycle() {
        let log = log(16);
        assert!(log.needs_anchor().is_none());
        log.emit(AuditClass::TamperDetected, Some(3), "bad hash");
        let (seq, hash) = log.needs_anchor().unwrap();
        assert_eq!(seq, 0);
        let tip = log.page(0, 10).events.pop().unwrap();
        assert_eq!(hash, event_hash(&tip));
        log.install_anchor(AuditAnchor {
            seq,
            chain_hash: hash,
            issued_at_ms: 1,
            key_id: [0; 8],
            sig: vec![1],
        });
        assert!(log.needs_anchor().is_none());
        assert_eq!(log.last_anchor_seq(), Some(0));
        log.emit(AuditClass::HeadRefresh, None, "");
        assert_eq!(log.needs_anchor().unwrap().0, 1);
    }

    #[test]
    fn detail_is_bounded_at_char_boundaries() {
        let log = log(4);
        let long = "é".repeat(MAX_DETAIL_BYTES); // 2 bytes per char
        log.emit(AuditClass::VerifyFailure, None, &long);
        let page = log.page(0, 1);
        let detail = &page.events[0].detail;
        assert!(detail.len() <= MAX_DETAIL_BYTES);
        assert!(detail.chars().all(|c| c == 'é'));
    }

    #[test]
    fn tamper_hook_changes_served_bytes() {
        let log = log(8);
        log.emit(AuditClass::HeadRefresh, None, "a");
        log.emit(AuditClass::HeadRefresh, None, "b");
        let before = log.page(0, 10);
        log.tamper_event_for_test(0);
        let after = log.page(0, 10);
        assert_ne!(before.events[0], after.events[0]);
        // The chain no longer links: event 1's prev_hash was computed
        // over the untampered event 0.
        assert_ne!(after.events[1].prev_hash, event_hash(&after.events[0]));
    }
}
