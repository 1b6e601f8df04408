//! Trusted time.
//!
//! The paper relies on the SCPU's "internal, accurate clocks protected by
//! their tamper-proof enclosure" (§2.2, note on timestamps) to timestamp
//! freshness constructs and drive the Retention Monitor. [`Clock`] is that
//! clock's interface; [`VirtualClock`] lets tests and benchmarks advance
//! simulated years instantly, and [`SystemClock`] uses wall time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point in trusted time, in milliseconds since an arbitrary epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// Timestamp from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_millis(self.0.saturating_sub(earlier.0))
    }

    /// This timestamp advanced by `d` (saturating).
    pub fn after(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.as_millis() as u64))
    }

    /// This timestamp moved back by `d` (saturating at the epoch).
    pub fn before(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.as_millis() as u64))
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

/// Source of trusted time for a device.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current trusted time.
    fn now(&self) -> Timestamp;
}

/// Simulated clock that tests and benchmarks advance explicitly.
///
/// Shared by `Arc`: the device holds one handle, the test harness another.
///
/// ```
/// use std::time::Duration;
/// use scpu::{Clock, VirtualClock};
///
/// let clock = VirtualClock::starting_at_millis(1_000);
/// clock.advance(Duration::from_secs(60));
/// assert_eq!(clock.now().as_millis(), 61_000);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    millis: AtomicU64,
}

impl VirtualClock {
    /// Clock starting at the epoch, wrapped for sharing.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Clock starting at an arbitrary offset, wrapped for sharing.
    pub fn starting_at_millis(ms: u64) -> Arc<Self> {
        Arc::new(VirtualClock {
            millis: AtomicU64::new(ms),
        })
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        let ms = d.as_millis() as u64;
        // ordering: single atomic cell; any cross-thread hand-off that makes an advance
        // observable (channel send, lock release) already orders it, so Relaxed suffices.
        self.millis.fetch_add(ms, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Timestamp {
        // ordering: a time read orders nothing else; coherence alone keeps it monotonic.
        Timestamp(self.millis.load(Ordering::Relaxed))
    }
}

/// Wall-clock time (process start = epoch).
#[derive(Debug)]
pub struct SystemClock {
    start: std::time::Instant,
}

impl SystemClock {
    /// New system clock anchored at construction time, wrapped for sharing.
    pub fn new() -> Arc<Self> {
        Arc::new(SystemClock {
            start: std::time::Instant::now(),
        })
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.start.elapsed().as_millis() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_millis(1000);
        assert_eq!(t.after(Duration::from_secs(2)).as_millis(), 3000);
        assert_eq!(t.before(Duration::from_millis(400)).as_millis(), 600);
        assert_eq!(t.before(Duration::from_secs(10)).as_millis(), 0);
        assert_eq!(
            t.after(Duration::from_secs(1)).since(t),
            Duration::from_secs(1)
        );
        assert_eq!(t.since(t.after(Duration::from_secs(1))), Duration::ZERO);
    }

    #[test]
    fn virtual_clock_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now().as_millis(), 0);
        c.advance(Duration::from_millis(250));
        c.advance(Duration::from_millis(750));
        assert_eq!(c.now().as_millis(), 1000);
    }

    #[test]
    fn system_clock_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_is_object_safe() {
        let c: Arc<dyn Clock> = VirtualClock::new();
        let _ = c.now();
    }
}
