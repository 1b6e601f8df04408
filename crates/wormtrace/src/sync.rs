//! Ranked, poison-tolerant locks — every lock in the serving crates —
//! and the assert that goes with a blocking call.
//!
//! **One order.** Each lock is built with a [`Rank`], and the enum's
//! declaration order is the workspace's one acquisition order: a thread
//! may take a lock only at a rank above every rank it already holds. In
//! debug builds each thread keeps the set of ranks it holds, and taking
//! a lock at a rank equal to or below a held one panics — before it
//! waits, naming both locks — so an inversion that would deadlock under
//! load fails the first test that executes it, through closures and
//! trait objects alike. Release builds keep no per-thread state: a
//! guard is the std guard in a wrapper.
//!
//! **Poison.** A lock whose holder panicked opens anyway. If some
//! thread panics while holding a lock, the panic already records the
//! failure — propagating the poison into every later `snapshot()`,
//! `emit()` or read would turn one broken request into a dead server.
//! Every structure guarded here is valid after any prefix of its
//! critical section — the worst a recovered guard can observe is a lost
//! single update — so entering through the poison is strictly better
//! than panicking again.
//!
//! **Blocking.** [`blocking`] marks a call that can wait unboundedly (a
//! sleep, a join, socket I/O). In debug builds it panics when the
//! thread holds a ranked guard — everyone queued on that lock would
//! wait too — or is a reactor worker ([`mark_reactor`]), where one
//! wait stalls every connection the worker serves.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self as std_sync, PoisonError};

/// A lock's place in the one acquisition order; declaration order is
/// the order. Locks of one rank never nest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `ShardedWormServer`'s cached composite head; minting it reads
    /// every lane's head and signs on lane 0.
    Composite,
    /// A lane's witness plane, which owns its SCPU.
    Witness,
    /// A lane's VRDT, shared by its read and witness planes.
    Vrdt,
    /// `RecordStore`'s extent allocator.
    Alloc,
    /// `MemDisk`'s medium.
    Data,
    /// The audit journal.
    Audit,
    /// `Registry`'s op table.
    RegistryOps,
    /// `Registry`'s counter table.
    RegistryCounters,
    /// `Registry`'s gauge table.
    RegistryGauges,
    /// The flight recorder's ring.
    Flight,
    /// The retention daemon's last-error slot.
    DaemonStatus,
}

/// What the calling thread holds and is, tracked in debug builds only.
#[cfg(debug_assertions)]
mod check {
    use std::cell::{Cell, RefCell};

    use super::Rank;

    thread_local! {
        /// The ranks this thread holds, in acquisition order.
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
        static REACTOR: Cell<bool> = const { Cell::new(false) };
    }

    /// The highest rank this thread holds.
    fn top() -> Option<Rank> {
        HELD.with(|h| h.borrow().iter().copied().max())
    }

    #[expect(
        clippy::panic,
        reason = "the check itself, debug builds only: an inversion must fail the test that reaches it, before it can deadlock"
    )]
    pub(super) fn acquire(rank: Rank) {
        // A lock taken while unwinding (a `Drop` that locks) must not
        // panic again: that would abort the process.
        if let Some(top) = top().filter(|&top| top >= rank) {
            if !std::thread::panicking() {
                panic!(
                    "lock order violated: taking {rank:?} while holding {top:?} \
                     (ranks must strictly increase; see wormtrace::sync::Rank)"
                );
            }
        }
        HELD.with(|h| h.borrow_mut().push(rank));
    }

    pub(super) fn release(rank: Rank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(i) = held.iter().rposition(|&r| r == rank) {
                held.remove(i);
            }
        });
    }

    pub(super) fn held() -> Vec<Rank> {
        let mut held = HELD.with(|h| h.borrow().clone());
        held.sort_unstable();
        held
    }

    #[expect(clippy::panic, reason = "the assert itself, debug builds only")]
    pub(super) fn blocking(what: &str) {
        if let Some(top) = top() {
            panic!("blocking {what} while holding {top:?}");
        }
        if REACTOR.with(Cell::get) {
            panic!("blocking {what} on a reactor worker thread");
        }
    }

    pub(super) fn mark_reactor() {
        REACTOR.with(|r| r.set(true));
    }
}

/// One rank this thread holds, released when dropped; zero-sized in
/// release builds.
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl Held {
    fn acquire(rank: Rank) -> Held {
        #[cfg(debug_assertions)]
        {
            check::acquire(rank);
            Held { rank }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = rank;
            Held {}
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        check::release(self.rank);
    }
}

/// The ranks this thread holds, lowest first; always empty in release
/// builds.
pub fn held() -> Vec<Rank> {
    #[cfg(debug_assertions)]
    {
        check::held()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Declares that the caller is about to block on `what`. In debug
/// builds, panics if this thread holds a ranked guard or is a reactor
/// worker; in release builds, does nothing.
#[inline]
pub fn blocking(what: &str) {
    #[cfg(debug_assertions)]
    check::blocking(what);
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// Marks the calling thread as a reactor worker, on which [`blocking`]
/// panics (debug builds only).
#[inline]
pub fn mark_reactor() {
    #[cfg(debug_assertions)]
    check::mark_reactor();
}

/// A mutual-exclusion lock at a [`Rank`], poison-tolerant.
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    inner: std_sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A lock at `rank` protecting `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex {
            rank,
            inner: std_sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is free; in debug builds,
    /// first checks this lock's rank against the ones this thread holds.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::acquire(self.rank);
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std_sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock at a [`Rank`], poison-tolerant. A thread takes
/// it once: a second read guard on the same thread is a re-entry like
/// any other, since a queued writer would deadlock the two.
pub struct RwLock<T: ?Sized> {
    rank: Rank,
    inner: std_sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A lock at `rank` protecting `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RwLock {
            rank,
            inner: std_sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access (rank-checked like [`Mutex::lock`]).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = Held::acquire(self.rank);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// Acquires exclusive write access (rank-checked like
    /// [`Mutex::lock`]).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = Held::acquire(self.rank);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std_sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std_sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The panic message of `f`, which must panic.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn poisoned_locks_still_open() {
        let m = Arc::new(Mutex::new(Rank::Witness, 1u32));
        let r = Arc::new(RwLock::new(Rank::Vrdt, 2u32));
        let (mc, rc) = (Arc::clone(&m), Arc::clone(&r));
        let _ = std::thread::spawn(move || {
            let _g1 = mc.lock();
            let _g2 = rc.write();
            panic!("poison both");
        })
        .join();
        assert!(m.inner.is_poisoned() && r.inner.is_poisoned());
        assert_eq!(*m.lock(), 1);
        assert_eq!(*r.read(), 2);
        *r.write() += 1;
        assert_eq!(*r.read(), 3);
    }

    #[test]
    fn ranks_taken_in_order_open() {
        let composite = RwLock::new(Rank::Composite, ());
        let witness = Mutex::new(Rank::Witness, ());
        let vrdt = RwLock::new(Rank::Vrdt, ());
        let _c = composite.write();
        let _w = witness.lock();
        let _v = vrdt.read();
        if cfg!(debug_assertions) {
            assert_eq!(held(), [Rank::Composite, Rank::Witness, Rank::Vrdt]);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn an_inversion_panics_and_names_both_locks() {
        let message = panic_message(|| {
            let witness = Mutex::new(Rank::Witness, ());
            let vrdt = RwLock::new(Rank::Vrdt, ());
            let _v = vrdt.read();
            let _w = witness.lock();
        });
        assert!(
            message.contains("taking Witness while holding Vrdt"),
            "{message}"
        );
        // The panic unwound both guards' bookkeeping with it.
        assert!(held().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn re_entering_a_rank_panics() {
        let message = panic_message(|| {
            let lane0 = Mutex::new(Rank::Witness, ());
            let lane1 = Mutex::new(Rank::Witness, ());
            let _a = lane0.lock();
            let _b = lane1.lock();
        });
        assert!(
            message.contains("taking Witness while holding Witness"),
            "{message}"
        );
        let message = panic_message(|| {
            let vrdt = RwLock::new(Rank::Vrdt, ());
            let _a = vrdt.read();
            let _b = vrdt.read();
        });
        assert!(
            message.contains("taking Vrdt while holding Vrdt"),
            "{message}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guards_dropped_out_of_order_leave_the_stack_consistent() {
        let witness = Mutex::new(Rank::Witness, ());
        let vrdt = RwLock::new(Rank::Vrdt, ());
        let audit = Mutex::new(Rank::Audit, ());
        let w = witness.lock();
        let v = vrdt.write();
        drop(w);
        assert_eq!(held(), [Rank::Vrdt]);
        let a = audit.lock();
        drop(v);
        assert_eq!(held(), [Rank::Audit]);
        drop(a);
        assert!(held().is_empty());
        // Everything opens again, in order, from the top.
        let _w = witness.lock();
        let _v = vrdt.read();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn blocking_panics_under_a_guard_and_on_a_reactor_thread() {
        blocking("a quiet join");
        let message = panic_message(|| {
            let audit = Mutex::new(Rank::Audit, ());
            let _a = audit.lock();
            blocking("sleep");
        });
        assert!(
            message.contains("blocking sleep while holding Audit"),
            "{message}"
        );
        let reactor = std::thread::spawn(|| {
            mark_reactor();
            panic_message(|| blocking("write_frame"))
        });
        let message = reactor.join().expect("the reactor thread returns");
        assert!(message.contains("on a reactor worker thread"), "{message}");
        // The mark stays on the thread that set it.
        blocking("a join on the test thread");
    }
}
