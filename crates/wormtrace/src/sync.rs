//! Poison-tolerant accessors for std locks (this crate's, and the
//! audit journal's in `wormaudit`).
//!
//! Observability must not take the server down: if some thread panics
//! while holding a metrics lock, the panic already records the failure
//! — propagating the poison into every later `snapshot()` or `emit()`
//! would turn one broken request into a dead stats plane. Every
//! structure guarded here (registry maps, span lists, the audit
//! journal) is valid after any prefix of its critical section — the
//! worst a recovered guard can observe is a lost single update — so
//! entering through the poison is strictly better than panicking again.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, entering through a poisoned guard rather than panicking.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, entering through a poisoned guard rather than
/// panicking.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, entering through a poisoned guard rather than
/// panicking.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn poisoned_locks_still_open() {
        let m = Arc::new(Mutex::new(1u32));
        let r = Arc::new(RwLock::new(2u32));
        let (mc, rc) = (Arc::clone(&m), Arc::clone(&r));
        let _ = std::thread::spawn(move || {
            let _g1 = mc.lock().unwrap();
            let _g2 = rc.write().unwrap();
            panic!("poison both");
        })
        .join();
        assert!(m.is_poisoned() && r.is_poisoned());
        assert_eq!(*lock(&m), 1);
        assert_eq!(*read(&r), 2);
        *write(&r) += 1;
        assert_eq!(*read(&r), 3);
    }
}
