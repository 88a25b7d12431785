//! Poison-tolerant lock acquisition — the serving crate's one
//! documented answer to `Mutex`/`RwLock` poisoning.
//!
//! # Poisoning policy
//!
//! Every lock in this crate guards state whose invariants hold at each
//! statement boundary: counter bumps, map inserts/removals, and
//! whole-value swaps, never multi-step constructions that a panic
//! could leave half-done. Query execution — the only code that runs
//! arbitrary per-algorithm logic — happens on the caller's thread inside
//! a search slot, where [`crate::gate`] wraps the search in
//! `catch_unwind` and the caller holds no service lock while it runs, so
//! a panicking query cannot poison shared state in the first place. The
//! one lock held while an algorithm runs is a session's stream slot:
//! [`crate::session`] pulls under `catch_unwind` with the stream taken
//! out of the slot, and puts it back only if the pull returned.
//!
//! Given that, the right response to a poisoned lock is to keep
//! serving: [`std::sync::PoisonError::into_inner`] hands back the
//! guard, and the data behind it is still consistent. The alternative
//! — unwinding on every subsequent acquisition — converts one caught
//! panic into a permanent denial of service for every later
//! connection, which is exactly the failure mode the serving path must
//! not have. Code that *does* want to observe poisoning (none today)
//! should call `lock()` directly and say why.
//!
//! These helpers are also what the `ic-lint` IC-LOCK check recognizes
//! as guard producers, so converting a call site keeps it visible to
//! the lock-discipline analysis.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_or_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a writer panicked.
pub(crate) fn read_or_poison<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a holder panicked.
pub(crate) fn write_or_poison<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering the re-acquired guard under the same
/// policy.
pub(crate) fn wait_or_poison<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_or_poison(&m), 7, "state is intact and reachable");
        *lock_or_poison(&m) += 1;
        assert_eq!(*lock_or_poison(&m), 8);
    }

    #[test]
    fn recovers_a_poisoned_rwlock() {
        let l = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(read_or_poison(&l).len(), 3);
        write_or_poison(&l).push(4);
        assert_eq!(read_or_poison(&l).len(), 4);
    }
}
