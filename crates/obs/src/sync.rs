//! The workspace's one lock: a [`Mutex`] whose `lock()` returns the
//! guard directly, over `std::sync::Mutex`, and [`wait`] for a condvar
//! paired with it. Poisoning is ignored everywhere: the guarded state
//! is caches, counters, queues and retention buffers, which stay
//! structurally valid if a panic unwinds mid-update, and a panicking
//! request must not wedge the locks its neighbours take.

use std::sync::{Condvar, MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock()` never returns a `Result`.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value` in a new mutex.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering the guard if a previous holder
    /// panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Releases `guard`, blocks until `condvar` is notified, and returns
/// the guard re-acquired, poisoned or not.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        // A holder that panicked locks nobody out.
        let _ = std::panic::catch_unwind(|| {
            let _held = m.lock();
            panic!("a holder's bug (this test's; the trace above is expected)")
        });
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 3);
    }
}
