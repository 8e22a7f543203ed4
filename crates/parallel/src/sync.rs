//! Minimal non-poisoning locks with the `parking_lot` call surface.
//!
//! The kernels use locks only for batched frontier spills, so the locks'
//! job is correctness, not throughput. These wrappers keep the call sites
//! in the framework crates free of `.unwrap()` noise (a poisoned lock
//! means a worker already panicked; propagating the panic by continuing
//! with the inner data is the behaviour `parking_lot` has too).

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock owning `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A readers-writer lock whose `read`/`write` return guards directly.
#[derive(Debug, Default)]
pub(crate) struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock owning `value`.
    pub(crate) fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires shared read access.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[cfg(test)]
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the inner value.
    #[cfg(test)]
    pub(crate) fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trips() {
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn rwlock_round_trips() {
        let mut l = RwLock::new(5u32);
        assert_eq!(*l.read(), 5);
        *l.write() += 1;
        *l.get_mut() += 1;
        assert_eq!(l.into_inner(), 7);
    }

    #[test]
    fn mutex_shared_across_threads() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 4000);
    }
}
