//! A reusable-workspace pool for long-lived query services.
//!
//! A BFS query engine that serves many waves over one shared graph should
//! not re-allocate its lane tables and scratch vectors on every wave.
//! [`ArenaPool`] keeps finished workspaces and hands them back out:
//! [`ArenaPool::acquire_with`] pops a recycled workspace (or builds a
//! fresh one via the caller's factory when the pool is dry) and the
//! returned [`PoolGuard`] automatically checks the workspace back in on
//! drop — so a steady-state wave allocates what it hands back (its
//! answers and their level vectors), never its scratch state. A guard
//! dropped while its thread unwinds discards its workspace instead: only
//! holders that finished put state back, so a recycled workspace is always
//! one a completed wave left behind.
//!
//! The pool is deliberately dumb: a mutex around a stack. Waves are
//! long (milliseconds of traversal) and acquisitions rare (one per wave),
//! so lock contention is irrelevant; what matters is that the pool never
//! panics (a poisoned mutex degrades to handing out the inner state — the
//! stack of idle workspaces is valid under any interleaving of pushes and
//! pops).

use std::sync::Mutex;

/// A checked-out workspace; returns itself to the pool on drop, unless the
/// holder is unwinding from a panic.
pub struct PoolGuard<'p, T> {
    pool: &'p ArenaPool<T>,
    item: Option<T>,
}

impl<T> std::ops::Deref for PoolGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // The item is only vacated by `Drop`, after which no `Deref` can
        // run; `unreachable!` documents that rather than unwrapping.
        match self.item.as_ref() {
            Some(item) => item,
            None => unreachable!("PoolGuard vacated before drop"),
        }
    }
}

impl<T> std::ops::DerefMut for PoolGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        match self.item.as_mut() {
            Some(item) => item,
            None => unreachable!("PoolGuard vacated before drop"),
        }
    }
}

impl<T> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            if !std::thread::panicking() {
                self.pool.release(item);
            }
        }
    }
}

/// A pool of reusable workspaces (see the module docs).
pub struct ArenaPool<T> {
    idle: Mutex<Vec<T>>,
}

impl<T> Default for ArenaPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ArenaPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Checks out an idle workspace, or builds one with `make` when the
    /// pool is dry. The guard returns the workspace on drop.
    pub fn acquire_with(&self, make: impl FnOnce() -> T) -> PoolGuard<'_, T> {
        let recycled = self
            .idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        PoolGuard {
            pool: self,
            item: Some(recycled.unwrap_or_else(make)),
        }
    }

    /// Number of idle (checked-in) workspaces.
    pub fn idle_len(&self) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    fn release(&self, item: T) {
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(item);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn guard_returns_workspace_on_drop() {
        let pool: ArenaPool<Vec<u32>> = ArenaPool::new();
        assert_eq!(pool.idle_len(), 0);
        {
            let mut ws = pool.acquire_with(Vec::new);
            ws.push(7);
            assert_eq!(pool.idle_len(), 0);
        }
        assert_eq!(pool.idle_len(), 1);
        // The recycled workspace keeps its state (callers reset what they
        // need; arenas reset themselves in `begin`).
        let ws = pool.acquire_with(Vec::new);
        assert_eq!(*ws, vec![7]);
        assert_eq!(pool.idle_len(), 0);
    }

    #[test]
    fn a_holder_that_panics_does_not_return_its_workspace() {
        let pool: ArenaPool<Vec<u32>> = ArenaPool::new();
        drop(pool.acquire_with(Vec::new));
        assert_eq!(pool.idle_len(), 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ws = pool.acquire_with(Vec::new);
            ws.push(7);
            std::panic::resume_unwind(Box::new("holder died mid-use"));
        }));
        assert!(unwound.is_err());
        // The half-written workspace is gone, not parked for the next
        // holder; a dry pool builds a fresh one.
        assert_eq!(pool.idle_len(), 0);
        assert!(pool.acquire_with(Vec::new).is_empty());
    }

    #[test]
    fn dry_pool_builds_fresh_workspaces() {
        let pool: ArenaPool<u64> = ArenaPool::new();
        let a = pool.acquire_with(|| 1);
        let b = pool.acquire_with(|| 2);
        assert_eq!((*a, *b), (1, 2));
        drop(a);
        drop(b);
        assert_eq!(pool.idle_len(), 2);
    }

    #[test]
    fn concurrent_acquire_release_never_loses_workspaces() {
        let pool: std::sync::Arc<ArenaPool<usize>> = std::sync::Arc::new(ArenaPool::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let pool = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let ws = pool.acquire_with(|| t);
                    std::hint::black_box(*ws);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // At most one workspace per thread was ever live at once.
        assert!(pool.idle_len() <= 8);
        assert!(pool.idle_len() >= 1);
    }
}
