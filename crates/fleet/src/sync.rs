//! Shared synchronisation helpers: poison-tolerant locking plus a
//! debug-assert lock-rank witness.
//!
//! Every long-lived lock in the fleet/transport stack belongs to a named
//! **lock class** with a documented acquisition rank (see [`rank`]). A
//! thread may only acquire a lock whose rank is *strictly greater* than
//! every lock it already holds; any interleaving that respects the rank
//! order is cycle-free, so the fleet cannot deadlock. [`lock_ranked`]
//! asserts that order at runtime under `debug_assertions` (live in tests
//! and in CI's `careful` chaos runs) and compiles to a plain [`lock`]
//! call in release builds. The static half of the same contract is
//! `pufatt-analyze`'s Pass 4 (`conc::RANKS` mirrors [`rank`]'s table and
//! both sides pin the values with unit tests).

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

/// Poison-tolerant lock acquisition.
///
/// A panicking job (e.g. a failed assertion on a chaos-test worker
/// thread) poisons any `Mutex` it held; the default `lock().unwrap()`
/// then panics in *every* later session that touches the same shard or
/// queue, cascading one contained failure into a wedged fleet. All the
/// state behind this crate's locks — service slot shards, the pool's job
/// receiver — stays internally consistent under any interleaving of its
/// updates, so the right response to poison is to keep going, not to
/// propagate it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Acquisition ranks for the named lock classes, lowest first. The
/// values are mirrored by `pufatt-analyze`'s `conc::RANKS` (which adds
/// the store/core classes that cannot depend on this crate); unit tests
/// on both sides pin them against each other.
pub mod rank {
    /// `transport::Server`'s live-connection map.
    pub const SERVER_CONNS: u32 = 10;
    /// `transport::Server`'s handler `JoinHandle` list.
    pub const HANDLER_HANDLES: u32 = 20;
    /// A `FleetService` per-device slot shard.
    pub const SERVICE_SLOT: u32 = 50;
    /// A `WorkerPool`'s shared job receiver.
    pub const POOL_RECEIVER: u32 = 70;

    /// Class name for a rank, for witness panic messages.
    pub fn name(rank: u32) -> &'static str {
        match rank {
            SERVER_CONNS => "server_conns",
            HANDLER_HANDLES => "handler_handles",
            SERVICE_SLOT => "service_slot",
            POOL_RECEIVER => "pool_receiver",
            _ => "unknown",
        }
    }
}

#[cfg(debug_assertions)]
mod witness {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks of the locks this thread currently holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    pub fn acquire(rank: u32) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.last() {
                assert!(
                    rank > top,
                    "lock-rank violation: acquiring `{}` (rank {rank}) while holding `{}` (rank {top})",
                    super::rank::name(rank),
                    super::rank::name(top),
                );
            }
            held.push(rank);
        });
    }

    pub fn release(rank: u32) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }
}

/// A [`MutexGuard`] that reports its release to the rank witness. In
/// release builds this is a zero-cost newtype over the guard.
pub struct RankGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: u32,
}

impl<T> Deref for RankGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for RankGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        witness::release(self.rank);
    }
}

/// Poison-tolerant lock acquisition checked against the rank order.
///
/// Under `debug_assertions` the calling thread's held-rank stack is
/// consulted first: acquiring a lock whose rank is not strictly above
/// every held rank panics with both class names. In release builds the
/// witness (and the rank argument) compile away entirely.
///
/// # Panics
///
/// Under `debug_assertions`, on an out-of-rank-order acquisition.
pub fn lock_ranked<'a, T>(m: &'a Mutex<T>, rank: u32) -> RankGuard<'a, T> {
    #[cfg(debug_assertions)]
    {
        witness::acquire(rank);
        RankGuard { guard: lock(m), rank }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = rank;
        RankGuard { guard: lock(m) }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn poisoned_mutex_is_still_usable() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7, "the value survives the poison");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn rank_table_matches_the_static_analyzer() {
        // Pinned against `pufatt-analyze`'s `conc::RANKS` (which carries
        // the mirror-image assertion).
        assert_eq!((rank::SERVER_CONNS, rank::name(10)), (10, "server_conns"));
        assert_eq!((rank::HANDLER_HANDLES, rank::name(20)), (20, "handler_handles"));
        assert_eq!((rank::SERVICE_SLOT, rank::name(50)), (50, "service_slot"));
        for retired in [30, 40, 60] {
            assert_eq!(rank::name(retired), "unknown", "rank {retired} is retired, not reused");
        }
        assert_eq!((rank::POOL_RECEIVER, rank::name(70)), (70, "pool_receiver"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn out_of_order_acquisition_panics_under_debug_assertions() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let _receiver = lock_ranked(&a, rank::POOL_RECEIVER);
        let _slot = lock_ranked(&b, rank::SERVICE_SLOT); // 50 under 70: backwards
    }

    #[cfg(debug_assertions)]
    #[test]
    fn in_order_acquisition_is_clean_and_release_unwinds_the_stack() {
        let a = Mutex::new(1);
        let b = Mutex::new(2);
        {
            let g = lock_ranked(&a, rank::HANDLER_HANDLES);
            let h = lock_ranked(&b, rank::SERVICE_SLOT);
            assert_eq!(*g + *h, 3);
        }
        // Both released: a low-rank acquisition is legal again.
        let g = lock_ranked(&a, rank::SERVER_CONNS);
        assert_eq!(*g, 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn witness_is_free_in_release() {
        // The same backwards order that panics under debug_assertions is
        // not even observed in release builds.
        let a = Mutex::new(());
        let b = Mutex::new(());
        let _receiver = lock_ranked(&a, rank::POOL_RECEIVER);
        let _slot = lock_ranked(&b, rank::SERVICE_SLOT);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rank_guard_derefs_mutably_and_releases_on_drop() {
        let m = Mutex::new(41);
        *lock_ranked(&m, rank::POOL_RECEIVER) += 1;
        assert_eq!(*lock_ranked(&m, rank::POOL_RECEIVER), 42);
    }
}
