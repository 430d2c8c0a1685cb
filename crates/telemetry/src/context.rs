//! Causal trace context: the rank and checkpoint epoch a thread is
//! currently working on behalf of.
//!
//! The runtime steps each rank on one reactor thread at a time, and every
//! layer below the driver (initiator, target poll, ssd shard, microfs WAL,
//! replication mirror) runs inline on that thread, so a thread-local pair
//! of cells is enough to propagate the (rank, epoch) half of a command's
//! trace identity end to end. The fabric layer supplies the other half
//! (CID, retry generation) explicitly. The flight recorder stamps every
//! event with the current context automatically.
//!
//! Guards nest and restore the previous value on drop, so re-entrant
//! paths (a failover that re-drives another rank's restore) stay correct.

use std::cell::Cell;

/// Sentinel for "no value set" (also the wire encoding in dumps).
pub const UNSET: u64 = u64::MAX;

thread_local! {
    static RANK: Cell<u64> = const { Cell::new(UNSET) };
    static EPOCH: Cell<u64> = const { Cell::new(UNSET) };
}

/// The rank the current thread is working for, if any.
#[inline]
pub fn current_rank() -> Option<u64> {
    let r = RANK.with(Cell::get);
    (r != UNSET).then_some(r)
}

/// The checkpoint epoch the current thread is working on, if any.
#[inline]
pub fn current_epoch() -> Option<u64> {
    let e = EPOCH.with(Cell::get);
    (e != UNSET).then_some(e)
}

/// Raw rank cell value (`UNSET` when no guard is active).
#[inline]
pub fn raw_rank() -> u64 {
    RANK.with(Cell::get)
}

/// Raw epoch cell value (`UNSET` when no guard is active).
#[inline]
pub fn raw_epoch() -> u64 {
    EPOCH.with(Cell::get)
}

/// RAII guard restoring the previous rank on drop.
pub struct RankGuard {
    prev: u64,
}

/// RAII guard restoring the previous epoch on drop.
pub struct EpochGuard {
    prev: u64,
}

/// Set the current thread's rank for the guard's lifetime.
pub fn with_rank(rank: u64) -> RankGuard {
    let prev = RANK.with(|c| c.replace(rank));
    RankGuard { prev }
}

/// Set the current thread's epoch for the guard's lifetime.
pub fn with_epoch(epoch: u64) -> EpochGuard {
    let prev = EPOCH.with(|c| c.replace(epoch));
    EpochGuard { prev }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        RANK.with(|c| c.set(self.prev));
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        EPOCH.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_restore() {
        assert_eq!(current_rank(), None);
        {
            let _a = with_rank(3);
            assert_eq!(current_rank(), Some(3));
            {
                let _b = with_rank(7);
                assert_eq!(current_rank(), Some(7));
            }
            assert_eq!(current_rank(), Some(3));
        }
        assert_eq!(current_rank(), None);
    }

    #[test]
    fn rank_and_epoch_are_independent() {
        let _r = with_rank(1);
        assert_eq!(current_epoch(), None);
        let _e = with_epoch(9);
        assert_eq!(current_rank(), Some(1));
        assert_eq!(current_epoch(), Some(9));
    }
}
