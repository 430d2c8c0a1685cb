//! Circular hugeblock pool — O(1) allocation (§III-E "Hugeblocks").
//!
//! "We use a circular block pool for O(1) hugeblock allocation." The pool
//! is a ring of free block indices: allocation pops from the head, free
//! pushes to the tail. Allocation order is a pure function of the operation
//! sequence, which is the property metadata provenance relies on: replaying
//! the operation log re-allocates exactly the same blocks, so logged
//! operations never need to carry block lists.
//!
//! The ring is held, and snapshotted, as its maximal runs of consecutive
//! block ids: a fresh pool is one run `0..total`, and a pool only grows a
//! run per discontinuity that frees introduce. A snapshot stores 8 bytes
//! per run, never more than one `u64` per free block would take.

use std::collections::VecDeque;

use crate::error::FsError;
use crate::wire::Reader;

/// The largest pool the run encoding can hold: block ids are `u32`.
pub const MAX_BLOCKS: u64 = u32::MAX as u64;

/// Blocks `start..start + len` in ring order, `len >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    fn end(self) -> u64 {
        u64::from(self.start) + u64::from(self.len)
    }
}

/// A circular pool of free hugeblock indices.
///
/// No two neighbouring runs are contiguous, so equal rings compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPool {
    runs: VecDeque<Run>,
    free: u64,
    total: u64,
}

impl BlockPool {
    /// A pool over blocks `0..total`, all free, in ascending order. Block
    /// ids are `u32`, so no pool exceeds [`MAX_BLOCKS`].
    pub fn new(total: u32) -> Self {
        BlockPool {
            runs: (total > 0)
                .then_some(Run {
                    start: 0,
                    len: total,
                })
                .into_iter()
                .collect(),
            free: u64::from(total),
            total: u64::from(total),
        }
    }

    /// Total blocks managed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Currently free blocks.
    pub fn free_count(&self) -> u64 {
        self.free
    }

    /// Currently allocated blocks.
    pub fn allocated(&self) -> u64 {
        self.total - self.free
    }

    /// The free blocks as the ring's runs, head to tail, each a half-open
    /// `(start, end)` range of block ids.
    pub(crate) fn free_runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|r| (u64::from(r.start), r.end()))
    }

    /// Approximate DRAM the ring occupies: 8 bytes per run.
    pub fn approx_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<Run>()
    }

    /// Allocate one block — O(1).
    pub fn alloc(&mut self) -> Result<u64, FsError> {
        let head = self.runs.front_mut().ok_or(FsError::NoSpace)?;
        let block = head.start;
        head.start += 1;
        head.len -= 1;
        if head.len == 0 {
            self.runs.pop_front();
        }
        self.free -= 1;
        Ok(u64::from(block))
    }

    /// Allocate `n` blocks, failing atomically if not enough are free.
    pub fn alloc_many(&mut self, n: u64) -> Result<Vec<u64>, FsError> {
        if self.free < n {
            return Err(FsError::NoSpace);
        }
        let mut out = Vec::with_capacity(n as usize);
        // The free count covers `n`, so the runs do too.
        while let Some(head) = self.runs.front_mut().filter(|_| (out.len() as u64) < n) {
            let take = (n - out.len() as u64).min(u64::from(head.len)) as u32;
            out.extend(u64::from(head.start)..u64::from(head.start) + u64::from(take));
            head.start += take;
            head.len -= take;
            if head.len == 0 {
                self.runs.pop_front();
            }
        }
        self.free -= out.len() as u64;
        Ok(out)
    }

    /// Return a block to the tail of the ring — O(1). A block outside
    /// `0..total` is a caller bug: debug builds panic, release builds drop
    /// it rather than let it alias a valid block.
    pub fn free(&mut self, block: u64) {
        debug_assert!(block < self.total, "freeing out-of-range block {block}");
        debug_assert!(
            !self
                .runs
                .iter()
                .any(|r| (u64::from(r.start)..r.end()).contains(&block)),
            "double free of block {block}"
        );
        let Some(start) = u32::try_from(block).ok().filter(|_| block < self.total) else {
            return;
        };
        match self.runs.back_mut() {
            Some(tail) if tail.end() == block => tail.len += 1,
            _ => self.runs.push_back(Run { start, len: 1 }),
        }
        self.free += 1;
    }

    /// Return many blocks, preserving the given order.
    pub fn free_many(&mut self, blocks: &[u64]) {
        for &b in blocks {
            self.free(b);
        }
    }

    /// Serialize the ring (order matters: it *is* the allocator state).
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut v);
        v
    }

    /// Bytes [`encode`](Self::encode) produces: a 16-byte header and 8
    /// bytes per run, at most `16 + 8 * free_count()`.
    pub fn encoded_len(&self) -> usize {
        16 + self.runs.len() * 8
    }

    /// Append the [`encode`](Self::encode) bytes to `out`: `total` and the
    /// free count as `u32`, the run count as `u64`, then each run as
    /// `(start u32, len u32)` from head to tail.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // `new` bounds `total`, and so every count below, by `u32::MAX`.
        out.extend_from_slice(&(self.total as u32).to_le_bytes());
        out.extend_from_slice(&(self.free as u32).to_le_bytes());
        out.extend_from_slice(&(self.runs.len() as u64).to_le_bytes());
        for r in &self.runs {
            out.extend_from_slice(&r.start.to_le_bytes());
            out.extend_from_slice(&r.len.to_le_bytes());
        }
    }

    /// Deserialize; inverse of [`encode`](Self::encode). Returns the
    /// pool and the bytes consumed. Rejects an empty run, a run past
    /// `total`, overlapping runs, contiguous neighbours left unmerged and
    /// a free count other than the runs' total length. Costs O(runs log
    /// runs) time and O(runs) memory, however many blocks the runs span.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode(bytes: &[u8]) -> Result<(BlockPool, usize), FsError> {
        let corrupt = |what: &str| FsError::Io(format!("block pool: {what}"));
        let mut r = Reader::new(bytes);
        let total = u64::from(r.u32()?);
        let free = u64::from(r.u32()?);
        let n = r.count(8)?;
        let mut runs: VecDeque<Run> = VecDeque::with_capacity(n);
        let mut spanned = 0u64;
        for _ in 0..n {
            let run = Run {
                start: r.u32()?,
                len: r.u32()?,
            };
            if run.len == 0 || run.end() > total {
                return Err(corrupt("run empty or past the last block"));
            }
            if runs
                .back()
                .is_some_and(|prev| prev.end() == u64::from(run.start))
            {
                return Err(corrupt("contiguous runs left unmerged"));
            }
            spanned = spanned
                .checked_add(u64::from(run.len))
                .ok_or_else(|| corrupt("free count overflows"))?;
            runs.push_back(run);
        }
        if spanned != free {
            return Err(corrupt("free count disagrees with the runs"));
        }
        let mut by_start: Vec<Run> = runs.iter().copied().collect();
        by_start.sort_unstable_by_key(|r| r.start);
        if by_start
            .windows(2)
            .any(|w| matches!(w, [a, b] if a.end() > u64::from(b.start)))
        {
            return Err(corrupt("overlapping runs"));
        }
        Ok((BlockPool { runs, free, total }, r.position()))
    }
}

#[cfg(test)]
impl BlockPool {
    /// A ring of the given `(start, len)` runs in order, overlaps allowed:
    /// the shape a corrupt ring can take, which `decode` refuses.
    pub(crate) fn from_runs(total: u64, runs: &[(u32, u32)]) -> Self {
        BlockPool {
            runs: runs
                .iter()
                .map(|&(start, len)| Run { start, len })
                .collect(),
            free: runs.iter().map(|&(_, len)| u64::from(len)).sum(),
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_allocation_order() {
        let mut p = BlockPool::new(4);
        assert_eq!(p.alloc().unwrap(), 0);
        assert_eq!(p.alloc().unwrap(), 1);
        p.free(0);
        assert_eq!(p.alloc().unwrap(), 2);
        assert_eq!(p.alloc().unwrap(), 3);
        // Ring wraps to the freed block last.
        assert_eq!(p.alloc().unwrap(), 0);
        assert_eq!(p.alloc().unwrap_err(), FsError::NoSpace);
    }

    #[test]
    fn alloc_many_is_atomic() {
        let mut p = BlockPool::new(3);
        assert_eq!(p.alloc_many(4).unwrap_err(), FsError::NoSpace);
        assert_eq!(p.free_count(), 3, "failed alloc_many must not consume");
        assert_eq!(p.alloc_many(3).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn counters() {
        let mut p = BlockPool::new(10);
        let _ = p.alloc_many(4).unwrap();
        assert_eq!(p.allocated(), 4);
        assert_eq!(p.free_count(), 6);
        assert_eq!(p.total(), 10);
    }

    #[test]
    fn a_fresh_pool_is_one_run() {
        let p = BlockPool::new(9_344);
        assert_eq!(p.encoded_len(), 24);
        assert_eq!(BlockPool::new(0).encoded_len(), 16);
        let mut q = p.clone();
        let held = q.alloc_many(10).unwrap();
        // Freeing in allocation order re-forms runs at the tail.
        q.free_many(&held);
        assert_eq!(q.encoded_len(), 32);
    }

    #[test]
    fn encode_decode_preserves_ring_order() {
        let mut p = BlockPool::new(8);
        let a = p.alloc_many(5).unwrap();
        p.free(a[2]);
        p.free(a[0]);
        let bytes = p.encode();
        let (q, consumed) = BlockPool::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(p, q);
        // And the clone allocates identically (determinism for replay).
        let mut p2 = p.clone();
        let mut q2 = q;
        for _ in 0..5 {
            assert_eq!(p2.alloc().ok(), q2.alloc().ok());
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let p = BlockPool::new(4);
        let bytes = p.encode();
        assert!(BlockPool::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(BlockPool::decode(&bytes[..8]).is_err());
    }

    #[test]
    fn decode_rejects_a_count_larger_than_the_payload() {
        // A CRC-clean payload can still carry a count whose byte size
        // wraps `usize`: it must be an error, not an overflow panic.
        let mut bytes = 4u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 8 + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(BlockPool::decode(&bytes).is_err());
    }

    /// The per-block ring the run ring replaced, kept as its oracle.
    struct BlockRing(std::collections::VecDeque<u64>);

    impl BlockRing {
        fn alloc_many(&mut self, n: u64) -> Option<Vec<u64>> {
            (self.0.len() as u64 >= n).then(|| self.0.drain(..n as usize).collect())
        }
    }

    proptest! {
        /// The run ring hands out exactly the blocks the per-block ring
        /// does, up to full fragmentation, and its encoding round-trips
        /// within `16 + 8 * free_count` bytes.
        #[test]
        fn prop_matches_the_per_block_ring(
            total in 1u64..200,
            ops in proptest::collection::vec((0u8..3, 0u64..40, any::<u64>()), 1..150),
        ) {
            let mut p = BlockPool::new(total as u32);
            let mut oracle = BlockRing((0..total).collect());
            let mut held: Vec<u64> = Vec::new();
            for (op, n, pick) in ops {
                match op {
                    0 => {
                        let got = p.alloc().ok();
                        prop_assert_eq!(got, oracle.alloc_many(1).map(|v| v[0]));
                        held.extend(got);
                    }
                    1 => {
                        let got = p.alloc_many(n).ok();
                        prop_assert_eq!(&got, &oracle.alloc_many(n));
                        held.extend(got.unwrap_or_default());
                    }
                    _ => {
                        // Free a pseudo-random subset in a pseudo-random
                        // order: the ring fragments.
                        let mut back = Vec::new();
                        for i in 0..n.min(held.len() as u64) {
                            let at = (pick.rotate_left(i as u32) % held.len() as u64) as usize;
                            back.push(held.swap_remove(at));
                        }
                        p.free_many(&back);
                        oracle.0.extend(&back);
                    }
                }
                prop_assert_eq!(p.free_count(), oracle.0.len() as u64);
                let bytes = p.encode();
                prop_assert!(bytes.len() as u64 <= 16 + 8 * p.free_count());
                let (q, used) = BlockPool::decode(&bytes).unwrap();
                prop_assert_eq!(used, bytes.len());
                prop_assert_eq!(&q, &p);
            }
            // Drain both: the rest of the ring agrees too.
            prop_assert_eq!(p.alloc_many(p.free_count()).ok(), oracle.alloc_many(oracle.0.len() as u64));
        }

        /// Alloc/free sequences never lose or duplicate blocks.
        #[test]
        fn prop_conservation(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
            let mut p = BlockPool::new(32);
            let mut held: Vec<u64> = Vec::new();
            for alloc in ops {
                if alloc {
                    if let Ok(b) = p.alloc() {
                        prop_assert!(!held.contains(&b), "double allocation of {}", b);
                        held.push(b);
                    }
                } else if let Some(b) = held.pop() {
                    p.free(b);
                }
                prop_assert_eq!(p.free_count() + held.len() as u64, 32);
            }
        }

        /// Replay determinism: the same op sequence on a decoded snapshot
        /// allocates the same blocks.
        #[test]
        fn prop_replay_determinism(seq in proptest::collection::vec(0u8..3, 1..100)) {
            let mut p = BlockPool::new(16);
            let mut held = Vec::new();
            // Drive to an arbitrary state.
            for op in &seq {
                match op {
                    0 | 1 => { if let Ok(b) = p.alloc() { held.push(b); } }
                    _ => { if let Some(b) = held.pop() { p.free(b); } }
                }
            }
            let (mut restored, _) = BlockPool::decode(&p.encode()).unwrap();
            // Same future ops -> same blocks.
            for op in &seq {
                match op {
                    0 | 1 => { prop_assert_eq!(p.alloc().ok(), restored.alloc().ok()); }
                    _ => {
                        if let Some(b) = held.pop() {
                            p.free(b);
                            restored.free(b);
                        }
                    }
                }
            }
        }
    }
}
