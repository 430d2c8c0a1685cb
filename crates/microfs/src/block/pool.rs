//! Circular hugeblock pool — O(1) allocation (§III-E "Hugeblocks").
//!
//! "We use a circular block pool for O(1) hugeblock allocation." The pool
//! is a ring of free block indices: allocation pops from the head, free
//! pushes to the tail. Allocation order is a pure function of the operation
//! sequence, which is the property metadata provenance relies on: replaying
//! the operation log re-allocates exactly the same blocks, so logged
//! operations never need to carry block lists.

use std::collections::VecDeque;

use crate::error::FsError;

/// A circular pool of free hugeblock indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPool {
    free: VecDeque<u64>,
    total: u64,
}

impl BlockPool {
    /// A pool over blocks `0..total`, all free, in ascending order.
    pub fn new(total: u64) -> Self {
        BlockPool {
            free: (0..total).collect(),
            total,
        }
    }

    /// Total blocks managed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Currently free blocks.
    pub fn free_count(&self) -> u64 {
        self.free.len() as u64
    }

    /// Currently allocated blocks.
    pub fn allocated(&self) -> u64 {
        self.total - self.free_count()
    }

    /// Allocate one block — O(1).
    pub fn alloc(&mut self) -> Result<u64, FsError> {
        self.free.pop_front().ok_or(FsError::NoSpace)
    }

    /// Allocate `n` blocks, failing atomically if not enough are free.
    pub fn alloc_many(&mut self, n: u64) -> Result<Vec<u64>, FsError> {
        if self.free_count() < n {
            return Err(FsError::NoSpace);
        }
        Ok((0..n)
            .map(|_| self.free.pop_front().expect("checked"))
            .collect())
    }

    /// Return a block to the tail of the ring — O(1).
    pub fn free(&mut self, block: u64) {
        debug_assert!(block < self.total, "freeing out-of-range block {block}");
        debug_assert!(!self.free.contains(&block), "double free of block {block}");
        self.free.push_back(block);
    }

    /// Return many blocks, preserving the given order.
    pub fn free_many(&mut self, blocks: &[u64]) {
        for &b in blocks {
            self.free(b);
        }
    }

    /// Serialize the ring (order matters: it *is* the allocator state).
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16 + self.free.len() * 8);
        v.extend_from_slice(&self.total.to_le_bytes());
        v.extend_from_slice(&(self.free.len() as u64).to_le_bytes());
        for &b in &self.free {
            v.extend_from_slice(&b.to_le_bytes());
        }
        v
    }

    /// Deserialize; inverse of [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<(BlockPool, usize), FsError> {
        if bytes.len() < 16 {
            return Err(FsError::Io("block pool truncated".into()));
        }
        let total = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        // The count comes off the device: size the list by the bytes
        // actually present, never by the count alone.
        let need = n
            .checked_mul(8)
            .and_then(|b| b.checked_add(16))
            .filter(|&need| need <= bytes.len())
            .ok_or_else(|| FsError::Io("block pool free list truncated".into()))?;
        let free: VecDeque<u64> = bytes[16..need]
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        Ok((BlockPool { free, total }, need))
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
        let mut bytes = 4u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(u64::MAX / 8 + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(BlockPool::decode(&bytes).is_err());
    }

    proptest! {
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
