//! Deterministic time-ordered event queue.
//!
//! A thin wrapper around [`std::collections::BinaryHeap`] that orders events
//! by `(time, sequence)` so that simultaneous events pop in insertion order.
//! FIFO tie-breaking is what makes every simulation in this workspace
//! bit-for-bit reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of `(SimTime, T)` with FIFO ordering among equal timestamps.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `item` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, item });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(3.0), "c");
        q.push(SimTime::secs(1.0), "a");
        q.push(SimTime::secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::secs(1.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    proptest! {
        /// Popped timestamps are monotonically non-decreasing, and ties keep
        /// insertion order, for arbitrary push sequences.
        #[test]
        fn prop_sorted_stable(times in proptest::collection::vec(0u32..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::secs(f64::from(t)), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((at, idx)) = q.pop() {
                if let Some((pt, pidx)) = prev {
                    prop_assert!(at >= pt);
                    if at == pt {
                        prop_assert!(idx > pidx);
                    }
                }
                prev = Some((at, idx));
            }
        }
    }
}
