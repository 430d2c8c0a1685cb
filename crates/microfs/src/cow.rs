//! Copy-on-write epoch tracking: extent-granular dirty intervals.
//!
//! A checkpoint epoch starts clean. The first write touching a clean span
//! "copies it up" into the epoch's dirty set — from then on the span is
//! known-dirty and rewrites inside it cost nothing to track. The tracker
//! accounts the copy-up volume in `cow.copy_up_bytes`.
//!
//! [`IntervalSet`] is shared: `MicroFs::live_spans` coalesces its live
//! footprint with it, and the replication mirror uses it to skip extents
//! a newer epoch already covers.

use std::collections::BTreeMap;
use std::sync::Arc;

use telemetry::{Counter, Telemetry};

/// A set of disjoint half-open byte intervals, coalesced on insert.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    /// start → end (exclusive), non-overlapping, non-adjacent.
    map: BTreeMap<u64, u64>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Insert `[start, end)`, merging with anything it touches. Returns
    /// the number of bytes that were not already covered.
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let mut new_start = start;
        let mut new_end = end;
        let mut already = 0u64;
        // Predecessor may reach into (or abut) the new interval.
        if let Some((&s, &e)) = self.map.range(..=start).next_back() {
            if e >= start {
                new_start = s;
                new_end = new_end.max(e);
                already += e.min(end).saturating_sub(start);
                self.map.remove(&s);
            }
        }
        // Successors starting inside (or abutting) the new interval.
        let absorbed: Vec<(u64, u64)> =
            self.map.range(start..=end).map(|(&s, &e)| (s, e)).collect();
        for (s, e) in absorbed {
            already += e.min(end).saturating_sub(s);
            new_end = new_end.max(e);
            self.map.remove(&s);
        }
        self.map.insert(new_start, new_end);
        (end - start).saturating_sub(already)
    }

    /// True when `[start, end)` is entirely covered.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        match self.map.range(..=start).next_back() {
            Some((_, &e)) => e >= end,
            None => false,
        }
    }

    /// True when `[start, end)` overlaps any covered byte.
    pub fn intersects(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        if let Some((_, &e)) = self.map.range(..=start).next_back() {
            if e > start {
                return true;
            }
        }
        self.map.range(start..end).next().is_some()
    }

    /// True when nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The intervals as `(start, len)` spans, in offset order.
    pub fn spans(&self) -> Vec<(u64, u64)> {
        self.map.iter().map(|(&s, &e)| (s, e - s)).collect()
    }

    /// Drop all intervals.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Per-epoch dirty tracking with copy-up accounting.
#[derive(Clone)]
pub struct CowTracker {
    dirty: IntervalSet,
    /// Bytes copied up this run: first-touch-per-epoch volume.
    copy_up_bytes: Arc<Counter>,
}

impl CowTracker {
    /// A tracker reporting `cow.copy_up_bytes` to `t`.
    pub fn new(t: &Telemetry) -> Self {
        CowTracker {
            dirty: IntervalSet::new(),
            copy_up_bytes: t.counter("cow.copy_up_bytes"),
        }
    }

    /// Start a new epoch: everything is clean again.
    pub fn begin_epoch(&mut self) {
        self.dirty.clear();
    }

    /// Record a write of `len` bytes at `offset`. Bytes not yet dirty this
    /// epoch are copied up (counted once); rewrites are free.
    pub fn note_write(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let copied_up = self.dirty.insert(offset, offset + len);
        if copied_up > 0 {
            self.copy_up_bytes.add(copied_up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_set_coalesces_and_counts_new_bytes() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(10, 20), 10);
        assert_eq!(s.insert(30, 40), 10);
        assert_eq!(s.spans(), vec![(10, 10), (30, 10)]);
        // Bridge the gap: only the gap counts as new.
        assert_eq!(s.insert(15, 35), 10);
        assert_eq!(s.spans(), vec![(10, 30)]);
        // Fully covered insert adds nothing.
        assert_eq!(s.insert(12, 18), 0);
        // Adjacent intervals merge.
        assert_eq!(s.insert(40, 50), 10);
        assert_eq!(s.spans(), vec![(10, 40)]);
    }

    #[test]
    fn interval_set_coverage_queries() {
        let mut s = IntervalSet::new();
        s.insert(100, 200);
        assert!(s.covers(100, 200));
        assert!(s.covers(150, 160));
        assert!(!s.covers(50, 150));
        assert!(!s.covers(150, 250));
        assert!(s.intersects(199, 300));
        assert!(s.intersects(0, 101));
        assert!(!s.intersects(0, 100));
        assert!(!s.intersects(200, 300));
        assert!(s.covers(5, 5), "empty span is vacuously covered");
    }

    #[test]
    fn tracker_copy_up_counts_first_touch_only() {
        let t = Telemetry::new();
        let mut c = CowTracker::new(&t);
        c.note_write(0, 100);
        c.note_write(50, 100); // 50 new, 50 rewrite
        c.note_write(0, 100); // all rewrite
        assert_eq!(t.snapshot().counter("cow.copy_up_bytes"), 150);
        c.begin_epoch();
        // Next epoch copies up again.
        c.note_write(0, 10);
        assert_eq!(t.snapshot().counter("cow.copy_up_bytes"), 160);
    }
}
