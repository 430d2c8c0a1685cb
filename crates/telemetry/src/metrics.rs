//! Metric primitives: sharded counters, gauges with peak tracking, and
//! log2-bucketed latency histograms.
//!
//! All three are designed for the hot path of a multi-threaded rank fan-out:
//! writers touch a per-thread shard (cache-line padded) with relaxed
//! atomics, so concurrent ranks never contend on a shared line. Readers
//! (`get` / `snapshot`) sum across shards; they are approximate only in
//! the sense that a concurrent writer may or may not be included, which
//! is the standard contract for monitoring counters.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of independent shards per metric. Threads hash onto shards via a
/// process-wide round-robin slot, so up to this many writers proceed with
/// zero line sharing.
pub const SHARDS: usize = 16;

/// Process-wide thread slot allocator: each thread gets a stable small id
/// on first use, round-robin over [`SHARDS`].
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
pub(crate) fn slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// One cache line of counter state, padded so adjacent shards never share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, sharded across threads.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter (relaxed, per-thread shard).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A signed gauge tracking a current level plus the peak level observed.
///
/// `add`/`sub` move the level; `peak` remembers the high-water mark, which
/// is what queue-depth and RAM-occupancy instrumentation cares about.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// Create a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move the level by `delta` (may be negative) and fold into the peak.
    #[inline]
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Set the level to `v` outright.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// High-water mark since creation.
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.get())
            .field("peak", &self.peak())
            .finish()
    }
}

/// Sub-bucket resolution bits: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding relative quantile error at
/// `2^-SUB_BITS` (12.5%).
pub const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS; // 8 sub-buckets per octave
/// Total bucket count: values 0..SUB map 1:1, then (64 - SUB_BITS) octaves
/// of SUB sub-buckets each cover the rest of the u64 range.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Map a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros(); // position of the highest set bit
        let shift = top - SUB_BITS;
        let sub = ((v >> shift) as usize) - SUB;
        SUB + (shift as usize) * SUB + sub
    }
}

/// Inclusive `(lo, hi)` value bounds of bucket `idx`.
#[inline]
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        (idx as u64, idx as u64)
    } else {
        let shift = ((idx - SUB) / SUB) as u32;
        let sub = ((idx - SUB) % SUB) as u64;
        let lo = (SUB as u64 + sub) << shift;
        // Compute the width first: for the topmost bucket `lo + 2^shift`
        // alone would overflow even though `hi` is exactly u64::MAX.
        let hi = lo + ((1u64 << shift) - 1);
        (lo, hi)
    }
}

/// One shard of histogram state. Buckets are plain (unpadded) atomics —
/// the shard itself is what isolates writer threads.
struct HistShard {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl HistShard {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A log2-bucketed histogram of u64 samples (typically nanoseconds).
///
/// Recording is lock-free and sharded; querying percentiles goes through
/// [`Histogram::snapshot`], which merges shards into an immutable
/// [`HistogramSnapshot`].
pub struct Histogram {
    shards: Vec<HistShard>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| HistShard::new()).collect(),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let sh = &self.shards[slot()];
        sh.count.fetch_add(1, Ordering::Relaxed);
        sh.sum.fetch_add(v, Ordering::Relaxed);
        sh.min.fetch_min(v, Ordering::Relaxed);
        sh.max.fetch_max(v, Ordering::Relaxed);
        sh.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Start a timer whose elapsed nanoseconds are recorded on drop.
    #[inline]
    pub fn time(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Merge all shards into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for sh in &self.shards {
            let count = sh.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            out.count += count;
            // Sums wrap like the atomics they mirror; ns-scale workloads
            // never get near the edge, but extreme samples must not panic.
            out.sum = out.sum.wrapping_add(sh.sum.load(Ordering::Relaxed));
            out.min = out.min.min(sh.min.load(Ordering::Relaxed));
            out.max = out.max.max(sh.max.load(Ordering::Relaxed));
            for (i, b) in sh.buckets.iter().enumerate() {
                out.buckets[i] += b.load(Ordering::Relaxed);
            }
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.percentile(50.0))
            .field("p99", &s.percentile(99.0))
            .finish()
    }
}

/// RAII timer: records elapsed ns into its histogram on drop.
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// An immutable, mergeable view of a histogram's samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (u64::MAX when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (see [`HistogramSnapshot::bucket_bounds`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Inclusive value bounds of bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        bucket_bounds(idx)
    }

    /// Bucket index a value would land in.
    pub fn bucket_index(v: u64) -> usize {
        bucket_index(v)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-th percentile (0 < p <= 100), reported as the upper bound of
    /// the bucket containing that rank — so the true value is never above
    /// the report by more than the bucket's width (<= 12.5% relative).
    /// Returns 0 for an empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the sample we want, 1-based, clamped into range.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = Gauge::new();
        g.add(10);
        g.add(25);
        g.add(-30);
        assert_eq!(g.get(), 5);
        assert_eq!(g.peak(), 35);
    }

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in [0u64, 1, 7, 8, 9, 100, 1024, 4095, 1 << 40, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn bucket_bounds_tile_the_range() {
        // Consecutive buckets must be adjacent: hi(i) + 1 == lo(i+1).
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo, "gap between bucket {i} and {}", i + 1);
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn percentiles_bound_relative_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        let p50 = s.percentile(50.0);
        assert!((4500..=5700).contains(&p50), "p50={p50}");
        let p99 = s.percentile(99.0);
        assert!((9_900..=11_200).contains(&p99), "p99={p99}");
        assert_eq!(s.percentile(100.0), 10_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
    }

    #[test]
    fn timer_records_something() {
        let h = Histogram::new();
        {
            let _t = h.time();
            std::hint::black_box(0u64);
        }
        assert_eq!(h.snapshot().count, 1);
    }
}
