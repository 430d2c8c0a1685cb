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

use crate::clock::{now, ns_since};

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

/// A sampled histogram keeps the value of one call in this many per
/// thread (see [`Histogram::sampled`]).
pub const SAMPLE_PERIOD: u64 = 16;

/// One shard of histogram state. Buckets are plain (unpadded) atomics —
/// the shard itself is what isolates writer threads. `count` is every
/// call; the buckets hold the values kept, which for a sampled histogram
/// is one call in [`SAMPLE_PERIOD`].
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

    /// Keep one value: sum, extremes and its bucket, but not `count`.
    #[inline]
    fn fill(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of u64 samples (typically nanoseconds).
///
/// Recording is lock-free and sharded; querying percentiles goes through
/// [`Histogram::snapshot`], which merges shards into an immutable
/// [`HistogramSnapshot`].
///
/// A histogram is exact or [sampled](Histogram::sampled). Both count
/// every call; a sampled one keeps one value in [`SAMPLE_PERIOD`] per
/// thread, so its timer reads the clock only on those calls.
pub struct Histogram {
    shards: Vec<HistShard>,
    sampled: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty exact histogram: it keeps every value.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| HistShard::new()).collect(),
            sampled: false,
        }
    }

    /// Create an empty sampled histogram, for stage timers nested inside a
    /// timed command or op. `count` stays exact (one relaxed add per
    /// call, which doubles as the sample tick); the buckets, `min` and
    /// `max` come from the first call of every [`SAMPLE_PERIOD`] on each
    /// thread, and the snapshot scales `sum` by calls per kept value.
    pub fn sampled() -> Self {
        Self {
            sampled: true,
            ..Self::new()
        }
    }

    /// Count one call; true when its value is to be kept.
    #[inline]
    fn tick(&self, sh: &HistShard) -> bool {
        let n = sh.count.fetch_add(1, Ordering::Relaxed);
        !self.sampled || n.is_multiple_of(SAMPLE_PERIOD)
    }

    /// Record one call's value (kept on the sample tick when sampled).
    #[inline]
    pub fn record(&self, v: u64) {
        let sh = &self.shards[slot()];
        if self.tick(sh) {
            sh.fill(v);
        }
    }

    /// Start a timer whose elapsed nanoseconds are recorded on drop. A
    /// sampled histogram's timer counts the call at once and reads the
    /// clock only when the call is its thread's sample.
    #[inline]
    pub fn time(&self) -> HistTimer<'_> {
        let start = if self.sampled {
            self.tick(&self.shards[slot()]).then(now)
        } else {
            Some(now())
        };
        HistTimer { hist: self, start }
    }

    /// Merge all shards into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for sh in &self.shards {
            let count = sh.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut kept = 0;
            for (i, b) in sh.buckets.iter().enumerate() {
                let n = b.load(Ordering::Relaxed);
                out.buckets[i] += n;
                kept += n;
            }
            // A sampled shard's sum stands for `count` calls: scale it by
            // calls per kept value. Exact shards have `kept == count`.
            let sum = sh.sum.load(Ordering::Relaxed);
            let sum = match kept {
                0 => 0,
                k if k == count => sum,
                k => (u128::from(sum) * u128::from(count) / u128::from(k)) as u64,
            };
            out.count += count;
            out.samples += kept;
            // Sums wrap like the atomics they mirror; ns-scale workloads
            // never get near the edge, but extreme samples must not panic.
            out.sum = out.sum.wrapping_add(sum);
            out.min = out.min.min(sh.min.load(Ordering::Relaxed));
            out.max = out.max.max(sh.max.load(Ordering::Relaxed));
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

/// RAII timer: records elapsed ns into its histogram on drop. `start` is
/// `None` for a sampled call that keeps no value.
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let v = ns_since(start);
        if self.hist.sampled {
            // `time` already counted the call.
            self.hist.shards[slot()].fill(v);
        } else {
            self.hist.record(v);
        }
    }
}

/// An immutable, mergeable view of a histogram's samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of calls recorded.
    pub count: u64,
    /// Number of values the buckets hold: `count` for an exact histogram,
    /// about one in [`SAMPLE_PERIOD`] of it for a sampled one.
    pub samples: u64,
    /// Sum of all values; for a sampled histogram, the kept values' sum
    /// scaled by calls per kept value, an unbiased estimate.
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
            samples: 0,
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
    /// Ranks run over the kept values. Returns 0 for an empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        // Rank of the sample we want, 1-based, clamped into range.
        let rank = ((p / 100.0) * self.samples as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.samples);
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
    fn a_sampled_histogram_tracks_the_exact_one() {
        // One seeded, log-uniform stream (1 us .. 256 us) into both kinds.
        let (exact, sampled) = (Histogram::new(), Histogram::sampled());
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let v = (1_000.0 * (u * 8.0).exp2()) as u64;
            exact.record(v);
            sampled.record(v);
        }
        let (e, s) = (exact.snapshot(), sampled.snapshot());
        assert_eq!(s.count, e.count);
        assert_eq!(e.samples, 100_000);
        assert_eq!(s.samples, 100_000 / SAMPLE_PERIOD);
        for p in [50.0, 99.0] {
            let (ei, si) = (bucket_index(e.percentile(p)), bucket_index(s.percentile(p)));
            assert!(ei.abs_diff(si) <= 1, "p{p}: bucket {si} vs {ei}");
        }
        let err = (s.sum as f64 - e.sum as f64).abs() / e.sum as f64;
        assert!(err < 0.05, "sum {} vs {} ({err})", s.sum, e.sum);
    }

    #[test]
    fn a_sampled_timer_counts_every_call_and_times_one_in_the_period() {
        let h = Histogram::sampled();
        for _ in 0..2 * SAMPLE_PERIOD {
            let _t = h.time();
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.samples), (2 * SAMPLE_PERIOD, 2));
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
