//! The one wall clock of library code.
//!
//! Every clock read in library code goes through [`now`], so what the
//! instrument itself costs is countable: debug builds bump a per-thread
//! read counter ([`clock_reads`]) that tests hold to a budget. Release
//! builds compile the counter out and pay only the read.

use std::time::Instant;

#[cfg(debug_assertions)]
thread_local! {
    static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Read the wall clock.
#[inline]
pub fn now() -> Instant {
    #[cfg(debug_assertions)]
    READS.with(|r| r.set(r.get() + 1));
    Instant::now()
}

/// Nanoseconds from `start` to `end`, 0 when `end` is earlier.
#[inline]
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

/// Nanoseconds from `start` to a fresh read of the clock.
#[inline]
pub fn ns_since(start: Instant) -> u64 {
    ns_between(start, now())
}

/// Clock reads this thread has made through [`now`] (debug builds only).
#[cfg(debug_assertions)]
pub fn clock_reads() -> u64 {
    READS.with(|r| r.get())
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn reads_are_counted_per_thread() {
        let before = clock_reads();
        let a = now();
        assert!(ns_since(a) < u64::MAX);
        assert_eq!(clock_reads() - before, 2);
        std::thread::spawn(|| assert_eq!(clock_reads(), 0))
            .join()
            .unwrap();
    }
}
