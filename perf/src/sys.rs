//! Process-level readings from `/proc/self` (Linux; zero where absent).

fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size in MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") as f64 / 1024.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// User + system CPU time of the whole process in seconds, every thread
/// that ever ran included. The kernel reports it in clock ticks (100 per
/// second on Linux), so single readings are 10 ms coarse; callers sum many
/// intervals.
pub fn cpu_secs() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself hold spaces: state is field 3, utime 14, stime 15.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SEC)
        })
        .unwrap_or(0.0)
}

/// Cores the process may run on (its affinity mask, at least one).
pub fn usable_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Threads the reactor pool is given: the cores the process may run on
/// (after [`leave_one_core`]), at most four.
pub fn reactor_threads() -> usize {
    usable_cores().min(4)
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Words of a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Leave one core to the rest of the machine: when the process may run on
/// more than one CPU, take the lowest-numbered one (the one that usually
/// serves interrupts) out of its affinity mask. Every thread started
/// afterwards and every child process inherits the mask, and
/// `available_parallelism` counts it, so the reactor pool and the stack's
/// own worker pools (recovery, init) size themselves to what is left.
///
/// Why: a sandbox is a few virtual cores of a shared host. With as many
/// busy threads as cores, whatever else needs a core (the harness that
/// started the run, kernel threads, a neighbour the host schedules onto
/// the same physical core) halves the speed of one thread, and every
/// phase that waits for its slowest thread measures that instead of the
/// program: two-thread recoveries and rounds took 1x or 2x their usual
/// time for minutes on end (README, "Steadiness").
///
/// Returns the cores the process could use before the call. Does nothing
/// where the mask cannot be read or set.
pub fn leave_one_core() -> usize {
    let before = usable_cores();
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; affinity::WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of `bytes` bytes, which
        // is what both calls are told; pid 0 is the calling thread (the
        // only one this early in `main`).
        let read = unsafe { affinity::sched_getaffinity(0, bytes, mask.as_mut_ptr()) };
        let allowed: u32 = mask.iter().map(|w| w.count_ones()).sum();
        if read == 0 && allowed > 1 {
            if let Some(word) = mask.iter_mut().find(|w| **w != 0) {
                *word &= *word - 1; // clear the lowest set bit
            }
            // SAFETY: as above; the mask still names at least one CPU.
            unsafe { affinity::sched_setaffinity(0, bytes, mask.as_ptr()) };
        }
    }
    before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_live_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(rss_mib() > 0.0);
        assert!(peak_rss_mib() >= rss_mib() * 0.5);
        let before = cpu_secs();
        let mut x = 0u64;
        while cpu_secs() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_secs() > before);
        assert!(reactor_threads() >= 1 && reactor_threads() <= 4);
    }

    #[test]
    fn leaving_one_core_keeps_at_least_one() {
        // Only this test's thread gives up a core. (Not "one fewer": a CPU
        // quota below the mask's count hides the difference.)
        let before = leave_one_core();
        assert!(usable_cores() >= 1 && usable_cores() <= before);
    }
}
