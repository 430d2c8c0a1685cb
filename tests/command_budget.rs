//! What the instrument and its throwaway buffers cost one NVMf command and
//! one microfs op, held to a budget.
//!
//! The command path (initiator window → target → ssd shard) reads the
//! wall clock once when a window opens and once when each command
//! completes. The nested stage timers (`fabric.capsule_*`,
//! `fabric.target_*`, `ssd.*`, `microfs.*` stage histograms) are sampled:
//! they read the clock twice on one call in `SAMPLE_PERIOD` per thread,
//! which each histogram's `samples` reports. The clock counts come from
//! `telemetry::clock_reads`, so those tests run in debug builds (the
//! tier-1 `cargo test`). Allocations are counted by this binary's own
//! global allocator, per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use fabric::{FabricConfig, Initiator, NvmfConnection, NvmfTarget};
use ssd::{Ssd, SsdConfig};
use telemetry::Telemetry;

/// Counts the allocations the current thread asks for.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only bumps a
// const-initialized thread-local `Cell` (no destructor, no allocation),
// and `try_with` skips it once the thread's locals are gone.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Commands issued before any count, so queues, the replay cache and the
/// device's staging RAM reach their steady state.
const WARMUP: u64 = 512;

/// A connection to one 64 MiB namespace, everything reporting into a
/// private registry.
fn connection() -> (NvmfConnection, Telemetry) {
    let t = Telemetry::new();
    let ssd = Ssd::with_telemetry(
        SsdConfig {
            capacity: 128 << 20,
            ..SsdConfig::default()
        },
        t.clone(),
    );
    let ns = ssd.create_namespace(64 << 20).unwrap();
    let target = Arc::new(NvmfTarget::new(Arc::new(ssd)));
    let init = Initiator::with_config(
        "nqn.budget",
        t.clone(),
        chaos::ChaosHandle::default(),
        FabricConfig::default(),
    );
    (init.connect(target, ns), t)
}

/// One 64-byte write per call at QD=1, `n` of them from command `first`.
fn qd1_writes(conn: &mut NvmfConnection, payload: &Bytes, first: u64, n: u64) {
    for i in first..first + n {
        conn.write_bytes(i * 64, payload.clone()).unwrap();
    }
}

#[test]
fn an_empty_bytes_allocates_nothing() {
    let before = allocs();
    let empty = std::hint::black_box(Bytes::new());
    let cloned = empty.clone();
    assert_eq!(allocs() - before, 0);
    assert!(cloned.is_empty());
}

#[test]
fn a_64_byte_write_command_allocates_9_times() {
    let (mut conn, _t) = connection();
    let payload = Bytes::from(vec![0xA5u8; 64]);
    qd1_writes(&mut conn, &payload, 0, WARMUP);
    let n = 256;
    let before = allocs();
    qd1_writes(&mut conn, &payload, WARMUP, n);
    // 19 before empty buffers stopped allocating, headers were built on
    // the stack, and the send and gather paths stopped copying lists.
    let per_cmd = (allocs() - before + n / 2) / n;
    assert_eq!(per_cmd, 9, "allocations per 64-byte write command");
}

#[cfg(debug_assertions)]
mod clock {
    use super::*;
    use microfs::{FsConfig, MicroFs};
    use nvmecr::NvmfBlockDevice;
    use telemetry::clock_reads;

    /// The sampled stage histograms of the command path.
    const COMMAND_STAGES: &[&str] = &[
        "fabric.capsule_encode_ns",
        "fabric.capsule_decode_ns",
        "fabric.target_decode_ns",
        "fabric.target_handle_ns",
        "ssd.write_ns",
        "ssd.read_ns",
        "ssd.drain_ns",
    ];

    /// Kept values of the command path's stage histograms.
    fn stage_samples(t: &Telemetry) -> u64 {
        let snap = t.snapshot();
        COMMAND_STAGES
            .iter()
            .filter_map(|name| snap.histogram(name))
            .map(|h| h.samples)
            .sum()
    }

    fn submitted(t: &Telemetry) -> u64 {
        t.snapshot()
            .histogram("fabric.submit_ns")
            .map_or(0, |h| h.count)
    }

    /// Clock reads over `run`, split into the command boundaries' and the
    /// stage samples' (two reads per kept value).
    fn reads_over(t: &Telemetry, run: impl FnOnce()) -> (u64, u64) {
        let samples = stage_samples(t);
        let before = clock_reads();
        run();
        let reads = clock_reads() - before;
        let sample_reads = 2 * (stage_samples(t) - samples);
        (reads - sample_reads, sample_reads)
    }

    #[test]
    fn a_qd1_write_reads_the_clock_at_its_two_boundaries() {
        let (mut conn, t) = connection();
        let payload = Bytes::from(vec![0x5Au8; 64]);
        qd1_writes(&mut conn, &payload, 0, WARMUP);
        let n = 64;
        let (boundary, sampled) = reads_over(&t, || qd1_writes(&mut conn, &payload, WARMUP, n));
        assert_eq!(
            boundary,
            2 * n,
            "one open and one completion stamp per command"
        );
        // Five stage timers per command (capsule encode and decode,
        // target decode and handle, shard write), each kept on one call in
        // 16: the whole instrument costs 2.625 reads per command.
        assert_eq!(sampled, 2 * 5 * n / 16);
    }

    #[test]
    fn a_32_command_window_reads_the_clock_33_times() {
        let (mut conn, t) = connection();
        let payload = Bytes::from(vec![0x3Cu8; 64]);
        qd1_writes(&mut conn, &payload, 0, WARMUP);
        let window: Vec<(u64, Bytes)> = (0..32).map(|i| (i * 64, payload.clone())).collect();
        let (boundary, _) = reads_over(&t, || conn.write_vectored_bytes(window).unwrap());
        assert_eq!(
            boundary, 33,
            "one open stamp per window, one completion stamp per command"
        );
    }

    #[test]
    fn the_meta_churn_op_mix_reads_the_clock_at_most_twice_per_op() {
        let (conn, t) = connection();
        let dev = NvmfBlockDevice::new(conn, 0, 64 << 20);
        let mut fs = MicroFs::format(
            dev,
            FsConfig {
                telemetry: t.clone(),
                ..FsConfig::default()
            },
        )
        .unwrap();
        fs.mkdir("/d", 0o755).unwrap();
        let payload = [0x77u8; 512];
        let mut ops = 0u64;
        let commands = submitted(&t);
        let fabric_samples = stage_samples(&t);
        let before = clock_reads();
        for i in 0..64 {
            let (tmp, name) = (format!("/d/f{i}.tmp"), format!("/d/f{i}"));
            let fd = fs.create(&tmp, 0o644).unwrap();
            fs.write(fd, &payload).unwrap();
            fs.fsync(fd).unwrap();
            fs.close(fd).unwrap();
            fs.stat(&tmp).unwrap();
            fs.rename(&tmp, &name).unwrap();
            ops += 6;
            if i % 2 == 1 {
                fs.unlink(&name).unwrap();
                ops += 1;
            }
        }
        let reads = clock_reads() - before;
        let commands = submitted(&t) - commands;
        let command_reads = 2 * commands + 2 * (stage_samples(&t) - fabric_samples);
        let op_reads = reads - command_reads;
        assert!(
            op_reads <= 2 * ops,
            "{op_reads} clock reads over {ops} microfs ops on top of {commands} commands"
        );
    }
}
