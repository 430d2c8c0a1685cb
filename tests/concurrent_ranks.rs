//! Threaded stress over one shared storage node: many ranks on real OS
//! threads hammer the same [`Ssd`] through its NVMf target concurrently
//! (one namespace shard per rank), the node power-fails mid-run with
//! files never closed, every rank recovers by remounting, and every byte
//! is verified against the generator.
//!
//! This is the integration-level proof of the sharded data plane: no
//! whole-device lock means the threads really interleave on the target,
//! and per-shard FIFOs + the capacitor flush keep each rank's bytes
//! intact through the crash.

use std::sync::Arc;

use bytes::Bytes;
use fabric::{Initiator, NvmfTarget};
use microfs::{FsConfig, MicroFs, OpenFlags};
use nvmecr::dataplane::NvmfBlockDevice;
use ssd::{Ssd, SsdConfig};
use telemetry::Telemetry;
use workloads::CoMD;

const RANKS: u32 = 12;
const SEGMENT: u64 = 64 << 20;
const PAYLOAD: usize = 3 << 20;

fn rank_device(
    target: &Arc<NvmfTarget>,
    ns: ssd::NsId,
    rank: u32,
    t: &Telemetry,
) -> NvmfBlockDevice {
    let conn = Initiator::with_telemetry(format!("nqn.2026-08.io.nvmecr:rank{rank}"), t.clone())
        .connect(Arc::clone(target), ns);
    NvmfBlockDevice::new(conn, 0, SEGMENT)
}

#[test]
fn concurrent_ranks_survive_node_crash_byte_for_byte() {
    let comd = CoMD::weak_scaling();
    // Private registry: exact counter assertions below must not see
    // traffic from other tests in this process.
    let telemetry = Telemetry::new();
    let ssd = Arc::new(Ssd::with_telemetry(
        SsdConfig {
            capacity: 4 << 30,
            // Keep plenty of writes volatile in device RAM at crash time so
            // recovery actually depends on the capacitor flush.
            device_ram: 1 << 30,
            capacitor: true,
            ..SsdConfig::default()
        },
        telemetry.clone(),
    ));
    let target = Arc::new(NvmfTarget::new(Arc::clone(&ssd)));
    let namespaces: Vec<ssd::NsId> = (0..RANKS)
        .map(|_| ssd.create_namespace(SEGMENT).unwrap())
        .collect();

    // Phase 1: every rank on its own thread — format, write a checkpoint
    // through the data plane, fsync, then "crash" (drop without
    // close/unmount).
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let target = &target;
            let ns = namespaces[rank as usize];
            let comd = &comd;
            let telemetry = &telemetry;
            s.spawn(move || {
                let dev = rank_device(target, ns, rank, telemetry);
                let mut fs = MicroFs::format(dev, FsConfig::default()).unwrap();
                fs.mkdir("/comd", 0o755).unwrap();
                fs.mkdir("/comd/ckpt_000", 0o755).unwrap();
                let payload = comd.checkpoint_payload(rank, 0, PAYLOAD);
                let fd = fs.create(&CoMD::checkpoint_path(rank, 0), 0o644).unwrap();
                for chunk in payload.chunks(1 << 20) {
                    fs.write(fd, chunk).unwrap();
                }
                fs.fsync(fd).unwrap();
                // No close, no unmount: the rank dies here.
            });
        }
    });

    // Every rank moved real bytes through a distinct shard of the one
    // device; the only data-path copies are initiator staging and the
    // device's drain-to-media pass.
    assert!(telemetry.snapshot().counter("ssd.bytes_copied") > RANKS as u64 * PAYLOAD as u64);
    for &ns in &namespaces {
        let (writes, _, bytes_written, _) = ssd.ns_io_counters(ns);
        assert!(writes > 0);
        assert!(bytes_written >= PAYLOAD as u64);
    }

    // The storage node loses power: capacitor-backed RAM drains to media.
    let pf = ssd.power_failure();
    assert_eq!(pf.lost_bytes, 0, "capacitor must flush every volatile byte");

    // Phase 2: recovery, again fully threaded — remount (replaying each
    // rank's WAL) and verify the checkpoint byte-for-byte.
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let target = &target;
            let ns = namespaces[rank as usize];
            let comd = &comd;
            let telemetry = &telemetry;
            s.spawn(move || {
                let dev = rank_device(target, ns, rank, telemetry);
                let mut fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
                let expect = comd.checkpoint_payload(rank, 0, PAYLOAD);
                let fd = fs
                    .open(&CoMD::checkpoint_path(rank, 0), OpenFlags::RDONLY, 0)
                    .unwrap();
                let mut buf = vec![0u8; PAYLOAD];
                let mut got = 0;
                while got < PAYLOAD {
                    let n = fs.read(fd, &mut buf[got..]).unwrap();
                    assert!(n > 0, "rank {rank}: short read at {got}");
                    got += n;
                }
                fs.close(fd).unwrap();
                assert_eq!(buf, expect, "rank {rank}: payload corrupted by crash");
            });
        }
    });
}

#[test]
fn concurrent_bytes_writes_share_one_device_without_staging_copies() {
    // The raw zero-copy path under thread pressure: Bytes payloads from
    // many threads into per-rank shards of one device, no fs in between.
    let telemetry = Telemetry::new();
    let ssd = Arc::new(Ssd::with_telemetry(
        SsdConfig {
            capacity: 2 << 30,
            ..SsdConfig::default()
        },
        telemetry.clone(),
    ));
    let target = Arc::new(NvmfTarget::new(Arc::clone(&ssd)));
    let namespaces: Vec<ssd::NsId> = (0..8)
        .map(|_| ssd.create_namespace(16 << 20).unwrap())
        .collect();
    let chunk = 256 * 1024;
    std::thread::scope(|s| {
        for (rank, &ns) in namespaces.iter().enumerate() {
            let target = &target;
            let telemetry = &telemetry;
            s.spawn(move || {
                let mut conn =
                    Initiator::with_telemetry(format!("nqn.zero{rank}"), telemetry.clone())
                        .connect(Arc::clone(target), ns);
                for i in 0..8u64 {
                    let payload = Bytes::from(vec![rank as u8 ^ i as u8; chunk]);
                    conn.write_bytes(i * chunk as u64, payload).unwrap();
                }
                conn.flush().unwrap();
                for i in 0..8u64 {
                    let got = conn.read_bytes(i * chunk as u64, chunk).unwrap();
                    assert_eq!(&got[..], &vec![rank as u8 ^ i as u8; chunk][..]);
                }
            });
        }
    });
    // Neither the Bytes write path nor read_bytes may stage a copy on the
    // initiator: exactly one copy per written byte, the drain to media.
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter("fabric.bytes_copied"),
        0,
        "Bytes paths must not stage"
    );
    let written = 8 * 8 * chunk as u64;
    assert_eq!(snap.counter("ssd.bytes_copied"), written);
}
