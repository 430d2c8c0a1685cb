//! Crash/recovery integration over the full functional stack: real bytes
//! through NVMf into SSD-backed microfs partitions, process crashes, node
//! power failures, and cascading-failure policy decisions.

use cluster::{FaultInjector, FaultKind, JobRequest, NodeId, Scheduler, Topology};
use microfs::crc::crc32;
use microfs::inode::InodeKind;
use microfs::manifest::REGION_BYTES;
use microfs::{BlockDevice, IntervalSet, MicroFs, OpenFlags};
use nvmecr::multilevel::{CheckpointLevel, MultiLevelPolicy};
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::RuntimeConfig;
use proptest::prelude::*;
use simkit::SimTime;
use ssd::SsdConfig;
use workloads::CoMD;

fn testbed(
    procs: u32,
    capacitor: bool,
) -> (StorageRack, Topology, cluster::JobAllocation, RuntimeConfig) {
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            capacitor,
            ..SsdConfig::default()
        },
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched.submit(&JobRequest::full_subscription(procs)).unwrap();
    let config = RuntimeConfig {
        namespace_bytes: 4 << 30,
        ..RuntimeConfig::default()
    };
    (rack, topo, alloc, config)
}

fn dump(rt: &mut NvmeCrRuntime, rank: u32, ckpt: u32, data: &[u8]) {
    let fs = rt.rank_fs(rank).unwrap();
    fs.mkdir("/comd", 0o755).ok();
    fs.mkdir(&format!("/comd/ckpt_{ckpt:03}"), 0o755).unwrap();
    let fd = fs
        .create(&CoMD::checkpoint_path(rank, ckpt), 0o644)
        .unwrap();
    fs.write(fd, data).unwrap();
    fs.close(fd).unwrap();
}

fn read_back(rt: &mut NvmeCrRuntime, rank: u32, ckpt: u32, len: usize) -> Vec<u8> {
    let fs = rt.rank_fs(rank).unwrap();
    let fd = fs
        .open(&CoMD::checkpoint_path(rank, ckpt), OpenFlags::RDONLY, 0)
        .unwrap();
    let mut buf = vec![0u8; len];
    let mut got = 0;
    while got < len {
        let n = fs.read(fd, &mut buf[got..]).unwrap();
        if n == 0 {
            break;
        }
        got += n;
    }
    fs.close(fd).unwrap();
    assert_eq!(got, len, "short read for rank {rank}");
    buf
}

#[test]
fn every_rank_crash_recovers_with_exact_bytes() {
    let (rack, topo, alloc, config) = testbed(56, true);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let comd = CoMD::weak_scaling();
    let len = 300_000usize;
    for rank in 0..56 {
        dump(&mut rt, rank, 0, &comd.checkpoint_payload(rank, 0, len));
    }
    // Crash *every* rank (job-wide failure), then recover all.
    for rank in 0..56 {
        rt.crash_rank(rank).unwrap();
    }
    for rank in 0..56 {
        rt.recover_rank(rank).unwrap();
    }
    for rank in 0..56 {
        assert_eq!(
            read_back(&mut rt, rank, 0, len),
            comd.checkpoint_payload(rank, 0, len),
            "rank {rank} corrupted"
        );
    }
}

#[test]
fn recovered_rank_continues_checkpointing() {
    let (rack, topo, alloc, config) = testbed(56, true);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let comd = CoMD::weak_scaling();
    let len = 100_000usize;
    dump(&mut rt, 5, 0, &comd.checkpoint_payload(5, 0, len));
    rt.crash_rank(5).unwrap();
    rt.recover_rank(5).unwrap();
    // The recovered instance keeps working: next checkpoint, overwrite,
    // unlink of the old one.
    dump(&mut rt, 5, 1, &comd.checkpoint_payload(5, 1, len));
    assert_eq!(
        read_back(&mut rt, 5, 1, len),
        comd.checkpoint_payload(5, 1, len)
    );
    let fs = rt.rank_fs(5).unwrap();
    fs.unlink(&CoMD::checkpoint_path(5, 0)).unwrap();
    assert!(fs.stat(&CoMD::checkpoint_path(5, 0)).is_err());
    // Crash again after the unlink: the unlink must survive replay too.
    rt.crash_rank(5).unwrap();
    rt.recover_rank(5).unwrap();
    let fs = rt.rank_fs(5).unwrap();
    assert!(fs.stat(&CoMD::checkpoint_path(5, 0)).is_err());
    assert!(fs.stat(&CoMD::checkpoint_path(5, 1)).is_ok());
}

#[test]
fn capacitor_backed_power_failure_loses_nothing() {
    let (rack, topo, alloc, config) = testbed(56, true);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let comd = CoMD::weak_scaling();
    let len = 200_000usize;
    for rank in 0..56 {
        dump(&mut rt, rank, 0, &comd.checkpoint_payload(rank, 0, len));
    }
    // Power-fail every storage node (enhanced power-loss protection on).
    let lost = rack.power_fail_nodes(&topo.storage_nodes());
    assert_eq!(lost, 0, "capacitors must flush volatile data");
    // Processes also die; recover and verify.
    for rank in 0..56 {
        rt.crash_rank(rank).unwrap();
        rt.recover_rank(rank).unwrap();
    }
    for rank in (0..56).step_by(7) {
        assert_eq!(
            read_back(&mut rt, rank, 0, len),
            comd.checkpoint_payload(rank, 0, len)
        );
    }
}

#[test]
fn unprotected_device_loses_volatile_data_on_power_failure() {
    let (rack, topo, alloc, config) = testbed(56, false);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    // Write enough that some bytes are still in device RAM.
    let fs = rt.rank_fs(0).unwrap();
    let fd = fs.create("/v.dat", 0o644).unwrap();
    fs.write(fd, &[7u8; 64 << 10]).unwrap();
    fs.close(fd).unwrap();
    let lost = rack.power_fail_nodes(&topo.storage_nodes());
    assert!(lost > 0, "without capacitors volatile bytes must be lost");
}

#[test]
fn cascading_failure_policy_selects_parallel_tier() {
    // Fault injection says a whole domain died; the multi-level policy
    // must fall back to the Lustre checkpoint.
    let topo = Topology::paper_testbed();
    let mut inj = FaultInjector::new(&topo, 42, SimTime::secs(3_000.0), 1.0);
    let events = inj.schedule(&topo, SimTime::secs(30_000.0));
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| matches!(e.kind, FaultKind::Domain(_))));
    let policy = MultiLevelPolicy::new(10);
    // 17 checkpoints taken; domain failure hits the fast tier.
    assert_eq!(policy.recovery_point(17, false), Some(10));
    assert_eq!(policy.level_for(10), CheckpointLevel::Parallel);
    assert_eq!(policy.lost_intervals(17, false), 7);
    // Same failure with the fast tier intact (failure hit a non-partner
    // domain): no rollback at all.
    assert_eq!(policy.lost_intervals(17, true), 0);
}

#[test]
fn torn_final_write_never_corrupts_completed_checkpoints() {
    // §III-E: "a completely written checkpoint file will never hold
    // corrupted data". Write ckpt 0 fully, then half of ckpt 1 and crash
    // WITHOUT closing: ckpt 0 must verify; ckpt 1's logged prefix must be
    // intact too (stronger-than-POSIX durability).
    let (rack, topo, alloc, config) = testbed(56, true);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let comd = CoMD::weak_scaling();
    let len = 128_000usize;
    dump(&mut rt, 3, 0, &comd.checkpoint_payload(3, 0, len));
    let half = comd.checkpoint_payload(3, 1, len / 2);
    {
        let fs = rt.rank_fs(3).unwrap();
        fs.mkdir("/comd/ckpt_001", 0o755).unwrap();
        let fd = fs.create(&CoMD::checkpoint_path(3, 1), 0o644).unwrap();
        fs.write(fd, &half).unwrap();
        // No close, no fsync — crash now.
    }
    rt.crash_rank(3).unwrap();
    rt.recover_rank(3).unwrap();
    assert_eq!(
        read_back(&mut rt, 3, 0, len),
        comd.checkpoint_payload(3, 0, len)
    );
    let fs = rt.rank_fs(3).unwrap();
    let st = fs.stat(&CoMD::checkpoint_path(3, 1)).unwrap();
    assert_eq!(st.size, (len / 2) as u64, "logged prefix must be replayed");
    assert_eq!(read_back(&mut rt, 3, 1, len / 2), half);
}

/// A rep=2 testbed: `procs` ranks share one grant namespace of
/// `namespace_bytes`, so each rank's segment is `namespace_bytes / procs`.
fn replicated_testbed(
    procs: u32,
    namespace_bytes: u64,
    delta_chain_max: u32,
) -> (StorageRack, Topology, cluster::JobAllocation, RuntimeConfig) {
    let (rack, topo, alloc, config) = testbed(procs, true);
    let config = RuntimeConfig {
        namespace_bytes,
        replication_factor: 2,
        delta_chain_max,
        ..config
    };
    (rack, topo, alloc, config)
}

/// Bytes each storage node's SSDs have served to reads so far.
fn bytes_read_by_node(rack: &StorageRack, topo: &Topology) -> Vec<(NodeId, u64)> {
    topo.storage_nodes()
        .into_iter()
        .map(|n| {
            let targets = rack.targets_on(n);
            (
                n,
                targets
                    .iter()
                    .map(|(_, t)| t.device().io_counters().3)
                    .sum(),
            )
        })
        .collect()
}

/// Bytes read since `before` on every storage node but `skip`.
fn bytes_read_since(
    before: &[(NodeId, u64)],
    after: &[(NodeId, u64)],
    skip: Option<NodeId>,
) -> u64 {
    before
        .iter()
        .zip(after)
        .filter(|((n, _), _)| Some(*n) != skip)
        .map(|((_, b), (_, a))| a - b)
        .sum()
}

fn live_bytes(rt: &mut NvmeCrRuntime, rank: u32) -> u64 {
    let fs = rt.rank_fs(rank).unwrap();
    fs.live_spans().iter().map(|&(_, len)| len).sum()
}

#[test]
fn recovery_reads_the_log_only_up_to_its_tail() {
    // Two unreplicated ranks share a 512 MiB grant, so rank 0's segment
    // is 256 MiB with a log region of about 2.6 MiB. The mount reads the
    // superblock, the snapshot and the log up to its tail: a 1 MiB image
    // recovers in well under the log region's size.
    let (rack, topo, alloc, config) = testbed(2, true);
    let config = RuntimeConfig {
        namespace_bytes: 512 << 20,
        ..config
    };
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    assert!(rt.rank_fs(0).unwrap().device().size() >= 255 << 20);
    let comd = CoMD::weak_scaling();
    let len = 1 << 20;
    dump(&mut rt, 0, 0, &comd.checkpoint_payload(0, 0, len));
    rt.crash_rank(0).unwrap();
    let before = bytes_read_by_node(&rack, &topo);
    rt.recover_ranks(&[0]).unwrap();
    let read = bytes_read_since(&before, &bytes_read_by_node(&rack, &topo), None);
    assert!(
        read <= 256 << 10,
        "recovering a 1 MiB image read {read} bytes of its 256 MiB segment"
    );
    assert_eq!(
        read_back(&mut rt, 0, 0, len),
        comd.checkpoint_payload(0, 0, len)
    );
}

#[test]
fn replicated_recovery_reads_only_live_bytes() {
    // Two ranks share a 512 MiB grant: each rank's segment is 256 MiB,
    // of which about 1 MiB is live. Recovery reads the superblock, the
    // snapshot, the log up to its tail, the ring's commit records and the
    // bodies they seal, and the live bytes it rescans for the mirror map:
    // the image plus well under 512 KiB, never the whole segment, the
    // whole log region or the whole manifest ring.
    let (rack, topo, alloc, config) = replicated_testbed(2, 512 << 20, 0);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    assert!(rt.rank_fs(0).unwrap().device().size() >= 255 << 20);
    let comd = CoMD::weak_scaling();
    let len = 1 << 20;
    dump(&mut rt, 0, 0, &comd.checkpoint_payload(0, 0, len));
    rt.commit_epochs().unwrap();
    rt.crash_rank(0).unwrap();
    let before = bytes_read_by_node(&rack, &topo);
    rt.recover_ranks(&[0]).unwrap();
    let read = bytes_read_since(&before, &bytes_read_by_node(&rack, &topo), None);
    assert!(
        read <= len as u64 + (512 << 10),
        "recovering a 1 MiB image read {read} bytes of its 256 MiB segment"
    );
    assert_eq!(
        read_back(&mut rt, 0, 0, len),
        comd.checkpoint_payload(0, 0, len)
    );
}

#[test]
fn failover_of_a_recovered_rank_restores_only_live_bytes() {
    // A recovered rank's mirror map is its live footprint, so when its
    // primary shard later dies the restore copies the live bytes plus
    // the manifest ring's sealed records and bodies off the replica, not
    // the rescanned segment and not the whole 1 MiB ring.
    let (rack, topo, alloc, config) = replicated_testbed(2, 512 << 20, 0);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let comd = CoMD::weak_scaling();
    let len = 1 << 20;
    dump(&mut rt, 0, 0, &comd.checkpoint_payload(0, 0, len));
    rt.commit_epochs().unwrap();
    rt.crash_rank(0).unwrap();
    rt.recover_ranks(&[0]).unwrap();
    dump(&mut rt, 0, 1, &comd.checkpoint_payload(0, 1, len));
    rt.commit_epoch_rank(0).unwrap();
    let live = live_bytes(&mut rt, 0);
    assert!(live < 4 << 20, "live footprint {live}");

    rt.kill_primary_shard(0).unwrap();
    let old_home = rt.rank_storage_node(0).unwrap();
    let before = bytes_read_by_node(&rack, &topo);
    rt.fail_over_rank(0, &rack, &topo).unwrap();
    let new_home = rt.rank_storage_node(0).unwrap();
    assert_ne!(new_home, old_home);
    // Reads everywhere but the new home are the replica's (the dead
    // shard serves none).
    let after = bytes_read_by_node(&rack, &topo);
    let replica_read = bytes_read_since(&before, &after, Some(new_home));
    assert!(
        replica_read >= 2 * len as u64,
        "both checkpoints come off the replica ({replica_read} bytes read)"
    );
    assert!(
        replica_read <= live + REGION_BYTES / 16,
        "restore read {replica_read} bytes off the replica, live footprint is {live}"
    );
    for ckpt in 0..2 {
        assert_eq!(
            read_back(&mut rt, 0, ckpt, len),
            comd.checkpoint_payload(0, ckpt, len)
        );
    }
}

const PROP_FILES: [&str; 4] = ["/f0", "/f1", "/d/f2", "/d/f3"];

/// `(kind, file, offset or size, length, fill)`; kind 8 seals an epoch.
type PropOp = (u8, usize, u64, usize, u8);

/// One step of the differential workload below; every error is ignored
/// (both twins see the same one) and no descriptor stays open.
fn apply_op<D: BlockDevice>(fs: &mut MicroFs<D>, (kind, file, at, len, fill): PropOp) {
    let path = PROP_FILES[file];
    let data: Vec<u8> = (0..len).map(|i| fill ^ (i % 251) as u8).collect();
    let rdwr_create = OpenFlags {
        create: true,
        ..OpenFlags::RDWR
    };
    match kind {
        0 | 1 => {
            if let Ok(fd) = fs.create(path, 0o644) {
                let _ = fs.write(fd, &data);
                let _ = fs.close(fd);
            }
        }
        2 | 3 => {
            if let Ok(fd) = fs.open(path, rdwr_create, 0o644) {
                let _ = fs.pwrite(fd, at, &data);
                let _ = fs.close(fd);
            }
        }
        4 => {
            if let Ok(fd) = fs.open(path, OpenFlags::RDWR, 0) {
                let _ = fs.ftruncate(fd, at);
                let _ = fs.close(fd);
            }
        }
        5 => {
            let _ = fs.unlink(path);
        }
        6 => {
            let _ = fs.rename(path, PROP_FILES[(file + 1 + at as usize % 3) % 4]);
        }
        _ => {
            let _ = fs.snapshot_now();
        }
    }
}

/// Every path with its size and the CRC-32 of its bytes (files) or of its
/// `readdir` listing (directories).
fn tree<D: BlockDevice>(fs: &mut MicroFs<D>) -> Vec<(String, u64, u32)> {
    let mut out = Vec::new();
    let mut dirs = vec!["/".to_string()];
    while let Some(dir) = dirs.pop() {
        let names = fs.readdir(&dir).unwrap();
        out.push((
            dir.clone(),
            fs.stat(&dir).unwrap().size,
            crc32(names.join("/").as_bytes()),
        ));
        for name in names {
            let path = format!("{}/{name}", dir.trim_end_matches('/'));
            let st = fs.stat(&path).unwrap();
            if st.kind == InodeKind::Dir {
                dirs.push(path);
                continue;
            }
            let fd = fs.open(&path, OpenFlags::RDONLY, 0).unwrap();
            let mut bytes = vec![0u8; st.size as usize];
            assert_eq!(fs.pread(fd, 0, &mut bytes).unwrap(), bytes.len());
            fs.close(fd).unwrap();
            out.push((path, st.size, crc32(&bytes)));
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rank 0 and its never-crashed twin rank 1 run the same random
    /// create/write/pwrite/ftruncate/unlink/rename/snapshot/seal sequence.
    /// Rank 0 then crashes and recovers (its mirror map is rescanned from
    /// the live footprint and must cover exactly `live_spans()`), seals
    /// one epoch, crashes again and is restored onto a fresh primary from
    /// the replica. The restored image mounts to the twin's tree, sizes
    /// and bytes, directory files included.
    #[test]
    fn prop_recovered_mirror_restores_like_a_never_crashed_twin(
        delta_chain in prop_oneof![Just(0u32), Just(4u32)],
        ops in proptest::collection::vec(
            (0u8..9, 0usize..4, 0u64..160_000, 1usize..50_000, any::<u8>()),
            1..24,
        ),
    ) {
        let (rack, topo, alloc, config) = replicated_testbed(2, 64 << 20, delta_chain);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        for rank in 0..2 {
            rt.rank_fs(rank).unwrap().mkdir("/d", 0o755).unwrap();
        }
        for &op in &ops {
            if op.0 == 8 {
                rt.commit_epochs().unwrap();
                continue;
            }
            for rank in 0..2 {
                apply_op(rt.rank_fs(rank).unwrap(), op);
            }
        }
        rt.crash_rank(0).unwrap();
        rt.recover_ranks(&[0]).unwrap();
        {
            let fs = rt.rank_fs(0).unwrap();
            let mut mapped = IntervalSet::new();
            for (offset, len, _) in fs.device().mirror().unwrap().map().entries() {
                mapped.insert(offset, offset + len);
            }
            prop_assert_eq!(mapped.spans(), fs.live_spans());
        }
        rt.commit_epoch_rank(0).unwrap();
        rt.crash_rank(0).unwrap();
        rt.fail_over_rank(0, &rack, &topo).unwrap();
        let restored = tree(rt.rank_fs(0).unwrap());
        let twin = tree(rt.rank_fs(1).unwrap());
        prop_assert_eq!(restored, twin);
    }
}
