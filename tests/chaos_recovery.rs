//! Checkpointing under injected data-path faults: every scenario drives
//! real bytes through the full stack (microfs → NVMf capsules → SSD
//! shards) with a deterministic fault plan armed, and asserts that each
//! checkpoint either completes byte-identically (the reliability layer
//! absorbed the fault) or rolls back along the multi-level policy (the
//! fault was by design unabsorbable at the fast tier).

use bytes::Bytes;
use chaos::{ChaosHandle, FaultAction, FaultPlan, Site};
use cluster::{JobRequest, Scheduler, Topology};
use microfs::{FsConfig, FsError, MemDevice, MicroFs, OpenFlags};
use nvmecr::multilevel::MultiLevelPolicy;
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::{RecoveryPolicy, RecoverySupervisor, RuntimeConfig};
use ssd::{Ssd, SsdConfig};
use telemetry::Telemetry;

/// A paper-testbed runtime whose initiators and filesystems report into a
/// private registry and consult `chaos` on every data-path operation.
fn chaos_testbed(
    procs: u32,
) -> (
    StorageRack,
    Topology,
    cluster::JobAllocation,
    RuntimeConfig,
    ChaosHandle,
    Telemetry,
) {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched.submit(&JobRequest::full_subscription(procs)).unwrap();
    let config = RuntimeConfig {
        namespace_bytes: 4 << 30,
        telemetry: telemetry.clone(),
        chaos: chaos.clone(),
        ..RuntimeConfig::default()
    };
    (rack, topo, alloc, config, chaos, telemetry)
}

fn pattern(rank: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(rank * 7) % 251) as u8)
        .collect()
}

fn checkpoint(rt: &mut NvmeCrRuntime, rank: u32, name: &str, data: &[u8]) {
    let fs = rt.rank_fs(rank).unwrap();
    let fd = fs.create(name, 0o644).unwrap();
    fs.write(fd, data).unwrap();
    fs.close(fd).unwrap();
}

fn read_back(rt: &mut NvmeCrRuntime, rank: u32, name: &str, len: usize) -> Vec<u8> {
    let fs = rt.rank_fs(rank).unwrap();
    let fd = fs.open(name, OpenFlags::RDONLY, 0).unwrap();
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
    assert_eq!(got, len);
    buf
}

#[test]
fn checkpoints_survive_one_percent_capsule_corruption() {
    let (rack, topo, alloc, config, chaos, telemetry) = chaos_testbed(56);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    // 1% of command capsules and 1% of response capsules arrive corrupted.
    chaos.arm(
        FaultPlan::new(42)
            .with_rate(Site::CapsuleTx, FaultAction::CorruptPayload, 0.01)
            .with_rate(Site::CapsuleRx, FaultAction::CorruptPayload, 0.01),
        &telemetry,
    );
    let len = 256 << 10;
    for rank in 0..8u32 {
        checkpoint(&mut rt, rank, "/ckpt.dat", &pattern(rank, len));
    }
    for rank in 0..8u32 {
        assert_eq!(
            read_back(&mut rt, rank, "/ckpt.dat", len),
            pattern(rank, len),
            "rank {rank} checkpoint must be byte-identical under corruption"
        );
    }
    chaos.disarm();
    let snap = telemetry.snapshot();
    assert!(snap.counter("chaos.injected") > 0, "plan must have fired");
    assert!(
        snap.counter("fabric.crc_errors") > 0,
        "wire CRC must have caught corrupted capsules"
    );
    assert!(
        snap.counter("fabric.retries") > 0,
        "corrupted commands must have been retried"
    );
}

#[test]
fn checkpoints_survive_connection_resets() {
    let (rack, topo, alloc, config, chaos, telemetry) = chaos_testbed(56);
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    // 2% of commands observe their connection torn down mid-flight.
    chaos.arm(
        FaultPlan::new(7).with_rate(Site::ConnReset, FaultAction::ResetConnection, 0.02),
        &telemetry,
    );
    let len = 128 << 10;
    for rank in 0..6u32 {
        checkpoint(&mut rt, rank, "/resets.dat", &pattern(rank, len));
    }
    for rank in 0..6u32 {
        assert_eq!(
            read_back(&mut rt, rank, "/resets.dat", len),
            pattern(rank, len)
        );
    }
    chaos.disarm();
    let snap = telemetry.snapshot();
    assert!(
        snap.counter("fabric.reconnects") > 0,
        "resets must reconnect"
    );
    let h = snap.histogram("fabric.reconnect_ns").unwrap();
    assert_eq!(
        h.count,
        snap.counter("fabric.reconnects"),
        "every reconnect is timed"
    );
}

/// One faulted checkpoint round at window depth `queue_depth`: 4 KiB
/// blocks (so a 256 KiB checkpoint crosses the fabric as 64+ commands per
/// submission window), 1% capsule corruption in both directions, 2%
/// connection resets, and one duplicated command capsule. After the
/// initial checkpoint, each rank overwrites the first half of its file —
/// the overwrite and the original land through the same pipelined window,
/// so the read-back also proves submission-order retirement. Returns every
/// rank's recovered bytes plus the run's telemetry.
fn faulted_deep_window_round(
    queue_depth: usize,
    seed: u64,
) -> (Vec<Vec<u8>>, telemetry::MetricsSnapshot) {
    let (rack, topo, alloc, mut config, chaos, telemetry) = chaos_testbed(56);
    config.fabric.queue_depth = queue_depth;
    config.block_size = 4 << 10;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    chaos.arm(
        FaultPlan::new(seed)
            .at_op(Site::CapsuleTx, FaultAction::DuplicateCapsule, 10)
            .with_rate(Site::CapsuleTx, FaultAction::CorruptPayload, 0.01)
            .with_rate(Site::CapsuleRx, FaultAction::CorruptPayload, 0.01)
            .with_rate(Site::ConnReset, FaultAction::ResetConnection, 0.02),
        &telemetry,
    );
    let len = 256 << 10;
    for rank in 0..6u32 {
        checkpoint(&mut rt, rank, "/deep.dat", &pattern(rank, len));
        // Overwrite the first half through the same window: if completions
        // retired out of submission order, stale first-write extents could
        // surface in the read-back below.
        let fs = rt.rank_fs(rank).unwrap();
        let fd = fs.open("/deep.dat", OpenFlags::RDWR, 0).unwrap();
        fs.write(fd, &vec![0xEE; len / 2]).unwrap();
        fs.close(fd).unwrap();
    }
    let recovered: Vec<Vec<u8>> = (0..6u32)
        .map(|rank| read_back(&mut rt, rank, "/deep.dat", len))
        .collect();
    chaos.disarm();
    (recovered, telemetry.snapshot())
}

#[test]
fn deep_window_recovers_byte_identically_to_lockstep() {
    let expect: Vec<Vec<u8>> = (0..6u32)
        .map(|rank| {
            let len = 256 << 10;
            let mut v = pattern(rank, len);
            v[..len / 2].fill(0xEE);
            v
        })
        .collect();

    let (deep, deep_snap) = faulted_deep_window_round(32, 11);
    assert_eq!(deep, expect, "QD=32 recovery must be byte-identical");
    assert!(deep_snap.counter("chaos.injected") > 0, "plan must fire");
    assert!(
        deep_snap.counter("fabric.crc_errors") > 0 && deep_snap.counter("fabric.retries") > 0,
        "corruption must be caught and retried at depth"
    );
    assert!(
        deep_snap.counter("fabric.reconnects") > 0,
        "resets must reconnect at depth"
    );
    assert!(
        deep_snap.counter("fabric.duplicates_suppressed") >= 1,
        "the duplicated capsule must execute once (replay cache)"
    );

    // Same seed at QD=1 (the lock-step exchange the window replaced): the
    // recovered bytes must be identical — depth changes scheduling, never
    // contents.
    let (lockstep, lock_snap) = faulted_deep_window_round(1, 11);
    assert_eq!(lockstep, expect, "QD=1 recovery must be byte-identical too");
    assert_eq!(
        deep, lockstep,
        "window depth must not change recovered bytes"
    );
    assert!(lock_snap.counter("chaos.injected") > 0);
}

#[test]
fn power_cut_mid_drain_loses_tail_and_rolls_back_multilevel() {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let ssd = Ssd::with_telemetry(
        SsdConfig {
            capacity: 1 << 30,
            capacitor: true,
            chaos: chaos.clone(),
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let ns = ssd.create_namespace(64 << 20).unwrap();
    let shard = ssd.shard(ns).unwrap();
    for i in 0..4u64 {
        shard
            .write_bytes(i * 4096, Bytes::from(vec![i as u8; 4096]))
            .unwrap();
    }
    // The capacitor drain is interrupted after two staged writes.
    chaos.arm(
        FaultPlan::new(3).at_op(
            Site::CapacitorFlush,
            FaultAction::PowerCut { drain_writes: 2 },
            0,
        ),
        &telemetry,
    );
    let pf = ssd.power_failure();
    chaos.disarm();
    assert!(pf.flushed_bytes > 0, "the drain made partial progress");
    assert!(
        pf.lost_bytes > 0,
        "an interrupted drain loses the staged tail even with a capacitor"
    );
    // The fast tier is gone: the multi-level policy rolls the job back to
    // the last PFS-level checkpoint instead of the latest local one.
    let policy = MultiLevelPolicy::new(10);
    assert_eq!(policy.recovery_point(17, true), Some(17));
    assert_eq!(
        policy.recovery_point(17, false),
        Some(10),
        "with the fast tier lost, recovery rolls back to checkpoint 10"
    );
}

#[test]
fn torn_wal_append_recovers_prefix_exactly() {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let config = FsConfig {
        telemetry: telemetry.clone(),
        chaos: chaos.clone(),
        ..FsConfig::default()
    };
    let mut fs = MicroFs::format(MemDevice::new(64 << 20), config).unwrap();
    let data = pattern(0, 100_000);
    let fd = fs.create("/durable.dat", 0o644).unwrap();
    fs.write(fd, &data).unwrap();
    fs.close(fd).unwrap();
    // Power fails mid-append of the next operation's log record: only 6
    // bytes of the frame reach the device.
    chaos.arm(
        FaultPlan::new(9).at_op(Site::WalAppend, FaultAction::TornWrite { keep_bytes: 6 }, 0),
        &telemetry,
    );
    let torn = fs.create("/torn.dat", 0o644);
    assert!(
        matches!(torn, Err(FsError::Io(_))),
        "the torn append must surface as an IO error, got {torn:?}"
    );
    chaos.disarm();
    assert!(telemetry.snapshot().counter("chaos.injected") >= 1);
    // CRASH: drop all volatile state, keep the device; recovery replays the
    // log and must see the durable prefix exactly — and no trace of the
    // torn operation.
    let dev = fs.into_device();
    let mut fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
    assert!(fs.stat("/torn.dat").is_err(), "torn create never happened");
    assert_eq!(fs.stat("/durable.dat").unwrap().size, data.len() as u64);
    let fd = fs.open("/durable.dat", OpenFlags::RDONLY, 0).unwrap();
    let mut buf = vec![0u8; data.len()];
    let mut got = 0;
    while got < buf.len() {
        let n = fs.read(fd, &mut buf[got..]).unwrap();
        if n == 0 {
            break;
        }
        got += n;
    }
    assert_eq!(buf, data, "recovered bytes must be identical");
}

#[test]
fn shard_death_fails_over_and_recheckpoints() {
    // The shard-kill plan arms the *devices'* chaos handle (SsdConfig), not
    // the runtime's: the fault strikes below the fabric.
    let telemetry = Telemetry::new();
    let ssd_chaos = ChaosHandle::new();
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            chaos: ssd_chaos.clone(),
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched.submit(&JobRequest::full_subscription(56)).unwrap();
    let config = RuntimeConfig {
        namespace_bytes: 4 << 30,
        telemetry: telemetry.clone(),
        ..RuntimeConfig::default()
    };
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let len = 64 << 10;
    checkpoint(&mut rt, 5, "/before.dat", &pattern(5, len));

    // The next shard IO kills its shard permanently.
    ssd_chaos.arm(
        FaultPlan::new(1).at_op(Site::ShardIo, FaultAction::KillShard, 0),
        &telemetry,
    );
    let old_node = rt.rank_storage_node(5).unwrap();
    // The kill fires on the very first shard IO — the create's WAL append —
    // so any step of the doomed checkpoint may be the one that errors.
    let dead = {
        let fs = rt.rank_fs(5).unwrap();
        match fs.create("/doomed.dat", 0o644) {
            Err(_) => true,
            Ok(fd) => fs.write(fd, &pattern(5, len)).is_err() || fs.close(fd).is_err(),
        }
    };
    ssd_chaos.disarm();
    assert!(dead, "IO against a dead shard must fail, not hang or lie");

    // Runtime failover: a replacement namespace on a partner node, formatted
    // fresh; the re-issued checkpoint lands byte-identically.
    rt.fail_over_rank(5, &rack, &topo).unwrap();
    assert_ne!(rt.rank_storage_node(5).unwrap(), old_node);
    checkpoint(&mut rt, 5, "/after.dat", &pattern(5, len));
    assert_eq!(read_back(&mut rt, 5, "/after.dat", len), pattern(5, len));
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("driver.failovers"), 1);
    assert!(snap.counter("chaos.injected") >= 1);
}

/// A replicated (rep=2) paper testbed with two fault planes: device-level
/// faults (shard kills, media bit rot) arm `ssd_chaos` below the fabric,
/// wire-level faults arm the runtime handle carried in the config.
fn replicated_chaos_testbed() -> (
    StorageRack,
    Topology,
    cluster::JobAllocation,
    RuntimeConfig,
    ChaosHandle,
    ChaosHandle,
    Telemetry,
) {
    let telemetry = Telemetry::new();
    let ssd_chaos = ChaosHandle::new();
    let chaos = ChaosHandle::new();
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            chaos: ssd_chaos.clone(),
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 4);
    let alloc = sched.submit(&JobRequest::full_subscription(8)).unwrap();
    let config = RuntimeConfig {
        // Eight ranks share the single grant namespace: 32 MiB segments
        // keep the restore and scrub CRC walks cheap.
        namespace_bytes: 256 << 20,
        replication_factor: 2,
        telemetry: telemetry.clone(),
        chaos: chaos.clone(),
        ..RuntimeConfig::default()
    };
    (rack, topo, alloc, config, ssd_chaos, chaos, telemetry)
}

#[test]
fn replicated_restore_rolls_back_to_last_complete_epoch_under_chaos() {
    let (rack, topo, alloc, mut config, ssd_chaos, chaos, telemetry) = replicated_chaos_testbed();
    // Small blocks so the replica restore crosses the fabric as many
    // capsules — enough ops for the wire-fault plan below to fire.
    config.block_size = 64 << 10;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let len = 96 << 10;
    checkpoint(&mut rt, 3, "/sealed.dat", &pattern(3, len));
    rt.commit_epochs().unwrap();
    // Post-commit write: part of no complete epoch, so a manifest-driven
    // restore must roll it back rather than restore a torn half-epoch.
    checkpoint(&mut rt, 3, "/uncommitted.dat", &pattern(3, 32 << 10));
    // The rank crashes (its live extent map is gone), then the shared
    // grant shard dies permanently under a rank-0 write.
    rt.crash_rank(3).unwrap();
    ssd_chaos.arm(
        FaultPlan::new(5).at_op(Site::ShardIo, FaultAction::KillShard, 0),
        &telemetry,
    );
    let dead = {
        let fs = rt.rank_fs(0).unwrap();
        match fs.create("/doomed.dat", 0o644) {
            Err(_) => true,
            Ok(fd) => fs.write(fd, &[0u8; 4096]).is_err() || fs.close(fd).is_err(),
        }
    };
    ssd_chaos.disarm();
    assert!(dead, "IO against the killed shard must fail");
    // Failover and replica restore run under an active wire-fault plan:
    // corrupted capsules in both directions while the surviving copy is
    // streamed back and byte-verified against the manifest.
    let old_node = rt.rank_storage_node(3).unwrap();
    chaos.arm(
        FaultPlan::new(17)
            .with_rate(Site::CapsuleTx, FaultAction::CorruptPayload, 0.05)
            .with_rate(Site::CapsuleRx, FaultAction::CorruptPayload, 0.05),
        &telemetry,
    );
    rt.fail_over_rank(3, &rack, &topo).unwrap();
    chaos.disarm();
    assert_ne!(rt.rank_storage_node(3).unwrap(), old_node);
    assert_eq!(
        read_back(&mut rt, 3, "/sealed.dat", len),
        pattern(3, len),
        "the sealed epoch must restore byte-identically"
    );
    {
        let fs = rt.rank_fs(3).unwrap();
        assert!(
            fs.stat("/uncommitted.dat").is_err(),
            "post-commit writes roll back with the incomplete epoch"
        );
    }
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("driver.failovers"), 1);
    assert_eq!(
        snap.counter("replication.degraded_restores"),
        1,
        "a crashed rank has no live map — the restore is degraded"
    );
    assert!(snap.counter("chaos.injected") > 0, "both plans must fire");
    assert!(
        snap.counter("fabric.crc_errors") > 0,
        "the restore stream must have absorbed wire corruption"
    );
    // The rank is healthy again: both copies scrub clean and it seals a
    // fresh epoch on the replacement namespace.
    let report = rt.scrub_rank(3).unwrap().unwrap();
    assert_eq!(report.unrecoverable, 0);
    assert_eq!(report.repaired, 0);
    assert_eq!(rt.commit_epoch_rank(3).unwrap(), Some(2));
}

#[test]
fn scrub_repairs_bit_rot_and_reports_double_corruption() {
    let (rack, topo, alloc, config, ssd_chaos, _chaos, telemetry) = replicated_chaos_testbed();
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let len = 128 << 10;
    checkpoint(&mut rt, 2, "/scrubbed.dat", &pattern(2, len));
    rt.commit_epochs().unwrap();
    // Latent media corruption on the next shard read: the scrub's first
    // primary-extent read flips one stored bit, the CRC walk catches it,
    // and read-repair heals it from the intact replica.
    ssd_chaos.arm(
        FaultPlan::new(23).at_op(Site::ReplicaBitRot, FaultAction::CorruptPayload, 0),
        &telemetry,
    );
    let report = rt.scrub_rank(2).unwrap().unwrap();
    ssd_chaos.disarm();
    assert!(
        report.repaired >= 1,
        "bit rot must be repaired, got {report:?}"
    );
    assert_eq!(report.unrecoverable, 0);
    // The flip landed in the backing store; a clean re-scrub proves the
    // repair was written back, not merely observed.
    let report = rt.scrub_rank(2).unwrap().unwrap();
    assert_eq!(report.repaired, 0);
    assert_eq!(report.unrecoverable, 0);
    assert_eq!(read_back(&mut rt, 2, "/scrubbed.dat", len), pattern(2, len));
    // Seal another epoch: the commit flushes both copies, draining the
    // repair's bytes from device RAM to media — rot only bites durable
    // bytes (the volatile overlay masks flips in the backing store).
    assert_eq!(rt.commit_epoch_rank(2).unwrap(), Some(2));
    // Rot on every read strikes both copies of every extent: nothing
    // trustworthy is left to repair from, and the scrub must say so
    // rather than "heal" one corruption with another.
    ssd_chaos.arm(
        FaultPlan::new(29).with_rate(Site::ReplicaBitRot, FaultAction::CorruptPayload, 1.0),
        &telemetry,
    );
    let report = rt.scrub_rank(2).unwrap().unwrap();
    ssd_chaos.disarm();
    assert!(
        report.unrecoverable >= 1,
        "double corruption must be reported, got {report:?}"
    );
    assert_eq!(report.repaired, 0, "no copy is trustworthy to repair from");
    let snap = telemetry.snapshot();
    assert!(snap.counter("replication.repairs") >= 1);
    assert!(snap.counter("chaos.injected") >= 3);
}

/// A fast-failing supervisor policy for tests: tiny backoff, generous
/// deadline, quarantine threshold as given.
fn test_policy(max_attempts: u32, quarantine_after: u32) -> RecoveryPolicy {
    RecoveryPolicy {
        max_attempts,
        base_backoff_ns: 1_000,
        deadline_ns: 30_000_000_000,
        quarantine_after,
    }
}

#[test]
fn supervisor_absorbs_nested_recovery_crash_on_second_attempt() {
    let (rack, topo, alloc, config, _ssd_chaos, chaos, telemetry) = replicated_chaos_testbed();
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let len = 64 << 10;
    for rank in 0..2u32 {
        checkpoint(&mut rt, rank, "/sup.dat", &pattern(rank, len));
    }
    rt.commit_epochs().unwrap();
    let handle = rt.crash_job();

    // A nested crash rule kills recovery op 2 of the first attempt —
    // with one attempt allowed, the attach must surface that kill.
    chaos.arm(FaultPlan::new(0).crash_in_recovery(2), &telemetry);
    let strict = RecoverySupervisor::new(test_policy(1, 0));
    assert!(
        strict.attach(handle.clone()).is_err(),
        "a single-attempt policy must fail when recovery is killed"
    );
    chaos.disarm();

    // Same kill, default budget: the second attempt replays the same log
    // from the top and must land byte-identically.
    chaos.arm(FaultPlan::new(0).crash_in_recovery(2), &telemetry);
    let supervised = RecoverySupervisor::new(test_policy(2, 0))
        .attach(handle)
        .expect("the second recovery attempt must absorb the nested crash");
    chaos.disarm();
    assert_eq!(supervised.outcome().restarts, 1);
    assert!(supervised.quarantined().is_empty());
    let mut rt = supervised.into_runtime();
    for rank in 0..2u32 {
        assert_eq!(
            read_back(&mut rt, rank, "/sup.dat", len),
            pattern(rank, len),
            "rank {rank} must recover byte-identically on the re-attempt"
        );
    }
    let snap = telemetry.snapshot();
    assert!(snap.counter("recovery.attempts") >= 3, "two attaches");
    assert!(snap.counter("recovery.restarts") >= 1);
    assert!(
        snap.counter("recovery.replay_reentries") >= 1,
        "the restart happened under an armed nested crash rule"
    );
    assert_eq!(snap.counter("recovery.quarantined"), 0);
}

#[test]
fn quarantine_serves_degraded_reads_until_rejoin() {
    let (rack, topo, alloc, config, _ssd_chaos, _chaos, telemetry) = replicated_chaos_testbed();
    let ranks = 8u32;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let len = 96 << 10;
    checkpoint(&mut rt, 1, "/sealed.dat", &pattern(1, len));
    rt.commit_epochs().unwrap();
    // Acknowledged but uncommitted: part of no complete epoch, so the
    // degraded image (last complete epoch only) must not contain it.
    checkpoint(&mut rt, 1, "/tail.dat", &pattern(2, 16 << 10));
    // The shared grant shard dies: every rank's primary is unreachable,
    // and every recovery attempt must fail the same way.
    rt.kill_primary_shard(1).unwrap();
    let handle = rt.crash_job();

    // Quarantine disabled: the attach fails outright — this is the
    // pre-supervisor behavior the quarantine path exists to replace.
    let strict = RecoverySupervisor::new(test_policy(2, 0));
    assert!(
        strict.attach(handle.clone()).is_err(),
        "with quarantine disabled a dead shard must fail the attach"
    );

    // Quarantine enabled: the attach succeeds, every rank behind the dead
    // shard is parked (co-located ranks share the grant namespace and its
    // blast radius), and the sealed epoch is readable from the replicas.
    let mut supervised = RecoverySupervisor::new(test_policy(2, 2))
        .attach(handle)
        .expect("quarantine must absorb the dead shard");
    let parked = supervised.quarantined().to_vec();
    assert!(parked.contains(&1), "rank 1 sat on the dead shard");
    assert_eq!(
        supervised.outcome().degraded_serves,
        parked.len() as u64,
        "every quarantined rank has a live replica to serve from"
    );
    for rank in 0..ranks {
        assert_eq!(
            supervised.runtime().is_mounted(rank),
            !parked.contains(&rank)
        );
    }
    {
        let degraded = supervised
            .degraded_mut(1)
            .expect("rank 1 must serve degraded");
        assert!(degraded.epoch() >= 1);
        assert_eq!(
            degraded.read_file("/sealed.dat").expect("degraded read"),
            pattern(1, len),
            "the last complete epoch must be readable while quarantined"
        );
        assert!(
            degraded.stat("/tail.dat").is_err(),
            "uncommitted tail writes are not part of the degraded image"
        );
    }
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("recovery.quarantined"), parked.len() as u64);
    assert_eq!(
        snap.counter("recovery.degraded_serves"),
        parked.len() as u64
    );
    assert_eq!(
        snap.counter("recovery.replay_reentries"),
        0,
        "no nested crash rule was armed — these restarts are not replay re-entries"
    );

    // Rejoin rank 1 through the failover path: replacement namespace on a
    // partner domain, restored from the replica, read-write again.
    supervised.rejoin(1, &rack, &topo).expect("rejoin");
    assert!(!supervised.quarantined().contains(&1));
    assert!(supervised.degraded_mut(1).is_none());
    let rt = supervised.runtime_mut();
    assert!(rt.is_mounted(1));
    assert_eq!(read_back(rt, 1, "/sealed.dat", len), pattern(1, len));
    checkpoint(rt, 1, "/after_rejoin.dat", &pattern(3, len));
    assert_eq!(read_back(rt, 1, "/after_rejoin.dat", len), pattern(3, len));
    assert_eq!(rt.commit_epoch_rank(1).unwrap(), Some(2));
    // Rejoining a healthy rank is a caller error, not a silent failover.
    assert!(supervised.rejoin(1, &rack, &topo).is_err());
}

#[test]
fn failover_restore_reattempts_after_nested_kill() {
    // A nested crash rule can also kill a failover's replica restore
    // (chain materialization / extent copy); a second attempt over the
    // same replica must succeed — the restore is idempotent.
    let (rack, topo, alloc, mut config, ssd_chaos, chaos, telemetry) = replicated_chaos_testbed();
    config.delta_chain_max = 4;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let len = 96 << 10;
    checkpoint(&mut rt, 3, "/base.dat", &pattern(3, len));
    rt.commit_epochs().unwrap();
    checkpoint(&mut rt, 3, "/delta.dat", &pattern(4, 16 << 10));
    rt.commit_epochs().unwrap();
    rt.crash_rank(3).unwrap();
    ssd_chaos.arm(
        FaultPlan::new(13).at_op(Site::ShardIo, FaultAction::KillShard, 0),
        &telemetry,
    );
    let dead = {
        let fs = rt.rank_fs(0).unwrap();
        match fs.create("/doomed.dat", 0o644) {
            Err(_) => true,
            Ok(fd) => fs.write(fd, &[0u8; 4096]).is_err() || fs.close(fd).is_err(),
        }
    };
    ssd_chaos.disarm();
    assert!(dead, "IO against the killed shard must fail");
    // Recovery op 0 of the failover is the first chain-materialize link.
    chaos.arm(FaultPlan::new(0).crash_in_recovery(0), &telemetry);
    assert!(
        rt.fail_over_rank(3, &rack, &topo).is_err(),
        "the nested kill must surface from the restore"
    );
    chaos.begin_attempt();
    rt.fail_over_rank(3, &rack, &topo)
        .expect("the second restore attempt over the same replica must succeed");
    chaos.disarm();
    assert_eq!(read_back(&mut rt, 3, "/base.dat", len), pattern(3, len));
    assert_eq!(
        read_back(&mut rt, 3, "/delta.dat", 16 << 10),
        pattern(4, 16 << 10)
    );
    let report = rt.scrub_rank(3).unwrap().unwrap();
    assert_eq!(report.unrecoverable, 0);
}

#[test]
fn delta_chain_failover_restores_newest_complete_epoch() {
    // Same shard-kill scenario as the rollback test above, but with
    // copy-on-write delta epochs on: four sealed epochs form a
    // full + 3-delta lineage, a fifth is mid-flight when the rank and
    // then its shard die, and the failover restore must materialize the
    // chain newest-complete-backward — every sealed file byte-identical,
    // the unsealed one rolled back.
    let (rack, topo, alloc, mut config, ssd_chaos, _chaos, telemetry) = replicated_chaos_testbed();
    config.delta_chain_max = 4;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let len = 96 << 10;
    checkpoint(&mut rt, 3, "/base.dat", &pattern(3, len));
    rt.commit_epochs().unwrap(); // epoch 1: full anchor
    for d in 0..3u32 {
        checkpoint(
            &mut rt,
            3,
            &format!("/delta_{d}.dat"),
            &pattern(3 + d, 16 << 10),
        );
        rt.commit_epochs().unwrap(); // epochs 2..4: sparse deltas
    }
    // Mid-delta-commit crash shape: epoch 5's writes land on both copies
    // but its delta manifest is never sealed.
    checkpoint(&mut rt, 3, "/unsealed.dat", &pattern(9, 16 << 10));
    rt.crash_rank(3).unwrap();
    ssd_chaos.arm(
        FaultPlan::new(11).at_op(Site::ShardIo, FaultAction::KillShard, 0),
        &telemetry,
    );
    let dead = {
        let fs = rt.rank_fs(0).unwrap();
        match fs.create("/doomed.dat", 0o644) {
            Err(_) => true,
            Ok(fd) => fs.write(fd, &[0u8; 4096]).is_err() || fs.close(fd).is_err(),
        }
    };
    ssd_chaos.disarm();
    assert!(dead, "IO against the killed shard must fail");
    rt.fail_over_rank(3, &rack, &topo).unwrap();
    assert_eq!(
        read_back(&mut rt, 3, "/base.dat", len),
        pattern(3, len),
        "the chain's full anchor must restore byte-identically"
    );
    for d in 0..3u32 {
        assert_eq!(
            read_back(&mut rt, 3, &format!("/delta_{d}.dat"), 16 << 10),
            pattern(3 + d, 16 << 10),
            "delta epoch {d} must restore byte-identically through the chain"
        );
    }
    {
        let fs = rt.rank_fs(3).unwrap();
        assert!(
            fs.stat("/unsealed.dat").is_err(),
            "the unsealed epoch rolls back with the restore"
        );
    }
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("replication.degraded_restores"), 1);
    assert!(snap.counter("cow.delta_extents") > 0, "deltas were sealed");
    assert!(
        snap.gauge("cow.chain_len").peak >= 4,
        "the restore walked a full + 3-delta lineage (peak {})",
        snap.gauge("cow.chain_len").peak
    );
    // The rank is healthy on its replacement namespace: the next commit
    // re-anchors the chain with a forced full manifest.
    assert_eq!(rt.commit_epoch_rank(3).unwrap(), Some(5));
    let report = rt.scrub_rank(3).unwrap().unwrap();
    assert_eq!(report.unrecoverable, 0);
}
