//! Seeded fault scenario: shard-kill during a delta-chain epoch.
//!
//! Builds a replicated, delta-chained runtime, commits two clean epochs
//! (a full manifest then a delta), then arms a deterministic
//! `KillShard` at an exact shard-I/O op index and drives per-rank
//! writes until the kill lands on a *primary* namespace and a write
//! fails (a replica-side kill only degrades the mirror; the loop re-arms
//! at a different op index and keeps going). The failed rank is crashed
//! and failed over — forcing the degraded-restore path, which rolls the
//! rank back to its last complete epoch — and the rolled-back epochs are
//! byte-verified. The flight recorder auto-dumps at the first trip
//! (the injection); the scenario finishes by overwriting that dump with
//! the full story — submit, retries, exhaustion, failover, rollback —
//! which `nvmecr-doctor` then reconstructs.

use std::path::{Path, PathBuf};

use chaos::{ChaosHandle, FaultAction, FaultPlan, Site};
use cluster::{JobRequest, Scheduler, Topology};
use microfs::OpenFlags;
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::RuntimeConfig;
use ssd::SsdConfig;
use telemetry::{FlightKind, Telemetry};

/// Ranks the scenario drives.
pub const RANKS: u32 = 8;
/// Bytes each rank writes per epoch / per armed round.
pub const BYTES_PER_WRITE: usize = 128 << 10;
/// Re-arm attempts before giving up on hitting a primary shard.
const MAX_ROUNDS: u64 = 12;
/// Plan seed; the whole scenario is deterministic given this.
const SEED: u64 = 0x5EED_FA17;

/// What the seeded run produced.
#[derive(Debug)]
pub struct SeededOutcome {
    /// Where the flight dump landed.
    pub dump_path: PathBuf,
    /// The rank whose primary shard was killed.
    pub faulted_rank: u32,
    /// Armed rounds driven before the kill landed on a primary.
    pub rounds: u64,
    /// Epoch the failed-over rank rolled back to.
    pub rollback_epoch: u64,
    /// Recorder trips counted over the run.
    pub trips: u64,
}

fn pattern(rank: u32, tag: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(131) ^ (rank * 29) ^ (tag * 211)) as u8)
        .collect()
}

fn write_file(rt: &mut NvmeCrRuntime, rank: u32, name: &str, data: &[u8]) -> Result<(), String> {
    let fs = rt.rank_fs(rank).map_err(|e| format!("{e:?}"))?;
    let fd = fs.create(name, 0o644).map_err(|e| format!("{e:?}"))?;
    fs.write(fd, data).map_err(|e| format!("{e:?}"))?;
    fs.close(fd).map_err(|e| format!("{e:?}"))?;
    Ok(())
}

fn verify_file(rt: &mut NvmeCrRuntime, rank: u32, name: &str, expect: &[u8]) -> Result<(), String> {
    let fs = rt.rank_fs(rank).map_err(|e| format!("{e:?}"))?;
    let fd = fs
        .open(name, OpenFlags::RDONLY, 0)
        .map_err(|e| format!("{name}: {e:?}"))?;
    let mut buf = vec![0u8; expect.len()];
    let mut got = 0;
    while got < buf.len() {
        let n = fs.read(fd, &mut buf[got..]).map_err(|e| format!("{e:?}"))?;
        if n == 0 {
            break;
        }
        got += n;
    }
    fs.close(fd).map_err(|e| format!("{e:?}"))?;
    if got != expect.len() {
        return Err(format!("{name}: short read {got}/{}", expect.len()));
    }
    if buf != expect {
        return Err(format!("{name}: rolled-back data not byte-identical"));
    }
    Ok(())
}

/// Run the seeded shard-kill scenario, leaving the flight dump at
/// `dump_path`.
pub fn run_seeded(dump_path: &Path) -> Result<SeededOutcome, String> {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            chaos: chaos.clone(),
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched
        .submit(&JobRequest::full_subscription(RANKS))
        .map_err(|e| format!("schedule: {e:?}"))?;
    let config = RuntimeConfig {
        namespace_bytes: 256 << 20,
        replication_factor: 2,
        delta_chain_max: 4,
        telemetry: telemetry.clone(),
        chaos: chaos.clone(),
        ..RuntimeConfig::default()
    };
    let mut rt =
        NvmeCrRuntime::init(&rack, &topo, &alloc, config).map_err(|e| format!("init: {e:?}"))?;
    let recorder = telemetry.recorder();
    recorder.set_dump_path(dump_path);

    // Two clean epochs before the fault: epoch 1 anchors the chain with a
    // full manifest, epoch 2 commits a delta on top of it. The kill then
    // lands mid-epoch-3 — "during a delta-chain epoch".
    for epoch in 1u32..=2 {
        for rank in 0..RANKS {
            let _rank = telemetry::context::with_rank(u64::from(rank));
            let data = pattern(rank, epoch, BYTES_PER_WRITE);
            write_file(&mut rt, rank, &format!("/epoch_{epoch}.dat"), &data)?;
        }
        for rank in 0..RANKS {
            let _rank = telemetry::context::with_rank(u64::from(rank));
            rt.commit_epoch_rank(rank)
                .map_err(|e| format!("commit epoch {epoch} rank {rank}: {e:?}"))?;
        }
    }

    // A transient window first: one dropped tx capsule mid-epoch-3, so
    // the dump carries the timeout → retry → resubmit leg of the
    // reliability layer in the same rank/epoch context as the kill.
    // It runs disjoint from the kill rounds so the kill's deterministic
    // op placement is unperturbed.
    chaos.arm(
        FaultPlan::new(SEED ^ 0xD80).at_op(Site::CapsuleTx, FaultAction::DropCapsule, 1),
        &telemetry,
    );
    {
        let _rank = telemetry::context::with_rank(0);
        let data = pattern(0, 99, BYTES_PER_WRITE);
        write_file(&mut rt, 0, "/retry_probe.dat", &data)?;
    }
    chaos.disarm();

    // Armed rounds: one exact-op KillShard per round. Shard-I/O op
    // indices interleave primary and replica traffic, so stepping the
    // index each round sweeps both until a primary dies and the write
    // errors.
    let mut faulted: Option<u32> = None;
    let mut rounds = 0u64;
    while faulted.is_none() && rounds < MAX_ROUNDS {
        chaos.arm(
            FaultPlan::new(SEED + rounds).at_op(Site::ShardIo, FaultAction::KillShard, 2 + rounds),
            &telemetry,
        );
        for rank in 0..RANKS {
            let _rank = telemetry::context::with_rank(u64::from(rank));
            let data = pattern(rank, 100 + rounds as u32, BYTES_PER_WRITE);
            if write_file(&mut rt, rank, &format!("/round_{rounds}.dat"), &data).is_err() {
                faulted = Some(rank);
                break;
            }
        }
        chaos.disarm();
        rounds += 1;
    }
    let rank = faulted.ok_or_else(|| {
        format!("kill never landed on a primary namespace in {MAX_ROUNDS} rounds")
    })?;

    // Crash before failing over: dropping the live mirror forces the
    // reconnect-to-replica restore, which rolls the rank back to the
    // replica's last complete epoch.
    rt.crash_rank(rank).map_err(|e| format!("crash: {e:?}"))?;
    rt.fail_over_rank(rank, &rack, &topo)
        .map_err(|e| format!("failover: {e:?}"))?;

    // The rolled-back epochs must read back byte-identical.
    for epoch in 1u32..=2 {
        let _rank = telemetry::context::with_rank(u64::from(rank));
        let expect = pattern(rank, epoch, BYTES_PER_WRITE);
        verify_file(&mut rt, rank, &format!("/epoch_{epoch}.dat"), &expect)?;
    }

    let rollback_epoch = recorder
        .events()
        .iter()
        .rev()
        .find(|e| e.kind == FlightKind::RollbackRestore)
        .map(|e| e.a)
        .unwrap_or(0);

    // The auto-dump fired at the first trip (the injection) and only
    // holds the prelude. Overwrite it with the complete causal story now
    // that failover and rollback are in the rings.
    recorder
        .dump_to(dump_path, FlightKind::Failover)
        .map_err(|e| format!("dump: {e}"))?;

    Ok(SeededOutcome {
        dump_path: dump_path.to_path_buf(),
        faulted_rank: rank,
        rounds,
        rollback_epoch,
        trips: recorder.trip_count(),
    })
}
