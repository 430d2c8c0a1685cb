//! Replication bench: what synchronous 2x durability costs on the write
//! path, and what it buys back on recovery (`BENCH_replication.json`).
//!
//! **Write overhead** — two identical functional runs (28 ranks, QD=32,
//! 4 KiB commands, real bytes through microfs → NVMf → SSD shards), one
//! at `replication_factor=1` and one at `replication_factor=2` with an
//! epoch commit sealing every checkpoint round. The reported makespan is
//! the busiest device's service time over the IO each SSD *measured*
//! during the checkpoint phase (same calibrated-device-time convention as
//! the dataplane bench; wall-clock is not used). The self-validation gate
//! is **rep=2 ≤ 1.6x rep=1**: mirrored capsules ride the same submission
//! window onto partner-domain devices that are otherwise idle, so the
//! second copy must overlap with the first — a serialized mirror would
//! cost 2x.
//!
//! **Restore** — after the rep=2 run, the rank's primary shard is killed
//! through the chaos plane (`ShardIo` → `KillShard`, struck below the
//! fabric) while the rank itself is crashed, so `fail_over_rank` must
//! re-home onto a partner namespace and re-populate it from the surviving
//! replica via the manifest (a degraded restore). The restored checkpoint
//! is byte-verified against the pre-kill payload, and the restore's
//! measured device time is compared against the modeled Lustre rollback
//! it replaces — a full-job restart that re-reads every rank's checkpoint
//! from the PFS, not just the lost rank's.
//!
//! `--smoke` runs 8 ranks at 1 MiB/rank for CI; both gates still apply.

use std::fmt::Write as _;

use baselines::{LustreModel, Scenario, StorageModel};
use chaos::{ChaosHandle, FaultAction, FaultPlan, Site};
use cluster::{JobRequest, Scheduler, Topology};
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::{ReactorConfig, RuntimeConfig};
use nvmecr_bench::stamp;
use ssd::SsdConfig;
use telemetry::Telemetry;
use workloads::{checkpoint_ranks, CoMD};

const CKPTS: u32 = 2;
const RANKS: u32 = 28;
const QD: usize = 32;
const BLOCK: u64 = 4 << 10;
const BYTES_PER_RANK: u64 = 4 << 20;
const SMOKE_RANKS: u32 = 8;
const SMOKE_BYTES_PER_RANK: u64 = 1 << 20;

/// Per-device `(writes, reads, bytes_written, bytes_read)` across the
/// whole rack, in a stable device order.
fn rack_io(rack: &StorageRack, topo: &Topology) -> Vec<(u64, u64, u64, u64)> {
    let mut io = Vec::new();
    for node in topo.storage_nodes() {
        for (_, target) in rack.targets_on(node) {
            io.push(target.device().io_counters());
        }
    }
    io
}

/// Device service time in seconds of one delta `(writes, reads,
/// bytes_written, bytes_read)`: per-command controller overhead plus
/// bytes over the channel array.
fn service_secs(cfg: &SsdConfig, d: &(u64, u64, u64, u64)) -> f64 {
    let (w, r, bw, br) = *d;
    (w + r) as f64 * cfg.cmd_overhead.as_secs()
        + bw as f64 / cfg.write_bw().as_bytes_per_sec()
        + br as f64 / cfg.read_bw().as_bytes_per_sec()
}

fn delta(
    after: &[(u64, u64, u64, u64)],
    before: &[(u64, u64, u64, u64)],
) -> Vec<(u64, u64, u64, u64)> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| (a.0 - b.0, a.1 - b.1, a.2 - b.2, a.3 - b.3))
        .collect()
}

struct WritePhase {
    /// Busiest-device service time of the checkpoint phase.
    makespan_secs: f64,
    /// Devices that saw any checkpoint-phase write traffic.
    devices_touched: usize,
    snap: telemetry::MetricsSnapshot,
}

struct RestorePhase {
    /// Summed device service time of the replica restore.
    restore_secs: f64,
    /// Bytes written onto the replacement primary.
    restored_bytes: u64,
    degraded_restores: u64,
}

struct RepRun {
    write: WritePhase,
    restore: Option<RestorePhase>,
}

/// Drive `ranks` ranks through `CKPTS` checkpoint rounds at the given
/// replication factor, measuring the per-device IO of exactly the
/// checkpoint phase (init/format traffic is excluded on both sides so
/// the ratio compares steady-state checkpointing). At rep=2 the run then
/// kills the primary shard under a crashed rank and measures the
/// manifest-driven replica restore.
fn run_rep(
    rep: u32,
    ranks: u32,
    bytes_per_rank: u64,
    namespace_bytes: u64,
    ssd_config: &SsdConfig,
) -> Result<RepRun, Box<dyn std::error::Error>> {
    let telemetry = Telemetry::new();
    let ssd_chaos = ChaosHandle::new();
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            chaos: ssd_chaos.clone(),
            ..ssd_config.clone()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    // The paper's capacity-planning subscription: every rank shares the
    // granted namespace, replicas land on partner-domain devices.
    let alloc = sched.submit(&JobRequest::full_subscription(ranks))?;
    let mut config = RuntimeConfig {
        namespace_bytes,
        telemetry: telemetry.clone(),
        block_size: BLOCK,
        replication_factor: rep,
        ..RuntimeConfig::default()
    };
    config.fabric.queue_depth = QD;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config)?;
    let comd = CoMD::weak_scaling();

    let before = rack_io(&rack, &topo);
    for ckpt in 0..CKPTS {
        checkpoint_ranks(
            &mut rt,
            &ReactorConfig::default(),
            &comd,
            ckpt,
            bytes_per_rank,
        )?;
        if rep >= 2 {
            // Seal the epoch each round: the measured stream carries the
            // full mirrored-commit cost (manifest, commit record, flush),
            // not just the data writes.
            rt.commit_epochs()?;
        }
    }
    let after = rack_io(&rack, &topo);
    let per_device = delta(&after, &before);
    let makespan_secs = per_device
        .iter()
        .map(|d| service_secs(ssd_config, d))
        .fold(0.0f64, f64::max);
    let devices_touched = per_device.iter().filter(|d| d.2 > 0).count();
    let write = WritePhase {
        makespan_secs,
        devices_touched,
        snap: telemetry.snapshot(),
    };

    if rep < 2 {
        rt.finalize()?;
        return Ok(RepRun {
            write,
            restore: None,
        });
    }

    // Shard-kill → degraded restore → verify. The rank is crashed first
    // so no live extent map survives: the restore must come entirely from
    // the replica's manifest.
    let victim = 0u32;
    rt.crash_rank(victim)?;
    ssd_chaos.arm(
        FaultPlan::new(1).at_op(Site::ShardIo, FaultAction::KillShard, 0),
        &telemetry,
    );
    // All ranks share the grant namespace, so any rank's IO strikes the
    // victim's primary shard too.
    let doomed = {
        let fs = rt.rank_fs(1)?;
        match fs.create("/doomed.dat", 0o644) {
            Err(_) => true,
            Ok(fd) => fs.write(fd, &[0u8; 4096]).is_err() || fs.close(fd).is_err(),
        }
    };
    ssd_chaos.disarm();
    if !doomed {
        return Err("shard kill did not take".into());
    }
    let before = rack_io(&rack, &topo);
    rt.fail_over_rank(victim, &rack, &topo)?;
    let after = rack_io(&rack, &topo);
    let per_device = delta(&after, &before);
    // The restore streams chunk-by-chunk (read replica, write new
    // primary), so the two devices' service times add.
    let restore_secs: f64 = per_device.iter().map(|d| service_secs(ssd_config, d)).sum();
    let restored_bytes: u64 = per_device.iter().map(|d| d.2).sum();

    // Byte-verify the last sealed checkpoint against pre-kill contents.
    let last = CKPTS - 1;
    let expect = comd.checkpoint_payload(victim, last, bytes_per_rank as usize);
    let fs = rt.rank_fs(victim)?;
    let fd = fs.open(
        &CoMD::checkpoint_path(victim, last),
        microfs::OpenFlags::RDONLY,
        0,
    )?;
    let mut buf = vec![0u8; expect.len()];
    let mut got = 0;
    while got < buf.len() {
        let n = fs.read(fd, &mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    fs.close(fd)?;
    if buf != expect {
        return Err("restored checkpoint is not byte-identical to the pre-kill payload".into());
    }
    let degraded_restores = telemetry
        .snapshot()
        .counter("replication.degraded_restores");
    // The other ranks' primaries died with the shared shard; the rack is
    // torn down with the job rather than finalized through dead routes.
    Ok(RepRun {
        write,
        restore: Some(RestorePhase {
            restore_secs,
            restored_bytes,
            degraded_restores,
        }),
    })
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    ranks: u32,
    bytes_per_rank: u64,
    rep1: &WritePhase,
    rep2: &WritePhase,
    restore: &RestorePhase,
    lustre_secs: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let overhead = rep2.makespan_secs / rep1.makespan_secs;
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"replication\",\n");
    json.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: QD,
        ranks,
        replication_factor: 2,
        delta_chain_max: 0,
        mode: "reactor",
        reactors: 0,
    }));
    json.push_str(
        "  \"unit\": \"seconds (device-time makespan, calibrated P4800X model over measured IO)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"ranks\": {ranks}, \"qd\": {QD}, \"block_size\": {BLOCK}, \
         \"bytes_per_rank\": {bytes_per_rank}, \"ckpts\": {CKPTS}}},"
    );
    let _ = writeln!(
        json,
        "  \"write\": {{\"rep1_makespan_ms\": {:.3}, \"rep2_makespan_ms\": {:.3}, \
         \"overhead\": {:.3}, \"rep1_devices\": {}, \"rep2_devices\": {}}},",
        rep1.makespan_secs * 1e3,
        rep2.makespan_secs * 1e3,
        overhead,
        rep1.devices_touched,
        rep2.devices_touched,
    );
    let _ = writeln!(
        json,
        "  \"restore\": {{\"replica_restore_ms\": {:.3}, \"restored_bytes\": {}, \
         \"degraded_restores\": {}, \"lustre_rollback_ms\": {:.3}, \"speedup\": {:.1}}},",
        restore.restore_secs * 1e3,
        restore.restored_bytes,
        restore.degraded_restores,
        lustre_secs * 1e3,
        lustre_secs / restore.restore_secs,
    );
    let mirror = rep2.snap.histogram("replication.mirror_ns");
    let (mn, mp50, mp99) = mirror
        .map(|h| (h.count, h.percentile(50.0), h.percentile(99.0)))
        .unwrap_or_default();
    let _ = writeln!(
        json,
        "  \"measured\": {{\"replication_bytes\": {}, \"epochs_committed\": {}, \
         \"mirror_ns\": {{\"count\": {mn}, \"p50\": {mp50}, \"p99\": {mp99}}}}}\n}}",
        rep2.snap.counter("replication.bytes"),
        rep2.snap.counter("replication.epochs_committed"),
    );
    std::fs::write("BENCH_replication.json", &json)?;
    println!("wrote BENCH_replication.json");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut smoke = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    let (ranks, bytes_per_rank, namespace_bytes) = if smoke {
        (SMOKE_RANKS, SMOKE_BYTES_PER_RANK, 256u64 << 20)
    } else {
        (RANKS, BYTES_PER_RANK, 2u64 << 30)
    };
    let ssd_config = SsdConfig {
        capacity: 16 << 30,
        ..SsdConfig::default()
    };

    let rep1 = run_rep(1, ranks, bytes_per_rank, namespace_bytes, &ssd_config)?;
    let rep2 = run_rep(2, ranks, bytes_per_rank, namespace_bytes, &ssd_config)?;
    let restore = rep2.restore.as_ref().expect("rep=2 run measures restore");

    // The rollback this restore replaces: a full-job PFS restart that
    // re-reads every rank's last Lustre-level checkpoint.
    let lustre_secs = LustreModel::new()
        .recovery_makespan(&Scenario::new(ranks, bytes_per_rank))
        .as_secs();

    println!(
        "ranks={ranks}  rep1={:.3}ms  rep2={:.3}ms  overhead={:.3}x  (devices {} -> {})",
        rep1.write.makespan_secs * 1e3,
        rep2.write.makespan_secs * 1e3,
        rep2.write.makespan_secs / rep1.write.makespan_secs,
        rep1.write.devices_touched,
        rep2.write.devices_touched,
    );
    println!(
        "restore: replica={:.3}ms ({} bytes, degraded={})  lustre_rollback={:.3}ms  speedup={:.1}x",
        restore.restore_secs * 1e3,
        restore.restored_bytes,
        restore.degraded_restores,
        lustre_secs * 1e3,
        lustre_secs / restore.restore_secs,
    );
    write_json(
        ranks,
        bytes_per_rank,
        &rep1.write,
        &rep2.write,
        restore,
        lustre_secs,
    )?;

    // Self-validation gates.
    let overhead = rep2.write.makespan_secs / rep1.write.makespan_secs;
    if overhead > 1.6 {
        return Err(format!(
            "rep=2 write overhead {overhead:.3}x exceeds 1.6x — mirroring is not overlapping"
        )
        .into());
    }
    if rep2.write.devices_touched <= rep1.write.devices_touched {
        return Err("rep=2 did not spread replicas onto additional devices".into());
    }
    if restore.degraded_restores != 1 {
        return Err(format!(
            "expected exactly one degraded restore, saw {}",
            restore.degraded_restores
        )
        .into());
    }
    if restore.restore_secs >= lustre_secs {
        return Err(format!(
            "replica restore {:.3}ms is not faster than the {:.3}ms Lustre rollback it replaces",
            restore.restore_secs * 1e3,
            lustre_secs * 1e3
        )
        .into());
    }
    if rep2.snap_check() {
        return Err("rep=2 run recorded no mirrored bytes".into());
    }
    Ok(())
}

impl RepRun {
    /// True when the rep=2 run somehow mirrored nothing — the overhead
    /// ratio would then be vacuous.
    fn snap_check(&self) -> bool {
        self.write.snap.counter("replication.bytes") == 0
            || self.write.snap.counter("replication.epochs_committed") == 0
    }
}
