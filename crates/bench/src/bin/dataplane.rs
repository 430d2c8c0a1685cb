//! Data-plane scaling bench: serial vs parallel rank driving, plus the
//! pipelined-window QD sweep.
//!
//! **Rank sweep** (`BENCH_dataplane.json`): sweeps 1→28 ranks over the
//! paper testbed, drives one real (bytes on functional devices)
//! checkpoint+verify round per point through the sharded NVMf data plane,
//! and reports the device-time makespan of that IO stream two ways:
//!
//! * **serial** — ranks issue one at a time, so every command and every
//!   byte of every rank is serialized through a single outstanding queue.
//! * **parallel** — ranks issue concurrently; each namespace shard
//!   preserves its per-queue FIFO, shards on the same SSD share that
//!   SSD's channel array and command processor, and distinct SSDs run
//!   concurrently. The makespan is the busiest SSD's serialized work.
//!
//! **QD sweep** (`BENCH_pipeline.json`): drives 28 ranks at a 4 KiB block
//! size — so each checkpoint issues thousands of commands — at submission
//! window depths 1→32, and reports the write makespan of the measured
//! command stream. At QD=1 each 4 KiB command pays its full round-trip
//! latency before the next is posted (the lock-step exchange the window
//! replaced); at depth the round trips overlap until the command
//! processor or the channel array becomes the bottleneck. The per-command
//! `fabric.submit_ns` histogram of each point is *measured* from the real
//! run.
//!
//! The IO volumes (ops and bytes per rank) are *measured* from the block
//! device counters after really driving the run; only the device service
//! time is modeled, by [`nvmecr::metrics`] with the calibrated
//! [`SsdConfig`] geometry — the same calibration every figure harness
//! uses. (Wall-clock is not used: this host may be a single pinned core,
//! where thread-level speedup is unobservable by construction.)
//!
//! Every point drives its ranks on the shard-per-core
//! [`nvmecr::ReactorPool`], threaded, with the workload driver's chunked
//! checkpoint machine ([`workloads::checkpoint_ranks`]).
//!
//! **Mode parity** (the `parity` object in `BENCH_pipeline.json`): the
//! deepest QD point is driven once more through the deterministic
//! (lockstep, one thread) reactor drive and compared with the sweep's own
//! threaded point; their modeled throughputs must stay within 5% — the
//! executor mode decides scheduling, not the data plane.
//!
//! `--smoke --qd N` runs a reduced QD sweep (`{1, N}` at 1 MiB/rank) for
//! CI; the ≥3× QD=32-vs-QD=1 self-validation and the parity gate still
//! apply.

use std::collections::HashMap;
use std::fmt::Write as _;

use cluster::{JobRequest, Scheduler, Topology};
use microfs::block::{BlockDevice, IoCounters};
use nvmecr::metrics::{busiest_ssd_write_makespan_secs, service_secs};
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::{ReactorConfig, ReactorMode, RuntimeConfig};
use nvmecr_bench::stamp;
use ssd::SsdConfig;
use telemetry::Telemetry;
use workloads::{checkpoint_ranks, verify_ranks, CoMD};

const CKPTS: u32 = 2;
const BYTES_PER_RANK: u64 = 4 << 20;
const SWEEP: [u32; 7] = [1, 2, 4, 8, 14, 21, 28];

/// QD sweep settings: full subscription, 4 KiB commands so the window
/// depth — not payload striping — is what engages the device.
const QD_SWEEP: [usize; 5] = [1, 4, 8, 16, 32];
const QD_RANKS: u32 = 28;
const QD_BLOCK: u64 = 4 << 10;
const SMOKE_BYTES_PER_RANK: u64 = 1 << 20;

/// Per-rank IO measured off the data plane, tagged with the SSD (storage
/// node, ssd index) that serviced it.
type RankIo = ((u32, u32), IoCounters);

struct Point {
    ranks: u32,
    serial_secs: f64,
    parallel_secs: f64,
    shards: usize,
    bytes_copied: u64,
    lock_wait_ns: u64,
}

/// Really drive `ranks` ranks through one checkpoint+verify round at the
/// given block size and window depth, on reactors in `mode`, and measure
/// the per-rank IO. The returned snapshot covers exactly this run
/// (`fabric.submit_ns` etc.).
fn run_point(
    ranks: u32,
    ssd_config: &SsdConfig,
    block_size: u64,
    queue_depth: usize,
    bytes_per_rank: u64,
    recorder_on: bool,
    mode: ReactorMode,
) -> Result<(Vec<RankIo>, telemetry::MetricsSnapshot), Box<dyn std::error::Error>> {
    let topo = Topology::paper_testbed();
    // Per-point registry: the copy/lock-wait/submit-latency numbers below
    // must cover exactly this point's traffic.
    let telemetry = Telemetry::new();
    telemetry.recorder().set_enabled(recorder_on);
    let rack = StorageRack::build_with_telemetry(&topo, ssd_config, telemetry.clone());
    let mut sched = Scheduler::new(topo.clone(), 8);
    // Spread the job over the full storage rack (up to one namespace per
    // SSD) so the shard map actually has independent shards to exploit —
    // the paper's process:SSD ratio is for capacity planning at scale, not
    // a cap on rack usage.
    let req = JobRequest {
        procs: ranks,
        procs_per_node: 28,
        storage_devices: ranks.min(8),
    };
    let alloc = sched.submit(&req)?;
    let mut config = RuntimeConfig {
        namespace_bytes: 1 << 30,
        telemetry: telemetry.clone(),
        block_size,
        ..RuntimeConfig::default()
    };
    config.fabric.queue_depth = queue_depth;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config)?;
    let comd = CoMD::weak_scaling();

    let reactor = ReactorConfig {
        mode,
        ..ReactorConfig::default()
    };
    for ckpt in 0..CKPTS {
        checkpoint_ranks(&mut rt, &reactor, &comd, ckpt, bytes_per_rank)?;
    }
    let ok = verify_ranks(&mut rt, &reactor, &comd, CKPTS - 1, bytes_per_rank)?;
    if !ok.iter().all(Option::is_some) {
        return Err("payload verification failed".into());
    }

    // Measure what each rank actually pushed through its device, and which
    // SSD serviced it.
    let per_rank = rt.placement().per_rank.clone();
    let mut io = Vec::with_capacity(per_rank.len());
    for p in &per_rank {
        let g = alloc.storage[p.grant];
        io.push(((g.node.0, g.ssd), rt.rank_fs(p.rank)?.device().counters()));
    }
    let snap = telemetry.snapshot();
    rt.finalize()?;
    Ok((io, snap))
}

/// Fold one rank-sweep point's measured IO into the serial/parallel
/// device-time makespans.
fn rank_point(ranks: u32, ssd_config: &SsdConfig) -> Result<Point, Box<dyn std::error::Error>> {
    let (io, snap) = run_point(
        ranks,
        ssd_config,
        RuntimeConfig::default().block_size,
        RuntimeConfig::default().fabric.queue_depth,
        BYTES_PER_RANK,
        true,
        ReactorMode::Threaded,
    )?;
    let serial_secs: f64 = io.iter().map(|(_, c)| service_secs(ssd_config, c)).sum();
    let mut per_ssd: HashMap<(u32, u32), f64> = HashMap::new();
    for (ssd, c) in &io {
        *per_ssd.entry(*ssd).or_default() += service_secs(ssd_config, c);
    }
    let parallel_secs = per_ssd.values().cloned().fold(0.0f64, f64::max);
    let bytes_copied = snap.counter("fabric.bytes_copied") + snap.counter("ssd.bytes_copied");
    let lock_wait_ns = snap.counter("ssd.lock_wait_ns");
    Ok(Point {
        ranks,
        serial_secs,
        parallel_secs,
        shards: per_ssd.len(),
        bytes_copied,
        lock_wait_ns,
    })
}

struct QdPoint {
    qd: usize,
    write_makespan_secs: f64,
    write_gib_s: f64,
    write_cmds: u64,
    submit_count: u64,
    submit_p50_ns: u64,
    submit_p99_ns: u64,
    reactor_events: u64,
    reactor_loops: u64,
}

/// Drive the 28-rank testbed at window depth `qd` with 4 KiB commands and
/// fold the busiest SSD's measured write stream into the pipeline
/// makespan.
fn qd_point(
    qd: usize,
    ssd_config: &SsdConfig,
    bytes_per_rank: u64,
    mode: ReactorMode,
) -> Result<QdPoint, Box<dyn std::error::Error>> {
    let (io, snap) = run_point(
        QD_RANKS,
        ssd_config,
        QD_BLOCK,
        qd,
        bytes_per_rank,
        true,
        mode,
    )?;
    let write_makespan = busiest_ssd_write_makespan_secs(ssd_config, &io, qd);
    let total_bytes: u64 = io.iter().map(|(_, c)| c.bytes_written).sum();
    let write_cmds: u64 = io.iter().map(|(_, c)| c.writes).sum();
    let submits = snap
        .histogram("fabric.submit_ns")
        .ok_or("no fabric.submit_ns histogram in run telemetry")?;
    Ok(QdPoint {
        qd,
        write_makespan_secs: write_makespan,
        write_gib_s: total_bytes as f64 / write_makespan / (1u64 << 30) as f64,
        write_cmds,
        submit_count: submits.count,
        submit_p50_ns: submits.percentile(50.0),
        submit_p99_ns: submits.percentile(99.0),
        reactor_events: snap.counter("reactor.events"),
        reactor_loops: snap.counter("reactor.loops"),
    })
}

/// Mode parity: the deepest sweep point, driven once more on the
/// deterministic reactor drive, must land within 5% of the sweep's own
/// threaded run of that point — the executor mode decides scheduling, not
/// the data plane. Any violation fails the bench.
fn gate_parity(
    threaded: &QdPoint,
    deterministic_gib_s: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let delta = (deterministic_gib_s - threaded.write_gib_s).abs() / threaded.write_gib_s;
    if delta > 0.05 {
        return Err(format!(
            "deterministic drive {deterministic_gib_s:.3} GiB/s vs threaded {:.3} GiB/s: \
             {:.1}% apart (> 5%)",
            threaded.write_gib_s,
            delta * 100.0
        )
        .into());
    }
    if threaded.reactor_events == 0 || threaded.reactor_loops == 0 {
        return Err("reactor drive published no reactor.events/loops".into());
    }
    Ok(())
}

/// Real time the fabric spent in command submission paths over one run —
/// the sum of the measured `fabric.command_ns` histogram, each window's
/// duration split among its commands (`fabric.submit_ns` would count a
/// QD=32 window's time once per command still waiting in it). The flight
/// recorder's `record()` calls sit on exactly these paths, so the
/// enabled-vs-disabled delta of this sum is the recorder's dataplane
/// overhead.
fn command_ns_sum(
    qd: usize,
    ssd_config: &SsdConfig,
    bytes_per_rank: u64,
    recorder_on: bool,
) -> Result<u64, Box<dyn std::error::Error>> {
    let (_, snap) = run_point(
        QD_RANKS,
        ssd_config,
        QD_BLOCK,
        qd,
        bytes_per_rank,
        recorder_on,
        ReactorMode::Threaded,
    )?;
    Ok(snap
        .histogram("fabric.command_ns")
        .ok_or("no fabric.command_ns histogram in run telemetry")?
        .sum)
}

/// Disarmed-path recorder overhead at window depth `qd`: interleaved
/// min-of-7 submit-time sums with the recorder enabled vs disabled
/// (min, not mean, to shed scheduler noise — on a single pinned core a
/// stray timer tick inflates one arm by several percent, and the min of
/// enough trials converges both arms to their true floor). A discarded
/// warmup pair keeps allocator and page-cache state out of the first
/// measured trial. Negative deltas clamp to zero — the recorder cannot
/// make submission faster.
fn recorder_overhead_pct(
    qd: usize,
    ssd_config: &SsdConfig,
    bytes_per_rank: u64,
) -> Result<f64, Box<dyn std::error::Error>> {
    command_ns_sum(qd, ssd_config, bytes_per_rank, true)?;
    command_ns_sum(qd, ssd_config, bytes_per_rank, false)?;
    let mut on = u64::MAX;
    let mut off = u64::MAX;
    for _ in 0..7 {
        on = on.min(command_ns_sum(qd, ssd_config, bytes_per_rank, true)?);
        off = off.min(command_ns_sum(qd, ssd_config, bytes_per_rank, false)?);
    }
    if off == 0 {
        return Err("recorder-off run recorded zero submit time".into());
    }
    Ok((on.saturating_sub(off) as f64 / off as f64) * 100.0)
}

fn write_dataplane_json(points: &[Point]) -> Result<(), Box<dyn std::error::Error>> {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"dataplane\",\n");
    json.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: RuntimeConfig::default().fabric.queue_depth,
        ranks: SWEEP[SWEEP.len() - 1],
        replication_factor: 1,
        delta_chain_max: 0,
        mode: "reactor",
        reactors: 0,
    }));
    json.push_str(
        "  \"unit\": \"seconds (device-time makespan, calibrated P4800X model over measured IO)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"ckpts\": {CKPTS}, \"bytes_per_rank\": {BYTES_PER_RANK}}},"
    );
    json.push_str("  \"series\": [\n");
    for (label, pick) in [
        ("serial", (|p: &Point| p.serial_secs) as fn(&Point) -> f64),
        ("parallel", |p: &Point| p.parallel_secs),
    ] {
        let _ = write!(json, "    {{\"label\": \"{label}\", \"points\": [");
        for (i, p) in points.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}[{}, {:.6}]", p.ranks, pick(p));
        }
        let end = if label == "serial" { "]}," } else { "]}" };
        let _ = writeln!(json, "{end}");
    }
    json.push_str("  ],\n  \"speedup\": [");
    for (i, p) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}[{}, {:.3}]",
            p.ranks,
            p.serial_secs / p.parallel_secs
        );
    }
    json.push_str("],\n  \"measured\": [");
    for (i, p) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{{\"ranks\": {}, \"shards\": {}, \"bytes_copied\": {}, \"lock_wait_ns\": {}}}",
            p.ranks, p.shards, p.bytes_copied, p.lock_wait_ns
        );
    }
    json.push_str("]\n}\n");
    std::fs::write("BENCH_dataplane.json", &json)?;
    println!("wrote BENCH_dataplane.json");
    Ok(())
}

fn write_pipeline_json(
    points: &[QdPoint],
    deterministic_gib_s: f64,
    bytes_per_rank: u64,
    recorder_overhead_pct: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"pipeline\",\n");
    json.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: points.last().map_or(1, |p| p.qd),
        ranks: QD_RANKS,
        replication_factor: 1,
        delta_chain_max: 0,
        mode: "reactor",
        reactors: 0,
    }));
    json.push_str(
        "  \"unit\": \"GiB/s (write throughput over modeled makespan of measured IO per window depth)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"ranks\": {QD_RANKS}, \"block_size\": {QD_BLOCK}, \
         \"bytes_per_rank\": {bytes_per_rank}, \"ckpts\": {CKPTS}}},"
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"qd\": {}, \"write_makespan_ms\": {:.3}, \"write_gib_s\": {:.3}, \
             \"write_cmds\": {}, \"submit_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}}}}}{sep}",
            p.qd,
            p.write_makespan_secs * 1e3,
            p.write_gib_s,
            p.write_cmds,
            p.submit_count,
            p.submit_p50_ns,
            p.submit_p99_ns,
        );
    }
    let first = points.first().expect("sweep is non-empty");
    let last = points.last().expect("sweep is non-empty");
    let _ = writeln!(
        json,
        "  ],\n  \"speedup_deepest_vs_qd1\": {:.3},\n  \"parity\": {{\"qd\": {}, \
         \"threaded_gib_s\": {:.3}, \"deterministic_gib_s\": {:.3}, \"reactor_events\": {}, \
         \"reactor_loops\": {}}},\n  \"recorder_overhead_pct\": {:.3}\n}}",
        last.write_gib_s / first.write_gib_s,
        last.qd,
        last.write_gib_s,
        deterministic_gib_s,
        last.reactor_events,
        last.reactor_loops,
        recorder_overhead_pct
    );
    std::fs::write("BENCH_pipeline.json", &json)?;
    println!("wrote BENCH_pipeline.json");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut smoke = false;
    let mut qd_arg = 32usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--qd" => {
                qd_arg = args
                    .next()
                    .ok_or("--qd needs a value")?
                    .parse()
                    .map_err(|e| format!("--qd: {e}"))?;
                if qd_arg == 0 {
                    return Err("--qd must be >= 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }

    let ssd_config = SsdConfig {
        capacity: 16 << 30,
        ..SsdConfig::default()
    };

    if !smoke {
        let mut points = Vec::new();
        for &ranks in &SWEEP {
            let p = rank_point(ranks, &ssd_config)?;
            println!(
                "ranks={:2}  shards={}  serial={:.4}s  parallel={:.4}s  speedup={:.2}x  \
                 copied={}B  lock_wait={}ns",
                p.ranks,
                p.shards,
                p.serial_secs,
                p.parallel_secs,
                p.serial_secs / p.parallel_secs,
                p.bytes_copied,
                p.lock_wait_ns,
            );
            points.push(p);
        }
        write_dataplane_json(&points)?;
        let last = points.last().expect("sweep is non-empty");
        let speedup = last.serial_secs / last.parallel_secs;
        if speedup < 2.0 {
            return Err(format!("28-rank parallel speedup {speedup:.2}x below 2x").into());
        }
    }

    // QD sweep: full mode covers the ladder; smoke covers {1, --qd} at a
    // reduced per-rank volume so CI stays fast.
    let (qds, bytes_per_rank): (Vec<usize>, u64) = if smoke {
        let mut qds = vec![1];
        if qd_arg > 1 {
            qds.push(qd_arg);
        }
        (qds, SMOKE_BYTES_PER_RANK)
    } else {
        (QD_SWEEP.to_vec(), BYTES_PER_RANK)
    };
    let mut qd_points = Vec::new();
    for &qd in &qds {
        let p = qd_point(qd, &ssd_config, bytes_per_rank, ReactorMode::Threaded)?;
        println!(
            "qd={:2}  write_makespan={:.3}ms  write={:.3}GiB/s  cmds={}  \
             submit_ns[n={} p50={} p99={}]",
            p.qd,
            p.write_makespan_secs * 1e3,
            p.write_gib_s,
            p.write_cmds,
            p.submit_count,
            p.submit_p50_ns,
            p.submit_p99_ns,
        );
        qd_points.push(p);
    }
    let last = qd_points.last().expect("sweep is non-empty");
    let deepest = last.qd;

    // Disarmed-path flight-recorder overhead at the deepest window depth:
    // the always-on rings must cost <= 2% of real submit time. Measured
    // before the parity run, so only sweep runs precede it.
    let overhead_pct = recorder_overhead_pct(deepest, &ssd_config, bytes_per_rank)?;
    println!("recorder overhead at qd={deepest}: {overhead_pct:.3}% of submit time");

    let deterministic_gib_s = qd_point(
        deepest,
        &ssd_config,
        bytes_per_rank,
        ReactorMode::Deterministic,
    )?
    .write_gib_s;
    println!(
        "reactor parity at qd={deepest}: threaded={:.3}GiB/s  deterministic={deterministic_gib_s:.3}GiB/s  \
         events={}  loops={}",
        last.write_gib_s, last.reactor_events, last.reactor_loops
    );
    write_pipeline_json(
        &qd_points,
        deterministic_gib_s,
        bytes_per_rank,
        overhead_pct,
    )?;
    gate_parity(last, deterministic_gib_s)?;
    if overhead_pct > 2.0 {
        return Err(format!(
            "flight recorder costs {overhead_pct:.3}% of submit time at qd={deepest}, above 2%"
        )
        .into());
    }

    let first = qd_points.first().expect("sweep is non-empty");
    let last = qd_points.last().expect("sweep is non-empty");
    let speedup = last.write_gib_s / first.write_gib_s;
    if last.qd >= 32 && speedup < 3.0 {
        return Err(format!(
            "QD={} write throughput {speedup:.2}x over QD=1, below 3x",
            last.qd
        )
        .into());
    }
    for p in &qd_points {
        if p.submit_count == 0 {
            return Err(format!("qd={} recorded no fabric.submit_ns samples", p.qd).into());
        }
    }
    Ok(())
}
