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
//! latency before the next is posted (the lock-step exchange this PR
//! replaced); at depth the round trips overlap until the command
//! processor or the channel array becomes the bottleneck. The per-command
//! `fabric.submit_ns` histogram of each point is *measured* from the real
//! run.
//!
//! The IO volumes (ops and bytes per rank) are *measured* from the block
//! device counters after really driving the run; only the device service
//! time is modeled, using the calibrated [`SsdConfig`] geometry — the
//! same calibration every figure harness uses. (Wall-clock is not used:
//! this host may be a single pinned core, where thread-level speedup is
//! unobservable by construction.)
//!
//! Every point drives its ranks on the shard-per-core
//! [`nvmecr::ReactorPool`], threaded, with the workload driver's chunked
//! checkpoint machine ([`workloads::checkpoint_ranks`]).
//!
//! **Reactor mode** (`--mode reactor`): the same 28-rank QD=32 point
//! driven through the deterministic (lockstep, one thread) and threaded
//! reactor drives (their modeled throughputs must stay within 5% — the
//! executor mode decides scheduling, not the data plane), plus a simkit
//! [`ShardModel`] sweep of 1k–10k *virtual* ranks
//! multiplexed on the paper testbed's 28 cores. Gates: flat per-rank
//! makespan (≤1.2× the 28-rank per-rank cost) and sub-linear memory
//! (reactor bookkeeping and process RSS both grow slower than ranks).
//!
//! `--smoke --qd N` runs a reduced QD sweep (`{1, N}` at 1 MiB/rank) for
//! CI; the ≥3× QD=32-vs-QD=1 self-validation still applies. Reactor-mode
//! smoke sweeps `{28, --ranks}` virtual ranks.

use std::collections::HashMap;
use std::fmt::Write as _;

use cluster::{JobRequest, Scheduler, Topology};
use fabric::{KernelCosts, NetConfig};
use microfs::block::{BlockDevice, IoCounters};
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::{ReactorConfig, ReactorMode, ReactorPool, RuntimeConfig};
use nvmecr_bench::stamp;
use simkit::ShardModel;
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

/// Virtual-rank counts the reactor sweep covers in a full run; the last
/// entry is raised to `--ranks` when larger.
const REACTOR_SWEEP: [usize; 4] = [28, 1024, 4096, 10_000];

/// Per-rank IO measured off the data plane, tagged with the SSD that
/// serviced it.
struct RankIo {
    ssd: (u32, u32),
    counters: IoCounters,
}

/// Device service time in seconds for one rank's measured IO stream:
/// per-command controller overhead plus bytes over the channel array.
fn service_secs(cfg: &SsdConfig, c: &IoCounters) -> f64 {
    let cmd = cfg.cmd_overhead.as_secs();
    (c.writes + c.reads) as f64 * cmd
        + c.bytes_written as f64 / cfg.write_bw().as_bytes_per_sec()
        + c.bytes_read as f64 / cfg.read_bw().as_bytes_per_sec()
}

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
        io.push(RankIo {
            ssd: (g.node.0, g.ssd),
            counters: rt.rank_fs(p.rank)?.device().counters(),
        });
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
    let serial_secs: f64 = io
        .iter()
        .map(|r| service_secs(ssd_config, &r.counters))
        .sum();
    let mut per_ssd: HashMap<(u32, u32), f64> = HashMap::new();
    for r in &io {
        *per_ssd.entry(r.ssd).or_default() += service_secs(ssd_config, &r.counters);
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

/// Round-trip latency of one write command of `bytes` at QD=1: polled
/// userspace submit, request + response messages over two hops, command
/// fetch/decode, and the media transfer.
///
/// The transfer term is hw-block-granular: the controller stripes a
/// command one hardware block per channel, so its observed latency is the
/// largest per-channel share — one block's transfer time for any command
/// up to `channels × hw_block`. Striping buys a single command bandwidth,
/// not latency; that flat ~26 µs floor is exactly what a deep submission
/// window overlaps. (`write_rate_for` models the divisible aggregate rate
/// and is the right tool for makespans, not per-command latency.)
fn cmd_latency_secs(cfg: &SsdConfig, net: &NetConfig, kern: &KernelCosts, bytes: u64) -> f64 {
    let blocks = bytes.div_ceil(cfg.hw_block).max(1);
    let lanes = blocks.min(u64::from(cfg.channels));
    let lane_bytes = blocks.div_ceil(lanes) * cfg.hw_block;
    kern.spdk_submit.as_secs()
        + 2.0 * (net.per_message_cpu.as_secs() + net.latency(2).as_secs())
        + cfg.cmd_overhead.as_secs()
        + lane_bytes as f64 / cfg.channel_write_bw.as_bytes_per_sec()
}

/// Makespan of one SSD's measured write stream at window depth `qd`: the
/// slowest of three serialization points.
///
/// * **latency** — each rank's commands complete `qd` per round trip, so
///   a rank is bound by `writes × L1 / qd`; ranks overlap, so the SSD
///   sees the slowest rank. This is the term the submission window
///   attacks, and the only QD=1 bottleneck for small commands.
/// * **command processor** — the controller fetches/decodes commands one
///   at a time regardless of queue depth.
/// * **media drain** — writes land in the power-loss-protected device RAM
///   at ingest speed (§III-D) and drain to flash concurrently; only the
///   backlog beyond the RAM budget waits on the channel array. In-flight
///   commands (capped at the hardware queue count) stripe the drain over
///   the channels; a 4 KiB command engages one channel, so depth is what
///   fills the array on streams that do outrun the buffer.
fn write_makespan_secs(
    cfg: &SsdConfig,
    net: &NetConfig,
    kern: &KernelCosts,
    ranks: &[&IoCounters],
    qd: usize,
) -> f64 {
    let writes: u64 = ranks.iter().map(|c| c.writes).sum();
    let bytes: u64 = ranks.iter().map(|c| c.bytes_written).sum();
    if writes == 0 {
        return 0.0;
    }
    let avg_cmd = (bytes / writes).max(1);
    let inflight = (ranks.len() * qd).min(cfg.hw_queues as usize);
    let conc_channels = (inflight as u32 * cfg.channels_for(avg_cmd)).min(cfg.channels);
    let bw = cfg.channel_write_bw.as_bytes_per_sec() * f64::from(conc_channels);
    let bw_term = bytes.saturating_sub(cfg.device_ram) as f64 / bw;
    let cmd_term = writes as f64 * cfg.cmd_overhead.as_secs();
    let l1 = cmd_latency_secs(cfg, net, kern, avg_cmd);
    let lat_term = ranks
        .iter()
        .map(|c| c.writes as f64 * l1 / qd as f64)
        .fold(0.0f64, f64::max);
    bw_term.max(cmd_term).max(lat_term)
}

struct QdPoint {
    qd: usize,
    write_makespan_secs: f64,
    write_gib_s: f64,
    write_cmds: u64,
    submit_count: u64,
    submit_p50_ns: u64,
    submit_p99_ns: u64,
}

/// Drive the 28-rank testbed at window depth `qd` with 4 KiB commands and
/// fold the busiest SSD's measured write stream into the pipeline
/// makespan.
fn qd_point(
    qd: usize,
    ssd_config: &SsdConfig,
    bytes_per_rank: u64,
    mode: ReactorMode,
) -> Result<(QdPoint, telemetry::MetricsSnapshot), Box<dyn std::error::Error>> {
    let (io, snap) = run_point(
        QD_RANKS,
        ssd_config,
        QD_BLOCK,
        qd,
        bytes_per_rank,
        true,
        mode,
    )?;
    let net = NetConfig::default();
    let kern = KernelCosts::default();
    let mut per_ssd: HashMap<(u32, u32), Vec<&IoCounters>> = HashMap::new();
    for r in &io {
        per_ssd.entry(r.ssd).or_default().push(&r.counters);
    }
    let write_makespan = per_ssd
        .values()
        .map(|ranks| write_makespan_secs(ssd_config, &net, &kern, ranks, qd))
        .fold(0.0f64, f64::max);
    let total_bytes: u64 = io.iter().map(|r| r.counters.bytes_written).sum();
    let write_cmds: u64 = io.iter().map(|r| r.counters.writes).sum();
    let submits = snap
        .histogram("fabric.submit_ns")
        .ok_or("no fabric.submit_ns histogram in run telemetry")?;
    let point = QdPoint {
        qd,
        write_makespan_secs: write_makespan,
        write_gib_s: total_bytes as f64 / write_makespan / (1u64 << 30) as f64,
        write_cmds,
        submit_count: submits.count,
        submit_p50_ns: submits.percentile(50.0),
        submit_p99_ns: submits.percentile(99.0),
    };
    Ok((point, snap))
}

/// Resident set size in KiB from `/proc/self/statm` (0 where unreadable,
/// e.g. non-Linux — the RSS gate then skips itself).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|pages| pages.parse::<u64>().ok())
        })
        .map(|pages| pages * 4)
        .unwrap_or(0)
}

/// The 28-rank QD=32 point driven in both reactor modes through the real
/// stack; the event and loop counts are the threaded run's.
struct ParityPoint {
    threaded_gib_s: f64,
    deterministic_gib_s: f64,
    reactor_events: u64,
    reactor_loops: u64,
}

/// One virtual-rank sweep point from the simkit shard model, paired with
/// the reactor pool's modeled bookkeeping bytes and the process RSS right
/// after the simulation.
struct VirtualPoint {
    ranks: usize,
    makespan_ms: f64,
    per_rank_us: f64,
    gib_s: f64,
    footprint_bytes: u64,
    rss_kb: u64,
}

struct ReactorData {
    reactors: usize,
    parity: ParityPoint,
    sweep: Vec<VirtualPoint>,
}

/// Drive the real 28-rank QD=32 point in both reactor modes and sweep the
/// shard model through the virtual rank counts.
fn reactor_section(
    ssd_config: &SsdConfig,
    bytes_per_rank: u64,
    rank_counts: &[usize],
) -> Result<ReactorData, Box<dyn std::error::Error>> {
    let qd = 32;
    let (threaded, snap) = qd_point(qd, ssd_config, bytes_per_rank, ReactorMode::Threaded)?;
    let (deterministic, _) = qd_point(qd, ssd_config, bytes_per_rank, ReactorMode::Deterministic)?;
    let parity = ParityPoint {
        threaded_gib_s: threaded.write_gib_s,
        deterministic_gib_s: deterministic.write_gib_s,
        reactor_events: snap.counter("reactor.events"),
        reactor_loops: snap.counter("reactor.loops"),
    };
    println!(
        "reactor parity: threaded={:.3}GiB/s  deterministic={:.3}GiB/s  events={}  loops={}",
        parity.threaded_gib_s,
        parity.deterministic_gib_s,
        parity.reactor_events,
        parity.reactor_loops
    );

    let model = ShardModel::default();
    let mut sweep = Vec::new();
    for &ranks in rank_counts {
        let r = model.simulate(ranks)?;
        let p = VirtualPoint {
            ranks,
            makespan_ms: r.makespan.as_secs() * 1e3,
            per_rank_us: r.per_rank_secs * 1e6,
            gib_s: r.gib_per_sec(),
            footprint_bytes: ReactorPool::footprint_bytes(model.reactors, ranks as u64),
            rss_kb: rss_kb(),
        };
        println!(
            "reactor ranks={:5}  makespan={:9.3}ms  per_rank={:7.3}us  {:6.3}GiB/s  \
             footprint={}B  rss={}KiB",
            p.ranks, p.makespan_ms, p.per_rank_us, p.gib_s, p.footprint_bytes, p.rss_kb
        );
        sweep.push(p);
    }
    Ok(ReactorData {
        reactors: model.reactors,
        parity,
        sweep,
    })
}

/// Self-validation of the reactor section; any violation fails the bench.
fn gate_reactor(data: &ReactorData) -> Result<(), Box<dyn std::error::Error>> {
    let p = &data.parity;
    let delta = (p.deterministic_gib_s - p.threaded_gib_s).abs() / p.threaded_gib_s;
    if delta > 0.05 {
        return Err(format!(
            "deterministic drive {:.3} GiB/s vs threaded {:.3} GiB/s: {:.1}% apart (> 5%)",
            p.deterministic_gib_s,
            p.threaded_gib_s,
            delta * 100.0
        )
        .into());
    }
    if p.reactor_events == 0 || p.reactor_loops == 0 {
        return Err("reactor drive published no reactor.events/loops".into());
    }
    let base = data.sweep.first().ok_or("reactor sweep is empty")?;
    for pt in &data.sweep {
        if pt.per_rank_us > base.per_rank_us * 1.2 {
            return Err(format!(
                "per-rank makespan at {} ranks is {:.3}us, over 1.2x the {}-rank {:.3}us",
                pt.ranks, pt.per_rank_us, base.ranks, base.per_rank_us
            )
            .into());
        }
    }
    for w in data.sweep.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let rank_growth = b.ranks as f64 / a.ranks as f64;
        let fp_growth = b.footprint_bytes as f64 / a.footprint_bytes as f64;
        if fp_growth >= rank_growth {
            return Err(format!(
                "reactor footprint grew {fp_growth:.2}x from {} to {} ranks (ranks grew \
                 {rank_growth:.2}x) — not sub-linear",
                a.ranks, b.ranks
            )
            .into());
        }
        if a.rss_kb > 0 && b.rss_kb > 0 {
            let rss_growth = b.rss_kb as f64 / a.rss_kb as f64;
            if rss_growth >= rank_growth {
                return Err(format!(
                    "process RSS grew {rss_growth:.2}x from {} to {} ranks (ranks grew \
                     {rank_growth:.2}x) — not sub-linear",
                    a.ranks, b.ranks
                )
                .into());
            }
        }
    }
    Ok(())
}

/// Real time the fabric spent in command submission paths over one run —
/// the sum of the measured `fabric.submit_ns` histogram. The flight
/// recorder's `record()` calls sit on exactly these paths, so the
/// enabled-vs-disabled delta of this sum is the recorder's dataplane
/// overhead.
fn submit_ns_sum(
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
        .histogram("fabric.submit_ns")
        .ok_or("no fabric.submit_ns histogram in run telemetry")?
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
    submit_ns_sum(qd, ssd_config, bytes_per_rank, true)?;
    submit_ns_sum(qd, ssd_config, bytes_per_rank, false)?;
    let mut on = u64::MAX;
    let mut off = u64::MAX;
    for _ in 0..7 {
        on = on.min(submit_ns_sum(qd, ssd_config, bytes_per_rank, true)?);
        off = off.min(submit_ns_sum(qd, ssd_config, bytes_per_rank, false)?);
    }
    if off == 0 {
        return Err("recorder-off run recorded zero submit time".into());
    }
    Ok((on.saturating_sub(off) as f64 / off as f64) * 100.0)
}

fn write_dataplane_json(
    points: &[Point],
    reactor: Option<&ReactorData>,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"dataplane\",\n");
    let (reactors, max_ranks) = match reactor {
        Some(r) => (
            r.reactors as u32,
            r.sweep.last().map_or(0, |p| p.ranks as u32),
        ),
        None => (0, SWEEP[SWEEP.len() - 1]),
    };
    json.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: RuntimeConfig::default().fabric.queue_depth,
        ranks: max_ranks.max(SWEEP[SWEEP.len() - 1]),
        replication_factor: 1,
        delta_chain_max: 0,
        mode: "reactor",
        reactors,
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
    json.push(']');
    if let Some(r) = reactor {
        let p = &r.parity;
        let _ = write!(
            json,
            ",\n  \"reactor\": {{\n    \"reactors\": {},\n    \"parity_qd32\": \
             {{\"threaded_gib_s\": {:.3}, \"deterministic_gib_s\": {:.3}, \
             \"reactor_events\": {}, \"reactor_loops\": {}}},\n    \"virtual_sweep\": [\n",
            r.reactors, p.threaded_gib_s, p.deterministic_gib_s, p.reactor_events, p.reactor_loops
        );
        for (i, pt) in r.sweep.iter().enumerate() {
            let sep = if i + 1 == r.sweep.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "      {{\"ranks\": {}, \"makespan_ms\": {:.3}, \"per_rank_us\": {:.3}, \
                 \"gib_s\": {:.3}, \"footprint_bytes\": {}, \"rss_kb\": {}}}{sep}",
                pt.ranks, pt.makespan_ms, pt.per_rank_us, pt.gib_s, pt.footprint_bytes, pt.rss_kb
            );
        }
        json.push_str("    ]\n  }");
    }
    json.push_str("\n}\n");
    std::fs::write("BENCH_dataplane.json", &json)?;
    println!("wrote BENCH_dataplane.json");
    Ok(())
}

fn write_pipeline_json(
    points: &[QdPoint],
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
        "  ],\n  \"speedup_deepest_vs_qd1\": {:.3},\n  \"recorder_overhead_pct\": {:.3}\n}}",
        last.write_gib_s / first.write_gib_s,
        recorder_overhead_pct
    );
    std::fs::write("BENCH_pipeline.json", &json)?;
    println!("wrote BENCH_pipeline.json");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut smoke = false;
    let mut qd_arg = 32usize;
    let mut reactor_only = false;
    let mut ranks_arg = 10_000usize;
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
            "--mode" => match args.next().ok_or("--mode needs a value")?.as_str() {
                "reactor" => reactor_only = true,
                other => return Err(format!("--mode takes only reactor, got {other}").into()),
            },
            "--ranks" => {
                ranks_arg = args
                    .next()
                    .ok_or("--ranks needs a value")?
                    .parse()
                    .map_err(|e| format!("--ranks: {e}"))?;
                if ranks_arg == 0 {
                    return Err("--ranks must be >= 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }

    let ssd_config = SsdConfig {
        capacity: 16 << 30,
        ..SsdConfig::default()
    };

    // Reactor-only mode: the parity point, the virtual-rank sweep and the
    // scaling gates — the CI `reactor-smoke` path.
    if reactor_only {
        let (counts, bytes_per_rank): (Vec<usize>, u64) = if smoke {
            (vec![28, ranks_arg], SMOKE_BYTES_PER_RANK)
        } else {
            let mut counts = REACTOR_SWEEP.to_vec();
            let last = counts.len() - 1;
            counts[last] = counts[last].max(ranks_arg);
            (counts, BYTES_PER_RANK)
        };
        let data = reactor_section(&ssd_config, bytes_per_rank, &counts)?;
        write_dataplane_json(&[], Some(&data))?;
        return gate_reactor(&data);
    }

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
        // Full runs fold the reactor section into the same artifact so
        // BENCH_dataplane.json always carries the scale story.
        let mut counts = REACTOR_SWEEP.to_vec();
        let last_i = counts.len() - 1;
        counts[last_i] = counts[last_i].max(ranks_arg);
        let data = reactor_section(&ssd_config, BYTES_PER_RANK, &counts)?;
        write_dataplane_json(&points, Some(&data))?;
        gate_reactor(&data)?;
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
        let (p, _) = qd_point(qd, &ssd_config, bytes_per_rank, ReactorMode::Threaded)?;
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

    // Disarmed-path flight-recorder overhead at the deepest window depth:
    // the always-on rings must cost <= 2% of real submit time.
    let deepest = *qds.last().expect("sweep is non-empty");
    let overhead_pct = recorder_overhead_pct(deepest, &ssd_config, bytes_per_rank)?;
    println!("recorder overhead at qd={deepest}: {overhead_pct:.3}% of submit time");
    write_pipeline_json(&qd_points, bytes_per_rank, overhead_pct)?;
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
