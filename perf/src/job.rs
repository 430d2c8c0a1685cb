//! One job: build a fresh cluster and runtime, run the checkpoint rounds,
//! crash and recover ranks, read everything back and verify it, finalize
//! and drop. Every call goes through the public API of the stack; timing
//! covers only those calls.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cluster::{JobAllocation, JobRequest, Scheduler, Topology};
use microfs::block::IoCounters;
use microfs::BlockDevice;
use nvmecr::{NvmeCrRuntime, ReactorConfig, ReactorMode, RuntimeConfig, StorageRack};
use ssd::SsdConfig;
use telemetry::{MetricsSnapshot, Telemetry};

use crate::model;
use crate::sys;
use crate::trace::{SpanBuf, Tracer, NO_RANK};
use crate::workload::{self, CrashSet, Kind, Op, ScriptOutcome, Spec};

/// Submission-window depth of every rank connection.
pub const QUEUE_DEPTH: usize = 32;

/// Everything a run prepares once and every job reuses: jobs of one run
/// replay identical inputs, so their deterministic counters must agree.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    /// Reactor threads of every drive.
    pub threads: usize,
    /// `[round][rank]` checkpoint scripts.
    pub round_scripts: Arc<Vec<Vec<Vec<Op>>>>,
    /// `[rank]` restart scripts.
    pub read_scripts: Arc<Vec<Vec<Op>>>,
    /// `[rank]` payload buffers, restamped before each round.
    pub payload: Arc<Vec<Mutex<Vec<u8>>>>,
    /// `[rank]` buffers the restart reads into.
    pub readbuf: Arc<Vec<Mutex<Vec<u8>>>>,
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64) -> Self {
        let ranks = 0..spec.ranks;
        let round_scripts = (0..spec.rounds)
            .map(|round| {
                ranks
                    .clone()
                    .map(|rank| workload::round_script(&spec, seed, rank, round))
                    .collect()
            })
            .collect();
        let read_scripts = ranks
            .clone()
            .map(|rank| workload::read_script(&spec, seed, rank))
            .collect();
        let payload = ranks
            .clone()
            .map(|rank| {
                let mut buf = vec![0u8; spec.payload_bytes];
                workload::fill_base(seed, rank, &mut buf);
                Mutex::new(buf)
            })
            .collect();
        let readbuf = ranks
            .map(|_| Mutex::new(vec![0u8; workload::readback_bytes(&spec)]))
            .collect();
        Inputs {
            spec,
            seed,
            threads: sys::reactor_threads(),
            round_scripts: Arc::new(round_scripts),
            read_scripts: Arc::new(read_scripts),
            payload: Arc::new(payload),
            readbuf: Arc::new(readbuf),
        }
    }

    /// The runtime configuration of the workload, reporting to `telemetry`.
    pub fn runtime_config(&self, telemetry: &Telemetry) -> RuntimeConfig {
        let mut config = RuntimeConfig {
            block_size: self.spec.block_size,
            namespace_bytes: 8 << 30,
            telemetry: telemetry.clone(),
            replication_factor: self.spec.replication_factor,
            delta_chain_max: self.spec.delta_chain_max,
            ..RuntimeConfig::default()
        };
        config.fabric.queue_depth = QUEUE_DEPTH;
        config
    }

    fn reactor_config(&self) -> ReactorConfig {
        ReactorConfig {
            reactors: self.threads,
            mode: ReactorMode::Threaded,
            qos: None,
        }
    }

    /// File bytes `rank` holds live at the end of the rounds: what its
    /// restart reads back, times the rounds for the workloads that keep
    /// every round's file.
    pub fn live_bytes(&self, rank: u32) -> u64 {
        let newest: u64 = self.read_scripts[rank as usize]
            .iter()
            .map(|op| match op {
                Op::Read { len, .. } => *len as u64,
                _ => 0,
            })
            .sum();
        match self.spec.kind {
            Kind::Bulk => u64::from(self.spec.rounds) * newest,
            Kind::MetaChurn | Kind::MirrorDelta => newest,
        }
    }

    /// Ranks a job crashes and recovers.
    pub fn crash_ranks(&self) -> Vec<u32> {
        match self.spec.crash {
            CrashSet::All => (0..self.spec.ranks).collect(),
            CrashSet::OneThenFailover => vec![0],
        }
    }
}

/// Counters that single-threaded-deterministic code produces: they must
/// repeat to the digit for a fixed seed, job after job and run after run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// Bytes handed to `write`/`pwrite` over the checkpoint rounds.
    pub app_bytes: u64,
    /// Bytes written to every SSD over the checkpoint rounds (primary and
    /// replica; data, WAL, snapshots, manifests).
    pub device_bytes_written: u64,
    /// `fabric.io_ops` over the checkpoint rounds.
    pub io_ops: u64,
    /// Bytes read from every SSD during the recover phase.
    pub recover_read_bytes: u64,
    /// Live file bytes of the crashed ranks.
    pub crashed_live_bytes: u64,
    /// Modeled write makespan of the busiest SSD over the rounds.
    pub model_makespan_s: f64,
}

/// What one job measured.
pub struct JobSample {
    pub schedule_ms: f64,
    pub rack_build_ms: f64,
    pub init_ms: f64,
    pub setup_s: f64,
    pub round_wall_s: Vec<f64>,
    pub round_app_bytes: Vec<u64>,
    pub commit_ms: Vec<f64>,
    /// Process CPU over the checkpoint rounds.
    pub ckpt_cpu_s: f64,
    /// First `crash_rank` to `recover_ranks` returning.
    pub crash_recover_ms: f64,
    /// `kill_primary_shard` + `fail_over_rank`, one per rank failed over.
    pub failover_ms: Vec<f64>,
    pub restart_s: f64,
    pub restart_bytes: u64,
    pub finalize_ms: f64,
    pub payload_gen_ms: f64,
    pub verify_cmp_ms: f64,
    pub exact: Exact,
    pub outcome: ScriptOutcome,
    pub rss_before_mib: f64,
    pub rss_after_rounds_mib: f64,
    /// Highest resident set size sampled at the phase boundaries of the
    /// job (after set-up, each round, recovery, restart, failover).
    pub peak_rss_mib: f64,
    /// Device-resident metadata bytes (WAL + snapshots + dirents) over
    /// all ranks at the end of the rounds.
    pub meta_bytes: u64,
    /// `drive` wall minus the busiest reactor's rank time, per round.
    pub drive_overhead_ms: Vec<f64>,
    /// The job's telemetry at the end of the rounds and before finalize.
    pub after_rounds: MetricsSnapshot,
    pub at_end: MetricsSnapshot,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time `f`, as a span of the main thread when the job is traced.
fn step<R>(spans: &mut Option<SpanBuf<'_>>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    if let Some(b) = spans.as_mut() {
        b.enter(name, NO_RANK, 0);
    }
    let t = Instant::now();
    let r = f();
    let took = ms(t);
    if let Some(b) = spans.as_mut() {
        b.exit();
    }
    (r, took)
}

fn lock<'a>(slot: &'a Mutex<Vec<u8>>) -> std::sync::MutexGuard<'a, Vec<u8>> {
    slot.lock()
        .expect("a rank closure panicked holding its buffer")
}

/// `(writes, reads, bytes_written, bytes_read)` summed over every SSD.
fn rack_counters(rack: &StorageRack, topo: &Topology) -> (u64, u64, u64, u64) {
    let mut t = (0, 0, 0, 0);
    for node in topo.storage_nodes() {
        for (_, target) in rack.targets_on(node) {
            let c = target.device().io_counters();
            t = (t.0 + c.0, t.1 + c.1, t.2 + c.2, t.3 + c.3);
        }
    }
    t
}

fn counters_since(now: IoCounters, then: IoCounters) -> IoCounters {
    IoCounters {
        writes: now.writes - then.writes,
        reads: now.reads - then.reads,
        bytes_written: now.bytes_written - then.bytes_written,
        bytes_read: now.bytes_read - then.bytes_read,
        bytes_copied: now.bytes_copied - then.bytes_copied,
    }
}

/// Which script a drive runs on every rank.
#[derive(Clone, Copy)]
enum Drive {
    Round(u32),
    Restart,
}

/// Where a job's spans go when it is traced: the main thread's buffer and
/// the tracer the rank closures open their own buffers on.
struct JobTrace<'t> {
    job: u32,
    tracer: Option<&'t Arc<Tracer>>,
    spans: Option<SpanBuf<'t>>,
}

/// One reactor drive over the `mounted` ranks, as a span called `name`.
/// Returns the summed script outcome and the drive's overhead in ms: its
/// wall time beyond the time its busiest reactor spent inside rank scripts.
fn drive(
    rt: &mut NvmeCrRuntime,
    inputs: &Inputs,
    which: Drive,
    mounted: u32,
    name: &'static str,
    trace: &mut JobTrace<'_>,
) -> Result<(ScriptOutcome, f64), String> {
    let parent = trace.spans.as_mut().map(|b| b.enter(name, NO_RANK, 0));
    let driven = drive_ranks(
        rt,
        inputs,
        which,
        mounted,
        trace.job,
        trace.tracer.zip(parent),
    );
    if let Some(b) = trace.spans.as_mut() {
        b.exit();
    }
    driven
}

fn drive_ranks(
    rt: &mut NvmeCrRuntime,
    inputs: &Inputs,
    which: Drive,
    mounted: u32,
    job: u32,
    tracer: Option<(&Arc<Tracer>, u64)>,
) -> Result<(ScriptOutcome, f64), String> {
    let round_scripts = Arc::clone(&inputs.round_scripts);
    let read_scripts = Arc::clone(&inputs.read_scripts);
    let payload = Arc::clone(&inputs.payload);
    let readbuf = Arc::clone(&inputs.readbuf);
    let traced = tracer.map(|(t, parent)| (Arc::clone(t), parent));
    let t0 = Instant::now();
    let per_rank = rt
        .map_ranks_reactor(&inputs.reactor_config(), move |rank, fs| {
            let r = rank as usize;
            let payload = lock(&payload[r]);
            let mut readbuf = lock(&readbuf[r]);
            let ops = match which {
                Drive::Round(round) => &round_scripts[round as usize][r],
                Drive::Restart => &read_scripts[r],
            };
            let started = t0.elapsed();
            let out = match &traced {
                Some((tracer, parent)) => {
                    let mut buf = tracer.buf(job);
                    buf.enter("rank", rank, *parent);
                    let out = workload::run_script(
                        fs,
                        ops,
                        &payload,
                        &mut readbuf,
                        rank,
                        Some((&mut buf, 0)),
                    );
                    buf.exit();
                    out
                }
                None => workload::run_script(fs, ops, &payload, &mut readbuf, rank, None),
            };
            Ok((out, (t0.elapsed() - started).as_secs_f64()))
        })
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    let mut total = ScriptOutcome::default();
    // A threaded reactor owns task i mod N for the whole drive, and
    // results come back in rank order, which is task order.
    let mut reactor_busy = vec![0.0f64; inputs.threads];
    let visited = per_rank.len();
    for (task, (out, busy)) in per_rank.into_iter().enumerate() {
        reactor_busy[task % inputs.threads] += busy;
        total.absorb(out);
    }
    total.ensure(
        "drive visits every mounted rank",
        visited == mounted as usize,
        || format!("{visited} of {mounted}"),
    );
    let busiest = reactor_busy.iter().copied().fold(0.0, f64::max);
    Ok((total, (wall - busiest).max(0.0) * 1e3))
}

/// A freshly built cluster with an initialized runtime, and what each
/// step of building it took.
struct SetUp {
    topo: Topology,
    rack: StorageRack,
    alloc: JobAllocation,
    rt: NvmeCrRuntime,
    ssd_config: SsdConfig,
    schedule_ms: f64,
    rack_build_ms: f64,
    init_ms: f64,
    /// From nothing to `NvmeCrRuntime::init` returning.
    setup_s: f64,
}

/// Set-up: topology, rack, scheduler allocation and `NvmeCrRuntime::init`
/// for `ranks` ranks of the workload, each job on a private telemetry
/// registry so its counters start at zero.
fn set_up(inputs: &Inputs, ranks: u32, spans: &mut Option<SpanBuf<'_>>) -> Result<SetUp, String> {
    let t_setup = Instant::now();
    let telemetry = Telemetry::new();
    let ssd_config = SsdConfig::default();
    let topo = Topology::paper_testbed();
    let (rack, rack_build_ms) = step(spans, "rack_build", || {
        StorageRack::build_with_telemetry(&topo, &ssd_config, telemetry.clone())
    });
    let (alloc, schedule_ms) = step(spans, "schedule", || {
        Scheduler::new(topo.clone(), 8).submit(&JobRequest::full_subscription(ranks))
    });
    let alloc = alloc.map_err(|e| format!("schedule: {e}"))?;
    let (rt, init_ms) = step(spans, "init", || {
        NvmeCrRuntime::init(&rack, &topo, &alloc, inputs.runtime_config(&telemetry))
    });
    let rt = rt.map_err(|e| format!("init: {e}"))?;
    Ok(SetUp {
        setup_s: t_setup.elapsed().as_secs_f64(),
        topo,
        rack,
        alloc,
        rt,
        ssd_config,
        schedule_ms,
        rack_build_ms,
        init_ms,
    })
}

/// Recover time of a rank that never wrote anything (an empty WAL): the
/// fixed cost under every recovery. Median of a few crash/recover cycles
/// of rank 0 on a fresh runtime.
pub fn recover_floor_ms(inputs: &Inputs) -> Result<f64, String> {
    const CYCLES: usize = 3;
    let mut cluster = set_up(inputs, inputs.spec.ranks.min(28), &mut None)?;
    let mut samples = Vec::new();
    for _ in 0..CYCLES {
        cluster.rt.crash_rank(0).map_err(|e| e.to_string())?;
        let t = Instant::now();
        cluster.rt.recover_ranks(&[0]).map_err(|e| e.to_string())?;
        samples.push(ms(t));
    }
    cluster.rt.finalize().map_err(|e| e.to_string())?;
    Ok(crate::stats::median(&samples))
}

/// Compare what the restart read back with what each rank wrote, one
/// checked step per rank; returns the bytes compared.
fn verify_ranks(
    inputs: &Inputs,
    ranks: impl Iterator<Item = u32>,
    outcome: &mut ScriptOutcome,
) -> u64 {
    let mut bytes = 0;
    for rank in ranks {
        let mut p = lock(&inputs.payload[rank as usize]);
        let got = lock(&inputs.readbuf[rank as usize]);
        let same = workload::verify_readback(
            &inputs.spec,
            inputs.seed,
            rank,
            &inputs.read_scripts[rank as usize],
            &mut p,
            &got,
        );
        bytes += same.unwrap_or(0);
        outcome.ensure("byte-verify", same.is_some(), || {
            format!("rank {rank} read back other bytes than it wrote")
        });
    }
    bytes
}

/// Run one job. `tracer` turns on span recording (the traced run).
pub fn run_job(
    inputs: &Inputs,
    job: u32,
    tracer: Option<&Arc<Tracer>>,
) -> Result<JobSample, String> {
    let spec = &inputs.spec;
    let mut trace = JobTrace {
        job,
        tracer,
        spans: tracer.map(|t| t.buf(job)),
    };
    let mut outcome = ScriptOutcome::default();
    let rss_before_mib = sys::rss_mib();
    let mut peak_rss_mib = rss_before_mib;
    let mut sample_rss = || peak_rss_mib = peak_rss_mib.max(sys::rss_mib());

    let SetUp {
        topo,
        rack,
        alloc,
        mut rt,
        ssd_config,
        schedule_ms,
        rack_build_ms,
        init_ms,
        setup_s,
    } = set_up(inputs, spec.ranks, &mut trace.spans)?;

    // ---- checkpoint rounds ----------------------------------------------
    let device_counters = |rt: &mut NvmeCrRuntime| -> Result<Vec<IoCounters>, String> {
        (0..spec.ranks)
            .map(|r| {
                rt.rank_fs(r)
                    .map(|fs| fs.device().counters())
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    sample_rss();
    let dev_before = device_counters(&mut rt)?;
    let rack_before = rack_counters(&rack, &topo);
    let ops_before = rt.telemetry().snapshot().counter("fabric.io_ops");
    let mut round_wall_s = Vec::new();
    let mut round_app_bytes = Vec::new();
    let mut commit_ms = Vec::new();
    let mut drive_overhead_ms = Vec::new();
    let mut ckpt_cpu_s = 0.0;
    let mut payload_gen_ms = 0.0;
    for round in 0..spec.rounds {
        let t_gen = Instant::now();
        for rank in 0..spec.ranks {
            let mut p = lock(&inputs.payload[rank as usize]);
            workload::prepare_round(spec, inputs.seed, rank, round, &mut p);
        }
        payload_gen_ms += ms(t_gen);

        let cpu0 = sys::cpu_secs();
        let t_round = Instant::now();
        let (out, overhead) = drive(
            &mut rt,
            inputs,
            Drive::Round(round),
            spec.ranks,
            "drive",
            &mut trace,
        )?;
        round_app_bytes.push(out.app_bytes);
        outcome.absorb(out);
        drive_overhead_ms.push(overhead);
        if spec.replication_factor >= 2 {
            let (epochs, took) = step(&mut trace.spans, "commit_epochs", || rt.commit_epochs());
            commit_ms.push(took);
            let sealed = epochs.as_ref().map_or(0, Vec::len);
            outcome.check("commit_epochs", epochs.map(|_| ()));
            outcome.ensure(
                "commit_epochs seals every rank",
                sealed == spec.ranks as usize,
                || format!("{sealed} of {} ranks sealed", spec.ranks),
            );
        }
        round_wall_s.push(t_round.elapsed().as_secs_f64());
        ckpt_cpu_s += sys::cpu_secs() - cpu0;
        sample_rss();
    }
    let after_rounds = rt.telemetry().snapshot();
    let rack_after = rack_counters(&rack, &topo);
    let dev_after = device_counters(&mut rt)?;
    let rss_after_rounds_mib = sys::rss_mib();
    let mut meta_bytes = 0;
    for r in 0..spec.ranks {
        meta_bytes += rt
            .rank_fs(r)
            .map_err(|e| e.to_string())?
            .stats()
            .metadata_device_bytes();
    }
    let per_rank_model: Vec<((u32, u32), IoCounters)> = rt
        .placement()
        .per_rank
        .iter()
        .map(|p| {
            let g = alloc.storage[p.grant];
            let r = p.rank as usize;
            (
                (g.node.0, g.ssd),
                counters_since(dev_after[r], dev_before[r]),
            )
        })
        .collect();
    let model_makespan_s =
        model::busiest_ssd_makespan_secs(&ssd_config, &per_rank_model, QUEUE_DEPTH);
    if spec.replication_factor >= 2 {
        let sealed = after_rounds.counter("replication.epochs_committed");
        let want = u64::from(spec.rounds) * u64::from(spec.ranks);
        outcome.ensure(
            "replication.epochs_committed == rounds x ranks",
            sealed == want,
            || format!("{sealed} != {want}"),
        );
    }

    // ---- crash and recover ----------------------------------------------
    let crashed = inputs.crash_ranks();
    let reads_before = rack_counters(&rack, &topo).3;
    let t_crash = Instant::now();
    for &r in &crashed {
        let (res, _) = step(&mut trace.spans, "crash_rank", || rt.crash_rank(r));
        outcome.check("crash_rank", res);
    }
    let (res, _) = step(&mut trace.spans, "recover_ranks", || {
        rt.recover_ranks(&crashed)
    });
    outcome.check("recover_ranks", res);
    let crash_recover_ms = ms(t_crash);
    let recover_read_bytes = rack_counters(&rack, &topo).3 - reads_before;
    sample_rss();

    // ---- restart: read back, then verify byte for byte ------------------
    let t_restart = Instant::now();
    let driven = drive(
        &mut rt,
        inputs,
        Drive::Restart,
        spec.ranks,
        "restart_drive",
        &mut trace,
    );
    let restart_s = t_restart.elapsed().as_secs_f64();
    outcome.absorb(driven?.0);
    sample_rss();
    let t_cmp = Instant::now();
    let restart_bytes = verify_ranks(inputs, 0..spec.ranks, &mut outcome);
    let mut verify_cmp_ms = ms(t_cmp);

    // ---- shard death and failover ---------------------------------------
    // Ranks of one grant share a primary namespace, so the dead shard
    // behind rank 0 takes every rank of that grant with it (all 28 ranks
    // of a one-SSD job, 112 of the 448). Each is failed over in turn, one
    // timed sample per rank. At rep=2 the replacement is restored from the
    // replica and the images are read back once more; at rep=1 it is
    // formatted fresh (the checkpoint is lost by design, which is why this
    // comes after the restart).
    let dead_grant = rt.placement().per_rank[0].grant;
    let mut victims: Vec<u32> = rt
        .placement()
        .per_rank
        .iter()
        .filter(|p| p.grant == dead_grant)
        .map(|p| p.rank)
        .collect();
    if spec.crash == CrashSet::OneThenFailover {
        // A recovered rank's mirror map spans its whole rescanned segment,
        // so failing it over restores ~300 MB (seconds, not milliseconds;
        // README, first results). That compound case is kept out of the
        // timed set: the recovered rank dies with the shard.
        for &r in &crashed {
            let (res, _) = step(&mut trace.spans, "crash_rank", || rt.crash_rank(r));
            outcome.check("crash_rank", res);
        }
        victims.retain(|r| !crashed.contains(r));
    }
    let mut failover_ms = Vec::new();
    for &r in &victims {
        let t_failover = Instant::now();
        let (res, _) = step(&mut trace.spans, "kill_primary_shard", || {
            rt.kill_primary_shard(r)
        });
        outcome.check("kill_primary_shard", res);
        let (res, _) = step(&mut trace.spans, "fail_over_rank", || {
            rt.fail_over_rank(r, &rack, &topo)
        });
        outcome.check("fail_over_rank", res);
        failover_ms.push(ms(t_failover));
    }
    if spec.replication_factor >= 2 {
        let driven = drive(
            &mut rt,
            inputs,
            Drive::Restart,
            spec.ranks - crashed.len() as u32,
            "failover_verify_drive",
            &mut trace,
        )?;
        outcome.absorb(driven.0);
        let t_cmp = Instant::now();
        verify_ranks(inputs, victims.iter().copied(), &mut outcome);
        verify_cmp_ms += ms(t_cmp);
    }

    sample_rss();

    // ---- conservation on fault-free runs, then finalize -----------------
    let at_end = rt.telemetry().snapshot();
    for name in ["fabric.retries", "fabric.timeouts"] {
        let v = at_end.counter(name);
        outcome.ensure(name, v == 0, || format!("{v} on a fault-free workload"));
    }
    let (res, finalize_ms) = step(&mut trace.spans, "finalize", || rt.finalize());
    outcome.check("finalize", res.map(|_| ()));

    let app_bytes = round_app_bytes.iter().sum();
    Ok(JobSample {
        schedule_ms,
        rack_build_ms,
        init_ms,
        setup_s,
        round_wall_s,
        round_app_bytes,
        commit_ms,
        ckpt_cpu_s,
        crash_recover_ms,
        failover_ms,
        restart_s,
        restart_bytes,
        finalize_ms,
        payload_gen_ms,
        verify_cmp_ms,
        exact: Exact {
            app_bytes,
            device_bytes_written: rack_after.2 - rack_before.2,
            io_ops: after_rounds.counter("fabric.io_ops") - ops_before,
            recover_read_bytes,
            crashed_live_bytes: crashed.iter().map(|&r| inputs.live_bytes(r)).sum(),
            model_makespan_s,
        },
        outcome,
        rss_before_mib,
        rss_after_rounds_mib,
        peak_rss_mib,
        meta_bytes,
        drive_overhead_ms,
        after_rounds,
        at_end,
    })
}
