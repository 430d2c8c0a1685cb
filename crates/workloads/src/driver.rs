//! Experiment drivers.
//!
//! Two kinds of driving:
//!
//! * **Model-level** ([`scaling_sweep`], [`multilevel_eval`]): sweep
//!   [`StorageModel`]s over scenarios for the Figure 9 and Table II
//!   harnesses, in simulated time.
//! * **Functional** ([`run_functional_checkpoints`]): build the paper's
//!   testbed (scheduler → balancer → NVMf → SSDs), run a CoMD-like
//!   N-N checkpoint sequence with *real bytes*, crash ranks, recover, and
//!   verify payloads byte-for-byte. Used by integration tests, examples,
//!   and the metadata-overhead (Table I) harness. Every per-rank phase
//!   runs on the runtime's reactor pool; [`checkpoint_ranks`] and
//!   [`verify_ranks`] are the same phases for benches that build their
//!   own runtime.

use std::sync::Mutex;

use baselines::model::StorageModel;
use baselines::scenario::Scenario;
use baselines::LustreModel;
use chaos::{ChaosHandle, FaultAction, FaultPlan, Site};
use cluster::{JobRequest, Scheduler, Topology};
use microfs::MicroFs;
use nvmecr::multilevel::{CheckpointLevel, MultiLevelPolicy};
use nvmecr::runtime::{NvmeCrRuntime, RuntimeError, StorageRack};
use nvmecr::{metrics, MachineStep, NvmfBlockDevice, RankMachine, ReactorConfig, RuntimeConfig};
use simkit::SimTime;
use ssd::SsdConfig;
use telemetry::Telemetry;

use crate::comd::CoMD;

/// One point of a scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Process count.
    pub procs: u32,
    /// Checkpoint efficiency (Figure 9a/9c).
    pub ckpt_efficiency: f64,
    /// Recovery efficiency (Figure 9b/9d).
    pub rec_efficiency: f64,
    /// One checkpoint's makespan.
    pub ckpt_time: SimTime,
    /// One recovery's makespan.
    pub rec_time: SimTime,
}

/// Sweep a model over scenarios (one per process count).
pub fn scaling_sweep(model: &dyn StorageModel, scenarios: &[Scenario]) -> Vec<ScalingPoint> {
    scenarios
        .iter()
        .map(|s| ScalingPoint {
            procs: s.procs,
            ckpt_efficiency: model.checkpoint_efficiency(s),
            rec_efficiency: model.recovery_efficiency(s),
            ckpt_time: model.checkpoint_makespan(s),
            rec_time: model.recovery_makespan(s),
        })
        .collect()
}

/// Table II row: multi-level checkpointing outcome for one tier-1 system.
#[derive(Debug, Clone)]
pub struct MultiLevelResult {
    /// Tier-1 system name.
    pub system: &'static str,
    /// Total checkpoint time across the run's checkpoints.
    pub checkpoint_time: SimTime,
    /// Recovery time after a (non-cascading) failure.
    pub recovery_time: SimTime,
    /// Application progress rate (compute / total).
    pub progress_rate: f64,
}

/// Run the §IV-I evaluation: `n_ckpts` checkpoints with every
/// `policy.period()`-th going to Lustre, then one recovery from tier 1.
pub fn multilevel_eval(
    tier1: &dyn StorageModel,
    s: &Scenario,
    policy: MultiLevelPolicy,
    n_ckpts: u32,
    compute_interval: SimTime,
) -> MultiLevelResult {
    let lustre = LustreModel::new();
    let t_fast = tier1.checkpoint_makespan(s);
    let t_slow = lustre.checkpoint_makespan(s);
    let mut checkpoint_time = SimTime::ZERO;
    for i in 1..=n_ckpts {
        checkpoint_time += match policy.level_for(i) {
            CheckpointLevel::Fast => t_fast,
            CheckpointLevel::Parallel => t_slow,
        };
    }
    let recovery_time = tier1.recovery_makespan(s);
    let compute = compute_interval * f64::from(n_ckpts);
    let total = compute + checkpoint_time;
    MultiLevelResult {
        system: tier1.name(),
        checkpoint_time,
        recovery_time,
        progress_rate: metrics::progress_rate(compute, total),
    }
}

/// Outcome of a functional (real-bytes) run.
#[derive(Debug, Clone)]
pub struct FunctionalReport {
    /// Ranks driven.
    pub procs: u32,
    /// Checkpoints completed per rank.
    pub ckpts: u32,
    /// Total checkpoint bytes written and verified.
    pub bytes_verified: u64,
    /// Ranks crashed and recovered successfully.
    pub recovered_ranks: u32,
    /// Log records replayed across recovered ranks.
    pub replayed_records: u64,
    /// Device-resident metadata bytes across all ranks.
    pub metadata_bytes: u64,
    /// DRAM metadata footprint across all ranks.
    pub dram_bytes: u64,
    /// Every metric the run's components reported (the run gets its own
    /// registry, so this covers exactly this run's traffic): `fabric.*`,
    /// `ssd.*`, `microfs.*`, and `driver.*` counters, gauges, and latency
    /// histograms.
    pub telemetry: telemetry::MetricsSnapshot,
}

impl FunctionalReport {
    /// Payload bytes memcpy'd anywhere on the data path (initiator
    /// staging + device drain-to-media) over the whole run.
    pub fn bytes_copied(&self) -> u64 {
        self.telemetry.counter("fabric.bytes_copied") + self.telemetry.counter("ssd.bytes_copied")
    }

    /// Nanoseconds ranks spent blocked on namespace-shard locks —
    /// the direct observable for cross-rank device contention.
    pub fn lock_wait_ns(&self) -> u64 {
        self.telemetry.counter("ssd.lock_wait_ns")
    }

    /// FNV-1a hash over the run's deterministic outcome: the verified
    /// bytes, recovery work, metadata footprints, and the data-plane IO
    /// volume counters — everything two equivalent runs must reproduce
    /// exactly, and nothing timing-dependent. Two drive modes agree iff
    /// their state hashes agree.
    pub fn state_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(u64::from(self.procs));
        mix(u64::from(self.ckpts));
        mix(self.bytes_verified);
        mix(u64::from(self.recovered_ranks));
        mix(self.replayed_records);
        mix(self.metadata_bytes);
        mix(self.dram_bytes);
        mix(self.telemetry.counter("fabric.io_ops"));
        mix(self.telemetry.counter("fabric.io_bytes"));
        h
    }
}

/// One rank's CoMD checkpoint as a reactor state machine: mkdirs,
/// create, then one 1 MiB write per step, fsync, close — cut at write
/// boundaries so a reactor advances many ranks' checkpoints concurrently
/// on one core.
struct CkptMachine<'a> {
    comd: &'a CoMD,
    ckpt: u32,
    bytes_per_rank: u64,
    ckpt_rank_ns: &'a telemetry::Histogram,
    state: CkptState,
}

enum CkptState {
    Start,
    Writing {
        fd: u32,
        payload: Vec<u8>,
        off: usize,
        started: std::time::Instant,
    },
}

impl RankMachine<MicroFs<NvmfBlockDevice>> for CkptMachine<'_> {
    type Out = ();

    fn step(
        &mut self,
        rank: u32,
        fs: &mut MicroFs<NvmfBlockDevice>,
    ) -> Result<MachineStep<()>, RuntimeError> {
        let write_size = 1usize << 20;
        // One span per step: a rank's checkpoint interleaves with the
        // other ranks of its reactor.
        let _span = telemetry::span("driver", "checkpoint_rank")
            .arg("rank", u64::from(rank))
            .arg("ckpt", u64::from(self.ckpt));
        match &mut self.state {
            CkptState::Start => {
                let started = std::time::Instant::now();
                if self.ckpt == 0 {
                    // Per-rank private namespaces: same paths, no
                    // coordination.
                    fs.mkdir("/comd", 0o755).ok();
                }
                fs.mkdir(&format!("/comd/ckpt_{:03}", self.ckpt), 0o755)?;
                let payload =
                    self.comd
                        .checkpoint_payload(rank, self.ckpt, self.bytes_per_rank as usize);
                let fd = fs.create(&CoMD::checkpoint_path(rank, self.ckpt), 0o644)?;
                self.state = CkptState::Writing {
                    fd,
                    payload,
                    off: 0,
                    started,
                };
                Ok(MachineStep::Yield)
            }
            CkptState::Writing {
                fd,
                payload,
                off,
                started,
            } => {
                let end = (*off + write_size).min(payload.len());
                fs.write(*fd, &payload[*off..end])?;
                *off = end;
                if *off < payload.len() {
                    return Ok(MachineStep::Yield);
                }
                fs.fsync(*fd)?;
                fs.close(*fd)?;
                self.ckpt_rank_ns
                    .record(started.elapsed().as_nanos() as u64);
                Ok(MachineStep::Done(()))
            }
        }
    }
}

/// Write CoMD checkpoint `ckpt` (`bytes_per_rank` bytes) on every mounted
/// rank, one chunked state machine per rank on the pool `reactor`
/// configures. Payload generation happens inside the drive, so it runs on
/// the reactors too.
pub fn checkpoint_ranks(
    rt: &mut NvmeCrRuntime,
    reactor: &ReactorConfig,
    comd: &CoMD,
    ckpt: u32,
    bytes_per_rank: u64,
) -> Result<(), RuntimeError> {
    let ckpt_rank_ns = rt.telemetry().histogram("driver.checkpoint_rank_ns");
    rt.drive_reactor(reactor, |_| {
        Box::new(CkptMachine {
            comd,
            ckpt,
            bytes_per_rank,
            ckpt_rank_ns: &ckpt_rank_ns,
            state: CkptState::Start,
        })
    })
    .map(|_| ())
}

/// Read CoMD checkpoint `ckpt` back on every mounted rank, on the pool
/// `reactor` configures, and compare it byte for byte: the verified bytes
/// per rank in rank order, `None` where the bytes differ (the caller turns
/// that into an error — [`RuntimeError`] has no corruption variant and
/// shouldn't grow one for a workload).
pub fn verify_ranks(
    rt: &mut NvmeCrRuntime,
    reactor: &ReactorConfig,
    comd: &CoMD,
    ckpt: u32,
    bytes_per_rank: u64,
) -> Result<Vec<Option<u64>>, RuntimeError> {
    let verify_rank_ns = rt.telemetry().histogram("driver.verify_rank_ns");
    rt.map_ranks_reactor(reactor, |rank, fs| {
        let _span = telemetry::span("driver", "verify_rank").arg("rank", u64::from(rank));
        let _t = verify_rank_ns.time();
        let expect = comd.checkpoint_payload(rank, ckpt, bytes_per_rank as usize);
        let fd = fs.open(
            &CoMD::checkpoint_path(rank, ckpt),
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
        Ok((buf == expect).then_some(expect.len() as u64))
    })
}

/// Drive the full functional stack: schedule a job on the paper testbed,
/// run `ckpts` N-N checkpoint rounds of `bytes_per_rank` each (CoMD-style
/// payloads), crash `crash_ranks`, recover them, and verify every byte of
/// the newest checkpoint. Every per-rank phase runs on the runtime's
/// reactor pool, sized by `config.reactors`. The run reports into a fresh
/// [`Telemetry`] registry the driver installs in place of
/// `config.telemetry`, so [`FunctionalReport::telemetry`] covers exactly
/// this run. `ckpts` must be at least 1: there is no checkpoint to verify
/// otherwise.
pub fn run_functional_checkpoints(
    procs: u32,
    ckpts: u32,
    bytes_per_rank: u64,
    crash_ranks: &[u32],
    config: &RuntimeConfig,
) -> Result<FunctionalReport, Box<dyn std::error::Error>> {
    run_functional(
        procs,
        ckpts,
        bytes_per_rank,
        crash_ranks,
        config,
        &ReactorConfig::default(),
    )
}

/// [`run_functional_checkpoints`] with the checkpoint and verify drives on
/// the pool `reactor` configures.
fn run_functional(
    procs: u32,
    ckpts: u32,
    bytes_per_rank: u64,
    crash_ranks: &[u32],
    config: &RuntimeConfig,
    reactor: &ReactorConfig,
) -> Result<FunctionalReport, Box<dyn std::error::Error>> {
    if ckpts == 0 {
        return Err("functional runs need at least one checkpoint".into());
    }
    let topo = Topology::paper_testbed();
    // Each run reports into its own registry so the report's snapshot
    // covers exactly this run (runs may share a process, e.g. in tests).
    let telemetry = Telemetry::new();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 16 << 30,
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched.submit(&JobRequest::full_subscription(procs))?;
    let config = RuntimeConfig {
        telemetry: telemetry.clone(),
        ..config.clone()
    };
    let replicated = config.replication_factor >= 2;
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config)?;
    let comd = CoMD::weak_scaling();

    // Checkpoint phases. Each rank owns its filesystem, NVMf connection,
    // and (via the balancer) a disjoint region of a namespace shard, so
    // ranks can be driven concurrently without sharing a data-plane lock.
    for ckpt in 0..ckpts {
        checkpoint_ranks(&mut rt, reactor, &comd, ckpt, bytes_per_rank)?;
        // Replicated runs seal one epoch per checkpoint round: manifests
        // land on both copies, so a failover restores this round exactly.
        if replicated {
            rt.commit_epochs()?;
        }
    }

    // Crash, then recover as one batch (recovery mounts replay WALs
    // independently per rank).
    for &rank in crash_ranks {
        rt.crash_rank(rank)?;
    }
    rt.recover_ranks(crash_ranks)?;
    let mut replayed = 0;
    for &rank in crash_ranks {
        replayed += rt.rank_fs(rank)?.stats().replayed_records;
    }

    // Verify the newest checkpoint everywhere (and recovered ranks fully).
    let last = ckpts - 1;
    let verified = verify_ranks(&mut rt, reactor, &comd, last, bytes_per_rank)?;
    let mut bytes_verified = 0u64;
    for (rank, v) in verified.iter().enumerate() {
        match v {
            Some(n) => bytes_verified += n,
            None => return Err(format!("rank {rank} checkpoint {last} corrupted").into()),
        }
    }

    let metadata_bytes = rt.metadata_device_bytes();
    let dram_bytes = rt.dram_footprint();
    rt.finalize()?;
    Ok(FunctionalReport {
        procs,
        ckpts,
        bytes_verified,
        recovered_ranks: crash_ranks.len() as u32,
        replayed_records: replayed,
        metadata_bytes,
        dram_bytes,
        telemetry: telemetry.snapshot(),
    })
}

// ---------------------------------------------------------------------------
// Incremental (dirty-fraction) checkpoint runs
// ---------------------------------------------------------------------------

/// Diff granularity of the incremental drivers. Matches the chained
/// mirror's extent re-tile cap, so one dirty chunk re-seals exactly one
/// manifest tuple on the copy-on-write path.
pub const INCREMENTAL_CHUNK: usize = 64 << 10;

/// How a rank decides which bytes of its evolving image to write each
/// checkpoint round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalStrategy {
    /// Rewrite the whole image every round — the N-N baseline.
    FullRewrite,
    /// The application tracks its own dirty chunks as it mutates them and
    /// writes exactly those — no scan at all. Composed with
    /// `delta_chain_max > 0` the manifest side also seals sparse deltas.
    CowTracked,
}

impl IncrementalStrategy {
    /// Stable label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            IncrementalStrategy::FullRewrite => "full_rewrite",
            IncrementalStrategy::CowTracked => "cow_tracked",
        }
    }
}

/// splitmix64 — the deterministic generator behind image content and
/// per-round dirty-set selection (runs must be reproducible per rank).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fill_chunk(data: &mut [u8], seed: u64) {
    let mut w = seed;
    for (j, b) in data.iter_mut().enumerate() {
        if j % 8 == 0 {
            w = mix64(w.wrapping_add(j as u64));
        }
        *b = (w >> ((j % 8) * 8)) as u8;
    }
}

/// One rank's evolving application image: deterministic content, and a
/// deterministic dirty set per round so every strategy sees identical
/// mutations.
pub struct IncrementalImage {
    rank: u32,
    chunk: usize,
    data: Vec<u8>,
}

impl IncrementalImage {
    /// A fresh image of `len` bytes for `rank`, mutated and diffed at
    /// `chunk`-byte granularity.
    pub fn new(rank: u32, len: usize, chunk: usize) -> Self {
        assert!(chunk > 0);
        let mut data = vec![0u8; len];
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            fill_chunk(c, mix64((u64::from(rank) << 40) ^ i as u64));
        }
        IncrementalImage { rank, chunk, data }
    }

    /// Current image bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutate this round's dirty set — `dirty_permille`/1000 of the
    /// chunks (at least one, unless the image is empty), chosen
    /// pseudo-randomly but deterministically per `(rank, round)` — and
    /// return the coalesced dirty byte spans.
    pub fn advance(&mut self, round: u32, dirty_permille: u32) -> Vec<(u64, u64)> {
        let nchunks = self.data.len().div_ceil(self.chunk);
        let k = ((nchunks as u64 * u64::from(dirty_permille)).div_ceil(1000) as usize)
            .max(1)
            .min(nchunks);
        let mut idx: Vec<usize> = (0..nchunks).collect();
        let (rank, chunk, len) = (self.rank, self.chunk, self.data.len());
        idx.sort_by_key(|&i| mix64((u64::from(rank) << 40) ^ (u64::from(round) << 20) ^ i as u64));
        idx.truncate(k);
        idx.sort_unstable();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for &i in &idx {
            let start = i * chunk;
            let end = (start + chunk).min(len);
            fill_chunk(
                &mut self.data[start..end],
                mix64((u64::from(rank) << 40) ^ (u64::from(round) << 20) ^ (i as u64) ^ 0x5eed),
            );
            let span_len = (end - start) as u64;
            match spans.last_mut() {
                Some((s, l)) if *s + *l == start as u64 => *l += span_len,
                _ => spans.push((start as u64, span_len)),
            }
        }
        spans
    }
}

/// Everything one incremental run needs: scale, churn, strategy, and the
/// runtime configuration underneath.
#[derive(Debug, Clone)]
pub struct IncrementalSpec {
    /// Dirty-set strategy each rank checkpoints with.
    pub strategy: IncrementalStrategy,
    /// Ranks driven.
    pub procs: u32,
    /// Checkpoint rounds; round 0 writes the full image, later rounds
    /// mutate and re-checkpoint.
    pub rounds: u32,
    /// Image bytes per rank.
    pub bytes_per_rank: u64,
    /// Per-round dirty fraction in permille (100 = 10%).
    pub dirty_permille: u32,
    /// The job's runtime configuration (namespace size, block size, QD,
    /// replication, delta chains). The driver installs its own per-run
    /// telemetry registry in place of `config.telemetry`.
    pub config: RuntimeConfig,
    /// After the last round, kill rank 0's primary shard and byte-verify
    /// the replica-driven restore (requires `replication_factor >= 2`).
    pub fail_over: bool,
}

/// Outcome of one incremental run.
#[derive(Debug, Clone)]
pub struct IncrementalRunReport {
    /// Ranks driven.
    pub procs: u32,
    /// Rounds completed.
    pub rounds: u32,
    /// Image bytes per rank.
    pub bytes_per_rank: u64,
    /// Device bytes written by round 0 (full image baseline, commit
    /// included).
    pub first_round_device_bytes: u64,
    /// Device bytes written by rounds 1.. — the steady state the
    /// write-reduction gate measures.
    pub steady_device_bytes: u64,
    /// Bytes the application handed to the filesystem in rounds 1..
    pub steady_app_bytes: u64,
    /// Final-image bytes read back and verified across all ranks.
    pub bytes_verified: u64,
    /// `true` when the run killed rank 0's shard after the last round and
    /// the restored image verified byte-identical.
    pub failover_verified: bool,
    /// Every metric this run's components reported (`cow.*`,
    /// `replication.*`, `fabric.*`, `ssd.*`, ...).
    pub telemetry: telemetry::MetricsSnapshot,
}

/// Total bytes written across every device in the rack.
fn rack_write_bytes(rack: &StorageRack, topo: &Topology) -> u64 {
    let mut total = 0;
    for node in topo.storage_nodes() {
        for (_, target) in rack.targets_on(node) {
            total += target.device().io_counters().2;
        }
    }
    total
}

/// `pwrite` the image's bytes over `spans` into `path` (created on the
/// first round), fsync, and return the bytes written.
fn write_image_spans(
    fs: &mut MicroFs<NvmfBlockDevice>,
    path: &str,
    image: &[u8],
    spans: &[(u64, u64)],
    first: bool,
) -> Result<u64, RuntimeError> {
    let fd = if first {
        fs.create(path, 0o644)?
    } else {
        fs.open(
            path,
            microfs::OpenFlags {
                write: true,
                ..microfs::OpenFlags::RDONLY
            },
            0,
        )?
    };
    let mut written = 0u64;
    for &(offset, len) in spans {
        let (start, end) = (offset as usize, (offset + len) as usize);
        for (i, piece) in image[start..end].chunks(1 << 20).enumerate() {
            fs.pwrite(fd, offset + (i as u64) * (1 << 20), piece)?;
            written += piece.len() as u64;
        }
    }
    fs.fsync(fd)?;
    fs.close(fd)?;
    Ok(written)
}

/// Per-rank state the rounds thread through the reactor drives.
struct IncrementalRank {
    image: IncrementalImage,
    app_bytes: u64,
}

/// Drive `spec.procs` ranks through `spec.rounds` incremental checkpoint
/// rounds of one in-place image file per rank: round 0 writes the full
/// image, every later round mutates `dirty_permille`/1000 of the chunks
/// and re-checkpoints under `spec.strategy`. Replicated runs seal one
/// epoch per round; with `delta_chain_max > 0` those epochs are sparse
/// delta manifests. The final image is read back and byte-verified on
/// every rank, and optionally again on rank 0 after a shard-kill
/// failover restore through the delta chain. A spec with no rounds or an
/// empty image is rejected.
pub fn run_incremental_checkpoints(
    spec: &IncrementalSpec,
) -> Result<IncrementalRunReport, Box<dyn std::error::Error>> {
    if spec.rounds == 0 {
        return Err("incremental runs need at least one round".into());
    }
    if spec.bytes_per_rank == 0 {
        return Err("incremental runs need a non-empty image".into());
    }
    if spec.fail_over && spec.config.replication_factor < 2 {
        return Err("failover verification needs replication_factor >= 2".into());
    }
    let topo = Topology::paper_testbed();
    let telemetry = Telemetry::new();
    let ssd_chaos = ChaosHandle::new();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 16 << 30,
            chaos: ssd_chaos.clone(),
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched.submit(&JobRequest::full_subscription(spec.procs))?;
    let config = RuntimeConfig {
        telemetry: telemetry.clone(),
        ..spec.config.clone()
    };
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config)?;
    let ckpt_ns = telemetry.histogram("driver.incremental_ckpt_ns");

    let path = "/comd/incr.dat";
    let ranks: Vec<Mutex<IncrementalRank>> = (0..spec.procs)
        .map(|rank| {
            Mutex::new(IncrementalRank {
                image: IncrementalImage::new(rank, spec.bytes_per_rank as usize, INCREMENTAL_CHUNK),
                app_bytes: 0,
            })
        })
        .collect();

    let after_init = rack_write_bytes(&rack, &topo);
    let mut after_first = after_init;
    for round in 0..spec.rounds {
        rt.map_ranks_reactor(&ReactorConfig::default(), |rank, fs| {
            let mut state = ranks[rank as usize].lock().expect("rank state");
            let state = &mut *state;
            if round == 0 {
                fs.mkdir("/comd", 0o755).ok();
            }
            // Round 0 writes the whole image; later rounds mutate it and the
            // tracked strategy writes only what it dirtied.
            let dirty = (round > 0).then(|| state.image.advance(round, spec.dirty_permille));
            let spans = match (spec.strategy, dirty) {
                (IncrementalStrategy::CowTracked, Some(dirty)) => dirty,
                _ => vec![(0, spec.bytes_per_rank)],
            };
            let _t = ckpt_ns.time();
            state.app_bytes += write_image_spans(fs, path, state.image.data(), &spans, round == 0)?;
            Ok(())
        })?;
        if spec.config.replication_factor >= 2 {
            rt.commit_epochs()?;
        }
        if round == 0 {
            after_first = rack_write_bytes(&rack, &topo);
        }
    }
    let after_rounds = rack_write_bytes(&rack, &topo);
    let steady_app_bytes: u64 = ranks
        .iter()
        .map(|r| r.lock().expect("rank state").app_bytes)
        .sum::<u64>()
        - spec.procs as u64 * spec.bytes_per_rank;

    // Every rank's final image must read back byte-identical.
    let verified: Vec<bool> = rt.map_ranks_reactor(&ReactorConfig::default(), |rank, fs| {
        let state = ranks[rank as usize].lock().expect("rank state");
        verify_image(fs, path, state.image.data())
    })?;
    if let Some(rank) = verified.iter().position(|&ok| !ok) {
        return Err(format!("rank {rank} final incremental image corrupted").into());
    }
    let bytes_verified = spec.procs as u64 * spec.bytes_per_rank;

    let mut failover_verified = false;
    if spec.fail_over {
        // Kill rank 0's primary shard under a crashed rank: the restore
        // must come entirely from the replica's manifest chain.
        let victim = 0u32;
        rt.crash_rank(victim)?;
        ssd_chaos.arm(
            FaultPlan::new(1).at_op(Site::ShardIo, FaultAction::KillShard, 0),
            &telemetry,
        );
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
        rt.fail_over_rank(victim, &rack, &topo)?;
        let state = ranks[victim as usize].lock().expect("rank state");
        let fs = rt.rank_fs(victim)?;
        if !verify_image(fs, path, state.image.data())? {
            return Err(
                "restored incremental image is not byte-identical to the last epoch".into(),
            );
        }
        failover_verified = true;
        // The shared shard died with the other ranks' primaries: tear the
        // rack down with the job instead of finalizing through dead routes.
    } else {
        rt.finalize()?;
    }

    Ok(IncrementalRunReport {
        procs: spec.procs,
        rounds: spec.rounds,
        bytes_per_rank: spec.bytes_per_rank,
        first_round_device_bytes: after_first - after_init,
        steady_device_bytes: after_rounds - after_first,
        steady_app_bytes,
        bytes_verified,
        failover_verified,
        telemetry: telemetry.snapshot(),
    })
}

/// Read `path` fully and compare against `expect`.
fn verify_image(
    fs: &mut MicroFs<NvmfBlockDevice>,
    path: &str,
    expect: &[u8],
) -> Result<bool, RuntimeError> {
    let fd = fs.open(path, microfs::OpenFlags::RDONLY, 0)?;
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
    Ok(got == expect.len() && buf == expect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvmecr_model::NvmeCrModel;
    use proptest::prelude::*;

    #[test]
    fn sweep_produces_one_point_per_scenario() {
        let scenarios: Vec<Scenario> = [56u32, 112]
            .iter()
            .map(|&p| Scenario::weak_scaling(p))
            .collect();
        let pts = scaling_sweep(&NvmeCrModel::full(), &scenarios);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.ckpt_efficiency > 0.5));
    }

    #[test]
    fn multilevel_ordering_matches_table2() {
        use baselines::{GlusterFsModel, OrangeFsModel};
        // Table II's setting: strong scaling at 448 processes.
        let s = Scenario::strong_scaling(448);
        let policy = MultiLevelPolicy::new(10);
        let compute = CoMD::strong_scaling(448).compute_interval();
        let ours = multilevel_eval(&NvmeCrModel::full(), &s, policy, 10, compute);
        let gluster = multilevel_eval(&GlusterFsModel::new(), &s, policy, 10, compute);
        let orange = multilevel_eval(&OrangeFsModel::new(), &s, policy, 10, compute);
        // Table II ordering: NVMe-CR < GlusterFS < OrangeFS on time,
        // reversed on progress rate.
        assert!(ours.checkpoint_time < gluster.checkpoint_time);
        assert!(gluster.checkpoint_time < orange.checkpoint_time);
        assert!(ours.progress_rate > gluster.progress_rate);
        assert!(gluster.progress_rate > orange.progress_rate);
        // Paper ballpark: NVMe-CR progress rate ~0.42.
        assert!(
            (0.30..0.65).contains(&ours.progress_rate),
            "progress rate {}",
            ours.progress_rate
        );
    }

    #[test]
    fn functional_small_run_verifies_bytes() {
        let report =
            run_functional_checkpoints(56, 2, 256 << 10, &[3, 17], &RuntimeConfig::default())
                .unwrap();
        assert_eq!(report.procs, 56);
        assert_eq!(report.bytes_verified, 56 * (256 << 10));
        assert_eq!(report.recovered_ranks, 2);
        assert!(report.replayed_records > 0);
        assert!(report.metadata_bytes > 0);
        assert!(report.dram_bytes > 0);
        assert!(report.bytes_copied() > 0);
        // The snapshot spans every instrumented layer of this run.
        let layers = report.telemetry.layers();
        for layer in ["driver", "fabric", "microfs", "ssd"] {
            assert!(layers.iter().any(|l| l == layer), "missing layer {layer}");
        }
        // 56 ranks x 2 checkpoints, timed once each.
        let h = report
            .telemetry
            .histogram("driver.checkpoint_rank_ns")
            .unwrap();
        assert_eq!(h.count, 56 * 2);
        assert!(h.percentile(99.0) >= h.percentile(50.0));
        assert_eq!(
            report
                .telemetry
                .histogram("driver.recover_rank_ns")
                .unwrap()
                .count,
            2
        );
    }

    #[test]
    fn serial_and_parallel_modes_agree() {
        // One reactor steps the ranks one after another on one thread;
        // four run them on four threads.
        let run = |reactors| {
            let config = RuntimeConfig {
                reactors,
                ..RuntimeConfig::default()
            };
            run_functional_checkpoints(8, 1, 64 << 10, &[2], &config).unwrap()
        };
        let (ser, par) = (run(1), run(4));
        assert_eq!(par.bytes_verified, ser.bytes_verified);
        assert_eq!(par.replayed_records, ser.replayed_records);
        assert_eq!(par.metadata_bytes, ser.metadata_bytes);
        assert_eq!(par.bytes_copied(), ser.bytes_copied());
        assert_eq!(par.state_hash(), ser.state_hash());
    }

    #[test]
    fn reactor_mode_agrees_with_parallel_and_multiplexes_ranks() {
        // 8 ranks on 2 reactors: 4x more ranks than threads. The lockstep
        // deterministic drive and the threaded one must agree bit for bit.
        let config = RuntimeConfig {
            reactors: 2,
            ..RuntimeConfig::default()
        };
        let det = run_functional(
            8,
            2,
            256 << 10,
            &[1, 5],
            &config,
            &ReactorConfig {
                mode: nvmecr::ReactorMode::Deterministic,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let thr = run_functional_checkpoints(8, 2, 256 << 10, &[1, 5], &config).unwrap();
        assert_eq!(det.state_hash(), thr.state_hash());
        assert_eq!(det.bytes_verified, 8 * (256 << 10));
        assert_eq!(det.replayed_records, thr.replayed_records);
        for run in [&det, &thr] {
            // The reactor pool actually ran: multiplexed events and loops.
            // 256 KiB in 1 MiB chunks is one write step + the open step,
            // so each rank machine yields at least once per checkpoint.
            assert!(run.telemetry.counter("reactor.events") >= 8 * 2 * 2);
            assert!(run.telemetry.counter("reactor.loops") > 0);
            // Per-rank checkpoint latency is recorded in both modes alike.
            let h = run
                .telemetry
                .histogram("driver.checkpoint_rank_ns")
                .unwrap();
            assert_eq!(h.count, 8 * 2);
        }
        // Same machines, same steps: only their interleaving differs.
        assert_eq!(
            det.telemetry.counter("reactor.events"),
            thr.telemetry.counter("reactor.events")
        );
    }

    #[test]
    fn incremental_image_is_deterministic_and_dirty_set_is_exact() {
        let mut a = IncrementalImage::new(3, 1 << 20, INCREMENTAL_CHUNK);
        let mut b = IncrementalImage::new(3, 1 << 20, INCREMENTAL_CHUNK);
        assert_eq!(a.data(), b.data());
        let sa = a.advance(1, 100);
        let sb = b.advance(1, 100);
        assert_eq!(sa, sb);
        assert_eq!(a.data(), b.data());
        // 16 chunks at 100 permille -> exactly 2 dirty chunks.
        let dirty: u64 = sa.iter().map(|&(_, l)| l).sum();
        assert_eq!(dirty, 2 * INCREMENTAL_CHUNK as u64);
        // Different rounds dirty different sets (with overwhelming odds).
        let sc = a.advance(2, 100);
        assert!(a.data() != b.data() || sc == sb);
    }

    #[test]
    fn incremental_cow_run_reduces_steady_write_bytes_and_verifies() {
        let spec = IncrementalSpec {
            strategy: IncrementalStrategy::CowTracked,
            procs: 8,
            rounds: 4,
            bytes_per_rank: 1 << 20,
            dirty_permille: 100,
            config: RuntimeConfig {
                namespace_bytes: 256 << 20,
                replication_factor: 2,
                delta_chain_max: 4,
                ..RuntimeConfig::default()
            },
            fail_over: true,
        };
        let cow = run_incremental_checkpoints(&spec).unwrap();
        assert_eq!(cow.bytes_verified, 8 << 20);
        assert!(cow.failover_verified);
        // Steady rounds hand the fs only the dirty fraction.
        assert!(cow.steady_app_bytes < 3 * (8 << 20) / 4);
        assert!(cow.steady_device_bytes < cow.first_round_device_bytes * 3);
        // The chain sealed sparse deltas and the fs tracked copy-ups.
        assert!(cow.telemetry.counter("cow.delta_extents") > 0);
        assert!(cow.telemetry.counter("cow.copy_up_bytes") > 0);
        assert!(cow.telemetry.gauge("cow.chain_len").peak >= 2);
        assert_eq!(cow.telemetry.counter("replication.degraded_restores"), 1);

        let full = run_incremental_checkpoints(&IncrementalSpec {
            strategy: IncrementalStrategy::FullRewrite,
            fail_over: false,
            config: RuntimeConfig {
                delta_chain_max: 0,
                ..spec.config.clone()
            },
            ..spec
        })
        .unwrap();
        assert!(
            full.steady_device_bytes as f64 >= 3.0 * cow.steady_device_bytes as f64,
            "full {} vs cow {}",
            full.steady_device_bytes,
            cow.steady_device_bytes
        );
    }

    #[test]
    fn functional_run_rejects_zero_checkpoints() {
        let err = run_functional_checkpoints(4, 0, 64 << 10, &[], &RuntimeConfig::default());
        assert!(err.is_err(), "zero checkpoints leave nothing to verify");
    }

    #[test]
    fn incremental_run_rejects_an_empty_image() {
        let spec = IncrementalSpec {
            strategy: IncrementalStrategy::CowTracked,
            procs: 4,
            rounds: 2,
            bytes_per_rank: 0,
            dirty_permille: 100,
            config: RuntimeConfig::default(),
            fail_over: false,
        };
        assert!(run_incremental_checkpoints(&spec).is_err());
    }

    /// FNV-1a 64 over one chunk: the hash-scan diff (libhashckpt-style,
    /// §II-B) kept as the oracle for the tracked dirty set.
    fn chunk_hash(data: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    /// Indices of the `chunk`-byte chunks whose hash differs between two
    /// equal-length images.
    fn hash_dirty_chunks(before: &[u8], after: &[u8], chunk: usize) -> Vec<usize> {
        assert_eq!(before.len(), after.len());
        before
            .chunks(chunk)
            .zip(after.chunks(chunk))
            .enumerate()
            .filter(|(_, (b, a))| chunk_hash(b) != chunk_hash(a))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the chunks `spans` cover, checking that every span is
    /// chunk-aligned (a span may end short only at the end of the image).
    fn span_chunks(spans: &[(u64, u64)], chunk: usize, len: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for &(offset, span_len) in spans {
            let (start, end) = (offset as usize, (offset + span_len) as usize);
            assert_eq!(
                start % chunk,
                0,
                "span {offset}+{span_len} starts mid-chunk"
            );
            assert!(
                end % chunk == 0 || end == len,
                "span {offset}+{span_len} ends mid-chunk"
            );
            out.extend(start / chunk..end.div_ceil(chunk));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tracked dirty set is exact: the chunks whose FNV-1a hash
        /// changed across `advance` are exactly the chunks its spans cover,
        /// for any churn (`dirty_permille` in 1..=1000) and image length,
        /// with or without a partial last chunk (empty images included).
        #[test]
        fn tracked_dirty_set_equals_hash_oracle(
            rank in 0u32..1024,
            round in 1u32..4096,
            dirty_permille in 1u32..1001,
            full_chunks in 0usize..12,
            tail in prop_oneof![Just(0usize), 1usize..INCREMENTAL_CHUNK],
        ) {
            let len = full_chunks * INCREMENTAL_CHUNK + tail;
            let mut image = IncrementalImage::new(rank, len, INCREMENTAL_CHUNK);
            let before = image.data().to_vec();
            let spans = image.advance(round, dirty_permille);
            prop_assert_eq!(
                hash_dirty_chunks(&before, image.data(), INCREMENTAL_CHUNK),
                span_chunks(&spans, INCREMENTAL_CHUNK, len)
            );
        }
    }

    #[test]
    fn incremental_cow_app_bytes_match_hash_oracle() {
        let (procs, rounds, bytes_per_rank, dirty_permille) = (4u32, 3u32, 512usize << 10, 125);
        let cow = run_incremental_checkpoints(&IncrementalSpec {
            strategy: IncrementalStrategy::CowTracked,
            procs,
            rounds,
            bytes_per_rank: bytes_per_rank as u64,
            dirty_permille,
            config: RuntimeConfig {
                namespace_bytes: 128 << 20,
                ..RuntimeConfig::default()
            },
            fail_over: false,
        })
        .unwrap();
        // Replay every rank's mutations and let the hash diff find the
        // dirty chunks: the CoW run handed the fs exactly those bytes.
        let mut oracle_bytes = 0u64;
        for rank in 0..procs {
            let mut image = IncrementalImage::new(rank, bytes_per_rank, INCREMENTAL_CHUNK);
            for round in 1..rounds {
                let before = image.data().to_vec();
                image.advance(round, dirty_permille);
                for i in hash_dirty_chunks(&before, image.data(), INCREMENTAL_CHUNK) {
                    let end = ((i + 1) * INCREMENTAL_CHUNK).min(bytes_per_rank);
                    oracle_bytes += (end - i * INCREMENTAL_CHUNK) as u64;
                }
            }
        }
        assert!(oracle_bytes > 0);
        assert_eq!(cow.steady_app_bytes, oracle_bytes);
    }
}
