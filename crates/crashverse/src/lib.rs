//! # crashverse — deterministic crash-universe exploration
//!
//! FoundationDB-style systematic crash testing for the NVMe-CR stack
//! (DESIGN.md §13). One *counting* run executes a fixed incremental-
//! checkpoint workload (replicated ranks, CoW delta chain) with every
//! durability-relevant operation — WAL appends, block writes, mirrored
//! writes, manifest bodies, commit records, discards — assigned a global
//! op index by the chaos gate armed with an empty plan. That index space
//! *is* the crash universe: the explorer then re-executes the workload
//! once per index `k`, arms a [`chaos::FaultPlan::crash_at_op`]`(k)` rule
//! so op `k` and every later durability op fail (a dead universe — nothing
//! survives the crash point), kills the job ungracefully with
//! [`nvmecr::runtime::NvmeCrRuntime::crash_job`], recovers it with
//! [`nvmecr::runtime::NvmeCrRuntime::attach`] (`recover_ranks` over every
//! rank, through the typestate chain `Crashed → Replaying → Verified →
//! serving`), and checks the recovery invariants:
//!
//! * **I1 — recoverable**: attach (reconnect, snapshot + log replay,
//!   manifest decode, mirror rescan) succeeds at every crash point.
//! * **I2 — no lost acknowledged write**: every file call that returned
//!   success before the crash is byte-identical after recovery; the one
//!   *failing* call is allowed exactly its documented visibility (a torn
//!   in-place overwrite window, an absent created file, a still-present
//!   unlink victim).
//! * **I3 — epochs resume in bounds**: the first post-recovery commit
//!   seals epoch `h + 1` where `confirmed ≤ h ≤ started` — a torn commit
//!   record may legally leave the primary one epoch ahead of the last
//!   acknowledged seal, but recovery never invents epochs and never
//!   rolls back below an acknowledged one.
//! * **I4 — scrubbable**: a post-recovery scrub finds zero unrecoverable
//!   extents (replica damage from half-done discards must be repairable
//!   from the primary).
//!
//! Everything is deterministic from `(seed, op index, config)`: payloads
//! come from [`simkit::rng::pattern_fill`], the stack is rebuilt from
//! scratch for every universe, ranks are driven serially while armed,
//! and recovery runs disarmed. A failing point is shrunk to the minimal
//! failing index (the ascending scan makes stride-sampled gaps cheap to
//! close), dumped through the flight recorder as `FLIGHT_*.jsonl`, and
//! reported with a replay command line that pins seed, crash index, and
//! config fingerprint.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use chaos::{ChaosHandle, FaultPlan, Plane, Report, SITES};
use cluster::{JobRequest, Scheduler, Topology};
use microfs::OpenFlags;
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::{ReactorConfig, ReactorPool, RecoveryPolicy, RecoverySupervisor, RuntimeConfig};
use simkit::rng::{derive_seed, pattern_fill};
use ssd::SsdConfig;
use telemetry::{FlightKind, Telemetry};

/// Per-grant namespace size: two ranks share a grant, so each rank gets
/// a 16 MiB segment — the smallest the balancer accepts, keeping the log
/// scan of recovery cheap enough to run hundreds of universes per smoke
/// (the mirror rescan reads only the live footprint, whatever the size).
const NAMESPACE_BYTES: u64 = 32 << 20;
/// SSD capacity backing each simulated device.
const SSD_CAPACITY: u64 = 2 << 30;
/// Stop exploring after this many distinct failing points; each failure
/// already carries a pinned replay line, and a systemic bug would
/// otherwise fail thousands of points and drown the report.
const MAX_FAILURES: usize = 8;

/// The knobs a crash universe is derived from. Two runs with equal
/// configs produce identical op counts, identical per-point verdicts,
/// and identical shrink behaviour.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Payload seed; every file byte derives from it.
    pub seed: u64,
    /// MPI ranks (each with its own microfs, primary, and replica).
    pub ranks: u32,
    /// Sealed epochs the workload attempts.
    pub epochs: u32,
    /// Fresh checkpoint files written per rank per epoch.
    pub files_per_epoch: u32,
    /// Size of each fresh checkpoint file, KiB.
    pub write_kib: u64,
    /// Cap on crash points executed; universes larger than this are
    /// stride-sampled and failures shrunk back to the minimal index.
    pub max_points: Option<u64>,
    /// Where failing points dump `FLIGHT_*.jsonl` counterexamples.
    pub dump_dir: Option<PathBuf>,
    /// Run the failover phase mid-universe: after the middle epoch seals,
    /// rank 0's primary shard is killed and every rank fails over to a
    /// replacement namespace — so the enumerated op stream (and therefore
    /// every crash point past the phase) exercises post-failover routes.
    pub failover: bool,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            seed: 0x5EED_CA5C,
            ranks: 2,
            epochs: 4,
            files_per_epoch: 3,
            write_kib: 256,
            max_points: None,
            dump_dir: None,
            failover: true,
        }
    }
}

impl UniverseConfig {
    /// Fingerprint of everything that shapes the op index space — seed,
    /// workload shape, and the fixed stack constants. Printed in replay
    /// lines so a counterexample can refuse to replay against a
    /// different universe.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = derive_seed(self.seed, 0xC8A5);
        for v in [
            u64::from(self.ranks),
            u64::from(self.epochs),
            u64::from(self.files_per_epoch),
            self.write_kib,
            u64::from(self.failover),
            NAMESPACE_BYTES,
            SSD_CAPACITY,
        ] {
            fp = derive_seed(fp, v);
        }
        fp
    }

    /// The command line that re-executes exactly one crash point of this
    /// universe.
    pub fn replay_command(&self, k: u64) -> String {
        format!(
            "nvmecr-crashverse --seed {} --ranks {} --epochs {} --files {} \
             --write-kib {} --crash-at {} # fingerprint {:#018x}",
            self.seed,
            self.ranks,
            self.epochs,
            self.files_per_epoch,
            self.write_kib,
            k,
            self.fingerprint()
        )
    }

    /// The command line that re-executes exactly one *nested* crash
    /// point: outer crash at op `k`, recovery killed at recovery op `j`.
    pub fn replay_nested_command(&self, k: u64, j: u64) -> String {
        format!(
            "nvmecr-crashverse --nested --seed {} --ranks {} --epochs {} --files {} \
             --write-kib {} --crash-at {} --crash-in-recovery {} # fingerprint {:#018x}",
            self.seed,
            self.ranks,
            self.epochs,
            self.files_per_epoch,
            self.write_kib,
            k,
            j,
            self.fingerprint()
        )
    }

    fn bytes_per_file(&self) -> usize {
        (self.write_kib << 10) as usize
    }

    /// Epoch after whose seal the failover phase runs (the middle one).
    fn failover_epoch(&self) -> u64 {
        u64::from(self.epochs + 1) / 2
    }
}

/// The one workload call that observed the crash, and the visibility it
/// is entitled to after recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCall {
    /// Rank whose filesystem call failed.
    pub rank: u32,
    /// Which call: `"create"`, `"write"`, `"close"`, `"unlink"`, or
    /// `"commit"`.
    pub what: &'static str,
    /// Path the call named, when it named one.
    pub path: Option<String>,
    /// For a failing in-place `"write"`: the `[offset, offset + len)`
    /// window whose device bytes are torn (old/new mix) and exempt from
    /// byte verification. The file's *size* must still match the oracle.
    pub window: Option<(u64, u64)>,
}

impl FailedCall {
    fn new(rank: u32, what: &'static str, path: Option<&str>) -> Self {
        FailedCall {
            rank,
            what,
            path: path.map(str::to_string),
            window: None,
        }
    }
}

/// What the explorer decided about one crash point.
#[derive(Debug, Clone)]
pub struct PointVerdict {
    /// The crash index this point armed.
    pub op_index: u64,
    /// Did every invariant hold?
    pub passed: bool,
    /// Op index at which the crash actually fired (`None` when
    /// `op_index` lies beyond the universe — a vacuous pass).
    pub fired: Option<u64>,
    /// Kind of the op that died (from the flight recorder).
    pub fired_kind: Option<&'static str>,
    /// First invariant violation, when one was found.
    pub violation: Option<String>,
    /// Flight-recorder counterexample dump, when one was written.
    pub dump: Option<PathBuf>,
}

/// A failing crash point, shrunk to the minimal failing index.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Minimal failing op index.
    pub op_index: u64,
    /// Kind of the op that died there.
    pub fired_kind: Option<&'static str>,
    /// The invariant that broke.
    pub violation: String,
    /// `FLIGHT_*.jsonl` counterexample, when `dump_dir` was set.
    pub dump: Option<PathBuf>,
    /// Command line pinning (seed, crash index, fingerprint).
    pub replay: String,
}

/// The explorer's summary of one whole universe.
#[derive(Debug, Clone)]
pub struct UniverseReport {
    /// Config fingerprint the verdicts are bound to.
    pub fingerprint: u64,
    /// Size of the crash universe (durability ops in the clean run).
    pub total_ops: u64,
    /// Ops per site in the counting run, indexed by `chaos::Site as
    /// usize`; the durability sites are the universe.
    pub per_site: [u64; SITES],
    /// Crash points actually executed (sampling may skip some).
    pub points_run: u64,
    /// `(op index, passed)` for every executed point, ascending.
    pub verdicts: Vec<(u64, bool)>,
    /// Failing points, each shrunk to its minimal failing index.
    pub failures: Vec<Failure>,
    /// Extra re-executions spent closing sampled gaps around failures.
    pub shrink_steps: u64,
}

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

/// Everything the oracle knows about the run so far: contents of every
/// successfully written file, paths successfully unlinked, and per-rank
/// commit progress. Updated only on calls that returned success — which
/// is exactly the set of state recovery must preserve.
struct RunState {
    oracle: BTreeMap<(u32, String), Vec<u8>>,
    unlinked: Vec<(u32, String)>,
    /// Last epoch each rank saw acknowledged (`commit_epoch_rank` → `Some(e)`).
    sealed: Vec<u64>,
    /// Commits each rank *attempted* (a torn commit may still be durable).
    started: Vec<u64>,
}

impl RunState {
    fn new(ranks: u32) -> Self {
        RunState {
            oracle: BTreeMap::new(),
            unlinked: Vec::new(),
            sealed: vec![0; ranks as usize],
            started: vec![0; ranks as usize],
        }
    }
}

/// The built runtime plus the rack and topology it sits on — the
/// failover phase needs both to allocate replacement namespaces.
struct Stack {
    rt: NvmeCrRuntime,
    rack: StorageRack,
    topo: Topology,
}

fn build_stack(
    cfg: &UniverseConfig,
    telemetry: &Telemetry,
    chaos: &ChaosHandle,
) -> Result<Stack, String> {
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: SSD_CAPACITY,
            chaos: chaos.clone(),
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched
        .submit(&JobRequest::full_subscription(cfg.ranks))
        .map_err(|e| format!("schedule: {e:?}"))?;
    let config = RuntimeConfig {
        namespace_bytes: NAMESPACE_BYTES,
        replication_factor: 2,
        delta_chain_max: 4,
        telemetry: telemetry.clone(),
        chaos: chaos.clone(),
        // One reactor: every fan-out of the universe (format, mount,
        // recovery) runs on the thread driving it, in rank order — one
        // global op order, and no threads beyond the explorer's own pool.
        reactors: 1,
        ..RuntimeConfig::default()
    };
    let rt =
        NvmeCrRuntime::init(&rack, &topo, &alloc, config).map_err(|e| format!("init: {e:?}"))?;
    Ok(Stack { rt, rack, topo })
}

fn file_seed(cfg: &UniverseConfig, epoch: u64, rank: u32, file: u32, stream: u64) -> u64 {
    let lane = (epoch << 24) | (u64::from(rank) << 12) | u64::from(file);
    derive_seed(derive_seed(cfg.seed, lane), stream)
}

/// Create `path` and write `data` into it. Oracle: the create makes the
/// file durable at size 0, the write makes the full content durable.
fn put_file(
    fs: &mut microfs::MicroFs<nvmecr::NvmfBlockDevice>,
    st: &mut RunState,
    rank: u32,
    path: &str,
    data: &[u8],
) -> Result<(), FailedCall> {
    let fd = match fs.create(path, 0o644) {
        Ok(fd) => fd,
        Err(_) => return Err(FailedCall::new(rank, "create", Some(path))),
    };
    st.oracle.insert((rank, path.to_string()), Vec::new());
    if fs.write(fd, data).is_err() {
        let mut f = FailedCall::new(rank, "write", Some(path));
        f.window = Some((0, data.len() as u64));
        return Err(f);
    }
    st.oracle.insert((rank, path.to_string()), data.to_vec());
    if fs.close(fd).is_err() {
        // A failing close is a failing background snapshot; the old
        // snapshot plus the intact log still replay everything.
        return Err(FailedCall::new(rank, "close", Some(path)));
    }
    Ok(())
}

/// In-place overwrite of `[offset, offset + data.len())` in an existing
/// file — the call whose crash legally tears the window.
fn overwrite_window(
    fs: &mut microfs::MicroFs<nvmecr::NvmfBlockDevice>,
    st: &mut RunState,
    rank: u32,
    path: &str,
    offset: u64,
    data: &[u8],
) -> Result<(), FailedCall> {
    let fd = match fs.open(path, OpenFlags::RDWR, 0) {
        Ok(fd) => fd,
        Err(_) => return Err(FailedCall::new(rank, "open", Some(path))),
    };
    if fs.pwrite(fd, offset, data).is_err() {
        let mut f = FailedCall::new(rank, "write", Some(path));
        f.window = Some((offset, data.len() as u64));
        return Err(f);
    }
    // The target was written by an earlier `put_file`; a missing oracle
    // entry means the workload script itself is wrong. Surface it as a
    // failing call (the clean counting run turns that into a hard error)
    // instead of panicking mid-universe.
    let Some(entry) = st.oracle.get_mut(&(rank, path.to_string())) else {
        return Err(FailedCall::new(rank, "oracle", Some(path)));
    };
    let (a, b) = (offset as usize, offset as usize + data.len());
    entry[a..b].copy_from_slice(data);
    if fs.close(fd).is_err() {
        return Err(FailedCall::new(rank, "close", Some(path)));
    }
    Ok(())
}

/// One rank's slice of one epoch: fresh checkpoint files, an unaligned
/// in-place overwrite (this epoch and — CoW across epochs — the
/// previous one), a create/unlink churn pair, then the epoch commit.
fn drive_rank_epoch(
    rt: &mut NvmeCrRuntime,
    cfg: &UniverseConfig,
    st: &mut RunState,
    epoch: u64,
    rank: u32,
) -> Result<(), FailedCall> {
    let flen = cfg.bytes_per_file();
    let Ok(fs) = rt.rank_fs(rank) else {
        return Err(FailedCall::new(rank, "rank_fs", None));
    };
    for f in 0..cfg.files_per_epoch {
        let path = format!("/e{epoch}_f{f}.ckpt");
        let mut data = vec![0u8; flen];
        pattern_fill(&mut data, file_seed(cfg, epoch, rank, f, 0), 0);
        put_file(fs, st, rank, &path, &data)?;
    }
    // Unaligned windows exercise read-modify-write on both copies.
    let wlen = (flen / 4).max(1);
    let woff = ((epoch * 4097 + 733) as usize) % (flen - wlen).max(1);
    let mut win = vec![0u8; wlen];
    pattern_fill(&mut win, file_seed(cfg, epoch, rank, 0, 1), woff as u64);
    overwrite_window(
        fs,
        st,
        rank,
        &format!("/e{epoch}_f0.ckpt"),
        woff as u64,
        &win,
    )?;
    if epoch > 1 {
        // Dirty a sealed epoch's file so the next delta manifest carries
        // a cross-epoch CoW extent.
        let prev = format!("/e{}_f0.ckpt", epoch - 1);
        pattern_fill(&mut win, file_seed(cfg, epoch, rank, 0, 2), woff as u64);
        overwrite_window(fs, st, rank, &prev, woff as u64, &win)?;
    }
    // Churn: a scratch file created and removed within the epoch, so the
    // universe contains unlink WAL records and CoW discards.
    let tmp = format!("/e{epoch}_scratch.tmp");
    let mut tdata = vec![0u8; 8 << 10];
    pattern_fill(&mut tdata, file_seed(cfg, epoch, rank, 0, 3), 0);
    put_file(fs, st, rank, &tmp, &tdata)?;
    if fs.unlink(&tmp).is_err() {
        return Err(FailedCall::new(rank, "unlink", Some(&tmp)));
    }
    st.oracle.remove(&(rank, tmp.clone()));
    st.unlinked.push((rank, tmp));
    st.started[rank as usize] += 1;
    match rt.commit_epoch_rank(rank) {
        Ok(Some(e)) => {
            st.sealed[rank as usize] = e;
            Ok(())
        }
        Ok(None) | Err(_) => Err(FailedCall::new(rank, "commit", None)),
    }
}

/// The failover phase: kill rank 0's primary shard (ranks co-located on
/// the same grant namespace share the blast radius, as with a real dead
/// drive), then fail every rank over to a replacement namespace restored
/// from its replica. Runs at a fixed position in the op stream, so every
/// universe that survives to the phase boundary crosses it identically.
fn failover_phase(stack: &mut Stack, cfg: &UniverseConfig) -> Option<FailedCall> {
    if stack.rt.kill_primary_shard(0).is_err() {
        return Some(FailedCall::new(0, "failover", None));
    }
    for rank in 0..cfg.ranks {
        if stack
            .rt
            .fail_over_rank(rank, &stack.rack, &stack.topo)
            .is_err()
        {
            return Some(FailedCall::new(rank, "failover", None));
        }
    }
    None
}

/// Run the whole workload serially (determinism: one armed thread, one
/// global op order). Returns the first failing call, if any.
fn drive(stack: &mut Stack, cfg: &UniverseConfig, st: &mut RunState) -> Option<FailedCall> {
    for epoch in 1..=u64::from(cfg.epochs) {
        for rank in 0..cfg.ranks {
            if let Err(f) = drive_rank_epoch(&mut stack.rt, cfg, st, epoch, rank) {
                return Some(f);
            }
        }
        if cfg.failover && epoch == cfg.failover_epoch() {
            if let Some(f) = failover_phase(stack, cfg) {
                return Some(f);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------

/// Execute the workload once in counting mode and size the universe.
/// The clean run must complete — a workload that fails without a crash
/// armed is a stack bug, not a crash-consistency finding.
pub fn count_universe(cfg: &UniverseConfig) -> Result<Report, String> {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let mut stack = build_stack(cfg, &telemetry, &chaos)?;
    chaos.arm(FaultPlan::new(cfg.seed), &telemetry);
    let mut st = RunState::new(cfg.ranks);
    let failed = drive(&mut stack, cfg, &mut st);
    chaos.disarm();
    if let Some(f) = failed {
        return Err(format!("clean counting run failed at {f:?}"));
    }
    Ok(chaos.report())
}

/// Drive the workload with `crash_at_op(k)` armed. Returns the durability
/// op the crash fired at (none when `k` lies beyond the universe) and the
/// first failing call.
fn crash_drive(
    stack: &mut Stack,
    cfg: &UniverseConfig,
    st: &mut RunState,
    chaos: &ChaosHandle,
    telemetry: &Telemetry,
    k: u64,
) -> (Option<(chaos::Site, u64)>, Option<FailedCall>) {
    chaos.arm(FaultPlan::new(cfg.seed).crash_at_op(k), telemetry);
    let failed = drive(stack, cfg, st);
    chaos.disarm();
    (chaos.report().fired, failed)
}

/// Execute one crash point: arm `crash_at_op(k)`, drive until the stack
/// dies, kill the job, recover, and verify every invariant.
pub fn run_point(cfg: &UniverseConfig, k: u64) -> PointVerdict {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    // Deliberately no `set_dump_path`: the crash trip would auto-dump a
    // tape for every point. `dump_tape` writes one only on failure.
    let dump = cfg
        .dump_dir
        .as_ref()
        .map(|d| d.join(format!("FLIGHT_crashverse_op{k:06}.jsonl")));
    let mut verdict = PointVerdict {
        op_index: k,
        passed: false,
        fired: None,
        fired_kind: None,
        violation: None,
        dump: None,
    };
    let mut stack = match build_stack(cfg, &telemetry, &chaos) {
        Ok(stack) => stack,
        Err(e) => {
            verdict.violation = Some(format!("stack build failed: {e}"));
            return verdict;
        }
    };
    let mut st = RunState::new(cfg.ranks);
    let (fired, failed) = crash_drive(&mut stack, cfg, &mut st, &chaos, &telemetry, k);
    let rt = stack.rt;
    verdict.fired = fired.map(|(_, n)| n);
    verdict.fired_kind = fired.map(|(site, _)| site.name());
    if fired.is_none() {
        if let Some(f) = failed {
            verdict.violation = Some(format!("workload failed at {f:?} with no crash fired"));
            verdict.dump = dump_tape(&telemetry, &dump, FlightKind::CrashPoint);
            return verdict;
        }
        // `k` lies beyond the end of the universe: nothing to crash.
        verdict.passed = true;
        return verdict;
    }
    // The universe is dead past op `k`; the driver normally observed an
    // error, except when the fired op's failure is absorbed (a tail
    // discard) and no later durability op ran.
    let handle = rt.crash_job();
    let mut rt2 = match NvmeCrRuntime::attach(handle) {
        Ok(rt2) => rt2,
        Err(e) => {
            verdict.violation = Some(format!("I1: recovery failed: {e:?}"));
            verdict.dump = dump_tape(&telemetry, &dump, FlightKind::CrashPoint);
            return verdict;
        }
    };
    match verify(&mut rt2, cfg, &st, failed.as_ref()) {
        Ok(()) => verdict.passed = true,
        Err(v) => {
            verdict.violation = Some(v);
            verdict.dump = dump_tape(&telemetry, &dump, FlightKind::CrashPoint);
        }
    }
    verdict
}

/// Force the counterexample dump out even if the recorder never tripped
/// (e.g. an invariant violation found only at verification time). Nested
/// points dump with cause `RecoveryCrashPoint` so the doctor attributes
/// them to the recovery plane.
fn dump_tape(telemetry: &Telemetry, dump: &Option<PathBuf>, cause: FlightKind) -> Option<PathBuf> {
    let path = dump.as_ref()?;
    telemetry.recorder().dump_to(path, cause).ok()?;
    Some(path.clone())
}

/// Check every recovery invariant against the oracle. Returns the first
/// violation as `Err`.
fn verify(
    rt: &mut NvmeCrRuntime,
    cfg: &UniverseConfig,
    st: &RunState,
    failed: Option<&FailedCall>,
) -> Result<(), String> {
    // I2: every acknowledged byte survived, sizes exact. The one failing
    // call is atomic-but-uncertain: its WAL record either landed (the
    // mirrored record write can complete on the primary before the
    // crash) or it did not, so the call is allowed to be fully visible
    // or fully invisible — and a failing in-place overwrite may
    // additionally leave its `[offset, offset + len)` window torn on
    // device. Everything outside that one call must be byte-exact.
    for ((rank, path), want) in &st.oracle {
        let fail_here = match failed {
            Some(f) if f.rank == *rank && f.path.as_deref() == Some(path.as_str()) => {
                Some((f.what, f.window))
            }
            _ => None,
        };
        let fs = rt.rank_fs(*rank).map_err(|e| format!("I2: {e:?}"))?;
        let got_stat = match fs.stat(path) {
            Ok(s) => s,
            // A failing unlink whose record reached the primary is
            // legitimately durable: the file may be gone.
            Err(_) if matches!(fail_here, Some(("unlink", _))) => continue,
            Err(e) => {
                return Err(format!("I2: rank {rank} {path} lost by recovery: {e:?}"));
            }
        };
        let window = match fail_here {
            Some(("write", w)) => w,
            _ => None,
        };
        let size_ok = match window {
            // A failing write is all-or-nothing at the metadata level:
            // the oracle size (record lost) or the post-write size
            // (record durable on the primary).
            Some((o, l)) => {
                got_stat.size == want.len() as u64
                    || got_stat.size == (o + l).max(want.len() as u64)
            }
            None => got_stat.size == want.len() as u64,
        };
        if !size_ok {
            return Err(format!(
                "I2: rank {rank} {path} size {} after recovery, oracle {}",
                got_stat.size,
                want.len()
            ));
        }
        let readable = want.len().min(got_stat.size as usize);
        if readable == 0 {
            continue;
        }
        let fd = fs
            .open(path, OpenFlags::RDONLY, 0)
            .map_err(|e| format!("I2: rank {rank} {path} unreadable: {e:?}"))?;
        let mut got = vec![0u8; readable];
        let mut off = 0usize;
        while off < got.len() {
            let n = fs
                .read(fd, &mut got[off..])
                .map_err(|e| format!("I2: rank {rank} {path} read: {e:?}"))?;
            if n == 0 {
                return Err(format!("I2: rank {rank} {path} short read at {off}"));
            }
            off += n;
        }
        fs.close(fd).map_err(|e| format!("I2: close: {e:?}"))?;
        let (wa, wb) = window
            .map(|(o, l)| (o as usize, (o + l) as usize))
            .unwrap_or((0, 0));
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            if g != w && !(i >= wa && i < wb) {
                return Err(format!(
                    "I2: rank {rank} {path} byte {i} is {g:#04x}, oracle {w:#04x}"
                ));
            }
        }
    }
    // I2 (absence): a failing create leaves at most an empty file, and
    // every acknowledged unlink must stay unlinked.
    if let Some(f) = failed {
        if f.what == "create" {
            let path = f.path.as_deref().expect("create names a path");
            let fs = rt.rank_fs(f.rank).map_err(|e| format!("I2: {e:?}"))?;
            if let Ok(s) = fs.stat(path) {
                if s.size != 0 {
                    return Err(format!(
                        "I2: rank {} {path} has {} bytes although its create crashed",
                        f.rank, s.size
                    ));
                }
            }
        }
    }
    for (rank, path) in &st.unlinked {
        let fs = rt.rank_fs(*rank).map_err(|e| format!("I2: {e:?}"))?;
        if fs.stat(path).is_ok() {
            return Err(format!(
                "I2: rank {rank} {path} resurrected although its unlink was acknowledged"
            ));
        }
    }
    // I4: the replica is scrubbable back to health — primary-side truth
    // repairs every diverged extent, nothing is unrecoverable.
    for rank in 0..cfg.ranks {
        let rep = rt
            .scrub_rank(rank)
            .map_err(|e| format!("I4: rank {rank} scrub failed: {e:?}"))?
            .ok_or_else(|| format!("I4: rank {rank} lost its mirror across recovery"))?;
        if rep.unrecoverable != 0 {
            return Err(format!(
                "I4: rank {rank} scrub found {} unrecoverable extents",
                rep.unrecoverable
            ));
        }
    }
    // I3: the stack keeps working — a fresh write commits, and the epoch
    // it seals sits in [confirmed + 1, started + 1].
    for rank in 0..cfg.ranks {
        let fs = rt.rank_fs(rank).map_err(|e| format!("I3: {e:?}"))?;
        let mut data = vec![0u8; 4 << 10];
        pattern_fill(&mut data, file_seed(cfg, 0, rank, 0, 4), 0);
        let fd = fs
            .create("/post_recovery.ckpt", 0o644)
            .map_err(|e| format!("I3: rank {rank} post-recovery create: {e:?}"))?;
        fs.write(fd, &data)
            .map_err(|e| format!("I3: rank {rank} post-recovery write: {e:?}"))?;
        fs.close(fd)
            .map_err(|e| format!("I3: rank {rank} post-recovery close: {e:?}"))?;
        let e = rt
            .commit_epoch_rank(rank)
            .map_err(|e| format!("I3: rank {rank} post-recovery commit: {e:?}"))?
            .ok_or_else(|| format!("I3: rank {rank} replicated commit sealed nothing"))?;
        let lo = st.sealed[rank as usize] + 1;
        let hi = st.started[rank as usize] + 1;
        if e < lo || e > hi {
            return Err(format!(
                "I3: rank {rank} resumed at epoch {e}, bound [{lo}, {hi}] \
                 (confirmed {}, started {})",
                st.sealed[rank as usize], st.started[rank as usize]
            ));
        }
    }
    Ok(())
}

/// Run `f` over `items` on a reactor pool with one reactor per available
/// core, results in item order: how the explorer fans independent
/// universes out. Each universe's own stack runs on one reactor, so
/// nesting adds no threads.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    telemetry: &Telemetry,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    ReactorPool::new(&ReactorConfig::default(), telemetry)
        .map(0..items.len() as u32, |i| {
            // Item `i` is a universe, not rank `i`: its flight events
            // carry only the ranks its own stack stamps.
            let _no_rank = telemetry::context::with_rank(telemetry::context::UNSET);
            Ok(f(&items[i as usize]))
        })
        .results
        .into_iter()
        .filter_map(|r| r.result)
        .collect()
}

/// Enumerate the universe and execute every crash point (stride-sampled
/// down to `max_points` if the universe is larger), shrinking each
/// failure to its minimal failing index. `telemetry` receives the
/// `crashverse.points` / `crashverse.failures` / `crashverse.shrink_steps`
/// counters.
pub fn explore(cfg: &UniverseConfig, telemetry: &Telemetry) -> Result<UniverseReport, String> {
    let count = count_universe(cfg)?;
    let total = count.total(Plane::Durability);
    let stride = match cfg.max_points {
        Some(m) if m > 0 && total > m => total.div_ceil(m),
        _ => 1,
    };
    let points_counter = telemetry.counter("crashverse.points");
    let failures_counter = telemetry.counter("crashverse.failures");
    let shrink_counter = telemetry.counter("crashverse.shrink_steps");
    let mut report = UniverseReport {
        fingerprint: cfg.fingerprint(),
        total_ops: total,
        per_site: count.per_site,
        points_run: 0,
        verdicts: Vec::new(),
        failures: Vec::new(),
        shrink_steps: 0,
    };
    // Points are fully independent — each builds its own stack from
    // scratch — so the scan fans out across threads. Verdicts are
    // per-point deterministic, and the report is assembled in ascending
    // index order, so parallel execution changes nothing observable.
    let indices: Vec<u64> = (0..total).step_by(stride as usize).collect();
    let points = fan_out(&indices, telemetry, |&k| run_point(cfg, k));
    for (i, v) in points.iter().enumerate() {
        report.points_run += 1;
        points_counter.inc();
        report.verdicts.push((v.op_index, v.passed));
        if v.passed || report.failures.len() >= MAX_FAILURES {
            continue;
        }
        // Minimal failing index: every sampled point below passed, so
        // only the gap since the previous sample needs scanning —
        // ascending, stopping at the first failure.
        let mut min = v.clone();
        let gap_lo = if i == 0 { 0 } else { indices[i - 1] + 1 };
        for j in gap_lo..min.op_index {
            report.shrink_steps += 1;
            shrink_counter.inc();
            let vj = run_point(cfg, j);
            if !vj.passed {
                min = vj;
                break;
            }
        }
        failures_counter.inc();
        report.failures.push(Failure {
            op_index: min.op_index,
            fired_kind: min.fired_kind,
            violation: min
                .violation
                .unwrap_or_else(|| "invariant violation".to_string()),
            dump: min.dump,
            replay: cfg.replay_command(min.op_index),
        });
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Nested exploration: crash the recovery of a crashed universe
// ---------------------------------------------------------------------

/// The supervisor policy nested points recover under: exactly one
/// re-attempt (the ISSUE's contract — *every* nested point must recover
/// on the second attempt), no quarantine (a point that cannot come back
/// must fail loudly, not get parked), and a negligible backoff so grids
/// stay fast.
fn nested_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_attempts: 2,
        base_backoff_ns: 1_000,
        deadline_ns: 60_000_000_000,
        quarantine_after: 0,
    }
}

/// What the explorer decided about one nested crash point `(k, j)`.
#[derive(Debug, Clone)]
pub struct NestedVerdict {
    /// Outer crash index `k` (a durability op).
    pub outer: u64,
    /// Nested crash index `j` (a recovery op inside the first attempt).
    pub nested: u64,
    /// Did every invariant hold?
    pub passed: bool,
    /// Outer index at which the crash actually fired.
    pub outer_fired: Option<u64>,
    /// Nested index at which recovery was killed (`None` when `j` lies
    /// beyond that universe's recovery op count — a vacuous pass).
    pub nested_fired: Option<u64>,
    /// Kind of the recovery op that died.
    pub nested_kind: Option<&'static str>,
    /// Supervisor re-attempts taken (1 whenever the nested crash fired).
    pub restarts: u64,
    /// First invariant violation, when one was found.
    pub violation: Option<String>,
    /// Flight-recorder counterexample dump, when one was written.
    pub dump: Option<PathBuf>,
}

/// A failing nested point.
#[derive(Debug, Clone)]
pub struct NestedFailure {
    /// Outer crash index.
    pub outer: u64,
    /// Nested crash index.
    pub nested: u64,
    /// Kind of the recovery op that died there.
    pub nested_kind: Option<&'static str>,
    /// The invariant that broke.
    pub violation: String,
    /// `FLIGHT_*.jsonl` counterexample, when `dump_dir` was set.
    pub dump: Option<PathBuf>,
    /// Command line pinning (seed, both crash indices, fingerprint).
    pub replay: String,
}

/// The explorer's summary of one nested `(k, j)` grid.
#[derive(Debug, Clone)]
pub struct NestedReport {
    /// Config fingerprint the verdicts are bound to.
    pub fingerprint: u64,
    /// Size of the outer crash universe.
    pub outer_total: u64,
    /// Outer indices sampled into the grid.
    pub outer_points: u64,
    /// Nested points executed across all sampled outer indices.
    pub points_run: u64,
    /// Points where both crashes actually fired (non-vacuous grid mass).
    pub double_fired: u64,
    /// Ops seen per site across all recovery counting runs, indexed by
    /// `chaos::Site as usize` — the recovery sites prove the nested grid
    /// reaches every one of them.
    pub per_site: [u64; SITES],
    /// Supervisor re-attempts taken across the grid (the replay
    /// re-entries the idempotence argument rests on).
    pub restarts: u64,
    /// `(outer, nested, passed)` for every executed point.
    pub verdicts: Vec<(u64, u64, bool)>,
    /// Failing points.
    pub failures: Vec<NestedFailure>,
}

/// Size one outer point's *recovery* universe: run the workload to crash
/// index `k`, kill the job, and recover it under the supervisor with the
/// gate counting. Returns the outer fire index (None when `k` lies
/// beyond the universe) and the recovery's op census.
pub fn count_recovery_universe(
    cfg: &UniverseConfig,
    k: u64,
) -> Result<(Option<u64>, Report), String> {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let mut stack = build_stack(cfg, &telemetry, &chaos)?;
    let mut st = RunState::new(cfg.ranks);
    let (fired, failed) = crash_drive(&mut stack, cfg, &mut st, &chaos, &telemetry, k);
    let Some((_, outer)) = fired else {
        if let Some(f) = failed {
            return Err(format!("workload failed at {f:?} with no crash fired"));
        }
        return Ok((None, Report::default()));
    };
    let handle = stack.rt.crash_job();
    chaos.arm(FaultPlan::new(cfg.seed), &telemetry);
    let recovered = RecoverySupervisor::new(nested_policy()).attach(handle);
    chaos.disarm();
    recovered.map_err(|e| format!("counting recovery of outer {k} failed: {e:?}"))?;
    Ok((Some(outer), chaos.report()))
}

/// Execute one nested crash point: crash the workload at durability op
/// `k`, then kill the *first recovery attempt* at recovery op `j`. The
/// supervisor's second attempt must fully recover the job: all four
/// outer invariants I1–I4 verified against the same oracle — recovery
/// after a crashed recovery must be byte-identical to recovery after a
/// crash, which the outer plane already proved byte-identical to no
/// crash at all.
pub fn run_nested_point(cfg: &UniverseConfig, k: u64, j: u64) -> NestedVerdict {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let dump = cfg
        .dump_dir
        .as_ref()
        .map(|d| d.join(format!("FLIGHT_crashverse_op{k:06}_rec{j:04}.jsonl")));
    let mut verdict = NestedVerdict {
        outer: k,
        nested: j,
        passed: false,
        outer_fired: None,
        nested_fired: None,
        nested_kind: None,
        restarts: 0,
        violation: None,
        dump: None,
    };
    let mut stack = match build_stack(cfg, &telemetry, &chaos) {
        Ok(stack) => stack,
        Err(e) => {
            verdict.violation = Some(format!("stack build failed: {e}"));
            return verdict;
        }
    };
    let mut st = RunState::new(cfg.ranks);
    let (fired, failed) = crash_drive(&mut stack, cfg, &mut st, &chaos, &telemetry, k);
    verdict.outer_fired = fired.map(|(_, n)| n);
    if fired.is_none() {
        if let Some(f) = failed {
            verdict.violation = Some(format!("workload failed at {f:?} with no crash fired"));
            verdict.dump = dump_tape(&telemetry, &dump, FlightKind::CrashPoint);
            return verdict;
        }
        verdict.passed = true;
        return verdict;
    }
    let handle = stack.rt.crash_job();
    chaos.arm(FaultPlan::new(cfg.seed).crash_in_recovery(j), &telemetry);
    let recovered = RecoverySupervisor::new(nested_policy()).attach(handle);
    chaos.disarm();
    let nested = chaos.report().fired;
    verdict.nested_fired = nested.map(|(_, n)| n);
    verdict.nested_kind = nested.map(|(site, _)| site.name());
    let supervised = match recovered {
        Ok(s) => s,
        Err(e) => {
            verdict.violation = Some(format!(
                "I1: second recovery attempt failed after nested crash: {e:?}"
            ));
            verdict.dump = dump_tape(&telemetry, &dump, FlightKind::RecoveryCrashPoint);
            return verdict;
        }
    };
    verdict.restarts = supervised.outcome().restarts;
    if nested.is_some() && verdict.restarts == 0 {
        verdict.violation = Some(
            "nested crash fired but the supervisor recorded no restart — \
             the kill was absorbed without a re-attempt"
                .to_string(),
        );
        verdict.dump = dump_tape(&telemetry, &dump, FlightKind::RecoveryCrashPoint);
        return verdict;
    }
    let mut rt2 = supervised.into_runtime();
    match verify(&mut rt2, cfg, &st, failed.as_ref()) {
        Ok(()) => verdict.passed = true,
        Err(v) => {
            verdict.violation = Some(v);
            verdict.dump = dump_tape(&telemetry, &dump, FlightKind::RecoveryCrashPoint);
        }
    }
    verdict
}

/// Explore a sampled `(k, j)` grid: `outer_points` outer crash indices
/// stride-sampled from the universe, and for each the recovery universe
/// is sized and up to `nested_per_outer` nested indices stride-sampled
/// from it. Counters: `crashverse.nested_points`,
/// `crashverse.nested_failures`, `crashverse.nested_restarts`.
pub fn explore_nested(
    cfg: &UniverseConfig,
    outer_points: u64,
    nested_per_outer: u64,
    telemetry: &Telemetry,
) -> Result<NestedReport, String> {
    let count = count_universe(cfg)?;
    let total = count.total(Plane::Durability);
    let stride = total.div_ceil(outer_points.max(1)).max(1);
    let outer_ks: Vec<u64> = (0..total).step_by(stride as usize).collect();
    let points_counter = telemetry.counter("crashverse.nested_points");
    let failures_counter = telemetry.counter("crashverse.nested_failures");
    let restarts_counter = telemetry.counter("crashverse.nested_restarts");
    let mut report = NestedReport {
        fingerprint: cfg.fingerprint(),
        outer_total: total,
        outer_points: outer_ks.len() as u64,
        points_run: 0,
        double_fired: 0,
        per_site: [0; SITES],
        restarts: 0,
        verdicts: Vec::new(),
        failures: Vec::new(),
    };
    // Outer points are independent (each nested run rebuilds the whole
    // stack), so the grid fans out across threads per outer index; each
    // inner scan stays serial for the deterministic nested op order.
    type Column = (Option<String>, Report, Vec<NestedVerdict>);
    let columns: Vec<Column> = fan_out(&outer_ks, telemetry, |&k| {
        match count_recovery_universe(cfg, k) {
            Err(e) => (Some(e), Report::default(), Vec::new()),
            Ok((None, _)) => (None, Report::default(), Vec::new()),
            Ok((Some(_), rec)) => {
                let m = rec.total(Plane::Recovery);
                let jstride = m.div_ceil(nested_per_outer.max(1)).max(1);
                let verdicts = (0..m)
                    .step_by(jstride as usize)
                    .map(|j| run_nested_point(cfg, k, j))
                    .collect();
                (None, rec, verdicts)
            }
        }
    });
    for (i, (err, census, verdicts)) in columns.into_iter().enumerate() {
        if let Some(e) = err {
            return Err(format!("outer {} column failed: {e}", outer_ks[i]));
        }
        for (dst, n) in report.per_site.iter_mut().zip(census.per_site) {
            *dst += n;
        }
        for v in verdicts {
            report.points_run += 1;
            points_counter.inc();
            report.restarts += v.restarts;
            restarts_counter.add(v.restarts);
            if v.outer_fired.is_some() && v.nested_fired.is_some() {
                report.double_fired += 1;
            }
            report.verdicts.push((v.outer, v.nested, v.passed));
            if !v.passed && report.failures.len() < MAX_FAILURES {
                failures_counter.inc();
                report.failures.push(NestedFailure {
                    outer: v.outer,
                    nested: v.nested,
                    nested_kind: v.nested_kind,
                    violation: v
                        .violation
                        .unwrap_or_else(|| "invariant violation".to_string()),
                    dump: v.dump,
                    replay: cfg.replay_nested_command(v.outer, v.nested),
                });
            }
        }
    }
    Ok(report)
}

/// `Arc`-free convenience used by tests and the smoke binary: a plain
/// pass/fail over the whole universe.
pub fn universe_is_clean(report: &UniverseReport) -> bool {
    report.failures.is_empty()
}

/// Nested twin of [`universe_is_clean`].
pub fn nested_is_clean(report: &NestedReport) -> bool {
    report.failures.is_empty()
}

/// Outcome of one forced quarantine → degraded-serve → rejoin cycle.
#[derive(Debug, Clone)]
pub struct QuarantineCycle {
    /// Ranks the supervisor parked after exhausting its attempts.
    pub quarantined: u64,
    /// Degraded read-only mounts that served the sealed bytes back.
    pub degraded_reads: u64,
    /// Parked ranks brought back onto fresh namespaces and re-verified.
    pub rejoined: u64,
}

/// Prove the supervisor's containment path end to end: seal a known
/// epoch, kill rank 0's primary shard, and recover under a lenient
/// policy — the dead shard fails every bounded attempt, so its ranks
/// are quarantined and served read-only from the replica's last
/// complete epoch. The sealed bytes must read back byte-exact from the
/// degraded mount, and every parked rank must rejoin onto a fresh
/// namespace and take writes again.
pub fn quarantine_cycle(cfg: &UniverseConfig) -> Result<QuarantineCycle, String> {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let mut stack = build_stack(cfg, &telemetry, &chaos)?;
    let mut want: Vec<Vec<u8>> = Vec::new();
    for rank in 0..cfg.ranks {
        let mut data = vec![0u8; 32 << 10];
        pattern_fill(&mut data, file_seed(cfg, 0, rank, 0, 9), 0);
        let fs = stack
            .rt
            .rank_fs(rank)
            .map_err(|e| format!("rank {rank} fs: {e:?}"))?;
        let fd = fs
            .create("/cycle.dat", 0o644)
            .map_err(|e| format!("rank {rank} create: {e:?}"))?;
        fs.write(fd, &data)
            .map_err(|e| format!("rank {rank} write: {e:?}"))?;
        fs.close(fd)
            .map_err(|e| format!("rank {rank} close: {e:?}"))?;
        stack
            .rt
            .commit_epoch_rank(rank)
            .map_err(|e| format!("rank {rank} commit: {e:?}"))?;
        want.push(data);
    }
    stack
        .rt
        .kill_primary_shard(0)
        .map_err(|e| format!("shard kill: {e:?}"))?;
    let handle = stack.rt.crash_job();
    let policy = RecoveryPolicy {
        max_attempts: 2,
        base_backoff_ns: 1_000,
        deadline_ns: 60_000_000_000,
        quarantine_after: 2,
    };
    let mut supervised = RecoverySupervisor::new(policy)
        .attach(handle)
        .map_err(|e| format!("supervised attach: {e:?}"))?;
    let parked = supervised.quarantined().to_vec();
    if parked.is_empty() {
        return Err("dead primary shard quarantined no rank".into());
    }
    let mut degraded_reads = 0u64;
    for &rank in &parked {
        let d = supervised
            .degraded_mut(rank)
            .ok_or_else(|| format!("rank {rank} parked without a degraded mount"))?;
        let got = d
            .read_file("/cycle.dat")
            .map_err(|e| format!("rank {rank} degraded read: {e:?}"))?;
        if got != want[rank as usize] {
            return Err(format!(
                "degraded serve of rank {rank} returned wrong bytes"
            ));
        }
        degraded_reads += 1;
    }
    let mut rejoined = 0u64;
    for &rank in &parked {
        supervised
            .rejoin(rank, &stack.rack, &stack.topo)
            .map_err(|e| format!("rank {rank} rejoin: {e:?}"))?;
        rejoined += 1;
    }
    let rt = supervised.runtime_mut();
    for &rank in &parked {
        let fs = rt
            .rank_fs(rank)
            .map_err(|e| format!("rank {rank} post-rejoin fs: {e:?}"))?;
        let fd = fs
            .create("/post_rejoin.dat", 0o644)
            .map_err(|e| format!("rank {rank} post-rejoin create: {e:?}"))?;
        fs.write(fd, b"rejoined")
            .map_err(|e| format!("rank {rank} post-rejoin write: {e:?}"))?;
        fs.close(fd)
            .map_err(|e| format!("rank {rank} post-rejoin close: {e:?}"))?;
        rt.commit_epoch_rank(rank)
            .map_err(|e| format!("rank {rank} post-rejoin commit: {e:?}"))?;
    }
    Ok(QuarantineCycle {
        quarantined: parked.len() as u64,
        degraded_reads,
        rejoined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos::Site;
    use std::sync::OnceLock;

    /// Smallest universe that still contains every op kind: one epoch,
    /// one 64 KiB file per rank plus overwrite + churn + commit.
    fn tiny() -> UniverseConfig {
        UniverseConfig {
            epochs: 1,
            files_per_epoch: 1,
            write_kib: 64,
            ..UniverseConfig::default()
        }
    }

    fn tiny_total() -> u64 {
        static TOTAL: OnceLock<u64> = OnceLock::new();
        *TOTAL.get_or_init(|| {
            count_universe(&tiny())
                .expect("clean counting run")
                .total(Plane::Durability)
        })
    }

    #[test]
    fn counting_run_is_deterministic_and_covers_all_kinds() {
        let a = count_universe(&tiny()).expect("count A");
        let b = count_universe(&tiny()).expect("count B");
        assert_eq!(
            a.per_site, b.per_site,
            "per-site counts must be reproducible"
        );
        let total = a.total(Plane::Durability);
        assert!(total >= 20, "tiny universe too small: {total}");
        for site in [Site::WalRecord, Site::BlockWrite, Site::MirrorWrite] {
            assert!(a.count(site) > 0, "no {} ops counted", site.name());
        }
        assert!(
            a.count(Site::ManifestBody) > 0 && a.count(Site::CommitRecord) > 0,
            "commit path not in the universe"
        );
    }

    #[test]
    fn sampled_universe_passes_and_verdicts_are_deterministic() {
        let cfg = UniverseConfig {
            max_points: Some(10),
            ..tiny()
        };
        let t = Telemetry::new();
        let a = explore(&cfg, &t).expect("explore A");
        let b = explore(&cfg, &t).expect("explore B");
        assert!(
            a.failures.is_empty(),
            "crash universe has violations: {:?}",
            a.failures
        );
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.verdicts, b.verdicts, "verdicts must be reproducible");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.points_run >= 10);
        assert_eq!(a.shrink_steps, 0);
        assert_eq!(t.snapshot().counter("crashverse.failures"), 0);
        assert!(t.snapshot().counter("crashverse.points") >= 20);
    }

    #[test]
    fn point_beyond_universe_passes_vacuously() {
        let v = run_point(&tiny(), tiny_total() + 100);
        assert!(v.passed, "vacuous point failed: {:?}", v.violation);
        assert_eq!(v.fired, None);
    }

    #[test]
    fn first_and_last_points_hold_invariants() {
        for k in [0, tiny_total() - 1] {
            let v = run_point(&tiny(), k);
            assert!(
                v.passed,
                "crash at op {k} violated invariants: {:?}",
                v.violation
            );
            assert_eq!(v.fired, Some(k), "crash must fire at the armed index");
        }
    }

    #[test]
    fn nested_counting_covers_recovery_kinds() {
        // Crashing the very first durability op still leaves a full
        // recovery to count: mount (snapshot + log scan + replay),
        // manifest scan, and the replicated mirror rescan.
        let (outer, rec) = count_recovery_universe(&tiny(), 0).expect("count at k=0");
        assert_eq!(outer, Some(0), "outer crash must fire at the armed index");
        let total = rec.total(Plane::Recovery);
        assert!(total >= 4, "nested universe too small: {total}");
        for site in [
            Site::SnapshotLoad,
            Site::LogScan,
            Site::ManifestScan,
            Site::RescanChunk,
        ] {
            assert!(rec.count(site) > 0, "no {} ops counted", site.name());
        }
        // A late crash leaves committed records in the log, so the
        // mount's replay plane is part of the nested universe too.
        let (outer, late) =
            count_recovery_universe(&tiny(), tiny_total() - 1).expect("count at last k");
        assert!(outer.is_some());
        assert!(
            late.count(Site::ReplayApply) > 0,
            "late-point recovery replayed nothing"
        );
        assert!(
            late.total(Plane::Recovery) > total,
            "later crash must mean more replay"
        );
    }

    #[test]
    fn nested_tiny_grid_recovers_every_point() {
        let t = Telemetry::new();
        let report = explore_nested(&tiny(), 4, 4, &t).expect("nested grid");
        assert!(
            nested_is_clean(&report),
            "nested universe has violations: {:?}",
            report.failures
        );
        assert!(report.points_run >= 8, "grid too sparse: {report:?}");
        assert!(
            report.double_fired >= 8,
            "too few points fired both crashes: {}",
            report.double_fired
        );
        assert_eq!(
            report.restarts, report.double_fired,
            "every double-fire costs exactly one supervisor restart"
        );
        let snap = t.snapshot();
        assert_eq!(snap.counter("crashverse.nested_failures"), 0);
        assert_eq!(snap.counter("crashverse.nested_points"), report.points_run);
    }

    #[test]
    fn quarantine_cycle_parks_serves_and_rejoins() {
        let c = quarantine_cycle(&tiny()).expect("quarantine cycle");
        assert!(c.quarantined >= 1, "no rank parked: {c:?}");
        assert_eq!(c.degraded_reads, c.quarantined, "{c:?}");
        assert_eq!(c.rejoined, c.quarantined, "{c:?}");
    }

    #[test]
    fn double_recovery_is_idempotent() {
        // Crash mid-universe, kill the first recovery attempt at its
        // first op, let the supervisor's second attempt land — then
        // mount everything a *third* time and require the same bytes.
        let cfg = tiny();
        let k = tiny_total() / 2;
        let telemetry = Telemetry::new();
        let chaos = ChaosHandle::new();
        let mut stack = build_stack(&cfg, &telemetry, &chaos).expect("stack");
        let mut st = RunState::new(cfg.ranks);
        let (fired, failed) = crash_drive(&mut stack, &cfg, &mut st, &chaos, &telemetry, k);
        assert!(fired.is_some(), "mid-universe point must fire");
        let handle = stack.rt.crash_job();
        chaos.arm(FaultPlan::new(cfg.seed).crash_in_recovery(0), &telemetry);
        let supervised = RecoverySupervisor::new(nested_policy())
            .attach(handle)
            .expect("supervised recovery after nested crash");
        chaos.disarm();
        assert!(
            supervised.outcome().restarts >= 1,
            "nested kill not absorbed"
        );
        let mut rt = supervised.into_runtime();
        verify(&mut rt, &cfg, &st, failed.as_ref()).expect("first recovery verifies");
        // The first verify sealed one more epoch per rank (its I3 probe
        // commit); shift the oracle's bound before the second pass.
        for rank in 0..cfg.ranks as usize {
            st.sealed[rank] += 1;
            st.started[rank] += 1;
        }
        let handle2 = rt.crash_job();
        let mut rt2 = NvmeCrRuntime::attach(handle2).expect("second mount");
        verify(&mut rt2, &cfg, &st, failed.as_ref()).expect("double mount changed visible bytes");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            /// Random crash indices never violate the restore invariant.
            #[test]
            fn random_crash_indices_recover(raw in 0u64..u64::MAX) {
                let k = raw % tiny_total();
                let v = run_point(&tiny(), k);
                prop_assert!(
                    v.passed,
                    "crash at op {} violated invariants: {:?}",
                    k,
                    v.violation
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            /// Random (outer, nested) pairs: killing the j-th op of the
            /// first recovery attempt never survives to the verdict —
            /// the second attempt restores byte-identical state.
            #[test]
            fn random_nested_pairs_recover(kr in 0u64..u64::MAX, jr in 0u64..u64::MAX) {
                let k = kr % tiny_total();
                let (outer, rec) = count_recovery_universe(&tiny(), k)
                    .map_err(TestCaseError::fail)?;
                prop_assert_eq!(outer, Some(k));
                let m = rec.total(Plane::Recovery);
                prop_assert!(m > 0, "empty recovery universe at k={}", k);
                let j = jr % m;
                let v = run_nested_point(&tiny(), k, j);
                prop_assert!(
                    v.passed,
                    "nested crash ({}, {}) violated invariants: {:?}",
                    k,
                    j,
                    v.violation
                );
                prop_assert_eq!(v.nested_fired, Some(j));
                prop_assert!(v.restarts >= 1);
            }
        }
    }
}
