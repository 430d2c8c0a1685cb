//! # crashverse — deterministic crash-universe exploration
//!
//! FoundationDB-style systematic crash testing for the NVMe-CR stack
//! (DESIGN.md §13). One *counting* run executes a fixed incremental-
//! checkpoint workload (replicated ranks, CoW delta chain) with every
//! durability-relevant operation — WAL appends, block writes, mirrored
//! writes, manifest bodies, commit records, discards — assigned a global
//! op index by the chaos gate armed with an empty plan. That index space
//! *is* the crash universe.
//!
//! One runner, [`run_point`]`(cfg, k, j)`, executes every crash point. It
//! re-executes the workload with a [`chaos::FaultPlan::crash_at_op`]`(k)`
//! rule armed, so op `k` and every later durability op fail (a dead
//! universe — nothing survives the crash point), kills the job
//! ungracefully with [`nvmecr::runtime::NvmeCrRuntime::crash_job`], and
//! recovers it through [`nvmecr::RecoverySupervisor::attach`] (the
//! typestate chain `Crashed → Replaying → Verified → serving`, rank by
//! rank, with one re-attempt allowed). With `j = Some(j)` the first
//! recovery attempt is killed at recovery op `j`
//! ([`chaos::FaultPlan::crash_in_recovery`]); with `None` the recovery
//! plane only counts. A single crash is the nested point whose recovery
//! is never killed. The runner then checks the recovery invariants:
//!
//! * **I1 — recoverable**: recovery (reconnect, snapshot + log replay,
//!   manifest decode, mirror rescan) succeeds at every crash point, and
//!   takes exactly one supervisor restart if its first attempt was
//!   killed and none otherwise.
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
//! One explorer, [`explore`], runs a grid of points: each sampled outer
//! index `k` heads a column with its `(k, None)` point, whose recovery
//! census sizes the column's recovery crash points `(k, j)`.
//!
//! Everything is deterministic from `(seed, op indices, config)`:
//! payloads come from [`simkit::rng::pattern_fill`], the stack is rebuilt
//! from scratch for every universe, and ranks are driven and recovered
//! serially while armed. A failing point is shrunk to the minimal failing
//! index along its sampled axis (the ascending scan makes stride-sampled
//! gaps cheap to close), dumped through the flight recorder as
//! `FLIGHT_*.jsonl`, and reported with a replay command line that pins
//! seed, crash indices, and config fingerprint.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use chaos::{ChaosHandle, FaultPlan, Plane, Report, Site, SITES};
use cluster::{JobRequest, Scheduler, Topology};
use microfs::OpenFlags;
use nvmecr::runtime::{JobHandle, NvmeCrRuntime, RuntimeError, StorageRack};
use nvmecr::{
    ReactorConfig, ReactorPool, RecoveryPolicy, RecoverySupervisor, RuntimeConfig, Supervised,
};
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
    /// Cap on the outer crash indices executed (`None` or 0: every
    /// index); universes larger than this are stride-sampled and failures
    /// shrunk back to the minimal index.
    pub max_points: Option<u64>,
    /// Cap on the recovery crash points run per outer index, stride-
    /// sampled from that index's recovery universe. 0 kills no recovery:
    /// the grid is one single-crash point per outer index.
    pub recovery_points: u64,
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
            recovery_points: 0,
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
    /// universe: the workload crashed at op `k` and, when `j` is given,
    /// its first recovery attempt killed at recovery op `j`.
    pub fn replay_command(&self, k: u64, j: Option<u64>) -> String {
        let (nested, in_recovery) = match j {
            Some(j) => ("--nested ", format!(" --crash-in-recovery {j}")),
            None => ("", String::new()),
        };
        format!(
            "nvmecr-crashverse {nested}--seed {} --ranks {} --epochs {} --files {} \
             --write-kib {} --crash-at {k}{in_recovery} # fingerprint {:#018x}",
            self.seed,
            self.ranks,
            self.epochs,
            self.files_per_epoch,
            self.write_kib,
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

/// What the runner decided about one crash point `(k, j)`.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Outer crash index `k` (a durability op).
    pub outer: u64,
    /// Recovery crash index `j` (a recovery op of the first attempt);
    /// `None` when recovery runs uninterrupted.
    pub nested: Option<u64>,
    /// The durability op the outer crash fired at (`None` when `k` lies
    /// beyond the universe — a vacuous pass).
    pub outer_fired: Option<(Site, u64)>,
    /// The gate's report over recovery: ops counted per site across every
    /// attempt, and the recovery op the nested crash fired at (`fired` is
    /// `None` unless `j` lies inside this point's recovery universe).
    pub recovery: Report,
    /// Supervisor re-attempts taken.
    pub restarts: u64,
    /// First invariant violation, when one was found.
    pub violation: Option<String>,
    /// Flight-recorder counterexample dump, when one was written.
    pub dump: Option<PathBuf>,
}

impl Verdict {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// The op this point's own crash killed: the recovery op of a nested
    /// point, the durability op of a single one.
    pub fn fired(&self) -> Option<(Site, u64)> {
        match self.nested {
            Some(_) => self.recovery.fired,
            None => self.outer_fired,
        }
    }
}

/// A failing crash point, shrunk to the minimal failing index along its
/// grid's sampled axis.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The failing point's verdict (its `violation` is set).
    pub verdict: Verdict,
    /// Command line pinning (seed, crash indices, fingerprint).
    pub replay: String,
}

/// The explorer's summary of one grid.
#[derive(Debug, Clone)]
pub struct UniverseReport {
    /// Config fingerprint the verdicts are bound to.
    pub fingerprint: u64,
    /// Size of the crash universe (durability ops in the clean run).
    pub total_ops: u64,
    /// Ops per site in the counting run, indexed by `chaos::Site as
    /// usize`; the durability sites are the universe.
    pub per_site: [u64; SITES],
    /// Ops per site summed over every column head's recovery; the
    /// recovery sites are the nested universe.
    pub recovery_per_site: [u64; SITES],
    /// Outer indices sampled, one column head `(k, None)` each.
    pub outer_points: u64,
    /// The grid's own points executed: the heads of a single-crash grid,
    /// the `(k, j)` points of a nested one.
    pub points_run: u64,
    /// Grid points where both crashes fired (non-vacuous nested mass).
    pub double_fired: u64,
    /// Supervisor re-attempts taken across every run (the replay
    /// re-entries the idempotence argument rests on).
    pub restarts: u64,
    /// `(k, j, passed)` for every grid point, in column order.
    pub verdicts: Vec<(u64, Option<u64>, bool)>,
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
    let mut st = RunState::new(cfg.ranks);
    let (count, failed) = drive_under(
        FaultPlan::new(cfg.seed),
        &mut stack,
        cfg,
        &mut st,
        &chaos,
        &telemetry,
    );
    if let Some(f) = failed {
        return Err(format!("clean counting run failed at {f:?}"));
    }
    Ok(count)
}

/// Drive the workload with `plan` armed. Returns the gate's report (the
/// durability op a crash fired at, if any) and the first failing call.
fn drive_under(
    plan: FaultPlan,
    stack: &mut Stack,
    cfg: &UniverseConfig,
    st: &mut RunState,
    chaos: &ChaosHandle,
    telemetry: &Telemetry,
) -> (Report, Option<FailedCall>) {
    chaos.arm(plan, telemetry);
    let failed = drive(stack, cfg, st);
    chaos.disarm();
    (chaos.report(), failed)
}

/// The supervisor policy every point recovers under: exactly one
/// re-attempt (a killed first attempt must come back on the second), no
/// quarantine (a point that cannot come back must fail loudly, not get
/// parked).
fn recovery_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_attempts: 2,
        quarantine_after: 0,
    }
}

/// Recover a crashed job under the supervisor with `plan` armed on the
/// recovery. Returns the gate's report over recovery and the outcome.
fn recover_under(
    plan: FaultPlan,
    handle: JobHandle,
    chaos: &ChaosHandle,
    telemetry: &Telemetry,
) -> (Report, Result<Supervised, RuntimeError>) {
    chaos.arm(plan, telemetry);
    let recovered = RecoverySupervisor::new(recovery_policy()).attach(handle);
    chaos.disarm();
    (chaos.report(), recovered)
}

/// Execute one crash point: crash the workload at durability op `k`,
/// kill the job, and recover it under the supervisor — with the first
/// recovery attempt killed at recovery op `j` when `j` is given, with the
/// recovery plane only counting otherwise. Then verify I1–I4: recovery
/// after a crashed recovery must be byte-identical to recovery after a
/// crash, which must be byte-identical to no crash at all.
pub fn run_point(cfg: &UniverseConfig, k: u64, j: Option<u64>) -> Verdict {
    let telemetry = Telemetry::new();
    let chaos = ChaosHandle::new();
    let mut verdict = Verdict {
        outer: k,
        nested: j,
        outer_fired: None,
        recovery: Report::default(),
        restarts: 0,
        violation: None,
        dump: None,
    };
    if let Err(why) = crash_and_recover(cfg, &telemetry, &chaos, &mut verdict) {
        verdict.violation = Some(why);
        verdict.dump = dump_tape(cfg, &telemetry, k, j);
    }
    verdict
}

/// The body of [`run_point`]: fills in what fired and the restarts taken,
/// and returns the first violation.
fn crash_and_recover(
    cfg: &UniverseConfig,
    telemetry: &Telemetry,
    chaos: &ChaosHandle,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let mut stack =
        build_stack(cfg, telemetry, chaos).map_err(|e| format!("stack build failed: {e}"))?;
    let mut st = RunState::new(cfg.ranks);
    let plan = FaultPlan::new(cfg.seed);
    let (outer, failed) = drive_under(
        plan.clone().crash_at_op(verdict.outer),
        &mut stack,
        cfg,
        &mut st,
        chaos,
        telemetry,
    );
    verdict.outer_fired = outer.fired;
    if outer.fired.is_none() {
        // `k` lies beyond the end of the universe: nothing to crash.
        return match failed {
            Some(f) => Err(format!("workload failed at {f:?} with no crash fired")),
            None => Ok(()),
        };
    }
    // The universe is dead past op `k`; the driver normally observed an
    // error, except when the fired op's failure is absorbed (a tail
    // discard) and no later durability op ran.
    let plan = match verdict.nested {
        Some(j) => plan.crash_in_recovery(j),
        None => plan,
    };
    let (recovery, recovered) = recover_under(plan, stack.rt.crash_job(), chaos, telemetry);
    verdict.recovery = recovery;
    let supervised = recovered.map_err(|e| {
        format!(
            "I1: recovery failed after {} attempt(s): {e:?}",
            recovery.attempts
        )
    })?;
    verdict.restarts = supervised.outcome().restarts;
    // The restart rule: a killed first attempt costs exactly one restart,
    // and a first attempt nothing killed must not fail at all.
    let want = u64::from(recovery.fired.is_some());
    if verdict.restarts != want {
        return Err(format!(
            "I1: recovery took {} supervisor restart(s), want {want} \
             (recovery crash fired: {:?})",
            verdict.restarts, recovery.fired
        ));
    }
    verify(&mut supervised.into_runtime(), cfg, &st, failed.as_ref())
}

/// Force the counterexample dump out even if the recorder never tripped
/// (e.g. an invariant violation found only at verification time). The
/// file name and cause follow from the point: a nested point dumps with
/// cause `RecoveryCrashPoint` so the doctor attributes it to the recovery
/// plane. Deliberately no `set_dump_path`: the crash trip would then
/// auto-dump a tape for every point.
fn dump_tape(
    cfg: &UniverseConfig,
    telemetry: &Telemetry,
    k: u64,
    j: Option<u64>,
) -> Option<PathBuf> {
    let (name, cause) = match j {
        None => (
            format!("FLIGHT_crashverse_op{k:06}.jsonl"),
            FlightKind::CrashPoint,
        ),
        Some(j) => (
            format!("FLIGHT_crashverse_op{k:06}_rec{j:04}.jsonl"),
            FlightKind::RecoveryCrashPoint,
        ),
    };
    let path = cfg.dump_dir.as_ref()?.join(name);
    telemetry.recorder().dump_to(&path, cause).ok()?;
    Some(path)
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
    if let Some(f) = failed.filter(|f| f.what == "create") {
        let Some(path) = f.path.as_deref() else {
            return Err(format!("I2: rank {} failing create names no path", f.rank));
        };
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

/// The indices `0..total` stride-sampled down to at most `cap` (0: all).
fn sample(total: u64, cap: u64) -> impl Iterator<Item = u64> {
    let stride = if cap == 0 {
        1
    } else {
        total.div_ceil(cap).max(1)
    };
    (0..total).step_by(stride as usize)
}

/// One column of the grid: the head `(k, None)`, then — when the grid is
/// nested — up to `recovery_points` points `(k, j)` stride-sampled from
/// the head's recovery census, run serially in ascending `j`.
fn run_column(cfg: &UniverseConfig, k: u64) -> Vec<Verdict> {
    let head = run_point(cfg, k, None);
    let m = match head.outer_fired {
        Some(_) if cfg.recovery_points > 0 => head.recovery.total(Plane::Recovery),
        _ => 0,
    };
    let nested = sample(m, cfg.recovery_points).map(|j| run_point(cfg, k, Some(j)));
    std::iter::once(head).chain(nested).collect()
}

/// Enumerate the universe and run the grid: one column per outer index
/// (stride-sampled down to `max_points`), each headed by its single-crash
/// point and, when `recovery_points > 0`, followed by its recovery crash
/// points. Each failure is shrunk to its minimal failing index along its
/// sampled axis. `telemetry` receives the `crashverse.points` /
/// `crashverse.failures` / `crashverse.restarts` /
/// `crashverse.shrink_steps` counters.
pub fn explore(cfg: &UniverseConfig, telemetry: &Telemetry) -> Result<UniverseReport, String> {
    let count = count_universe(cfg)?;
    let total = count.total(Plane::Durability);
    let outer: Vec<u64> = sample(total, cfg.max_points.unwrap_or(0)).collect();
    let nested_grid = cfg.recovery_points > 0;
    let points_counter = telemetry.counter("crashverse.points");
    let failures_counter = telemetry.counter("crashverse.failures");
    let restarts_counter = telemetry.counter("crashverse.restarts");
    let shrink_counter = telemetry.counter("crashverse.shrink_steps");
    let mut report = UniverseReport {
        fingerprint: cfg.fingerprint(),
        total_ops: total,
        per_site: count.per_site,
        recovery_per_site: [0; SITES],
        outer_points: outer.len() as u64,
        points_run: 0,
        double_fired: 0,
        restarts: 0,
        verdicts: Vec::new(),
        failures: Vec::new(),
        shrink_steps: 0,
    };
    // Columns are fully independent — each run builds its own stack from
    // scratch — so they fan out across threads. Verdicts are per-point
    // deterministic and the report is assembled in column order, so
    // parallel execution changes nothing observable.
    let columns = fan_out(&outer, telemetry, |&k| run_column(cfg, k));
    // First unsampled index on each axis since the previous sample.
    let mut k_lo = 0;
    for column in columns {
        let mut j_lo = 0;
        for v in column {
            if v.nested.is_none() {
                for (dst, n) in report.recovery_per_site.iter_mut().zip(v.recovery.per_site) {
                    *dst += n;
                }
            }
            report.restarts += v.restarts;
            restarts_counter.add(v.restarts);
            if v.nested.is_some() == nested_grid {
                report.points_run += 1;
                points_counter.inc();
                // Recovery runs only after the outer crash fired.
                report.double_fired += u64::from(v.recovery.fired.is_some());
                report.verdicts.push((v.outer, v.nested, v.passed()));
            }
            let (lo, at) = match v.nested {
                Some(j) => (&mut j_lo, j),
                None => (&mut k_lo, v.outer),
            };
            let gap = *lo..at;
            *lo = at + 1;
            if v.passed() || report.failures.len() >= MAX_FAILURES {
                continue;
            }
            // Minimal failing index: every sample below on this axis
            // passed, so only the gap since the previous one needs
            // scanning — ascending, stopping at the first failure.
            let mut min = v;
            for a in gap {
                report.shrink_steps += 1;
                shrink_counter.inc();
                let va = match min.nested {
                    Some(_) => run_point(cfg, min.outer, Some(a)),
                    None => run_point(cfg, a, None),
                };
                if !va.passed() {
                    min = va;
                    break;
                }
            }
            failures_counter.inc();
            report.failures.push(Failure {
                replay: cfg.replay_command(min.outer, min.nested),
                verdict: min,
            });
        }
    }
    Ok(report)
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

    /// The op index a point's crash fired at, whatever its site.
    fn at(fired: Option<(Site, u64)>) -> Option<u64> {
        fired.map(|(_, n)| n)
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
        // A single-crash grid: its points are its column heads, none of
        // which kills a recovery, so none takes a restart.
        assert_eq!(a.outer_points, a.points_run);
        assert_eq!((a.double_fired, a.restarts), (0, 0));
    }

    #[test]
    fn point_beyond_universe_passes_vacuously() {
        let v = run_point(&tiny(), tiny_total() + 100, None);
        assert!(v.passed(), "vacuous point failed: {:?}", v.violation);
        assert_eq!(v.outer_fired, None);
    }

    #[test]
    fn first_and_last_points_hold_invariants() {
        for k in [0, tiny_total() - 1] {
            let v = run_point(&tiny(), k, None);
            assert!(
                v.passed(),
                "crash at op {k} violated invariants: {:?}",
                v.violation
            );
            assert_eq!(
                at(v.outer_fired),
                Some(k),
                "crash must fire at the armed index"
            );
        }
    }

    #[test]
    fn nested_counting_covers_recovery_kinds() {
        // Crashing the very first durability op still leaves a full
        // recovery to count: mount (snapshot + log scan + replay),
        // manifest scan, and the replicated mirror rescan.
        let head = run_point(&tiny(), 0, None);
        assert!(head.passed(), "head at k=0 failed: {:?}", head.violation);
        assert_eq!(
            at(head.outer_fired),
            Some(0),
            "outer crash must fire at the armed index"
        );
        let rec = head.recovery;
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
        let late = run_point(&tiny(), tiny_total() - 1, None);
        assert!(late.passed(), "head at last k failed: {:?}", late.violation);
        assert!(late.outer_fired.is_some());
        assert!(
            late.recovery.count(Site::ReplayApply) > 0,
            "late-point recovery replayed nothing"
        );
        assert!(
            late.recovery.total(Plane::Recovery) > total,
            "later crash must mean more replay"
        );
    }

    #[test]
    fn nested_tiny_grid_recovers_every_point() {
        let cfg = UniverseConfig {
            max_points: Some(4),
            recovery_points: 4,
            ..tiny()
        };
        let t = Telemetry::new();
        let report = explore(&cfg, &t).expect("nested grid");
        assert!(
            report.failures.is_empty(),
            "nested universe has violations: {:?}",
            report.failures
        );
        assert_eq!(report.outer_points, 4);
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
        assert!(
            report.verdicts.iter().all(|&(_, j, _)| j.is_some()),
            "a nested grid's points are its (k, j) points"
        );
        let snap = t.snapshot();
        assert_eq!(snap.counter("crashverse.failures"), 0);
        assert_eq!(snap.counter("crashverse.points"), report.points_run);
        assert_eq!(snap.counter("crashverse.restarts"), report.restarts);
    }

    #[test]
    fn past_the_recovery_universe_is_the_single_point() {
        // A recovery crash index past the recovery's last op never fires:
        // the point is the single crash `(k, None)`, restart rule and all.
        for k in [0, tiny_total() / 2, tiny_total() - 1] {
            let single = run_point(&tiny(), k, None);
            let m = single.recovery.total(Plane::Recovery);
            let v = run_point(&tiny(), k, Some(m + 3));
            assert_eq!(v.passed(), single.passed(), "k={k}: {:?}", v.violation);
            assert_eq!(v.outer_fired, single.outer_fired, "k={k}");
            assert_eq!(v.recovery.fired, None, "k={k}: recovery crash fired");
            assert_eq!(v.restarts, 0, "k={k}");
        }
    }

    #[test]
    fn replay_lines_keep_both_formats() {
        let cfg = tiny();
        let fp = format!("# fingerprint {:#018x}", cfg.fingerprint());
        let single = cfg.replay_command(7, None);
        assert!(single.starts_with("nvmecr-crashverse --seed "), "{single}");
        assert!(single.ends_with(&format!("--crash-at 7 {fp}")), "{single}");
        let nested = cfg.replay_command(7, Some(3));
        assert!(
            nested.starts_with("nvmecr-crashverse --nested --seed "),
            "{nested}"
        );
        assert!(
            nested.ends_with(&format!("--crash-at 7 --crash-in-recovery 3 {fp}")),
            "{nested}"
        );
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
        let plan = FaultPlan::new(cfg.seed);
        let (outer, failed) = drive_under(
            plan.clone().crash_at_op(k),
            &mut stack,
            &cfg,
            &mut st,
            &chaos,
            &telemetry,
        );
        assert!(outer.fired.is_some(), "mid-universe point must fire");
        let (_, recovered) = recover_under(
            plan.crash_in_recovery(0),
            stack.rt.crash_job(),
            &chaos,
            &telemetry,
        );
        let supervised = recovered.expect("supervised recovery after nested crash");
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
        let mut rt2 = RecoverySupervisor::default()
            .attach(rt.crash_job())
            .expect("second mount")
            .into_runtime();
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
                let v = run_point(&tiny(), k, None);
                prop_assert!(
                    v.passed(),
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
                let head = run_point(&tiny(), k, None);
                prop_assert!(head.passed(), "head ({}, None): {:?}", k, head.violation);
                prop_assert_eq!(at(head.outer_fired), Some(k));
                let m = head.recovery.total(Plane::Recovery);
                prop_assert!(m > 0, "empty recovery universe at k={}", k);
                let j = jr % m;
                let v = run_point(&tiny(), k, Some(j));
                prop_assert!(
                    v.passed(),
                    "nested crash ({}, {}) violated invariants: {:?}",
                    k,
                    j,
                    v.violation
                );
                prop_assert_eq!(at(v.recovery.fired), Some(j));
                prop_assert_eq!(at(v.fired()), Some(j));
                prop_assert!(v.restarts >= 1);
                prop_assert_eq!(v.restarts, 1);
            }
        }
    }
}
