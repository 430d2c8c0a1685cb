//! Bounded-retry recovery supervision with quarantine and degraded
//! read-only serving.
//!
//! The typestate chain in [`crate::recovery`] makes one recovery attempt
//! correct; this module makes recovery *survivable when the attempt
//! itself dies*. A crash inside replay — modeled exactly by the nested
//! crash plane ([`chaos::ChaosHandle::crash_in_recovery`]) — leaves the
//! rank exactly where it started: durable bytes intact, volatile state
//! gone. The supervisor's job is to restart the chain from the top with
//! a bounded budget, and to refuse to wedge the whole job when one rank
//! cannot come back:
//!
//! * **Bounded retries** — each rank gets [`RecoveryPolicy::max_attempts`]
//!   runs through the typestate chain, with exponential backoff between
//!   attempts and a per-rank wall-clock deadline. Every re-attempt calls
//!   [`chaos::ChaosHandle::begin_recovery_attempt`], which is what makes
//!   the nested crash plane's "second attempt runs clean" contract hold.
//! * **Quarantine** — a rank that exhausts its budget with at least
//!   [`RecoveryPolicy::quarantine_after`] failures is quarantined instead
//!   of failing the attach: the supervisor records a
//!   [`FlightKind::RecoveryQuarantine`] trip and moves on to the next
//!   rank. Quarantine is per-namespace damage containment — one dead
//!   shard must not turn a 10k-rank restart into a cluster-wide outage.
//! * **Degraded serving** — a quarantined rank's last *complete* epoch is
//!   materialized from its replica into an in-memory image and mounted
//!   read-only ([`DegradedRank`]). Restarts can read the newest sealed
//!   checkpoint while the live head stays quarantined.
//! * **Rejoin** — [`Supervised::rejoin`] runs the normal failover path
//!   ([`crate::runtime::NvmeCrRuntime::fail_over_rank`]): a replacement
//!   namespace on a partner failure domain, restored from the replica,
//!   after which the rank serves read-write again.
//!
//! Ranks are recovered **sequentially, in rank order** — deliberately,
//! not as a simplification: the nested crash plane indexes recovery
//! operations by a single global counter, and only a deterministic op
//! order makes `crash_in_recovery(j)` name the same operation in every
//! universe. [`NvmeCrRuntime::attach`] keeps its parallel mount for the
//! chaos-free fast path.
//!
//! Progress is reported via `recovery.*` counters: `recovery.attempts`,
//! `recovery.restarts`, `recovery.quarantined`, `recovery.degraded_serves`,
//! and `recovery.replay_reentries` (restarts taken while the nested crash
//! plane was armed — i.e. replay re-entries proven idempotent by chaos).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use chaos::ChaosHandle;
use cluster::Topology;
use microfs::fs::FileStat;
use microfs::{FsError, MemDevice, MicroFs, OpenFlags};
use telemetry::FlightKind;

use crate::replication::{self, ReplicationError};
use crate::runtime::{JobHandle, NvmeCrRuntime, RuntimeError, StorageRack};

/// How hard the supervisor tries before giving a rank up for quarantined.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Runs through the typestate chain each rank may consume (≥ 1).
    pub max_attempts: u32,
    /// Backoff before re-attempt `n` is `base_backoff_ns << (n - 1)`.
    pub base_backoff_ns: u64,
    /// Per-rank wall-clock budget across all attempts and backoffs.
    pub deadline_ns: u64,
    /// Quarantine a rank after this many failed attempts instead of
    /// failing the whole attach; `0` disables quarantine (any exhausted
    /// rank fails the attach — the pre-supervisor behavior).
    pub quarantine_after: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 2,
            base_backoff_ns: 100_000,
            deadline_ns: 30_000_000_000,
            quarantine_after: 2,
        }
    }
}

/// What supervised recovery did, per attach.
#[derive(Debug, Default, Clone)]
pub struct RecoveryOutcome {
    /// Typestate-chain runs started (first attempts + restarts).
    pub attempts: u64,
    /// Re-attempts after a failed run.
    pub restarts: u64,
    /// Ranks that exhausted their budget and were quarantined.
    pub quarantined: Vec<u32>,
    /// Quarantined ranks successfully brought up read-only.
    pub degraded_serves: u64,
}

/// Recovery supervisor: wraps [`NvmeCrRuntime::recover_ranks`] —
/// and through it the `Crashed → Replaying → Verified` typestate chain —
/// in deadlines, bounded re-attempts, quarantine, and degraded serving.
#[derive(Debug, Default, Clone)]
pub struct RecoverySupervisor {
    policy: RecoveryPolicy,
}

impl RecoverySupervisor {
    /// A supervisor with the given policy.
    pub fn new(policy: RecoveryPolicy) -> Self {
        RecoverySupervisor { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Supervised attach: recover every rank of `handle` sequentially,
    /// re-attempting failures within the policy's budget and quarantining
    /// ranks that exhaust it. Returns the runtime plus the degraded
    /// read-only instances of any quarantined ranks.
    ///
    /// With quarantine disabled (`quarantine_after == 0`) the first
    /// exhausted rank fails the attach with its last error, like
    /// [`NvmeCrRuntime::attach`] — ranks recovered before it stay mounted
    /// in no observable place, exactly as a failed plain attach leaves
    /// no runtime behind.
    pub fn attach(&self, handle: JobHandle) -> Result<Supervised, RuntimeError> {
        let mut rt = handle.into_empty_runtime();
        let telemetry = rt.telemetry().clone();
        let chaos = rt.runtime_config().chaos.clone();
        let attempts_c = telemetry.counter("recovery.attempts");
        let restarts_c = telemetry.counter("recovery.restarts");
        let quarantined_c = telemetry.counter("recovery.quarantined");
        let degraded_c = telemetry.counter("recovery.degraded_serves");
        let reentries_c = telemetry.counter("recovery.replay_reentries");
        let flight = telemetry.recorder();
        let mut outcome = RecoveryOutcome::default();
        let mut degraded = BTreeMap::new();
        for rank in 0..rt.rank_count() {
            let started = Instant::now();
            let mut failures = 0u32;
            let mut last_err: Option<RuntimeError> = None;
            while failures < self.policy.max_attempts.max(1) {
                if failures > 0 {
                    let shift = (failures - 1).min(20);
                    let backoff = self.policy.base_backoff_ns.saturating_mul(1 << shift);
                    let left = self
                        .policy
                        .deadline_ns
                        .saturating_sub(started.elapsed().as_nanos() as u64);
                    if left == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_nanos(backoff.min(left)));
                    // The restart contract: recovery begins again from the
                    // top, and the nested crash plane moves past the index
                    // it already killed.
                    chaos.begin_recovery_attempt();
                    restarts_c.inc();
                    outcome.restarts += 1;
                    if chaos.is_recovery_armed() {
                        reentries_c.inc();
                    }
                }
                attempts_c.inc();
                outcome.attempts += 1;
                match rt.recover_ranks(&[rank]) {
                    Ok(()) => {
                        last_err = None;
                        break;
                    }
                    Err(e) => {
                        failures += 1;
                        last_err = Some(e);
                    }
                }
            }
            let Some(err) = last_err else { continue };
            if self.policy.quarantine_after == 0 || failures < self.policy.quarantine_after {
                return Err(err);
            }
            quarantined_c.inc();
            flight.record(
                FlightKind::RecoveryQuarantine,
                0,
                0,
                rank as u64,
                failures as u64,
            );
            flight.trip(FlightKind::RecoveryQuarantine, rank as u64);
            outcome.quarantined.push(rank);
            // Best effort: a rank whose replica is also unreachable stays
            // quarantined without a degraded instance — the attach still
            // succeeds for everyone else.
            if let Ok(d) = degraded_serve(&rt, rank) {
                degraded_c.inc();
                flight.record(FlightKind::DegradedServe, 0, 0, rank as u64, d.epoch());
                outcome.degraded_serves += 1;
                degraded.insert(rank, d);
            }
        }
        Ok(Supervised {
            runtime: rt,
            degraded,
            outcome,
        })
    }
}

/// A runtime produced by supervised recovery: the healthy ranks mounted
/// read-write, plus a read-only [`DegradedRank`] for each quarantined one.
pub struct Supervised {
    runtime: NvmeCrRuntime,
    degraded: BTreeMap<u32, DegradedRank>,
    outcome: RecoveryOutcome,
}

impl Supervised {
    /// What recovery took: attempts, restarts, quarantines, serves.
    pub fn outcome(&self) -> &RecoveryOutcome {
        &self.outcome
    }

    /// The underlying runtime (quarantined ranks are unmounted in it).
    pub fn runtime(&self) -> &NvmeCrRuntime {
        &self.runtime
    }

    /// Mutable access to the underlying runtime.
    pub fn runtime_mut(&mut self) -> &mut NvmeCrRuntime {
        &mut self.runtime
    }

    /// Give up the supervision wrapper, dropping any degraded instances.
    pub fn into_runtime(self) -> NvmeCrRuntime {
        self.runtime
    }

    /// Ranks currently quarantined.
    pub fn quarantined(&self) -> &[u32] {
        &self.outcome.quarantined
    }

    /// The degraded read-only instance of a quarantined rank, if its
    /// replica could serve one.
    pub fn degraded_mut(&mut self, rank: u32) -> Option<&mut DegradedRank> {
        self.degraded.get_mut(&rank)
    }

    /// Bring a quarantined rank back to full read-write service via the
    /// failover path: a replacement namespace on a partner failure
    /// domain, restored from the replica. On success the rank leaves
    /// quarantine and its degraded instance is dropped.
    pub fn rejoin(
        &mut self,
        rank: u32,
        rack: &StorageRack,
        topo: &Topology,
    ) -> Result<(), RuntimeError> {
        if !self.outcome.quarantined.contains(&rank) {
            return Err(RuntimeError::BadRank(rank));
        }
        self.runtime.fail_over_rank(rank, rack, topo)?;
        self.degraded.remove(&rank);
        self.outcome.quarantined.retain(|&r| r != rank);
        Ok(())
    }
}

/// A quarantined rank's newest complete checkpoint epoch, reconstructed
/// from its replica into memory and mounted read-only. The primary
/// namespace is never touched — this is what restarts read while the
/// live head is quarantined.
pub struct DegradedRank {
    rank: u32,
    epoch: u64,
    fs: MicroFs<MemDevice>,
}

impl DegradedRank {
    /// The rank served.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The complete epoch the image corresponds to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stat a path in the degraded image.
    pub fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        self.fs.stat(path)
    }

    /// Read a whole file out of the degraded image.
    pub fn read_file(&mut self, path: &str) -> Result<Vec<u8>, FsError> {
        let len = self.fs.stat(path)?.size as usize;
        let fd = self.fs.open(path, OpenFlags::RDONLY, 0)?;
        let mut buf = vec![0u8; len];
        let mut got = 0;
        while got < len {
            let n = self.fs.read(fd, &mut buf[got..])?;
            if n == 0 {
                break;
            }
            got += n;
        }
        self.fs.close(fd)?;
        if got != len {
            return Err(FsError::Io(format!(
                "degraded read of {path} truncated at {got}/{len} bytes"
            )));
        }
        Ok(buf)
    }
}

/// Materialize `rank`'s newest complete epoch from its replica into an
/// in-memory image and mount it read-only. Every extent is streamed with
/// CRC verification against its manifest entry — a degraded serve must
/// never hand out silently-rotten bytes.
fn degraded_serve(rt: &NvmeCrRuntime, rank: u32) -> Result<DegradedRank, RuntimeError> {
    let route = rt.route(rank).ok_or(RuntimeError::BadRank(rank))?;
    let rr = route
        .replica
        .as_ref()
        .ok_or(RuntimeError::Replication(ReplicationError::NoCompleteEpoch))?;
    let config = rt.runtime_config();
    let fs_size = route.fs_size();
    let mut conn = config.connect(
        format!("nqn.2026-07.io.nvmecr:rank{rank}-degraded"),
        &rr.target,
        rr.ns,
    );
    // The degraded image is a volatile reconstruction, not the supervised
    // recovery path: it is read and mounted on a disarmed chaos handle so
    // nested crash points aim only at real recovery.
    let disarmed = ChaosHandle::default();
    let chain = replication::materialize_chain(&mut conn, fs_size, &disarmed)?
        .ok_or(ReplicationError::NoCompleteEpoch)?;
    let mut image = vec![0u8; fs_size as usize];
    for e in &chain.extents {
        // An extent outside the image it describes is a corrupt manifest.
        let fits = e
            .offset
            .checked_add(e.len)
            .is_some_and(|end| end <= fs_size);
        let crc = fits
            .then(|| {
                replication::stream_extent(&mut conn, e.offset, e.len, |at, data| {
                    image[at as usize..][..data.len()].copy_from_slice(&data);
                    Ok(())
                })
            })
            .transpose()
            .map_err(ReplicationError::from)?;
        if crc != Some(e.crc) {
            return Err(ReplicationError::Unrecoverable {
                offset: e.offset,
                len: e.len,
            }
            .into());
        }
    }
    let mut fs_config = config.fs_config();
    fs_config.chaos = disarmed;
    let fs = MicroFs::mount(MemDevice::from_raw(image), fs_config).map_err(RuntimeError::Fs)?;
    Ok(DegradedRank {
        rank,
        epoch: chain.epoch,
        fs,
    })
}
