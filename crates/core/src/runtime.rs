//! Runtime orchestration: from a scheduler allocation to per-rank mounted
//! filesystems, and back through crash and recovery.
//!
//! `NvmeCrRuntime` is the ephemeral, job-lifetime runtime of §III-B: at
//! `MPI_Init` it partitions the granted SSDs (storage balancer), creates
//! the job's NVMe namespaces, connects each rank's NVMf initiator, and
//! formats one `MicroFs` per rank; at `MPI_Finalize` it snapshots and
//! tears down. `crash_rank`/`recover_rank` exercise the paper's recovery
//! story over real bytes.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use cluster::{FailureDomains, JobAllocation, NodeId, NodeKind, Topology};
use fabric::NvmfTarget;
use microfs::manifest::REGION_BYTES;
use microfs::{ExtentMap, FsError, FsStats, MicroFs};
use ssd::{NsId, Ssd, SsdConfig, SsdError};
use telemetry::Telemetry;

use crate::balancer::{failover_grant, BalanceError, Placement, StorageBalancer};
use crate::config::RuntimeConfig;
use crate::dataplane::NvmfBlockDevice;
use crate::reactor::{
    available_cores, FnMachine, RankMachine, RankTask, ReactorConfig, ReactorMode, ReactorPool,
};
use crate::replication::{self, Mirror, ReplicationError, ScrubReport};

/// Smallest per-rank segment we accept (microfs needs room for its log,
/// snapshot slots, and data region).
pub const MIN_SEGMENT: u64 = 16 << 20;

/// How the runtime's own fan-outs (format, mount, recovery, epoch
/// commits) run: on the thread budget's reactors, threaded — or, when the
/// budget is one reactor, in lockstep on the calling thread rather than
/// on a single worker it would only wait for, which also keeps a runtime
/// nested inside another drive's step (a crash universe) from adding
/// threads.
fn own_fan_out(config: &RuntimeConfig) -> ReactorConfig {
    let reactors = match config.reactors {
        0 => available_cores(),
        n => n as usize,
    };
    let mode = if reactors == 1 {
        ReactorMode::Deterministic
    } else {
        ReactorMode::Threaded
    };
    ReactorConfig {
        reactors,
        mode,
        qos: None,
    }
}

/// Runtime failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// Balancer rejected the allocation.
    Balance(BalanceError),
    /// Device/namespace management failed.
    Ssd(SsdError),
    /// Filesystem failure.
    Fs(FsError),
    /// Replication-layer failure (mirror commit, scrub, or restore).
    Replication(ReplicationError),
    /// Referenced rank does not exist or is not mounted.
    BadRank(u32),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Balance(e) => write!(f, "balancer: {e}"),
            RuntimeError::Ssd(e) => write!(f, "ssd: {e}"),
            RuntimeError::Fs(e) => write!(f, "fs: {e}"),
            RuntimeError::Replication(e) => write!(f, "replication: {e}"),
            RuntimeError::BadRank(r) => write!(f, "bad rank {r}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<BalanceError> for RuntimeError {
    fn from(e: BalanceError) -> Self {
        RuntimeError::Balance(e)
    }
}
impl From<SsdError> for RuntimeError {
    fn from(e: SsdError) -> Self {
        RuntimeError::Ssd(e)
    }
}
impl From<FsError> for RuntimeError {
    fn from(e: FsError) -> Self {
        RuntimeError::Fs(e)
    }
}
impl From<ReplicationError> for RuntimeError {
    fn from(e: ReplicationError) -> Self {
        RuntimeError::Replication(e)
    }
}

/// The storage side of the cluster: one functional SSD + NVMf target per
/// `(storage node, ssd index)`.
pub struct StorageRack {
    targets: BTreeMap<(NodeId, u32), Arc<NvmfTarget>>,
}

impl StorageRack {
    /// Build devices and target daemons for every storage node in `topo`,
    /// reporting device metrics to the global telemetry registry.
    pub fn build(topo: &Topology, ssd_config: &SsdConfig) -> Self {
        Self::build_with_telemetry(topo, ssd_config, Telemetry::default())
    }

    /// [`build`](StorageRack::build) with an explicit telemetry handle —
    /// every device in the rack reports to `telemetry`'s registry.
    pub fn build_with_telemetry(
        topo: &Topology,
        ssd_config: &SsdConfig,
        telemetry: Telemetry,
    ) -> Self {
        let mut targets = BTreeMap::new();
        for node in topo.storage_nodes() {
            if let NodeKind::Storage { ssds } = topo.kind_of(node) {
                for s in 0..ssds {
                    let ssd = Ssd::with_telemetry(ssd_config.clone(), telemetry.clone());
                    targets.insert((node, s), Arc::new(NvmfTarget::new(Arc::new(ssd))));
                }
            }
        }
        StorageRack { targets }
    }

    /// The target fronting one SSD.
    pub fn target(&self, node: NodeId, ssd: u32) -> Option<&Arc<NvmfTarget>> {
        self.targets.get(&(node, ssd))
    }

    /// Number of SSDs in the rack.
    pub fn ssd_count(&self) -> usize {
        self.targets.len()
    }

    /// Simulate a power failure on every device in a set of nodes,
    /// returning total bytes lost (zero with capacitors).
    pub fn power_fail_nodes(&self, nodes: &[NodeId]) -> u64 {
        let mut lost = 0;
        for ((node, _), target) in &self.targets {
            if nodes.contains(node) {
                lost += target.device().power_failure().lost_bytes;
            }
        }
        lost
    }

    /// The targets on one storage node, in SSD-index order.
    pub fn targets_on(&self, node: NodeId) -> Vec<(u32, Arc<NvmfTarget>)> {
        self.targets
            .iter()
            .filter(|((n, _), _)| *n == node)
            .map(|((_, s), t)| (*s, Arc::clone(t)))
            .collect()
    }
}

#[derive(Clone)]
struct GrantState {
    target: Arc<NvmfTarget>,
    ns: NsId,
    /// The storage node fronting the namespace.
    node: NodeId,
}

/// Where one rank's bytes currently live: a target, a namespace, and the
/// rank's window into it. At init every route points into the job's shared
/// grant namespaces; after [`NvmeCrRuntime::fail_over_rank`] the affected
/// rank's route points at a private replacement namespace on a partner
/// failure domain.
#[derive(Clone)]
pub(crate) struct RankRoute {
    pub(crate) target: Arc<NvmfTarget>,
    pub(crate) ns: NsId,
    /// Byte offset of the rank's segment within `ns`.
    pub(crate) base: u64,
    /// Segment size in bytes.
    pub(crate) size: u64,
    /// The storage node holding the bytes (failure-domain bookkeeping).
    pub(crate) node: NodeId,
    /// Replication factor 2: the rank's second copy on a partner failure
    /// domain. Its namespace is `size` bytes laid out identically to the
    /// primary segment (partition image at 0, manifest region at the
    /// tail), so either copy can serve a restore.
    pub(crate) replica: Option<ReplicaRoute>,
}

/// Where a rank's replica lives (its own private namespace, base 0).
#[derive(Clone)]
pub(crate) struct ReplicaRoute {
    pub(crate) target: Arc<NvmfTarget>,
    pub(crate) ns: NsId,
    pub(crate) node: NodeId,
}

impl RankRoute {
    /// The microfs partition size: replicated routes reserve the manifest
    /// region at the segment tail.
    pub(crate) fn fs_size(&self) -> u64 {
        if self.replica.is_some() {
            self.size - REGION_BYTES
        } else {
            self.size
        }
    }

    /// The replica's partition image as a route of its own: the replica
    /// namespace is laid out like the primary segment, image at 0 and
    /// manifest region right after it. `None` when unreplicated.
    pub(crate) fn replica_image(&self) -> Option<RankRoute> {
        let rr = self.replica.as_ref()?;
        Some(RankRoute {
            target: Arc::clone(&rr.target),
            ns: rr.ns,
            base: 0,
            size: self.fs_size(),
            node: rr.node,
            replica: None,
        })
    }

    /// Connect an initiator named `nqn` to the route's namespace and wrap
    /// the partition `[base, base + fs_size())` as a block device under
    /// `config`'s chaos hook. Every rank bring-up opens its device here:
    /// format, recovery, failover, fsck and degraded serving. The caller
    /// attaches the mirror, if any.
    pub(crate) fn open(&self, nqn: String, config: &RuntimeConfig) -> NvmfBlockDevice {
        let conn = config.connect(nqn, &self.target, self.ns);
        let mut dev = NvmfBlockDevice::new(conn, self.base, self.fs_size());
        dev.set_chaos(config.chaos.clone());
        dev
    }
}

/// Pick a partner-domain home for a rank's replica: a storage node other
/// than the primary's, domain-separated from the rank (preferring nodes
/// also separated from the primary), with an SSD that has room. The scan
/// over `storage` starts at position `rank % storage.len()` and wraps, so
/// replicas spread across the rack.
fn place_replica(
    rack: &StorageRack,
    domains: &FailureDomains,
    storage: &[NodeId],
    rank: u32,
    rank_node: NodeId,
    primary_node: NodeId,
    size: u64,
) -> Result<ReplicaRoute, RuntimeError> {
    let start = rank as usize % storage.len().max(1);
    let pass = |strict: bool| {
        storage[start..]
            .iter()
            .chain(&storage[..start])
            .copied()
            .filter(|&node| {
                node != primary_node
                    && domains.separated(rank_node, node)
                    && (!strict || domains.separated(primary_node, node))
            })
            .find_map(|node| {
                let mut targets = rack.targets_on(node);
                if !targets.is_empty() {
                    let rot = rank as usize % targets.len();
                    targets.rotate_left(rot);
                }
                targets
                    .into_iter()
                    .map(|(_, t)| t)
                    .find(|t| t.device().free_bytes() >= size)
                    .map(|t| (t, node))
            })
    };
    let (target, node) = pass(true)
        .or_else(|| pass(false))
        .ok_or(RuntimeError::Balance(BalanceError::NoFailoverTarget {
            rank,
        }))?;
    let ns = target.device().create_namespace(size)?;
    Ok(ReplicaRoute { target, ns, node })
}

/// A dead job's storage handle: everything needed to reattach to the
/// surviving namespaces after the application died (the restart half of
/// checkpoint/restart). The ephemeral runtime dies with the job; the
/// checkpoint data does not.
///
/// Cloneable so a failed attach can be retried with a different policy:
/// the handle names durable state, it does not own connections.
#[derive(Clone)]
pub struct JobHandle {
    grants: Vec<GrantState>,
    routes: Vec<RankRoute>,
    rank_nodes: Vec<NodeId>,
    extra_ns: Vec<(Arc<NvmfTarget>, NsId)>,
    placement: Placement,
    config: RuntimeConfig,
}

impl JobHandle {
    /// Ranks covered by this handle.
    pub fn rank_count(&self) -> u32 {
        self.placement.per_rank.len() as u32
    }

    /// Construct the runtime shell with every rank still crashed (no
    /// mounting). [`crate::supervisor::RecoverySupervisor::attach`]
    /// recovers its ranks one at a time, with retries, deadlines, and
    /// quarantine.
    pub(crate) fn into_empty_runtime(self) -> NvmeCrRuntime {
        let slots = self.routes.len();
        NvmeCrRuntime {
            placement: self.placement,
            grants: self.grants,
            routes: self.routes,
            rank_nodes: self.rank_nodes,
            extra_ns: self.extra_ns,
            config: self.config,
            ranks: (0..slots).map(|_| None).collect(),
        }
    }
}

/// A live NVMe-CR job runtime.
pub struct NvmeCrRuntime {
    placement: Placement,
    grants: Vec<GrantState>,
    /// Per-rank storage routes (indexed by rank); updated on failover.
    routes: Vec<RankRoute>,
    /// Compute node of each rank (failure-domain checks on failover).
    rank_nodes: Vec<NodeId>,
    /// Failover namespaces created after init, deleted at finalize.
    extra_ns: Vec<(Arc<NvmfTarget>, NsId)>,
    config: RuntimeConfig,
    ranks: Vec<Option<MicroFs<NvmfBlockDevice>>>,
}

impl NvmeCrRuntime {
    /// Initialize the runtime for `alloc` (the `MPI_Init` wrapper's work):
    /// place ranks, create namespaces, connect, format.
    pub fn init(
        rack: &StorageRack,
        topo: &Topology,
        alloc: &JobAllocation,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let domains = FailureDomains::derive(topo);
        let balancer = StorageBalancer::new(&domains);
        let placement = balancer.place(alloc, config.namespace_bytes, MIN_SEGMENT)?;
        // One namespace per grant, created from the device's free space
        // (the gres-granted slot).
        let mut grants = Vec::with_capacity(alloc.storage.len());
        for g in &alloc.storage {
            let target = rack
                .target(g.node, g.ssd)
                .ok_or(BalanceError::UnknownSsd {
                    node: g.node,
                    ssd: g.ssd,
                })?
                .clone();
            let ns = target.device().create_namespace(config.namespace_bytes)?;
            grants.push(GrantState {
                target,
                ns,
                node: g.node,
            });
        }
        // Each rank's initial route: its segment of its grant's namespace.
        let mut routes: Vec<RankRoute> = placement
            .per_rank
            .iter()
            .map(|p| {
                let gs = &grants[p.grant];
                RankRoute {
                    target: Arc::clone(&gs.target),
                    ns: gs.ns,
                    base: p.segment_offset,
                    size: p.segment_size,
                    node: gs.node,
                    replica: None,
                }
            })
            .collect();
        // Replication factor 2: give every rank a second copy on a
        // partner failure domain, in its own namespace sized like the
        // primary segment (image + manifest region).
        if config.replication_factor >= 2 {
            let storage = topo.storage_nodes();
            for (rank, route) in routes.iter_mut().enumerate() {
                route.replica = Some(place_replica(
                    rack,
                    &domains,
                    &storage,
                    rank as u32,
                    alloc.rank_nodes[rank],
                    route.node,
                    route.size,
                )?);
            }
        }
        // Per-rank: connect an initiator and format the segment. Ranks
        // are fully independent (own connection, own namespace shard, own
        // filesystem), so format them on the pool.
        let init_rank_ns = config.telemetry.histogram("driver.init_rank_ns");
        let formatted = ReactorPool::new(&own_fan_out(&config), &config.telemetry).map(
            placement.per_rank.iter().map(|p| p.rank),
            |rank| {
                let _span = telemetry::span("driver", "init_rank").arg("rank", u64::from(rank));
                let _t = init_rank_ns.time();
                let route = &routes[rank as usize];
                let nqn = format!("nqn.2026-07.io.nvmecr:rank{rank}");
                let mut dev = route.open(nqn.clone(), &config);
                if let Some(rr) = &route.replica {
                    let rconn = config.connect(format!("{nqn}-mirror"), &rr.target, rr.ns);
                    dev.attach_mirror(Mirror::new(rconn, ExtentMap::new(), 0, &config));
                }
                MicroFs::format(dev, config.fs_config()).map_err(RuntimeError::from)
            },
        );
        if let Some(e) = formatted.error {
            return Err(e);
        }
        let ranks = formatted.results.into_iter().map(|r| r.result).collect();
        Ok(NvmeCrRuntime {
            placement,
            grants,
            routes,
            rank_nodes: alloc.rank_nodes.clone(),
            extra_ns: Vec::new(),
            config,
            ranks,
        })
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// The verified placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Mutable access to one rank's filesystem.
    pub fn rank_fs(&mut self, rank: u32) -> Result<&mut MicroFs<NvmfBlockDevice>, RuntimeError> {
        self.ranks
            .get_mut(rank as usize)
            .and_then(Option::as_mut)
            .ok_or(RuntimeError::BadRank(rank))
    }

    /// Drive every *mounted* rank through the shard-per-core reactor pool
    /// (DESIGN.md §14): rank count decouples from thread count — each
    /// reactor multiplexes many rank state machines, advancing each by
    /// completion-sized steps instead of parking one OS thread per rank.
    /// Each rank's `MicroFs` owns its own NVMf connection to its own
    /// namespace shard, so rank driving shares no lock: this is the
    /// runtime-side analogue of the paper's per-process microfs instances
    /// on dedicated hardware queues.
    ///
    /// Every rank bills QoS tenant 0. `build` constructs the state
    /// machine driven against that rank's filesystem, which may borrow
    /// from the caller. Results come back in rank order, crashed ranks
    /// skipped. Every filesystem is returned to its slot when the drive
    /// ends, whether its machine completed or failed: ranks stay mounted
    /// on error.
    pub fn drive_reactor<'a, R, B>(
        &mut self,
        reactor: &ReactorConfig,
        build: B,
    ) -> Result<Vec<R>, RuntimeError>
    where
        R: Send,
        B: Fn(u32) -> Box<dyn RankMachine<MicroFs<NvmfBlockDevice>, Out = R> + 'a>,
    {
        // An unset reactor count comes from the runtime's thread budget.
        let mut cfg = reactor.clone();
        if cfg.reactors == 0 {
            cfg.reactors = self.config.reactors as usize;
        }
        let pool = ReactorPool::new(&cfg, &self.config.telemetry);
        let mut tasks = Vec::new();
        for (rank, slot) in self.ranks.iter_mut().enumerate() {
            if let Some(fs) = slot.take() {
                let rank = rank as u32;
                tasks.push(RankTask {
                    rank,
                    tenant: 0,
                    fs,
                    machine: build(rank),
                });
            }
        }
        let outcome = pool.drive(tasks);
        let mut out = Vec::new();
        for r in outcome.results {
            // Reinstall unconditionally: a failed machine leaves its rank
            // mounted.
            self.ranks[r.rank as usize] = Some(r.fs);
            if let Some(v) = r.result {
                out.push(v);
            }
        }
        match outcome.error {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }

    /// [`drive_reactor`](NvmeCrRuntime::drive_reactor) for whole-rank
    /// operations: each rank's closure runs as a one-shot state machine (a
    /// single `step` to completion). The first error is returned after
    /// every mounted rank ran.
    pub fn map_ranks_reactor<R, F>(
        &mut self,
        reactor: &ReactorConfig,
        f: F,
    ) -> Result<Vec<R>, RuntimeError>
    where
        R: Send,
        F: Fn(u32, &mut MicroFs<NvmfBlockDevice>) -> Result<R, RuntimeError> + Sync,
    {
        let f = &f;
        self.drive_reactor(reactor, |_| {
            Box::new(FnMachine::new(
                move |rank, fs: &mut MicroFs<NvmfBlockDevice>| f(rank, fs),
            ))
        })
    }

    /// One rank's current storage route (supervisor-internal).
    pub(crate) fn route(&self, rank: u32) -> Option<&RankRoute> {
        self.routes.get(rank as usize)
    }

    /// The runtime's configuration (supervisor-internal).
    pub(crate) fn runtime_config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Whether `rank` currently has a mounted filesystem.
    pub fn is_mounted(&self, rank: u32) -> bool {
        self.ranks.get(rank as usize).is_some_and(Option::is_some)
    }

    /// Kill the SSD shard behind `rank`'s *primary* namespace: every
    /// subsequent IO on it fails with `ShardDead` until the rank fails
    /// over. Chaos/test aid — this is the persistent-failure injection
    /// the supervisor's quarantine path exists for. Ranks sharing the
    /// same grant namespace share the blast radius, as a real dead drive
    /// would.
    pub fn kill_primary_shard(&self, rank: u32) -> Result<(), RuntimeError> {
        let route = self
            .routes
            .get(rank as usize)
            .ok_or(RuntimeError::BadRank(rank))?;
        route
            .target
            .device()
            .shard(route.ns)
            .map_err(RuntimeError::Ssd)?
            .kill();
        Ok(())
    }

    /// Simulate a process crash: all volatile state of the rank's instance
    /// is dropped; the device keeps whatever was durable.
    pub fn crash_rank(&mut self, rank: u32) -> Result<(), RuntimeError> {
        let slot = self
            .ranks
            .get_mut(rank as usize)
            .ok_or(RuntimeError::BadRank(rank))?;
        if slot.take().is_none() {
            return Err(RuntimeError::BadRank(rank));
        }
        Ok(())
    }

    /// Recover a crashed rank: reconnect and `mount` (snapshot + replay).
    pub fn recover_rank(&mut self, rank: u32) -> Result<(), RuntimeError> {
        self.recover_ranks(&[rank])
    }

    /// Recover several crashed ranks at once, mounting (snapshot + log
    /// replay) on the runtime's pool. All listed ranks must currently be
    /// crashed; every rank that mounts stays mounted even when another
    /// fails, and the first error is returned.
    pub fn recover_ranks(&mut self, ranks: &[u32]) -> Result<(), RuntimeError> {
        let mut seen = std::collections::HashSet::new();
        for &rank in ranks {
            let crashed = self
                .placement
                .per_rank
                .get(rank as usize)
                .is_some_and(|_| self.ranks[rank as usize].is_none());
            if !crashed || !seen.insert(rank) {
                return Err(RuntimeError::BadRank(rank));
            }
        }
        let (routes, config) = (&self.routes, &self.config);
        let recover_rank_ns = config.telemetry.histogram("driver.recover_rank_ns");
        let mounted = ReactorPool::new(&own_fan_out(config), &config.telemetry).map(
            ranks.iter().copied(),
            |rank| {
                let _span = telemetry::span("driver", "recover_rank").arg("rank", u64::from(rank));
                let _t = recover_rank_ns.time();
                // The typestate chain: reconnect, replay the log, verify
                // manifests + rebuild the mirror, and only then serve.
                crate::recovery::Crashed::new(
                    routes[rank as usize].clone(),
                    format!("nqn.2026-07.io.nvmecr:rank{rank}-r"),
                    config.clone(),
                )
                .begin_replay()
                .replay_all()
                .map(crate::recovery::Verified::serve)
            },
        );
        for r in mounted.results {
            if let Some(fs) = r.result {
                self.ranks[r.rank as usize] = Some(fs);
            }
        }
        match mounted.error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Run the offline consistency checker against a crashed rank's
    /// partition (the rank must currently be crashed; fsck mounts nothing).
    /// The check opens on a disarmed chaos handle, so it consumes no
    /// fault-plane index.
    pub fn fsck_rank(&mut self, rank: u32) -> Result<microfs::FsckReport, RuntimeError> {
        let route = self
            .routes
            .get(rank as usize)
            .cloned()
            .ok_or(RuntimeError::BadRank(rank))?;
        if self.ranks[rank as usize].is_some() {
            return Err(RuntimeError::BadRank(rank));
        }
        let mut dev = route.open(
            format!("nqn.2026-07.io.nvmecr:fsck{rank}"),
            &self.config.disarmed(),
        );
        Ok(microfs::fsck(&mut dev))
    }

    /// Seal one checkpoint epoch per mounted rank (replication factor 2):
    /// resolve outstanding extent CRCs and write the manifest body plus
    /// commit record to both copies. Returns the committed epochs; empty
    /// when replication is off.
    pub fn commit_epochs(&mut self) -> Result<Vec<u64>, RuntimeError> {
        self.map_ranks_reactor(&own_fan_out(&self.config), |_rank, fs| {
            let sealed = fs
                .device_mut()
                .commit_epoch()
                .map_err(RuntimeError::Replication)?;
            if sealed.is_some() {
                // Sealed epochs reset the filesystem's copy-on-write
                // tracker: the next first-touch of any extent counts as
                // a fresh copy-up.
                fs.cow_epoch_begin();
            }
            Ok(sealed)
        })
        .map(|v| v.into_iter().flatten().collect())
    }

    /// [`commit_epochs`](Self::commit_epochs) for a single rank.
    pub fn commit_epoch_rank(&mut self, rank: u32) -> Result<Option<u64>, RuntimeError> {
        let fs = self.rank_fs(rank)?;
        let sealed = fs
            .device_mut()
            .commit_epoch()
            .map_err(RuntimeError::Replication)?;
        if sealed.is_some() {
            fs.cow_epoch_begin();
        }
        Ok(sealed)
    }

    /// Scrub one rank's two copies: verify every committed extent against
    /// its manifest CRC on both the primary and the replica, read-repair
    /// latent corruption from whichever copy still matches. `Ok(None)`
    /// when the rank is unreplicated.
    pub fn scrub_rank(&mut self, rank: u32) -> Result<Option<ScrubReport>, RuntimeError> {
        let fs = self.rank_fs(rank)?;
        fs.device_mut().scrub().map_err(RuntimeError::Replication)
    }

    /// The storage node currently holding `rank`'s bytes.
    pub fn rank_storage_node(&self, rank: u32) -> Result<NodeId, RuntimeError> {
        self.routes
            .get(rank as usize)
            .map(|r| r.node)
            .ok_or(RuntimeError::BadRank(rank))
    }

    /// Re-place a rank whose storage shard died (§III-F "Handling Cascading
    /// Failures"): pick a surviving storage node that is domain-separated
    /// from both the rank and the failed node, and create a private
    /// replacement namespace there.
    ///
    /// With `replication_factor >= 2` this is a *recovery*, not a reset:
    /// the replacement is re-populated from the rank's live replica on
    /// the partner failure domain, every committed extent is byte-verified
    /// against its manifest CRC before the rank is declared healthy, and
    /// the rank remounts its filesystem exactly where it left off. Only if
    /// the replica was mid-epoch (or degraded) does the restore roll back
    /// to the replica's last *complete* epoch. The surviving replica stays
    /// attached as the rank's mirror.
    ///
    /// Unreplicated (factor 1) the replacement is formatted fresh — the
    /// data on the dead shard is gone; that is exactly the case
    /// multi-level checkpointing covers, and the caller is expected to
    /// roll back to the last PFS-level checkpoint and re-populate the new
    /// namespace.
    pub fn fail_over_rank(
        &mut self,
        rank: u32,
        rack: &StorageRack,
        topo: &Topology,
    ) -> Result<(), RuntimeError> {
        let route = self
            .routes
            .get(rank as usize)
            .cloned()
            .ok_or(RuntimeError::BadRank(rank))?;
        let _span = telemetry::span("driver", "fail_over_rank").arg("rank", u64::from(rank));
        let _rank = telemetry::context::with_rank(u64::from(rank));
        // Recovery begins: mark it in the flight recorder and trip a dump
        // so the events leading up to the failure are preserved before the
        // restore churn overwrites the rings.
        let flight = self.config.telemetry.recorder();
        flight.record(telemetry::FlightKind::Failover, 0, 0, u64::from(rank), 0);
        flight.trip(telemetry::FlightKind::Failover, u64::from(rank));
        let rank_node = self.rank_nodes[rank as usize];
        let domains = FailureDomains::derive(topo);
        let mut candidates = topo.storage_nodes();
        // Prefer not co-locating both copies: keep the replica's node out
        // of the candidate list unless nothing else qualifies.
        if let Some(rr) = &route.replica {
            if candidates.len() > 1 {
                let replica_node = rr.node;
                candidates.retain(|&n| n != replica_node);
            }
        }
        let idx =
            failover_grant(&domains, rank, rank_node, route.node, &candidates).or_else(|_| {
                candidates = topo.storage_nodes();
                failover_grant(&domains, rank, rank_node, route.node, &candidates)
            })?;
        let new_node = candidates[idx];
        // First SSD on the partner node with room for the rank's segment.
        let size = route.size.max(MIN_SEGMENT);
        let target = rack
            .targets_on(new_node)
            .into_iter()
            .map(|(_, t)| t)
            .find(|t| t.device().free_bytes() >= size)
            .ok_or(RuntimeError::Balance(BalanceError::NoFailoverTarget {
                rank,
            }))?;
        let replacement = RankRoute {
            ns: target.device().create_namespace(size)?,
            target,
            base: 0,
            size,
            node: new_node,
            replica: route.replica,
        };
        let fs = match self.mount_replacement(rank, &replacement) {
            Ok(fs) => fs,
            Err(e) => {
                // The replacement never served: return its capacity, or
                // `finalize`, which knows only recorded namespaces, never
                // would. A failed delete cannot hide the cause.
                let _ = replacement.target.device().delete_namespace(replacement.ns);
                return Err(e);
            }
        };
        self.ranks[rank as usize] = Some(fs);
        self.extra_ns
            .push((Arc::clone(&replacement.target), replacement.ns));
        self.routes[rank as usize] = replacement;
        self.config.telemetry.counter("driver.failovers").inc();
        Ok(())
    }

    /// Bring up `rank`'s filesystem on `route`, its fresh replacement
    /// namespace: restored from the replica and mounted when the route
    /// has one, else formatted.
    fn mount_replacement(
        &mut self,
        rank: u32,
        route: &RankRoute,
    ) -> Result<MicroFs<NvmfBlockDevice>, RuntimeError> {
        let mut dev = route.open(
            format!("nqn.2026-07.io.nvmecr:rank{rank}-failover"),
            &self.config,
        );
        let Some(rr) = &route.replica else {
            return Ok(MicroFs::format(dev, self.config.fs_config())?);
        };
        // Reuse the live mirror (replica connection + extent map) if the
        // rank was still mounted; a crashed rank reconnects to the replica
        // namespace and restores from its manifest.
        let live = self.ranks[rank as usize]
            .take()
            .and_then(|fs| fs.into_device().take_mirror())
            .map(Mirror::into_parts);
        let (mut rconn, state) = match live {
            Some((rconn, map, epoch, _degraded)) => (rconn, Some((map, epoch))),
            None => {
                let nqn = format!("nqn.2026-07.io.nvmecr:rank{rank}-restore");
                (self.config.connect(nqn, &rr.target, rr.ns), None)
            }
        };
        let outcome = replication::restore_from_replica(
            &mut rconn,
            state,
            dev.conn_mut(),
            route.base,
            route.fs_size(),
            &self.config.telemetry,
            &self.config.chaos,
        )?;
        dev.attach_mirror(Mirror::new(rconn, outcome.map, outcome.epoch, &self.config));
        // Mount, not format: the restored image is the rank's own
        // filesystem, byte-verified against the manifest, and the mirror
        // state came from the restore itself (replay is purely in-memory).
        Ok(MicroFs::mount(dev, self.config.fs_config())?)
    }

    /// Aggregate per-rank filesystem statistics (Table I accounting).
    pub fn aggregate_stats(&self) -> Vec<FsStats> {
        self.ranks.iter().flatten().map(|fs| fs.stats()).collect()
    }

    /// Total device-resident metadata bytes across ranks.
    pub fn metadata_device_bytes(&self) -> u64 {
        self.aggregate_stats()
            .iter()
            .map(FsStats::metadata_device_bytes)
            .sum()
    }

    /// Total DRAM metadata footprint across ranks.
    pub fn dram_footprint(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(MicroFs::dram_footprint)
            .sum()
    }

    /// The telemetry handle the job's components report to. Data-plane
    /// counters that used to be hand-plumbed (`bytes_copied`,
    /// `lock_wait_ns`) live in this registry as `fabric.bytes_copied`,
    /// `ssd.bytes_copied` and `ssd.lock_wait_ns`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// Simulate the whole job dying at an arbitrary instant (power loss,
    /// OOM kill, chaos crash point): every rank's volatile state is
    /// dropped with *no* final epoch commit, no snapshot, no goodbye.
    /// The devices keep exactly the bytes that were durable at the moment
    /// of death; the returned handle reattaches through the full recovery
    /// path. This is the re-execution primitive the crash-universe
    /// explorer kills jobs with.
    pub fn crash_job(mut self) -> JobHandle {
        self.ranks.clear(); // drop every rank's volatile state
        JobHandle {
            grants: self.grants,
            routes: self.routes,
            rank_nodes: self.rank_nodes,
            extra_ns: self.extra_ns,
            placement: self.placement,
            config: self.config,
        }
    }

    /// Finalize (the `MPI_Finalize` wrapper's work): snapshot every rank's
    /// state and delete the job's namespaces, returning final stats.
    pub fn finalize(mut self) -> Result<Vec<FsStats>, RuntimeError> {
        let mut stats = Vec::new();
        for slot in &mut self.ranks {
            if let Some(fs) = slot.as_mut() {
                fs.snapshot_now()?;
                stats.push(fs.stats());
            }
        }
        self.ranks.clear();
        for gs in &self.grants {
            gs.target.device().delete_namespace(gs.ns)?;
        }
        for (target, ns) in &self.extra_ns {
            target.device().delete_namespace(*ns)?;
        }
        for route in &self.routes {
            if let Some(rr) = &route.replica {
                rr.target.device().delete_namespace(rr.ns)?;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::RecoverySupervisor;
    use cluster::{JobRequest, Scheduler};
    use microfs::OpenFlags;

    fn small_setup(procs: u32) -> (StorageRack, Topology, JobAllocation, RuntimeConfig) {
        // Private registry so exact-value counter assertions stay isolated
        // from other tests running concurrently in this process.
        let telemetry = Telemetry::new();
        let topo = Topology::paper_testbed();
        let ssd_config = SsdConfig {
            capacity: 8 << 30,
            ..SsdConfig::default()
        };
        let rack = StorageRack::build_with_telemetry(&topo, &ssd_config, telemetry.clone());
        let mut sched = Scheduler::new(topo.clone(), 4);
        let alloc = sched.submit(&JobRequest::full_subscription(procs)).unwrap();
        let config = RuntimeConfig {
            namespace_bytes: 4 << 30,
            telemetry,
            ..RuntimeConfig::default()
        };
        (rack, topo, alloc, config)
    }

    #[test]
    fn rack_builds_one_target_per_ssd() {
        let topo = Topology::paper_testbed();
        let rack = StorageRack::build(
            &topo,
            &SsdConfig {
                capacity: 1 << 30,
                ..SsdConfig::default()
            },
        );
        assert_eq!(rack.ssd_count(), 8);
    }

    #[test]
    fn init_checkpoint_finalize_roundtrip() {
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        assert_eq!(rt.rank_count(), 56);
        // Every rank dumps an N-N checkpoint file.
        for rank in 0..rt.rank_count() {
            let fs = rt.rank_fs(rank).unwrap();
            let fd = fs.create(&format!("/ckpt_rank{rank}.dat"), 0o644).unwrap();
            fs.write(fd, &vec![rank as u8; 64 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
        assert!(rt.metadata_device_bytes() > 0);
        assert!(rt.dram_footprint() > 0);
        let stats = rt.finalize().unwrap();
        assert_eq!(stats.len(), 56);
        assert!(stats.iter().all(|s| s.creates == 1));
    }

    #[test]
    fn namespaces_isolate_ranks_sharing_an_ssd() {
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        // Ranks 0 and 1 may share an SSD via different segments; write
        // distinct data and verify no bleed-through.
        for rank in [0u32, 1, 2, 3] {
            let fs = rt.rank_fs(rank).unwrap();
            let fd = fs.create("/same_name.dat", 0o644).unwrap();
            fs.write(fd, &vec![0xA0 + rank as u8; 32 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
        for rank in [0u32, 1, 2, 3] {
            let fs = rt.rank_fs(rank).unwrap();
            let fd = fs.open("/same_name.dat", OpenFlags::RDONLY, 0).unwrap();
            let mut buf = vec![0u8; 32 << 10];
            fs.read(fd, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == 0xA0 + rank as u8),
                "rank {rank} sees foreign bytes"
            );
            fs.close(fd).unwrap();
        }
    }

    #[test]
    fn crash_and_recover_rank_preserves_checkpoint() {
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
        {
            let fs = rt.rank_fs(7).unwrap();
            let fd = fs.create("/survivor.dat", 0o644).unwrap();
            fs.write(fd, &data).unwrap();
            fs.close(fd).unwrap();
        }
        rt.crash_rank(7).unwrap();
        assert!(rt.rank_fs(7).is_err());
        rt.recover_rank(7).unwrap();
        let fs = rt.rank_fs(7).unwrap();
        assert!(fs.stats().replayed_records > 0);
        let fd = fs.open("/survivor.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; data.len()];
        fs.read(fd, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn fsck_over_nvmf_declares_crashed_partition_clean() {
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        {
            let fs = rt.rank_fs(9).unwrap();
            let fd = fs.create("/ck.dat", 0o644).unwrap();
            fs.write(fd, &[9u8; 100_000]).unwrap();
            fs.close(fd).unwrap();
        }
        rt.crash_rank(9).unwrap();
        let report = rt.fsck_rank(9).unwrap();
        assert!(report.is_clean(), "{:?}", report.issues);
        assert!(report.replayed > 0);
        // A mounted rank cannot be fsck'd (the device is in use).
        rt.recover_rank(9).unwrap();
        assert!(matches!(rt.fsck_rank(9), Err(RuntimeError::BadRank(9))));
    }

    #[test]
    fn double_crash_and_bad_rank_errors() {
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        rt.crash_rank(0).unwrap();
        assert!(matches!(rt.crash_rank(0), Err(RuntimeError::BadRank(0))));
        assert!(matches!(rt.rank_fs(999), Err(RuntimeError::BadRank(999))));
        rt.recover_rank(0).unwrap();
        assert!(matches!(rt.recover_rank(0), Err(RuntimeError::BadRank(0))));
    }

    #[test]
    fn job_restart_via_detach_attach() {
        // The full C/R lifecycle: job runs, checkpoints, dies; its restart
        // reattaches to the surviving namespaces and reads the state back.
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        for rank in 0..56u32 {
            let fs = rt.rank_fs(rank).unwrap();
            let fd = fs.create("/state.dat", 0o644).unwrap();
            fs.write(fd, &vec![rank as u8; 128 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
        // Job killed (node failure / walltime): runtime evaporates.
        let handle = rt.crash_job();
        assert_eq!(handle.rank_count(), 56);
        // Restarted job attaches; every rank's instance mounts and replays.
        let mut rt2 = RecoverySupervisor::default()
            .attach(handle)
            .unwrap()
            .into_runtime();
        for rank in (0..56u32).step_by(11) {
            let fs = rt2.rank_fs(rank).unwrap();
            assert!(fs.stats().replayed_records > 0);
            let fd = fs.open("/state.dat", OpenFlags::RDONLY, 0).unwrap();
            let mut buf = vec![0u8; 128 << 10];
            let mut got = 0;
            while got < buf.len() {
                let n = fs.read(fd, &mut buf[got..]).unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
            assert!(buf.iter().all(|&b| b == rank as u8), "rank {rank}");
            fs.close(fd).unwrap();
        }
        // The restarted job keeps checkpointing, then finalizes cleanly.
        let fs = rt2.rank_fs(0).unwrap();
        let fd = fs.create("/state2.dat", 0o644).unwrap();
        fs.write(fd, &[1u8; 4096]).unwrap();
        fs.close(fd).unwrap();
        rt2.finalize().unwrap();
    }

    #[test]
    fn parallel_rank_driving_roundtrip() {
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        // Checkpoint every rank in parallel.
        rt.map_ranks_reactor(&ReactorConfig::default(), |rank, fs| {
            let fd = fs.create("/par.dat", 0o644)?;
            fs.write(fd, &vec![rank as u8; 48 << 10])?;
            fs.fsync(fd)?;
            fs.close(fd)?;
            Ok(())
        })
        .unwrap();
        // Verify every rank in parallel, collecting byte counts.
        let verified = rt
            .map_ranks_reactor(&ReactorConfig::default(), |rank, fs| {
                let fd = fs.open("/par.dat", OpenFlags::RDONLY, 0)?;
                let mut buf = vec![0u8; 48 << 10];
                let mut got = 0;
                while got < buf.len() {
                    let n = fs.read(fd, &mut buf[got..])?;
                    if n == 0 {
                        break;
                    }
                    got += n;
                }
                fs.close(fd)?;
                assert!(buf.iter().all(|&b| b == rank as u8), "rank {rank}");
                Ok(got as u64)
            })
            .unwrap();
        assert_eq!(verified.len(), 56);
        assert!(verified.iter().all(|&n| n == 48 << 10));
        let snap = rt.telemetry().snapshot();
        assert!(
            snap.counter("fabric.bytes_copied") > 0,
            "slice-path fs IO stages copies that must be visible"
        );
        assert!(snap.counter("ssd.bytes_copied") > 0);
        // Per-rank phase latencies from init land in the registry too.
        assert_eq!(
            snap.histogram("driver.init_rank_ns").unwrap().count,
            u64::from(rt.rank_count())
        );
    }

    #[test]
    fn recover_ranks_in_parallel_after_multi_rank_crash() {
        let (rack, topo, alloc, config) = small_setup(56);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        rt.map_ranks_reactor(&ReactorConfig::default(), |rank, fs| {
            let fd = fs.create("/multi.dat", 0o644)?;
            fs.write(fd, &vec![!(rank as u8); 32 << 10])?;
            fs.close(fd)?;
            Ok(())
        })
        .unwrap();
        let crashed: Vec<u32> = (0..56).step_by(7).collect();
        for &r in &crashed {
            rt.crash_rank(r).unwrap();
        }
        rt.recover_ranks(&crashed).unwrap();
        for &r in &crashed {
            let fs = rt.rank_fs(r).unwrap();
            assert!(fs.stats().replayed_records > 0);
            let fd = fs.open("/multi.dat", OpenFlags::RDONLY, 0).unwrap();
            let mut buf = vec![0u8; 32 << 10];
            fs.read(fd, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == !(r as u8)), "rank {r}");
        }
        // Duplicate and not-crashed ranks are rejected up front.
        assert!(matches!(
            rt.recover_ranks(&[1, 1]),
            Err(RuntimeError::BadRank(1))
        ));
        assert!(matches!(
            rt.recover_ranks(&[0]),
            Err(RuntimeError::BadRank(0))
        ));
    }

    #[test]
    fn fail_over_rank_moves_storage_to_partner_domain() {
        let (rack, topo, alloc, config) = small_setup(56);
        let telemetry = config.telemetry.clone();
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        {
            let fs = rt.rank_fs(5).unwrap();
            let fd = fs.create("/pre.dat", 0o644).unwrap();
            fs.write(fd, &[5u8; 32 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
        // The shard holding rank 5's namespace dies permanently.
        let old_node = rt.rank_storage_node(5).unwrap();
        let route = rt.routes[5].clone();
        route.target.device().shard(route.ns).unwrap().kill();
        rt.fail_over_rank(5, &rack, &topo).unwrap();
        // The replacement is a different node, still domain-separated from
        // the rank (the testbed has a single storage rack, so separation
        // from the failed node itself is not achievable here).
        let new_node = rt.rank_storage_node(5).unwrap();
        assert_ne!(new_node, old_node);
        let domains = FailureDomains::derive(&topo);
        assert!(domains.separated(alloc.rank_nodes[5], new_node));
        assert_eq!(telemetry.snapshot().counter("driver.failovers"), 1);
        // The replacement namespace takes a fresh, byte-identical checkpoint.
        let fs = rt.rank_fs(5).unwrap();
        let fd = fs.create("/post.dat", 0o644).unwrap();
        fs.write(fd, &[7u8; 64 << 10]).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open("/post.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; 64 << 10];
        let mut got = 0;
        while got < buf.len() {
            let n = fs.read(fd, &mut buf[got..]).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 64 << 10);
        assert!(buf.iter().all(|&b| b == 7));
        // Crash + recover goes through the *new* route.
        rt.crash_rank(5).unwrap();
        rt.recover_rank(5).unwrap();
        let fs = rt.rank_fs(5).unwrap();
        assert_eq!(fs.stat("/post.dat").unwrap().size, 64 << 10);
    }

    fn replicated_setup(procs: u32) -> (StorageRack, Topology, JobAllocation, RuntimeConfig) {
        let telemetry = Telemetry::new();
        let topo = Topology::paper_testbed();
        let ssd_config = SsdConfig {
            capacity: 8 << 30,
            ..SsdConfig::default()
        };
        let rack = StorageRack::build_with_telemetry(&topo, &ssd_config, telemetry.clone());
        let mut sched = Scheduler::new(topo.clone(), 4);
        let alloc = sched.submit(&JobRequest::full_subscription(procs)).unwrap();
        let config = RuntimeConfig {
            // 8 ranks share the single grant namespace: 32 MiB segments
            // keep restore and scrub walks cheap (attach/recover rescan
            // only each rank's live bytes, whatever the segment size).
            namespace_bytes: 256 << 20,
            replication_factor: 2,
            telemetry,
            ..RuntimeConfig::default()
        };
        (rack, topo, alloc, config)
    }

    /// Replica homes and `fail_over_rank` targets of a 28-rank rep=2 job on
    /// the paper's testbed: the replica scan starts at storage node
    /// `rank % 8` and skips the primary (node 16); a failover skips the
    /// failed primary and the replica's node.
    #[test]
    fn replica_and_failover_nodes_are_pinned() {
        let (rack, topo, alloc, mut config) = replicated_setup(28);
        config.namespace_bytes = 28 * MIN_SEGMENT;
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        let primary: Vec<u32> = rt.routes.iter().map(|r| r.node.0).collect();
        assert_eq!(primary, [16; 28]);
        let replica: Vec<u32> = rt
            .routes
            .iter()
            .map(|r| r.replica.as_ref().unwrap().node.0)
            .collect();
        assert_eq!(
            replica,
            [
                17, 17, 18, 19, 20, 21, 22, 23, 17, 17, 18, 19, 20, 21, 22, 23, 17, 17, 18, 19, 20,
                21, 22, 23, 17, 17, 18, 19
            ]
        );
        let mut failover = Vec::new();
        for rank in 0..28 {
            rt.fail_over_rank(rank, &rack, &topo).unwrap();
            failover.push(rt.rank_storage_node(rank).unwrap().0);
        }
        assert_eq!(
            failover,
            [
                18, 18, 17, 17, 17, 17, 17, 17, 18, 18, 17, 17, 17, 17, 17, 17, 18, 18, 17, 17, 17,
                17, 17, 17, 18, 18, 17, 17
            ]
        );
    }

    #[test]
    fn replicated_init_places_replicas_on_partner_domains() {
        let (rack, topo, alloc, config) = replicated_setup(8);
        let telemetry = config.telemetry.clone();
        let domains = FailureDomains::derive(&topo);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        for rank in 0..rt.rank_count() as usize {
            let route = &rt.routes[rank];
            let Some(rr) = route.replica.as_ref() else {
                panic!("rank {rank}: replicated init left no replica route");
            };
            assert_ne!(rr.node, route.node, "rank {rank}: copies co-located");
            assert!(
                domains.separated(alloc.rank_nodes[rank], rr.node),
                "rank {rank}: replica shares the rank's failure domain"
            );
        }
        // A checkpoint round commits one epoch per rank on both copies.
        rt.map_ranks_reactor(&ReactorConfig::default(), |rank, fs| {
            let fd = fs.create("/e1.dat", 0o644)?;
            fs.write(fd, &vec![rank as u8; 64 << 10])?;
            fs.close(fd)?;
            Ok(())
        })
        .unwrap();
        let epochs = rt.commit_epochs().unwrap();
        assert_eq!(epochs, vec![1; 8]);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("replication.epochs_committed"), 8);
        assert!(snap.counter("replication.bytes") > 0);
        // A clean scrub across both copies of rank 0.
        let report = rt.scrub_rank(0).unwrap().unwrap();
        assert_eq!(report.unrecoverable, 0);
        assert_eq!(report.repaired, 0);
        assert!(report.extents_checked > 0);
        // Finalize releases grant, failover, and replica namespaces.
        rt.finalize().unwrap();
        for (_, target) in rack.targets.iter() {
            let d = target.device();
            assert_eq!(d.free_bytes(), 8 << 30);
        }
    }

    #[test]
    fn replicated_fail_over_restores_data_from_surviving_replica() {
        let (rack, topo, alloc, config) = replicated_setup(8);
        let telemetry = config.telemetry.clone();
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        let committed: Vec<u8> = (0..96_000u32).map(|i| (i % 251) as u8).collect();
        {
            let fs = rt.rank_fs(3).unwrap();
            let fd = fs.create("/epoch1.dat", 0o644).unwrap();
            fs.write(fd, &committed).unwrap();
            fs.close(fd).unwrap();
        }
        rt.commit_epochs().unwrap();
        // Mid-epoch write after the commit — the live extent map restores
        // it too.
        let tail = vec![0x6Eu8; 20_000];
        {
            let fs = rt.rank_fs(3).unwrap();
            let fd = fs.create("/midepoch.dat", 0o644).unwrap();
            fs.write(fd, &tail).unwrap();
            fs.close(fd).unwrap();
        }
        // The primary shard dies permanently; the rank fails over and is
        // re-populated from the replica, byte-verified.
        let old_node = rt.rank_storage_node(3).unwrap();
        let route = rt.routes[3].clone();
        route.target.device().shard(route.ns).unwrap().kill();
        rt.fail_over_rank(3, &rack, &topo).unwrap();
        assert_ne!(rt.rank_storage_node(3).unwrap(), old_node);
        let read_all = |fs: &mut MicroFs<NvmfBlockDevice>, path: &str, len: usize| {
            let fd = fs.open(path, OpenFlags::RDONLY, 0).unwrap();
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
            assert_eq!(got, len, "{path}");
            buf
        };
        {
            let fs = rt.rank_fs(3).unwrap();
            assert_eq!(read_all(fs, "/epoch1.dat", committed.len()), committed);
            assert_eq!(read_all(fs, "/midepoch.dat", tail.len()), tail);
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("driver.failovers"), 1);
        assert_eq!(
            snap.counter("replication.degraded_restores"),
            0,
            "live-map restore must not be degraded"
        );
        // The rank keeps running replicated: new writes, a new epoch, a
        // clean scrub, then crash + recover over the *new* route. (The
        // other ranks shared the killed grant namespace, so only rank 3
        // is healthy enough to commit here.)
        {
            let fs = rt.rank_fs(3).unwrap();
            let fd = fs.create("/after.dat", 0o644).unwrap();
            fs.write(fd, &[0x5Cu8; 32 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
        assert_eq!(rt.commit_epoch_rank(3).unwrap(), Some(2));
        let report = rt.scrub_rank(3).unwrap().unwrap();
        assert_eq!(report.unrecoverable, 0);
        rt.crash_rank(3).unwrap();
        rt.recover_rank(3).unwrap();
        let fs = rt.rank_fs(3).unwrap();
        assert_eq!(fs.stat("/after.dat").unwrap().size, 32 << 10);
        assert_eq!(fs.stat("/epoch1.dat").unwrap().size, committed.len() as u64);
    }

    #[test]
    fn replicated_crashed_rank_fails_over_to_last_complete_epoch() {
        // Shard death while the rank itself is down: no live extent map
        // survives, so the restore decodes the replica's manifest and
        // rolls back to the last *complete* epoch.
        let (rack, topo, alloc, config) = replicated_setup(8);
        let telemetry = config.telemetry.clone();
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        {
            let fs = rt.rank_fs(1).unwrap();
            let fd = fs.create("/sealed.dat", 0o644).unwrap();
            fs.write(fd, &[0xB7u8; 48 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
        rt.commit_epochs().unwrap();
        rt.crash_rank(1).unwrap();
        let route = rt.routes[1].clone();
        route.target.device().shard(route.ns).unwrap().kill();
        rt.fail_over_rank(1, &rack, &topo).unwrap();
        let fs = rt.rank_fs(1).unwrap();
        assert_eq!(fs.stat("/sealed.dat").unwrap().size, 48 << 10);
        assert_eq!(
            telemetry
                .snapshot()
                .counter("replication.degraded_restores"),
            1
        );
    }

    #[test]
    fn replicated_job_survives_detach_attach() {
        let (rack, topo, alloc, config) = replicated_setup(8);
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        rt.map_ranks_reactor(&ReactorConfig::default(), |rank, fs| {
            let fd = fs.create("/restart.dat", 0o644)?;
            fs.write(fd, &vec![rank as u8 ^ 0x40; 40 << 10])?;
            fs.close(fd)?;
            Ok(())
        })
        .unwrap();
        // A final epoch per rank before the job goes away; attach rebuilds
        // every mirror (manifest epoch + rescan of the live footprint) and
        // stays scrubable.
        assert_eq!(rt.commit_epochs().unwrap(), vec![1; 8]);
        let handle = rt.crash_job();
        let mut rt2 = RecoverySupervisor::default()
            .attach(handle)
            .unwrap()
            .into_runtime();
        for rank in 0..8u32 {
            let fs = rt2.rank_fs(rank).unwrap();
            assert_eq!(fs.stat("/restart.dat").unwrap().size, 40 << 10);
        }
        let report = rt2.scrub_rank(5).unwrap().unwrap();
        assert_eq!(report.unrecoverable, 0);
        // Epochs continue from the manifest, not from zero.
        let epochs = rt2.commit_epochs().unwrap();
        assert!(epochs.iter().all(|&e| e == 2), "{epochs:?}");
        rt2.finalize().unwrap();
    }

    #[test]
    fn finalize_releases_namespaces_for_next_job() {
        let (rack, topo, alloc, config) = small_setup(112);
        let free_before: u64 = {
            let g = &alloc.storage[0];
            rack.target(g.node, g.ssd).unwrap().device().free_bytes()
        };
        let rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config.clone()).unwrap();
        rt.finalize().unwrap();
        let free_after: u64 = {
            let g = &alloc.storage[0];
            rack.target(g.node, g.ssd).unwrap().device().free_bytes()
        };
        assert_eq!(free_before, free_after);
    }

    #[test]
    fn reactor_drive_checkpoints_every_rank() {
        let (rack, topo, alloc, config) = small_setup(56);
        let telemetry = config.telemetry.clone();
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        let reactor = ReactorConfig {
            reactors: 4,
            ..ReactorConfig::default()
        };
        let written = rt
            .map_ranks_reactor(&reactor, |rank, fs| {
                let fd = fs.create(&format!("/reactor_rank{rank}.dat"), 0o644)?;
                fs.write(fd, &vec![rank as u8; 64 << 10])?;
                fs.close(fd)?;
                Ok(64u64 << 10)
            })
            .unwrap();
        assert_eq!(written.len(), 56);
        assert!(telemetry.counter("reactor.events").get() >= 56);
        assert!(telemetry.counter("reactor.loops").get() > 0);
        // Reactor-written state is ordinary microfs state: crash one rank
        // and recover it through the standard replay path.
        rt.crash_rank(3).unwrap();
        rt.recover_rank(3).unwrap();
        let fs = rt.rank_fs(3).unwrap();
        let fd = fs.open("/reactor_rank3.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; 64 << 10];
        fs.read(fd, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
    }

    #[test]
    fn reactor_drive_with_config_default_sizes_from_runtime_config() {
        let (rack, topo, alloc, mut config) = small_setup(28);
        config.reactors = 2;
        let telemetry = config.telemetry.clone();
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        let out = rt
            .map_ranks_reactor(&ReactorConfig::default(), |rank, _fs| Ok(rank))
            .unwrap();
        assert_eq!(out, (0..28).collect::<Vec<_>>());
        assert!(telemetry.counter("reactor.events").get() >= 28);
    }
}
