//! Slurm-like job scheduler with NVMe-namespace generic resources.
//!
//! §III-F: *"The job scheduler assigns storage to jobs at the granularity of
//! an NVMe namespace... by using Slurm's generic resources plugin, we were
//! able to support this design on our cluster easily."* and *"Storage
//! devices for a job are allocated on the closest (fewest hops away)
//! available partner domain."*
//!
//! The scheduler owns compute-node occupancy and per-SSD namespace slots.
//! It places ranks block-wise onto compute nodes and grants storage from
//! partner failure domains in hop order. Partitioning of each granted
//! namespace among ranks is the storage balancer's job (in the `nvmecr`
//! crate), not the scheduler's.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::failure::{DomainId, FailureDomains};
use crate::topology::{NodeId, NodeKind, Topology};

/// Identifier of a running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

/// What a job asks for.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Total application ranks.
    pub procs: u32,
    /// Ranks per compute node (the paper runs full-subscription: 28).
    pub procs_per_node: u32,
    /// Checkpoint storage devices requested. The paper sizes this so the
    /// process:SSD ratio falls in 56–112 (§III-F).
    pub storage_devices: u32,
}

impl JobRequest {
    /// A full-subscription request on 28-core nodes with the paper's
    /// recommended process:SSD ratio (~112 at the top end, at least 1).
    pub fn full_subscription(procs: u32) -> Self {
        JobRequest {
            procs,
            procs_per_node: 28,
            storage_devices: procs.div_ceil(112).max(1),
        }
    }
}

/// One granted storage device share: a namespace slot on an SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageGrant {
    /// The storage node hosting the SSD.
    pub node: NodeId,
    /// Which SSD on that node.
    pub ssd: u32,
    /// Namespace slot index on that SSD (unique per concurrent job).
    pub slot: u32,
}

/// A satisfied allocation.
#[derive(Debug, Clone)]
pub struct JobAllocation {
    /// The job's id.
    pub id: JobId,
    /// Rank → compute node placement (index = rank).
    pub rank_nodes: Vec<NodeId>,
    /// Granted storage shares, in balancer-visible order.
    pub storage: Vec<StorageGrant>,
}

impl JobAllocation {
    /// Compute nodes used, deduplicated in rank order.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for &n in &self.rank_nodes {
            if seen.insert(n) {
                out.push(n);
            }
        }
        out
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// Not enough idle compute nodes.
    NotEnoughCompute { needed: u32, available: u32 },
    /// Not enough free namespace slots on partner-domain storage.
    NotEnoughStorage { needed: u32, available: u32 },
    /// Request is malformed (zero procs, zero per-node, ...).
    BadRequest(String),
    /// Unknown job id on release.
    UnknownJob(JobId),
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::NotEnoughCompute { needed, available } => {
                write!(f, "need {needed} compute nodes, {available} available")
            }
            SchedulerError::NotEnoughStorage { needed, available } => {
                write!(f, "need {needed} storage namespaces, {available} available")
            }
            SchedulerError::BadRequest(e) => write!(f, "bad request: {e}"),
            SchedulerError::UnknownJob(id) => write!(f, "unknown job {id:?}"),
        }
    }
}

impl std::error::Error for SchedulerError {}

struct SsdState {
    /// Free namespace slots (the gres counter).
    free_slots: u32,
    next_slot: u32,
}

/// The cluster scheduler.
pub struct Scheduler {
    topo: Topology,
    domains: FailureDomains,
    busy_compute: BTreeSet<NodeId>,
    /// (storage node, ssd index) → slot state.
    ssds: BTreeMap<(NodeId, u32), SsdState>,
    jobs: BTreeMap<JobId, JobAllocation>,
    next_job: u32,
}

impl Scheduler {
    /// A scheduler over `topo` with `namespaces_per_ssd` gres slots per SSD.
    pub fn new(topo: Topology, namespaces_per_ssd: u32) -> Self {
        let domains = FailureDomains::derive(&topo);
        let mut ssds = BTreeMap::new();
        for n in topo.storage_nodes() {
            if let NodeKind::Storage { ssds: count } = topo.kind_of(n) {
                for s in 0..count {
                    ssds.insert(
                        (n, s),
                        SsdState {
                            free_slots: namespaces_per_ssd,
                            next_slot: 0,
                        },
                    );
                }
            }
        }
        Scheduler {
            topo,
            domains,
            busy_compute: BTreeSet::new(),
            ssds,
            jobs: BTreeMap::new(),
            next_job: 0,
        }
    }

    /// The topology being scheduled.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The failure-domain map.
    pub fn domains(&self) -> &FailureDomains {
        &self.domains
    }

    /// Idle compute node count.
    pub fn free_compute_nodes(&self) -> u32 {
        (self.topo.compute_nodes().len() - self.busy_compute.len()) as u32
    }

    /// Total free namespace slots.
    pub fn free_storage_slots(&self) -> u32 {
        self.ssds.values().map(|s| s.free_slots).sum()
    }

    /// Allocate a job or explain why not.
    pub fn submit(&mut self, req: &JobRequest) -> Result<JobAllocation, SchedulerError> {
        if req.procs == 0 || req.procs_per_node == 0 {
            return Err(SchedulerError::BadRequest(
                "procs and procs_per_node must be positive".into(),
            ));
        }
        if req.storage_devices == 0 {
            return Err(SchedulerError::BadRequest(
                "checkpointing jobs must request at least one storage device".into(),
            ));
        }
        let nodes_needed = req.procs.div_ceil(req.procs_per_node);
        // 1. Compute nodes: first-fit over idle nodes in id order (racks are
        // contiguous, so this packs rack-by-rack like Slurm's default).
        let free: Vec<NodeId> = self
            .topo
            .compute_nodes()
            .into_iter()
            .filter(|n| !self.busy_compute.contains(n))
            .collect();
        if (free.len() as u32) < nodes_needed {
            return Err(SchedulerError::NotEnoughCompute {
                needed: nodes_needed,
                available: free.len() as u32,
            });
        }
        let chosen: Vec<NodeId> = free[..nodes_needed as usize].to_vec();
        // 2. Job failure domains and partner ordering.
        let job_domains: BTreeSet<DomainId> =
            chosen.iter().map(|&n| self.domains.domain_of(n)).collect();
        // Candidate storage devices: on partner domains only (never sharing
        // a failure domain with any compute node of the job), ordered by
        // minimum hop distance to the job's nodes, then node id.
        let mut candidates: Vec<(u32, NodeId, u32)> = self
            .ssds
            .iter()
            .filter(|((node, _), st)| {
                st.free_slots > 0 && !job_domains.contains(&self.domains.domain_of(*node))
            })
            .map(|((node, ssd), _)| {
                let hops = chosen
                    .iter()
                    .map(|&c| self.topo.hops(c, *node))
                    .min()
                    .unwrap_or(u32::MAX);
                (hops, *node, *ssd)
            })
            .collect();
        candidates.sort_unstable_by_key(|&(h, n, s)| (h, n, s));
        if (candidates.len() as u32) < req.storage_devices {
            return Err(SchedulerError::NotEnoughStorage {
                needed: req.storage_devices,
                available: candidates.len() as u32,
            });
        }
        // 3. Commit.
        let mut storage = Vec::with_capacity(req.storage_devices as usize);
        for &(_, node, ssd) in candidates.iter().take(req.storage_devices as usize) {
            let st = self.ssds.get_mut(&(node, ssd)).expect("candidate exists");
            st.free_slots -= 1;
            let slot = st.next_slot;
            st.next_slot += 1;
            storage.push(StorageGrant { node, ssd, slot });
        }
        for &n in &chosen {
            self.busy_compute.insert(n);
        }
        let mut rank_nodes = Vec::with_capacity(req.procs as usize);
        'outer: for &n in &chosen {
            for _ in 0..req.procs_per_node {
                rank_nodes.push(n);
                if rank_nodes.len() as u32 == req.procs {
                    break 'outer;
                }
            }
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        let alloc = JobAllocation {
            id,
            rank_nodes,
            storage,
        };
        self.jobs.insert(id, alloc.clone());
        Ok(alloc)
    }

    /// Release a completed job's resources.
    pub fn release(&mut self, id: JobId) -> Result<(), SchedulerError> {
        let alloc = self
            .jobs
            .remove(&id)
            .ok_or(SchedulerError::UnknownJob(id))?;
        for n in alloc.compute_nodes() {
            self.busy_compute.remove(&n);
        }
        for g in &alloc.storage {
            if let Some(st) = self.ssds.get_mut(&(g.node, g.ssd)) {
                st.free_slots += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sched() -> Scheduler {
        Scheduler::new(Topology::paper_testbed(), 4)
    }

    #[test]
    fn full_subscription_448() {
        let mut s = sched();
        let alloc = s.submit(&JobRequest::full_subscription(448)).unwrap();
        assert_eq!(alloc.rank_nodes.len(), 448);
        assert_eq!(alloc.compute_nodes().len(), 16);
        assert_eq!(alloc.storage.len(), 4); // 448 / 112
        assert_eq!(s.free_compute_nodes(), 0);
    }

    #[test]
    fn storage_always_on_partner_domains() {
        let mut s = sched();
        let alloc = s.submit(&JobRequest::full_subscription(112)).unwrap();
        let fd = FailureDomains::derive(&Topology::paper_testbed());
        for g in &alloc.storage {
            for &r in &alloc.rank_nodes {
                assert!(
                    fd.separated(r, g.node),
                    "grant {:?} shares a failure domain with rank node {:?}",
                    g,
                    r
                );
            }
        }
    }

    #[test]
    fn gres_slots_deplete_and_release() {
        let mut s = Scheduler::new(Topology::paper_testbed(), 1);
        // 8 SSDs x 1 slot each.
        assert_eq!(s.free_storage_slots(), 8);
        let a = s
            .submit(&JobRequest {
                procs: 28,
                procs_per_node: 28,
                storage_devices: 8,
            })
            .unwrap();
        assert_eq!(s.free_storage_slots(), 0);
        // A second job cannot get storage.
        let err = s
            .submit(&JobRequest {
                procs: 28,
                procs_per_node: 28,
                storage_devices: 1,
            })
            .unwrap_err();
        assert!(matches!(err, SchedulerError::NotEnoughStorage { .. }));
        s.release(a.id).unwrap();
        assert_eq!(s.free_storage_slots(), 8);
    }

    #[test]
    fn concurrent_jobs_get_distinct_slots() {
        let mut s = Scheduler::new(Topology::paper_testbed(), 4);
        let a = s
            .submit(&JobRequest {
                procs: 28,
                procs_per_node: 28,
                storage_devices: 8,
            })
            .unwrap();
        let b = s
            .submit(&JobRequest {
                procs: 28,
                procs_per_node: 28,
                storage_devices: 8,
            })
            .unwrap();
        for ga in &a.storage {
            for gb in &b.storage {
                assert!(
                    (ga.node, ga.ssd, ga.slot) != (gb.node, gb.ssd, gb.slot),
                    "slot double-granted"
                );
            }
        }
    }

    #[test]
    fn compute_exhaustion_reported() {
        let mut s = sched();
        s.submit(&JobRequest::full_subscription(448)).unwrap();
        let err = s.submit(&JobRequest::full_subscription(28)).unwrap_err();
        assert!(matches!(err, SchedulerError::NotEnoughCompute { .. }));
    }

    #[test]
    fn bad_requests_rejected() {
        let mut s = sched();
        assert!(matches!(
            s.submit(&JobRequest {
                procs: 0,
                procs_per_node: 28,
                storage_devices: 1
            }),
            Err(SchedulerError::BadRequest(_))
        ));
        assert!(matches!(
            s.submit(&JobRequest {
                procs: 28,
                procs_per_node: 28,
                storage_devices: 0
            }),
            Err(SchedulerError::BadRequest(_))
        ));
        assert!(matches!(
            s.release(JobId(99)),
            Err(SchedulerError::UnknownJob(_))
        ));
    }

    proptest! {
        /// For arbitrary job mixes, granted slots are never double-booked
        /// and release restores every counter.
        #[test]
        fn prop_slot_accounting(sizes in proptest::collection::vec(1u32..448, 1..6)) {
            let mut s = Scheduler::new(Topology::paper_testbed(), 8);
            let slots0 = s.free_storage_slots();
            let compute0 = s.free_compute_nodes();
            let mut live = Vec::new();
            for procs in sizes {
                if let Ok(a) = s.submit(&JobRequest::full_subscription(procs)) {
                    live.push(a);
                }
            }
            // No slot appears twice across live jobs.
            let mut seen = std::collections::HashSet::new();
            for a in &live {
                for g in &a.storage {
                    prop_assert!(seen.insert((g.node, g.ssd, g.slot)));
                }
            }
            for a in live {
                s.release(a.id).unwrap();
            }
            prop_assert_eq!(s.free_storage_slots(), slots0);
            prop_assert_eq!(s.free_compute_nodes(), compute0);
        }
    }
}
