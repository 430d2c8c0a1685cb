//! The storage balancer — load-aware, failure-domain-aware placement
//! (§III-F, Figure 6).
//!
//! Inputs: a scheduler allocation (ranks on compute nodes, storage grants
//! on partner-domain SSDs). Outputs: a [`Placement`] mapping every rank to
//! a grant (round-robin, "processes within a job are assigned to the
//! allocated SSDs in a round robin manner to achieve load balancing"), the
//! per-SSD `MPI_COMM_CR` communicators, and each rank's contiguous segment
//! of its SSD's namespace ("each process gets a contiguous segment of the
//! SSD based on its rank and the communicator size").
//!
//! The balancer *verifies* — not just assumes — that every rank's
//! checkpoint data lands in a different failure domain than the rank
//! itself; a violating allocation is rejected.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use cluster::{Comm, CommWorld, DomainId, FailureDomains, JobAllocation, NodeId};
use simkit::stats::coefficient_of_variation;

/// Placement failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BalanceError {
    /// A rank would share a failure domain with its checkpoint storage.
    DomainViolation {
        /// The offending rank.
        rank: u32,
    },
    /// A rank's namespace segment would be too small to hold a microfs
    /// partition.
    SegmentTooSmall {
        /// Bytes each rank would receive.
        segment: u64,
    },
    /// The allocation carries no storage grants.
    NoStorage,
    /// No surviving storage node satisfies the failure-domain constraints
    /// for a failover re-placement.
    NoFailoverTarget {
        /// The rank whose storage could not be re-placed.
        rank: u32,
    },
    /// A storage grant names an SSD the rack does not know about.
    UnknownSsd {
        /// The node the grant points at.
        node: NodeId,
        /// The SSD index on that node.
        ssd: u32,
    },
}

impl fmt::Display for BalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceError::DomainViolation { rank } => {
                write!(
                    f,
                    "rank {rank} shares a failure domain with its assigned SSD"
                )
            }
            BalanceError::SegmentTooSmall { segment } => {
                write!(f, "per-rank segment of {segment} bytes is too small")
            }
            BalanceError::NoStorage => write!(f, "allocation has no storage grants"),
            BalanceError::NoFailoverTarget { rank } => {
                write!(f, "no domain-separated failover target for rank {rank}")
            }
            BalanceError::UnknownSsd { node, ssd } => {
                write!(f, "storage grant names unknown SSD {ssd} on node {node:?}")
            }
        }
    }
}

impl std::error::Error for BalanceError {}

/// One rank's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankPlacement {
    /// Global rank.
    pub rank: u32,
    /// Index into the allocation's storage grants.
    pub grant: usize,
    /// Rank within `MPI_COMM_CR` (the communicator of ranks sharing the
    /// SSD).
    pub local_rank: u32,
    /// Size of `MPI_COMM_CR`.
    pub comm_size: u32,
    /// Byte offset of this rank's segment within the job's namespace on
    /// that SSD.
    pub segment_offset: u64,
    /// Segment size in bytes.
    pub segment_size: u64,
}

/// A complete, verified placement.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Per-rank placements, indexed by rank.
    pub per_rank: Vec<RankPlacement>,
    /// One `MPI_COMM_CR` per grant, in grant order.
    pub comms: Vec<Comm>,
}

impl Placement {
    /// Bytes landing on each grant if rank `r` writes `bytes_of(r)` bytes —
    /// the load distribution whose coefficient of variation Figure 7b
    /// reports.
    pub fn load_per_grant(&self, bytes_of: impl Fn(u32) -> u64, n_grants: usize) -> Vec<u64> {
        let mut load = vec![0u64; n_grants];
        for p in &self.per_rank {
            load[p.grant] += bytes_of(p.rank);
        }
        load
    }

    /// Coefficient of variation of the load distribution.
    pub fn load_cov(&self, bytes_of: impl Fn(u32) -> u64, n_grants: usize) -> f64 {
        let load: Vec<f64> = self
            .load_per_grant(bytes_of, n_grants)
            .into_iter()
            .map(|b| b as f64)
            .collect();
        coefficient_of_variation(&load)
    }
}

/// The balancer.
pub struct StorageBalancer<'a> {
    domains: &'a FailureDomains,
}

impl<'a> StorageBalancer<'a> {
    /// A balancer over the given failure-domain map.
    pub fn new(domains: &'a FailureDomains) -> Self {
        StorageBalancer { domains }
    }

    /// Compute and verify the placement for `alloc`, partitioning each
    /// job namespace of `namespace_bytes` among the ranks that share it.
    pub fn place(
        &self,
        alloc: &JobAllocation,
        namespace_bytes: u64,
        min_segment: u64,
    ) -> Result<Placement, BalanceError> {
        let n_grants = alloc.storage.len();
        if n_grants == 0 {
            return Err(BalanceError::NoStorage);
        }
        let n_ranks = alloc.rank_nodes.len() as u32;
        if n_grants as u32 > n_ranks {
            // The paper sizes jobs at 56-112 processes per SSD; fewer
            // ranks than SSDs would leave grants unused.
            return Err(BalanceError::NoStorage);
        }
        // Round-robin rank -> grant.
        let grant_of = |rank: u32| (rank as usize) % n_grants;
        // Fault-tolerance check: never colocate a rank with its data.
        for rank in 0..n_ranks {
            let rank_node = alloc.rank_nodes[rank as usize];
            let ssd_node = alloc.storage[grant_of(rank)].node;
            if !self.domains.separated(rank_node, ssd_node) {
                return Err(BalanceError::DomainViolation { rank });
            }
        }
        // MPI_COMM_CR per grant via MPI_Comm_split (color = grant).
        let world = CommWorld::new(alloc.rank_nodes.clone());
        let split = world.comm_world().split(|r| grant_of(r) as u64, u64::from);
        let mut comms: Vec<Comm> = Vec::with_capacity(n_grants);
        for g in 0..n_grants {
            let comm = split
                .iter()
                .find(|(color, _)| *color == g as u64)
                .map(|(_, c)| c.clone())
                .expect("every grant has at least one rank (checked above)");
            comms.push(comm);
        }
        // Contiguous per-rank segments.
        let mut per_rank = Vec::with_capacity(n_ranks as usize);
        for rank in 0..n_ranks {
            let g = grant_of(rank);
            let comm = &comms[g];
            let local_rank = comm
                .local_rank(rank)
                .expect("rank belongs to its grant communicator");
            let comm_size = comm.size();
            let segment_size = namespace_bytes / u64::from(comm_size);
            if segment_size < min_segment {
                return Err(BalanceError::SegmentTooSmall {
                    segment: segment_size,
                });
            }
            per_rank.push(RankPlacement {
                rank,
                grant: g,
                local_rank,
                comm_size,
                segment_offset: u64::from(local_rank) * segment_size,
                segment_size,
            });
        }
        Ok(Placement { per_rank, comms })
    }
}

/// Candidate storage nodes grouped by failure domain.
///
/// Placement and failover used to scan the whole candidate list linearly
/// for every rank — O(ranks × namespaces) once the rack holds thousands of
/// namespaces. The index buckets candidates by domain once
/// (O(candidates)), after which a lookup probes O(domains) buckets — a
/// handful of racks — no matter how many namespaces each domain holds.
/// Domain separation is a property of the *domain*, not the node
/// ([`FailureDomains::separated`] compares `domain_of` only), so an entire
/// bucket qualifies or is skipped with a single probe.
#[derive(Debug)]
pub struct DomainIndex {
    /// `(position in the candidate list, node)` per domain, indexed by
    /// `DomainId.0`. Buckets keep candidate order, so "first valid
    /// candidate" agrees exactly with the linear scan this replaces.
    buckets: Vec<Vec<(usize, NodeId)>>,
    candidates: usize,
    /// Buckets and entries touched by lookups — the observable the O(1)
    /// complexity test asserts on.
    probes: AtomicU64,
}

impl DomainIndex {
    /// Index `candidates` by failure domain.
    pub fn build(domains: &FailureDomains, candidates: &[NodeId]) -> Self {
        let mut buckets = vec![Vec::new(); domains.domain_count()];
        for (i, &n) in candidates.iter().enumerate() {
            buckets[domains.domain_of(n).0 as usize].push((i, n));
        }
        DomainIndex {
            buckets,
            candidates: candidates.len(),
            probes: AtomicU64::new(0),
        }
    }

    /// Number of indexed candidates.
    pub fn candidate_count(&self) -> usize {
        self.candidates
    }

    /// Buckets + entries touched by lookups since the index was built.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    fn probe(&self, n: u64) {
        self.probes.fetch_add(n, Ordering::Relaxed);
    }

    /// [`failover_grant`]-equivalent lookup through the index: identical
    /// result for identical inputs, but O(domains) probes instead of
    /// O(candidates).
    pub fn failover_grant(
        &self,
        domains: &FailureDomains,
        rank: u32,
        rank_node: NodeId,
        failed_node: NodeId,
    ) -> Result<usize, BalanceError> {
        let rank_dom = domains.domain_of(rank_node);
        let failed_dom = domains.domain_of(failed_node);
        // Preferred pass: domains foreign to both the rank and the failed
        // node. The failed node lives in `failed_dom`, so every bucket
        // entry here is valid — the linear scan's first match is the
        // minimum candidate position across qualifying buckets.
        let preferred = self
            .domain_heads(|d| d != rank_dom && d != failed_dom)
            .min();
        if let Some(i) = preferred {
            return Ok(i);
        }
        // Fallback (single-storage-rack topologies): rack-mates of the
        // failed node are allowed, but never the failed node itself.
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(d, _)| DomainId(d as u32) != rank_dom)
            .filter_map(|(d, bucket)| {
                if DomainId(d as u32) != failed_dom {
                    self.probe(1);
                    bucket.first().map(|&(i, _)| i)
                } else {
                    // Skip entries equal to the failed node; duplicates of
                    // it are the only reason this walks past the head.
                    bucket
                        .iter()
                        .find(|&&(_, n)| {
                            self.probe(1);
                            n != failed_node
                        })
                        .map(|&(i, _)| i)
                }
            })
            .min()
            .ok_or(BalanceError::NoFailoverTarget { rank })
    }

    /// First candidate position of every bucket whose domain passes
    /// `keep` — one probe per domain.
    fn domain_heads<'s>(
        &'s self,
        keep: impl Fn(DomainId) -> bool + 's,
    ) -> impl Iterator<Item = usize> + 's {
        self.buckets
            .iter()
            .enumerate()
            .filter(move |&(d, _)| keep(DomainId(d as u32)))
            .filter_map(|(_, bucket)| {
                self.probe(1);
                bucket.first().map(|&(i, _)| i)
            })
    }

    /// Candidate positions in cyclic scan order starting at
    /// `start % candidate_count()`, restricted to domains accepted by
    /// `keep` — the rotated-scan shape replica placement uses, touching
    /// only nodes in valid domains.
    pub fn cyclic_candidates(
        &self,
        start: usize,
        keep: impl Fn(DomainId) -> bool,
    ) -> Vec<(usize, NodeId)> {
        let mut hits: Vec<(usize, NodeId)> = Vec::new();
        for (d, bucket) in self.buckets.iter().enumerate() {
            self.probe(1);
            if keep(DomainId(d as u32)) {
                self.probe(bucket.len() as u64);
                hits.extend_from_slice(bucket);
            }
        }
        hits.sort_unstable_by_key(|&(i, _)| i);
        if self.candidates > 0 {
            let pivot = hits.partition_point(|&(i, _)| i < start % self.candidates);
            hits.rotate_left(pivot);
        }
        hits
    }
}

/// Pick a replacement storage node for `rank` after the node holding its
/// checkpoint data (`failed_node`) died.
///
/// The replacement must honor the invariant the balancer verified at
/// placement time — the rank's data lives in a different failure domain
/// than the rank itself — and must not be the failed node. Among valid
/// candidates, nodes outside the *failed* node's domain are preferred
/// (a PDU/rack loss takes every node in the domain); same-domain survivors
/// are a fallback for topologies with a single storage rack, like the
/// paper's testbed. Returns the index of the chosen candidate.
///
/// One-shot convenience over [`DomainIndex::failover_grant`]; callers
/// performing repeated lookups should [`DomainIndex::build`] once.
pub fn failover_grant(
    domains: &FailureDomains,
    rank: u32,
    rank_node: NodeId,
    failed_node: NodeId,
    candidates: &[NodeId],
) -> Result<usize, BalanceError> {
    DomainIndex::build(domains, candidates).failover_grant(domains, rank, rank_node, failed_node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{JobRequest, Scheduler, Topology};

    fn placed(procs: u32) -> (Placement, JobAllocation) {
        let topo = Topology::paper_testbed();
        let mut sched = Scheduler::new(topo.clone(), 4);
        let alloc = sched.submit(&JobRequest::full_subscription(procs)).unwrap();
        let domains = FailureDomains::derive(&topo);
        let balancer = StorageBalancer::new(&domains);
        let p = balancer.place(&alloc, 8 << 30, 16 << 20).unwrap();
        (p, alloc)
    }

    #[test]
    fn round_robin_is_perfectly_balanced() {
        let (p, alloc) = placed(448);
        let n = alloc.storage.len();
        let load = p.load_per_grant(|_| 512 << 20, n);
        assert!(
            load.windows(2).all(|w| w[0] == w[1]),
            "equal-size files must balance exactly"
        );
        assert_eq!(p.load_cov(|_| 512 << 20, n), 0.0);
    }

    #[test]
    fn segments_tile_each_namespace_without_overlap() {
        let (p, alloc) = placed(448);
        for g in 0..alloc.storage.len() {
            let mut segs: Vec<(u64, u64)> = p
                .per_rank
                .iter()
                .filter(|r| r.grant == g)
                .map(|r| (r.segment_offset, r.segment_size))
                .collect();
            segs.sort_unstable();
            let mut cursor = 0;
            for (off, size) in segs {
                assert_eq!(off, cursor, "segment gap/overlap at grant {g}");
                cursor = off + size;
            }
            assert!(cursor <= 8 << 30);
        }
    }

    #[test]
    fn comm_cr_sizes_match_paper_ratio() {
        let (p, _) = placed(448);
        // 448 ranks over 4 SSDs -> MPI_COMM_CR of 112 (the paper's upper
        // recommended process:SSD ratio).
        assert!(p.per_rank.iter().all(|r| r.comm_size == 112));
        assert_eq!(p.comms.len(), 4);
    }

    #[test]
    fn uneven_rank_count_still_covered() {
        let (p, alloc) = placed(100); // 100 ranks, 1 SSD (100/112 -> 1)
        assert_eq!(alloc.storage.len(), 1);
        assert_eq!(p.per_rank.len(), 100);
        assert!(p.per_rank.iter().all(|r| r.comm_size == 100));
    }

    #[test]
    fn domain_violations_are_rejected() {
        // Build a pathological "allocation" where storage shares the
        // compute rack.
        let topo = Topology::paper_testbed();
        let domains = FailureDomains::derive(&topo);
        let compute = topo.compute_nodes();
        let alloc = JobAllocation {
            id: cluster::JobId(0),
            rank_nodes: vec![compute[0]; 28],
            storage: vec![cluster::StorageGrant {
                node: compute[1],
                ssd: 0,
                slot: 0,
            }],
        };
        let balancer = StorageBalancer::new(&domains);
        assert!(matches!(
            balancer.place(&alloc, 1 << 30, 1 << 20),
            Err(BalanceError::DomainViolation { .. })
        ));
    }

    #[test]
    fn tiny_segments_rejected() {
        let topo = Topology::paper_testbed();
        let mut sched = Scheduler::new(topo.clone(), 4);
        let alloc = sched.submit(&JobRequest::full_subscription(448)).unwrap();
        let domains = FailureDomains::derive(&topo);
        let balancer = StorageBalancer::new(&domains);
        // 1 MiB namespace split 112 ways is absurd.
        assert!(matches!(
            balancer.place(&alloc, 1 << 20, 16 << 20),
            Err(BalanceError::SegmentTooSmall { .. })
        ));
    }

    #[test]
    fn failover_grant_prefers_foreign_domains_and_falls_back() {
        // Two storage racks: the failed node's rack-mates are valid but a
        // node in the *other* storage rack must win.
        let topo = Topology::synthetic(1, 2, 4, 28);
        let domains = FailureDomains::derive(&topo);
        let rank_node = topo.compute_nodes()[0];
        let storage = topo.storage_nodes();
        let failed = storage[0];
        let idx = failover_grant(&domains, 3, rank_node, failed, &storage).unwrap();
        let chosen = storage[idx];
        assert_ne!(chosen, failed);
        assert!(domains.separated(rank_node, chosen));
        assert!(
            domains.separated(failed, chosen),
            "foreign storage rack must be preferred over the failed node's rack-mates"
        );

        // Single storage rack (the paper's testbed): rack-mates of the
        // failed node are the only survivors, and the fallback accepts one.
        let topo = Topology::paper_testbed();
        let domains = FailureDomains::derive(&topo);
        let rank_node = topo.compute_nodes()[0];
        let storage = topo.storage_nodes();
        let failed = storage[0];
        let idx = failover_grant(&domains, 3, rank_node, failed, &storage).unwrap();
        let chosen = storage[idx];
        assert_ne!(chosen, failed);
        assert!(domains.separated(rank_node, chosen));

        // No candidates at all -> typed error carrying the rank.
        assert_eq!(
            failover_grant(&domains, 3, rank_node, failed, &[]),
            Err(BalanceError::NoFailoverTarget { rank: 3 })
        );
    }

    #[test]
    fn domain_index_matches_linear_failover_scan() {
        // The index must be a pure acceleration: identical choice to the
        // linear scan for every (rank node, failed node) pair, on both a
        // multi-rack and the single-storage-rack paper topology.
        for topo in [Topology::synthetic(2, 3, 4, 28), Topology::paper_testbed()] {
            let domains = FailureDomains::derive(&topo);
            let storage = topo.storage_nodes();
            let index = DomainIndex::build(&domains, &storage);
            let linear = |rank, rank_node, failed: NodeId| {
                let valid = |n: NodeId| n != failed && domains.separated(rank_node, n);
                storage
                    .iter()
                    .position(|&n| valid(n) && domains.separated(failed, n))
                    .or_else(|| storage.iter().position(|&n| valid(n)))
                    .ok_or(BalanceError::NoFailoverTarget { rank })
            };
            for &rank_node in topo.compute_nodes().iter().take(4) {
                for &failed in &storage {
                    assert_eq!(
                        index.failover_grant(&domains, 7, rank_node, failed),
                        linear(7, rank_node, failed),
                        "index diverges from linear scan for failed={failed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn domain_index_lookups_are_constant_in_namespace_count() {
        // 10k storage nodes across 4 storage racks: a failover lookup must
        // probe O(domains) buckets, independent of the namespace count.
        let topo = Topology::synthetic(1, 4, 2500, 1);
        let domains = FailureDomains::derive(&topo);
        let storage = topo.storage_nodes();
        assert_eq!(storage.len(), 10_000);
        let index = DomainIndex::build(&domains, &storage);
        assert_eq!(index.candidate_count(), 10_000);
        let rank_node = topo.compute_nodes()[0];

        let before = index.probes();
        let idx = index
            .failover_grant(&domains, 0, rank_node, storage[0])
            .unwrap();
        let per_lookup = index.probes() - before;
        assert!(domains.separated(rank_node, storage[idx]));
        assert!(domains.separated(storage[0], storage[idx]));
        let bound = 2 * domains.domain_count() as u64 + 4;
        assert!(
            per_lookup <= bound,
            "lookup touched {per_lookup} entries over 10k namespaces \
             (bound: {bound} — O(domains), not O(namespaces))"
        );

        // 1k lookups stay linear in lookups, not in namespaces.
        let before = index.probes();
        for r in 0..1000u32 {
            let failed = storage[r as usize % storage.len()];
            index
                .failover_grant(&domains, r, rank_node, failed)
                .unwrap();
        }
        let probes = index.probes() - before;
        assert!(
            probes <= 1000 * bound,
            "amortized lookup cost scales with namespaces: {probes}"
        );
    }

    #[test]
    fn unequal_loads_have_nonzero_cov() {
        let (p, alloc) = placed(448);
        let n = alloc.storage.len();
        let cov = p.load_cov(|r| if r == 0 { 10 << 30 } else { 1 << 20 }, n);
        assert!(cov > 0.0);
    }

    proptest::proptest! {
        /// For arbitrary job sizes, segments always tile each namespace
        /// without gaps or overlap and every rank lands on a partner
        /// domain.
        #[test]
        fn prop_segments_tile_and_domains_separate(procs in 4u32..448) {
            let topo = Topology::paper_testbed();
            let mut sched = cluster::Scheduler::new(topo.clone(), 8);
            let Ok(alloc) = sched.submit(&cluster::JobRequest::full_subscription(procs)) else {
                return Ok(());
            };
            let domains = FailureDomains::derive(&topo);
            let balancer = StorageBalancer::new(&domains);
            let Ok(p) = balancer.place(&alloc, 8 << 30, 1 << 20) else {
                return Ok(());
            };
            for g in 0..alloc.storage.len() {
                let mut segs: Vec<(u64, u64)> = p
                    .per_rank
                    .iter()
                    .filter(|r| r.grant == g)
                    .map(|r| (r.segment_offset, r.segment_size))
                    .collect();
                segs.sort_unstable();
                let mut cursor = 0;
                for (off, size) in segs {
                    proptest::prop_assert_eq!(off, cursor);
                    proptest::prop_assert!(size >= 1 << 20);
                    cursor = off + size;
                }
                proptest::prop_assert!(cursor <= 8 << 30);
            }
            for r in &p.per_rank {
                let rank_node = alloc.rank_nodes[r.rank as usize];
                let ssd_node = alloc.storage[r.grant].node;
                proptest::prop_assert!(domains.separated(rank_node, ssd_node));
            }
        }
    }
}
