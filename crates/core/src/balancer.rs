//! The storage balancer — load-aware, failure-domain-aware placement
//! (§III-F, Figure 6).
//!
//! Inputs: a scheduler allocation (ranks on compute nodes, storage grants
//! on partner-domain SSDs). Outputs: a [`Placement`] mapping every rank to
//! a grant (round-robin, "processes within a job are assigned to the
//! allocated SSDs in a round robin manner to achieve load balancing"),
//! each rank's position in its per-SSD `MPI_COMM_CR` communicator, and
//! each rank's contiguous segment of its SSD's namespace ("each process
//! gets a contiguous segment of the SSD based on its rank and the
//! communicator size"). Under round-robin the communicator split has a
//! closed form, so no communicator is built.
//!
//! The balancer *verifies* — not just assumes — that every rank's
//! checkpoint data lands in a different failure domain than the rank
//! itself; a violating allocation is rejected.

use std::fmt;

use cluster::{FailureDomains, JobAllocation, NodeId};

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
}

/// `(local_rank, comm_size)` of `rank` in its `MPI_COMM_CR` when `n_ranks`
/// ranks are dealt round-robin over `n_grants` grants. `MPI_Comm_split`
/// with color = grant and key = rank orders each communicator by global
/// rank, so grant `g` holds ranks `g, g + n_grants, g + 2 n_grants, ...`:
/// `rank` is member number `rank / n_grants`, and the first
/// `n_ranks % n_grants` grants hold one rank more than the rest.
fn comm_cr_position(rank: u32, n_ranks: u32, n_grants: u32) -> (u32, u32) {
    let grant = rank % n_grants;
    let comm_size = n_ranks / n_grants + u32::from(grant < n_ranks % n_grants);
    (rank / n_grants, comm_size)
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
        let mut per_rank = Vec::with_capacity(n_ranks as usize);
        for rank in 0..n_ranks {
            // Round-robin rank -> grant.
            let grant = rank as usize % n_grants;
            // Fault-tolerance check: never colocate a rank with its data.
            let rank_node = alloc.rank_nodes[rank as usize];
            if !self.domains.separated(rank_node, alloc.storage[grant].node) {
                return Err(BalanceError::DomainViolation { rank });
            }
            // Contiguous per-rank segments of the grant's namespace.
            let (local_rank, comm_size) = comm_cr_position(rank, n_ranks, n_grants as u32);
            let segment_size = namespace_bytes / u64::from(comm_size);
            if segment_size < min_segment {
                return Err(BalanceError::SegmentTooSmall {
                    segment: segment_size,
                });
            }
            per_rank.push(RankPlacement {
                rank,
                grant,
                local_rank,
                comm_size,
                segment_offset: u64::from(local_rank) * segment_size,
                segment_size,
            });
        }
        Ok(Placement { per_rank })
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
/// paper's testbed. Returns the index of the first candidate of the first
/// pass that finds one: a scan of a rack's storage nodes (8 on the
/// paper's testbed) per failover.
pub fn failover_grant(
    domains: &FailureDomains,
    rank: u32,
    rank_node: NodeId,
    failed_node: NodeId,
    candidates: &[NodeId],
) -> Result<usize, BalanceError> {
    let valid = |n: NodeId| n != failed_node && domains.separated(rank_node, n);
    candidates
        .iter()
        .position(|&n| valid(n) && domains.separated(failed_node, n))
        .or_else(|| candidates.iter().position(|&n| valid(n)))
        .ok_or(BalanceError::NoFailoverTarget { rank })
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
        let mut ranks_per_grant = vec![0u32; alloc.storage.len()];
        for r in &p.per_rank {
            ranks_per_grant[r.grant] += 1;
        }
        assert_eq!(
            ranks_per_grant, [112; 4],
            "equal-size jobs must balance exactly"
        );
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
        assert_eq!(p.per_rank.iter().map(|r| r.grant).max(), Some(3));
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

    /// FNV-1a over every `(grant, local_rank, comm_size, segment_offset,
    /// segment_size)` row, in rank order.
    fn rows_digest(p: &Placement) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &p.per_rank {
            let row = [
                r.grant as u64,
                u64::from(r.local_rank),
                u64::from(r.comm_size),
                r.segment_offset,
                r.segment_size,
            ];
            for b in row.iter().flat_map(|v| v.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Placements on the paper's testbed with 8 GiB namespaces. Each case
    /// pins the granted nodes, the first rows and the last row literally,
    /// and every row through a digest.
    #[test]
    fn placements_are_pinned() {
        type Row = (usize, u32, u32, u64, u64);
        /// Request, granted nodes, first rows, last row, digest of all rows.
        type Case = (JobRequest, &'static [u32], &'static [Row], Row, u64);
        let cases: [Case; 4] = [
            (
                JobRequest::full_subscription(28),
                &[16],
                &[
                    (0, 0, 28, 0, 306_783_378),
                    (0, 1, 28, 306_783_378, 306_783_378),
                ],
                (0, 27, 28, 8_283_151_206, 306_783_378),
                0xd16e_2dc8_f0af_b0cb,
            ),
            (
                JobRequest::full_subscription(56),
                &[16],
                &[
                    (0, 0, 56, 0, 153_391_689),
                    (0, 1, 56, 153_391_689, 153_391_689),
                ],
                (0, 55, 56, 8_436_542_895, 153_391_689),
                0x8f3f_2a82_470f_4e57,
            ),
            (
                JobRequest::full_subscription(448),
                &[16, 17, 18, 19],
                &[
                    (0, 0, 112, 0, 76_695_844),
                    (1, 0, 112, 0, 76_695_844),
                    (2, 0, 112, 0, 76_695_844),
                    (3, 0, 112, 0, 76_695_844),
                    (0, 1, 112, 76_695_844, 76_695_844),
                ],
                (3, 111, 112, 8_513_238_684, 76_695_844),
                0x7fa4_f23c_1715_4425,
            ),
            (
                // Uneven: 100 ranks over 3 SSDs split 34/33/33.
                JobRequest {
                    procs: 100,
                    procs_per_node: 28,
                    storage_devices: 3,
                },
                &[16, 17, 18],
                &[
                    (0, 0, 34, 0, 252_645_135),
                    (1, 0, 33, 0, 260_301_048),
                    (2, 0, 33, 0, 260_301_048),
                    (0, 1, 34, 252_645_135, 252_645_135),
                    (1, 1, 33, 260_301_048, 260_301_048),
                ],
                (0, 33, 34, 8_337_289_455, 252_645_135),
                0x1502_7636_91d2_5afb,
            ),
        ];
        let topo = Topology::paper_testbed();
        let domains = FailureDomains::derive(&topo);
        for (req, nodes, head, last, digest) in cases {
            let mut sched = Scheduler::new(topo.clone(), 4);
            let alloc = sched.submit(&req).unwrap();
            let granted: Vec<u32> = alloc.storage.iter().map(|g| g.node.0).collect();
            assert_eq!(granted, nodes, "{} ranks", req.procs);
            let p = StorageBalancer::new(&domains)
                .place(&alloc, 8 << 30, 16 << 20)
                .unwrap();
            let rows: Vec<Row> = p
                .per_rank
                .iter()
                .map(|r| {
                    (
                        r.grant,
                        r.local_rank,
                        r.comm_size,
                        r.segment_offset,
                        r.segment_size,
                    )
                })
                .collect();
            assert_eq!(rows.len(), req.procs as usize);
            assert_eq!(&rows[..head.len()], head, "{} ranks", req.procs);
            assert_eq!(rows.last(), Some(&last), "{} ranks", req.procs);
            assert_eq!(rows_digest(&p), digest, "{} ranks", req.procs);
        }
    }

    /// The failover target of every (rank node, failed node) pair. Each row
    /// lists the target per failed storage node; every compute node of
    /// these topologies gets the same row.
    #[test]
    fn failover_targets_are_pinned() {
        let cases: [(Topology, &[u32]); 2] = [
            (Topology::paper_testbed(), &[17, 16, 16, 16, 16, 16, 16, 16]),
            (
                Topology::synthetic(2, 3, 4, 28),
                &[12, 12, 12, 12, 8, 8, 8, 8, 8, 8, 8, 8],
            ),
        ];
        for (topo, row) in cases {
            let domains = FailureDomains::derive(&topo);
            let storage = topo.storage_nodes();
            for &rank_node in &topo.compute_nodes() {
                let got: Vec<u32> = storage
                    .iter()
                    .map(|&failed| {
                        let i = failover_grant(&domains, 7, rank_node, failed, &storage).unwrap();
                        storage[i].0
                    })
                    .collect();
                assert_eq!(got, row, "rank node {rank_node:?}");
            }
        }
    }

    proptest::proptest! {
        /// The closed form agrees with a direct count of the round-robin
        /// deal for any job shape, uneven splits included: the local rank
        /// is the number of earlier ranks on the same grant, and the
        /// communicator size is the number of ranks on it.
        #[test]
        fn prop_comm_cr_closed_form_matches_a_count(n_grants in 1u32..40, extra in 0u32..500) {
            let n_ranks = n_grants + extra;
            let mut seen = vec![0u32; n_grants as usize];
            for rank in 0..n_ranks {
                let g = (rank % n_grants) as usize;
                let (local_rank, _) = comm_cr_position(rank, n_ranks, n_grants);
                proptest::prop_assert_eq!(local_rank, seen[g]);
                seen[g] += 1;
            }
            for rank in 0..n_ranks {
                let (_, comm_size) = comm_cr_position(rank, n_ranks, n_grants);
                proptest::prop_assert_eq!(comm_size, seen[(rank % n_grants) as usize]);
            }
        }

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
