//! The slice of MPI that NVMe-CR uses.
//!
//! The runtime "leverages the MPI runtime for coordination between multiple
//! instances as well as for identification purposes... coordination is only
//! necessary in the initialization routine" (§III-C). The storage
//! balancer needs exactly communicator identity (rank/size) and
//! `MPI_Comm_split` to build the per-SSD `MPI_COMM_CR` communicators
//! (§III-F, Figure 6).

use crate::topology::NodeId;

/// The world: ranks `0..size` placed on compute nodes.
#[derive(Debug, Clone)]
pub struct CommWorld {
    rank_nodes: Vec<NodeId>,
}

impl CommWorld {
    /// A world from the scheduler's rank→node placement.
    pub fn new(rank_nodes: Vec<NodeId>) -> Self {
        assert!(!rank_nodes.is_empty(), "world needs at least one rank");
        CommWorld { rank_nodes }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.rank_nodes.len() as u32
    }

    /// The world communicator.
    pub fn comm_world(&self) -> Comm {
        Comm {
            ranks: (0..self.size()).collect(),
        }
    }
}

/// A communicator: an ordered group of global ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comm {
    /// Global ranks, in communicator order (index = local rank).
    ranks: Vec<u32>,
}

impl Comm {
    /// Communicator size.
    pub fn size(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// Local rank of a global rank, if it belongs to this communicator.
    pub fn local_rank(&self, global: u32) -> Option<u32> {
        self.ranks
            .iter()
            .position(|&r| r == global)
            .map(|i| i as u32)
    }

    /// All member global ranks, in order.
    pub fn members(&self) -> &[u32] {
        &self.ranks
    }

    /// `MPI_Comm_split`: partition members by `color`, ordering each new
    /// communicator by `(key, old rank)`. Returns `(color, Comm)` pairs
    /// sorted by color. This is exactly how `MPI_COMM_CR` (one communicator
    /// per shared SSD) is built in §III-F.
    pub fn split(&self, color: impl Fn(u32) -> u64, key: impl Fn(u32) -> u64) -> Vec<(u64, Comm)> {
        let mut buckets: std::collections::BTreeMap<u64, Vec<(u64, u32)>> =
            std::collections::BTreeMap::new();
        for &g in &self.ranks {
            buckets.entry(color(g)).or_default().push((key(g), g));
        }
        buckets
            .into_iter()
            .map(|(c, mut members)| {
                members.sort_unstable();
                (
                    c,
                    Comm {
                        ranks: members.into_iter().map(|(_, g)| g).collect(),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: u32) -> CommWorld {
        CommWorld::new((0..n).map(|i| NodeId(i / 28)).collect())
    }

    #[test]
    fn world_identity() {
        let w = world(56);
        assert_eq!(w.size(), 56);
        let c = w.comm_world();
        assert_eq!(c.size(), 56);
        assert_eq!(c.members()[10], 10);
        assert_eq!(c.local_rank(10), Some(10));
    }

    #[test]
    fn split_partitions_by_color_ordered_by_key() {
        let w = world(8);
        let comm = w.comm_world();
        // Color = parity; key = reverse order.
        let parts = comm.split(|g| u64::from(g % 2), |g| u64::from(100 - g));
        assert_eq!(parts.len(), 2);
        let (c0, even) = &parts[0];
        assert_eq!(*c0, 0);
        assert_eq!(even.members(), &[6, 4, 2, 0]); // descending by key order
        let (_, odd) = &parts[1];
        assert_eq!(odd.members(), &[7, 5, 3, 1]);
        assert_eq!(odd.local_rank(5), Some(1));
        assert_eq!(odd.local_rank(0), None);
    }

    #[test]
    fn split_covers_all_ranks_exactly_once() {
        let w = world(448);
        let comm = w.comm_world();
        // The paper's MPI_COMM_CR construction: color = assigned SSD.
        let parts = comm.split(|g| u64::from(g % 8), u64::from);
        let mut all: Vec<u32> = parts
            .iter()
            .flat_map(|(_, c)| c.members().to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..448).collect::<Vec<_>>());
        for (_, c) in &parts {
            assert_eq!(c.size(), 56);
        }
    }
}
