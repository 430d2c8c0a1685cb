//! Cluster topology: racks, nodes, and switch-hop distances.
//!
//! The model is a two-level fat tree: nodes attach to their rack's top-of-
//! rack (ToR) switch, and ToR switches attach to a spine. Hop distances are
//! therefore 0 (same node), 2 (same rack), or 4 (cross-rack) — enough
//! structure for the storage balancer's "fewest hops away" greedy placement
//! and for failure-domain derivation, which both key off rack sharing.

/// Identifier of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a rack (also its power distribution unit in the default
/// one-PDU-per-rack wiring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

/// Role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Runs application ranks; `cores` of them per node.
    Compute {
        /// Application processes the node can host.
        cores: u32,
    },
    /// Hosts NVMe SSDs behind an NVMf target daemon.
    Storage {
        /// SSDs attached to the node.
        ssds: u32,
    },
}

#[derive(Debug, Clone)]
struct Node {
    rack: RackId,
    kind: NodeKind,
}

/// An immutable cluster description.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    racks: u32,
}

/// Incremental [`Topology`] construction.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    racks: u32,
}

impl TopologyBuilder {
    /// Add a rack of `n` identical nodes; returns its id.
    pub fn rack(&mut self, n: u32, kind: NodeKind) -> RackId {
        let rack = RackId(self.racks);
        self.racks += 1;
        for _ in 0..n {
            self.nodes.push(Node { rack, kind });
        }
        rack
    }

    /// Finish construction.
    pub fn build(self) -> Topology {
        assert!(!self.nodes.is_empty(), "topology needs at least one node");
        Topology {
            nodes: self.nodes,
            racks: self.racks,
        }
    }
}

impl Topology {
    /// Start building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// The paper's evaluation cluster (§IV-A): one compute rack of 16
    /// nodes × 28 cores and one storage rack of 8 nodes × 1 SSD.
    pub fn paper_testbed() -> Topology {
        let mut b = Topology::builder();
        b.rack(16, NodeKind::Compute { cores: 28 });
        b.rack(8, NodeKind::Storage { ssds: 1 });
        b.build()
    }

    /// A larger synthetic cluster for scaling studies: `compute_racks` ×
    /// `nodes_per_rack` compute nodes and `storage_racks` × `nodes_per_rack`
    /// storage nodes.
    pub fn synthetic(
        compute_racks: u32,
        storage_racks: u32,
        nodes_per_rack: u32,
        cores: u32,
    ) -> Topology {
        let mut b = Topology::builder();
        for _ in 0..compute_racks {
            b.rack(nodes_per_rack, NodeKind::Compute { cores });
        }
        for _ in 0..storage_racks {
            b.rack(nodes_per_rack, NodeKind::Storage { ssds: 1 });
        }
        b.build()
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total rack count.
    pub fn rack_count(&self) -> u32 {
        self.racks
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The rack a node lives in.
    pub fn rack_of(&self, n: NodeId) -> RackId {
        self.nodes[n.0 as usize].rack
    }

    /// The node's role.
    pub fn kind_of(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0 as usize].kind
    }

    /// All compute nodes.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| matches!(self.kind_of(n), NodeKind::Compute { .. }))
            .collect()
    }

    /// All storage nodes.
    pub fn storage_nodes(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| matches!(self.kind_of(n), NodeKind::Storage { .. }))
            .collect()
    }

    /// Cores on a compute node (0 for storage nodes).
    pub fn cores_of(&self, n: NodeId) -> u32 {
        match self.kind_of(n) {
            NodeKind::Compute { cores } => cores,
            NodeKind::Storage { .. } => 0,
        }
    }

    /// Total application ranks the cluster can host.
    pub fn total_cores(&self) -> u32 {
        self.nodes().map(|n| self.cores_of(n)).sum()
    }

    /// Switch hops between two nodes: 0 same node, 2 same rack (via the
    /// ToR), 4 cross-rack (via the spine).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            0
        } else if self.rack_of(a) == self.rack_of(b) {
            2
        } else {
            self.rack_hops(self.rack_of(a), self.rack_of(b))
        }
    }

    /// Hops between two racks: 0 same rack, 4 otherwise (one spine
    /// crossing).
    pub fn rack_hops(&self, a: RackId, b: RackId) -> u32 {
        if a == b {
            0
        } else {
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = Topology::paper_testbed();
        assert_eq!(t.node_count(), 24);
        assert_eq!(t.rack_count(), 2);
        assert_eq!(t.compute_nodes().len(), 16);
        assert_eq!(t.storage_nodes().len(), 8);
        assert_eq!(t.total_cores(), 448);
    }

    #[test]
    fn hop_distances() {
        let t = Topology::paper_testbed();
        let c = t.compute_nodes();
        let s = t.storage_nodes();
        assert_eq!(t.hops(c[0], c[0]), 0);
        assert_eq!(t.hops(c[0], c[1]), 2); // same rack
        assert_eq!(t.hops(c[0], s[0]), 4); // cross rack
        assert_eq!(t.rack_hops(t.rack_of(c[0]), t.rack_of(s[0])), 4);
    }

    #[test]
    fn synthetic_builder() {
        let t = Topology::synthetic(4, 2, 8, 32);
        assert_eq!(t.rack_count(), 6);
        assert_eq!(t.compute_nodes().len(), 32);
        assert_eq!(t.storage_nodes().len(), 16);
        assert_eq!(t.total_cores(), 32 * 32);
    }

    #[test]
    fn storage_nodes_have_no_cores() {
        let t = Topology::paper_testbed();
        for n in t.storage_nodes() {
            assert_eq!(t.cores_of(n), 0);
            assert!(matches!(t.kind_of(n), NodeKind::Storage { ssds: 1 }));
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_topology_rejected() {
        let _ = Topology::builder().build();
    }
}
