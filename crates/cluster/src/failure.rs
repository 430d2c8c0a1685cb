//! Failure domains and partner-domain selection.
//!
//! §III-F: *"we identify the failure domains for each node by using the
//! network topology. Nodes which share hardware are placed in the same
//! domain... Next, we create partner failure domains, such that nodes in
//! both partners are in separate failure domains. For each failure domain,
//! we create a list of partner domains sorted by the number of switch hops
//! between them."*
//!
//! In the default wiring a rack and its PDU coincide, so a failure domain
//! is a rack; the abstraction still carries its own id type because the
//! balancer's correctness argument ("checkpoint data lives in a different
//! failure domain than the process") is about domains, not racks.
//!
//! No partner list is kept. On the two-level network every pair of racks
//! is one spine crossing apart, so a list sorted by hops is a list sorted
//! by domain id, and "any other domain" is the whole partner rule:
//! [`FailureDomains::separated`].

use crate::topology::{NodeId, Topology};

/// Identifier of a failure domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

/// Failure-domain map derived from a topology.
#[derive(Debug, Clone)]
pub struct FailureDomains {
    /// domain of each node, indexed by node id.
    node_domain: Vec<DomainId>,
}

impl FailureDomains {
    /// Derive domains from `topo`: nodes sharing a rack/PDU share a domain.
    pub fn derive(topo: &Topology) -> Self {
        let node_domain = topo.nodes().map(|n| DomainId(topo.rack_of(n).0)).collect();
        FailureDomains { node_domain }
    }

    /// The domain of one node.
    pub fn domain_of(&self, n: NodeId) -> DomainId {
        self.node_domain[n.0 as usize]
    }

    /// Whether two nodes are in separate failure domains.
    pub fn separated(&self, a: NodeId, b: NodeId) -> bool {
        self.domain_of(a) != self.domain_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_sharing_means_domain_sharing() {
        let topo = Topology::paper_testbed();
        let fd = FailureDomains::derive(&topo);
        let c = topo.compute_nodes();
        let s = topo.storage_nodes();
        assert_eq!(fd.domain_of(c[0]), fd.domain_of(c[15]));
        assert_eq!(fd.domain_of(s[0]), fd.domain_of(s[7]));
        assert!(fd.separated(c[0], s[0]));
    }
}
