//! MTBF-driven fault injection, including cascading (domain-wide) failures.
//!
//! Exascale motivation (§I): MTBF under 30 minutes at full scale. The
//! injector draws node failures from an exponential distribution scaled by
//! node count and, with a configurable probability, escalates a node
//! failure into a cascading failure of its whole domain — the scenario
//! multi-level checkpointing exists to survive (§III-F "Handling Cascading
//! Failures", §IV-I).

use rand::rngs::SmallRng;
use rand::RngExt;
use simkit::rng::{exponential, seeded};
use simkit::SimTime;

use crate::failure::{DomainId, FailureDomains};
use crate::topology::Topology;

/// What failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A single node crashed.
    Node(crate::topology::NodeId),
    /// A whole failure domain went down (PDU/rack loss) — takes the
    /// processes *and* any checkpoint data stored in the domain.
    Domain(DomainId),
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When it strikes.
    pub at: SimTime,
    /// What it takes down.
    pub kind: FaultKind,
}

/// Deterministic fault schedule generator.
pub struct FaultInjector {
    rng: SmallRng,
    /// Mean time between failures for a single node.
    node_mtbf: SimTime,
    /// Probability that a node failure cascades to its whole domain.
    cascade_prob: f64,
    n_nodes: u32,
}

impl FaultInjector {
    /// An injector for `topo` with per-node MTBF and cascade probability.
    pub fn new(topo: &Topology, seed: u64, node_mtbf: SimTime, cascade_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&cascade_prob));
        FaultInjector {
            rng: seeded(seed),
            node_mtbf,
            cascade_prob,
            n_nodes: topo.node_count() as u32,
        }
    }

    /// System-level MTBF: node MTBF divided by node count.
    pub fn system_mtbf(&self) -> SimTime {
        self.node_mtbf / f64::from(self.n_nodes)
    }

    /// Generate the fault schedule for `[0, horizon)` on `topo`.
    pub fn schedule(&mut self, topo: &Topology, horizon: SimTime) -> Vec<FaultEvent> {
        let domains = FailureDomains::derive(topo);
        let mut out = Vec::new();
        let mut t = 0.0;
        let mean = self.system_mtbf().as_secs();
        loop {
            t += exponential(&mut self.rng, mean);
            if t >= horizon.as_secs() {
                break;
            }
            let victim = crate::topology::NodeId(self.rng.random_range(0..self.n_nodes));
            let cascade: f64 = self.rng.random_range(0.0..1.0);
            let kind = if cascade < self.cascade_prob {
                FaultKind::Domain(domains.domain_of(victim))
            } else {
                FaultKind::Node(victim)
            };
            out.push(FaultEvent {
                at: SimTime::secs(t),
                kind,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let topo = Topology::paper_testbed();
        let mk = |seed| {
            FaultInjector::new(&topo, seed, SimTime::secs(50_000.0), 0.1)
                .schedule(&topo, SimTime::secs(100_000.0))
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn events_are_ordered_and_within_horizon() {
        let topo = Topology::paper_testbed();
        let mut inj = FaultInjector::new(&topo, 7, SimTime::secs(10_000.0), 0.2);
        let horizon = SimTime::secs(50_000.0);
        let ev = inj.schedule(&topo, horizon);
        assert!(!ev.is_empty(), "expected some failures in 120 system-MTBFs");
        for w in ev.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(ev.iter().all(|e| e.at < horizon));
    }

    #[test]
    fn cascade_probability_zero_means_node_faults_only() {
        let topo = Topology::paper_testbed();
        let mut inj = FaultInjector::new(&topo, 3, SimTime::secs(5_000.0), 0.0);
        let ev = inj.schedule(&topo, SimTime::secs(20_000.0));
        assert!(ev.iter().all(|e| matches!(e.kind, FaultKind::Node(_))));
    }

    #[test]
    fn cascade_probability_one_means_domain_faults_only() {
        let topo = Topology::paper_testbed();
        let mut inj = FaultInjector::new(&topo, 3, SimTime::secs(5_000.0), 1.0);
        let ev = inj.schedule(&topo, SimTime::secs(20_000.0));
        assert!(!ev.is_empty());
        assert!(ev.iter().all(|e| matches!(e.kind, FaultKind::Domain(_))));
    }

    #[test]
    fn mixed_cascade_schedule_covers_both_kinds_in_order() {
        let topo = Topology::paper_testbed();
        let mk = || {
            FaultInjector::new(&topo, 11, SimTime::secs(2_000.0), 0.3)
                .schedule(&topo, SimTime::secs(20_000.0))
        };
        let schedule = mk();
        assert_eq!(schedule, mk(), "same seed, same schedule");
        assert!(schedule
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Node(_))));
        assert!(schedule
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Domain(_))));
        assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn system_mtbf_scales_with_node_count() {
        let small = Topology::synthetic(1, 1, 2, 28);
        let big = Topology::synthetic(10, 2, 16, 28);
        let mtbf = SimTime::secs(100_000.0);
        let i_small = FaultInjector::new(&small, 0, mtbf, 0.0);
        let i_big = FaultInjector::new(&big, 0, mtbf, 0.0);
        assert!(i_big.system_mtbf() < i_small.system_mtbf());
    }
}
