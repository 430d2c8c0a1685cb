//! Fabric timing facility for the `simkit` DAGs.
//!
//! Prices RDMA transfers: per-message host CPU, propagation latency scaled
//! by switch hops, and link bandwidth shared among concurrent transfers.
//! Storage-node ingress links are the contended element in the paper's
//! disaggregated setup, so experiments install one link per storage node.

use simkit::{Dag, PipeId, Stage};

use crate::config::NetConfig;

/// Stage compiler for RDMA transfers over installed links.
#[derive(Debug, Clone)]
pub struct FabricFacility {
    cfg: NetConfig,
}

impl FabricFacility {
    /// A facility with the given network parameters.
    pub fn new(cfg: NetConfig) -> Self {
        FabricFacility { cfg }
    }

    /// The network parameters in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Install one link (e.g. a storage node's ingress) into `dag`.
    pub fn install_link(&self, dag: &mut Dag) -> PipeId {
        dag.pipe(self.cfg.link_bw)
    }

    /// Stages for one RDMA message of `bytes` crossing `hops` switches.
    pub fn message_stages(&self, link: PipeId, bytes: u64, hops: u32) -> Vec<Stage> {
        vec![
            Stage::Delay(self.cfg.per_message_cpu + self.cfg.latency(hops)),
            Stage::xfer(link, bytes),
        ]
    }

    /// Coarse stages for a pipelined sequence of messages totalling
    /// `total_bytes`, sent as `msg_size`-byte messages across `hops`
    /// switches. Per-message CPU is paid serially (the host posts work
    /// requests one at a time); the wire latency is paid once because the
    /// stream is pipelined.
    pub fn bulk_stages(
        &self,
        link: PipeId,
        total_bytes: u64,
        msg_size: u64,
        hops: u32,
    ) -> Vec<Stage> {
        assert!(msg_size > 0);
        if total_bytes == 0 {
            return Vec::new();
        }
        let n_msg = total_bytes.div_ceil(msg_size);
        vec![
            Stage::Delay(self.cfg.per_message_cpu * n_msg as f64 + self.cfg.latency(hops)),
            Stage::xfer(link, total_bytes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn single_message_latency_and_bandwidth() {
        let f = FabricFacility::new(NetConfig::default());
        let mut dag = Dag::new();
        let link = f.install_link(&mut dag);
        dag.token(&[], f.message_stages(link, 1 << 20, 2));
        let r = dag.run().unwrap();
        let cfg = NetConfig::default();
        let expect = cfg.per_message_cpu + cfg.latency(2) + cfg.link_bw.time_for(1 << 20);
        assert!((r.makespan().as_secs() - expect.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn concurrent_transfers_share_the_link() {
        let f = FabricFacility::new(NetConfig::default());
        let mut dag = Dag::new();
        let link = f.install_link(&mut dag);
        for _ in 0..4 {
            dag.token(&[], f.bulk_stages(link, 250 << 20, 1 << 20, 1));
        }
        let r = dag.run().unwrap();
        let floor = NetConfig::default().link_bw.time_for(1000 << 20);
        assert!(r.makespan() >= floor);
        assert!(r.makespan().as_secs() < floor.as_secs() * 1.05);
    }

    #[test]
    fn bulk_pays_per_message_cpu_serially() {
        let f = FabricFacility::new(NetConfig::default());
        let mut dag = Dag::new();
        let link = f.install_link(&mut dag);
        // 1024 messages of 4 KiB: CPU cost should dominate the tiny payload.
        dag.token(&[], f.bulk_stages(link, 4 << 20, 4 << 10, 1));
        let done = dag.run().unwrap().makespan();
        let cpu = NetConfig::default().per_message_cpu * 1024.0;
        assert!(done > cpu);
        assert!(done < cpu + SimTime::millis(1.0));
    }

    #[test]
    fn zero_bytes_bulk_is_free() {
        let f = FabricFacility::new(NetConfig::default());
        let mut dag = Dag::new();
        let link = f.install_link(&mut dag);
        assert!(f.bulk_stages(link, 0, 4096, 1).is_empty());
    }

    #[test]
    fn separate_links_do_not_contend() {
        let f = FabricFacility::new(NetConfig::default());
        let mut dag = Dag::new();
        let l1 = f.install_link(&mut dag);
        let l2 = f.install_link(&mut dag);
        dag.token(&[], f.bulk_stages(l1, 1 << 30, 1 << 20, 1));
        dag.token(&[], f.bulk_stages(l2, 1 << 30, 1 << 20, 1));
        // Both transfers finish within a solo transfer's time: sharing one
        // link would take twice as long.
        let r = dag.run().unwrap();
        let solo = NetConfig::default().link_bw.time_for(1 << 30).as_secs();
        assert!(r.makespan().as_secs() < solo * 1.1);
    }
}
