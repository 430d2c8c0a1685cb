//! Lustre model — the reliable second tier for multi-level checkpointing.
//!
//! §IV-A: "Lustre is used as the PFS and is configured with 4 separate
//! storage servers, each using one 12 Gbps RAID controller." §III-F:
//! "Through redundancy mechanisms, such as replication, such systems can
//! guarantee that data is available even with cascading failures." The
//! model therefore uses its own 4-server RAID-bandwidth hardware, kernel
//! path, striping, and 2x replication.

use fabric::IoPath;
use simkit::{Rate, SimTime};
use ssd::SsdConfig;

use crate::dagutil;
use crate::model::{MetadataOverhead, StorageModel};
use crate::scenario::Scenario;
use crate::spec::{DataPlaneSpec, PlacementPolicy};

/// The Lustre parallel filesystem (tier 2).
pub struct LustreModel {
    spec: DataPlaneSpec,
}

impl Default for LustreModel {
    fn default() -> Self {
        Self::new()
    }
}

impl LustreModel {
    /// 4 OSS × 12 Gbps RAID, kernel path, replicated.
    pub fn new() -> Self {
        LustreModel {
            spec: DataPlaneSpec {
                layer_efficiency: 0.70,
                request_size: 1 << 20,
                path: IoPath::Kernel,
                placement: PlacementPolicy::Striped { stripe: 1 << 20 },
                create_serialized: Some(SimTime::micros(150.0)), // MDS create
                create_client: SimTime::micros(400.0),
                write_meta_bytes: 4096,
                // Per-MB RPC service at the MDS/OSTs under full-job
                // contention; calibrated so the paper's Table II run (one
                // 8.6 GB checkpoint from 448 clients) takes ~30 s.
                meta_server_op: Some(SimTime::millis(1.75)),
                replication: 2,
                ..DataPlaneSpec::base("Lustre")
            },
        }
    }

    /// Swap in Lustre's own storage hardware: 4 servers whose "SSD" is a
    /// 12 Gbps RAID controller (~1.4 GiB/s usable).
    fn lustre_scenario(s: &Scenario) -> Scenario {
        let raid = SsdConfig {
            channels: 8,
            channel_write_bw: Rate::mib_per_sec(175.0), // 8 ch ~ 1.37 GiB/s
            channel_read_bw: Rate::mib_per_sec(190.0),
            cmd_overhead: SimTime::micros(6.0), // RAID controller latency
            ..s.ssd.clone()
        };
        Scenario {
            servers: 4,
            ssd: raid,
            ..s.clone()
        }
    }

    /// The underlying mechanism spec.
    pub fn spec(&self) -> &DataPlaneSpec {
        &self.spec
    }
}

impl StorageModel for LustreModel {
    fn name(&self) -> &'static str {
        "Lustre"
    }

    fn checkpoint_makespan(&self, s: &Scenario) -> SimTime {
        dagutil::checkpoint_makespan(&Self::lustre_scenario(s), &self.spec)
    }

    fn recovery_makespan(&self, s: &Scenario) -> SimTime {
        // Reads come from one replica; no replication amplification.
        let spec = DataPlaneSpec {
            replication: 1,
            ..self.spec.clone()
        };
        dagutil::recovery_makespan(&Self::lustre_scenario(s), &spec)
    }

    fn create_rate(&self, s: &Scenario, creates_per_proc: u32) -> f64 {
        dagutil::create_rate(&Self::lustre_scenario(s), &self.spec, creates_per_proc)
    }

    fn server_loads(&self, s: &Scenario) -> Vec<f64> {
        dagutil::server_loads(&Self::lustre_scenario(s), &self.spec)
    }

    fn metadata_overhead(&self, s: &Scenario) -> MetadataOverhead {
        let stripes = s.total_bytes().div_ceil(1 << 20);
        MetadataOverhead {
            per_server_bytes: (512 << 20) + stripes * 64 / 4,
            per_runtime_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn much_slower_than_the_nvme_tier() {
        // Table II's setting: strong scaling, one 8.6 GB checkpoint.
        let s = Scenario::strong_scaling(448);
        let lustre = LustreModel::new().checkpoint_makespan(&s).as_secs();
        // The NVMe tier moves this in ~0.5 s; Lustre takes ~30 s.
        assert!(lustre > 15.0, "Lustre checkpoint {lustre}s");
        assert!(
            lustre < 60.0,
            "Lustre checkpoint {lustre}s unreasonably slow"
        );
    }

    #[test]
    fn recovery_is_faster_than_checkpoint() {
        let s = Scenario::strong_scaling(448);
        let m = LustreModel::new();
        assert!(m.recovery_makespan(&s) < m.checkpoint_makespan(&s));
    }
}
