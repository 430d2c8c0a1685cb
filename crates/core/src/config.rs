//! Runtime configuration and the drilldown ablation ladder.

use std::sync::Arc;

use chaos::ChaosHandle;
use fabric::{FabricConfig, Initiator, NvmfConnection, NvmfTarget};
use microfs::FsConfig;
use ssd::NsId;
use telemetry::Telemetry;

/// Configuration of one NVMe-CR job runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Hugeblock size (the paper selects 32 KiB, §IV-B).
    pub block_size: u64,
    /// Log record coalescing (§III-E).
    pub coalescing: bool,
    /// Bytes of namespace each job requests per granted SSD.
    pub namespace_bytes: u64,
    /// Acting uid for permission checks.
    pub uid: u32,
    /// Where the job's components (initiators, per-rank filesystems)
    /// report their metrics.
    pub telemetry: Telemetry,
    /// Fault-injection hook threaded into every initiator and per-rank
    /// filesystem. Disarmed (the default) it is a no-op.
    pub chaos: ChaosHandle,
    /// Data-plane tuning for the rank initiators: submission-window depth
    /// (QD), CQ poll batches, and per-command reliability parameters.
    pub fabric: FabricConfig,
    /// Synchronous copies of each rank's checkpoint data. `1` (the
    /// default) is unreplicated — bit-for-bit today's behavior. `2`
    /// mirrors every rank write onto a namespace in the rank's partner
    /// failure domain and commits per-epoch manifests, so a permanently
    /// dead shard is recovered from the surviving copy instead of rolling
    /// back to the parallel filesystem.
    pub replication_factor: u32,
    /// Copy-on-write delta epochs (replicated ranks only): `0` (the
    /// default) seals every epoch as a full manifest in the manifest ring;
    /// `n > 0` seals sparse delta manifests linked by `parent_epoch` into
    /// the same ring and compacts to a full manifest after at most `n`
    /// deltas (clamped to the ring's
    /// [`microfs::manifest::MAX_DELTA_CHAIN`]).
    pub delta_chain_max: u32,
    /// The runtime's thread budget: the reactor count of every pool it
    /// starts — format, mount, recovery and epoch-commit fan-outs, and any
    /// [`NvmeCrRuntime::drive_reactor`] whose own config leaves `reactors`
    /// at 0. `0` (the default) sizes pools to the available cores; `1`
    /// runs the runtime's own fan-outs on the calling thread. Rank count
    /// is independent of this — each reactor multiplexes many rank state
    /// machines.
    ///
    /// [`NvmeCrRuntime::drive_reactor`]: crate::runtime::NvmeCrRuntime::drive_reactor
    pub reactors: u32,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            block_size: 32 << 10,
            coalescing: true,
            namespace_bytes: 8 << 30,
            uid: 1000,
            telemetry: Telemetry::default(),
            chaos: ChaosHandle::default(),
            fabric: FabricConfig::default(),
            replication_factor: 1,
            delta_chain_max: 0,
            reactors: 0,
        }
    }
}

impl RuntimeConfig {
    /// The microfs configuration for each rank's instance.
    pub fn fs_config(&self) -> FsConfig {
        FsConfig {
            block_size: self.block_size,
            uid: self.uid,
            coalescing: self.coalescing,
            telemetry: self.telemetry.clone(),
            chaos: self.chaos.clone(),
            cow_epochs: self.delta_chain_max > 0 && self.replication_factor > 1,
            ..FsConfig::default()
        }
    }

    /// Connect an initiator named `nqn` to namespace `ns` behind `target`,
    /// reporting to this job's telemetry under its chaos hook and fabric
    /// tuning.
    pub(crate) fn connect(
        &self,
        nqn: String,
        target: &Arc<NvmfTarget>,
        ns: NsId,
    ) -> NvmfConnection {
        Initiator::with_config(
            nqn,
            self.telemetry.clone(),
            self.chaos.clone(),
            self.fabric.clone(),
        )
        .connect(Arc::clone(target), ns)
    }
}

/// The drilldown ladder of Figure 7(d): a cumulative sequence of the
/// paper's optimizations over a kernel-filesystem-like base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DrilldownLevel {
    /// Kernel IO path, global (shared) namespace, physical metadata
    /// journaling, 4 KiB blocks — "a base design resembling a traditional
    /// kernel filesystem".
    Baseline,
    /// + userspace direct access and private per-process namespaces.
    UserspacePrivateNs,
    /// + metadata provenance (compact operation logging).
    MetadataProvenance,
    /// + 32 KiB hugeblocks.
    Hugeblocks,
}

impl DrilldownLevel {
    /// All levels in cumulative order.
    pub fn ladder() -> [DrilldownLevel; 4] {
        [
            DrilldownLevel::Baseline,
            DrilldownLevel::UserspacePrivateNs,
            DrilldownLevel::MetadataProvenance,
            DrilldownLevel::Hugeblocks,
        ]
    }

    /// Whether this level bypasses the kernel and uses private namespaces.
    pub fn userspace_private(self) -> bool {
        self >= DrilldownLevel::UserspacePrivateNs
    }

    /// Whether this level logs compact operation records instead of
    /// physical metadata images.
    pub fn provenance(self) -> bool {
        self >= DrilldownLevel::MetadataProvenance
    }

    /// Block size at this level.
    pub fn block_size(self) -> u64 {
        if self >= DrilldownLevel::Hugeblocks {
            32 << 10
        } else {
            4 << 10
        }
    }

    /// Display label matching the figure legend.
    pub fn label(self) -> &'static str {
        match self {
            DrilldownLevel::Baseline => "base",
            DrilldownLevel::UserspacePrivateNs => "+userspace&private-ns",
            DrilldownLevel::MetadataProvenance => "+metadata-provenance",
            DrilldownLevel::Hugeblocks => "+hugeblocks",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let c = RuntimeConfig::default();
        assert_eq!(c.block_size, 32 << 10);
        assert!(c.coalescing);
        assert_eq!(c.fs_config().block_size, 32 << 10);
        assert_eq!(
            c.fabric.queue_depth, 32,
            "windows default to the device's hardware queue count"
        );
    }

    #[test]
    fn ladder_is_cumulative() {
        let l = DrilldownLevel::ladder();
        assert!(!l[0].userspace_private() && !l[0].provenance());
        assert_eq!(l[0].block_size(), 4 << 10);
        assert!(l[1].userspace_private() && !l[1].provenance());
        assert!(l[2].provenance());
        assert_eq!(l[2].block_size(), 4 << 10);
        assert_eq!(l[3].block_size(), 32 << 10);
        assert!(l[3].userspace_private() && l[3].provenance());
    }
}
