//! NVMe-CR as a [`StorageModel`] — the timing model of the functional
//! runtime in the `nvmecr` crate.
//!
//! The model composes the same mechanism vocabulary as the baselines, with
//! the paper's design choices: userspace SPDK path, private per-process
//! namespaces (no serialized creates), round-robin balanced placement,
//! compact provenance records instead of shipped metadata, and
//! hugeblock-sized device requests. The Figure 7(d) drilldown ladder is
//! expressed by constructing the model at earlier [`DrilldownLevel`]s.

use baselines::dagutil;
use baselines::model::{MetadataOverhead, StorageModel};
use baselines::scenario::Scenario;
use baselines::spec::{DataPlaneSpec, PlacementPolicy};
use fabric::{IoPath, NetConfig};
use nvmecr::config::DrilldownLevel;
use simkit::{Rate, SimTime};

/// The NVMe-CR runtime's timing model.
pub struct NvmeCrModel {
    level: DrilldownLevel,
    coalescing: bool,
    block_size: Option<u64>,
    local: bool,
}

/// Checkpoints accumulated in the log since the last internal-state
/// snapshot (drives replay length at recovery; the paper's runs take 10
/// checkpoints).
const CKPTS_IN_LOG: u64 = 10;

impl Default for NvmeCrModel {
    fn default() -> Self {
        Self::full()
    }
}

impl NvmeCrModel {
    /// The complete design: userspace + private namespaces + provenance +
    /// hugeblocks + coalescing.
    pub fn full() -> Self {
        NvmeCrModel {
            level: DrilldownLevel::Hugeblocks,
            coalescing: true,
            block_size: None,
            local: false,
        }
    }

    /// A rung of the Figure 7(d) drilldown ladder.
    pub fn at_level(level: DrilldownLevel) -> Self {
        NvmeCrModel {
            level,
            ..Self::full()
        }
    }

    /// Override the hugeblock size (the Figure 7(a) sweep).
    pub fn with_block_size(block_size: u64) -> Self {
        NvmeCrModel {
            block_size: Some(block_size),
            ..Self::full()
        }
    }

    /// Disable log record coalescing (§IV-I recovery ablation).
    pub fn without_coalescing() -> Self {
        NvmeCrModel {
            coalescing: false,
            ..Self::full()
        }
    }

    /// Access a *local* SSD instead of NVMf (Figure 8(a)'s comparison):
    /// the fabric becomes a DMA engine — huge bandwidth, sub-µs latency.
    pub fn local() -> Self {
        NvmeCrModel {
            local: true,
            ..Self::full()
        }
    }

    /// Local SSD with an explicit hugeblock size (the Figure 7(a) sweep
    /// runs on a local device).
    pub fn local_with_block_size(block_size: u64) -> Self {
        NvmeCrModel {
            local: true,
            ..Self::with_block_size(block_size)
        }
    }

    /// Local SSD at a drilldown rung (Figure 7(d) runs on one node).
    pub fn local_at_level(level: DrilldownLevel) -> Self {
        NvmeCrModel {
            local: true,
            ..Self::at_level(level)
        }
    }

    fn block_size_of(&self) -> u64 {
        self.block_size.unwrap_or_else(|| self.level.block_size())
    }

    fn replay_records(&self, s: &Scenario) -> u64 {
        let writes_per_ckpt = s.bytes_per_proc.div_ceil(s.app_write_size);
        let per_ckpt = if self.coalescing {
            // Sequential dumps coalesce to ~2 records per file (the create
            // record plus the merged data record).
            2
        } else {
            writes_per_ckpt
        };
        per_ckpt * CKPTS_IN_LOG
    }

    fn spec(&self, s: &Scenario) -> DataPlaneSpec {
        let block = self.block_size_of();
        let userspace = self.level.userspace_private();
        // Replay cost per log record at recovery: B+Tree insert, block-map
        // extension, and a log-region read share. Calibrated against the
        // paper's 3.6 s vs 4.0 s recovery with/without coalescing (§IV-I).
        let replay = SimTime::micros(250.0) * self.replay_records(s) as f64;
        DataPlaneSpec {
            // Pre-userspace rungs run over a POSIX kernel filesystem whose
            // layering caps attainable bandwidth (the Fig 1/7c argument).
            layer_efficiency: if userspace { 1.0 } else { 0.60 },
            request_size: block,
            path: if userspace {
                IoPath::Userspace
            } else {
                IoPath::Kernel
            },
            placement: PlacementPolicy::RoundRobin,
            // A global namespace serializes creates (pre-private-ns rungs).
            create_serialized: (!userspace).then(|| SimTime::micros(150.0)),
            create_client: SimTime::micros(8.0),
            // Metadata provenance: a Write record is 25 payload + 10 header
            // bytes; without it, physical redo images (inode + block-map
            // pages) ship with every write (§III-E "large sized physical
            // log records").
            write_meta_bytes: if self.level.provenance() {
                64
            } else {
                128 << 10
            },
            meta_server_op: None,
            // Host CPU per device request: SPDK submit + completion poll
            // plus O(1) circular-pool allocation; bitmap allocation and
            // journal bookkeeping cost more on the pre-provenance rungs.
            alloc_per_block: if self.level.provenance() {
                SimTime::micros(0.7)
            } else {
                SimTime::micros(1.1)
            },
            // Calibrated to the paper's create: one hugeblock-unit device
            // append plus the log record. The functional stack's create
            // writes the log record alone, since its directories own no
            // blocks (ROADMAP item 5 lists the disagreement).
            create_device_bytes: block + 64,
            recovery_prologue: replay,
            ..DataPlaneSpec::base("NVMe-CR")
        }
    }

    fn scenario_of(&self, s: &Scenario) -> Scenario {
        if self.local {
            // Local PCIe access: model the fabric as a near-free DMA hop.
            Scenario {
                net: NetConfig {
                    link_bw: Rate::gib_per_sec(256.0),
                    base_latency: SimTime::nanos(300.0),
                    per_message_cpu: SimTime::nanos(100.0),
                    per_hop_latency: SimTime::ZERO,
                },
                ..s.clone()
            }
        } else {
            s.clone()
        }
    }

    /// The drilldown level in effect.
    pub fn level(&self) -> DrilldownLevel {
        self.level
    }
}

impl StorageModel for NvmeCrModel {
    fn name(&self) -> &'static str {
        "NVMe-CR"
    }

    fn checkpoint_makespan(&self, s: &Scenario) -> SimTime {
        let s = self.scenario_of(s);
        dagutil::checkpoint_makespan(&s, &self.spec(&s))
    }

    fn recovery_makespan(&self, s: &Scenario) -> SimTime {
        let s = self.scenario_of(s);
        dagutil::recovery_makespan(&s, &self.spec(&s))
    }

    fn create_rate(&self, s: &Scenario, creates_per_proc: u32) -> f64 {
        let s = self.scenario_of(s);
        dagutil::create_rate(&s, &self.spec(&s), creates_per_proc)
    }

    fn server_loads(&self, s: &Scenario) -> Vec<f64> {
        // The storage balancer allocates SSDs by the paper's 56-112
        // procs-per-SSD rule (§III-F) and round-robins ranks over exactly
        // those, so the load is perfectly equal at every concurrency
        // ("NVMe-CR achieves perfect load balancing regardless of the
        // level of concurrency", §IV-C).
        let allocated = s.procs.div_ceil(56).clamp(1, s.servers);
        let scenario = Scenario {
            servers: allocated,
            ..s.clone()
        };
        dagutil::server_loads(&scenario, &self.spec(s))
    }

    fn metadata_overhead(&self, s: &Scenario) -> MetadataOverhead {
        // Per-runtime device-resident metadata: the microfs partition
        // reserves ~1% for the operation log and two 4% snapshot slots;
        // add one hugeblock, the calibrated create append's footprint (the
        // functional stack's directories own none; ROADMAP item 5).
        // Partition = namespace / ranks sharing it.
        let ranks_per_ssd = u64::from(s.procs.div_ceil(s.servers)).max(1);
        let partition = (8u64 << 30) / ranks_per_ssd;
        let reserved = partition / 100 + 2 * (partition / 25).max(1 << 20);
        MetadataOverhead {
            per_server_bytes: 0,
            per_runtime_bytes: reserved + self.block_size_of(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_perfect_efficiency_at_448() {
        let m = NvmeCrModel::full();
        let s = Scenario::weak_scaling(448);
        let ckpt = m.checkpoint_efficiency(&s);
        let rec = m.recovery_efficiency(&s);
        assert!(ckpt > 0.90, "checkpoint efficiency {ckpt} (paper: 0.96)");
        assert!(rec > 0.93, "recovery efficiency {rec} (paper: 0.99)");
    }

    #[test]
    fn beats_every_baseline_at_scale() {
        use baselines::{GlusterFsModel, OrangeFsModel};
        let s = Scenario::weak_scaling(448);
        let ours = NvmeCrModel::full().checkpoint_efficiency(&s);
        assert!(ours > GlusterFsModel::new().checkpoint_efficiency(&s));
        assert!(ours > OrangeFsModel::new().checkpoint_efficiency(&s) * 2.0);
    }

    #[test]
    fn hugeblock_sweep_has_32k_optimum() {
        // Figure 7(a): 28 procs, 512 MB each, one local SSD.
        let s = Scenario::single_node(512 << 20);
        let time_at = |bs: u64| {
            NvmeCrModel {
                local: true,
                ..NvmeCrModel::with_block_size(bs)
            }
            .checkpoint_makespan(&s)
            .as_secs()
        };
        let t4k = time_at(4 << 10);
        let t32k = time_at(32 << 10);
        let t1m = time_at(1 << 20);
        assert!(
            t4k > t32k * 1.04 && t4k < t32k * 1.15,
            "4K should be ~7% slower than 32K: {t4k} vs {t32k}"
        );
        assert!(
            t1m > t32k * 1.15,
            "oversized blocks must be penalized: {t1m} vs {t32k}"
        );
    }

    #[test]
    fn drilldown_ladder_improves_monotonically() {
        // Figure 7(d): each added optimization lowers checkpoint time.
        let times_at = |procs: u32| -> Vec<f64> {
            let s = Scenario {
                servers: 1,
                ..Scenario::new(procs, 512 << 20)
            };
            DrilldownLevel::ladder()
                .iter()
                .map(|&l| {
                    NvmeCrModel {
                        local: true,
                        ..NvmeCrModel::at_level(l)
                    }
                    .checkpoint_makespan(&s)
                    .as_secs()
                })
                .collect()
        };
        let full = times_at(28);
        for w in full.windows(2) {
            assert!(w[1] < w[0], "each drilldown rung must improve: {full:?}");
        }
        // The full design is substantially better than the base.
        assert!(full[0] > full[3] * 1.4, "{full:?}");
        // Hugeblocks matter most at low concurrency ("the improvement is
        // mostly noticeable at low concurrency", SIV-E).
        let solo = times_at(1);
        let hugeblock_gain_solo = solo[2] / solo[3];
        assert!(
            hugeblock_gain_solo > 1.2,
            "hugeblocks at 1 proc should give >20%: {solo:?}"
        );
    }

    #[test]
    fn nvmf_overhead_is_small() {
        // Figure 8(a): remote vs local within ~3.5%.
        let s = Scenario::single_node(512 << 20);
        let local = NvmeCrModel::local().checkpoint_makespan(&s).as_secs();
        let remote = NvmeCrModel::full().checkpoint_makespan(&s).as_secs();
        let overhead = remote / local - 1.0;
        assert!(
            (0.0..0.05).contains(&overhead),
            "NVMf overhead should be <~3.5%: {overhead}"
        );
    }

    #[test]
    fn coalescing_speeds_up_recovery() {
        let s = Scenario::weak_scaling(448);
        let with = NvmeCrModel::full().recovery_makespan(&s).as_secs();
        let without = NvmeCrModel::without_coalescing()
            .recovery_makespan(&s)
            .as_secs();
        let delta = without - with;
        assert!(
            (0.1..1.5).contains(&delta),
            "replay saving should be ~0.4s over a 10-ckpt log: {delta}"
        );
    }

    #[test]
    fn create_rate_ratios_match_figure_8b() {
        use baselines::{GlusterFsModel, OrangeFsModel};
        let s = Scenario::weak_scaling(448);
        let ours = NvmeCrModel::full().create_rate(&s, 5);
        let gluster = GlusterFsModel::new().create_rate(&s, 5);
        let orange = OrangeFsModel::new().create_rate(&s, 5);
        let r_g = ours / gluster;
        let r_o = ours / orange;
        assert!((4.0..12.0).contains(&r_g), "vs GlusterFS ~7x, got {r_g}");
        assert!((10.0..30.0).contains(&r_o), "vs OrangeFS ~18x, got {r_o}");
        assert!(r_o > r_g, "OrangeFS must trail GlusterFS");
    }

    #[test]
    fn perfect_load_balance() {
        let m = NvmeCrModel::full();
        assert_eq!(m.load_cov(&Scenario::weak_scaling(448)), 0.0);
        assert_eq!(m.load_cov(&Scenario::weak_scaling(56)), 0.0);
    }
}
