//! Network and software-stack calibration constants.

use simkit::{Rate, SimTime};

/// RDMA fabric parameters. Defaults approximate the paper's 100 Gbps EDR
/// InfiniBand with ConnectX-5 adapters (§IV-A).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-link bandwidth (EDR: 100 Gbps ≈ 12.5 GB/s).
    pub link_bw: Rate,
    /// End-to-end base latency of one RDMA message (NIC-to-NIC).
    pub base_latency: SimTime,
    /// Host CPU cost to post one RDMA work request and poll its completion.
    pub per_message_cpu: SimTime,
    /// Additional propagation/forwarding latency per switch hop.
    pub per_hop_latency: SimTime,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link_bw: Rate::gbit_per_sec(100.0),
            base_latency: SimTime::micros(1.5),
            per_message_cpu: SimTime::micros(0.3),
            per_hop_latency: SimTime::micros(0.15),
        }
    }
}

impl NetConfig {
    /// Wire latency for a message crossing `hops` switches.
    pub fn latency(&self, hops: u32) -> SimTime {
        self.base_latency + self.per_hop_latency * f64::from(hops)
    }

    /// The paper's fabric: 100 Gbps EDR InfiniBand.
    pub fn edr() -> Self {
        NetConfig::default()
    }

    /// 200 Gbps HDR InfiniBand (a next-generation deployment).
    pub fn hdr() -> Self {
        NetConfig {
            link_bw: Rate::gbit_per_sec(200.0),
            base_latency: SimTime::micros(1.2),
            ..NetConfig::default()
        }
    }

    /// 25 Gbps Ethernet with kernel TCP — the "commodity fabric" point
    /// the sensitivity sweep shows to be marginal for one SSD.
    pub fn tcp25g() -> Self {
        NetConfig {
            link_bw: Rate::gbit_per_sec(25.0),
            base_latency: SimTime::micros(15.0),
            per_message_cpu: SimTime::micros(2.0),
            per_hop_latency: SimTime::micros(1.0),
        }
    }
}

/// Attempts after the first before a command is declared exhausted.
pub(crate) const MAX_RETRIES: u32 = 8;
/// Backoff before retry #1; doubles per retry.
pub(crate) const BASE_BACKOFF_NS: u64 = 10_000; // 10 µs
/// Backoff ceiling.
pub(crate) const MAX_BACKOFF_NS: u64 = 10_000_000; // 10 ms

/// Backoff before retry number `attempt` (1-based), exponentially doubled
/// from [`BASE_BACKOFF_NS`] and clamped to [`MAX_BACKOFF_NS`]. Backoff is
/// *modeled* time: it is charged to `fabric.backoff_ns` rather than slept,
/// matching how the rest of the workspace accounts simulated latency. A
/// lost command is detected when both completion queues are dry, not by a
/// clock, and is counted in `fabric.timeouts`.
pub(crate) fn backoff_ns(attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1);
    let backed = if shift >= BASE_BACKOFF_NS.leading_zeros() {
        u64::MAX // doubling would overflow: saturate
    } else {
        BASE_BACKOFF_NS << shift
    };
    backed.min(MAX_BACKOFF_NS)
}

/// Completions drained per initiator-side `poll_cq` call.
pub(crate) const INITIATOR_POLL_BATCH: usize = 16;
/// Command capsules drained per target-daemon poll iteration; the whole
/// batch is decoded, executed, and responded to before the next poll (the
/// batched reactor iteration).
pub(crate) const TARGET_POLL_BATCH: usize = 8;

/// Initiator-side data-plane tuning: the depth of the submission window.
///
/// The paper's scalability rests on deep NVMe queues (the P4800X exposes 32
/// hardware queues; SPDK keeps many commands in flight per queue pair), so
/// the initiator posts up to [`FabricConfig::queue_depth`] command capsules
/// before polling for completions instead of running lock-step.
///
/// The poll batches (`INITIATOR_POLL_BATCH`, `TARGET_POLL_BATCH`) bound
/// how many completions one `poll_cq` call drains. Each poll iteration
/// costs one [`NetConfig::per_message_cpu`]-scale CPU charge (~0.3 µs on
/// EDR) regardless of how many completions it returns, so draining in
/// batches amortises that cost: a batch of 16 cuts the per-completion poll
/// overhead ~16× versus polling one at a time, while keeping the drain
/// loop's working set (decoded capsules held live) small enough to stay
/// cache-resident.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Command capsules the initiator keeps in flight per connection
    /// before it must poll for completions (the QD of the submission
    /// window). 32 matches the device's hardware queue count.
    pub queue_depth: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig { queue_depth: 32 }
    }
}

/// Per-operation costs of the kernel IO stack (Figure 2): this is what the
/// `microfs` userspace design peels away. Values are calibrated so a
/// full-subscription kernel-path run spends ~76-79% of its time in the
/// kernel, matching the paper's measurement (§IV-D).
#[derive(Debug, Clone)]
pub struct KernelCosts {
    /// Trap cost of entering/leaving the kernel for one syscall.
    pub syscall: SimTime,
    /// VFS + block-layer + kernel NVMf driver work per IO request.
    pub vfs_block: SimTime,
    /// Interrupt-driven completion (context switch back to the caller).
    pub interrupt: SimTime,
    /// Per-IO time of the userspace SPDK path for comparison (polled
    /// submission + completion, no traps).
    pub spdk_submit: SimTime,
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts {
            syscall: SimTime::micros(0.6),
            vfs_block: SimTime::micros(6.0),
            interrupt: SimTime::micros(4.0),
            spdk_submit: SimTime::micros(0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edr_bandwidth() {
        let n = NetConfig::default();
        assert!((n.link_bw.as_bytes_per_sec() - 12.5e9).abs() < 1.0);
    }

    #[test]
    fn latency_grows_with_hops() {
        let n = NetConfig::default();
        assert!(n.latency(4) > n.latency(1));
        let delta = n.latency(3).as_micros() - n.latency(2).as_micros();
        assert!((delta - 0.15).abs() < 1e-9);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        assert!(
            NetConfig::hdr().link_bw.as_bytes_per_sec()
                > NetConfig::edr().link_bw.as_bytes_per_sec()
        );
        assert!(
            NetConfig::edr().link_bw.as_bytes_per_sec()
                > NetConfig::tcp25g().link_bw.as_bytes_per_sec()
        );
        assert!(NetConfig::tcp25g().latency(2) > NetConfig::edr().latency(2));
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        assert_eq!(backoff_ns(1), 10_000);
        assert_eq!(backoff_ns(2), 20_000);
        assert_eq!(backoff_ns(3), 40_000);
        assert_eq!(backoff_ns(11), 10_000_000, "clamped to ceiling");
        assert_eq!(backoff_ns(64), 10_000_000, "huge attempts saturate");
    }

    #[test]
    fn fabric_defaults_match_hardware_queue_count() {
        let f = FabricConfig::default();
        assert_eq!(f.queue_depth, 32, "window depth == P4800X hardware queues");
    }

    #[test]
    fn kernel_path_is_much_heavier_than_spdk() {
        let k = KernelCosts::default();
        let kernel_per_io = k.syscall + k.vfs_block + k.interrupt;
        assert!(kernel_per_io.as_secs() > 10.0 * k.spdk_submit.as_secs());
    }
}
