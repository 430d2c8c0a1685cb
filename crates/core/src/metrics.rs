//! The paper's evaluation metrics (§IV), and the one function that prices
//! the functional stack's counted IO in device time.
//!
//! The stack itself only *counts*: every block device keeps per-rank
//! [`IoCounters`]. [`service_secs`] and [`busiest_ssd_write_makespan_secs`]
//! turn those counts into modeled device seconds with the calibrated
//! [`SsdConfig`], [`NetConfig`] and [`KernelCosts`] — the same calibration
//! every figure harness uses. Wall-clock never enters.

use std::collections::BTreeMap;

use fabric::{KernelCosts, NetConfig};
use microfs::block::IoCounters;
use simkit::{Rate, SimTime};
use ssd::SsdConfig;

/// Storage-system *efficiency*: "the ratio of the peak IO bandwidth visible
/// to applications to the peak theoretical bandwidth offered by hardware"
/// (§IV-H). Clamped to `[0, 1]`.
pub fn efficiency(bytes_moved: u64, makespan: SimTime, hw_peak: Rate) -> f64 {
    if makespan == SimTime::ZERO {
        return 1.0;
    }
    let achieved = bytes_moved as f64 / makespan.as_secs();
    (achieved / hw_peak.as_bytes_per_sec()).clamp(0.0, 1.0)
}

/// Application *progress rate*: "the ratio of application time spent in
/// compute to total application time" (§I, footnote 1).
pub fn progress_rate(compute: SimTime, total: SimTime) -> f64 {
    if total == SimTime::ZERO {
        return 1.0;
    }
    (compute.as_secs() / total.as_secs()).clamp(0.0, 1.0)
}

/// The hardware-bandwidth saving the paper argues for (§I-B): the factor by
/// which a more efficient runtime lowers the IO bandwidth (and TCO) needed
/// to sustain a target progress rate.
///
/// Returns `None` (instead of panicking) when either efficiency is not a
/// positive finite number — degenerate sweeps (zero-byte runs, failed
/// baselines) flow through as an absent data point.
pub fn required_bandwidth_factor(eff_ours: f64, eff_theirs: f64) -> Option<f64> {
    let valid = |e: f64| e.is_finite() && e > 0.0;
    (valid(eff_ours) && valid(eff_theirs)).then(|| eff_ours / eff_theirs)
}

/// Device service time in seconds of one counted IO stream: per-command
/// controller overhead plus bytes over the channel array, with no overlap.
pub fn service_secs(cfg: &SsdConfig, c: &IoCounters) -> f64 {
    let cmd = cfg.cmd_overhead.as_secs();
    (c.writes + c.reads) as f64 * cmd
        + c.bytes_written as f64 / cfg.write_bw().as_bytes_per_sec()
        + c.bytes_read as f64 / cfg.read_bw().as_bytes_per_sec()
}

/// Round-trip latency of one write command of `bytes` at QD=1: polled
/// userspace submit, request + response messages over two hops, command
/// fetch/decode, and the media transfer.
///
/// The transfer term is hw-block-granular: the controller stripes a
/// command one hardware block per channel, so its observed latency is the
/// largest per-channel share — one block's transfer time for any command
/// up to `channels × hw_block`. Striping buys a single command bandwidth,
/// not latency; that flat ~26 µs floor is exactly what a deep submission
/// window overlaps.
fn cmd_latency_secs(cfg: &SsdConfig, net: &NetConfig, kern: &KernelCosts, bytes: u64) -> f64 {
    let blocks = bytes.div_ceil(cfg.hw_block).max(1);
    let lanes = blocks.min(u64::from(cfg.channels));
    let lane_bytes = blocks.div_ceil(lanes) * cfg.hw_block;
    kern.spdk_submit.as_secs()
        + 2.0 * (net.per_message_cpu.as_secs() + net.latency(2).as_secs())
        + cfg.cmd_overhead.as_secs()
        + lane_bytes as f64 / cfg.channel_write_bw.as_bytes_per_sec()
}

/// Makespan of one SSD's counted write stream at window depth `qd`: the
/// slowest of three serialization points.
///
/// * **latency** — each rank's commands complete `qd` per round trip, so
///   a rank is bound by `writes × L1 / qd`; ranks overlap, so the SSD
///   sees the slowest rank. This is the term the submission window
///   attacks, and the only QD=1 bottleneck for small commands.
/// * **command processor** — the controller fetches/decodes commands one
///   at a time regardless of queue depth.
/// * **media drain** — writes land in the power-loss-protected device RAM
///   at ingest speed (§III-D) and drain to flash concurrently; only the
///   backlog beyond the RAM budget waits on the channel array. In-flight
///   commands (capped at the hardware queue count) stripe the drain over
///   the channels; a 4 KiB command engages one channel, so depth is what
///   fills the array on streams that do outrun the buffer.
fn write_makespan_secs(
    cfg: &SsdConfig,
    net: &NetConfig,
    kern: &KernelCosts,
    ranks: &[IoCounters],
    qd: usize,
) -> f64 {
    let writes: u64 = ranks.iter().map(|c| c.writes).sum();
    let bytes: u64 = ranks.iter().map(|c| c.bytes_written).sum();
    if writes == 0 {
        return 0.0;
    }
    let avg_cmd = (bytes / writes).max(1);
    let inflight = (ranks.len() * qd).min(cfg.hw_queues as usize);
    let conc_channels = (inflight as u32 * cfg.channels_for(avg_cmd)).min(cfg.channels);
    let bw = cfg.channel_write_bw.as_bytes_per_sec() * f64::from(conc_channels);
    let bw_term = bytes.saturating_sub(cfg.device_ram) as f64 / bw;
    let cmd_term = writes as f64 * cfg.cmd_overhead.as_secs();
    let l1 = cmd_latency_secs(cfg, net, kern, avg_cmd);
    let lat_term = ranks
        .iter()
        .map(|c| c.writes as f64 * l1 / qd as f64)
        .fold(0.0f64, f64::max);
    bw_term.max(cmd_term).max(lat_term)
}

/// Modeled write makespan of the busiest SSD at window depth `qd`.
/// `per_rank` pairs each rank's SSD (storage node, ssd index) with the
/// block-device counters the rank accumulated; distinct SSDs run
/// concurrently, so the job waits on the slowest one.
pub fn busiest_ssd_write_makespan_secs(
    cfg: &SsdConfig,
    per_rank: &[((u32, u32), IoCounters)],
    qd: usize,
) -> f64 {
    let net = NetConfig::default();
    let kern = KernelCosts::default();
    let mut per_ssd: BTreeMap<(u32, u32), Vec<IoCounters>> = BTreeMap::new();
    for &(ssd, c) in per_rank {
        per_ssd.entry(ssd).or_default().push(c);
    }
    per_ssd
        .values()
        .map(|ranks| write_makespan_secs(cfg, &net, &kern, ranks, qd))
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_definition() {
        // 24 GiB over 8 SSDs of 2.4 GiB/s in 10 s -> half the hardware.
        let hw = Rate::gib_per_sec(2.4 * 8.0);
        let e = efficiency(192 << 30, SimTime::secs(20.0), hw);
        assert!((e - 0.5).abs() < 1e-9);
        // Perfect run.
        let e = efficiency(
            (2.4 * (1u64 << 30) as f64) as u64,
            SimTime::secs(1.0),
            Rate::gib_per_sec(2.4),
        );
        assert!(e > 0.999);
    }

    #[test]
    fn efficiency_clamps() {
        let hw = Rate::gib_per_sec(1.0);
        assert!(efficiency(100 << 30, SimTime::secs(1.0), hw) <= 1.0);
        assert_eq!(efficiency(0, SimTime::ZERO, hw), 1.0);
    }

    #[test]
    fn progress_rate_definition() {
        let pr = progress_rate(SimTime::secs(42.0), SimTime::secs(100.0));
        assert!((pr - 0.42).abs() < 1e-12);
        assert_eq!(progress_rate(SimTime::ZERO, SimTime::ZERO), 1.0);
    }

    #[test]
    fn bandwidth_factor_reads_as_tco_saving() {
        // 0.96 vs 0.48 efficiency -> 2x less hardware bandwidth needed,
        // the paper's "lower the required hardware IO bandwidth by 2x".
        assert!((required_bandwidth_factor(0.96, 0.48).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_factor_rejects_degenerate_inputs() {
        assert_eq!(required_bandwidth_factor(0.0, 0.5), None);
        assert_eq!(required_bandwidth_factor(0.5, 0.0), None);
        assert_eq!(required_bandwidth_factor(-1.0, 0.5), None);
        assert_eq!(required_bandwidth_factor(f64::NAN, 0.5), None);
        assert_eq!(required_bandwidth_factor(0.5, f64::INFINITY), None);
    }

    // The pricing literals below were computed by the formulas as they
    // stood in the dataplane and replication bench binaries before they
    // moved here; they pin every published modeled number to those
    // formulas, bit for bit.

    fn writes(n: u64, bytes: u64) -> IoCounters {
        IoCounters {
            writes: n,
            bytes_written: bytes,
            ..IoCounters::default()
        }
    }

    /// One SSD's makespan: all ranks on the same device.
    fn one_ssd(ranks: &[IoCounters], qd: usize) -> f64 {
        let per_rank: Vec<_> = ranks.iter().map(|&c| ((0, 0), c)).collect();
        busiest_ssd_write_makespan_secs(&SsdConfig::default(), &per_rank, qd)
    }

    #[test]
    fn qd1_small_commands_are_latency_bound() {
        // 1024 × 4 KiB at QD=1: every command pays its ~32.5 µs round trip.
        let cfg = SsdConfig::default();
        let l1 = cmd_latency_secs(&cfg, &NetConfig::default(), &KernelCosts::default(), 4096);
        assert_eq!(l1, 3.2491666666666666e-5);
        let rank = writes(1024, 1024 * 4096);
        assert_eq!(one_ssd(&[rank], 1), 0.033271466666666666);
        assert_eq!(one_ssd(&[rank], 1), 1024.0 * l1);
    }

    #[test]
    fn qd32_small_commands_are_bound_by_the_command_processor() {
        // 28 ranks × 2048 × 4 KiB at QD=32: the round trips overlap and
        // the controller's serialized 1.75 µs per command is the bound.
        let ranks = [writes(2048, 2048 * 4096); 28];
        assert_eq!(one_ssd(&ranks, 32), 0.100352);
        assert_eq!(one_ssd(&ranks, 32), 28.0 * 2048.0 * 1.75e-6);
    }

    #[test]
    fn streams_beyond_device_ram_are_drain_bound() {
        // 4 ranks × 1024 × 1 MiB = 4 GiB: the 2 GiB past the device RAM
        // drains over all 16 channels at 150 MiB/s each.
        let cfg = SsdConfig::default();
        let l1 = cmd_latency_secs(
            &cfg,
            &NetConfig::default(),
            &KernelCosts::default(),
            1 << 20,
        );
        assert_eq!(l1, 0.0004231166666666667);
        let ranks = [writes(1024, 1024 << 20); 4];
        assert_eq!(one_ssd(&ranks, 32), 0.8533333333333334);
        assert!(one_ssd(&ranks, 32) > 1024.0 * l1 / 32.0);
    }

    #[test]
    fn service_time_charges_commands_and_both_directions() {
        let c = IoCounters {
            writes: 300,
            reads: 200,
            bytes_written: 300 << 20,
            bytes_read: 200 << 20,
            bytes_copied: 0,
        };
        assert_eq!(service_secs(&SsdConfig::default(), &c), 0.20163257575757576);
    }

    #[test]
    fn the_busiest_ssd_sets_the_makespan() {
        let cfg = SsdConfig::default();
        let light = ((0, 0), writes(64, 64 * (32 << 10)));
        let heavy = ((1, 0), writes(6400, 6400 * (32 << 10)));
        let job = [light, heavy, heavy];
        assert_eq!(busiest_ssd_write_makespan_secs(&cfg, &job, 32), 0.0224);
        assert_eq!(
            busiest_ssd_write_makespan_secs(&cfg, &job, 32),
            busiest_ssd_write_makespan_secs(&cfg, &job[1..], 32)
        );
        assert!(busiest_ssd_write_makespan_secs(&cfg, &job[..1], 32) < 0.0224);
        // A stream with no writes (here: reads only) and an empty job cost
        // no write time.
        let reads = IoCounters {
            reads: 10,
            bytes_read: 10 << 20,
            ..IoCounters::default()
        };
        assert_eq!(
            busiest_ssd_write_makespan_secs(&cfg, &[((0, 0), reads)], 32),
            0.0
        );
        assert_eq!(busiest_ssd_write_makespan_secs(&cfg, &[], 32), 0.0);
    }
}
