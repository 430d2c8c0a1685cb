//! The `model` time domain: device time of the P4800X/EDR model over
//! measured IO counters. The two functions are copies of
//! `crates/bench/src/bin/dataplane.rs::{cmd_latency_secs,
//! write_makespan_secs}`, kept here so the benchmark depends on no bench
//! binary; the numbers are deterministic for a fixed input.

use std::collections::BTreeMap;

use fabric::{KernelCosts, NetConfig};
use microfs::block::IoCounters;
use ssd::SsdConfig;

/// Round-trip latency of one write command of `bytes` at QD=1: polled
/// userspace submit, request + response messages over two hops, command
/// fetch/decode, and the media transfer of the largest per-channel share.
fn cmd_latency_secs(cfg: &SsdConfig, net: &NetConfig, kern: &KernelCosts, bytes: u64) -> f64 {
    let blocks = bytes.div_ceil(cfg.hw_block).max(1);
    let lanes = blocks.min(u64::from(cfg.channels));
    let lane_bytes = blocks.div_ceil(lanes) * cfg.hw_block;
    kern.spdk_submit.as_secs()
        + 2.0 * (net.per_message_cpu.as_secs() + net.latency(2).as_secs())
        + cfg.cmd_overhead.as_secs()
        + lane_bytes as f64 / cfg.channel_write_bw.as_bytes_per_sec()
}

/// Makespan of one SSD's measured write stream at window depth `qd`: the
/// slowest of the per-rank latency bound, the command processor and the
/// media drain beyond the device RAM.
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

/// Modeled write makespan of the busiest SSD. `per_rank` pairs each
/// rank's SSD (storage node, ssd index) with the block-device counters
/// the rank accumulated over the checkpoint rounds.
pub fn busiest_ssd_makespan_secs(
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

    fn counters(writes: u64, bytes: u64) -> IoCounters {
        IoCounters {
            writes,
            bytes_written: bytes,
            ..IoCounters::default()
        }
    }

    #[test]
    fn busiest_ssd_sets_the_makespan_and_depth_shortens_it() {
        let cfg = SsdConfig::default();
        let light = ((0, 0), counters(64, 64 * (32 << 10)));
        let heavy = ((1, 0), counters(6400, 6400 * (32 << 10)));
        let both = busiest_ssd_makespan_secs(&cfg, &[light, heavy], 32);
        let alone = busiest_ssd_makespan_secs(&cfg, &[heavy], 32);
        assert_eq!(both, alone);
        assert!(busiest_ssd_makespan_secs(&cfg, &[heavy], 1) > alone);
        assert_eq!(busiest_ssd_makespan_secs(&cfg, &[], 32), 0.0);
    }
}
