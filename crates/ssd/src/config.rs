//! Device geometry and latency calibration.

use chaos::ChaosHandle;
use simkit::{Rate, SimTime};

/// Geometry and timing parameters of one simulated NVMe SSD.
///
/// Defaults approximate the Intel Optane P4800X used in the paper's storage
/// rack (§IV-A): ~2.4 GB/s of write bandwidth delivered by a channel array,
/// 32 hardware queue pairs, 4 KiB hardware blocks, and a power-loss-protected
/// device RAM write buffer.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Number of internal flash/media channels.
    pub channels: u32,
    /// Per-channel sustained write bandwidth.
    pub channel_write_bw: Rate,
    /// Per-channel sustained read bandwidth.
    pub channel_read_bw: Rate,
    /// Hardware block size — the unit the controller splits requests into
    /// and stripes across channels (4 KiB on the P4800X).
    pub hw_block: u64,
    /// Number of hardware submission/completion queue pairs the controller
    /// exposes (the paper notes 32 for the P4800X, §III-A Principle 3).
    pub hw_queues: u32,
    /// Controller time to fetch/decode/complete one NVMe command; this cost
    /// is serialized at the command processor and is what penalizes small
    /// block sizes in Figure 7a.
    pub cmd_overhead: SimTime,
    /// Controller staging SRAM available for in-flight request payloads.
    /// Requests hold staging for their duration; very large requests exhaust
    /// it and serialize, which is what penalizes oversized hugeblocks.
    pub staging_ram: u64,
    /// Power-loss-protected device RAM write buffer (§III-D "Data
    /// Durability"). Writes land here at full speed and survive power
    /// failure via capacitor flush when `capacitor` is true.
    pub device_ram: u64,
    /// Whether enhanced power-loss data protection (capacitors) is present.
    pub capacitor: bool,
    /// Fault-injection hook shared by every shard of the device. Disarmed
    /// by default: the data path pays one relaxed atomic load per IO.
    pub chaos: ChaosHandle,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            capacity: 750 << 30, // 750 GiB (P4800X SKU)
            channels: 16,
            channel_write_bw: Rate::mib_per_sec(150.0), // 16 ch -> 2.34 GiB/s
            channel_read_bw: Rate::mib_per_sec(165.0),  // 16 ch -> 2.58 GiB/s
            hw_block: 4 << 10,
            hw_queues: 32,
            cmd_overhead: SimTime::micros(1.75),
            staging_ram: 24 << 20,
            device_ram: 2 << 30,
            capacitor: true,
            chaos: ChaosHandle::default(),
        }
    }
}

impl SsdConfig {
    /// Aggregate write bandwidth of the channel array.
    pub fn write_bw(&self) -> Rate {
        self.channel_write_bw.scale(f64::from(self.channels))
    }

    /// Aggregate read bandwidth of the channel array.
    pub fn read_bw(&self) -> Rate {
        self.channel_read_bw.scale(f64::from(self.channels))
    }

    /// How many channels a request of `bytes` can stripe across: one per
    /// hardware block, bounded by the channel count. This is why a 4 KiB
    /// request is limited to a single channel's bandwidth while a 32 KiB+
    /// hugeblock approaches the full array (§III-E "Hugeblocks").
    pub fn channels_for(&self, bytes: u64) -> u32 {
        let blocks = bytes.div_ceil(self.hw_block).max(1);
        blocks.min(u64::from(self.channels)) as u32
    }

    /// Maximum service rate for a single request of `bytes` (write path).
    pub fn write_rate_for(&self, bytes: u64) -> Rate {
        self.channel_write_bw
            .scale(f64::from(self.channels_for(bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_p4800x_ballpark() {
        let c = SsdConfig::default();
        let bw = c.write_bw().as_bytes_per_sec();
        assert!((2.2e9..2.6e9).contains(&bw), "write bw {bw}");
        assert_eq!(c.hw_queues, 32);
        assert_eq!(c.hw_block, 4096);
    }

    #[test]
    fn channel_striping_scales_with_request_size() {
        let c = SsdConfig::default();
        assert_eq!(c.channels_for(1), 1);
        assert_eq!(c.channels_for(4096), 1);
        assert_eq!(c.channels_for(8192), 2);
        assert_eq!(c.channels_for(32 << 10), 8);
        assert_eq!(c.channels_for(64 << 10), 16);
        assert_eq!(c.channels_for(1 << 20), 16); // capped at channel count
    }

    #[test]
    fn single_small_request_is_channel_bound() {
        let c = SsdConfig::default();
        let r4k = c.write_rate_for(4096).as_bytes_per_sec();
        let r64k = c.write_rate_for(64 << 10).as_bytes_per_sec();
        assert!((r64k / r4k - 16.0).abs() < 1e-9);
    }
}
