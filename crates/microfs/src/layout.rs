//! On-device layout of one microfs partition.
//!
//! ```text
//! +--------------+-----------------+---------------------+----------------+
//! | superblock   | operation log   | snapshot region     | hugeblock data |
//! | (4 KiB)      | (wal::Wal)      | (2 slots, A/B)      | region         |
//! +--------------+-----------------+---------------------+----------------+
//! ```
//!
//! The superblock records the geometry and is CRC-protected; `mount`
//! validates it before trusting anything else on the partition.

use crate::block::pool::MAX_BLOCKS;
use crate::block::BlockDevice;
use crate::crc::crc32;
use crate::error::FsError;
use crate::wire::Reader;

const SUPERBLOCK_MAGIC: u64 = 0x6D69_6372_6F66_7321; // "microfs!"
const SUPERBLOCK_VERSION: u32 = 3;
/// Bytes the superblock CRC covers: magic, version and seven geometry fields.
const SUPERBLOCK_BODY_LEN: usize = 8 + 4 + 7 * 8;
/// Bytes of the encoded superblock: its body and CRC. The rest of its
/// [`SUPERBLOCK_LEN`] region is zero padding that nothing decodes.
const SUPERBLOCK_ENCODED_LEN: usize = SUPERBLOCK_BODY_LEN + 4;
/// Serialized superblock size (one hardware block).
pub const SUPERBLOCK_LEN: u64 = 4096;

/// Partition geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Hugeblock size in bytes (§III-E; default 32 KiB).
    pub block_size: u64,
    /// Byte offset of the operation-log region.
    pub log_offset: u64,
    /// Size of the operation-log region.
    pub log_size: u64,
    /// Byte offset of the snapshot region (two slots).
    pub snapshot_offset: u64,
    /// Size of *each* snapshot slot.
    pub snapshot_slot_size: u64,
    /// Byte offset of the data region.
    pub data_offset: u64,
    /// Number of hugeblocks in the data region.
    pub data_blocks: u64,
}

impl Layout {
    /// Compute a layout for a partition of `partition_size` bytes with the
    /// given hugeblock size. Reserves ~1% (min 256 KiB) for the log and two
    /// snapshot slots of 4% (min 1 MiB) each.
    pub fn compute(partition_size: u64, block_size: u64) -> Result<Layout, FsError> {
        if !block_size.is_power_of_two() || block_size < 4096 {
            return Err(FsError::Invalid(format!(
                "hugeblock size {block_size} must be a power of two >= 4096"
            )));
        }
        let log_size = (partition_size / 100).max(256 << 10);
        let snapshot_slot_size = (partition_size / 25).max(1 << 20);
        let data_offset_raw = SUPERBLOCK_LEN + log_size + 2 * snapshot_slot_size;
        // Align the data region to the hugeblock size.
        let data_offset = data_offset_raw.div_ceil(block_size) * block_size;
        if data_offset + block_size > partition_size {
            return Err(FsError::Invalid(format!(
                "partition of {partition_size} bytes too small for block size {block_size}"
            )));
        }
        let data_blocks = (partition_size - data_offset) / block_size;
        if data_blocks > MAX_BLOCKS {
            return Err(FsError::Invalid(format!(
                "{data_blocks} hugeblocks exceed the block pool's limit of {MAX_BLOCKS}"
            )));
        }
        Ok(Layout {
            block_size,
            log_offset: SUPERBLOCK_LEN,
            log_size,
            snapshot_offset: SUPERBLOCK_LEN + log_size,
            snapshot_slot_size,
            data_offset,
            data_blocks,
        })
    }

    /// Device offset of hugeblock `idx`.
    pub fn block_addr(&self, idx: u64) -> u64 {
        debug_assert!(idx < self.data_blocks, "block {idx} out of range");
        self.data_offset + idx * self.block_size
    }

    /// Serialize to superblock bytes (fixed [`SUPERBLOCK_LEN`]).
    pub fn encode_superblock(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(SUPERBLOCK_LEN as usize);
        v.extend_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        v.extend_from_slice(&SUPERBLOCK_VERSION.to_le_bytes());
        for field in [
            self.block_size,
            self.log_offset,
            self.log_size,
            self.snapshot_offset,
            self.snapshot_slot_size,
            self.data_offset,
            self.data_blocks,
        ] {
            v.extend_from_slice(&field.to_le_bytes());
        }
        let crc = crc32(&v);
        v.extend_from_slice(&crc.to_le_bytes());
        v.resize(SUPERBLOCK_LEN as usize, 0);
        v
    }

    /// Read and validate the superblock at the start of `dev`, reading only
    /// the encoded bytes, not the padding of its region.
    pub(crate) fn read_superblock<D: BlockDevice>(dev: &mut D) -> Result<Layout, FsError> {
        let sb = dev
            .read_vec(0, SUPERBLOCK_ENCODED_LEN)
            .map_err(|e| FsError::Io(e.to_string()))?;
        Layout::decode_superblock(&sb)
    }

    /// Parse and validate a superblock.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode_superblock(bytes: &[u8]) -> Result<Layout, FsError> {
        let mut r = Reader::new(bytes);
        let body = r.bytes(SUPERBLOCK_BODY_LEN)?;
        let stored_crc = r.u32()?;
        if crc32(body) != stored_crc {
            return Err(FsError::Io("superblock checksum mismatch".into()));
        }
        let mut r = Reader::new(body);
        let magic = r.u64()?;
        if magic != SUPERBLOCK_MAGIC {
            return Err(FsError::Io(format!("bad superblock magic {magic:#x}")));
        }
        let version = r.u32()?;
        if version != SUPERBLOCK_VERSION {
            return Err(FsError::Io(format!(
                "unsupported superblock version {version} (this build reads version {SUPERBLOCK_VERSION})"
            )));
        }
        Ok(Layout {
            block_size: r.u64()?,
            log_offset: r.u64()?,
            log_size: r.u64()?,
            snapshot_offset: r.u64()?,
            snapshot_slot_size: r.u64()?,
            data_offset: r.u64()?,
            data_blocks: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_partitions_sanely() {
        let l = Layout::compute(1 << 30, 32 << 10).unwrap();
        assert_eq!(l.block_size, 32 << 10);
        assert!(l.log_size >= 256 << 10);
        assert!(l.data_offset.is_multiple_of(l.block_size));
        assert!(l.data_blocks > 29_000); // ~1 GiB / 32 KiB minus reserves
                                         // Regions do not overlap.
        assert!(l.log_offset >= SUPERBLOCK_LEN);
        assert!(l.snapshot_offset >= l.log_offset + l.log_size);
        assert!(l.data_offset >= l.snapshot_offset + 2 * l.snapshot_slot_size);
    }

    #[test]
    fn superblock_roundtrip() {
        let l = Layout::compute(256 << 20, 32 << 10).unwrap();
        let sb = l.encode_superblock();
        assert_eq!(sb.len() as u64, SUPERBLOCK_LEN);
        assert_eq!(Layout::decode_superblock(&sb).unwrap(), l);
    }

    #[test]
    fn corrupt_superblock_rejected() {
        let l = Layout::compute(256 << 20, 32 << 10).unwrap();
        let mut sb = l.encode_superblock();
        sb[20] ^= 0xFF;
        assert!(matches!(
            Layout::decode_superblock(&sb),
            Err(FsError::Io(_))
        ));
    }

    #[test]
    fn bad_block_sizes_rejected() {
        assert!(Layout::compute(1 << 30, 1000).is_err()); // not a power of two
        assert!(Layout::compute(1 << 30, 2048).is_err()); // < 4096
    }

    #[test]
    fn pools_past_u32_block_ids_rejected() {
        // 16 TiB at 4 KiB hugeblocks, less the reserves, still fits.
        assert!(Layout::compute(1 << 44, 4096).is_ok());
        assert!(matches!(
            Layout::compute(1 << 45, 4096),
            Err(FsError::Invalid(_))
        ));
    }

    #[test]
    fn tiny_partition_rejected() {
        assert!(Layout::compute(1 << 20, 1 << 20).is_err());
    }

    #[test]
    fn block_addr_math() {
        let l = Layout::compute(1 << 30, 32 << 10).unwrap();
        assert_eq!(l.block_addr(0), l.data_offset);
        assert_eq!(l.block_addr(5), l.data_offset + 5 * (32 << 10));
    }

    #[test]
    fn hugeblock_size_sweep_all_valid() {
        // Figure 7a sweeps 4 KiB .. 1 MiB; all must lay out on a 4 GiB
        // partition.
        for shift in 12..=20 {
            let l = Layout::compute(4 << 30, 1 << shift).unwrap();
            assert!(l.data_blocks > 0);
        }
    }
}
