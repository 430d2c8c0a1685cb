//! Atomic internal-state checkpoints (§III-E "Metadata Provenance").
//!
//! "To limit the size of the log, the runtime checkpoints internal DRAM
//! state (which includes the inodes, block pool, and B+Tree) to a reserved
//! region on the remote SSD... the checkpoint process is designed to be
//! atomic. Log records are only discarded once the checkpoint is complete."
//!
//! Atomicity uses two alternating slots: the payload is written first, the
//! small CRC-carrying header last, and recovery picks the valid header with
//! the highest sequence number. A crash mid-snapshot leaves the previous
//! slot intact, so durability is never compromised (§III-E).

use crate::block::BlockDevice;
use crate::block::BlockPool;
use crate::btree::BTree;
use crate::crc::crc32;
use crate::error::FsError;
use crate::inode::InodeTable;
use crate::layout::Layout;
use crate::wire::{Reader, Short};

const SNAPSHOT_MAGIC: u64 = 0x6D66_735F_636B_7074; // "mfs_ckpt"
const HEADER_LEN: u64 = 8 + 8 + 4 + 8 + 4; // magic, seq, generation, len, crc

/// The volatile filesystem state a snapshot captures.
#[derive(Debug, Clone)]
pub struct FsState {
    /// The inode table.
    pub inodes: InodeTable,
    /// The circular hugeblock pool.
    pub pool: BlockPool,
    /// The path → inode B+Tree.
    pub btree: BTree,
    /// Monotonic operation counter (mtime source).
    pub op_counter: u64,
}

impl FsState {
    /// `op_counter`, then the inode table, block pool and B+Tree, each
    /// behind its `u64` length. The buffer is sized exactly and the pool,
    /// by far the largest section, is encoded straight into it.
    fn encode(&self) -> Vec<u8> {
        let (inodes, btree) = (self.inodes.encode(), self.btree.encode());
        let pool_len = self.pool.encoded_len();
        let mut v = Vec::with_capacity(8 + 3 * 8 + inodes.len() + pool_len + btree.len());
        v.extend_from_slice(&self.op_counter.to_le_bytes());
        v.extend_from_slice(&(inodes.len() as u64).to_le_bytes());
        v.extend_from_slice(&inodes);
        v.extend_from_slice(&(pool_len as u64).to_le_bytes());
        self.pool.encode_into(&mut v);
        v.extend_from_slice(&(btree.len() as u64).to_le_bytes());
        v.extend_from_slice(&btree);
        v
    }

    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    fn decode(bytes: &[u8]) -> Result<FsState, FsError> {
        let mut r = Reader::new(bytes);
        let op_counter = r.u64()?;
        let mut sections: [&[u8]; 3] = [&[]; 3];
        for section in &mut sections {
            let len = usize::try_from(r.u64()?).map_err(|_| Short)?;
            *section = r.bytes(len)?;
        }
        let [inodes, pool, btree] = sections;
        let (inodes, _) = InodeTable::decode(inodes)?;
        let (pool, _) = BlockPool::decode(pool)?;
        let (btree, _) = BTree::decode(btree)?;
        Ok(FsState {
            inodes,
            pool,
            btree,
            op_counter,
        })
    }
}

/// Write a snapshot of `state` with sequence `seq`. `generation` names the
/// log generation whose records apply *on top of* this snapshot. Returns
/// bytes written (metadata-overhead accounting).
pub fn write_snapshot<D: BlockDevice>(
    dev: &mut D,
    layout: &Layout,
    state: &FsState,
    seq: u64,
    generation: u32,
) -> Result<u64, FsError> {
    let payload = state.encode();
    if HEADER_LEN + payload.len() as u64 > layout.snapshot_slot_size {
        return Err(FsError::Io(format!(
            "snapshot of {} bytes exceeds slot of {}",
            payload.len(),
            layout.snapshot_slot_size
        )));
    }
    let slot = seq % 2;
    let slot_off = layout.snapshot_offset + slot * layout.snapshot_slot_size;
    // Payload first...
    dev.write_at(slot_off + HEADER_LEN, &payload)
        .map_err(|e| FsError::Io(e.to_string()))?;
    dev.flush().map_err(|e| FsError::Io(e.to_string()))?;
    // ...then the commit header.
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&generation.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(&payload).to_le_bytes());
    dev.write_at(slot_off, &header)
        .map_err(|e| FsError::Io(e.to_string()))?;
    dev.flush().map_err(|e| FsError::Io(e.to_string()))?;
    Ok(HEADER_LEN + payload.len() as u64)
}

#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
fn read_slot<D: BlockDevice>(
    dev: &mut D,
    layout: &Layout,
    slot: u64,
) -> Option<((u64, u32, FsState), u64)> {
    let slot_off = slot
        .checked_mul(layout.snapshot_slot_size)?
        .checked_add(layout.snapshot_offset)?;
    let header = dev.read_vec(slot_off, HEADER_LEN as usize).ok()?;
    let mut r = Reader::new(&header);
    if r.u64().ok()? != SNAPSHOT_MAGIC {
        return None;
    }
    let (seq, generation) = (r.u64().ok()?, r.u32().ok()?);
    let (len, stored_crc) = (r.u64().ok()?, r.u32().ok()?);
    // No CRC covers `len`: bound it by the slot before it sizes a read.
    let footprint = HEADER_LEN.checked_add(len)?;
    if footprint > layout.snapshot_slot_size {
        return None;
    }
    let len = usize::try_from(len).ok()?;
    let payload = dev.read_vec(slot_off.checked_add(HEADER_LEN)?, len).ok()?;
    if crc32(&payload) != stored_crc {
        return None;
    }
    FsState::decode(&payload)
        .ok()
        .map(|s| ((seq, generation, s), footprint))
}

/// Read the newest valid snapshot: `(seq, generation, state)`.
pub fn read_latest<D: BlockDevice>(dev: &mut D, layout: &Layout) -> Option<(u64, u32, FsState)> {
    read_latest_with_footprints(dev, layout).map(|(latest, _)| latest)
}

/// [`read_latest`] plus the bytes each slot holds (header plus payload)
/// when it validated, `0` when it did not — the snapshot bytes a mount
/// depends on, known without another read.
pub(crate) fn read_latest_with_footprints<D: BlockDevice>(
    dev: &mut D,
    layout: &Layout,
) -> Option<((u64, u32, FsState), [u64; 2])> {
    let (a, b) = (read_slot(dev, layout, 0), read_slot(dev, layout, 1));
    let footprints = [&a, &b].map(|s| s.as_ref().map_or(0, |(_, bytes)| *bytes));
    let latest = match (a, b) {
        (Some((a, _)), Some((b, _))) if b.0 > a.0 => b,
        (a, b) => a.or(b)?.0,
    };
    Some((latest, footprints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDevice;
    use crate::inode::Inode;

    fn layout_and_dev() -> (Layout, MemDevice) {
        let layout = Layout::compute(64 << 20, 32 << 10).unwrap();
        let dev = MemDevice::new(64 << 20);
        (layout, dev)
    }

    fn sample_state(n_files: u64) -> FsState {
        let mut inodes = InodeTable::new();
        let mut btree = BTree::new();
        let mut pool = BlockPool::new(1000);
        inodes.alloc(Inode::new_dir(0o755, 0, 0));
        btree.insert("/", 0);
        for i in 0..n_files {
            let mut f = Inode::new_file(0o644, 0, i);
            f.blocks = pool.alloc_many(2).unwrap();
            f.size = 2 * (32 << 10);
            let ino = inodes.alloc(f);
            btree.insert(&format!("/ckpt_{i}.dat"), ino);
        }
        FsState {
            inodes,
            pool,
            btree,
            op_counter: n_files + 1,
        }
    }

    fn assert_states_equal(a: &FsState, b: &FsState) {
        assert_eq!(a.op_counter, b.op_counter);
        assert_eq!(a.inodes, b.inodes);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.btree.entries(), b.btree.entries());
    }

    #[test]
    fn write_read_roundtrip() {
        let (layout, mut dev) = layout_and_dev();
        let state = sample_state(50);
        write_snapshot(&mut dev, &layout, &state, 1, 3).unwrap();
        let (seq, generation, restored) = read_latest(&mut dev, &layout).unwrap();
        assert_eq!((seq, generation), (1, 3));
        assert_states_equal(&state, &restored);
    }

    #[test]
    fn newer_sequence_wins_across_slots() {
        let (layout, mut dev) = layout_and_dev();
        write_snapshot(&mut dev, &layout, &sample_state(5), 4, 1).unwrap(); // slot 0
        write_snapshot(&mut dev, &layout, &sample_state(9), 5, 2).unwrap(); // slot 1
        let (seq, generation, state) = read_latest(&mut dev, &layout).unwrap();
        assert_eq!((seq, generation), (5, 2));
        assert_eq!(state.inodes.len(), 10); // 9 files + root
                                            // Writing seq 6 goes back to slot 0, atomically replacing seq 4.
        write_snapshot(&mut dev, &layout, &sample_state(2), 6, 3).unwrap();
        let (seq, _, state) = read_latest(&mut dev, &layout).unwrap();
        assert_eq!(seq, 6);
        assert_eq!(state.inodes.len(), 3);
    }

    #[test]
    fn encoding_is_each_section_behind_its_length() {
        let state = sample_state(5);
        let mut want = state.op_counter.to_le_bytes().to_vec();
        for section in [
            state.inodes.encode(),
            state.pool.encode(),
            state.btree.encode(),
        ] {
            want.extend_from_slice(&(section.len() as u64).to_le_bytes());
            want.extend_from_slice(&section);
        }
        let got = state.encode();
        assert_eq!(got, want);
        assert_eq!(got.capacity(), got.len(), "sized exactly");
    }

    #[test]
    fn empty_device_has_no_snapshot() {
        let (layout, mut dev) = layout_and_dev();
        assert!(read_latest(&mut dev, &layout).is_none());
    }

    #[test]
    fn torn_snapshot_falls_back_to_previous() {
        let (layout, mut dev) = layout_and_dev();
        write_snapshot(&mut dev, &layout, &sample_state(3), 2, 1).unwrap(); // slot 0
                                                                            // Simulate a crash mid-write of seq 3 (slot 1): payload written,
                                                                            // header half-written (header region stays garbage/zero).
        let state = sample_state(8);
        let payload = state.encode();
        dev.write_at(
            layout.snapshot_offset + layout.snapshot_slot_size + HEADER_LEN,
            &payload,
        )
        .unwrap();
        let (seq, _, restored) = read_latest(&mut dev, &layout).unwrap();
        assert_eq!(seq, 2);
        assert_eq!(restored.inodes.len(), 4);
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let (layout, mut dev) = layout_and_dev();
        write_snapshot(&mut dev, &layout, &sample_state(3), 2, 1).unwrap();
        // Flip a payload byte in slot 0.
        let off = layout.snapshot_offset + HEADER_LEN + 5;
        let b = dev.read_vec(off, 1).unwrap()[0];
        dev.write_at(off, &[b ^ 0xFF]).unwrap();
        assert!(read_latest(&mut dev, &layout).is_none());
    }

    #[test]
    fn oversized_snapshot_rejected() {
        let layout = Layout {
            snapshot_slot_size: 64,
            ..Layout::compute(64 << 20, 32 << 10).unwrap()
        };
        let mut dev = MemDevice::new(64 << 20);
        let err = write_snapshot(&mut dev, &layout, &sample_state(100), 0, 0).unwrap_err();
        assert!(matches!(err, FsError::Io(_)));
    }

    #[test]
    fn restored_allocators_behave_identically() {
        let (layout, mut dev) = layout_and_dev();
        let mut state = sample_state(20);
        write_snapshot(&mut dev, &layout, &state, 1, 0).unwrap();
        let (_, _, mut restored) = read_latest(&mut dev, &layout).unwrap();
        // Replay determinism: identical future allocations.
        for _ in 0..10 {
            assert_eq!(state.pool.alloc().ok(), restored.pool.alloc().ok());
            assert_eq!(
                state.inodes.alloc(Inode::new_file(0, 0, 0)),
                restored.inodes.alloc(Inode::new_file(0, 0, 0))
            );
        }
    }
}
