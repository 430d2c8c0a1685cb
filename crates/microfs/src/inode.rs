//! Inodes and the DRAM inode table.
//!
//! §III-E: microfs borrows "conventional filesystem concepts... such as
//! *inodes* to store file metadata and *directory files* to store directory
//! entries", but keeps them entirely in compute-node DRAM — only the
//! operation log (and periodic snapshots) touch the device. A directory
//! is an inode whose entries are the name index's paths under it; it
//! owns no blocks.

use crate::error::FsError;
use crate::wire::Reader;

/// Inode number. The root directory is always inode 0.
pub type Ino = u64;

/// Root directory inode number.
pub const ROOT_INO: Ino = 0;

/// File type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file.
    File,
    /// Directory. It owns no blocks: its entries are the name index's
    /// paths under it.
    Dir,
}

/// One inode: metadata plus the hugeblock map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File or directory.
    pub kind: InodeKind,
    /// Logical size in bytes.
    pub size: u64,
    /// Hugeblocks backing the file, in file order (block `i` covers file
    /// bytes `[i * block_size, (i+1) * block_size)`).
    pub blocks: Vec<u64>,
    /// POSIX mode bits (permissions only; type lives in `kind`).
    pub mode: u32,
    /// Owning uid, checked by the control plane's access control (§III-F).
    pub uid: u32,
    /// Logical modification stamp (monotonic operation counter).
    pub mtime_op: u64,
}

impl Inode {
    /// A fresh empty file.
    pub fn new_file(mode: u32, uid: u32, op: u64) -> Self {
        Inode {
            kind: InodeKind::File,
            size: 0,
            blocks: Vec::new(),
            mode,
            uid,
            mtime_op: op,
        }
    }

    /// A fresh empty directory.
    pub fn new_dir(mode: u32, uid: u32, op: u64) -> Self {
        Inode {
            kind: InodeKind::Dir,
            size: 0,
            blocks: Vec::new(),
            mode,
            uid,
            mtime_op: op,
        }
    }

    /// Serialized bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self.kind {
            InodeKind::File => 0,
            InodeKind::Dir => 1,
        });
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.mode.to_le_bytes());
        out.extend_from_slice(&self.uid.to_le_bytes());
        out.extend_from_slice(&self.mtime_op.to_le_bytes());
        out.extend_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        for b in &self.blocks {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }

    /// Parse one inode at the reader's position, advancing it.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode(r: &mut Reader) -> Result<Inode, FsError> {
        let kind = match r.u8()? {
            0 => InodeKind::File,
            1 => InodeKind::Dir,
            k => return Err(FsError::Io(format!("bad inode kind {k}"))),
        };
        let (size, mode, uid, mtime_op) = (r.u64()?, r.u32()?, r.u32()?, r.u64()?);
        let nblocks = r.count(8)?;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            blocks.push(r.u64()?);
        }
        Ok(Inode {
            kind,
            size,
            blocks,
            mode,
            uid,
            mtime_op,
        })
    }

    /// Approximate DRAM footprint.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Inode>() + self.blocks.len() * 8
    }
}

/// The DRAM inode table: a slab with an O(1) free list. Inode numbers are
/// allocated deterministically (most-recently-freed first), which replay
/// relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InodeTable {
    slots: Vec<Option<Inode>>,
    free: Vec<Ino>,
    live: usize,
}

impl InodeTable {
    /// An empty table (no root yet — `MicroFs::format` creates it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live inodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no inodes are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The inode number the next [`alloc`](Self::alloc) hands out.
    pub fn next_ino(&self) -> Ino {
        self.free.last().copied().unwrap_or(self.slots.len() as Ino)
    }

    /// Allocate an inode number for `inode` (most-recently-freed first,
    /// else a fresh slot).
    pub fn alloc(&mut self, inode: Inode) -> Ino {
        self.live += 1;
        if let Some(ino) = self.free.pop() {
            self.slots[ino as usize] = Some(inode);
            ino
        } else {
            self.slots.push(Some(inode));
            (self.slots.len() - 1) as Ino
        }
    }

    /// Fetch an inode.
    pub fn get(&self, ino: Ino) -> Result<&Inode, FsError> {
        self.slots
            .get(ino as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| FsError::Io(format!("dangling inode {ino}")))
    }

    /// Fetch an inode mutably.
    pub fn get_mut(&mut self, ino: Ino) -> Result<&mut Inode, FsError> {
        self.slots
            .get_mut(ino as usize)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| FsError::Io(format!("dangling inode {ino}")))
    }

    /// Free an inode, returning it (the caller releases its blocks).
    pub fn remove(&mut self, ino: Ino) -> Result<Inode, FsError> {
        let slot = self
            .slots
            .get_mut(ino as usize)
            .ok_or_else(|| FsError::Io(format!("dangling inode {ino}")))?;
        let inode = slot
            .take()
            .ok_or_else(|| FsError::Io(format!("dangling inode {ino}")))?;
        self.free.push(ino);
        self.live -= 1;
        Ok(inode)
    }

    /// Approximate DRAM footprint (Table I accounting).
    pub fn approx_bytes(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(Inode::approx_bytes)
            .sum::<usize>()
            + self.free.len() * 8
    }

    /// Serialize the whole table (slots, including holes, plus free list —
    /// the free-list order is allocator state, like the block pool's ring).
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&(self.slots.len() as u64).to_le_bytes());
        for slot in &self.slots {
            match slot {
                Some(inode) => {
                    v.push(1);
                    inode.encode(&mut v);
                }
                None => v.push(0),
            }
        }
        v.extend_from_slice(&(self.free.len() as u64).to_le_bytes());
        for f in &self.free {
            v.extend_from_slice(&f.to_le_bytes());
        }
        v
    }

    /// Deserialize; inverse of [`encode`](Self::encode). Returns the
    /// table and the bytes consumed.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode(bytes: &[u8]) -> Result<(InodeTable, usize), FsError> {
        let mut r = Reader::new(bytes);
        // Every slot takes at least its tag byte.
        let n = r.count(1)?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(match r.u8()? {
                0 => None,
                1 => Some(Inode::decode(&mut r)?),
                t => return Err(FsError::Io(format!("bad inode slot tag {t}"))),
            });
        }
        let live = slots.iter().flatten().count();
        let nf = r.count(8)?;
        let mut free = Vec::with_capacity(nf);
        for _ in 0..nf {
            free.push(r.u64()?);
        }
        Ok((InodeTable { slots, free, live }, r.position()))
    }

    /// Live inodes in inode-number order.
    pub fn iter(&self) -> impl Iterator<Item = (Ino, &Inode)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(ino, slot)| slot.as_ref().map(|inode| (ino as Ino, inode)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_reuses_freed_numbers_deterministically() {
        let mut t = InodeTable::new();
        let a = t.alloc(Inode::new_dir(0o755, 0, 0));
        let b = t.alloc(Inode::new_file(0o644, 0, 1));
        assert_eq!(t.next_ino(), 2);
        let c = t.alloc(Inode::new_file(0o644, 0, 2));
        assert_eq!((a, b, c), (0, 1, 2));
        t.remove(b).unwrap();
        // LIFO reuse: next alloc takes the most recently freed number.
        assert_eq!(t.next_ino(), 1);
        assert_eq!(t.alloc(Inode::new_file(0o600, 0, 3)), 1);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = InodeTable::new();
        let ino = t.alloc(Inode::new_file(0o644, 42, 0));
        {
            let i = t.get_mut(ino).unwrap();
            i.size = 1024;
            i.blocks.push(7);
        }
        let i = t.get(ino).unwrap();
        assert_eq!(i.size, 1024);
        assert_eq!(i.blocks, vec![7]);
        assert_eq!(i.uid, 42);
    }

    #[test]
    fn dangling_access_is_an_error() {
        let mut t = InodeTable::new();
        let ino = t.alloc(Inode::new_file(0, 0, 0));
        t.remove(ino).unwrap();
        assert!(t.get(ino).is_err());
        assert!(t.get_mut(ino).is_err());
        assert!(t.remove(ino).is_err());
        assert!(t.get(999).is_err());
    }

    #[test]
    fn inode_encode_decode() {
        let mut i = Inode::new_file(0o640, 7, 99);
        i.size = 123_456;
        i.blocks = vec![5, 9, 2];
        let mut buf = Vec::new();
        i.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let j = Inode::decode(&mut r).unwrap();
        assert_eq!(r.position(), buf.len());
        assert_eq!(i, j);
    }

    #[test]
    fn table_encode_decode_with_holes() {
        let mut t = InodeTable::new();
        let _r = t.alloc(Inode::new_dir(0o755, 0, 0));
        let f1 = t.alloc(Inode::new_file(0o644, 0, 1));
        let _f2 = t.alloc(Inode::new_file(0o644, 0, 2));
        t.remove(f1).unwrap();
        let bytes = t.encode();
        let (u, consumed) = InodeTable::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(t, u);
        // Allocation determinism survives the round trip.
        let mut t2 = t.clone();
        let mut u2 = u;
        assert_eq!(
            t2.alloc(Inode::new_file(0, 0, 9)),
            u2.alloc(Inode::new_file(0, 0, 9))
        );
    }

    #[test]
    fn corrupt_table_bytes_rejected() {
        let mut t = InodeTable::new();
        t.alloc(Inode::new_file(0o644, 0, 0));
        let bytes = t.encode();
        assert!(InodeTable::decode(&bytes[..4]).is_err());
        let mut bad = bytes.clone();
        bad[8] = 7; // invalid slot tag
        assert!(InodeTable::decode(&bad).is_err());
    }

    proptest! {
        /// The table round-trips through encode/decode after arbitrary
        /// alloc/remove interleavings.
        #[test]
        fn prop_roundtrip(ops in proptest::collection::vec(any::<bool>(), 1..100)) {
            let mut t = InodeTable::new();
            let mut live = Vec::new();
            for (i, alloc) in ops.into_iter().enumerate() {
                if alloc || live.is_empty() {
                    live.push(t.alloc(Inode::new_file(0o644, 0, i as u64)));
                } else {
                    let ino = live.swap_remove(i % live.len());
                    t.remove(ino).unwrap();
                }
            }
            let (u, _) = InodeTable::decode(&t.encode()).unwrap();
            prop_assert_eq!(t, u);
        }
    }
}
