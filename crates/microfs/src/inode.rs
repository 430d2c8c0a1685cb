//! Inodes and the DRAM inode table.
//!
//! §III-E: microfs borrows "conventional filesystem concepts... such as
//! *inodes* to store file metadata and *directory files* to store directory
//! entries", but keeps them entirely in compute-node DRAM — only the
//! operation log (and periodic snapshots) touch the device.

use crate::error::FsError;

/// Inode number. The root directory is always inode 0.
pub type Ino = u64;

/// Root directory inode number.
pub const ROOT_INO: Ino = 0;

/// File type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file.
    File,
    /// Directory (its data blocks hold dirent records).
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

    /// Parse from `bytes[pos..]`, advancing `pos`.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<Inode, FsError> {
        let need = |p: usize, n: usize| match p.checked_add(n) {
            Some(end) if end <= bytes.len() => Ok(()),
            _ => Err(FsError::Io("inode truncated".into())),
        };
        need(*pos, 1 + 8 + 4 + 4 + 8 + 8)?;
        let kind = match bytes[*pos] {
            0 => InodeKind::File,
            1 => InodeKind::Dir,
            k => return Err(FsError::Io(format!("bad inode kind {k}"))),
        };
        *pos += 1;
        let rd64 = |p: &mut usize| {
            let v = u64::from_le_bytes(bytes[*p..*p + 8].try_into().unwrap());
            *p += 8;
            v
        };
        let rd32 = |p: &mut usize| {
            let v = u32::from_le_bytes(bytes[*p..*p + 4].try_into().unwrap());
            *p += 4;
            v
        };
        let size = rd64(pos);
        let mode = rd32(pos);
        let uid = rd32(pos);
        let mtime_op = rd64(pos);
        let nblocks = rd64(pos) as usize;
        need(*pos, nblocks.saturating_mul(8))?;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            blocks.push(rd64(pos));
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

    /// Deserialize; inverse of [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<(InodeTable, usize), FsError> {
        if bytes.len() < 8 {
            return Err(FsError::Io("inode table truncated".into()));
        }
        let n = u64::from_le_bytes(bytes[0..8].try_into().unwrap()) as usize;
        let mut pos = 8;
        // Every slot takes at least its tag byte: the bytes present bound
        // the preallocation, whatever count the device claims.
        let mut slots = Vec::with_capacity(n.min(bytes.len() - pos));
        let mut live = 0;
        for _ in 0..n {
            if bytes.len() < pos + 1 {
                return Err(FsError::Io("inode table truncated".into()));
            }
            let tag = bytes[pos];
            pos += 1;
            match tag {
                0 => slots.push(None),
                1 => {
                    slots.push(Some(Inode::decode(bytes, &mut pos)?));
                    live += 1;
                }
                t => return Err(FsError::Io(format!("bad inode slot tag {t}"))),
            }
        }
        if bytes.len() < pos + 8 {
            return Err(FsError::Io("inode free list truncated".into()));
        }
        let nf = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
        let end = nf
            .checked_mul(8)
            .and_then(|b| b.checked_add(pos))
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| FsError::Io("inode free list truncated".into()))?;
        let free = bytes[pos..end]
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        Ok((InodeTable { slots, free, live }, end))
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
        let c = t.alloc(Inode::new_file(0o644, 0, 2));
        assert_eq!((a, b, c), (0, 1, 2));
        t.remove(b).unwrap();
        // LIFO reuse: next alloc takes the most recently freed number.
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
        let mut pos = 0;
        let j = Inode::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(i, j);
    }

    #[test]
    fn decode_rejects_counts_larger_than_the_payload() {
        // CRC-clean payloads whose counts wrap `usize` once scaled must be
        // errors, not capacity or overflow panics.
        let huge = (u64::MAX / 8 + 1).to_le_bytes();
        // Slot count.
        let mut slots = huge.to_vec();
        slots.push(0);
        assert!(InodeTable::decode(&slots).is_err());
        // Free-list count after an empty slot array.
        let mut free = 0u64.to_le_bytes().to_vec();
        free.extend_from_slice(&huge);
        free.extend_from_slice(&[0u8; 8]);
        assert!(InodeTable::decode(&free).is_err());
        // An inode's block count.
        let mut inode = Vec::new();
        Inode::new_file(0o644, 0, 0).encode(&mut inode);
        let at = inode.len() - 8;
        inode[at..].copy_from_slice(&huge);
        inode.extend_from_slice(&[0u8; 8]);
        assert!(Inode::decode(&inode, &mut 0).is_err());
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
