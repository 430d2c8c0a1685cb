//! Offline consistency checker (`fsck.microfs`).
//!
//! Mounts nothing and trusts nothing: reads the superblock, snapshot, and
//! log from the device, reconstructs the metadata exactly as recovery
//! would, and then cross-checks every invariant the runtime relies on:
//!
//! * block ownership: every inode's hugeblocks are in-range, owned by
//!   exactly one inode, and absent from the free pool;
//! * pool conservation: free + owned = data-region blocks;
//! * namespace: every B+Tree path resolves to a live inode, every live
//!   inode is reachable, parents of every path exist and are directories;
//! * directory files: the device-resident dirent streams parse and agree
//!   with the B+Tree's children.
//!
//! The checker is how the test suite proves that crash schedules can't
//! corrupt a partition silently — after any recovery, `fsck` must be clean.

use std::collections::{BTreeMap, BTreeSet};

use crate::block::BlockDevice;
use crate::dirent::Dirent;
use crate::error::FsError;
use crate::inode::{InodeKind, ROOT_INO};
use crate::layout::{Layout, SUPERBLOCK_LEN};
use crate::snapshot;
use crate::wal::{LogRecord, Wal};

/// One consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckIssue {
    /// A block index outside the data region.
    BlockOutOfRange {
        /// Owning inode.
        ino: u64,
        /// The offending block.
        block: u64,
    },
    /// A block owned by two inodes.
    DoubleOwnedBlock {
        /// The block.
        block: u64,
        /// First owner.
        first: u64,
        /// Second owner.
        second: u64,
    },
    /// A block both owned and on the free list.
    OwnedAndFree {
        /// The block.
        block: u64,
        /// Its inode.
        ino: u64,
    },
    /// Free + owned does not cover the data region.
    PoolLeak {
        /// Blocks neither owned nor free.
        missing: u64,
    },
    /// A B+Tree path maps to a dead inode.
    DanglingPath {
        /// The path.
        path: String,
    },
    /// A live inode unreachable from any path.
    OrphanInode {
        /// The inode.
        ino: u64,
    },
    /// A path whose parent is missing or not a directory.
    BadParent {
        /// The path.
        path: String,
    },
    /// A directory file's on-device entries disagree with the B+Tree.
    DirentMismatch {
        /// The directory path.
        dir: String,
    },
    /// The partition could not even be loaded.
    Unreadable(String),
}

/// Result of a check.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// All violations found (empty = clean).
    pub issues: Vec<FsckIssue>,
    /// Inodes examined.
    pub inodes: u64,
    /// Paths examined.
    pub paths: u64,
    /// Log records replayed to reach the checked state.
    pub replayed: u64,
}

impl FsckReport {
    /// Whether the partition is consistent.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Check the partition on `dev` without mutating it.
pub fn check<D: BlockDevice>(dev: &mut D) -> FsckReport {
    match check_inner(dev) {
        Ok(r) => r,
        Err(e) => FsckReport {
            issues: vec![FsckIssue::Unreadable(e.to_string())],
            inodes: 0,
            paths: 0,
            replayed: 0,
        },
    }
}

fn check_inner<D: BlockDevice>(dev: &mut D) -> Result<FsckReport, FsError> {
    // Reconstruct state exactly as mount() would, via a scratch MicroFs.
    // We re-derive rather than importing fs.rs internals so the checker
    // stays an independent witness of the on-device format.
    let sb = dev
        .read_vec(0, SUPERBLOCK_LEN as usize)
        .map_err(|e| FsError::Io(e.to_string()))?;
    let layout = Layout::decode_superblock(&sb)?;
    let (_seq, generation, mut state) = snapshot::read_latest(dev, &layout)
        .ok_or_else(|| FsError::Io("no valid snapshot".into()))?;
    let (records, _) = Wal::scan(dev, layout.log_offset, layout.log_size, generation)?;
    let replayed = records.len() as u64;
    replay_into(&mut state, &records, &layout)?;

    let mut issues = Vec::new();
    // --- Block ownership ---
    let mut owner: BTreeMap<u64, u64> = BTreeMap::new();
    let live: Vec<(u64, &crate::inode::Inode)> = state.inodes.iter().collect();
    for (ino, node) in &live {
        for &b in &node.blocks {
            if b >= layout.data_blocks {
                issues.push(FsckIssue::BlockOutOfRange {
                    ino: *ino,
                    block: b,
                });
                continue;
            }
            if let Some(&first) = owner.get(&b) {
                issues.push(FsckIssue::DoubleOwnedBlock {
                    block: b,
                    first,
                    second: *ino,
                });
            } else {
                owner.insert(b, *ino);
            }
        }
    }
    // --- Pool conservation ---
    let mut free = BTreeSet::new();
    {
        // Draining a copy of the ring enumerates the free blocks.
        let mut p = state.pool.clone();
        while let Ok(b) = p.alloc() {
            free.insert(b);
        }
    }
    for (&b, &ino) in &owner {
        if free.contains(&b) {
            issues.push(FsckIssue::OwnedAndFree { block: b, ino });
        }
    }
    let covered = owner.len() as u64 + free.len() as u64;
    if covered < layout.data_blocks {
        issues.push(FsckIssue::PoolLeak {
            missing: layout.data_blocks - covered,
        });
    }
    // --- Namespace ---
    let live_inos: BTreeSet<u64> = live.iter().map(|(i, _)| *i).collect();
    let entries = state.btree.entries();
    let path_set: BTreeSet<&str> = entries.iter().map(|(p, _)| p.as_str()).collect();
    let mut reachable: BTreeSet<u64> = BTreeSet::new();
    for (path, ino) in &entries {
        if !live_inos.contains(ino) {
            issues.push(FsckIssue::DanglingPath { path: path.clone() });
            continue;
        }
        reachable.insert(*ino);
        if path != "/" {
            let parent = match path.rfind('/') {
                Some(0) => "/",
                Some(i) => &path[..i],
                None => "",
            };
            let parent_ok = path_set.contains(parent)
                && entries
                    .iter()
                    .find(|(p, _)| p == parent)
                    .map(|(_, pi)| {
                        live.iter()
                            .find(|(i, _)| i == pi)
                            .map(|(_, n)| n.kind == InodeKind::Dir)
                            .unwrap_or(false)
                    })
                    .unwrap_or(false);
            if !parent_ok {
                issues.push(FsckIssue::BadParent { path: path.clone() });
            }
        }
    }
    for &ino in &live_inos {
        if !reachable.contains(&ino) && ino != ROOT_INO {
            issues.push(FsckIssue::OrphanInode { ino });
        }
    }
    // --- Directory files vs B+Tree ---
    for (path, ino) in &entries {
        let Some((_, node)) = live.iter().find(|(i, _)| i == ino) else {
            continue;
        };
        if node.kind != InodeKind::Dir {
            continue;
        }
        let mut raw = vec![0u8; node.size as usize];
        read_file(dev, &layout, node, &mut raw)?;
        let mut on_device = Dirent::replay_stream(&raw, raw.len())?;
        on_device.sort();
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut expected: Vec<(String, u64)> = entries
            .iter()
            .filter(|(p, _)| {
                p.starts_with(&prefix) && p.len() > prefix.len() && !p[prefix.len()..].contains('/')
            })
            .map(|(p, i)| (p[prefix.len()..].to_string(), *i))
            .collect();
        expected.sort();
        if on_device != expected {
            issues.push(FsckIssue::DirentMismatch { dir: path.clone() });
        }
    }
    Ok(FsckReport {
        issues,
        inodes: live.len() as u64,
        paths: entries.len() as u64,
        replayed,
    })
}

fn replay_into(
    state: &mut snapshot::FsState,
    records: &[LogRecord],
    layout: &Layout,
) -> Result<(), FsError> {
    // Metadata-only replay mirroring fs.rs (no device writes needed for
    // consistency checking, but allocations must match exactly).
    use crate::inode::Inode;
    let bs = layout.block_size;
    for rec in records {
        match rec {
            LogRecord::Mkdir { path, mode, uid } | LogRecord::Create { path, mode, uid } => {
                let op = state.op_counter;
                state.op_counter += 1;
                let is_dir = matches!(rec, LogRecord::Mkdir { .. });
                let node = if is_dir {
                    Inode::new_dir(*mode, *uid, op)
                } else {
                    Inode::new_file(*mode, *uid, op)
                };
                let ino = state.inodes.alloc(node);
                state.btree.insert(path, ino);
                // The dirent append extends the parent directory file.
                let parent = match path.rfind('/') {
                    Some(0) => "/".to_string(),
                    Some(i) => path[..i].to_string(),
                    None => continue,
                };
                let name_len = path.len() - path.rfind('/').unwrap() - 1;
                let rec_len = (1 + 2 + name_len + 8) as u64;
                if let Some(pino) = state.btree.get(&parent) {
                    extend(state, pino, rec_len, bs)?;
                }
            }
            LogRecord::Write { ino, offset, len } => {
                let end = offset + len;
                let needed = end.div_ceil(bs);
                let have = state.inodes.get(*ino)?.blocks.len() as u64;
                if needed > have {
                    let fresh = state.pool.alloc_many(needed - have)?;
                    state.inodes.get_mut(*ino)?.blocks.extend_from_slice(&fresh);
                }
                let node = state.inodes.get_mut(*ino)?;
                node.size = node.size.max(end);
            }
            LogRecord::Truncate { ino, size } => {
                let node_size = state.inodes.get(*ino)?.size;
                if *size > node_size {
                    let needed = size.div_ceil(bs);
                    let have = state.inodes.get(*ino)?.blocks.len() as u64;
                    if needed > have {
                        let fresh = state.pool.alloc_many(needed - have)?;
                        state.inodes.get_mut(*ino)?.blocks.extend_from_slice(&fresh);
                    }
                    state.inodes.get_mut(*ino)?.size = *size;
                } else {
                    let keep = size.div_ceil(bs) as usize;
                    let node = state.inodes.get_mut(*ino)?;
                    if node.blocks.len() > keep {
                        let released: Vec<u64> = node.blocks.split_off(keep);
                        state.pool.free_many(&released);
                    }
                    state.inodes.get_mut(*ino)?.size = *size;
                }
            }
            LogRecord::Unlink { path } => {
                if let Some(ino) = state.btree.get(path) {
                    // Tombstone append on the parent.
                    let parent = match path.rfind('/') {
                        Some(0) => "/".to_string(),
                        Some(i) => path[..i].to_string(),
                        None => continue,
                    };
                    let name_len = path.len() - path.rfind('/').unwrap() - 1;
                    let rec_len = (1 + 2 + name_len) as u64;
                    if let Some(pino) = state.btree.get(&parent) {
                        extend(state, pino, rec_len, bs)?;
                    }
                    let node = state.inodes.remove(ino)?;
                    state.pool.free_many(&node.blocks);
                    state.btree.remove(path);
                }
            }
            LogRecord::Rename { from, to } => {
                if let Some(ino) = state.btree.get(from) {
                    // Remove-tombstone on from's parent, add on to's.
                    for (p, extra) in [(from.clone(), 0u64), (to.clone(), 8u64)] {
                        let parent = match p.rfind('/') {
                            Some(0) => "/".to_string(),
                            Some(i) => p[..i].to_string(),
                            None => continue,
                        };
                        let name_len = p.len() - p.rfind('/').unwrap() - 1;
                        let rec_len = (1 + 2 + name_len) as u64 + extra;
                        if let Some(pino) = state.btree.get(&parent) {
                            extend(state, pino, rec_len, bs)?;
                        }
                    }
                    state.btree.remove(from);
                    state.btree.insert(to, ino);
                    let is_dir = state.inodes.get(ino)?.kind == InodeKind::Dir;
                    if is_dir {
                        let prefix = format!("{from}/");
                        for (old, sub) in state.btree.entries_with_prefix(&prefix) {
                            let newp = format!("{to}/{}", &old[prefix.len()..]);
                            state.btree.remove(&old);
                            state.btree.insert(&newp, sub);
                        }
                    }
                }
            }
            LogRecord::SetMode { ino, mode } => {
                state.inodes.get_mut(*ino)?.mode = *mode;
            }
        }
    }
    Ok(())
}

fn extend(state: &mut snapshot::FsState, ino: u64, len: u64, bs: u64) -> Result<(), FsError> {
    let offset = state.inodes.get(ino)?.size;
    let end = offset + len;
    let needed = end.div_ceil(bs);
    let have = state.inodes.get(ino)?.blocks.len() as u64;
    if needed > have {
        let fresh = state.pool.alloc_many(needed - have)?;
        state.inodes.get_mut(ino)?.blocks.extend_from_slice(&fresh);
    }
    let node = state.inodes.get_mut(ino)?;
    node.size = node.size.max(end);
    state.op_counter += 1;
    Ok(())
}

fn read_file<D: BlockDevice>(
    dev: &mut D,
    layout: &Layout,
    node: &crate::inode::Inode,
    buf: &mut [u8],
) -> Result<(), FsError> {
    let bs = layout.block_size;
    let mut pos = 0u64;
    let n = buf.len() as u64;
    while pos < n {
        let bi = pos / bs;
        let within = pos % bs;
        let take = (bs - within).min(n - pos);
        let blk = *node
            .blocks
            .get(bi as usize)
            .ok_or_else(|| FsError::Io("unmapped block in dir file".into()))?;
        dev.read_at(
            layout.block_addr(blk) + within,
            &mut buf[pos as usize..(pos + take) as usize],
        )
        .map_err(|e| FsError::Io(e.to_string()))?;
        pos += take;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDevice;
    use crate::fs::{FsConfig, MicroFs};
    use crate::OpenFlags;

    fn busy_fs() -> MicroFs<MemDevice> {
        let mut fs = MicroFs::format(MemDevice::new(64 << 20), FsConfig::default()).unwrap();
        fs.mkdir("/a", 0o755).unwrap();
        fs.mkdir("/a/b", 0o755).unwrap();
        for i in 0..10 {
            let fd = fs.create(&format!("/a/b/f{i}"), 0o644).unwrap();
            fs.write(fd, &vec![i as u8; 40_000]).unwrap();
            fs.close(fd).unwrap();
        }
        fs.unlink("/a/b/f3").unwrap();
        fs.rename("/a/b/f4", "/a/moved").unwrap();
        fs.truncate("/a/b/f5", 10).unwrap();
        fs.chmod("/a/b/f6", 0o400).unwrap();
        fs
    }

    #[test]
    fn clean_partition_passes() {
        let dev = busy_fs().into_device();
        let mut dev = dev;
        let report = check(&mut dev);
        assert!(report.is_clean(), "issues: {:?}", report.issues);
        assert!(report.inodes >= 10);
        assert!(report.paths >= 11);
        assert!(report.replayed > 0);
    }

    #[test]
    fn clean_after_snapshot_too() {
        let mut fs = busy_fs();
        fs.snapshot_now().unwrap();
        let fd = fs.create("/late", 0o644).unwrap();
        fs.write(fd, &[1u8; 100]).unwrap();
        fs.close(fd).unwrap();
        let mut dev = fs.into_device();
        let report = check(&mut dev);
        assert!(report.is_clean(), "issues: {:?}", report.issues);
    }

    #[test]
    fn blank_device_reports_unreadable() {
        let mut dev = MemDevice::new(1 << 20);
        let report = check(&mut dev);
        assert!(!report.is_clean());
        assert!(matches!(report.issues[0], FsckIssue::Unreadable(_)));
    }

    #[test]
    fn corrupted_dirent_stream_is_detected() {
        let mut fs = busy_fs();
        // Locate the root directory file's first block and clobber it.
        fs.snapshot_now().unwrap(); // make state easily reloadable
        let layout = *fs.layout();
        let mut dev = fs.into_device();
        let (_, _, state) = snapshot::read_latest(&mut dev, &layout).unwrap();
        let root = state.inodes.get(ROOT_INO).unwrap();
        let addr = layout.block_addr(root.blocks[0]);
        dev.write_at(addr, &[0xFF; 64]).unwrap();
        let report = check(&mut dev);
        assert!(
            report.issues.iter().any(|i| matches!(
                i,
                FsckIssue::DirentMismatch { .. } | FsckIssue::Unreadable(_)
            )),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn fsck_clean_after_crash_recovery_cycles() {
        // The invariant the checker exists for: any crash schedule leaves
        // a partition fsck declares clean.
        let mut fs = busy_fs();
        for round in 0..3 {
            let fd = fs.create(&format!("/round{round}"), 0o644).unwrap();
            fs.write(fd, &[round as u8; 50_000]).unwrap();
            // Crash without close on odd rounds.
            if round % 2 == 0 {
                fs.close(fd).unwrap();
            }
            let dev = fs.into_device();
            let mut dev2 = dev.clone();
            let report = check(&mut dev2);
            assert!(report.is_clean(), "round {round}: {:?}", report.issues);
            fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        }
        let _ = fs.open("/round0", OpenFlags::RDONLY, 0).unwrap();
    }
}
