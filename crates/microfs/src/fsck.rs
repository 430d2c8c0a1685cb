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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::block::BlockDevice;
use crate::dirent::Dirent;
use crate::error::FsError;
use crate::inode::{InodeKind, ROOT_INO};
use crate::layout::Layout;
use crate::snapshot;
use crate::wal::{LogRecord, LogScan, Wal};

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
    let layout = Layout::read_superblock(dev)?;
    let (_seq, generation, mut state) = snapshot::read_latest(dev, &layout)
        .ok_or_else(|| FsError::Io("no valid snapshot".into()))?;
    let log = Wal::scan(dev, layout.log_offset, layout.log_size, generation)?;
    let replayed = log.len() as u64;
    replay_into(&mut state, &log, &layout)?;

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
    // One walk of the name index, in key order. Each lookup is a map
    // probe (the index by path, the inode table by number), and each path
    // is grouped under its parent's prefix (`/` or `dir/`); keys under
    // one prefix sort by their last name, so every group is in name order.
    let mut reachable = vec![false; live.last().map_or(0, |&(ino, _)| ino as usize + 1)];
    let mut children: HashMap<&str, Vec<(&str, u64)>> = HashMap::new();
    let mut dirs = Vec::new();
    // The last parent looked up and whether it is a directory: siblings
    // are adjacent in key order, so most paths reuse it.
    let mut last_parent: Option<(&str, bool)> = None;
    for (path, ino) in state.btree.iter() {
        if let Some(slash) = path.rfind('/') {
            let (prefix, name) = path.split_at(slash + 1);
            if !name.is_empty() {
                children.entry(prefix).or_default().push((name, ino));
            }
        }
        let Ok(node) = state.inodes.get(ino) else {
            issues.push(FsckIssue::DanglingPath {
                path: path.to_string(),
            });
            continue;
        };
        if let Some(seen) = reachable.get_mut(ino as usize) {
            *seen = true;
        }
        if node.kind == InodeKind::Dir {
            dirs.push((path, node));
        }
        if path != "/" {
            let parent = split_path(path).map_or("", |(parent, _)| parent);
            let parent_is_dir = match last_parent {
                Some((last, is_dir)) if last == parent => is_dir,
                _ => {
                    let is_dir = state.btree.get(parent).is_some_and(|pi| {
                        state.inodes.get(pi).is_ok_and(|p| p.kind == InodeKind::Dir)
                    });
                    last_parent = Some((parent, is_dir));
                    is_dir
                }
            };
            if !parent_is_dir {
                issues.push(FsckIssue::BadParent {
                    path: path.to_string(),
                });
            }
        }
    }
    for &(ino, _) in &live {
        if !reachable.get(ino as usize).is_some_and(|&seen| seen) && ino != ROOT_INO {
            issues.push(FsckIssue::OrphanInode { ino });
        }
    }
    // --- Directory files vs B+Tree ---
    for (path, node) in dirs {
        let mut raw = vec![0u8; node.size as usize];
        read_file(dev, &layout, node, &mut raw)?;
        let mut on_device = Dirent::replay_stream(&raw, raw.len())?;
        on_device.sort_unstable();
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let expected = children.get(prefix.as_str()).map_or(&[][..], Vec::as_slice);
        let same = on_device.len() == expected.len()
            && on_device
                .iter()
                .zip(expected)
                .all(|((name, ino), (want, want_ino))| name == want && ino == want_ino);
        if !same {
            issues.push(FsckIssue::DirentMismatch {
                dir: path.to_string(),
            });
        }
    }
    Ok(FsckReport {
        issues,
        inodes: live.len() as u64,
        paths: state.btree.len() as u64,
        replayed,
    })
}

fn replay_into(
    state: &mut snapshot::FsState,
    log: &LogScan,
    layout: &Layout,
) -> Result<(), FsError> {
    // Metadata-only replay mirroring fs.rs (no device writes needed for
    // consistency checking, but allocations must match exactly).
    use crate::inode::Inode;
    let bs = layout.block_size;
    for rec in log.records() {
        let rec = rec?;
        match &rec {
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
                if let Some((parent, name)) = split_path(path) {
                    append_dirent(state, parent, Dirent::Add { name, ino }, bs)?;
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
                    let Some((parent, name)) = split_path(path) else {
                        continue;
                    };
                    append_dirent(state, parent, Dirent::Remove { name }, bs)?;
                    let node = state.inodes.remove(ino)?;
                    state.pool.free_many(&node.blocks);
                    state.btree.remove(path);
                }
            }
            LogRecord::Rename { from, to } => {
                if let Some(ino) = state.btree.get(from) {
                    // Remove-tombstone on from's parent, add on to's.
                    if let Some((parent, name)) = split_path(from) {
                        append_dirent(state, parent, Dirent::Remove { name }, bs)?;
                    }
                    if let Some((parent, name)) = split_path(to) {
                        append_dirent(state, parent, Dirent::Add { name, ino }, bs)?;
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

/// A path's parent directory and final component; `None` for a path
/// without `/`.
fn split_path(path: &str) -> Option<(&str, &str)> {
    let (parent, name) = path.rsplit_once('/')?;
    Some((if parent.is_empty() { "/" } else { parent }, name))
}

/// Extend `parent`'s directory file by one dirent record, as the live
/// file system's append does.
fn append_dirent(
    state: &mut snapshot::FsState,
    parent: &str,
    rec: Dirent<&str>,
    bs: u64,
) -> Result<(), FsError> {
    match state.btree.get(parent) {
        Some(pino) => extend(state, pino, rec.encoded_len() as u64, bs),
        None => Ok(()),
    }
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
