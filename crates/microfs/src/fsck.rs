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
//!   inode is reachable, parents of every path exist and are directories.
//!
//! Directories own no blocks: the log is the namespace's only on-device
//! record, so the checker's own replay of it is the witness.
//!
//! The checker is how the test suite proves that crash schedules can't
//! corrupt a partition silently — after any recovery, `fsck` must be clean.

use std::collections::BTreeMap;

use crate::block::{BlockDevice, BlockPool};
use crate::cow::IntervalSet;
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
    check_pool(&state.pool, &owner, layout.data_blocks, &mut issues);
    // --- Namespace ---
    // One walk of the name index, in key order. Each lookup is a map
    // probe (the index by path, the inode table by number).
    let mut reachable = vec![false; live.last().map_or(0, |&(ino, _)| ino as usize + 1)];
    // The last parent looked up and whether it is a directory: siblings
    // are adjacent in key order, so most paths reuse it.
    let mut last_parent: Option<(&str, bool)> = None;
    for (path, ino) in state.btree.iter() {
        if state.inodes.get(ino).is_err() {
            issues.push(FsckIssue::DanglingPath {
                path: path.to_string(),
            });
            continue;
        }
        if let Some(seen) = reachable.get_mut(ino as usize) {
            *seen = true;
        }
        if path != "/" {
            let parent = parent_of(path).unwrap_or("");
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
    Ok(FsckReport {
        issues,
        inodes: live.len() as u64,
        paths: state.btree.len() as u64,
        replayed,
    })
}

/// Pool conservation: no owned block is free, and owned plus free blocks
/// cover the data region. The ring's runs are unioned first, so a block
/// the ring lists twice counts once.
fn check_pool(
    pool: &BlockPool,
    owner: &BTreeMap<u64, u64>,
    data_blocks: u64,
    issues: &mut Vec<FsckIssue>,
) {
    let mut free = IntervalSet::new();
    let free_blocks: u64 = pool
        .free_runs()
        .map(|(start, end)| free.insert(start, end))
        .sum();
    for (&block, &ino) in owner {
        if free.covers(block, block + 1) {
            issues.push(FsckIssue::OwnedAndFree { block, ino });
        }
    }
    let covered = owner.len() as u64 + free_blocks;
    if covered < data_blocks {
        issues.push(FsckIssue::PoolLeak {
            missing: data_blocks - covered,
        });
    }
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
                    let node = state.inodes.remove(ino)?;
                    state.pool.free_many(&node.blocks);
                    state.btree.remove(path);
                }
            }
            LogRecord::Rename { from, to } => {
                if let Some(ino) = state.btree.get(from) {
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

/// A path's parent directory; `None` for a path without `/`.
fn parent_of(path: &str) -> Option<&str> {
    let (parent, _) = path.rsplit_once('/')?;
    Some(if parent.is_empty() { "/" } else { parent })
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

    /// The issues `check` reports once `corrupt` has edited a clean
    /// state, written as a newer snapshot over an empty log.
    fn issues_after(corrupt: impl FnOnce(&mut snapshot::FsState)) -> Vec<FsckIssue> {
        let fs = busy_fs();
        let layout = *fs.layout();
        let mut dev = fs.into_device();
        let (seq, generation, mut state) = snapshot::read_latest(&mut dev, &layout).unwrap();
        replay_into(
            &mut state,
            &Wal::scan(&mut dev, layout.log_offset, layout.log_size, generation).unwrap(),
            &layout,
        )
        .unwrap();
        corrupt(&mut state);
        snapshot::write_snapshot(&mut dev, &layout, &state, seq + 1, generation + 1).unwrap();
        check(&mut dev).issues
    }

    /// Assert that `check` reports an issue `want` accepts once `corrupt`
    /// has edited a clean state.
    fn fires(want: fn(&FsckIssue) -> bool, corrupt: impl FnOnce(&mut snapshot::FsState)) {
        let issues = issues_after(corrupt);
        assert!(issues.iter().any(want), "issues: {issues:?}");
    }

    fn ino_of(state: &snapshot::FsState, path: &str) -> u64 {
        state.btree.get(path).unwrap()
    }

    #[test]
    fn every_issue_kind_fires() {
        assert!(issues_after(|_| ()).is_empty());
        fires(
            |i| matches!(i, FsckIssue::BlockOutOfRange { .. }),
            |st| {
                let ino = ino_of(st, "/a/moved");
                st.inodes.get_mut(ino).unwrap().blocks.push(1 << 40);
            },
        );
        fires(
            |i| matches!(i, FsckIssue::DoubleOwnedBlock { .. }),
            |st| {
                let b = st.inodes.get(ino_of(st, "/a/b/f0")).unwrap().blocks[0];
                let ino = ino_of(st, "/a/b/f1");
                st.inodes.get_mut(ino).unwrap().blocks.push(b);
            },
        );
        fires(
            |i| matches!(i, FsckIssue::OwnedAndFree { .. }),
            |st| {
                let b = st.inodes.get(ino_of(st, "/a/b/f0")).unwrap().blocks[0];
                st.pool.free(b);
            },
        );
        fires(
            |i| matches!(i, FsckIssue::PoolLeak { missing: 1 }),
            |st| {
                st.pool.alloc().unwrap();
            },
        );
        fires(
            |i| matches!(i, FsckIssue::DanglingPath { path } if path == "/ghost"),
            |st| {
                st.btree.insert("/ghost", 999);
            },
        );
        fires(
            |i| matches!(i, FsckIssue::OrphanInode { .. }),
            |st| {
                st.inodes
                    .alloc(crate::inode::Inode::new_file(0o644, 1000, 0));
            },
        );
        fires(
            |i| matches!(i, FsckIssue::BadParent { path } if path == "/a/b/f0/x"),
            |st| {
                let ino = ino_of(st, "/a/b/f1");
                st.btree.insert("/a/b/f0/x", ino);
            },
        );
    }

    /// `check_pool` as it was first written: drain a copy of the ring one
    /// `alloc` at a time into a set.
    fn pool_issues_by_drain(
        pool: &BlockPool,
        owner: &BTreeMap<u64, u64>,
        data_blocks: u64,
    ) -> Vec<FsckIssue> {
        let mut free = std::collections::BTreeSet::new();
        let mut p = pool.clone();
        while let Ok(b) = p.alloc() {
            free.insert(b);
        }
        let mut issues: Vec<FsckIssue> = owner
            .iter()
            .filter(|(b, _)| free.contains(*b))
            .map(|(&block, &ino)| FsckIssue::OwnedAndFree { block, ino })
            .collect();
        let covered = owner.len() as u64 + free.len() as u64;
        if covered < data_blocks {
            issues.push(FsckIssue::PoolLeak {
                missing: data_blocks - covered,
            });
        }
        issues
    }

    proptest::proptest! {
        /// The run-wise pool check agrees with draining the ring, also on
        /// rings that list a block twice.
        #[test]
        fn pool_check_matches_the_drain(
            total in 1u32..300,
            runs in proptest::collection::vec((0u32..300, 1u32..80), 0..8),
            owned in proptest::collection::vec((0u64..300, 1u64..50), 0..60),
        ) {
            let runs: Vec<(u32, u32)> = runs
                .into_iter()
                .map(|(start, len)| (start % total, len.min(total - start % total)))
                .collect();
            let pool = BlockPool::from_runs(u64::from(total), &runs);
            let owner: BTreeMap<u64, u64> =
                owned.into_iter().filter(|&(b, _)| b < u64::from(total)).collect();
            let mut issues = Vec::new();
            check_pool(&pool, &owner, u64::from(total), &mut issues);
            proptest::prop_assert_eq!(issues, pool_issues_by_drain(&pool, &owner, u64::from(total)));
        }
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
