//! # microfs — the paper's coordination-free filesystem abstraction
//!
//! A *micro filesystem* (§III-A) is a per-process, private-namespace,
//! userspace filesystem designed for ephemeral checkpoint data. This crate
//! is a complete, functional implementation operating on real bytes through
//! a [`block::BlockDevice`]; the NVMe-CR runtime instantiates one `MicroFs`
//! per application process over its remote SSD partition.
//!
//! Design principles implemented here, mapped to the paper:
//!
//! | Paper concept | Module |
//! |---|---|
//! | Hugeblocks + circular block pool, O(1) allocation (§III-E) | [`block::pool`] |
//! | DRAM B+Tree of name → inode mappings (§III-E) | [`btree`] |
//! | Inodes, directory files, POSIX-ish API (§III-E) | [`inode`], [`dirent`], [`fs`] |
//! | Metadata provenance: compact operation log (§III-E) | [`wal`] |
//! | Log record coalescing into the last record (§III-E, Fig. 5) | [`wal`] |
//! | Atomic internal-state checkpoint to a reserved region (§III-E) | [`snapshot`] |
//! | Replay recovery, near-instantaneous (§III-E) | [`fs::MicroFs::mount`] |
//! | No write buffering — data durable on return (§III-D) | [`fs`] write path |
//! | Every byte read off the device or the wire is untrusted (§III-E) | [`wire`] |
//!
//! ```
//! use microfs::{FsConfig, MemDevice, MicroFs, OpenFlags};
//!
//! let mut fs = MicroFs::format(MemDevice::new(64 << 20), FsConfig::default()).unwrap();
//! let fd = fs.create("/ckpt.dat", 0o644).unwrap();
//! fs.write(fd, b"application state").unwrap(); // durable on return
//! fs.close(fd).unwrap();
//!
//! // Crash: drop all volatile state, keep the device...
//! let device = fs.into_device();
//! // ...and recover by replaying the operation log.
//! let mut fs = MicroFs::mount(device, FsConfig::default()).unwrap();
//! let fd = fs.open("/ckpt.dat", OpenFlags::RDONLY, 0).unwrap();
//! let mut buf = [0u8; 17];
//! fs.read(fd, &mut buf).unwrap();
//! assert_eq!(&buf, b"application state");
//! ```
//!
//! A crucial property of the provenance design is reproduced faithfully:
//! log records carry **only the syscall type and parameters** (no block
//! lists, no physical redo data). Replay re-executes allocation against the
//! replayed circular pool, which is deterministic, so the same blocks are
//! reassigned and file data already on the device is re-attached intact.
//! The crash-recovery test suite verifies this byte-for-byte.

#![forbid(unsafe_code)]

pub mod block;
pub mod btree;
pub mod cow;
pub mod crc;
pub mod dirent;
pub mod error;
pub mod fs;
pub mod fsck;
pub mod inode;
pub mod layout;
pub mod manifest;
pub mod recovery;
pub mod snapshot;
pub mod wal;
pub mod wire;

pub use block::{BlockDevice, MemDevice};
pub use cow::{CowTracker, IntervalSet};
pub use error::{FsError, OpenFlags};
pub use fs::{FsConfig, FsStats, MicroFs};
pub use fsck::{check as fsck, FsckIssue, FsckReport};
pub use layout::Layout;
pub use manifest::{EpochManifest, ExtentMap, ManifestError, ManifestExtent};
