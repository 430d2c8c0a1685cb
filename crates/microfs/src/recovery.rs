//! Typestate-guarded recovery: `Crashed` → `Replaying` → `Verified` →
//! serving.
//!
//! [`MicroFs::mount`] performs snapshot load, log scan, and replay in one
//! call, which means nothing in the types stops a caller from wiring up a
//! recovery path that reads file data before replay has run — the bug
//! class every crash-consistency paper warns about. This module makes the
//! recovery phases *distinct types* so the invalid orderings are compile
//! errors, not code review findings:
//!
//! ```text
//! Crashed ──begin_replay()──▶ Replaying ──replay_all()──▶ Verified ──serve()──▶ MicroFs
//! ```
//!
//! * [`Crashed`] holds only the device and config; nothing has been read.
//! * [`Replaying`] holds an instance whose in-memory state is the last
//!   snapshot plus a queue of *unapplied* log records. It exposes no file
//!   API and no way to extract the filesystem.
//! * [`Verified`] proves replay completed; [`Verified::serve`] is the only
//!   way to obtain a usable [`MicroFs`] through this path.
//!
//! Serving before replay does not compile:
//!
//! ```compile_fail
//! use microfs::recovery::Replaying;
//! use microfs::{MemDevice, MicroFs};
//!
//! fn premature(r: Replaying<MemDevice>) -> MicroFs<MemDevice> {
//!     r.serve() // ERROR: no method `serve` on `Replaying` — replay first
//! }
//! ```
//!
//! Neither does skipping straight from `Crashed` to a filesystem:
//!
//! ```compile_fail
//! use microfs::recovery::Crashed;
//! use microfs::{MemDevice, MicroFs};
//!
//! fn skip_replay(c: Crashed<MemDevice>) -> MicroFs<MemDevice> {
//!     c.serve() // ERROR: `Crashed` only offers `begin_replay`
//! }
//! ```
//!
//! The happy path:
//!
//! ```
//! use microfs::recovery::Crashed;
//! use microfs::{FsConfig, MemDevice, MicroFs, OpenFlags};
//!
//! let mut fs = MicroFs::format(MemDevice::new(64 << 20), FsConfig::default()).unwrap();
//! let fd = fs.create("/state.dat", 0o644).unwrap();
//! fs.write(fd, b"survives the crash").unwrap();
//! fs.close(fd).unwrap();
//! let dev = fs.into_device(); // crash: volatile state gone
//!
//! let replaying = Crashed::new(dev, FsConfig::default()).begin_replay().unwrap();
//! assert!(replaying.pending_records() > 0);
//! let mut fs = replaying.replay_all().unwrap().serve();
//! let fd = fs.open("/state.dat", OpenFlags::RDONLY, 0).unwrap();
//! let mut buf = [0u8; 18];
//! fs.read(fd, &mut buf).unwrap();
//! assert_eq!(&buf, b"survives the crash");
//! ```

use crate::block::BlockDevice;
use crate::error::FsError;
use crate::fs::{FsConfig, MicroFs};
use crate::wal::LogRecord;

/// A partition that just lost its process: a device full of durable bytes
/// and no in-memory state. The only move is
/// [`begin_replay`](Self::begin_replay).
pub struct Crashed<D: BlockDevice> {
    dev: D,
    config: FsConfig,
}

impl<D: BlockDevice> Crashed<D> {
    /// Wrap a crashed partition's device for recovery.
    pub fn new(dev: D, config: FsConfig) -> Self {
        Crashed { dev, config }
    }

    /// Read the superblock, load the newest valid snapshot, and scan the
    /// operation log for records newer than it. No record has been applied
    /// yet when this returns.
    pub fn begin_replay(self) -> Result<Replaying<D>, FsError> {
        let (fs, records) = MicroFs::mount_prepare(self.dev, self.config)?;
        Ok(Replaying { fs, records })
    }
}

/// Snapshot state loaded, log scanned, records not yet applied. This type
/// deliberately exposes no file operations and no escape hatch to the
/// underlying [`MicroFs`]: the instance is *not consistent* until
/// [`replay_all`](Self::replay_all) runs.
pub struct Replaying<D: BlockDevice> {
    fs: MicroFs<D>,
    records: Vec<LogRecord>,
}

impl<D: BlockDevice> Replaying<D> {
    /// Log records waiting to be applied.
    pub fn pending_records(&self) -> usize {
        self.records.len()
    }

    /// Apply every scanned record. Replay is purely in-memory (allocation
    /// is deterministic, so file data already on the device re-attaches
    /// without being rewritten).
    pub fn replay_all(mut self) -> Result<Verified<D>, FsError> {
        self.fs.replay_records(&self.records)?;
        Ok(Verified { fs: self.fs })
    }
}

/// Replay completed: the in-memory state is consistent with the device.
pub struct Verified<D: BlockDevice> {
    fs: MicroFs<D>,
}

impl<D: BlockDevice> Verified<D> {
    /// Records that were replayed to reach this state.
    pub fn replayed_records(&self) -> u64 {
        self.fs.stats().replayed_records
    }

    /// Hand over the recovered filesystem for serving.
    pub fn serve(self) -> MicroFs<D> {
        self.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDevice;
    use crate::error::OpenFlags;

    fn crashed_partition() -> MemDevice {
        let mut fs = MicroFs::format(MemDevice::new(64 << 20), FsConfig::default()).unwrap();
        let fd = fs.create("/a.dat", 0o644).unwrap();
        fs.write(fd, &[0xAB; 100_000]).unwrap();
        fs.close(fd).unwrap();
        fs.into_device()
    }

    #[test]
    fn typestate_chain_recovers_data() {
        let dev = crashed_partition();
        let replaying = Crashed::new(dev, FsConfig::default())
            .begin_replay()
            .unwrap();
        assert!(replaying.pending_records() > 0);
        let verified = replaying.replay_all().unwrap();
        assert!(verified.replayed_records() > 0);
        let mut fs = verified.serve();
        let fd = fs.open("/a.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; 100_000];
        let mut got = 0;
        while got < buf.len() {
            let n = fs.read(fd, &mut buf[got..]).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 100_000);
        assert!(buf.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn typestate_chain_equals_plain_mount() {
        let dev = crashed_partition();
        let fs_a = Crashed::new(dev, FsConfig::default())
            .begin_replay()
            .unwrap()
            .replay_all()
            .unwrap()
            .serve();
        let dev_b = crashed_partition();
        let fs_b = MicroFs::mount(dev_b, FsConfig::default()).unwrap();
        assert_eq!(fs_a.stats().replayed_records, fs_b.stats().replayed_records);
        assert_eq!(fs_a.stat("/a.dat").unwrap(), fs_b.stat("/a.dat").unwrap());
    }

    #[test]
    fn begin_replay_surfaces_bad_superblock() {
        let dev = MemDevice::new(1 << 20); // never formatted
        assert!(Crashed::new(dev, FsConfig::default())
            .begin_replay()
            .is_err());
    }
}
