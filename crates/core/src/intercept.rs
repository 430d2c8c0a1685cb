//! Application obliviousness: the symbol-interception shim (§III-C).
//!
//! The paper intercepts POSIX IO symbols with the GNU `ld` linker and
//! redirects them into the runtime, so unmodified binaries run over
//! NVMe-CR. Linking tricks don't reproduce in a library, but their semantic
//! content does: a dispatch layer that (a) claims the standard IO entry
//! points, (b) routes calls under the mount prefix to the runtime's
//! `MicroFs`, and (c) passes everything else through to the "kernel" (here:
//! counted and refused, since no kernel FS exists in the harness).
//!
//! `MPI_Init`/`MPI_Finalize` wrappers bracket the runtime's lifetime the
//! same way (§III-C: "runtime initialization and finalization is handled by
//! these wrappers").

use microfs::block::BlockDevice;
use microfs::{FsError, MicroFs, OpenFlags};

/// Where a call was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Handled by the NVMe-CR runtime in userspace.
    Runtime,
    /// Would fall through to the real libc/kernel.
    Passthrough,
}

/// Interception statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterceptStats {
    /// Calls handled in userspace.
    pub runtime_calls: u64,
    /// Calls that fell through to the kernel path.
    pub passthrough_calls: u64,
}

/// The dispatch layer: one per process, wrapping that process's `MicroFs`.
pub struct PosixLayer<D: BlockDevice> {
    fs: MicroFs<D>,
    mount_prefix: String,
    stats: InterceptStats,
}

impl<D: BlockDevice> PosixLayer<D> {
    /// Interpose over `fs`, claiming paths under `mount_prefix` (e.g.
    /// `/nvmecr`).
    pub fn new(fs: MicroFs<D>, mount_prefix: impl Into<String>) -> Self {
        let mount_prefix = mount_prefix.into();
        assert!(mount_prefix.starts_with('/') && !mount_prefix.ends_with('/'));
        PosixLayer {
            fs,
            mount_prefix,
            stats: InterceptStats::default(),
        }
    }

    /// Routing decision for a path (the check the interposed symbol makes
    /// first).
    pub fn route(&self, path: &str) -> Route {
        match self.under_mount(path) {
            Some(_) => Route::Runtime,
            None => Route::Passthrough,
        }
    }

    /// `path` as a path of the wrapped filesystem, or `None` when it lies
    /// outside the mount.
    fn under_mount<'p>(&self, path: &'p str) -> Option<&'p str> {
        match path.strip_prefix(self.mount_prefix.as_str())? {
            "" => Some("/"),
            rest if rest.starts_with('/') => Some(rest),
            _ => None,
        }
    }

    /// Route one path-taking call: count it, and hand back its path in
    /// the wrapped filesystem, or refuse it as kernel passthrough.
    fn claim<'p>(&mut self, path: &'p str) -> Result<&'p str, FsError> {
        match self.under_mount(path) {
            Some(p) => {
                self.stats.runtime_calls += 1;
                Ok(p)
            }
            None => {
                self.stats.passthrough_calls += 1;
                Err(FsError::Invalid(format!("passthrough: {path}")))
            }
        }
    }

    /// Interposed `open`.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u32) -> Result<u32, FsError> {
        let p = self.claim(path)?;
        self.fs.open(p, flags, mode)
    }

    /// Interposed `creat`.
    pub fn creat(&mut self, path: &str, mode: u32) -> Result<u32, FsError> {
        self.open(path, OpenFlags::CREATE_TRUNC, mode)
    }

    /// Interposed `mkdir`.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> Result<(), FsError> {
        let p = self.claim(path)?;
        self.fs.mkdir(p, mode)
    }

    /// Interposed `unlink`.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let p = self.claim(path)?;
        self.fs.unlink(p)
    }

    /// Interposed `write` (fds are always runtime fds here).
    pub fn write(&mut self, fd: u32, data: &[u8]) -> Result<usize, FsError> {
        self.stats.runtime_calls += 1;
        self.fs.write(fd, data)
    }

    /// Interposed `read`.
    pub fn read(&mut self, fd: u32, buf: &mut [u8]) -> Result<usize, FsError> {
        self.stats.runtime_calls += 1;
        self.fs.read(fd, buf)
    }

    /// Interposed `fsync`.
    pub fn fsync(&mut self, fd: u32) -> Result<(), FsError> {
        self.stats.runtime_calls += 1;
        self.fs.fsync(fd)
    }

    /// Interposed `close`.
    pub fn close(&mut self, fd: u32) -> Result<(), FsError> {
        self.stats.runtime_calls += 1;
        self.fs.close(fd)
    }

    /// Interposed `stat`.
    pub fn stat(&mut self, path: &str) -> Result<microfs::fs::FileStat, FsError> {
        let p = self.claim(path)?;
        self.fs.stat(p)
    }

    /// Interposed `lseek` (absolute).
    pub fn lseek(&mut self, fd: u32, pos: u64) -> Result<(), FsError> {
        self.stats.runtime_calls += 1;
        self.fs.seek(fd, pos)
    }

    /// Interposed `rename` — both paths must be under the mount.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        match (self.under_mount(from), self.under_mount(to)) {
            (Some(from), Some(to)) => {
                self.stats.runtime_calls += 1;
                self.fs.rename(from, to)
            }
            _ => {
                self.stats.passthrough_calls += 1;
                Err(FsError::Invalid(format!(
                    "passthrough: rename {from} -> {to} crosses the mount"
                )))
            }
        }
    }

    /// Interposed `truncate`.
    pub fn truncate(&mut self, path: &str, size: u64) -> Result<(), FsError> {
        let p = self.claim(path)?;
        self.fs.truncate(p, size)
    }

    /// Interception statistics.
    pub fn stats(&self) -> InterceptStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfs::{FsConfig, MemDevice};

    fn layer() -> PosixLayer<MemDevice> {
        let fs = MicroFs::format(MemDevice::new(64 << 20), FsConfig::default()).unwrap();
        PosixLayer::new(fs, "/nvmecr")
    }

    #[test]
    fn paths_under_mount_are_intercepted() {
        let mut l = layer();
        assert_eq!(l.route("/nvmecr/ckpt.dat"), Route::Runtime);
        assert_eq!(l.route("/home/user/x"), Route::Passthrough);
        assert_eq!(l.route("/nvmecrX/ckpt"), Route::Passthrough);
        let fd = l.creat("/nvmecr/ckpt.dat", 0o644).unwrap();
        l.write(fd, b"data").unwrap();
        l.fsync(fd).unwrap();
        l.close(fd).unwrap();
        let fd = l.open("/nvmecr/ckpt.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(l.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"data");
        l.close(fd).unwrap();
    }

    #[test]
    fn passthrough_paths_are_counted_not_handled() {
        let mut l = layer();
        assert!(l.creat("/tmp/other", 0o644).is_err());
        assert!(l.mkdir("/var/x", 0o755).is_err());
        assert!(l.unlink("/etc/y").is_err());
        let s = l.stats();
        assert_eq!(s.passthrough_calls, 3);
        assert_eq!(s.runtime_calls, 0);
    }

    #[test]
    fn mkdir_and_unlink_through_the_shim() {
        let mut l = layer();
        l.mkdir("/nvmecr/dir", 0o755).unwrap();
        let fd = l.creat("/nvmecr/dir/f", 0o644).unwrap();
        l.close(fd).unwrap();
        l.unlink("/nvmecr/dir/f").unwrap();
        l.unlink("/nvmecr/dir").unwrap();
        assert!(l.stats().runtime_calls >= 5);
    }

    #[test]
    fn stat_seek_rename_truncate_through_the_shim() {
        let mut l = layer();
        let fd = l.creat("/nvmecr/a.dat", 0o644).unwrap();
        l.write(fd, b"0123456789").unwrap();
        l.lseek(fd, 2).unwrap();
        l.close(fd).unwrap();
        assert_eq!(l.stat("/nvmecr/a.dat").unwrap().size, 10);
        l.truncate("/nvmecr/a.dat", 4).unwrap();
        assert_eq!(l.stat("/nvmecr/a.dat").unwrap().size, 4);
        l.rename("/nvmecr/a.dat", "/nvmecr/b.dat").unwrap();
        assert!(l.stat("/nvmecr/a.dat").is_err());
        assert_eq!(l.stat("/nvmecr/b.dat").unwrap().size, 4);
        // Renames crossing the mount boundary fall through.
        assert!(l.rename("/nvmecr/b.dat", "/tmp/outside").is_err());
        assert!(
            l.stat("/nvmecr/b.dat").is_ok(),
            "failed rename must not move the file"
        );
        assert!(l.truncate("/etc/passwd", 0).is_err());
    }
}
