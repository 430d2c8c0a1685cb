//! Errno-like error type and POSIX open flags.

use std::fmt;

use crate::wire::Short;

/// Filesystem errors, mirroring the POSIX errno values the intercepted
//  syscalls would return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// ENOENT — path component does not exist.
    NotFound(String),
    /// EEXIST — create of an existing name without O_TRUNC semantics.
    AlreadyExists(String),
    /// ENOTDIR — a non-final path component is not a directory.
    NotADirectory(String),
    /// EISDIR — file operation on a directory.
    IsADirectory(String),
    /// ENOTEMPTY — unlink/rmdir of a non-empty directory.
    NotEmpty(String),
    /// EBADF — bad or closed file descriptor.
    BadFd(u32),
    /// EACCES — permission denied.
    PermissionDenied(String),
    /// ENOSPC — out of hugeblocks or inodes.
    NoSpace,
    /// EINVAL — malformed argument (bad path, bad flags).
    Invalid(String),
    /// EIO — device-level failure or corruption detected.
    Io(String),
    /// Log region exhausted even after checkpointing (fatal).
    LogFull,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "ENOENT: {p}"),
            FsError::AlreadyExists(p) => write!(f, "EEXIST: {p}"),
            FsError::NotADirectory(p) => write!(f, "ENOTDIR: {p}"),
            FsError::IsADirectory(p) => write!(f, "EISDIR: {p}"),
            FsError::NotEmpty(p) => write!(f, "ENOTEMPTY: {p}"),
            FsError::BadFd(fd) => write!(f, "EBADF: fd {fd}"),
            FsError::PermissionDenied(p) => write!(f, "EACCES: {p}"),
            FsError::NoSpace => write!(f, "ENOSPC"),
            FsError::Invalid(m) => write!(f, "EINVAL: {m}"),
            FsError::Io(m) => write!(f, "EIO: {m}"),
            FsError::LogFull => write!(f, "operation log exhausted"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<Short> for FsError {
    fn from(_: Short) -> Self {
        FsError::Io("on-device record truncated or malformed".into())
    }
}

/// Open flags (a subset of `fcntl.h`, enough for checkpoint IO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
    /// All writes go to end of file.
    pub append: bool,
    /// With `create`: fail if the file already exists (`O_EXCL`).
    pub excl: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        create: false,
        truncate: false,
        append: false,
        excl: false,
    };
    /// `O_WRONLY | O_CREAT | O_TRUNC` — the checkpoint dump pattern.
    pub const CREATE_TRUNC: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        truncate: true,
        append: false,
        excl: false,
    };
    /// `O_RDWR`.
    pub const RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: false,
        truncate: false,
        append: false,
        excl: false,
    };
    /// `O_WRONLY | O_CREAT | O_APPEND`.
    pub const APPEND: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        truncate: false,
        append: true,
        excl: false,
    };
    /// `O_WRONLY | O_CREAT | O_EXCL` — create a fresh file or fail.
    pub const CREATE_EXCL: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        truncate: false,
        append: false,
        excl: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_errno_name() {
        assert!(FsError::NotFound("/a".into())
            .to_string()
            .contains("ENOENT"));
        assert!(FsError::NoSpace.to_string().contains("ENOSPC"));
        assert!(FsError::BadFd(3).to_string().contains("EBADF"));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // presets are consts by design
    fn flag_presets() {
        assert!(OpenFlags::CREATE_TRUNC.create && OpenFlags::CREATE_TRUNC.truncate);
        assert!(!OpenFlags::RDONLY.write);
        assert!(OpenFlags::APPEND.append && OpenFlags::APPEND.write);
        assert!(OpenFlags::CREATE_EXCL.excl && OpenFlags::CREATE_EXCL.create);
    }
}
