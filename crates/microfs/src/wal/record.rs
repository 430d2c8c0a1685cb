//! Operation-log records — metadata provenance (§III-E).
//!
//! "Each syscall that modifies an inode needs to be logged. Only the syscall
//! type and its parameters need to be added to the log." Records therefore
//! carry *no* block lists and no physical redo data: replay re-executes the
//! operation against deterministically-replayed allocators, reproducing the
//! exact block assignments. This is what keeps records compact (a `Write`
//! record is 25 payload bytes regardless of IO size) and the network
//! metadata traffic minimal.
//!
//! A record owns its paths when it is built to be appended and borrows
//! them from the log bytes when it is decoded: recovery replays
//! `LogRecord<&str>`s straight out of the bytes the scan read.

use crate::crc::{crc32, crc32_update};
use crate::error::FsError;
use crate::inode::Ino;
use crate::wire::Reader;

/// One logged metadata operation, with its paths owned (`LogRecord`, the
/// default) or borrowed (`LogRecord<&str>`).
#[derive(Debug, Clone)]
pub enum LogRecord<S = String> {
    /// `mkdir(path, mode)`.
    Mkdir {
        /// Absolute path.
        path: S,
        /// Permission bits.
        mode: u32,
        /// Creating uid.
        uid: u32,
    },
    /// `creat(path, mode)`.
    Create {
        /// Absolute path.
        path: S,
        /// Permission bits.
        mode: u32,
        /// Creating uid.
        uid: u32,
    },
    /// `write(ino, offset, len)` — parameters only; blocks are re-derived
    /// on replay.
    Write {
        /// Target inode.
        ino: Ino,
        /// File offset of the write.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// `ftruncate(ino, size)`.
    Truncate {
        /// Target inode.
        ino: Ino,
        /// New size.
        size: u64,
    },
    /// `unlink(path)`.
    Unlink {
        /// Absolute path.
        path: S,
    },
    /// `rename(from, to)` — atomic within the private namespace.
    Rename {
        /// Old absolute path.
        from: S,
        /// New absolute path.
        to: S,
    },
    /// `chmod(ino, mode)`.
    SetMode {
        /// Target inode.
        ino: Ino,
        /// New permission bits.
        mode: u32,
    },
}

/// Fixed payload length of a `Write` record: tag + ino + offset + len.
/// Being fixed-size is what allows in-place coalescing rewrites.
pub const WRITE_PAYLOAD_LEN: usize = 1 + 8 + 8 + 8;

/// Record header: generation (u32) + payload length (u16) + CRC32 (u32).
pub const HEADER_LEN: usize = 4 + 2 + 4;

impl<S: AsRef<str>> LogRecord<S> {
    fn tag(&self) -> u8 {
        match self {
            LogRecord::Mkdir { .. } => 1,
            LogRecord::Create { .. } => 2,
            LogRecord::Write { .. } => 3,
            LogRecord::Truncate { .. } => 4,
            LogRecord::Unlink { .. } => 5,
            LogRecord::Rename { .. } => 6,
            LogRecord::SetMode { .. } => 7,
        }
    }

    /// The record as one flat tuple: tag, paths, then numbers.
    fn fields(&self) -> (u8, &str, &str, [u64; 3]) {
        let tag = self.tag();
        match self {
            LogRecord::Mkdir { path, mode, uid } | LogRecord::Create { path, mode, uid } => {
                (tag, path.as_ref(), "", [(*mode).into(), (*uid).into(), 0])
            }
            LogRecord::Write { ino, offset, len } => (tag, "", "", [*ino, *offset, *len]),
            LogRecord::Truncate { ino, size } => (tag, "", "", [*ino, *size, 0]),
            LogRecord::Unlink { path } => (tag, path.as_ref(), "", [0; 3]),
            LogRecord::Rename { from, to } => (tag, from.as_ref(), to.as_ref(), [0; 3]),
            LogRecord::SetMode { ino, mode } => (tag, "", "", [*ino, (*mode).into(), 0]),
        }
    }
}

impl LogRecord {
    /// Encode the payload (without header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(32);
        v.push(self.tag());
        let put_str = |v: &mut Vec<u8>, s: &str| {
            v.extend_from_slice(&(s.len() as u16).to_le_bytes());
            v.extend_from_slice(s.as_bytes());
        };
        match self {
            LogRecord::Mkdir { path, mode, uid } | LogRecord::Create { path, mode, uid } => {
                put_str(&mut v, path);
                v.extend_from_slice(&mode.to_le_bytes());
                v.extend_from_slice(&uid.to_le_bytes());
            }
            LogRecord::Write { ino, offset, len } => {
                v.extend_from_slice(&ino.to_le_bytes());
                v.extend_from_slice(&offset.to_le_bytes());
                v.extend_from_slice(&len.to_le_bytes());
            }
            LogRecord::Truncate { ino, size } => {
                v.extend_from_slice(&ino.to_le_bytes());
                v.extend_from_slice(&size.to_le_bytes());
            }
            LogRecord::Unlink { path } => put_str(&mut v, path),
            LogRecord::Rename { from, to } => {
                put_str(&mut v, from);
                put_str(&mut v, to);
            }
            LogRecord::SetMode { ino, mode } => {
                v.extend_from_slice(&ino.to_le_bytes());
                v.extend_from_slice(&mode.to_le_bytes());
            }
        }
        v
    }

    /// Encode with header for generation `gen`.
    pub fn encode(&self, gen: u32) -> Vec<u8> {
        let payload = self.encode_payload();
        frame(gen, &payload)
    }
}

/// Records are equal when they log the same operation, whether their paths
/// are owned or borrowed.
impl<A: AsRef<str>, B: AsRef<str>> PartialEq<LogRecord<B>> for LogRecord<A> {
    fn eq(&self, other: &LogRecord<B>) -> bool {
        self.fields() == other.fields()
    }
}

impl<S: AsRef<str>> Eq for LogRecord<S> {}

impl<'a> LogRecord<&'a str> {
    /// Decode a payload, borrowing its paths.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode_payload(payload: &'a [u8]) -> Result<Self, FsError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let path = |r: &mut Reader<'a>| -> Result<&'a str, FsError> {
            let len = r.u16()?;
            Ok(r.utf8(len.into())?)
        };
        match tag {
            1 | 2 => {
                let path = path(&mut r)?;
                let mode = r.u32()?;
                let uid = r.u32()?;
                Ok(if tag == 1 {
                    LogRecord::Mkdir { path, mode, uid }
                } else {
                    LogRecord::Create { path, mode, uid }
                })
            }
            3 => Ok(LogRecord::Write {
                ino: r.u64()?,
                offset: r.u64()?,
                len: r.u64()?,
            }),
            4 => Ok(LogRecord::Truncate {
                ino: r.u64()?,
                size: r.u64()?,
            }),
            5 => Ok(LogRecord::Unlink {
                path: path(&mut r)?,
            }),
            6 => Ok(LogRecord::Rename {
                from: path(&mut r)?,
                to: path(&mut r)?,
            }),
            7 => Ok(LogRecord::SetMode {
                ino: r.u64()?,
                mode: r.u32()?,
            }),
            t => Err(FsError::Io(format!("bad log record tag {t}"))),
        }
    }
}

/// Frame a payload with the record header.
pub fn frame(gen: u32, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= u16::MAX as usize);
    let mut v = Vec::with_capacity(HEADER_LEN + payload.len());
    v.extend_from_slice(&gen.to_le_bytes());
    v.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    // CRC covers generation + payload so stale-generation records are
    // rejected even if their bytes are intact.
    let mut crc_input = Vec::with_capacity(4 + payload.len());
    crc_input.extend_from_slice(&gen.to_le_bytes());
    crc_input.extend_from_slice(payload);
    v.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    v.extend_from_slice(payload);
    v
}

/// The frame at `bytes[pos..]` as `(generation, stored CRC, payload,
/// position after it)`, unchecked; `None` when the bytes end inside it.
#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
pub(crate) fn split_frame(bytes: &[u8], pos: usize) -> Option<(u32, u32, &[u8], usize)> {
    let mut r = Reader::new(bytes);
    r.bytes(pos).ok()?;
    let (rgen, plen, stored_crc) = (r.u32().ok()?, r.u16().ok()?, r.u32().ok()?);
    let payload = r.bytes(plen.into()).ok()?;
    Some((rgen, stored_crc, payload, r.position()))
}

/// Try to read one framed record for generation `gen` at `bytes[pos..]`,
/// borrowing its paths from `bytes`. Returns `Ok(None)` at end-of-log (bad
/// frame, wrong generation, or CRC mismatch — all three mean "no more
/// valid records").
#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
pub fn read_frame<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    gen: u32,
) -> Result<Option<LogRecord<&'a str>>, FsError> {
    let Some((rgen, stored_crc, payload, next)) = split_frame(bytes, *pos) else {
        return Ok(None);
    };
    // The CRC covers gen ‖ payload: stream it rather than gather the two.
    let crc = || !crc32_update(crc32_update(!0, &gen.to_le_bytes()), payload);
    if rgen != gen || crc() != stored_crc {
        return Ok(None);
    }
    let rec = LogRecord::decode_payload(payload)?;
    *pos = next;
    Ok(Some(rec))
}

/// Bytes of `bytes` a reader must hold to judge the frame at `pos`: the
/// end of its header, or of its payload once the header is there to name
/// it. [`read_frame`] looks at nothing past this point.
#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
pub(crate) fn frame_extent(bytes: &[u8], pos: usize) -> usize {
    let mut r = Reader::new(bytes);
    let plen = r.bytes(pos).and_then(|_| r.u32()).and_then(|_| r.u16());
    let header_end = pos.saturating_add(HEADER_LEN);
    plen.map_or(header_end, |plen| header_end.saturating_add(plen.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::Mkdir {
                path: "/ckpt".into(),
                mode: 0o755,
                uid: 1000,
            },
            LogRecord::Create {
                path: "/ckpt/rank_007.dat".into(),
                mode: 0o644,
                uid: 1000,
            },
            LogRecord::Write {
                ino: 3,
                offset: 1 << 20,
                len: 32 << 10,
            },
            LogRecord::Truncate { ino: 3, size: 0 },
            LogRecord::Unlink {
                path: "/ckpt/rank_007.dat".into(),
            },
            LogRecord::Rename {
                from: "/ckpt/tmp".into(),
                to: "/ckpt/final".into(),
            },
            LogRecord::SetMode {
                ino: 3,
                mode: 0o600,
            },
        ]
    }

    #[test]
    fn payload_roundtrip() {
        for r in samples() {
            let p = r.encode_payload();
            assert_eq!(LogRecord::decode_payload(&p).unwrap(), r);
        }
    }

    #[test]
    fn write_record_is_compact_and_fixed() {
        let r = LogRecord::Write {
            ino: u64::MAX,
            offset: u64::MAX,
            len: u64::MAX,
        };
        assert_eq!(r.encode_payload().len(), WRITE_PAYLOAD_LEN);
        let small = LogRecord::Write {
            ino: 0,
            offset: 0,
            len: 1,
        };
        assert_eq!(small.encode_payload().len(), WRITE_PAYLOAD_LEN);
    }

    #[test]
    fn framed_stream_roundtrip() {
        let gen = 7;
        let mut buf = Vec::new();
        for r in samples() {
            buf.extend_from_slice(&r.encode(gen));
        }
        buf.extend_from_slice(&[0u8; 64]); // trailing garbage
        let mut pos = 0;
        let mut out = Vec::new();
        while let Some(r) = read_frame(&buf, &mut pos, gen).unwrap() {
            out.push(r);
        }
        assert_eq!(out, samples());
    }

    #[test]
    fn wrong_generation_stops_scan() {
        let r = LogRecord::Write {
            ino: 1,
            offset: 0,
            len: 10,
        };
        let buf = r.encode(3);
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos, 4).unwrap(), None);
        assert_eq!(pos, 0);
    }

    #[test]
    fn corrupt_crc_stops_scan() {
        let r = LogRecord::Create {
            path: "/x".into(),
            mode: 0,
            uid: 0,
        };
        let mut buf = r.encode(0);
        let last = buf.len() - 1;
        buf[last] ^= 0x80; // flip a payload bit
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos, 0).unwrap(), None);
    }

    #[test]
    fn stale_generation_crc_cannot_masquerade() {
        // A record written under gen 1 whose generation field is then
        // clobbered to 2 must fail the CRC (crc covers the generation).
        let r = LogRecord::Write {
            ino: 9,
            offset: 0,
            len: 5,
        };
        let mut buf = r.encode(1);
        buf[0..4].copy_from_slice(&2u32.to_le_bytes());
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos, 2).unwrap(), None);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_record(
            which in 0u8..6,
            path in "/[a-z0-9/_.]{0,60}",
            a in any::<u64>(),
            b in any::<u64>(),
            mode in any::<u32>(),
            gen in any::<u32>(),
        ) {
            let r = match which {
                0 => LogRecord::Mkdir { path, mode, uid: mode ^ 7 },
                1 => LogRecord::Create { path, mode, uid: mode ^ 7 },
                2 => LogRecord::Write { ino: a, offset: b, len: a ^ b },
                3 => LogRecord::Truncate { ino: a, size: b },
                4 => LogRecord::Rename { from: path.clone(), to: format!("{path}.new") },
                _ => LogRecord::Unlink { path },
            };
            let buf = r.encode(gen);
            let mut pos = 0;
            let got = read_frame(&buf, &mut pos, gen).unwrap();
            prop_assert!(got.as_ref().is_some_and(|g| *g == r), "{:?} != {:?}", got, r);
            prop_assert_eq!(pos, buf.len());
        }

        /// Arbitrary bytes never panic the frame reader.
        #[test]
        fn prop_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128), gen in any::<u32>()) {
            let mut pos = 0;
            let _ = read_frame(&bytes, &mut pos, gen);
        }
    }
}
