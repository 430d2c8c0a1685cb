//! NVMf command and response capsules — the wire format of the data plane.
//!
//! Every functional IO in the workspace serializes through this codec, the
//! stand-in for NVMe-oF command capsules. The layout is a compact
//! little-endian framing (not byte-identical to the spec, but carrying the
//! same fields): magic, opcode, CID, NSID, SLBA-as-byte-offset, length, and
//! an optional inline data payload for writes.

use bytes::{BufMut, Bytes};
use microfs::crc::{crc32, crc32_shift, crc32_update};
use microfs::wire::{Reader, Short};
use std::fmt;

use crate::sg::SgList;

const CAPSULE_MAGIC: u32 = 0x4E56_4D46; // "NVMF"
                                        // Fixed fields plus a trailing CRC32 guarding header + payload. The CRC sits
                                        // at the *end* of the header so field offsets (e.g. opcode at byte 4) are
                                        // unchanged from the pre-CRC framing.
const HEADER_LEN: usize = 4 + 1 + 2 + 4 + 8 + 8 + 4;
const COMPLETION_HEADER_LEN: usize = 4 + 2 + 1 + 8 + 4;

/// NVMe command opcodes carried over the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Write `len` bytes at `offset` (data travels inline).
    Write,
    /// Read `len` bytes at `offset`.
    Read,
    /// Flush the device write buffer.
    Flush,
    /// Connect to a controller/namespace (admin).
    Connect,
}

impl Opcode {
    fn to_u8(self) -> u8 {
        match self {
            Opcode::Write => 0x01,
            Opcode::Read => 0x02,
            Opcode::Flush => 0x00,
            Opcode::Connect => 0x7F,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0x01 => Some(Opcode::Write),
            0x02 => Some(Opcode::Read),
            0x00 => Some(Opcode::Flush),
            0x7F => Some(Opcode::Connect),
            _ => None,
        }
    }
}

/// Completion status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Command completed successfully.
    Success,
    /// Invalid namespace or access denied.
    InvalidNamespace,
    /// IO out of range.
    LbaOutOfRange,
    /// Malformed command.
    InvalidField,
    /// Transient backpressure: the shard cannot service the command right
    /// now; the initiator should back off and retry.
    Busy,
    /// The backing shard is dead; retrying this path is pointless and the
    /// runtime should fail over.
    ShardOffline,
    /// The command arrived with a CRC mismatch (wire corruption).
    DataCorrupt,
}

impl Status {
    fn to_u8(self) -> u8 {
        match self {
            Status::Success => 0,
            Status::InvalidNamespace => 1,
            Status::LbaOutOfRange => 2,
            Status::InvalidField => 3,
            Status::Busy => 4,
            Status::ShardOffline => 5,
            Status::DataCorrupt => 6,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Status::Success),
            1 => Some(Status::InvalidNamespace),
            2 => Some(Status::LbaOutOfRange),
            3 => Some(Status::InvalidField),
            4 => Some(Status::Busy),
            5 => Some(Status::ShardOffline),
            6 => Some(Status::DataCorrupt),
            _ => None,
        }
    }

    /// Whether the initiator may transparently retry a command that
    /// completed with this status.
    pub fn is_retryable(self) -> bool {
        matches!(self, Status::Busy | Status::DataCorrupt)
    }
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapsuleError {
    /// Buffer shorter than a capsule header.
    Truncated,
    /// Bad magic number.
    BadMagic(u32),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// Inline payload length does not match the header.
    PayloadMismatch { expected: u64, actual: usize },
    /// Wire CRC over header + payload does not match.
    CrcMismatch {
        cid: u16,
        expected: u32,
        actual: u32,
    },
}

impl fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapsuleError::Truncated => write!(f, "capsule truncated"),
            CapsuleError::BadMagic(m) => write!(f, "bad capsule magic {m:#x}"),
            CapsuleError::BadOpcode(o) => write!(f, "unknown opcode {o:#x}"),
            CapsuleError::BadStatus(s) => write!(f, "unknown status {s:#x}"),
            CapsuleError::PayloadMismatch { expected, actual } => {
                write!(
                    f,
                    "payload length {actual} does not match header {expected}"
                )
            }
            CapsuleError::CrcMismatch {
                cid,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "cid {cid}: wire crc {actual:#010x} does not match header {expected:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CapsuleError {}

impl From<Short> for CapsuleError {
    fn from(_: Short) -> Self {
        CapsuleError::Truncated
    }
}

/// A command capsule as sent initiator → target.
#[derive(Debug, Clone)]
pub struct Capsule {
    /// Command opcode.
    pub opcode: Opcode,
    /// Command identifier, echoed in the completion.
    pub cid: u16,
    /// Target namespace id (device-local NSID).
    pub nsid: u32,
    /// Byte offset within the namespace.
    pub offset: u64,
    /// Length of the IO in bytes.
    pub len: u64,
    /// Inline payload (writes only).
    pub data: Bytes,
    /// Cached finalized `crc32(data)`, supplied by callers that already
    /// checksummed the payload (replicated writes checksum once, then
    /// encode the same payload into two capsules). `encode_header` derives
    /// the wire CRC from it via `crc32_shift` in O(log len) instead of
    /// re-scanning the payload, which is cheaper than a rescan at every
    /// payload size, 4 KiB included (the `capsule_encode` rows of the
    /// `codec` bench). Purely an encoding accelerator: it never changes
    /// wire bytes, so equality ignores it.
    payload_crc: Option<u32>,
}

impl PartialEq for Capsule {
    fn eq(&self, other: &Self) -> bool {
        self.opcode == other.opcode
            && self.cid == other.cid
            && self.nsid == other.nsid
            && self.offset == other.offset
            && self.len == other.len
            && self.data == other.data
    }
}

impl Eq for Capsule {}

impl Capsule {
    /// A write capsule carrying `data`.
    pub fn write(cid: u16, nsid: u32, offset: u64, data: Bytes) -> Self {
        let len = data.len() as u64;
        Capsule {
            opcode: Opcode::Write,
            cid,
            nsid,
            offset,
            len,
            data,
            payload_crc: None,
        }
    }

    /// A write capsule whose payload checksum `crc32(data)` the caller has
    /// already computed. Encoding reuses it instead of re-scanning the
    /// payload — on a replicated write the payload is checksummed once and
    /// encoded into two byte-identical capsules (modulo nsid/offset).
    pub fn write_precrc(cid: u16, nsid: u32, offset: u64, data: Bytes, payload_crc: u32) -> Self {
        let mut c = Self::write(cid, nsid, offset, data);
        c.payload_crc = Some(payload_crc);
        c
    }

    /// A read capsule requesting `len` bytes.
    pub fn read(cid: u16, nsid: u32, offset: u64, len: u64) -> Self {
        Capsule {
            opcode: Opcode::Read,
            cid,
            nsid,
            offset,
            len,
            data: Bytes::new(),
            payload_crc: None,
        }
    }

    /// A flush capsule.
    pub fn flush(cid: u16, nsid: u32) -> Self {
        Capsule {
            opcode: Opcode::Flush,
            cid,
            nsid,
            offset: 0,
            len: 0,
            data: Bytes::new(),
            payload_crc: None,
        }
    }

    /// A connect (admin) capsule for `nsid`.
    pub fn connect(cid: u16, nsid: u32) -> Self {
        Capsule {
            opcode: Opcode::Connect,
            cid,
            nsid,
            offset: 0,
            len: 0,
            data: Bytes::new(),
            payload_crc: None,
        }
    }

    /// The payload length this capsule's header declares: `len` bytes for a
    /// write (data travels inline), zero for everything else.
    fn declared_payload_len(&self) -> u64 {
        match self.opcode {
            Opcode::Write => self.len,
            _ => 0,
        }
    }

    /// The header, built on the stack and then moved into one `Bytes`
    /// allocation.
    fn encode_header(&self) -> Bytes {
        let mut header = [0u8; HEADER_LEN];
        let (prefix, mut tail) = header.split_at_mut(HEADER_LEN - 4);
        let mut buf = &mut *prefix;
        buf.put_u32_le(CAPSULE_MAGIC);
        buf.put_u8(self.opcode.to_u8());
        buf.put_u16_le(self.cid);
        buf.put_u32_le(self.nsid);
        buf.put_u64_le(self.offset);
        buf.put_u64_le(self.len);
        let prefix = crc32(prefix);
        // The CRC update is affine over GF(2):
        // `crc32_update(S, data) = crc32_shift(S ^ !0, len) ^ crc32(data) ^ !0`,
        // so a caller-supplied payload checksum substitutes for re-scanning
        // the payload bytes.
        let crc = match self.payload_crc {
            Some(pc) => {
                crc32_shift(prefix ^ 0xFFFF_FFFF, self.data.len() as u64) ^ pc ^ 0xFFFF_FFFF
            }
            None => crc32_update(prefix, &self.data),
        };
        tail.put_u32_le(crc);
        Bytes::from(header)
    }

    /// Serialize as a scatter-gather list: `[header, payload]`. The
    /// payload segment is the capsule's own refcounted buffer — encoding
    /// a write this way copies zero payload bytes.
    pub fn encode_sg(&self) -> SgList {
        let mut sg = SgList::from(self.encode_header());
        sg.push(self.data.clone());
        sg
    }

    /// Parse the fixed header at the front of `buf`. Returns the capsule
    /// plus `(wire_crc, crc_of_header_prefix)` for [`check_payload`].
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    fn decode_header(buf: &[u8]) -> Result<(Self, u32, u32), CapsuleError> {
        let mut r = Reader::new(buf);
        let (prefix, wire_crc) = (r.bytes(HEADER_LEN - 4)?, r.u32()?);
        let mut r = Reader::new(prefix);
        let magic = r.u32()?;
        if magic != CAPSULE_MAGIC {
            return Err(CapsuleError::BadMagic(magic));
        }
        let op = r.u8()?;
        let opcode = Opcode::from_u8(op).ok_or(CapsuleError::BadOpcode(op))?;
        Ok((
            Capsule {
                opcode,
                cid: r.u16()?,
                nsid: r.u32()?,
                offset: r.u64()?,
                len: r.u64()?,
                data: Bytes::new(),
                payload_crc: None,
            },
            wire_crc,
            crc32(prefix),
        ))
    }

    /// Parse from a scatter-gather delivery without copying the payload:
    /// in the `[header, payload]` shape produced by [`Capsule::encode_sg`],
    /// the payload segment is adopted by refcount. Other segmentations
    /// are gathered first.
    pub fn decode_sg(sg: SgList) -> Result<Self, CapsuleError> {
        let (header, data) = split_frame(sg, HEADER_LEN);
        let (mut c, wire_crc, prefix_crc) = Self::decode_header(&header)?;
        // Never trust the declared length: every opcode's payload must
        // match what the header claims (zero for read/flush/connect).
        check_payload(c.cid, c.declared_payload_len(), &data, wire_crc, prefix_crc)?;
        c.data = data;
        Ok(c)
    }
}

/// A response capsule as sent target → initiator.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Echo of the command identifier.
    pub cid: u16,
    /// Outcome.
    pub status: Status,
    /// Read payload (reads only).
    pub data: Bytes,
    /// The wire CRC [`Completion::decode_sg`] verified, meaningful only
    /// when `decoded` is set (a completion built locally has none). Kept
    /// so [`Completion::payload_crc`] can hand the verified checksum back
    /// without re-scanning the payload. A flag and a bare `u32` fit the
    /// padding after `cid` and `status`, so a completion stays 40 bytes;
    /// an `Option` would grow every one the submission window moves, which
    /// cost `ckpt_manyranks` about 15% of `ckpt_mib_s` (`nvmecr-perf` on a
    /// 2-core host). Never changes wire bytes, so equality ignores both.
    wire_crc: u32,
    decoded: bool,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.cid == other.cid && self.status == other.status && self.data == other.data
    }
}

impl Eq for Completion {}

impl Completion {
    /// A success completion, optionally carrying read data.
    pub fn ok(cid: u16, data: Bytes) -> Self {
        Completion {
            cid,
            status: Status::Success,
            data,
            wire_crc: 0,
            decoded: false,
        }
    }

    /// An error completion.
    pub fn error(cid: u16, status: Status) -> Self {
        Completion {
            cid,
            status,
            data: Bytes::new(),
            wire_crc: 0,
            decoded: false,
        }
    }

    /// `crc32(data)` of a completion decoded off the wire, in O(log len):
    /// the wire CRC it passed is `crc32_update(prefix, data)`, with
    /// `prefix` the CRC of the 15 header bytes before it (re-encoded from
    /// the decoded fields), and by the identity that encodes a
    /// [`Capsule::write_precrc`],
    /// `crc32(data) = wire ^ crc32_shift(prefix ^ !0, len) ^ !0`. `None` for
    /// a completion that never crossed the wire. A reader that keeps the
    /// checksum (a replica restore, a rescan) pays no pass of its own over
    /// the bytes; a reader that does not ask pays nothing.
    pub fn payload_crc(&self) -> Option<u32> {
        self.decoded.then(|| {
            let prefix = crc32(&self.header_prefix());
            let shifted = crc32_shift(prefix ^ 0xFFFF_FFFF, self.data.len() as u64);
            self.wire_crc ^ shifted ^ 0xFFFF_FFFF
        })
    }

    /// The header bytes the wire CRC covers ahead of the payload.
    fn header_prefix(&self) -> [u8; COMPLETION_HEADER_LEN - 4] {
        let mut prefix = [0u8; COMPLETION_HEADER_LEN - 4];
        let mut buf = &mut prefix[..];
        buf.put_u32_le(CAPSULE_MAGIC);
        buf.put_u16_le(self.cid);
        buf.put_u8(self.status.to_u8());
        buf.put_u64_le(self.data.len() as u64);
        prefix
    }

    /// The header, built on the stack and then moved into one `Bytes`
    /// allocation.
    fn encode_header(&self) -> Bytes {
        let prefix = self.header_prefix();
        let mut header = [0u8; COMPLETION_HEADER_LEN];
        let (head, mut tail) = header.split_at_mut(prefix.len());
        head.copy_from_slice(&prefix);
        tail.put_u32_le(crc32_update(crc32(&prefix), &self.data));
        Bytes::from(header)
    }

    /// Serialize as a scatter-gather list: `[header, data]`. A read
    /// completion's payload segment is the target's refcounted buffer —
    /// zero payload bytes copied.
    pub fn encode_sg(&self) -> SgList {
        let mut sg = SgList::from(self.encode_header());
        sg.push(self.data.clone());
        sg
    }

    /// Parse the fixed header at the front of `buf`, returning
    /// `(completion, payload_len, wire_crc, crc_of_header_prefix)` for
    /// [`check_payload`].
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    fn decode_header(buf: &[u8]) -> Result<(Self, u64, u32, u32), CapsuleError> {
        let mut r = Reader::new(buf);
        let (prefix, wire_crc) = (r.bytes(COMPLETION_HEADER_LEN - 4)?, r.u32()?);
        let mut r = Reader::new(prefix);
        let magic = r.u32()?;
        if magic != CAPSULE_MAGIC {
            return Err(CapsuleError::BadMagic(magic));
        }
        let (cid, st) = (r.u16()?, r.u8()?);
        let status = Status::from_u8(st).ok_or(CapsuleError::BadStatus(st))?;
        let len = r.u64()?;
        Ok((
            Completion {
                cid,
                status,
                data: Bytes::new(),
                wire_crc,
                decoded: false,
            },
            len,
            wire_crc,
            crc32(prefix),
        ))
    }

    /// Parse from a scatter-gather delivery without copying the payload
    /// (see [`Capsule::decode_sg`]).
    pub fn decode_sg(sg: SgList) -> Result<Self, CapsuleError> {
        let (header, data) = split_frame(sg, COMPLETION_HEADER_LEN);
        let (mut c, len, wire_crc, prefix_crc) = Self::decode_header(&header)?;
        check_payload(c.cid, len, &data, wire_crc, prefix_crc)?;
        c.data = data;
        c.decoded = true;
        Ok(c)
    }
}

/// Split a delivery into `(header, payload)` for a `header_len`-byte
/// header: by refcount in the `[header, payload]` shape the encoders
/// produce, else by gathering first. A short delivery yields a short header.
#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
fn split_frame(sg: SgList, header_len: usize) -> (Bytes, Bytes) {
    let segs = match <[Bytes; 2]>::try_from(sg.into_segments()) {
        Ok([header, payload]) if header.len() == header_len => return (header, payload),
        Ok(pair) => Vec::from(pair),
        Err(segs) => segs,
    };
    let mut buf = SgList::from(segs).into_contiguous();
    (buf.split_to(header_len.min(buf.len())), buf)
}

/// Check a payload against its header: exactly `expected` bytes (before
/// the CRC, so truncation reports as a length error), then the wire CRC
/// continued from the header prefix's.
fn check_payload(
    cid: u16,
    expected: u64,
    data: &[u8],
    wire_crc: u32,
    prefix_crc: u32,
) -> Result<(), CapsuleError> {
    if data.len() as u64 != expected {
        return Err(CapsuleError::PayloadMismatch {
            expected,
            actual: data.len(),
        });
    }
    let actual = crc32_update(prefix_crc, data);
    if actual != wire_crc {
        return Err(CapsuleError::CrcMismatch {
            cid,
            expected: wire_crc,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A frame flattened into one mutable buffer.
    fn flat(sg: SgList) -> Vec<u8> {
        sg.into_contiguous().to_vec()
    }

    /// Decode a one-segment delivery, so `split_frame` gathers.
    fn decode(wire: &[u8]) -> Result<Capsule, CapsuleError> {
        Capsule::decode_sg(SgList::from(Bytes::copy_from_slice(wire)))
    }

    fn decode_completion(wire: &[u8]) -> Result<Completion, CapsuleError> {
        Completion::decode_sg(SgList::from(Bytes::copy_from_slice(wire)))
    }

    #[test]
    fn write_roundtrip() {
        let c = Capsule::write(7, 3, 4096, Bytes::from_static(b"checkpoint bytes"));
        let d = decode(&flat(c.encode_sg())).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn precrc_encoding_is_byte_identical() {
        for payload in [
            Bytes::new(),
            Bytes::from_static(b"x"),
            Bytes::from(vec![0xA7u8; 4096]),
        ] {
            let plain = Capsule::write(7, 3, 4096, payload.clone());
            let pre = Capsule::write_precrc(7, 3, 4096, payload.clone(), crc32(&payload));
            assert_eq!(flat(plain.encode_sg()), flat(pre.encode_sg()));
            assert_eq!(decode(&flat(pre.encode_sg())).unwrap(), plain);
        }
    }

    #[test]
    fn wrong_precrc_fails_wire_crc() {
        // The cached checksum genuinely feeds the wire CRC: lying about it
        // produces a capsule the decoder rejects.
        let payload = Bytes::from_static(b"checkpoint bytes");
        let bad = Capsule::write_precrc(1, 1, 0, payload.clone(), !crc32(&payload));
        assert!(matches!(
            decode(&flat(bad.encode_sg())),
            Err(CapsuleError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn read_and_flush_roundtrip() {
        for c in [Capsule::read(1, 2, 0, 32 << 10), Capsule::flush(2, 2)] {
            assert_eq!(decode(&flat(c.encode_sg())).unwrap(), c);
        }
    }

    #[test]
    fn sg_roundtrip_is_copy_free() {
        let payload = Bytes::from(vec![0x42u8; 4096]);
        let c = Capsule::write(3, 1, 0, payload.clone());
        let sg = c.encode_sg();
        assert_eq!(sg.segment_count(), 2);
        let d = Capsule::decode_sg(sg).unwrap();
        assert_eq!(c, d);
        // Same allocation end-to-end: the decoded payload points at the
        // original buffer, not a copy.
        assert_eq!(d.data.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn sg_decode_handles_contiguous_and_odd_segmentation() {
        let c = Capsule::write(1, 1, 64, Bytes::from_static(b"abcd"));
        // Single-segment (contiguous) delivery.
        assert_eq!(
            Capsule::decode_sg(c.encode_sg().into_contiguous().into()).unwrap(),
            c
        );
        // Flush has no payload: encode_sg yields one header segment.
        let f = Capsule::flush(9, 2);
        assert_eq!(f.encode_sg().segment_count(), 1);
        assert_eq!(Capsule::decode_sg(f.encode_sg()).unwrap(), f);
    }

    #[test]
    fn sg_payload_mismatch_rejected() {
        let c = Capsule::write(1, 1, 0, Bytes::from_static(b"abcd"));
        let mut sg = crate::sg::SgList::from(c.encode_sg().into_segments().swap_remove(0));
        sg.push(Bytes::from_static(b"abc")); // one byte short
        assert!(matches!(
            Capsule::decode_sg(sg),
            Err(CapsuleError::PayloadMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn completion_sg_roundtrip() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let c = Completion::ok(5, payload.clone());
        let d = Completion::decode_sg(c.encode_sg()).unwrap();
        assert_eq!(c, d);
        assert_eq!(d.data.as_ptr(), payload.as_ptr());
        let e = Completion::error(5, Status::InvalidField);
        assert_eq!(Completion::decode_sg(e.encode_sg()).unwrap(), e);
    }

    #[test]
    fn completion_keeps_its_verified_crc_in_padding() {
        assert!(std::mem::size_of::<Completion>() <= std::mem::size_of::<Bytes>() + 8);
    }

    #[test]
    fn completion_roundtrip() {
        let ok = Completion::ok(9, Bytes::from_static(&[1, 2, 3]));
        assert_eq!(decode_completion(&flat(ok.encode_sg())).unwrap(), ok);
        let err = Completion::error(9, Status::LbaOutOfRange);
        assert_eq!(decode_completion(&flat(err.encode_sg())).unwrap(), err);
    }

    #[test]
    fn truncated_and_bad_magic_rejected() {
        assert_eq!(decode(&[1, 2, 3]), Err(CapsuleError::Truncated));
        let mut bad = flat(Capsule::flush(0, 0).encode_sg());
        bad[0] ^= 0xFF;
        assert!(matches!(decode(&bad), Err(CapsuleError::BadMagic(_))));
    }

    #[test]
    fn payload_mismatch_rejected() {
        let c = Capsule::write(1, 1, 0, Bytes::from_static(b"abcd"));
        let mut wire = flat(c.encode_sg());
        wire.truncate(wire.len() - 1); // drop one payload byte
        assert!(matches!(
            decode(&wire),
            Err(CapsuleError::PayloadMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn crc_detects_payload_corruption() {
        let c = Capsule::write(3, 1, 0, Bytes::from_static(b"checkpoint"));
        let mut wire = flat(c.encode_sg());
        let last = wire.len() - 1;
        wire[last] ^= 0x01; // flip one payload bit
        assert!(matches!(
            decode(&wire),
            Err(CapsuleError::CrcMismatch { cid: 3, .. })
        ));
    }

    #[test]
    fn crc_detects_header_field_corruption() {
        let c = Capsule::write(4, 1, 4096, Bytes::from_static(b"x"));
        let mut wire = flat(c.encode_sg());
        wire[11] ^= 0x40; // offset field
        assert!(matches!(
            decode(&wire),
            Err(CapsuleError::CrcMismatch { cid: 4, .. })
        ));
    }

    #[test]
    fn completion_crc_detects_corruption() {
        let c = Completion::ok(8, Bytes::from_static(b"read data"));
        let mut wire = flat(c.encode_sg());
        let last = wire.len() - 1;
        wire[last] ^= 0x80;
        assert!(matches!(
            decode_completion(&wire),
            Err(CapsuleError::CrcMismatch { cid: 8, .. })
        ));
    }

    #[test]
    fn nonwrite_capsule_with_payload_rejected() {
        // A read capsule declaring len=4096 must not be allowed to smuggle
        // inline bytes: the declared *payload* length for a read is zero.
        let r = Capsule::read(1, 1, 0, 4096);
        let mut wire = flat(r.encode_sg());
        wire.put_slice(b"sneaky trailing bytes");
        assert!(matches!(
            decode(&wire),
            Err(CapsuleError::PayloadMismatch {
                expected: 0,
                actual: 21
            })
        ));
    }

    #[test]
    fn connect_roundtrip() {
        let c = Capsule::connect(1, 7);
        assert_eq!(c.opcode, Opcode::Connect);
        assert_eq!(decode(&flat(c.encode_sg())).unwrap(), c);
    }

    #[test]
    fn bad_opcode_rejected() {
        let c = Capsule::flush(0, 0);
        let mut wire = flat(c.encode_sg());
        wire[4] = 0x55;
        assert_eq!(decode(&wire), Err(CapsuleError::BadOpcode(0x55)));
    }

    proptest! {
        #[test]
        fn prop_capsule_roundtrip(
            cid in any::<u16>(),
            nsid in any::<u32>(),
            offset in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            let c = Capsule::write(cid, nsid, offset, Bytes::from(data));
            prop_assert_eq!(decode(&flat(c.encode_sg())).unwrap(), c);
        }

        #[test]
        fn prop_completion_roundtrip(
            cid in any::<u16>(),
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            let c = Completion::ok(cid, Bytes::from(data));
            prop_assert_eq!(decode_completion(&flat(c.encode_sg())).unwrap(), c);
        }

        /// Arbitrary garbage never panics the decoder.
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
            let _ = decode_completion(&bytes);
        }
    }
}
