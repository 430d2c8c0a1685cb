//! Checkpoint epoch manifests — the on-device commit protocol of the
//! replicated checkpoint path.
//!
//! Every replicated rank reserves a small manifest region at the tail of
//! its segment (on both copies), cut into a ring of [`CHAIN_SLOTS`]
//! slots. A checkpoint epoch commits in two phases into slot
//! `epoch % CHAIN_SLOTS`: first the **body** — epoch sequence number plus
//! one `(offset, len, crc32)` entry per extent, either of the whole image
//! (a full manifest) or of what changed since the parent epoch (a delta)
//! — then a CRC-sealed **commit record** at the slot head. A slot whose
//! record is missing, torn, or corrupt is simply not committed, so
//! restore can always identify the latest *complete* epoch on either
//! copy: the other slots still hold the previous ones.
//!
//! [`ExtentMap`] is the in-memory side: a cumulative map of every byte
//! ever mirrored, with per-extent CRCs maintained incrementally —
//! adjacent extents merge via [`crc32_concat`] without re-reading data;
//! partially overwritten extents leave *dirty* (CRC-unknown) fragments
//! that the committer re-reads lazily.

use std::collections::BTreeMap;
use std::fmt;

use crate::crc::{crc32, crc32_concat};
use crate::wire::{Reader, Short};

/// Bytes of the manifest region at the tail of every replicated segment.
pub const REGION_BYTES: u64 = 1 << 20;
/// Slots in the manifest ring: epoch `e` seals into slot `e % CHAIN_SLOTS`,
/// so a full manifest and the delta epochs chained onto it stay
/// addressable side by side.
pub const CHAIN_SLOTS: u64 = 8;
/// Bytes reserved per manifest slot.
pub const SLOT_BYTES: u64 = REGION_BYTES / CHAIN_SLOTS;
/// Bytes of the sealed commit record at the head of a slot.
pub const COMMIT_RECORD_BYTES: u64 = 32;
/// Longest delta lineage the ring supports: a complete chain is
/// `full + MAX_DELTA_CHAIN` deltas, and one more slot stays free for the
/// in-progress commit that will overwrite the oldest entry.
pub const MAX_DELTA_CHAIN: u32 = (CHAIN_SLOTS - 2) as u32;

const BODY_MAGIC: u32 = 0x4E43_4D42; // "BMCN"
const DELTA_MAGIC: u32 = 0x4E43_4D44; // "DMCN"
const COMMIT_MAGIC: u32 = 0x4E43_4D43; // "CMCN"
const BODY_HEADER: usize = 16; // magic u32 | epoch u64 | count u32
const DELTA_EXTRA: usize = 12; // parent_epoch u64 | whiteout count u32
const EXTENT_BYTES: usize = 20; // offset u64 | len u64 | crc u32
const WHITEOUT_BYTES: usize = 16; // offset u64 | len u64
/// Most body bytes one slot can carry.
const BODY_CAPACITY: usize = (SLOT_BYTES - COMMIT_RECORD_BYTES) as usize;

/// Slot offset (within the manifest region) for `epoch`.
pub fn slot_offset(epoch: u64) -> u64 {
    (epoch % CHAIN_SLOTS) * SLOT_BYTES
}

/// Most extents a full manifest body can hold in one slot.
pub fn max_extents() -> usize {
    (BODY_CAPACITY - BODY_HEADER) / EXTENT_BYTES
}

/// The body length a slot's commit record seals, when the first
/// [`COMMIT_RECORD_BYTES`] of `record` carry the commit magic, zero
/// padding and an intact seal and the body fits the slot — the only bytes
/// past the record that [`EpochManifest::decode_slot`] can accept. `None`
/// means the slot holds no complete epoch.
#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
pub fn sealed_body_len(record: &[u8]) -> Option<usize> {
    let mut r = Reader::new(record.get(..COMMIT_RECORD_BYTES as usize)?);
    let (sealed, seal) = (r.bytes(20).ok()?, r.u32().ok()?);
    let padding = r.bytes(r.remaining()).ok()?;
    let mut f = Reader::new(sealed);
    let (magic, _epoch, body_len) = (f.u32().ok()?, f.u64().ok()?, f.u32().ok()?);
    let body_len = usize::try_from(body_len).ok()?;
    let intact = magic == COMMIT_MAGIC && padding.iter().all(|&b| b == 0) && seal == crc32(sealed);
    (intact && body_len <= BODY_CAPACITY).then_some(body_len)
}

/// Manifest encode/decode failures. Decode errors all mean "this slot
/// holds no complete epoch" — the caller falls back to an older slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The slot is shorter than its framing claims (torn write).
    Truncated,
    /// No commit record (or not a manifest at all).
    BadMagic,
    /// A CRC check failed — record or body bytes rotted or tore.
    Corrupt { expected: u32, actual: u32 },
    /// The record and body disagree on the epoch.
    EpochMismatch { record: u64, body: u64 },
    /// Encoding: the extent map no longer fits one slot.
    TooLarge { extents: usize },
    /// Encoding: an extent's CRC is unresolved (dirty) — the caller must
    /// re-read and [`ExtentMap::set_crc`] it first.
    Dirty { offset: u64 },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Truncated => write!(f, "manifest slot truncated"),
            ManifestError::BadMagic => write!(f, "manifest slot has no commit record"),
            ManifestError::Corrupt { expected, actual } => {
                write!(
                    f,
                    "manifest CRC mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            ManifestError::EpochMismatch { record, body } => {
                write!(f, "manifest epoch mismatch: record {record}, body {body}")
            }
            ManifestError::TooLarge { extents } => {
                write!(f, "{extents} extents exceed one manifest slot")
            }
            ManifestError::Dirty { offset } => {
                write!(f, "extent at {offset} has an unresolved CRC")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<Short> for ManifestError {
    fn from(_: Short) -> Self {
        ManifestError::Truncated
    }
}

/// One verified extent of the mirrored image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestExtent {
    /// Byte offset within the filesystem image.
    pub offset: u64,
    /// Extent length in bytes.
    pub len: u64,
    /// CRC-32 of the extent's contents.
    pub crc: u32,
}

/// A committed checkpoint epoch: sequence number plus the extents (and
/// their checksums) that make up the image — the whole image for a full
/// epoch, only the changed part for a delta epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochManifest {
    /// Monotonic epoch sequence number (first commit is 1).
    pub epoch: u64,
    /// Parent epoch of a delta manifest; `0` marks a full (self-contained)
    /// manifest. A delta's parent is always `epoch - 1` — every commit
    /// seals a manifest, so the lineage has no holes.
    pub parent_epoch: u64,
    /// Image extents, in offset order. For a delta: only the extents whose
    /// `(offset, len, crc)` tuple changed since the parent epoch.
    pub extents: Vec<ManifestExtent>,
    /// Spans discarded since the parent epoch (file deletes/truncates
    /// propagated down as device discards). During chain materialization
    /// a whiteout shadows any ancestor extents beneath it.
    pub whiteouts: Vec<(u64, u64)>,
}

impl EpochManifest {
    /// A full (self-contained) manifest: a chain of one link.
    pub fn full(epoch: u64, extents: Vec<ManifestExtent>) -> Self {
        EpochManifest {
            epoch,
            parent_epoch: 0,
            extents,
            whiteouts: Vec::new(),
        }
    }

    /// True for a delta manifest (has a parent in the lineage chain).
    pub fn is_delta(&self) -> bool {
        self.parent_epoch != 0
    }

    /// Encode the phase-1 **body**: written at `slot + COMMIT_RECORD_BYTES`
    /// *before* the commit record so a crash between the phases leaves the
    /// slot uncommitted rather than half-sealed. Full manifests keep the
    /// v1 encoding bit-for-bit; deltas use the extended header carrying
    /// `parent_epoch` and the whiteout list. A body that would not fit one
    /// ring slot is [`ManifestError::TooLarge`].
    pub fn encode_body(&self) -> Result<Vec<u8>, ManifestError> {
        let delta = self.is_delta() || !self.whiteouts.is_empty();
        let cap = BODY_HEADER
            + if delta { DELTA_EXTRA } else { 0 }
            + self.extents.len() * EXTENT_BYTES
            + self.whiteouts.len() * WHITEOUT_BYTES;
        if cap > BODY_CAPACITY {
            return Err(ManifestError::TooLarge {
                extents: self.extents.len(),
            });
        }
        let mut out = Vec::with_capacity(cap);
        let magic = if delta { DELTA_MAGIC } else { BODY_MAGIC };
        out.extend_from_slice(&magic.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.extents.len() as u32).to_le_bytes());
        if delta {
            out.extend_from_slice(&self.parent_epoch.to_le_bytes());
            out.extend_from_slice(&(self.whiteouts.len() as u32).to_le_bytes());
        }
        for e in &self.extents {
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
        }
        if delta {
            for &(offset, len) in &self.whiteouts {
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Encode the phase-2 **commit record** sealing `body`: written at the
    /// slot head only after the body write completed.
    pub fn encode_commit(&self, body: &[u8]) -> [u8; COMMIT_RECORD_BYTES as usize] {
        let mut rec = [0u8; COMMIT_RECORD_BYTES as usize];
        rec[0..4].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
        rec[4..12].copy_from_slice(&self.epoch.to_le_bytes());
        rec[12..16].copy_from_slice(&(body.len() as u32).to_le_bytes());
        rec[16..20].copy_from_slice(&crc32(body).to_le_bytes());
        let seal = crc32(&rec[0..20]);
        rec[20..24].copy_from_slice(&seal.to_le_bytes());
        rec
    }

    /// Decode one slot (commit record + body). Any framing, CRC, or epoch
    /// inconsistency — truncation and single-bit corruption included —
    /// returns an error: the slot holds no complete epoch.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode_slot(slot: &[u8]) -> Result<EpochManifest, ManifestError> {
        let mut r = Reader::new(slot);
        let mut rec = Reader::new(r.bytes(COMMIT_RECORD_BYTES as usize)?);
        // magic u32 | epoch u64 | body_len u32 | body_crc u32, then the
        // seal over those 20 bytes and zero padding.
        let (sealed, seal) = (rec.bytes(20)?, rec.u32()?);
        let padding = rec.bytes(rec.remaining())?;
        let mut rec = Reader::new(sealed);
        if rec.u32()? != COMMIT_MAGIC || padding.iter().any(|&b| b != 0) {
            return Err(ManifestError::BadMagic);
        }
        let actual = crc32(sealed);
        if seal != actual {
            return Err(ManifestError::Corrupt {
                expected: seal,
                actual,
            });
        }
        let (rec_epoch, body_len, body_crc) = (rec.u64()?, rec.u32()?, rec.u32()?);
        let body = r.bytes(body_len as usize)?;
        let actual = crc32(body);
        if body_crc != actual {
            return Err(ManifestError::Corrupt {
                expected: body_crc,
                actual,
            });
        }
        let mut r = Reader::new(body);
        let (Ok(magic), Ok(body_epoch), Ok(count)) = (r.u32(), r.u64(), r.u32()) else {
            return Err(ManifestError::BadMagic);
        };
        let delta = match magic {
            BODY_MAGIC => false,
            DELTA_MAGIC => true,
            _ => return Err(ManifestError::BadMagic),
        };
        if body_epoch != rec_epoch {
            return Err(ManifestError::EpochMismatch {
                record: rec_epoch,
                body: body_epoch,
            });
        }
        let (parent_epoch, wcount) = if delta { (r.u64()?, r.u32()?) } else { (0, 0) };
        let (count, wcount) = (count as usize, wcount as usize);
        let listed = count
            .checked_mul(EXTENT_BYTES)
            .zip(wcount.checked_mul(WHITEOUT_BYTES))
            .and_then(|(e, w)| e.checked_add(w));
        if listed != Some(r.remaining()) {
            return Err(ManifestError::Truncated);
        }
        let mut extents = Vec::with_capacity(count);
        for _ in 0..count {
            let (offset, len, crc) = (r.u64()?, r.u64()?, r.u32()?);
            extents.push(ManifestExtent { offset, len, crc });
        }
        let mut whiteouts = Vec::with_capacity(wcount);
        for _ in 0..wcount {
            whiteouts.push((r.u64()?, r.u64()?));
        }
        Ok(EpochManifest {
            epoch: rec_epoch,
            parent_epoch,
            extents,
            whiteouts,
        })
    }

    /// Total image bytes the manifest covers.
    pub fn bytes(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct MapEntry {
    len: u64,
    /// `None` marks a dirty fragment: its bytes are on both copies but
    /// its CRC must be re-read before the next commit can cover it.
    crc: Option<u32>,
}

/// Cumulative map of every mirrored byte, with incremental CRCs.
#[derive(Debug, Clone)]
pub struct ExtentMap {
    map: BTreeMap<u64, MapEntry>,
    /// Largest extent adjacent merges may produce. Unlimited by default
    /// (today's behavior); the delta-chain path caps it so extents stay
    /// close to write granularity and delta diffs stay sparse.
    merge_limit: u64,
}

impl Default for ExtentMap {
    fn default() -> Self {
        ExtentMap {
            map: BTreeMap::new(),
            merge_limit: u64::MAX,
        }
    }
}

impl ExtentMap {
    /// An empty map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// Rebuild a map from disjoint extents (chain materialization).
    pub fn from_extents(extents: &[ManifestExtent]) -> Self {
        let mut map = BTreeMap::new();
        for e in extents {
            map.insert(
                e.offset,
                MapEntry {
                    len: e.len,
                    crc: Some(e.crc),
                },
            );
        }
        ExtentMap {
            map,
            merge_limit: u64::MAX,
        }
    }

    /// Cap adjacent merges at `limit` bytes. Existing extents are left
    /// as-is; only future merges respect the cap.
    pub fn set_merge_limit(&mut self, limit: u64) {
        self.merge_limit = limit.max(1);
    }

    /// Record a mirrored write of `len` bytes at `offset` whose payload
    /// CRC is `crc`.
    pub fn record(&mut self, offset: u64, len: u64, crc: u32) {
        self.insert_extent(offset, len, Some(crc));
    }

    /// Mark `[offset, offset+len)` dirty — used when a mirrored window
    /// failed partway and the replica's contents for the range are
    /// uncertain (they will be copied, not CRC-verified, on restore).
    pub fn mark_dirty(&mut self, offset: u64, len: u64) {
        self.insert_extent(offset, len, None);
    }

    /// Drop `[offset, offset+len)` from the map — a whiteout. Extents
    /// reaching across either boundary keep their outside fragments, whose
    /// CRCs go dirty and are re-read at the next commit (the same rule as
    /// an overlapping write).
    pub fn remove(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let mut hit: Vec<(u64, MapEntry)> = Vec::new();
        if let Some((&k, &e)) = self.map.range(..offset).next_back() {
            if k + e.len > offset {
                hit.push((k, e));
            }
        }
        for (&k, &e) in self.map.range(offset..end) {
            hit.push((k, e));
        }
        for (k, e) in hit {
            self.map.remove(&k);
            if k < offset {
                self.map.insert(
                    k,
                    MapEntry {
                        len: offset - k,
                        crc: None,
                    },
                );
            }
            if k + e.len > end {
                self.map.insert(
                    end,
                    MapEntry {
                        len: k + e.len - end,
                        crc: None,
                    },
                );
            }
        }
    }

    fn insert_extent(&mut self, offset: u64, len: u64, crc: Option<u32>) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        // Collect every existing extent overlapping [offset, end): the
        // predecessor (which may reach in) plus all starting inside.
        let mut hit: Vec<(u64, MapEntry)> = Vec::new();
        if let Some((&k, &e)) = self.map.range(..offset).next_back() {
            if k + e.len > offset {
                hit.push((k, e));
            }
        }
        for (&k, &e) in self.map.range(offset..end) {
            hit.push((k, e));
        }
        for (k, e) in hit {
            self.map.remove(&k);
            // A surviving fragment's CRC is not derivable from the whole
            // extent's — it goes dirty and is re-read at the next commit.
            if k < offset {
                self.map.insert(
                    k,
                    MapEntry {
                        len: offset - k,
                        crc: None,
                    },
                );
            }
            if k + e.len > end {
                self.map.insert(
                    end,
                    MapEntry {
                        len: k + e.len - end,
                        crc: None,
                    },
                );
            }
        }
        self.map.insert(offset, MapEntry { len, crc });
        self.merge_around(offset);
    }

    /// Merge the extent at `offset` with exactly-adjacent neighbours whose
    /// CRCs are known, composing checksums with [`crc32_concat`] instead
    /// of re-reading bytes.
    fn merge_around(&mut self, mut offset: u64) {
        let Some(mut cur) = self.map.get(&offset).copied() else {
            return;
        };
        if let Some((&pk, &pe)) = self.map.range(..offset).next_back() {
            if pk + pe.len == offset && pe.len + cur.len <= self.merge_limit {
                if let (Some(a), Some(b)) = (pe.crc, cur.crc) {
                    self.map.remove(&offset);
                    cur = MapEntry {
                        len: pe.len + cur.len,
                        crc: Some(crc32_concat(a, b, cur.len)),
                    };
                    self.map.insert(pk, cur);
                    offset = pk;
                }
            }
        }
        let next = offset + cur.len;
        if let Some(&ne) = self.map.get(&next) {
            if cur.len + ne.len <= self.merge_limit {
                if let (Some(a), Some(b)) = (cur.crc, ne.crc) {
                    self.map.remove(&next);
                    self.map.insert(
                        offset,
                        MapEntry {
                            len: cur.len + ne.len,
                            crc: Some(crc32_concat(a, b, ne.len)),
                        },
                    );
                }
            }
        }
    }

    /// Dirty fragments, in offset order — the committer re-reads exactly
    /// these before encoding a manifest.
    pub fn dirty_fragments(&self) -> Vec<(u64, u64)> {
        self.map
            .iter()
            .filter(|(_, e)| e.crc.is_none())
            .map(|(&k, e)| (k, e.len))
            .collect()
    }

    /// Resolve a dirty fragment's CRC after re-reading it. Returns false
    /// if no fragment starts at `offset` with exactly `len` bytes.
    pub fn set_crc(&mut self, offset: u64, len: u64, crc: u32) -> bool {
        match self.map.get_mut(&offset) {
            Some(e) if e.len == len => {
                e.crc = Some(crc);
                self.merge_around(offset);
                true
            }
            _ => false,
        }
    }

    /// All extents as `(offset, len, crc)` — `crc` is `None` for dirty
    /// fragments.
    pub fn entries(&self) -> Vec<(u64, u64, Option<u32>)> {
        self.map.iter().map(|(&k, e)| (k, e.len, e.crc)).collect()
    }

    /// Number of extents tracked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing was mirrored yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes tracked.
    pub fn bytes(&self) -> u64 {
        self.map.values().map(|e| e.len).sum()
    }

    /// Build the full manifest for `epoch`. Every extent's CRC must be
    /// resolved first (see [`ExtentMap::dirty_fragments`]).
    pub fn to_manifest(&self, epoch: u64) -> Result<EpochManifest, ManifestError> {
        let mut extents = Vec::with_capacity(self.map.len());
        for (&offset, e) in &self.map {
            let crc = e.crc.ok_or(ManifestError::Dirty { offset })?;
            extents.push(ManifestExtent {
                offset,
                len: e.len,
                crc,
            });
        }
        Ok(EpochManifest::full(epoch, extents))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(m: &EpochManifest) -> Vec<u8> {
        let body = m.encode_body().unwrap();
        let rec = m.encode_commit(&body);
        let mut slot = rec.to_vec();
        slot.extend_from_slice(&body);
        slot
    }

    #[test]
    fn encode_decode_roundtrips() {
        let m = EpochManifest::full(
            7,
            vec![
                ManifestExtent {
                    offset: 0,
                    len: 4096,
                    crc: 0xDEAD_BEEF,
                },
                ManifestExtent {
                    offset: 1 << 20,
                    len: 123,
                    crc: 42,
                },
            ],
        );
        assert_eq!(EpochManifest::decode_slot(&roundtrip(&m)).unwrap(), m);
        assert_eq!(m.bytes(), 4096 + 123);
    }

    #[test]
    fn missing_record_is_uncommitted() {
        // Phase 1 only: body in place, record never sealed.
        let m = EpochManifest::full(1, vec![]);
        let body = m.encode_body().unwrap();
        let mut slot = vec![0u8; COMMIT_RECORD_BYTES as usize];
        slot.extend_from_slice(&body);
        assert_eq!(
            EpochManifest::decode_slot(&slot),
            Err(ManifestError::BadMagic)
        );
        assert_eq!(
            EpochManifest::decode_slot(&[]),
            Err(ManifestError::Truncated)
        );
    }

    #[test]
    fn ring_slots_tile_the_region_and_bound_the_body() {
        assert_eq!(CHAIN_SLOTS * SLOT_BYTES, REGION_BYTES);
        assert_eq!(slot_offset(1), SLOT_BYTES);
        assert_eq!(slot_offset(CHAIN_SLOTS), 0);
        assert!(u64::from(MAX_DELTA_CHAIN) + 2 <= CHAIN_SLOTS);
        // A full manifest of max_extents() fits one slot; one more is
        // rejected at encode time.
        assert_eq!(max_extents(), 6551);
        let extent = |i: u64| ManifestExtent {
            offset: i * 4096,
            len: 4096,
            crc: i as u32,
        };
        let n = max_extents() as u64;
        let fits = EpochManifest::full(1, (0..n).map(extent).collect());
        assert!(
            fits.encode_body().unwrap().len() + COMMIT_RECORD_BYTES as usize <= SLOT_BYTES as usize
        );
        let over = EpochManifest::full(1, (0..=n).map(extent).collect());
        assert_eq!(
            over.encode_body(),
            Err(ManifestError::TooLarge {
                extents: max_extents() + 1
            })
        );
    }

    #[test]
    fn map_merges_sequential_writes() {
        let mut map = ExtentMap::new();
        let a = b"sequential ";
        let b = b"append stream";
        map.record(0, a.len() as u64, crc32(a));
        map.record(a.len() as u64, b.len() as u64, crc32(b));
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(
            map.entries(),
            vec![(0, joined.len() as u64, Some(crc32(&joined)))]
        );
    }

    #[test]
    fn overwrite_splits_and_dirties_fragments() {
        let mut map = ExtentMap::new();
        map.record(0, 100, 1);
        map.record(40, 20, 2); // punches a hole in the middle
        let entries = map.entries();
        assert_eq!(
            entries,
            vec![(0, 40, None), (40, 20, Some(2)), (60, 40, None)]
        );
        assert_eq!(map.dirty_fragments(), vec![(0, 40), (60, 40)]);
        assert_eq!(map.bytes(), 100);
        // Resolving the dirty CRCs makes the map committable again.
        assert!(map.to_manifest(1).is_err());
        assert!(map.set_crc(0, 40, 7));
        assert!(map.set_crc(60, 40, 9));
        assert!(map.to_manifest(1).is_ok());
    }

    #[test]
    fn exact_overwrite_replaces_crc() {
        let mut map = ExtentMap::new();
        map.record(10, 50, 1);
        map.record(10, 50, 2);
        assert_eq!(map.entries(), vec![(10, 50, Some(2))]);
    }

    #[test]
    fn manifest_rebuild_matches() {
        let mut map = ExtentMap::new();
        map.record(0, 64, 11);
        map.record(128, 32, 22);
        let m = map.to_manifest(3).unwrap();
        let rebuilt = ExtentMap::from_extents(&m.extents);
        assert_eq!(rebuilt.entries(), map.entries());
    }

    #[test]
    fn delta_manifest_roundtrips_with_parent_and_whiteouts() {
        let m = EpochManifest {
            epoch: 12,
            parent_epoch: 11,
            extents: vec![ManifestExtent {
                offset: 4096,
                len: 8192,
                crc: 0xC0FF_EE00,
            }],
            whiteouts: vec![(1 << 20, 64 << 10), (3 << 20, 4096)],
        };
        let decoded = EpochManifest::decode_slot(&roundtrip(&m)).unwrap();
        assert_eq!(decoded, m);
        assert!(decoded.is_delta());
        // A full manifest's encoding is byte-identical to the v1 format:
        // no parent/whiteout fields on the wire.
        let full = EpochManifest::full(12, m.extents.clone());
        let v1 = full.encode_body().unwrap();
        assert_eq!(v1.len(), 16 + 20);
        assert!(!EpochManifest::decode_slot(&roundtrip(&full))
            .unwrap()
            .is_delta());
    }

    #[test]
    fn remove_punches_whiteout_holes() {
        let mut map = ExtentMap::new();
        map.record(0, 100, 1);
        map.remove(40, 20);
        assert_eq!(map.entries(), vec![(0, 40, None), (60, 40, None)]);
        assert_eq!(map.bytes(), 80);
        // Removing a whole extent leaves nothing behind.
        map.remove(0, 40);
        assert_eq!(map.entries(), vec![(60, 40, None)]);
        // Removing beyond mapped space is a no-op.
        map.remove(500, 100);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn merge_limit_bounds_extent_growth() {
        let mut map = ExtentMap::new();
        map.set_merge_limit(64);
        for i in 0..4u64 {
            map.record(i * 32, 32, i as u32 + 1);
        }
        // Adjacent 32-byte extents merge pairwise to 64 and stop there.
        assert_eq!(map.len(), 2);
        assert!(map.entries().iter().all(|&(_, len, _)| len <= 64));
        assert_eq!(map.bytes(), 128);
    }

    proptest! {
        /// Encode/decode round-trips arbitrary manifests.
        #[test]
        fn prop_roundtrip(
            epoch in 1u64..1_000_000,
            lens in proptest::collection::vec(1u64..10_000, 0..64),
        ) {
            let mut offset = 0;
            let extents: Vec<ManifestExtent> = lens
                .iter()
                .map(|&len| {
                    let e = ManifestExtent { offset, len, crc: crc32(&offset.to_le_bytes()) };
                    offset += len + 1;
                    e
                })
                .collect();
            let m = EpochManifest::full(epoch, extents);
            prop_assert_eq!(EpochManifest::decode_slot(&roundtrip(&m)).unwrap(), m);
        }

        /// Truncating an encoded slot anywhere is detected.
        #[test]
        fn prop_truncation_detected(
            cut in 0usize..200,
        ) {
            let m = EpochManifest::full(
                9,
                (0..8u64)
                    .map(|i| ManifestExtent { offset: i * 64, len: 64, crc: i as u32 })
                    .collect(),
            );
            let slot = roundtrip(&m);
            let cut = cut % slot.len();
            prop_assert!(EpochManifest::decode_slot(&slot[..cut]).is_err());
        }

        /// Flipping any single bit of an encoded slot is detected
        /// (mirrors the crc.rs bit-flip property).
        #[test]
        fn prop_single_bit_corruption_detected(
            idx_seed in any::<u64>(),
            bit in 0usize..8,
        ) {
            let m = EpochManifest::full(
                5,
                (0..4u64)
                    .map(|i| ManifestExtent { offset: i * 4096, len: 4096, crc: 0xA5A5 + i as u32 })
                    .collect(),
            );
            let mut slot = roundtrip(&m);
            let idx = (idx_seed as usize) % slot.len();
            slot[idx] ^= 1 << bit;
            prop_assert_ne!(EpochManifest::decode_slot(&slot).as_ref(), Ok(&m));
        }

        /// The map's composed CRCs always equal a direct CRC of the image
        /// bytes, under arbitrary overlapping writes (dirty fragments are
        /// resolved against the image, as the committer does).
        #[test]
        fn prop_map_crcs_match_image(
            writes in proptest::collection::vec((0u64..500, 1u64..300, any::<u8>()), 1..24),
        ) {
            let mut image = vec![0u8; 1024];
            let mut map = ExtentMap::new();
            for (offset, len, fill) in writes {
                let end = ((offset + len) as usize).min(image.len());
                let offset = offset as usize;
                let data = vec![fill; end - offset];
                image[offset..end].copy_from_slice(&data);
                map.record(offset as u64, data.len() as u64, crc32(&data));
            }
            for (offset, len) in map.dirty_fragments() {
                let (o, l) = (offset as usize, len as usize);
                prop_assert!(map.set_crc(offset, len, crc32(&image[o..o + l])));
            }
            let m = map.to_manifest(1).unwrap();
            for e in &m.extents {
                let (o, l) = (e.offset as usize, e.len as usize);
                prop_assert_eq!(e.crc, crc32(&image[o..o + l]));
            }
        }
    }
}
