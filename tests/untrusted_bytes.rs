//! Every decoder of untrusted bytes, against one table of mutations.
//!
//! Each row names a decoder, valid encodings of it, the checksum it
//! re-seals after a mutation (so the mutation reaches the parser instead
//! of stopping at the CRC), and inputs that once panicked a decoder. The
//! driver then, for every sample:
//!
//! - truncates it at every length, and requires a rejection;
//! - overwrites every 2-, 4- and 8-byte window with values that blow up a
//!   count or length field (`u16::MAX`, `u32::MAX`, `u64::MAX`, and counts
//!   whose byte size wraps `usize`);
//! - flips every bit;
//!
//! and requires that no case panics and no case makes a single allocation
//! larger than a small multiple of the input. A decoder without a public
//! entry point is driven through its public caller: the snapshot state
//! through `snapshot::read_latest` on a `MemDevice`. The `proptest!` block
//! at the end checks that decode ∘ encode is the identity on generated
//! values.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use bytes::Bytes;
use fabric::{Capsule, Completion, SgList, Status};
use microfs::block::BlockPool;
use microfs::btree::BTree;
use microfs::crc::{crc32, crc32_update};
use microfs::dirent::Dirent;
use microfs::inode::{Inode, InodeTable};
use microfs::manifest::{sealed_body_len, EpochManifest, ManifestExtent, COMMIT_RECORD_BYTES};
use microfs::snapshot::{self, FsState};
use microfs::wal::record::{read_frame, LogRecord};
use microfs::{BlockDevice, FsConfig, Layout, MemDevice, MicroFs};
use proptest::prelude::*;

/// Records the largest single allocation the current thread asks for, so
/// a case can prove that no count field sized an allocation by itself.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only reads and writes a
// const-initialized thread-local `Cell` (no destructor, no allocation), and
// `try_with` skips it once the thread's locals are gone.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs a decoder on one input: `true` if it accepted it.
type Decoder = Box<dyn FnMut(&[u8]) -> bool>;

/// One decoder under test.
struct Row {
    name: &'static str,
    /// Valid encodings; each must decode.
    samples: Vec<Vec<u8>>,
    /// Recompute the CRCs a mutation broke. Identity for formats whose
    /// checksum the decode closure computes itself, or that have none.
    seal: fn(&mut [u8]),
    decode: Decoder,
    /// Inputs that once panicked a decoder; each must be rejected.
    pinned: Vec<Vec<u8>>,
}

fn no_seal(_: &mut [u8]) {}

/// Values written over every window: count and length fields at their
/// extremes, plus counts whose byte size wraps `usize` once scaled by an
/// element size (8, 12, 16 or 20 bytes).
fn blowups(width: usize) -> Vec<u64> {
    match width {
        2 => vec![u16::MAX.into()],
        4 => vec![u32::MAX.into(), u32::MAX as u64 / 2 + 1],
        _ => vec![
            u64::MAX,
            u64::MAX - 8,
            u64::MAX / 8 + 1,
            u64::MAX / 12 + 1,
            u64::MAX / 16 + 1,
            u64::MAX / 20 + 1,
            u32::MAX.into(),
        ],
    }
}

impl Row {
    /// Decode one input; panics (failing the test) if the decoder made an
    /// allocation out of proportion to the input.
    fn run(&mut self, input: &[u8], what: &str) -> bool {
        LARGEST.with(|l| l.set(0));
        let accepted = (self.decode)(input);
        let largest = LARGEST.with(|l| l.get());
        let bound = 16 * input.len() + (64 << 10);
        assert!(
            largest <= bound,
            "{}: {what}: one allocation of {largest} bytes for a {}-byte input",
            self.name,
            input.len()
        );
        accepted
    }

    fn mutate_all(mut self) {
        let samples = std::mem::take(&mut self.samples);
        assert!(!samples.is_empty(), "{}: no samples", self.name);
        for sample in &samples {
            assert!(
                self.run(sample, "sample"),
                "{}: valid sample rejected",
                self.name
            );
            for len in 0..sample.len() {
                let mut m = sample[..len].to_vec();
                (self.seal)(&mut m);
                let accepted = self.run(&m, "truncation");
                assert!(!accepted, "{}: accepted a cut at {len}", self.name);
            }
            for width in [2usize, 4, 8] {
                for at in 0..(sample.len() + 1).saturating_sub(width) {
                    for v in blowups(width) {
                        let mut m = sample.clone();
                        m[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                        (self.seal)(&mut m);
                        self.run(&m, "blown-up field");
                    }
                }
            }
            for bit in 0..sample.len() * 8 {
                let mut m = sample.clone();
                m[bit / 8] ^= 1 << (bit % 8);
                (self.seal)(&mut m);
                self.run(&m, "bit flip");
            }
        }
        for (i, input) in std::mem::take(&mut self.pinned).iter().enumerate() {
            assert!(
                !self.run(input, "pinned"),
                "{}: pinned input {i} accepted",
                self.name
            );
        }
    }
}

// ---- samples ---------------------------------------------------------

fn inode(blocks: Vec<u64>) -> Inode {
    let mut i = Inode::new_file(0o640, 7, 99);
    i.size = blocks.len() as u64 * 4096;
    i.blocks = blocks;
    i
}

fn inode_table() -> InodeTable {
    let mut t = InodeTable::new();
    t.alloc(Inode::new_dir(0o755, 0, 0));
    let gone = t.alloc(inode(vec![1, 2]));
    t.alloc(inode(vec![3]));
    t.remove(gone).unwrap();
    t
}

fn block_pool() -> BlockPool {
    let mut p = BlockPool::new(6);
    let held = p.alloc_many(4).unwrap();
    p.free(held[2]);
    p.free(held[0]);
    p
}

fn btree() -> BTree {
    let mut t = BTree::new();
    for (i, k) in ["/", "/abc", "/ckpt/rank_0.dat", "/é"].iter().enumerate() {
        t.insert(k, i as u64);
    }
    t
}

fn fs_state() -> FsState {
    let mut btree = BTree::new();
    btree.insert("/", 0);
    btree.insert("/a", 1);
    FsState {
        inodes: inode_table(),
        pool: block_pool(),
        btree,
        op_counter: 9,
    }
}

fn log_records() -> Vec<LogRecord> {
    vec![
        LogRecord::Mkdir {
            path: "/ckpt".into(),
            mode: 0o755,
            uid: 1000,
        },
        LogRecord::Create {
            path: "/ckpt/r.dat".into(),
            mode: 0o644,
            uid: 1000,
        },
        LogRecord::Write {
            ino: 3,
            offset: 1 << 20,
            len: 32 << 10,
        },
        LogRecord::Truncate { ino: 3, size: 0 },
        LogRecord::Unlink { path: "/x".into() },
        LogRecord::Rename {
            from: "/t".into(),
            to: "/f".into(),
        },
        LogRecord::SetMode {
            ino: 3,
            mode: 0o600,
        },
    ]
}

fn manifests() -> Vec<EpochManifest> {
    let ext = |offset, len, crc| ManifestExtent { offset, len, crc };
    vec![
        EpochManifest::full(3, vec![ext(0, 4096, 0xAB), ext(8192, 512, 7)]),
        EpochManifest {
            epoch: 4,
            parent_epoch: 3,
            extents: vec![ext(4096, 4096, 1)],
            whiteouts: vec![(8192, 512)],
        },
        EpochManifest::full(1, Vec::new()),
    ]
}

fn manifest_slot(m: &EpochManifest) -> Vec<u8> {
    let body = m.encode_body().unwrap();
    let mut slot = m.encode_commit(&body).to_vec();
    slot.extend_from_slice(&body);
    slot
}

fn capsules() -> Vec<Capsule> {
    vec![
        Capsule::write(7, 3, 4096, Bytes::from_static(b"checkpoint bytes")),
        Capsule::read(8, 1, 1 << 20, 4096),
        Capsule::flush(9, 2),
        Capsule::connect(1, 5),
    ]
}

fn completions() -> Vec<Completion> {
    vec![
        Completion::ok(7, Bytes::from_static(b"read data")),
        Completion::ok(8, Bytes::new()),
        Completion::error(9, Status::LbaOutOfRange),
    ]
}

// ---- seals -----------------------------------------------------------

/// Superblock: CRC at 68..72 over the 68 bytes before it.
fn seal_superblock(b: &mut [u8]) {
    if b.len() >= 72 {
        let crc = crc32(&b[..68]);
        b[68..72].copy_from_slice(&crc.to_le_bytes());
    }
}

/// WAL frame: `gen u32 | plen u16 | crc u32 | payload`, CRC over gen and
/// the payload bytes present.
fn seal_frame(b: &mut [u8]) {
    if b.len() >= 10 {
        let plen = u16::from_le_bytes([b[4], b[5]]) as usize;
        let end = (10 + plen).min(b.len());
        let mut covered = b[..4].to_vec();
        covered.extend_from_slice(&b[10..end]);
        let crc = crc32(&covered);
        b[6..10].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Manifest slot: body CRC at 16..20 over the `body_len` (12..16) bytes
/// after the 32-byte record, then the record seal at 20..24 over 0..20.
fn seal_manifest(b: &mut [u8]) {
    if b.len() >= 24 {
        let body_len = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        if let Some(body) = b.get(32..32usize.saturating_add(body_len)) {
            let crc = crc32(body);
            b[16..20].copy_from_slice(&crc.to_le_bytes());
        }
        let seal = crc32(&b[..20]);
        b[20..24].copy_from_slice(&seal.to_le_bytes());
    }
}

/// Capsule or completion: the wire CRC closing a `header`-byte header
/// continues the prefix's CRC over the payload.
fn seal_wire(b: &mut [u8], header: usize) {
    if b.len() >= header {
        let crc = crc32_update(crc32(&b[..header - 4]), &b[header..]);
        b[header - 4..header].copy_from_slice(&crc.to_le_bytes());
    }
}

fn seal_capsule(b: &mut [u8]) {
    seal_wire(b, 31);
}

fn seal_completion(b: &mut [u8]) {
    seal_wire(b, 19);
}

/// Contiguous and two-segment deliveries must agree.
fn decode_wire<T: PartialEq + std::fmt::Debug, E: PartialEq + std::fmt::Debug>(
    b: &[u8],
    header: usize,
    contiguous: fn(Bytes) -> Result<T, E>,
    sg: fn(SgList) -> Result<T, E>,
) -> bool {
    let whole = contiguous(Bytes::copy_from_slice(b));
    let cut = header.min(b.len());
    let split = sg(SgList::from(vec![
        Bytes::copy_from_slice(&b[..cut]),
        Bytes::copy_from_slice(&b[cut..]),
    ]));
    assert_eq!(whole, split, "contiguous and scatter-gather decodes differ");
    whole.is_ok()
}

// ---- the snapshot slot on a device -------------------------------------

const SNAPSHOT_MAGIC: u64 = 0x6D66_735F_636B_7074; // "mfs_ckpt"
/// magic u64 | seq u64 | generation u32 | len u64 | crc u32
const SNAPSHOT_HEADER_LEN: usize = 32;

fn snapshot_header(seq: u64, len: u64, crc: u32) -> Vec<u8> {
    let mut h = SNAPSHOT_MAGIC.to_le_bytes().to_vec();
    h.extend_from_slice(&seq.to_le_bytes());
    h.extend_from_slice(&2u32.to_le_bytes());
    h.extend_from_slice(&len.to_le_bytes());
    h.extend_from_slice(&crc.to_le_bytes());
    h
}

/// A device holding one valid snapshot in slot 0; slot 1 is empty, so
/// `read_latest` answers for slot 0 alone. The slots are 4 KiB: a header
/// may claim up to a slot's worth of payload, and no more.
fn snapshot_device() -> (Layout, MemDevice, Vec<u8>) {
    let layout = Layout {
        snapshot_slot_size: 4096,
        ..Layout::compute(4 << 20, 4096).unwrap()
    };
    let mut dev = MemDevice::new(4 << 20);
    snapshot::write_snapshot(&mut dev, &layout, &fs_state(), 4, 2).unwrap();
    let header = dev
        .read_vec(layout.snapshot_offset, SNAPSHOT_HEADER_LEN)
        .unwrap();
    let len = u64::from_le_bytes(header[20..28].try_into().unwrap());
    let payload = dev
        .read_vec(
            layout.snapshot_offset + SNAPSHOT_HEADER_LEN as u64,
            len as usize,
        )
        .unwrap();
    (layout, dev, payload)
}

// ---- the table -------------------------------------------------------

fn superblock_row() -> Row {
    Row {
        name: "superblock",
        samples: [(64u64 << 20, 4096u64), (1 << 30, 32 << 10)]
            .iter()
            .map(|&(size, bs)| {
                Layout::compute(size, bs).unwrap().encode_superblock()[..72].to_vec()
            })
            .collect(),
        seal: seal_superblock,
        decode: Box::new(|b| Layout::decode_superblock(b).is_ok()),
        pinned: Vec::new(),
    }
}

fn snapshot_header_row() -> Row {
    let (layout, mut dev, payload) = snapshot_device();
    let header = snapshot_header(4, payload.len() as u64, crc32(&payload));
    Row {
        name: "snapshot header",
        samples: vec![header],
        seal: no_seal,
        decode: Box::new(move |b| {
            let mut h = b.to_vec();
            h.resize(SNAPSHOT_HEADER_LEN, 0);
            dev.write_at(layout.snapshot_offset, &h).unwrap();
            snapshot::read_latest(&mut dev, &layout).is_some()
        }),
        pinned: vec![snapshot_header(4, u64::MAX - 8, 0)],
    }
}

fn snapshot_state_row() -> Row {
    let (layout, mut dev, payload) = snapshot_device();
    // op_counter 7, then an inode-table section whose length overruns or
    // wraps `usize` once added to its start.
    let section = |len: u64| {
        let mut b = 7u64.to_le_bytes().to_vec();
        b.extend_from_slice(&len.to_le_bytes());
        b.extend_from_slice(&[0u8; 8]);
        b
    };
    Row {
        name: "snapshot state",
        samples: vec![payload],
        seal: no_seal,
        // Re-sealing is writing a fresh header for the mutated payload.
        decode: Box::new(move |b| {
            let mut slot = snapshot_header(4, b.len() as u64, crc32(b));
            slot.extend_from_slice(b);
            dev.write_at(layout.snapshot_offset, &slot).unwrap();
            snapshot::read_latest(&mut dev, &layout).is_some()
        }),
        pinned: vec![section(u64::MAX / 8 + 1), section(u64::MAX)],
    }
}

fn inode_table_row() -> Row {
    let huge = (u64::MAX / 8 + 1).to_le_bytes();
    let mut slots = huge.to_vec();
    slots.push(0);
    let mut free = 0u64.to_le_bytes().to_vec();
    free.extend_from_slice(&huge);
    free.extend_from_slice(&[0u8; 8]);
    Row {
        name: "inode table",
        samples: vec![inode_table().encode(), InodeTable::new().encode()],
        seal: no_seal,
        decode: Box::new(|b| InodeTable::decode(b).is_ok()),
        pinned: vec![slots, free],
    }
}

/// One inode, framed as the only slot of a table with no free list:
/// `Inode::decode` is reached through `InodeTable::decode`.
fn inode_row() -> Row {
    let encode = |i: &Inode| {
        let mut v = Vec::new();
        i.encode(&mut v);
        v
    };
    let mut overrun = encode(&Inode::new_file(0o644, 0, 0));
    let at = overrun.len() - 8;
    overrun[at..].copy_from_slice(&(u64::MAX / 8 + 1).to_le_bytes());
    overrun.extend_from_slice(&[0u8; 8]);
    Row {
        name: "inode",
        samples: vec![
            encode(&inode(vec![5, 9, 2])),
            encode(&Inode::new_dir(0, 0, 0)),
        ],
        seal: no_seal,
        decode: Box::new(|b| {
            let mut table = 1u64.to_le_bytes().to_vec();
            table.push(1);
            table.extend_from_slice(b);
            table.extend_from_slice(&0u64.to_le_bytes());
            InodeTable::decode(&table).is_ok()
        }),
        pinned: vec![overrun],
    }
}

fn block_pool_row() -> Row {
    let mut overrun = 4u64.to_le_bytes().to_vec();
    overrun.extend_from_slice(&(u64::MAX / 8 + 1).to_le_bytes());
    overrun.extend_from_slice(&[0u8; 8]);
    Row {
        name: "block pool",
        samples: vec![BlockPool::new(4).encode(), block_pool().encode()],
        seal: no_seal,
        decode: Box::new(|b| BlockPool::decode(b).is_ok()),
        pinned: vec![overrun],
    }
}

fn btree_row() -> Row {
    let mut abc = BTree::new();
    abc.insert("abc", 1);
    Row {
        name: "btree",
        samples: vec![abc.encode(), btree().encode()],
        seal: no_seal,
        decode: Box::new(|b| BTree::decode(b).is_ok()),
        pinned: vec![vec![1, 2, 3]],
    }
}

fn dirent_row() -> Row {
    let encode = |d: Dirent| {
        let mut v = Vec::new();
        d.encode(&mut v);
        v
    };
    Row {
        name: "dirent",
        samples: vec![
            encode(Dirent::Add {
                name: "ckpt_0.dat".into(),
                ino: 5,
            }),
            encode(Dirent::Remove { name: "é".into() }),
        ],
        seal: no_seal,
        // The row decodes one record: an empty stream is a valid empty
        // directory, not a record.
        decode: Box::new(|b| !b.is_empty() && Dirent::replay_stream(b, b.len()).is_ok()),
        pinned: Vec::new(),
    }
}

fn log_payload_row() -> Row {
    Row {
        name: "log payload",
        samples: log_records()
            .iter()
            .map(LogRecord::encode_payload)
            .collect(),
        seal: no_seal,
        decode: Box::new(|b| LogRecord::decode_payload(b).is_ok()),
        pinned: vec![Vec::new()],
    }
}

fn wal_frame_row() -> Row {
    Row {
        name: "wal frame",
        samples: log_records().iter().map(|r| r.encode(5)).collect(),
        seal: seal_frame,
        decode: Box::new(|b| matches!(read_frame(b, &mut 0, 5), Ok(Some(_)))),
        pinned: Vec::new(),
    }
}

fn manifest_row() -> Row {
    Row {
        name: "epoch manifest",
        samples: manifests().iter().map(manifest_slot).collect(),
        seal: seal_manifest,
        decode: Box::new(|b| EpochManifest::decode_slot(b).is_ok()),
        pinned: Vec::new(),
    }
}

fn commit_record_row() -> Row {
    Row {
        name: "manifest commit record",
        samples: manifests()
            .iter()
            .map(|m| manifest_slot(m)[..COMMIT_RECORD_BYTES as usize].to_vec())
            .collect(),
        seal: seal_manifest,
        decode: Box::new(|b| sealed_body_len(b).is_some()),
        pinned: Vec::new(),
    }
}

fn capsule_row() -> Row {
    Row {
        name: "capsule",
        samples: capsules().iter().map(|c| c.encode().to_vec()).collect(),
        seal: seal_capsule,
        decode: Box::new(|b| decode_wire(b, 31, Capsule::decode, Capsule::decode_sg)),
        pinned: Vec::new(),
    }
}

fn completion_row() -> Row {
    Row {
        name: "completion",
        samples: completions().iter().map(|c| c.encode().to_vec()).collect(),
        seal: seal_completion,
        decode: Box::new(|b| decode_wire(b, 19, Completion::decode, Completion::decode_sg)),
        pinned: Vec::new(),
    }
}

#[test]
fn superblock_mutations_never_panic() {
    superblock_row().mutate_all();
}

#[test]
fn snapshot_header_mutations_never_panic() {
    snapshot_header_row().mutate_all();
}

#[test]
fn snapshot_state_mutations_never_panic() {
    snapshot_state_row().mutate_all();
}

#[test]
fn inode_table_mutations_never_panic() {
    inode_table_row().mutate_all();
}

#[test]
fn inode_mutations_never_panic() {
    inode_row().mutate_all();
}

#[test]
fn block_pool_mutations_never_panic() {
    block_pool_row().mutate_all();
}

#[test]
fn btree_mutations_never_panic() {
    btree_row().mutate_all();
}

#[test]
fn dirent_mutations_never_panic() {
    dirent_row().mutate_all();
}

#[test]
fn log_payload_mutations_never_panic() {
    log_payload_row().mutate_all();
}

#[test]
fn wal_frame_mutations_never_panic() {
    wal_frame_row().mutate_all();
}

#[test]
fn manifest_mutations_never_panic() {
    manifest_row().mutate_all();
}

#[test]
fn commit_record_mutations_never_panic() {
    commit_record_row().mutate_all();
}

#[test]
fn capsule_mutations_never_panic() {
    capsule_row().mutate_all();
}

#[test]
fn completion_mutations_never_panic() {
    completion_row().mutate_all();
}

/// A snapshot header carrying no CRC over its own fields can claim a
/// payload of nearly `u64::MAX` bytes: mount and fsck must fall back to
/// the other slot, not overflow.
#[test]
fn mount_survives_a_snapshot_header_claiming_u64_max_bytes() {
    let fs = MicroFs::format(MemDevice::new(16 << 20), FsConfig::default()).unwrap();
    let mut dev = fs.into_device();
    let sb = dev.read_vec(0, 4096).unwrap();
    let layout = Layout::decode_superblock(&sb).unwrap();
    // `format` committed seq 0 to slot 0; poison slot 1 with a newer seq.
    let slot1 = layout.snapshot_offset + layout.snapshot_slot_size;
    dev.write_at(slot1, &snapshot_header(1, u64::MAX - 8, 0))
        .unwrap();
    assert!(microfs::fsck(&mut dev).is_clean());
    let fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
    assert!(fs.stat("/").is_ok());
    // With both slots poisoned there is no snapshot to mount from.
    let mut dev = fs.into_device();
    for slot in [layout.snapshot_offset, slot1] {
        dev.write_at(slot, &snapshot_header(2, u64::MAX, 0))
            .unwrap();
    }
    assert!(MicroFs::mount(dev, FsConfig::default()).is_err());
}

// ---- decode ∘ encode is the identity ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn superblock_roundtrips(shift in 12u32..21, mib in 64u64..4096) {
        let l = Layout::compute(mib << 20, 1 << shift).unwrap();
        prop_assert_eq!(Layout::decode_superblock(&l.encode_superblock()).unwrap(), l);
    }

    #[test]
    fn snapshot_state_roundtrips(ops in proptest::collection::vec((any::<bool>(), 0u16..64), 1..60)) {
        let layout = Layout::compute(4 << 20, 4096).unwrap();
        let mut dev = MemDevice::new(4 << 20);
        let mut state = FsState {
            inodes: InodeTable::new(),
            pool: BlockPool::new(64),
            btree: BTree::new(),
            op_counter: ops.len() as u64,
        };
        let mut live = Vec::new();
        for (alloc, n) in ops {
            if alloc || live.is_empty() {
                let blocks = state.pool.alloc_many(u64::from(n % 3)).unwrap_or_default();
                let ino = state.inodes.alloc(inode(blocks));
                state.btree.insert(&format!("/f{n}"), ino);
                live.push(ino);
            } else {
                let ino = live.swap_remove(usize::from(n) % live.len());
                state.pool.free_many(&state.inodes.remove(ino).unwrap().blocks);
            }
        }
        snapshot::write_snapshot(&mut dev, &layout, &state, 3, 1).unwrap();
        let (seq, generation, got) = snapshot::read_latest(&mut dev, &layout).unwrap();
        prop_assert_eq!((seq, generation, got.op_counter), (3, 1, state.op_counter));
        prop_assert_eq!(got.inodes, state.inodes);
        prop_assert_eq!(got.pool, state.pool);
        prop_assert_eq!(got.btree.entries(), state.btree.entries());
    }

    #[test]
    fn inode_roundtrips(
        dir in any::<bool>(),
        (size, mode, uid, op) in (any::<u64>(), any::<u32>(), any::<u32>(), any::<u64>()),
        blocks in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let mut i = if dir { Inode::new_dir(mode, uid, op) } else { Inode::new_file(mode, uid, op) };
        i.size = size;
        i.blocks = blocks;
        let mut t = InodeTable::new();
        let ino = t.alloc(i.clone());
        let v = t.encode();
        let (u, used) = InodeTable::decode(&v).unwrap();
        prop_assert_eq!(used, v.len());
        prop_assert_eq!(u.get(ino).unwrap(), &i);
    }

    #[test]
    fn btree_roundtrips(keys in proptest::collection::vec(("[a-zé/_.]{0,24}", any::<u64>()), 0..80)) {
        let mut t = BTree::new();
        for (k, v) in &keys {
            t.insert(k, *v);
        }
        let v = t.encode();
        let (u, used) = BTree::decode(&v).unwrap();
        prop_assert_eq!(used, v.len());
        prop_assert_eq!(u.entries(), t.entries());
    }

    #[test]
    fn dirent_stream_roundtrips(recs in proptest::collection::vec(("[a-z0-9é_.]{1,30}", any::<u64>(), any::<bool>()), 0..30)) {
        let mut v = Vec::new();
        let mut want: Vec<(String, u64)> = Vec::new();
        for (name, ino, add) in recs {
            want.retain(|(n, _)| *n != name);
            if add {
                want.push((name.clone(), ino));
                Dirent::Add { name, ino }.encode(&mut v);
            } else {
                Dirent::Remove { name }.encode(&mut v);
            }
        }
        prop_assert_eq!(Dirent::replay_stream(&v, v.len()).unwrap(), want);
    }

    #[test]
    fn log_frames_roundtrip(which in 0u8..7, gen in any::<u32>(), path in "/[a-zé0-9/_.]{0,60}", (a, b) in (any::<u64>(), any::<u32>())) {
        let rec = match which {
            0 => LogRecord::Mkdir { path, mode: b, uid: !b },
            1 => LogRecord::Create { path, mode: b, uid: !b },
            2 => LogRecord::Write { ino: a, offset: !a, len: a / 3 },
            3 => LogRecord::Truncate { ino: a, size: !a },
            4 => LogRecord::Unlink { path },
            5 => LogRecord::Rename { to: format!("{path}~"), from: path },
            _ => LogRecord::SetMode { ino: a, mode: b },
        };
        let mut stream = rec.encode(gen);
        stream.extend_from_slice(&rec.encode(gen.wrapping_add(1)));
        let mut pos = 0;
        prop_assert_eq!(read_frame(&stream, &mut pos, gen).unwrap(), Some(rec));
        prop_assert_eq!(read_frame(&stream, &mut pos, gen).unwrap(), None);
    }

    #[test]
    fn manifests_roundtrip(
        epoch in 1u64..1 << 40,
        delta in any::<bool>(),
        extents in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..50),
        whiteouts in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..20),
    ) {
        let extents = extents.into_iter().map(|(offset, len, crc)| ManifestExtent { offset, len, crc }).collect();
        let m = if delta {
            EpochManifest { epoch: epoch + 1, parent_epoch: epoch, extents, whiteouts }
        } else {
            EpochManifest::full(epoch, extents)
        };
        prop_assert_eq!(EpochManifest::decode_slot(&manifest_slot(&m)).unwrap(), m);
    }

    #[test]
    fn capsules_roundtrip(
        op in 0u8..4,
        (cid, nsid, offset, len) in (any::<u16>(), any::<u32>(), any::<u64>(), any::<u64>()),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let c = match op {
            0 => Capsule::write(cid, nsid, offset, Bytes::from(data)),
            1 => Capsule::read(cid, nsid, offset, len),
            2 => Capsule::flush(cid, nsid),
            _ => Capsule::connect(cid, nsid),
        };
        prop_assert_eq!(&Capsule::decode(c.encode()).unwrap(), &c);
        prop_assert_eq!(Capsule::decode_sg(c.encode_sg()).unwrap(), c);
    }

    #[test]
    fn completions_roundtrip(cid in any::<u16>(), status in 0u8..7, data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let c = match status {
            0 => Completion::ok(cid, Bytes::from(data)),
            1 => Completion::error(cid, Status::InvalidNamespace),
            2 => Completion::error(cid, Status::LbaOutOfRange),
            3 => Completion::error(cid, Status::InvalidField),
            4 => Completion::error(cid, Status::Busy),
            5 => Completion::error(cid, Status::ShardOffline),
            _ => Completion::error(cid, Status::DataCorrupt),
        };
        prop_assert_eq!(&Completion::decode(c.encode()).unwrap(), &c);
        prop_assert_eq!(Completion::decode_sg(c.encode_sg()).unwrap(), c);
    }
}
