//! `MicroFs` — the per-process private-namespace filesystem.
//!
//! One instance per application process, mounted on that process's device
//! partition. All metadata lives in DRAM (inode table, block pool, B+Tree);
//! the device sees only file data (in hugeblock units), compact operation-log
//! records, directory-file appends, and periodic state snapshots.
//!
//! Durability contract (§III-D/E): data writes go straight to the device
//! (no buffering) and the operation log is flushed before an operation
//! returns — so a returned `write` is durable, and "a completely written
//! checkpoint file will never hold corrupted data".

use std::sync::Arc;

use telemetry::{Counter, FlightKind, FlightRecorder, Histogram, Telemetry};

use crate::block::{BlockDevice, BlockPool};
use crate::btree::BTree;
use crate::cow::IntervalSet;
use crate::dirent::Dirent;
use crate::error::{FsError, OpenFlags};
use crate::inode::{Ino, Inode, InodeKind, InodeTable, ROOT_INO};
use crate::layout::{Layout, SUPERBLOCK_LEN};
use crate::snapshot::{self, FsState};
use crate::wal::{LogRecord, Wal, WalStats};

/// Tunables for one microfs instance.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Hugeblock size (power of two, ≥ 4096). The paper selects 32 KiB.
    pub block_size: u64,
    /// The uid this instance acts as (access-control checks, §III-F).
    pub uid: u32,
    /// Enable log record coalescing (ablation flag; §III-E, Figure 5).
    pub coalescing: bool,
    /// Snapshot internal state when the log's free fraction drops below
    /// this threshold and no files are open (§III-E background trigger).
    pub snapshot_threshold: f64,
    /// Where this instance reports its `microfs.*` metrics.
    pub telemetry: Telemetry,
    /// Fault-injection hook; the WAL consults it on fresh appends. Disarmed
    /// (the default) it costs one relaxed atomic load per append.
    pub chaos: chaos::ChaosHandle,
    /// Count copy-on-write copy-up volume per epoch and emit discards for
    /// freed block spans. Off (the default) the write path is bit-for-bit
    /// today's behavior.
    pub cow_epochs: bool,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            block_size: 32 << 10,
            uid: 1000,
            coalescing: true,
            snapshot_threshold: 0.25,
            telemetry: Telemetry::default(),
            chaos: chaos::ChaosHandle::default(),
            cow_epochs: false,
        }
    }
}

/// Resolved telemetry handles for the filesystem hot paths (one registry
/// lookup each at mount time, never per operation).
struct FsMetrics {
    /// Operation-log append latency (including the snapshot-on-full
    /// fallback when it fires).
    wal_append_ns: Arc<Histogram>,
    /// Log records physically appended.
    wal_appended: Arc<Counter>,
    /// Writes absorbed by in-place record coalescing.
    wal_coalesced: Arc<Counter>,
    /// DRAM B+Tree operation latency (live-path lookups and inserts;
    /// replay's probes are inside `replay_ns`).
    btree_op_ns: Arc<Histogram>,
    /// Full `pwrite` path latency: extent allocation + device IO + log.
    write_ns: Arc<Histogram>,
    /// Full `pread` path latency.
    read_ns: Arc<Histogram>,
    /// Metadata snapshot (checkpoint-internal-state) latency.
    snapshot_ns: Arc<Histogram>,
    /// Mount-time log replay latency (whole replay pass).
    replay_ns: Arc<Histogram>,
    /// Records replayed across all mounts.
    replay_records: Arc<Counter>,
    /// Flight recorder: WAL appends land here so a dump ties metadata
    /// durability to the fabric commands that carried it.
    flight: Arc<FlightRecorder>,
}

impl FsMetrics {
    fn new(t: &Telemetry) -> Self {
        FsMetrics {
            wal_append_ns: t.histogram("microfs.wal_append_ns"),
            wal_appended: t.counter("microfs.wal_appended"),
            wal_coalesced: t.counter("microfs.wal_coalesced"),
            btree_op_ns: t.histogram("microfs.btree_op_ns"),
            write_ns: t.histogram("microfs.write_ns"),
            read_ns: t.histogram("microfs.read_ns"),
            snapshot_ns: t.histogram("microfs.snapshot_ns"),
            replay_ns: t.histogram("microfs.replay_ns"),
            replay_records: t.counter("microfs.replay_records"),
            flight: t.recorder(),
        }
    }
}

/// Operation counters, exposed for the experiment harnesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// Files created.
    pub creates: u64,
    /// Directories created.
    pub mkdirs: u64,
    /// Unlinks.
    pub unlinks: u64,
    /// Write calls.
    pub writes: u64,
    /// Read calls.
    pub reads: u64,
    /// File data bytes written.
    pub bytes_written: u64,
    /// File data bytes read.
    pub bytes_read: u64,
    /// Directory-file bytes appended (device-resident metadata).
    pub dirent_bytes: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Bytes written by snapshots.
    pub snapshot_bytes: u64,
    /// Records replayed at the last mount.
    pub replayed_records: u64,
    /// WAL statistics.
    pub wal: WalStats,
}

impl FsStats {
    /// Total device-resident metadata bytes (log + snapshots + directory
    /// files) — the per-runtime number Table I reports.
    pub fn metadata_device_bytes(&self) -> u64 {
        self.wal.bytes_written + self.snapshot_bytes + self.dirent_bytes
    }
}

/// One open file description.
#[derive(Debug, Clone)]
struct OpenFile {
    ino: Ino,
    pos: u64,
    flags: OpenFlags,
}

/// File metadata returned by [`MicroFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// File or directory.
    pub kind: InodeKind,
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
}

/// Filesystem space totals returned by [`MicroFs::statfs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsSpace {
    /// Hugeblock size in bytes.
    pub block_size: u64,
    /// Total hugeblocks in the data region.
    pub total_blocks: u64,
    /// Hugeblocks currently free.
    pub free_blocks: u64,
    /// Live inodes.
    pub live_inodes: u64,
    /// Fraction of the operation log still free.
    pub log_free_fraction: f64,
}

/// A mounted microfs instance over a [`BlockDevice`].
pub struct MicroFs<D: BlockDevice> {
    dev: D,
    layout: Layout,
    config: FsConfig,
    state: FsState,
    wal: Wal,
    fds: Vec<Option<OpenFile>>,
    open_count: usize,
    snapshot_seq: u64,
    /// Bytes each snapshot slot holds (header plus payload) when it holds
    /// a snapshot this instance validated at mount or wrote since; `0`
    /// otherwise.
    snapshot_footprints: [u64; 2],
    stats: FsStats,
    metrics: FsMetrics,
    /// Reusable all-zero buffer for gap zeroing (grown on demand, never
    /// reallocated per block).
    zero_scratch: Vec<u8>,
    /// Reusable encode buffer for dirent records.
    enc_scratch: Vec<u8>,
    /// Copy-on-write dirty tracking, present iff `config.cow_epochs`.
    cow: Option<crate::cow::CowTracker>,
}

impl<D: BlockDevice> MicroFs<D> {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Format `dev` as a fresh microfs partition and mount it.
    pub fn format(mut dev: D, config: FsConfig) -> Result<Self, FsError> {
        let layout = Layout::compute(dev.size(), config.block_size)?;
        dev.write_at(0, &layout.encode_superblock())
            .map_err(|e| FsError::Io(e.to_string()))?;
        let mut inodes = InodeTable::new();
        let root = inodes.alloc(Inode::new_dir(0o755, config.uid, 0));
        debug_assert_eq!(root, ROOT_INO);
        let mut btree = BTree::new();
        btree.insert("/", ROOT_INO);
        let state = FsState {
            inodes,
            pool: BlockPool::new(layout.data_blocks),
            btree,
            op_counter: 1,
        };
        // Initial snapshot (seq 0, generation 0) makes the empty state
        // recoverable before any log records exist.
        let snap_bytes = snapshot::write_snapshot(&mut dev, &layout, &state, 0, 0)?;
        let mut wal = Wal::new(layout.log_offset, layout.log_size, config.coalescing);
        wal.set_chaos(config.chaos.clone());
        let metrics = FsMetrics::new(&config.telemetry);
        let cow = config
            .cow_epochs
            .then(|| crate::cow::CowTracker::new(&config.telemetry));
        let mut fs = MicroFs {
            dev,
            layout,
            config,
            state,
            wal,
            fds: Vec::new(),
            open_count: 0,
            snapshot_seq: 0,
            snapshot_footprints: [snap_bytes, 0],
            stats: FsStats::default(),
            metrics,
            zero_scratch: Vec::new(),
            enc_scratch: Vec::new(),
            cow,
        };
        fs.stats.snapshots = 1;
        fs.stats.snapshot_bytes = snap_bytes;
        Ok(fs)
    }

    /// Mount an existing partition: load the newest snapshot and replay the
    /// operation log — the recovery path of §III-E.
    ///
    /// Equivalent to driving the [typestate recovery
    /// API](crate::recovery::Crashed) end to end; use that instead when the
    /// caller needs the replay boundary to be visible in the types (e.g. to
    /// interpose replica verification before the instance serves reads).
    pub fn mount(dev: D, config: FsConfig) -> Result<Self, FsError> {
        let (mut fs, records) = Self::mount_prepare(dev, config)?;
        fs.replay_records(&records)?;
        Ok(fs)
    }

    /// First half of `mount`: read the superblock, load the newest
    /// snapshot, scan the log. The returned instance holds the snapshot
    /// state only — the scanned records are *not yet applied*, so the
    /// instance must not serve reads until [`replay_records`]
    /// (`Self::replay_records`) runs.
    pub(crate) fn mount_prepare(
        mut dev: D,
        config: FsConfig,
    ) -> Result<(Self, Vec<LogRecord>), FsError> {
        let sb = dev
            .read_vec(0, SUPERBLOCK_LEN as usize)
            .map_err(|e| FsError::Io(e.to_string()))?;
        let layout = Layout::decode_superblock(&sb)?;
        if layout.block_size != config.block_size {
            return Err(FsError::Invalid(format!(
                "partition formatted with block size {}, config says {}",
                layout.block_size, config.block_size
            )));
        }
        if config.chaos.fire(chaos::Site::SnapshotLoad).is_some() {
            return Err(FsError::Io("crash point: recovery snapshot load".into()));
        }
        let ((seq, generation, state), snapshot_footprints) =
            snapshot::read_latest_with_footprints(&mut dev, &layout)
                .ok_or_else(|| FsError::Io("no valid snapshot found".into()))?;
        if config.chaos.fire(chaos::Site::LogScan).is_some() {
            return Err(FsError::Io("crash point: recovery log scan".into()));
        }
        let (records, scan_end) =
            Wal::scan(&mut dev, layout.log_offset, layout.log_size, generation)?;
        let metrics = FsMetrics::new(&config.telemetry);
        let fs = MicroFs {
            dev,
            layout,
            config: config.clone(),
            state,
            wal: {
                let mut wal = Wal::resume(
                    layout.log_offset,
                    layout.log_size,
                    config.coalescing,
                    generation,
                    scan_end,
                );
                wal.set_chaos(config.chaos.clone());
                wal
            },
            fds: Vec::new(),
            open_count: 0,
            snapshot_seq: seq,
            snapshot_footprints,
            stats: FsStats::default(),
            metrics,
            zero_scratch: Vec::new(),
            enc_scratch: Vec::new(),
            cow: config
                .cow_epochs
                .then(|| crate::cow::CowTracker::new(&config.telemetry)),
        };
        Ok((fs, records))
    }

    /// Second half of `mount`: apply the scanned log records to the
    /// snapshot state. Replay is purely in-memory (every device write in
    /// the shared mutation helpers is gated on `live`), so it is safe to
    /// run before any mirror is attached to the device.
    pub(crate) fn replay_records(&mut self, records: &[LogRecord]) -> Result<(), FsError> {
        let replayed = records.len() as u64;
        {
            let _span = telemetry::span("microfs", "replay").arg("records", replayed);
            let replay_ns = Arc::clone(&self.metrics.replay_ns);
            let _t = replay_ns.time();
            for rec in records {
                if self.config.chaos.fire(chaos::Site::ReplayApply).is_some() {
                    return Err(FsError::Io("crash point: recovery replay".into()));
                }
                self.replay(rec)?;
            }
        }
        self.metrics.replay_records.add(replayed);
        self.stats.replayed_records = replayed;
        Ok(())
    }

    /// The device (for inspection in tests; consumes nothing).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable device access for runtime maintenance passes (epoch
    /// commit, scrub, replica rebuild) that drive device-level IO between
    /// filesystem operations. Callers must not mutate blocks the
    /// filesystem owns.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Take the device back, dropping all volatile state — the test-suite
    /// idiom for simulating a process crash.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// The partition layout in effect.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The partition-relative bytes this instance's state depends on, as
    /// sorted, merged `(offset, len)` spans: the superblock, the current
    /// log generation's prefix, each snapshot slot holding a snapshot
    /// this instance validated at mount or wrote since (header plus
    /// payload), and every hugeblock an inode references, directory files
    /// included. Built from in-memory state alone: no device IO. Every
    /// other byte of the partition is dead, so a replicated rank rebuilds
    /// its mirror map from exactly these spans after recovery.
    pub fn live_spans(&self) -> Vec<(u64, u64)> {
        let l = &self.layout;
        let mut live = IntervalSet::new();
        live.insert(0, SUPERBLOCK_LEN);
        live.insert(l.log_offset, l.log_offset + self.wal.used_bytes());
        for (slot, &bytes) in (0u64..).zip(&self.snapshot_footprints) {
            let off = l.snapshot_offset + slot * l.snapshot_slot_size;
            live.insert(off, off + bytes);
        }
        for (_, inode) in self.state.inodes.iter() {
            for &b in &inode.blocks {
                let addr = l.block_addr(b);
                live.insert(addr, addr + l.block_size);
            }
        }
        live.spans()
    }

    /// Start a new CoW epoch: the next write to any span copies it up
    /// again. Call right after an epoch manifest commits. No-op when
    /// `cow_epochs` is off.
    pub fn cow_epoch_begin(&mut self) {
        if let Some(cow) = self.cow.as_mut() {
            cow.begin_epoch();
        }
    }

    /// Operation statistics (WAL counters merged in).
    pub fn stats(&self) -> FsStats {
        FsStats {
            wal: self.wal.stats(),
            ..self.stats
        }
    }

    /// Approximate DRAM footprint of the metadata structures (inodes +
    /// B+Tree + pool), for the Table I harness.
    pub fn dram_footprint(&self) -> u64 {
        (self.state.inodes.approx_bytes()
            + self.state.btree.approx_bytes()
            + self.state.pool.approx_bytes()) as u64
    }

    /// Hugeblocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.state.pool.free_count()
    }

    // ------------------------------------------------------------------
    // Path helpers
    // ------------------------------------------------------------------

    fn validate_path(path: &str) -> Result<(), FsError> {
        if path == "/" {
            return Ok(());
        }
        if !path.starts_with('/') || path.ends_with('/') {
            return Err(FsError::Invalid(format!("bad path {path:?}")));
        }
        if path.split('/').skip(1).any(str::is_empty) {
            return Err(FsError::Invalid(format!("empty component in {path:?}")));
        }
        Ok(())
    }

    /// Split a path into its parent directory and final component. A path
    /// without `/` is malformed input and surfaces as a typed error — the
    /// public entry points validate first, but a panic here would turn a
    /// caller's bad string into a crashed rank.
    fn parent_of(path: &str) -> Result<(&str, &str), FsError> {
        let idx = path
            .rfind('/')
            .ok_or_else(|| FsError::Invalid(format!("path {path:?} lacks '/'")))?;
        let parent = if idx == 0 { "/" } else { &path[..idx] };
        Ok((parent, &path[idx + 1..]))
    }

    /// Whether `path` names something strictly inside directory `dir`.
    fn is_within(path: &str, dir: &str) -> bool {
        path.as_bytes().get(dir.len()) == Some(&b'/') && path.starts_with(dir)
    }

    fn lookup(&self, path: &str) -> Option<Ino> {
        let _t = self.metrics.btree_op_ns.time();
        self.state.btree.get(path)
    }

    /// A B+Tree lookup from a mutation helper, timed on the live path only:
    /// `microfs.replay_ns` already times the whole replay pass.
    fn probe(&self, path: &str, live: bool) -> Option<Ino> {
        if live {
            self.lookup(path)
        } else {
            self.state.btree.get(path)
        }
    }

    /// Index `path` as `ino` unless it exists, in one descent, timed like
    /// [`probe`](Self::probe). Returns whether it indexed.
    fn index_new(&mut self, path: &str, ino: Ino, live: bool) -> bool {
        let _t = live.then(|| self.metrics.btree_op_ns.time());
        self.state.btree.insert_new(path, ino)
    }

    /// The inode of directory `dir`.
    fn resolve_dir(&self, dir: &str, live: bool) -> Result<Ino, FsError> {
        let ino = self
            .probe(dir, live)
            .ok_or_else(|| FsError::NotFound(dir.to_string()))?;
        if self.state.inodes.get(ino)?.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(dir.to_string()));
        }
        Ok(ino)
    }

    /// The parent directory's inode and the final component of `path`.
    fn resolve_parent_dir<'p>(&self, path: &'p str, live: bool) -> Result<(Ino, &'p str), FsError> {
        let (parent, name) = Self::parent_of(path)?;
        Ok((self.resolve_dir(parent, live)?, name))
    }

    fn check_access(&self, inode: &Inode, write: bool) -> Result<(), FsError> {
        if inode.uid == self.config.uid {
            return Ok(());
        }
        let bit = if write { 0o002 } else { 0o004 };
        if inode.mode & bit == 0 {
            return Err(FsError::PermissionDenied(format!(
                "uid {} denied on inode owned by {}",
                self.config.uid, inode.uid
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Core mutation helpers (shared by the live path and replay)
    // ------------------------------------------------------------------

    /// Extend `ino` so blocks cover `[0, offset+len)`, then (live only)
    /// write `data` at `offset`. Allocation order is deterministic, which
    /// is what lets replay reproduce block assignments from parameters.
    fn write_extent(
        &mut self,
        ino: Ino,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) -> Result<(), FsError> {
        let bs = self.layout.block_size;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| FsError::Invalid("write range overflow".into()))?;
        let needed = end.div_ceil(bs);
        let have = self.state.inodes.get(ino)?.blocks.len() as u64;
        let old_size = self.state.inodes.get(ino)?.size;
        if needed > have {
            let fresh = self.state.pool.alloc_many(needed - have)?;
            self.state
                .inodes
                .get_mut(ino)?
                .blocks
                .extend_from_slice(&fresh);
        }
        // Live mode: zero any gap between the old size and the write start,
        // both in recycled fresh blocks and in the stale tail of existing
        // blocks (a shrink may have left old bytes there), so sparse reads
        // return zeros per POSIX. Replay relies on the zeros the live run
        // already put on the device.
        if data.is_some() && offset > old_size {
            let gap_start_blk = old_size / bs;
            // Resolve the zero segments first, then issue them as one
            // vectored batch so a pipelined device overlaps them.
            let mut segs: Vec<(u64, usize)> = Vec::new();
            let mut max_n = 0usize;
            for bi in gap_start_blk..needed {
                let blk_lo = bi * bs;
                let blk_hi = blk_lo + bs;
                let zero_lo = blk_lo.max(old_size);
                let zero_hi = blk_hi.min(offset);
                if zero_lo < zero_hi {
                    let addr = self.block_addr_of(ino, bi)? + (zero_lo - blk_lo);
                    let n = (zero_hi - zero_lo) as usize;
                    segs.push((addr, n));
                    max_n = max_n.max(n);
                }
            }
            if !segs.is_empty() {
                if self.zero_scratch.len() < max_n {
                    self.zero_scratch.resize(max_n, 0);
                }
                let writes: Vec<(u64, &[u8])> = segs
                    .iter()
                    .map(|&(addr, n)| (addr, &self.zero_scratch[..n]))
                    .collect();
                self.dev
                    .write_vectored_at(&writes)
                    .map_err(|e| FsError::Io(e.to_string()))?;
                if let Some(cow) = self.cow.as_mut() {
                    for &(addr, n) in &segs {
                        cow.note_write(addr, n as u64);
                    }
                }
            }
        }
        if let Some(data) = data {
            debug_assert_eq!(data.len() as u64, len);
            // Split the write at hugeblock boundaries ("we submit NVMe IO
            // requests in hugeblock units", §III-E), then hand the whole
            // batch to the device: a pipelined device keeps `queue_depth`
            // of these block writes in flight instead of one.
            let mut segs: Vec<(u64, u64, u64)> = Vec::new();
            let mut cursor = 0u64;
            while cursor < len {
                let file_off = offset + cursor;
                let bi = file_off / bs;
                let within = file_off % bs;
                let n = (bs - within).min(len - cursor);
                let addr = self.block_addr_of(ino, bi)? + within;
                segs.push((addr, cursor, n));
                cursor += n;
            }
            let writes: Vec<(u64, &[u8])> = segs
                .iter()
                .map(|&(addr, c, n)| (addr, &data[c as usize..(c + n) as usize]))
                .collect();
            self.dev
                .write_vectored_at(&writes)
                .map_err(|e| FsError::Io(e.to_string()))?;
            if let Some(cow) = self.cow.as_mut() {
                for &(addr, _, n) in &segs {
                    cow.note_write(addr, n);
                }
            }
        }
        let node = self.state.inodes.get_mut(ino)?;
        node.size = node.size.max(end);
        node.mtime_op = self.state.op_counter;
        self.state.op_counter += 1;
        Ok(())
    }

    fn block_addr_of(&self, ino: Ino, block_index: u64) -> Result<u64, FsError> {
        let node = self.state.inodes.get(ino)?;
        let blk = *node
            .blocks
            .get(block_index as usize)
            .ok_or_else(|| FsError::Io(format!("block {block_index} unmapped")))?;
        Ok(self.layout.block_addr(blk))
    }

    /// Hint the device to drop freed hugeblocks. Live CoW mode only —
    /// replay re-frees the same blocks but the device-side extent state
    /// was already updated by the original run.
    fn discard_freed_blocks(&mut self, released: &[u64], live: bool) {
        if !live || self.cow.is_none() || released.is_empty() {
            return;
        }
        let bs = self.layout.block_size;
        let mut blocks: Vec<u64> = released.to_vec();
        blocks.sort_unstable();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut run_start = blocks[0];
        let mut run_len = 1u64;
        for &b in &blocks[1..] {
            if b == run_start + run_len {
                run_len += 1;
            } else {
                spans.push((self.layout.block_addr(run_start), run_len * bs));
                run_start = b;
                run_len = 1;
            }
        }
        spans.push((self.layout.block_addr(run_start), run_len * bs));
        for &(addr, len) in &spans {
            // Advisory: devices without extent state ignore the hint.
            let _ = self.dev.discard_at(addr, len);
        }
    }

    /// Append a dirent record to a directory file (allocating as needed).
    /// Replay only grows the file by the record's length: the live run
    /// already wrote its bytes.
    fn append_dirent(&mut self, dir: Ino, rec: &Dirent<&str>, live: bool) -> Result<(), FsError> {
        let offset = self.state.inodes.get(dir)?.size;
        if !live {
            return self.write_extent(dir, offset, rec.encoded_len() as u64, None);
        }
        // Encode into the reusable buffer (taken out of self so
        // write_extent can borrow &mut self, put back after).
        let mut bytes = std::mem::take(&mut self.enc_scratch);
        bytes.clear();
        rec.encode(&mut bytes);
        let len = bytes.len() as u64;
        let res = self.write_extent(dir, offset, len, Some(&bytes));
        self.enc_scratch = bytes;
        res?;
        self.stats.dirent_bytes += len;
        Ok(())
    }

    /// Create the file or directory `path` (mkdir and create).
    fn do_make(
        &mut self,
        path: &str,
        kind: InodeKind,
        mode: u32,
        uid: u32,
        live: bool,
    ) -> Result<Ino, FsError> {
        let (pino, name) = self.resolve_parent_dir(path, live)?;
        // Index the path under the number `alloc` hands out next.
        let ino = self.state.inodes.next_ino();
        if !self.index_new(path, ino, live) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let op = self.state.op_counter;
        self.state.op_counter += 1;
        let inode = match kind {
            InodeKind::Dir => Inode::new_dir(mode, uid, op),
            InodeKind::File => Inode::new_file(mode, uid, op),
        };
        let allocated = self.state.inodes.alloc(inode);
        debug_assert_eq!(allocated, ino);
        self.append_dirent(pino, &Dirent::Add { name, ino }, live)?;
        Ok(ino)
    }

    fn do_truncate(&mut self, ino: Ino, size: u64, live: bool) -> Result<(), FsError> {
        let old_size = self.state.inodes.get(ino)?.size;
        if size > old_size {
            // POSIX extension: the new range reads as zeros. Live mode
            // zero-fills freshly allocated (possibly recycled) blocks;
            // replay relies on the original run having written the zeros.
            self.write_extent(ino, size, 0, live.then_some(&[] as &[u8]))?;
            return Ok(());
        }
        let bs = self.layout.block_size;
        let keep = size.div_ceil(bs) as usize;
        let node = self.state.inodes.get_mut(ino)?;
        if node.blocks.len() > keep {
            let released: Vec<u64> = node.blocks.split_off(keep);
            self.state.pool.free_many(&released);
            self.discard_freed_blocks(&released, live);
        }
        let node = self.state.inodes.get_mut(ino)?;
        node.size = size;
        node.mtime_op = self.state.op_counter;
        self.state.op_counter += 1;
        self.wal.invalidate(ino);
        Ok(())
    }

    fn do_rename(&mut self, from: &str, to: &str, live: bool) -> Result<(), FsError> {
        if from == to {
            return Ok(());
        }
        if Self::is_within(to, from) {
            return Err(FsError::Invalid(format!("cannot move {from} into itself")));
        }
        let ino = self
            .probe(from, live)
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        let (to_dir, to_name) = Self::parent_of(to)?;
        let (from_dir, from_name) = Self::parent_of(from)?;
        let to_parent = self.resolve_dir(to_dir, live)?;
        // A rename within one directory resolves it once.
        let from_parent = if from_dir == to_dir {
            to_parent
        } else {
            self.resolve_dir(from_dir, live)?
        };
        // An existing `to` implies both parents resolve, so refusing it
        // after them reports the same error as refusing it first.
        if !self.index_new(to, ino, live) {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        // Directory-file updates: tombstone in the old parent, entry in the
        // new one (two device-resident appends, still zero coordination).
        let appended = self
            .append_dirent(from_parent, &Dirent::Remove { name: from_name }, live)
            .and_then(|()| {
                self.append_dirent(to_parent, &Dirent::Add { name: to_name, ino }, live)
            });
        if let Err(e) = appended {
            self.state.btree.remove(to);
            return Err(e);
        }
        // Re-key the B+Tree: the old path and, for directories, every
        // descendant path.
        self.state.btree.remove(from);
        if self.state.inodes.get(ino)?.kind == InodeKind::Dir {
            let prefix = format!("{from}/");
            for (old_path, sub_ino) in self.state.btree.entries_with_prefix(&prefix) {
                let new_path = format!("{to}/{}", &old_path[prefix.len()..]);
                self.state.btree.remove(&old_path);
                self.state.btree.insert(&new_path, sub_ino);
            }
        }
        let node = self.state.inodes.get_mut(ino)?;
        node.mtime_op = self.state.op_counter;
        self.state.op_counter += 1;
        Ok(())
    }

    fn do_unlink(&mut self, path: &str, live: bool) -> Result<(), FsError> {
        let ino = self
            .probe(path, live)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let kind = self.state.inodes.get(ino)?.kind;
        // rmdir semantics: only empty directories.
        if kind == InodeKind::Dir && self.state.btree.any_with_prefix(&format!("{path}/")) {
            return Err(FsError::NotEmpty(path.to_string()));
        }
        let (pino, name) = self.resolve_parent_dir(path, live)?;
        self.append_dirent(pino, &Dirent::Remove { name }, live)?;
        let node = self.state.inodes.remove(ino)?;
        self.state.pool.free_many(&node.blocks);
        self.discard_freed_blocks(&node.blocks, live);
        self.state.btree.remove(path);
        self.wal.invalidate(ino);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Logging with snapshot-on-full
    // ------------------------------------------------------------------

    fn log(&mut self, rec: &LogRecord) -> Result<(), FsError> {
        // Clone the Arc so the RAII timer doesn't hold a borrow of self.
        let wal_append_ns = Arc::clone(&self.metrics.wal_append_ns);
        let _t = wal_append_ns.time();
        let before = self.wal.stats();
        let res = match self.wal.append(&mut self.dev, rec) {
            Ok(()) => Ok(()),
            Err(FsError::LogFull) => {
                // Synchronous fallback of the background cleaner: snapshot
                // state, reset the log, retry once.
                self.snapshot_now()?;
                self.wal.append(&mut self.dev, rec)
            }
            Err(e) => Err(e),
        };
        let after = self.wal.stats();
        let appended = after.appended.saturating_sub(before.appended);
        let coalesced = after.coalesced.saturating_sub(before.coalesced);
        self.metrics.wal_appended.add(appended);
        self.metrics.wal_coalesced.add(coalesced);
        if appended > 0 {
            self.metrics
                .flight
                .record(FlightKind::WalAppend, 0, 0, appended, coalesced);
        }
        res
    }

    /// Checkpoint internal DRAM state to the reserved region and reset the
    /// log. Atomic: records are only discarded after the snapshot commits.
    pub fn snapshot_now(&mut self) -> Result<(), FsError> {
        let _span = telemetry::span("microfs", "snapshot").arg("seq", self.snapshot_seq + 1);
        let snapshot_ns = Arc::clone(&self.metrics.snapshot_ns);
        let _t = snapshot_ns.time();
        let seq = self.snapshot_seq + 1;
        let next_gen = self.wal.generation() + 1;
        let bytes =
            snapshot::write_snapshot(&mut self.dev, &self.layout, &self.state, seq, next_gen)?;
        self.snapshot_seq = seq;
        self.snapshot_footprints[(seq % 2) as usize] = bytes;
        self.wal.reset();
        debug_assert_eq!(self.wal.generation(), next_gen);
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes += bytes;
        Ok(())
    }

    /// The background-cleaner trigger (§III-E): snapshot when nothing is
    /// open and log space runs low. Called from `close`; exposed for tests.
    pub fn maybe_background_snapshot(&mut self) -> Result<bool, FsError> {
        if self.open_count == 0 && self.wal.free_fraction() < self.config.snapshot_threshold {
            self.snapshot_now()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    // ------------------------------------------------------------------
    // Replay (recovery)
    // ------------------------------------------------------------------

    fn replay(&mut self, rec: &LogRecord) -> Result<(), FsError> {
        match rec {
            LogRecord::Mkdir { path, mode, uid } => self
                .do_make(path, InodeKind::Dir, *mode, *uid, false)
                .map(|_| ()),
            LogRecord::Create { path, mode, uid } => self
                .do_make(path, InodeKind::File, *mode, *uid, false)
                .map(|_| ()),
            LogRecord::Write { ino, offset, len } => self.write_extent(*ino, *offset, *len, None),
            LogRecord::Truncate { ino, size } => self.do_truncate(*ino, *size, false),
            LogRecord::Unlink { path } => self.do_unlink(path, false),
            LogRecord::Rename { from, to } => self.do_rename(from, to, false),
            LogRecord::SetMode { ino, mode } => {
                let node = self.state.inodes.get_mut(*ino)?;
                node.mode = *mode;
                node.mtime_op = self.state.op_counter;
                self.state.op_counter += 1;
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Public POSIX-ish API
    // ------------------------------------------------------------------

    /// `mkdir(path, mode)`.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> Result<(), FsError> {
        Self::validate_path(path)?;
        let uid = self.config.uid;
        self.do_make(path, InodeKind::Dir, mode, uid, true)?;
        self.log(&LogRecord::Mkdir {
            path: path.to_string(),
            mode,
            uid,
        })?;
        self.stats.mkdirs += 1;
        Ok(())
    }

    /// `open(path, flags, mode)` → fd.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u32) -> Result<u32, FsError> {
        Self::validate_path(path)?;
        if path == "/" {
            return Err(FsError::IsADirectory("/".into()));
        }
        let uid = self.config.uid;
        let ino = match self.lookup(path) {
            Some(ino) => {
                if flags.create && flags.excl {
                    return Err(FsError::AlreadyExists(path.to_string()));
                }
                let node = self.state.inodes.get(ino)?;
                if node.kind == InodeKind::Dir {
                    return Err(FsError::IsADirectory(path.to_string()));
                }
                self.check_access(node, flags.write)?;
                if flags.truncate && node.size > 0 {
                    self.do_truncate(ino, 0, true)?;
                    self.log(&LogRecord::Truncate { ino, size: 0 })?;
                }
                ino
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound(path.to_string()));
                }
                let ino = self.do_make(path, InodeKind::File, mode, uid, true)?;
                self.log(&LogRecord::Create {
                    path: path.to_string(),
                    mode,
                    uid,
                })?;
                self.stats.creates += 1;
                ino
            }
        };
        let of = OpenFile { ino, pos: 0, flags };
        let fd = match self.fds.iter().position(Option::is_none) {
            Some(i) => {
                self.fds[i] = Some(of);
                i as u32
            }
            None => {
                self.fds.push(Some(of));
                (self.fds.len() - 1) as u32
            }
        };
        self.open_count += 1;
        Ok(fd)
    }

    /// `creat(path, mode)` — shorthand for create+truncate+write-only.
    pub fn create(&mut self, path: &str, mode: u32) -> Result<u32, FsError> {
        self.open(path, OpenFlags::CREATE_TRUNC, mode)
    }

    fn fd_state(&self, fd: u32) -> Result<&OpenFile, FsError> {
        self.fds
            .get(fd as usize)
            .and_then(|s| s.as_ref())
            .ok_or(FsError::BadFd(fd))
    }

    /// `write(fd, data)` at the current position.
    pub fn write(&mut self, fd: u32, data: &[u8]) -> Result<usize, FsError> {
        let (ino, pos, flags) = {
            let of = self.fd_state(fd)?;
            (of.ino, of.pos, of.flags)
        };
        if !flags.write {
            return Err(FsError::PermissionDenied(format!("fd {fd} not writable")));
        }
        let offset = if flags.append {
            self.state.inodes.get(ino)?.size
        } else {
            pos
        };
        let n = self.pwrite_ino(ino, offset, data)?;
        if let Some(of) = self.fds[fd as usize].as_mut() {
            of.pos = offset + n as u64;
        }
        Ok(n)
    }

    /// `pwrite(fd, data, offset)` — position untouched.
    pub fn pwrite(&mut self, fd: u32, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        let (ino, flags) = {
            let of = self.fd_state(fd)?;
            (of.ino, of.flags)
        };
        if !flags.write {
            return Err(FsError::PermissionDenied(format!("fd {fd} not writable")));
        }
        self.pwrite_ino(ino, offset, data)
    }

    fn pwrite_ino(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        if data.is_empty() {
            return Ok(0);
        }
        let write_ns = Arc::clone(&self.metrics.write_ns);
        let _t = write_ns.time();
        let len = data.len() as u64;
        self.write_extent(ino, offset, len, Some(data))?;
        self.log(&LogRecord::Write { ino, offset, len })?;
        self.stats.writes += 1;
        self.stats.bytes_written += len;
        Ok(data.len())
    }

    /// `read(fd, buf)` at the current position; returns bytes read (short
    /// at EOF).
    pub fn read(&mut self, fd: u32, buf: &mut [u8]) -> Result<usize, FsError> {
        let (ino, pos, flags) = {
            let of = self.fd_state(fd)?;
            (of.ino, of.pos, of.flags)
        };
        if !flags.read {
            return Err(FsError::PermissionDenied(format!("fd {fd} not readable")));
        }
        let n = self.pread_ino(ino, pos, buf)?;
        if let Some(of) = self.fds[fd as usize].as_mut() {
            of.pos = pos + n as u64;
        }
        Ok(n)
    }

    /// `pread(fd, buf, offset)`.
    pub fn pread(&mut self, fd: u32, offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
        let (ino, flags) = {
            let of = self.fd_state(fd)?;
            (of.ino, of.flags)
        };
        if !flags.read {
            return Err(FsError::PermissionDenied(format!("fd {fd} not readable")));
        }
        self.pread_ino(ino, offset, buf)
    }

    fn pread_ino(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
        let _t = self.metrics.read_ns.time();
        let size = self.state.inodes.get(ino)?.size;
        if offset >= size {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(size - offset);
        let bs = self.layout.block_size;
        // Resolve the per-hugeblock segments, carve `buf` into matching
        // sub-buffers, and issue the whole batch at once: a pipelined
        // device (replay reads, checkpoint verification) keeps
        // `queue_depth` block reads in flight.
        let mut segs: Vec<(u64, u64)> = Vec::new();
        let mut cursor = 0u64;
        while cursor < n {
            let file_off = offset + cursor;
            let bi = file_off / bs;
            let within = file_off % bs;
            let take = (bs - within).min(n - cursor);
            let addr = self.block_addr_of(ino, bi)? + within;
            segs.push((addr, take));
            cursor += take;
        }
        let mut reads: Vec<(u64, &mut [u8])> = Vec::with_capacity(segs.len());
        let mut rest = &mut buf[..n as usize];
        for &(addr, take) in &segs {
            let (head, tail) = rest.split_at_mut(take as usize);
            reads.push((addr, head));
            rest = tail;
        }
        self.dev
            .read_vectored_at(&mut reads)
            .map_err(|e| FsError::Io(e.to_string()))?;
        self.stats.reads += 1;
        self.stats.bytes_read += n;
        Ok(n as usize)
    }

    /// `lseek(fd, offset)` (absolute).
    pub fn seek(&mut self, fd: u32, pos: u64) -> Result<(), FsError> {
        self.fd_state(fd)?;
        if let Some(of) = self.fds[fd as usize].as_mut() {
            of.pos = pos;
        }
        Ok(())
    }

    /// `fsync(fd)` — data is already on the device; this flushes the device
    /// write buffer (a capacitor-backed no-op on protected SSDs).
    pub fn fsync(&mut self, fd: u32) -> Result<(), FsError> {
        self.fd_state(fd)?;
        self.dev.flush().map_err(|e| FsError::Io(e.to_string()))
    }

    /// `close(fd)`; may trigger the background snapshot (§III-E).
    pub fn close(&mut self, fd: u32) -> Result<(), FsError> {
        self.fd_state(fd)?;
        self.fds[fd as usize] = None;
        self.open_count -= 1;
        self.maybe_background_snapshot()?;
        Ok(())
    }

    /// `unlink(path)` (files) / `rmdir(path)` (empty directories).
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        Self::validate_path(path)?;
        if path == "/" {
            return Err(FsError::Invalid("cannot unlink root".into()));
        }
        // Refuse if open.
        if let Some(ino) = self.lookup(path) {
            if self.fds.iter().flatten().any(|of| of.ino == ino) {
                return Err(FsError::Invalid(format!("{path} is open")));
            }
        }
        self.do_unlink(path, true)?;
        self.log(&LogRecord::Unlink {
            path: path.to_string(),
        })?;
        self.stats.unlinks += 1;
        Ok(())
    }

    /// `rename(from, to)` — atomic within this private namespace; fails
    /// with `EEXIST` if `to` exists (checkpointers use fresh names).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        Self::validate_path(from)?;
        Self::validate_path(to)?;
        if from == "/" || to == "/" {
            return Err(FsError::Invalid("cannot rename the root".into()));
        }
        self.do_rename(from, to, true)?;
        if from != to {
            self.log(&LogRecord::Rename {
                from: from.to_string(),
                to: to.to_string(),
            })?;
        }
        Ok(())
    }

    /// `truncate(path, size)` — shrink frees hugeblocks back to the pool;
    /// extension zero-fills.
    pub fn truncate(&mut self, path: &str, size: u64) -> Result<(), FsError> {
        Self::validate_path(path)?;
        let ino = self
            .lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let node = self.state.inodes.get(ino)?;
        if node.kind == InodeKind::Dir {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        self.check_access(node, true)?;
        if node.size == size {
            return Ok(());
        }
        self.do_truncate(ino, size, true)?;
        self.log(&LogRecord::Truncate { ino, size })?;
        Ok(())
    }

    /// `ftruncate(fd, size)`.
    pub fn ftruncate(&mut self, fd: u32, size: u64) -> Result<(), FsError> {
        let (ino, flags) = {
            let of = self.fd_state(fd)?;
            (of.ino, of.flags)
        };
        if !flags.write {
            return Err(FsError::PermissionDenied(format!("fd {fd} not writable")));
        }
        if self.state.inodes.get(ino)?.size == size {
            return Ok(());
        }
        self.do_truncate(ino, size, true)?;
        self.log(&LogRecord::Truncate { ino, size })?;
        Ok(())
    }

    /// `chmod(path, mode)` — only the owner may change permissions.
    pub fn chmod(&mut self, path: &str, mode: u32) -> Result<(), FsError> {
        Self::validate_path(path)?;
        let ino = self
            .lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let node = self.state.inodes.get(ino)?;
        if node.uid != self.config.uid {
            return Err(FsError::PermissionDenied(format!(
                "uid {} cannot chmod inode owned by {}",
                self.config.uid, node.uid
            )));
        }
        let node = self.state.inodes.get_mut(ino)?;
        node.mode = mode;
        node.mtime_op = self.state.op_counter;
        self.state.op_counter += 1;
        self.log(&LogRecord::SetMode { ino, mode })?;
        Ok(())
    }

    /// `access(path, write)` — would this instance's uid be allowed?
    pub fn access(&self, path: &str, write: bool) -> Result<bool, FsError> {
        Self::validate_path(path)?;
        let ino = self
            .lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let node = self.state.inodes.get(ino)?;
        Ok(self.check_access(node, write).is_ok())
    }

    /// `statvfs`-style filesystem totals.
    pub fn statfs(&self) -> FsSpace {
        FsSpace {
            block_size: self.layout.block_size,
            total_blocks: self.state.pool.total(),
            free_blocks: self.state.pool.free_count(),
            live_inodes: self.state.inodes.len() as u64,
            log_free_fraction: self.wal.free_fraction(),
        }
    }

    /// `stat(path)`.
    pub fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        Self::validate_path(path)?;
        let ino = self
            .lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let node = self.state.inodes.get(ino)?;
        Ok(FileStat {
            kind: node.kind,
            size: node.size,
            mode: node.mode,
            uid: node.uid,
        })
    }

    /// `readdir(path)` — immediate children names, sorted.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        Self::validate_path(path)?;
        let ino = self
            .lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        if self.state.inodes.get(ino)?.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut names: Vec<String> = self
            .state
            .btree
            .entries_with_prefix(&prefix)
            .into_iter()
            .filter_map(|(k, _)| {
                let rest = &k[prefix.len()..];
                (!rest.is_empty() && !rest.contains('/')).then(|| rest.to_string())
            })
            .collect();
        names.sort_unstable();
        Ok(names)
    }

    /// Cross-check: parse the on-device directory file and return its live
    /// entries. Test suites compare this against [`readdir`](Self::readdir)
    /// to prove the device-resident metadata matches the DRAM index.
    pub fn readdir_from_device(&mut self, path: &str) -> Result<Vec<(String, Ino)>, FsError> {
        let ino = self
            .lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let size = self.state.inodes.get(ino)?.size;
        let mut raw = vec![0u8; size as usize];
        self.pread_ino(ino, 0, &mut raw)?;
        let mut live = Dirent::replay_stream(&raw, raw.len())?;
        live.sort();
        Ok(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDevice;
    use proptest::prelude::*;

    const DEV_SIZE: u64 = 64 << 20;

    fn fresh() -> MicroFs<MemDevice> {
        MicroFs::format(MemDevice::new(DEV_SIZE), FsConfig::default()).unwrap()
    }

    #[test]
    fn a_version_1_partition_is_rejected_at_mount() {
        let mut dev = fresh().into_device();
        let mut sb = dev.read_vec(0, 72).unwrap();
        sb[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crate::crc::crc32(&sb[..68]);
        sb[68..72].copy_from_slice(&crc.to_le_bytes());
        dev.write_at(0, &sb).unwrap();
        let err = MicroFs::mount(dev, FsConfig::default()).err().unwrap();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fresh();
        let fd = fs.create("/ckpt.dat", 0o644).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.write(fd, &data).unwrap(), data.len());
        fs.close(fd).unwrap();
        let fd = fs.open("/ckpt.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read(fd, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data);
        // EOF: next read returns 0.
        let mut tail = [0u8; 16];
        assert_eq!(fs.read(fd, &mut tail).unwrap(), 0);
        fs.close(fd).unwrap();
    }

    #[test]
    fn path_without_slash_is_typed_error_not_panic() {
        // The internal splitter itself refuses slash-less input...
        assert!(matches!(
            MicroFs::<MemDevice>::parent_of("noslash"),
            Err(FsError::Invalid(_))
        ));
        assert!(MicroFs::<MemDevice>::parent_of("/ok").is_ok());
        // ...and every public entry point surfaces it as FsError::Invalid.
        let mut fs = fresh();
        assert!(matches!(
            fs.create("noslash", 0o644),
            Err(FsError::Invalid(_))
        ));
        assert!(matches!(
            fs.mkdir("noslash", 0o755),
            Err(FsError::Invalid(_))
        ));
        assert!(matches!(
            fs.open("noslash", OpenFlags::RDONLY, 0),
            Err(FsError::Invalid(_))
        ));
    }

    #[test]
    fn mkdir_hierarchy_and_readdir() {
        let mut fs = fresh();
        fs.mkdir("/a", 0o755).unwrap();
        fs.mkdir("/a/b", 0o755).unwrap();
        let fd = fs.create("/a/b/f1", 0o644).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.create("/a/b/f2", 0o644).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["a"]);
        assert_eq!(fs.readdir("/a").unwrap(), vec!["b"]);
        assert_eq!(fs.readdir("/a/b").unwrap(), vec!["f1", "f2"]);
        // Device-resident directory file agrees with the DRAM index.
        let dev_entries = fs.readdir_from_device("/a/b").unwrap();
        assert_eq!(dev_entries.len(), 2);
        assert_eq!(dev_entries[0].0, "f1");
    }

    #[test]
    fn posix_error_cases() {
        let mut fs = fresh();
        assert!(matches!(
            fs.open("/nope", OpenFlags::RDONLY, 0),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(fs.mkdir("/a/b", 0o755), Err(FsError::NotFound(_))));
        fs.mkdir("/a", 0o755).unwrap();
        assert!(matches!(
            fs.mkdir("/a", 0o755),
            Err(FsError::AlreadyExists(_))
        ));
        let fd = fs.create("/a/f", 0o644).unwrap();
        fs.close(fd).unwrap();
        assert!(matches!(
            fs.mkdir("/a/f/x", 0o755),
            Err(FsError::NotADirectory(_))
        ));
        assert!(matches!(
            fs.open("/a", OpenFlags::RDONLY, 0),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(fs.unlink("/a"), Err(FsError::NotEmpty(_))));
        assert!(matches!(
            fs.read(99, &mut [0u8; 4]),
            Err(FsError::BadFd(99))
        ));
        assert!(matches!(
            fs.open("//x", OpenFlags::RDONLY, 0),
            Err(FsError::Invalid(_))
        ));
    }

    #[test]
    fn unlink_frees_blocks_for_reuse() {
        let mut fs = fresh();
        // Warm the root directory file so its block allocation does not
        // perturb the before/after comparison.
        let fd = fs.create("/warm", 0o644).unwrap();
        fs.close(fd).unwrap();
        fs.unlink("/warm").unwrap();
        let before = fs.free_blocks();
        let fd = fs.create("/big", 0o644).unwrap();
        fs.write(fd, &vec![7u8; 256 << 10]).unwrap();
        fs.close(fd).unwrap();
        assert!(fs.free_blocks() < before);
        fs.unlink("/big").unwrap();
        assert_eq!(fs.free_blocks(), before);
        assert!(matches!(fs.stat("/big"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn unlink_open_file_refused() {
        let mut fs = fresh();
        let fd = fs.create("/f", 0o644).unwrap();
        assert!(matches!(fs.unlink("/f"), Err(FsError::Invalid(_))));
        fs.close(fd).unwrap();
        fs.unlink("/f").unwrap();
    }

    #[test]
    fn truncate_on_reopen() {
        let mut fs = fresh();
        let fd = fs.create("/f", 0o644).unwrap();
        fs.write(fd, b"old contents").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open("/f", OpenFlags::CREATE_TRUNC, 0o644).unwrap();
        fs.write(fd, b"new").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 3);
        let fd = fs.open("/f", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"new");
    }

    #[test]
    fn append_mode() {
        let mut fs = fresh();
        let fd = fs.open("/log", OpenFlags::APPEND, 0o644).unwrap();
        fs.write(fd, b"one,").unwrap();
        fs.write(fd, b"two").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/log").unwrap().size, 7);
    }

    #[test]
    fn pwrite_pread_and_sparse_zeroes() {
        let mut fs = fresh();
        let fd = fs
            .open(
                "/sparse",
                OpenFlags {
                    read: true,
                    ..OpenFlags::CREATE_TRUNC
                },
                0o644,
            )
            .unwrap();
        // Write at 100 KiB, leaving a hole.
        fs.pwrite(fd, 100 << 10, b"tail").unwrap();
        assert_eq!(fs.stat("/sparse").unwrap().size, (100 << 10) + 4);
        let mut hole = vec![1u8; 64];
        fs.pread(fd, 50 << 10, &mut hole).unwrap();
        assert_eq!(hole, vec![0u8; 64], "hole must read zeros");
        let mut tail = [0u8; 4];
        fs.pread(fd, 100 << 10, &mut tail).unwrap();
        assert_eq!(&tail, b"tail");
        fs.close(fd).unwrap();
    }

    #[test]
    fn sequential_checkpoint_writes_coalesce() {
        let mut fs = fresh();
        let fd = fs.create("/ckpt", 0o644).unwrap();
        for _ in 0..100 {
            fs.write(fd, &[9u8; 4096]).unwrap();
        }
        fs.close(fd).unwrap();
        let s = fs.stats();
        assert_eq!(s.writes, 100);
        assert_eq!(s.wal.coalesced, 99, "sequential writes must coalesce");
    }

    /// Every file's bytes, read back through a fresh descriptor.
    fn file_bytes(fs: &mut MicroFs<MemDevice>, path: &str) -> Vec<u8> {
        let size = fs.stat(path).unwrap().size;
        let fd = fs.open(path, OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; size as usize];
        assert_eq!(fs.pread(fd, 0, &mut buf).unwrap(), buf.len());
        fs.close(fd).unwrap();
        buf
    }

    /// One-block writes alternating between two files, then a remount with
    /// neither file closed. Replay hands blocks out in log order, so a
    /// write merged into an older record of its file (across the other
    /// file's allocation) would recover `/a` as "ab".
    #[test]
    fn interleaved_writes_recover_each_files_bytes() {
        let mut fs = fresh();
        let block = FsConfig::default().block_size as usize;
        let a = fs.create("/a", 0o644).unwrap();
        let b = fs.create("/b", 0o644).unwrap();
        for (fd, byte) in [(a, b'a'), (b, b'b'), (a, b'A'), (b, b'B')] {
            fs.write(fd, &vec![byte; block]).unwrap();
        }
        let mut fs = MicroFs::mount(fs.into_device(), FsConfig::default()).unwrap();
        for (path, want) in [("/a", *b"aA"), ("/b", *b"bB")] {
            let got: Vec<u8> = file_bytes(&mut fs, path)
                .chunks(block)
                .map(|c| {
                    assert!(c.iter().all(|&x| x == c[0]), "{path}: mixed block");
                    c[0]
                })
                .collect();
            assert_eq!(got, want, "{path}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random writes interleaved across 2-4 open files, coalescing on,
        /// then a remount: every file reads back exactly what was written.
        /// Most writes continue their file sequentially, so runs of them
        /// coalesce; some land at a random offset.
        #[test]
        fn interleaved_coalesced_writes_survive_remount(
            files in 2usize..5,
            ops in proptest::collection::vec((0usize..4, any::<bool>(), 1usize..9000, any::<u16>()), 1..60)
        ) {
            let config = FsConfig {
                block_size: 4096,
                ..FsConfig::default()
            };
            let mut fs = MicroFs::format(MemDevice::new(8 << 20), config.clone()).unwrap();
            let fds: Vec<u32> = (0..files)
                .map(|i| fs.create(&format!("/f{i}"), 0o644).unwrap())
                .collect();
            let mut model = vec![Vec::new(); files];
            // Each descriptor's position: `write` continues from it,
            // `pwrite` leaves it alone.
            let mut pos = vec![0usize; files];
            for (i, (f, sequential, len, x)) in ops.into_iter().enumerate() {
                let f = f % files;
                let data = vec![(i as u8).wrapping_mul(31) ^ x as u8; len];
                let offset = if sequential {
                    fs.write(fds[f], &data).unwrap();
                    pos[f] += len;
                    pos[f] - len
                } else {
                    let offset = usize::from(x) % 40_000;
                    fs.pwrite(fds[f], offset as u64, &data).unwrap();
                    offset
                };
                let file: &mut Vec<u8> = &mut model[f];
                if file.len() < offset + len {
                    file.resize(offset + len, 0);
                }
                file[offset..offset + len].copy_from_slice(&data);
            }
            let mut fs = MicroFs::mount(fs.into_device(), config).unwrap();
            for (i, want) in model.iter().enumerate() {
                let got = file_bytes(&mut fs, &format!("/f{i}"));
                let first_diff = got.iter().zip(want).position(|(g, w)| g != w);
                prop_assert!(
                    got.len() == want.len() && first_diff.is_none(),
                    "/f{}: {} bytes read, {} written, first difference at {:?}",
                    i, got.len(), want.len(), first_diff
                );
            }
        }
    }

    #[test]
    fn telemetry_observes_wal_btree_io_snapshot_and_replay() {
        // Private registry: exact-value assertions stay isolated from other
        // tests running concurrently in this process.
        let t = Telemetry::new();
        let config = FsConfig {
            telemetry: t.clone(),
            ..FsConfig::default()
        };
        let mut fs = MicroFs::format(MemDevice::new(DEV_SIZE), config.clone()).unwrap();
        fs.mkdir("/d", 0o755).unwrap();
        let fd = fs
            .open(
                "/d/f",
                OpenFlags {
                    read: true,
                    ..OpenFlags::CREATE_TRUNC
                },
                0o644,
            )
            .unwrap();
        for _ in 0..10 {
            fs.write(fd, &[7u8; 4096]).unwrap();
        }
        let mut buf = [0u8; 4096];
        fs.pread(fd, 0, &mut buf).unwrap();
        fs.close(fd).unwrap();
        fs.snapshot_now().unwrap();

        let snap = t.snapshot();
        let wal = fs.stats().wal;
        assert_eq!(snap.counter("microfs.wal_appended"), wal.appended);
        assert_eq!(snap.counter("microfs.wal_coalesced"), wal.coalesced);
        assert!(wal.coalesced >= 9, "sequential writes should coalesce");
        // 12 log() calls: mkdir, create, 10 writes.
        assert_eq!(snap.histogram("microfs.wal_append_ns").unwrap().count, 12);
        assert_eq!(snap.histogram("microfs.write_ns").unwrap().count, 10);
        assert_eq!(snap.histogram("microfs.read_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("microfs.snapshot_ns").unwrap().count, 1);
        // Lookups (mkdir/create existence checks, opens, stats) + inserts.
        assert!(snap.histogram("microfs.btree_op_ns").unwrap().count >= 4);

        // Records past the snapshot, so the remount has a log to replay.
        fs.mkdir("/e", 0o755).unwrap();
        let fd = fs.create("/e/g", 0o644).unwrap();
        fs.write(fd, &[1u8; 100]).unwrap();
        fs.close(fd).unwrap();
        fs.rename("/e/g", "/d/g").unwrap();
        fs.unlink("/d/f").unwrap();
        let btree_ops = t.snapshot().histogram("microfs.btree_op_ns").unwrap().count;

        // Crash + remount replays through the same registry. The replay
        // pass is timed once as a whole; its B+Tree probes are not timed.
        let dev = fs.into_device();
        let fs2 = MicroFs::mount(dev, config).unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.histogram("microfs.replay_ns").unwrap().count, 1);
        assert_eq!(fs2.stats().replayed_records, 5);
        assert_eq!(
            snap.counter("microfs.replay_records"),
            fs2.stats().replayed_records
        );
        assert_eq!(
            snap.histogram("microfs.btree_op_ns").unwrap().count,
            btree_ops
        );
    }

    #[test]
    fn permission_checks() {
        let mut fs = fresh();
        let fd = fs.create("/mine", 0o600).unwrap();
        fs.close(fd).unwrap();
        // A different uid mounts... simulate by changing config uid through
        // a fresh open from another instance is complex; instead check the
        // read/write flag enforcement on fds.
        let fd = fs.open("/mine", OpenFlags::RDONLY, 0).unwrap();
        assert!(matches!(
            fs.write(fd, b"x"),
            Err(FsError::PermissionDenied(_))
        ));
        fs.close(fd).unwrap();
        let fd = fs
            .open(
                "/mine",
                OpenFlags {
                    read: false,
                    write: true,
                    create: false,
                    truncate: false,
                    append: false,
                    excl: false,
                },
                0,
            )
            .unwrap();
        assert!(matches!(
            fs.read(fd, &mut [0u8; 1]),
            Err(FsError::PermissionDenied(_))
        ));
        fs.close(fd).unwrap();
    }

    #[test]
    fn replay_refuses_what_the_live_call_refuses() {
        // A log record the live call would have refused fails the mount
        // with the live call's error, although replay skips the live
        // path's timing, encoding and allocation.
        let cases = [
            (
                LogRecord::Create {
                    path: "/f".into(),
                    mode: 0o644,
                    uid: 1000,
                },
                FsError::AlreadyExists("/f".into()),
            ),
            (
                LogRecord::Unlink {
                    path: "/missing".into(),
                },
                FsError::NotFound("/missing".into()),
            ),
            (
                LogRecord::Mkdir {
                    path: "/f/sub".into(),
                    mode: 0o755,
                    uid: 1000,
                },
                FsError::NotADirectory("/f".into()),
            ),
            (
                LogRecord::Rename {
                    from: "/f".into(),
                    to: "/d".into(),
                },
                FsError::AlreadyExists("/d".into()),
            ),
            (
                LogRecord::Write {
                    ino: 99,
                    offset: 0,
                    len: 1,
                },
                FsError::Io("dangling inode 99".into()),
            ),
        ];
        for (rec, want) in cases {
            let mut fs = fresh();
            fs.mkdir("/d", 0o755).unwrap();
            let fd = fs.create("/f", 0o644).unwrap();
            fs.close(fd).unwrap();
            fs.wal.append(&mut fs.dev, &rec).unwrap();
            let err = MicroFs::mount(fs.into_device(), FsConfig::default()).err();
            assert_eq!(err, Some(want), "{rec:?}");
        }
    }

    #[test]
    fn crash_recovery_preserves_everything() {
        // The core claim: mount() after a crash reproduces metadata AND
        // file bytes exactly, replaying parameters-only log records.
        let mut fs = fresh();
        fs.mkdir("/ckpt", 0o755).unwrap();
        let mut payloads = Vec::new();
        for i in 0..5 {
            let path = format!("/ckpt/rank_{i}.dat");
            let fd = fs.create(&path, 0o644).unwrap();
            let data: Vec<u8> = (0..50_000 + i * 1000)
                .map(|b| ((b * 31 + i) % 251) as u8)
                .collect();
            fs.write(fd, &data).unwrap();
            fs.close(fd).unwrap();
            payloads.push((path, data));
        }
        fs.unlink("/ckpt/rank_3.dat").unwrap();
        payloads.remove(3);
        // CRASH: drop all volatile state, keep the device.
        let dev = fs.into_device();
        let mut fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        assert!(fs.stats().replayed_records > 0);
        assert_eq!(fs.readdir("/ckpt").unwrap().len(), 4);
        for (path, data) in &payloads {
            assert_eq!(fs.stat(path).unwrap().size, data.len() as u64);
            let fd = fs.open(path, OpenFlags::RDONLY, 0).unwrap();
            let mut buf = vec![0u8; data.len()];
            fs.read(fd, &mut buf).unwrap();
            assert_eq!(&buf, data, "recovered bytes differ for {path}");
            fs.close(fd).unwrap();
        }
        assert!(matches!(
            fs.stat("/ckpt/rank_3.dat"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn recovery_after_snapshot_plus_tail_records() {
        let mut fs = fresh();
        let fd = fs.create("/before", 0o644).unwrap();
        fs.write(fd, &[1u8; 10_000]).unwrap();
        fs.close(fd).unwrap();
        fs.snapshot_now().unwrap();
        let fd = fs.create("/after", 0o644).unwrap();
        fs.write(fd, &[2u8; 20_000]).unwrap();
        fs.close(fd).unwrap();
        let dev = fs.into_device();
        let mut fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        assert_eq!(fs.stat("/before").unwrap().size, 10_000);
        assert_eq!(fs.stat("/after").unwrap().size, 20_000);
        let fd = fs.open("/after", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; 20_000];
        fs.read(fd, &mut buf).unwrap();
        assert_eq!(buf, vec![2u8; 20_000]);
    }

    #[test]
    fn background_snapshot_triggers_on_close_when_log_low() {
        let config = FsConfig {
            snapshot_threshold: 0.999,
            ..FsConfig::default()
        };
        let mut fs = MicroFs::format(MemDevice::new(DEV_SIZE), config.clone()).unwrap();
        let snaps0 = fs.stats().snapshots;
        // Hold one file open while filling the log past the threshold with
        // creates: no snapshot may fire while a file is open.
        let held = fs.create("/held", 0o644).unwrap();
        for i in 0..200 {
            let fd = fs.create(&format!("/f{i}"), 0o644).unwrap();
            fs.close(fd).unwrap();
        }
        assert_eq!(
            fs.stats().snapshots,
            snaps0,
            "snapshot must not fire while files are open"
        );
        fs.close(held).unwrap();
        assert!(
            fs.stats().snapshots > snaps0,
            "last close with a low log must trigger the background snapshot"
        );
        // Consistency after the snapshot-driven reset.
        let dev = fs.into_device();
        let fs = MicroFs::mount(dev, config).unwrap();
        assert_eq!(fs.readdir("/").unwrap().len(), 201);
    }

    #[test]
    fn log_full_triggers_inline_snapshot_and_continues() {
        // Tiny device -> tiny log; hammer metadata ops until the log wraps.
        let mut fs = MicroFs::format(MemDevice::new(16 << 20), FsConfig::default()).unwrap();
        for i in 0..3000 {
            let p = format!("/f{i}");
            let fd = fs.create(&p, 0o644).unwrap();
            fs.close(fd).unwrap();
            fs.unlink(&p).unwrap();
        }
        assert!(fs.stats().snapshots >= 1);
        // Still consistent after all that churn.
        let dev = fs.into_device();
        let fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        assert_eq!(fs.readdir("/").unwrap().len(), 0);
    }

    #[test]
    fn mount_rejects_mismatched_block_size() {
        let fs = fresh();
        let dev = fs.into_device();
        let bad = FsConfig {
            block_size: 64 << 10,
            ..FsConfig::default()
        };
        assert!(matches!(MicroFs::mount(dev, bad), Err(FsError::Invalid(_))));
    }

    #[test]
    fn rename_file_and_directory_with_recovery() {
        let mut fs = fresh();
        fs.mkdir("/a", 0o755).unwrap();
        fs.mkdir("/b", 0o755).unwrap();
        let fd = fs.create("/a/tmp.dat", 0o644).unwrap();
        fs.write(fd, b"payload").unwrap();
        fs.close(fd).unwrap();
        // File rename across directories.
        fs.rename("/a/tmp.dat", "/b/final.dat").unwrap();
        assert!(fs.stat("/a/tmp.dat").is_err());
        assert_eq!(fs.stat("/b/final.dat").unwrap().size, 7);
        // Directory rename re-keys descendants.
        let fd = fs.create("/b/deep.dat", 0o644).unwrap();
        fs.close(fd).unwrap();
        fs.rename("/b", "/c").unwrap();
        assert_eq!(fs.readdir("/c").unwrap(), vec!["deep.dat", "final.dat"]);
        assert!(fs.stat("/b/final.dat").is_err());
        // Device-resident directory files agree after the moves.
        assert_eq!(fs.readdir_from_device("/c").unwrap().len(), 2);
        assert_eq!(fs.readdir_from_device("/").unwrap().len(), 2); // a, c
                                                                   // All of it survives crash + replay.
        let dev = fs.into_device();
        let mut fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        assert_eq!(fs.readdir("/c").unwrap(), vec!["deep.dat", "final.dat"]);
        let fd = fs.open("/c/final.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 7];
        fs.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn rename_error_cases() {
        let mut fs = fresh();
        fs.mkdir("/d", 0o755).unwrap();
        let fd = fs.create("/f1", 0o644).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.create("/f2", 0o644).unwrap();
        fs.close(fd).unwrap();
        assert!(matches!(
            fs.rename("/nope", "/x"),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(
            fs.rename("/f1", "/f2"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.rename("/d", "/d/sub"),
            Err(FsError::Invalid(_))
        ));
        assert!(matches!(fs.rename("/", "/r"), Err(FsError::Invalid(_))));
        // Self-rename is a no-op.
        fs.rename("/f1", "/f1").unwrap();
        assert!(fs.stat("/f1").is_ok());
    }

    #[test]
    fn truncate_shrink_extend_and_recovery() {
        let mut fs = fresh();
        let fd = fs.create("/t", 0o644).unwrap();
        fs.write(fd, &[7u8; 100_000]).unwrap();
        fs.close(fd).unwrap();
        let free_small = fs.free_blocks();
        // Shrink returns blocks to the pool.
        fs.truncate("/t", 10_000).unwrap();
        assert!(fs.free_blocks() > free_small);
        assert_eq!(fs.stat("/t").unwrap().size, 10_000);
        // Extension zero-fills.
        fs.truncate("/t", 50_000).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 50_000);
        let fd = fs.open("/t", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![1u8; 50_000];
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 50_000);
        assert!(buf[..10_000].iter().all(|&b| b == 7));
        assert!(
            buf[10_000..].iter().all(|&b| b == 0),
            "extension must read zeros"
        );
        fs.close(fd).unwrap();
        // Replay reproduces both directions.
        let dev = fs.into_device();
        let mut fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 50_000);
        let fd = fs.open("/t", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![1u8; 50_000];
        fs.read(fd, &mut buf).unwrap();
        assert!(buf[..10_000].iter().all(|&b| b == 7));
        assert!(buf[10_000..].iter().all(|&b| b == 0));
    }

    #[test]
    fn ftruncate_requires_writable_fd() {
        let mut fs = fresh();
        let fd = fs.create("/t", 0o644).unwrap();
        fs.write(fd, &[1u8; 1000]).unwrap();
        fs.ftruncate(fd, 10).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 10);
        let fd = fs.open("/t", OpenFlags::RDONLY, 0).unwrap();
        assert!(matches!(
            fs.ftruncate(fd, 0),
            Err(FsError::PermissionDenied(_))
        ));
        fs.close(fd).unwrap();
        assert!(matches!(
            fs.truncate("/missing", 0),
            Err(FsError::NotFound(_))
        ));
        fs.mkdir("/dir", 0o755).unwrap();
        assert!(matches!(
            fs.truncate("/dir", 0),
            Err(FsError::IsADirectory(_))
        ));
    }

    #[test]
    fn o_excl_rejects_existing() {
        let mut fs = fresh();
        let fd = fs.open("/x", OpenFlags::CREATE_EXCL, 0o644).unwrap();
        fs.close(fd).unwrap();
        assert!(matches!(
            fs.open("/x", OpenFlags::CREATE_EXCL, 0o644),
            Err(FsError::AlreadyExists(_))
        ));
        // Without excl, reopening is fine.
        let fd = fs.open("/x", OpenFlags::RDWR, 0).unwrap();
        fs.close(fd).unwrap();
    }

    #[test]
    fn statfs_reports_space_and_log() {
        let mut fs = fresh();
        let s0 = fs.statfs();
        assert_eq!(s0.block_size, 32 << 10);
        assert_eq!(s0.free_blocks, s0.total_blocks);
        assert_eq!(s0.live_inodes, 1); // root
        let fd = fs.create("/f", 0o644).unwrap();
        fs.write(fd, &[0u8; 128 << 10]).unwrap();
        fs.close(fd).unwrap();
        let s1 = fs.statfs();
        assert!(s1.free_blocks < s0.free_blocks);
        assert_eq!(s1.live_inodes, 2);
        assert!(s1.log_free_fraction < 1.0);
    }

    #[test]
    fn atomic_checkpoint_publish_pattern() {
        // The classic C/R idiom the paper's semantics enable: write to a
        // temp name, fsync, rename into place. A crash at any point leaves
        // either the old or the new checkpoint, never a torn one.
        let mut fs = fresh();
        let publish = |fs: &mut MicroFs<MemDevice>, gen: u8| {
            let fd = fs.create("/ckpt.tmp", 0o644).unwrap();
            fs.write(fd, &[gen; 64 << 10]).unwrap();
            fs.fsync(fd).unwrap();
            fs.close(fd).unwrap();
            if fs.stat("/ckpt.dat").is_ok() {
                fs.unlink("/ckpt.dat").unwrap();
            }
            fs.rename("/ckpt.tmp", "/ckpt.dat").unwrap();
        };
        publish(&mut fs, 1);
        publish(&mut fs, 2);
        // Crash immediately after the second publish.
        let dev = fs.into_device();
        let mut fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        let fd = fs.open("/ckpt.dat", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; 64 << 10];
        fs.read(fd, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
        assert!(fs.stat("/ckpt.tmp").is_err());
    }

    #[test]
    fn chmod_persists_and_replays() {
        let mut fs = fresh();
        let fd = fs.create("/locked", 0o644).unwrap();
        fs.close(fd).unwrap();
        assert!(fs.access("/locked", true).unwrap());
        fs.chmod("/locked", 0o400).unwrap();
        assert_eq!(fs.stat("/locked").unwrap().mode, 0o400);
        // Owner still passes the uid short-circuit; bits recorded anyway.
        let dev = fs.into_device();
        let fs = MicroFs::mount(dev, FsConfig::default()).unwrap();
        assert_eq!(fs.stat("/locked").unwrap().mode, 0o400, "chmod must replay");
    }

    #[test]
    fn foreign_uid_cannot_chmod_or_write() {
        // Format as uid 1000, then remount the partition as uid 2000.
        let mut fs = fresh();
        let fd = fs.create("/private", 0o600).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.create("/shared", 0o666).unwrap();
        fs.close(fd).unwrap();
        let dev = fs.into_device();
        let other = FsConfig {
            uid: 2000,
            ..FsConfig::default()
        };
        let mut fs = MicroFs::mount(dev, other).unwrap();
        assert!(matches!(
            fs.chmod("/private", 0o777),
            Err(FsError::PermissionDenied(_))
        ));
        assert!(!fs.access("/private", false).unwrap());
        assert!(fs.access("/shared", true).unwrap());
        assert!(matches!(
            fs.open("/private", OpenFlags::RDONLY, 0),
            Err(FsError::PermissionDenied(_))
        ));
        let fd = fs.open("/shared", OpenFlags::RDWR, 0).unwrap();
        fs.write(fd, b"ok").unwrap();
        fs.close(fd).unwrap();
    }

    #[test]
    fn stats_metadata_accounting() {
        let mut fs = fresh();
        let fd = fs.create("/f", 0o644).unwrap();
        fs.write(fd, &[0u8; 100_000]).unwrap();
        fs.close(fd).unwrap();
        let s = fs.stats();
        assert_eq!(s.creates, 1);
        assert!(s.bytes_written == 100_000);
        assert!(s.dirent_bytes > 0);
        assert!(s.metadata_device_bytes() > 0);
        assert!(fs.dram_footprint() > 0);
    }

    #[test]
    fn live_spans_cover_what_a_mount_uses_without_device_reads() {
        let mut fs = fresh();
        let l = *fs.layout();
        // Freshly formatted: the superblock and slot 0's snapshot only.
        let spans = fs.live_spans();
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert_eq!(spans[0], (0, SUPERBLOCK_LEN));
        assert_eq!(spans[1].0, l.snapshot_offset);

        fs.mkdir("/d", 0o755).unwrap();
        for (i, path) in ["/a", "/d/b", "/d/c"].into_iter().enumerate() {
            let fd = fs.create(path, 0o644).unwrap();
            fs.write(fd, &vec![i as u8 + 1; 70_000 * (i + 1)]).unwrap();
            fs.close(fd).unwrap();
        }
        fs.snapshot_now().unwrap();
        fs.unlink("/d/b").unwrap();
        fs.truncate("/a", 10).unwrap();
        fs.rename("/d/c", "/c").unwrap();
        let fd = fs.create("/d/e", 0o644).unwrap();
        fs.pwrite(fd, 100_000, b"tail").unwrap();
        fs.close(fd).unwrap();

        let reads = fs.device().counters().reads;
        let spans = fs.live_spans();
        assert_eq!(
            fs.device().counters().reads,
            reads,
            "live_spans read the device"
        );
        // Sorted, merged (neither overlapping nor abutting), inside the
        // partition.
        assert!(spans.iter().all(|&(o, n)| n > 0 && o + n <= DEV_SIZE));
        assert!(spans.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0));
        let covered =
            |off: u64, len: u64| spans.iter().any(|&(o, n)| o <= off && off + len <= o + n);

        // What a mount of these bytes would use, derived from the bytes.
        let mut dev = MemDevice::from_raw(fs.device().raw());
        let (seq, generation, _) = snapshot::read_latest(&mut dev, &l).unwrap();
        let slot_off = (l.snapshot_offset + (seq % 2) * l.snapshot_slot_size) as usize;
        // Header: magic u64 | seq u64 | generation u32 | len u64 | crc u32.
        let raw = dev.raw();
        let payload_len = crate::wire::Reader::new(&raw[slot_off + 20..])
            .u64()
            .unwrap();
        let (_, log_end) = Wal::scan(&mut dev, l.log_offset, l.log_size, generation).unwrap();
        assert!(log_end > 0);
        assert!(covered(0, SUPERBLOCK_LEN));
        assert!(covered(l.log_offset, log_end));
        assert!(covered(slot_off as u64, 32 + payload_len));
        // Every referenced hugeblock, directory files included, and no
        // other byte of the data region.
        let (mut blocks, mut dir_blocks) = (0, 0);
        for (_, inode) in fs.state.inodes.iter() {
            for &b in &inode.blocks {
                assert!(covered(l.block_addr(b), l.block_size));
            }
            blocks += inode.blocks.len() as u64;
            if inode.kind == InodeKind::Dir {
                dir_blocks += inode.blocks.len();
            }
        }
        assert!(dir_blocks >= 2, "root and /d hold dirent blocks");
        let data_bytes: u64 = spans
            .iter()
            .filter(|&&(o, _)| o >= l.data_offset)
            .map(|&(_, n)| n)
            .sum();
        assert_eq!(data_bytes, blocks * l.block_size);

        // A mount validates both slots and replays to the same footprint,
        // reading nothing more to report it.
        let mounted = MicroFs::mount(dev, FsConfig::default()).unwrap();
        let reads = mounted.device().counters().reads;
        assert_eq!(mounted.live_spans(), spans);
        assert_eq!(mounted.device().counters().reads, reads);
    }

    /// `/d{dir}/{a..f}`, or the directory `/d{dir}` itself for `name == 6`.
    fn churn_path(dir: u8, name: u8) -> String {
        match name {
            6 => format!("/d{dir}"),
            n => format!("/d{dir}/{}", char::from(b'a' + n)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Replay reproduces the live run's DRAM state exactly: random
        /// mkdir/create/pwrite/truncate/unlink/rename/rmdir/chmod sequences
        /// over 3 directories x 6 names, then a mount. About two calls in
        /// three fail (missing or existing names, non-empty directories,
        /// files where directories belong), and a failed call must leave
        /// nothing behind that replay would not rebuild.
        /// Coalescing is off: a coalesced run of writes is replayed as one
        /// record, so its `mtime_op` numbering is not the live run's.
        #[test]
        fn replay_reproduces_the_live_state(
            ops in proptest::collection::vec(
                (0u8..10, (0u8..3, 0u8..7), (0u8..3, 0u8..7), any::<u64>()),
                1..80,
            )
        ) {
            let config = FsConfig {
                block_size: 4096,
                coalescing: false,
                ..FsConfig::default()
            };
            let mut fs = MicroFs::format(MemDevice::new(8 << 20), config.clone()).unwrap();
            for d in 0..3 {
                fs.mkdir(&churn_path(d, 6), 0o755).unwrap();
            }
            for (kind, (d, n), (d2, n2), x) in ops {
                let path = churn_path(d, n);
                let _ = match kind {
                    0 => fs.mkdir(&path, 0o755),
                    1 | 2 => fs.create(&path, 0o644).and_then(|fd| fs.close(fd)),
                    3 | 4 => fs.open(&path, OpenFlags::RDWR, 0).and_then(|fd| {
                        let data = vec![x as u8; 1 + (x >> 32) as usize % 9000];
                        let res = fs.pwrite(fd, x % 40_000, &data).map(|_| ());
                        fs.close(fd).and(res)
                    }),
                    5 => fs.truncate(&path, x % 50_000),
                    6 => fs.unlink(&path),
                    7 => fs.rename(&path, &churn_path(d2, n2)),
                    8 => fs.unlink(&churn_path(d, 6)),
                    _ => fs.chmod(&path, 0o600 | (x as u32 & 0o77)),
                };
            }
            let live = (
                fs.state.inodes.encode(),
                fs.state.btree.encode(),
                fs.state.pool.encode(),
                fs.state.op_counter,
            );
            let mounted = MicroFs::mount(fs.into_device(), config).unwrap();
            let st = &mounted.state;
            prop_assert_eq!(st.inodes.encode(), live.0);
            prop_assert_eq!(st.btree.encode(), live.1);
            prop_assert_eq!(st.pool.encode(), live.2);
            prop_assert_eq!(st.op_counter, live.3);
        }
    }
}

#[cfg(test)]
mod fd_semantics_tests {
    use super::*;
    use crate::block::MemDevice;

    fn fresh() -> MicroFs<MemDevice> {
        MicroFs::format(MemDevice::new(64 << 20), FsConfig::default()).unwrap()
    }

    #[test]
    fn independent_fd_positions_on_one_file() {
        let mut fs = fresh();
        let w = fs.create("/f", 0o644).unwrap();
        fs.write(w, b"abcdefghij").unwrap();
        fs.close(w).unwrap();
        let a = fs.open("/f", OpenFlags::RDONLY, 0).unwrap();
        let b = fs.open("/f", OpenFlags::RDONLY, 0).unwrap();
        let mut b1 = [0u8; 4];
        let mut b2 = [0u8; 4];
        fs.read(a, &mut b1).unwrap();
        fs.read(b, &mut b2).unwrap();
        // Each descriptor carries its own position.
        assert_eq!(&b1, b"abcd");
        assert_eq!(&b2, b"abcd");
        fs.read(a, &mut b1).unwrap();
        assert_eq!(&b1, b"efgh");
        fs.seek(b, 8).unwrap();
        let mut tail = [0u8; 2];
        assert_eq!(fs.read(b, &mut tail).unwrap(), 2);
        assert_eq!(&tail, b"ij");
        fs.close(a).unwrap();
        fs.close(b).unwrap();
    }

    #[test]
    fn fd_numbers_are_reused_after_close() {
        let mut fs = fresh();
        let a = fs.create("/a", 0o644).unwrap();
        fs.close(a).unwrap();
        let b = fs.create("/b", 0o644).unwrap();
        assert_eq!(a, b, "lowest free descriptor is reused, like POSIX");
        // The old descriptor no longer reaches /a.
        fs.write(b, b"b-data").unwrap();
        fs.close(b).unwrap();
        assert_eq!(fs.stat("/a").unwrap().size, 0);
        assert_eq!(fs.stat("/b").unwrap().size, 6);
    }

    #[test]
    fn writes_via_two_fds_interleave_correctly() {
        let mut fs = fresh();
        let a = fs.open("/f", OpenFlags::CREATE_TRUNC, 0o644).unwrap();
        let b = fs
            .open(
                "/f",
                OpenFlags {
                    read: true,
                    ..OpenFlags::RDWR
                },
                0,
            )
            .unwrap();
        fs.write(a, b"XXXX").unwrap();
        fs.pwrite(b, 2, b"yy").unwrap();
        fs.close(a).unwrap();
        let mut buf = [0u8; 4];
        fs.pread(b, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"XXyy");
        fs.close(b).unwrap();
    }

    #[test]
    fn readdir_lists_dirs_and_files_sorted() {
        let mut fs = fresh();
        fs.mkdir("/z", 0o755).unwrap();
        fs.mkdir("/a", 0o755).unwrap();
        let fd = fs.create("/m.dat", 0o644).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["a", "m.dat", "z"]);
        // Prefix collisions don't leak: "/a0" is not a child of "/a".
        let fd = fs.create("/a0", 0o644).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.readdir("/a").unwrap(), Vec::<String>::new());
    }
}
