//! The write-ahead operation log (metadata provenance, §III-E).
//!
//! The log occupies a fixed on-device region. Records are framed with a
//! generation number and CRC; appends are written through to the device
//! before the caller's operation is considered complete ("the log is
//! flushed before a subsequent operation is processed"). The device write
//! itself is the durability point: data lands in power-loss-protected
//! device RAM (§III-D), so no separate cache flush is issued.
//!
//! Coalescing (§III-E, Figure 5, module `coalesce`): when a write
//! continues the file exactly where the log's *last* record, a `Write` of
//! the same inode, ends, that record is rewritten in place with the
//! extended length instead of appending a new one. Only the last record
//! qualifies. Replay re-derives each write's blocks in log order, so a
//! write merged into an older record, across another file's allocation,
//! would be replayed before that allocation and take its blocks.
//! Interleaved files therefore append one record per switch.
//!
//! Atomicity assumption: the in-place rewrite is a single ≤45-byte device
//! write, which NVMe devices complete atomically (it is far below the
//! atomic-write unit). A torn rewrite would invalidate the record's CRC
//! and with it coverage of *earlier, already-durable* writes — so the
//! design is only sound on devices with that guarantee, the same class of
//! power-loss-protected hardware §III-D already requires.
//!
//! After the filesystem snapshots its internal state, [`Wal::reset`] bumps
//! the generation and restarts the region from the top; stale records from
//! the previous generation fail the generation+CRC check during scans.
//!
//! Recovery reads the log only up to its tail: [`Wal::scan`] reads the
//! region in doubling pieces and stops at the first frame that fails
//! inside what it has read, so a mount's log read follows the records
//! written since the last snapshot, not the size of the region. Coalescing
//! keeps that log short, which is where its recovery win shows up. The
//! scan hands back the bytes it read as a [`LogScan`], and replay decodes
//! each record from them in place, borrowing its paths.

mod coalesce;
pub mod record;

use chaos::{ChaosHandle, FaultAction, Site};

use crate::block::BlockDevice;
use crate::error::FsError;
use crate::inode::Ino;

use coalesce::{LastWrite, WriteRun};
pub use record::LogRecord;
use record::{frame_extent, read_frame, split_frame, HEADER_LEN, WRITE_PAYLOAD_LEN};

/// Bytes of the first read of a recovery [`Wal::scan`], one device page;
/// each later read doubles the bytes held.
const SCAN_FIRST_READ: usize = 4 << 10;

/// Append/coalesce statistics, feeding the recovery and Table I harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records physically appended.
    pub appended: u64,
    /// Writes absorbed by in-place coalescing (no new record).
    pub coalesced: u64,
    /// Bytes written to the log region (appends + rewrites).
    pub bytes_written: u64,
    /// Log resets (generation bumps after snapshots).
    pub resets: u64,
}

/// What a recovery [`Wal::scan`] found: the region's bytes from its start
/// up to the log tail, every frame in them valid for the scanned
/// generation.
#[derive(Debug)]
pub struct LogScan {
    bytes: Vec<u8>,
    records: usize,
}

impl LogScan {
    /// Records in the log.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Offset of the log tail from the region start.
    pub fn end(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The records in log order, decoded in place. The scan already
    /// checked every frame's generation and CRC and decoded its payload,
    /// so this walk only splits the frames.
    pub(crate) fn records(&self) -> impl Iterator<Item = Result<LogRecord<&str>, FsError>> {
        let mut pos = 0;
        std::iter::from_fn(move || {
            let (_, _, payload, next) = split_frame(&self.bytes, pos)?;
            pos = next;
            Some(LogRecord::decode_payload(payload))
        })
    }
}

/// The on-device operation log.
#[derive(Debug, Clone)]
pub struct Wal {
    region_off: u64,
    region_size: u64,
    generation: u32,
    /// Next append position, relative to the region start.
    pos: u64,
    last_write: LastWrite,
    coalescing: bool,
    stats: WalStats,
    chaos: ChaosHandle,
}

impl Wal {
    /// A fresh log over `[region_off, region_off + region_size)`.
    pub fn new(region_off: u64, region_size: u64, coalescing: bool) -> Self {
        Wal {
            region_off,
            region_size,
            generation: 0,
            pos: 0,
            last_write: LastWrite::default(),
            coalescing,
            stats: WalStats::default(),
            chaos: ChaosHandle::default(),
        }
    }

    /// Attach a fault-injection hook; fresh appends then consult the
    /// [`Site::WalAppend`] site (one relaxed atomic load when
    /// disarmed).
    pub fn set_chaos(&mut self, chaos: ChaosHandle) {
        self.chaos = chaos;
    }

    /// A log resuming at a known generation with an empty region (used
    /// after recovery re-established state `generation`).
    pub fn resume(
        region_off: u64,
        region_size: u64,
        coalescing: bool,
        generation: u32,
        pos: u64,
    ) -> Self {
        Wal {
            generation,
            pos,
            ..Self::new(region_off, region_size, coalescing)
        }
    }

    /// Current generation.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Bytes of the current generation written so far, from the region
    /// start.
    pub(crate) fn used_bytes(&self) -> u64 {
        self.pos
    }

    /// Bytes still available before the region is full.
    pub fn free_bytes(&self) -> u64 {
        self.region_size - self.pos
    }

    /// Fraction of the region still free, `0.0..=1.0`.
    pub fn free_fraction(&self) -> f64 {
        self.free_bytes() as f64 / self.region_size as f64
    }

    /// Statistics so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Append (or coalesce) one record; the device write completes before
    /// this returns (durability via power-loss-protected device RAM).
    /// `Err(LogFull)` means the caller must checkpoint state and
    /// [`reset`](Self::reset) the log.
    pub fn append<D: BlockDevice>(&mut self, dev: &mut D, rec: &LogRecord) -> Result<(), FsError> {
        // Coalescing path: a Write continuing the last record rewrites it
        // in place with the extended length.
        if let LogRecord::Write { ino, offset, len } = *rec {
            if let Some(run) = self.last_write.extend(ino, offset, len) {
                let merged = LogRecord::Write {
                    ino,
                    offset: run.start,
                    len: run.end - run.start,
                };
                let bytes = merged.encode(self.generation);
                debug_assert_eq!(bytes.len(), HEADER_LEN + WRITE_PAYLOAD_LEN);
                dev.write_at(run.device_pos, &bytes)
                    .map_err(|e| FsError::Io(e.to_string()))?;
                self.last_write.set(Some(run));
                self.stats.coalesced += 1;
                self.stats.bytes_written += bytes.len() as u64;
                return Ok(());
            }
        }
        // Any fresh append, even one that fails, ends the run of writes
        // the last record may absorb.
        self.last_write.set(None);
        let bytes = rec.encode(self.generation);
        if self.pos + bytes.len() as u64 > self.region_size {
            return Err(FsError::LogFull);
        }
        let device_pos = self.region_off + self.pos;
        // Torn-append injection: a power cut mid-append leaves only a prefix
        // of the frame on the device. The CRC framing makes the torn frame
        // invisible to `scan`, which self-truncates there; `pos` is not
        // advanced, modeling an append that never became durable. Only fresh
        // appends can tear — coalescing rewrites are sub-sector in-place
        // updates, atomic on real NVMe.
        if let Some(FaultAction::TornWrite { keep_bytes }) = self.chaos.fire(Site::WalAppend) {
            let keep = (keep_bytes as usize).min(bytes.len());
            dev.write_at(device_pos, &bytes[..keep])
                .map_err(|e| FsError::Io(e.to_string()))?;
            return Err(FsError::Io("torn WAL append (injected power fail)".into()));
        }
        // Crash-universe gate: the append dies before any byte lands, so
        // recovery sees the log exactly as it was before this call. `pos`
        // is not advanced.
        if self.chaos.fire(Site::WalRecord).is_some() {
            return Err(FsError::Io("crash point: WAL append".into()));
        }
        dev.write_at(device_pos, &bytes)
            .map_err(|e| FsError::Io(e.to_string()))?;
        if let LogRecord::Write { ino, offset, len } = *rec {
            if self.coalescing {
                self.last_write.set(Some(WriteRun {
                    ino,
                    start: offset,
                    end: offset + len,
                    device_pos,
                }));
            }
        }
        self.pos += bytes.len() as u64;
        self.stats.appended += 1;
        self.stats.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Whether a record of this size would fit without a reset.
    pub fn would_fit(&self, rec: &LogRecord) -> bool {
        self.pos + rec.encode(self.generation).len() as u64 <= self.region_size
    }

    /// Stop extending the last record if it covers `ino` (unlink/truncate
    /// make extension unsound).
    pub fn invalidate(&mut self, ino: Ino) {
        self.last_write.invalidate(ino);
    }

    /// Restart the region under a new generation (after a state snapshot).
    pub fn reset(&mut self) {
        self.generation += 1;
        self.pos = 0;
        self.last_write.set(None);
        self.stats.resets += 1;
    }

    /// Scan the region for generation `gen`: the valid records in order,
    /// ending at the log tail. Used by recovery; also the measure of
    /// "records that must be replayed" in the recovery-speed experiments.
    ///
    /// The region is read in growing pieces, from one 4 KiB page and
    /// doubling, and the scan stops at the first frame that fails while
    /// lying wholly inside the bytes already read: more bytes cannot
    /// change that verdict. A mount therefore reads at most about twice
    /// the live log, not the whole region, and finds exactly what a scan
    /// of the whole region finds.
    pub fn scan<D: BlockDevice>(
        dev: &mut D,
        region_off: u64,
        region_size: u64,
        gen: u32,
    ) -> Result<LogScan, FsError> {
        let region = region_size as usize;
        let mut raw = Vec::new();
        let mut pos = 0usize;
        let mut records = 0;
        loop {
            while read_frame(&raw, &mut pos, gen)?.is_some() {
                records += 1;
            }
            let want = frame_extent(&raw, pos).min(region);
            let held = raw.len();
            if want <= held {
                raw.truncate(pos);
                return Ok(LogScan {
                    bytes: raw,
                    records,
                });
            }
            let grow_to = want.max(held * 2).max(SCAN_FIRST_READ).min(region);
            raw.resize(grow_to, 0);
            dev.read_at(region_off + held as u64, &mut raw[held..])
                .map_err(|e| FsError::Io(e.to_string()))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDevice;
    use proptest::prelude::*;
    use record::frame;

    /// The whole-region scan `Wal::scan` replaced, kept as its oracle: the
    /// bytes up to the tail and the records they frame.
    fn scan_whole_region(
        dev: &mut MemDevice,
        region_off: u64,
        region_size: u64,
        gen: u32,
    ) -> Result<(Vec<u8>, usize), FsError> {
        let raw = dev.read_vec(region_off, region_size as usize).unwrap();
        let mut pos = 0usize;
        let mut records = 0;
        while read_frame(&raw, &mut pos, gen)?.is_some() {
            records += 1;
        }
        Ok((raw[..pos].to_vec(), records))
    }

    /// The records of a scan, decoded.
    fn records(scan: &LogScan) -> Vec<LogRecord<&str>> {
        scan.records().collect::<Result<_, _>>().unwrap()
    }

    /// `Wal::scan` returns what the oracle returns and reads at most twice
    /// the bytes up to the end of the frame that stops it.
    fn assert_scan_matches_oracle(dev: &MemDevice, region_off: u64, region_size: u64, gen: u32) {
        let mut oracle_dev = dev.clone();
        let want = scan_whole_region(&mut oracle_dev, region_off, region_size, gen);
        let mut dev = dev.clone();
        let before = dev.counters().bytes_read;
        let got = Wal::scan(&mut dev, region_off, region_size, gen);
        let read = dev.counters().bytes_read - before;
        if let Ok(scan) = &got {
            assert_eq!(records(scan).len(), scan.len());
        }
        assert_eq!(
            got.as_ref().map(|s| (s.bytes.clone(), s.len())),
            want.as_ref().map(|(bytes, n)| (bytes.clone(), *n)),
            "region {region_size} at {region_off}, gen {gen}"
        );
        assert!(
            read <= region_size,
            "read {read} of a {region_size}-byte region"
        );
        if let Ok(scan) = got {
            let bound = 2 * (scan.end() + (HEADER_LEN + usize::from(u16::MAX)) as u64);
            assert!(read <= bound, "read {read} for a tail at {}", scan.end());
        }
    }

    /// The largest frame the format allows: a rename whose two paths fill
    /// a `u16::MAX` payload.
    fn max_frame_record(fill: char) -> LogRecord {
        let half = (usize::from(u16::MAX) - 5) / 2;
        let rec = LogRecord::Rename {
            from: std::iter::repeat_n(fill, half).collect(),
            to: std::iter::repeat_n(fill, half).collect(),
        };
        assert_eq!(rec.encode_payload().len(), usize::from(u16::MAX));
        rec
    }

    /// One generated log operation: `(kind, ino, sequential, size)`.
    type ScanOp = (u8, u64, bool, u64);

    fn scan_record((kind, ino, sequential, size): ScanOp, next: &mut [u64; 3]) -> LogRecord {
        let ino = ino % 3;
        match kind {
            0..=3 => {
                let offset = if sequential {
                    next[ino as usize]
                } else {
                    size * 7
                };
                next[ino as usize] = offset + size + 1;
                LogRecord::Write {
                    ino,
                    offset,
                    len: size + 1,
                }
            }
            4 => LogRecord::Create {
                path: format!("/{}", "c".repeat(size as usize % 300)),
                mode: 0o644,
                uid: 0,
            },
            5 if sequential && size % 4 == 0 => max_frame_record('m'),
            5 => LogRecord::Rename {
                from: format!("/r{size}"),
                to: format!("/s{ino}"),
            },
            6 => LogRecord::Truncate { ino, size },
            _ => LogRecord::Unlink {
                path: format!("/u{size}"),
            },
        }
    }

    /// Appends until the log is full; `false` when `rec` did not fit.
    fn append_or_full(dev: &mut MemDevice, wal: &mut Wal, rec: &LogRecord) -> bool {
        match wal.append(dev, rec) {
            Ok(()) => true,
            Err(FsError::LogFull) => false,
            Err(e) => panic!("unexpected {e}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The tail-bounded scan equals the whole-region scan over random
        /// logs: coalesced or raw, behind valid frames of the previous
        /// generation, ending in a torn frame, garbage, a CRC-valid frame
        /// with a bad tag or a region with no room left, with frames up to
        /// the largest straddling every read boundary.
        #[test]
        fn prop_tail_bounded_scan_equals_whole_region_scan(
            ops in proptest::collection::vec((0u8..8, 0u64..3, any::<bool>(), 0u64..5000), 0..160),
            stale in proptest::collection::vec((0u8..8, 0u64..3, any::<bool>(), 0u64..5000), 0..160),
            coalescing in any::<bool>(),
            region in prop_oneof![
                2 => 1u64..(48 << 10),
                2 => 1u64..(400 << 10),
                1 => (1u64..24).prop_map(|k| k * SCAN_FIRST_READ as u64),
            ],
            region_off in prop_oneof![Just(0u64), 1u64..9000],
            tail in 0u8..5,
            keep in 0usize..64,
        ) {
            let mut dev = MemDevice::new(region_off + region + 8192);
            let mut wal = Wal::new(region_off, region, coalescing);
            let mut next = [0u64; 3];
            // A previous generation's valid frames, left behind the tail
            // once the log resets.
            if !stale.is_empty() {
                for &op in &stale {
                    if !append_or_full(&mut dev, &mut wal, &scan_record(op, &mut next)) {
                        break;
                    }
                }
                wal.reset();
            }
            let mut full = false;
            for &op in &ops {
                if !append_or_full(&mut dev, &mut wal, &scan_record(op, &mut next)) {
                    full = true;
                    break;
                }
            }
            let gen = wal.generation();
            let at = region_off + wal.used_bytes();
            let room = (region - wal.used_bytes()) as usize;
            let rec = LogRecord::Unlink { path: "/tail".into() };
            match tail {
                // A torn append: a prefix of the next frame.
                0 => {
                    let bytes = rec.encode(gen);
                    dev.write_at(at, &bytes[..keep.min(bytes.len()).min(room)]).unwrap();
                }
                // Garbage where the next header would be.
                1 => {
                    let junk: Vec<u8> = (0..keep.min(room)).map(|i| (i * 37 + 11) as u8).collect();
                    dev.write_at(at, &junk).unwrap();
                }
                // A frame whose CRC holds but whose tag is unknown.
                2 => {
                    let bytes = frame(gen, &[0xEE; 9]);
                    if bytes.len() <= room {
                        dev.write_at(at, &bytes).unwrap();
                    }
                }
                // Fill the region until no further frame fits.
                3 if !full => {
                    while append_or_full(&mut dev, &mut wal, &rec) {}
                }
                _ => {}
            }
            assert_scan_matches_oracle(&dev, region_off, region, gen);
        }
    }

    #[test]
    fn max_size_frames_straddle_read_boundaries() {
        // Starting each run of largest frames at a different offset puts
        // frame boundaries on both sides of every read boundary.
        for lead in [0usize, 1, 6_000, 16_380, 16_384, 16_390, 40_000] {
            let region = 5 * (HEADER_LEN + usize::from(u16::MAX)) as u64 + lead as u64 + 3;
            let mut dev = MemDevice::new(region + 4096);
            let mut wal = Wal::new(7, region, false);
            let pad = LogRecord::Create {
                path: format!("/{}", "p".repeat(lead.saturating_sub(21).min(60_000))),
                mode: 0,
                uid: 0,
            };
            if lead > 0 {
                wal.append(&mut dev, &pad).unwrap();
            }
            for fill in ['a', 'b', 'c', 'd'] {
                wal.append(&mut dev, &max_frame_record(fill)).unwrap();
            }
            let scan = Wal::scan(&mut dev.clone(), 7, region, 0).unwrap();
            assert_eq!(scan.len(), 4 + usize::from(lead > 0));
            assert_eq!(scan.end(), wal.used_bytes());
            assert_scan_matches_oracle(&dev, 7, region, 0);
        }
    }

    #[test]
    fn completely_full_region_scans_to_its_end() {
        let rec = LogRecord::Write {
            ino: 1,
            offset: 0,
            len: 1,
        };
        let frame_len = rec.encode(0).len() as u64;
        // Exact multiples of the frame, on and off the read size.
        for frames in [1u64, 7, 1000, 1639, 5000] {
            let region = frames * frame_len;
            let mut dev = MemDevice::new(region);
            let mut wal = Wal::new(0, region, false);
            while append_or_full(&mut dev, &mut wal, &rec) {}
            assert_eq!(wal.free_bytes(), 0);
            let scan = Wal::scan(&mut dev.clone(), 0, region, 0).unwrap();
            assert_eq!((scan.len() as u64, scan.end()), (frames, region));
            assert_scan_matches_oracle(&dev, 0, region, 0);
        }
    }

    #[test]
    fn short_log_reads_one_piece_of_a_large_region() {
        let region = 3 << 20;
        let mut dev = MemDevice::new(region);
        let mut wal = Wal::new(0, region, true);
        for i in 0..64u64 {
            wal.append(
                &mut dev,
                &LogRecord::Write {
                    ino: 1,
                    offset: i << 12,
                    len: 1 << 12,
                },
            )
            .unwrap();
        }
        let scan = Wal::scan(&mut dev, 0, region, 0).unwrap();
        assert_eq!(scan.len(), 1);
        assert_eq!(dev.counters().bytes_read, SCAN_FIRST_READ as u64);
    }

    fn setup(coalescing: bool) -> (MemDevice, Wal) {
        (MemDevice::new(64 << 10), Wal::new(0, 32 << 10, coalescing))
    }

    #[test]
    fn append_then_scan_roundtrip() {
        let (mut dev, mut wal) = setup(false);
        let recs = vec![
            LogRecord::Create {
                path: "/f".into(),
                mode: 0o644,
                uid: 0,
            },
            LogRecord::Write {
                ino: 1,
                offset: 0,
                len: 100,
            },
            LogRecord::Unlink { path: "/f".into() },
        ];
        for r in &recs {
            wal.append(&mut dev, r).unwrap();
        }
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(records(&scan), recs);
        assert_eq!(wal.stats().appended, 3);
    }

    #[test]
    fn sequential_writes_coalesce_into_one_record() {
        let (mut dev, mut wal) = setup(true);
        for i in 0..64u64 {
            wal.append(
                &mut dev,
                &LogRecord::Write {
                    ino: 5,
                    offset: i * 4096,
                    len: 4096,
                },
            )
            .unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.appended, 1, "only the first write appends");
        assert_eq!(s.coalesced, 63);
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(records(&scan), [write(5, 0, 64 * 4096)]);
    }

    fn write(ino: Ino, offset: u64, len: u64) -> LogRecord {
        LogRecord::Write { ino, offset, len }
    }

    #[test]
    fn non_adjacent_writes_do_not_coalesce() {
        let (mut dev, mut wal) = setup(true);
        wal.append(&mut dev, &write(1, 0, 100)).unwrap();
        wal.append(&mut dev, &write(1, 150, 10)).unwrap(); // gap
        wal.append(&mut dev, &write(1, 50, 10)).unwrap(); // rewind
        wal.append(&mut dev, &write(2, 60, 10)).unwrap(); // different file
        assert_eq!(wal.stats().appended, 4);
        assert_eq!(wal.stats().coalesced, 0);
    }

    #[test]
    fn interleaved_files_do_not_coalesce() {
        // Only the last record may be extended: once another file's write
        // lands in between, a continuation of the first file appends.
        let (mut dev, mut wal) = setup(true);
        for rec in [
            write(1, 0, 10),
            write(2, 0, 20),
            write(1, 10, 5),
            write(1, 15, 5),
            write(2, 20, 5),
        ] {
            wal.append(&mut dev, &rec).unwrap();
        }
        assert_eq!(wal.stats().appended, 4);
        assert_eq!(wal.stats().coalesced, 1);
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(
            records(&scan),
            [
                write(1, 0, 10),
                write(2, 0, 20),
                write(1, 10, 10),
                write(2, 20, 5)
            ]
        );
    }

    #[test]
    fn a_non_write_record_ends_the_run() {
        let (mut dev, mut wal) = setup(true);
        wal.append(&mut dev, &write(1, 0, 10)).unwrap();
        wal.append(&mut dev, &LogRecord::Truncate { ino: 2, size: 0 })
            .unwrap();
        wal.append(&mut dev, &write(1, 10, 10)).unwrap();
        assert_eq!(wal.stats().appended, 3);
        assert_eq!(wal.stats().coalesced, 0);
    }

    #[test]
    fn coalescing_disabled_appends_every_record() {
        let (mut dev, mut wal) = setup(false);
        for i in 0..10u64 {
            wal.append(
                &mut dev,
                &LogRecord::Write {
                    ino: 5,
                    offset: i * 10,
                    len: 10,
                },
            )
            .unwrap();
        }
        assert_eq!(wal.stats().appended, 10);
        assert_eq!(wal.stats().coalesced, 0);
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(scan.len(), 10);
    }

    #[test]
    fn replay_equivalence_coalesced_vs_raw() {
        // The byte coverage expressed by the scanned records must be
        // identical with and without coalescing.
        let writes: Vec<(u64, u64, u64)> = vec![
            (1, 0, 100),
            (1, 100, 50),
            (2, 0, 10),
            (1, 150, 50),
            (2, 10, 30),
            (1, 500, 10), // gap: separate record
        ];
        let coverage = |recs: &[LogRecord<&str>]| {
            let mut cov: Vec<(u64, u64, u64)> = Vec::new();
            for r in recs {
                if let LogRecord::Write { ino, offset, len } = *r {
                    cov.push((ino, offset, offset + len));
                }
            }
            // Normalize into per-byte sets (files are small here).
            let mut bytes: Vec<(u64, u64)> = Vec::new();
            for (ino, s, e) in cov {
                for b in s..e {
                    bytes.push((ino, b));
                }
            }
            bytes.sort_unstable();
            bytes.dedup();
            bytes
        };
        let run = |coalescing: bool| {
            let (mut dev, mut wal) = setup(coalescing);
            for &(ino, offset, len) in &writes {
                wal.append(&mut dev, &LogRecord::Write { ino, offset, len })
                    .unwrap();
            }
            let scan = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
            coverage(&records(&scan))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn reset_starts_new_generation_and_hides_old_records() {
        let (mut dev, mut wal) = setup(false);
        wal.append(
            &mut dev,
            &LogRecord::Write {
                ino: 1,
                offset: 0,
                len: 8,
            },
        )
        .unwrap();
        wal.reset();
        assert_eq!(wal.generation(), 1);
        // Old-generation records are invisible to the new-generation scan.
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 1).unwrap();
        assert!(scan.is_empty());
        // New appends are visible.
        wal.append(
            &mut dev,
            &LogRecord::Write {
                ino: 2,
                offset: 0,
                len: 8,
            },
        )
        .unwrap();
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 1).unwrap();
        assert_eq!(scan.len(), 1);
    }

    #[test]
    fn log_full_is_reported() {
        let mut dev = MemDevice::new(4096);
        let mut wal = Wal::new(0, 128, false);
        let rec = LogRecord::Write {
            ino: 1,
            offset: 0,
            len: 1,
        };
        let mut appended = 0;
        loop {
            match wal.append(&mut dev, &rec) {
                Ok(()) => appended += 1,
                Err(FsError::LogFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            // Non-coalescing, distinct records would be identical; that's
            // fine for capacity accounting.
            assert!(appended < 100, "region should fill");
        }
        assert!(appended >= 1);
        assert!(wal.free_bytes() < 35);
    }

    #[test]
    fn invalidate_prevents_stale_extension() {
        let (mut dev, mut wal) = setup(true);
        wal.append(
            &mut dev,
            &LogRecord::Write {
                ino: 1,
                offset: 0,
                len: 100,
            },
        )
        .unwrap();
        wal.invalidate(1);
        wal.append(
            &mut dev,
            &LogRecord::Write {
                ino: 1,
                offset: 100,
                len: 50,
            },
        )
        .unwrap();
        assert_eq!(wal.stats().appended, 2);
        assert_eq!(wal.stats().coalesced, 0);
    }

    #[test]
    fn torn_append_is_invisible_to_scan() {
        use chaos::FaultPlan;
        let (mut dev, mut wal) = setup(false);
        wal.append(
            &mut dev,
            &LogRecord::Write {
                ino: 1,
                offset: 0,
                len: 64,
            },
        )
        .unwrap();
        // Arm a torn write for the very next append: only 5 bytes of the
        // frame reach the device.
        let chaos = ChaosHandle::default();
        let t = telemetry::Telemetry::new();
        chaos.arm(
            FaultPlan::new(7).at_op(Site::WalAppend, FaultAction::TornWrite { keep_bytes: 5 }, 0),
            &t,
        );
        wal.set_chaos(chaos.clone());
        let err = wal
            .append(
                &mut dev,
                &LogRecord::Write {
                    ino: 2,
                    offset: 0,
                    len: 64,
                },
            )
            .unwrap_err();
        assert!(matches!(err, FsError::Io(_)), "torn append surfaces as Io");
        // The torn frame fails the CRC check: scan self-truncates there and
        // only the prior record survives.
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(records(&scan), [write(1, 0, 64)]);
        // `pos` did not advance; after disarming, the next append overwrites
        // the torn prefix and the log is healthy again.
        chaos.disarm();
        wal.append(
            &mut dev,
            &LogRecord::Write {
                ino: 3,
                offset: 0,
                len: 8,
            },
        )
        .unwrap();
        let scan = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(scan.len(), 2);
        assert_eq!(records(&scan)[1], write(3, 0, 8));
    }

    #[test]
    fn free_fraction_decreases() {
        let (mut dev, mut wal) = setup(false);
        let f0 = wal.free_fraction();
        wal.append(
            &mut dev,
            &LogRecord::Write {
                ino: 1,
                offset: 0,
                len: 1,
            },
        )
        .unwrap();
        assert!(wal.free_fraction() < f0);
        assert!(wal.would_fit(&LogRecord::Write {
            ino: 1,
            offset: 0,
            len: 1
        }));
    }
}
