//! The write-ahead operation log (metadata provenance, §III-E).
//!
//! The log occupies a fixed on-device region. Records are framed with a
//! generation number and CRC; appends are written through to the device
//! before the caller's operation is considered complete ("the log is
//! flushed before a subsequent operation is processed"). The device write
//! itself is the durability point: data lands in power-loss-protected
//! device RAM (§III-D), so no separate cache flush is issued. Coalescing
//! rewrites the previous record in place instead of appending when a write
//! sequentially continues a recent one.
//!
//! After the filesystem snapshots its internal state, [`Wal::reset`] bumps
//! the generation and restarts the region from the top; stale records from
//! the previous generation fail the generation+CRC check during scans.

pub mod coalesce;
pub mod record;

use chaos::{ChaosHandle, FaultAction, Site};

use crate::block::BlockDevice;
use crate::error::FsError;
use crate::inode::Ino;

use coalesce::{CoalesceWindow, WindowEntry};
pub use record::LogRecord;
use record::{read_frame, HEADER_LEN, WRITE_PAYLOAD_LEN};

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

/// The on-device operation log.
#[derive(Debug, Clone)]
pub struct Wal {
    region_off: u64,
    region_size: u64,
    generation: u32,
    /// Next append position, relative to the region start.
    pos: u64,
    window: CoalesceWindow,
    coalescing: bool,
    stats: WalStats,
    chaos: ChaosHandle,
}

impl Wal {
    /// Default sliding-window capacity.
    pub const DEFAULT_WINDOW: usize = 8;

    /// A fresh log over `[region_off, region_off + region_size)`.
    pub fn new(region_off: u64, region_size: u64, coalescing: bool) -> Self {
        Wal {
            region_off,
            region_size,
            generation: 0,
            pos: 0,
            window: CoalesceWindow::new(Self::DEFAULT_WINDOW),
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
        // Coalescing path: a Write continuing a windowed record rewrites it
        // in place with the extended length.
        if self.coalescing {
            if let LogRecord::Write { ino, offset, len } = *rec {
                if let Some(entry) = self.window.try_extend(ino, offset, len) {
                    let merged = LogRecord::Write {
                        ino,
                        offset: entry.start,
                        len: entry.end - entry.start,
                    };
                    let bytes = merged.encode(self.generation);
                    debug_assert_eq!(bytes.len(), HEADER_LEN + WRITE_PAYLOAD_LEN);
                    dev.write_at(entry.device_pos, &bytes)
                        .map_err(|e| FsError::Io(e.to_string()))?;
                    self.stats.coalesced += 1;
                    self.stats.bytes_written += bytes.len() as u64;
                    return Ok(());
                }
            }
        }
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
                self.window.register(WindowEntry {
                    ino,
                    start: offset,
                    end: offset + len,
                    device_pos,
                });
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

    /// Drop coverage memory for an inode (unlink/truncate make extension
    /// unsound).
    pub fn invalidate(&mut self, ino: Ino) {
        self.window.invalidate(ino);
    }

    /// Restart the region under a new generation (after a state snapshot).
    pub fn reset(&mut self) {
        self.generation += 1;
        self.pos = 0;
        self.window.clear();
        self.stats.resets += 1;
    }

    /// Scan the region for generation `gen`, returning all valid records in
    /// order. Used by recovery; also the measure of "records that must be
    /// replayed" in the recovery-speed experiments.
    pub fn scan<D: BlockDevice>(
        dev: &mut D,
        region_off: u64,
        region_size: u64,
        gen: u32,
    ) -> Result<(Vec<LogRecord>, u64), FsError> {
        let raw = dev
            .read_vec(region_off, region_size as usize)
            .map_err(|e| FsError::Io(e.to_string()))?;
        let mut pos = 0usize;
        let mut out = Vec::new();
        while let Some(rec) = read_frame(&raw, &mut pos, gen)? {
            out.push(rec);
        }
        Ok((out, pos as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDevice;

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
        let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(scanned, recs);
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
        let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(
            scanned,
            vec![LogRecord::Write {
                ino: 5,
                offset: 0,
                len: 64 * 4096
            }]
        );
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
        let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(scanned.len(), 10);
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
        let coverage = |recs: &[LogRecord]| {
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
            let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
            coverage(&scanned)
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
        let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 1).unwrap();
        assert!(scanned.is_empty());
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
        let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 1).unwrap();
        assert_eq!(scanned.len(), 1);
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
        let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(
            scanned,
            vec![LogRecord::Write {
                ino: 1,
                offset: 0,
                len: 64
            }]
        );
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
        let (scanned, _) = Wal::scan(&mut dev, 0, 32 << 10, 0).unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(
            scanned[1],
            LogRecord::Write {
                ino: 3,
                offset: 0,
                len: 8
            }
        );
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
