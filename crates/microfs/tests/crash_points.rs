//! Exhaustive crash-point sweep.
//!
//! A recording device journals every device write a workload performs.
//! For each prefix of that write sequence we materialize "the media at the
//! moment of the crash" and require that the partition (a) mounts and (b)
//! passes the independent `fsck` witness. This is the strongest form of
//! the paper's §III-E claim — "metadata will always be consistent, even
//! with unexpected failures" — checked not just at operation boundaries
//! but **between every two device writes**.

use microfs::block::{BlockDevice, DevError, IoCounters};
use microfs::{FsConfig, MemDevice, MicroFs, OpenFlags};

/// Records every write so any crash prefix can be replayed onto fresh
/// media.
struct RecordingDevice {
    inner: MemDevice,
    log: Vec<(u64, Vec<u8>)>,
}

impl RecordingDevice {
    fn new(size: u64) -> Self {
        RecordingDevice {
            inner: MemDevice::new(size),
            log: Vec::new(),
        }
    }

    /// Media contents as of write `k` (exclusive).
    fn media_at(&self, k: usize, size: u64) -> MemDevice {
        let mut m = MemDevice::new(size);
        for (off, data) in &self.log[..k] {
            m.write_at(*off, data).unwrap();
        }
        m
    }
}

impl BlockDevice for RecordingDevice {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), DevError> {
        self.log.push((offset, data.to_vec()));
        self.inner.write_at(offset, data)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), DevError> {
        self.inner.read_at(offset, buf)
    }

    fn flush(&mut self) -> Result<(), DevError> {
        self.inner.flush()
    }

    fn size(&self) -> u64 {
        self.inner.size()
    }

    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
}

const DEV_SIZE: u64 = 48 << 20;

/// Drive a representative workload and return the recording.
fn run_workload() -> RecordingDevice {
    let dev = RecordingDevice::new(DEV_SIZE);
    let mut fs = MicroFs::format(dev, FsConfig::default()).unwrap();
    fs.mkdir("/ckpt", 0o755).unwrap();
    for i in 0..4 {
        let path = format!("/ckpt/rank_{i}.dat");
        let fd = fs.create(&path, 0o644).unwrap();
        for chunk in 0..4 {
            fs.write(fd, &vec![(i * 16 + chunk) as u8; 24 << 10])
                .unwrap();
        }
        fs.close(fd).unwrap();
    }
    fs.unlink("/ckpt/rank_1.dat").unwrap();
    fs.rename("/ckpt/rank_2.dat", "/ckpt/final.dat").unwrap();
    fs.truncate("/ckpt/final.dat", 30 << 10).unwrap();
    fs.snapshot_now().unwrap();
    let fd = fs.create("/ckpt/post_snap.dat", 0o644).unwrap();
    fs.write(fd, &[0xEE; 50 << 10]).unwrap();
    fs.close(fd).unwrap();
    fs.into_device()
}

#[test]
fn every_crash_point_mounts_and_fscks_clean() {
    let rec = run_workload();
    let total = rec.log.len();
    assert!(
        total > 50,
        "workload should produce many device writes, got {total}"
    );
    // The partition is mountable only once the initial snapshot header is
    // on media; find that point (first prefix that mounts) and require
    // every later prefix to be clean too.
    let mut first_mountable = None;
    for k in 0..=total {
        let media = rec.media_at(k, DEV_SIZE);
        let mut for_fsck = media.clone();
        match MicroFs::mount(media, FsConfig::default()) {
            Ok(_) => {
                if first_mountable.is_none() {
                    first_mountable = Some(k);
                }
                let report = microfs::fsck(&mut for_fsck);
                assert!(
                    report.is_clean(),
                    "crash after write {k}/{total}: {:?}",
                    report.issues
                );
            }
            Err(e) => {
                assert!(
                    first_mountable.is_none(),
                    "crash after write {k}/{total}: partition regressed to unmountable: {e}"
                );
            }
        }
    }
    let first = first_mountable.expect("the completed partition must mount");
    assert!(
        first <= 10,
        "format should make the partition mountable within its first writes, got {first}"
    );
}

#[test]
fn completed_data_survives_at_every_later_crash_point() {
    // Stronger than consistency: once a file's final write has hit the
    // device AND its log record is durable, every later crash point must
    // serve its exact bytes.
    let rec = run_workload();
    let total = rec.log.len();
    let expect: Vec<u8> = vec![0xEE; 50 << 10];
    // Find the first crash point where /ckpt/post_snap.dat is fully
    // present, then verify it at every later point.
    let mut seen_at = None;
    for k in 0..=total {
        let media = rec.media_at(k, DEV_SIZE);
        let Ok(mut fs) = MicroFs::mount(media, FsConfig::default()) else {
            continue;
        };
        let Ok(st) = fs.stat("/ckpt/post_snap.dat") else {
            assert!(seen_at.is_none(), "file vanished at crash point {k}");
            continue;
        };
        if st.size == expect.len() as u64 {
            let fd = fs
                .open("/ckpt/post_snap.dat", OpenFlags::RDONLY, 0)
                .unwrap();
            let mut buf = vec![0u8; expect.len()];
            let mut got = 0;
            while got < buf.len() {
                let n = fs.read(fd, &mut buf[got..]).unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
            assert_eq!(buf, expect, "bytes wrong at crash point {k}");
            if seen_at.is_none() {
                seen_at = Some(k);
            }
        }
    }
    // Durability lands exactly when the write's log record hits the
    // device — which for this workload's final file is its last append.
    let seen = seen_at.expect("the file must become durable by the end");
    assert!(seen <= total);
    // And from that point on it never regressed (checked in the loop).
}
