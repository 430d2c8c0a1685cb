//! Wall-clock benchmarks of whole microfs operation paths: create storms,
//! checkpoint-style writes at different hugeblock sizes, snapshot,
//! mount-time recovery (a checkpoint rank's short log, and `meta_churn`'s
//! per-rank log, per record), and the offline checker on one large
//! directory.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use microfs::{FsConfig, MemDevice, MicroFs};
use std::hint::black_box;
use std::time::Instant;

const DEV: u64 = 256 << 20;

fn bench_create_storm(c: &mut Criterion) {
    c.bench_function("microfs_create_100_files", |b| {
        b.iter(|| {
            let mut fs = MicroFs::format(MemDevice::new(DEV), FsConfig::default()).unwrap();
            for i in 0..100 {
                let fd = fs.create(&format!("/f{i}"), 0o644).unwrap();
                fs.close(fd).unwrap();
            }
            black_box(fs.stats().creates)
        })
    });
}

fn bench_checkpoint_write(c: &mut Criterion) {
    // The write path at 4 KiB vs 32 KiB hugeblocks: software overhead per
    // block is what Figure 7(a)'s left side measures.
    let mut g = c.benchmark_group("microfs_write_32MiB");
    g.sample_size(15);
    let payload = vec![0xA5u8; 1 << 20];
    for &bs in &[4u64 << 10, 32 << 10, 256 << 10] {
        g.bench_with_input(BenchmarkId::from_parameter(bs / 1024), &bs, |b, &bs| {
            b.iter(|| {
                let config = FsConfig {
                    block_size: bs,
                    ..FsConfig::default()
                };
                let mut fs = MicroFs::format(MemDevice::new(DEV), config).unwrap();
                let fd = fs.create("/ckpt", 0o644).unwrap();
                for _ in 0..32 {
                    fs.write(fd, &payload).unwrap();
                }
                fs.close(fd).unwrap();
                black_box(fs.stats().bytes_written)
            })
        });
    }
    g.finish();
}

fn bench_snapshot_and_recovery(c: &mut Criterion) {
    let build = || {
        let mut fs = MicroFs::format(MemDevice::new(DEV), FsConfig::default()).unwrap();
        for i in 0..50 {
            let fd = fs.create(&format!("/ckpt_{i}"), 0o644).unwrap();
            fs.write(fd, &vec![1u8; 256 << 10]).unwrap();
            fs.close(fd).unwrap();
        }
        fs
    };
    c.bench_function("microfs_snapshot_50_files", |b| {
        let mut fs = build();
        b.iter(|| {
            fs.snapshot_now().unwrap();
            black_box(fs.stats().snapshots)
        })
    });
    c.bench_function("microfs_mount_replay_50_files", |b| {
        mount_each_iter(b, &mut Some(build().into_device()))
    });
}

/// Mount the device in `dev` once per iteration. Mount never writes, so
/// each iteration hands the device back for the next instead of copying
/// its 256 MiB.
fn mount_each_iter(b: &mut Bencher, dev: &mut Option<MemDevice>) {
    b.iter(|| {
        let fs = MicroFs::mount(dev.take().unwrap(), FsConfig::default()).unwrap();
        let replayed = fs.stats().replayed_records;
        *dev = Some(fs.into_device());
        black_box(replayed)
    })
}

fn bench_mount_fresh(c: &mut Criterion) {
    // A `ckpt_manyranks` rank after its four rounds: one 128 KiB file per
    // round, so the log holds 8 records behind the format-time snapshot.
    // What the mount costs here is the recovery floor every such rank pays.
    let mut fs = MicroFs::format(MemDevice::new(DEV), FsConfig::default()).unwrap();
    let data = vec![0xC3u8; 128 << 10];
    for round in 0..4 {
        let fd = fs.create(&format!("/ckpt_{round:03}"), 0o644).unwrap();
        fs.write(fd, &data).unwrap();
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
    }
    let mut dev = Some(fs.into_device());
    c.bench_function("microfs_mount_fresh", |b| mount_each_iter(b, &mut dev));
}

/// Which record kinds a churn log holds: each stage adds one kind to the
/// one before, so the difference between two stages is that kind's cost.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Churn {
    /// mkdir per round, create per file (under its final name).
    Create,
    /// ... plus one 8 KiB write per file.
    Write,
    /// ... created as `.tmp` and renamed to its final name.
    Rename,
    /// ... unlinking the files of two rounds back: `meta_churn`'s
    /// per-rank log.
    Unlink,
}

/// One `meta_churn` rank's 8 rounds of 64 files, cut at `stage`. The full
/// log is 1,928 records: 8 mkdirs, 512 creates, writes and renames, and
/// 384 unlinks.
fn churn_log(stage: Churn) -> (MemDevice, u64) {
    let mut fs = MicroFs::format(MemDevice::new(DEV), FsConfig::default()).unwrap();
    let data = vec![0x5Au8; (8 << 10) - 32];
    for round in 0..8u64 {
        fs.mkdir(&format!("/d{round:02}"), 0o755).unwrap();
        for i in 0..64u64 {
            let file = (i * 37 + round * 11) % 64;
            let path = format!("/d{round:02}/f{file:02}");
            let tmp = if stage >= Churn::Rename {
                format!("{path}.tmp")
            } else {
                path.clone()
            };
            let fd = fs.create(&tmp, 0o644).unwrap();
            if stage >= Churn::Write {
                fs.pwrite(fd, file * (8 << 10), &data).unwrap();
            }
            fs.fsync(fd).unwrap();
            fs.close(fd).unwrap();
            fs.stat(&tmp).unwrap();
            if tmp != path {
                fs.rename(&tmp, &path).unwrap();
            }
        }
        if stage >= Churn::Unlink && round >= 2 {
            for file in 0..64 {
                fs.unlink(&format!("/d{:02}/f{file:02}", round - 2))
                    .unwrap();
            }
        }
    }
    let fs = MicroFs::mount(fs.into_device(), FsConfig::default()).unwrap();
    let records = fs.stats().replayed_records;
    (fs.into_device(), records)
}

fn bench_churn_replay(c: &mut Criterion) {
    // Mount-time recovery of `meta_churn`'s metadata-heavy log, where
    // replay dominates the mount. Reported per replayed record.
    for (name, stage) in [
        ("create", Churn::Create),
        ("create+write", Churn::Write),
        ("create+write+rename", Churn::Rename),
        ("all", Churn::Unlink),
    ] {
        let (dev, records) = churn_log(stage);
        let mut g = c.benchmark_group("microfs_mount_replay_churn");
        g.throughput(Throughput::Elements(records));
        let mut dev = Some(dev);
        g.bench_function(format!("{name}/{records}_records"), |b| {
            mount_each_iter(b, &mut dev)
        });
        g.finish();
    }
}

fn bench_fsck_one_dir(c: &mut Criterion) {
    // `fsck::check` on one directory of `n` empty files: every lookup of
    // the check is a map probe, so 4x the files should cost about 4x the
    // time, not 16x. Each row also prints one check's ns per file, so the
    // smoke run shows whether the cost per file stays flat.
    let mut g = c.benchmark_group("fsck_one_dir");
    g.sample_size(10);
    for n in [2000u64, 8000] {
        let mut fs = MicroFs::format(MemDevice::new(DEV), FsConfig::default()).unwrap();
        fs.mkdir("/d", 0o755).unwrap();
        for i in 0..n {
            let fd = fs.create(&format!("/d/f{i:05}"), 0o644).unwrap();
            fs.close(fd).unwrap();
        }
        let mut dev = fs.into_device();
        let started = Instant::now();
        let report = microfs::fsck(&mut dev);
        let ns = started.elapsed().as_nanos() as f64;
        assert!(report.is_clean(), "{:?}", report.issues);
        println!(
            "fsck_one_dir/{n}: {:.0} ns per file in one check",
            ns / n as f64
        );
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let report = microfs::fsck(&mut dev);
                assert!(report.is_clean(), "{:?}", report.issues);
                black_box(report.paths)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_create_storm,
    bench_checkpoint_write,
    bench_snapshot_and_recovery,
    bench_mount_fresh,
    bench_churn_replay,
    bench_fsck_one_dir
);
criterion_main!(benches);
