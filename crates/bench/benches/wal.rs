//! Wall-clock benchmarks of the operation log: append throughput with and
//! without record coalescing (the §III-E ablation), and recovery-scan
//! speed and read volume.

use criterion::{criterion_group, criterion_main, Criterion};
use microfs::block::{BlockDevice, MemDevice};
use microfs::wal::{LogRecord, Wal};
use std::hint::black_box;

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_append_1000_sequential_writes");
    g.sample_size(30);
    for (name, coalescing) in [("coalescing", true), ("raw", false)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut dev = MemDevice::new(4 << 20);
                let mut wal = Wal::new(0, 2 << 20, coalescing);
                for i in 0..1000u64 {
                    wal.append(
                        &mut dev,
                        &LogRecord::Write {
                            ino: 1,
                            offset: i * 4096,
                            len: 4096,
                        },
                    )
                    .unwrap();
                }
                black_box(wal.stats().appended)
            })
        });
    }
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    // Recovery replay length: coalesced logs scan near-instantly.
    let build = |coalescing: bool| {
        let mut dev = MemDevice::new(4 << 20);
        let mut wal = Wal::new(0, 2 << 20, coalescing);
        for f in 0..10u64 {
            for i in 0..100u64 {
                wal.append(
                    &mut dev,
                    &LogRecord::Write {
                        ino: f,
                        offset: i * 4096,
                        len: 4096,
                    },
                )
                .unwrap();
            }
        }
        dev
    };
    let mut g = c.benchmark_group("wal_recovery_scan");
    g.sample_size(30);
    let mut dev_c = build(true);
    g.bench_function("coalesced", |b| {
        b.iter(|| black_box(Wal::scan(&mut dev_c, 0, 2 << 20, 0).unwrap().0.len()))
    });
    let mut dev_r = build(false);
    g.bench_function("raw", |b| {
        b.iter(|| black_box(Wal::scan(&mut dev_r, 0, 2 << 20, 0).unwrap().0.len()))
    });
    g.finish();
}

fn bench_scan_short_log(c: &mut Criterion) {
    // A short log in the 1% log region of a 292 MiB segment: the scan
    // stops at the log tail, so coalescing's recovery win (§IV-I) shows
    // up as device bytes read, not only as records replayed.
    const REGION: u64 = (292 << 20) / 100;
    let build = |coalescing: bool| {
        let mut dev = MemDevice::new(REGION);
        let mut wal = Wal::new(0, REGION, coalescing);
        for f in 0..4u64 {
            for i in 0..256u64 {
                wal.append(
                    &mut dev,
                    &LogRecord::Write {
                        ino: f,
                        offset: i * 4096,
                        len: 4096,
                    },
                )
                .unwrap();
            }
        }
        dev
    };
    let mut g = c.benchmark_group("wal_recovery_scan_short_log_in_2_9mib_region");
    g.sample_size(30);
    for (name, coalescing) in [("coalesced", true), ("raw", false)] {
        let mut dev = build(coalescing);
        let before = dev.counters().bytes_read;
        let (records, tail) = Wal::scan(&mut dev, 0, REGION, 0).unwrap();
        println!(
            "wal_recovery_scan_short_log/{name}: {} records, tail at {tail} B, \
             {} B read of a {REGION} B region",
            records.len(),
            dev.counters().bytes_read - before
        );
        g.bench_function(name, |b| {
            b.iter(|| black_box(Wal::scan(&mut dev, 0, REGION, 0).unwrap().0.len()))
        });
    }
    g.finish();
}

fn bench_record_codec(c: &mut Criterion) {
    let rec = LogRecord::Create {
        path: "/comd/ckpt_003/rank_00042.dat".into(),
        mode: 0o644,
        uid: 1000,
    };
    c.bench_function("wal_record_encode", |b| {
        b.iter(|| black_box(rec.encode(black_box(3))).len())
    });
}

criterion_group!(
    benches,
    bench_append,
    bench_scan,
    bench_scan_short_log,
    bench_record_codec
);
criterion_main!(benches);
