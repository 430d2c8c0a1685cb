//! Wall-clock benchmarks of the wire-format codecs: NVMf capsules and
//! CRC-32 — every functional IO crosses these paths. `capsule_roundtrip`
//! times the scatter-gather codec the data plane runs (`encode_sg` /
//! `decode_sg`: the payload crosses by refcount). The `capsule_encode`
//! group sets a precomputed payload CRC (`write_precrc`, one
//! `crc32_shift`) against a rescan of the payload (`write`).
//! `flight_recorder/record_at` prices one flight-recorder event at a
//! stamp the caller already read, as the submission window records two
//! per command (`Submit` and `Complete`); it prints ns per event.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fabric::Capsule;
use microfs::crc::{crc32, crc32_shift};
use std::hint::black_box;
use telemetry::{FlightKind, FlightRecorder};

fn bench_capsule(c: &mut Criterion) {
    let mut g = c.benchmark_group("capsule_roundtrip");
    for &size in &[4096usize, 32 << 10, 1 << 20] {
        g.throughput(Throughput::Bytes(size as u64));
        let payload = Bytes::from(vec![0xA5u8; size]);
        g.bench_with_input(BenchmarkId::from_parameter(size), &payload, |b, p| {
            b.iter(|| {
                let cap = Capsule::write(1, 1, 0, p.clone());
                let wire = cap.encode_sg();
                black_box(Capsule::decode_sg(wire).unwrap().len)
            })
        });
    }
    g.finish();
}

fn bench_capsule_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("capsule_encode");
    for &size in &[4096usize, 32 << 10, 1 << 20] {
        g.throughput(Throughput::Bytes(size as u64));
        let payload = Bytes::from(vec![0xA5u8; size]);
        let payload_crc = crc32(&payload);
        g.bench_with_input(BenchmarkId::new("write", size), &payload, |b, p| {
            b.iter(|| black_box(Capsule::write(1, 1, 0, p.clone()).encode_sg()))
        });
        g.bench_with_input(BenchmarkId::new("write_precrc", size), &payload, |b, p| {
            b.iter(|| black_box(Capsule::write_precrc(1, 1, 0, p.clone(), payload_crc).encode_sg()))
        });
    }
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for &size in &[64usize, 4096, 32 << 10, 1 << 20] {
        g.throughput(Throughput::Bytes(size as u64));
        let data = vec![0x5Au8; size];
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(crc32(d)))
        });
    }
    g.finish();
}

fn bench_crc_shift(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32_shift");
    for &len in &[4096u64, 32 << 10, 1 << 20] {
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &n| {
            b.iter(|| black_box(crc32_shift(black_box(0x1234_5678), n)))
        });
    }
    g.finish();
}

fn bench_flight_recorder(c: &mut Criterion) {
    let mut g = c.benchmark_group("flight_recorder");
    g.throughput(Throughput::Elements(1));
    let rec = FlightRecorder::new();
    let stamp = telemetry::now();
    let mut cid = 0u64;
    g.bench_function("record_at", |b| {
        b.iter(|| {
            cid += 1;
            rec.record_at(stamp, FlightKind::Complete, cid, 0, 4096, 0)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_capsule,
    bench_capsule_encode,
    bench_crc,
    bench_crc_shift,
    bench_flight_recorder
);
criterion_main!(benches);
