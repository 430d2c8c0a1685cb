//! Wall-clock benchmarks of the DRAM name index (§III-E), microfs's
//! wrapper over `std`'s B-Tree map: inserts and lookups on checkpoint file
//! names, lookups on the keys a `meta_churn` rank's replay probes, and the
//! snapshot section's encode/decode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use microfs::btree::BTree;
use std::hint::black_box;

fn keys(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("/comd/ckpt_007/rank_{i:06}.dat"))
        .collect()
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree_insert");
    g.sample_size(20);
    for &n in &[1_000usize, 10_000] {
        let ks = keys(n);
        g.bench_with_input(BenchmarkId::new("microfs", n), &ks, |b, ks| {
            b.iter(|| {
                let mut t = BTree::new();
                for (i, k) in ks.iter().enumerate() {
                    t.insert(k, i as u64);
                }
                black_box(t.len())
            })
        });
    }
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let ks = keys(10_000);
    let mut tree = BTree::new();
    for (i, k) in ks.iter().enumerate() {
        tree.insert(k, i as u64);
    }
    c.bench_function("btree_lookup_10k", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for k in ks.iter().step_by(7) {
                if tree.get(black_box(k)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

/// A `meta_churn` rank's keys: 8 round directories `/dNN` and their 64
/// files `/dNN/fNN`, 520 live keys in all.
fn churn_keys() -> Vec<String> {
    (0..8)
        .flat_map(|d| {
            std::iter::once(format!("/d{d:02}"))
                .chain((0..64).map(move |f| format!("/d{d:02}/f{f:02}")))
        })
        .collect()
}

fn bench_lookup_churn(c: &mut Criterion) {
    // Replay probes each file under its final name (a hit) and under its
    // `.tmp` name (a miss once renamed): one probe of each per file.
    let live = churn_keys();
    let probes: Vec<String> = live
        .iter()
        .filter(|k| k.contains("/f"))
        .flat_map(|k| [k.clone(), format!("{k}.tmp")])
        .collect();
    let mut tree = BTree::new();
    for (i, k) in live.iter().enumerate() {
        tree.insert(k, i as u64);
    }
    let mut g = c.benchmark_group("btree_get_churn_520_keys");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("microfs", |b| {
        b.iter(|| {
            let hits = probes.iter().filter(|k| tree.get(black_box(k)).is_some());
            black_box(hits.count())
        })
    });
    g.finish();
}

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let ks = keys(10_000);
    let mut tree = BTree::new();
    for (i, k) in ks.iter().enumerate() {
        tree.insert(k, i as u64);
    }
    c.bench_function("btree_encode_decode_10k", |b| {
        b.iter(|| {
            let bytes = tree.encode();
            let (t, _) = BTree::decode(black_box(&bytes)).unwrap();
            black_box(t.len())
        })
    });
}

criterion_group!(
    benches,
    bench_insert,
    bench_lookup,
    bench_lookup_churn,
    bench_snapshot_roundtrip
);
criterion_main!(benches);
