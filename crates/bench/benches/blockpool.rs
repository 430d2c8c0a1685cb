//! Wall-clock benchmarks of the circular hugeblock pool: the paper claims
//! O(1) allocation (§III-E); these benches verify the constant is small and
//! size-independent, on a fresh ring (one run) and on a fragmented one
//! (a run per block), and time the snapshot encoding of both.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use microfs::block::BlockPool;
use std::hint::black_box;

/// A `total`-block pool whose whole ring was allocated and freed back in
/// a seeded shuffled order, so no two neighbouring blocks are contiguous
/// and the ring holds about one run per block: where a long run of
/// creates and unlinks leaves it.
fn shuffled(total: u32) -> BlockPool {
    let mut pool = BlockPool::new(total);
    let mut blocks = pool.alloc_many(u64::from(total)).unwrap();
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..blocks.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        blocks.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    pool.free_many(&blocks);
    pool
}

fn bench_alloc_free_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("blockpool_alloc_free");
    g.sample_size(30);
    // O(1): the per-op cost must not grow with pool size or with the
    // number of runs in the ring.
    for &total in &[1_000u32, 100_000, 1_000_000] {
        g.bench_with_input(BenchmarkId::from_parameter(total), &total, |b, &total| {
            let mut pool = BlockPool::new(total);
            b.iter(|| {
                let blk = pool.alloc().unwrap();
                pool.free(black_box(blk));
            })
        });
    }
    g.bench_function("fragmented_100000", |b| {
        let mut pool = shuffled(100_000);
        b.iter(|| {
            let blk = pool.alloc().unwrap();
            pool.free(black_box(blk));
        })
    });
    g.finish();
}

fn bench_checkpoint_file_allocation(c: &mut Criterion) {
    // A 512 MB file at 32 KiB hugeblocks = 16384 allocations.
    c.bench_function("blockpool_alloc_512MB_file", |b| {
        let mut pool = BlockPool::new(1 << 20);
        b.iter(|| {
            let blocks = pool.alloc_many(black_box(16_384)).unwrap();
            pool.free_many(&blocks);
            black_box(blocks.len())
        })
    });
}

fn bench_snapshot_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("blockpool_encode");
    let fresh = BlockPool::new(1 << 20);
    g.bench_function("fresh_1M", |b| b.iter(|| black_box(fresh.encode()).len()));
    let ring = shuffled(100_000);
    g.bench_function("shuffled_100k", |b| {
        b.iter(|| black_box(ring.encode()).len())
    });
    g.finish();
    println!(
        "blockpool encoded bytes: fresh 1M-block pool {}, shuffled 100k ring {} \
         (one u64 per free block would be {} and {})",
        fresh.encoded_len(),
        ring.encoded_len(),
        16 + 8 * fresh.free_count(),
        16 + 8 * ring.free_count()
    );
}

criterion_group!(
    benches,
    bench_alloc_free_cycle,
    bench_checkpoint_file_allocation,
    bench_snapshot_encode
);
criterion_main!(benches);
