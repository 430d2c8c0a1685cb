//! Incremental checkpointing bench: what extent-level copy-on-write delta
//! epochs buy over full-image rewrites (`BENCH_incremental.json`).
//!
//! Two identical runs (28 ranks, QD=32, one in-place image file per
//! rank, 10% of the image dirtied per round, real bytes through microfs →
//! NVMf → SSD shards, `replication_factor=2` with an epoch sealed every
//! round) differing only in how each rank decides what to write:
//!
//! * **full_rewrite** — the N-N baseline: the whole image, every round,
//!   full manifests (`delta_chain_max=0`);
//! * **cow_tracked** — the application tracks its dirty chunks as it
//!   mutates them (no scan) and writes exactly those, while the mirror
//!   seals sparse `parent_epoch`-linked delta manifests and compacts
//!   every `delta_chain_max` epochs.
//!
//! The reported number is steady-state device write bytes (rounds 1..,
//! measured at the SSDs so WAL, manifest, and mirror traffic all count).
//! Self-validation gates: **cow_tracked reduces device write bytes ≥5x**
//! versus full_rewrite at 10% dirty (≥3x under `--smoke`), every run's
//! final image verifies byte-identical, and the cow run additionally
//! kills rank 0's primary shard after the last round and byte-verifies
//! the restore materialized through a ≥3-epoch delta chain.

use std::fmt::Write as _;

use nvmecr::RuntimeConfig;
use nvmecr_bench::stamp;

use workloads::{
    run_incremental_checkpoints, IncrementalRunReport, IncrementalSpec, IncrementalStrategy,
};

const ROUNDS: u32 = 5;
const RANKS: u32 = 28;
const QD: usize = 32;
const BLOCK: u64 = 4 << 10;
const BYTES_PER_RANK: u64 = 4 << 20;
const DIRTY_PERMILLE: u32 = 100;
const DELTA_CHAIN_MAX: u32 = 4;
const SMOKE_RANKS: u32 = 8;
const SMOKE_BYTES_PER_RANK: u64 = 1 << 20;

struct StrategyRun {
    strategy: IncrementalStrategy,
    report: IncrementalRunReport,
}

fn run_strategy(
    strategy: IncrementalStrategy,
    ranks: u32,
    bytes_per_rank: u64,
    namespace_bytes: u64,
) -> Result<StrategyRun, Box<dyn std::error::Error>> {
    // Only the cow run chains deltas (and proves failover through them);
    // the baseline rewrites the image on the standard full-manifest path.
    let cow = strategy == IncrementalStrategy::CowTracked;
    let mut config = RuntimeConfig {
        namespace_bytes,
        block_size: BLOCK,
        replication_factor: 2,
        delta_chain_max: if cow { DELTA_CHAIN_MAX } else { 0 },
        ..RuntimeConfig::default()
    };
    config.fabric.queue_depth = QD;
    let spec = IncrementalSpec {
        strategy,
        procs: ranks,
        rounds: ROUNDS,
        bytes_per_rank,
        dirty_permille: DIRTY_PERMILLE,
        config,
        fail_over: cow,
    };
    let report = run_incremental_checkpoints(&spec)?;
    Ok(StrategyRun { strategy, report })
}

fn strategy_json(run: &StrategyRun) -> String {
    let r = &run.report;
    let snap = &r.telemetry;
    let ckpt = snap.histogram("driver.incremental_ckpt_ns");
    let (p50, p99) = ckpt
        .map(|h| (h.percentile(50.0), h.percentile(99.0)))
        .unwrap_or_default();
    format!(
        "{{\"first_round_device_bytes\": {}, \"steady_device_bytes\": {}, \
         \"steady_app_bytes\": {}, \"bytes_verified\": {}, \"failover_verified\": {}, \
         \"ckpt_ns\": {{\"p50\": {p50}, \"p99\": {p99}}}, \
         \"cow\": {{\"delta_extents\": {}, \"copy_up_bytes\": {}, \"chain_len_peak\": {}, \
         \"compactions\": {}}}}}",
        r.first_round_device_bytes,
        r.steady_device_bytes,
        r.steady_app_bytes,
        r.bytes_verified,
        r.failover_verified,
        snap.counter("cow.delta_extents"),
        snap.counter("cow.copy_up_bytes"),
        snap.gauge("cow.chain_len").peak,
        snap.histogram("cow.compaction_ns")
            .map(|h| h.count)
            .unwrap_or(0),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut smoke = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    let (ranks, bytes_per_rank, namespace_bytes) = if smoke {
        (SMOKE_RANKS, SMOKE_BYTES_PER_RANK, 256u64 << 20)
    } else {
        (RANKS, BYTES_PER_RANK, 2u64 << 30)
    };
    let gate = if smoke { 3.0 } else { 5.0 };

    let runs: Vec<StrategyRun> = [
        IncrementalStrategy::FullRewrite,
        IncrementalStrategy::CowTracked,
    ]
    .into_iter()
    .map(|s| run_strategy(s, ranks, bytes_per_rank, namespace_bytes))
    .collect::<Result<_, _>>()?;
    let full = &runs[0].report;

    println!(
        "{:>13}  {:>16}  {:>15}  {:>9}  {:>8}",
        "strategy", "steady dev bytes", "steady app bytes", "reduction", "failover"
    );
    for run in &runs {
        let r = &run.report;
        println!(
            "{:>13}  {:>16}  {:>15}  {:>8.2}x  {:>8}",
            run.strategy.label(),
            r.steady_device_bytes,
            r.steady_app_bytes,
            full.steady_device_bytes as f64 / r.steady_device_bytes as f64,
            if r.failover_verified { "ok" } else { "-" },
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"incremental\",\n");
    json.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: QD,
        ranks,
        replication_factor: 2,
        delta_chain_max: DELTA_CHAIN_MAX,
        mode: "reactor",
        reactors: 0,
    }));
    json.push_str(
        "  \"unit\": \"device write bytes (steady-state rounds, measured at the SSDs)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"ranks\": {ranks}, \"qd\": {QD}, \"block_size\": {BLOCK}, \
         \"bytes_per_rank\": {bytes_per_rank}, \"rounds\": {ROUNDS}, \
         \"dirty_permille\": {DIRTY_PERMILLE}, \"replication_factor\": 2, \
         \"delta_chain_max\": {DELTA_CHAIN_MAX}}},"
    );
    for run in &runs {
        let _ = writeln!(
            json,
            "  \"{}\": {},",
            run.strategy.label(),
            strategy_json(run)
        );
    }
    let cow = &runs[1].report;
    let reduction = full.steady_device_bytes as f64 / cow.steady_device_bytes as f64;
    let _ = writeln!(
        json,
        "  \"reduction\": {{\"cow_vs_full\": {reduction:.3}, \"gate\": {gate}}}\n}}"
    );
    std::fs::write("BENCH_incremental.json", &json)?;
    println!("wrote BENCH_incremental.json");

    // Self-validation gates.
    if reduction < gate {
        return Err(format!(
            "cow_tracked reduced steady write bytes only {reduction:.2}x (< {gate}x) at 10% dirty"
        )
        .into());
    }
    for run in &runs {
        if run.report.bytes_verified != u64::from(ranks) * bytes_per_rank {
            return Err(format!("{} verified too few bytes", run.strategy.label()).into());
        }
    }
    if !cow.failover_verified {
        return Err("cow run did not verify the post-failover restore".into());
    }
    if cow.telemetry.gauge("cow.chain_len").peak < i64::from(DELTA_CHAIN_MAX.min(ROUNDS - 1)) {
        return Err(format!(
            "restore chain never grew to {} epochs (peak {})",
            DELTA_CHAIN_MAX.min(ROUNDS - 1),
            cow.telemetry.gauge("cow.chain_len").peak
        )
        .into());
    }
    if cow.telemetry.counter("cow.delta_extents") == 0 {
        return Err("cow run sealed no delta manifests".into());
    }
    if cow.telemetry.counter("replication.degraded_restores") != 1 {
        return Err("expected exactly one degraded (manifest-chain) restore".into());
    }
    Ok(())
}
