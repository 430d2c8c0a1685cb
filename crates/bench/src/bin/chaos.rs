//! Chaos bench: checkpoint/verify rounds under a sweep of injected
//! data-path fault rates, reporting what the reliability layer absorbed.
//!
//! For each fault rate the harness builds a fresh paper-testbed runtime
//! whose initiators, devices, and filesystems share one chaos handle,
//! arms a mixed fault plan (corrupted capsules, dropped capsules,
//! connection resets, transient shard busy) at that rate, then runs
//! checkpoint rounds across every rank and re-reads each checkpoint,
//! requiring byte-identical data. Rate 0.0 runs with the handle disarmed —
//! the no-op-hook baseline the <5% overhead acceptance bound refers to.
//!
//! Output (working directory): `BENCH_chaos.json`, one sweep entry per
//! rate with wall time, verified bytes, and the reliability counters
//! (`fabric.retries`, `fabric.timeouts`, `fabric.crc_errors`,
//! `fabric.reconnects`, `fabric.duplicates_suppressed`, `chaos.injected`).
//! The artifact is re-parsed and validated before exit, so a zero exit
//! status means the file is well-formed, every checkpoint verified, the
//! zero-rate run injected nothing, and every faulted run both injected
//! faults and retried commands. Pass `--smoke` for a smaller, CI-sized
//! run.

use std::fmt::Write as _;
use std::time::Instant;

use chaos::{ChaosHandle, FaultAction, FaultPlan, Site};
use cluster::{JobRequest, Scheduler, Topology};
use microfs::OpenFlags;
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::RuntimeConfig;
use nvmecr_bench::stamp;
use ssd::SsdConfig;
use telemetry::json::{self, Value};
use telemetry::Telemetry;

/// Counters each sweep entry reports.
const COUNTERS: [&str; 6] = [
    "chaos.injected",
    "fabric.retries",
    "fabric.timeouts",
    "fabric.crc_errors",
    "fabric.reconnects",
    "fabric.duplicates_suppressed",
];

struct SweepResult {
    rate: f64,
    wall_ms: f64,
    verified_bytes: u64,
    counters: Vec<(&'static str, u64)>,
}

fn pattern(rank: u32, round: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(37) ^ (rank * 13) ^ (round * 101)) as u8)
        .collect()
}

/// One full checkpoint/verify campaign at `rate`, on a private registry.
fn run_at_rate(rate: f64, procs: u32, rounds: u32, bytes_per_rank: usize) -> SweepResult {
    let telemetry = Telemetry::new();
    // Black-box recording: the first chaos trip of the sweep auto-dumps
    // the flight rings here, so a failed CI run has the prelude to its
    // first fault on disk for the artifact upload.
    telemetry
        .recorder()
        .set_dump_path(format!("FLIGHT_chaos_rate{rate}.jsonl"));
    let chaos = ChaosHandle::new();
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            chaos: chaos.clone(),
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched
        .submit(&JobRequest::full_subscription(procs))
        .expect("testbed fits the job");
    let config = RuntimeConfig {
        namespace_bytes: 2 << 30,
        telemetry: telemetry.clone(),
        chaos: chaos.clone(),
        ..RuntimeConfig::default()
    };
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).expect("init");
    if rate > 0.0 {
        // A mixed storm: the four transient fault kinds the reliability
        // layer must absorb, each at the sweep rate.
        chaos.arm(
            FaultPlan::new(0xC4A0_5EED)
                .with_rate(Site::CapsuleTx, FaultAction::CorruptPayload, rate)
                .with_rate(Site::CapsuleTx, FaultAction::DropCapsule, rate)
                .with_rate(Site::CapsuleRx, FaultAction::CorruptPayload, rate)
                .with_rate(Site::ConnReset, FaultAction::ResetConnection, rate)
                .with_rate(Site::ShardIo, FaultAction::ShardBusy, rate),
            &telemetry,
        );
    }
    let start = Instant::now();
    let mut verified = 0u64;
    for round in 0..rounds {
        for rank in 0..procs {
            let data = pattern(rank, round, bytes_per_rank);
            let name = format!("/ckpt_{round}.dat");
            let fs = rt.rank_fs(rank).expect("rank mounted");
            let fd = fs.create(&name, 0o644).expect("create");
            fs.write(fd, &data).expect("write");
            fs.close(fd).expect("close");
        }
        for rank in 0..procs {
            let expect = pattern(rank, round, bytes_per_rank);
            let name = format!("/ckpt_{round}.dat");
            let fs = rt.rank_fs(rank).expect("rank mounted");
            let fd = fs.open(&name, OpenFlags::RDONLY, 0).expect("open");
            let mut buf = vec![0u8; bytes_per_rank];
            let mut got = 0;
            while got < buf.len() {
                let n = fs.read(fd, &mut buf[got..]).expect("read");
                if n == 0 {
                    break;
                }
                got += n;
            }
            fs.close(fd).expect("close");
            assert_eq!(got, bytes_per_rank, "rank {rank} short read at rate {rate}");
            assert_eq!(
                buf, expect,
                "rank {rank} round {round} not byte-identical at rate {rate}"
            );
            verified += got as u64;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    chaos.disarm();
    let snap = telemetry.snapshot();
    SweepResult {
        rate,
        wall_ms,
        verified_bytes: verified,
        counters: COUNTERS.iter().map(|&c| (c, snap.counter(c))).collect(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --seeded [path]: run the deterministic shard-kill scenario instead
    // of the rate sweep, leaving a flight-recorder dump for
    // `nvmecr-doctor` (default path FLIGHT_SEEDED.jsonl).
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--seeded") {
        let path = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("FLIGHT_SEEDED.jsonl");
        let outcome = nvmecr_bench::scenario::run_seeded(std::path::Path::new(path))?;
        println!(
            "seeded shard-kill: rank {} faulted after {} armed round(s), \
             rolled back to epoch {}, {} recorder trip(s)",
            outcome.faulted_rank, outcome.rounds, outcome.rollback_epoch, outcome.trips
        );
        println!("wrote {}", outcome.dump_path.display());
        return Ok(());
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (procs, rounds, bytes_per_rank): (u32, u32, usize) = if smoke {
        (8, 2, 128 << 10)
    } else {
        (16, 3, 1 << 20)
    };
    let rates: &[f64] = if smoke {
        &[0.0, 0.01]
    } else {
        &[0.0, 0.001, 0.01, 0.05]
    };

    let results: Vec<SweepResult> = rates
        .iter()
        .map(|&r| run_at_rate(r, procs, rounds, bytes_per_rank))
        .collect();

    // --- BENCH_chaos.json
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"chaos\",\n");
    out.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: nvmecr::RuntimeConfig::default().fabric.queue_depth,
        ranks: procs,
        replication_factor: 1,
        delta_chain_max: 0,
        mode: "reactor",
        reactors: 0,
    }));
    let _ = writeln!(
        out,
        "  \"config\": {{\"procs\": {procs}, \"rounds\": {rounds}, \
         \"bytes_per_rank\": {bytes_per_rank}, \"smoke\": {smoke}}},"
    );
    out.push_str("  \"sweeps\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rate\": {}, \"wall_ms\": {:.2}, \"verified_bytes\": {}",
            r.rate, r.wall_ms, r.verified_bytes
        );
        for (name, v) in &r.counters {
            let _ = write!(out, ", \"{name}\": {v}");
        }
        let end = if i + 1 == results.len() { "}" } else { "}," };
        let _ = writeln!(out, "{end}");
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_chaos.json", &out)?;

    // --- Validate the artifact (the CI smoke gate).
    let parsed = json::parse(&out).map_err(|e| format!("BENCH_chaos.json: {e}"))?;
    let sweeps = parsed
        .get("sweeps")
        .and_then(Value::as_arr)
        .ok_or("BENCH_chaos.json: no sweeps array")?;
    if sweeps.len() != rates.len() {
        return Err(format!("expected {} sweeps, got {}", rates.len(), sweeps.len()).into());
    }
    let expected_bytes = u64::from(procs) * u64::from(rounds) * bytes_per_rank as u64;
    for s in sweeps {
        let get = |k: &str| s.get(k).and_then(Value::as_num);
        let rate = get("rate").ok_or("sweep lacks rate")?;
        let injected = get("chaos.injected").ok_or("sweep lacks chaos.injected")? as u64;
        let retries = get("fabric.retries").ok_or("sweep lacks fabric.retries")? as u64;
        let verified = get("verified_bytes").ok_or("sweep lacks verified_bytes")? as u64;
        if verified != expected_bytes {
            return Err(format!(
                "rate {rate}: verified {verified} bytes, expected {expected_bytes}"
            )
            .into());
        }
        if rate == 0.0 && injected != 0 {
            return Err(format!("zero-fault run injected {injected} faults").into());
        }
        if rate > 0.0 && (injected == 0 || retries == 0) {
            return Err(format!(
                "rate {rate}: injected={injected} retries={retries}; the plan never fired"
            )
            .into());
        }
    }

    for r in &results {
        let ctrs: String = r
            .counters
            .iter()
            .map(|(n, v)| format!("{}={v}", n.rsplit('.').next().unwrap_or(n)))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "rate={:<6} wall_ms={:>8.1} verified={}B {ctrs}",
            r.rate, r.wall_ms, r.verified_bytes
        );
    }
    println!("wrote BENCH_chaos.json");
    Ok(())
}
