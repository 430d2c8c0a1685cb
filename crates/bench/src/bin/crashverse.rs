//! Crash-universe smoke: enumerate every durability op in the standard
//! incremental-checkpoint workload, crash at each index, and verify the
//! recovery invariants (`BENCH_crashverse.json`).
//!
//! Four modes:
//!
//! * **explore** (default / `--smoke`): size the universe with a clean
//!   counting run, execute every crash point (`--smoke` caps the scan at
//!   2000 points and dumps `FLIGHT_crashverse_*.jsonl` counterexamples
//!   into the working directory), and gate on *zero* invariant
//!   violations across a universe of at least 500 ops.
//! * **replay** (`--crash-at K`): re-execute exactly one crash point —
//!   the command line a failing explore prints, pinning `(seed, op
//!   index, config fingerprint)`.
//! * **nested explore** (`--nested [--smoke]`): sample a `(k, j)` grid —
//!   outer crash at durability op `k`, then a second kill at recovery op
//!   `j` inside the *first* recovery attempt — and require the
//!   supervisor's second attempt to restore every invariant at every
//!   point (`BENCH_crashverse_nested.json`). Also forces one full
//!   quarantine → degraded-serve → rejoin cycle and gates on it.
//! * **nested replay** (`--nested --crash-at K --crash-in-recovery J`):
//!   one pinned nested point, full verdict on stdout.
//!
//! Every verdict is deterministic: same seed and workload shape, same
//! universe size, same per-point outcome.

use std::fmt::Write as _;
use std::path::PathBuf;

use chaos::{Plane, Site, SITES};
use crashverse::{explore, quarantine_cycle, run_nested_point, run_point, UniverseConfig};
use nvmecr_bench::stamp;
use telemetry::Telemetry;

/// Explore must cover at least this many crash points (acceptance
/// criterion: the default workload's universe is well past it).
const MIN_UNIVERSE: u64 = 500;
/// `--smoke` bound on executed points.
const SMOKE_MAX_POINTS: u64 = 2000;
/// Nested explore must execute at least this many `(k, j)` grid points.
const NESTED_MIN_POINTS: u64 = 200;
/// Outer crash indices sampled into the nested grid.
const NESTED_OUTER_POINTS: u64 = 25;
/// Nested recovery indices sampled per outer index.
const NESTED_PER_OUTER: u64 = 10;

/// `(name, ops)` for every site of `plane`, in table order.
fn census(per_site: &[u64; SITES], plane: Plane) -> Vec<(&'static str, u64)> {
    Site::in_plane(plane)
        .map(|s| (s.name(), per_site[s as usize]))
        .collect()
}

/// The census as the body of a JSON object.
fn census_json(census: &[(&str, u64)]) -> String {
    census
        .iter()
        .map(|(name, ops)| format!("\"{name}\": {ops}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_u64(flag: &str, v: Option<String>) -> Result<u64, String> {
    v.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = UniverseConfig::default();
    let mut crash_at: Option<u64> = None;
    let mut crash_in_recovery: Option<u64> = None;
    let mut nested = false;
    let mut smoke = false;
    let mut outer_points = NESTED_OUTER_POINTS;
    let mut nested_per_outer = NESTED_PER_OUTER;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--nested" => nested = true,
            "--seed" => cfg.seed = parse_u64("--seed", args.next())?,
            "--ranks" => cfg.ranks = parse_u64("--ranks", args.next())? as u32,
            "--epochs" => cfg.epochs = parse_u64("--epochs", args.next())? as u32,
            "--files" => cfg.files_per_epoch = parse_u64("--files", args.next())? as u32,
            "--write-kib" => cfg.write_kib = parse_u64("--write-kib", args.next())?,
            "--max-points" => cfg.max_points = Some(parse_u64("--max-points", args.next())?),
            "--crash-at" => crash_at = Some(parse_u64("--crash-at", args.next())?),
            "--crash-in-recovery" => {
                crash_in_recovery = Some(parse_u64("--crash-in-recovery", args.next())?);
            }
            "--outer-points" => outer_points = parse_u64("--outer-points", args.next())?,
            "--nested-per-outer" => {
                nested_per_outer = parse_u64("--nested-per-outer", args.next())?;
            }
            "--dump-dir" => {
                cfg.dump_dir = Some(PathBuf::from(
                    args.next().ok_or("--dump-dir needs a value")?,
                ));
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if smoke {
        cfg.max_points.get_or_insert(SMOKE_MAX_POINTS);
        cfg.dump_dir.get_or_insert_with(|| PathBuf::from("."));
    }

    if nested {
        return run_nested(
            &cfg,
            crash_at,
            crash_in_recovery,
            outer_points,
            nested_per_outer,
        );
    }

    if let Some(k) = crash_at {
        // Replay mode: one pinned crash point, full verdict on stdout.
        let v = run_point(&cfg, k);
        println!(
            "crash-at {k}: fired={:?} kind={} passed={}",
            v.fired,
            v.fired_kind.unwrap_or("-"),
            v.passed
        );
        if let Some(why) = &v.violation {
            println!("violation: {why}");
            if let Some(d) = &v.dump {
                println!("counterexample: {}", d.display());
            }
            println!("replay: {}", cfg.replay_command(k));
            return Err(format!("crash point {k} violated invariants").into());
        }
        return Ok(());
    }

    let telemetry = Telemetry::new();
    let report = explore(&cfg, &telemetry)?;

    println!(
        "universe: {} ops ({} points run, {} shrink steps), fingerprint {:#018x}",
        report.total_ops, report.points_run, report.shrink_steps, report.fingerprint
    );
    let kinds = census(&report.per_site, Plane::Durability);
    println!("{:>15}  {:>8}", "op kind", "ops");
    for (name, ops) in &kinds {
        println!("{name:>15}  {ops:>8}");
    }
    for f in &report.failures {
        println!(
            "FAIL op {} ({}): {}",
            f.op_index,
            f.fired_kind.unwrap_or("-"),
            f.violation
        );
        if let Some(d) = &f.dump {
            println!("  counterexample: {}", d.display());
        }
        println!("  replay: {}", f.replay);
    }

    let snap = telemetry.snapshot();
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"bench\": \"crashverse\",");
    json.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: 32,
        ranks: cfg.ranks,
        replication_factor: 2,
        delta_chain_max: 4,
        mode: "reactor",
        reactors: 0,
    }));
    let _ = writeln!(json, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(
        json,
        "  \"config_fingerprint\": \"{:#018x}\",",
        report.fingerprint
    );
    let _ = writeln!(json, "  \"total_ops\": {},", report.total_ops);
    let _ = writeln!(json, "  \"points\": {},", snap.counter("crashverse.points"));
    let _ = writeln!(
        json,
        "  \"failures\": {},",
        snap.counter("crashverse.failures")
    );
    let _ = writeln!(
        json,
        "  \"shrink_steps\": {},",
        snap.counter("crashverse.shrink_steps")
    );
    let _ = writeln!(json, "  \"per_kind\": {{{}}},", census_json(&kinds));
    let _ = writeln!(
        json,
        "  \"gate\": {{\"min_universe\": {MIN_UNIVERSE}, \"all_points_pass\": true}}\n}}"
    );
    std::fs::write("BENCH_crashverse.json", &json)?;
    println!("wrote BENCH_crashverse.json");

    // Self-validation gates.
    if report.total_ops < MIN_UNIVERSE {
        return Err(format!(
            "crash universe has only {} ops (< {MIN_UNIVERSE}); workload too small",
            report.total_ops
        )
        .into());
    }
    if !report.failures.is_empty() {
        return Err(format!(
            "{} crash point(s) violated recovery invariants",
            report.failures.len()
        )
        .into());
    }
    Ok(())
}

/// Nested modes: one pinned `(k, j)` replay, or the sampled grid plus
/// the forced quarantine cycle (`BENCH_crashverse_nested.json`).
fn run_nested(
    cfg: &UniverseConfig,
    crash_at: Option<u64>,
    crash_in_recovery: Option<u64>,
    outer_points: u64,
    nested_per_outer: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    if let (Some(k), Some(j)) = (crash_at, crash_in_recovery) {
        let v = run_nested_point(cfg, k, j);
        println!(
            "crash-at {k} crash-in-recovery {j}: outer_fired={:?} nested_fired={:?} \
             kind={} restarts={} passed={}",
            v.outer_fired,
            v.nested_fired,
            v.nested_kind.unwrap_or("-"),
            v.restarts,
            v.passed
        );
        if let Some(why) = &v.violation {
            println!("violation: {why}");
            if let Some(d) = &v.dump {
                println!("counterexample: {}", d.display());
            }
            println!("replay: {}", cfg.replay_nested_command(k, j));
            return Err(format!("nested crash point ({k}, {j}) violated invariants").into());
        }
        return Ok(());
    }
    if crash_at.is_some() != crash_in_recovery.is_some() {
        return Err("nested replay needs both --crash-at and --crash-in-recovery".into());
    }

    let telemetry = Telemetry::new();
    let report = crashverse::explore_nested(cfg, outer_points, nested_per_outer, &telemetry)?;
    println!(
        "nested grid: {} outer points over {} ops, {} (k, j) points run \
         ({} double-fired, {} supervisor restarts), fingerprint {:#018x}",
        report.outer_points,
        report.outer_total,
        report.points_run,
        report.double_fired,
        report.restarts,
        report.fingerprint
    );
    let kinds = census(&report.per_site, Plane::Recovery);
    println!("{:>18}  {:>8}", "recovery op kind", "ops");
    for (name, ops) in &kinds {
        println!("{name:>18}  {ops:>8}");
    }
    for f in &report.failures {
        println!(
            "FAIL ({}, {}) ({}): {}",
            f.outer,
            f.nested,
            f.nested_kind.unwrap_or("-"),
            f.violation
        );
        if let Some(d) = &f.dump {
            println!("  counterexample: {}", d.display());
        }
        println!("  replay: {}", f.replay);
    }

    let cycle = quarantine_cycle(cfg).map_err(|e| format!("quarantine cycle: {e}"))?;
    println!(
        "quarantine cycle: {} rank(s) parked, {} degraded reads served, {} rejoined",
        cycle.quarantined, cycle.degraded_reads, cycle.rejoined
    );

    let snap = telemetry.snapshot();
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"bench\": \"crashverse_nested\",");
    json.push_str(&stamp::meta_line(&stamp::Fingerprint {
        queue_depth: 32,
        ranks: cfg.ranks,
        replication_factor: 2,
        delta_chain_max: 4,
        mode: "reactor",
        reactors: 0,
    }));
    let _ = writeln!(json, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(
        json,
        "  \"config_fingerprint\": \"{:#018x}\",",
        report.fingerprint
    );
    let _ = writeln!(json, "  \"outer_total\": {},", report.outer_total);
    let _ = writeln!(json, "  \"outer_points\": {},", report.outer_points);
    let _ = writeln!(
        json,
        "  \"points\": {},",
        snap.counter("crashverse.nested_points")
    );
    let _ = writeln!(json, "  \"double_fired\": {},", report.double_fired);
    let _ = writeln!(
        json,
        "  \"failures\": {},",
        snap.counter("crashverse.nested_failures")
    );
    let _ = writeln!(
        json,
        "  \"restarts\": {},",
        snap.counter("crashverse.nested_restarts")
    );
    let _ = writeln!(json, "  \"per_kind\": {{{}}},", census_json(&kinds));
    let _ = writeln!(
        json,
        "  \"quarantine_cycle\": {{\"quarantined\": {}, \"degraded_reads\": {}, \
         \"rejoined\": {}}},",
        cycle.quarantined, cycle.degraded_reads, cycle.rejoined
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"min_points\": {NESTED_MIN_POINTS}, \"all_points_pass\": true}}\n}}"
    );
    std::fs::write("BENCH_crashverse_nested.json", &json)?;
    println!("wrote BENCH_crashverse_nested.json");

    // Self-validation gates.
    if report.points_run < NESTED_MIN_POINTS {
        return Err(format!(
            "nested grid ran only {} points (< {NESTED_MIN_POINTS}); widen the sample",
            report.points_run
        )
        .into());
    }
    if report.double_fired < NESTED_MIN_POINTS {
        return Err(format!(
            "only {} grid points fired both crashes (< {NESTED_MIN_POINTS})",
            report.double_fired
        )
        .into());
    }
    if !report.failures.is_empty() {
        return Err(format!(
            "{} nested crash point(s) violated recovery invariants",
            report.failures.len()
        )
        .into());
    }
    if cycle.quarantined == 0 || cycle.rejoined != cycle.quarantined {
        return Err(format!(
            "quarantine cycle incomplete: {} parked, {} rejoined",
            cycle.quarantined, cycle.rejoined
        )
        .into());
    }
    Ok(())
}
