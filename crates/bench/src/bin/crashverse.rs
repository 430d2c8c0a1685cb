//! Crash-universe smoke: crash the standard incremental-checkpoint
//! workload at its durability ops — and, nested, kill the first recovery
//! attempt at its recovery ops — and verify the recovery invariants after
//! every crash point (`BENCH_crashverse.json`,
//! `BENCH_crashverse_nested.json`).
//!
//! Two modes:
//!
//! * **explore** (default): size the universe with a clean counting run
//!   and run the grid. Every sampled outer index `k` heads a column with
//!   its single-crash point `(k, none)`; `--nested` adds up to
//!   `--nested-per-outer` (10) points `(k, j)` per column, each killing
//!   the first recovery attempt at recovery op `j` so the supervisor's
//!   second attempt must restore every invariant. `--max-points` caps the
//!   outer indices (`--nested` defaults it to 25, `--smoke` to 2000);
//!   `--smoke` also dumps `FLIGHT_crashverse_*.jsonl` counterexamples into
//!   the working directory. Every explore also forces one quarantine →
//!   degraded-serve → rejoin cycle. The gates: zero invariant violations,
//!   a universe of at least 500 ops, a complete quarantine cycle and, for
//!   a nested grid, at least 200 points that fire both crashes.
//! * **replay** (`--crash-at K [--crash-in-recovery J]`): re-execute
//!   exactly one crash point — the command line a failing explore prints,
//!   pinning `(seed, crash indices, config fingerprint)` — with the full
//!   verdict on stdout.
//!
//! Every verdict is deterministic: same seed and workload shape, same
//! universe size, same per-point outcome.

use std::fmt::Write as _;
use std::path::PathBuf;

use chaos::{Plane, Site, SITES};
use crashverse::{explore, quarantine_cycle, run_point, UniverseConfig};
use nvmecr_bench::stamp;
use telemetry::Telemetry;

/// Explore must cover at least this many crash points (acceptance
/// criterion: the default workload's universe is well past it).
const MIN_UNIVERSE: u64 = 500;
/// `--smoke` bound on executed outer points.
const SMOKE_MAX_POINTS: u64 = 2000;
/// A nested grid must execute at least this many `(k, j)` points.
const NESTED_MIN_POINTS: u64 = 200;
/// Outer crash indices sampled into a nested grid by default.
const NESTED_OUTER_POINTS: u64 = 25;
/// Recovery crash indices sampled per outer index by `--nested`.
const NESTED_PER_OUTER: u64 = 10;

/// `(name, ops)` for every site of `plane`, in table order.
fn census(per_site: &[u64; SITES], plane: Plane) -> Vec<(&'static str, u64)> {
    Site::in_plane(plane)
        .map(|s| (s.name(), per_site[s as usize]))
        .collect()
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
    if nested {
        cfg.recovery_points = nested_per_outer;
        cfg.max_points.get_or_insert(NESTED_OUTER_POINTS);
    }
    if smoke {
        cfg.max_points.get_or_insert(SMOKE_MAX_POINTS);
        cfg.dump_dir.get_or_insert_with(|| PathBuf::from("."));
    }

    match (crash_at, crash_in_recovery) {
        (Some(k), j) => replay(&cfg, k, j),
        (None, Some(_)) => Err("--crash-in-recovery needs --crash-at".into()),
        (None, None) => run_explore(&cfg),
    }
}

/// Replay mode: one pinned crash point, full verdict on stdout.
fn replay(cfg: &UniverseConfig, k: u64, j: Option<u64>) -> Result<(), Box<dyn std::error::Error>> {
    let v = run_point(cfg, k, j);
    let point = match j {
        Some(j) => format!("crash-at {k} crash-in-recovery {j}"),
        None => format!("crash-at {k}"),
    };
    let at = |fired: Option<(Site, u64)>| fired.map(|(_, n)| n);
    println!(
        "{point}: outer_fired={:?} nested_fired={:?} kind={} restarts={} passed={}",
        at(v.outer_fired),
        at(v.recovery.fired),
        v.fired().map_or("-", |(site, _)| site.name()),
        v.restarts,
        v.passed()
    );
    if let Some(why) = &v.violation {
        println!("violation: {why}");
        if let Some(d) = &v.dump {
            println!("counterexample: {}", d.display());
        }
        println!("replay: {}", cfg.replay_command(k, j));
        return Err(format!("{point} violated invariants").into());
    }
    Ok(())
}

/// Explore mode: the grid plus the forced quarantine cycle, one report
/// for either grid shape.
fn run_explore(cfg: &UniverseConfig) -> Result<(), Box<dyn std::error::Error>> {
    let telemetry = Telemetry::new();
    let report = explore(cfg, &telemetry)?;
    // A nested grid crashes recovery ops, a single-crash one durability
    // ops: the census reported is the one of the plane its points crash.
    let (bench, min_points, kinds) = if cfg.recovery_points > 0 {
        let kinds = census(&report.recovery_per_site, Plane::Recovery);
        ("crashverse_nested", NESTED_MIN_POINTS, kinds)
    } else {
        ("crashverse", 0, census(&report.per_site, Plane::Durability))
    };
    println!(
        "universe: {} ops, {} outer points, {} points run ({} double-fired, \
         {} supervisor restarts, {} shrink steps), fingerprint {:#018x}",
        report.total_ops,
        report.outer_points,
        report.points_run,
        report.double_fired,
        report.restarts,
        report.shrink_steps,
        report.fingerprint
    );
    println!("{:>18}  {:>8}", "op kind", "ops");
    for (name, ops) in &kinds {
        println!("{name:>18}  {ops:>8}");
    }
    for f in &report.failures {
        let v = &f.verdict;
        println!(
            "FAIL ({}, {:?}) ({}): {}",
            v.outer,
            v.nested,
            v.fired().map_or("-", |(site, _)| site.name()),
            v.violation.as_deref().unwrap_or("invariant violation")
        );
        if let Some(d) = &v.dump {
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
    let _ = writeln!(json, "{{\n  \"bench\": \"{bench}\",");
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
    let counter = |name: &str| snap.counter(&format!("crashverse.{name}"));
    for (key, value) in [
        ("total_ops", report.total_ops),
        ("outer_total", report.total_ops),
        ("outer_points", report.outer_points),
        ("points", counter("points")),
        ("double_fired", report.double_fired),
        ("failures", counter("failures")),
        ("restarts", counter("restarts")),
        ("shrink_steps", counter("shrink_steps")),
    ] {
        let _ = writeln!(json, "  \"{key}\": {value},");
    }
    let kinds_json: Vec<String> = kinds
        .iter()
        .map(|(name, ops)| format!("\"{name}\": {ops}"))
        .collect();
    let _ = writeln!(json, "  \"per_kind\": {{{}}},", kinds_json.join(", "));
    let _ = writeln!(
        json,
        "  \"quarantine_cycle\": {{\"quarantined\": {}, \"degraded_reads\": {}, \
         \"rejoined\": {}}},",
        cycle.quarantined, cycle.degraded_reads, cycle.rejoined
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"min_universe\": {MIN_UNIVERSE}, \"min_points\": {min_points}, \
         \"all_points_pass\": true}}\n}}"
    );
    let file = format!("BENCH_{bench}.json");
    std::fs::write(&file, &json)?;
    println!("wrote {file}");

    // Self-validation gates.
    if report.total_ops < MIN_UNIVERSE {
        return Err(format!(
            "crash universe has only {} ops (< {MIN_UNIVERSE}); workload too small",
            report.total_ops
        )
        .into());
    }
    if report.points_run.min(report.double_fired) < min_points {
        return Err(format!(
            "{} grid points ran and {} fired both crashes (< {min_points}); widen the sample",
            report.points_run, report.double_fired
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
    if cycle.quarantined == 0 || cycle.rejoined != cycle.quarantined {
        return Err(format!(
            "quarantine cycle incomplete: {} parked, {} rejoined",
            cycle.quarantined, cycle.rejoined
        )
        .into());
    }
    Ok(())
}
