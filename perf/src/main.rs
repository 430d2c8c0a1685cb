//! `nvmecr-perf` — wall-clock checkpoint/restart benchmark of the NVMe-CR
//! stack, with a per-layer ladder, beside the modeled device-time numbers.
//! See `README.md` in this directory.

mod gen;
mod job;
mod ladder;
mod model;
mod report;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use job::{Inputs, JobSample};
use report::{Domain, END_TO_END};
use workload::{ScriptOutcome, Spec};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u32 = 25;

const USAGE: &str = "usage: nvmecr-perf [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--aa] [--emit-benchmark-json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    emit_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        emit_benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                // One run must end within the driver's 180 s.
                if !(0.0..=120.0).contains(&s) {
                    return Err("--seconds must be between 0 and 120".into());
                }
                a.seconds = Some(s);
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                Some(other) if !other.starts_with("--") => {
                    return Err(format!("--trace takes 0 or 1, not {other}"));
                }
                _ => a.trace = true,
            },
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            "--emit-benchmark-json" => a.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// What one run of one workload came to.
struct RunResult {
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
    outcome: ScriptOutcome,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.outcome.failed == 0
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |m| m.1)
    }

    fn print_result_line(&self) {
        println!(
            "{}",
            report::result_json(
                self.correct(),
                self.outcome.attempted.max(1),
                self.outcome.failed,
                &self.metrics
            )
        );
    }
}

/// A run counts as leaking when a job's peak resident memory exceeds the
/// previous job's by more than [`RSS_GROWTH`] this many jobs in a row.
/// One such step proves nothing here: identical jobs, with everything
/// dropped in between, peak up to 2.6x higher than the first once glibc's
/// heap holds the fragments of earlier jobs, in steps of up to +26% that
/// come at no fixed job (three in a row at most, then flat). A job that
/// leaks its state grows the peak every time.
const RSS_GROWTH_STREAK: usize = 5;
const RSS_GROWTH: f64 = 0.05;

/// The jobs of one run, and the process's `VmHWM` right after the first:
/// the peak footprint of one job on a fresh heap, which is what a real
/// one-job process has. Later jobs add allocator history (the same job
/// peaks 10–20% higher or lower from run to run), not stack memory.
struct Jobs {
    samples: Vec<JobSample>,
    first_job_peak_rss_mib: f64,
}

/// Run jobs for `seconds` (at least `min_jobs`), handing each job's index
/// to `run`; checks after every job that the deterministic counters
/// repeat and, with `guard_rss`, that resident memory is not growing job
/// after job (a traced run keeps its spans, so only measured runs are
/// guarded).
fn run_jobs(
    seconds: f64,
    min_jobs: usize,
    guard_rss: bool,
    outcome: &mut ScriptOutcome,
    mut run: impl FnMut(u32) -> Result<JobSample, String>,
) -> Result<Jobs, String> {
    let started = Instant::now();
    let mut jobs: Vec<JobSample> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut growth_streak = 0;
    let mut first_job_peak_rss_mib = 0.0;
    while jobs.len() < min_jobs || started.elapsed().as_secs_f64() < seconds {
        let sample = run(jobs.len() as u32)?;
        outcome.absorb(sample.outcome.clone());
        if let Some(first) = jobs.first() {
            outcome.ensure(
                "exact counters repeat job over job",
                sample.exact == first.exact,
                || format!("{:?} != {:?}", sample.exact, first.exact),
            );
        }
        // Steady-state guard: a leak across jobs would bring back the
        // fresh-page slowdown and skew the rates.
        if let (Some(prev), true) = (peaks.last(), guard_rss) {
            if sample.peak_rss_mib > prev * (1.0 + RSS_GROWTH) {
                growth_streak += 1;
            } else {
                growth_streak = 0;
            }
            outcome.ensure(
                "resident memory not growing job after job",
                growth_streak < RSS_GROWTH_STREAK,
                || {
                    format!(
                        "peak grew more than {:.0}% in each of the last {growth_streak} jobs, to {:.0} MiB",
                        RSS_GROWTH * 100.0,
                        sample.peak_rss_mib
                    )
                },
            );
        }
        if jobs.is_empty() {
            first_job_peak_rss_mib = sys::peak_rss_mib();
        }
        peaks.push(sample.peak_rss_mib);
        jobs.push(sample);
    }
    Ok(Jobs {
        samples: jobs,
        first_job_peak_rss_mib,
    })
}

/// The measured run: untraced jobs for `seconds`, end-to-end metrics.
fn measured_run(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = Inputs::new(spec.clone(), seed);
    let mut outcome = ScriptOutcome::default();
    let Jobs {
        samples: jobs,
        first_job_peak_rss_mib,
    } = run_jobs(seconds, 1, true, &mut outcome, |j| {
        job::run_job(&inputs, j, None)
    })?;
    let values = report::end_to_end(&inputs, &jobs, first_job_peak_rss_mib);
    let rounds = report::round_rates(&inputs, &jobs).len();
    let failovers: usize = jobs.iter().map(|j| j.failover_ms.len()).sum();
    println!(
        "\n== {} (measured; seed {seed}, {} reactor threads on the {} cores the run keeps) ==",
        spec.name,
        inputs.threads,
        sys::usable_cores(),
    );
    println!(
        "   samples: {} jobs, {rounds} rounds, {failovers} failovers; wall metrics are medians \
         (peak_rss_mib: VmHWM after the first job; {:.0} MiB at exit)",
        jobs.len(),
        sys::peak_rss_mib()
    );
    let per_job: Vec<String> = jobs
        .iter()
        .map(|j| {
            let rates = report::round_rates(&inputs, std::slice::from_ref(j));
            format!("{:.0}", stats::median(&rates))
        })
        .collect();
    println!("   ckpt_mib_s job by job: {}", per_job.join(" "));
    let mut metrics = Vec::new();
    for def in END_TO_END {
        let v = values[def.name];
        println!(
            "   {:<34} {:>14.4} {:<6} {:<6} bound {:>2.0}%  [{}]",
            def.name,
            v,
            def.unit,
            def.better.name(),
            def.bound * 100.0,
            def.domain.name(),
        );
        metrics.push((def.name.to_string(), v, def.unit.to_string()));
    }
    print_failures(&outcome);
    Ok(RunResult { metrics, outcome })
}

fn print_failures(outcome: &ScriptOutcome) {
    println!(
        "   ops_failed_share {} ({} of {} calls, commits, recovers, failovers, byte-verifies and checks)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    if let Some(e) = &outcome.first_error {
        println!("   FIRST FAILURE: {e}");
    }
}

fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("perf")
}

/// The traced run: jobs alternate between traced (spans and
/// `telemetry::capture` on) and plain for `seconds`, then the ladder and
/// the recover floor; per-layer metrics.
fn traced_run(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = Inputs::new(spec.clone(), seed);
    let tracer = Arc::new(trace::Tracer::new());
    let mut outcome = ScriptOutcome::default();
    let mut program_events = String::new();
    let all = run_jobs(seconds, 2, false, &mut outcome, |j| {
        if j % 2 == 0 {
            let (sample, events) = telemetry::capture(|| job::run_job(&inputs, j, Some(&tracer)));
            program_events = events.to_jsonl();
            sample
        } else {
            job::run_job(&inputs, j, None)
        }
    })?;
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for (j, sample) in all.samples.into_iter().enumerate() {
        if j % 2 == 0 {
            traced.push(sample);
        } else {
            plain.push(sample);
        }
    }
    let ladder = ladder::run(&inputs)?;
    outcome.absorb(ladder.outcome.clone());
    let recover_floor_ms = job::recover_floor_ms(&inputs)?;

    let spans = tracer.take_spans();
    let dir = trace_dir();
    let span_file = dir.join(format!("trace-{}.jsonl", spec.name));
    trace::write_jsonl(&span_file, &spans).map_err(|e| format!("{}: {e}", span_file.display()))?;
    // What the program's own spans recorded under `telemetry::capture` in
    // the last traced job (few today; in-program tracing is a later issue).
    let program_file = dir.join(format!("trace-{}.program.jsonl", spec.name));
    std::fs::write(&program_file, program_events)
        .map_err(|e| format!("{}: {e}", program_file.display()))?;

    let table = trace::SpanTable::build(&spans);
    let values = report::per_layer(&report::Traced {
        inputs: &inputs,
        traced: &traced,
        plain: &plain,
        spans: &table,
        ladder: &ladder,
        recover_floor_ms,
    });
    let defs = report::per_layer_defs();
    if let Some(stray) = values
        .keys()
        .find(|k| !defs.iter().any(|(name, ..)| name == *k))
    {
        return Err(format!("per-layer metric {stray} has no definition"));
    }
    println!(
        "\n== {} (traced; seed {seed}, {} reactor threads) ==",
        spec.name, inputs.threads
    );
    println!(
        "   samples: {} traced + {} plain jobs, {} spans -> {}",
        traced.len(),
        plain.len(),
        spans.len(),
        span_file.display()
    );
    println!(
        "   ladder (rank 0, ms): ssd {:.2} | fabric {:.2} | core.dataplane {:.2} | microfs {:.2} | \
         core.intercept {:.2} | microfs on memory {:.2}; {} calls, {} commands",
        ladder.ssd_ms,
        ladder.fabric_ms,
        ladder.dataplane_ms,
        ladder.microfs_ms,
        ladder.intercept_ms,
        ladder.microfs_mem_ms,
        ladder.calls,
        ladder.stream_cmds
    );
    println!("   span self time by name (ms, summed over traced jobs):");
    for (name, ns) in &table.self_ns {
        println!(
            "     {:<22} {:>12.3}  ({} spans)",
            name,
            *ns as f64 / 1e6,
            table.count(name)
        );
    }
    let mut metrics = Vec::new();
    for (name, unit, _) in defs {
        let v = values.get(&name).copied().unwrap_or(0.0);
        println!("   {name:<44} {v:>14.4} {unit}");
        metrics.push((name, v, unit.to_string()));
    }
    print_failures(&outcome);
    Ok(RunResult { metrics, outcome })
}

/// Run one workload in a child process of this program, the way the
/// driver does: every run starts on a fresh heap, so runs of one
/// invocation do not colour each other's memory or timing. The child's
/// report is passed through and its result line parsed.
fn run_child(spec: &Spec, args: &Args, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: the run printed nothing", spec.name))?;
    let v = telemetry::json::parse(line).map_err(|e| format!("{}: result line: {e}", spec.name))?;
    let num = |key: &str| v.get(key).and_then(|x| x.as_num()).unwrap_or(0.0) as u64;
    let mut metrics = Vec::new();
    for (name, m) in v
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or_else(|| format!("{}: result line has no metrics", spec.name))?
    {
        metrics.push((
            name.clone(),
            m.get("value").and_then(|x| x.as_num()).unwrap_or(0.0),
            m.get("unit")
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string(),
        ));
    }
    Ok(RunResult {
        metrics,
        outcome: ScriptOutcome {
            attempted: num("attempted"),
            // A run that failed without a count still counts as failed.
            failed: num("failed").max(u64::from(!out.status.success())),
            ..ScriptOutcome::default()
        },
    })
}

/// A/A: the full measured set twice in one invocation. Every wall metric
/// must agree within its bound, every exact metric to the digit.
fn aa(specs: &[Spec], args: &Args, seconds: f64) -> Result<bool, String> {
    let mut passes: Vec<BTreeMap<&str, RunResult>> = Vec::new();
    for pass in 0..2 {
        println!("\n#### A/A pass {pass}");
        let mut results = BTreeMap::new();
        for spec in specs {
            results.insert(spec.name, run_child(spec, args, seconds)?);
        }
        passes.push(results);
    }
    println!("\n#### A/A: second pass against the first");
    let mut ok = true;
    for spec in specs {
        let (a, b) = (&passes[0][spec.name], &passes[1][spec.name]);
        ok &= a.correct() && b.correct();
        for def in END_TO_END {
            let (va, vb) = (a.value(def.name), b.value(def.name));
            let (pass, how) = if def.domain == Domain::Wall {
                // Either pass may be the slow one.
                let worse = report::worsening(&def, va, vb).max(report::worsening(&def, vb, va));
                (
                    worse <= def.bound,
                    format!("{:.2}% of {:.0}%", worse * 100.0, def.bound * 100.0),
                )
            } else {
                (va == vb, "exact".to_string())
            };
            ok &= pass;
            println!(
                "   {:<18} {:<34} {:>14.4} {:>14.4}  {:<16} {}",
                spec.name,
                def.name,
                va,
                vb,
                how,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    let all = workload::specs(args.smoke);
    if args.emit_benchmark_json {
        let wl: Vec<(&str, &str)> = all.iter().map(|s| (s.name, s.why)).collect();
        print!("{}", report::benchmark_json(RUN_SECONDS, &wl));
        return Ok(true);
    }
    // `--smoke` runs one job per workload (two when traced).
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.0
    } else {
        f64::from(RUN_SECONDS)
    });
    let specs: Vec<Spec> = match &args.workload {
        None => all,
        Some(name) => {
            let found: Vec<Spec> = all.into_iter().filter(|s| s.name == name).collect();
            if found.is_empty() {
                return Err(format!("unknown workload {name}"));
            }
            found
        }
    };
    if args.aa {
        return aa(&specs, args, seconds);
    }
    if let (Some(_), [spec]) = (&args.workload, &specs[..]) {
        // One named workload: this process is the run.
        let result = if args.trace {
            traced_run(spec, args.seed, seconds)?
        } else {
            measured_run(spec, args.seed, seconds)?
        };
        result.print_result_line();
        return Ok(result.correct());
    }
    let mut ok = true;
    for spec in &specs {
        ok &= run_child(spec, args, seconds)?.correct();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Before any thread starts, so that all of them inherit the mask.
    sys::leave_one_core();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("nvmecr-perf: a check failed (see FIRST FAILURE / FAIL above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("nvmecr-perf: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_hand_forms_of_the_flags_parse() {
        let a = args("--workload meta_churn --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("meta_churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        assert!(!args("--trace 0 --seed 3").unwrap().trace);
        let a = args("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke);
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 900").is_err());
        assert!(args("--bogus").is_err());
    }

    /// Two smoke jobs of every workload in one process: the run is
    /// correct, the exact metrics repeat job over job (checked inside
    /// `run_jobs`) and differ between seeds.
    #[test]
    fn smoke_jobs_are_correct_and_exact_metrics_repeat_per_seed() {
        for spec in workload::specs(true) {
            let exact_of = |seed: u64| {
                let inputs = Inputs::new(spec.clone(), seed);
                let mut outcome = ScriptOutcome::default();
                let Jobs {
                    samples: jobs,
                    first_job_peak_rss_mib,
                } = run_jobs(0.0, 2, true, &mut outcome, |j| {
                    job::run_job(&inputs, j, None)
                })
                .expect(spec.name);
                assert_eq!(
                    outcome.failed, 0,
                    "{}: {:?}",
                    spec.name, outcome.first_error
                );
                assert_eq!(jobs[0].exact, jobs[1].exact);
                let m = report::end_to_end(&inputs, &jobs, first_job_peak_rss_mib);
                for def in END_TO_END {
                    assert!(m[def.name] > 0.0, "{} {} is never 0", spec.name, def.name);
                }
                jobs[0].exact
            };
            assert_ne!(exact_of(1), exact_of(2), "{}", spec.name);
        }
    }

    #[test]
    fn traced_smoke_run_fills_the_per_layer_metrics_of_active_layers() {
        let spec = workload::specs(true)
            .into_iter()
            .find(|s| s.name == "ckpt_mirror_delta")
            .unwrap();
        let r = traced_run(&spec, 1, 0.0).expect("traced run");
        assert_eq!(r.outcome.failed, 0, "{:?}", r.outcome.first_error);
        assert_eq!(r.metrics.len(), report::per_layer_defs().len());
        for name in [
            "core.runtime.init_ms",
            "microfs.pwrite_us_p50",
            "fabric.self_ms",
            "ssd.self_ms",
            "core.replication.mirror_busy_ms",
            "core.replication.failover_restore_ms",
            "core.recovery.recover_floor_ms",
            "telemetry.attributed_share",
        ] {
            assert!(r.value(name) > 0.0, "{name}");
        }
        assert!(trace_dir().join("trace-ckpt_mirror_delta.jsonl").exists());
    }
}
