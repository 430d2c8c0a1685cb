//! Cross-layer telemetry bench: drive a small functional C/R run with
//! span tracing enabled and emit what the runtime observed about itself.
//!
//! Outputs (working directory):
//!
//! * `BENCH_telemetry.json` — per-layer latency percentiles (p50/p90/p99/
//!   p999), counters, and gauge peaks for the `fabric`, `ssd`, `microfs`,
//!   and `driver` layers.
//! * `BENCH_telemetry.trace.json` — the same run as a Chrome
//!   `trace_event` timeline (load in `chrome://tracing` or Perfetto).
//! * `BENCH_telemetry.jsonl` — one span/instant per line for ad-hoc
//!   grepping.
//!
//! Both JSON artifacts are re-parsed and validated before the process
//! exits, so a zero exit status means the files are well-formed and every
//! expected layer reported. Pass `--smoke` for a smaller, CI-sized run.

use std::fmt::Write as _;

use nvmecr_bench::stamp;
use telemetry::json::{self, Value};
use telemetry::HistogramSnapshot;
use workloads::driver::run_functional_checkpoints;

/// Layers the run must produce histograms for (the acceptance bar).
const REQUIRED_LAYERS: [&str; 4] = ["driver", "fabric", "microfs", "ssd"];

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_hist(json: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        json,
        "{{\"count\": {}, \"mean_ns\": {:.1}, \"min_ns\": {}, \"max_ns\": {}, \
         \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
        h.count,
        h.mean(),
        if h.count == 0 { 0 } else { h.min },
        h.max,
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
        h.percentile(99.9),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (procs, ckpts, bytes_per_rank) = if smoke {
        (8u32, 2u32, 256u64 << 10)
    } else {
        (28, 3, 2 << 20)
    };
    let crash_ranks = [1, procs - 2];

    // One traced run: every span/instant from capsule encode down to the
    // capacitor flush lands in the trace, every counter/histogram in the
    // run's private registry (returned inside the report).
    let (report, trace) = telemetry::capture(|| {
        run_functional_checkpoints(
            procs,
            ckpts,
            bytes_per_rank,
            &crash_ranks,
            &nvmecr::RuntimeConfig::default(),
        )
    });
    let report = report?;
    let snap = &report.telemetry;

    // --- BENCH_telemetry.json: per-layer percentiles + counters/gauges.
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"telemetry\",\n");
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
        "  \"config\": {{\"procs\": {procs}, \"ckpts\": {ckpts}, \
         \"bytes_per_rank\": {bytes_per_rank}, \"smoke\": {smoke}}},"
    );
    out.push_str("  \"layers\": {\n");
    let layers = snap.layers();
    for (li, layer) in layers.iter().enumerate() {
        let _ = write!(out, "    \"{}\": {{", json_escape(layer));
        let prefix = format!("{layer}.");
        let mut first = true;
        for (name, h) in &snap.histograms {
            if let Some(metric) = name.strip_prefix(&prefix) {
                let sep = if first { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\": ", json_escape(metric));
                write_hist(&mut out, h);
                first = false;
            }
        }
        let end = if li + 1 == layers.len() { "}" } else { "}," };
        let _ = writeln!(out, "{end}");
    }
    out.push_str("  },\n  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": {v}", json_escape(name));
    }
    out.push_str("},\n  \"gauges\": {");
    for (i, (name, g)) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"peak\": {}}}",
            json_escape(name),
            g.value,
            g.peak
        );
    }
    let _ = writeln!(out, "}},\n  \"trace_events\": {}\n}}", trace.events().len());
    std::fs::write("BENCH_telemetry.json", &out)?;

    // --- Timeline artifacts.
    let chrome = trace.to_chrome_json();
    std::fs::write("BENCH_telemetry.trace.json", &chrome)?;
    std::fs::write("BENCH_telemetry.jsonl", trace.to_jsonl())?;

    // --- Validate what we just wrote (the CI smoke gate).
    let parsed = json::parse(&out).map_err(|e| format!("BENCH_telemetry.json: {e}"))?;
    let layer_obj = parsed
        .get("layers")
        .and_then(Value::as_obj)
        .ok_or("BENCH_telemetry.json: no layers object")?;
    for layer in REQUIRED_LAYERS {
        let metrics = layer_obj
            .get(layer)
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("layer {layer} missing from BENCH_telemetry.json"))?;
        let observed = metrics
            .values()
            .filter_map(|m| m.get("count").and_then(Value::as_num))
            .sum::<f64>();
        if observed <= 0.0 {
            return Err(format!("layer {layer} recorded no latency samples").into());
        }
        for m in metrics.values() {
            for p in ["p50_ns", "p99_ns"] {
                if m.get(p).and_then(Value::as_num).is_none() {
                    return Err(format!("layer {layer} metric lacks {p}").into());
                }
            }
        }
    }
    let parsed = json::parse(&chrome).map_err(|e| format!("trace.json: {e}"))?;
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("trace.json: no traceEvents")?;
    if events.len() != trace.events().len() || events.is_empty() {
        return Err(format!(
            "trace.json carries {} events, captured {}",
            events.len(),
            trace.events().len()
        )
        .into());
    }

    println!(
        "procs={procs} ckpts={ckpts} verified={}B trace_events={} layers={}",
        report.bytes_verified,
        trace.events().len(),
        layers.join(","),
    );
    println!("wrote BENCH_telemetry.json BENCH_telemetry.trace.json BENCH_telemetry.jsonl");
    Ok(())
}
