//! Post-mortem analysis of flight-recorder dumps (`nvmecr-doctor`).
//!
//! A dump is the JSONL file the [`telemetry::FlightRecorder`] writes when
//! it trips: one header line, one line per ring event, and one line per
//! metric of the owning registry. The doctor reconstructs what the rings
//! witnessed — per-command causal timelines keyed by (rank, CID), stalled
//! commands, the replication picture — and renders a verdict naming the
//! first anomalous event, with the injected chaos site decoded when the
//! anomaly was an injection.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::json::{self, Value};
use telemetry::FlightKind;

/// One event line of a dump, decoded.
#[derive(Clone, Debug)]
pub struct DumpEvent {
    /// Decoded kind (dumps from newer builds may carry kinds this doctor
    /// does not know; those lines are kept by name only).
    pub kind: Option<FlightKind>,
    /// Kind name as written in the dump.
    pub name: String,
    /// Per-shard publication sequence.
    pub seq: u64,
    /// Nanoseconds since recorder creation.
    pub ts_ns: u64,
    /// Rank context, when the event was recorded under one.
    pub rank: Option<u64>,
    /// Epoch context, when the event was recorded under one.
    pub epoch: Option<u64>,
    /// Fabric command id (0 for non-command events).
    pub cid: u64,
    /// Retry generation.
    pub gen: u64,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

/// Histogram stats embedded in a dump.
#[derive(Clone, Copy, Debug, Default)]
pub struct HistLine {
    /// Samples recorded.
    pub count: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// A parsed flight-recorder dump.
#[derive(Debug, Default)]
pub struct Dump {
    /// Trip cause named in the header.
    pub cause: String,
    /// Trips counted up to the dump.
    pub trips: u64,
    /// Ring events, oldest first.
    pub events: Vec<DumpEvent>,
    /// Counter totals embedded from the owning registry.
    pub counters: BTreeMap<String, u64>,
    /// Gauge `(value, peak)` pairs.
    pub gauges: BTreeMap<String, (i64, i64)>,
    /// Histogram stats.
    pub histograms: BTreeMap<String, HistLine>,
}

/// Parse a JSONL dump produced by `FlightRecorder::dump_jsonl`.
pub fn parse_dump(text: &str) -> Result<Dump, String> {
    let mut dump = Dump::default();
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty dump")?;
    let header = json::parse(header).map_err(|e| format!("header: {e}"))?;
    match header.get("schema").and_then(Value::as_str) {
        Some(s) if s.starts_with("nvmecr-flight-") => {}
        other => return Err(format!("not a flight dump (schema {other:?})")),
    }
    dump.cause = header
        .get("cause")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    dump.trips = header.get("trips").and_then(Value::as_num).unwrap_or(0.0) as u64;
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let num = |k: &str| v.get(k).and_then(Value::as_num).map(|n| n as u64);
        if let Some(name) = v.get("ev").and_then(Value::as_str) {
            let kind = (1..=22u64)
                .filter_map(FlightKind::from_code)
                .find(|k| k.name() == name);
            dump.events.push(DumpEvent {
                kind,
                name: name.to_string(),
                seq: num("seq").unwrap_or(0),
                ts_ns: num("ts_ns").unwrap_or(0),
                rank: num("rank"),
                epoch: num("epoch"),
                cid: num("cid").unwrap_or(0),
                gen: num("gen").unwrap_or(0),
                a: num("a").unwrap_or(0),
                b: num("b").unwrap_or(0),
            });
        } else if let Some(name) = v.get("counter").and_then(Value::as_str) {
            dump.counters
                .insert(name.to_string(), num("value").unwrap_or(0));
        } else if let Some(name) = v.get("gauge").and_then(Value::as_str) {
            let g = |k: &str| v.get(k).and_then(Value::as_num).unwrap_or(0.0) as i64;
            dump.gauges
                .insert(name.to_string(), (g("value"), g("peak")));
        } else if let Some(name) = v.get("histogram").and_then(Value::as_str) {
            dump.histograms.insert(
                name.to_string(),
                HistLine {
                    count: num("count").unwrap_or(0),
                    p50: num("p50").unwrap_or(0),
                    p99: num("p99").unwrap_or(0),
                    max: num("max").unwrap_or(0),
                },
            );
        } else {
            return Err(format!("line {}: unrecognized dump line", i + 1));
        }
    }
    dump.events.sort_by_key(|e| (e.ts_ns, e.seq));
    Ok(dump)
}

/// The causal lifecycle of one fabric command, keyed by (rank, CID).
#[derive(Clone, Debug)]
pub struct CommandTimeline {
    /// Rank that drove the command (`None` outside rank context).
    pub rank: Option<u64>,
    /// The command id.
    pub cid: u64,
    /// Lifecycle events, oldest first.
    pub events: Vec<DumpEvent>,
    /// Did a completion retire it?
    pub completed: bool,
    /// Highest retry generation observed.
    pub max_gen: u64,
    /// First event timestamp.
    pub first_ts: u64,
    /// Last event timestamp.
    pub last_ts: u64,
}

impl CommandTimeline {
    /// One-line rendering: `rank 3 cid 17: submit(g0 4096B) → timeout →
    /// retry(g1) → submit(g1) → complete(g1 1.2ms)`.
    pub fn render(&self) -> String {
        let mut out = match self.rank {
            Some(r) => format!("rank {r} cid {}: ", self.cid),
            None => format!("cid {}: ", self.cid),
        };
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            match e.kind {
                Some(FlightKind::Submit) => {
                    let _ = write!(out, "submit(g{} {}B@{})", e.gen, e.a, e.b);
                }
                Some(FlightKind::Complete) => {
                    let _ = write!(out, "complete(g{} {:.1}us)", e.gen, e.a as f64 / 1e3);
                }
                Some(FlightKind::Retry) => {
                    let _ = write!(out, "retry(g{} backoff {}ns)", e.gen, e.a);
                }
                Some(FlightKind::Timeout) => {
                    let what = if e.a == 0 { "tx" } else { "rx" };
                    let _ = write!(out, "timeout({what} g{})", e.gen);
                }
                Some(FlightKind::CrcError) => {
                    let _ = write!(out, "crc_error");
                }
                Some(FlightKind::RetryExhausted) => {
                    let _ = write!(out, "EXHAUSTED(after {} attempts)", e.gen);
                }
                _ => out.push_str(&e.name),
            }
        }
        if !self.completed {
            out.push_str("  [never completed]");
        }
        out
    }
}

/// Kinds that participate in a per-command timeline.
fn is_command_kind(k: FlightKind) -> bool {
    matches!(
        k,
        FlightKind::Submit
            | FlightKind::Complete
            | FlightKind::Retry
            | FlightKind::Timeout
            | FlightKind::CrcError
            | FlightKind::RetryExhausted
    )
}

/// Anomaly severity for the verdict. Ordinary lifecycle events
/// (submit/complete/retry/WAL/commit/mirror-write) score 0; `Trip` too,
/// since it merely echoes another event. Transients the reliability
/// layer is built to absorb (an injection, a timeout) rank below
/// integrity losses (CRC, degraded mirror), which rank below terminal
/// events (dead shards, exhausted budgets, failover, rollback). The
/// verdict names the *first* event of the *worst* class present, so an
/// absorbed transient early in the window does not outrank the fault
/// that actually took the system down.
fn anomaly_severity(k: FlightKind) -> u8 {
    match k {
        FlightKind::ShardKill
        | FlightKind::ShardDead
        | FlightKind::RetryExhausted
        | FlightKind::Failover
        | FlightKind::RollbackRestore
        | FlightKind::CrashPoint
        | FlightKind::RecoveryCrashPoint
        | FlightKind::RecoveryQuarantine => 3,
        FlightKind::CrcError | FlightKind::MirrorDegraded | FlightKind::DegradedServe => 2,
        FlightKind::FaultInjected | FlightKind::Timeout => 1,
        _ => 0,
    }
}

/// Aggregated replication picture of a dump.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicationSummary {
    /// Mirrored write batches that landed on both copies.
    pub mirror_writes: u64,
    /// Mirror degradations.
    pub degraded: u64,
    /// Epoch commits witnessed.
    pub epoch_commits: u64,
    /// Newest committed epoch seen.
    pub last_epoch: Option<u64>,
    /// Rollback restores witnessed.
    pub rollbacks: u64,
    /// Epoch the last rollback restored to.
    pub rollback_epoch: Option<u64>,
    /// Epochs of history the last rollback lost.
    pub lag_epochs: Option<u64>,
    /// `cow.chain_len` gauge (value, peak) when the dump carried it.
    pub chain: Option<(i64, i64)>,
}

/// The doctor's conclusion: the first anomalous event and what it names.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Kind name of the first anomaly (e.g. `fault_injected`).
    pub kind: String,
    /// Decoded site for injections (e.g. `shard_io`); for other anomalies
    /// the most specific locus available (a CID or namespace).
    pub site: Option<String>,
    /// When it happened.
    pub ts_ns: u64,
    /// Human sentence.
    pub description: String,
}

/// A full post-mortem report.
#[derive(Debug)]
pub struct Report {
    /// Trip cause from the dump header.
    pub cause: String,
    /// Trip count from the dump header.
    pub trips: u64,
    /// Total events analyzed.
    pub event_count: u64,
    /// Per-command timelines, most eventful first.
    pub timelines: Vec<CommandTimeline>,
    /// Commands stuck in the pending table beyond the stall threshold.
    pub stalled: Vec<CommandTimeline>,
    /// The stall threshold used (ns).
    pub stall_threshold_ns: u64,
    /// Replication summary.
    pub replication: ReplicationSummary,
    /// The verdict, when any anomaly was found.
    pub verdict: Option<Verdict>,
}

/// Analyze a parsed dump.
pub fn analyze(dump: &Dump) -> Report {
    let mut groups: BTreeMap<(u64, u64), CommandTimeline> = BTreeMap::new();
    let end_ts = dump.events.last().map_or(0, |e| e.ts_ns);
    for e in &dump.events {
        let Some(kind) = e.kind else { continue };
        if !is_command_kind(kind) {
            continue;
        }
        let key = (e.rank.unwrap_or(u64::MAX), e.cid);
        let t = groups.entry(key).or_insert_with(|| CommandTimeline {
            rank: e.rank,
            cid: e.cid,
            events: Vec::new(),
            completed: false,
            max_gen: 0,
            first_ts: e.ts_ns,
            last_ts: e.ts_ns,
        });
        t.completed |= kind == FlightKind::Complete;
        t.max_gen = t.max_gen.max(e.gen);
        t.first_ts = t.first_ts.min(e.ts_ns);
        t.last_ts = t.last_ts.max(e.ts_ns);
        t.events.push(e.clone());
    }
    let mut timelines: Vec<CommandTimeline> = groups.into_values().collect();
    timelines.sort_by_key(|t| (std::cmp::Reverse(t.events.len()), t.first_ts));

    // Stall detection: a command that never completed and whose pending
    // age (dump end minus first submit) exceeds the p99 command latency
    // is stuck, not merely slow. Without a histogram in the dump any
    // incomplete command counts.
    let stall_threshold_ns = dump.histograms.get("fabric.submit_ns").map_or(0, |h| h.p99);
    let stalled: Vec<CommandTimeline> = timelines
        .iter()
        .filter(|t| !t.completed && end_ts.saturating_sub(t.first_ts) > stall_threshold_ns)
        .cloned()
        .collect();

    let mut rep = ReplicationSummary {
        chain: dump.gauges.get("cow.chain_len").copied(),
        ..ReplicationSummary::default()
    };
    for e in &dump.events {
        match e.kind {
            Some(FlightKind::MirrorWrite) => rep.mirror_writes += 1,
            Some(FlightKind::MirrorDegraded) => rep.degraded += 1,
            Some(FlightKind::EpochCommit) => {
                rep.epoch_commits += 1;
                rep.last_epoch = Some(rep.last_epoch.map_or(e.a, |p: u64| p.max(e.a)));
            }
            Some(FlightKind::RollbackRestore) => {
                rep.rollbacks += 1;
                rep.rollback_epoch = Some(e.a);
                rep.lag_epochs = Some(e.b);
            }
            _ => {}
        }
    }

    let worst = dump
        .events
        .iter()
        .filter_map(|e| e.kind.map(anomaly_severity))
        .max()
        .unwrap_or(0);
    // When the nested plane fired, the thing that actually died was
    // recovery itself: the recovery crash point is the verdict's subject
    // and outranks every other terminal event — including the outer
    // crash point it is nested under, which becomes the root-cause
    // context rather than the headline.
    let nested = dump
        .events
        .iter()
        .find(|e| e.kind == Some(FlightKind::RecoveryCrashPoint));
    let verdict = nested
        .or_else(|| {
            (worst > 0)
                .then(|| {
                    dump.events
                        .iter()
                        .find(|e| e.kind.is_some_and(|k| anomaly_severity(k) == worst))
                })
                .flatten()
        })
        .map(|e| {
            let kind = e.kind.expect("filtered on Some");
            // The site an injection or crash event names: its kind picks
            // the plane, `a` the site.
            let site_of = |ev: &DumpEvent| {
                let site = ev.kind.and_then(|k| chaos::Site::from_flight(k, ev.a));
                site.map_or_else(|| format!("unknown site {}", ev.a), |s| s.name().into())
            };
            // Attribute the anomaly to its root cause: the nearest fault
            // injection or crash-universe kill at or before it, when one
            // is in the window.
            let injection = dump.events.iter().rfind(|i| {
                matches!(
                    i.kind,
                    Some(FlightKind::FaultInjected) | Some(FlightKind::CrashPoint)
                ) && (i.ts_ns, i.seq) <= (e.ts_ns, e.seq)
            });
            let site = match (kind, injection) {
                (FlightKind::FaultInjected, _) => Some(site_of(e)),
                (FlightKind::CrashPoint, _) => Some(format!("{} op #{}", site_of(e), e.b)),
                (FlightKind::RecoveryCrashPoint, _) => {
                    Some(format!("{} recovery op #{}", site_of(e), e.b))
                }
                (FlightKind::RecoveryQuarantine, None) => {
                    Some(format!("rank {} after {} failed attempts", e.a, e.b))
                }
                (FlightKind::DegradedServe, None) => {
                    Some(format!("rank {} from epoch {}", e.a, e.b))
                }
                (_, Some(c)) if c.kind == Some(FlightKind::CrashPoint) => {
                    Some(format!("crash_at_op({})", c.b))
                }
                (_, Some(inj)) => Some(site_of(inj)),
                (FlightKind::ShardKill | FlightKind::ShardDead, None) => {
                    Some(format!("ns {}", e.a))
                }
                (FlightKind::CrcError | FlightKind::RetryExhausted | FlightKind::Timeout, None) => {
                    Some(format!("cid {}", e.cid.max(e.a)))
                }
                (FlightKind::Failover, None) => Some(format!("rank {}", e.a)),
                _ => None,
            };
            let ctx = match (e.rank, e.epoch) {
                (Some(r), Some(ep)) => format!(" (rank {r}, epoch {ep})"),
                (Some(r), None) => format!(" (rank {r})"),
                (None, Some(ep)) => format!(" (epoch {ep})"),
                (None, None) => String::new(),
            };
            let root = match (kind, injection) {
                // Both planes fired: name both indices — the outer op the
                // universe killed, and the recovery op the nested kill
                // took down — so a replay command can be reconstructed.
                (FlightKind::RecoveryCrashPoint, Some(c))
                    if c.kind == Some(FlightKind::CrashPoint) =>
                {
                    format!(
                        "; root cause: crash_in_recovery({}) killed the first recovery \
                         attempt after crash_at_op({}) died on a {} op (t={:.3}ms)",
                        e.b,
                        c.b,
                        site_of(c),
                        c.ts_ns as f64 / 1e6
                    )
                }
                (FlightKind::FaultInjected | FlightKind::CrashPoint, _) | (_, None) => {
                    String::new()
                }
                (_, Some(c)) if c.kind == Some(FlightKind::CrashPoint) => format!(
                    "; root cause: crash_at_op({}) killed a {} op (t={:.3}ms)",
                    c.b,
                    site_of(c),
                    c.ts_ns as f64 / 1e6
                ),
                (_, Some(inj)) => format!(
                    "; root cause: injected fault at {} (t={:.3}ms)",
                    site_of(inj),
                    inj.ts_ns as f64 / 1e6
                ),
            };
            let description = format!(
                "first {} anomaly at t={:.3}ms: {}{}{}{}",
                match worst {
                    3 => "terminal",
                    2 => "integrity",
                    _ => "transient",
                },
                e.ts_ns as f64 / 1e6,
                kind.name(),
                site.as_deref()
                    .filter(|_| {
                        matches!(
                            kind,
                            FlightKind::FaultInjected
                                | FlightKind::CrashPoint
                                | FlightKind::RecoveryCrashPoint
                                | FlightKind::RecoveryQuarantine
                                | FlightKind::DegradedServe
                        )
                    })
                    .map(|s| format!(" at {s}"))
                    .unwrap_or_default(),
                ctx,
                root
            );
            Verdict {
                kind: kind.name().to_string(),
                site,
                ts_ns: e.ts_ns,
                description,
            }
        });

    Report {
        cause: dump.cause.clone(),
        trips: dump.trips,
        event_count: dump.events.len() as u64,
        timelines,
        stalled,
        stall_threshold_ns,
        replication: rep,
        verdict,
    }
}

impl Report {
    /// Render the full human-readable post-mortem.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== nvmecr-doctor post-mortem ==");
        let _ = writeln!(
            out,
            "cause: {}   trips: {}   events: {}",
            self.cause, self.trips, self.event_count
        );
        match &self.verdict {
            Some(v) => {
                let _ = writeln!(out, "verdict: {}", v.description);
            }
            None => {
                let _ = writeln!(out, "verdict: no anomalous events in the recorded window");
            }
        }
        let _ = writeln!(out, "\n-- command timelines (most eventful first) --");
        for t in self.timelines.iter().take(12) {
            let _ = writeln!(out, "{}", t.render());
        }
        if self.timelines.len() > 12 {
            let _ = writeln!(out, "... {} more commands", self.timelines.len() - 12);
        }
        let _ = writeln!(
            out,
            "\n-- stalls (pending > p99 submit latency of {}ns) --",
            self.stall_threshold_ns
        );
        if self.stalled.is_empty() {
            let _ = writeln!(out, "none");
        }
        for t in self.stalled.iter().take(8) {
            let _ = writeln!(out, "{}", t.render());
        }
        let r = &self.replication;
        let _ = writeln!(out, "\n-- replication --");
        let _ = writeln!(
            out,
            "mirror writes: {}   degradations: {}   epoch commits: {}{}",
            r.mirror_writes,
            r.degraded,
            r.epoch_commits,
            r.last_epoch
                .map(|e| format!(" (newest epoch {e})"))
                .unwrap_or_default()
        );
        let _ = writeln!(
            out,
            "rollbacks: {}{}{}",
            r.rollbacks,
            r.rollback_epoch
                .map(|e| format!(" (restored to epoch {e})"))
                .unwrap_or_default(),
            r.lag_epochs
                .map(|l| format!(", {l} epoch(s) of history lost"))
                .unwrap_or_default()
        );
        if let Some((len, peak)) = r.chain {
            let _ = writeln!(out, "delta chain depth: {len} (peak {peak})");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::FlightRecorder;

    fn fault_dump() -> Dump {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::Submit, 5, 0, 4096, 0);
        r.record(FlightKind::FaultInjected, 0, 0, 0x04, 7);
        r.record(FlightKind::Timeout, 5, 0, 0, 0);
        r.record(FlightKind::Retry, 5, 1, 10_000, 0);
        r.record(FlightKind::Submit, 5, 1, 4096, 0);
        r.record(FlightKind::Complete, 5, 1, 900_000, 0);
        r.record(FlightKind::EpochCommit, 0, 0, 3, 1);
        r.trip(FlightKind::FaultInjected, 0x04);
        parse_dump(&r.dump_jsonl(FlightKind::FaultInjected)).unwrap()
    }

    #[test]
    fn parses_and_groups_timelines() {
        let d = fault_dump();
        assert_eq!(d.cause, "fault_injected");
        let report = analyze(&d);
        let t = report
            .timelines
            .iter()
            .find(|t| t.cid == 5)
            .expect("cid 5 timeline");
        assert!(t.completed);
        assert_eq!(t.max_gen, 1);
        let line = t.render();
        assert!(line.contains("submit"), "{line}");
        assert!(line.contains("retry"), "{line}");
        assert!(line.contains("complete"), "{line}");
    }

    #[test]
    fn verdict_names_injected_site() {
        let report = analyze(&fault_dump());
        let v = report.verdict.expect("anomaly present");
        assert_eq!(v.kind, "fault_injected");
        assert_eq!(v.site.as_deref(), Some("shard_io"));
    }

    #[test]
    fn verdict_attributes_crash_universe_kill() {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::Submit, 3, 0, 4096, 0);
        // crash_at_op(42) fired on a commit-record write (op code 5).
        r.record(FlightKind::CrashPoint, 0, 0, 5, 42);
        r.trip(FlightKind::CrashPoint, 5);
        let d = parse_dump(&r.dump_jsonl(FlightKind::CrashPoint)).unwrap();
        let v = analyze(&d).verdict.expect("crash point is terminal");
        assert_eq!(v.kind, "crash_point");
        let s = v.site.expect("site decoded");
        assert!(s.contains("commit_record") && s.contains("42"), "{s}");
        assert!(v.description.contains("commit_record"), "{}", v.description);
    }

    #[test]
    fn crash_point_is_root_cause_of_later_anomalies() {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::CrashPoint, 0, 0, 3, 17);
        r.record(FlightKind::RetryExhausted, 8, 4, 0, 0);
        r.trip(FlightKind::RetryExhausted, 8);
        let d = parse_dump(&r.dump_jsonl(FlightKind::RetryExhausted)).unwrap();
        let v = analyze(&d).verdict.expect("terminal anomaly present");
        // Both events are terminal; the crash point is first and wins.
        assert_eq!(v.kind, "crash_point");
        assert!(v.site.as_deref().unwrap_or("").contains("mirror_write"));
    }

    #[test]
    fn nested_crash_point_outranks_outer_in_verdict() {
        let r = FlightRecorder::with_capacity(64);
        // crash_at_op(42) fired on a commit-record write (op code 5)...
        r.record(FlightKind::CrashPoint, 0, 0, 5, 42);
        // ...then crash_in_recovery(7) killed the first recovery attempt
        // on a mirror rescan chunk (recovery op code 5), and the fabric
        // saw the fallout.
        r.record(FlightKind::RecoveryCrashPoint, 0, 0, 5, 7);
        r.record(FlightKind::RetryExhausted, 8, 4, 0, 0);
        r.trip(FlightKind::RecoveryCrashPoint, 5);
        let d = parse_dump(&r.dump_jsonl(FlightKind::RecoveryCrashPoint)).unwrap();
        let v = analyze(&d).verdict.expect("nested crash is terminal");
        // Both planes fired: the nested point is the verdict's subject,
        // the outer point only its root-cause context.
        assert_eq!(v.kind, "recovery_crash_point");
        let s = v.site.expect("site decoded");
        assert!(s.contains("rescan_chunk") && s.contains("#7"), "{s}");
        assert!(
            v.description.contains("crash_in_recovery(7)")
                && v.description.contains("crash_at_op(42)")
                && v.description.contains("commit_record"),
            "{}",
            v.description
        );
    }

    #[test]
    fn quarantine_and_degraded_serve_verdicts_name_the_rank() {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::RecoveryQuarantine, 0, 0, 3, 2);
        r.trip(FlightKind::RecoveryQuarantine, 3);
        let d = parse_dump(&r.dump_jsonl(FlightKind::RecoveryQuarantine)).unwrap();
        let v = analyze(&d).verdict.expect("quarantine is terminal");
        assert_eq!(v.kind, "recovery_quarantine");
        assert!(
            v.site.as_deref().unwrap_or("").contains("rank 3"),
            "{:?}",
            v.site
        );

        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::DegradedServe, 0, 0, 5, 9);
        let d = parse_dump(&r.dump_jsonl(FlightKind::DegradedServe)).unwrap();
        let v = analyze(&d).verdict.expect("degraded serve is an anomaly");
        assert_eq!(v.kind, "degraded_serve");
        let s = v.site.expect("site decoded");
        assert!(s.contains("rank 5") && s.contains("epoch 9"), "{s}");
    }

    #[test]
    fn replication_summary_tracks_epochs_and_rollbacks() {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::MirrorWrite, 0, 0, 1 << 20, 8);
        r.record(FlightKind::EpochCommit, 0, 0, 4, 0);
        r.record(FlightKind::RollbackRestore, 0, 0, 3, 1);
        let d = parse_dump(&r.dump_jsonl(FlightKind::RollbackRestore)).unwrap();
        let rep = analyze(&d).replication;
        assert_eq!(rep.mirror_writes, 1);
        assert_eq!(rep.epoch_commits, 1);
        assert_eq!(rep.last_epoch, Some(4));
        assert_eq!(rep.rollbacks, 1);
        assert_eq!(rep.rollback_epoch, Some(3));
        assert_eq!(rep.lag_epochs, Some(1));
    }

    #[test]
    fn stall_detection_flags_incomplete_commands() {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::Submit, 9, 0, 512, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.record(FlightKind::Submit, 10, 0, 512, 0);
        r.record(FlightKind::Complete, 10, 0, 100, 0);
        let d = parse_dump(&r.dump_jsonl(FlightKind::Timeout)).unwrap();
        let report = analyze(&d);
        assert!(
            report.stalled.iter().any(|t| t.cid == 9),
            "cid 9 never completed and aged past the (absent) threshold"
        );
        assert!(report.stalled.iter().all(|t| t.cid != 10));
    }

    #[test]
    fn rejects_non_dump_input() {
        assert!(parse_dump("{\"bench\":\"chaos\"}\n").is_err());
        assert!(parse_dump("").is_err());
    }
}
