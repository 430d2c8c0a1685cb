//! The black-box flight recorder: an always-on, lock-free, fixed-capacity
//! ring of recent events, dumped to JSONL when something goes wrong.
//!
//! Aggregate metrics say *how often* commands retried; the flight recorder
//! says *which* command, in *what order*, around the failure. Every layer
//! records small fixed-size events (a [`FlightKind`] plus the thread's
//! rank/epoch context, the fabric CID and retry generation, and two
//! free-form arguments) into one of [`crate::metrics::SHARDS`] per-thread
//! rings. Writers never block: a shard claims a sequence number with one
//! `fetch_add` and publishes the slot seqlock-style (stamp cleared, payload
//! stored, stamp set with `Release`), so a reader that races a writer
//! simply discards the torn slot. The ring keeps the last `capacity`
//! events per shard and overwrites the oldest.
//!
//! A *trip* is the "eject the tape" moment: chaos injected a fault, a
//! retry budget exhausted, a CRC mismatch surfaced, or recovery/rollback
//! began. The first trip atomically wins and — when a dump path has been
//! set — writes the whole ring (plus a [`crate::MetricsSnapshot`] of the
//! owning registry) to a self-contained JSONL file for `nvmecr-doctor`.

use crate::metrics::{slot, SHARDS};
use crate::{context, Registry};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Weak;
use std::time::Instant;

/// Events kept per shard (power of two). 16 shards x 4096 events covers
/// the "last few thousand commands" window the post-mortem needs.
pub const RING_CAPACITY: usize = 4096;

/// Schema tag written into every dump header.
pub const DUMP_SCHEMA: &str = "nvmecr-flight-v1";

/// What happened. Codes are stable wire values (dumps must be readable by
/// a doctor built from a different commit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u64)]
pub enum FlightKind {
    /// Fabric: a command capsule was posted (initial or re-post).
    Submit = 1,
    /// Fabric: a completion matched its pending command.
    Complete = 2,
    /// Fabric: a failed command was queued for another attempt.
    Retry = 3,
    /// Fabric: a pending command exceeded its completion deadline.
    Timeout = 4,
    /// Fabric: a completion's payload CRC disagreed with the capsule.
    CrcError = 5,
    /// Fabric: a command ran out of retry budget (trip).
    RetryExhausted = 6,
    /// Fabric: the initiator tore down and re-posted in-flight commands.
    Reconnect = 7,
    /// Chaos: the armed plan injected a fault (trip).
    FaultInjected = 8,
    /// SSD: a shard refused an op with a transient busy.
    ShardBusy = 9,
    /// SSD: a fault killed the shard permanently.
    ShardKill = 10,
    /// SSD: an op hit a shard that is already dead.
    ShardDead = 11,
    /// MicroFs: a WAL record (or coalesced batch) was appended.
    WalAppend = 12,
    /// Replication: an epoch manifest was sealed on the copies.
    EpochCommit = 13,
    /// Replication: a mirrored write batch landed on both copies.
    MirrorWrite = 14,
    /// Replication: the mirror degraded (replica-side error).
    MirrorDegraded = 15,
    /// Replication: a restore rolled back to the last complete epoch
    /// (trip).
    RollbackRestore = 16,
    /// Driver: a rank's storage failed over to a partner domain (trip).
    Failover = 17,
    /// Recorder: a trip fired (argument `a` holds the cause kind's code).
    Trip = 18,
    /// Chaos: a `crash_at_op` rule killed the stack at an exact global
    /// durability-op index (trip; `a` holds the op kind's code, `b` the
    /// global op index).
    CrashPoint = 19,
    /// Chaos: a `crash_in_recovery` rule killed a recovery attempt at an
    /// exact recovery-op index (trip; `a` holds the recovery-op kind's
    /// code, `b` the nested op index).
    RecoveryCrashPoint = 20,
    /// Supervisor: a rank exhausted its recovery budget and was
    /// quarantined (trip; `a` holds the rank, `b` the failure count).
    RecoveryQuarantine = 21,
    /// Supervisor: a quarantined rank began degraded read-only serving
    /// from its replica (`a` holds the rank, `b` the served epoch).
    DegradedServe = 22,
}

impl FlightKind {
    /// Stable wire code.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Decode a wire code.
    pub fn from_code(code: u64) -> Option<FlightKind> {
        use FlightKind::*;
        Some(match code {
            1 => Submit,
            2 => Complete,
            3 => Retry,
            4 => Timeout,
            5 => CrcError,
            6 => RetryExhausted,
            7 => Reconnect,
            8 => FaultInjected,
            9 => ShardBusy,
            10 => ShardKill,
            11 => ShardDead,
            12 => WalAppend,
            13 => EpochCommit,
            14 => MirrorWrite,
            15 => MirrorDegraded,
            16 => RollbackRestore,
            17 => Failover,
            18 => Trip,
            19 => CrashPoint,
            20 => RecoveryCrashPoint,
            21 => RecoveryQuarantine,
            22 => DegradedServe,
            _ => return None,
        })
    }

    /// Snake-case name used in dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Submit => "submit",
            FlightKind::Complete => "complete",
            FlightKind::Retry => "retry",
            FlightKind::Timeout => "timeout",
            FlightKind::CrcError => "crc_error",
            FlightKind::RetryExhausted => "retry_exhausted",
            FlightKind::Reconnect => "reconnect",
            FlightKind::FaultInjected => "fault_injected",
            FlightKind::ShardBusy => "shard_busy",
            FlightKind::ShardKill => "shard_kill",
            FlightKind::ShardDead => "shard_dead",
            FlightKind::WalAppend => "wal_append",
            FlightKind::EpochCommit => "epoch_commit",
            FlightKind::MirrorWrite => "mirror_write",
            FlightKind::MirrorDegraded => "mirror_degraded",
            FlightKind::RollbackRestore => "rollback_restore",
            FlightKind::Failover => "failover",
            FlightKind::Trip => "trip",
            FlightKind::CrashPoint => "crash_point",
            FlightKind::RecoveryCrashPoint => "recovery_crash_point",
            FlightKind::RecoveryQuarantine => "recovery_quarantine",
            FlightKind::DegradedServe => "degraded_serve",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global publication order (per-shard sequence; unique within a
    /// shard, used with `ts_ns` to order the merged stream).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Rank context at record time ([`context::UNSET`] when absent).
    pub rank: u64,
    /// Epoch context at record time ([`context::UNSET`] when absent).
    pub epoch: u64,
    /// Fabric command id (0 for non-command events).
    pub cid: u64,
    /// Retry generation / attempt number (0 for non-command events).
    pub gen: u64,
    /// Kind-specific argument (bytes, site code, epoch, latency...).
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

impl FlightEvent {
    /// One JSONL line for dumps (`rank`/`epoch` omitted when unset).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"ev\":\"{}\",\"seq\":{},\"ts_ns\":{}",
            self.kind.name(),
            self.seq,
            self.ts_ns
        );
        if self.rank != context::UNSET {
            out.push_str(&format!(",\"rank\":{}", self.rank));
        }
        if self.epoch != context::UNSET {
            out.push_str(&format!(",\"epoch\":{}", self.epoch));
        }
        out.push_str(&format!(
            ",\"cid\":{},\"gen\":{},\"a\":{},\"b\":{}}}",
            self.cid, self.gen, self.a, self.b
        ));
        out
    }
}

/// Words per slot: [stamp, ts, kind, rank, epoch, cid|gen<<48, a, b].
const SLOT_WORDS: usize = 8;
/// CID occupies the low 48 bits of word 5; the generation the high 16.
const GEN_SHIFT: u32 = 48;

/// One thread's ring. Aligned to a cache line: threads take round-robin
/// neighbouring shards, and every event claims its slot with a
/// `fetch_add` on `seq`, so two shards sharing a line would bounce it
/// between their threads' cores on every event.
#[repr(align(64))]
struct Shard {
    /// Next sequence number to claim; slot = seq % capacity. Starts at 1
    /// so stamp 0 always means "never written".
    seq: AtomicU64,
    slots: Vec<[AtomicU64; SLOT_WORDS]>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            seq: AtomicU64::new(1),
            slots: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }
}

/// The always-on event ring. One per [`Registry`]; resolve with
/// [`crate::Telemetry::recorder`] and keep the `Arc` on the hot path.
pub struct FlightRecorder {
    shards: Vec<Shard>,
    origin: Instant,
    /// Recording gate — only ever cleared for A/B overhead measurement.
    enabled: AtomicBool,
    trips: AtomicU64,
    tripped: AtomicBool,
    dump_path: Mutex<Option<PathBuf>>,
    /// Backref to the owning registry so a dump can embed its metrics.
    registry: Mutex<Weak<Registry>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default per-shard capacity.
    pub fn new() -> Self {
        Self::with_capacity(RING_CAPACITY)
    }

    /// A recorder keeping `capacity` events per shard (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        FlightRecorder {
            shards: (0..SHARDS).map(|_| Shard::new(capacity)).collect(),
            origin: crate::now(),
            enabled: AtomicBool::new(true),
            trips: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            dump_path: Mutex::new(None),
            registry: Mutex::new(Weak::new()),
        }
    }

    pub(crate) fn set_registry(&self, registry: Weak<Registry>) {
        *self.registry.lock() = registry;
    }

    /// Turn recording on or off (off exists for overhead A/B runs).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Where the first trip dumps to. Unset (the default) means trips
    /// count but never touch the filesystem — tests stay quiet.
    pub fn set_dump_path<P: Into<PathBuf>>(&self, path: P) {
        *self.dump_path.lock() = Some(path.into());
    }

    /// Trips seen so far.
    pub fn trip_count(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Record one event, stamping the thread's (rank, epoch) context.
    #[inline]
    pub fn record(&self, kind: FlightKind, cid: u64, gen: u64, a: u64, b: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.record_at(crate::now(), kind, cid, gen, a, b);
        }
    }

    /// [`FlightRecorder::record`] at a `stamp` the caller already read, so
    /// a command boundary's histogram and event share one clock read.
    #[inline]
    pub fn record_at(&self, stamp: Instant, kind: FlightKind, cid: u64, gen: u64, a: u64, b: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let ts = crate::ns_between(self.origin, stamp);
        let shard = &self.shards[slot()];
        let seq = shard.seq.fetch_add(1, Ordering::Relaxed);
        let s = &shard.slots[(seq as usize) & (shard.slots.len() - 1)];
        // Seqlock publish: clear the stamp, store the payload, then set
        // the stamp to this sequence with Release. A reader seeing the
        // same non-zero stamp before and after its payload loads knows
        // the slot was stable.
        s[0].store(0, Ordering::Release);
        s[1].store(ts, Ordering::Relaxed);
        s[2].store(kind.code(), Ordering::Relaxed);
        s[3].store(context::raw_rank(), Ordering::Relaxed);
        s[4].store(context::raw_epoch(), Ordering::Relaxed);
        s[5].store(
            (cid & ((1 << GEN_SHIFT) - 1)) | (gen << GEN_SHIFT),
            Ordering::Relaxed,
        );
        s[6].store(a, Ordering::Relaxed);
        s[7].store(b, Ordering::Relaxed);
        s[0].store(seq, Ordering::Release);
    }

    /// Register an anomaly that justifies ejecting the tape. The event
    /// itself must already have been recorded by the caller; `cause` only
    /// labels the dump. The first trip wins and writes the dump (when a
    /// path is set); later trips just count.
    pub fn trip(&self, cause: FlightKind, site: u64) {
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.record(FlightKind::Trip, 0, 0, cause.code(), site);
        if self.tripped.swap(true, Ordering::AcqRel) {
            return;
        }
        let path = self.dump_path.lock().clone();
        if let Some(path) = path {
            // Best-effort: a failing dump must never take down the data
            // path it is trying to diagnose.
            let _ = self.dump_to(&path, cause);
        }
    }

    /// Drain a consistent-enough view of every shard's ring, oldest
    /// first. Slots being overwritten concurrently are skipped.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for s in &shard.slots {
                let stamp = s[0].load(Ordering::Acquire);
                if stamp == 0 {
                    continue;
                }
                let ts = s[1].load(Ordering::Relaxed);
                let kind = s[2].load(Ordering::Relaxed);
                let rank = s[3].load(Ordering::Relaxed);
                let epoch = s[4].load(Ordering::Relaxed);
                let cg = s[5].load(Ordering::Relaxed);
                let a = s[6].load(Ordering::Relaxed);
                let b = s[7].load(Ordering::Relaxed);
                if s[0].load(Ordering::Acquire) != stamp {
                    continue; // torn: a writer overtook us mid-read
                }
                let Some(kind) = FlightKind::from_code(kind) else {
                    continue;
                };
                out.push(FlightEvent {
                    seq: stamp,
                    ts_ns: ts,
                    kind,
                    rank,
                    epoch,
                    cid: cg & ((1 << GEN_SHIFT) - 1),
                    gen: cg >> GEN_SHIFT,
                    a,
                    b,
                });
            }
        }
        out.sort_by_key(|e| (e.ts_ns, e.seq));
        out
    }

    /// Serialize the ring (and the owning registry's metrics, when
    /// reachable) as a self-contained JSONL dump.
    pub fn dump_jsonl(&self, cause: FlightKind) -> String {
        let events = self.events();
        let mut out = format!(
            "{{\"schema\":\"{}\",\"cause\":\"{}\",\"trips\":{},\"events\":{}}}\n",
            DUMP_SCHEMA,
            cause.name(),
            self.trip_count(),
            events.len()
        );
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        if let Some(registry) = self.registry.lock().upgrade() {
            let snap = registry.snapshot();
            for (name, v) in &snap.counters {
                out.push_str(&format!("{{\"counter\":\"{name}\",\"value\":{v}}}\n"));
            }
            for (name, g) in &snap.gauges {
                out.push_str(&format!(
                    "{{\"gauge\":\"{name}\",\"value\":{},\"peak\":{}}}\n",
                    g.value, g.peak
                ));
            }
            for (name, h) in &snap.histograms {
                out.push_str(&format!(
                    "{{\"histogram\":\"{name}\",\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}\n",
                    h.count,
                    h.percentile(50.0),
                    h.percentile(99.0),
                    if h.count == 0 { 0 } else { h.max }
                ));
            }
        }
        out
    }

    /// Write [`dump_jsonl`](Self::dump_jsonl) to `path`.
    pub fn dump_to(&self, path: &Path, cause: FlightKind) -> std::io::Result<()> {
        std::fs::write(path, self.dump_jsonl(cause))
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("trips", &self.trip_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_claims_sequence_numbers_on_its_own_cache_line() {
        let r = FlightRecorder::with_capacity(8);
        let lines: std::collections::HashSet<usize> = r
            .shards
            .iter()
            .map(|s| std::ptr::from_ref(&s.seq) as usize / 64)
            .collect();
        assert_eq!(lines.len(), SHARDS);
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let r = FlightRecorder::with_capacity(64);
        r.record(FlightKind::Submit, 7, 1, 4096, 0);
        r.record(FlightKind::Complete, 7, 1, 1200, 0);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, FlightKind::Submit);
        assert_eq!(ev[0].cid, 7);
        assert_eq!(ev[0].gen, 1);
        assert_eq!(ev[0].a, 4096);
        assert_eq!(ev[1].kind, FlightKind::Complete);
        assert!(ev[0].ts_ns <= ev[1].ts_ns);
    }

    #[test]
    fn context_is_stamped_on_events() {
        let r = FlightRecorder::with_capacity(8);
        {
            let _rank = context::with_rank(5);
            let _epoch = context::with_epoch(2);
            r.record(FlightKind::WalAppend, 0, 0, 128, 1);
        }
        r.record(FlightKind::Reconnect, 0, 0, 0, 0);
        let ev = r.events();
        assert_eq!((ev[0].rank, ev[0].epoch), (5, 2));
        assert_eq!((ev[1].rank, ev[1].epoch), (context::UNSET, context::UNSET));
        let line = ev[0].to_json();
        assert!(line.contains("\"rank\":5"), "{line}");
        assert!(line.contains("\"epoch\":2"), "{line}");
        assert!(!ev[1].to_json().contains("\"rank\""));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..100u64 {
            r.record(FlightKind::Submit, i, 0, 0, 0);
        }
        let ev = r.events();
        // One thread -> one shard -> at most 8 survivors, the newest.
        assert_eq!(ev.len(), 8);
        assert!(ev.iter().all(|e| e.cid >= 92));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::with_capacity(8);
        r.set_enabled(false);
        r.record(FlightKind::Submit, 1, 0, 0, 0);
        assert!(r.events().is_empty());
        r.set_enabled(true);
        r.record(FlightKind::Submit, 2, 0, 0, 0);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn trip_counts_and_dump_parses() {
        let r = FlightRecorder::with_capacity(16);
        r.record(FlightKind::CrcError, 9, 2, 0, 0);
        r.trip(FlightKind::CrcError, 0);
        r.trip(FlightKind::CrcError, 0);
        assert_eq!(r.trip_count(), 2);
        let dump = r.dump_jsonl(FlightKind::CrcError);
        let mut lines = dump.lines();
        let header = crate::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(DUMP_SCHEMA));
        assert_eq!(header.get("cause").unwrap().as_str(), Some("crc_error"));
        for line in lines {
            crate::json::parse(line).unwrap();
        }
        assert!(dump.contains("\"ev\":\"crc_error\""));
        assert!(dump.contains("\"ev\":\"trip\""));
    }

    #[test]
    fn kind_codes_roundtrip() {
        for code in 1..=22u64 {
            let k = FlightKind::from_code(code).unwrap();
            assert_eq!(k.code(), code);
            assert!(!k.name().is_empty());
        }
        assert_eq!(FlightKind::from_code(0), None);
        assert_eq!(FlightKind::from_code(99), None);
    }
}
