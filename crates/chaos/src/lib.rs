//! Deterministic fault injection: one gate, one plan.
//!
//! The chaos subsystem injects faults at the *real* byte path — NVMf
//! capsules, SSD shard I/O, capacitor-backed drains, WAL appends — and
//! kills the stack at exact durability or recovery operations. Every hook
//! is one call, [`ChaosHandle::fire`], naming a [`Site`]:
//!
//! - A [`ChaosHandle`] is threaded through configs (fabric, ssd, microfs,
//!   core). Cloning is cheap (one `Arc`).
//! - Disarmed, `fire` is a single relaxed atomic load returning `None`.
//! - Armed with a [`FaultPlan`], every call consumes one op index and
//!   every decision is a pure function of `(seed, rule, site, op index,
//!   attempt)`: the same plan over the same operation order injects
//!   exactly the same faults, with no global RNG state to race on.
//!
//! A site's [`Plane`] fixes the op index it advances. A fault site keeps
//! its own; the six durability sites share one (the crash universe: "crash
//! at op k" names one point whatever mix of ops precedes it), and so do
//! the seven recovery sites (the nested universe inside recovery). A plan
//! is a seed plus rules — a site or a whole plane, a trigger (rate, exact
//! index, dead-from-index, optionally first attempt only), and the
//! [`FaultAction`] to apply. A crash is an action like any other.

#![forbid(unsafe_code)]

use std::fmt;
use std::mem::discriminant;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use telemetry::{Counter, FlightKind, FlightRecorder, Telemetry};

/// The family a [`Site`] belongs to: which op index it advances and which
/// flight event a firing records (`a` = site code, `b` = op index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Data-path faults. Each site has its own op index; a hit counts on
    /// `chaos.injected` and records [`FlightKind::FaultInjected`].
    Fault,
    /// Durability ops of the running workload, on one shared index; a
    /// firing records [`FlightKind::CrashPoint`].
    Durability,
    /// Replay/rescan ops of recovery itself, on one shared index; a firing
    /// records [`FlightKind::RecoveryCrashPoint`].
    Recovery,
}

impl Plane {
    fn flight_kind(self) -> FlightKind {
        match self {
            Plane::Fault => FlightKind::FaultInjected,
            Plane::Durability => FlightKind::CrashPoint,
            Plane::Recovery => FlightKind::RecoveryCrashPoint,
        }
    }
}

/// One row of the site table: the plane, the wire code (unique within the
/// plane), the name used in dumps, and the actions the site's hook applies.
struct SiteInfo {
    plane: Plane,
    code: u64,
    name: &'static str,
    actions: &'static [FaultAction],
}

/// Declare [`Site`], [`Site::ALL`] and the site table from one listing:
/// `Variant = plane code "name" [actions];`.
macro_rules! sites {
    ($($(#[$doc:meta])* $site:ident = $plane:ident $code:literal $name:literal
        [$($action:ident $({$field:ident})?),*];)*) => {
        /// A location where the gate can fire. Each site has a plane, a
        /// stable wire code and name, and the actions its hook applies.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Site {
            $($(#[$doc])* $site,)*
        }

        impl Site {
            /// Every site, in table order.
            pub const ALL: [Site; SITES] = [$(Site::$site,)*];
        }

        /// The site table, indexed by `Site as usize`.
        const TABLE: [SiteInfo; SITES] = [$(SiteInfo {
            plane: Plane::$plane,
            code: $code,
            name: $name,
            actions: &[$(FaultAction::$action $({ $field: 0 })?),*],
        },)*];
    };
}

sites! {
    /// Command capsule leaving the initiator (before it is queued).
    CapsuleTx = Fault 0x01 "capsule_tx" [DropCapsule, DuplicateCapsule, CorruptPayload];
    /// Response capsule arriving at the initiator (as the window drains it).
    CapsuleRx = Fault 0x02 "capsule_rx" [DropCapsule, CorruptPayload];
    /// Connection-level failure observed by the initiator for one command.
    ConnReset = Fault 0x03 "conn_reset" [ResetConnection];
    /// SSD shard servicing a read/write.
    ShardIo = Fault 0x04 "shard_io" [ShardBusy, KillShard];
    /// Capacitor-backed flush during a simulated power failure.
    CapacitorFlush = Fault 0x05 "capacitor_flush" [PowerCut {drain_writes}];
    /// microfs WAL appending a freshly encoded record (torn-write fault).
    WalAppend = Fault 0x06 "wal_append" [TornWrite {keep_bytes}];
    /// Latent bit rot surfacing on an SSD shard read (exercises scrub).
    ReplicaBitRot = Fault 0x07 "replica_bit_rot" [CorruptPayload];
    /// microfs WAL appending a freshly encoded record, as a durability op.
    WalRecord = Durability 1 "wal_append" [Crash];
    /// One block-device write element reaching the NVMf data plane.
    BlockWrite = Durability 2 "block_write" [Crash];
    /// One mirrored write element (primary + replica copies).
    MirrorWrite = Durability 3 "mirror_write" [Crash];
    /// Epoch manifest body landing in the manifest region.
    ManifestBody = Durability 4 "manifest_body" [Crash];
    /// Epoch commit record landing: the point of no return for an epoch.
    CommitRecord = Durability 5 "commit_record" [Crash];
    /// Discard/trim of freed blocks on the mirror.
    Discard = Durability 6 "discard" [Crash];
    /// microfs mount: superblock decode + latest-snapshot load.
    SnapshotLoad = Recovery 1 "snapshot_load" [Crash];
    /// microfs mount: WAL region scan (CRC-framed record walk).
    LogScan = Recovery 2 "log_scan" [Crash];
    /// microfs replay: one WAL record applied to the in-memory tree.
    ReplayApply = Recovery 3 "replay_apply" [Crash];
    /// nvmecr recovery: manifest-slot scan of the replica tail region.
    ManifestScan = Recovery 4 "manifest_scan" [Crash];
    /// `Mirror::rescan`: one chunk of the primary re-read for CRC audit.
    RescanChunk = Recovery 5 "rescan_chunk" [Crash];
    /// `materialize_chain`: one delta-epoch chain step resolved.
    ChainMaterialize = Recovery 6 "chain_materialize" [Crash];
    /// Replica restore: one CRC-verified extent copied back.
    RestoreExtent = Recovery 7 "restore_extent" [Crash];
}

/// Number of [`Site`]s (the index space of [`Report::per_site`]).
pub const SITES: usize = 20;

/// Op indices: one per fault site, then one shared by the durability
/// plane and one shared by the recovery plane.
const COUNTERS: usize = 9;

impl Site {
    fn info(self) -> &'static SiteInfo {
        &TABLE[self as usize]
    }

    /// The plane this site belongs to.
    pub fn plane(self) -> Plane {
        self.info().plane
    }

    /// Snake-case name used in dumps and reports.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Stable wire code carried in flight-recorder events (`a`), unique
    /// within the site's plane.
    pub fn code(self) -> u64 {
        self.info().code
    }

    /// Whether the hook at this site applies `action`.
    fn applies(self, action: FaultAction) -> bool {
        let d = discriminant(&action);
        self.info().actions.iter().any(|a| discriminant(a) == d)
    }

    /// The sites of `plane`, in table order.
    pub fn in_plane(plane: Plane) -> impl Iterator<Item = Site> {
        Site::ALL.into_iter().filter(move |s| s.plane() == plane)
    }

    /// Decode a flight event back into its site: the event kind names the
    /// plane, `code` (the event's `a`) the site within it.
    pub fn from_flight(kind: FlightKind, code: u64) -> Option<Site> {
        let same = |s: &Site| s.plane().flight_kind() == kind && s.code() == code;
        Site::ALL.into_iter().find(same)
    }

    /// The op index this site advances: its own on the fault plane, the
    /// plane's shared one on the durability and recovery planes.
    fn counter(self) -> usize {
        match self.plane() {
            Plane::Fault => self as usize,
            Plane::Durability => COUNTERS - 2,
            Plane::Recovery => COUNTERS - 1,
        }
    }
}

/// What to do when a rule fires at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Drop the capsule: it never reaches the peer (command or response lost).
    DropCapsule,
    /// Deliver the capsule twice (exercises idempotent replay on the target).
    DuplicateCapsule,
    /// Flip bits in the encoded payload (exercises wire CRC).
    CorruptPayload,
    /// Tear the connection down mid-command (exercises reconnect).
    ResetConnection,
    /// Shard returns a transient busy error (exercises retry/backoff).
    ShardBusy,
    /// Shard dies permanently (exercises failover to the partner domain).
    KillShard,
    /// Power cut mid-drain: the capacitor flushes only `drain_writes` staged
    /// writes before the lights go out; the rest are lost.
    PowerCut { drain_writes: u32 },
    /// Torn WAL append: only the first `keep_bytes` of the record hit the
    /// device before the failure (exercises CRC-framed scan truncation).
    TornWrite { keep_bytes: u32 },
    /// The process dies at this op: the op fails before any byte lands.
    Crash,
}

/// When a rule fires, as a function of its site's op index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// With probability `p` per op, deterministically hashed per index.
    Rate(f64),
    /// At exactly op index `n`.
    At(u64),
    /// At op index `n` and every later one: after a crash nothing
    /// persists, the universe is dead. Only op `n` records and trips.
    DeadFrom(u64),
}

/// One rule of a plan: the sites it covers (one site, or every site of a
/// plane), when it fires, and what it does.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    plane: Plane,
    site: Option<Site>,
    trigger: Trigger,
    action: FaultAction,
    /// Inert once [`ChaosHandle::begin_attempt`] starts attempt 2, so a
    /// supervisor's restart after the kill runs clean.
    first_attempt_only: bool,
}

impl Rule {
    fn at(site: Site, trigger: Trigger, action: FaultAction) -> Rule {
        Rule {
            plane: site.plane(),
            site: Some(site),
            trigger,
            action,
            first_attempt_only: false,
        }
    }

    /// Every op of `plane` from index `k` on dies.
    fn crash(plane: Plane, k: u64, first_attempt_only: bool) -> Rule {
        Rule {
            plane,
            site: None,
            trigger: Trigger::DeadFrom(k),
            action: FaultAction::Crash,
            first_attempt_only,
        }
    }

    fn covers(&self, site: Site) -> bool {
        site.plane() == self.plane && (self.site.is_none() || self.site == Some(site))
    }
}

/// A seeded, declarative schedule of faults and crashes.
///
/// Two plans with the same seed and rules make identical decisions for the
/// same sequence of operations. A plan without rules fires nothing but
/// still counts every op, which is how a universe is enumerated.
///
/// Every builder panics when a site it covers cannot apply its action:
/// the hook would ignore it while the gate counted a phantom injection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    fn rule(mut self, rule: Rule) -> Self {
        let refused = Site::ALL
            .into_iter()
            .find(|&s| rule.covers(s) && !s.applies(rule.action));
        if let Some(site) = refused {
            panic!(
                "fault action {:?} cannot be applied at site {}",
                rule.action,
                site.name()
            );
        }
        self.rules.push(rule);
        self
    }

    /// Fire `action` at `site` with probability `rate` per operation.
    pub fn with_rate(self, site: Site, action: FaultAction, rate: f64) -> Self {
        self.rule(Rule::at(site, Trigger::Rate(rate), action))
    }

    /// Fire `action` exactly at per-site operation index `op`.
    pub fn at_op(self, site: Site, action: FaultAction, op: u64) -> Self {
        self.rule(Rule::at(site, Trigger::At(op), action))
    }

    /// Kill the stack at exactly durability-op index `k`: that op records a
    /// [`FlightKind::CrashPoint`] event, trips the flight recorder, and
    /// fails; every durability op after it fails too.
    pub fn crash_at_op(self, k: u64) -> Self {
        self.rule(Rule::crash(Plane::Durability, k, false))
    }

    /// Kill the **first** recovery attempt at exactly recovery-op index
    /// `j`: that op records a [`FlightKind::RecoveryCrashPoint`] event,
    /// trips the flight recorder, and fails, and so does every recovery op
    /// after it in the same attempt. Later attempts run clean.
    pub fn crash_in_recovery(self, j: u64) -> Self {
        self.rule(Rule::crash(Plane::Recovery, j, true))
    }

    /// The first rule that fires for op `n` at `site` during `attempt`:
    /// its action, and whether this op is the firing's onset (the one op
    /// that records and trips).
    fn decide(&self, site: Site, n: u64, attempt: u64) -> Option<(FaultAction, bool)> {
        self.rules.iter().enumerate().find_map(|(idx, rule)| {
            if !rule.covers(site) || (rule.first_attempt_only && attempt > 1) {
                return None;
            }
            let onset = match rule.trigger {
                Trigger::At(k) => (n == k).then_some(true),
                Trigger::DeadFrom(k) => (n >= k).then_some(n == k),
                Trigger::Rate(p) => {
                    // Site stream (the wire code on the fault plane) and rule
                    // index keep every (site, rule) coin independent.
                    let h = splitmix64(
                        self.seed
                            ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
                            ^ n.wrapping_mul(0xCA5A_8268_85B6_B2D1),
                    );
                    (unit(h) < p).then_some(true)
                }
            };
            onset.map(|onset| (rule.action, onset))
        })
    }
}

/// SplitMix64: tiny, high-quality 64-bit mixer. Used as a stateless hash so
/// decisions are pure functions of (seed, site, op) — no shared RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a decision hash to [0, 1).
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Snapshot of the gate's counters since the last [`ChaosHandle::arm`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Ops seen per site, indexed by `Site as usize`.
    pub per_site: [u64; SITES],
    /// Site and op index of the first firing, if any rule fired.
    pub fired: Option<(Site, u64)>,
    /// Attempts begun since arming (1-based).
    pub attempts: u64,
}

impl Report {
    /// Ops counted at one site.
    pub fn count(&self, site: Site) -> u64 {
        self.per_site[site as usize]
    }

    /// Ops counted across a plane (on a crash plane: the universe size).
    pub fn total(&self, plane: Plane) -> u64 {
        Site::in_plane(plane).map(|s| self.count(s)).sum()
    }
}

#[derive(Default)]
struct State {
    plan: FaultPlan,
    /// Next op index per counter (see [`Site::counter`]).
    next: [u64; COUNTERS],
    per_site: [u64; SITES],
    fired: Option<(Site, u64)>,
    attempt: u64,
    injected: Option<Arc<Counter>>,
    recorder: Option<Arc<FlightRecorder>>,
}

#[derive(Default)]
struct Inner {
    armed: AtomicBool,
    state: Mutex<State>,
}

/// Cheap, cloneable hook handle threaded through layer configs.
///
/// Disabled (the default): `fire` is one relaxed atomic load. Armed: each
/// call takes a short lock to bump its op counter and evaluates the plan
/// deterministically.
#[derive(Clone, Default)]
pub struct ChaosHandle {
    inner: Arc<Inner>,
}

impl fmt::Debug for ChaosHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosHandle")
            .field("armed", &self.is_armed())
            .finish()
    }
}

impl ChaosHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `plan`. Every op counter restarts from zero and the attempt
    /// number from 1, so arming the same plan twice replays the same
    /// sequence. Injected faults are counted on `telemetry`'s
    /// `chaos.injected` counter; firings record into its flight recorder.
    pub fn arm(&self, plan: FaultPlan, telemetry: &Telemetry) {
        *self.inner.state.lock() = State {
            plan,
            attempt: 1,
            injected: Some(telemetry.counter("chaos.injected")),
            recorder: Some(telemetry.recorder()),
            ..State::default()
        };
        self.inner.armed.store(true, Ordering::Release);
    }

    /// Disarm: subsequent `fire` calls return `None` after one atomic
    /// load. The counters stay readable via [`ChaosHandle::report`] until
    /// the next arm.
    pub fn disarm(&self) {
        self.inner.armed.store(false, Ordering::Release);
    }

    pub fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// Consume the next op index of `site`'s counter and report what, if
    /// anything, happens to this op. Every call while armed consumes one
    /// index whether or not a rule fires, so the decision for op `n` does
    /// not depend on how many rules fired before it.
    #[inline]
    pub fn fire(&self, site: Site) -> Option<FaultAction> {
        if !self.inner.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.fire_armed(site)
    }

    /// [`ChaosHandle::fire`] past the armed check, kept out of line so the
    /// disarmed hook inlined at each site is the load and a branch.
    #[cold]
    #[inline(never)]
    fn fire_armed(&self, site: Site) -> Option<FaultAction> {
        let mut st = self.inner.state.lock();
        let n = st.next[site.counter()];
        st.next[site.counter()] += 1;
        st.per_site[site as usize] += 1;
        let (action, onset) = st.plan.decide(site, n, st.attempt)?;
        if onset {
            st.fired.get_or_insert((site, n));
            if site.plane() == Plane::Fault {
                if let Some(c) = &st.injected {
                    c.inc();
                }
            }
            if let Some(r) = st.recorder.clone() {
                // Record and trip outside the lock: the dump path reads
                // metrics and touches the filesystem.
                drop(st);
                let kind = site.plane().flight_kind();
                r.record(kind, 0, 0, site.code(), n);
                r.trip(kind, site.code());
            }
        }
        Some(action)
    }

    /// Mark the start of a fresh attempt (a supervisor restarting
    /// recovery). The first attempt is implicit at arm time; after each
    /// call first-attempt-only rules are inert. Ignored while disarmed.
    pub fn begin_attempt(&self) {
        if self.is_armed() {
            self.inner.state.lock().attempt += 1;
        }
    }

    /// Whether the armed plan kills only the first attempt — a restart
    /// under it re-enters recovery past a kill.
    pub fn kills_first_attempt(&self) -> bool {
        self.is_armed()
            && (self.inner.state.lock().plan.rules)
                .iter()
                .any(|r| r.first_attempt_only)
    }

    /// Snapshot the counters.
    pub fn report(&self) -> Report {
        let st = self.inner.state.lock();
        Report {
            per_site: st.per_site,
            fired: st.fired,
            attempts: st.attempt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FaultAction::*;

    fn armed(plan: FaultPlan) -> (ChaosHandle, Telemetry) {
        let (h, t) = (ChaosHandle::new(), Telemetry::new());
        h.arm(plan, &t);
        (h, t)
    }

    fn collect(h: &ChaosHandle, site: Site, n: usize) -> Vec<Option<FaultAction>> {
        (0..n).map(|_| h.fire(site)).collect()
    }

    /// `(op index, action)` of every firing among the next `n` ops at `site`.
    fn hits(h: &ChaosHandle, site: Site, n: u64) -> Vec<(u64, FaultAction)> {
        (0..n)
            .filter_map(|i| h.fire(site).map(|a| (i, a)))
            .collect()
    }

    /// The op indices at which `action` fired.
    fn indices(hits: &[(u64, FaultAction)], action: FaultAction) -> Vec<u64> {
        hits.iter().filter(|h| h.1 == action).map(|h| h.0).collect()
    }

    /// Flight events of `kind` as `(a, b)` pairs.
    fn events(t: &Telemetry, kind: FlightKind) -> Vec<(u64, u64)> {
        let events = t.recorder().events();
        events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.a, e.b))
            .collect()
    }

    /// Disarmed, no site of `plane` fires or counts.
    fn assert_silent_when_disarmed(plane: Plane) {
        let h = ChaosHandle::new();
        assert!(Site::in_plane(plane).all(|s| h.fire(s).is_none()));
        assert_eq!(
            h.report(),
            Report::default(),
            "disarmed ops are not counted"
        );
    }

    /// A plan without rules counts `rounds` ops at every site of `plane`
    /// and never fires.
    fn assert_counts_without_firing(plane: Plane, rounds: u64) {
        let (h, t) = armed(FaultPlan::new(0));
        for _ in 0..rounds {
            assert!(Site::in_plane(plane).all(|s| h.fire(s).is_none()));
        }
        h.disarm();
        let report = h.report();
        assert!(Site::in_plane(plane).all(|s| report.count(s) == rounds));
        let sites = Site::in_plane(plane).count() as u64;
        assert_eq!(report.total(plane), rounds * sites);
        assert_eq!((report.fired, t.recorder().trip_count()), (None, 0));
    }

    /// A dead-from-`k` crash rule covering `site`'s plane: ops before `k`
    /// survive, op `k` records one event of `kind` and trips once, and
    /// every later op dies too.
    fn assert_dead_from(h: &ChaosHandle, t: &Telemetry, site: Site, k: u64, kind: FlightKind) {
        let dead: Vec<bool> = (0..k + 3).map(|_| h.fire(site).is_some()).collect();
        assert!(
            dead.iter().enumerate().all(|(n, &d)| d == (n as u64 >= k)),
            "{dead:?}"
        );
        assert_eq!(h.report().fired, Some((site, k)));
        assert_eq!(
            t.recorder().trip_count(),
            1,
            "only op k trips, not the dead tail"
        );
        assert_eq!(events(t, kind), [(site.code(), k)]);
    }

    #[test]
    fn disarmed_handle_is_silent() {
        assert_silent_when_disarmed(Plane::Fault);
        assert!(!ChaosHandle::new().is_armed());
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(42).with_rate(Site::CapsuleTx, CorruptPayload, 0.05);
        let run = || collect(&armed(plan.clone()).0, Site::CapsuleTx, 2000);
        assert_eq!(run(), run());
        assert!(run().iter().any(Option::is_some), "5% fires in 2000 ops");
    }

    /// The exact firing indices of fixed plans, pinned as literals: a
    /// change to the hash, the rule order or the per-site indexing shows
    /// up here, not only as self-inconsistency.
    #[test]
    fn decision_streams_are_pinned() {
        let (h, t) = armed(
            FaultPlan::new(42)
                .with_rate(Site::CapsuleTx, CorruptPayload, 0.05)
                .with_rate(Site::ShardIo, ShardBusy, 0.02),
        );
        let tx = hits(&h, Site::CapsuleTx, 2000);
        assert_eq!(
            indices(&tx, CorruptPayload),
            [
                3, 21, 44, 75, 79, 103, 114, 137, 141, 166, 199, 205, 249, 266, 267, 300, 305, 312,
                321, 322, 341, 344, 347, 453, 459, 498, 509, 521, 522, 523, 527, 536, 600, 666,
                697, 724, 834, 866, 888, 939, 949, 961, 971, 1020, 1036, 1042, 1043, 1061, 1086,
                1093, 1094, 1132, 1153, 1164, 1184, 1196, 1223, 1264, 1306, 1355, 1407, 1431, 1438,
                1481, 1505, 1546, 1552, 1624, 1625, 1632, 1641, 1670, 1697, 1768, 1769, 1771, 1798,
                1803, 1810, 1820, 1829, 1838, 1850, 1854, 1887, 1895, 1941, 1964, 1999,
            ]
        );
        let io = hits(&h, Site::ShardIo, 2000);
        assert_eq!(
            indices(&io, ShardBusy),
            [
                48, 64, 119, 141, 319, 335, 379, 517, 538, 548, 584, 627, 656, 664, 745, 848, 869,
                942, 967, 998, 1010, 1098, 1139, 1142, 1148, 1204, 1299, 1306, 1320, 1335, 1380,
                1425, 1433, 1544, 1585, 1614, 1637, 1708, 1712, 1754, 1900, 1920, 1956,
            ]
        );
        let injected = t.counter("chaos.injected").get();
        assert_eq!(injected, (tx.len() + io.len()) as u64);

        let torn = TornWrite { keep_bytes: 3 };
        let (h, _t) = armed(FaultPlan::new(42).at_op(Site::WalAppend, torn, 17));
        assert_eq!(hits(&h, Site::WalAppend, 100), [(17, torn)]);

        // Two rate rules on one site: the first rule that fires wins.
        let (h, _t) = armed(
            FaultPlan::new(42)
                .with_rate(Site::CapsuleTx, DropCapsule, 0.03)
                .with_rate(Site::CapsuleTx, CorruptPayload, 0.03),
        );
        let tx = hits(&h, Site::CapsuleTx, 500);
        assert_eq!(
            indices(&tx, DropCapsule),
            [21, 75, 103, 114, 141, 166, 249, 266, 267, 300, 321, 341, 344, 347, 453, 459]
        );
        let corrupt = [9, 33, 161, 214, 221, 223, 348, 382, 485, 489, 491];
        assert_eq!(indices(&tx, CorruptPayload), corrupt);
    }

    #[test]
    fn different_seeds_diverge() {
        let plan = |seed| FaultPlan::new(seed).with_rate(Site::CapsuleRx, DropCapsule, 0.1);
        let stream = |seed| collect(&armed(plan(seed)).0, Site::CapsuleRx, 1000);
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn at_op_fires_exactly_once() {
        let torn = TornWrite { keep_bytes: 3 };
        let (h, _t) = armed(FaultPlan::new(7).at_op(Site::WalAppend, torn, 5));
        assert_eq!(hits(&h, Site::WalAppend, 20), [(5, torn)]);
        assert_eq!(
            h.fire(Site::WalAppend),
            None,
            "counter moved past the index"
        );
    }

    #[test]
    fn rearm_resets_op_counters() {
        let plan = FaultPlan::new(9).at_op(Site::ConnReset, ResetConnection, 0);
        let (h, t) = armed(plan.clone());
        assert_eq!(
            collect(&h, Site::ConnReset, 2),
            [Some(ResetConnection), None]
        );
        h.arm(plan, &t);
        assert!(h.fire(Site::ConnReset).is_some(), "counters restart on arm");
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let (h, t) = armed(FaultPlan::new(3).with_rate(Site::ShardIo, KillShard, 0.0));
        assert!(collect(&h, Site::ShardIo, 500).iter().all(Option::is_none));
        h.arm(
            FaultPlan::new(3).with_rate(Site::ShardIo, KillShard, 1.0),
            &t,
        );
        assert!(collect(&h, Site::ShardIo, 500).iter().all(Option::is_some));
    }

    #[test]
    fn injected_counter_tracks_hits() {
        let (h, t) = armed(FaultPlan::new(11).with_rate(Site::CapsuleTx, DropCapsule, 1.0));
        collect(&h, Site::CapsuleTx, 17);
        assert_eq!(t.counter("chaos.injected").get(), 17);
    }

    #[test]
    #[should_panic(expected = "DuplicateCapsule cannot be applied at site capsule_rx")]
    fn inapplicable_action_is_refused_not_counted_as_a_phantom_hit() {
        // The response path never duplicates: a plan asking it to would
        // count injections that never happen and hand the doctor a root
        // cause that is not real.
        let _ = FaultPlan::new(1).with_rate(Site::CapsuleRx, DuplicateCapsule, 1.0);
    }

    #[test]
    fn site_codes_roundtrip() {
        for (i, site) in Site::ALL.into_iter().enumerate() {
            assert_eq!(site as usize, i, "ALL is in table order");
            let kind = site.plane().flight_kind();
            assert_eq!(Site::from_flight(kind, site.code()), Some(site));
            assert_eq!(site.applies(Crash), site.plane() != Plane::Fault);
        }
        assert_eq!(Site::from_flight(FlightKind::FaultInjected, 0), None);
        assert_eq!(Site::from_flight(FlightKind::FaultInjected, 0xFF), None);
        assert_eq!(Site::from_flight(FlightKind::Submit, 1), None);
        assert!(Site::WalAppend.applies(TornWrite { keep_bytes: 9 }));
    }

    #[test]
    fn injection_records_and_trips_the_flight_recorder() {
        let (h, t) = armed(FaultPlan::new(13).at_op(Site::ShardIo, KillShard, 2));
        collect(&h, Site::ShardIo, 5);
        assert_eq!(t.recorder().trip_count(), 1);
        let code = Site::ShardIo.code();
        assert_eq!(events(&t, FlightKind::FaultInjected), [(code, 2)]);
        assert_eq!(events(&t, FlightKind::Trip).len(), 1);
        assert_eq!(h.report().fired, Some((Site::ShardIo, 2)));
    }

    #[test]
    fn sites_have_independent_streams() {
        let (h, _t) = armed(
            FaultPlan::new(5)
                .with_rate(Site::CapsuleTx, DropCapsule, 0.3)
                .with_rate(Site::CapsuleRx, DropCapsule, 0.3),
        );
        let a = collect(&h, Site::CapsuleTx, 200);
        assert_ne!(
            a,
            collect(&h, Site::CapsuleRx, 200),
            "sites share no stream"
        );
    }

    #[test]
    fn crash_disarmed_is_silent_and_free() {
        assert_silent_when_disarmed(Plane::Durability);
    }

    #[test]
    fn crash_count_mode_counts_and_never_fires() {
        assert_counts_without_firing(Plane::Durability, 3);
    }

    #[test]
    fn crash_at_op_fires_once_then_universe_stays_dead() {
        let (h, t) = armed(FaultPlan::new(0).crash_at_op(4));
        assert_dead_from(&h, &t, Site::BlockWrite, 4, FlightKind::CrashPoint);
        assert_eq!(t.counter("chaos.injected").get(), 0, "a crash is no fault");
    }

    #[test]
    fn crash_counter_is_global_across_kinds() {
        let (h, _t) = armed(FaultPlan::new(0).crash_at_op(2));
        assert_eq!(h.fire(Site::WalRecord), None);
        assert_eq!(h.fire(Site::BlockWrite), None);
        assert_eq!(h.fire(Site::ShardIo), None, "fault sites are not crash ops");
        assert_eq!(h.fire(Site::CommitRecord), Some(Crash), "third op dies");
        assert_eq!(h.report().total(Plane::Durability), 3);
    }

    #[test]
    fn crash_rearm_resets_the_universe() {
        let (h, t) = armed(FaultPlan::new(0));
        collect(&h, Site::WalRecord, 7);
        h.arm(FaultPlan::new(0), &t);
        assert_eq!(h.report().total(Plane::Durability), 0, "counters restart");
    }

    #[test]
    fn crash_op_codes_roundtrip() {
        let codes: Vec<u64> = Site::in_plane(Plane::Durability).map(Site::code).collect();
        assert_eq!(codes, [1, 2, 3, 4, 5, 6]);
        assert_eq!(Site::from_flight(FlightKind::CrashPoint, 7), None);
    }

    #[test]
    fn recovery_disarmed_is_silent_and_free() {
        assert_silent_when_disarmed(Plane::Recovery);
    }

    #[test]
    fn recovery_count_mode_counts_and_never_fires() {
        assert_counts_without_firing(Plane::Recovery, 2);
    }

    #[test]
    fn crash_in_recovery_kills_first_attempt_only() {
        let (h, t) = armed(FaultPlan::new(0).crash_in_recovery(3));
        assert!(h.kills_first_attempt());
        assert_dead_from(&h, &t, Site::ReplayApply, 3, FlightKind::RecoveryCrashPoint);
        h.begin_attempt();
        assert_eq!(
            collect(&h, Site::ReplayApply, 6),
            [None; 6],
            "attempt 2 runs clean"
        );
        assert_eq!(h.report().attempts, 2);
    }

    #[test]
    fn recovery_counter_is_global_across_kinds() {
        let (h, _t) = armed(FaultPlan::new(0).crash_in_recovery(2));
        assert_eq!(h.fire(Site::SnapshotLoad), None);
        assert_eq!(h.fire(Site::LogScan), None);
        assert_eq!(h.fire(Site::BlockWrite), None, "durability ops count apart");
        assert_eq!(h.fire(Site::RescanChunk), Some(Crash), "third op dies");
        assert_eq!(h.report().total(Plane::Recovery), 3);
    }

    #[test]
    fn recovery_op_codes_roundtrip() {
        let codes: Vec<u64> = Site::in_plane(Plane::Recovery).map(Site::code).collect();
        assert_eq!(codes, [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(Site::from_flight(FlightKind::RecoveryCrashPoint, 8), None);
    }

    #[test]
    fn begin_recovery_attempt_requires_armed_plane() {
        let h = ChaosHandle::new();
        h.begin_attempt();
        assert!(!h.kills_first_attempt());
        h.arm(FaultPlan::new(0), &Telemetry::new());
        assert_eq!(h.report().attempts, 1, "disarmed bump ignored");
        assert!(!h.kills_first_attempt(), "a counting plan kills nothing");
    }

    #[test]
    fn plan_builder_equality() {
        let build = || {
            FaultPlan::new(1)
                .with_rate(Site::CapsuleTx, CorruptPayload, 0.01)
                .at_op(Site::WalAppend, TornWrite { keep_bytes: 8 }, 2)
                .crash_at_op(5)
        };
        assert_eq!(build(), build());
        assert_ne!(build(), FaultPlan::new(1));
    }
}
