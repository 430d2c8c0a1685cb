//! Shard-per-core reactor runtime: run-to-completion event loops that
//! multiplex many rank state machines onto a fixed set of cores. This is
//! the runtime's only executor: every per-rank fan-out (format, mount,
//! recovery, epoch commits, application drives) runs on a [`ReactorPool`].
//!
//! N reactors — one per core — each own a **disjoint** set of ranks
//! (their NVMf connections, QD>1 submission windows, and SSD shard queues
//! travel with the rank's `MicroFs`), and each rank is a [`RankMachine`]
//! advanced by bounded steps instead of a blocked thread, so rank count
//! is independent of thread count. Tasks are dealt to their shards by move
//! before any reactor starts, each shard keeps the tasks it retires, and
//! the pool collects them once every reactor has finished (after the
//! thread scope joins, in threaded mode) — no lock or shared queue sits
//! between reactors.
//!
//! Two execution modes ([`ReactorMode`]):
//!
//! * **Threaded** (the default) — one scoped OS thread per reactor that
//!   received work (`std::thread::scope`), each running its shard to
//!   completion independently while the caller waits, so a pool never
//!   starts more threads than it has tasks. Ranks never share a lock
//!   because ownership is disjoint by construction.
//! * **Deterministic** — every reactor is advanced in lockstep rounds on
//!   the calling thread. Same tasks + same config ⇒ identical step order,
//!   identical flight-recorder event sequence, identical QoS and steal
//!   decisions. This is the mode the determinism tests and the dataplane
//!   bench's mode-parity run use, and how a one-reactor thread budget runs
//!   the runtime's own fan-outs: on the calling thread, so a run nested
//!   inside another drive's step adds no threads.
//!
//! Admission control runs at reactor ingress: each reactor holds a
//! per-tenant token-bucket shard ([`QosConfig`]) sized to `quota / N`,
//! so admitting a step is one branch on core-local state — a noisy
//! tenant exhausts its own bucket and is deferred, never a lock that a
//! well-behaved tenant contends on.
//!
//! Telemetry: `reactor.{loops,events,steal_ns,idle_ns}` and
//! `qos.{throttled,admitted}` (see METRICS.md).

use std::collections::VecDeque;
use std::time::Instant;

use telemetry::Telemetry;

use crate::runtime::RuntimeError;

// ---------------------------------------------------------------------------
// Rank state machines
// ---------------------------------------------------------------------------

/// Outcome of one [`RankMachine::step`].
pub enum MachineStep<R> {
    /// More work remains; the reactor reschedules the rank after the rest
    /// of its shard gets a turn.
    Yield,
    /// The rank retired with its result.
    Done(R),
}

/// One rank's work, expressed as a resumable state machine over its
/// resource `F` (in the runtime, the rank's `MicroFs` — which owns the
/// rank's NVMf connection and submission window, so the whole per-rank
/// stack migrates with the task). A step is a *bounded* unit of work
/// (e.g. one checkpoint chunk): the reactor interleaves steps from many
/// ranks on one thread, so a machine must never block or spin.
pub trait RankMachine<F>: Send {
    /// The machine's result type.
    type Out: Send;

    /// Advance the rank by one bounded unit of work.
    fn step(&mut self, rank: u32, fs: &mut F) -> Result<MachineStep<Self::Out>, RuntimeError>;

    /// Service units (bytes) the next step will consume — the QoS
    /// admission cost. Defaults to 1 unit for non-IO steps.
    fn next_cost(&self) -> u64 {
        1
    }
}

/// One-shot adapter: runs a closure to completion in a single step — how
/// whole-rank operations ride the pool. Multiplexed drives should
/// implement [`RankMachine`] with real per-chunk steps instead.
pub struct FnMachine<G>(Option<G>);

impl<G> FnMachine<G> {
    /// Wrap `g` as a single-step machine.
    pub fn new(g: G) -> Self {
        FnMachine(Some(g))
    }
}

impl<F, G, R> RankMachine<F> for FnMachine<G>
where
    G: FnOnce(u32, &mut F) -> Result<R, RuntimeError> + Send,
    R: Send,
{
    type Out = R;

    fn step(&mut self, rank: u32, fs: &mut F) -> Result<MachineStep<R>, RuntimeError> {
        let g = self.0.take().expect("one-shot machine stepped twice");
        g(rank, fs).map(MachineStep::Done)
    }
}

/// A rank queued for a reactor drive: the rank id, its QoS tenant, the
/// owned resource (connection + window + filesystem travel as one unit),
/// and the machine that advances it. The machine may borrow from the
/// caller for `'a`: a drive returns before anything it borrowed can go.
pub struct RankTask<'a, F, R> {
    /// Global rank.
    pub rank: u32,
    /// QoS tenant the rank bills against.
    pub tenant: u32,
    /// The rank's owned resource.
    pub fs: F,
    /// The state machine driving the rank.
    pub machine: Box<dyn RankMachine<F, Out = R> + 'a>,
}

// ---------------------------------------------------------------------------
// QoS token buckets
// ---------------------------------------------------------------------------

/// Per-tenant admission quotas, enforced as token buckets sharded per
/// reactor (each reactor holds `quota / N` so admission is one branch on
/// core-local state).
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Service units (bytes) granted to each tenant per scheduling round.
    pub quota_per_round: u64,
    /// Bucket capacity — the burst a tenant may accumulate while idle.
    pub burst: u64,
    /// Per-tenant quota overrides `(tenant, quota_per_round)`.
    pub overrides: Vec<(u32, u64)>,
}

impl QosConfig {
    fn quota_of(&self, tenant: u32) -> u64 {
        self.overrides
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(self.quota_per_round, |(_, q)| *q)
    }
}

/// One reactor's bucket shard for one tenant.
#[derive(Debug)]
struct TokenBucket {
    tokens: u64,
    refill: u64,
    burst: u64,
}

impl TokenBucket {
    fn sharded(quota: u64, burst: u64, reactors: usize) -> Self {
        let refill = (quota / reactors as u64).max(1);
        let burst = (burst / reactors as u64).max(refill);
        TokenBucket {
            tokens: burst,
            refill,
            burst,
        }
    }

    fn refill(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.burst);
    }

    /// Admit a step costing `cost` units. A full bucket always admits, so
    /// one oversized step (cost > burst) defers but can never starve.
    fn admit(&mut self, cost: u64) -> bool {
        if self.tokens >= cost || self.tokens >= self.burst {
            self.tokens = self.tokens.saturating_sub(cost);
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor pool
// ---------------------------------------------------------------------------

/// How the pool executes its reactors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactorMode {
    /// All reactors advanced in lockstep rounds on the calling thread:
    /// fully deterministic step order, QoS, and stealing. Rank count is
    /// bounded by memory, not threads.
    Deterministic,
    /// One OS thread per reactor with work, so at most one per task;
    /// shards run independently to completion.
    #[default]
    Threaded,
}

/// Reactor pool configuration.
#[derive(Debug, Clone, Default)]
pub struct ReactorConfig {
    /// Number of reactors. `0` sizes the pool to the available cores
    /// (inside the runtime: to [`crate::RuntimeConfig::reactors`]).
    pub reactors: usize,
    /// Execution mode.
    pub mode: ReactorMode,
    /// Optional per-tenant admission control.
    pub qos: Option<QosConfig>,
}

/// Counters from one drive, also published to the pool's telemetry as
/// `reactor.*` / `qos.*`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveStats {
    /// Scheduling rounds executed, summed over reactors.
    pub loops: u64,
    /// Machine steps executed (completion events processed).
    pub events: u64,
    /// Wall time spent migrating tasks between shards.
    pub steal_ns: u64,
    /// Wall time reactors spent with work pending but nothing admissible.
    pub idle_ns: u64,
    /// Tasks migrated to an idle reactor.
    pub steals: u64,
    /// Steps deferred by a tenant's exhausted bucket.
    pub throttled: u64,
    /// Steps admitted through the QoS gate.
    pub admitted: u64,
}

/// One retired task.
pub struct TaskResult<F, R> {
    /// Global rank.
    pub rank: u32,
    /// The rank's tenant.
    pub tenant: u32,
    /// The rank's resource, returned to the caller.
    pub fs: F,
    /// The machine's result; `None` when its step failed (the first
    /// failure is in [`DriveOutcome::error`]).
    pub result: Option<R>,
    /// Scheduling round in which the task retired — a deterministic
    /// completion time in [`ReactorMode::Deterministic`].
    pub done_round: u64,
}

/// Everything a drive hands back: every task's resource (success or not),
/// the first error, and the counters.
pub struct DriveOutcome<F, R> {
    /// Retired tasks, sorted by rank.
    pub results: Vec<TaskResult<F, R>>,
    /// The first machine error, if any step failed.
    pub error: Option<RuntimeError>,
    /// Drive counters.
    pub stats: DriveStats,
}

/// A fixed-size pool of run-to-completion reactors.
pub struct ReactorPool {
    n: usize,
    mode: ReactorMode,
    qos: Option<QosConfig>,
    telemetry: Telemetry,
}

/// One reactor's core-local state. Everything here is owned, so a shard
/// shares nothing with the other reactors while it runs.
struct Shard<'a, F, R> {
    /// Resident ranks, stepped front to back each round.
    active: VecDeque<RankTask<'a, F, R>>,
    /// Retired ranks, in retirement order.
    done: Vec<TaskResult<F, R>>,
    /// Tenant bucket shards, created on first sight of a tenant.
    buckets: Vec<(u32, TokenBucket)>,
    stats: DriveStats,
    error: Option<RuntimeError>,
}

impl<'a, F: Send, R: Send> Shard<'a, F, R> {
    fn new() -> Self {
        Shard {
            active: VecDeque::new(),
            done: Vec::new(),
            buckets: Vec::new(),
            stats: DriveStats::default(),
            error: None,
        }
    }

    fn admit(&mut self, tenant: u32, cost: u64, qos: &QosConfig, reactors: usize) -> bool {
        let bucket = match self.buckets.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, b)) => b,
            None => {
                self.buckets.push((
                    tenant,
                    TokenBucket::sharded(qos.quota_of(tenant), qos.burst, reactors),
                ));
                &mut self.buckets.last_mut().expect("just pushed").1
            }
        };
        bucket.admit(cost)
    }

    fn retire(&mut self, a: RankTask<'a, F, R>, result: Option<R>, round: u64) {
        self.done.push(TaskResult {
            rank: a.rank,
            tenant: a.tenant,
            fs: a.fs,
            result,
            done_round: round,
        });
    }

    /// One scheduling round: refill this shard's bucket shards, then give
    /// every resident rank one admission check and (if admitted) one step.
    /// Returns whether any step ran.
    fn run_round(&mut self, qos: Option<&QosConfig>, reactors: usize, round: u64) -> bool {
        self.stats.loops += 1;
        for (_, b) in &mut self.buckets {
            b.refill();
        }
        let mut progressed = false;
        let mut i = 0;
        while i < self.active.len() {
            let (tenant, cost) = {
                let a = &self.active[i];
                (a.tenant, a.machine.next_cost())
            };
            if let Some(q) = qos {
                if !self.admit(tenant, cost, q, reactors) {
                    self.stats.throttled += 1;
                    i += 1;
                    continue;
                }
            }
            self.stats.admitted += 1;
            self.stats.events += 1;
            progressed = true;
            let a = &mut self.active[i];
            // Rank trace context: flight-recorder events below this frame
            // are stamped with the rank being stepped.
            let step = {
                let _rank = telemetry::context::with_rank(u64::from(a.rank));
                a.machine.step(a.rank, &mut a.fs)
            };
            match step {
                Ok(MachineStep::Yield) => i += 1,
                Ok(MachineStep::Done(r)) => {
                    let a = self.active.remove(i).expect("index in bounds");
                    self.retire(a, Some(r), round);
                }
                Err(e) => {
                    let a = self.active.remove(i).expect("index in bounds");
                    if self.error.is_none() {
                        self.error = Some(e);
                    }
                    self.retire(a, None, round);
                }
            }
        }
        progressed
    }

    /// Threaded mode: run rounds until every resident rank retired.
    fn run_to_completion(&mut self, qos: Option<&QosConfig>, reactors: usize) {
        let mut round: u64 = 0;
        while !self.active.is_empty() {
            round += 1;
            if !self.run_round(qos, reactors, round) {
                // Everything resident is throttled: the shard is idle
                // until the next refill.
                let t = Instant::now();
                std::thread::yield_now();
                self.stats.idle_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }
}

impl ReactorPool {
    /// A pool configured by `config`, publishing counters to `telemetry`.
    pub fn new(config: &ReactorConfig, telemetry: &Telemetry) -> Self {
        let n = if config.reactors == 0 {
            available_cores()
        } else {
            config.reactors
        };
        ReactorPool {
            n,
            mode: config.mode,
            qos: config.qos.clone(),
            telemetry: telemetry.clone(),
        }
    }

    /// Number of reactors in the pool.
    pub fn reactors(&self) -> usize {
        self.n
    }

    /// Run `f` once for each of `ranks` as one-shot machines on tenant 0
    /// and hand back each result (in rank order) with the first error —
    /// the pool's closure fan-out for whole-rank work.
    pub fn map<R: Send>(
        &self,
        ranks: impl IntoIterator<Item = u32>,
        f: impl Fn(u32) -> Result<R, RuntimeError> + Sync,
    ) -> DriveOutcome<(), R> {
        let f = &f;
        self.drive(
            ranks
                .into_iter()
                .map(|rank| RankTask {
                    rank,
                    tenant: 0,
                    fs: (),
                    machine: Box::new(FnMachine::new(move |rank, _: &mut ()| f(rank))),
                })
                .collect(),
        )
    }

    /// Drive `tasks` to completion and hand every resource back.
    pub fn drive<'a, F: Send, R: Send>(
        &self,
        tasks: Vec<RankTask<'a, F, R>>,
    ) -> DriveOutcome<F, R> {
        let n_tasks = tasks.len();
        let mut shards: Vec<Shard<'a, F, R>> = (0..self.n).map(|_| Shard::new()).collect();
        // Disjoint ownership map: rank i lives on reactor i mod N for the
        // whole drive (modulo stealing, which re-homes it explicitly). The
        // tasks move into their shards before any reactor starts.
        for (i, task) in tasks.into_iter().enumerate() {
            shards[i % self.n].active.push_back(task);
        }
        match self.mode {
            ReactorMode::Deterministic => self.run_deterministic(&mut shards),
            ReactorMode::Threaded => self.run_threaded(&mut shards),
        }
        // Every reactor has finished: collect results and fold stats.
        let mut results = Vec::with_capacity(n_tasks);
        let mut stats = DriveStats::default();
        let mut error = None;
        for s in &mut shards {
            results.append(&mut s.done);
            stats.loops += s.stats.loops;
            stats.events += s.stats.events;
            stats.steal_ns += s.stats.steal_ns;
            stats.idle_ns += s.stats.idle_ns;
            stats.steals += s.stats.steals;
            stats.throttled += s.stats.throttled;
            stats.admitted += s.stats.admitted;
            if error.is_none() {
                error = s.error.take();
            }
        }
        results.sort_by_key(|r| r.rank);
        let t = &self.telemetry;
        t.counter("reactor.loops").add(stats.loops);
        t.counter("reactor.events").add(stats.events);
        t.counter("reactor.steal_ns").add(stats.steal_ns);
        t.counter("reactor.idle_ns").add(stats.idle_ns);
        t.counter("qos.throttled").add(stats.throttled);
        t.counter("qos.admitted").add(stats.admitted);
        DriveOutcome {
            results,
            error,
            stats,
        }
    }

    /// Lockstep rounds over every shard on the calling thread. After each
    /// round, drained reactors steal from the most loaded one.
    fn run_deterministic<F: Send, R: Send>(&self, shards: &mut [Shard<'_, F, R>]) {
        let qos = self.qos.as_ref();
        let mut round: u64 = 0;
        loop {
            round += 1;
            let mut live = false;
            for shard in shards.iter_mut() {
                if shard.active.is_empty() {
                    continue;
                }
                live = true;
                shard.run_round(qos, self.n, round);
            }
            if !live {
                break;
            }
            Self::steal_pass(shards);
        }
    }

    /// Move one task per idle reactor from the back of the most loaded
    /// shard to the back of the idle one. The choice is a pure function of
    /// shard loads, so deterministic runs steal identically.
    fn steal_pass<F: Send, R: Send>(shards: &mut [Shard<'_, F, R>]) {
        for thief in 0..shards.len() {
            if !shards[thief].active.is_empty() {
                continue;
            }
            let Some(donor) = (0..shards.len())
                .filter(|&d| shards[d].active.len() >= 2)
                .max_by_key(|&d| shards[d].active.len())
            else {
                continue;
            };
            let t = Instant::now();
            let Some(task) = shards[donor].active.pop_back() else {
                continue;
            };
            shards[thief].active.push_back(task);
            shards[thief].stats.steals += 1;
            shards[thief].stats.steal_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// One scoped OS thread per reactor that received tasks, each running
    /// its shard to completion. No cross-shard stealing here — disjoint
    /// ownership means no shared state to guard, and the skew the
    /// deterministic mode steals away is bounded by the round-robin
    /// distribution.
    fn run_threaded<F: Send, R: Send>(&self, shards: &mut [Shard<'_, F, R>]) {
        let qos = self.qos.as_ref();
        let n = self.n;
        std::thread::scope(|scope| {
            for shard in shards.iter_mut().filter(|s| !s.active.is_empty()) {
                scope.spawn(move || shard.run_to_completion(qos, n));
            }
        });
    }
}

/// Cores this process may run on (its affinity mask), at least one: what
/// a reactor count of 0 means.
pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine that increments its resource `steps` times, `cost` QoS
    /// units per step.
    struct Counter {
        left: u32,
        cost: u64,
    }

    impl RankMachine<u64> for Counter {
        type Out = u64;

        fn step(&mut self, _rank: u32, acc: &mut u64) -> Result<MachineStep<u64>, RuntimeError> {
            *acc += 1;
            self.left -= 1;
            if self.left == 0 {
                Ok(MachineStep::Done(*acc))
            } else {
                Ok(MachineStep::Yield)
            }
        }

        fn next_cost(&self) -> u64 {
            self.cost
        }
    }

    fn counter_tasks(spec: &[(u32, u32, u64)]) -> Vec<RankTask<'static, u64, u64>> {
        spec.iter()
            .map(|&(rank, steps, cost)| RankTask {
                rank,
                tenant: rank % 2,
                fs: 0u64,
                machine: Box::new(Counter { left: steps, cost }),
            })
            .collect()
    }

    /// `(rank, result, done_round)` of every retired task plus the drive's
    /// `(steals, loops, events)`.
    type Schedule = (Vec<(u32, u64, u64)>, (u64, u64, u64));

    fn drive_counters(pool: &ReactorPool, spec: &[(u32, u32, u64)]) -> Schedule {
        let out = pool.drive(counter_tasks(spec));
        assert!(out.error.is_none());
        let retired = out
            .results
            .iter()
            .map(|r| (r.rank, r.result.unwrap(), r.done_round))
            .collect();
        (
            retired,
            (out.stats.steals, out.stats.loops, out.stats.events),
        )
    }

    fn pool_of(reactors: usize, mode: ReactorMode, t: &Telemetry) -> ReactorPool {
        ReactorPool::new(
            &ReactorConfig {
                reactors,
                mode,
                ..ReactorConfig::default()
            },
            t,
        )
    }

    /// A Threaded drive of `spec` retires every rank with the same result
    /// as the deterministic `schedule`.
    fn assert_threaded_agrees(reactors: usize, spec: &[(u32, u32, u64)], schedule: &Schedule) {
        let threaded = pool_of(reactors, ReactorMode::Threaded, &Telemetry::new());
        let (retired, _) = drive_counters(&threaded, spec);
        let pairs = |v: &[(u32, u64, u64)]| v.iter().map(|&(r, x, _)| (r, x)).collect::<Vec<_>>();
        assert_eq!(pairs(&retired), pairs(&schedule.0));
    }

    #[test]
    fn deterministic_drive_completes_and_repeats_exactly() {
        let t = Telemetry::new();
        let pool = pool_of(3, ReactorMode::Deterministic, &t);
        let spec: Vec<(u32, u32, u64)> = (0..17).map(|r| (r, 1 + r % 5, 1)).collect();
        let a = drive_counters(&pool, &spec);
        let b = drive_counters(&pool, &spec);
        assert_eq!(a, b, "same tasks must retire in identical rounds");
        // The schedule itself, pinned: each rank retires in the round that
        // equals its step count, and no shard drains early enough to steal.
        let retired: Vec<(u32, u64, u64)> = (0..17)
            .map(|r| (r, u64::from(1 + r % 5), u64::from(1 + r % 5)))
            .collect();
        assert_eq!(a, (retired, (0, 15, 48)));
        let total_steps: u64 = spec.iter().map(|&(_, s, _)| u64::from(s)).sum();
        assert_eq!(t.snapshot().counter("reactor.events"), 2 * total_steps);
        assert_threaded_agrees(3, &spec, &a);
    }

    #[test]
    fn threaded_drive_completes_all_tasks() {
        let t = Telemetry::new();
        let pool = ReactorPool::new(
            &ReactorConfig {
                reactors: 4,
                mode: ReactorMode::Threaded,
                ..ReactorConfig::default()
            },
            &t,
        );
        let spec: Vec<(u32, u32, u64)> = (0..64).map(|r| (r, 3, 1)).collect();
        let out = pool.drive(counter_tasks(&spec));
        assert!(out.error.is_none());
        assert_eq!(out.results.len(), 64);
        assert!(out.results.iter().all(|r| r.result == Some(3)));
        assert_eq!(t.snapshot().counter("reactor.events"), 64 * 3);
    }

    /// A one-shot machine noting which thread stepped it.
    fn thread_probe<'a>(
        rank: u32,
        seen: &'a std::sync::Mutex<Vec<std::thread::ThreadId>>,
    ) -> RankTask<'a, (), ()> {
        RankTask {
            rank,
            tenant: 0,
            fs: (),
            machine: Box::new(FnMachine::new(move |_, _: &mut ()| {
                seen.lock().unwrap().push(std::thread::current().id());
                std::thread::yield_now();
                Ok(())
            })),
        }
    }

    #[test]
    fn threaded_pool_never_outgrows_its_tasks_or_reactors() {
        use std::collections::HashSet;
        let t = Telemetry::new();
        let caller = std::thread::current().id();
        let threads_used = |mode: ReactorMode, reactors: usize, tasks: u32| {
            let pool = ReactorPool::new(
                &ReactorConfig {
                    reactors,
                    mode,
                    qos: None,
                },
                &t,
            );
            let seen = std::sync::Mutex::new(Vec::new());
            let out = pool.drive((0..tasks).map(|r| thread_probe(r, &seen)).collect());
            assert!(out.error.is_none());
            assert_eq!(out.results.len(), tasks as usize);
            seen.into_inner()
                .unwrap()
                .into_iter()
                .collect::<HashSet<_>>()
        };
        // Deterministic: every step on the caller, whatever the width.
        assert_eq!(
            threads_used(ReactorMode::Deterministic, 4, 8),
            HashSet::from([caller])
        );
        // Threaded: one worker per reactor that got tasks — one reactor or
        // one task is one thread — while the caller only waits.
        for (reactors, tasks) in [(1, 8), (4, 1), (4, 2), (3, 16), (2, 5)] {
            let used = threads_used(ReactorMode::Threaded, reactors, tasks);
            assert!(!used.contains(&caller));
            assert_eq!(
                used.len(),
                reactors.min(tasks as usize),
                "{reactors} reactors, {tasks} tasks"
            );
        }
    }

    #[test]
    fn idle_reactor_steals_from_loaded_shard() {
        let t = Telemetry::new();
        let pool = pool_of(2, ReactorMode::Deterministic, &t);
        // Reactor 0 gets the two long tasks (ranks 0, 2), reactor 1 two
        // trivial ones: once 1 drains, it pulls rank 2 across and both
        // long ranks retire in round 400 instead of one in round 800.
        let spec = [(0, 400, 1), (1, 1, 1), (2, 400, 1), (3, 1, 1)];
        let schedule = drive_counters(&pool, &spec);
        assert_eq!(
            schedule,
            (
                vec![(0, 400, 400), (1, 1, 1), (2, 400, 400), (3, 1, 1)],
                (1, 800, 802)
            )
        );
        assert_eq!(t.snapshot().counter("reactor.events"), 802);
        assert_threaded_agrees(2, &spec, &schedule);
        // Three reactors, three steals: the drained reactor 1 takes the
        // back task of the most loaded shard (ties go to the highest
        // index), and later drains repeat the choice.
        let spec = [
            (0, 12, 1),
            (1, 1, 1),
            (2, 5, 1),
            (3, 9, 1),
            (4, 1, 1),
            (5, 2, 1),
            (6, 7, 1),
            (7, 1, 1),
            (8, 3, 1),
        ];
        let schedule = drive_counters(&pool_of(3, ReactorMode::Deterministic, &t), &spec);
        let retired = spec
            .iter()
            .map(|&(r, steps, _)| (r, u64::from(steps), u64::from(steps)))
            .collect();
        assert_eq!(schedule, (retired, (3, 28, 41)));
        assert_threaded_agrees(3, &spec, &schedule);
    }

    #[test]
    fn machine_error_surfaces_but_returns_every_resource() {
        struct Fail;
        impl RankMachine<u64> for Fail {
            type Out = u64;
            fn step(&mut self, r: u32, _: &mut u64) -> Result<MachineStep<u64>, RuntimeError> {
                Err(RuntimeError::BadRank(r))
            }
        }
        let t = Telemetry::new();
        let pool = ReactorPool::new(
            &ReactorConfig {
                reactors: 2,
                ..ReactorConfig::default()
            },
            &t,
        );
        let mut tasks = counter_tasks(&[(0, 2, 1), (2, 2, 1)]);
        tasks.push(RankTask {
            rank: 1,
            tenant: 0,
            fs: 0,
            machine: Box::new(Fail),
        });
        let out = pool.drive(tasks);
        assert!(matches!(out.error, Some(RuntimeError::BadRank(1))));
        assert_eq!(out.results.len(), 3, "every fs comes back, even failed");
        let failed = out.results.iter().find(|r| r.rank == 1).unwrap();
        assert!(failed.result.is_none());
        assert!(out.results.iter().filter(|r| r.result.is_some()).count() == 2);
    }

    #[test]
    fn qos_throttles_over_quota_tenant_without_starving() {
        let t = Telemetry::new();
        let pool = ReactorPool::new(
            &ReactorConfig {
                reactors: 1,
                qos: Some(QosConfig {
                    quota_per_round: 4,
                    burst: 8,
                    overrides: vec![],
                }),
                ..ReactorConfig::default()
            },
            &t,
        );
        // Tenant 0 (rank 0): cheap steps, within quota. Tenant 1 (rank 1):
        // each step costs 4x its per-round refill — mostly throttled, but
        // the full-bucket rule keeps admitting one step per refill cycle.
        let out = pool.drive(counter_tasks(&[(0, 20, 1), (1, 20, 16)]));
        assert!(out.error.is_none());
        assert_eq!(out.results.len(), 2, "throttling must never starve");
        assert!(out.stats.throttled > 0, "over-quota tenant throttles");
        let snap = t.snapshot();
        assert_eq!(snap.counter("qos.admitted"), 40);
        assert_eq!(snap.counter("qos.throttled"), out.stats.throttled);
        // The well-behaved tenant retires long before the noisy one.
        let cheap = out.results.iter().find(|r| r.rank == 0).unwrap();
        let noisy = out.results.iter().find(|r| r.rank == 1).unwrap();
        assert!(cheap.done_round < noisy.done_round);
    }
}
