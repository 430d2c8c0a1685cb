//! Shard-per-core reactor runtime: run-to-completion event loops that
//! multiplex many rank state machines onto a fixed set of cores. This is
//! the runtime's only executor: every per-rank fan-out (format, mount,
//! recovery, epoch commits, application drives) runs on a [`ReactorPool`].
//!
//! N reactors — one per core — each own a **disjoint** set of ranks
//! (their NVMf connections, QD>1 submission windows, and SSD shard queues
//! travel with the rank's `MicroFs`), and each rank is a [`RankMachine`]
//! advanced by bounded steps instead of a blocked thread, so rank count
//! is independent of thread count. Cross-shard work moves through
//! single-producer/single-consumer message rings ([`SpscRing`]) — task
//! hand-off in, retired results out, work-stealing migration between —
//! never through shared locks.
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

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use telemetry::Telemetry;

use crate::runtime::RuntimeError;

// ---------------------------------------------------------------------------
// SPSC message rings
// ---------------------------------------------------------------------------

/// A bounded single-producer/single-consumer ring: the only channel over
/// which work crosses a reactor boundary. One side pushes, the other pops;
/// head and tail are independent atomics, so neither side ever takes a
/// lock or waits on the other.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next slot the consumer will read.
    head: AtomicUsize,
    /// Next slot the producer will write.
    tail: AtomicUsize,
}

// Safety: the producer half writes only slots in [head, tail) exclusively
// via &mut RingProducer, the consumer reads them exclusively via
// &mut RingConsumer, and the release/acquire pair on `tail`/`head`
// publishes slot contents before the index move.
unsafe impl<T: Send> Sync for SpscRing<T> {}
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    fn with_capacity(cap: usize) -> Arc<Self> {
        let cap = cap.max(1);
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(SpscRing {
            slots,
            cap,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        })
    }

    /// Items currently queued.
    fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            unsafe { (*self.slots[i % self.cap].get()).assume_init_drop() };
        }
    }
}

/// The producer half of an [`SpscRing`].
pub struct RingProducer<T> {
    ring: Arc<SpscRing<T>>,
}

/// The consumer half of an [`SpscRing`].
pub struct RingConsumer<T> {
    ring: Arc<SpscRing<T>>,
}

/// A connected SPSC ring of `cap` slots, split into its two halves.
pub fn spsc_ring<T: Send>(cap: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let ring = SpscRing::with_capacity(cap);
    (
        RingProducer {
            ring: Arc::clone(&ring),
        },
        RingConsumer { ring },
    )
}

impl<T: Send> RingProducer<T> {
    /// Enqueue `item`; returns it back if the ring is full (the caller
    /// owns backpressure — nothing blocks).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        let head = self.ring.head.load(Ordering::Acquire);
        let tail = self.ring.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) == self.ring.cap {
            return Err(item);
        }
        unsafe { (*self.ring.slots[tail % self.ring.cap].get()).write(item) };
        self.ring
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> RingConsumer<T> {
    /// Dequeue the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let tail = self.ring.tail.load(Ordering::Acquire);
        let head = self.ring.head.load(Ordering::Relaxed);
        if head == tail {
            return None;
        }
        let item = unsafe { (*self.ring.slots[head % self.ring.cap].get()).assume_init_read() };
        self.ring
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

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

/// One rank resident on a reactor.
struct Active<'a, F, R> {
    rank: u32,
    tenant: u32,
    fs: F,
    machine: Box<dyn RankMachine<F, Out = R> + 'a>,
}

/// One reactor's core-local state. Everything here is owned: the only
/// shared structures a shard touches are its two ring endpoints.
struct Shard<'a, F, R> {
    inbox: RingConsumer<RankTask<'a, F, R>>,
    outbox: RingProducer<TaskResult<F, R>>,
    active: VecDeque<Active<'a, F, R>>,
    /// Tenant bucket shards, created on first sight of a tenant.
    buckets: Vec<(u32, TokenBucket)>,
    stats: DriveStats,
    error: Option<RuntimeError>,
}

impl<'a, F: Send, R: Send> Shard<'a, F, R> {
    fn drain_inbox(&mut self) {
        while let Some(t) = self.inbox.pop() {
            self.active.push_back(Active {
                rank: t.rank,
                tenant: t.tenant,
                fs: t.fs,
                machine: t.machine,
            });
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

    fn retire(&mut self, a: Active<'a, F, R>, result: Option<R>, round: u64) {
        let done = TaskResult {
            rank: a.rank,
            tenant: a.tenant,
            fs: a.fs,
            result,
            done_round: round,
        };
        if self.outbox.push(done).is_err() {
            // The outbox is sized to hold every task in the drive.
            unreachable!("reactor outbox ring overflow");
        }
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
        self.drain_inbox();
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
        let cap = n_tasks + 1;
        // One inbox and one outbox ring per reactor, so every ring has
        // exactly one producer and one consumer: the pool thread produces
        // tasks into inboxes (initial distribution and steal migration
        // both go through them) and consumes results from outboxes; the
        // reactor is the other end of both.
        let mut inboxes: Vec<RingProducer<RankTask<'a, F, R>>> = Vec::with_capacity(self.n);
        let mut outboxes: Vec<RingConsumer<TaskResult<F, R>>> = Vec::with_capacity(self.n);
        let mut shards: Vec<Shard<'a, F, R>> = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let (tx, rx) = spsc_ring::<RankTask<'a, F, R>>(cap);
            let (otx, orx) = spsc_ring::<TaskResult<F, R>>(cap);
            inboxes.push(tx);
            outboxes.push(orx);
            shards.push(Shard {
                inbox: rx,
                outbox: otx,
                active: VecDeque::new(),
                buckets: Vec::new(),
                stats: DriveStats::default(),
                error: None,
            });
        }
        // Disjoint ownership map: rank i lives on reactor i mod N for the
        // whole drive (modulo stealing, which re-homes it explicitly).
        for (i, task) in tasks.into_iter().enumerate() {
            if inboxes[i % self.n].push(task).is_err() {
                unreachable!("reactor inbox ring overflow");
            }
        }
        match self.mode {
            ReactorMode::Deterministic => self.run_deterministic(&mut shards, &mut inboxes),
            ReactorMode::Threaded => self.run_threaded(&mut shards),
        }
        // Collect results and fold stats.
        let mut results = Vec::with_capacity(n_tasks);
        for rx in &mut outboxes {
            while let Some(r) = rx.pop() {
                results.push(r);
            }
        }
        results.sort_by_key(|r| r.rank);
        let mut stats = DriveStats::default();
        let mut error = None;
        for s in &mut shards {
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
    /// round, drained reactors steal from the most loaded one — through
    /// the victim's inbox ring, so the migration path is the same SPSC
    /// protocol as the initial distribution.
    fn run_deterministic<'a, F: Send, R: Send>(
        &self,
        shards: &mut [Shard<'a, F, R>],
        inboxes: &mut [RingProducer<RankTask<'a, F, R>>],
    ) {
        let qos = self.qos.as_ref();
        let mut round: u64 = 0;
        loop {
            round += 1;
            let mut live = false;
            for shard in shards.iter_mut() {
                shard.drain_inbox();
                if shard.active.is_empty() {
                    continue;
                }
                live = true;
                shard.run_round(qos, self.n, round);
            }
            if !live {
                break;
            }
            self.steal_pass(shards, inboxes);
        }
    }

    /// Migrate one task per idle reactor from the most loaded shard. The
    /// choice is a pure function of shard loads, so deterministic runs
    /// steal identically.
    fn steal_pass<'a, F: Send, R: Send>(
        &self,
        shards: &mut [Shard<'a, F, R>],
        inboxes: &mut [RingProducer<RankTask<'a, F, R>>],
    ) {
        for thief in 0..shards.len() {
            if !shards[thief].active.is_empty() || !inboxes[thief].is_empty() {
                continue;
            }
            let Some(donor) = (0..shards.len())
                .filter(|&d| shards[d].active.len() >= 2)
                .max_by_key(|&d| shards[d].active.len())
            else {
                continue;
            };
            let t = Instant::now();
            let a = shards[donor].active.pop_back().expect("donor has >= 2");
            let task = RankTask {
                rank: a.rank,
                tenant: a.tenant,
                fs: a.fs,
                machine: a.machine,
            };
            if inboxes[thief].push(task).is_err() {
                unreachable!("steal target inbox ring overflow");
            }
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
            for shard in shards.iter_mut().filter(|s| !s.inbox.is_empty()) {
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

    #[test]
    fn ring_roundtrips_in_order_and_bounds() {
        let (mut tx, mut rx) = spsc_ring::<u32>(4);
        assert!(tx.is_empty());
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "full ring must refuse");
        assert_eq!(rx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        // Wrap-around: indices keep climbing past the capacity.
        for round in 0..10u32 {
            tx.push(round).unwrap();
            assert_eq!(rx.pop(), Some(round));
        }
    }

    #[test]
    fn ring_drops_unconsumed_items() {
        let payload = Arc::new(());
        let (mut tx, rx) = spsc_ring::<Arc<()>>(8);
        for _ in 0..5 {
            tx.push(Arc::clone(&payload)).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1, "ring must drop its items");
    }

    #[test]
    fn ring_crosses_threads() {
        let (mut tx, mut rx) = spsc_ring::<u64>(16);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..1000u64 {
                    let mut item = i;
                    loop {
                        match tx.push(item) {
                            Ok(()) => break,
                            Err(back) => item = back,
                        }
                    }
                }
            });
            s.spawn(move || {
                let mut expect = 0u64;
                while expect < 1000 {
                    if let Some(v) = rx.pop() {
                        assert_eq!(v, expect, "FIFO order across threads");
                        expect += 1;
                    }
                }
            });
        });
    }

    #[test]
    fn deterministic_drive_completes_and_repeats_exactly() {
        let t = Telemetry::new();
        let pool = ReactorPool::new(
            &ReactorConfig {
                reactors: 3,
                mode: ReactorMode::Deterministic,
                ..ReactorConfig::default()
            },
            &t,
        );
        let spec: Vec<(u32, u32, u64)> = (0..17).map(|r| (r, 1 + r % 5, 1)).collect();
        let run = || {
            let out = pool.drive(counter_tasks(&spec));
            assert!(out.error.is_none());
            out.results
                .iter()
                .map(|r| (r.rank, r.result.unwrap(), r.done_round))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same tasks must retire in identical rounds");
        assert_eq!(a.len(), 17);
        for (rank, steps, _) in &a {
            assert_eq!(*steps, u64::from(1 + rank % 5));
        }
        let total_steps: u64 = spec.iter().map(|&(_, s, _)| u64::from(s)).sum();
        let snap = t.snapshot();
        assert_eq!(snap.counter("reactor.events"), 2 * total_steps);
        assert!(snap.counter("reactor.loops") > 0);
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
        let pool = ReactorPool::new(
            &ReactorConfig {
                reactors: 2,
                mode: ReactorMode::Deterministic,
                ..ReactorConfig::default()
            },
            &t,
        );
        // Reactor 0 gets the two long tasks (ranks 0, 2), reactor 1 two
        // trivial ones: once 1 drains, it must pull a task across.
        let out = pool.drive(counter_tasks(&[
            (0, 400, 1),
            (1, 1, 1),
            (2, 400, 1),
            (3, 1, 1),
        ]));
        assert!(out.error.is_none());
        assert_eq!(out.results.len(), 4);
        assert!(out.stats.steals >= 1, "idle reactor must steal");
        assert_eq!(t.snapshot().counter("reactor.events"), 802);
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
