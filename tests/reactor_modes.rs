//! Reactor execution-model guarantees: determinism, chaos parity between
//! the deterministic and threaded modes, and QoS isolation between
//! tenants.
//!
//! The shard-per-core refactor is only safe if it is *unobservable* from
//! the storage layer down: same bytes, same recovery, same flight-recorder
//! story. These tests pin that down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chaos::{ChaosHandle, FaultAction, FaultPlan, Site};
use cluster::{JobRequest, Scheduler, Topology};
use microfs::OpenFlags;
use nvmecr::runtime::{NvmeCrRuntime, StorageRack};
use nvmecr::{
    MachineStep, QosConfig, RankMachine, RankTask, ReactorConfig, ReactorMode, ReactorPool,
    RuntimeConfig,
};
use ssd::SsdConfig;
use telemetry::Telemetry;
use workloads::driver::run_functional_checkpoints;

fn testbed(
    procs: u32,
    chaos: ChaosHandle,
) -> (
    StorageRack,
    Topology,
    cluster::JobAllocation,
    RuntimeConfig,
    Telemetry,
) {
    let telemetry = Telemetry::new();
    let topo = Topology::paper_testbed();
    let rack = StorageRack::build_with_telemetry(
        &topo,
        &SsdConfig {
            capacity: 8 << 30,
            ..SsdConfig::default()
        },
        telemetry.clone(),
    );
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched.submit(&JobRequest::full_subscription(procs)).unwrap();
    let config = RuntimeConfig {
        namespace_bytes: 4 << 30,
        telemetry: telemetry.clone(),
        chaos,
        ..RuntimeConfig::default()
    };
    (rack, topo, alloc, config, telemetry)
}

fn pattern(rank: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(rank * 7) % 251) as u8)
        .collect()
}

/// (kind code, rank, epoch, cid, gen, a, b) — a flight event with the
/// timestamp dropped and the `Complete` latency field masked.
type EventTuple = (u64, u64, u64, u64, u64, u64, u64);

/// One deterministic job: init on a one-reactor budget (every rank formats
/// on the calling thread, in rank order), then checkpoint every rank
/// through the single-threaded lockstep reactor, the recorder live
/// throughout. Returns the recorder's event tuples (timestamps excluded)
/// and the telemetry counters the drives published.
fn recorded_reactor_run(procs: u32, payload: usize) -> (Vec<EventTuple>, u64) {
    let (rack, topo, alloc, mut config, telemetry) = testbed(procs, ChaosHandle::default());
    config.reactors = 1;
    let recorder = telemetry.recorder();
    let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
    let reactor = ReactorConfig {
        reactors: 1,
        mode: ReactorMode::Deterministic,
        ..ReactorConfig::default()
    };
    rt.map_ranks_reactor(&reactor, move |rank, fs| {
        let fd = fs.create("/det.dat", 0o644)?;
        fs.write(fd, &pattern(rank, payload))?;
        fs.fsync(fd)?;
        fs.close(fd)?;
        Ok(())
    })
    .unwrap();
    recorder.set_enabled(false);
    let events = recorder
        .events()
        .into_iter()
        .map(|e| {
            // `Complete` stamps its measured latency into `a` — wall-clock
            // telemetry, not event-order state. Everything else (kinds,
            // ranks, cids, retry generations, byte counts, offsets) must
            // replay exactly.
            let a = if e.kind == telemetry::FlightKind::Complete {
                0
            } else {
                e.a
            };
            (e.kind.code(), e.rank, e.epoch, e.cid, e.gen, a, e.b)
        })
        .collect();
    (events, telemetry.counter("reactor.events").get())
}

#[test]
fn deterministic_reactor_replays_the_same_flight_recording() {
    let (events_a, reactor_events_a) = recorded_reactor_run(8, 96 << 10);
    let (events_b, reactor_events_b) = recorded_reactor_run(8, 96 << 10);
    assert!(
        !events_a.is_empty(),
        "the drive must leave a flight recording"
    );
    assert_eq!(
        events_a, events_b,
        "same seed + same rank count must replay the exact event sequence"
    );
    assert_eq!(reactor_events_a, reactor_events_b);
}

#[test]
fn reactor_functional_reports_hash_identically_across_runs() {
    let config = RuntimeConfig {
        reactors: 2,
        ..RuntimeConfig::default()
    };
    let a = run_functional_checkpoints(8, 2, 128 << 10, &[3], &config).unwrap();
    let b = run_functional_checkpoints(8, 2, 128 << 10, &[3], &config).unwrap();
    assert_eq!(a.state_hash(), b.state_hash());
    assert_eq!(a.bytes_verified, b.bytes_verified);
}

/// Chaos parity: under the same corruption + reset plan, the deterministic
/// (lockstep) reactor drive must recover exactly the bytes the threaded
/// (parallel) drive recovers. Runs the identical workload through both
/// modes against separately-seeded but identically-planned fault
/// injectors, crashes ranks, recovers, and compares every recovered
/// payload byte-for-byte.
#[test]
fn reactor_recovers_byte_identically_to_parallel_under_chaos() {
    let plan = || {
        FaultPlan::new(42)
            .with_rate(Site::CapsuleTx, FaultAction::CorruptPayload, 0.01)
            .with_rate(Site::CapsuleRx, FaultAction::CorruptPayload, 0.01)
            .with_rate(Site::ConnReset, FaultAction::ResetConnection, 0.02)
    };
    let procs = 16u32;
    let payload = 128usize << 10;
    let crash: Vec<u32> = vec![2, 9, 13];

    let run = |mode: ReactorMode| -> Vec<Vec<u8>> {
        let chaos = ChaosHandle::new();
        let (rack, topo, alloc, config, telemetry) = testbed(procs, chaos.clone());
        let mut rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config).unwrap();
        chaos.arm(plan(), &telemetry);
        let cfg = ReactorConfig {
            reactors: 2,
            mode,
            ..ReactorConfig::default()
        };
        rt.map_ranks_reactor(&cfg, |rank, fs| {
            let fd = fs.create("/chaos.dat", 0o644)?;
            fs.write(fd, &pattern(rank, payload))?;
            fs.fsync(fd)?;
            fs.close(fd)?;
            Ok(())
        })
        .unwrap();
        chaos.disarm();
        for &r in &crash {
            rt.crash_rank(r).unwrap();
        }
        rt.recover_ranks(&crash).unwrap();
        (0..procs)
            .map(|rank| {
                let fs = rt.rank_fs(rank).unwrap();
                let fd = fs.open("/chaos.dat", OpenFlags::RDONLY, 0).unwrap();
                let mut buf = vec![0u8; payload];
                let mut got = 0;
                while got < payload {
                    let n = fs.read(fd, &mut buf[got..]).unwrap();
                    assert!(n > 0, "short read on rank {rank}");
                    got += n;
                }
                fs.close(fd).unwrap();
                buf
            })
            .collect()
    };

    let parallel = run(ReactorMode::Threaded);
    let lockstep = run(ReactorMode::Deterministic);
    for rank in 0..procs as usize {
        let expect = pattern(rank as u32, payload);
        assert_eq!(
            parallel[rank], expect,
            "threaded drive lost rank {rank} under chaos"
        );
        assert_eq!(
            lockstep[rank], expect,
            "deterministic drive lost rank {rank} under chaos"
        );
    }
    assert_eq!(parallel, lockstep);
}

/// A synthetic rank machine: `steps` QoS-costed units, counting every
/// executed step into a shared event clock and stamping its completion
/// time off that clock. Event-time on one deterministic reactor is a
/// makespan measure with no wall-clock noise.
struct Metered {
    steps: u32,
    cost: u64,
    clock: Arc<AtomicU64>,
}

impl RankMachine<()> for Metered {
    type Out = u64;

    fn step(
        &mut self,
        _rank: u32,
        _fs: &mut (),
    ) -> Result<MachineStep<u64>, nvmecr::runtime::RuntimeError> {
        let now = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        self.steps -= 1;
        if self.steps == 0 {
            Ok(MachineStep::Done(now))
        } else {
            Ok(MachineStep::Yield)
        }
    }

    fn next_cost(&self) -> u64 {
        self.cost
    }
}

/// Acceptance gate: a tenant issuing 10x its quota may degrade a
/// well-behaved tenant's makespan by at most 10%. Also proves the gate is
/// the QoS layer itself: with admission off, the same noisy tenant blows
/// far past the budget.
#[test]
fn qos_caps_noisy_tenant_interference_at_ten_percent() {
    let telemetry = Telemetry::new();
    // Victim: tenant 0, one rank, 64 unit-cost steps. Neighbor: tenant 1.
    // Well-behaved neighbor: one rank consuming exactly the per-round
    // quota. Noisy neighbor: ten ranks each trying to consume the full
    // quota every round — 10x the tenant's budget.
    let drive = |noisy_ranks: u32, qos: Option<QosConfig>| -> (u64, u64) {
        let clock = Arc::new(AtomicU64::new(0));
        let pool = ReactorPool::new(
            &ReactorConfig {
                reactors: 1,
                mode: ReactorMode::Deterministic,
                qos,
            },
            &telemetry,
        );
        let mut tasks: Vec<RankTask<(), u64>> = vec![RankTask {
            rank: 0,
            tenant: 0,
            fs: (),
            machine: Box::new(Metered {
                steps: 64,
                cost: 1,
                clock: Arc::clone(&clock),
            }),
        }];
        for r in 0..noisy_ranks {
            tasks.push(RankTask {
                rank: 1 + r,
                tenant: 1,
                fs: (),
                machine: Box::new(Metered {
                    steps: 64,
                    cost: 8,
                    clock: Arc::clone(&clock),
                }),
            });
        }
        let outcome = pool.drive(tasks);
        assert!(outcome.error.is_none());
        let victim_done = outcome
            .results
            .iter()
            .find(|r| r.rank == 0)
            .and_then(|r| r.result)
            .expect("victim completes");
        (victim_done, outcome.stats.throttled)
    };

    let qos = || {
        Some(QosConfig {
            quota_per_round: 8,
            burst: 16,
            overrides: Vec::new(),
        })
    };
    let (quiet, _) = drive(1, qos());
    let (noisy, throttled) = drive(10, qos());
    assert!(
        throttled > 0,
        "the noisy tenant must actually hit admission"
    );
    assert!(
        (noisy as f64) <= (quiet as f64) * 1.10,
        "noisy tenant degraded the victim {quiet} -> {noisy} (> 10%)"
    );

    // Contrast: with admission off the same noisy tenant inflates the
    // victim's event-time makespan far beyond the 10% budget.
    let (unprotected, _) = drive(10, None);
    assert!(
        (unprotected as f64) > (quiet as f64) * 1.10,
        "without QoS the noisy tenant should interfere ({quiet} -> {unprotected})"
    );
}
