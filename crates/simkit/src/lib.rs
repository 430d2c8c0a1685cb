//! # simkit — deterministic discrete-event simulation toolkit
//!
//! This crate is the substrate under every cluster-scale experiment in the
//! NVMe-CR reproduction: every paper figure runs its analytic model as a
//! DAG on this engine. It deliberately knows nothing about storage: it
//! provides a small vocabulary of *timed contention primitives* and an
//! event-driven engine that executes dependency DAGs of work tokens against
//! them. (The functional stack is not simulated here: it counts its IO,
//! and `nvmecr::metrics` prices those counts in device time.)
//!
//! The vocabulary was chosen to cover exactly the mechanisms the paper's
//! evaluation depends on:
//!
//! * [`exec::Stage::Delay`] — unconditional latency (CPU cost, wire latency).
//! * [`exec::Stage::Seize`] — a single-server FIFO resource (an SSD
//!   controller's command processor, a metadata server, a directory lock).
//! * [`exec::Stage::Acquire`]/[`exec::Stage::Release`] — a counting
//!   semaphore (device staging-RAM slots, bounded queue depth).
//! * [`exec::Stage::Xfer`] — a processor-sharing bandwidth pipe with an
//!   optional per-stream rate cap (a flash-channel array, a network link).
//!   Sharing is max-min fair (water-filling), recomputed whenever the active
//!   set changes.
//!
//! Tokens ([`exec::Dag::token`]) carry a stage list and depend on other
//! tokens; a token becomes runnable when all of its dependencies complete.
//! Per-process sequential programs, bounded pipelining (a sliding QD window)
//! and barriers are all expressible as dependency edges.
//!
//! Determinism: the engine breaks event-time ties by insertion sequence
//! number, uses no OS time source, and all randomness flows through
//! explicitly seeded [`rng`] helpers, so every simulation run is exactly
//! reproducible.
//!
//! ```
//! use simkit::{Dag, Rate, Stage};
//!
//! // Two clients share a 100 MiB/s device; each also pays 5 us of
//! // serialized controller time.
//! let mut dag = Dag::new();
//! let controller = dag.resource();
//! let device = dag.pipe(Rate::mib_per_sec(100.0));
//! let a = dag.token(&[], vec![Stage::seize_us(controller, 5.0), Stage::xfer(device, 50 << 20)]);
//! let b = dag.token(&[], vec![Stage::seize_us(controller, 5.0), Stage::xfer(device, 50 << 20)]);
//! let result = dag.run().unwrap();
//! // 100 MiB through a 100 MiB/s pipe: ~1 s makespan.
//! assert!((result.makespan().as_secs() - 1.0).abs() < 1e-3);
//! assert!(result.completion(a) <= result.completion(b));
//! ```

#![forbid(unsafe_code)]

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub mod exec;

pub use exec::{Dag, Engine, PipeId, PoolId, ResId, RunResult, Stage, TokenId, TraceEvent};
pub use stats::OnlineStats;
pub use time::{Rate, SimTime};
