//! Token-DAG simulation: build a dependency graph of timed work and run it.
//!
//! A [`Dag`] declares three kinds of contended facilities —
//!
//! * **resources**: single-server FIFO queues ([`Stage::Seize`]),
//! * **pools**: counting semaphores with FIFO waiters
//!   ([`Stage::Acquire`] / [`Stage::Release`]),
//! * **pipes**: bandwidth shared max-min fairly among concurrent transfers,
//!   each optionally rate-capped ([`Stage::Xfer`]) —
//!
//! and a set of **tokens**, each a sequential list of stages that starts once
//! all of its dependency tokens complete (and not before its optional
//! `start_after` time). The [`Engine`] executes the whole DAG and reports
//! per-token completion times.
//!
//! Domain crates compile storage behaviour down to this vocabulary: an SSD
//! is a command-processor resource + a staging-RAM pool + a channel-array
//! pipe; a network link is a pipe; a metadata server is a resource.

mod engine;
mod pipe;

pub use engine::{Engine, RunResult, SimError};
pub(crate) use pipe::PsPipe;

use crate::time::{Rate, SimTime};

/// Handle to a single-server FIFO resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResId(pub(crate) usize);

/// Handle to a counting-semaphore pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolId(pub(crate) usize);

/// Handle to a shared-bandwidth pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipeId(pub(crate) usize);

/// Handle to a work token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub(crate) usize);

/// One step in a token's sequential program.
#[derive(Debug, Clone)]
pub enum Stage {
    /// Unconditional latency (CPU time, wire latency, think time).
    Delay(SimTime),
    /// Occupy a FIFO single-server resource for `hold`.
    Seize { res: ResId, hold: SimTime },
    /// Take `n` units from a pool, waiting FIFO if unavailable.
    Acquire { pool: PoolId, n: u64 },
    /// Return `n` units to a pool.
    Release { pool: PoolId, n: u64 },
    /// Move `bytes` through a pipe; bandwidth is shared max-min fairly with
    /// all concurrently active transfers, with an optional per-stream cap.
    Xfer {
        pipe: PipeId,
        bytes: u64,
        cap: Option<Rate>,
    },
}

impl Stage {
    /// Convenience: a delay of `us` microseconds.
    pub fn delay_us(us: f64) -> Stage {
        Stage::Delay(SimTime::micros(us))
    }

    /// Convenience: seize `res` for `us` microseconds.
    pub fn seize_us(res: ResId, us: f64) -> Stage {
        Stage::Seize {
            res,
            hold: SimTime::micros(us),
        }
    }

    /// Convenience: an uncapped transfer.
    pub fn xfer(pipe: PipeId, bytes: u64) -> Stage {
        Stage::Xfer {
            pipe,
            bytes,
            cap: None,
        }
    }
}

pub(crate) struct TokenSpec {
    pub deps: Vec<TokenId>,
    pub start_after: SimTime,
    pub stages: Vec<Stage>,
}

/// A simulation model under construction.
#[derive(Default)]
pub struct Dag {
    pub(crate) n_resources: usize,
    pub(crate) pool_caps: Vec<u64>,
    pub(crate) pipe_rates: Vec<Rate>,
    pub(crate) tokens: Vec<TokenSpec>,
}

impl Dag {
    /// An empty model.
    pub fn new() -> Self {
        Dag::default()
    }

    /// Declare a FIFO single-server resource.
    pub fn resource(&mut self) -> ResId {
        self.n_resources += 1;
        ResId(self.n_resources - 1)
    }

    /// Declare a counting semaphore with `capacity` units.
    pub fn pool(&mut self, capacity: u64) -> PoolId {
        assert!(capacity > 0, "pool capacity must be positive");
        self.pool_caps.push(capacity);
        PoolId(self.pool_caps.len() - 1)
    }

    /// Declare a shared-bandwidth pipe with aggregate rate `bw`.
    pub fn pipe(&mut self, bw: Rate) -> PipeId {
        self.pipe_rates.push(bw);
        PipeId(self.pipe_rates.len() - 1)
    }

    /// Add a token that starts when all `deps` have completed.
    pub fn token(&mut self, deps: &[TokenId], stages: Vec<Stage>) -> TokenId {
        self.token_at(SimTime::ZERO, deps, stages)
    }

    /// Add a token that starts at the later of `start_after` and the
    /// completion of all `deps`.
    pub fn token_at(
        &mut self,
        start_after: SimTime,
        deps: &[TokenId],
        stages: Vec<Stage>,
    ) -> TokenId {
        let id = TokenId(self.tokens.len());
        for d in deps {
            assert!(d.0 < id.0, "dependency on not-yet-declared token");
        }
        self.validate_stages(&stages);
        self.tokens.push(TokenSpec {
            deps: deps.to_vec(),
            start_after,
            stages,
        });
        id
    }

    fn validate_stages(&self, stages: &[Stage]) {
        for s in stages {
            match *s {
                Stage::Seize { res, .. } => {
                    assert!(res.0 < self.n_resources, "unknown resource {res:?}")
                }
                Stage::Acquire { pool, n } => {
                    assert!(pool.0 < self.pool_caps.len(), "unknown pool {pool:?}");
                    assert!(
                        n <= self.pool_caps[pool.0],
                        "acquire of {n} exceeds pool capacity {}",
                        self.pool_caps[pool.0]
                    );
                }
                Stage::Release { pool, .. } => {
                    assert!(pool.0 < self.pool_caps.len(), "unknown pool {pool:?}")
                }
                Stage::Xfer { pipe, .. } => {
                    assert!(pipe.0 < self.pipe_rates.len(), "unknown pipe {pipe:?}")
                }
                Stage::Delay(_) => {}
            }
        }
    }

    /// Execute the DAG to completion.
    pub fn run(self) -> Result<RunResult, SimError> {
        Engine::new(self).run()
    }
}
