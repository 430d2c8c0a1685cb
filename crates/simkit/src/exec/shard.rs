//! Shard-per-core reactor model: virtual ranks on a fixed core budget.
//!
//! The real runtime multiplexes rank state machines onto N run-to-completion
//! reactors (crate `nvmecr`, `reactor` module); this model compiles one
//! checkpoint round of that architecture down to the token-DAG vocabulary so
//! rank counts far beyond one node's cores — 1k to 10k — can be swept
//! deterministically. Each virtual rank is one token:
//!
//! * advancing the rank's state machine costs CPU on its home **reactor**
//!   (a single-server [`ResId`] — run-to-completion means no preemption),
//! * each hugeblock chunk then moves through the rank's **SSD shard**
//!   (a shared-bandwidth [`PipeId`], max-min fair among the ranks mapped to
//!   that shard).
//!
//! Ranks are assigned round-robin (`rank % reactors`, `rank % shards`),
//! matching [`ReactorPool::drive`]'s distribution. Because every rank adds
//! the same CPU and byte budget while the core and shard counts stay fixed,
//! the per-rank makespan stays flat as ranks scale — the property the
//! reactor-smoke CI gate asserts on the emitted sweep.
//!
//! [`ReactorPool::drive`]: ../../nvmecr/reactor/struct.ReactorPool.html
//! [`ResId`]: crate::exec::ResId
//! [`PipeId`]: crate::exec::PipeId

use crate::exec::{Dag, RunResult, SimError, Stage};
use crate::time::{Rate, SimTime};

/// Shape of one simulated checkpoint round.
#[derive(Debug, Clone)]
pub struct ShardModel {
    /// Reactor cores (single-server resources).
    pub reactors: usize,
    /// SSD shard queues (shared-bandwidth pipes).
    pub shards: usize,
    /// Checkpoint bytes each rank writes in the round.
    pub per_rank_bytes: u64,
    /// Bytes moved per state-machine step (submission-window worth of
    /// hugeblocks; coarser than the wire's 32 KiB so 10k-rank DAGs stay
    /// small).
    pub chunk_bytes: u64,
    /// Reactor CPU to advance one rank machine by one step (post the
    /// window, poll the CQ, retire completions).
    pub step_cpu: SimTime,
    /// Aggregate bandwidth of each SSD shard.
    pub shard_bw: Rate,
}

impl Default for ShardModel {
    fn default() -> Self {
        // 28 cores / 8 shards is the paper testbed; 3.2 GiB/s per shard
        // puts the 8-shard aggregate at the ~25 GiB/s the device model's
        // channel array sustains.
        ShardModel {
            reactors: 28,
            shards: 8,
            per_rank_bytes: 256 << 20,
            chunk_bytes: 32 << 20,
            step_cpu: SimTime::micros(20.0),
            shard_bw: Rate::gib_per_sec(3.2),
        }
    }
}

/// Outcome of one simulated round.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Virtual ranks driven.
    pub ranks: usize,
    /// Wall-clock of the round.
    pub makespan: SimTime,
    /// Makespan divided by rank count — the "flat per-rank cost" series.
    pub per_rank_secs: f64,
    /// Busy time of each reactor core.
    pub reactor_busy: Vec<SimTime>,
    /// Bytes each shard moved.
    pub shard_bytes: Vec<f64>,
}

impl ShardReport {
    /// Aggregate write bandwidth of the round in GiB/s.
    pub fn gib_per_sec(&self) -> f64 {
        let total: f64 = self.shard_bytes.iter().sum();
        total / self.makespan.as_secs() / (1u64 << 30) as f64
    }

    /// Max/mean busy-time imbalance across reactors (1.0 = perfect).
    pub fn reactor_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self.reactor_busy.iter().map(|t| t.as_secs()).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let max = busy.iter().cloned().fold(0.0, f64::max);
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

impl ShardModel {
    /// Simulate one checkpoint round of `ranks` virtual ranks.
    pub fn simulate(&self, ranks: usize) -> Result<ShardReport, SimError> {
        assert!(ranks > 0, "simulate needs at least one rank");
        assert!(self.reactors > 0 && self.shards > 0);
        let mut dag = Dag::new();
        let reactors: Vec<_> = (0..self.reactors).map(|_| dag.resource()).collect();
        let shards: Vec<_> = (0..self.shards).map(|_| dag.pipe(self.shard_bw)).collect();
        let chunks = self.per_rank_bytes.div_ceil(self.chunk_bytes).max(1);
        for rank in 0..ranks {
            let core = reactors[rank % self.reactors];
            let shard = shards[rank % self.shards];
            let mut stages = Vec::with_capacity(2 * chunks as usize);
            let mut left = self.per_rank_bytes;
            for _ in 0..chunks {
                let take = left.min(self.chunk_bytes);
                left -= take;
                // Run-to-completion: the machine step happens on the home
                // core, then the chunk drains through the shard while the
                // core is free to step other ranks.
                stages.push(Stage::Seize {
                    res: core,
                    hold: self.step_cpu,
                });
                stages.push(Stage::xfer(shard, take));
            }
            dag.token(&[], stages);
        }
        let result: RunResult = dag.run()?;
        let makespan = result.makespan();
        Ok(ShardReport {
            ranks,
            makespan,
            per_rank_secs: makespan.as_secs() / ranks as f64,
            reactor_busy: reactors.iter().map(|&r| result.resource_busy(r)).collect(),
            shard_bytes: shards.iter().map(|&p| result.pipe_bytes(p)).collect(),
        })
    }

    /// Simulate a rank sweep, one round per entry.
    pub fn sweep(&self, rank_counts: &[usize]) -> Result<Vec<ShardReport>, SimError> {
        rank_counts.iter().map(|&r| self.simulate(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShardModel {
        ShardModel {
            reactors: 4,
            shards: 2,
            per_rank_bytes: 64 << 20,
            chunk_bytes: 32 << 20,
            ..ShardModel::default()
        }
    }

    #[test]
    fn round_moves_every_byte_through_the_shards() {
        let m = small();
        let r = m.simulate(64).unwrap();
        let total: f64 = r.shard_bytes.iter().sum();
        let expect = (64u64 * (64 << 20)) as f64;
        assert!(
            (total - expect).abs() < 1.0,
            "moved {total} of {expect} bytes"
        );
        assert!(r.makespan > SimTime::ZERO);
        assert!(r.gib_per_sec() > 0.0);
    }

    #[test]
    fn round_robin_keeps_reactors_and_shards_balanced() {
        let m = small();
        let r = m.simulate(64).unwrap();
        assert!(
            r.reactor_imbalance() < 1.05,
            "imbalance {}",
            r.reactor_imbalance()
        );
        let min = r.shard_bytes.iter().cloned().fold(f64::MAX, f64::min);
        let max = r.shard_bytes.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min < 1.0,
            "equal rank counts per shard move equal bytes ({min} vs {max})"
        );
    }

    #[test]
    fn per_rank_makespan_stays_flat_as_ranks_scale() {
        // The scalability claim in miniature: 16x the ranks on the same
        // cores and shards must not inflate the per-rank cost.
        let m = small();
        let base = m.simulate(32).unwrap();
        let wide = m.simulate(512).unwrap();
        assert!(
            wide.per_rank_secs <= base.per_rank_secs * 1.2,
            "per-rank cost grew {}x",
            wide.per_rank_secs / base.per_rank_secs
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let m = small();
        let a = m.simulate(100).unwrap();
        let b = m.simulate(100).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.shard_bytes, b.shard_bytes);
    }

    #[test]
    fn more_reactors_do_not_slow_a_bandwidth_bound_round() {
        let narrow = ShardModel {
            reactors: 2,
            ..small()
        }
        .simulate(64)
        .unwrap();
        let wide = ShardModel {
            reactors: 16,
            ..small()
        }
        .simulate(64)
        .unwrap();
        // Fair-share granularity shifts chunk boundaries slightly; the
        // round must not get meaningfully slower with more cores.
        assert!(wide.makespan.as_secs() <= narrow.makespan.as_secs() * 1.05);
    }
}
