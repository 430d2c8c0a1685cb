//! The event loop that executes a [`Dag`].

use std::collections::VecDeque;
use std::fmt;

use crate::queue::EventQueue;
use crate::time::SimTime;

use super::{Dag, PipeId, PsPipe, Stage, TokenId};

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained with tokens still blocked — a pool deadlock
    /// or a release that never happens.
    Deadlock {
        /// Tokens that never completed.
        stuck: Vec<TokenId>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { stuck } => {
                write!(
                    f,
                    "simulation deadlocked with {} stuck token(s)",
                    stuck.len()
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

enum Event {
    Advance(TokenId),
    PipeWake { pipe: PipeId, epoch: u64 },
}

struct TokenState {
    deps_remaining: usize,
    stage_idx: usize,
    done_at: Option<SimTime>,
}

struct Pool {
    available: u64,
    capacity: u64,
    waiters: VecDeque<(TokenId, u64)>,
}

/// Executes a [`Dag`]; usually invoked via [`Dag::run`].
pub struct Engine {
    dag: Dag,
    now: SimTime,
    events: EventQueue<Event>,
    tokens: Vec<TokenState>,
    children: Vec<Vec<TokenId>>,
    res_free: Vec<SimTime>,
    pools: Vec<Pool>,
    pipes: Vec<PsPipe>,
    completed: usize,
}

impl Engine {
    /// Prepare a run of `dag`.
    pub fn new(dag: Dag) -> Self {
        let n = dag.tokens.len();
        let mut children = vec![Vec::new(); n];
        let mut tokens = Vec::with_capacity(n);
        for (i, spec) in dag.tokens.iter().enumerate() {
            for d in &spec.deps {
                children[d.0].push(TokenId(i));
            }
            tokens.push(TokenState {
                deps_remaining: spec.deps.len(),
                stage_idx: 0,
                done_at: None,
            });
        }
        let res_free = vec![SimTime::ZERO; dag.n_resources];
        let pools = dag
            .pool_caps
            .iter()
            .map(|&c| Pool {
                available: c,
                capacity: c,
                waiters: VecDeque::new(),
            })
            .collect();
        let pipes = dag.pipe_rates.iter().map(|&r| PsPipe::new(r)).collect();
        Engine {
            dag,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            tokens,
            children,
            res_free,
            pools,
            pipes,
            completed: 0,
        }
    }

    /// Run to completion.
    pub fn run(mut self) -> Result<RunResult, SimError> {
        // Seed: every token with no dependencies starts at its start_after.
        for i in 0..self.tokens.len() {
            if self.tokens[i].deps_remaining == 0 {
                self.events
                    .push(self.dag.tokens[i].start_after, Event::Advance(TokenId(i)));
            }
        }
        while let Some((at, ev)) = self.events.pop() {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            match ev {
                Event::Advance(t) => self.advance(t),
                Event::PipeWake { pipe, epoch } => self.pipe_wake(pipe, epoch),
            }
        }
        if self.completed != self.tokens.len() {
            let stuck = self
                .tokens
                .iter()
                .enumerate()
                .filter(|(_, s)| s.done_at.is_none())
                .map(|(i, _)| TokenId(i))
                .collect();
            return Err(SimError::Deadlock { stuck });
        }
        let makespan = self
            .tokens
            .iter()
            .filter_map(|s| s.done_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        Ok(RunResult {
            completions: self.tokens.iter().map(|s| s.done_at.unwrap()).collect(),
            makespan,
        })
    }

    /// Process token stages inline until it blocks or completes.
    fn advance(&mut self, t: TokenId) {
        loop {
            let idx = self.tokens[t.0].stage_idx;
            let Some(stage) = self.dag.tokens[t.0].stages.get(idx).cloned() else {
                self.complete(t);
                return;
            };
            match stage {
                Stage::Delay(d) => {
                    self.tokens[t.0].stage_idx += 1;
                    if d == SimTime::ZERO {
                        continue;
                    }
                    self.events.push(self.now + d, Event::Advance(t));
                    return;
                }
                Stage::Seize { res, hold } => {
                    self.tokens[t.0].stage_idx += 1;
                    let start = self.now.max(self.res_free[res.0]);
                    let done = start + hold;
                    self.res_free[res.0] = done;
                    if done == self.now {
                        continue;
                    }
                    self.events.push(done, Event::Advance(t));
                    return;
                }
                Stage::Acquire { pool, n } => {
                    let p = &mut self.pools[pool.0];
                    if p.waiters.is_empty() && p.available >= n {
                        p.available -= n;
                        self.tokens[t.0].stage_idx += 1;
                        continue;
                    }
                    // FIFO: join the wait queue; resume via a Release grant.
                    p.waiters.push_back((t, n));
                    return;
                }
                Stage::Release { pool, n } => {
                    self.tokens[t.0].stage_idx += 1;
                    let p = &mut self.pools[pool.0];
                    p.available = (p.available + n).min(p.capacity);
                    // Grant as many FIFO waiters as now fit; they resume at
                    // the current time via ordinary events (deterministic
                    // FIFO tie-breaking keeps grants in order).
                    while let Some(&(w, wn)) = p.waiters.front() {
                        if p.available >= wn {
                            p.available -= wn;
                            p.waiters.pop_front();
                            self.tokens[w.0].stage_idx += 1;
                            self.events.push(self.now, Event::Advance(w));
                        } else {
                            break;
                        }
                    }
                    continue;
                }
                Stage::Xfer { pipe, bytes, cap } => {
                    self.tokens[t.0].stage_idx += 1;
                    if bytes == 0 {
                        continue;
                    }
                    self.pipes[pipe.0].add(self.now, t, bytes, cap);
                    self.schedule_pipe_wake(pipe);
                    return;
                }
            }
        }
    }

    fn pipe_wake(&mut self, pipe: PipeId, epoch: u64) {
        if self.pipes[pipe.0].epoch != epoch {
            return; // Stale wake-up: membership changed since scheduling.
        }
        let finished = self.pipes[pipe.0].harvest(self.now);
        for t in finished {
            self.events.push(self.now, Event::Advance(t));
        }
        self.schedule_pipe_wake(pipe);
    }

    fn schedule_pipe_wake(&mut self, pipe: PipeId) {
        let p = &self.pipes[pipe.0];
        if let Some(at) = p.next_completion(self.now) {
            self.events.push(
                at.max(self.now),
                Event::PipeWake {
                    pipe,
                    epoch: p.epoch,
                },
            );
        }
    }

    fn complete(&mut self, t: TokenId) {
        debug_assert!(self.tokens[t.0].done_at.is_none());
        self.tokens[t.0].done_at = Some(self.now);
        self.completed += 1;
        for i in 0..self.children[t.0].len() {
            let c = self.children[t.0][i];
            self.tokens[c.0].deps_remaining -= 1;
            if self.tokens[c.0].deps_remaining == 0 {
                let at = self.now.max(self.dag.tokens[c.0].start_after);
                self.events.push(at, Event::Advance(c));
            }
        }
    }
}

/// Results of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    completions: Vec<SimTime>,
    makespan: SimTime,
}

impl RunResult {
    /// Completion time of one token.
    pub fn completion(&self, t: TokenId) -> SimTime {
        self.completions[t.0]
    }

    /// Completion times of all tokens, indexed by token.
    pub fn completions(&self) -> &[SimTime] {
        &self.completions
    }

    /// Time the last token completed.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Rate;

    #[test]
    fn sequential_delays_accumulate() {
        let mut dag = Dag::new();
        let t = dag.token(
            &[],
            vec![
                Stage::delay_us(5.0),
                Stage::delay_us(7.0),
                Stage::delay_us(8.0),
            ],
        );
        let r = dag.run().unwrap();
        assert!((r.completion(t).as_micros() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_serialize_tokens() {
        let mut dag = Dag::new();
        let a = dag.token(&[], vec![Stage::delay_us(10.0)]);
        let b = dag.token(&[a], vec![Stage::delay_us(10.0)]);
        let c = dag.token(&[a, b], vec![Stage::delay_us(10.0)]);
        let r = dag.run().unwrap();
        assert!((r.completion(c).as_micros() - 30.0).abs() < 1e-9);
        assert_eq!(r.makespan(), r.completion(c));
    }

    #[test]
    fn start_after_delays_a_root_token() {
        let mut dag = Dag::new();
        let t = dag.token_at(SimTime::millis(2.0), &[], vec![Stage::delay_us(1.0)]);
        let r = dag.run().unwrap();
        assert!((r.completion(t).as_micros() - 2001.0).abs() < 1e-9);
    }

    #[test]
    fn seize_is_fifo_and_serializes() {
        let mut dag = Dag::new();
        let res = dag.resource();
        let a = dag.token(&[], vec![Stage::seize_us(res, 10.0)]);
        let b = dag.token(&[], vec![Stage::seize_us(res, 10.0)]);
        let c = dag.token(&[], vec![Stage::seize_us(res, 10.0)]);
        let r = dag.run().unwrap();
        assert!((r.completion(a).as_micros() - 10.0).abs() < 1e-9);
        assert!((r.completion(b).as_micros() - 20.0).abs() < 1e-9);
        assert!((r.completion(c).as_micros() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn pipe_shares_bandwidth_across_tokens() {
        let mut dag = Dag::new();
        let pipe = dag.pipe(Rate::mib_per_sec(100.0));
        let a = dag.token(&[], vec![Stage::xfer(pipe, 50 << 20)]);
        let b = dag.token(&[], vec![Stage::xfer(pipe, 50 << 20)]);
        let r = dag.run().unwrap();
        assert!((r.completion(a).as_secs() - 1.0).abs() < 1e-6);
        assert!((r.completion(b).as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn capped_transfer_cannot_exceed_cap() {
        let mut dag = Dag::new();
        let pipe = dag.pipe(Rate::mib_per_sec(100.0));
        let t = dag.token(
            &[],
            vec![Stage::Xfer {
                pipe,
                bytes: 10 << 20,
                cap: Some(Rate::mib_per_sec(10.0)),
            }],
        );
        let r = dag.run().unwrap();
        assert!((r.completion(t).as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pool_bounds_concurrency_fifo() {
        // Pool of 1 unit: three tokens each hold it for 10us of pipe-free
        // delay; they must serialize.
        let mut dag = Dag::new();
        let pool = dag.pool(1);
        let mk = |dag: &mut Dag| {
            dag.token(
                &[],
                vec![
                    Stage::Acquire { pool, n: 1 },
                    Stage::delay_us(10.0),
                    Stage::Release { pool, n: 1 },
                ],
            )
        };
        let a = mk(&mut dag);
        let b = mk(&mut dag);
        let c = mk(&mut dag);
        let r = dag.run().unwrap();
        assert!((r.completion(a).as_micros() - 10.0).abs() < 1e-9);
        assert!((r.completion(b).as_micros() - 20.0).abs() < 1e-9);
        assert!((r.completion(c).as_micros() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut dag = Dag::new();
        let pool = dag.pool(1);
        // Acquires two units one at a time without ever releasing: the
        // second acquire can never be satisfied.
        let _a = dag.token(
            &[],
            vec![Stage::Acquire { pool, n: 1 }, Stage::Acquire { pool, n: 1 }],
        );
        match dag.run() {
            Err(SimError::Deadlock { stuck }) => assert_eq!(stuck.len(), 1),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn sliding_window_pipelining_via_deps() {
        // 4 transfers from one "process", window of 2 (token i depends on
        // token i-2): with a dedicated pipe each takes 1s, so the chain
        // finishes at 2s, not 4s.
        let mut dag = Dag::new();
        let pipe = dag.pipe(Rate::mib_per_sec(100.0));
        let mut ids: Vec<TokenId> = Vec::new();
        for i in 0..4 {
            let deps: Vec<TokenId> = if i >= 2 { vec![ids[i - 2]] } else { vec![] };
            // Two concurrent 50 MiB transfers share the 100 MiB/s pipe.
            ids.push(dag.token(&deps, vec![Stage::xfer(pipe, 50 << 20)]));
        }
        let r = dag.run().unwrap();
        assert!((r.makespan().as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn work_conservation_many_streams() {
        // 28 tokens, 10 MiB each, on a 100 MiB/s pipe: makespan must be
        // exactly total/bandwidth because the pipe is always backlogged.
        let mut dag = Dag::new();
        let pipe = dag.pipe(Rate::mib_per_sec(100.0));
        for _ in 0..28 {
            dag.token(&[], vec![Stage::xfer(pipe, 10 << 20)]);
        }
        let r = dag.run().unwrap();
        assert!((r.makespan().as_secs() - 2.8).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_xfer_and_zero_delay_complete_instantly() {
        let mut dag = Dag::new();
        let pipe = dag.pipe(Rate::mib_per_sec(1.0));
        let t = dag.token(&[], vec![Stage::xfer(pipe, 0), Stage::Delay(SimTime::ZERO)]);
        let r = dag.run().unwrap();
        assert_eq!(r.completion(t), SimTime::ZERO);
    }

    #[test]
    fn determinism_same_dag_same_result() {
        let build = || {
            let mut dag = Dag::new();
            let res = dag.resource();
            let pipe = dag.pipe(Rate::mib_per_sec(37.0));
            let pool = dag.pool(3);
            for i in 0..50 {
                dag.token(
                    &[],
                    vec![
                        Stage::Acquire { pool, n: 1 },
                        Stage::seize_us(res, 1.0 + i as f64 * 0.1),
                        Stage::xfer(pipe, 1 << 20),
                        Stage::Release { pool, n: 1 },
                    ],
                );
            }
            dag.run().unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.completions(), b.completions());
    }
}
