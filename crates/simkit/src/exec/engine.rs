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
        Ok(RunResult { makespan })
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
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    makespan: SimTime,
}

impl RunResult {
    /// Time the last token completed.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Rate;

    fn delay_us(us: f64) -> Stage {
        Stage::Delay(SimTime::micros(us))
    }

    fn seize_us(res: crate::ResId, us: f64) -> Stage {
        Stage::Seize {
            res,
            hold: SimTime::micros(us),
        }
    }

    /// Completion time of token `t`, read off the makespan: a delay-only
    /// probe that depends on `t` outlasts every other token, so the run
    /// ends exactly one probe delay after `t` completes.
    fn completion(mut dag: Dag, t: TokenId) -> SimTime {
        let probe = SimTime::secs(1000.0);
        dag.token(&[t], vec![Stage::Delay(probe)]);
        dag.run().unwrap().makespan() - probe
    }

    /// Completion time of every token `build` declares.
    fn completions(build: impl Fn() -> (Dag, Vec<TokenId>)) -> Vec<SimTime> {
        let n = build().1.len();
        (0..n)
            .map(|i| {
                let (dag, ids) = build();
                completion(dag, ids[i])
            })
            .collect()
    }

    fn assert_micros(got: &[SimTime], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g.as_micros() - w).abs() < 1e-6, "{g} vs {w} us");
        }
    }

    #[test]
    fn sequential_delays_accumulate() {
        let mut dag = Dag::new();
        dag.token(&[], vec![delay_us(5.0), delay_us(7.0), delay_us(8.0)]);
        let r = dag.run().unwrap();
        assert!((r.makespan().as_micros() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_serialize_tokens() {
        let mut dag = Dag::new();
        let a = dag.token(&[], vec![delay_us(10.0)]);
        let b = dag.token(&[a], vec![delay_us(10.0)]);
        dag.token(&[a, b], vec![delay_us(10.0)]);
        let r = dag.run().unwrap();
        assert!((r.makespan().as_micros() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn start_after_delays_a_root_token() {
        let mut dag = Dag::new();
        dag.token_at(SimTime::millis(2.0), &[], vec![delay_us(1.0)]);
        let r = dag.run().unwrap();
        assert!((r.makespan().as_micros() - 2001.0).abs() < 1e-9);
    }

    #[test]
    fn seize_is_fifo_and_serializes() {
        let got = completions(|| {
            let mut dag = Dag::new();
            let res = dag.resource();
            let ids = (0..3)
                .map(|_| dag.token(&[], vec![seize_us(res, 10.0)]))
                .collect();
            (dag, ids)
        });
        assert_micros(&got, &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn pipe_shares_bandwidth_across_tokens() {
        // Shared, both finish at 1 s; served one after the other, the
        // first would finish at 0.5 s.
        let got = completions(|| {
            let mut dag = Dag::new();
            let pipe = dag.pipe(Rate::mib_per_sec(100.0));
            let ids = (0..2)
                .map(|_| dag.token(&[], vec![Stage::xfer(pipe, 50 << 20)]))
                .collect();
            (dag, ids)
        });
        assert_micros(&got, &[1e6, 1e6]);
    }

    #[test]
    fn capped_transfer_cannot_exceed_cap() {
        let mut dag = Dag::new();
        let pipe = dag.pipe(Rate::mib_per_sec(100.0));
        dag.token(
            &[],
            vec![Stage::Xfer {
                pipe,
                bytes: 10 << 20,
                cap: Some(Rate::mib_per_sec(10.0)),
            }],
        );
        let r = dag.run().unwrap();
        assert!((r.makespan().as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pool_bounds_concurrency_fifo() {
        // Pool of 1 unit: three tokens each hold it for 10us of pipe-free
        // delay; they must serialize.
        let got = completions(|| {
            let mut dag = Dag::new();
            let pool = dag.pool(1);
            let ids = (0..3)
                .map(|_| {
                    dag.token(
                        &[],
                        vec![
                            Stage::Acquire { pool, n: 1 },
                            delay_us(10.0),
                            Stage::Release { pool, n: 1 },
                        ],
                    )
                })
                .collect();
            (dag, ids)
        });
        assert_micros(&got, &[10.0, 20.0, 30.0]);
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
        dag.token(&[], vec![Stage::xfer(pipe, 0), Stage::Delay(SimTime::ZERO)]);
        let r = dag.run().unwrap();
        assert_eq!(r.makespan(), SimTime::ZERO);
    }

    #[test]
    fn determinism_same_dag_same_result() {
        let build = || {
            let mut dag = Dag::new();
            let res = dag.resource();
            let pipe = dag.pipe(Rate::mib_per_sec(37.0));
            let pool = dag.pool(3);
            let ids = (0..50)
                .map(|i| {
                    dag.token(
                        &[],
                        vec![
                            Stage::Acquire { pool, n: 1 },
                            seize_us(res, 1.0 + i as f64 * 0.1),
                            Stage::xfer(pipe, 1 << 20),
                            Stage::Release { pool, n: 1 },
                        ],
                    )
                })
                .collect();
            (dag, ids)
        };
        assert_eq!(build().0.run().unwrap(), build().0.run().unwrap());
        assert_eq!(completions(build), completions(build));
    }
}
