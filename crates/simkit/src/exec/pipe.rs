//! Processor-sharing bandwidth pipe with per-stream rate caps.
//!
//! Concurrent transfers share the pipe's aggregate bandwidth max-min fairly
//! (water-filling): capped streams get at most their cap; leftover bandwidth
//! is split equally among the rest. Rates are recomputed whenever the active
//! set changes, and the pipe predicts the next stream completion so the
//! engine can schedule a wake-up.

use crate::time::{Rate, SimTime};

use super::TokenId;

/// Sub-byte residue below which a transfer counts as finished. Rates in this
/// workspace are ≥ 1 MB/s, so half a byte is far below any meaningful
/// timescale.
const EPS_BYTES: f64 = 0.5;

#[derive(Debug)]
struct Stream {
    token: TokenId,
    remaining: f64,
    cap: Option<Rate>,
    rate: f64,
}

/// One shared-bandwidth pipe.
#[derive(Debug)]
pub(crate) struct PsPipe {
    bw: f64,
    streams: Vec<Stream>,
    last_update: SimTime,
    /// Invalidates stale scheduled wake-ups after membership changes.
    pub epoch: u64,
}

impl PsPipe {
    pub fn new(bw: Rate) -> Self {
        PsPipe {
            bw: bw.as_bytes_per_sec(),
            streams: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
        }
    }

    /// Advance internal progress to `now`, draining bytes at current rates.
    fn settle(&mut self, now: SimTime) {
        let dt = (now.as_secs() - self.last_update.as_secs()).max(0.0);
        if dt > 0.0 {
            for s in &mut self.streams {
                s.remaining -= (s.rate * dt).min(s.remaining);
            }
        }
        self.last_update = now;
    }

    /// Max-min fair (water-filling) rate assignment with caps.
    fn recompute_rates(&mut self) {
        let n = self.streams.len();
        if n == 0 {
            return;
        }
        // Order stream indices by cap ascending (uncapped last).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ca = self.streams[a]
                .cap
                .map_or(f64::INFINITY, |c| c.as_bytes_per_sec());
            let cb = self.streams[b]
                .cap
                .map_or(f64::INFINITY, |c| c.as_bytes_per_sec());
            ca.total_cmp(&cb)
        });
        let mut remaining_bw = self.bw;
        let mut remaining_n = n;
        for (pos, &i) in order.iter().enumerate() {
            let fair = remaining_bw / remaining_n as f64;
            let cap = self.streams[i]
                .cap
                .map_or(f64::INFINITY, |c| c.as_bytes_per_sec());
            if cap <= fair {
                self.streams[i].rate = cap;
                remaining_bw -= cap;
                remaining_n -= 1;
            } else {
                // Everyone from here on is uncapped-or-above-fair: equal split.
                for &j in &order[pos..] {
                    self.streams[j].rate = fair;
                }
                return;
            }
        }
    }

    /// Add a transfer; caller must then reschedule via [`next_completion`].
    pub fn add(&mut self, now: SimTime, token: TokenId, bytes: u64, cap: Option<Rate>) {
        self.settle(now);
        self.streams.push(Stream {
            token,
            remaining: bytes as f64,
            cap,
            rate: 0.0,
        });
        self.recompute_rates();
        self.epoch += 1;
    }

    /// Remove all finished streams at `now`, returning their tokens.
    pub fn harvest(&mut self, now: SimTime) -> Vec<TokenId> {
        self.settle(now);
        let mut done = Vec::new();
        self.streams.retain(|s| {
            if s.remaining <= EPS_BYTES {
                done.push(s.token);
                false
            } else {
                true
            }
        });
        if !done.is_empty() {
            self.recompute_rates();
            self.epoch += 1;
        }
        done
    }

    /// Predicted time of the next stream completion, if any are active.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        self.streams
            .iter()
            .filter(|s| s.rate > 0.0)
            .map(|s| now.as_secs() + (s.remaining / s.rate).max(0.0))
            .min_by(|a, b| a.total_cmp(b))
            .map(SimTime::secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: usize) -> TokenId {
        TokenId(i)
    }

    #[test]
    fn single_stream_runs_at_line_rate() {
        let mut p = PsPipe::new(Rate::mib_per_sec(100.0));
        p.add(SimTime::ZERO, tid(0), 100 << 20, None);
        let done = p.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs() - 1.0).abs() < 1e-9);
        let finished = p.harvest(done);
        assert_eq!(finished, vec![tid(0)]);
        assert!(p.next_completion(done).is_none());
    }

    #[test]
    fn two_equal_streams_split_fairly() {
        let mut p = PsPipe::new(Rate::mib_per_sec(100.0));
        p.add(SimTime::ZERO, tid(0), 50 << 20, None);
        p.add(SimTime::ZERO, tid(1), 50 << 20, None);
        // Each gets 50 MiB/s -> both finish at t=1s.
        let done = p.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs() - 1.0).abs() < 1e-9);
        let mut finished = p.harvest(done);
        finished.sort();
        assert_eq!(finished, vec![tid(0), tid(1)]);
    }

    #[test]
    fn cap_limits_one_stream_and_frees_bandwidth() {
        let mut p = PsPipe::new(Rate::mib_per_sec(100.0));
        p.add(
            SimTime::ZERO,
            tid(0),
            25 << 20,
            Some(Rate::mib_per_sec(25.0)),
        );
        p.add(SimTime::ZERO, tid(1), 75 << 20, None);
        // Water-fill: capped stream 25 MiB/s, other 75 MiB/s -> both at t=1.
        let done = p.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(p.harvest(done).len(), 2);
    }

    #[test]
    fn late_joiner_slows_existing_stream() {
        let mut p = PsPipe::new(Rate::mib_per_sec(100.0));
        p.add(SimTime::ZERO, tid(0), 100 << 20, None);
        // At t=0.5, 50 MiB remain; a second stream arrives.
        p.add(SimTime::secs(0.5), tid(1), 50 << 20, None);
        // Both now at 50 MiB/s; both finish at t = 0.5 + 1.0.
        let done = p.next_completion(SimTime::secs(0.5)).unwrap();
        assert!((done.as_secs() - 1.5).abs() < 1e-9);
        assert_eq!(p.harvest(done).len(), 2);
    }

    #[test]
    fn undersubscribed_caps_leave_bandwidth_unused() {
        let mut p = PsPipe::new(Rate::mib_per_sec(100.0));
        p.add(
            SimTime::ZERO,
            tid(0),
            10 << 20,
            Some(Rate::mib_per_sec(10.0)),
        );
        // Only 10 of 100 MiB/s usable.
        let done = p.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs() - 1.0).abs() < 1e-9);
    }

    proptest::proptest! {
        /// Water-filling invariants: every stream's rate respects its cap,
        /// rates never exceed the pipe, and the assignment is
        /// work-conserving (either the pipe is fully used or every stream
        /// is at its cap).
        #[test]
        fn prop_water_filling(
            caps in proptest::collection::vec(proptest::option::of(1u32..200), 1..12)
        ) {
            let total = 100.0 * (1 << 20) as f64;
            let mut p = PsPipe::new(Rate::bytes_per_sec(total));
            for (i, cap) in caps.iter().enumerate() {
                p.add(
                    SimTime::ZERO,
                    tid(i),
                    10 << 20,
                    cap.map(|c| Rate::mib_per_sec(f64::from(c))),
                );
            }
            let mut sum = 0.0;
            let mut all_capped = true;
            for (s, cap) in p.streams.iter().zip(&caps) {
                sum += s.rate;
                if let Some(c) = cap {
                    let cap_bps = f64::from(*c) * (1 << 20) as f64;
                    proptest::prop_assert!(s.rate <= cap_bps + 1.0);
                    if s.rate < cap_bps - 1.0 {
                        all_capped = false;
                    }
                } else {
                    all_capped = false;
                }
            }
            proptest::prop_assert!(sum <= total + 1.0, "oversubscribed: {} > {}", sum, total);
            proptest::prop_assert!(
                sum >= total - 1.0 || all_capped,
                "not work-conserving: sum {} of {}, all_capped {}",
                sum,
                total,
                all_capped
            );
            // Fairness: any two uncapped streams get equal rates.
            let uncapped: Vec<f64> = p
                .streams
                .iter()
                .zip(&caps)
                .filter(|(_, c)| c.is_none())
                .map(|(s, _)| s.rate)
                .collect();
            for w in uncapped.windows(2) {
                proptest::prop_assert!((w[0] - w[1]).abs() < 1.0);
            }
        }
    }
}
