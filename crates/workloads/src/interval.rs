//! Optimal checkpoint intervals (Young/Daly) and machine efficiency.
//!
//! The paper's motivation (§I) is an exascale MTBF under 30 minutes: "not
//! only will checkpoint time increase, but checkpoint frequency will also
//! increase to account for the decrease in MTBF". This module makes that
//! argument quantitative: given a system MTBF `M` and a per-checkpoint
//! dump time `delta`, Young's first-order optimum is `sqrt(2*delta*M)` and
//! the resulting machine efficiency follows — so a faster checkpoint tier
//! (smaller `delta`) converts directly into usable compute, which is the
//! TCO argument of §I-B run through checkpointing theory.

use simkit::SimTime;

/// Young's first-order optimal compute interval between checkpoints:
/// `sqrt(2 * dump * mtbf)`.
pub fn young_interval(dump: SimTime, mtbf: SimTime) -> SimTime {
    SimTime::secs((2.0 * dump.as_secs() * mtbf.as_secs()).sqrt())
}

/// Expected machine efficiency when checkpointing every `interval` of
/// compute with dump time `dump` under exponential failures of mean
/// `mtbf`: the fraction of wall-clock spent on *useful, retained* compute.
///
/// First-order model: each cycle costs `interval + dump` of wall-clock;
/// a failure (rate `1/mtbf`) loses on average half an interval plus a
/// restart (we fold restart into `dump` for simplicity).
pub fn efficiency(interval: SimTime, dump: SimTime, mtbf: SimTime) -> f64 {
    let w = interval.as_secs();
    let d = dump.as_secs();
    let m = mtbf.as_secs();
    assert!(w > 0.0 && m > 0.0);
    // Useful fraction of a cycle, discounted by expected rework.
    let cycle = w + d;
    let failures_per_cycle = cycle / m;
    let rework = failures_per_cycle * (w / 2.0 + d);
    ((w - rework) / cycle).clamp(0.0, 1.0)
}

/// The best achievable efficiency for a given dump time and MTBF, using
/// Young's interval.
pub fn best_efficiency(dump: SimTime, mtbf: SimTime) -> f64 {
    efficiency(young_interval(dump, mtbf), dump, mtbf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_matches_textbook_example() {
        // dump 5 min, MTBF 24 h -> sqrt(2 * 300 * 86400) ~ 7200 s.
        let t = young_interval(SimTime::secs(300.0), SimTime::secs(86_400.0));
        assert!((t.as_secs() - 7200.0).abs() < 1.0);
    }

    #[test]
    fn optimum_actually_optimizes() {
        let dump = SimTime::secs(40.0);
        let mtbf = SimTime::secs(1800.0); // the paper's sub-30-min exascale MTBF
        let w_opt = young_interval(dump, mtbf);
        let e_opt = efficiency(w_opt, dump, mtbf);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            let e = efficiency(w_opt * factor, dump, mtbf);
            assert!(
                e <= e_opt + 0.01,
                "interval x{factor} should not beat the optimum: {e} vs {e_opt}"
            );
        }
    }

    #[test]
    fn faster_checkpoints_mean_higher_efficiency() {
        // The paper's argument end-to-end: at exascale MTBF, halving the
        // dump time (what NVMe-CR's 2x does) raises machine efficiency.
        let mtbf = SimTime::secs(1800.0);
        let slow = best_efficiency(SimTime::secs(85.9), mtbf); // OrangeFS Table II
        let fast = best_efficiency(SimTime::secs(39.5), mtbf); // NVMe-CR Table II
        assert!(fast > slow + 0.05, "fast {fast} vs slow {slow}");
        assert!((0.0..=1.0).contains(&fast));
    }

    #[test]
    fn shrinking_mtbf_demands_shorter_intervals() {
        let dump = SimTime::secs(40.0);
        let petascale = young_interval(dump, SimTime::secs(86_400.0));
        let exascale = young_interval(dump, SimTime::secs(1800.0));
        assert!(exascale < petascale / 5.0);
    }

    #[test]
    fn degenerate_dump_larger_than_mtbf() {
        // When the dump takes longer than the MTBF, efficiency collapses
        // toward zero.
        let e = best_efficiency(SimTime::secs(4000.0), SimTime::secs(1800.0));
        assert!(e < 0.2, "{e}");
    }
}
