//! The broader ECP proxy-app suite (§IV-A): "Most applications in the ECP
//! application suite, including AMG, Ember, ExaMiniMD, and miniAMR have
//! similar behavior and are likely to show similar improvements as CoMD."
//!
//! Each app is a [`PhasedApp`]: a compute phase of some intensity followed
//! by an N-N dump of some size, repeated. They differ in *checkpoint
//! density* (bytes dumped per second of compute), which is what moves the
//! progress-rate needle; the suite harness verifies the paper's claim that
//! NVMe-CR's advantage persists across the suite.

use simkit::SimTime;

/// A compute/checkpoint phase-structured application.
#[derive(Debug, Clone)]
pub struct PhasedApp {
    /// Display name.
    pub name: &'static str,
    /// Compute time between checkpoints, per rank.
    pub compute_interval: SimTime,
    /// Checkpoint bytes per rank per dump.
    pub bytes_per_rank: u64,
}

impl PhasedApp {
    /// Application progress rate given a per-checkpoint dump time.
    pub fn progress_rate(&self, dump: SimTime) -> f64 {
        self.compute_interval.as_secs() / (self.compute_interval + dump).as_secs()
    }

    /// CoMD: molecular dynamics, the paper's primary subject.
    pub fn comd() -> Self {
        PhasedApp {
            name: "CoMD",
            compute_interval: SimTime::secs(3.3),
            bytes_per_rank: 156 << 20,
        }
    }

    /// AMG: algebraic multigrid — larger state (matrices + vectors),
    /// longer solve phases.
    pub fn amg() -> Self {
        PhasedApp {
            name: "AMG",
            compute_interval: SimTime::secs(10.0),
            bytes_per_rank: 320 << 20,
        }
    }

    /// Ember: communication proxy — small state, frequent dumps.
    pub fn ember() -> Self {
        PhasedApp {
            name: "Ember",
            compute_interval: SimTime::secs(1.2),
            bytes_per_rank: 48 << 20,
        }
    }

    /// ExaMiniMD: MD like CoMD, somewhat denser dumps.
    pub fn examinimd() -> Self {
        PhasedApp {
            name: "ExaMiniMD",
            compute_interval: SimTime::secs(2.5),
            bytes_per_rank: 180 << 20,
        }
    }

    /// miniAMR: adaptive mesh refinement — bursty, mid-size dumps.
    pub fn miniamr() -> Self {
        PhasedApp {
            name: "miniAMR",
            compute_interval: SimTime::secs(4.5),
            bytes_per_rank: 96 << 20,
        }
    }

    /// The suite evaluated in the harness.
    pub fn suite() -> Vec<PhasedApp> {
        vec![
            Self::comd(),
            Self::amg(),
            Self::ember(),
            Self::examinimd(),
            Self::miniamr(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmeCrModel;
    use baselines::model::StorageModel;
    use baselines::{OrangeFsModel, Scenario};

    #[test]
    fn densities_differ_across_the_suite() {
        let suite = PhasedApp::suite();
        // Checkpoint density: bytes dumped per second of compute.
        let mut densities: Vec<f64> = suite
            .iter()
            .map(|app| app.bytes_per_rank as f64 / app.compute_interval.as_secs())
            .collect();
        densities.sort_by(f64::total_cmp);
        densities.dedup_by(|a, b| (*a - *b).abs() < 1.0);
        assert_eq!(
            densities.len(),
            suite.len(),
            "each app has a distinct density"
        );
    }

    #[test]
    fn progress_rate_decreases_with_dump_time() {
        let app = PhasedApp::comd();
        let fast = app.progress_rate(SimTime::secs(1.0));
        let slow = app.progress_rate(SimTime::secs(10.0));
        assert!(fast > slow);
        assert!((0.0..=1.0).contains(&fast) && (0.0..=1.0).contains(&slow));
    }

    #[test]
    fn nvmecr_advantage_holds_across_the_suite() {
        // §IV-A's claim: the other ECP apps "are likely to show similar
        // improvements as CoMD". Every app must see a better progress rate
        // on NVMe-CR than on OrangeFS at 448 procs.
        let ours = NvmeCrModel::full();
        let orange = OrangeFsModel::new();
        for app in PhasedApp::suite() {
            let s = Scenario::new(448, app.bytes_per_rank);
            let pr_ours = app.progress_rate(ours.checkpoint_makespan(&s));
            let pr_orange = app.progress_rate(orange.checkpoint_makespan(&s));
            assert!(
                pr_ours > pr_orange * 1.1,
                "{}: {pr_ours:.3} vs {pr_orange:.3}",
                app.name
            );
        }
    }
}
