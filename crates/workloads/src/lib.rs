//! # nvmecr-workloads — applications, patterns, and experiment drivers
//!
//! The paper evaluates with ECP CoMD, a molecular-dynamics proxy app that
//! alternates compute phases with N-N checkpoint dumps. This crate holds:
//!
//! * [`comd`] — the CoMD-like application model: atoms, deterministic
//!   checkpoint payloads (real bytes for functional runs), compute-phase
//!   timing, and the paper's weak/strong scaling presets;
//! * [`pattern`] — N-N and N-1 checkpoint write plans (§III-E: the paper
//!   targets N-N, citing that ~90% of runs use it \[39\]);
//! * [`nvmecr_model`] — NVMe-CR as a [`baselines::StorageModel`], including
//!   the Figure 7(d) drilldown ladder, the hugeblock-size sweep of
//!   Figure 7(a), the local/remote split of Figure 8(a), and the
//!   coalescing on/off recovery ablation of §IV-I;
//! * [`driver`] — experiment drivers: model-level scaling sweeps
//!   (Figure 9), the multi-level checkpointing evaluation (Table II), and
//!   *functional* drivers that run real bytes through the full
//!   `nvmecr` + `microfs` + `fabric` + `ssd` stack with crash/recovery
//!   verification — full N-N rounds, and incremental rounds that write
//!   only the chunks the application dirtied.

#![forbid(unsafe_code)]

pub mod apps;
pub mod comd;
pub mod driver;
pub mod interval;
pub mod n1;
pub mod nvmecr_model;
pub mod pattern;
pub mod trace;

pub use apps::PhasedApp;
pub use comd::CoMD;
pub use driver::{
    checkpoint_ranks, multilevel_eval, run_functional_checkpoints, run_incremental_checkpoints,
    scaling_sweep, verify_ranks, FunctionalReport, IncrementalImage, IncrementalRunReport,
    IncrementalSpec, IncrementalStrategy, MultiLevelResult, ScalingPoint, INCREMENTAL_CHUNK,
};
pub use interval::{best_efficiency, daly_interval, young_interval};
pub use n1::N1Adapter;
pub use nvmecr_model::NvmeCrModel;
pub use pattern::{CheckpointPattern, WriteOp};
pub use trace::{IoTrace, TraceOp};
