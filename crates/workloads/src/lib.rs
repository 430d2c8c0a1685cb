//! # nvmecr-workloads — applications and experiment drivers
//!
//! The paper evaluates with ECP CoMD, a molecular-dynamics proxy app that
//! alternates compute phases with N-N checkpoint dumps (§III-E: the paper
//! targets N-N, citing that ~90% of runs use it \[39\]). This crate holds:
//!
//! * [`comd`] — the CoMD-like application model: atoms, deterministic
//!   checkpoint payloads (real bytes for functional runs), one checkpoint
//!   file per rank, compute-phase timing, and the paper's weak/strong
//!   scaling presets;
//! * [`apps`] — the rest of the ECP proxy-app suite (§IV-A) as phased
//!   compute/dump profiles;
//! * [`interval`] — Young's optimal checkpoint interval and the machine
//!   efficiency it buys;
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
pub mod nvmecr_model;

pub use apps::PhasedApp;
pub use comd::CoMD;
pub use driver::{
    checkpoint_ranks, multilevel_eval, run_functional_checkpoints, run_incremental_checkpoints,
    scaling_sweep, verify_ranks, FunctionalReport, IncrementalImage, IncrementalRunReport,
    IncrementalSpec, IncrementalStrategy, MultiLevelResult, ScalingPoint, INCREMENTAL_CHUNK,
};
pub use interval::{best_efficiency, young_interval};
pub use nvmecr_model::NvmeCrModel;
