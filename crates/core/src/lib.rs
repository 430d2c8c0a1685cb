//! # nvmecr — the NVMe-CR runtime
//!
//! NVMe-CR (the paper's contribution) is "a scalable ephemeral userspace
//! storage runtime for storing checkpoint data with NVMf" built on the
//! [`microfs`] abstraction. This crate is the functional runtime: it moves
//! real bytes from per-rank [`microfs::MicroFs`] instances over the
//! [`fabric`] NVMf transport into namespaces on [`ssd`] devices, placed by
//! the storage balancer across the [`cluster`] topology.
//!
//! The three components of Figure 3:
//!
//! * **Control plane** — per-rank `MicroFs` (private namespace, metadata
//!   provenance, log record coalescing): see the `microfs` crate.
//! * **Data plane** — [`dataplane::NvmfBlockDevice`], a
//!   [`microfs::BlockDevice`] that forwards hugeblock IO through an NVMf
//!   connection to the rank's contiguous SSD segment.
//! * **Storage balancer** — [`balancer`], the failure-domain-aware,
//!   round-robin partitioner of §III-F (Figure 6), building the per-SSD
//!   `MPI_COMM_CR` communicators.
//!
//! Plus: [`intercept`] (the symbol-interception shim of §III-C),
//! [`multilevel`] (1-in-k checkpoints to a parallel filesystem, §III-F),
//! and [`metrics`] (efficiency and progress-rate definitions, §IV, and
//! the one function that prices the stack's counted IO in device time).
//!
//! Timing *models* for cluster-scale experiments live in the `baselines`
//! and `workloads` crates; this crate is the thing they model.

#![forbid(unsafe_code)]

pub mod balancer;
pub mod config;
pub mod dataplane;
pub mod intercept;
pub mod metrics;
pub mod multilevel;
pub mod reactor;
pub mod recovery;
pub mod replication;
pub mod runtime;
pub mod supervisor;

pub use balancer::{BalanceError, DomainIndex, Placement, RankPlacement, StorageBalancer};
pub use config::RuntimeConfig;
pub use dataplane::NvmfBlockDevice;
pub use intercept::PosixLayer;
pub use metrics::{efficiency, progress_rate};
pub use multilevel::{CheckpointLevel, MultiLevelPolicy};
pub use reactor::{
    MachineStep, QosConfig, RankMachine, RankTask, ReactorConfig, ReactorMode, ReactorPool,
};
pub use replication::{Mirror, ReplicationError, ScrubReport};
pub use runtime::{JobHandle, NvmeCrRuntime, RuntimeError, StorageRack};
pub use supervisor::{
    DegradedRank, RecoveryOutcome, RecoveryPolicy, RecoverySupervisor, Supervised,
};
