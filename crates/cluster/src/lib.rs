//! # nvmecr-cluster — cluster substrate
//!
//! Everything NVMe-CR assumes from the machine room, rebuilt as software:
//!
//! * [`topology`] — racks, power distribution units, compute and storage
//!   nodes, and switch-hop distances (the input to the storage balancer's
//!   greedy placement, §III-F).
//! * [`failure`] — failure-domain derivation ("nodes which share hardware
//!   are placed in the same domain") and partner-domain lists sorted by hop
//!   count.
//! * [`scheduler`] — a Slurm-like job scheduler with *generic resources*:
//!   storage is handed to jobs at NVMe-namespace granularity, as the paper
//!   does with Slurm's gres plugin (§III-F "Security Model").
//! * [`mpi`] — the thin slice of MPI the runtime actually uses:
//!   communicator construction, `split` (to build `MPI_COMM_CR`), and
//!   functional collectives with log-tree cost models. Coordination happens
//!   only at init, exactly as in the paper (§III-C).
//! * [`faults`] — MTBF-driven fault injection, including correlated
//!   (cascading) rack failures for the multi-level checkpointing
//!   evaluation (§IV-I).
//!
//! The default [`topology::Topology::paper_testbed`] reproduces the
//! evaluation cluster: one 16-node compute rack (28 cores each) and one
//! 8-node storage rack (one SSD each) on EDR InfiniBand.

#![forbid(unsafe_code)]

pub mod failure;
pub mod faults;
pub mod mpi;
pub mod scheduler;
pub mod topology;

pub use failure::{DomainId, FailureDomains};
pub use faults::{FaultEvent, FaultInjector, FaultKind};
pub use mpi::{Comm, CommWorld};
pub use scheduler::{JobAllocation, JobId, JobRequest, Scheduler, SchedulerError, StorageGrant};
pub use topology::{NodeId, NodeKind, PodId, RackId, Topology};
