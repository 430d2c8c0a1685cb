//! # nvmecr-cluster — cluster substrate
//!
//! Everything NVMe-CR assumes from the machine room, rebuilt as software:
//!
//! * [`topology`] — racks, power distribution units, and compute and
//!   storage nodes on a two-level (rack switch + spine) network.
//! * [`failure`] — failure-domain derivation ("nodes which share hardware
//!   are placed in the same domain"): one domain per rack.
//! * [`scheduler`] — a Slurm-like job scheduler with *generic resources*:
//!   storage is handed to jobs at NVMe-namespace granularity, as the paper
//!   does with Slurm's gres plugin (§III-F "Security Model").
//! * [`faults`] — MTBF-driven fault injection, including correlated
//!   (cascading) rack failures for the multi-level checkpointing
//!   evaluation (§IV-I).
//!
//! The default [`topology::Topology::paper_testbed`] reproduces the
//! evaluation cluster: one 16-node compute rack (28 cores each) and one
//! 8-node storage rack (one SSD each) on EDR InfiniBand.
//!
//! The paper's MPI use (splitting ranks into one `MPI_COMM_CR` per SSD at
//! init, §III-C) is not modelled here: under round-robin placement the
//! split has a closed form, which the storage balancer in the `nvmecr`
//! crate computes directly.

#![forbid(unsafe_code)]

pub mod failure;
pub mod faults;
pub mod scheduler;
pub mod topology;

pub use failure::{DomainId, FailureDomains};
pub use faults::{FaultEvent, FaultInjector, FaultKind};
pub use scheduler::{JobAllocation, JobRequest, Scheduler, SchedulerError, StorageGrant};
pub use topology::{NodeId, NodeKind, RackId, Topology};
