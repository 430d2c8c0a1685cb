//! # nvmecr-baselines — models of the paper's comparator storage systems
//!
//! The evaluation (§IV) compares NVMe-CR against OrangeFS, GlusterFS,
//! Crail, ext4, XFS, raw SPDK, and (as the multi-level second tier)
//! Lustre. None of those systems can run here, but each one's *measured
//! behaviour in the paper is attributed to a specific architectural
//! mechanism*, and those mechanisms are what this crate implements:
//!
//! | System | Mechanism modelled | Paper evidence |
//! |---|---|---|
//! | OrangeFS | file striping; serialized global-namespace metadata; kernel IO path; thick software layers | Fig 1 (≤41% of peak), Fig 7b, Fig 8b, Table I (2.6 GB/node metadata) |
//! | GlusterFS | jump consistent hashing (high CoV at low concurrency \[17\]); serialized common-directory creates; decentralized data path | Fig 1 (≤84%), Fig 7b, Fig 8b, Fig 9d dip |
//! | Crail | SPDK userspace data plane but a single metadata server | §IV-F (5-10% above NVMe-CR), single-server limit |
//! | ext4/XFS | kernel path, 4 KiB blocks, journaling (ext4 heavier than XFS's extents) | Fig 7c (83% / 19% worse), %time-in-kernel |
//! | raw SPDK | userspace polled IO, no filesystem at all | Fig 7c (NVMe-CR ≈ SPDK) |
//! | Lustre | 4 servers × 12 Gbps RAID, replication, kernel path | §IV-A, Table II second tier |
//!
//! Every model implements [`model::StorageModel`], producing checkpoint and
//! recovery makespans (via `simkit` DAGs over the shared [`ssd`]/[`fabric`]
//! facilities), create-storm throughput, per-server load distributions, and
//! metadata overheads. The NVMe-CR model itself lives in the `workloads`
//! crate (it composes configuration from the functional `nvmecr` crate).
//!
//! Calibration constants are collected in [`spec::DataPlaneSpec`]
//! presets and documented inline; see DESIGN.md §3.

#![forbid(unsafe_code)]

pub mod crail;
pub mod dagutil;
pub mod glusterfs;
pub mod jumphash;
pub mod kernelfs;
pub mod lustre;
pub mod model;
pub mod orangefs;
pub mod scenario;
pub mod spdk_raw;
pub mod spec;

pub use crail::CrailModel;
pub use glusterfs::GlusterFsModel;
pub use jumphash::{jump_consistent_hash, str_key};
pub use kernelfs::{Ext4Model, XfsModel};
pub use lustre::LustreModel;
pub use model::{MetadataOverhead, StorageModel};
pub use orangefs::OrangeFsModel;
pub use scenario::Scenario;
pub use spdk_raw::SpdkRawModel;
