//! # nvmecr-fabric — RDMA network and NVMe-over-Fabrics transport
//!
//! The paper's data plane (Figure 4) is an SPDK NVMf initiator embedded in
//! each runtime instance talking RDMA to SPDK NVMf target daemons on the
//! storage nodes. This crate rebuilds that substrate in three layers:
//!
//! * [`capsule`] — a real binary codec for NVMf command/response capsules
//!   (opcode, NSID, SLBA, length, CID), round-trip tested. Every functional
//!   IO in the workspace is serialized through this codec, standing in for
//!   the wire format.
//! * [`target`] / [`initiator`] — a functional multi-tenant NVMf target
//!   (per-connection namespace access control, §III-F) and the client side
//!   that NVMe-CR's data plane drives. Each connection carries capsules
//!   over two in-order queues, one per direction, that the initiator
//!   polls instead of waiting on (Principle 1). These move *real bytes*
//!   into [`ssd::Ssd`] devices.
//! * [`path`] and [`transport`] — timing models. [`path::IoPath`] prices the
//!   two software stacks the paper contrasts: the kernel path of Figure 2
//!   (syscall trap + VFS + block layer + interrupt completion) versus the
//!   polled userspace SPDK path of Figure 4. [`transport::FabricFacility`]
//!   prices the RDMA fabric itself (per-message CPU, propagation by hop
//!   count, link bandwidth) for the `simkit` DAGs.

#![forbid(unsafe_code)]

pub mod capsule;
pub mod config;
pub mod initiator;
pub mod path;
pub mod sg;
pub mod target;
pub mod transport;

pub use capsule::{Capsule, CapsuleError, Completion, Opcode, Status};
pub use config::{FabricConfig, KernelCosts, NetConfig};
pub use initiator::{
    write_mirrored_bytes, Initiator, InitiatorError, MirrorOutcome, MirroredWrite, NvmfConnection,
};
pub use path::{IoPath, PathCosts, TimeSplit};
pub use sg::SgList;
pub use target::{NvmfTarget, TargetError};
pub use transport::FabricFacility;
