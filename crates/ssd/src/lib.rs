//! # nvmecr-ssd — NVMe SSD substrate
//!
//! A software model of the Intel P4800X-class NVMe SSDs the paper deploys in
//! its storage rack. The model has two halves that the rest of the workspace
//! uses together:
//!
//! 1. **A functional device** ([`device::Ssd`]) holding *real bytes* in a
//!    sparse page store, partitioned into NVMe **namespaces**
//!    ([`namespace::NamespaceSet`]), with a **device-RAM write buffer** whose
//!    power-loss behaviour (capacitor-backed flush vs. data loss) is
//!    explicit. microfs recovery tests run against these real bytes.
//!
//! 2. **A timing facility** ([`model::SsdFacility`]) that compiles IO
//!    requests into [`simkit`] stages: a serialized command processor
//!    (`Seize`), a bounded staging-RAM admission pool (`Acquire`/`Release`),
//!    and a flash-channel array (`Xfer` on a shared pipe whose per-request
//!    rate cap reflects how many channels a request of a given size can
//!    stripe across — the mechanism behind the paper's *hugeblock*
//!    observation that large requests reach full device bandwidth even from
//!    a single client, §III-E).
//!
//! The default [`config::SsdConfig`] is calibrated to the paper's testbed
//! (P4800X: ~2.4 GB/s writes, 32 hardware queues, 4 KiB hardware blocks).

#![forbid(unsafe_code)]

pub mod backing;
pub mod config;
pub mod device;
pub mod model;
pub mod namespace;

pub use backing::SparseStore;
pub use config::SsdConfig;
pub use device::{NsShard, PowerFailure, Ssd, SsdError};
pub use model::{IoKind, SsdFacility};
pub use namespace::{NamespaceSet, NsError, NsId};
