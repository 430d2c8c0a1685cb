//! Typestate-guarded rank recovery: `Crashed` → `Replaying` → `Verified` →
//! serving.
//!
//! The runtime-level recovery path layers two obligations on top of the
//! microfs one ([`microfs::recovery`]): the rank must reconnect over the
//! fabric, and — when replicated — the manifest region must be decoded and
//! the mirror's extent map rebuilt (a CRC rescan of the recovered
//! filesystem's live bytes) *before* the instance serves reads or takes
//! new writes. Skipping the verification step used to be a runtime bug
//! waiting to happen; with this API it does not compile:
//!
//! ```compile_fail
//! fn premature(r: nvmecr::recovery::Replaying) {
//!     let _fs = r.serve(); // ERROR: `Replaying` has no `serve` —
//!                          // replay + manifest verification come first
//! }
//! ```
//!
//! ```compile_fail
//! fn skip_everything(c: nvmecr::recovery::Crashed) {
//!     let _fs = c.serve(); // ERROR: a crashed rank offers only `begin_replay`
//! }
//! ```
//!
//! The states:
//!
//! * [`Crashed`] — a rank's route and nothing else; no connection exists.
//! * [`Replaying`] — primary reconnected, snapshot loaded, log scanned but
//!   unapplied. No file API, no mirror, no escape hatch.
//! * [`Verified`] — log applied and (for replicated routes) the latest
//!   sealed epoch read back from the manifest region with the mirror map
//!   rebuilt by rescanning the live footprint
//!   ([`MicroFs::live_spans`]). [`Verified::serve`] is the only way out.
//!
//! [`NvmeCrRuntime::recover_ranks`](crate::runtime::NvmeCrRuntime::recover_ranks)
//! drives this chain end to end, on the runtime's reactor pool;
//! [`NvmeCrRuntime::attach`](crate::runtime::NvmeCrRuntime::attach) is
//! `recover_ranks` over every rank of a restarted job.

use microfs::{ExtentMap, MicroFs};

use crate::config::RuntimeConfig;
use crate::dataplane::NvmfBlockDevice;
use crate::replication::{self, Mirror};
use crate::runtime::{RankRoute, RuntimeError};

/// A rank whose process (or whole job) died: a storage route pointing at
/// durable bytes, with no connection and no in-memory state.
pub struct Crashed {
    route: RankRoute,
    nqn: String,
    config: RuntimeConfig,
}

impl Crashed {
    /// Wrap a dead rank's route for recovery. `nqn` names the initiator
    /// the reconnection will present to the target.
    pub(crate) fn new(route: RankRoute, nqn: String, config: RuntimeConfig) -> Self {
        Crashed { route, nqn, config }
    }

    /// Reconnect the rank's primary over the fabric and load its snapshot
    /// and log. Nothing is applied and no replica is attached yet.
    pub fn begin_replay(self) -> Result<Replaying, RuntimeError> {
        let conn = self
            .config
            .connect(self.nqn.clone(), &self.route.target, self.route.ns);
        let mut dev = NvmfBlockDevice::new(conn, self.route.base, self.route.fs_size());
        dev.set_chaos(self.config.chaos.clone());
        let fs = microfs::recovery::Crashed::new(dev, self.config.fs_config())
            .begin_replay()
            .map_err(RuntimeError::Fs)?;
        Ok(Replaying {
            route: self.route,
            nqn: self.nqn,
            config: self.config,
            fs,
        })
    }
}

/// Primary reconnected, snapshot state loaded, log records scanned but not
/// yet applied; replicated routes have not re-attached their mirror.
pub struct Replaying {
    route: RankRoute,
    nqn: String,
    config: RuntimeConfig,
    fs: microfs::recovery::Replaying<NvmfBlockDevice>,
}

impl Replaying {
    /// Log records waiting to be applied.
    pub fn pending_records(&self) -> usize {
        self.fs.pending_records()
    }

    /// Apply the log, then verify the replica state: decode the latest
    /// sealed epoch from the manifest region and rebuild the mirror's
    /// extent map by rescanning the primary's live bytes — the spans the
    /// replayed filesystem depends on ([`MicroFs::live_spans`]: superblock,
    /// log prefix, snapshot slots, referenced hugeblocks). Writes made
    /// after the last commit are on both copies but in no manifest; a map
    /// that missed them would silently drop them from future epochs, and
    /// the live spans cover every one the filesystem still references.
    /// Both halves are one transition on purpose — "replayed but
    /// unverified" is not a representable state.
    pub fn replay_all(self) -> Result<Verified, RuntimeError> {
        let mut fs = self.fs.replay_all().map_err(RuntimeError::Fs)?.serve();
        if let Some(rr) = &self.route.replica {
            let fs_size = self.route.fs_size();
            if self.config.chaos.fire(chaos::Site::ManifestScan).is_some() {
                return Err(RuntimeError::Replication(
                    fabric::InitiatorError::Transport("crash point: recovery manifest scan".into())
                        .into(),
                ));
            }
            let epoch =
                replication::read_manifests(fs.device_mut().conn_mut(), self.route.base + fs_size)
                    .map_err(|e| RuntimeError::Replication(e.into()))?
                    .iter()
                    .map(|m| m.epoch)
                    .max()
                    .unwrap_or(0);
            let rconn = self
                .config
                .connect(format!("{}-mirror", self.nqn), &rr.target, rr.ns);
            // The first commit after a reconnect is always full: rescan
            // tiles the image differently from pre-restart manifests.
            fs.device_mut().attach_mirror(Mirror::new(
                rconn,
                ExtentMap::new(),
                epoch,
                &self.config,
            ));
            let spans = fs.live_spans();
            fs.device_mut().rescan_mirror(&spans)?;
        }
        Ok(Verified { fs })
    }
}

/// Log applied, manifests verified, mirror (if any) re-attached: the rank
/// is consistent and may serve.
pub struct Verified {
    fs: MicroFs<NvmfBlockDevice>,
}

impl Verified {
    /// Records replayed to reach this state.
    pub fn replayed_records(&self) -> u64 {
        self.fs.stats().replayed_records
    }

    /// Hand the recovered, verified filesystem to the runtime.
    pub fn serve(self) -> MicroFs<NvmfBlockDevice> {
        self.fs
    }
}
