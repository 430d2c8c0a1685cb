//! Typestate-guarded rank recovery: `Crashed` → `Replaying` → `Verified` →
//! serving.
//!
//! A rank comes back in one chain: reconnect its route over the fabric,
//! mount its filesystem ([`MicroFs::mount`], the only way to a replayed
//! instance), and — when replicated — decode the manifest region and
//! rebuild the mirror's extent map (a CRC rescan of the recovered
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
//! * [`Replaying`] — the rank's route opened: its primary reconnected,
//!   nothing read. No filesystem, no mirror, no escape hatch.
//! * [`Verified`] — the filesystem mounted ([`MicroFs::mount`]: snapshot
//!   load, log scan, replay) and, for replicated routes, the latest
//!   sealed epoch read back from the manifest region with the mirror map
//!   rebuilt by rescanning the live footprint
//!   ([`MicroFs::live_spans`]). [`Verified::serve`] is the only way out.
//!
//! [`NvmeCrRuntime::recover_ranks`](crate::runtime::NvmeCrRuntime::recover_ranks)
//! drives this chain end to end, on the runtime's reactor pool;
//! [`RecoverySupervisor::attach`](crate::supervisor::RecoverySupervisor::attach)
//! runs it for every rank of a restarted job.

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

    /// Reconnect the rank's primary over the fabric. Nothing is read and
    /// no replica is attached yet.
    pub fn begin_replay(self) -> Replaying {
        let dev = self.route.open(self.nqn.clone(), &self.config);
        Replaying {
            route: self.route,
            nqn: self.nqn,
            config: self.config,
            dev,
        }
    }
}

/// Primary reconnected, nothing read: the device a mount will replay
/// from. Replicated routes have not re-attached their mirror.
pub struct Replaying {
    route: RankRoute,
    nqn: String,
    config: RuntimeConfig,
    dev: NvmfBlockDevice,
}

impl Replaying {
    /// Mount the filesystem (snapshot load, log scan and replay), then
    /// verify the replica state: decode the latest sealed epoch from the
    /// manifest region and rebuild the mirror's extent map by rescanning
    /// the primary's live bytes — the spans the replayed filesystem
    /// depends on ([`MicroFs::live_spans`]: superblock, log prefix,
    /// snapshot slots, referenced hugeblocks). Writes made after the last
    /// commit are on both copies but in no manifest; a map that missed
    /// them would silently drop them from future epochs, and the live
    /// spans cover every one the filesystem still references. Both halves
    /// are one transition on purpose — "replayed but unverified" is not a
    /// representable state.
    pub fn replay_all(self) -> Result<Verified, RuntimeError> {
        let mut fs = MicroFs::mount(self.dev, self.config.fs_config())?;
        if let Some(rr) = &self.route.replica {
            if self.config.chaos.fire(chaos::Site::ManifestScan).is_some() {
                return Err(RuntimeError::Replication(
                    fabric::InitiatorError::Transport("crash point: recovery manifest scan".into())
                        .into(),
                ));
            }
            let region = self.route.base + self.route.fs_size();
            let epoch = replication::read_manifests(fs.device_mut().conn_mut(), region)
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

/// Filesystem mounted, manifests verified, mirror (if any) re-attached:
/// the rank is consistent and may serve.
pub struct Verified {
    fs: MicroFs<NvmfBlockDevice>,
}

impl Verified {
    /// Hand the recovered, verified filesystem to the runtime.
    pub fn serve(self) -> MicroFs<NvmfBlockDevice> {
        self.fs
    }
}
