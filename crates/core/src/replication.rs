//! Synchronous checkpoint replication onto a partner failure domain.
//!
//! When [`crate::RuntimeConfig::replication_factor`] is 2, every rank's
//! block device carries a [`Mirror`]: a second NVMf connection to a
//! namespace on a storage node in the rank's partner failure domain. The
//! write path pushes each extent through *both* submission windows
//! concurrently (`fabric::write_mirrored_bytes` alternates window passes,
//! so the two copies overlap rather than serialize), records the extent's
//! CRC32 in an in-memory [`ExtentMap`], and the runtime seals an
//! [`EpochManifest`] per checkpoint round into the manifest ring at the
//! tail of both copies ([`crate::RuntimeConfig::delta_chain_max`] `= 0`:
//! every epoch is a full manifest in that ring; `n > 0`: up to `n` sparse
//! deltas chain onto each full one). Recovery (`fail_over_rank`) then
//! re-homes the rank and replays the surviving replica extent-by-extent,
//! verifying every committed extent against its CRC before the rank is
//! declared healthy; a scrub pass walks both copies and read-repairs
//! latent bit rot from whichever copy still matches the manifest.
//!
//! Degraded mode: a replica-side IO error never fails the application
//! write — the mirror flips to degraded, queues the stale spans, and the
//! next epoch commit attempts a resync from the primary. While degraded,
//! epoch commits land on the primary only, so a replica-based restore
//! falls back to the replica's last *complete* epoch (counted in
//! `replication.lag_epochs`).

use bytes::Bytes;
use chaos::{ChaosHandle, Site};
use fabric::{write_mirrored_bytes, InitiatorError, MirroredWrite, NvmfConnection};
use microfs::cow::IntervalSet;
use microfs::crc::{crc32, crc32_update};
use microfs::manifest::{
    sealed_body_len, slot_offset, EpochManifest, ExtentMap, ManifestError, ManifestExtent,
    CHAIN_SLOTS, COMMIT_RECORD_BYTES, MAX_DELTA_CHAIN, REGION_BYTES, SLOT_BYTES,
};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use telemetry::{Counter, FlightKind, FlightRecorder, Gauge, Histogram, Telemetry};

use crate::config::RuntimeConfig;

/// Chunk size for scrub/restore/resync streaming reads — bounds peak
/// memory regardless of how large merged extents grow.
const COPY_CHUNK: usize = 4 << 20;

/// Merge cap applied to the extent map while a delta chain is enabled:
/// extents stay near write granularity so the tuple diff between epochs
/// captures roughly what changed instead of one giant merged extent.
const CHAIN_MERGE_LIMIT: u64 = 64 << 10;

/// Replication-layer metric handles, resolved once per mirror.
#[derive(Clone)]
pub struct ReplicationMetrics {
    /// Bytes successfully written to the replica copy.
    pub bytes: Arc<Counter>,
    /// Epochs sealed with a commit record (on at least the primary).
    pub epochs_committed: Arc<Counter>,
    /// Epochs of history lost across replica-based restores.
    pub lag_epochs: Arc<Counter>,
    /// Restores that could not use the live extent map verbatim and fell
    /// back to the last complete manifest (or started degraded).
    pub degraded_restores: Arc<Counter>,
    /// Extents rewritten from the surviving copy (scrub read-repair).
    pub repairs: Arc<Counter>,
    /// Wall time of mirrored data-path window submissions.
    pub mirror_ns: Arc<Histogram>,
    /// Wall time of full scrub passes.
    pub scrub_ns: Arc<Histogram>,
    /// Extents carried by delta epoch manifests (full manifests excluded).
    pub delta_extents: Arc<Counter>,
    /// Current lineage length (full manifest plus deltas since it).
    pub chain_len: Arc<Gauge>,
    /// Wall time of full-compaction commits (sealing a full manifest while
    /// the delta chain is enabled).
    pub compaction_ns: Arc<Histogram>,
    /// Flight recorder: mirror writes, degradations, epoch commits, and
    /// rollback restores, causally ordered against the fabric commands
    /// that carried them.
    pub flight: Arc<FlightRecorder>,
}

impl ReplicationMetrics {
    pub fn new(t: &Telemetry) -> Self {
        ReplicationMetrics {
            bytes: t.counter("replication.bytes"),
            epochs_committed: t.counter("replication.epochs_committed"),
            lag_epochs: t.counter("replication.lag_epochs"),
            degraded_restores: t.counter("replication.degraded_restores"),
            repairs: t.counter("replication.repairs"),
            mirror_ns: t.histogram("replication.mirror_ns"),
            scrub_ns: t.histogram("replication.scrub_ns"),
            delta_extents: t.counter("cow.delta_extents"),
            chain_len: t.gauge("cow.chain_len"),
            compaction_ns: t.histogram("cow.compaction_ns"),
            flight: t.recorder(),
        }
    }
}

/// Errors from the replication layer.
#[derive(Debug)]
pub enum ReplicationError {
    /// The underlying fabric IO failed (on the copy the caller needed).
    Fabric(InitiatorError),
    /// Manifest encode/decode failed.
    Manifest(ManifestError),
    /// Both copies of an extent disagree with the committed CRC.
    Unrecoverable { offset: u64, len: u64 },
    /// No complete epoch exists on the surviving copy.
    NoCompleteEpoch,
    /// A delta chain's manifests partially shadow an ancestor extent — the
    /// lineage is internally inconsistent (should be impossible: re-tiling
    /// always replaces whole extent tuples).
    ChainInconsistent { epoch: u64, offset: u64 },
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Fabric(e) => write!(f, "replication fabric IO: {e}"),
            ReplicationError::Manifest(e) => write!(f, "replication manifest: {e}"),
            ReplicationError::Unrecoverable { offset, len } => {
                write!(f, "extent [{offset}, +{len}) corrupt on both copies")
            }
            ReplicationError::NoCompleteEpoch => {
                write!(f, "no complete checkpoint epoch on surviving copy")
            }
            ReplicationError::ChainInconsistent { epoch, offset } => {
                write!(
                    f,
                    "delta chain at epoch {epoch} partially shadows extent at {offset}"
                )
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<InitiatorError> for ReplicationError {
    fn from(e: InitiatorError) -> Self {
        ReplicationError::Fabric(e)
    }
}

impl From<ManifestError> for ReplicationError {
    fn from(e: ManifestError) -> Self {
        ReplicationError::Manifest(e)
    }
}

/// Result of one scrub pass over a rank's two copies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Committed extents whose CRCs were verified on both copies.
    pub extents_checked: u64,
    /// Extents rewritten from the surviving good copy.
    pub repaired: u64,
    /// Extents corrupt on *both* copies — data loss, surfaced loudly.
    pub unrecoverable: u64,
    /// Extents skipped because they were written after the last commit
    /// (no CRC on record yet).
    pub skipped_dirty: u64,
}

/// Live mirror state for one rank: the replica connection, the extent
/// map shared by both copies, and the epoch counter.
pub struct Mirror {
    conn: NvmfConnection,
    map: ExtentMap,
    epoch: u64,
    degraded: bool,
    /// Spans whose replica copy is stale after a degraded write; resynced
    /// from the primary at the next epoch commit.
    pending_resync: Vec<(u64, u64)>,
    metrics: ReplicationMetrics,
    /// Deltas allowed since the last full manifest before a compaction;
    /// `0` seals every epoch as a full manifest.
    delta_chain_max: u32,
    /// Deltas sealed since the last full manifest.
    deltas_since_full: u32,
    /// Extent tuples as of the previous commit — the diff base for the
    /// next delta. `None` forces the next commit to be full (fresh mirror,
    /// post-rescan, post-failover: tiling never spans a restart).
    last_entries: Option<HashSet<(u64, u64, u32)>>,
    /// Whiteouts (device discards) accumulated since the last commit.
    pending_whiteouts: Vec<(u64, u64)>,
    /// Crash-universe hook: disarmed (the default) every gate is one
    /// relaxed atomic load.
    chaos: ChaosHandle,
}

impl Mirror {
    /// A mirror over replica connection `conn` resuming from `(map, epoch)`
    /// (empty and 0 over a fresh replica), under `config`'s chaos hook,
    /// telemetry and delta-chain policy (`delta_chain_max`, clamped to
    /// [`MAX_DELTA_CHAIN`]). Its first commit is always a full manifest: a
    /// lineage never spans a restart or failover.
    pub fn new(
        conn: NvmfConnection,
        mut map: ExtentMap,
        epoch: u64,
        config: &RuntimeConfig,
    ) -> Self {
        let delta_chain_max = config.delta_chain_max.min(MAX_DELTA_CHAIN);
        if delta_chain_max > 0 {
            map.set_merge_limit(CHAIN_MERGE_LIMIT);
        }
        Mirror {
            conn,
            map,
            epoch,
            degraded: false,
            pending_resync: Vec::new(),
            metrics: ReplicationMetrics::new(&config.telemetry),
            delta_chain_max,
            deltas_since_full: 0,
            last_entries: None,
            pending_whiteouts: Vec::new(),
            chaos: config.chaos.clone(),
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    pub fn map(&self) -> &ExtentMap {
        &self.map
    }

    /// Tear down into `(replica connection, extent map, epoch, degraded)`
    /// — used by `fail_over_rank` to reuse the surviving copy.
    pub fn into_parts(self) -> (NvmfConnection, ExtentMap, u64, bool) {
        (self.conn, self.map, self.epoch, self.degraded)
    }

    /// Mirror a batch of partition-relative writes: primary lands at
    /// `primary_base + offset`, replica at `offset`. Each payload's CRC
    /// is computed exactly once here and shared by both capsule encodes
    /// (pre-CRC path) and the extent map. Replica errors degrade the
    /// mirror instead of failing the write; primary errors propagate.
    pub fn write_through(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
        mut writes: Vec<(u64, Bytes)>,
    ) -> Result<(), InitiatorError> {
        if writes.is_empty() {
            return Ok(());
        }
        // Crash-universe gate, one index per element. When the crash
        // lands at element `i`, elements before it still reach both
        // copies, element `i` reaches the primary only (its replica DMA
        // never completed), and the rest of the batch is lost — the most
        // asymmetric state a mid-batch power cut can leave.
        let mut tail = None;
        if self.chaos.is_armed() {
            for i in 0..writes.len() {
                if self.chaos.fire(Site::MirrorWrite).is_some() {
                    tail = Some(writes.split_off(i));
                    break;
                }
            }
        }
        if !writes.is_empty() {
            // Epoch trace context: the write belongs to the epoch being
            // built (one past the last sealed one); every fabric/ssd
            // event under this frame carries it.
            let _epoch = telemetry::context::with_epoch(self.epoch + 1);
            let timer = self.metrics.mirror_ns.time();
            let mut mirrored = Vec::with_capacity(writes.len());
            let mut total = 0u64;
            for (offset, data) in writes {
                let crc = crc32(&data);
                self.map.record(offset, data.len() as u64, crc);
                total += data.len() as u64;
                mirrored.push(MirroredWrite {
                    primary_offset: primary_base + offset,
                    replica_offset: offset,
                    data,
                    crc,
                });
            }
            let spans: Vec<(u64, u64)> = mirrored
                .iter()
                .map(|w| (w.replica_offset, w.data.len() as u64))
                .collect();
            if self.degraded {
                // Replica already stale — write the primary alone and
                // queue the spans for the next resync attempt.
                let plain = mirrored
                    .into_iter()
                    .map(|w| (w.primary_offset, w.data, w.crc))
                    .collect();
                primary.write_vectored_bytes_precrc(plain)?;
                self.pending_resync.extend(spans);
                drop(timer);
            } else {
                let outcome = write_mirrored_bytes(primary, &mut self.conn, mirrored)?;
                drop(timer);
                if outcome.replica_error.is_some() {
                    // The window may have partially landed on the
                    // replica; treat the whole batch as stale.
                    self.degraded = true;
                    self.metrics.flight.record(
                        FlightKind::MirrorDegraded,
                        0,
                        0,
                        spans.len() as u64,
                        0,
                    );
                    self.pending_resync.extend(spans);
                } else {
                    self.metrics.bytes.add(total);
                    self.metrics.flight.record(
                        FlightKind::MirrorWrite,
                        0,
                        0,
                        total,
                        spans.len() as u64,
                    );
                }
            }
        }
        if let Some(mut tail) = tail {
            // The crashed element's primary copy landed; nothing after it
            // did. The in-memory map dies with the crash, so it is not
            // updated.
            let (offset, data) = tail.remove(0);
            let crc = crc32(&data);
            primary.write_vectored_bytes_precrc(vec![(primary_base + offset, data, crc)])?;
            let _ = primary.flush();
            return Err(InitiatorError::Transport(
                "crash point: mirror write".into(),
            ));
        }
        Ok(())
    }

    /// Drop `[offset, offset+len)` from the mirrored image: the span's
    /// file was deleted or truncated away. The extent map forgets it and,
    /// when deltas are sealed, the next delta manifest records it as a
    /// whiteout so chain materialization stops resurrecting ancestor bytes
    /// beneath it.
    pub fn discard(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.map.remove(offset, len);
        if self.delta_chain_max > 0 {
            self.pending_whiteouts.push((offset, len));
        }
    }

    /// Flush the replica copy. A replica flush failure degrades the
    /// mirror conservatively: every mapped extent is queued for resync,
    /// since volatile replica state of unknown extent may have been lost.
    pub fn flush(&mut self) {
        if self.degraded {
            return;
        }
        if self.conn.flush().is_err() {
            self.degraded = true;
            let spans: Vec<(u64, u64)> = self
                .map
                .entries()
                .into_iter()
                .map(|(o, l, _)| (o, l))
                .collect();
            self.metrics
                .flight
                .record(FlightKind::MirrorDegraded, 0, 0, spans.len() as u64, 1);
            self.pending_resync.extend(spans);
        }
    }

    /// Try to bring a degraded replica back in sync by copying the stale
    /// spans from the primary. Clears the degraded flag on full success.
    fn try_resync(&mut self, primary: &mut NvmfConnection, primary_base: u64) {
        if !self.degraded {
            return;
        }
        let spans = std::mem::take(&mut self.pending_resync);
        for (i, &(offset, len)) in spans.iter().enumerate() {
            if copy_extent(primary, primary_base + offset, &mut self.conn, offset, len).is_err() {
                // Still unhealthy; keep the remaining spans queued.
                self.pending_resync.extend_from_slice(&spans[i..]);
                return;
            }
            self.metrics.bytes.add(len);
        }
        self.degraded = false;
    }

    /// Rebuild the extent map from the primary's live bytes. Used after a
    /// crash or restart where the in-memory map is gone but the on-device
    /// copies survive. `spans` are the partition-relative ranges the
    /// recovered filesystem depends on ([`microfs::MicroFs::live_spans`]);
    /// each is re-read in pieces of at most 4 MiB (`COPY_CHUNK`) and
    /// re-CRCed, and adjacent pieces merge back. Bytes outside the spans
    /// are dead, so the map, and every manifest sealed from it, leaves
    /// them out.
    pub fn rescan(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
        spans: &[(u64, u64)],
    ) -> Result<(), InitiatorError> {
        for &(offset, len) in spans {
            let mut done = 0u64;
            while done < len {
                if self.chaos.fire(Site::RescanChunk).is_some() {
                    return Err(InitiatorError::Transport(
                        "crash point: recovery rescan".into(),
                    ));
                }
                let chunk = COPY_CHUNK.min((len - done) as usize);
                let data = primary.read_bytes(primary_base + offset + done, chunk)?;
                self.map.record(offset + done, chunk as u64, crc32(&data));
                done += chunk as u64;
            }
        }
        Ok(())
    }

    /// Seal the current extent map as epoch `self.epoch + 1` on both
    /// copies: body first, fully retired, then the commit record — so a
    /// torn commit is detectable and restore falls back to an older slot.
    /// The sealed manifest is a full one unless deltas are on, a diff base
    /// exists and the compaction policy allows another: then it is a
    /// sparse delta (changed extent tuples + whiteouts, `parent_epoch`
    /// linked). Returns the committed epoch.
    pub fn commit_epoch(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
        fs_size: u64,
    ) -> Result<u64, ReplicationError> {
        let _epoch_ctx = telemetry::context::with_epoch(self.epoch + 1);
        // Extents fragmented by overlapping writes lost their CRCs;
        // re-read them from the primary before sealing.
        for (offset, len) in self.map.dirty_fragments() {
            let crc = stream_extent(primary, primary_base + offset, len, |_, _| Ok(()))?;
            self.map.set_crc(offset, len, crc);
        }
        self.try_resync(primary, primary_base);

        let epoch = self.epoch + 1;
        let chained = self.delta_chain_max > 0;
        let delta = match &self.last_entries {
            Some(last) if self.deltas_since_full < self.delta_chain_max => {
                let mut extents = Vec::new();
                for (offset, len, crc) in self.map.entries() {
                    let crc = crc.ok_or(ManifestError::Dirty { offset })?;
                    if !last.contains(&(offset, len, crc)) {
                        extents.push(ManifestExtent { offset, len, crc });
                    }
                }
                let m = EpochManifest {
                    epoch,
                    parent_epoch: self.epoch,
                    extents,
                    whiteouts: self.pending_whiteouts.clone(),
                };
                // An oversized delta (pathological churn) compacts instead.
                m.encode_body().ok().map(|b| (m, b))
            }
            _ => None,
        };
        let full = delta.is_none();
        let compaction_timer = (chained && full).then(|| self.metrics.compaction_ns.time());
        let (manifest, body) = match delta {
            Some(pair) => pair,
            None => {
                let m = self.map.to_manifest(epoch)?;
                let b = m.encode_body()?;
                (m, b)
            }
        };
        let body = Bytes::from(body);
        let record = Bytes::copy_from_slice(&manifest.encode_commit(&body));
        let slot = fs_size + slot_offset(epoch);
        let body_off = slot + COMMIT_RECORD_BYTES;
        let record_off = slot;
        let body_crc = crc32(&body);
        let record_crc = crc32(&record);

        // Crash-universe gate for the body phase: the body reaches the
        // primary but the crash lands before the replica copy or either
        // commit record — a torn slot restore must treat as invisible.
        if self.chaos.fire(Site::ManifestBody).is_some() {
            primary.write_vectored_bytes_precrc(vec![(primary_base + body_off, body, body_crc)])?;
            let _ = primary.flush();
            return Err(ReplicationError::Fabric(InitiatorError::Transport(
                "crash point: manifest body".into(),
            )));
        }
        if self.degraded {
            // Primary-only commit: the replica stays at its last complete
            // epoch and a replica-based restore will lag.
            primary.write_vectored_bytes_precrc(vec![(primary_base + body_off, body, body_crc)])?;
        } else {
            let out = write_mirrored_bytes(
                primary,
                &mut self.conn,
                vec![MirroredWrite {
                    primary_offset: primary_base + body_off,
                    replica_offset: body_off,
                    data: body,
                    crc: body_crc,
                }],
            )?;
            if out.replica_error.is_some() {
                self.degraded = true;
            }
        }
        // Crash-universe gate for the record phase: the body is durable
        // on both copies but only the primary's commit record lands —
        // the replica must fall back to an older complete head while the
        // primary legitimately serves the new epoch.
        if self.chaos.fire(Site::CommitRecord).is_some() {
            primary.write_vectored_bytes_precrc(vec![(
                primary_base + record_off,
                record,
                record_crc,
            )])?;
            let _ = primary.flush();
            return Err(ReplicationError::Fabric(InitiatorError::Transport(
                "crash point: commit record".into(),
            )));
        }
        if self.degraded {
            primary.write_vectored_bytes_precrc(vec![(
                primary_base + record_off,
                record,
                record_crc,
            )])?;
        } else {
            let out = write_mirrored_bytes(
                primary,
                &mut self.conn,
                vec![MirroredWrite {
                    primary_offset: primary_base + record_off,
                    replica_offset: record_off,
                    data: record,
                    crc: record_crc,
                }],
            )?;
            if out.replica_error.is_some() {
                self.degraded = true;
            }
        }
        // The epoch is only real once it is durable.
        primary.flush()?;
        if !self.degraded && self.conn.flush().is_err() {
            self.degraded = true;
        }
        self.epoch = epoch;
        self.metrics.epochs_committed.inc();
        self.metrics
            .flight
            .record(FlightKind::EpochCommit, 0, 0, epoch, full as u64);
        if chained {
            if full {
                self.deltas_since_full = 0;
            } else {
                self.deltas_since_full += 1;
                self.metrics
                    .delta_extents
                    .add(manifest.extents.len() as u64);
            }
            self.pending_whiteouts.clear();
            self.last_entries = Some(
                self.map
                    .entries()
                    .into_iter()
                    .filter_map(|(o, l, c)| c.map(|c| (o, l, c)))
                    .collect(),
            );
            self.metrics
                .chain_len
                .set(i64::from(self.deltas_since_full) + 1);
        }
        drop(compaction_timer);
        Ok(epoch)
    }

    /// Walk every committed extent, verify both copies against the
    /// recorded CRC, and read-repair whichever copy is corrupt from the
    /// one that still matches. Both-copies-corrupt is reported, loudly,
    /// as unrecoverable — scrub never silently "fixes" with bad data.
    pub fn scrub(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
    ) -> Result<ScrubReport, ReplicationError> {
        let timer = self.metrics.scrub_ns.time();
        let mut report = ScrubReport::default();
        for (offset, len, crc) in self.map.entries() {
            let Some(crc) = crc else {
                report.skipped_dirty += 1;
                continue;
            };
            report.extents_checked += 1;
            let primary_ok =
                stream_extent(primary, primary_base + offset, len, |_, _| Ok(()))? == crc;
            let replica_ok =
                stream_extent(&mut self.conn, offset, len, |_, _| Ok(())).is_ok_and(|c| c == crc);
            match (primary_ok, replica_ok) {
                (true, true) => {}
                (false, true) => {
                    copy_extent(&mut self.conn, offset, primary, primary_base + offset, len)?;
                    self.metrics.repairs.inc();
                    report.repaired += 1;
                    telemetry::instant("replication", "read_repair", &[("offset", offset)]);
                }
                (true, false) => {
                    copy_extent(primary, primary_base + offset, &mut self.conn, offset, len)?;
                    self.metrics.repairs.inc();
                    report.repaired += 1;
                    telemetry::instant("replication", "read_repair", &[("offset", offset)]);
                }
                (false, false) => {
                    report.unrecoverable += 1;
                    telemetry::instant("replication", "unrecoverable", &[("offset", offset)]);
                }
            }
        }
        drop(timer);
        Ok(report)
    }
}

/// Stream `[offset, offset + len)` off `conn` in bounded chunks — a merged
/// multi-hundred-MiB extent never needs a single allocation — handing each
/// chunk and its offset to `sink`, and return the CRC-32 of the whole
/// span. Commit-time CRC resolution, scrub, verified restore and degraded
/// serving all read extents through here.
pub fn stream_extent(
    conn: &mut NvmfConnection,
    offset: u64,
    len: u64,
    mut sink: impl FnMut(u64, Bytes) -> Result<(), InitiatorError>,
) -> Result<u32, InitiatorError> {
    let mut state = 0xFFFF_FFFFu32;
    let mut done = 0u64;
    while done < len {
        let chunk = COPY_CHUNK.min((len - done) as usize);
        let data = conn.read_bytes(offset + done, chunk)?;
        state = crc32_update(state, &data);
        sink(offset + done, data)?;
        done += chunk as u64;
    }
    Ok(state ^ 0xFFFF_FFFF)
}

/// Chunked copy of `[src_off, +len)` on `src` to `dst_off` on `dst`.
fn copy_extent(
    src: &mut NvmfConnection,
    src_off: u64,
    dst: &mut NvmfConnection,
    dst_off: u64,
    len: u64,
) -> Result<(), InitiatorError> {
    let mut done = 0u64;
    while done < len {
        let chunk = COPY_CHUNK.min((len - done) as usize);
        let data = src.read_bytes(src_off + done, chunk)?;
        let crc = crc32(&data);
        dst.write_vectored_bytes_precrc(vec![(dst_off + done, data, crc)])?;
        done += chunk as u64;
    }
    Ok(())
}

/// Read every decodable manifest in the ring at `region_base`. Torn or
/// never-written slots are skipped. The eight commit records are read
/// first, then only the bodies they seal, so the read follows the
/// manifests' size rather than the ring's.
pub fn read_manifests(
    conn: &mut NvmfConnection,
    region_base: u64,
) -> Result<Vec<EpochManifest>, InitiatorError> {
    let heads: Vec<(u64, usize)> = (0..CHAIN_SLOTS)
        .map(|slot| {
            (
                region_base + slot * SLOT_BYTES,
                COMMIT_RECORD_BYTES as usize,
            )
        })
        .collect();
    let records = conn.read_vectored_bytes(&heads)?;
    let (records, bodies): (Vec<Bytes>, Vec<(u64, usize)>) = heads
        .iter()
        .zip(records)
        .filter_map(|(&(at, _), record)| {
            let body_len = sealed_body_len(&record)?;
            Some((record, (at + COMMIT_RECORD_BYTES, body_len)))
        })
        .unzip();
    let bodies = conn.read_vectored_bytes(&bodies)?;
    Ok(records
        .iter()
        .zip(bodies)
        .filter_map(|(record, body)| {
            EpochManifest::decode_slot(&[&record[..], &body].concat()).ok()
        })
        .collect())
}

/// The newest complete lineage of a manifest ring, materialized.
#[derive(Debug)]
pub struct Chain {
    /// Disjoint extents of the image, in offset order.
    pub extents: Vec<ManifestExtent>,
    /// Epoch of the lineage's head.
    pub epoch: u64,
    /// Committed epochs in the ring newer than `epoch` — heads whose
    /// lineage has a hole, left behind by an abandoned future.
    pub newer: Vec<u64>,
}

/// Materialize the newest complete lineage in the manifest ring at
/// `region_base`: candidate heads are tried in descending epoch order, and
/// a head counts only when every `parent_epoch` link down to a full
/// manifest is present (degraded-mode commits can leave replica-side
/// holes); a full manifest is a complete lineage of one link. Extents
/// resolve newest-first — an ancestor extent fully covered by younger
/// extents or whiteouts is skipped whole; partial shadowing is impossible
/// by construction (re-tiling replaces whole tuples) and reported loudly
/// if it ever appears. Each chain link resolved fires
/// [`chaos::Site::ChainMaterialize`] on `chaos`, so a `crash_in_recovery`
/// rule can kill materialization mid-walk.
pub fn materialize_chain(
    conn: &mut NvmfConnection,
    region_base: u64,
    chaos: &ChaosHandle,
) -> Result<Option<Chain>, ReplicationError> {
    let mut manifests = read_manifests(conn, region_base)?;
    manifests.sort_by_key(|m| std::cmp::Reverse(m.epoch));
    'heads: for head in 0..manifests.len() {
        let mut chain: Vec<&EpochManifest> = Vec::new();
        let mut cur = &manifests[head];
        loop {
            if chaos.fire(Site::ChainMaterialize).is_some() {
                return Err(ReplicationError::Fabric(InitiatorError::Transport(
                    "crash point: recovery chain materialize".into(),
                )));
            }
            chain.push(cur);
            if !cur.is_delta() {
                break;
            }
            // Parent links strictly descend; anything else is garbage.
            match manifests
                .iter()
                .find(|m| m.epoch == cur.parent_epoch && m.epoch < cur.epoch)
            {
                Some(p) => cur = p,
                // A hole in the lineage: try the next older head.
                None => continue 'heads,
            }
        }
        let mut covered = IntervalSet::new();
        let mut out: Vec<ManifestExtent> = Vec::new();
        for m in &chain {
            for e in &m.extents {
                let (start, end) = (e.offset, e.offset + e.len);
                if covered.covers(start, end) {
                    continue;
                }
                if covered.intersects(start, end) {
                    return Err(ReplicationError::ChainInconsistent {
                        epoch: m.epoch,
                        offset: e.offset,
                    });
                }
                covered.insert(start, end);
                out.push(*e);
            }
            for &(offset, len) in &m.whiteouts {
                covered.insert(offset, offset + len);
            }
        }
        out.sort_by_key(|e| e.offset);
        return Ok(Some(Chain {
            extents: out,
            epoch: manifests[head].epoch,
            newer: manifests[..head].iter().map(|m| m.epoch).collect(),
        }));
    }
    Ok(None)
}

/// Zero the commit record of the ring slot holding each of `epochs` (every
/// epoch seals into [`slot_offset`] of itself), then flush.
fn invalidate_slots(
    conn: &mut NvmfConnection,
    region_base: u64,
    epochs: &[u64],
) -> Result<(), InitiatorError> {
    let zeros = Bytes::from(vec![0u8; COMMIT_RECORD_BYTES as usize]);
    let crc = crc32(&zeros);
    conn.write_vectored_bytes_precrc(
        epochs
            .iter()
            .map(|&e| (region_base + slot_offset(e), zeros.clone(), crc))
            .collect(),
    )?;
    conn.flush()
}

/// What a replica-based restore recovered.
pub struct RestoreOutcome {
    /// Extent map describing the restored image.
    pub map: ExtentMap,
    /// Epoch the restored image corresponds to.
    pub epoch: u64,
    /// True when the live map could not be used verbatim and the restore
    /// rolled back to the last complete manifest on the replica.
    pub rolled_back: bool,
}

/// Re-populate a fresh primary from the surviving replica.
///
/// With a `live` map (the rank was mounted when its shard died) every
/// committed extent is copied with streaming CRC verification and
/// mid-epoch extents are copied as-is — the restored image is
/// byte-identical to the moment of the failure. If verification fails,
/// or no live map survived, the restore rolls back to the replica's last
/// *complete* epoch: the newest complete lineage in its manifest ring,
/// materialized newest-backward, with only manifest extents copied, each
/// strictly verified. Committed slots newer than that epoch are
/// invalidated on both copies. Each extent copied back (and each chain
/// link resolved) fires a recovery-plane [`chaos::Site`] on `chaos`, so a
/// `crash_in_recovery` rule can kill the restore mid-copy.
/// Epochs lost in the rollback are counted in `replication.lag_epochs`;
/// any fallback counts a degraded restore.
pub fn restore_from_replica(
    replica: &mut NvmfConnection,
    live: Option<(ExtentMap, u64)>,
    primary: &mut NvmfConnection,
    primary_base: u64,
    fs_size: u64,
    t: &Telemetry,
    chaos: &ChaosHandle,
) -> Result<RestoreOutcome, ReplicationError> {
    let metrics = ReplicationMetrics::new(t);
    let live_epoch = live.as_ref().map(|(_, e)| *e);
    if let Some((map, epoch)) = live {
        match restore_extents(replica, map.entries(), primary, primary_base, chaos) {
            Ok(()) => {
                // Carry the whole manifest ring over so the new primary
                // can serve future restores and scrubs without the old
                // replica.
                copy_extent(
                    replica,
                    fs_size,
                    primary,
                    primary_base + fs_size,
                    REGION_BYTES,
                )?;
                return Ok(RestoreOutcome {
                    map,
                    epoch,
                    rolled_back: false,
                });
            }
            Err(ReplicationError::Unrecoverable { .. }) => {
                // The replica disagrees with the live map (e.g. it was
                // mid-write when the primary died). Fall back to its
                // last sealed epoch.
                metrics.degraded_restores.inc();
            }
            Err(e) => return Err(e),
        }
    } else {
        metrics.degraded_restores.inc();
    }

    let chain =
        materialize_chain(replica, fs_size, chaos)?.ok_or(ReplicationError::NoCompleteEpoch)?;
    let map = ExtentMap::from_extents(&chain.extents);
    let epoch = chain.epoch;
    // Manifest extents always carry CRCs, so every one is verified — a
    // mismatch here means the data is gone on both copies.
    restore_extents(replica, map.entries(), primary, primary_base, chaos)?;
    copy_extent(
        replica,
        fs_size,
        primary,
        primary_base + fs_size,
        REGION_BYTES,
    )?;
    if !chain.newer.is_empty() {
        // Slots newer than the restored epoch are stale heads of an
        // abandoned lineage; neuter them on both copies (the primary's
        // region is now a byte copy of the replica's) so they can never
        // chain onto post-restore manifests.
        invalidate_slots(primary, primary_base + fs_size, &chain.newer)?;
        invalidate_slots(replica, fs_size, &chain.newer)?;
    }
    let lag = live_epoch.map_or(0, |le| le.saturating_sub(epoch));
    if live_epoch.is_some() {
        metrics.lag_epochs.add(lag);
    }
    metrics
        .flight
        .record(FlightKind::RollbackRestore, 0, 0, epoch, lag);
    metrics.flight.trip(FlightKind::RollbackRestore, epoch);
    telemetry::instant("replication", "rollback_restore", &[("epoch", epoch)]);
    Ok(RestoreOutcome {
        map,
        epoch,
        rolled_back: true,
    })
}

/// Copy `entries` from the replica onto the new primary, verifying the
/// streamed bytes against each recorded CRC. Extents without one
/// (mid-epoch writes in a live map) are copied unverified.
fn restore_extents(
    replica: &mut NvmfConnection,
    entries: Vec<(u64, u64, Option<u32>)>,
    primary: &mut NvmfConnection,
    primary_base: u64,
    chaos: &ChaosHandle,
) -> Result<(), ReplicationError> {
    for (offset, len, crc) in entries {
        if chaos.fire(Site::RestoreExtent).is_some() {
            return Err(ReplicationError::Fabric(InitiatorError::Transport(
                "crash point: recovery restore extent".into(),
            )));
        }
        match crc {
            Some(expected) => {
                let got = stream_extent(replica, offset, len, |at, data| {
                    let crc = crc32(&data);
                    primary.write_vectored_bytes_precrc(vec![(primary_base + at, data, crc)])
                })?;
                if got != expected {
                    return Err(ReplicationError::Unrecoverable { offset, len });
                }
            }
            None => copy_extent(replica, offset, primary, primary_base + offset, len)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Initiator, NvmfTarget};
    use ssd::{Ssd, SsdConfig};

    fn conn_pair() -> (NvmfConnection, NvmfConnection, Telemetry) {
        let t = Telemetry::new();
        let mk = |name: &str| {
            let ssd = Ssd::with_telemetry(
                SsdConfig {
                    capacity: 256 << 20,
                    ..SsdConfig::default()
                },
                t.clone(),
            );
            let ns = ssd.create_namespace(64 << 20).unwrap();
            let target = Arc::new(NvmfTarget::new(Arc::new(ssd)));
            Initiator::with_telemetry(name, t.clone()).connect(target, ns)
        };
        (mk("nqn.prim"), mk("nqn.repl"), t)
    }

    const FS: u64 = 32 << 20;

    fn config(t: &Telemetry, delta_chain_max: u32) -> RuntimeConfig {
        RuntimeConfig {
            telemetry: t.clone(),
            delta_chain_max,
            ..RuntimeConfig::default()
        }
    }

    /// A primary plus a fresh mirror (empty map, epoch 0) over its replica.
    fn mirror_pair(delta_chain_max: u32) -> (NvmfConnection, Mirror, Telemetry) {
        let (p, r, t) = conn_pair();
        let m = Mirror::new(r, ExtentMap::new(), 0, &config(&t, delta_chain_max));
        (p, m, t)
    }

    /// Restore from `replica` onto a fresh primary, which is returned too.
    fn restore(
        replica: &mut NvmfConnection,
        live: Option<(ExtentMap, u64)>,
        t: &Telemetry,
    ) -> (Result<RestoreOutcome, ReplicationError>, NvmfConnection) {
        let (mut fresh, _, _) = conn_pair();
        let none = ChaosHandle::default();
        let out = restore_from_replica(replica, live, &mut fresh, 0, FS, t, &none);
        (out, fresh)
    }

    /// The newest complete lineage in `conn`'s ring: `(extents, head)`.
    fn materialize(conn: &mut NvmfConnection) -> (Vec<ManifestExtent>, u64) {
        let chain = materialize_chain(conn, FS, &ChaosHandle::default())
            .unwrap()
            .unwrap();
        (chain.extents, chain.epoch)
    }

    #[test]
    fn write_through_lands_on_both_and_commit_survives_roundtrip() {
        let (mut p, mut m, t) = mirror_pair(0);
        let data = Bytes::from(vec![0xABu8; 64 << 10]);
        m.write_through(
            &mut p,
            0,
            vec![(4096, data.clone()), (1 << 20, data.clone())],
        )
        .unwrap();
        let epoch = m.commit_epoch(&mut p, 0, FS).unwrap();
        assert_eq!(epoch, 1);
        assert!(!m.is_degraded());
        // Both copies hold the data; manifest decodes on both.
        let (mut r, map, epoch, _) = m.into_parts();
        assert_eq!(&r.read_bytes(4096, 64 << 10).unwrap()[..], &data[..]);
        assert_eq!(&p.read_bytes(1 << 20, 64 << 10).unwrap()[..], &data[..]);
        let (from_replica, replica_epoch) = materialize(&mut r);
        assert_eq!(replica_epoch, 1);
        assert_eq!(materialize(&mut p).1, 1);
        assert_eq!(
            ExtentMap::from_extents(&from_replica).entries(),
            map.entries()
        );
        assert_eq!(epoch, 1);
        assert_eq!(t.snapshot().counter("replication.epochs_committed"), 1);
        assert_eq!(t.snapshot().counter("replication.bytes"), 2 * (64 << 10));
    }

    #[test]
    fn scrub_repairs_single_copy_corruption_and_reports_double() {
        let (mut p, mut m, t) = mirror_pair(0);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x11u8; 8192]))])
            .unwrap();
        m.write_through(&mut p, 0, vec![(1 << 20, Bytes::from(vec![0x22u8; 8192]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Corrupt the primary's first extent behind the mirror's back.
        p.write_bytes(100, Bytes::from_static(b"rot")).unwrap();
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!(rep.repaired, 1);
        assert_eq!(rep.unrecoverable, 0);
        assert_eq!(&p.read_bytes(0, 8192).unwrap()[..], &[0x11u8; 8192][..]);
        // Clean second pass.
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!((rep.repaired, rep.unrecoverable), (0, 0));
        // Corrupt the same extent on both copies: unrecoverable.
        p.write_bytes(100, Bytes::from_static(b"rot")).unwrap();
        {
            let (mut r, map, epoch, _) = m.into_parts();
            r.write_bytes(100, Bytes::from_static(b"rot")).unwrap();
            m = Mirror::new(r, map, epoch, &config(&t, 0));
        }
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!(rep.unrecoverable, 1);
        assert_eq!(t.snapshot().counter("replication.repairs"), 1);
    }

    #[test]
    fn restore_from_live_map_is_byte_identical() {
        let (mut p, mut m, t) = mirror_pair(0);
        let a = Bytes::from(
            (0..16384u32)
                .flat_map(|i| (i as u8).to_le_bytes())
                .collect::<Vec<_>>(),
        );
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // One uncommitted (mid-epoch) write too.
        let b = Bytes::from(vec![0x77u8; 4096]);
        m.write_through(&mut p, 0, vec![(2 << 20, b.clone())])
            .unwrap();

        let (mut replica, map, epoch, _) = m.into_parts();
        let (out, mut fresh) = restore(&mut replica, Some((map, epoch)), &t);
        let out = out.unwrap();
        assert!(!out.rolled_back);
        assert_eq!(out.epoch, 1);
        assert_eq!(&fresh.read_bytes(0, a.len()).unwrap()[..], &a[..]);
        assert_eq!(&fresh.read_bytes(2 << 20, 4096).unwrap()[..], &b[..]);
        // Manifest region carried over.
        assert_eq!(materialize(&mut fresh).1, 1);
    }

    #[test]
    fn restore_without_live_map_rolls_back_to_last_complete_epoch() {
        let (mut p, mut m, t) = mirror_pair(0);
        let a = Bytes::from(vec![0x31u8; 8192]);
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Mid-epoch write that never commits — must not appear.
        m.write_through(&mut p, 0, vec![(1 << 20, Bytes::from(vec![0x99u8; 4096]))])
            .unwrap();
        let (mut replica, _, _, _) = m.into_parts();
        let (out, mut fresh) = restore(&mut replica, None, &t);
        let out = out.unwrap();
        assert!(out.rolled_back);
        assert_eq!(out.epoch, 1);
        assert_eq!(&fresh.read_bytes(0, 8192).unwrap()[..], &a[..]);
        assert_eq!(t.snapshot().counter("replication.degraded_restores"), 1);
    }

    #[test]
    fn restore_with_no_manifest_is_no_complete_epoch() {
        let (_p, mut r, t) = conn_pair();
        assert!(matches!(
            restore(&mut r, None, &t).0,
            Err(ReplicationError::NoCompleteEpoch)
        ));
    }

    #[test]
    fn rescan_rebuilds_a_committable_map() {
        let (mut p, mut m, t) = mirror_pair(0);
        let big = 2 * COPY_CHUNK as u64 + 4096;
        m.write_through(
            &mut p,
            0,
            vec![
                (4096, Bytes::from(vec![0x42u8; 12288])),
                (8 << 20, Bytes::from(vec![0x17u8; big as usize])),
            ],
        )
        .unwrap();
        // Simulate losing the in-memory map: fresh mirror over the same
        // replica, rescan the live spans from the primary.
        let (r, _, _, _) = m.into_parts();
        let mut m = Mirror::new(r, ExtentMap::new(), 0, &config(&t, 0));
        let spans = [(4096, 12288), (8 << 20, big)];
        let (ios, bytes) = p.io_counters();
        m.rescan(&mut p, 0, &spans).unwrap();
        // Exactly the live bytes are read, in COPY_CHUNK pieces, and each
        // span's pieces merge back into one extent.
        let (ios_after, bytes_after) = p.io_counters();
        assert_eq!(bytes_after - bytes, 12288 + big);
        assert_eq!(ios_after - ios, 1 + 3);
        let covered: Vec<(u64, u64)> = m.map().entries().iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(covered, spans);
        let epoch = m.commit_epoch(&mut p, 0, FS).unwrap();
        assert_eq!(epoch, 1);
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!(rep.unrecoverable, 0);
        assert_eq!(rep.repaired, 0);
    }

    #[test]
    fn delta_chain_seals_sparse_manifests_and_materializes() {
        let (mut p, mut m, t) = mirror_pair(4);
        // Tile the base image at the chain merge granularity so a later
        // single-tile overwrite re-seals exactly one tuple.
        let tile = Bytes::from(vec![0xA0u8; 64 << 10]);
        for i in 0..4u64 {
            m.write_through(&mut p, 0, vec![(i * (64 << 10), tile.clone())])
                .unwrap();
        }
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Dirty one 64 KiB tile out of four.
        let dirty = Bytes::from(vec![0xB1u8; 64 << 10]);
        m.write_through(&mut p, 0, vec![(64 << 10, dirty.clone())])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();

        let manifests = read_manifests(&mut p, FS).unwrap();
        let e1 = manifests.iter().find(|m| m.epoch == 1).unwrap();
        let e2 = manifests.iter().find(|m| m.epoch == 2).unwrap();
        assert!(!e1.is_delta(), "first commit anchors the chain");
        assert!(e2.is_delta(), "second commit is a sparse delta");
        assert_eq!(e2.parent_epoch, 1);
        assert_eq!(e2.extents.len(), 1, "only the dirty tile re-seals");
        assert_eq!(e2.extents[0].offset, 64 << 10);

        // The materialized chain tiles the whole image, newest-first.
        let (extents, head) = materialize(&mut p);
        assert_eq!(head, 2);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 256 << 10);
        assert!(t.snapshot().counter("cow.delta_extents") >= 1);
        assert_eq!(t.snapshot().gauge("cow.chain_len").value, 2);
    }

    #[test]
    fn compaction_policy_reseals_full_after_max_deltas() {
        let (mut p, mut m, t) = mirror_pair(2);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x10u8; 128 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // epoch 1: full (anchor)
        for i in 0..3u8 {
            m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x20 + i; 64 << 10]))])
                .unwrap();
            m.commit_epoch(&mut p, 0, FS).unwrap();
        }
        // Epochs 2 and 3 are deltas; epoch 4 hits delta_chain_max=2 and
        // compacts back to a full manifest.
        let manifests = read_manifests(&mut p, FS).unwrap();
        let is_delta = |e: u64| manifests.iter().find(|m| m.epoch == e).unwrap().is_delta();
        assert!(!is_delta(1));
        assert!(is_delta(2));
        assert!(is_delta(3));
        assert!(!is_delta(4), "chain compacts after delta_chain_max deltas");
        assert_eq!(t.snapshot().gauge("cow.chain_len").value, 1);
        assert!(t
            .snapshot()
            .histogram("cow.compaction_ns")
            .is_some_and(|h| h.count >= 2));
    }

    #[test]
    fn whiteouts_shadow_ancestor_extents_in_materialization() {
        let (mut p, mut m, _t) = mirror_pair(4);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x55u8; 192 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Whiteout the middle tile, dirty nothing else.
        m.discard(64 << 10, 64 << 10);
        m.commit_epoch(&mut p, 0, FS).unwrap();

        let e2 = read_manifests(&mut p, FS)
            .unwrap()
            .into_iter()
            .find(|m| m.epoch == 2)
            .unwrap();
        assert_eq!(e2.whiteouts, vec![(64 << 10, 64 << 10)]);
        let (extents, head) = materialize(&mut p);
        assert_eq!(head, 2);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 128 << 10, "whiteout tile is not materialized");
        assert!(extents
            .iter()
            .all(|e| e.offset + e.len <= 64 << 10 || e.offset >= 128 << 10));
    }

    #[test]
    fn chained_restore_materializes_through_the_delta_chain() {
        let (mut p, mut m, t) = mirror_pair(6);
        let a = Bytes::from(vec![0xAAu8; 256 << 10]);
        let b = Bytes::from(vec![0xBBu8; 64 << 10]);
        let c = Bytes::from(vec![0xCCu8; 64 << 10]);
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(&mut p, 0, vec![(64 << 10, b.clone())])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
        m.write_through(&mut p, 0, vec![(1 << 20, c.clone())])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 3: delta

        let (mut replica, _, _, _) = m.into_parts();
        let (out, mut fresh) = restore(&mut replica, None, &t);
        let out = out.unwrap();
        assert!(out.rolled_back);
        assert_eq!(out.epoch, 3);
        assert_eq!(&fresh.read_bytes(0, 64 << 10).unwrap()[..], &a[..64 << 10]);
        assert_eq!(&fresh.read_bytes(64 << 10, 64 << 10).unwrap()[..], &b[..]);
        assert_eq!(
            &fresh.read_bytes(128 << 10, 128 << 10).unwrap()[..],
            &a[..128 << 10]
        );
        assert_eq!(&fresh.read_bytes(1 << 20, 64 << 10).unwrap()[..], &c[..]);
    }

    #[test]
    fn chain_hole_falls_back_to_older_complete_head() {
        // A degraded-mode commit writes only the primary: the replica
        // keeps both its old data AND its old manifests, so a later
        // replica-side materialization sees a hole in the newest lineage
        // and must fall back to the newest head whose chain is complete.
        let (mut p, mut m, _t) = mirror_pair(6);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x11u8; 128 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x22u8; 64 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
        m.write_through(
            &mut p,
            0,
            vec![(64 << 10, Bytes::from(vec![0x33u8; 64 << 10]))],
        )
        .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 3: delta

        // Zero epoch 2's commit record on the primary — the shape its
        // region takes when that commit only ever reached the replica.
        invalidate_slots(&mut p, FS, &[2]).unwrap();

        // Epoch 3's parent link dangles; the walk skips it and lands on
        // the complete epoch-1 anchor.
        let (extents, head) = materialize(&mut p);
        assert_eq!(head, 1, "incomplete lineages are skipped");
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 128 << 10);
    }

    #[test]
    fn rollback_past_a_dangling_head_invalidates_it_on_both_copies() {
        // The chain-hole shape on the replica, with epochs 2 and 3 writing
        // fresh ranges so epoch 1's bytes survive there to be restored.
        let (mut p, mut m, t) = mirror_pair(6);
        let a = Bytes::from(vec![0x11u8; 128 << 10]);
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        for (i, fill) in [(2u64, 0x22u8), (3, 0x33)] {
            let at = (i * 64) << 10;
            m.write_through(&mut p, 0, vec![(at, Bytes::from(vec![fill; 64 << 10]))])
                .unwrap();
            m.commit_epoch(&mut p, 0, FS).unwrap(); // 2, 3: deltas
        }
        let (mut replica, _, _, _) = m.into_parts();
        invalidate_slots(&mut replica, FS, &[2]).unwrap();

        let (out, mut fresh) = restore(&mut replica, None, &t);
        let out = out.unwrap();
        assert!(out.rolled_back);
        assert_eq!(out.epoch, 1, "the dangling head 3 is skipped");
        assert_eq!(&fresh.read_bytes(0, 128 << 10).unwrap()[..], &a[..]);
        // The stale head's commit record is zeroed on both copies.
        let record = |conn: &mut NvmfConnection| {
            conn.read_bytes(FS + slot_offset(3), COMMIT_RECORD_BYTES as usize)
                .unwrap()
        };
        assert!(record(&mut fresh).iter().all(|&b| b == 0));
        assert!(record(&mut replica).iter().all(|&b| b == 0));

        // The next commit seals epoch 2 as a full manifest; the stale
        // epoch-3 delta (parent 2) can no longer chain onto it.
        let mut m = Mirror::new(replica, out.map, out.epoch, &config(&t, 6));
        assert_eq!(m.commit_epoch(&mut fresh, 0, FS).unwrap(), 2);
        let manifests = read_manifests(&mut fresh, FS).unwrap();
        assert!(manifests.iter().any(|m| m.epoch == 2 && !m.is_delta()));
        let (extents, head) = materialize(&mut fresh);
        assert_eq!(head, 2);
        assert_eq!(extents.iter().map(|e| e.len).sum::<u64>(), 128 << 10);
        let (mut replica, _, _, _) = m.into_parts();
        assert_eq!(materialize(&mut replica).1, 2);
    }

    /// Simulate a crash between a commit's two phases: the body landed in
    /// the slot but the commit record never did.
    fn write_torn_slot(conn: &mut NvmfConnection, m: &EpochManifest) {
        let body = Bytes::from(m.encode_body().unwrap());
        let crc = crc32(&body);
        let slot = FS + slot_offset(m.epoch);
        conn.write_vectored_bytes_precrc(vec![(slot + COMMIT_RECORD_BYTES, body, crc)])
            .unwrap();
        conn.flush().unwrap();
    }

    #[test]
    fn torn_delta_commit_rolls_back_to_last_complete_epoch() {
        let (mut p, mut m, _t) = mirror_pair(6);
        let a = Bytes::from(vec![0x61u8; 128 << 10]);
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x62u8; 64 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
                                                // Epoch 3's delta body reaches both slots, but the crash lands
                                                // before either commit record: the chain head stays at 2.
        let torn = EpochManifest {
            epoch: 3,
            parent_epoch: 2,
            extents: vec![ManifestExtent {
                offset: 64 << 10,
                len: 64 << 10,
                crc: 0xBAD,
            }],
            whiteouts: Vec::new(),
        };
        write_torn_slot(&mut p, &torn);
        let (mut replica, _, _, _) = m.into_parts();
        write_torn_slot(&mut replica, &torn);
        let (_, head) = materialize(&mut replica);
        assert_eq!(head, 2, "the torn delta must stay invisible");
    }

    #[test]
    fn torn_compaction_commit_rolls_back_to_the_sealed_chain() {
        let (mut p, mut m, _t) = mirror_pair(6);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x71u8; 128 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(
            &mut p,
            0,
            vec![(64 << 10, Bytes::from(vec![0x72u8; 64 << 10]))],
        )
        .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
                                                // A compaction (full manifest) for epoch 3 is torn mid-commit:
                                                // restore still materializes the sealed 1 <- 2 lineage.
        let full = m.map().to_manifest(3).unwrap();
        write_torn_slot(&mut p, &full);
        let (mut replica, _, _, _) = m.into_parts();
        write_torn_slot(&mut replica, &full);
        let (extents, head) = materialize(&mut replica);
        assert_eq!(head, 2);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 128 << 10);
    }

    use proptest::prelude::*;

    proptest! {
        /// Any randomly generated delta chain — random dirty fractions,
        /// compaction points (driven by `chain_max`), overlapping writes,
        /// and whiteouts — materializes to exactly the byte set and bytes
        /// of the equivalent full rewrite (the mirror's final extent map).
        #[test]
        fn prop_chain_materializes_byte_identical(
            chain_max in 0u32..5,
            epochs in proptest::collection::vec(
                (
                    proptest::collection::vec((0u64..60, 1u64..5, any::<u8>()), 1..6),
                    proptest::collection::vec((0u64..60, 1u64..5), 0..3),
                ),
                1..6,
            ),
        ) {
            const BS: u64 = 4096;
            let (mut p, mut m, _t) = mirror_pair(chain_max);
            let mut shadow = vec![0u8; (64 * BS) as usize];
            for (writes, whiteouts) in &epochs {
                for &(blk, blocks, fill) in writes {
                    let (off, len) = (blk * BS, blocks * BS);
                    m.write_through(&mut p, 0, vec![(off, Bytes::from(vec![fill; len as usize]))])
                        .unwrap();
                    shadow[off as usize..(off + len) as usize].fill(fill);
                }
                for &(blk, blocks) in whiteouts {
                    m.discard(blk * BS, blocks * BS);
                }
                m.commit_epoch(&mut p, 0, FS).unwrap();
            }
            let want: Vec<(u64, u64)> = m
                .map()
                .entries()
                .into_iter()
                .map(|(o, l, _)| (o, l))
                .collect();
            let (mut replica, _, _, _) = m.into_parts();
            let materialized =
                materialize_chain(&mut replica, FS, &ChaosHandle::default()).unwrap();
            prop_assert!(
                materialized.is_some(),
                "committed chains always materialize"
            );
            let extents = materialized.unwrap().extents;
            // Same byte set as the equivalent full rewrite...
            let mut got = IntervalSet::new();
            for e in &extents {
                got.insert(e.offset, e.offset + e.len);
            }
            let mut full = IntervalSet::new();
            for &(o, l) in &want {
                full.insert(o, o + l);
            }
            prop_assert_eq!(got.spans(), full.spans());
            // ...and byte-identical content under every extent.
            for e in &extents {
                let data = replica.read_bytes(e.offset, e.len as usize).unwrap();
                prop_assert_eq!(
                    &data[..],
                    &shadow[e.offset as usize..(e.offset + e.len) as usize]
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Reading the ring by its commit records returns exactly what
        /// decoding each whole slot returns, over rings of sealed, torn,
        /// zeroed, bad-seal and oversized-`body_len` slots, and reads only
        /// the records plus the bodies that sealed records name.
        #[test]
        fn prop_ring_read_by_commit_records_equals_whole_slot_decode(
            slots in proptest::collection::vec((0u8..8, 0usize..400, any::<u8>()), 8..9),
        ) {
            let (mut p, _, _) = conn_pair();
            let mut sealed_bytes = 0u64;
            for (slot, &(kind, extents, seed)) in slots.iter().enumerate() {
                let epoch = slot as u64 + CHAIN_SLOTS * u64::from(seed % 3) + 1;
                let m = EpochManifest {
                    epoch,
                    parent_epoch: if kind == 1 { epoch - 1 } else { 0 },
                    extents: (0..extents as u64)
                        .map(|i| ManifestExtent {
                            offset: i << 16,
                            len: 4096 + u64::from(seed),
                            crc: (i as u32).wrapping_mul(0x9E37_79B9) ^ u32::from(seed),
                        })
                        .collect(),
                    whiteouts: if kind == 1 { vec![(1 << 30, 4096)] } else { Vec::new() },
                };
                let at = FS + slot_offset(epoch);
                let mut body = m.encode_body().unwrap();
                let mut record = m.encode_commit(&body);
                match kind {
                    // Sealed full and delta manifests.
                    0 | 1 => {}
                    // Torn: the record landed, the body only in part.
                    2 => body.truncate(body.len() / 2),
                    // Zeroed: never written.
                    3 => continue,
                    // Bad seal: a bit of the sealed fields flipped.
                    4 => record[5] ^= 1 << (seed % 8),
                    // A resealed record naming more than a slot can hold.
                    5 => {
                        let oversized = SLOT_BYTES - COMMIT_RECORD_BYTES + 1 + u64::from(seed);
                        record[12..16].copy_from_slice(&(oversized as u32).to_le_bytes());
                        let seal = crc32(&record[0..20]);
                        record[20..24].copy_from_slice(&seal.to_le_bytes());
                    }
                    // A resealed record naming an empty body.
                    6 => {
                        record[12..16].fill(0);
                        let seal = crc32(&record[0..20]);
                        record[20..24].copy_from_slice(&seal.to_le_bytes());
                    }
                    // Stale: the record seals a body since overwritten.
                    _ => {
                        let flip = usize::from(seed) % body.len();
                        body[flip] ^= 0x40;
                    }
                }
                if matches!(kind, 0 | 1 | 2 | 7) {
                    sealed_bytes += m.encode_body().unwrap().len() as u64;
                }
                p.write_bytes(at + COMMIT_RECORD_BYTES, Bytes::from(body))
                    .unwrap();
                p.write_bytes(at, Bytes::copy_from_slice(&record)).unwrap();
            }
            let mut whole = Vec::new();
            for slot in 0..CHAIN_SLOTS {
                let bytes = p.read_bytes(FS + slot * SLOT_BYTES, SLOT_BYTES as usize).unwrap();
                whole.extend(EpochManifest::decode_slot(&bytes));
            }
            let before = p.io_counters().1;
            let got = read_manifests(&mut p, FS).unwrap();
            let read = p.io_counters().1 - before;
            prop_assert_eq!(&got, &whole);
            prop_assert!(
                read <= CHAIN_SLOTS * COMMIT_RECORD_BYTES + sealed_bytes,
                "read {} bytes, sealed bodies hold {}", read, sealed_bytes
            );
        }
    }
}
