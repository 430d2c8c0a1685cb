//! The data plane: a [`microfs::BlockDevice`] over an NVMf connection.
//!
//! "The data plane provides a block device like interface to access the
//! remote SSD partition using NVMf" (§III-B). Each rank's `MicroFs` mounts
//! one `NvmfBlockDevice`, which maps partition-relative offsets into the
//! rank's contiguous segment of the job's namespace and forwards the IO
//! through the capsule codec to the target — entirely in userspace.

use crate::replication::{Mirror, ReplicationError, ScrubReport};
use bytes::Bytes;
use chaos::{ChaosHandle, CrashOp};
use fabric::initiator::NvmfConnection;
use microfs::block::{BlockDevice, DevError, IoCounters};

/// A remote SSD segment exposed as a block device.
pub struct NvmfBlockDevice {
    conn: NvmfConnection,
    /// Segment base within the namespace.
    base: u64,
    /// Segment size — the microfs partition size.
    size: u64,
    counters: IoCounters,
    /// Replication factor 2: a second copy on a partner failure domain,
    /// written through both submission windows concurrently. `None` (the
    /// default) leaves every path bit-for-bit unreplicated.
    mirror: Option<Box<Mirror>>,
    /// Crash-universe hook: disarmed (the default) every gate is one
    /// relaxed atomic load.
    chaos: ChaosHandle,
}

impl NvmfBlockDevice {
    /// Wrap `conn`, exposing `[base, base + size)` of its namespace.
    pub fn new(conn: NvmfConnection, base: u64, size: u64) -> Self {
        NvmfBlockDevice {
            conn,
            base,
            size,
            counters: IoCounters::default(),
            mirror: None,
            chaos: ChaosHandle::new(),
        }
    }

    /// Thread the runtime's chaos handle through, so the crash-universe
    /// mode can count and kill block-level writes.
    pub fn set_chaos(&mut self, chaos: ChaosHandle) {
        self.chaos = chaos;
    }

    /// One crash-universe index per write element, consumed *before* any
    /// byte hits the wire: a firing gate models a crash ahead of the
    /// batch, so the batch is atomically absent after recovery.
    fn crash_gate(&self, elems: usize) -> Result<(), DevError> {
        for _ in 0..elems {
            if self.chaos.crash_fire(CrashOp::BlockWrite) {
                return Err(DevError("crash point: block write".into()));
            }
        }
        Ok(())
    }

    /// Total NVMf `(ios, bytes)` issued on the underlying connection.
    pub fn nvmf_counters(&self) -> (u64, u64) {
        self.conn.io_counters()
    }

    /// The primary connection, for runtime-internal maintenance reads
    /// (manifest-region decoding during typestate recovery).
    pub(crate) fn conn_mut(&mut self) -> &mut NvmfConnection {
        &mut self.conn
    }

    /// Attach a replica mirror: every subsequent write lands on both
    /// copies before it returns.
    pub fn attach_mirror(&mut self, mirror: Mirror) {
        self.mirror = Some(Box::new(mirror));
    }

    /// Detach and return the mirror (for failover re-homing).
    pub fn take_mirror(&mut self) -> Option<Mirror> {
        self.mirror.take().map(|m| *m)
    }

    pub fn mirror(&self) -> Option<&Mirror> {
        self.mirror.as_deref()
    }

    /// Seal the current extent map as a new checkpoint epoch on both
    /// copies. `Ok(None)` when unreplicated.
    pub fn commit_epoch(&mut self) -> Result<Option<u64>, ReplicationError> {
        match &mut self.mirror {
            None => Ok(None),
            Some(m) => m
                .commit_epoch(&mut self.conn, self.base, self.size)
                .map(Some),
        }
    }

    /// Verify every committed extent on both copies, read-repairing
    /// whichever copy is corrupt. `Ok(None)` when unreplicated.
    pub fn scrub(&mut self) -> Result<Option<ScrubReport>, ReplicationError> {
        match &mut self.mirror {
            None => Ok(None),
            Some(m) => m.scrub(&mut self.conn, self.base).map(Some),
        }
    }

    /// Rebuild the mirror's extent map from the full primary image —
    /// used after a crash where the in-memory map did not survive.
    pub fn rescan_mirror(&mut self) -> Result<(), ReplicationError> {
        if let Some(m) = &mut self.mirror {
            m.rescan(&mut self.conn, self.base, self.size)?;
        }
        Ok(())
    }

    /// Forward a batch of partition-relative writes to the right path:
    /// mirrored through both windows when a replica is attached, plain
    /// zero-copy otherwise.
    fn dispatch_writes(&mut self, writes: Vec<(u64, Bytes)>) -> Result<(), DevError> {
        match &mut self.mirror {
            Some(m) => m
                .write_through(&mut self.conn, self.base, writes)
                .map_err(|e| DevError(e.to_string())),
            None => {
                let base = self.base;
                self.conn
                    .write_vectored_bytes(writes.into_iter().map(|(o, d)| (base + o, d)).collect())
                    .map_err(|e| DevError(e.to_string()))
            }
        }
    }

    /// Write an owned payload — the zero-copy path straight through the
    /// connection (no staging copy at this layer or below).
    pub fn write_bytes_at(&mut self, offset: u64, data: Bytes) -> Result<(), DevError> {
        self.check(offset, data.len() as u64)?;
        self.crash_gate(1)?;
        let len = data.len() as u64;
        if self.mirror.is_some() {
            self.dispatch_writes(vec![(offset, data)])?;
        } else {
            self.conn
                .write_bytes(self.base + offset, data)
                .map_err(|e| DevError(e.to_string()))?;
        }
        self.counters.writes += 1;
        self.counters.bytes_written += len;
        Ok(())
    }

    /// Write a batch of owned payloads through the pipelined submission
    /// window — zero-copy, up to the connection's `queue_depth` extents in
    /// flight at once.
    pub fn write_vectored_bytes_at(&mut self, writes: Vec<(u64, Bytes)>) -> Result<(), DevError> {
        let mut total = 0u64;
        for (offset, data) in &writes {
            self.check(*offset, data.len() as u64)?;
            total += data.len() as u64;
        }
        self.crash_gate(writes.len())?;
        let count = writes.len() as u64;
        self.dispatch_writes(writes)?;
        self.counters.writes += count;
        self.counters.bytes_written += total;
        Ok(())
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), DevError> {
        if offset.checked_add(len).is_none_or(|e| e > self.size) {
            return Err(DevError(format!(
                "IO [{offset}, +{len}) beyond segment of {}",
                self.size
            )));
        }
        Ok(())
    }
}

impl BlockDevice for NvmfBlockDevice {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), DevError> {
        self.check(offset, data.len() as u64)?;
        self.crash_gate(1)?;
        if self.mirror.is_some() {
            // Borrowed payloads are staged once so both capsules can
            // share the buffer (and its one CRC pass).
            self.dispatch_writes(vec![(offset, Bytes::copy_from_slice(data))])?;
        } else {
            self.conn
                .write(self.base + offset, data)
                .map_err(|e| DevError(e.to_string()))?;
        }
        self.counters.writes += 1;
        self.counters.bytes_written += data.len() as u64;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), DevError> {
        self.check(offset, buf.len() as u64)?;
        // read_into lands the wire payload directly in `buf` — one copy,
        // not the read-to-vec-then-copy double it replaced.
        self.conn
            .read_into(self.base + offset, buf)
            .map_err(|e| DevError(e.to_string()))?;
        self.counters.reads += 1;
        self.counters.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Pipeline a whole extent batch through the submission window: up to
    /// `queue_depth` write capsules in flight instead of one lock-step
    /// exchange per extent.
    fn write_vectored_at(&mut self, writes: &[(u64, &[u8])]) -> Result<(), DevError> {
        let mut total = 0u64;
        for &(offset, data) in writes {
            self.check(offset, data.len() as u64)?;
            total += data.len() as u64;
        }
        self.crash_gate(writes.len())?;
        if self.mirror.is_some() {
            self.dispatch_writes(
                writes
                    .iter()
                    .map(|&(o, d)| (o, Bytes::copy_from_slice(d)))
                    .collect(),
            )?;
        } else {
            let abs: Vec<(u64, &[u8])> = writes.iter().map(|&(o, d)| (self.base + o, d)).collect();
            self.conn
                .write_vectored(&abs)
                .map_err(|e| DevError(e.to_string()))?;
        }
        self.counters.writes += writes.len() as u64;
        self.counters.bytes_written += total;
        Ok(())
    }

    /// Pipeline a batch of reads through the submission window; each wire
    /// payload lands in its caller buffer with one copy.
    fn read_vectored_at(&mut self, reads: &mut [(u64, &mut [u8])]) -> Result<(), DevError> {
        let mut total = 0u64;
        for (offset, buf) in reads.iter() {
            self.check(*offset, buf.len() as u64)?;
            total += buf.len() as u64;
        }
        let count = reads.len() as u64;
        let base = self.base;
        let mut abs: Vec<(u64, &mut [u8])> = reads
            .iter_mut()
            .map(|(o, b)| (base + *o, &mut **b))
            .collect();
        self.conn
            .read_vectored_into(&mut abs)
            .map_err(|e| DevError(e.to_string()))?;
        self.counters.reads += count;
        self.counters.bytes_read += total;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), DevError> {
        self.conn.flush().map_err(|e| DevError(e.to_string()))?;
        if let Some(m) = &mut self.mirror {
            // A replica flush failure degrades the mirror; it never
            // fails the application's flush.
            m.flush();
        }
        Ok(())
    }

    /// Whiteout hint from microfs: the span's file was deleted or
    /// truncated away. The mirror drops it from the extent map (and the
    /// delta chain records it); unreplicated devices ignore it.
    fn discard_at(&mut self, offset: u64, len: u64) -> Result<(), DevError> {
        self.check(offset, len)?;
        if let Some(m) = &mut self.mirror {
            if self.chaos.crash_fire(CrashOp::Discard) {
                return Err(DevError("crash point: discard".into()));
            }
            m.discard(offset, len);
        }
        Ok(())
    }

    fn size(&self) -> u64 {
        self.size
    }

    fn counters(&self) -> IoCounters {
        // Staging copies made on the initiator side are tracked in the
        // telemetry registry as `fabric.bytes_copied`, not here.
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Initiator, NvmfTarget};
    use ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn segment_device(base: u64, size: u64) -> NvmfBlockDevice {
        segment_device_with_telemetry(base, size, telemetry::Telemetry::new()).0
    }

    fn segment_device_with_telemetry(
        base: u64,
        size: u64,
        t: telemetry::Telemetry,
    ) -> (NvmfBlockDevice, telemetry::Telemetry) {
        let ssd = Ssd::with_telemetry(
            SsdConfig {
                capacity: 64 << 20,
                ..SsdConfig::default()
            },
            t.clone(),
        );
        let ns = ssd.create_namespace(32 << 20).unwrap();
        let target = Arc::new(NvmfTarget::new(Arc::new(ssd)));
        let conn = Initiator::with_telemetry("nqn.rank0", t.clone()).connect(target, ns);
        (NvmfBlockDevice::new(conn, base, size), t)
    }

    #[test]
    fn io_is_offset_by_segment_base() {
        let mut d = segment_device(1 << 20, 1 << 20);
        d.write_at(0, b"segment start").unwrap();
        assert_eq!(d.read_vec(0, 13).unwrap(), b"segment start");
        assert_eq!(d.size(), 1 << 20);
    }

    #[test]
    fn segment_bounds_enforced_locally() {
        let mut d = segment_device(0, 4096);
        assert!(d.write_at(4090, &[0u8; 10]).is_err());
        let mut buf = [0u8; 10];
        assert!(d.read_at(4090, &mut buf).is_err());
        // Overflow-safe.
        assert!(d.write_at(u64::MAX, &[0u8; 1]).is_err());
    }

    #[test]
    fn counters_track_block_and_nvmf_levels() {
        let mut d = segment_device(0, 1 << 20);
        d.write_at(0, &[1u8; 100]).unwrap();
        let _ = d.read_vec(0, 50).unwrap();
        d.flush().unwrap();
        let c = d.counters();
        assert_eq!((c.writes, c.reads), (1, 1));
        let (ios, bytes) = d.nvmf_counters();
        assert_eq!(ios, 2);
        assert_eq!(bytes, 150);
    }

    #[test]
    fn zero_copy_write_and_single_copy_read() {
        let (mut d, t) = segment_device_with_telemetry(0, 1 << 20, telemetry::Telemetry::new());
        d.write_bytes_at(0, Bytes::from(vec![9u8; 4096])).unwrap();
        assert_eq!(
            t.snapshot().counter("fabric.bytes_copied"),
            0,
            "write_bytes_at must not copy"
        );
        let mut buf = vec![0u8; 4096];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; 4096]);
        assert_eq!(
            t.snapshot().counter("fabric.bytes_copied"),
            4096,
            "read_at copies exactly once"
        );
    }

    #[test]
    fn vectored_io_pipelines_through_the_window() {
        let (mut d, t) =
            segment_device_with_telemetry(1 << 20, 4 << 20, telemetry::Telemetry::new());
        // A whole hugeblock batch in one window, zero-copy.
        let writes: Vec<(u64, Bytes)> = (0..48u64)
            .map(|i| (i * 4096, Bytes::from(vec![i as u8; 4096])))
            .collect();
        d.write_vectored_bytes_at(writes).unwrap();
        assert_eq!(t.snapshot().counter("fabric.bytes_copied"), 0);
        let c = d.counters();
        assert_eq!(c.writes, 48);
        assert_eq!(c.bytes_written, 48 * 4096);
        // Batched read back through the window, one copy per extent.
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 4096]; 48];
        {
            let mut reads: Vec<(u64, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| ((i as u64) * 4096, &mut b[..]))
                .collect();
            d.read_vectored_at(&mut reads).unwrap();
        }
        for (i, buf) in bufs.iter().enumerate() {
            assert_eq!(buf, &vec![i as u8; 4096], "extent {i}");
        }
        assert_eq!(d.counters().reads, 48);
        // Segment bounds are enforced before anything hits the wire.
        assert!(d
            .write_vectored_at(&[(0, b"ok"), ((4 << 20) - 1, b"spill")])
            .is_err());
    }

    #[test]
    fn mirrored_device_replicates_microfs_byte_for_byte() {
        use crate::RuntimeConfig;
        use microfs::{ExtentMap, FsConfig, MicroFs};
        let t = telemetry::Telemetry::new();
        let mk = |name: &str| {
            let ssd = Ssd::with_telemetry(
                SsdConfig {
                    capacity: 64 << 20,
                    ..SsdConfig::default()
                },
                t.clone(),
            );
            let ns = ssd.create_namespace(32 << 20).unwrap();
            let target = Arc::new(NvmfTarget::new(Arc::new(ssd)));
            Initiator::with_telemetry(name, t.clone()).connect(target, ns)
        };
        let fs_size = 16u64 << 20;
        let mut d = NvmfBlockDevice::new(mk("nqn.prim"), 4 << 20, fs_size);
        let config = RuntimeConfig {
            telemetry: t.clone(),
            ..RuntimeConfig::default()
        };
        d.attach_mirror(Mirror::new(mk("nqn.repl"), ExtentMap::new(), 0, &config));
        // Format + data run entirely through the mirrored write paths.
        let mut fs = MicroFs::format(d, FsConfig::default()).unwrap();
        let fd = fs.create("/ckpt", 0o644).unwrap();
        fs.write(fd, &vec![0x5Au8; 300_000]).unwrap();
        fs.close(fd).unwrap();
        fs.snapshot_now().unwrap();
        let mut d = fs.into_device();
        assert_eq!(d.commit_epoch().unwrap(), Some(1));
        assert_eq!(d.scrub().unwrap().unwrap().unrecoverable, 0);
        // The replica holds a byte-identical partition image.
        let m = d.take_mirror().unwrap();
        assert!(!m.is_degraded());
        let spans: Vec<(u64, u64, Option<u32>)> = m.map().entries();
        let (mut rconn, _, _, _) = m.into_parts();
        for (off, len, _) in spans {
            let replica = rconn.read_bytes(off, len as usize).unwrap();
            let mut primary = vec![0u8; len as usize];
            d.read_at(off, &mut primary).unwrap();
            assert_eq!(&replica[..], &primary[..], "extent at {off}");
        }
    }

    #[test]
    fn microfs_formats_and_runs_over_nvmf() {
        use microfs::{FsConfig, MicroFs, OpenFlags};
        let d = segment_device(4 << 20, 16 << 20);
        let mut fs = MicroFs::format(d, FsConfig::default()).unwrap();
        let fd = fs.create("/ckpt", 0o644).unwrap();
        let data = vec![0xCDu8; 200_000];
        fs.write(fd, &data).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open("/ckpt", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; data.len()];
        fs.read(fd, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}
