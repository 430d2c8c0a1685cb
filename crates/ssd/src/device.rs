//! The functional device: namespaces + backing bytes + device-RAM buffer.
//!
//! NVMe-CR "writes data directly to internal device-level RAM ... In the
//! event of power failure, device capacitors will safely flush volatile data
//! to non-volatile flash memory" (§III-D). This module makes that behaviour
//! testable: writes land in a bounded volatile buffer, draining FIFO to the
//! persistent store; [`Ssd::power_failure`] either capacitor-flushes or
//! discards what is still volatile, and recovery tests observe the
//! difference in real bytes.
//!
//! # Concurrency model
//!
//! The device is **sharded by namespace**, mirroring how NVMe hardware
//! queues give each attached microfs instance an independent command path
//! (§III-B, Principle 3). Each namespace owns an [`NsShard`]: its own
//! backing pages, its own staging-RAM FIFO, and its own lock. IO on
//! different namespaces never contends; IO on one namespace is serialized
//! by the shard lock, preserving per-queue FIFO semantics. A separate,
//! narrow controller lock guards only the admin plane (the namespace
//! table and the shard map) and is never held across data IO.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use chaos::{ChaosHandle, FaultAction, Site};
use parking_lot::Mutex;
use telemetry::{Counter, FlightKind, FlightRecorder, Gauge, Histogram, Telemetry};

use crate::backing::SparseStore;
use crate::config::SsdConfig;
use crate::namespace::{NamespaceSet, NsError, NsId};

/// Resolved telemetry handles for the device's hot path. All shards of
/// one [`Ssd`] share these, so per-metric registry lookups happen once at
/// device construction, never per IO.
struct SsdMetrics {
    /// Write-payload bytes memcpy'd by the device: every staged payload
    /// byte is copied exactly once, at drain, into the backing store.
    bytes_copied: Arc<Counter>,
    /// Cumulative nanoseconds IO threads spent *blocked* acquiring shard
    /// locks — the direct observable for cross-rank contention.
    lock_wait_ns: Arc<Counter>,
    /// Bytes saved by capacitor-backed flush on power failure.
    capacitor_flush_bytes: Arc<Counter>,
    /// Latency of one staged write draining to media.
    drain_ns: Arc<Histogram>,
    /// Shard write-path latency (stage + any forced drains).
    write_ns: Arc<Histogram>,
    /// Shard read-path latency (media read + volatile overlay).
    read_ns: Arc<Histogram>,
    /// Writes currently staged in device RAM across all shards.
    queue_depth: Arc<Gauge>,
    /// Bytes currently staged in device RAM across all shards.
    ram_occupancy: Arc<Gauge>,
    /// Flight recorder: shard health transitions (busy, kill, dead-IO)
    /// land here so a dump shows *why* a command above saw ShardOffline.
    flight: Arc<FlightRecorder>,
}

impl SsdMetrics {
    fn new(t: &Telemetry) -> Self {
        SsdMetrics {
            bytes_copied: t.counter("ssd.bytes_copied"),
            lock_wait_ns: t.counter("ssd.lock_wait_ns"),
            capacitor_flush_bytes: t.counter("ssd.capacitor_flush_bytes"),
            drain_ns: t.sampled_histogram("ssd.drain_ns"),
            write_ns: t.sampled_histogram("ssd.write_ns"),
            read_ns: t.sampled_histogram("ssd.read_ns"),
            queue_depth: t.gauge("ssd.queue_depth"),
            ram_occupancy: t.gauge("ssd.ram_occupancy_bytes"),
            flight: t.recorder(),
        }
    }
}

/// IO or management failure on the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// Namespace-layer failure (unknown NSID, bounds, space).
    Ns(NsError),
    /// Transient backpressure: the shard cannot take the IO right now.
    /// Retry after backoff.
    Busy(NsId),
    /// The shard is dead (injected hardware failure); no retry on this
    /// path will succeed.
    ShardDead(NsId),
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::Ns(e) => write!(f, "{e}"),
            SsdError::Busy(ns) => write!(f, "namespace {ns:?} busy, retry later"),
            SsdError::ShardDead(ns) => write!(f, "namespace {ns:?} shard is dead"),
        }
    }
}

impl std::error::Error for SsdError {}

impl From<NsError> for SsdError {
    fn from(e: NsError) -> Self {
        SsdError::Ns(e)
    }
}

/// Outcome of a power-failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerFailure {
    /// Bytes that were still volatile and were saved by the capacitor flush.
    pub flushed_bytes: u64,
    /// Bytes that were still volatile and were lost (no capacitor).
    pub lost_bytes: u64,
}

/// A write staged in device RAM. The payload is a refcounted [`Bytes`]:
/// enqueueing one is copy-free; the single copy happens at drain time,
/// into the backing store.
struct PendingWrite {
    ns_offset: u64,
    data: Bytes,
}

/// Everything a shard's lock protects: the namespace's backing pages, its
/// staging-RAM FIFO, and its IO accounting.
struct ShardData {
    store: SparseStore,
    /// FIFO of writes still in this queue's device RAM (not yet on media).
    volatile: VecDeque<PendingWrite>,
    volatile_bytes: u64,
    writes: u64,
    reads: u64,
    bytes_written: u64,
    bytes_read: u64,
}

impl ShardData {
    fn drain_one(&mut self, m: &SsdMetrics) -> bool {
        let Some(w) = self.volatile.pop_front() else {
            return false;
        };
        let len = w.data.len() as u64;
        self.volatile_bytes -= len;
        {
            let _t = m.drain_ns.time();
            self.store.write(w.ns_offset, &w.data);
        }
        m.bytes_copied.add(len);
        m.queue_depth.add(-1);
        m.ram_occupancy.add(-(len as i64));
        true
    }

    fn flush(&mut self, m: &SsdMetrics) {
        while self.drain_one(m) {}
    }
}

/// One namespace's independently lockable slice of the device: the
/// functional analogue of a dedicated NVMe hardware queue plus the flash
/// behind one namespace. All offsets are namespace-relative.
pub struct NsShard {
    ns: NsId,
    size: u64,
    /// Per-queue staging-RAM budget (the namespace's share of device RAM).
    ram_budget: u64,
    capacitor: bool,
    data: Mutex<ShardData>,
    /// Telemetry handles shared with the owning device (lock-wait time is
    /// charged to `ssd.lock_wait_ns`, the cross-rank contention
    /// observable).
    metrics: Arc<SsdMetrics>,
    /// Fault-injection hook shared with the owning device's config.
    chaos: ChaosHandle,
    /// Set by an injected [`FaultAction::KillShard`] (or [`NsShard::kill`]):
    /// every subsequent IO fails with [`SsdError::ShardDead`] until revived.
    dead: AtomicBool,
}

impl NsShard {
    fn new(
        ns: NsId,
        size: u64,
        ram_budget: u64,
        capacitor: bool,
        metrics: Arc<SsdMetrics>,
        chaos: ChaosHandle,
    ) -> Self {
        NsShard {
            ns,
            size,
            ram_budget,
            capacitor,
            data: Mutex::new(ShardData {
                store: SparseStore::new(size),
                volatile: VecDeque::new(),
                volatile_bytes: 0,
                writes: 0,
                reads: 0,
                bytes_written: 0,
                bytes_read: 0,
            }),
            metrics,
            chaos,
            dead: AtomicBool::new(false),
        }
    }

    /// The namespace this shard backs.
    pub fn namespace(&self) -> NsId {
        self.ns
    }

    /// Namespace size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Acquire the shard lock, charging any blocked time to the
    /// contention counter. Uncontended acquisitions cost one `try_lock`.
    fn lock_data(&self) -> parking_lot::MutexGuard<'_, ShardData> {
        if let Some(g) = self.data.try_lock() {
            return g;
        }
        let t = telemetry::now();
        let g = self.data.lock();
        self.metrics.lock_wait_ns.add(telemetry::ns_since(t));
        g
    }

    /// Gate every data-plane IO on shard health and injected faults.
    /// Disarmed chaos costs one relaxed atomic load here.
    fn fault_check(&self) -> Result<(), SsdError> {
        if self.dead.load(Ordering::Relaxed) {
            self.metrics
                .flight
                .record(FlightKind::ShardDead, 0, 0, self.ns.0 as u64, 0);
            return Err(SsdError::ShardDead(self.ns));
        }
        match self.chaos.fire(Site::ShardIo) {
            Some(FaultAction::ShardBusy) => {
                self.metrics
                    .flight
                    .record(FlightKind::ShardBusy, 0, 0, self.ns.0 as u64, 0);
                Err(SsdError::Busy(self.ns))
            }
            Some(FaultAction::KillShard) => {
                self.kill();
                self.metrics
                    .flight
                    .record(FlightKind::ShardKill, 0, 0, self.ns.0 as u64, 0);
                Err(SsdError::ShardDead(self.ns))
            }
            _ => Ok(()),
        }
    }

    /// Mark the shard dead: all IO fails with [`SsdError::ShardDead`]. The
    /// data is unreachable, as with a failed drive; the runtime's failover
    /// path must re-home the namespace, not retry.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }

    /// Bring a killed shard back (tests only — real failover replaces the
    /// namespace instead).
    pub fn revive(&self) {
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Whether the shard has been declared dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), SsdError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(SsdError::Ns(NsError::OutOfRange {
                ns: self.ns,
                offset,
                len,
                size: self.size,
            })),
        }
    }

    /// Zero-copy write: `data` is staged by reference in device RAM; the
    /// payload is copied exactly once, at drain time, into the backing
    /// store.
    pub fn write_bytes(&self, offset: u64, data: Bytes) -> Result<(), SsdError> {
        self.fault_check()?;
        self.check(offset, data.len() as u64)?;
        let _t = self.metrics.write_ns.time();
        let mut d = self.lock_data();
        d.writes += 1;
        d.bytes_written += data.len() as u64;
        d.volatile_bytes += data.len() as u64;
        self.metrics.queue_depth.add(1);
        self.metrics.ram_occupancy.add(data.len() as i64);
        d.volatile.push_back(PendingWrite {
            ns_offset: offset,
            data,
        });
        while d.volatile_bytes > self.ram_budget {
            if !d.drain_one(&self.metrics) {
                break;
            }
        }
        Ok(())
    }

    /// Overlay pending (still-volatile) writes onto `buf`, which holds the
    /// media contents of `[offset, offset + buf.len())`. FIFO order so
    /// later writes win — the shared read-your-writes step of every read
    /// path.
    fn overlay_volatile(d: &ShardData, offset: u64, buf: &mut [u8]) {
        let start = offset;
        let end = offset + buf.len() as u64;
        for w in &d.volatile {
            let wstart = w.ns_offset;
            let wend = w.ns_offset + w.data.len() as u64;
            let lo = start.max(wstart);
            let hi = end.min(wend);
            if lo < hi {
                let src = (lo - wstart) as usize..(hi - wstart) as usize;
                let dst = (lo - start) as usize..(hi - start) as usize;
                buf[dst].copy_from_slice(&w.data[src]);
            }
        }
    }

    /// Latent media corruption: when an armed plan fires
    /// [`FaultAction::CorruptPayload`] at [`Site::ReplicaBitRot`], one
    /// bit inside the read range flips **in the backing store** before the
    /// read is served. Unlike a wire-level corruption the damage is
    /// persistent — every later read of the byte sees it too — which is
    /// exactly what a scrub/read-repair pass must detect and heal.
    fn bit_rot_check(&self, d: &mut ShardData, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some(FaultAction::CorruptPayload) = self.chaos.fire(Site::ReplicaBitRot) {
            let target = offset + len / 2;
            let mut b = [0u8; 1];
            d.store.read(target, &mut b);
            b[0] ^= 0x01;
            d.store.write(target, &b);
            telemetry::instant("ssd", "bit_rot", &[("ns_offset", target)]);
        }
    }

    /// Read `len` bytes as an owned [`Bytes`] payload, observing volatile
    /// (read-your-writes) data. The buffer is materialized in one pass by
    /// the backing store (resident pages appended, holes zero-extended)
    /// and handed over without a copy.
    pub fn read_bytes(&self, offset: u64, len: usize) -> Result<Bytes, SsdError> {
        self.fault_check()?;
        self.check(offset, len as u64)?;
        let _t = self.metrics.read_ns.time();
        let mut d = self.lock_data();
        d.reads += 1;
        d.bytes_read += len as u64;
        self.bit_rot_check(&mut d, offset, len as u64);
        let mut v = d.store.read_vec(offset, len);
        Self::overlay_volatile(&d, offset, &mut v);
        Ok(Bytes::from(v))
    }

    /// Drain this shard's volatile data to media.
    pub fn flush(&self) {
        self.lock_data().flush(&self.metrics);
    }

    /// Bytes currently held only in this shard's device RAM.
    pub fn volatile_bytes(&self) -> u64 {
        self.lock_data().volatile_bytes
    }

    /// This shard's `(writes, reads, bytes_written, bytes_read)`.
    pub fn io_counters(&self) -> (u64, u64, u64, u64) {
        let d = self.lock_data();
        (d.writes, d.reads, d.bytes_written, d.bytes_read)
    }

    fn power_failure(&self) -> PowerFailure {
        let mut d = self.lock_data();
        let pending = d.volatile_bytes;
        if self.capacitor {
            // An injected PowerCut interrupts the capacitor flush itself:
            // only the first `drain_writes` staged writes reach media, the
            // rest are lost despite power-loss protection (§III-D's failure
            // mode when the capacitor budget is undersized).
            if let Some(FaultAction::PowerCut { drain_writes }) =
                self.chaos.fire(Site::CapacitorFlush)
            {
                for _ in 0..drain_writes {
                    if !d.drain_one(&self.metrics) {
                        break;
                    }
                }
                let drained = pending - d.volatile_bytes;
                let lost = d.volatile_bytes;
                let dropped = d.volatile.len() as i64;
                d.volatile.clear();
                d.volatile_bytes = 0;
                self.metrics.queue_depth.add(-dropped);
                self.metrics.ram_occupancy.add(-(lost as i64));
                self.metrics.capacitor_flush_bytes.add(drained);
                telemetry::instant(
                    "ssd",
                    "capacitor_flush_interrupted",
                    &[("flushed", drained), ("lost", lost)],
                );
                return PowerFailure {
                    flushed_bytes: drained,
                    lost_bytes: lost,
                };
            }
            d.flush(&self.metrics);
            self.metrics.capacitor_flush_bytes.add(pending);
            telemetry::instant("ssd", "capacitor_flush", &[("bytes", pending)]);
            PowerFailure {
                flushed_bytes: pending,
                lost_bytes: 0,
            }
        } else {
            let dropped = d.volatile.len() as i64;
            d.volatile.clear();
            d.volatile_bytes = 0;
            self.metrics.queue_depth.add(-dropped);
            self.metrics.ram_occupancy.add(-(pending as i64));
            telemetry::instant("ssd", "power_loss_drop", &[("bytes", pending)]);
            PowerFailure {
                flushed_bytes: 0,
                lost_bytes: pending,
            }
        }
    }
}

/// The admin plane: namespace table, shard map, and accounting carried
/// over from deleted namespaces. Guarded by the controller lock, which is
/// never held across data-plane IO.
struct Controller {
    namespaces: NamespaceSet,
    shards: HashMap<NsId, Arc<NsShard>>,
    /// Aggregate `(writes, reads, bytes_written, bytes_read)` of deleted
    /// namespaces, so device-lifetime counters never go backwards.
    retired: (u64, u64, u64, u64),
}

/// One simulated NVMe SSD, safe to share (`&self` API): per-namespace
/// shards carry the data plane; a narrow controller lock carries the
/// admin plane.
pub struct Ssd {
    config: SsdConfig,
    ctrl: Mutex<Controller>,
    telemetry: Telemetry,
    metrics: Arc<SsdMetrics>,
}

impl Ssd {
    /// A fresh device reporting into the process-global telemetry
    /// registry.
    pub fn new(config: SsdConfig) -> Self {
        Self::with_telemetry(config, Telemetry::default())
    }

    /// A fresh device reporting into `t`. Tests that assert exact
    /// `ssd.*` counter values pass a private `Telemetry::new()` so
    /// concurrently running tests never share metrics.
    pub fn with_telemetry(config: SsdConfig, t: Telemetry) -> Self {
        let namespaces = NamespaceSet::new(config.capacity);
        let metrics = Arc::new(SsdMetrics::new(&t));
        Ssd {
            config,
            ctrl: Mutex::new(Controller {
                namespaces,
                shards: HashMap::new(),
                retired: (0, 0, 0, 0),
            }),
            telemetry: t,
            metrics,
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The telemetry registry this device reports into (`ssd.*` metrics).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Bytes not yet given to a namespace.
    pub fn free_bytes(&self) -> u64 {
        self.ctrl.lock().namespaces.free_bytes()
    }

    /// Create a namespace of `size` bytes, spinning up its shard.
    pub fn create_namespace(&self, size: u64) -> Result<NsId, SsdError> {
        let mut ctrl = self.ctrl.lock();
        let ns = ctrl.namespaces.create(size)?;
        let shard = Arc::new(NsShard::new(
            ns,
            size,
            self.config.device_ram,
            self.config.capacitor,
            Arc::clone(&self.metrics),
            self.config.chaos.clone(),
        ));
        ctrl.shards.insert(ns, shard);
        Ok(ns)
    }

    /// Delete a namespace. Its shard (and data) becomes unreachable, as
    /// with a real NSID delete; its lifetime counters fold into the
    /// device totals.
    pub fn delete_namespace(&self, ns: NsId) -> Result<(), SsdError> {
        let mut ctrl = self.ctrl.lock();
        ctrl.namespaces.delete(ns)?;
        if let Some(shard) = ctrl.shards.remove(&ns) {
            // IO counters fold into the device totals; `ssd.*` telemetry
            // is registry-lifetime and needs no carry-over.
            let (w, r, bw, br) = shard.io_counters();
            ctrl.retired.0 += w;
            ctrl.retired.1 += r;
            ctrl.retired.2 += bw;
            ctrl.retired.3 += br;
        }
        Ok(())
    }

    /// The shard backing one namespace. Data-plane users (the NVMf
    /// target) resolve shards once per connection and then bypass the
    /// controller lock entirely.
    pub fn shard(&self, ns: NsId) -> Result<Arc<NsShard>, SsdError> {
        self.ctrl
            .lock()
            .shards
            .get(&ns)
            .cloned()
            .ok_or(SsdError::Ns(NsError::UnknownNamespace(ns)))
    }

    fn all_shards(&self) -> Vec<Arc<NsShard>> {
        self.ctrl.lock().shards.values().cloned().collect()
    }

    /// Drain all volatile data on every shard (a device-wide flush).
    pub fn flush(&self) {
        for shard in self.all_shards() {
            shard.flush();
        }
    }

    /// Bytes currently held only in device RAM, across all shards.
    pub fn volatile_bytes(&self) -> u64 {
        self.all_shards().iter().map(|s| s.volatile_bytes()).sum()
    }

    /// Simulate a power failure. With enhanced power-loss protection
    /// (capacitors), volatile data flushes to media; without, it is lost.
    pub fn power_failure(&self) -> PowerFailure {
        let mut total = PowerFailure {
            flushed_bytes: 0,
            lost_bytes: 0,
        };
        for shard in self.all_shards() {
            let pf = shard.power_failure();
            total.flushed_bytes += pf.flushed_bytes;
            total.lost_bytes += pf.lost_bytes;
        }
        total
    }

    /// Lifetime IO counters: `(writes, reads, bytes_written, bytes_read)`,
    /// including traffic of since-deleted namespaces.
    pub fn io_counters(&self) -> (u64, u64, u64, u64) {
        let retired = self.ctrl.lock().retired;
        let mut t = retired;
        for shard in self.all_shards() {
            let (w, r, bw, br) = shard.io_counters();
            t.0 += w;
            t.1 += r;
            t.2 += bw;
            t.3 += br;
        }
        t
    }

    /// Per-namespace IO counters `(writes, reads, bytes_written,
    /// bytes_read)` — zero for namespaces that never saw IO.
    pub fn ns_io_counters(&self, ns: NsId) -> (u64, u64, u64, u64) {
        self.shard(ns).map(|s| s.io_counters()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small device with a *private* telemetry registry: `cargo test`
    /// runs tests concurrently in one process, so exact-value assertions
    /// on `ssd.*` metrics must not share the global registry.
    fn small_ssd(capacitor: bool) -> Ssd {
        let config = SsdConfig {
            capacity: 1 << 20,
            device_ram: 4096,
            capacitor,
            ..SsdConfig::default()
        };
        Ssd::with_telemetry(config, Telemetry::new())
    }

    /// A fresh namespace of `size` bytes and its shard — the handle the
    /// NVMf target resolves once per connection.
    fn ns_shard(ssd: &Ssd, size: u64) -> (NsId, Arc<NsShard>) {
        let ns = ssd.create_namespace(size).unwrap();
        (ns, ssd.shard(ns).unwrap())
    }

    fn fill(byte: u8, len: usize) -> Bytes {
        Bytes::from(vec![byte; len])
    }

    fn ssd_counter(ssd: &Ssd, name: &str) -> u64 {
        ssd.telemetry().snapshot().counter(name)
    }

    #[test]
    fn write_read_roundtrip_through_namespace() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(1000, Bytes::from_static(b"checkpoint-data"))
            .unwrap();
        assert_eq!(&s.read_bytes(1000, 15).unwrap()[..], b"checkpoint-data");
    }

    #[test]
    fn read_your_writes_from_device_ram() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(0, fill(7, 100)).unwrap();
        assert!(ssd.volatile_bytes() > 0, "write should still be volatile");
        assert_eq!(s.read_bytes(0, 100).unwrap(), fill(7, 100));
    }

    #[test]
    fn later_volatile_write_wins_on_overlap() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(0, fill(1, 64)).unwrap();
        s.write_bytes(32, fill(2, 64)).unwrap();
        let v = s.read_bytes(0, 96).unwrap();
        assert_eq!(&v[..32], &[1u8; 32]);
        assert_eq!(&v[32..96], &[2u8; 64]);
    }

    #[test]
    fn capacitor_saves_volatile_data_on_power_failure() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(0, fill(9, 2048)).unwrap();
        let pf = ssd.power_failure();
        assert_eq!(pf.flushed_bytes, 2048);
        assert_eq!(pf.lost_bytes, 0);
        assert_eq!(s.read_bytes(0, 2048).unwrap(), fill(9, 2048));
    }

    #[test]
    fn no_capacitor_loses_volatile_data() {
        let ssd = small_ssd(false);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(0, fill(9, 2048)).unwrap();
        let pf = ssd.power_failure();
        assert_eq!(pf.lost_bytes, 2048);
        // The data is gone: reads return zeroes.
        assert_eq!(s.read_bytes(0, 2048).unwrap(), fill(0, 2048));
    }

    #[test]
    fn buffer_drains_fifo_when_over_capacity() {
        let ssd = small_ssd(false);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        // device_ram is 4096; write 3 x 2048. The first write must have
        // drained to media and thus survives power loss.
        s.write_bytes(0, fill(1, 2048)).unwrap();
        s.write_bytes(2048, fill(2, 2048)).unwrap();
        s.write_bytes(4096, fill(3, 2048)).unwrap();
        assert!(ssd.volatile_bytes() <= 4096);
        ssd.power_failure();
        assert_eq!(s.read_bytes(0, 2048).unwrap(), fill(1, 2048));
    }

    #[test]
    fn namespaces_do_not_alias() {
        let ssd = small_ssd(true);
        let (_, a) = ns_shard(&ssd, 4096);
        let (_, b) = ns_shard(&ssd, 4096);
        a.write_bytes(0, fill(0xAA, 4096)).unwrap();
        b.write_bytes(0, fill(0xBB, 4096)).unwrap();
        ssd.flush();
        assert_eq!(a.read_bytes(0, 4096).unwrap(), fill(0xAA, 4096));
        assert_eq!(b.read_bytes(0, 4096).unwrap(), fill(0xBB, 4096));
    }

    #[test]
    fn io_counters_accumulate() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 4096);
        s.write_bytes(0, fill(0, 100)).unwrap();
        let _ = s.read_bytes(0, 50).unwrap();
        assert_eq!(ssd.io_counters(), (1, 1, 100, 50));
    }

    #[test]
    fn per_namespace_accounting_separates_tenants() {
        let ssd = small_ssd(true);
        let (a, sa) = ns_shard(&ssd, 8192);
        let (b, sb) = ns_shard(&ssd, 8192);
        sa.write_bytes(0, fill(0, 100)).unwrap();
        sa.write_bytes(100, fill(0, 50)).unwrap();
        let _ = sb.read_bytes(0, 64).unwrap();
        assert_eq!(ssd.ns_io_counters(a), (2, 0, 150, 0));
        assert_eq!(ssd.ns_io_counters(b), (0, 1, 0, 64));
        let c = ssd.create_namespace(64).unwrap();
        assert_eq!(ssd.ns_io_counters(c), (0, 0, 0, 0));
    }

    #[test]
    fn out_of_range_io_is_rejected() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 100);
        assert!(s.write_bytes(90, fill(0, 20)).is_err());
        assert!(s.read_bytes(90, 20).is_err());
    }

    #[test]
    fn counters_survive_namespace_delete() {
        let ssd = small_ssd(true);
        let (ns, s) = ns_shard(&ssd, 4096);
        s.write_bytes(0, fill(0, 128)).unwrap();
        ssd.flush();
        ssd.delete_namespace(ns).unwrap();
        let (w, _, bw, _) = ssd.io_counters();
        assert_eq!((w, bw), (1, 128));
        assert!(ssd_counter(&ssd, "ssd.bytes_copied") >= 128);
    }

    #[test]
    fn zero_copy_write_copies_once_at_drain() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(0, fill(0x5A, 8192)).unwrap();
        // 8 KiB exceeds the 4 KiB RAM budget, so the write has fully
        // drained: exactly one copy per byte, into the backing store.
        assert_eq!(ssd_counter(&ssd, "ssd.bytes_copied"), 8192);
        assert_eq!(s.read_bytes(0, 8192).unwrap(), fill(0x5A, 8192));
        // A staged write is not copied until a flush drains it, and then
        // exactly once.
        let before = ssd_counter(&ssd, "ssd.bytes_copied");
        s.write_bytes(0, fill(1, 64)).unwrap();
        assert_eq!(ssd_counter(&ssd, "ssd.bytes_copied"), before);
        ssd.flush();
        assert_eq!(ssd_counter(&ssd, "ssd.bytes_copied") - before, 64);
    }

    #[test]
    fn telemetry_tracks_occupancy_drains_and_capacitor_flush() {
        let ssd = small_ssd(true);
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(0, fill(7, 1024)).unwrap();
        let snap = ssd.telemetry().snapshot();
        // The 1 KiB write fits the 4 KiB budget: still staged.
        assert_eq!(snap.gauge("ssd.queue_depth").value, 1);
        assert_eq!(snap.gauge("ssd.ram_occupancy_bytes").value, 1024);
        assert_eq!(snap.histogram("ssd.write_ns").unwrap().count, 1);

        let pf = ssd.power_failure();
        assert_eq!(pf.flushed_bytes, 1024);
        let snap = ssd.telemetry().snapshot();
        assert_eq!(snap.counter("ssd.capacitor_flush_bytes"), 1024);
        assert_eq!(snap.gauge("ssd.queue_depth").value, 0);
        assert_eq!(snap.gauge("ssd.ram_occupancy_bytes").value, 0);
        assert_eq!(snap.gauge("ssd.ram_occupancy_bytes").peak, 1024);
        // Drain latency was observed for the flushed write.
        assert_eq!(snap.histogram("ssd.drain_ns").unwrap().count, 1);
    }

    #[test]
    fn injected_busy_is_transient_kill_is_permanent() {
        let chaos = ChaosHandle::new();
        let config = SsdConfig {
            capacity: 1 << 20,
            device_ram: 4096,
            chaos: chaos.clone(),
            ..SsdConfig::default()
        };
        let ssd = Ssd::with_telemetry(config, Telemetry::new());
        let (_, s) = ns_shard(&ssd, 64 << 10);
        let t = Telemetry::new();

        chaos.arm(
            chaos::FaultPlan::new(1).at_op(Site::ShardIo, FaultAction::ShardBusy, 0),
            &t,
        );
        assert!(matches!(
            s.write_bytes(0, fill(1, 64)),
            Err(SsdError::Busy(_))
        ));
        // Busy is transient: the next attempt succeeds.
        s.write_bytes(0, fill(1, 64)).unwrap();

        chaos.arm(
            chaos::FaultPlan::new(1).at_op(Site::ShardIo, FaultAction::KillShard, 0),
            &t,
        );
        assert!(matches!(
            s.write_bytes(0, fill(2, 64)),
            Err(SsdError::ShardDead(_))
        ));
        chaos.disarm();
        // Dead is permanent, even with chaos disarmed, until revived.
        assert!(matches!(s.read_bytes(0, 64), Err(SsdError::ShardDead(_))));
        assert!(s.is_dead());
        s.revive();
        assert_eq!(s.read_bytes(0, 64).unwrap(), fill(1, 64));
    }

    #[test]
    fn power_cut_interrupts_capacitor_flush() {
        let chaos = ChaosHandle::new();
        let config = SsdConfig {
            capacity: 1 << 20,
            device_ram: 1 << 20, // large budget: nothing drains early
            capacitor: true,
            chaos: chaos.clone(),
            ..SsdConfig::default()
        };
        let ssd = Ssd::with_telemetry(config, Telemetry::new());
        let (_, s) = ns_shard(&ssd, 64 << 10);
        for i in 0..4u64 {
            s.write_bytes(i * 1024, fill(i as u8 + 1, 1024)).unwrap();
        }
        assert_eq!(ssd.volatile_bytes(), 4096);

        let t = Telemetry::new();
        chaos.arm(
            chaos::FaultPlan::new(2).at_op(
                Site::CapacitorFlush,
                FaultAction::PowerCut { drain_writes: 2 },
                0,
            ),
            &t,
        );
        let pf = ssd.power_failure();
        assert_eq!(pf.flushed_bytes, 2048, "capacitor drained only 2 writes");
        assert_eq!(pf.lost_bytes, 2048, "the rest died with the power");
        chaos.disarm();
        // FIFO drain order: the first two writes survived, the rest read 0.
        assert_eq!(s.read_bytes(0, 1024).unwrap(), fill(1, 1024));
        assert_eq!(s.read_bytes(1024, 1024).unwrap(), fill(2, 1024));
        assert_eq!(s.read_bytes(2048, 1024).unwrap(), fill(0, 1024));
        assert_eq!(s.read_bytes(3072, 1024).unwrap(), fill(0, 1024));
    }

    #[test]
    fn injected_bit_rot_is_persistent_and_repairable() {
        let chaos = ChaosHandle::new();
        let config = SsdConfig {
            capacity: 1 << 20,
            device_ram: 4096,
            chaos: chaos.clone(),
            ..SsdConfig::default()
        };
        let ssd = Ssd::with_telemetry(config, Telemetry::new());
        let (_, s) = ns_shard(&ssd, 64 << 10);
        s.write_bytes(0, fill(0x55, 8192)).unwrap();
        ssd.flush();

        let t = Telemetry::new();
        chaos.arm(
            chaos::FaultPlan::new(3).at_op(Site::ReplicaBitRot, FaultAction::CorruptPayload, 0),
            &t,
        );
        // The faulted read itself observes the flip (offset + len/2, low bit).
        let v = s.read_bytes(0, 8192).unwrap();
        assert_eq!(v[4096], 0x54, "one bit flipped inside the read range");
        assert_eq!(v.iter().filter(|&&b| b != 0x55).count(), 1);
        chaos.disarm();
        // Latent: the corruption lives on media, not on the wire.
        let v = s.read_bytes(0, 8192).unwrap();
        assert_eq!(v[4096], 0x54);
        // A rewrite (read-repair) heals it.
        s.write_bytes(4096, fill(0x55, 1)).unwrap();
        ssd.flush();
        assert_eq!(s.read_bytes(0, 8192).unwrap(), fill(0x55, 8192));
    }

    #[test]
    fn shards_are_independently_usable_across_threads() {
        let ssd = small_ssd(true);
        let (_, a) = ns_shard(&ssd, 64 << 10);
        let (_, b) = ns_shard(&ssd, 64 << 10);
        std::thread::scope(|s| {
            for (shard, byte) in [(&a, 0xAAu8), (&b, 0xBBu8)] {
                s.spawn(move || {
                    for i in 0..64u64 {
                        shard.write_bytes(i * 512, fill(byte, 512)).unwrap();
                    }
                    shard.flush();
                });
            }
        });
        assert_eq!(a.read_bytes(0, 512).unwrap(), fill(0xAA, 512));
        assert_eq!(b.read_bytes(63 * 512, 512).unwrap(), fill(0xBB, 512));
    }
}
