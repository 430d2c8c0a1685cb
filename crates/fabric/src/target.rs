//! Functional NVMf target — the SPDK target daemon of Figure 4.
//!
//! One target fronts one SSD (the paper deploys one daemon per storage
//! node). It is multi-tenant: each connection is admitted with an explicit
//! set of namespaces it may touch, and every capsule is checked against that
//! set before reaching the device — the enforcement half of the paper's
//! namespace-granular security model (§III-F).
//!
//! Connections resolve their namespaces to [`ssd::NsShard`] handles at
//! admission time, so the data plane routes each capsule straight to the
//! shard backing its namespace: two connections on different namespaces
//! never share a lock (the functional analogue of dedicated NVMe hardware
//! queues, §III-B Principle 3), while capsules on one connection retain
//! per-queue FIFO order under the shard lock.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use ssd::{NsId, NsShard, Ssd, SsdError};

use crate::capsule::{Capsule, CapsuleError, Completion, Opcode, Status};
use crate::sg::SgList;

/// Completions remembered per connection for idempotent replay. Far smaller
/// than the 65536-wide CID space, so a cached entry is evicted long before
/// its CID can be legitimately reused by a new command.
const REPLAY_CACHE_CMDS: usize = 128;

/// Connection handle issued by [`NvmfTarget::connect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(u32);

/// Target-side failures (protocol-level errors are returned as completion
/// statuses instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetError {
    /// The connection handle is not registered.
    UnknownConnection,
    /// The wire bytes did not parse as a capsule.
    Malformed(String),
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::UnknownConnection => write!(f, "unknown NVMf connection"),
            TargetError::Malformed(e) => write!(f, "malformed capsule: {e}"),
        }
    }
}

impl std::error::Error for TargetError {}

struct Connection {
    #[allow(dead_code)] // retained for diagnostics / future admin queries
    host_nqn: String,
    /// Granted namespaces, pre-resolved to their shards. Capsule handling
    /// routes through this map and never touches the device's controller
    /// lock.
    shards: HashMap<NsId, Arc<NsShard>>,
    /// Recently completed *successful* mutating commands, keyed by CID, so
    /// a retransmitted command (duplicate delivery, or a retry whose
    /// original response was lost) is answered from cache instead of
    /// re-executed. Only success completions are cached: a transient error
    /// must not shadow a later retry that would succeed.
    replay: Mutex<VecDeque<(u16, Completion)>>,
}

/// A multi-tenant NVMf target daemon fronting one device.
pub struct NvmfTarget {
    ssd: Arc<Ssd>,
    connections: Mutex<HashMap<ConnId, Arc<Connection>>>,
    next_conn: Mutex<u32>,
    /// Command-capsule decode latency on the target side (reported into
    /// the fronted device's telemetry registry).
    decode_ns: Arc<telemetry::Histogram>,
    /// Capsule execution latency: decoded command → completion.
    handle_ns: Arc<telemetry::Histogram>,
    /// Command capsules rejected for a wire CRC mismatch.
    crc_errors: Arc<telemetry::Counter>,
    /// Mutating commands answered from the replay cache instead of
    /// re-executed.
    duplicates_suppressed: Arc<telemetry::Counter>,
}

impl NvmfTarget {
    /// Front the given device. Target-side `fabric.*` metrics report into
    /// the device's telemetry registry.
    pub fn new(ssd: Arc<Ssd>) -> Self {
        let t = ssd.telemetry();
        let decode_ns = t.histogram("fabric.target_decode_ns");
        let handle_ns = t.histogram("fabric.target_handle_ns");
        let crc_errors = t.counter("fabric.crc_errors");
        let duplicates_suppressed = t.counter("fabric.duplicates_suppressed");
        NvmfTarget {
            ssd,
            connections: Mutex::new(HashMap::new()),
            next_conn: Mutex::new(0),
            decode_ns,
            handle_ns,
            crc_errors,
            duplicates_suppressed,
        }
    }

    /// The device behind this target (management plane use).
    pub fn device(&self) -> &Arc<Ssd> {
        &self.ssd
    }

    /// Admit a host, granting access to exactly `allowed` namespaces.
    /// Grants for namespaces that do not exist are silently dropped (the
    /// connection then sees `InvalidNamespace` on use, same as no grant).
    pub fn connect(&self, host_nqn: &str, allowed: &[NsId]) -> ConnId {
        let shards = allowed
            .iter()
            .filter_map(|&ns| self.ssd.shard(ns).ok().map(|s| (ns, s)))
            .collect();
        let mut next = self.next_conn.lock();
        let id = ConnId(*next);
        *next += 1;
        self.connections.lock().insert(
            id,
            Arc::new(Connection {
                host_nqn: host_nqn.to_string(),
                shards,
                replay: Mutex::new(VecDeque::new()),
            }),
        );
        id
    }

    /// Tear down a connection.
    pub fn disconnect(&self, conn: ConnId) {
        self.connections.lock().remove(&conn);
    }

    /// One batched target-daemon poll iteration: decode, execute, and
    /// build the response for a whole CQ batch of wire capsules. The
    /// connection table lock is taken **once per batch** rather than once
    /// per capsule; execution order within the batch is the CQ's FIFO
    /// delivery order, so per-queue command ordering is preserved.
    pub fn handle_wire_sg_batch(
        &self,
        conn: ConnId,
        batch: Vec<SgList>,
    ) -> Result<Vec<SgList>, TargetError> {
        let cstate = self.connection(conn)?;
        batch
            .into_iter()
            .map(|wire| self.handle_wire_on(&cstate, wire))
            .collect()
    }

    /// Decode and execute one wire capsule against an already-resolved
    /// connection snapshot. Write payloads are adopted by refcount from the
    /// wire and staged in device RAM without a copy; read payloads ride
    /// back as their own segment. A CRC mismatch still gets an answer — a
    /// retryable completion carrying the echoed CID — while structurally
    /// unparseable bytes are a hard transport error.
    fn handle_wire_on(&self, cstate: &Connection, wire: SgList) -> Result<SgList, TargetError> {
        let decoded = {
            let _t = self.decode_ns.time();
            Capsule::decode_sg(wire)
        };
        let completion = match decoded {
            Ok(capsule) => self.handle_on(cstate, &capsule),
            Err(CapsuleError::CrcMismatch { cid, .. }) => {
                self.crc_errors.inc();
                Completion::error(cid, Status::DataCorrupt)
            }
            Err(e) => return Err(TargetError::Malformed(e.to_string())),
        };
        Ok(completion.encode_sg())
    }

    /// Snapshot the connection state, then drop the table lock: capsule
    /// execution must only ever hold the one shard lock it needs.
    fn connection(&self, conn: ConnId) -> Result<Arc<Connection>, TargetError> {
        let conns = self.connections.lock();
        conns
            .get(&conn)
            .map(Arc::clone)
            .ok_or(TargetError::UnknownConnection)
    }

    /// Execute one decoded capsule against a connection snapshot.
    fn handle_on(&self, cstate: &Connection, c: &Capsule) -> Completion {
        let _t = self.handle_ns.time();
        let ns = NsId(c.nsid);
        if c.opcode == Opcode::Connect {
            return Completion::ok(c.cid, Bytes::new());
        }
        // Idempotent replay: a mutating command we already completed
        // successfully (duplicate delivery, or a retry after its response
        // was lost) is answered from cache, never re-executed.
        let mutating = matches!(c.opcode, Opcode::Write | Opcode::Flush);
        if mutating {
            let replay = cstate.replay.lock();
            if let Some((_, cached)) = replay.iter().find(|(cid, _)| *cid == c.cid) {
                self.duplicates_suppressed.inc();
                return cached.clone();
            }
        }
        let Some(shard) = cstate.shards.get(&ns) else {
            return Completion::error(c.cid, Status::InvalidNamespace);
        };
        let completion = match c.opcode {
            Opcode::Connect => unreachable!("handled above"),
            Opcode::Flush => {
                if shard.is_dead() {
                    Completion::error(c.cid, Status::ShardOffline)
                } else {
                    shard.flush();
                    Completion::ok(c.cid, Bytes::new())
                }
            }
            Opcode::Write => match shard.write_bytes(c.offset, c.data.clone()) {
                Ok(()) => Completion::ok(c.cid, Bytes::new()),
                Err(e) => Completion::error(c.cid, Self::status_for(&e)),
            },
            Opcode::Read => {
                if c.len > (1 << 30) {
                    // Refuse absurd reads rather than allocating gigabytes.
                    Completion::error(c.cid, Status::InvalidField)
                } else {
                    match shard.read_bytes(c.offset, c.len as usize) {
                        Ok(v) => Completion::ok(c.cid, v),
                        Err(e) => Completion::error(c.cid, Self::status_for(&e)),
                    }
                }
            }
        };
        if mutating && completion.status == Status::Success {
            let mut replay = cstate.replay.lock();
            if replay.len() >= REPLAY_CACHE_CMDS {
                replay.pop_front();
            }
            replay.push_back((c.cid, completion.clone()));
        }
        completion
    }

    fn status_for(e: &SsdError) -> Status {
        match e {
            SsdError::Busy(_) => Status::Busy,
            SsdError::ShardDead(_) => Status::ShardOffline,
            SsdError::Ns(_) => Status::LbaOutOfRange,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd::SsdConfig;

    fn target_with_two_ns() -> (NvmfTarget, NsId, NsId) {
        // Private telemetry registry: the one-copy test asserts an exact
        // `ssd.bytes_copied` value and must not share counters with
        // concurrently running tests.
        let ssd = Ssd::with_telemetry(
            SsdConfig {
                capacity: 1 << 20,
                ..SsdConfig::default()
            },
            telemetry::Telemetry::new(),
        );
        let a = ssd.create_namespace(256 << 10).unwrap();
        let b = ssd.create_namespace(256 << 10).unwrap();
        (NvmfTarget::new(Arc::new(ssd)), a, b)
    }

    /// One daemon poll iteration over a one-element batch of raw wire
    /// segments, with its single completion decoded.
    fn exchange_wire(
        t: &NvmfTarget,
        conn: ConnId,
        wire: SgList,
    ) -> Result<Completion, TargetError> {
        let mut resps = t.handle_wire_sg_batch(conn, vec![wire])?;
        assert_eq!(resps.len(), 1, "one completion per command");
        Ok(Completion::decode_sg(resps.pop().unwrap()).unwrap())
    }

    /// Encode `c` as the initiator does and exchange it.
    fn exchange(t: &NvmfTarget, conn: ConnId, c: &Capsule) -> Result<Completion, TargetError> {
        exchange_wire(t, conn, c.encode_sg())
    }

    #[test]
    fn target_side_capsule_latency_is_observed() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let w = Capsule::write(1, a.0, 0, Bytes::from(vec![1u8; 512]));
        exchange(&t, conn, &w).unwrap();
        let snap = t.device().telemetry().snapshot();
        assert_eq!(snap.histogram("fabric.target_decode_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("fabric.target_handle_ns").unwrap().count, 1);
    }

    #[test]
    fn write_then_read_roundtrip_over_wire() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let w = Capsule::write(1, a.0, 100, Bytes::from_static(b"dump"));
        assert_eq!(exchange(&t, conn, &w).unwrap().status, Status::Success);
        let resp = exchange(&t, conn, &Capsule::read(2, a.0, 100, 4)).unwrap();
        assert_eq!(resp.status, Status::Success);
        assert_eq!(&resp.data[..], b"dump");
    }

    #[test]
    fn sg_write_reaches_backing_store_with_one_copy() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let payload = Bytes::from(vec![0xC7u8; 8192]);
        let w = Capsule::write(1, a.0, 0, payload);
        assert_eq!(exchange(&t, conn, &w).unwrap().status, Status::Success);
        t.device().flush();
        // Initiator buffer → wire → device RAM were all the same
        // refcounted allocation; the only copy was drain-to-media.
        assert_eq!(
            t.device()
                .telemetry()
                .snapshot()
                .counter("ssd.bytes_copied"),
            8192
        );
        let resp = exchange(&t, conn, &Capsule::read(2, a.0, 0, 8192)).unwrap();
        assert_eq!(&resp.data[..], &vec![0xC7u8; 8192][..]);
    }

    #[test]
    fn batched_poll_iteration_preserves_command_order() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        // A whole CQ batch in one daemon iteration: two writes then a read
        // of the second write's data — order matters.
        let batch = vec![
            Capsule::write(1, a.0, 0, Bytes::from(vec![0x11u8; 512])).encode_sg(),
            Capsule::write(2, a.0, 0, Bytes::from(vec![0x22u8; 512])).encode_sg(),
            Capsule::read(3, a.0, 0, 512).encode_sg(),
        ];
        let resps = t.handle_wire_sg_batch(conn, batch).unwrap();
        assert_eq!(resps.len(), 3);
        let decoded: Vec<Completion> = resps
            .into_iter()
            .map(|r| Completion::decode_sg(r).unwrap())
            .collect();
        // Responses come back in submission order with matching CIDs.
        assert_eq!(
            decoded.iter().map(|c| c.cid).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(decoded.iter().all(|c| c.status == Status::Success));
        // The read observed the *second* write: FIFO execution within the batch.
        assert_eq!(&decoded[2].data[..], &vec![0x22u8; 512][..]);
    }

    #[test]
    fn batch_for_unknown_connection_is_rejected_whole() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        t.disconnect(conn);
        let batch = vec![Capsule::flush(0, a.0).encode_sg()];
        assert_eq!(
            t.handle_wire_sg_batch(conn, batch),
            Err(TargetError::UnknownConnection)
        );
    }

    #[test]
    fn namespace_access_control_enforced() {
        let (t, a, b) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        // Writing the *other* job's namespace is refused.
        let w = Capsule::write(1, b.0, 0, Bytes::from_static(b"evil"));
        let resp = exchange(&t, conn, &w).unwrap();
        assert_eq!(resp.status, Status::InvalidNamespace);
        // And the bytes were never written.
        let conn_b = t.connect("nqn.host1", &[b]);
        let resp = exchange(&t, conn_b, &Capsule::read(2, b.0, 0, 4)).unwrap();
        assert_eq!(&resp.data[..], &[0, 0, 0, 0]);
    }

    #[test]
    fn unknown_connection_rejected() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        t.disconnect(conn);
        let w = Capsule::flush(0, a.0);
        assert_eq!(exchange(&t, conn, &w), Err(TargetError::UnknownConnection));
    }

    #[test]
    fn out_of_range_io_gets_error_status() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let w = Capsule::write(1, a.0, (256 << 10) - 2, Bytes::from_static(b"xxxx"));
        assert_eq!(
            exchange(&t, conn, &w).unwrap().status,
            Status::LbaOutOfRange
        );
    }

    #[test]
    fn malformed_wire_bytes_rejected() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let wire = SgList::from(Bytes::from_static(&[0xde, 0xad]));
        assert!(matches!(
            t.handle_wire_sg_batch(conn, vec![wire]),
            Err(TargetError::Malformed(_))
        ));
    }

    #[test]
    fn flush_persists_volatile_data() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let w = Capsule::write(1, a.0, 0, Bytes::from(vec![5u8; 512]));
        exchange(&t, conn, &w).unwrap();
        let f = Capsule::flush(2, a.0);
        assert_eq!(exchange(&t, conn, &f).unwrap().status, Status::Success);
        assert_eq!(t.device().volatile_bytes(), 0);
    }

    #[test]
    fn flush_is_namespace_scoped() {
        let (t, a, b) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a, b]);
        let wa = Capsule::write(1, a.0, 0, Bytes::from(vec![1u8; 256]));
        let wb = Capsule::write(2, b.0, 0, Bytes::from(vec![2u8; 256]));
        exchange(&t, conn, &wa).unwrap();
        exchange(&t, conn, &wb).unwrap();
        exchange(&t, conn, &Capsule::flush(3, a.0)).unwrap();
        // Only namespace a's shard drained; b's write is still volatile.
        assert_eq!(t.device().volatile_bytes(), 256);
    }

    #[test]
    fn corrupt_wire_capsule_gets_data_corrupt_completion() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let w = Capsule::write(7, a.0, 0, Bytes::from(vec![3u8; 256]));
        // Corrupt the payload segment in flight.
        let mut segs = w.encode_sg().into_segments();
        let mut payload = segs.pop().unwrap().to_vec();
        payload[255] ^= 0xFF;
        segs.push(Bytes::from(payload));
        let resp = exchange_wire(&t, conn, SgList::from(segs)).unwrap();
        assert_eq!(resp.status, Status::DataCorrupt);
        assert_eq!(resp.cid, 7, "CID still echoed so the initiator can retry");
        assert_eq!(
            t.device()
                .telemetry()
                .snapshot()
                .counter("fabric.crc_errors"),
            1
        );
        // Nothing was written.
        let resp = exchange(&t, conn, &Capsule::read(8, a.0, 0, 256)).unwrap();
        assert_eq!(&resp.data[..], &vec![0u8; 256][..]);
    }

    #[test]
    fn duplicate_write_is_replayed_not_reexecuted() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        let w = Capsule::write(5, a.0, 0, Bytes::from(vec![9u8; 128]));
        assert_eq!(exchange(&t, conn, &w).unwrap().status, Status::Success);
        let (writes_before, ..) = t.device().ns_io_counters(a);
        // Same CID again: answered from the replay cache.
        assert_eq!(exchange(&t, conn, &w).unwrap().status, Status::Success);
        let (writes_after, ..) = t.device().ns_io_counters(a);
        assert_eq!(writes_after, writes_before, "no second device write");
        assert_eq!(
            t.device()
                .telemetry()
                .snapshot()
                .counter("fabric.duplicates_suppressed"),
            1
        );
    }

    #[test]
    fn failed_write_is_not_cached_for_replay() {
        let (t, a, _) = target_with_two_ns();
        let conn = t.connect("nqn.host0", &[a]);
        // Out-of-range write fails...
        let bad = Capsule::write(3, a.0, (256 << 10) - 2, Bytes::from_static(b"xxxx"));
        assert_eq!(
            exchange(&t, conn, &bad).unwrap().status,
            Status::LbaOutOfRange
        );
        // ...and a later command reusing that CID executes for real.
        let good = Capsule::write(3, a.0, 0, Bytes::from_static(b"good"));
        assert_eq!(exchange(&t, conn, &good).unwrap().status, Status::Success);
        let resp = exchange(&t, conn, &Capsule::read(4, a.0, 0, 4)).unwrap();
        assert_eq!(&resp.data[..], b"good");
    }

    #[test]
    fn connections_on_different_namespaces_do_not_share_a_shard() {
        let (t, a, b) = target_with_two_ns();
        let conn_a = t.connect("nqn.host0", &[a]);
        let conn_b = t.connect("nqn.host1", &[b]);
        std::thread::scope(|s| {
            for (conn, ns, fill) in [(conn_a, a, 0xAAu8), (conn_b, b, 0xBBu8)] {
                let t = &t;
                s.spawn(move || {
                    for i in 0..32u64 {
                        let w =
                            Capsule::write(i as u16, ns.0, i * 1024, Bytes::from(vec![fill; 1024]));
                        assert_eq!(exchange(t, conn, &w).unwrap().status, Status::Success);
                    }
                });
            }
        });
        let resp = exchange(&t, conn_a, &Capsule::read(99, a.0, 31 * 1024, 1024)).unwrap();
        assert_eq!(&resp.data[..], &vec![0xAAu8; 1024][..]);
    }
}
