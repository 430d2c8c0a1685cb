//! Functional NVMf initiator — the SPDK client embedded in each runtime.
//!
//! "SPDK NVMf clients, embedded within the NVMe-CR runtime, are responsible
//! for communication with server daemons" (§III-D). An [`Initiator`] opens
//! [`NvmfConnection`]s to targets; each connection is bound to one namespace
//! and moves real bytes through the capsule codec, exactly as the runtime's
//! data plane will use it.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use chaos::{ChaosHandle, FaultAction, Site};
use telemetry::{Counter, FlightKind, FlightRecorder, Histogram, Telemetry};

use ssd::NsId;

use crate::capsule::{Capsule, CapsuleError, Completion, Status};
use crate::config::FabricConfig;
use crate::qp::{CompletionOp, QpError, QueuePair};
use crate::sg::SgList;
use crate::target::{ConnId, NvmfTarget, TargetError};

/// Resolved telemetry handles for the initiator hot path, shared by every
/// connection an [`Initiator`] opens.
struct FabricMetrics {
    /// Full QP submit→complete latency of one capsule exchange.
    submit_ns: Arc<Histogram>,
    /// Command-capsule scatter-gather encode latency.
    capsule_encode_ns: Arc<Histogram>,
    /// Response-capsule decode latency.
    capsule_decode_ns: Arc<Histogram>,
    /// Capsule exchanges issued (writes, reads, flushes).
    io_ops: Arc<Counter>,
    /// Payload bytes moved over connections.
    io_bytes: Arc<Counter>,
    /// Payload bytes memcpy'd on the initiator side. The `Bytes`-based
    /// paths add nothing here; the slice-based convenience paths add one
    /// staging copy each.
    bytes_copied: Arc<Counter>,
    /// Command attempts beyond the first (retries after transient faults).
    retries: Arc<Counter>,
    /// Commands whose capsule or response never arrived within the modeled
    /// command timeout.
    timeouts: Arc<Counter>,
    /// Response capsules rejected at the initiator for a CRC mismatch.
    crc_errors: Arc<Counter>,
    /// Connection re-establishments after a reset.
    reconnects: Arc<Counter>,
    /// Modeled backoff nanoseconds charged before retries (not slept).
    backoff_ns: Arc<Counter>,
    /// Wall-clock latency of one reconnect (teardown + re-admission + QP).
    reconnect_ns: Arc<Histogram>,
    /// Black-box flight recorder: every command lifecycle event (submit,
    /// completion, retry, timeout, CRC reject, exhaustion, reconnect) is
    /// stamped with (rank, epoch, CID, retry-generation) so a dump
    /// reconstructs the causal timeline of any one command.
    flight: Arc<FlightRecorder>,
}

impl FabricMetrics {
    fn new(t: &Telemetry) -> Self {
        FabricMetrics {
            submit_ns: t.histogram("fabric.submit_ns"),
            capsule_encode_ns: t.histogram("fabric.capsule_encode_ns"),
            capsule_decode_ns: t.histogram("fabric.capsule_decode_ns"),
            io_ops: t.counter("fabric.io_ops"),
            io_bytes: t.counter("fabric.io_bytes"),
            bytes_copied: t.counter("fabric.bytes_copied"),
            retries: t.counter("fabric.retries"),
            timeouts: t.counter("fabric.timeouts"),
            crc_errors: t.counter("fabric.crc_errors"),
            reconnects: t.counter("fabric.reconnects"),
            backoff_ns: t.counter("fabric.backoff_ns"),
            reconnect_ns: t.histogram("fabric.reconnect_ns"),
            flight: t.recorder(),
        }
    }
}

/// Initiator-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitiatorError {
    /// The target returned a non-success status.
    Remote(Status),
    /// Transport-level failure.
    Transport(String),
    /// All retry attempts were consumed without a successful completion.
    Exhausted { attempts: u32, last: String },
}

impl fmt::Display for InitiatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitiatorError::Remote(s) => write!(f, "remote error: {s:?}"),
            InitiatorError::Transport(e) => write!(f, "transport error: {e}"),
            InitiatorError::Exhausted { attempts, last } => {
                write!(f, "command failed after {attempts} attempts (last: {last})")
            }
        }
    }
}

impl std::error::Error for InitiatorError {}

impl From<TargetError> for InitiatorError {
    fn from(e: TargetError) -> Self {
        InitiatorError::Transport(e.to_string())
    }
}

/// Transient outcome of one wire attempt of a command, classified for the
/// per-command retry bookkeeping in [`NvmfConnection::submit_window`].
/// Fatal failures short-circuit the window as `InitiatorError` directly.
enum AttemptError {
    /// The command or its response vanished; the modeled command timeout
    /// fired. Retry.
    Lost(&'static str),
    /// The target answered with a transient status (`Busy`, `DataCorrupt`)
    /// or the response failed CRC locally. Retry.
    Transient(Status),
    /// The connection dropped mid-command. Reconnect, then retry.
    Reset,
}

impl AttemptError {
    fn describe(&self) -> String {
        match self {
            AttemptError::Lost(what) => (*what).to_string(),
            AttemptError::Transient(s) => format!("transient remote status {s:?}"),
            AttemptError::Reset => "connection reset".to_string(),
        }
    }
}

/// One command's slot in the pipelined submission window: its capsule (the
/// CID is the matching key), how many attempts it has consumed, whether a
/// posted copy is currently awaiting a response, and its completion once
/// retired. Slots are kept in submission order so the window's results come
/// back in the order the caller issued them, even though completions are
/// matched out of order.
struct Pending {
    capsule: Capsule,
    attempts: u32,
    in_flight: bool,
    done: Option<Completion>,
    started: Instant,
    timed: bool,
}

/// What happened when the window tried to put one command on the wire.
enum PostOutcome {
    /// On the wire; a response will (eventually) match by CID.
    Posted,
    /// Injected drop: the capsule vanished before the wire. The modeled
    /// command timeout fires immediately (no response can exist).
    LostTx,
    /// The connection died under this command; every in-flight command on
    /// the old queue pair is collateral.
    Reset,
    /// The send queue is full: stop posting and drain completions first.
    Backpressure,
}

/// Flip one bit in the last byte of the last wire segment — the injected
/// stand-in for in-flight corruption. Only runs on the fault path.
fn corrupt_sg(sg: SgList) -> SgList {
    let mut segs = sg.into_segments();
    if let Some(last) = segs.last_mut() {
        if !last.is_empty() {
            let mut v = last.to_vec();
            let i = v.len() - 1;
            v[i] ^= 0x01;
            *last = Bytes::from(v);
        }
    }
    SgList::from(segs)
}

/// The client-side NVMf endpoint of one process.
pub struct Initiator {
    host_nqn: String,
    metrics: Arc<FabricMetrics>,
    chaos: ChaosHandle,
    config: FabricConfig,
}

impl Initiator {
    /// An initiator identifying as `host_nqn`, reporting into the
    /// process-global telemetry registry.
    pub fn new(host_nqn: impl Into<String>) -> Self {
        Self::with_telemetry(host_nqn, Telemetry::default())
    }

    /// An initiator reporting `fabric.*` metrics into `t`.
    pub fn with_telemetry(host_nqn: impl Into<String>, t: Telemetry) -> Self {
        Self::with_config(host_nqn, t, ChaosHandle::default(), FabricConfig::default())
    }

    /// Full constructor: telemetry registry, fault-injection hook, and
    /// data-plane tuning (submission window depth, poll batches, retry
    /// policy).
    pub fn with_config(
        host_nqn: impl Into<String>,
        t: Telemetry,
        chaos: ChaosHandle,
        config: FabricConfig,
    ) -> Self {
        Initiator {
            host_nqn: host_nqn.into(),
            metrics: Arc::new(FabricMetrics::new(&t)),
            chaos,
            config,
        }
    }

    /// This host's NQN.
    pub fn host_nqn(&self) -> &str {
        &self.host_nqn
    }

    /// Connect to `target`, binding the connection to namespace `ns`.
    /// The target admits the connection with access to exactly that
    /// namespace, and an RDMA queue pair is established for the capsule
    /// traffic. Queue depths are sized from the submission window — at
    /// least the SPDK-default ballpark of 128, and 4× `queue_depth` when
    /// the window is deeper (each windowed command can briefly hold a send
    /// slot plus a duplicate under fault injection).
    pub fn connect(&self, target: Arc<NvmfTarget>, ns: NsId) -> NvmfConnection {
        let conn = target.connect(&self.host_nqn, &[ns]);
        let qp_depth = qp_depth_for(&self.config);
        let (qp_initiator, qp_target) = QueuePair::connected_pair(qp_depth, qp_depth);
        NvmfConnection {
            target,
            conn,
            ns,
            host_nqn: self.host_nqn.clone(),
            qp_initiator,
            qp_target,
            next_cid: 0,
            next_wr: 0,
            ios: 0,
            bytes: 0,
            metrics: Arc::clone(&self.metrics),
            chaos: self.chaos.clone(),
            config: self.config.clone(),
        }
    }
}

/// QP send/receive depth backing a submission window of `queue_depth`.
fn qp_depth_for(config: &FabricConfig) -> usize {
    config.queue_depth.saturating_mul(4).max(128)
}

/// An established initiator→target connection bound to one namespace.
/// Capsules travel over a real [`QueuePair`]; the target daemon's polling
/// loop runs inline when a command is submitted (the functional stand-in
/// for the SPDK reactor).
pub struct NvmfConnection {
    target: Arc<NvmfTarget>,
    conn: ConnId,
    ns: NsId,
    host_nqn: String,
    qp_initiator: QueuePair,
    qp_target: QueuePair,
    next_cid: u16,
    next_wr: u64,
    ios: u64,
    bytes: u64,
    metrics: Arc<FabricMetrics>,
    chaos: ChaosHandle,
    config: FabricConfig,
}

impl NvmfConnection {
    fn cid(&mut self) -> u16 {
        let c = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        c
    }

    fn wr(&mut self) -> u64 {
        let w = self.next_wr;
        self.next_wr += 1;
        w
    }

    /// Submit one command through a single-slot window. All retry,
    /// reconnect, and replay-cache semantics live in
    /// [`NvmfConnection::submit_window`]; a lone command is simply the
    /// degenerate QD=1 case.
    fn submit(&mut self, capsule: Capsule) -> Result<Completion, InitiatorError> {
        self.submit_window(vec![capsule])
            .map(|mut v| v.pop().expect("one completion per capsule"))
    }

    /// Submit a batch of commands through the pipelined window.
    ///
    /// Up to `queue_depth` command capsules are posted before any polling;
    /// in-flight commands are tracked by CID in a pending table and their
    /// completions matched **out of order**, but results are returned in
    /// submission order. Each command individually rides the bounded
    /// exponential-backoff retry machinery: transient failures — lost
    /// capsules (modeled timeout), CRC-corrupt capsules in either
    /// direction, `Busy` backpressure, connection resets — are retried up
    /// to `retry.max_retries` times, reusing the **same CID** so the
    /// target's replay cache keeps re-execution idempotent. Resets trigger
    /// a full reconnect (re-admission + fresh queue pair) first. Backoff is
    /// modeled time, charged to `fabric.backoff_ns`. A fatal failure on
    /// any command fails the whole window.
    fn submit_window(&mut self, capsules: Vec<Capsule>) -> Result<Vec<Completion>, InitiatorError> {
        let _span = telemetry::span("fabric", "submit")
            .arg("ns", self.ns.0 as u64)
            .arg("window", capsules.len() as u64);
        let mut pending = self.begin_window(capsules);
        let result = self.drive_window(&mut pending);
        self.observe_window(&mut pending);
        result?;
        Ok(pending
            .into_iter()
            .map(|p| p.done.expect("window drained"))
            .collect())
    }

    /// Meter a batch of capsules into the window's pending table. Paired
    /// with [`NvmfConnection::window_pass`] /
    /// [`NvmfConnection::observe_window`] by callers that interleave this
    /// window with another connection's (mirrored writes).
    fn begin_window(&mut self, capsules: Vec<Capsule>) -> Vec<Pending> {
        self.metrics.io_ops.add(capsules.len() as u64);
        capsules
            .into_iter()
            .map(|capsule| Pending {
                capsule,
                attempts: 0,
                in_flight: false,
                done: None,
                started: Instant::now(),
                timed: false,
            })
            .collect()
    }

    /// Exactly one submit_ns observation per command that entered the
    /// window, success or failure — `submit_ns.count` stays equal to
    /// `io_ops` so percentiles are per-command latencies.
    fn observe_window(&self, pending: &mut [Pending]) {
        for p in pending.iter_mut().filter(|p| !p.timed) {
            Self::observe_latency(&self.metrics, p);
        }
    }

    fn observe_latency(metrics: &FabricMetrics, p: &mut Pending) {
        p.timed = true;
        metrics
            .submit_ns
            .record(p.started.elapsed().as_nanos() as u64);
    }

    /// Run the window until every pending command has retired.
    fn drive_window(&mut self, pending: &mut [Pending]) -> Result<(), InitiatorError> {
        while pending.iter().any(|p| p.done.is_none()) {
            self.window_pass(pending)?;
        }
        Ok(())
    }

    /// One pass of the submission window. Each pass makes three sweeps —
    /// post, target-daemon batch iteration, CQ drain — followed by a
    /// timeout sweep for commands whose responses are provably gone. No
    /// blocking waits anywhere (Principle 1). A pass retires at least one
    /// attempt, so [`NvmfConnection::drive_window`] loops it to completion;
    /// [`write_mirrored_bytes`] instead alternates passes on two
    /// connections so a replicated write keeps both windows full
    /// concurrently.
    fn window_pass(&mut self, pending: &mut [Pending]) -> Result<(), InitiatorError> {
        let qd = self.config.queue_depth.max(1);
        {
            // Phase 1: fill the window — post command capsules until
            // `queue_depth` are in flight or the send queue pushes back.
            let mut in_flight = pending.iter().filter(|p| p.in_flight).count();
            'post: for i in 0..pending.len() {
                if in_flight >= qd {
                    break;
                }
                if pending[i].done.is_some() || pending[i].in_flight {
                    continue;
                }
                match self.post_one(&pending[i].capsule)? {
                    PostOutcome::Posted => {
                        let p = &mut pending[i];
                        self.metrics.flight.record(
                            FlightKind::Submit,
                            p.capsule.cid as u64,
                            p.attempts as u64,
                            p.capsule.len,
                            p.capsule.offset,
                        );
                        p.in_flight = true;
                        in_flight += 1;
                    }
                    PostOutcome::LostTx => {
                        self.metrics.timeouts.inc();
                        self.metrics.flight.record(
                            FlightKind::Timeout,
                            pending[i].capsule.cid as u64,
                            pending[i].attempts as u64,
                            0,
                            0,
                        );
                        self.note_failure(
                            &mut pending[i],
                            &AttemptError::Lost("command capsule dropped"),
                        )?;
                    }
                    PostOutcome::Reset => {
                        // Charge the command that saw the reset one attempt
                        // and reconnect. Every other in-flight command died
                        // with the old queue pair through no fault of its
                        // own: it is re-posted on the fresh QP without
                        // consuming one of its attempts (the replay cache /
                        // idempotent re-execution absorbs any duplicate
                        // effect of a command that had already executed).
                        self.note_failure(&mut pending[i], &AttemptError::Reset)?;
                        self.reconnect();
                        for p in pending.iter_mut() {
                            p.in_flight = false;
                        }
                        break 'post;
                    }
                    PostOutcome::Backpressure => break 'post,
                }
            }
            // Phase 2: batched target-daemon iterations — decode, execute,
            // and respond for a whole CQ batch per poll, until the target's
            // CQ is dry. With an injected duplicate both deliveries execute
            // here and the replay cache answers the second from memory.
            loop {
                let polled = self.qp_target.poll_cq(self.config.target_poll_batch);
                if polled.is_empty() {
                    break;
                }
                let cmds: Vec<SgList> = polled
                    .into_iter()
                    .filter(|c| c.opcode == CompletionOp::Recv)
                    .filter_map(|c| c.payload)
                    .collect();
                if cmds.is_empty() {
                    continue; // the poll drained only send completions
                }
                let resps = self
                    .target
                    .handle_wire_sg_batch(self.conn, cmds)
                    .map_err(InitiatorError::from)?;
                for resp in resps {
                    let send = self.wr();
                    self.qp_target
                        .post_send(send, resp)
                        .map_err(|e| InitiatorError::Transport(e.to_string()))?;
                }
            }
            // Phase 3: drain our own CQ, matching completions to pending
            // commands by CID — arrival order does not matter.
            loop {
                let comps = self.qp_initiator.poll_cq(self.config.initiator_poll_batch);
                if comps.is_empty() {
                    break;
                }
                for c in comps {
                    if c.opcode != CompletionOp::Recv {
                        continue;
                    }
                    let Some(mut resp_wire) = c.payload else {
                        continue;
                    };
                    // Site 3: the response capsule in flight.
                    match self.chaos.fire(Site::CapsuleRx) {
                        Some(FaultAction::DropCapsule) => continue,
                        Some(FaultAction::CorruptPayload) => resp_wire = corrupt_sg(resp_wire),
                        _ => {}
                    }
                    let decoded = {
                        let _t = self.metrics.capsule_decode_ns.time();
                        Completion::decode_sg(resp_wire)
                    };
                    match decoded {
                        Ok(comp) => {
                            let Some(p) = pending.iter_mut().find(|p| {
                                p.in_flight && p.done.is_none() && p.capsule.cid == comp.cid
                            }) else {
                                continue; // stale response from a faulted attempt
                            };
                            p.in_flight = false;
                            match comp.status {
                                Status::Success => {
                                    p.done = Some(comp);
                                    Self::observe_latency(&self.metrics, p);
                                    self.metrics.flight.record(
                                        FlightKind::Complete,
                                        p.capsule.cid as u64,
                                        p.attempts as u64,
                                        p.started.elapsed().as_nanos() as u64,
                                        0,
                                    );
                                }
                                s if s.is_retryable() => {
                                    self.note_failure(p, &AttemptError::Transient(s))?;
                                }
                                s => return Err(InitiatorError::Remote(s)),
                            }
                        }
                        Err(CapsuleError::CrcMismatch { cid, .. }) => {
                            // The response header still carries the CID, so
                            // the mangled response charges its own command.
                            self.metrics.crc_errors.inc();
                            self.metrics
                                .flight
                                .record(FlightKind::CrcError, cid as u64, 0, 0, 0);
                            self.metrics.flight.trip(FlightKind::CrcError, cid as u64);
                            if let Some(p) = pending
                                .iter_mut()
                                .find(|p| p.in_flight && p.done.is_none() && p.capsule.cid == cid)
                            {
                                p.in_flight = false;
                                self.note_failure(
                                    p,
                                    &AttemptError::Transient(Status::DataCorrupt),
                                )?;
                            }
                        }
                        Err(e) => return Err(InitiatorError::Transport(e.to_string())),
                    }
                }
            }
            // Phase 4: both CQs are now dry, so a command still marked
            // in-flight can never receive a response — its response was
            // dropped on the wire. The modeled command timeout fires and
            // the command re-posts on the next pass.
            for p in pending.iter_mut().filter(|p| p.in_flight) {
                p.in_flight = false;
                self.metrics.timeouts.inc();
                self.metrics.flight.record(
                    FlightKind::Timeout,
                    p.capsule.cid as u64,
                    p.attempts as u64,
                    1,
                    0,
                );
                self.note_failure(p, &AttemptError::Lost("response capsule lost"))?;
            }
        }
        Ok(())
    }

    /// Per-command retry bookkeeping, identical to the lock-step loop's:
    /// attempt `max_retries + 1` failures and the command is exhausted;
    /// otherwise charge one retry and its modeled backoff.
    fn note_failure(&self, p: &mut Pending, e: &AttemptError) -> Result<(), InitiatorError> {
        let cid = p.capsule.cid as u64;
        if p.attempts >= self.config.retry.max_retries {
            self.metrics.flight.record(
                FlightKind::RetryExhausted,
                cid,
                p.attempts as u64 + 1,
                0,
                0,
            );
            self.metrics.flight.trip(FlightKind::RetryExhausted, cid);
            return Err(InitiatorError::Exhausted {
                attempts: p.attempts + 1,
                last: e.describe(),
            });
        }
        p.attempts += 1;
        self.metrics.retries.inc();
        let backoff = self.config.retry.backoff_ns(p.attempts);
        self.metrics.backoff_ns.add(backoff);
        self.metrics
            .flight
            .record(FlightKind::Retry, cid, p.attempts as u64, backoff, 0);
        Ok(())
    }

    /// Put one command on the wire: post receive buffers on both ends,
    /// then send the command capsule. Chaos hooks sit at the two fault
    /// sites a post can hit: the connection and the command capsule in
    /// flight. Disarmed, each hook is one relaxed atomic load.
    fn post_one(&mut self, capsule: &Capsule) -> Result<PostOutcome, InitiatorError> {
        // Site 1: the connection dies under this command.
        if let Some(FaultAction::ResetConnection) = self.chaos.fire(Site::ConnReset) {
            self.qp_initiator.disconnect();
            return Ok(PostOutcome::Reset);
        }
        // The capsule travels as scatter-gather segments: header in one
        // SGE, write payload (the caller's refcounted buffer) in another.
        // Nothing on the zero-fault wire path copies payload bytes.
        let mut wire = {
            let _t = self.metrics.capsule_encode_ns.time();
            capsule.encode_sg()
        };
        // Site 2: the command capsule in flight.
        let mut copies = 1usize;
        match self.chaos.fire(Site::CapsuleTx) {
            Some(FaultAction::DropCapsule) => {
                // Vanished on the wire: the initiator only learns via its
                // modeled command timeout.
                return Ok(PostOutcome::LostTx);
            }
            Some(FaultAction::DuplicateCapsule) => copies = 2,
            Some(FaultAction::CorruptPayload) => wire = corrupt_sg(wire),
            _ => {}
        }
        // Check send-queue room up front so a partially posted command
        // never leaves dangling receive buffers behind.
        if self.qp_initiator.send_slots_free() < copies {
            return Ok(PostOutcome::Backpressure);
        }
        for _ in 0..copies {
            let trecv = self.wr();
            self.qp_target.post_recv(trecv);
            let irecv = self.wr();
            self.qp_initiator.post_recv(irecv);
        }
        for _ in 0..copies {
            let send = self.wr();
            match self.qp_initiator.post_send(send, wire.clone()) {
                Ok(()) => {}
                Err(QpError::NotConnected) => return Ok(PostOutcome::Reset),
                Err(QpError::SendQueueFull) => return Ok(PostOutcome::Backpressure),
                Err(e) => return Err(InitiatorError::Transport(e.to_string())),
            }
        }
        Ok(PostOutcome::Posted)
    }

    /// Tear down and re-establish the connection: re-admission at the
    /// target (fresh grant for the same namespace) and a fresh queue pair.
    /// Latency is observed on `fabric.reconnect_ns`.
    fn reconnect(&mut self) {
        let _t = self.metrics.reconnect_ns.time();
        self.metrics.reconnects.inc();
        self.metrics
            .flight
            .record(FlightKind::Reconnect, 0, 0, self.ns.0 as u64, 0);
        self.target.disconnect(self.conn);
        self.conn = self.target.connect(&self.host_nqn, &[self.ns]);
        let qp_depth = qp_depth_for(&self.config);
        let (qi, qt) = QueuePair::connected_pair(qp_depth, qp_depth);
        self.qp_initiator = qi;
        self.qp_target = qt;
    }

    /// NVMf keep-alive: a Connect (admin) capsule over the live queue
    /// pair. Rides the same retry/reconnect machinery as data commands, so
    /// a dead connection heals here instead of on the next data IO.
    pub fn keep_alive(&mut self) -> Result<(), InitiatorError> {
        let cid = self.cid();
        self.submit(Capsule::connect(cid, self.ns.0)).map(|_| ())
    }

    /// The namespace this connection is bound to.
    pub fn namespace(&self) -> NsId {
        self.ns
    }

    /// Write an owned payload at namespace-relative `offset` — the
    /// zero-copy path. The same refcounted buffer crosses initiator →
    /// wire → target → device RAM; its only copy is the device's
    /// drain-to-media.
    pub fn write_bytes(&mut self, offset: u64, data: Bytes) -> Result<(), InitiatorError> {
        let cid = self.cid();
        self.ios += 1;
        self.bytes += data.len() as u64;
        self.metrics.io_bytes.add(data.len() as u64);
        self.submit(Capsule::write(cid, self.ns.0, offset, data))
            .map(|_| ())
    }

    /// Write `data` at namespace-relative `offset` (stages one copy of
    /// the borrowed slice; prefer [`NvmfConnection::write_bytes`]).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), InitiatorError> {
        self.metrics.bytes_copied.add(data.len() as u64);
        self.write_bytes(offset, Bytes::copy_from_slice(data))
    }

    /// Read `len` bytes at namespace-relative `offset` as an owned
    /// payload — the zero-copy path: the returned buffer is the target's
    /// read buffer, delivered by refcount.
    pub fn read_bytes(&mut self, offset: u64, len: usize) -> Result<Bytes, InitiatorError> {
        let cid = self.cid();
        let c = Capsule::read(cid, self.ns.0, offset, len as u64);
        self.ios += 1;
        self.bytes += len as u64;
        self.metrics.io_bytes.add(len as u64);
        self.submit(c).map(|r| r.data)
    }

    /// Read into a caller-provided buffer (one copy, wire → `buf`).
    pub fn read_into(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), InitiatorError> {
        let data = self.read_bytes(offset, buf.len())?;
        buf.copy_from_slice(&data);
        self.metrics.bytes_copied.add(buf.len() as u64);
        Ok(())
    }

    /// Read `len` bytes at namespace-relative `offset` into a fresh
    /// vector (one copy; prefer [`NvmfConnection::read_bytes`]).
    pub fn read(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, InitiatorError> {
        let data = self.read_bytes(offset, len)?;
        self.metrics.bytes_copied.add(data.len() as u64);
        Ok(data.to_vec())
    }

    /// Write a batch of `(offset, payload)` extents through the pipelined
    /// submission window — up to `queue_depth` commands in flight at once.
    /// The zero-copy path: each payload crosses by refcount. Extents
    /// execute in submission order on the target's per-connection queue.
    pub fn write_vectored_bytes(
        &mut self,
        writes: Vec<(u64, Bytes)>,
    ) -> Result<(), InitiatorError> {
        if writes.is_empty() {
            return Ok(());
        }
        let mut capsules = Vec::with_capacity(writes.len());
        for (offset, data) in writes {
            let cid = self.cid();
            self.ios += 1;
            self.bytes += data.len() as u64;
            self.metrics.io_bytes.add(data.len() as u64);
            capsules.push(Capsule::write(cid, self.ns.0, offset, data));
        }
        self.submit_window(capsules).map(|_| ())
    }

    /// Vectored write of `(offset, payload, crc32(payload))` extents whose
    /// checksums the caller already computed — capsule encoding reuses them
    /// (see [`Capsule::write_precrc`]) instead of re-scanning each payload.
    /// The replication path checksums every extent once for its manifest
    /// and rides this for all subsequent encodes.
    pub fn write_vectored_bytes_precrc(
        &mut self,
        writes: Vec<(u64, Bytes, u32)>,
    ) -> Result<(), InitiatorError> {
        if writes.is_empty() {
            return Ok(());
        }
        let capsules = self.precrc_capsules(writes);
        self.submit_window(capsules).map(|_| ())
    }

    /// Meter and build write capsules carrying caller-computed payload
    /// checksums.
    fn precrc_capsules(&mut self, writes: Vec<(u64, Bytes, u32)>) -> Vec<Capsule> {
        let mut capsules = Vec::with_capacity(writes.len());
        for (offset, data, crc) in writes {
            let cid = self.cid();
            self.ios += 1;
            self.bytes += data.len() as u64;
            self.metrics.io_bytes.add(data.len() as u64);
            capsules.push(Capsule::write_precrc(cid, self.ns.0, offset, data, crc));
        }
        capsules
    }

    /// Vectored write of borrowed slices (stages one copy per extent;
    /// prefer [`NvmfConnection::write_vectored_bytes`]).
    pub fn write_vectored(&mut self, writes: &[(u64, &[u8])]) -> Result<(), InitiatorError> {
        let total: u64 = writes.iter().map(|(_, d)| d.len() as u64).sum();
        self.metrics.bytes_copied.add(total);
        self.write_vectored_bytes(
            writes
                .iter()
                .map(|&(o, d)| (o, Bytes::copy_from_slice(d)))
                .collect(),
        )
    }

    /// Read a batch of `(offset, len)` extents through the pipelined
    /// window, returning owned buffers in submission order — the zero-copy
    /// path: each buffer is the target's read buffer, delivered by
    /// refcount.
    pub fn read_vectored_bytes(
        &mut self,
        reads: &[(u64, usize)],
    ) -> Result<Vec<Bytes>, InitiatorError> {
        if reads.is_empty() {
            return Ok(Vec::new());
        }
        let mut capsules = Vec::with_capacity(reads.len());
        for &(offset, len) in reads {
            let cid = self.cid();
            self.ios += 1;
            self.bytes += len as u64;
            self.metrics.io_bytes.add(len as u64);
            capsules.push(Capsule::read(cid, self.ns.0, offset, len as u64));
        }
        self.submit_window(capsules)
            .map(|comps| comps.into_iter().map(|c| c.data).collect())
    }

    /// Vectored read into caller-provided buffers (one copy per extent,
    /// wire → buffer).
    pub fn read_vectored_into(
        &mut self,
        reads: &mut [(u64, &mut [u8])],
    ) -> Result<(), InitiatorError> {
        let spec: Vec<(u64, usize)> = reads.iter().map(|(o, b)| (*o, b.len())).collect();
        let datas = self.read_vectored_bytes(&spec)?;
        let mut copied = 0u64;
        for ((_, buf), data) in reads.iter_mut().zip(datas) {
            buf.copy_from_slice(&data);
            copied += data.len() as u64;
        }
        self.metrics.bytes_copied.add(copied);
        Ok(())
    }

    /// The configured submission-window depth of this connection.
    pub fn queue_depth(&self) -> usize {
        self.config.queue_depth
    }

    /// Flush the device write buffer.
    pub fn flush(&mut self) -> Result<(), InitiatorError> {
        let cid = self.cid();
        let c = Capsule::flush(cid, self.ns.0);
        self.submit(c).map(|_| ())
    }

    /// Lifetime `(ios, bytes)` issued on this connection.
    pub fn io_counters(&self) -> (u64, u64) {
        (self.ios, self.bytes)
    }

    /// Work requests posted on the initiator-side queue pair
    /// `(sends, recvs)` — evidence the wire discipline is in use.
    pub fn qp_counters(&self) -> (u64, u64) {
        self.qp_initiator.counters()
    }

    /// Open a pre-CRC'd write window without driving it: the capsules are
    /// metered into the pending table and nothing is posted until the
    /// first [`step_window`](NvmfConnection::step_window) call.
    ///
    /// This is the seam the reactor runtime multiplexes on — one thread
    /// holds many connections' windows and steps each as its rank's state
    /// machine is scheduled, instead of parking inside the blocking
    /// [`write_vectored_bytes_precrc`] loop. The blocking paths and
    /// [`write_mirrored_bytes`] are themselves expressed over this API, so
    /// retry, reconnect, and replay-cache semantics are identical by
    /// construction.
    ///
    /// [`write_vectored_bytes_precrc`]: NvmfConnection::write_vectored_bytes_precrc
    pub fn begin_write_window(&mut self, writes: Vec<(u64, Bytes, u32)>) -> Window {
        let capsules = self.precrc_capsules(writes);
        Window {
            pending: self.begin_window(capsules),
        }
    }

    /// One non-blocking pass over an open window: post up to `queue_depth`
    /// capsules, run the target daemon batch, drain the CQ, sweep
    /// timeouts. Returns `Ok(true)` once every command has retired. A
    /// fatal error poisons the window; the caller must still
    /// [`finish_window`](NvmfConnection::finish_window) it.
    pub fn step_window(&mut self, window: &mut Window) -> Result<bool, InitiatorError> {
        if !window.is_done() {
            self.window_pass(&mut window.pending)?;
        }
        Ok(window.is_done())
    }

    /// Close out a window: record exactly one per-command latency
    /// observation for every command that entered it, success or failure.
    pub fn finish_window(&mut self, window: &mut Window) {
        self.observe_window(&mut window.pending);
    }
}

/// An in-flight submission window opened by
/// [`NvmfConnection::begin_write_window`]: the pending table of a batch of
/// commands, advanced one non-blocking pass at a time by
/// [`NvmfConnection::step_window`] on the connection that opened it.
pub struct Window {
    pending: Vec<Pending>,
}

impl Window {
    /// Whether every command in the window has retired.
    pub fn is_done(&self) -> bool {
        self.pending.iter().all(|p| p.done.is_some())
    }

    /// Commands in the window.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the window holds no commands.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// One extent of a replicated write: the same refcounted payload goes to
/// both copies, at (possibly) different namespace-relative offsets.
#[derive(Debug, Clone)]
pub struct MirroredWrite {
    /// Offset on the primary connection's namespace.
    pub primary_offset: u64,
    /// Offset on the replica connection's namespace.
    pub replica_offset: u64,
    /// The payload, shared by refcount between both capsules.
    pub data: Bytes,
    /// Finalized `crc32(data)`, computed once by the caller; both encodes
    /// and the epoch manifest reuse it.
    pub crc: u32,
}

/// Outcome of a mirrored window. The primary copy's failure is the
/// `Result` of [`write_mirrored_bytes`] itself; a replica-side failure
/// only degrades the mirror and is reported here for the caller to mark
/// the affected extents dirty.
#[derive(Debug)]
pub struct MirrorOutcome {
    /// `None`: both copies are durable. `Some(e)`: the primary copy is
    /// durable but the replica window failed with `e` — the mirror is
    /// degraded and must be re-synced before it can serve a restore.
    pub replica_error: Option<InitiatorError>,
}

/// Write a batch of extents to two connections through one shared
/// submission window: passes alternate between the primary and replica
/// windows, so both have up to `queue_depth` commands in flight
/// concurrently — replication overlaps with itself rather than running as
/// two serial rounds. Per-command retry/reconnect/replay-cache semantics
/// are unchanged: each connection's window applies its own policy.
///
/// Error asymmetry: a primary failure aborts the write (`Err`); a replica
/// failure degrades it (`Ok` with [`MirrorOutcome::replica_error`] set) —
/// checkpoint progress must not hinge on the redundant copy.
pub fn write_mirrored_bytes(
    primary: &mut NvmfConnection,
    replica: &mut NvmfConnection,
    writes: Vec<MirroredWrite>,
) -> Result<MirrorOutcome, InitiatorError> {
    if writes.is_empty() {
        return Ok(MirrorOutcome {
            replica_error: None,
        });
    }
    let _span = telemetry::span("fabric", "submit_mirrored")
        .arg("ns", primary.ns.0 as u64)
        .arg("window", writes.len() as u64);
    let mut primary_writes = Vec::with_capacity(writes.len());
    let mut replica_writes = Vec::with_capacity(writes.len());
    for w in writes {
        primary_writes.push((w.primary_offset, w.data.clone(), w.crc));
        replica_writes.push((w.replica_offset, w.data, w.crc));
    }
    let mut p_window = primary.begin_write_window(primary_writes);
    let mut r_window = replica.begin_write_window(replica_writes);
    let mut replica_error = None;
    while !p_window.is_done() || (replica_error.is_none() && !r_window.is_done()) {
        if !p_window.is_done() {
            if let Err(e) = primary.step_window(&mut p_window) {
                primary.finish_window(&mut p_window);
                replica.finish_window(&mut r_window);
                return Err(e);
            }
        }
        if replica_error.is_none() && !r_window.is_done() {
            if let Err(e) = replica.step_window(&mut r_window) {
                replica_error = Some(e);
            }
        }
    }
    primary.finish_window(&mut p_window);
    replica.finish_window(&mut r_window);
    Ok(MirrorOutcome { replica_error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd::{Ssd, SsdConfig};

    /// Target + namespaces on a *private* telemetry registry, so exact
    /// counter assertions don't race with concurrently running tests.
    fn setup_with_telemetry() -> (Arc<NvmfTarget>, NsId, NsId, Telemetry) {
        let t = Telemetry::new();
        let ssd = Ssd::with_telemetry(
            SsdConfig {
                capacity: 1 << 20,
                ..SsdConfig::default()
            },
            t.clone(),
        );
        let a = ssd.create_namespace(256 << 10).unwrap();
        let b = ssd.create_namespace(256 << 10).unwrap();
        (Arc::new(NvmfTarget::new(Arc::new(ssd))), a, b, t)
    }

    fn setup() -> (Arc<NvmfTarget>, NsId, NsId) {
        let (t, a, b, _) = setup_with_telemetry();
        (t, a, b)
    }

    #[test]
    fn end_to_end_write_read() {
        let (target, a, _) = setup();
        let init = Initiator::new("nqn.2026-07.io.nvmecr:rank0");
        let mut conn = init.connect(target, a);
        conn.write(512, b"restartable state").unwrap();
        assert_eq!(conn.read(512, 17).unwrap(), b"restartable state");
        assert_eq!(conn.io_counters().0, 2);
    }

    #[test]
    fn bytes_paths_are_copy_free_end_to_end() {
        let (target, a, _, t) = setup_with_telemetry();
        let init = Initiator::with_telemetry("nqn.host", t.clone());
        let mut conn = init.connect(Arc::clone(&target), a);
        let payload = Bytes::from(vec![0x3Cu8; 16 << 10]);
        conn.write_bytes(0, payload.clone()).unwrap();
        conn.flush().unwrap();
        let copied = |name: &str| t.snapshot().counter(name);
        assert_eq!(
            copied("fabric.bytes_copied"),
            0,
            "initiator must not copy the payload"
        );
        assert_eq!(
            copied("ssd.bytes_copied"),
            payload.len() as u64,
            "exactly one copy per byte: device RAM drain to media"
        );
        let back = conn.read_bytes(0, payload.len()).unwrap();
        assert_eq!(back, payload);
        assert_eq!(
            copied("fabric.bytes_copied"),
            0,
            "read_bytes must not copy either"
        );
        // The slice paths each stage one copy and say so.
        conn.write(0, &[1u8; 100]).unwrap();
        let mut buf = [0u8; 100];
        conn.read_into(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 100]);
        assert_eq!(copied("fabric.bytes_copied"), 200);
        // Latency histograms observed every capsule exchange.
        let snap = t.snapshot();
        let submits = snap.histogram("fabric.submit_ns").unwrap();
        assert_eq!(submits.count, snap.counter("fabric.io_ops"));
        assert!(submits.count >= 5, "write+flush+read+write+read_into");
    }

    #[test]
    fn stepped_windows_multiplex_many_connections_on_one_thread() {
        // The reactor seam: open a QD-deep window on each of several
        // connections and advance them round-robin from a single thread.
        // Every window completes, data is durable, and per-command latency
        // accounting matches the blocking path (one submit_ns per io_op).
        let t = Telemetry::new();
        let ssd = Ssd::with_telemetry(
            SsdConfig {
                capacity: 4 << 20,
                ..SsdConfig::default()
            },
            t.clone(),
        );
        let nss: Vec<NsId> = (0..6)
            .map(|_| ssd.create_namespace(256 << 10).unwrap())
            .collect();
        let target = Arc::new(NvmfTarget::new(Arc::new(ssd)));
        let init = Initiator::with_telemetry("nqn.host", t.clone());
        let mut conns: Vec<NvmfConnection> = nss
            .iter()
            .map(|&ns| init.connect(Arc::clone(&target), ns))
            .collect();
        let mut windows: Vec<Window> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let writes: Vec<(u64, Bytes, u32)> = (0..8u64)
                    .map(|j| {
                        let data = Bytes::from(vec![(i as u8) ^ (j as u8); 4 << 10]);
                        let crc = microfs::crc::crc32(&data);
                        (j * (4 << 10), data, crc)
                    })
                    .collect();
                conn.begin_write_window(writes)
            })
            .collect();
        assert!(windows.iter().all(|w| w.len() == 8 && !w.is_empty()));
        // Round-robin: one pass per connection per loop, like a reactor
        // advancing each rank machine by one completion-sized unit.
        let mut loops = 0u32;
        while !windows.iter().all(Window::is_done) {
            for (conn, w) in conns.iter_mut().zip(windows.iter_mut()) {
                if !w.is_done() {
                    conn.step_window(w).unwrap();
                }
            }
            loops += 1;
            assert!(loops < 10_000, "stepped windows must converge");
        }
        for (conn, w) in conns.iter_mut().zip(windows.iter_mut()) {
            conn.finish_window(w);
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            for j in 0..8u64 {
                let back = conn.read_bytes(j * (4 << 10), 4 << 10).unwrap();
                assert!(back.iter().all(|&b| b == (i as u8) ^ (j as u8)));
            }
        }
        let snap = t.snapshot();
        let submits = snap.histogram("fabric.submit_ns").unwrap();
        assert_eq!(
            submits.count,
            snap.counter("fabric.io_ops"),
            "stepped windows keep one latency observation per command"
        );
    }

    #[test]
    fn connection_cannot_reach_foreign_namespace() {
        let (target, a, b) = setup();
        let init = Initiator::new("nqn.host");
        let mut conn_a = init.connect(Arc::clone(&target), a);
        conn_a.write(0, b"mine").unwrap();
        // A separate connection bound to b cannot see a's data at the same
        // namespace-relative offset.
        let mut conn_b = init.connect(target, b);
        assert_eq!(conn_b.read(0, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn out_of_range_surfaces_remote_error() {
        let (target, a, _) = setup();
        let mut conn = Initiator::new("nqn.host").connect(target, a);
        let err = conn.write((256 << 10) - 1, b"spill").unwrap_err();
        assert!(matches!(err, InitiatorError::Remote(Status::LbaOutOfRange)));
    }

    #[test]
    fn flush_roundtrip() {
        let (target, a, _) = setup();
        let mut conn = Initiator::new("nqn.host").connect(target, a);
        conn.write(0, &[1u8; 128]).unwrap();
        conn.flush().unwrap();
    }

    #[test]
    fn wire_traffic_flows_over_queue_pairs() {
        let (target, a, _) = setup();
        let mut conn = Initiator::new("nqn.host").connect(target, a);
        conn.write(0, b"abc").unwrap();
        conn.read(0, 3).unwrap();
        let (sends, recvs) = conn.qp_counters();
        assert_eq!(sends, 2, "one capsule send per IO");
        assert_eq!(recvs, 2, "one posted response buffer per IO");
    }

    fn chaos_initiator(t: &Telemetry) -> (Initiator, ChaosHandle) {
        let chaos = ChaosHandle::new();
        let init = Initiator::with_config(
            "nqn.host",
            t.clone(),
            chaos.clone(),
            FabricConfig::default(),
        );
        (init, chaos)
    }

    #[test]
    fn corrupt_command_capsule_is_retried_to_success() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        chaos.arm(
            chaos::FaultPlan::new(1).at_op(Site::CapsuleTx, FaultAction::CorruptPayload, 0),
            &t,
        );
        conn.write(0, b"survives corruption").unwrap();
        chaos.disarm();
        assert_eq!(conn.read(0, 19).unwrap(), b"survives corruption");
        let snap = t.snapshot();
        assert_eq!(snap.counter("fabric.retries"), 1);
        assert_eq!(snap.counter("fabric.crc_errors"), 1, "target saw bad CRC");
        assert!(snap.counter("chaos.injected") >= 1);
    }

    #[test]
    fn corrupt_response_capsule_is_retried_to_success() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        conn.write(0, b"payload").unwrap();
        chaos.arm(
            chaos::FaultPlan::new(2).at_op(Site::CapsuleRx, FaultAction::CorruptPayload, 0),
            &t,
        );
        assert_eq!(conn.read(0, 7).unwrap(), b"payload");
        chaos.disarm();
        let snap = t.snapshot();
        assert!(snap.counter("fabric.retries") >= 1);
        assert!(
            snap.counter("fabric.crc_errors") >= 1,
            "initiator-side CRC rejection counted"
        );
    }

    #[test]
    fn dropped_command_times_out_and_retries() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        chaos.arm(
            chaos::FaultPlan::new(3).at_op(Site::CapsuleTx, FaultAction::DropCapsule, 0),
            &t,
        );
        conn.write(0, b"after timeout").unwrap();
        chaos.disarm();
        assert_eq!(conn.read(0, 13).unwrap(), b"after timeout");
        let snap = t.snapshot();
        assert_eq!(snap.counter("fabric.timeouts"), 1);
        assert_eq!(snap.counter("fabric.retries"), 1);
        assert!(snap.counter("fabric.backoff_ns") >= 10_000);
    }

    #[test]
    fn connection_reset_triggers_reconnect() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        conn.write(0, b"before reset").unwrap();
        chaos.arm(
            chaos::FaultPlan::new(4).at_op(Site::ConnReset, FaultAction::ResetConnection, 0),
            &t,
        );
        // The write that hits the reset reconnects and completes.
        conn.write(100, b"after reset").unwrap();
        chaos.disarm();
        assert_eq!(conn.read(0, 12).unwrap(), b"before reset");
        assert_eq!(conn.read(100, 11).unwrap(), b"after reset");
        let snap = t.snapshot();
        assert_eq!(snap.counter("fabric.reconnects"), 1);
        assert_eq!(
            snap.histogram("fabric.reconnect_ns").unwrap().count,
            1,
            "reconnect latency observed"
        );
    }

    #[test]
    fn duplicate_capsule_executes_once() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        chaos.arm(
            chaos::FaultPlan::new(5).at_op(Site::CapsuleTx, FaultAction::DuplicateCapsule, 0),
            &t,
        );
        conn.write(0, b"exactly once").unwrap();
        chaos.disarm();
        assert_eq!(conn.read(0, 12).unwrap(), b"exactly once");
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("fabric.duplicates_suppressed"),
            1,
            "second delivery answered from the replay cache"
        );
        // Exactly one device write executed despite two deliveries.
        assert_eq!(target.device().ns_io_counters(a).0, 1);
    }

    #[test]
    fn keep_alive_heals_dead_connection() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        conn.write(0, b"state").unwrap();
        chaos.arm(
            chaos::FaultPlan::new(6).at_op(Site::ConnReset, FaultAction::ResetConnection, 0),
            &t,
        );
        conn.keep_alive().unwrap();
        chaos.disarm();
        assert_eq!(t.snapshot().counter("fabric.reconnects"), 1);
        assert_eq!(conn.read(0, 5).unwrap(), b"state");
    }

    #[test]
    fn sustained_fault_storm_exhausts_retries() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        chaos.arm(
            chaos::FaultPlan::new(7).with_rate(Site::CapsuleTx, FaultAction::DropCapsule, 1.0),
            &t,
        );
        let err = conn.write(0, b"doomed").unwrap_err();
        chaos.disarm();
        assert!(
            matches!(err, InitiatorError::Exhausted { attempts: 9, .. }),
            "1 initial + 8 retries, got {err:?}"
        );
        assert_eq!(t.snapshot().counter("fabric.retries"), 8);
    }

    #[test]
    fn shard_offline_is_not_retried() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, _chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        target.device().shard(a).unwrap().kill();
        let err = conn.write(0, b"dead end").unwrap_err();
        assert!(matches!(err, InitiatorError::Remote(Status::ShardOffline)));
        assert_eq!(
            t.snapshot().counter("fabric.retries"),
            0,
            "a dead shard must fail fast so the runtime can fail over"
        );
    }

    #[test]
    fn vectored_window_roundtrips_more_extents_than_queue_depth() {
        let (target, a, _, t) = setup_with_telemetry();
        let init = Initiator::with_telemetry("nqn.host", t.clone());
        let mut conn = init.connect(Arc::clone(&target), a);
        // 100 extents > queue_depth 32: the window must refill as commands
        // retire. Each extent gets distinct content so order mix-ups show.
        let writes: Vec<(u64, Bytes)> = (0..100u64)
            .map(|i| (i * 512, Bytes::from(vec![i as u8; 512])))
            .collect();
        conn.write_vectored_bytes(writes).unwrap();
        let spec: Vec<(u64, usize)> = (0..100u64).map(|i| (i * 512, 512)).collect();
        let got = conn.read_vectored_bytes(&spec).unwrap();
        for (i, data) in got.iter().enumerate() {
            assert_eq!(&data[..], &vec![i as u8; 512][..], "extent {i}");
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter("fabric.io_ops"), 200);
        assert_eq!(
            snap.histogram("fabric.submit_ns").unwrap().count,
            200,
            "one latency observation per windowed command"
        );
        assert_eq!(
            snap.counter("fabric.bytes_copied"),
            0,
            "the vectored Bytes paths stay zero-copy"
        );
        let (sends, recvs) = conn.qp_counters();
        assert_eq!(sends, 200, "one capsule send per windowed command");
        assert_eq!(recvs, 200);
    }

    #[test]
    fn window_results_stay_in_submission_order_under_faults() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        // Heavy corruption on both capsule directions: completions retire
        // out of order across retries, but results must come back in
        // submission order — including overlapping extents, where the last
        // writer in submission order must win on the device.
        chaos.arm(
            chaos::FaultPlan::new(11)
                .with_rate(Site::CapsuleTx, FaultAction::CorruptPayload, 0.10)
                .with_rate(Site::CapsuleRx, FaultAction::CorruptPayload, 0.10),
            &t,
        );
        let writes: Vec<(u64, Bytes)> = (0..64u64)
            .map(|i| (i * 256, Bytes::from(vec![(i + 1) as u8; 256])))
            .collect();
        conn.write_vectored_bytes(writes).unwrap();
        // Overwrite every extent in the same window: submission order says
        // the 0xEE pass wins.
        let overwrite: Vec<(u64, Bytes)> = (0..64u64)
            .map(|i| (i * 256, Bytes::from(vec![0xEEu8; 256])))
            .collect();
        conn.write_vectored_bytes(overwrite).unwrap();
        chaos.disarm();
        let spec: Vec<(u64, usize)> = (0..64u64).map(|i| (i * 256, 256)).collect();
        let got = conn.read_vectored_bytes(&spec).unwrap();
        for (i, data) in got.iter().enumerate() {
            assert_eq!(&data[..], &vec![0xEEu8; 256][..], "extent {i}");
        }
        let snap = t.snapshot();
        assert!(snap.counter("fabric.retries") > 0, "faults must have fired");
    }

    #[test]
    fn windowed_duplicates_execute_once() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        chaos.arm(
            chaos::FaultPlan::new(5).at_op(Site::CapsuleTx, FaultAction::DuplicateCapsule, 3),
            &t,
        );
        let writes: Vec<(u64, Bytes)> = (0..16u64)
            .map(|i| (i * 128, Bytes::from(vec![i as u8; 128])))
            .collect();
        conn.write_vectored_bytes(writes).unwrap();
        chaos.disarm();
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("fabric.duplicates_suppressed"),
            1,
            "the duplicated delivery was answered from the replay cache"
        );
        // Exactly one device write per extent despite the duplicate.
        assert_eq!(target.device().ns_io_counters(a).0, 16);
    }

    #[test]
    fn shallow_window_still_completes_large_batches() {
        let (target, a, _, t) = setup_with_telemetry();
        let init = Initiator::with_config(
            "nqn.host",
            t,
            ChaosHandle::default(),
            FabricConfig {
                queue_depth: 2,
                ..FabricConfig::default()
            },
        );
        let mut conn = init.connect(target, a);
        let writes: Vec<(u64, Bytes)> = (0..40u64)
            .map(|i| (i * 64, Bytes::from(vec![i as u8; 64])))
            .collect();
        conn.write_vectored_bytes(writes).unwrap();
        let spec: Vec<(u64, usize)> = (0..40u64).map(|i| (i * 64, 64)).collect();
        let got = conn.read_vectored_bytes(&spec).unwrap();
        for (i, data) in got.iter().enumerate() {
            assert_eq!(&data[..], &vec![i as u8; 64][..]);
        }
    }

    fn mirrored(writes: &[(u64, Vec<u8>)]) -> Vec<MirroredWrite> {
        writes
            .iter()
            .map(|(o, d)| MirroredWrite {
                primary_offset: *o,
                replica_offset: *o + 64, // replica homes at a different base
                data: Bytes::from(d.clone()),
                crc: microfs::crc::crc32(d),
            })
            .collect()
    }

    #[test]
    fn mirrored_write_lands_on_both_copies() {
        let (target, a, b, t) = setup_with_telemetry();
        let init = Initiator::with_telemetry("nqn.host", t.clone());
        let mut prim = init.connect(Arc::clone(&target), a);
        let mut repl = init.connect(Arc::clone(&target), b);
        let writes: Vec<(u64, Vec<u8>)> =
            (0..48u64).map(|i| (i * 512, vec![i as u8; 512])).collect();
        let out = write_mirrored_bytes(&mut prim, &mut repl, mirrored(&writes)).unwrap();
        assert!(out.replica_error.is_none());
        for (o, d) in &writes {
            assert_eq!(&prim.read_bytes(*o, d.len()).unwrap()[..], &d[..]);
            assert_eq!(&repl.read_bytes(*o + 64, d.len()).unwrap()[..], &d[..]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter("fabric.io_ops"), 2 * 48 + 2 * 48);
        assert_eq!(
            snap.counter("fabric.bytes_copied"),
            0,
            "both capsule encodes share the payload by refcount"
        );
    }

    #[test]
    fn mirrored_write_overlaps_both_windows() {
        // Both connections must genuinely pipeline: with QD=32 and 64
        // extents each, the shared window drives well over 32 commands
        // before either side serializes — observable as posted sends on
        // both QPs exceeding one-window-at-a-time lockstep.
        let (target, a, b, t) = setup_with_telemetry();
        let init = Initiator::with_telemetry("nqn.host", t);
        let mut prim = init.connect(Arc::clone(&target), a);
        let mut repl = init.connect(Arc::clone(&target), b);
        let writes: Vec<(u64, Vec<u8>)> = (0..64u64).map(|i| (i * 128, vec![1u8; 128])).collect();
        write_mirrored_bytes(&mut prim, &mut repl, mirrored(&writes)).unwrap();
        assert_eq!(prim.qp_counters().0, 64);
        assert_eq!(repl.qp_counters().0, 64);
    }

    #[test]
    fn mirrored_write_degrades_on_replica_death_and_fails_on_primary_death() {
        let (target, a, b, t) = setup_with_telemetry();
        let init = Initiator::with_telemetry("nqn.host", t);
        let mut prim = init.connect(Arc::clone(&target), a);
        let mut repl = init.connect(Arc::clone(&target), b);
        let writes: Vec<(u64, Vec<u8>)> = (0..8u64).map(|i| (i * 256, vec![7u8; 256])).collect();

        // Replica shard dies: the write still succeeds, flagged degraded.
        target.device().shard(b).unwrap().kill();
        let out = write_mirrored_bytes(&mut prim, &mut repl, mirrored(&writes)).unwrap();
        assert!(matches!(
            out.replica_error,
            Some(InitiatorError::Remote(Status::ShardOffline))
        ));
        for (o, d) in &writes {
            assert_eq!(
                &prim.read_bytes(*o, d.len()).unwrap()[..],
                &d[..],
                "primary durable"
            );
        }

        // Primary shard dies: the write fails outright.
        target.device().shard(a).unwrap().kill();
        target.device().shard(b).unwrap().revive();
        let err = write_mirrored_bytes(&mut prim, &mut repl, mirrored(&writes)).unwrap_err();
        assert!(matches!(err, InitiatorError::Remote(Status::ShardOffline)));
    }

    #[test]
    fn precrc_vectored_write_roundtrips() {
        let (target, a, _, t) = setup_with_telemetry();
        let init = Initiator::with_telemetry("nqn.host", t);
        let mut conn = init.connect(target, a);
        let writes: Vec<(u64, Bytes, u32)> = (0..16u64)
            .map(|i| {
                let d = vec![i as u8; 1024];
                let crc = microfs::crc::crc32(&d);
                (i * 1024, Bytes::from(d), crc)
            })
            .collect();
        conn.write_vectored_bytes_precrc(writes).unwrap();
        for i in 0..16u64 {
            assert_eq!(
                &conn.read_bytes(i * 1024, 1024).unwrap()[..],
                &vec![i as u8; 1024][..]
            );
        }
    }

    #[test]
    fn flight_recorder_captures_command_lifecycle() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        chaos.arm(
            chaos::FaultPlan::new(3).at_op(Site::CapsuleTx, FaultAction::DropCapsule, 0),
            &t,
        );
        conn.write(0, b"traced").unwrap();
        chaos.disarm();
        let events = t.recorder().events();
        let kinds: Vec<FlightKind> = events.iter().map(|e| e.kind).collect();
        // The dropped first attempt: timeout, retry, then a fresh submit
        // that completes — all under the same CID.
        assert!(kinds.contains(&FlightKind::Timeout));
        assert!(kinds.contains(&FlightKind::Retry));
        let submit = events
            .iter()
            .find(|e| e.kind == FlightKind::Submit)
            .expect("submit recorded");
        let complete = events
            .iter()
            .find(|e| e.kind == FlightKind::Complete)
            .expect("complete recorded");
        assert_eq!(submit.cid, complete.cid, "lifecycle keyed by one CID");
        assert_eq!(complete.gen, 1, "completion on the retry generation");
    }

    #[test]
    fn exhaustion_trips_the_recorder() {
        let (target, a, _, t) = setup_with_telemetry();
        let (init, chaos) = chaos_initiator(&t);
        let mut conn = init.connect(Arc::clone(&target), a);
        chaos.arm(
            chaos::FaultPlan::new(7).with_rate(Site::CapsuleTx, FaultAction::DropCapsule, 1.0),
            &t,
        );
        conn.write(0, b"doomed").unwrap_err();
        chaos.disarm();
        let rec = t.recorder();
        assert!(rec.trip_count() >= 1, "exhaustion must trip the recorder");
        assert!(rec
            .events()
            .iter()
            .any(|e| e.kind == FlightKind::RetryExhausted));
    }

    #[test]
    fn many_sequential_ios_wrap_cid() {
        let (target, a, _) = setup();
        let mut conn = Initiator::new("nqn.host").connect(target, a);
        for i in 0..70_000u64 {
            // Cheap small writes; cid is u16 and must wrap without issue.
            if i % 8192 == 0 {
                conn.write(0, &[0u8; 8]).unwrap();
            }
        }
        conn.write(0, &[9u8; 1]).unwrap();
        assert_eq!(conn.read(0, 1).unwrap(), vec![9u8]);
    }
}
