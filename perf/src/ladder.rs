//! The per-layer ladder of the traced run: rank 0's script replayed
//! single-threaded, each rung adding one layer through its public
//! constructor, so a layer's self time is the difference between adjacent
//! rungs.
//!
//! | rung | what runs | layer it adds |
//! |---|---|---|
//! | 0 | recorded block stream on `NsShard::{write_bytes, read_bytes, flush}` | ssd |
//! | 1 | the stream on `NvmfConnection` → `NvmfTarget` | fabric |
//! | 2 | the stream on `NvmfBlockDevice` through the `BlockDevice` trait | core.dataplane |
//! | 3 | the POSIX script on `MicroFs<NvmfBlockDevice>` (and on `MicroFs<MemDevice>` for microfs alone) | microfs |
//! | 4 | the script through `PosixLayer` | core.intercept |
//! | 5 | the measured multi-rank rounds ÷ ranks × threads | core.runtime |
//!
//! The ladder is unreplicated for every workload: the mirror has no rung
//! of its own and shows in `core.runtime.ladder_gap_ms` and the
//! `core.replication.*` busy times instead.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use fabric::{Capsule, Initiator, NvmfConnection, NvmfTarget};
use microfs::block::{DevError, IoCounters};
use microfs::{BlockDevice, FsConfig, MemDevice, MicroFs};
use nvmecr::{NvmfBlockDevice, PosixLayer};
use ssd::{NsId, Ssd, SsdConfig};
use telemetry::Telemetry;

use crate::job::Inputs;
use crate::stats;
use crate::workload::{self, Op, Posix, ScriptOutcome};

/// Mount prefix the intercept rung claims.
const MOUNT_PREFIX: &str = "/nvmecr";

/// Times each rung is repeated on a fresh stack; the median is reported.
const REPEATS: usize = 5;

/// Size of the memory device under the microfs-alone rung: room for every
/// workload's rank 0 (at most 12 MiB of files plus log and snapshots).
const MEM_DEVICE_BYTES: u64 = 64 << 20;

/// One call microfs made on its block device.
#[derive(Debug, Clone)]
enum BlockOp {
    Write(u64, Bytes),
    WriteV(Vec<(u64, Bytes)>),
    Read(u64, usize),
    ReadV(Vec<(u64, usize)>),
    Flush,
}

impl BlockOp {
    /// NVMf commands the call turns into.
    fn commands(&self) -> u64 {
        match self {
            BlockOp::Write(..) | BlockOp::Read(..) | BlockOp::Flush => 1,
            BlockOp::WriteV(v) => v.len() as u64,
            BlockOp::ReadV(v) => v.len() as u64,
        }
    }
}

/// A `BlockDevice` that records every call before forwarding it.
struct Recorder<D> {
    inner: D,
    ops: Vec<BlockOp>,
}

impl<D: BlockDevice> BlockDevice for Recorder<D> {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), DevError> {
        self.ops
            .push(BlockOp::Write(offset, Bytes::copy_from_slice(data)));
        self.inner.write_at(offset, data)
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), DevError> {
        self.ops.push(BlockOp::Read(offset, buf.len()));
        self.inner.read_at(offset, buf)
    }
    fn flush(&mut self) -> Result<(), DevError> {
        self.ops.push(BlockOp::Flush);
        self.inner.flush()
    }
    fn size(&self) -> u64 {
        self.inner.size()
    }
    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
    fn write_vectored_at(&mut self, writes: &[(u64, &[u8])]) -> Result<(), DevError> {
        self.ops.push(BlockOp::WriteV(
            writes
                .iter()
                .map(|&(o, d)| (o, Bytes::copy_from_slice(d)))
                .collect(),
        ));
        self.inner.write_vectored_at(writes)
    }
    fn read_vectored_at(&mut self, reads: &mut [(u64, &mut [u8])]) -> Result<(), DevError> {
        self.ops.push(BlockOp::ReadV(
            reads.iter().map(|(o, b)| (*o, b.len())).collect(),
        ));
        self.inner.read_vectored_at(reads)
    }
    fn discard_at(&mut self, offset: u64, len: u64) -> Result<(), DevError> {
        self.inner.discard_at(offset, len)
    }
}

/// One SSD, one namespace, one target: the storage side of a single rank.
struct Solo {
    telemetry: Telemetry,
    ssd: Arc<Ssd>,
    target: Arc<NvmfTarget>,
    ns: NsId,
    size: u64,
}

impl Solo {
    fn new(size: u64) -> Result<Self, String> {
        let telemetry = Telemetry::new();
        let ssd = Arc::new(Ssd::with_telemetry(SsdConfig::default(), telemetry.clone()));
        let ns = ssd.create_namespace(size).map_err(|e| e.to_string())?;
        let target = Arc::new(NvmfTarget::new(Arc::clone(&ssd)));
        Ok(Solo {
            telemetry,
            ssd,
            target,
            ns,
            size,
        })
    }

    fn connect(&self) -> NvmfConnection {
        Initiator::with_telemetry("nqn.2026-07.io.nvmecr:perf-ladder", self.telemetry.clone())
            .connect(Arc::clone(&self.target), self.ns)
    }

    fn device(&self) -> NvmfBlockDevice {
        NvmfBlockDevice::new(self.connect(), 0, self.size)
    }
}

/// What the ladder measured, in milliseconds unless named otherwise.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    /// Rungs 0–4, each the median of its repeats.
    pub ssd_ms: f64,
    pub fabric_ms: f64,
    pub dataplane_ms: f64,
    pub microfs_ms: f64,
    pub intercept_ms: f64,
    /// Self time of the layer each rung adds: the median over the repeats
    /// of (rung − rung below), clamped at 0. Differencing within a repeat
    /// pairs runs that are adjacent in time, so drift between repeats
    /// cancels instead of drowning a thin layer.
    pub fabric_self_ms: f64,
    pub dataplane_self_ms: f64,
    pub microfs_self_ms: f64,
    pub intercept_self_ms: f64,
    /// The script on `MicroFs<MemDevice>`.
    pub microfs_mem_ms: f64,
    /// `MicroFs::mount` of rank 0's device after the script.
    pub mount_ms_p50: f64,
    /// POSIX calls in rank 0's script.
    pub calls: u64,
    /// Commands in the recorded stream (format excluded).
    pub stream_cmds: u64,
    pub codec_ns_per_cmd: f64,
    pub codec_ns_per_byte: f64,
    /// Checked steps and failures of the ladder itself.
    pub outcome: ScriptOutcome,
}

/// Rank 0's whole script: every round (with the payload it writes) and
/// the restart.
struct Script {
    rounds: Vec<(Vec<Op>, Vec<u8>)>,
    restart: Vec<Op>,
    readback_bytes: usize,
}

impl Script {
    fn of_rank0(inputs: &Inputs, prefix: &str) -> Self {
        let spec = &inputs.spec;
        let mut payload = vec![0u8; spec.payload_bytes];
        workload::fill_base(inputs.seed, 0, &mut payload);
        let prefixed = |ops: &[Op]| ops.iter().map(|o| o.prefixed(prefix)).collect();
        let rounds = (0..spec.rounds)
            .map(|round| {
                workload::prepare_round(spec, inputs.seed, 0, round, &mut payload);
                (
                    prefixed(&inputs.round_scripts[round as usize][0]),
                    payload.clone(),
                )
            })
            .collect();
        Script {
            rounds,
            restart: prefixed(&inputs.read_scripts[0]),
            readback_bytes: workload::readback_bytes(spec),
        }
    }

    fn calls(&self) -> u64 {
        (self.rounds.iter().map(|(ops, _)| ops.len()).sum::<usize>() + self.restart.len()) as u64
    }

    /// Run rounds and restart on `fs`; returns the wall time in ms.
    fn run<P: Posix>(&self, fs: &mut P, outcome: &mut ScriptOutcome) -> f64 {
        let mut readbuf = vec![0u8; self.readback_bytes];
        let t = Instant::now();
        for (ops, payload) in &self.rounds {
            outcome.absorb(workload::run_script(
                fs,
                ops,
                payload,
                &mut readbuf,
                0,
                None,
            ));
        }
        let empty: &[u8] = &[];
        outcome.absorb(workload::run_script(
            fs,
            &self.restart,
            empty,
            &mut readbuf,
            0,
            None,
        ));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Segment size of one rank: its share of the grant's namespace.
fn segment_bytes(inputs: &Inputs) -> u64 {
    let per_grant = u64::from(inputs.spec.ranks.min(112));
    ((8u64 << 30) / per_grant) & !((1 << 20) - 1)
}

fn fs_config(inputs: &Inputs, telemetry: &Telemetry) -> FsConfig {
    inputs.runtime_config(telemetry).fs_config()
}

/// Run the ladder for `inputs`' workload.
pub fn run(inputs: &Inputs) -> Result<Ladder, String> {
    let mut out = Ladder::default();
    let size = segment_bytes(inputs);
    let plain = Script::of_rank0(inputs, "");
    let shimmed = Script::of_rank0(inputs, MOUNT_PREFIX);
    out.calls = plain.calls();

    // Record the block stream under microfs, and check it against the
    // fabric's own command count on this single-rank stack.
    let solo = Solo::new(size)?;
    let recorder = Recorder {
        inner: solo.device(),
        ops: Vec::new(),
    };
    let mut fs = MicroFs::format(recorder, fs_config(inputs, &solo.telemetry))
        .map_err(|e| format!("ladder format: {e}"))?;
    let format_ops = fs.device().ops.len();
    plain.run(&mut fs, &mut out.outcome);
    let stream = fs.into_device().ops;
    let recorded: u64 = stream.iter().map(BlockOp::commands).sum();
    let io_ops = solo.telemetry.snapshot().counter("fabric.io_ops");
    out.outcome.ensure(
        "recorded commands == fabric.io_ops of rank 0",
        recorded == io_ops,
        || format!("{recorded} != {io_ops}"),
    );
    let (format_stream, script_stream) = stream.split_at(format_ops);
    out.stream_cmds = script_stream.iter().map(BlockOp::commands).sum();

    let (mut ssd, mut fabric, mut dataplane) = (Vec::new(), Vec::new(), Vec::new());
    let (mut microfs, mut intercept, mut microfs_mem) = (Vec::new(), Vec::new(), Vec::new());
    let mut mounts = Vec::new();
    for _ in 0..REPEATS {
        // Rung 0: the shard alone.
        let solo = Solo::new(size)?;
        let shard = solo.ssd.shard(solo.ns).map_err(|e| e.to_string())?;
        let on_shard = |ops: &[BlockOp]| -> Result<(), String> {
            for op in ops {
                match op {
                    BlockOp::Write(o, d) => shard.write_bytes(*o, d.clone()),
                    BlockOp::WriteV(v) => v
                        .iter()
                        .try_for_each(|(o, d)| shard.write_bytes(*o, d.clone())),
                    BlockOp::Read(o, n) => shard.read_bytes(*o, *n).map(|b| {
                        std::hint::black_box(b);
                    }),
                    BlockOp::ReadV(v) => v.iter().try_for_each(|(o, n)| {
                        shard.read_bytes(*o, *n).map(|b| {
                            std::hint::black_box(b);
                        })
                    }),
                    BlockOp::Flush => {
                        shard.flush();
                        Ok(())
                    }
                }
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        on_shard(format_stream)?;
        let t = Instant::now();
        let r = on_shard(script_stream);
        ssd.push(t.elapsed().as_secs_f64() * 1e3);
        out.outcome.check("ladder rung ssd", r);

        // Rung 1: through the connection, capsule codec and target.
        let solo = Solo::new(size)?;
        let mut conn = solo.connect();
        let mut on_conn = |ops: &[BlockOp]| -> Result<(), String> {
            for op in ops {
                match op {
                    BlockOp::Write(o, d) => conn.write_bytes(*o, d.clone()),
                    BlockOp::WriteV(v) => conn.write_vectored_bytes(v.clone()),
                    BlockOp::Read(o, n) => conn.read_bytes(*o, *n).map(|b| {
                        std::hint::black_box(b);
                    }),
                    BlockOp::ReadV(v) => conn.read_vectored_bytes(v).map(|b| {
                        std::hint::black_box(b);
                    }),
                    BlockOp::Flush => conn.flush(),
                }
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        on_conn(format_stream)?;
        let t = Instant::now();
        let r = on_conn(script_stream);
        fabric.push(t.elapsed().as_secs_f64() * 1e3);
        out.outcome.check("ladder rung fabric", r);

        // Rung 2: through the data plane's block device.
        let solo = Solo::new(size)?;
        let mut dev = solo.device();
        let mut scratch = vec![0u8; stream.iter().map(read_bytes).max().unwrap_or(0)];
        let mut on_dev = |ops: &[BlockOp]| -> Result<(), String> {
            for op in ops {
                match op {
                    BlockOp::Write(o, d) => dev.write_at(*o, d),
                    BlockOp::WriteV(v) => {
                        let w: Vec<(u64, &[u8])> = v.iter().map(|(o, d)| (*o, &d[..])).collect();
                        dev.write_vectored_at(&w)
                    }
                    BlockOp::Read(o, n) => dev.read_at(*o, &mut scratch[..*n]),
                    BlockOp::ReadV(v) => {
                        let mut rest = &mut scratch[..];
                        let mut r: Vec<(u64, &mut [u8])> = Vec::with_capacity(v.len());
                        for &(o, n) in v {
                            let (head, tail) = rest.split_at_mut(n);
                            r.push((o, head));
                            rest = tail;
                        }
                        dev.read_vectored_at(&mut r)
                    }
                    BlockOp::Flush => dev.flush(),
                }
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        on_dev(format_stream)?;
        let t = Instant::now();
        let r = on_dev(script_stream);
        dataplane.push(t.elapsed().as_secs_f64() * 1e3);
        out.outcome.check("ladder rung core.dataplane", r);

        // Rung 3: the POSIX script on microfs over the data plane, then a
        // mount of what it left on the device.
        let solo = Solo::new(size)?;
        let cfg = fs_config(inputs, &solo.telemetry);
        let mut fs = MicroFs::format(solo.device(), cfg.clone()).map_err(|e| e.to_string())?;
        microfs.push(plain.run(&mut fs, &mut out.outcome));
        let dev = fs.into_device();
        let t = Instant::now();
        let mounted = MicroFs::mount(dev, cfg);
        mounts.push(t.elapsed().as_secs_f64() * 1e3);
        out.outcome.check("ladder mount", mounted.map(|_| ()));

        // Rung 4: the same through the interception shim.
        let solo = Solo::new(size)?;
        let fs = MicroFs::format(solo.device(), fs_config(inputs, &solo.telemetry))
            .map_err(|e| e.to_string())?;
        let mut shim = PosixLayer::new(fs, MOUNT_PREFIX);
        intercept.push(shimmed.run(&mut shim, &mut out.outcome));

        // microfs alone, on memory. The device is touched before the
        // script runs: a fresh zeroed allocation would charge its page
        // faults to microfs.
        let t_mem = Telemetry::new();
        let mut media = vec![1u8; size.min(MEM_DEVICE_BYTES) as usize];
        media.fill(0);
        let mem = MemDevice::from_raw(media);
        let mut fs = MicroFs::format(mem, fs_config(inputs, &t_mem)).map_err(|e| e.to_string())?;
        microfs_mem.push(plain.run(&mut fs, &mut out.outcome));
    }
    out.ssd_ms = stats::median(&ssd);
    out.fabric_ms = stats::median(&fabric);
    out.dataplane_ms = stats::median(&dataplane);
    out.microfs_ms = stats::median(&microfs);
    out.intercept_ms = stats::median(&intercept);
    out.microfs_mem_ms = stats::median(&microfs_mem);
    out.mount_ms_p50 = stats::median(&mounts);
    let paired = |upper: &[f64], lower: &[f64]| {
        let diffs: Vec<f64> = upper.iter().zip(lower).map(|(u, l)| u - l).collect();
        stats::median(&diffs).max(0.0)
    };
    out.fabric_self_ms = paired(&fabric, &ssd);
    out.dataplane_self_ms = paired(&dataplane, &fabric);
    out.microfs_self_ms = paired(&microfs, &dataplane);
    out.intercept_self_ms = paired(&intercept, &microfs);

    let (per_cmd, per_byte) = codec_costs(script_stream);
    out.codec_ns_per_cmd = per_cmd;
    out.codec_ns_per_byte = per_byte;
    Ok(out)
}

fn read_bytes(op: &BlockOp) -> usize {
    match op {
        BlockOp::Read(_, n) => *n,
        BlockOp::ReadV(v) => v.iter().map(|(_, n)| n).sum(),
        _ => 0,
    }
}

/// Isolated capsule codec cost of the recorded write stream: encode and
/// decode every write capsule with its payload, then the same capsules
/// with empty payloads. The second is the per-command cost; the difference
/// over the payload bytes is the per-byte cost.
fn codec_costs(stream: &[BlockOp]) -> (f64, f64) {
    let writes: Vec<(u64, Bytes)> = stream
        .iter()
        .flat_map(|op| match op {
            BlockOp::Write(o, d) => vec![(*o, d.clone())],
            BlockOp::WriteV(v) => v.clone(),
            _ => Vec::new(),
        })
        .collect();
    if writes.is_empty() {
        return (0.0, 0.0);
    }
    let bytes: usize = writes.iter().map(|(_, d)| d.len()).sum();
    let codec = |payload: bool| -> f64 {
        let samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                for (i, (offset, data)) in writes.iter().enumerate() {
                    let data = if payload { data.clone() } else { Bytes::new() };
                    let wire = Capsule::write(i as u16, 1, *offset, data).encode_sg();
                    std::hint::black_box(Capsule::decode_sg(std::hint::black_box(wire)).is_ok());
                }
                t.elapsed().as_nanos() as f64
            })
            .collect();
        stats::median(&samples)
    };
    let headers_ns = codec(false);
    let full_ns = codec(true);
    (
        headers_ns / writes.len() as f64,
        stats::ladder_diff(full_ns, headers_ns) / bytes.max(1) as f64,
    )
}
