//! The four workloads: their shapes, the POSIX script each rank runs per
//! checkpoint round and at restart, and the seeded payloads behind them.
//!
//! A script is a plain list of calls built before any timing starts, so
//! the timed spans hold only calls into the stack (no formatting, no
//! generation). The same script runs on every rung of the ladder through
//! the [`Posix`] trait.

use microfs::block::BlockDevice;
use microfs::{FsError, MicroFs, OpenFlags};
use nvmecr::PosixLayer;

use crate::gen;
use crate::trace::SpanBuf;

/// Which of the four scripts a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One new checkpoint file per round, written in 1 MiB calls.
    Bulk,
    /// Many small files per round with fsync/stat/rename, unlinking the
    /// files of two rounds ago.
    MetaChurn,
    /// One image file, overwritten in place chunk by chunk after round 0.
    MirrorDelta,
}

/// Shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub ranks: u32,
    /// Checkpoint rounds per job (K).
    pub rounds: u32,
    /// Bytes of payload buffer per rank (one round's worth of data).
    pub payload_bytes: usize,
    /// Largest single `write` call.
    pub write_call_bytes: usize,
    pub block_size: u64,
    pub replication_factor: u32,
    pub delta_chain_max: u32,
    /// Ranks crashed and recovered at the end of the rounds.
    pub crash: CrashSet,
}

/// Which ranks a job crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSet {
    All,
    /// Rank 0 alone (a rep=2 recovery rescans the rank's whole segment,
    /// seconds whatever it wrote, so a second rank would only repeat it);
    /// afterwards the shared primary shard is killed and every other rank
    /// fails over to its replica.
    OneThenFailover,
}

const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;

/// Files per rank per round in `meta_churn`.
pub const CHURN_FILES: usize = 64;
/// Bytes per `meta_churn` file.
pub const CHURN_FILE_BYTES: usize = 8 * KIB;
/// Chunk size of the in-place overwrites of `ckpt_mirror_delta`.
pub const DELTA_CHUNK: usize = 64 * KIB;
/// Chunks overwritten per rank per delta round: a tenth of the image's
/// sixteen chunks, rounded up.
pub const DELTA_CHUNKS_PER_ROUND: usize = 2;

/// The measured workloads, or their `--smoke` reductions.
pub fn specs(smoke: bool) -> Vec<Spec> {
    let ranks = |full: u32, small: u32| if smoke { small } else { full };
    let rounds = |full: u32| if smoke { 3 } else { full };
    vec![
        Spec {
            name: "ckpt_stream",
            why: "28 ranks x 2 MiB per round in 1 MiB writes: byte movers (copy, CRC, RAM enqueue, drain, sparse store) dominate",
            kind: Kind::Bulk,
            ranks: ranks(28, 8),
            rounds: rounds(6),
            payload_bytes: 2 * MIB,
            write_call_bytes: MIB,
            block_size: 32 << 10,
            replication_factor: 1,
            delta_chain_max: 0,
            crash: CrashSet::All,
        },
        Spec {
            name: "ckpt_manyranks",
            why: "448 ranks x 128 KiB per round, the same 56 MiB as ckpt_stream: per-rank fixed costs (init, hand-off, shard lock, recover floor) dominate",
            kind: Kind::Bulk,
            ranks: ranks(448, 64),
            rounds: rounds(4),
            payload_bytes: 128 * KIB,
            write_call_bytes: 128 * KIB,
            block_size: 32 << 10,
            replication_factor: 1,
            delta_chain_max: 0,
            crash: CrashSet::All,
        },
        Spec {
            name: "meta_churn",
            why: "28 ranks x 64 small files per round with fsync, stat, rename and unlink: WAL, B+Tree, dirents and replay dominate, bytes are few",
            kind: Kind::MetaChurn,
            ranks: ranks(28, 8),
            rounds: rounds(8),
            payload_bytes: CHURN_FILES * CHURN_FILE_BYTES,
            write_call_bytes: CHURN_FILE_BYTES,
            block_size: 32 << 10,
            replication_factor: 1,
            delta_chain_max: 0,
            crash: CrashSet::All,
        },
        Spec {
            name: "ckpt_mirror_delta",
            why: "28 ranks x 1 MiB image at rep=2 with a delta chain, an eighth overwritten in place per round, then failover: mirror, CoW, manifests, rescan, restore",
            kind: Kind::MirrorDelta,
            // Not reduced for `--smoke`: a rank's recovery rescans its
            // whole segment, and fewer ranks mean larger segments (8 GiB
            // over 8 ranks recovers slower than over 28).
            ranks: 28,
            rounds: rounds(10),
            payload_bytes: MIB,
            write_call_bytes: MIB,
            // The default block size, not the 4 KiB of the issue: at 4 KiB
            // half of a round's CPU time is `crc32_shift`, whose speed follows
            // the branch predictor's luck with the build's code layout
            // (README, "Why ckpt_mirror_delta uses 32 KiB blocks").
            block_size: 32 << 10,
            replication_factor: 2,
            delta_chain_max: 4,
            crash: CrashSet::OneThenFailover,
        },
    ]
}

/// One POSIX call of a script. File descriptors are implicit: every call
/// that needs one uses the descriptor of the latest `Create`/`Open`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Mkdir(String),
    Create(String),
    Open {
        path: String,
        write: bool,
    },
    /// `write` of `payload[off..off + len]` at the file position.
    Write {
        off: usize,
        len: usize,
    },
    /// `pwrite` of `payload[off..off + len]` at `file_off`.
    Pwrite {
        file_off: u64,
        off: usize,
        len: usize,
    },
    /// `read` into `readbuf[off..off + len]` at the file position.
    Read {
        off: usize,
        len: usize,
    },
    Fsync,
    Close,
    Stat(String),
    Rename(String, String),
    Unlink(String),
}

impl Op {
    /// Span and metric name of the call.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Mkdir(_) => "mkdir",
            Op::Create(_) => "create",
            Op::Open { .. } => "open",
            Op::Write { .. } => "write",
            Op::Pwrite { .. } => "pwrite",
            Op::Read { .. } => "read",
            Op::Fsync => "fsync",
            Op::Close => "close",
            Op::Stat(_) => "stat",
            Op::Rename(..) => "rename",
            Op::Unlink(_) => "unlink",
        }
    }

    /// Every call name, in the order the per-layer table lists them.
    pub const NAMES: [&'static str; 11] = [
        "mkdir", "create", "write", "pwrite", "fsync", "close", "open", "read", "stat", "rename",
        "unlink",
    ];

    /// Application bytes this call hands to the filesystem.
    pub fn app_bytes(&self) -> u64 {
        match self {
            Op::Write { len, .. } | Op::Pwrite { len, .. } => *len as u64,
            _ => 0,
        }
    }

    /// The same call with `prefix` before every path (the mount prefix a
    /// `PosixLayer` claims).
    pub fn prefixed(&self, prefix: &str) -> Op {
        let p = |s: &String| format!("{prefix}{s}");
        match self {
            Op::Mkdir(s) => Op::Mkdir(p(s)),
            Op::Create(s) => Op::Create(p(s)),
            Op::Open { path, write } => Op::Open {
                path: p(path),
                write: *write,
            },
            Op::Stat(s) => Op::Stat(p(s)),
            Op::Rename(a, b) => Op::Rename(p(a), p(b)),
            Op::Unlink(s) => Op::Unlink(p(s)),
            other => other.clone(),
        }
    }
}

fn churn_path(round: u32, file: usize) -> String {
    format!("/d{round:02}/f{file:02}")
}

/// Order in which a rank touches the files of one `meta_churn` round.
fn churn_order(seed: u64, rank: u32, round: u32, purpose: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..CHURN_FILES).collect();
    gen::shuffle(
        &mut order,
        gen::key(seed, u64::from(rank), u64::from(round), purpose),
    );
    order
}

/// Chunks of the image a rank overwrites in delta round `round`.
pub fn delta_chunks(seed: u64, rank: u32, round: u32, image_bytes: usize) -> Vec<usize> {
    gen::choose(
        image_bytes / DELTA_CHUNK,
        DELTA_CHUNKS_PER_ROUND,
        gen::key(seed, u64::from(rank), u64::from(round), 2),
    )
}

/// Bytes trimmed from the end of each file a rank writes (the checkpoint
/// file, each small file, the image): a seeded 0–0.4% of one write call
/// (0–0.8% of an 8 KiB file), in 64 steps. Real checkpoints are rarely
/// block multiples, so ranks end on partial blocks, and the byte counts of
/// a run follow the seed as the contents do — but by little enough that
/// the exact metrics of two seeds differ in the fourth digit, well inside
/// their 1% bound.
pub fn trim(spec: &Spec, seed: u64, rank: u32) -> usize {
    let step = (spec.write_call_bytes / 16384).max(1);
    step * (gen::key(seed, u64::from(rank), 0, 11) % 64) as usize
}

/// The calls rank `rank` makes in checkpoint round `round`.
pub fn round_script(spec: &Spec, seed: u64, rank: u32, round: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    let trim = trim(spec, seed, rank);
    match spec.kind {
        Kind::Bulk => {
            ops.push(Op::Create(format!("/ckpt_{round:03}")));
            let file_bytes = spec.payload_bytes - trim;
            let mut off = 0;
            while off < file_bytes {
                let len = spec.write_call_bytes.min(file_bytes - off);
                ops.push(Op::Write { off, len });
                off += len;
            }
            ops.push(Op::Fsync);
            ops.push(Op::Close);
        }
        Kind::MetaChurn => {
            ops.push(Op::Mkdir(format!("/d{round:02}")));
            for file in churn_order(seed, rank, round, 0) {
                let path = churn_path(round, file);
                let tmp = format!("{path}.tmp");
                ops.push(Op::Create(tmp.clone()));
                ops.push(Op::Write {
                    off: file * CHURN_FILE_BYTES,
                    len: CHURN_FILE_BYTES - trim,
                });
                ops.push(Op::Fsync);
                ops.push(Op::Close);
                ops.push(Op::Stat(tmp.clone()));
                ops.push(Op::Rename(tmp, path));
            }
            if round >= 2 {
                for file in churn_order(seed, rank, round, 1) {
                    ops.push(Op::Unlink(churn_path(round - 2, file)));
                }
            }
        }
        Kind::MirrorDelta => {
            let image_bytes = spec.payload_bytes - trim;
            if round == 0 {
                ops.push(Op::Create("/image".into()));
                ops.push(Op::Write {
                    off: 0,
                    len: image_bytes,
                });
            } else {
                ops.push(Op::Open {
                    path: "/image".into(),
                    write: true,
                });
                for chunk in delta_chunks(seed, rank, round, spec.payload_bytes) {
                    let off = chunk * DELTA_CHUNK;
                    ops.push(Op::Pwrite {
                        file_off: off as u64,
                        off,
                        len: DELTA_CHUNK.min(image_bytes - off),
                    });
                }
            }
            ops.push(Op::Fsync);
            ops.push(Op::Close);
        }
    }
    ops
}

/// Size of the buffer the restart of one rank reads into: one payload
/// buffer per live round.
pub fn readback_bytes(spec: &Spec) -> usize {
    match spec.kind {
        Kind::Bulk | Kind::MirrorDelta => spec.payload_bytes,
        // The files of the last two rounds are live.
        Kind::MetaChurn => spec.payload_bytes * live_churn_rounds(spec).len(),
    }
}

fn live_churn_rounds(spec: &Spec) -> Vec<u32> {
    (spec.rounds.saturating_sub(2)..spec.rounds).collect()
}

/// The calls a restarted rank makes to read its newest checkpoint back:
/// the newest file (`Bulk`), every live file (`MetaChurn`), or the image.
pub fn read_script(spec: &Spec, seed: u64, rank: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    let trim = trim(spec, seed, rank);
    let whole_file = |ops: &mut Vec<Op>, path: String, base: usize, len: usize, call: usize| {
        ops.push(Op::Open { path, write: false });
        let mut off = 0;
        while off < len {
            let n = call.min(len - off);
            ops.push(Op::Read {
                off: base + off,
                len: n,
            });
            off += n;
        }
        ops.push(Op::Close);
    };
    match spec.kind {
        Kind::Bulk => whole_file(
            &mut ops,
            format!("/ckpt_{:03}", spec.rounds - 1),
            0,
            spec.payload_bytes - trim,
            spec.write_call_bytes,
        ),
        Kind::MirrorDelta => whole_file(
            &mut ops,
            "/image".into(),
            0,
            spec.payload_bytes - trim,
            spec.write_call_bytes,
        ),
        Kind::MetaChurn => {
            for (slot, round) in live_churn_rounds(spec).into_iter().enumerate() {
                for file in churn_order(seed, rank, round, 3) {
                    whole_file(
                        &mut ops,
                        churn_path(round, file),
                        slot * spec.payload_bytes + file * CHURN_FILE_BYTES,
                        CHURN_FILE_BYTES - trim,
                        CHURN_FILE_BYTES,
                    );
                }
            }
        }
    }
    ops
}

fn round_key(seed: u64, rank: u32, round: u32) -> u64 {
    gen::key(seed, u64::from(rank), u64::from(round), 7)
}

/// Fill a rank's payload buffer with its seeded base bytes (once per run).
pub fn fill_base(seed: u64, rank: u32, payload: &mut [u8]) {
    gen::fill(payload, gen::key(seed, u64::from(rank), 0, 9));
}

/// Bring a rank's payload buffer to the contents round `round` writes.
/// `Bulk` and `MetaChurn` restamp every page; `MirrorDelta` restamps
/// every page in round 0 and only the chosen chunks afterwards, so the
/// buffer always holds the image the file should contain.
pub fn prepare_round(spec: &Spec, seed: u64, rank: u32, round: u32, payload: &mut [u8]) {
    let key = round_key(seed, rank, round);
    if spec.kind == Kind::MirrorDelta && round > 0 {
        for chunk in delta_chunks(seed, rank, round, spec.payload_bytes) {
            // Page indices restart in each chunk; the chunk index keeps
            // two chunks of one round distinct.
            gen::stamp(
                &mut payload[chunk * DELTA_CHUNK..(chunk + 1) * DELTA_CHUNK],
                key ^ chunk as u64,
            );
        }
    } else {
        gen::stamp(payload, key);
    }
}

/// Compare what a restart read back with what the rank wrote: every
/// `Read` of `read_ops` against the same range of the payload buffer,
/// restamped to the round that wrote it. `payload` must hold the contents
/// of the last round and does again afterwards. Returns the bytes
/// compared, or `None` on the first difference.
pub fn verify_readback(
    spec: &Spec,
    seed: u64,
    rank: u32,
    read_ops: &[Op],
    payload: &mut [u8],
    readbuf: &[u8],
) -> Option<u64> {
    // Slot `i` of the read buffer holds the files of this round; `None`
    // is the state the last round left (no restamp needed).
    let slots: Vec<Option<u32>> = match spec.kind {
        Kind::Bulk | Kind::MirrorDelta => vec![None],
        Kind::MetaChurn => live_churn_rounds(spec).into_iter().map(Some).collect(),
    };
    let mut compared = 0;
    for (slot, round) in slots.iter().enumerate() {
        if let Some(round) = round {
            prepare_round(spec, seed, rank, *round, payload);
        }
        let base = slot * payload.len();
        for op in read_ops {
            let Op::Read { off, len } = *op else { continue };
            if off < base || off >= base + payload.len() {
                continue;
            }
            let want = payload.get(off - base..off - base + len)?;
            if readbuf.get(off..off + len)? != want {
                return None;
            }
            compared += len as u64;
        }
    }
    Some(compared)
}

/// The POSIX surface a script needs, so one script runs on `MicroFs` and
/// on `PosixLayer` alike.
pub trait Posix {
    fn mkdir(&mut self, path: &str) -> Result<(), FsError>;
    fn create(&mut self, path: &str) -> Result<u32, FsError>;
    fn open(&mut self, path: &str, write: bool) -> Result<u32, FsError>;
    fn write(&mut self, fd: u32, data: &[u8]) -> Result<usize, FsError>;
    fn pwrite(&mut self, fd: u32, offset: u64, data: &[u8]) -> Result<usize, FsError>;
    fn read(&mut self, fd: u32, buf: &mut [u8]) -> Result<usize, FsError>;
    fn fsync(&mut self, fd: u32) -> Result<(), FsError>;
    fn close(&mut self, fd: u32) -> Result<(), FsError>;
    fn stat(&mut self, path: &str) -> Result<(), FsError>;
    fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError>;
    fn unlink(&mut self, path: &str) -> Result<(), FsError>;
}

fn flags(write: bool) -> OpenFlags {
    if write {
        OpenFlags::RDWR
    } else {
        OpenFlags::RDONLY
    }
}

impl<D: BlockDevice> Posix for MicroFs<D> {
    fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        MicroFs::mkdir(self, path, 0o755)
    }
    fn create(&mut self, path: &str) -> Result<u32, FsError> {
        MicroFs::create(self, path, 0o644)
    }
    fn open(&mut self, path: &str, write: bool) -> Result<u32, FsError> {
        MicroFs::open(self, path, flags(write), 0)
    }
    fn write(&mut self, fd: u32, data: &[u8]) -> Result<usize, FsError> {
        MicroFs::write(self, fd, data)
    }
    fn pwrite(&mut self, fd: u32, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        MicroFs::pwrite(self, fd, offset, data)
    }
    fn read(&mut self, fd: u32, buf: &mut [u8]) -> Result<usize, FsError> {
        MicroFs::read(self, fd, buf)
    }
    fn fsync(&mut self, fd: u32) -> Result<(), FsError> {
        MicroFs::fsync(self, fd)
    }
    fn close(&mut self, fd: u32) -> Result<(), FsError> {
        MicroFs::close(self, fd)
    }
    fn stat(&mut self, path: &str) -> Result<(), FsError> {
        MicroFs::stat(self, path).map(|_| ())
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        MicroFs::rename(self, from, to)
    }
    fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        MicroFs::unlink(self, path)
    }
}

impl<D: BlockDevice> Posix for PosixLayer<D> {
    fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        PosixLayer::mkdir(self, path, 0o755)
    }
    fn create(&mut self, path: &str) -> Result<u32, FsError> {
        self.creat(path, 0o644)
    }
    fn open(&mut self, path: &str, write: bool) -> Result<u32, FsError> {
        PosixLayer::open(self, path, flags(write), 0)
    }
    fn write(&mut self, fd: u32, data: &[u8]) -> Result<usize, FsError> {
        PosixLayer::write(self, fd, data)
    }
    /// The shim interposes `lseek` + `write`, which is what a `pwrite`
    /// through it amounts to.
    fn pwrite(&mut self, fd: u32, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        self.lseek(fd, offset)?;
        PosixLayer::write(self, fd, data)
    }
    fn read(&mut self, fd: u32, buf: &mut [u8]) -> Result<usize, FsError> {
        PosixLayer::read(self, fd, buf)
    }
    fn fsync(&mut self, fd: u32) -> Result<(), FsError> {
        PosixLayer::fsync(self, fd)
    }
    fn close(&mut self, fd: u32) -> Result<(), FsError> {
        PosixLayer::close(self, fd)
    }
    fn stat(&mut self, path: &str) -> Result<(), FsError> {
        PosixLayer::stat(self, path).map(|_| ())
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        PosixLayer::rename(self, from, to)
    }
    fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        PosixLayer::unlink(self, path)
    }
}

/// What running a script came to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptOutcome {
    /// Calls made.
    pub attempted: u64,
    /// Calls that returned an error or moved fewer bytes than asked.
    pub failed: u64,
    /// Bytes handed to `write`/`pwrite` by calls that succeeded.
    pub app_bytes: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl ScriptOutcome {
    pub fn absorb(&mut self, other: ScriptOutcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.app_bytes += other.app_bytes;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Count one more checked step of the harness (a commit, a recover, a
    /// failover).
    pub fn check<E: std::fmt::Display>(&mut self, what: &str, result: Result<(), E>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(format!("{what}: {e}"));
        }
    }

    /// Count one more checked condition (a byte comparison, a conservation
    /// law); `detail` says what was found when it does not hold.
    pub fn ensure(&mut self, what: &str, holds: bool, detail: impl FnOnce() -> String) {
        self.check(what, if holds { Ok(()) } else { Err(detail()) });
    }
}

/// Run `ops` against `fs`. Every call is attempted even after a failure
/// (a failed `Create` makes the calls on its descriptor fail too), so the
/// failure count is the number of calls that did not do their work. With
/// `spans`, each call is recorded as a span of `rank` under `parent`.
pub fn run_script<P: Posix>(
    fs: &mut P,
    ops: &[Op],
    payload: &[u8],
    readbuf: &mut [u8],
    rank: u32,
    mut spans: Option<(&mut SpanBuf<'_>, u64)>,
) -> ScriptOutcome {
    let mut out = ScriptOutcome::default();
    let mut fd: Option<u32> = None;
    let no_fd = || FsError::Io("no open descriptor".into());
    for op in ops {
        if let Some((buf, parent)) = spans.as_mut() {
            buf.enter(op.name(), rank, *parent);
        }
        let result: Result<(), FsError> = match op {
            Op::Mkdir(p) => fs.mkdir(p),
            Op::Create(p) => fs.create(p).map(|f| fd = Some(f)),
            Op::Open { path, write } => fs.open(path, *write).map(|f| fd = Some(f)),
            Op::Write { off, len } => fd
                .ok_or_else(no_fd)
                .and_then(|f| fs.write(f, &payload[*off..*off + *len]))
                .and_then(|n| short(n, *len)),
            Op::Pwrite { file_off, off, len } => fd
                .ok_or_else(no_fd)
                .and_then(|f| fs.pwrite(f, *file_off, &payload[*off..*off + *len]))
                .and_then(|n| short(n, *len)),
            Op::Read { off, len } => fd.ok_or_else(no_fd).and_then(|f| {
                let dst = &mut readbuf[*off..*off + *len];
                let mut got = 0;
                while got < dst.len() {
                    match fs.read(f, &mut dst[got..])? {
                        0 => break,
                        n => got += n,
                    }
                }
                short(got, *len)
            }),
            Op::Fsync => fd.ok_or_else(no_fd).and_then(|f| fs.fsync(f)),
            Op::Close => fd.take().ok_or_else(no_fd).and_then(|f| fs.close(f)),
            Op::Stat(p) => fs.stat(p),
            Op::Rename(a, b) => fs.rename(a, b),
            Op::Unlink(p) => fs.unlink(p),
        };
        if let Some((buf, _)) = spans.as_mut() {
            buf.exit();
        }
        out.attempted += 1;
        match result {
            Ok(()) => out.app_bytes += op.app_bytes(),
            Err(e) => {
                out.failed += 1;
                out.first_error
                    .get_or_insert_with(|| format!("rank {rank} {}: {e}", op.name()));
            }
        }
    }
    out
}

fn short(moved: usize, asked: usize) -> Result<(), FsError> {
    if moved == asked {
        Ok(())
    } else {
        Err(FsError::Io(format!("moved {moved} of {asked} bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfs::{FsConfig, MemDevice};

    fn spec(name: &str) -> Spec {
        specs(true).into_iter().find(|s| s.name == name).unwrap()
    }

    fn mem_fs(block_size: u64) -> MicroFs<MemDevice> {
        let cfg = FsConfig {
            block_size,
            telemetry: telemetry::Telemetry::new(),
            ..FsConfig::default()
        };
        MicroFs::format(MemDevice::new(64 << 20), cfg).unwrap()
    }

    /// Run every round and the restart of rank 3 on `fs`, with `prefix`
    /// before every path, and check the read-back both ways.
    fn round_trip<P: Posix>(fs: &mut P, prefix: &str, s: &Spec) {
        let (seed, rank) = (5, 3);
        let mut payload = vec![0u8; s.payload_bytes];
        let mut readbuf = vec![0u8; readback_bytes(s)];
        fill_base(seed, rank, &mut payload);
        let prefixed =
            |ops: Vec<Op>| -> Vec<Op> { ops.iter().map(|o| o.prefixed(prefix)).collect() };
        let mut total = ScriptOutcome::default();
        for round in 0..s.rounds {
            prepare_round(s, seed, rank, round, &mut payload);
            let ops = prefixed(round_script(s, seed, rank, round));
            total.absorb(run_script(fs, &ops, &payload, &mut readbuf, rank, None));
        }
        let reads = read_script(s, seed, rank);
        total.absorb(run_script(
            fs,
            &prefixed(reads.clone()),
            &payload,
            &mut readbuf,
            rank,
            None,
        ));
        assert_eq!(total.failed, 0, "{} {:?}", s.name, total.first_error);
        assert!(total.app_bytes > 0);
        let verified = verify_readback(s, seed, rank, &reads, &mut payload, &readbuf);
        assert!(verified.is_some(), "{} under {prefix:?}", s.name);
        assert!(verified.unwrap() as usize > readback_bytes(s) * 9 / 10);
        readbuf[17] ^= 1;
        assert!(verify_readback(s, seed, rank, &reads, &mut payload, &readbuf).is_none());
    }

    #[test]
    fn every_script_round_trips_on_both_surfaces() {
        for s in specs(true) {
            round_trip(&mut mem_fs(s.block_size), "", &s);
            let mut shim = PosixLayer::new(mem_fs(s.block_size), "/nvmecr");
            round_trip(&mut shim, "/nvmecr", &s);
        }
    }

    #[test]
    fn seed_drives_bytes_chunks_and_file_order() {
        let s = spec("ckpt_stream");
        let (mut a, mut b) = (vec![0u8; s.payload_bytes], vec![0u8; s.payload_bytes]);
        fill_base(1, 0, &mut a);
        fill_base(2, 0, &mut b);
        assert_ne!(a, b, "payload bytes follow the seed");
        let before = a.clone();
        prepare_round(&s, 1, 0, 1, &mut a);
        assert_ne!(a, before, "each round writes other bytes");

        let d = spec("ckpt_mirror_delta");
        let pick = |seed| -> Vec<Vec<usize>> {
            (1..8)
                .map(|r| delta_chunks(seed, 0, r, d.payload_bytes))
                .collect()
        };
        assert_eq!(pick(1), pick(1));
        assert_ne!(pick(1), pick(2), "dirty chunks follow the seed");

        let m = spec("meta_churn");
        assert_eq!(round_script(&m, 1, 0, 2), round_script(&m, 1, 0, 2));
        assert_ne!(
            round_script(&m, 1, 0, 2),
            round_script(&m, 2, 0, 2),
            "file order follows the seed"
        );
    }

    #[test]
    fn failed_calls_are_counted_not_hidden() {
        let mut fs = mem_fs(32 << 10);
        let ops = [
            Op::Open {
                path: "/absent".into(),
                write: false,
            },
            Op::Read { off: 0, len: 8 },
            Op::Close,
            Op::Mkdir("/ok".into()),
        ];
        let out = run_script(&mut fs, &ops, &[], &mut [0u8; 8], 0, None);
        assert_eq!((out.attempted, out.failed), (4, 3));
        assert!(out.first_error.unwrap().contains("open"));
    }

    #[test]
    fn delta_round_moves_a_tenth_of_the_image() {
        let d = spec("ckpt_mirror_delta");
        let bytes: u64 = round_script(&d, 1, 0, 1).iter().map(Op::app_bytes).sum();
        let whole = DELTA_CHUNKS_PER_ROUND * DELTA_CHUNK;
        assert!(bytes as usize <= whole && bytes as usize > whole - DELTA_CHUNK);
        let full: u64 = round_script(&d, 1, 0, 0).iter().map(Op::app_bytes).sum();
        assert_eq!(full as usize, d.payload_bytes - trim(&d, 1, 0));
        assert!(
            trim(&d, 1, 0) < DELTA_CHUNK,
            "the last chunk never vanishes"
        );
    }
}
