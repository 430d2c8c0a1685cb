//! Benchmark-owned spans around every call into a public function of the
//! stack. Spans are recorded only in the traced run; each thread of
//! execution (the main thread, each rank closure on a reactor) collects
//! into its own [`SpanBuf`] and hands the buffer to the shared [`Tracer`]
//! once, when it is done, so recording takes no lock on the hot path.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Rank value of spans that belong to no rank (set-up, drives, recovery).
pub const NO_RANK: u32 = u32::MAX;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub job: u32,
    pub rank: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The shared sink of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A buffer for one thread of execution of `job`.
    pub fn buf(&self, job: u32) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            job,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Take every span handed in so far, ordered by start time.
    pub fn take_spans(&self) -> Vec<SpanRec> {
        let mut v = std::mem::take(
            &mut *self
                .done
                .lock()
                .expect("a span buffer panicked while flushing"),
        );
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Spans of one thread of execution; flushed to the tracer on drop.
pub struct SpanBuf<'t> {
    tracer: &'t Tracer,
    job: u32,
    open: Vec<(u64, u64, u32, &'static str, u64)>,
    spans: Vec<SpanRec>,
}

impl SpanBuf<'_> {
    /// Open a span whose parent is the innermost open span of this
    /// buffer, or `root_parent` when none is open. Returns its id.
    pub fn enter(&mut self, name: &'static str, rank: u32, root_parent: u64) -> u64 {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().map_or(root_parent, |o| o.0);
        self.open
            .push((id, parent, rank, name, self.tracer.now_ns()));
        id
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.tracer.now_ns();
        let (id, parent, rank, name, start_ns) =
            self.open.pop().expect("exit without a matching enter");
        self.spans.push(SpanRec {
            id,
            parent,
            job: self.job,
            rank,
            name,
            start_ns,
            end_ns,
        });
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        // A poisoned sink means another thread already panicked; the
        // trace is lost either way and Drop must not panic again.
        if let Ok(mut done) = self.tracer.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Write spans as JSON lines: `id, parent, job, rank, name, start_ns,
/// end_ns`; `rank` is -1 for spans that belong to no rank.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let rank = if s.rank == NO_RANK {
            -1
        } else {
            i64::from(s.rank)
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"rank\":{rank},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Duration and self time of every span, grouped by name.
pub struct SpanTable {
    /// name → durations in ns, one per span.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// name → summed self time in ns (duration minus the union of the
    /// direct children).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl SpanTable {
    pub fn build(spans: &[SpanRec]) -> Self {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in spans {
            durations
                .entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64);
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            *self_ns.entry(s.name).or_default() += stats::self_time(s.start_ns, s.end_ns, kids);
        }
        SpanTable { durations, self_ns }
    }

    /// Median duration of the spans called `name`, in ns; `None` when the
    /// workload never made that call.
    pub fn p50_ns(&self, name: &str) -> Option<f64> {
        self.durations.get(name).map(|d| stats::median(d))
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_links_parents_and_buffers_flush_on_drop() {
        let t = Tracer::new();
        let drive;
        {
            let mut main = t.buf(3);
            drive = main.enter("drive", NO_RANK, 0);
            {
                let mut rank = t.buf(3);
                rank.enter("rank", 7, drive);
                rank.enter("write", 7, 0);
                rank.exit();
                rank.exit();
            }
            main.exit();
        }
        let spans = t.take_spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("drive").parent, 0);
        assert_eq!(by_name("rank").parent, drive);
        assert_eq!(by_name("write").parent, by_name("rank").id);
        assert!(spans.iter().all(|s| s.job == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn table_subtracts_direct_children_only() {
        let s = |id, parent, name, start_ns, end_ns| SpanRec {
            id,
            parent,
            job: 0,
            rank: 0,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            s(1, 0, "drive", 0, 100),
            s(2, 1, "rank", 10, 60),
            s(3, 1, "rank", 40, 90),
            s(4, 2, "write", 20, 30),
        ];
        let t = SpanTable::build(&spans);
        assert_eq!(t.self_ns["drive"], 20);
        assert_eq!(t.self_ns["rank"], 40 + 50);
        assert_eq!(t.self_ns["write"], 10);
        assert_eq!(t.count("rank"), 2);
        assert_eq!(t.p50_ns("rank"), Some(50.0));
        assert_eq!(t.p50_ns("absent"), None);
    }
}
