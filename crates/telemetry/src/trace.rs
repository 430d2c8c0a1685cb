//! Span tracing: scoped spans with parent/child nesting and typed
//! arguments, recorded into per-thread buffers and exportable as Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) and
//! JSONL.
//!
//! Tracing is globally gated by an atomic flag and OFF by default: a span
//! constructed while disabled costs one relaxed load and takes no
//! timestamp. The only way to turn tracing on is [`capture`], which holds
//! a process-wide session lock for its duration — so concurrent tests (or
//! concurrent captures) serialize instead of corrupting each other's
//! buffers. Spans themselves are recorded lock-free with respect to each
//! other: every thread appends to its own buffer.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION: Mutex<()> = Mutex::new(());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicUsize = AtomicUsize::new(1);

/// Every thread's event buffer, so `capture` can clear and drain them all.
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<TraceEvent>>>>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's event buffer, registered globally on first use.
    static LOCAL_BUF: Arc<Mutex<Vec<TraceEvent>>> = {
        let buf = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().push(Arc::clone(&buf));
        buf
    };
    /// Stable small id for this thread in trace output.
    static LOCAL_TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Stack of open span ids on this thread (for parent linking).
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Is a capture session currently running?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Kind of recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A scoped span with a duration (Chrome phase `X`).
    Span,
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (code-site static).
    pub name: &'static str,
    /// Category — by convention the owning layer (`ssd`, `fabric`, ...).
    pub cat: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Recording thread's stable trace id.
    pub tid: usize,
    /// Start time in ns since the capture epoch.
    pub ts_ns: u64,
    /// Duration in ns (0 for instants).
    pub dur_ns: u64,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span's id on the same thread, if any.
    pub parent: Option<u64>,
    /// Typed arguments attached via [`Span::arg`].
    pub args: Vec<(&'static str, u64)>,
}

fn now_ns() -> u64 {
    let epoch = EPOCH.lock();
    match *epoch {
        Some(e) => crate::ns_since(e),
        None => 0,
    }
}

/// An open span; records a [`TraceEvent`] when dropped. Construct via
/// [`span`]. When tracing is disabled the guard is inert.
pub struct Span {
    name: &'static str,
    cat: &'static str,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
    active: bool,
}

impl Span {
    /// Attach a typed argument (recorded into the event on drop).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if self.active {
            self.args.push((key, value));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        // The session may have ended while this span was open; still pop
        // the stack (above) but only record when enabled.
        if !enabled() {
            return;
        }
        let end_ns = now_ns();
        let ev = TraceEvent {
            name: self.name,
            cat: self.cat,
            kind: EventKind::Span,
            tid: LOCAL_TID.with(|t| *t),
            ts_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            id: self.id,
            parent: self.parent,
            args: std::mem::take(&mut self.args),
        };
        LOCAL_BUF.with(|b| b.lock().push(ev));
    }
}

/// Open a span. Near-free when no capture session is active.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            cat,
            id: 0,
            parent: None,
            start_ns: 0,
            args: Vec::new(),
            active: false,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Span {
        name,
        cat,
        id,
        parent,
        start_ns: now_ns(),
        args: Vec::new(),
        active: true,
    }
}

/// Record a point-in-time marker with optional arguments.
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let ev = TraceEvent {
        name,
        cat,
        kind: EventKind::Instant,
        tid: LOCAL_TID.with(|t| *t),
        ts_ns: now_ns(),
        dur_ns: 0,
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: SPAN_STACK.with(|s| s.borrow().last().copied()),
        args: args.to_vec(),
    };
    LOCAL_BUF.with(|b| b.lock().push(ev));
}

/// Run `f` with tracing enabled and return its result plus the captured
/// trace. Captures serialize process-wide: a second concurrent `capture`
/// blocks until the first finishes.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let _session = SESSION.lock();
    // Reset buffers from any prior session, then open the epoch.
    for buf in BUFFERS.lock().iter() {
        buf.lock().clear();
    }
    *EPOCH.lock() = Some(crate::now());
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    let mut events = Vec::new();
    for buf in BUFFERS.lock().iter() {
        events.extend(buf.lock().drain(..));
    }
    events.sort_by_key(|e| (e.ts_ns, e.id));
    (out, Trace { events })
}

/// A completed capture session's events, sorted by start time.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Trace {
    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    fn event_json(e: &TraceEvent) -> String {
        let mut args = format!("\"span_id\":{}", e.id);
        if let Some(p) = e.parent {
            args.push_str(&format!(",\"parent_id\":{p}"));
        }
        for (k, v) in &e.args {
            args.push_str(&format!(",\"{}\":{v}", escape(k)));
        }
        match e.kind {
            EventKind::Span => format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                escape(e.name),
                escape(e.cat),
                e.tid,
                e.ts_ns as f64 / 1000.0,
                e.dur_ns as f64 / 1000.0,
            ),
            EventKind::Instant => format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                 \"tid\":{},\"ts\":{:.3},\"args\":{{{args}}}}}",
                escape(e.name),
                escape(e.cat),
                e.tid,
                e.ts_ns as f64 / 1000.0,
            ),
        }
    }

    /// Export as Chrome `trace_event` JSON (object format, `traceEvents`
    /// array) — loadable in `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self.events.iter().map(Self::event_json).collect();
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\"}}",
            events.join(",")
        )
    }

    /// Export as JSONL: one Chrome-format event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&Self::event_json(e));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let s = span("test", "outside_capture");
        drop(s);
        let ((), trace) = capture(|| {});
        assert!(trace.events().is_empty());
    }

    #[test]
    fn nesting_links_parents() {
        let ((), trace) = capture(|| {
            let _a = span("test", "outer");
            {
                let _b = span("test", "inner").arg("bytes", 42);
            }
        });
        let events = trace.events();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.args, vec![("bytes", 42)]);
        // inner nests temporally inside outer
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
    }

    #[test]
    fn instants_attach_to_open_span() {
        let ((), trace) = capture(|| {
            let _a = span("test", "phase");
            instant("test", "marker", &[("k", 7)]);
        });
        let marker = trace.events().iter().find(|e| e.name == "marker").unwrap();
        assert_eq!(marker.kind, EventKind::Instant);
        assert!(marker.parent.is_some());
    }

    #[test]
    fn chrome_json_has_expected_shape() {
        let ((), trace) = capture(|| {
            let _a = span("ssd", "drain").arg("bytes", 4096);
        });
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"ssd\""));
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
    }
}
