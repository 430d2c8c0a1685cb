//! Span tracing under concurrent rank driving, one thread per rank: every
//! thread's spans nest correctly (parent links and temporal containment),
//! buffers don't interleave across threads, and the Chrome export is valid
//! JSON.

use std::collections::HashMap;
use telemetry::trace::{self, EventKind};

const RANKS: u64 = 32;
const OPS_PER_RANK: u64 = 8;

#[test]
fn nested_spans_survive_concurrent_rank_driving() {
    let ((), tr) = trace::capture(|| {
        std::thread::scope(|scope| {
            for rank in 0..RANKS {
                scope.spawn(move || {
                    let _ckpt = trace::span("driver", "checkpoint_rank").arg("rank", rank);
                    for op in 0..OPS_PER_RANK {
                        let _io = trace::span("fabric", "submit").arg("op", op);
                        trace::instant("ssd", "drain", &[("rank", rank)]);
                    }
                });
            }
        });
    });

    let events = tr.events();
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    let by_id: HashMap<u64, &telemetry::TraceEvent> = spans.iter().map(|e| (e.id, *e)).collect();

    // One checkpoint span per rank, OPS_PER_RANK submits per rank, one
    // drain instant per submit.
    let ckpts: Vec<_> = spans
        .iter()
        .filter(|e| e.name == "checkpoint_rank")
        .collect();
    let submits: Vec<_> = spans.iter().filter(|e| e.name == "submit").collect();
    assert_eq!(ckpts.len(), RANKS as usize);
    assert_eq!(submits.len(), (RANKS * OPS_PER_RANK) as usize);
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == EventKind::Instant)
            .count(),
        (RANKS * OPS_PER_RANK) as usize
    );

    // All span ids are unique (no cross-thread buffer corruption).
    assert_eq!(by_id.len(), spans.len());

    // Every submit's parent is a checkpoint span on the SAME thread, and
    // the child is temporally contained in its parent.
    for s in &submits {
        let parent = by_id[&s.parent.expect("submit must have a parent")];
        assert_eq!(parent.name, "checkpoint_rank");
        assert_eq!(parent.tid, s.tid, "parent must be on the recording thread");
        assert!(s.ts_ns >= parent.ts_ns);
        assert!(s.ts_ns + s.dur_ns <= parent.ts_ns + parent.dur_ns);
    }
    // Checkpoint spans are roots.
    for c in &ckpts {
        assert_eq!(c.parent, None);
    }

    // The Chrome export is valid JSON with one entry per event.
    let doc = telemetry::json::parse(&tr.to_chrome_json()).expect("valid Chrome trace JSON");
    let arr = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert_eq!(arr.len(), events.len());
    for ev in arr {
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap();
        assert!(ph == "X" || ph == "i");
        assert!(ev.get("ts").and_then(|v| v.as_num()).is_some());
        assert!(ev.get("args").and_then(|v| v.as_obj()).is_some());
    }

    // JSONL: every line parses on its own.
    let jsonl = tr.to_jsonl();
    assert_eq!(jsonl.lines().count(), events.len());
    for line in jsonl.lines() {
        telemetry::json::parse(line).expect("each JSONL line is valid JSON");
    }
}
