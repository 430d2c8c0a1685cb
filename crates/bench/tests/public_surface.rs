//! Public-surface ratchet: every public item of the workspace is reached
//! by some program, or is listed below with the reason it stays.
//!
//! The scan covers each `pub fn`/`struct`/`enum`/`trait`/`const`/`type`/
//! `static` in `crates/*/src`, up to its file's first `#[cfg(test)]`. An
//! item counts as used when its name appears anywhere else in the
//! non-test, non-comment source of `crates/*/src` (bins included),
//! `crates/*/benches`, `examples/` and `perf/src`. The check is by name,
//! not by path: a name shared with another item is taken as used.
//!
//! The test fails on an unused item missing from [`ALLOWED`], and on an
//! [`ALLOWED`] entry that is used again or no longer exists, so the list
//! only shrinks by deleting items or by putting them to use.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// `(path::name, reason)` of each public item kept without a non-test
/// caller.
const ALLOWED: &[(&str, &str)] = &[
    (
        "crates/bench/src/report.rs::series_named",
        "the figure tests pick one curve out of a figure with it",
    ),
    (
        "crates/cluster/src/topology.rs::synthetic",
        "multi-rack clusters for the balancer, failure-domain and fault tests; programs run paper_testbed",
    ),
    (
        "crates/core/src/metrics.rs::required_bandwidth_factor",
        "the bandwidth-saving factor of the paper's section I-B; tests/scaling.rs checks the claim with it",
    ),
    (
        "crates/core/src/replication.rs::is_degraded",
        "replication tests observe a degraded mirror with it",
    ),
    (
        "crates/core/src/runtime.rs::fsck_rank",
        "tests/end_to_end.rs checks crashed partitions over NVMf with it",
    ),
    (
        "crates/core/src/runtime.rs::is_mounted",
        "tests/chaos_recovery.rs observes which ranks a recovery left mounted",
    ),
    (
        "crates/core/src/runtime.rs::rank_storage_node",
        "crash, chaos and placement tests observe where a failover moved a rank",
    ),
    (
        "crates/fabric/src/initiator.rs::keep_alive",
        "the only producer of Opcode::Connect; dropping it changes the wire format",
    ),
    (
        "crates/fabric/src/initiator.rs::qp_counters",
        "initiator tests observe queue-pair send and receive counts",
    ),
    (
        "crates/fabric/src/sg.rs::segment_count",
        "capsule and queue-pair tests check how many segments a capsule travels in",
    ),
    (
        "crates/microfs/src/btree.rs::check_invariants",
        "the structural oracle of the B+Tree tests",
    ),
    (
        "crates/microfs/src/error.rs::APPEND",
        "POSIX open flag of the microfs surface, kept for a POSIX-semantics oracle to drive",
    ),
    (
        "crates/microfs/src/error.rs::CREATE_EXCL",
        "POSIX open flag of the microfs surface, kept for a POSIX-semantics oracle to drive",
    ),
    (
        "crates/microfs/src/fs.rs::ftruncate",
        "POSIX call of the microfs surface, kept for a POSIX-semantics oracle to drive",
    ),
    (
        "crates/microfs/src/fs.rs::pread",
        "POSIX call of the microfs surface, kept for a POSIX-semantics oracle to drive",
    ),
    (
        "crates/microfs/src/fs.rs::readdir",
        "POSIX call of the microfs surface, kept for a POSIX-semantics oracle to drive",
    ),
    (
        "crates/microfs/src/fs.rs::readdir_from_device",
        "tests/crash_recovery.rs compares the on-device directory file with the DRAM index",
    ),
    (
        "crates/microfs/src/fs.rs::statfs",
        "POSIX call of the microfs surface, kept for a POSIX-semantics oracle to drive",
    ),
    (
        "crates/microfs/src/fsck.rs::is_clean",
        "the verdict fsck tests assert on; programs read the report's fields",
    ),
    (
        "crates/microfs/src/manifest.rs::max_extents",
        "manifest tests fill a slot to its capacity with it",
    ),
    (
        "crates/microfs/src/wal/mod.rs::would_fit",
        "WAL tests probe the room left in the region",
    ),
    (
        "crates/simkit/src/time.rs::as_micros",
        "tests read simulated times in microseconds",
    ),
    (
        "crates/simkit/src/time.rs::time_for",
        "model tests compute expected transfer times",
    ),
    (
        "crates/ssd/src/backing.rs::resident_bytes",
        "sparse-store tests observe resident pages",
    ),
    (
        "crates/ssd/src/config.rs::write_rate_for",
        "SSD model tests derive expected per-request rates",
    ),
    (
        "crates/ssd/src/device.rs::ns_io_counters",
        "tests/concurrent_ranks.rs and fabric tests check per-namespace IO accounting",
    ),
    (
        "crates/ssd/src/device.rs::revive",
        "fault tests undo NsShard::kill with it",
    ),
    (
        "crates/telemetry/src/context.rs::current_epoch",
        "span-context tests read the ambient epoch",
    ),
    (
        "crates/telemetry/src/context.rs::current_rank",
        "span-context tests read the ambient rank",
    ),
    (
        "crates/workloads/src/driver.rs::state_hash",
        "tests/reactor_modes.rs compares the filesystem state each reactor mode leaves",
    ),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A file's text up to its first `#[cfg(test)]` line.
fn non_test_part(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("source is readable");
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .collect::<Vec<_>>()
        .join("\n")
}

/// `text` with `//` line comments (doc comments included) and `/* */`
/// block comments blanked out.
fn strip_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while !rest.is_empty() {
        if let Some(after) = rest.strip_prefix("//") {
            rest = after.find('\n').map_or("", |i| &after[i..]);
        } else if let Some(after) = rest.strip_prefix("/*") {
            rest = after.find("*/").map_or("", |i| &after[i + 2..]);
            out.push(' ');
        } else if rest.starts_with('"') {
            // Copy a string literal whole, so a `//` inside it stays.
            let mut end = 1;
            let bytes = rest.as_bytes();
            while end < bytes.len() && bytes[end] != b'"' {
                end += if bytes[end] == b'\\' { 2 } else { 1 };
            }
            let end = (end + 1).min(rest.len());
            out.push_str(&rest[..end]);
            rest = &rest[end..];
        } else {
            let c = rest.chars().next().expect("non-empty");
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The name a line declares, if it opens a public item of a scanned kind.
fn public_item(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const fn ", "unsafe fn ", "async fn "] {
        if let Some(r) = rest.strip_prefix(qualifier) {
            rest = r;
            return ident_prefix(rest);
        }
    }
    for kind in [
        "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ",
    ] {
        if let Some(r) = rest.strip_prefix(kind) {
            return ident_prefix(r.strip_prefix("mut ").unwrap_or(r));
        }
    }
    None
}

fn ident_prefix(s: &str) -> Option<&str> {
    let end = s.find(|c: char| !is_ident(c)).unwrap_or(s.len());
    (end > 0).then(|| &s[..end])
}

/// `path::name` of every public item whose name appears nowhere but in
/// its own definition(s).
fn unused_public_items(root: &Path) -> Vec<String> {
    let mut defining = Vec::new();
    let mut corpus = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let krate = krate.expect("dir entry").path();
        rust_files(&krate.join("src"), &mut defining);
        rust_files(&krate.join("benches"), &mut corpus);
    }
    rust_files(&root.join("examples"), &mut corpus);
    rust_files(&root.join("perf/src"), &mut corpus);
    corpus.extend(defining.iter().cloned());
    assert!(!defining.is_empty(), "no crate sources found");

    let mut uses: HashMap<String, usize> = HashMap::new();
    for file in &corpus {
        let code = strip_comments(&non_test_part(file));
        for word in code.split(|c: char| !is_ident(c)) {
            if !word.is_empty() {
                *uses.entry(word.to_string()).or_default() += 1;
            }
        }
    }
    let mut items: Vec<(String, String)> = Vec::new();
    for file in &defining {
        let rel = file.strip_prefix(root).expect("under the root");
        let code = strip_comments(&non_test_part(file));
        for line in code.lines() {
            if let Some(name) = public_item(line) {
                items.push((rel.display().to_string(), name.to_string()));
            }
        }
    }
    let mut definitions: HashMap<&str, usize> = HashMap::new();
    for (_, name) in &items {
        *definitions.entry(name).or_default() += 1;
    }
    let mut unused: Vec<String> = items
        .iter()
        .filter(|(_, name)| uses.get(name).copied().unwrap_or(0) <= definitions[name.as_str()])
        .map(|(path, name)| format!("{path}::{name}"))
        .collect();
    unused.sort();
    unused
}

#[test]
fn every_public_item_is_used_or_allowed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("repo root");
    let unused = unused_public_items(&root);
    let allowed: Vec<&str> = ALLOWED.iter().map(|&(item, _)| item).collect();
    let new: Vec<&String> = unused
        .iter()
        .filter(|u| !allowed.contains(&u.as_str()))
        .collect();
    let stale: Vec<&&str> = allowed
        .iter()
        .filter(|a| !unused.iter().any(|u| u == **a))
        .collect();
    assert!(
        new.is_empty(),
        "public items no program uses (delete them, or list them in ALLOWED with a reason): {new:#?}"
    );
    assert!(
        stale.is_empty(),
        "ALLOWED entries that are used again or gone (drop them): {stale:#?}"
    );
    for (item, reason) in ALLOWED {
        assert!(!reason.trim().is_empty(), "{item}: no reason given");
    }
}

#[test]
fn the_scan_reads_definitions_and_comments() {
    assert_eq!(public_item("    pub fn pread(&mut self)"), Some("pread"));
    assert_eq!(public_item("pub const fn ms(x: u64)"), Some("ms"));
    assert_eq!(public_item("pub static mut COUNT: u32 = 0;"), Some("COUNT"));
    assert_eq!(public_item("pub struct Wal {"), Some("Wal"));
    assert_eq!(public_item("pub(crate) fn route("), None);
    assert_eq!(public_item("pub mod wal;"), None);
    assert_eq!(public_item("pub use record::LogRecord;"), None);
    let code = strip_comments("a // b\n/* c */ d \"e // f\" g");
    let words: Vec<&str> = code
        .split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect();
    assert_eq!(words, ["a", "d", "e", "f", "g"]);
}
