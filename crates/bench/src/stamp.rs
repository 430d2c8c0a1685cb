//! Provenance stamping for `BENCH_*.json` artifacts.
//!
//! Every bench emission carries a `meta` object: the artifact schema
//! version, the git commit the binary was built from, and the config
//! fingerprint that shaped the run (queue depth, ranks, replication
//! factor, delta chain length). A regression found in CI is then
//! attributable to an exact commit and configuration without having to
//! re-derive either from the workflow logs.

use std::fmt::Write as _;
use std::process::Command;

/// Version of the `BENCH_*.json` artifact layout. Bump when a bench
/// renames or removes keys (adding keys is backward compatible).
pub const SCHEMA_VERSION: u32 = 3;

/// The runtime knobs that shape a bench run's numbers.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    /// Fabric submission-window depth.
    pub queue_depth: usize,
    /// Ranks driven.
    pub ranks: u32,
    /// Replication factor (1 = unreplicated).
    pub replication_factor: u32,
    /// Delta-chain length cap (0 = full manifests only).
    pub delta_chain_max: u32,
    /// How ranks were driven: `"reactor"`, the runtime's shard-per-core
    /// pool, for every bench.
    pub mode: &'static str,
    /// Reactors driving the ranks (0 = one per available core).
    pub reactors: u32,
}

/// Short git commit hash of the working tree, or `"unknown"` outside a
/// repository (artifacts must still be valid there).
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `"meta": {...},` line (two-space indented, trailing comma +
/// newline) each bench splices in right after its `"bench"` key.
pub fn meta_line(fp: &Fingerprint) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  \"meta\": {{\"schema_version\": {SCHEMA_VERSION}, \"git_commit\": \"{}\", \
         \"fingerprint\": {{\"queue_depth\": {}, \"ranks\": {}, \"replication_factor\": {}, \
         \"delta_chain_max\": {}, \"mode\": \"{}\", \"reactors\": {}}}}},",
        git_commit(),
        fp.queue_depth,
        fp.ranks,
        fp.replication_factor,
        fp.delta_chain_max,
        fp.mode,
        fp.reactors,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json;

    #[test]
    fn meta_line_is_valid_json_fragment() {
        let fp = Fingerprint {
            queue_depth: 32,
            ranks: 28,
            replication_factor: 2,
            delta_chain_max: 8,
            mode: "reactor",
            reactors: 28,
        };
        let doc = format!("{{\n  \"bench\": \"x\",\n{}  \"y\": 1\n}}", meta_line(&fp));
        let v = json::parse(&doc).unwrap();
        let meta = v.get("meta").unwrap();
        assert_eq!(
            meta.get("schema_version").unwrap().as_num(),
            Some(SCHEMA_VERSION as f64)
        );
        assert!(meta.get("git_commit").unwrap().as_str().is_some());
        let f = meta.get("fingerprint").unwrap();
        assert_eq!(f.get("queue_depth").unwrap().as_num(), Some(32.0));
        assert_eq!(f.get("replication_factor").unwrap().as_num(), Some(2.0));
        assert_eq!(f.get("mode").unwrap().as_str(), Some("reactor"));
        assert_eq!(f.get("reactors").unwrap().as_num(), Some(28.0));
    }

    #[test]
    fn git_commit_is_short_and_nonempty() {
        let c = git_commit();
        assert!(!c.is_empty());
        assert!(c.len() <= 40);
    }
}
