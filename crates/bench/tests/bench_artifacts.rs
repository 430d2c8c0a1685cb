//! Every `BENCH_*.json` artifact at the workspace root is current: it
//! parses, carries the stamp schema this tree writes, and says its ranks
//! were driven by the reactor pool — the only executor. A stale file from
//! a deleted mode or an older layout fails here instead of being quoted.

use std::path::Path;

use nvmecr_bench::stamp::SCHEMA_VERSION;
use telemetry::json::{self, Value};

/// The artifacts the repository commits; each must be present, so the
/// scan below can never pass on an empty directory.
const COMMITTED: [&str; 4] = [
    "BENCH_dataplane.json",
    "BENCH_incremental.json",
    "BENCH_pipeline.json",
    "BENCH_replication.json",
];

fn check(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let meta = doc.get("meta").ok_or("no meta object")?;
    let version = meta
        .get("schema_version")
        .and_then(Value::as_num)
        .ok_or("no meta.schema_version")?;
    if version != f64::from(SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {version}, this tree writes {SCHEMA_VERSION}"
        ));
    }
    let mode = meta
        .get("fingerprint")
        .and_then(|f| f.get("mode"))
        .and_then(Value::as_str)
        .ok_or("no meta.fingerprint.mode")?;
    if mode != "reactor" {
        return Err(format!("fingerprint.mode is {mode:?}, not \"reactor\""));
    }
    Ok(())
}

#[test]
fn every_bench_artifact_is_stamped_with_the_current_schema_and_mode() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&root).expect("workspace root is readable") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        // Chrome trace-event files ride beside the telemetry artifact and
        // carry no stamp of their own.
        if !name.starts_with("BENCH_") || !name.ends_with(".json") || name.ends_with(".trace.json")
        {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&name)).expect("artifact is readable");
        if let Err(e) = check(&text) {
            panic!("{name}: {e}");
        }
        seen.push(name);
    }
    for name in COMMITTED {
        assert!(
            seen.iter().any(|s| s == name),
            "{name} is missing from the workspace root"
        );
    }
}
