//! Every metric METRICS.md documents is one the program registers: each
//! table row's name appears as a string literal in some
//! `crates/*/src/**/*.rs`, before that file's first `#[cfg(test)]`. A row
//! for a metric nothing registers any more fails here instead of being
//! read as a live instrument.

use std::path::{Path, PathBuf};

/// The backticked name in the first cell of each METRICS.md table row.
fn documented_metrics(doc: &str) -> Vec<String> {
    doc.lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The non-test source of every crate: each file up to its first
/// `#[cfg(test)]`.
fn non_test_source(root: &Path) -> String {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(!files.is_empty(), "no crate sources found");
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).expect("source is readable");
            match text.find("#[cfg(test)]") {
                Some(end) => text[..end].to_string(),
                None => text,
            }
        })
        .collect()
}

#[test]
fn every_documented_metric_is_registered_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("METRICS.md")).expect("METRICS.md is readable");
    let metrics = documented_metrics(&doc);
    assert!(
        metrics.len() >= 40,
        "parsed only {} metric rows from METRICS.md",
        metrics.len()
    );
    let source = non_test_source(&root);
    let missing: Vec<&String> = metrics
        .iter()
        .filter(|m| !source.contains(&format!("\"{m}\"")))
        .collect();
    assert!(
        missing.is_empty(),
        "METRICS.md rows with no string literal in non-test source: {missing:?}"
    );
}
