//! Byte-for-byte goldens of the analyzer's output. Each fixture
//! workspace's findings, panics, caps and models JSONL plus its taint
//! and locks reports must equal `tests/golden/<ws>.txt`, and the
//! per-file findings of every single-file fixture must equal
//! `tests/golden/single_files.txt`. Both hold at 1 and 4 workers.

use anr_lint::{lint_workspace, scan_source, LintOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn tests_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests")
}

fn golden(name: &str) -> String {
    let path = tests_dir().join("golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every artifact of one workspace run, each under a `==> name <==`
/// header.
fn artifacts(ws: &str, workers: usize) -> String {
    let report = lint_workspace(&LintOptions {
        root: tests_dir().join("fixtures").join(ws),
        workers,
    })
    .expect("lint run succeeds");
    let mut out = String::new();
    for (name, text) in [
        ("findings", report.to_jsonl()),
        ("panics", report.panics.to_jsonl()),
        ("caps", report.caps.to_jsonl()),
        ("models", report.models.to_jsonl()),
        ("taint", report.taint.to_human()),
        ("locks", report.locks.to_human()),
    ] {
        let _ = writeln!(out, "==> {name} <==");
        out.push_str(&text);
    }
    out
}

fn check_workspace(ws: &str) {
    let want = golden(&format!("{ws}.txt"));
    for workers in [1, 4] {
        assert_eq!(
            artifacts(ws, workers),
            want,
            "{ws} artifacts drifted from the golden at {workers} worker(s)"
        );
    }
}

#[test]
fn capws_artifacts_match_golden() {
    check_workspace("capws");
}

#[test]
fn dataws_artifacts_match_golden() {
    check_workspace("dataws");
}

#[test]
fn graphws_artifacts_match_golden() {
    check_workspace("graphws");
}

#[test]
fn modelws_artifacts_match_golden() {
    check_workspace("modelws");
}

#[test]
fn sinkws_artifacts_match_golden() {
    check_workspace("sinkws");
}

/// The single-file fixtures, by name.
const SINGLE_FILES: &[(&str, &str)] = &[
    ("d1_bad.rs", include_str!("fixtures/d1_bad.rs")),
    ("d1_ok.rs", include_str!("fixtures/d1_ok.rs")),
    ("d2_bad.rs", include_str!("fixtures/d2_bad.rs")),
    ("d2_ok.rs", include_str!("fixtures/d2_ok.rs")),
    ("d3_bad.rs", include_str!("fixtures/d3_bad.rs")),
    ("d3_ok.rs", include_str!("fixtures/d3_ok.rs")),
    ("d4_bad.rs", include_str!("fixtures/d4_bad.rs")),
    ("d4_ok.rs", include_str!("fixtures/d4_ok.rs")),
    ("f1_bad.rs", include_str!("fixtures/f1_bad.rs")),
    ("f1_ok.rs", include_str!("fixtures/f1_ok.rs")),
    ("h1_bad.rs", include_str!("fixtures/h1_bad.rs")),
    ("h1_ok.rs", include_str!("fixtures/h1_ok.rs")),
    ("heap_ord_ok.rs", include_str!("fixtures/heap_ord_ok.rs")),
    (
        "lexer_byte_chars.rs",
        include_str!("fixtures/lexer_byte_chars.rs"),
    ),
    (
        "lexer_nested_comments.rs",
        include_str!("fixtures/lexer_nested_comments.rs"),
    ),
    (
        "lexer_raw_strings.rs",
        include_str!("fixtures/lexer_raw_strings.rs"),
    ),
    ("p1_bad.rs", include_str!("fixtures/p1_bad.rs")),
    ("p1_ok.rs", include_str!("fixtures/p1_ok.rs")),
    ("t1_ok.rs", include_str!("fixtures/t1_ok.rs")),
    ("t1_span_bad.rs", include_str!("fixtures/t1_span_bad.rs")),
    ("t1_twin_bad.rs", include_str!("fixtures/t1_twin_bad.rs")),
];

/// Paths each fixture is scanned at: a library module, a crate root, a
/// binary, a test target, and the D2 and D3 exemptions.
const SCAN_PATHS: &[&str] = &[
    "crates/core/src/fixture.rs",
    "crates/core/src/lib.rs",
    "crates/cli/src/fixture.rs",
    "crates/core/tests/fixture.rs",
    "crates/trace/src/wall.rs",
    "crates/par/src/pool.rs",
];

#[test]
fn single_file_findings_match_golden() {
    let mut out = String::new();
    for (name, src) in SINGLE_FILES {
        for path in SCAN_PATHS {
            let _ = writeln!(out, "==> {name} @ {path} <==");
            for f in scan_source(path, src) {
                let _ = writeln!(
                    out,
                    "{}:{} {} {} {} | {}",
                    f.line,
                    f.col,
                    f.rule,
                    f.severity.as_str(),
                    f.message,
                    f.hint
                );
            }
        }
    }
    assert_eq!(
        out,
        golden("single_files.txt"),
        "per-file findings drifted from the golden"
    );
}
