//! Integration tests for the interprocedural layer: the cross-crate
//! call graph against its golden artifact, S1 panic-reachability on an
//! injected entry-point chain, and panic-report determinism on the
//! real workspace.

use anr_lint::{lint_workspace, LintOptions, LintReport, ENTRY_POINTS};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

fn graphws_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graphws")
}

fn lint_at(root: &Path, workers: usize) -> LintReport {
    let options = LintOptions {
        root: root.to_path_buf(),
        workers,
    };
    lint_workspace(&options).expect("lint run succeeds")
}

/// The fixture workspace — cross-crate calls, trait-method dispatch,
/// and a `pub use` re-export — serializes to exactly the checked-in
/// `anr-lint-graph/1` golden file, for any worker count.
#[test]
fn call_graph_matches_golden_file() {
    let golden = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graphws.golden.jsonl"),
    )
    .expect("golden file");
    let first = lint_at(&graphws_root(), 1).graph.to_jsonl();
    assert_eq!(first, golden, "graph drifted from the golden artifact");
    // Byte-identical on a second run and with parallel scanning.
    assert_eq!(lint_at(&graphws_root(), 1).graph.to_jsonl(), golden);
    assert_eq!(lint_at(&graphws_root(), 4).graph.to_jsonl(), golden);
}

/// The golden graph encodes the semantic facts the S-rules rely on:
/// the trait-method call from `beta` resolves into `alpha`, and the
/// re-exported free function is linked despite the `pub use`.
#[test]
fn call_graph_resolves_cross_crate_edges() {
    let graph = lint_at(&graphws_root(), 1).graph;
    let jsonl = graph.to_jsonl();
    let run_line = jsonl
        .lines()
        .find(|l| l.contains("\"fn\":\"beta::run\""))
        .expect("beta::run node");
    // beta::run must call at least the method-dispatch candidates and
    // the re-exported alpha::deep — i.e. a non-empty cross-crate edge
    // list.
    assert!(
        !run_line.contains("\"calls\":[]"),
        "beta::run resolved no callees: {run_line}"
    );
    let deep_id: usize = jsonl
        .lines()
        .find(|l| l.contains("\"fn\":\"alpha::deep\""))
        .and_then(|l| {
            let tail = l.split("\"id\":").nth(1)?;
            tail.split(',').next()?.trim().parse().ok()
        })
        .expect("alpha::deep node with id");
    assert!(
        run_line.contains(&format!("{deep_id}")),
        "beta::run must link the re-exported alpha::deep (id {deep_id}): {run_line}"
    );
}

/// Acceptance criterion: injecting a call from `march` to an
/// unwrap-bearing helper turns S1 red, with the full chain reported.
#[test]
fn injected_march_panic_chain_turns_s1_red() {
    assert!(ENTRY_POINTS.contains(&"march"), "march is a guarded entry");
    let scratch = std::env::temp_dir().join(format!("anr-lint-s1-{}", std::process::id()));
    let src_dir = scratch.join("crates/demo/src");
    fs::create_dir_all(&src_dir).expect("scratch dirs");
    fs::write(
        src_dir.join("lib.rs"),
        "#![forbid(unsafe_code)]\n#![deny(unreachable_pub)]\n\
         //! Scratch crate.\n\
         pub fn march(x: Option<u32>) -> u32 { helper(x) }\n\
         fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("scratch lib.rs");

    let report = lint_at(&scratch, 1);
    let s1: Vec<_> = report.findings.iter().filter(|f| f.rule == "S1").collect();
    assert_eq!(s1.len(), 1, "exactly one entry point reaches the panic");
    assert!(!s1[0].baselined);
    let chain = s1[0].path.as_deref().expect("S1 carries its chain");
    assert_eq!(chain, "demo::march -> demo::helper");
    assert!(s1[0].message.contains("`.unwrap()`"));

    // A path-justified baseline entry absorbs it; a mismatched path
    // does not.
    fs::write(
        scratch.join("lint.allow.toml"),
        "[[allow]]\nrule = \"S1\"\nfile = \"crates/demo/src/lib.rs\"\n\
         path = \"demo::helper\"\ncount = 1\nreason = \"fixture\"\n",
    )
    .expect("scratch baseline");
    let report = lint_workspace(&LintOptions {
        root: scratch.clone(),
        workers: 1,
    })
    .expect("scratch lint");
    assert!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "S1")
            .all(|f| f.baselined),
        "path-pinned entry must absorb the matching chain"
    );

    fs::remove_dir_all(&scratch).expect("scratch cleanup");
}

/// Acceptance criterion: the panic-reachability report over the real
/// workspace — including every guarded pipeline entry point — is
/// byte-identical across runs and worker counts.
#[test]
fn panics_report_is_deterministic_on_this_workspace() {
    let a = lint_at(&repo_root(), 1).panics.to_jsonl();
    let b = lint_at(&repo_root(), 1).panics.to_jsonl();
    let c = lint_at(&repo_root(), 4).panics.to_jsonl();
    assert_eq!(a, b, "panics report differs between runs");
    assert_eq!(a, c, "panics report differs across worker counts");
    assert!(a.starts_with("{\"schema\":\"anr-lint-panics/1\""));
    // Every guarded entry point appears in the report.
    for entry in ENTRY_POINTS {
        assert!(
            a.contains(&format!("::{entry}\"")),
            "panics report missing entry point {entry}"
        );
    }
}
