//! The v3 dataflow families against their fixture workspaces: the
//! green workspace (`capws`) is clean under C1/U1/L1, the red one
//! (`dataws`) trips every shape each family promises to catch — and
//! nothing it promises to leave alone.

use anr_lint::{lint_workspace, parse_capabilities, LintOptions, LintReport, EFFECTS};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"))
}

fn lint_at(root: &Path, workers: usize) -> LintReport {
    lint_workspace(&LintOptions {
        root: root.to_path_buf(),
        workers,
    })
    .expect("lint run succeeds")
}

fn rule_findings<'a>(report: &'a LintReport, rule: &str) -> Vec<&'a anr_lint::Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

/// The green workspace: manifest matches the surface, the read is
/// bounded, the wait re-checks its predicate, guards recover poison.
#[test]
fn green_workspace_is_clean_under_dataflow_rules() {
    let report = lint_at(&fixture_root("capws"), 1);
    for rule in ["C1", "U1", "L1"] {
        let got = rule_findings(&report, rule);
        assert!(
            got.is_empty(),
            "green fixture must be clean under {rule}: {:?}",
            got.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
    }
    // The bounded read still shows up as a *bounded* flow.
    assert!(
        report.taint.flows.iter().all(|f| f.bounded),
        "green flows must all be bounded: {:?}",
        report.taint.flows
    );
    assert!(!report.taint.flows.is_empty(), "the bounded read is traced");
    // The sanctioned socket is on the computed surface.
    let caps = report.caps.to_jsonl();
    assert!(
        caps.contains("\"effect\":\"net\""),
        "alpha's net effect:\n{caps}"
    );
}

/// C1 red: beta reaches `net` through alpha while declaring nothing,
/// and the finding carries the cross-crate chain.
#[test]
fn capability_excess_is_flagged_with_chain() {
    let report = lint_at(&fixture_root("dataws"), 1);
    let c1 = rule_findings(&report, "C1");
    assert_eq!(c1.len(), 1, "exactly beta's excess: {c1:?}");
    let f = c1[0];
    assert!(
        f.message.contains("beta") && f.message.contains("net"),
        "{}",
        f.message
    );
    let path = f.path.as_deref().expect("C1 carries the chain");
    assert!(
        path.contains("relay") && path.contains("dial"),
        "chain should cross into alpha: {path}"
    );
}

/// U1 red: the unbounded read is flagged at its `with_capacity`, the
/// bounded twin is traced as a bounded flow and not flagged.
#[test]
fn tainted_allocation_is_flagged_unless_bounded() {
    let report = lint_at(&fixture_root("dataws"), 1);
    let u1 = rule_findings(&report, "U1");
    assert_eq!(u1.len(), 1, "exactly the unbounded twin: {u1:?}");
    assert!(
        u1[0].message.contains("with_capacity"),
        "the sink is the allocation: {}",
        u1[0].message
    );
    let open: Vec<_> = report.taint.flows.iter().filter(|f| !f.bounded).collect();
    let bounded: Vec<_> = report.taint.flows.iter().filter(|f| f.bounded).collect();
    assert_eq!(open.len(), 1, "one open flow: {open:?}");
    assert!(
        !bounded.is_empty(),
        "the bounded twin is traced: {bounded:?}"
    );
}

/// L1 red: the two-mutex cycle, the bare wait, and the unwrapped lock
/// guards all fire; the `while`-guarded wait does not.
#[test]
fn lock_discipline_catches_all_three_shapes() {
    let report = lint_at(&fixture_root("dataws"), 1);
    let l1 = rule_findings(&report, "L1");
    assert!(
        l1.iter().any(|f| f.message.contains("cycle")),
        "the p.a/p.b order cycle: {l1:?}"
    );
    assert!(
        l1.iter().any(|f| f.message.contains("wait")),
        "the bare Condvar::wait: {l1:?}"
    );
    assert!(
        l1.iter().any(|f| f.message.contains("unwrap")),
        "the poisoning unwraps: {l1:?}"
    );
    assert_eq!(report.locks.cycles.len(), 1, "one canonical cycle");
    // Exactly one of the two waits is unguarded.
    let unguarded: Vec<_> = report
        .locks
        .waits
        .iter()
        .filter(|(_, _, guarded)| !guarded)
        .collect();
    assert_eq!(
        unguarded.len(),
        1,
        "bare_wait only: {:?}",
        report.locks.waits
    );
}

/// The capability surface is byte-identical across runs and worker
/// counts — the determinism bar the analyzer itself enforces.
#[test]
fn capability_surface_is_deterministic() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let first = lint_at(&repo, 1).caps.to_jsonl();
    assert_eq!(
        first,
        lint_at(&repo, 1).caps.to_jsonl(),
        "same run, same bytes"
    );
    assert_eq!(
        first,
        lint_at(&repo, 4).caps.to_jsonl(),
        "workers must not reorder"
    );
    assert!(first.contains("\"schema\":\"anr-lint-caps/1\""));
}

/// The checked-in manifest parses, declares only known effects, and
/// covers every crate the analyzer computes a surface for.
#[test]
fn repo_manifest_is_well_formed_and_complete() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let text = std::fs::read_to_string(repo.join("lint.capabilities.toml"))
        .expect("manifest is checked in");
    let manifest = parse_capabilities(&text).expect("manifest parses");
    for (name, (_, effects)) in &manifest.entries {
        for e in effects {
            assert!(
                EFFECTS.contains(&e.as_str()),
                "unknown effect `{e}` declared for `{name}`"
            );
        }
    }
    // Completeness is what the workspace gate enforces: a crate with an
    // undeclared surface is a C1 error, and `self_clean` requires zero.
    let report = lint_at(&repo, 1);
    assert!(
        rule_findings(&report, "C1").is_empty(),
        "manifest matches surface"
    );
}
