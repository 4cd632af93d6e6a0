//! The v4 model-conformance family against its fixture workspace and
//! this repository: the red shapes in `modelws` each trip exactly the
//! M-rule that promises to catch them, the green protocols stay clean,
//! the `--models` artifact is deterministic, and the checked-in
//! `lint.models.toml` covers the real protocol surface.

use anr_lint::{lint_workspace, parse_models, BitBound, LintOptions, LintReport, MODEL_CLASSES};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
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

/// M1 red: the oversized message, the unprovable `Vec`, and the
/// manifest/impl message mismatch are errors; the slack budget is a
/// warning — and that is all of M1.
#[test]
fn size_bound_violations_are_flagged() {
    let report = lint_at(&fixture_root("modelws"), 1);
    let m1 = rule_findings(&report, "M1");
    // Five findings, four shapes: the mismatched declaration also has
    // the resolved type (u32 = 32 bits) over its 16-bit budget.
    assert_eq!(m1.len(), 5, "exactly the M1 shapes: {m1:?}");

    let oversized = m1
        .iter()
        .find(|f| f.message.contains("BigNode"))
        .expect("BigNode flagged");
    assert!(
        oversized.message.contains("256 bits") && oversized.message.contains("budgets 64"),
        "{}",
        oversized.message
    );
    assert_eq!(oversized.severity, anr_lint::Severity::Error);

    let unbounded = m1
        .iter()
        .find(|f| f.message.contains("GrowNode"))
        .expect("GrowNode flagged");
    assert!(
        unbounded.message.contains("no provable message bound"),
        "{}",
        unbounded.message
    );
    let chain = unbounded.path.as_deref().expect("M1 carries the chain");
    assert!(
        chain.contains("Blob") && chain.contains("data"),
        "chain names the offending field: {chain}"
    );

    let mismatch = m1
        .iter()
        .find(|f| f.message.contains("declares message"))
        .expect("MismatchNode declaration flagged");
    assert!(
        mismatch.message.contains("u16") && mismatch.message.contains("u32"),
        "{}",
        mismatch.message
    );
    assert!(
        mismatch.file.ends_with("lint.models.toml"),
        "mismatches are flagged at the manifest: {}",
        mismatch.file
    );

    let slack = m1
        .iter()
        .find(|f| f.message.contains("TinyNode"))
        .expect("TinyNode flagged");
    assert_eq!(slack.severity, anr_lint::Severity::Warn);
    assert!(slack.message.contains("ratchet"), "{}", slack.message);
}

/// M2 red: the wall-clock handler is flagged with its chain; every
/// other handler is pure and silent.
#[test]
fn impure_handler_is_flagged() {
    let report = lint_at(&fixture_root("modelws"), 1);
    let m2 = rule_findings(&report, "M2");
    assert_eq!(m2.len(), 1, "only ClockNode::on_round: {m2:?}");
    let f = m2[0];
    assert!(
        f.message.contains("ClockNode") && f.message.contains("on_round"),
        "{}",
        f.message
    );
    assert!(
        f.message.contains("time") || f.message.contains("Instant"),
        "names the effect: {}",
        f.message
    );
    assert!(f.path.is_some(), "M2 carries the call chain");
}

/// M3 red: the uncovered impl, the stale entry, the crate mismatch,
/// and the bogus hook all fire with their documented shapes.
#[test]
fn manifest_wiring_violations_are_flagged() {
    let report = lint_at(&fixture_root("modelws"), 1);
    let m3 = rule_findings(&report, "M3");

    let uncovered = m3
        .iter()
        .find(|f| f.message.contains("OrphanNode"))
        .expect("OrphanNode flagged");
    assert!(
        uncovered.message.contains("no [[protocol]] entry"),
        "{}",
        uncovered.message
    );
    assert_eq!(uncovered.severity, anr_lint::Severity::Error);
    assert!(
        uncovered.file.ends_with("lib.rs"),
        "uncovered impls are flagged at the impl: {}",
        uncovered.file
    );

    let stale = m3
        .iter()
        .find(|f| f.message.contains("GhostNode"))
        .expect("GhostNode flagged");
    assert_eq!(stale.severity, anr_lint::Severity::Warn);
    assert!(
        stale.file.ends_with("lint.models.toml"),
        "stale entries are flagged at the manifest: {}",
        stale.file
    );

    assert!(
        m3.iter()
            .any(|f| f.message.contains("declares crate `elsewhere`")),
        "crate mismatch: {m3:?}"
    );
    assert!(
        m3.iter()
            .any(|f| f.message.contains("no_such_runner") && f.message.contains("hook")),
        "bogus hook: {m3:?}"
    );
    assert_eq!(m3.len(), 4, "exactly the four M3 shapes: {m3:?}");
}

/// The green protocols — exact budget, clamped container, LOCAL class
/// — produce no M findings at all.
#[test]
fn green_protocols_are_clean() {
    let report = lint_at(&fixture_root("modelws"), 1);
    for rule in ["M1", "M2", "M3"] {
        for f in rule_findings(&report, rule) {
            for green in ["GoodNode", "ClampNode", "GossipNode"] {
                assert!(
                    !f.message.contains(green),
                    "{green} must stay clean under {rule}: {}",
                    f.message
                );
            }
        }
    }
    // The clamp actually carried: ClampNode's bound is 4 × 16 bits.
    let clamp = report
        .models
        .protocols
        .iter()
        .find(|p| p.name == "ClampNode")
        .expect("ClampNode on the surface");
    assert_eq!(clamp.bound, Some(BitBound::Fixed(64)));
}

/// The models artifact is byte-identical across runs and worker
/// counts, on the fixture and on this repository.
#[test]
fn models_artifact_is_deterministic() {
    for root in [fixture_root("modelws"), repo_root()] {
        let first = lint_at(&root, 1).models.to_jsonl();
        assert_eq!(
            first,
            lint_at(&root, 1).models.to_jsonl(),
            "same run, same bytes ({})",
            root.display()
        );
        assert_eq!(
            first,
            lint_at(&root, 4).models.to_jsonl(),
            "workers must not reorder ({})",
            root.display()
        );
        assert!(first.contains("\"schema\":\"anr-lint-models/1\""));
        assert!(first.contains("\"kind\":\"summary\""));
    }
}

/// The checked-in manifest parses, declares only known model classes,
/// budgets every CONGEST entry, and exactly covers the real protocol
/// surface (M3 clean under `self_clean`'s zero-findings bar).
#[test]
fn repo_manifest_is_well_formed_and_complete() {
    let text = std::fs::read_to_string(repo_root().join("lint.models.toml"))
        .expect("manifest is checked in");
    let manifest = parse_models(&text).expect("manifest parses");
    assert!(!manifest.entries.is_empty());
    for (name, entry) in &manifest.entries {
        assert!(
            MODEL_CLASSES.contains(&entry.model.as_str()),
            "unknown model class for `{name}`"
        );
        if entry.model == "CONGEST" {
            assert!(entry.bits.is_some(), "CONGEST `{name}` must budget bits");
        }
        assert!(!entry.hook.is_empty(), "`{name}` must name a hook");
    }
    let report = lint_at(&repo_root(), 1);
    for rule in ["M1", "M2", "M3"] {
        assert!(
            rule_findings(&report, rule).is_empty(),
            "repo must be clean under {rule}"
        );
    }
    // Every discovered protocol is declared, and vice versa.
    let surface: Vec<&str> = report
        .models
        .protocols
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    for name in manifest.entries.keys() {
        assert!(surface.contains(&name.as_str()), "stale entry `{name}`");
    }
    for p in &report.models.protocols {
        assert!(
            manifest.entries.contains_key(&p.name),
            "uncovered protocol `{}`",
            p.name
        );
    }
}
