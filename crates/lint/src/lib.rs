//! # anr-lint — determinism & panic-safety static analysis
//!
//! The repo's headline guarantees — byte-identical traces across runs,
//! machines, and worker counts; worker-count-independent fault-sweep
//! JSON; typed errors instead of panics in library crates — are
//! invariants *by construction* only while every crate keeps to a
//! narrow idiom. This crate checks that idiom mechanically on every
//! change: a small Rust lexer plus a rule engine walk every workspace
//! crate (excluding `vendor/` and `target/`) and report findings with
//! `file:line`, rule id, severity, and a fix hint, in both human and
//! JSONL form.
//!
//! ## Rules
//!
//! | id | checks |
//! |----|--------|
//! | D1 | `HashMap`/`HashSet` in shipping code (nondeterministic iteration) |
//! | D2 | wall-clock reads outside `anr-trace`'s wall module |
//! | D3 | raw `std::thread` use outside `anr-par` |
//! | D4 | unseeded RNG (`from_entropy`, `thread_rng`, `OsRng`, `rand::random`) |
//! | P1 | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in library code |
//! | F1 | `partial_cmp(..).unwrap()` float comparisons (NaN panics) |
//! | T1 | trace hygiene: dropped span guards; `_traced` twins that mutate |
//! | H1 | crate roots missing `#![forbid(unsafe_code)]` / `#![deny(unreachable_pub)]` |
//! | S1 | pipeline entry points that can reach a panic site (interprocedural) |
//! | S2 | pipeline entry points that reach a nondeterminism sink (interprocedural) |
//! | S3 | `pub` exports no other workspace crate or test references |
//! | C1 | crate effect surface (`net`/`fs`/`time`/`thread`/`rng`/`env`) vs `lint.capabilities.toml` |
//! | U1 | untrusted input reaching `with_capacity`/indexing/arithmetic without a bound check |
//! | L1 | lock-order cycles, bare `Condvar::wait`, guards across panic paths, `.lock().unwrap()` |
//! | M1 | CONGEST message-size bounds: computed payload bound vs `lint.models.toml` budget |
//! | M2 | protocol handler purity: `on_start`/`on_round`/`idle` reach no effect sink |
//! | M3 | model manifest wiring: coverage both directions + a real runtime accounting hook |
//!
//! Which tokens are panic, hash-order, clock, RNG, net, fs, thread, env
//! or read sites is decided once per file, in one site table that
//! every rule reads. The call-graph rules run over a cross-crate call
//! graph built from an item-level parse of every file (see
//! [`build_graph`]), sharing one reachability walk per distinct sink
//! set; the graph serializes as the `anr-lint-graph/1` JSONL artifact
//! and panic reachability for the whole `pub` surface as
//! `anr-lint-panics/1`.
//!
//! Findings are suppressible only via the checked-in `lint.allow.toml`
//! baseline, where every entry carries a one-line justification and a
//! maximum count — so the gate lands green today and ratchets down
//! over time. `--deny` exits non-zero on any non-baselined finding.
//!
//! ```no_run
//! use anr_lint::{lint_workspace, LintOptions};
//!
//! let report = lint_workspace(&LintOptions::at(".")).unwrap();
//! assert_eq!(report.non_baselined(), 0);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod baseline;
mod capabilities;
mod context;
mod graph;
mod lexer;
mod locks;
mod manifest;
mod models;
mod parser;
mod report;
mod rules;
mod semantic;
mod sites;
mod taint;
mod walk;

use baseline::ALLOW_FILE;
pub use baseline::{apply_baseline, parse_baseline, stale_entries, AllowEntry};
use capabilities::CAPS_FILE;
pub use capabilities::{
    parse_capabilities, CapsManifest, CapsReport, CrateCaps, EffectUse, EFFECTS,
};
pub use context::{FileCtx, FileKind};
pub use graph::{build_graph, CallGraph, FnNode};
pub use lexer::{lex, TokKind, Token};
pub use locks::{LockEdge, LockReport, LockSite};
pub use manifest::ManifestError;
use models::MODELS_FILE;
pub use models::{
    parse_models, BitBound, ModelEntry, ModelsManifest, ModelsReport, ProtocolSurface,
    MODEL_CLASSES,
};
pub use parser::{parse_file, FnDef, ItemDef, ParsedFile, UseDef, Visibility};
pub use report::LintReport;
pub use rules::{scan_file, Finding, RuleInfo, Severity, RULES};
use semantic::Walks;
pub use semantic::{PanicEntry, PanicsReport, ENTRY_POINTS};
pub use taint::{TaintFlow, TaintReport};
pub use walk::workspace_files;

use std::path::{Path, PathBuf};

/// Options for a workspace lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Workspace root (the directory holding `Cargo.toml` and `crates/`).
    /// Its `lint.allow.toml` is the baseline; a missing file means an
    /// empty baseline, not an error.
    pub root: PathBuf,
    /// Worker threads for per-file scanning (0 = auto, 1 = serial).
    /// Findings, the call graph, and every artifact are identical for
    /// any worker count.
    pub workers: usize,
}

impl LintOptions {
    /// Options rooted at `root`, scanning serially.
    pub fn at<P: AsRef<Path>>(root: P) -> LintOptions {
        LintOptions {
            root: root.as_ref().to_path_buf(),
            workers: 1,
        }
    }
}

/// A lint run failure (I/O or a malformed manifest) — distinct from
/// findings, which are data, not errors.
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file or directory failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `lint.allow.toml`, `lint.capabilities.toml` or `lint.models.toml`
    /// is malformed; the error names the file.
    Manifest(ManifestError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            LintError::Manifest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Scans one source string as `rel_path` — the per-file entry point the
/// fixture tests use.
#[must_use]
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    scan_file(&FileCtx::new(rel_path, src))
}

/// Lints the whole workspace under `options.root` against its baseline:
/// the per-file token rules (D/P/F/T/H families) plus the
/// interprocedural S-rules over the cross-crate call graph.
///
/// Per-file work fans out over `options.workers` threads via
/// [`anr_par::par_map`]; results are input-ordered, so the report is
/// identical for any worker count.
///
/// # Errors
///
/// [`LintError`] on unreadable files or a malformed manifest.
/// Findings — baselined or not — are part of the report, never an error.
pub fn lint_workspace(options: &LintOptions) -> Result<LintReport, LintError> {
    let (mut findings, built, files_scanned) = scan_and_parse(options)?;
    let graph = build_graph(&options.root, &built);
    let walks = Walks::new(&graph, &built);
    let sem = semantic::analyze(&graph, &built, &walks);
    findings.extend(sem.findings);

    // The dataflow layer: capability manifests, untrusted-input taint,
    // and lock discipline. A missing manifest file disables C1 only.
    let manifest = read_manifest(&options.root.join(CAPS_FILE), parse_capabilities)?;
    let (cap_findings, caps) =
        capabilities::analyze_capabilities(&graph, &walks.effects, manifest.as_ref());
    findings.extend(cap_findings);
    let (taint_findings, taint) =
        taint::analyze_taint(&graph, &built, &walks.reads, manifest.as_ref());
    findings.extend(taint_findings);
    let (lock_findings, locks) = locks::analyze_locks(&graph, &built, &walks.panic);
    findings.extend(lock_findings);

    // The model-conformance layer (M1–M3). Like C1, a missing manifest
    // file disables the family — fixture workspaces opt in.
    let models_manifest = read_manifest(&options.root.join(MODELS_FILE), parse_models)?;
    let (model_findings, models) =
        models::analyze_models(&graph, &built, &walks.effects, models_manifest.as_ref());
    findings.extend(model_findings);

    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));

    let mut entries =
        read_manifest(&options.root.join(ALLOW_FILE), parse_baseline)?.unwrap_or_default();
    apply_baseline(&mut findings, &mut entries);

    Ok(LintReport {
        findings,
        files_scanned,
        stale: stale_entries(&entries),
        graph,
        panics: sem.panics,
        caps,
        taint,
        locks,
        models,
    })
}

/// Reads and parses a manifest; a missing file is `None`.
fn read_manifest<T>(
    path: &Path,
    parse: fn(&str) -> Result<T, ManifestError>,
) -> Result<Option<T>, LintError> {
    if !path.is_file() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(path).map_err(|source| LintError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    parse(&text).map(Some).map_err(LintError::Manifest)
}

/// Reads, lexes, parses, and token-scans every workspace file,
/// fanning out over `options.workers` threads.
#[allow(clippy::type_complexity)]
fn scan_and_parse(
    options: &LintOptions,
) -> Result<(Vec<Finding>, Vec<(FileCtx, ParsedFile)>, usize), LintError> {
    let files = workspace_files(&options.root).map_err(|source| LintError::Io {
        path: options.root.clone(),
        source,
    })?;
    let mut sources = Vec::with_capacity(files.len());
    for (rel, path) in &files {
        let src = std::fs::read_to_string(path).map_err(|source| LintError::Io {
            path: path.clone(),
            source,
        })?;
        sources.push((rel.clone(), src));
    }
    let per_file = anr_par::par_map(&sources, options.workers, |(rel, src)| {
        let ctx = FileCtx::new(rel, src);
        let parsed = parse_file(&ctx);
        let findings = scan_file(&ctx);
        (ctx, parsed, findings)
    });
    let mut findings = Vec::new();
    let mut built = Vec::with_capacity(per_file.len());
    for (ctx, parsed, file_findings) in per_file {
        findings.extend(file_findings);
        built.push((ctx, parsed));
    }
    Ok((findings, built, files.len()))
}
