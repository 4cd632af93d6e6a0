//! The rule set: each rule walks a file's token stream and reports
//! findings. Rules are deliberately syntactic — no type information —
//! so every pattern is chosen to be cheap, deterministic, and
//! low-false-positive on this workspace's idiom.

use crate::context::{call_names, functions, matching, FileCtx, FileKind};
use crate::sites::{SiteKind, WALL_MODULE};

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks a repo invariant (reproducibility or panic-freedom).
    Error,
    /// Risky pattern; may be justified via the baseline.
    Warn,
}

impl Severity {
    /// Lower-case label used in reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`D1`, `P1`, …).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// Covered by a `lint.allow.toml` entry?
    pub baselined: bool,
    /// Interprocedural call chain (S-rules): function displays joined
    /// with ` -> `. Baseline entries may pin a substring of this.
    pub path: Option<String>,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Fix hint attached to findings.
    pub hint: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        severity: Severity::Warn,
        summary: "HashMap/HashSet in shipping code: iteration order is nondeterministic",
        hint: "use BTreeMap/BTreeSet, or collect keys and sort before iterating",
    },
    RuleInfo {
        id: "D2",
        severity: Severity::Error,
        summary: "wall-clock read outside the anr-trace wall module",
        hint: "route timing through anr-trace's wall module (TraceConfig::wall_clock)",
    },
    RuleInfo {
        id: "D3",
        severity: Severity::Error,
        summary: "raw std::thread use outside anr-par",
        hint: "use anr_par::par_map/par_chunks so output order stays deterministic",
    },
    RuleInfo {
        id: "D4",
        severity: Severity::Error,
        summary: "unseeded RNG construction",
        hint: "construct RNGs with seed_from_u64 from an explicit, logged seed",
    },
    RuleInfo {
        id: "P1",
        severity: Severity::Error,
        summary: "panic path (unwrap/expect/panic!/unreachable!/todo!) in library code",
        hint: "return a typed error (MeshError/HarmonicError/…) or justify in lint.allow.toml",
    },
    RuleInfo {
        id: "F1",
        severity: Severity::Error,
        summary: "partial_cmp(..).unwrap()/expect() float comparison",
        hint: "use f64::total_cmp for a total, panic-free order",
    },
    RuleInfo {
        id: "T1",
        severity: Severity::Error,
        summary: "trace hygiene: dropped span guard or _traced twin diverging from its plain twin",
        hint: "bind span guards (`let _span = tracer.span(..)`) and keep _traced twins observation-only",
    },
    RuleInfo {
        id: "H1",
        severity: Severity::Error,
        summary: "crate root missing #![forbid(unsafe_code)] or #![deny(unreachable_pub)]",
        hint: "add the missing crate-level attribute at the top of lib.rs",
    },
    RuleInfo {
        id: "S1",
        severity: Severity::Error,
        summary: "pipeline entry point can reach a panic site through the call graph",
        hint: "convert the panicking step to a typed error, or path-justify in lint.allow.toml",
    },
    RuleInfo {
        id: "S2",
        severity: Severity::Error,
        summary: "pipeline entry point transitively reaches a nondeterminism sink",
        hint: "thread explicit seeds / logical clocks through the chain instead",
    },
    RuleInfo {
        id: "S3",
        severity: Severity::Warn,
        summary: "pub item is exported but referenced by no other workspace crate or test",
        hint: "demote to pub(crate) or delete the export",
    },
    RuleInfo {
        id: "C1",
        severity: Severity::Error,
        summary: "crate's transitive effect surface disagrees with lint.capabilities.toml",
        hint: "edit the crate's effects list in lint.capabilities.toml, or drop the API call",
    },
    RuleInfo {
        id: "U1",
        severity: Severity::Error,
        summary: "untrusted input flows into an allocation, index, or unchecked arithmetic",
        hint: "bound the value against a named MAX_*/limit constant (or .min/.clamp) first",
    },
    RuleInfo {
        id: "L1",
        severity: Severity::Error,
        summary: "lock discipline: order cycle, bare Condvar::wait, or .lock().unwrap()",
        hint: "acquire locks in one global order, re-check wait predicates in a loop, and recover poison explicitly",
    },
    RuleInfo {
        id: "M1",
        severity: Severity::Error,
        summary: "CONGEST protocol message bound exceeds (or cannot prove) its lint.models.toml bit budget",
        hint: "use fixed-width wire types (u32 hop counters, MAX_*-clamped payloads) or widen the declared budget",
    },
    RuleInfo {
        id: "M2",
        severity: Severity::Error,
        summary: "protocol handler transitively reaches a wall-clock/fs/net/env/rng effect sink",
        hint: "round handlers must be pure functions of state + inbox + seeded RNG; hoist the effect to the runner",
    },
    RuleInfo {
        id: "M3",
        severity: Severity::Error,
        summary: "model manifest wiring: uncovered protocol impl, stale entry, or missing accounting hook",
        hint: "add/prune the [[protocol]] entry in lint.models.toml and point `hook` at the accounted runner",
    },
];

/// Looks up a rule by id.
#[must_use]
pub(crate) fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

fn finding(ctx: &FileCtx, rule: &'static str, i: usize, message: String) -> Finding {
    let info = rule_info(rule).unwrap_or(&RULES[0]);
    let t = &ctx.tokens[i];
    Finding {
        rule,
        severity: info.severity,
        file: ctx.rel_path.clone(),
        line: t.line,
        col: t.col,
        message,
        hint: info.hint,
        baselined: false,
        path: None,
    }
}

/// Is token `i` a method call `.name(`?
fn method_call(ctx: &FileCtx, i: usize, name: &str) -> bool {
    ctx.tokens[i].is_ident(name)
        && i > 0
        && ctx.tokens[i - 1].is_punct(".")
        && ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
}

/// Runs every rule over one file.
#[must_use]
pub fn scan_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_sites(ctx, &mut out);
    rule_f1(ctx, &mut out);
    rule_t1(ctx, &mut out);
    rule_h1(ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// D1–D4 and P1, one pass over the file's site table:
///
/// * **D1** — `HashMap`/`HashSet` in shipping (lib or bin, non-test)
///   code. Iteration order of the std hash collections varies run to
///   run, so a single use in an output path breaks byte-identical
///   traces.
/// * **D2** — wall-clock reads anywhere but the dedicated wall module
///   of `anr-trace`. Logical timestamps keep traces byte-identical
///   across machines.
/// * **D3** — raw `thread::{spawn,scope,Builder}` outside `anr-par`,
///   whose fork/join helpers pin deterministic output order regardless
///   of worker count.
/// * **D4** — unseeded RNGs. Every random stream in the repo must be
///   reproducible from a logged seed.
/// * **P1** — panic paths in library (non-test, non-bin) code. Library
///   crates surface typed errors; panicking is reserved for documented
///   preconditions (`assert!`) and binaries.
fn rule_sites(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let wall = ctx.rel_path == WALL_MODULE;
    let par = ctx.crate_name == "par";
    for s in &ctx.sites {
        let (rule, message) = match s.kind {
            SiteKind::Hash if ctx.is_shipping_code(s.tok) => (
                "D1",
                format!(
                    "{} in shipping code (nondeterministic iteration order)",
                    s.label
                ),
            ),
            SiteKind::Clock { read } if !wall => (
                "D2",
                format!(
                    "{} wall-clock {}",
                    s.label,
                    if read { "read" } else { "use" }
                ),
            ),
            SiteKind::Thread { spawn: Some(tail) } if !par => {
                ("D3", format!("`thread::{tail}` outside anr-par"))
            }
            SiteKind::Rng { constructs: true } => {
                ("D4", format!("{} constructs an unseeded RNG", s.label))
            }
            SiteKind::Rng { constructs: false } => {
                ("D4", format!("{} uses the thread RNG", s.label))
            }
            SiteKind::Panic if ctx.is_lib_code(s.tok) => {
                ("P1", format!("{} in library code", s.label))
            }
            _ => continue,
        };
        out.push(finding(ctx, rule, s.tok, message));
    }
}

/// F1 — `partial_cmp(..).unwrap()`-style float comparisons. These
/// panic on NaN; `f64::total_cmp` is total and panic-free.
fn rule_f1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        if !ctx.is_shipping_code(i) || !ctx.tokens[i].is_ident("partial_cmp") {
            continue;
        }
        let tail = &ctx.tokens[i + 1..(i + 12).min(ctx.tokens.len())];
        if tail
            .iter()
            .any(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            out.push(finding(
                ctx,
                "F1",
                i,
                "`partial_cmp(..)` followed by unwrap/expect".to_string(),
            ));
        }
    }
}

/// Calls a `_traced` twin may make that its plain twin does not.
const TRACE_ALLOW: &[&str] = &[
    // Tracer API (observation-only by construction).
    "span",
    "span_with",
    "event",
    "counter_add",
    "hist_record",
    "counter",
    "hist",
    "flush",
    "is_enabled",
    "events",
    "take_events",
    "dropped",
    "span_durations_ms",
    "disabled",
    "ring",
    "wall",
    "with_sink",
    "jsonl_file",
    "jsonl_line",
    "id",
    // TraceValue constructors and glue used to build fields.
    "U64",
    "I64",
    "F64",
    "Bool",
    "Str",
    "Some",
    "Ok",
    "Err",
    "Box",
    "vec",
    "to_string",
    "into",
    "from",
    "clone",
    "len",
    "format",
    "as_ref",
];

/// T1 — trace hygiene, two checks:
///
/// 1. A `.span(..)` / `.span_with(..)` guard that is dropped on the
///    spot (bare statement or `let _ =`) closes immediately, producing
///    a zero-width span.
/// 2. A `foo_traced` twin that does not simply delegate must not call
///    anything its plain twin `foo` doesn't, beyond the tracer API —
///    tracing is observation only.
fn rule_t1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    rule_t1_span_guards(ctx, out);
    rule_t1_twins(ctx, out);
}

fn rule_t1_span_guards(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        if ctx.in_test[i] || !(method_call(ctx, i, "span") || method_call(ctx, i, "span_with")) {
            continue;
        }
        // Statement start: just after the previous `;`, `{`, or `}`.
        let start = (0..i)
            .rev()
            .find(|&j| {
                ctx.tokens[j].is_punct(";")
                    || ctx.tokens[j].is_punct("{")
                    || ctx.tokens[j].is_punct("}")
            })
            .map_or(0, |j| j + 1);
        let stmt = &ctx.tokens[start..i];
        if let Some(let_pos) = stmt.iter().position(|t| t.is_ident("let")) {
            // `let _ = tracer.span(..)` drops the guard immediately.
            let binds_underscore = stmt.get(let_pos + 1).is_some_and(|t| t.is_ident("_"))
                && stmt.get(let_pos + 2).is_some_and(|t| t.is_punct("="));
            if binds_underscore {
                out.push(finding(
                    ctx,
                    "T1",
                    i,
                    "span guard bound to `_` is dropped immediately".to_string(),
                ));
            }
            continue;
        }
        if stmt.iter().any(|t| t.is_punct("=") || t.is_ident("return")) {
            continue; // assigned or returned: the guard lives on
        }
        // Bare statement: `tracer.span("x");` — flag when the call's
        // result is discarded (next token after the close paren is `;`).
        if let Some(close) = matching(&ctx.tokens, i + 1, "(", ")") {
            if ctx.tokens.get(close + 1).is_some_and(|t| t.is_punct(";")) {
                out.push(finding(
                    ctx,
                    "T1",
                    i,
                    "span guard discarded: bare `.span(..);` closes the span immediately"
                        .to_string(),
                ));
            }
        }
    }
}

fn rule_t1_twins(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    let fns = functions(&ctx.tokens);
    for f in &fns {
        let Some(plain_name) = f.name.strip_suffix("_traced") else {
            continue;
        };
        let Some(plain) = fns.iter().find(|p| p.name == plain_name) else {
            continue;
        };
        let plain_calls = call_names(&ctx.tokens, plain.body);
        if plain_calls.iter().any(|c| c == &f.name) {
            continue; // plain twin delegates to the traced twin
        }
        let traced_calls = call_names(&ctx.tokens, f.body);
        let extras: Vec<&str> = traced_calls
            .iter()
            .map(String::as_str)
            .filter(|c| !plain_calls.iter().any(|p| p == c) && !TRACE_ALLOW.contains(c))
            .collect();
        if !extras.is_empty() {
            let at = ctx
                .tokens
                .iter()
                .position(|t| t.line == f.line)
                .unwrap_or(0);
            out.push(finding(
                ctx,
                "T1",
                at,
                format!(
                    "`{}` calls {} absent from `{}` and the tracer allowlist",
                    f.name,
                    extras.join(", "),
                    plain_name
                ),
            ));
        }
    }
}

/// H1 — crate roots must carry `#![forbid(unsafe_code)]` and
/// `#![deny(unreachable_pub)]`.
fn rule_h1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_crate_root() {
        return;
    }
    let mut has_forbid_unsafe = false;
    let mut has_deny_unreachable = false;
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if toks[i].is_punct("#")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
        {
            if let Some(close) = matching(toks, i + 2, "[", "]") {
                let attr = &toks[i + 2..=close];
                let has = |name: &str| attr.iter().any(|t| t.is_ident(name));
                if has("forbid") && has("unsafe_code") {
                    has_forbid_unsafe = true;
                }
                if has("deny") && has("unreachable_pub") {
                    has_deny_unreachable = true;
                }
            }
        }
    }
    for (ok, attr) in [
        (has_forbid_unsafe, "#![forbid(unsafe_code)]"),
        (has_deny_unreachable, "#![deny(unreachable_pub)]"),
    ] {
        if !ok && !toks.is_empty() {
            out.push(finding(
                ctx,
                "H1",
                0,
                format!("crate root missing `{attr}`"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        scan_file(&FileCtx::new(path, src))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        let mut v: Vec<_> = findings.iter().map(|f| f.rule).collect();
        v.dedup();
        v
    }

    #[test]
    fn d1_flags_shipping_hash_collections_only() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let hits = scan("crates/core/src/x.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "D1").count(), 3);
        // The same text in a test file is clean.
        assert!(scan("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn p1_is_library_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_of(&scan("crates/mesh/src/x.rs", src)), vec!["P1"]);
        assert!(scan("crates/cli/src/x.rs", src).is_empty());
        assert!(scan("crates/mesh/tests/x.rs", src).is_empty());
        assert!(scan("crates/mesh/benches/x.rs", src).is_empty());
    }

    #[test]
    fn p1_ignores_unwrap_or_family() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_else(|| 1)) }";
        assert!(scan("crates/mesh/src/x.rs", src).is_empty());
    }

    #[test]
    fn t1_flags_discarded_span_guards() {
        let bad = "fn f(t: &Tracer) { t.span(\"x\"); }";
        assert_eq!(rules_of(&scan("crates/core/src/x.rs", bad)), vec!["T1"]);
        let bad2 = "fn f(t: &Tracer) { let _ = t.span(\"x\"); }";
        assert_eq!(rules_of(&scan("crates/core/src/x.rs", bad2)), vec!["T1"]);
        let good = "fn f(t: &Tracer) { let _guard = t.span(\"x\"); body(); }";
        assert!(scan("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn t1_twin_divergence() {
        let bad = "fn f(x: &mut S) { step(x); }\n\
                   fn f_traced(x: &mut S, t: &Tracer) { let _s = t.span(\"f\"); step(x); mutate(x); }";
        let hits = scan("crates/core/src/x.rs", bad);
        assert_eq!(rules_of(&hits), vec!["T1"]);
        assert!(hits[0].message.contains("mutate"));
        let good = "fn f(x: &mut S) { f_traced(x, &Tracer::disabled()); }\n\
                    fn f_traced(x: &mut S, t: &Tracer) { let _s = t.span(\"f\"); step(x); mutate(x); }";
        assert!(scan("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn h1_requires_both_headers() {
        let bare = "pub fn f() {}";
        let hits = scan("crates/core/src/lib.rs", bare);
        assert_eq!(hits.iter().filter(|f| f.rule == "H1").count(), 2);
        let full = "#![forbid(unsafe_code)]\n#![deny(unreachable_pub)]\npub fn f() {}";
        assert!(scan("crates/core/src/lib.rs", full).is_empty());
        // Non-root files are exempt.
        assert!(scan("crates/core/src/other.rs", bare).is_empty());
    }

    #[test]
    fn d2_exempts_the_wall_module() {
        let src = "fn f() { let t = Instant::now(); t.elapsed(); }";
        assert_eq!(
            scan("crates/core/src/x.rs", src)
                .iter()
                .filter(|f| f.rule == "D2")
                .count(),
            2
        );
        assert!(scan("crates/trace/src/wall.rs", src).is_empty());
    }

    #[test]
    fn f1_spots_partial_cmp_unwrap() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        // In library code this is both a float-order bug (F1) and a
        // panic path (P1); in binary code only F1 applies.
        assert_eq!(
            rules_of(&scan("crates/core/src/x.rs", src)),
            vec!["F1", "P1"]
        );
        assert_eq!(rules_of(&scan("crates/cli/src/x.rs", src)), vec!["F1"]);
        let ok = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }";
        assert!(scan("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn d3_d4_patterns() {
        let src = "fn f() { std::thread::spawn(|| {}); let r = SmallRng::from_entropy(); }";
        let hits = scan("crates/core/src/x.rs", src);
        assert!(hits.iter().any(|f| f.rule == "D3"));
        assert!(hits.iter().any(|f| f.rule == "D4"));
        // anr-par itself may use std::thread.
        let par = "fn f() { std::thread::scope(|s| {}); }";
        assert!(scan("crates/par/src/lib.rs", par)
            .iter()
            .all(|f| f.rule == "H1"));
    }
}
