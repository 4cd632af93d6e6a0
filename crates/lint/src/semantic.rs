//! Interprocedural rules over the cross-crate call graph, and the
//! reachability walks every call-graph rule shares.
//!
//! [`Walks`] builds the reverse call graph once per run and runs one
//! reverse breadth-first search per distinct sink set: panic sites,
//! nondeterminism sites, each effect, and primitive reads. A node's
//! direct sites are its body's slice of the file's site table. Each
//! walk gives every node the minimum number of call edges to a sink;
//! paths are then reconstructed deterministically (smallest distance
//! first, node index as tie-break), so the reported chain for a given
//! workspace is byte-identical across runs and worker counts.
//!
//! * **S1 — panic reachability.** Sinks are library functions whose
//!   bodies contain a panic site (`.unwrap()` / `.expect()` /
//!   `panic!` / `unreachable!` / `todo!` / `unimplemented!`). Every
//!   pipeline entry point that can reach one is reported with its
//!   shortest chain; the chain doubles as the `path` a baseline entry
//!   must pin to justify it.
//! * **S2 — determinism taint.** Sinks are functions with a hash-order,
//!   clock or unseeded-RNG site (the D1/D2/D4 kinds), excluding the
//!   sanctioned `anr-trace` wall module.
//! * **S3 — cross-crate dead `pub`.** A `pub` item in library code
//!   that no *other* workspace crate, no bin target, no test, and no
//!   exported API surface (`pub fn` signature / `pub` item definition)
//!   references. Bin targets count because they link against the
//!   library like an external consumer; the API surface counts because
//!   result types flow to consumers through type inference without
//!   ever being named by them.

use crate::capabilities::EFFECTS;
use crate::context::{FileCtx, FileKind};
use crate::graph::{CallGraph, FnNode};
use crate::lexer::TokKind;
use crate::parser::{ParsedFile, Visibility};
use crate::rules::{rule_info, Finding};
use crate::sites::{Site, SiteKind, WALL_MODULE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The nine pipeline entry points S1/S2 guard. Matched by function
/// name on non-test library code, so fixture workspaces can exercise
/// the rules with a same-named function.
pub const ENTRY_POINTS: &[&str] = &[
    "march",
    "audit_knots",
    "run_lloyd_guarded",
    "run_fault_sweep",
    "run_pipeline_bench",
    "run_distsim_bench",
    "run_serve_bench",
    "run_server",
    "lint_workspace",
];

/// One row of the panic-reachability report: a `pub` library function
/// and its shortest path to a panic site, if any.
#[derive(Debug, Clone)]
pub struct PanicEntry {
    /// Function display name (`crate::[Type::]name`).
    pub display: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call edges to the nearest panic sink; 0 = panics locally;
    /// `None` = no panic site reachable.
    pub dist: Option<u32>,
    /// The shortest chain, ` -> `-joined, ending at the sink.
    pub path: Option<String>,
    /// The sink pattern and its location (`` `.unwrap()` at file:line ``).
    pub sink: Option<String>,
}

/// The full panic-reachability surface: every `pub` library function,
/// sorted by (file, line). Serialized as `anr-lint-panics/1` JSONL.
#[derive(Debug, Clone, Default)]
pub struct PanicsReport {
    /// One entry per `pub` library function.
    pub entries: Vec<PanicEntry>,
}

impl PanicsReport {
    /// `pub` functions with any reachable panic site.
    #[must_use]
    pub fn reachable(&self) -> usize {
        self.entries.iter().filter(|e| e.dist.is_some()).count()
    }

    /// Serializes the report as `anr-lint-panics/1` JSON Lines — one
    /// record per `pub` function plus a trailing summary.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str("{\"schema\":\"anr-lint-panics/1\",\"kind\":\"fn\",\"fn\":");
            crate::report::json_str(&mut out, &e.display);
            out.push_str(",\"file\":");
            crate::report::json_str(&mut out, &e.file);
            let _ = write!(out, ",\"line\":{},\"panic_dist\":", e.line);
            match e.dist {
                Some(d) => {
                    let _ = write!(out, "{d}");
                }
                None => out.push_str("null"),
            }
            if let Some(path) = &e.path {
                out.push_str(",\"path\":");
                crate::report::json_str(&mut out, path);
            }
            if let Some(sink) = &e.sink {
                out.push_str(",\"sink\":");
                crate::report::json_str(&mut out, sink);
            }
            out.push_str("}\n");
        }
        let _ = writeln!(
            out,
            "{{\"schema\":\"anr-lint-panics/1\",\"kind\":\"summary\",\"fns\":{},\"reachable\":{}}}",
            self.entries.len(),
            self.reachable(),
        );
        out
    }

    /// Human-readable report: reachable functions first (with chains),
    /// then a summary line.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for e in self.entries.iter().filter(|e| e.dist.is_some()) {
            let _ = writeln!(
                out,
                "{}:{}: `{}` can panic (distance {})",
                e.file,
                e.line,
                e.display,
                e.dist.unwrap_or(0),
            );
            if let Some(path) = &e.path {
                let _ = writeln!(out, "    path: {path}");
            }
            if let Some(sink) = &e.sink {
                let _ = writeln!(out, "    sink: {sink}");
            }
        }
        let _ = writeln!(
            out,
            "anr-lint panics: {} pub fns, {} can reach a panic site",
            self.entries.len(),
            self.reachable(),
        );
        out
    }
}

/// Everything the interprocedural pass produces.
#[derive(Debug, Default)]
pub(crate) struct SemanticOutput {
    /// S1/S2/S3 findings, unsorted (the caller merges and sorts).
    pub(crate) findings: Vec<Finding>,
    /// Panic reachability for the whole `pub` library surface.
    pub(crate) panics: PanicsReport,
}

/// The call graph's effect facts, built once per run: the reverse
/// adjacency and each node's direct sites (its body's sub-slice of the
/// file's site table).
struct Effects<'a> {
    nodes: &'a [FnNode],
    /// Callee → callers, ascending.
    rev: Vec<Vec<usize>>,
    /// Each node's body sites, in token order.
    sites: Vec<&'a [Site]>,
}

impl<'a> Effects<'a> {
    fn new(graph: &'a CallGraph, files: &'a [(FileCtx, ParsedFile)]) -> Effects<'a> {
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
        for &(caller, callee) in &graph.edges {
            rev[callee].push(caller);
        }
        let sites = graph
            .nodes
            .iter()
            .map(|n| n.body.map_or(&[][..], |b| files[n.file_idx].0.sites_in(b)))
            .collect();
        Effects {
            nodes: &graph.nodes,
            rev,
            sites,
        }
    }

    /// Reverse breadth-first search from the sink set: every node that
    /// passes `node` and has a site passing `site` is a sink (its first
    /// such site is the one reported). The frontier is walked in node
    /// order, so a caller inherits the sink of its smallest-index
    /// nearest callee — the same callee [`chain`] steps to.
    fn reach(&self, node: impl Fn(&FnNode) -> bool, site: impl Fn(&Site) -> bool) -> Reach {
        let n = self.nodes.len();
        let mut dist = vec![usize::MAX; n];
        let mut sink = vec![None; n];
        let mut frontier = Vec::new();
        for (i, fnode) in self.nodes.iter().enumerate() {
            if !node(fnode) {
                continue;
            }
            if let Some(s) = self.sites[i].iter().find(|s| site(s)) {
                dist[i] = 0;
                sink[i] = Some((i, *s));
                frontier.push(i);
            }
        }
        let mut d = 0;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &callee in &frontier {
                for &caller in &self.rev[callee] {
                    if dist[caller] > d {
                        dist[caller] = d;
                        sink[caller] = sink[callee];
                        next.push(caller);
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        Reach { dist, sink }
    }
}

/// One reachability walk over the call graph.
pub(crate) struct Reach {
    /// Minimum call edges from each node to a sink (sinks are 0);
    /// `usize::MAX` = unreachable.
    pub(crate) dist: Vec<usize>,
    /// The sink node and site each reachable node's [`chain`] ends at.
    pub(crate) sink: Vec<Option<(usize, Site)>>,
}

impl Reach {
    /// Can node `i` reach a sink?
    pub(crate) fn reaches(&self, i: usize) -> bool {
        self.dist[i] != usize::MAX
    }

    /// The label of the site node `i` leads to.
    pub(crate) fn label(&self, i: usize) -> &'static str {
        self.sink[i].map_or("?", |(_, s)| s.label)
    }
}

/// The walks the call-graph rules share, one per distinct sink set.
pub(crate) struct Walks {
    /// Panic sites in non-test library code: S1, the panics report, L1.
    pub(crate) panic: Reach,
    /// Hash-order, clock and RNG sites in non-test library and binary
    /// code outside the wall module: S2.
    pub(crate) determinism: Reach,
    /// One walk per effect, in [`EFFECTS`] order, over non-test code:
    /// C1 and M2.
    pub(crate) effects: Vec<Reach>,
    /// Primitive reads anywhere: U1's tainted-return summary.
    pub(crate) reads: Reach,
}

impl Walks {
    /// Builds the reverse call graph once and runs every walk on it.
    pub(crate) fn new(graph: &CallGraph, files: &[(FileCtx, ParsedFile)]) -> Walks {
        let fx = Effects::new(graph, files);
        Walks {
            panic: fx.reach(
                |n| n.kind == FileKind::Lib && !n.in_test,
                |s| s.kind == SiteKind::Panic,
            ),
            determinism: fx.reach(
                |n| {
                    !n.in_test
                        && matches!(n.kind, FileKind::Lib | FileKind::Bin)
                        && n.file != WALL_MODULE
                },
                |s| s.kind.is_nondeterministic(),
            ),
            effects: EFFECTS
                .iter()
                .map(|&e| fx.reach(|n| !n.in_test, |s| s.kind.effect() == Some(e)))
                .collect(),
            reads: fx.reach(|_| true, |s| s.kind == SiteKind::Read),
        }
    }
}

/// Reconstructs the shortest chain from `start` to a sink: at each hop
/// pick the callee with the smallest distance, node index as tie-break.
/// Returns the chain string and the sink node reached.
pub(crate) fn chain(graph: &CallGraph, dist: &[usize], start: usize) -> (String, usize) {
    let mut cur = start;
    let mut parts = vec![graph.nodes[cur].display.clone()];
    while dist[cur] > 0 {
        let next = graph
            .callees(cur)
            .into_iter()
            .filter(|&c| dist[c] < dist[cur])
            .min_by_key(|&c| (dist[c], c));
        match next {
            Some(c) => {
                parts.push(graph.nodes[c].display.clone());
                cur = c;
            }
            None => break, // cannot happen on a consistent BFS result
        }
    }
    (parts.join(" -> "), cur)
}

pub(crate) fn mk_finding(
    rule: &'static str,
    file: &str,
    line: u32,
    message: String,
    path: Option<String>,
) -> Finding {
    let info = rule_info(rule).unwrap_or(&crate::rules::RULES[0]);
    Finding {
        rule,
        severity: info.severity,
        file: file.to_string(),
        line,
        col: 1,
        message,
        hint: info.hint,
        baselined: false,
        path,
    }
}

/// Is node `i` shipping library code (the S-rule surface)?
fn is_lib_node(graph: &CallGraph, i: usize) -> bool {
    let n = &graph.nodes[i];
    n.kind == FileKind::Lib && !n.in_test
}

/// S2's wording for a nondeterminism site.
fn nondeterminism(s: &Site) -> String {
    let why = match s.kind {
        SiteKind::Hash => "iteration order",
        SiteKind::Clock { .. } => "wall-clock",
        SiteKind::Rng { constructs: false } => "thread RNG",
        _ => "unseeded RNG",
    };
    format!("{} {why}", s.label)
}

/// Runs the interprocedural S-rules over the call graph.
#[must_use]
pub(crate) fn analyze(
    graph: &CallGraph,
    files: &[(FileCtx, ParsedFile)],
    walks: &Walks,
) -> SemanticOutput {
    let mut out = SemanticOutput::default();
    let (panic, det) = (&walks.panic, &walks.determinism);

    // `<site> at file:line` for the sink node `i` leads to.
    let sink_note = |reach: &Reach, i: usize, what: fn(&Site) -> String| -> String {
        reach.sink[i].map_or_else(
            || "?".to_string(),
            |(node, s)| format!("{} at {}:{}", what(&s), graph.nodes[node].file, s.line),
        )
    };
    let label = |s: &Site| s.label.to_string();

    // S1 + S2: the pipeline entry points.
    for (i, n) in graph.nodes.iter().enumerate() {
        if !is_lib_node(graph, i) || n.self_ty.is_some() || !ENTRY_POINTS.contains(&n.name.as_str())
        {
            continue;
        }
        if panic.reaches(i) {
            let (path, _) = chain(graph, &panic.dist, i);
            out.findings.push(mk_finding(
                "S1",
                &n.file,
                n.line,
                format!(
                    "entry point `{}` can reach a panic: {}",
                    n.display,
                    sink_note(panic, i, label),
                ),
                Some(path),
            ));
        }
        if det.reaches(i) {
            let (path, _) = chain(graph, &det.dist, i);
            out.findings.push(mk_finding(
                "S2",
                &n.file,
                n.line,
                format!(
                    "entry point `{}` reaches a nondeterminism sink: {}",
                    n.display,
                    sink_note(det, i, nondeterminism),
                ),
                Some(path),
            ));
        }
    }

    // Panic-reachability report: the whole pub library surface.
    for (i, n) in graph.nodes.iter().enumerate() {
        if !is_lib_node(graph, i) || n.vis != Visibility::Pub {
            continue;
        }
        let (dist, path, sink) = if panic.reaches(i) {
            let (path, _) = chain(graph, &panic.dist, i);
            (
                Some(u32::try_from(panic.dist[i]).unwrap_or(u32::MAX)),
                Some(path),
                Some(sink_note(panic, i, label)),
            )
        } else {
            (None, None, None)
        };
        out.panics.entries.push(PanicEntry {
            display: n.display.clone(),
            file: n.file.clone(),
            line: n.line,
            dist,
            path,
            sink,
        });
    }
    out.panics
        .entries
        .sort_by(|a, b| (&a.file, a.line, &a.display).cmp(&(&b.file, b.line, &b.display)));

    // S3 — cross-crate dead pub. Liveness is name-based: an export
    // stays alive if its identifier occurs in (a) another crate's
    // library code, (b) any bin target — bins are separate link
    // targets that import through the package path, even from their
    // own crate, (c) any test (test file / bench / example /
    // #[cfg(test)] region), or (d) the exported API surface itself —
    // `pub fn` signatures and `pub` item definitions, which reach
    // consumers through type inference without being named by them.
    let mut shipping_refs: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut target_refs: BTreeSet<&str> = BTreeSet::new();
    for (ctx, _) in files {
        let testish_file = matches!(
            ctx.kind,
            FileKind::Test | FileKind::Bench | FileKind::Example
        );
        for (i, t) in ctx.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if testish_file || ctx.kind == FileKind::Bin || ctx.in_test[i] {
                target_refs.insert(t.text.as_str());
            } else {
                shipping_refs
                    .entry(t.text.as_str())
                    .or_default()
                    .insert(ctx.crate_name.as_str());
            }
        }
    }
    let mut surface_refs: BTreeSet<&str> = BTreeSet::new();
    for (ctx, parsed) in files {
        if ctx.kind != FileKind::Lib {
            continue;
        }
        let spans = parsed
            .fns
            .iter()
            .filter(|f| f.vis == Visibility::Pub && !f.in_test)
            .map(|f| f.sig)
            .chain(
                parsed
                    .items
                    .iter()
                    .filter(|it| it.vis == Visibility::Pub && !it.in_test)
                    .map(|it| it.span),
            );
        for (start, end) in spans {
            // Skip the leading keyword and the item's own name so a
            // definition never keeps itself alive.
            let from = (start + 2).min(ctx.tokens.len());
            let to = end.min(ctx.tokens.len());
            for t in &ctx.tokens[from..to] {
                if t.kind == TokKind::Ident {
                    surface_refs.insert(t.text.as_str());
                }
            }
        }
    }
    let dead = |crate_name: &str, name: &str| -> bool {
        if target_refs.contains(name) || surface_refs.contains(name) {
            return false;
        }
        shipping_refs
            .get(name)
            .is_none_or(|crates| crates.iter().all(|c| *c == crate_name))
    };
    for (ctx, parsed) in files {
        if ctx.kind != FileKind::Lib {
            continue;
        }
        for item in &parsed.items {
            if item.vis != Visibility::Pub || item.in_test || item.kind == "macro" {
                continue;
            }
            if dead(&ctx.crate_name, &item.name) {
                out.findings.push(mk_finding(
                    "S3",
                    &ctx.rel_path,
                    item.line,
                    format!(
                        "`pub {} {}` is referenced by no other workspace crate or test",
                        item.kind, item.name,
                    ),
                    None,
                ));
            }
        }
        for f in &parsed.fns {
            if f.vis != Visibility::Pub
                || f.in_test
                || f.self_ty.is_some()
                || f.name == "main"
                || ENTRY_POINTS.contains(&f.name.as_str())
            {
                continue;
            }
            if dead(&ctx.crate_name, &f.name) {
                out.findings.push(mk_finding(
                    "S3",
                    &ctx.rel_path,
                    f.line,
                    format!(
                        "`pub fn {}` is referenced by no other workspace crate or test",
                        f.name,
                    ),
                    None,
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use crate::parser::parse_file;
    use std::path::Path;

    fn run(files: &[(&str, &str)]) -> SemanticOutput {
        let built: Vec<(FileCtx, ParsedFile)> = files
            .iter()
            .map(|(path, src)| {
                let ctx = FileCtx::new(path, src);
                let parsed = parse_file(&ctx);
                (ctx, parsed)
            })
            .collect();
        let graph = build_graph(Path::new("/nonexistent-root"), &built);
        analyze(&graph, &built, &Walks::new(&graph, &built))
    }

    fn rules_of(out: &SemanticOutput) -> Vec<&'static str> {
        let mut v: Vec<_> = out.findings.iter().map(|f| f.rule).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn s1_reports_transitive_panic_with_chain() {
        let out = run(&[
            (
                "crates/alpha/src/lib.rs",
                "use beta::step;\npub fn march() { step(); }",
            ),
            (
                "crates/beta/src/lib.rs",
                "pub fn step() { deep(); }\nfn deep() { None::<u32>.unwrap(); }",
            ),
        ]);
        let s1 = out.findings.iter().find(|f| f.rule == "S1").expect("S1");
        let path = s1.path.as_deref().expect("chain");
        assert_eq!(path, "alpha::march -> beta::step -> beta::deep");
        assert!(s1.message.contains("`.unwrap()`"));
        assert!(s1.message.contains("crates/beta/src/lib.rs:2"));
    }

    #[test]
    fn sink_note_names_the_end_of_the_reported_chain() {
        // Both entry points reach two panic sites at the same distance.
        // The note must name the site the chain ends at (the smallest
        // node index wins each tie), directly and one level up.
        let out = run(&[(
            "crates/alpha/src/lib.rs",
            "pub fn march() { leaf_a(); leaf_b(); }\n\
             pub fn audit_knots() { mid_a(); mid_b(); }\n\
             fn mid_a() { leaf_b(); }\nfn mid_b() { leaf_a(); }\n\
             fn leaf_a(x: Option<u32>) { x.unwrap(); }\n\
             fn leaf_b(x: Option<u32>) { x.expect(\"b\"); }",
        )]);
        let s1 = |entry: &str| {
            out.findings
                .iter()
                .find(|f| f.rule == "S1" && f.message.contains(entry))
                .expect("S1")
        };
        let direct = s1("`alpha::march`");
        assert_eq!(
            direct.path.as_deref(),
            Some("alpha::march -> alpha::leaf_a")
        );
        assert!(direct
            .message
            .ends_with("`.unwrap()` at crates/alpha/src/lib.rs:5"));
        let nested = s1("`alpha::audit_knots`");
        assert_eq!(
            nested.path.as_deref(),
            Some("alpha::audit_knots -> alpha::mid_a -> alpha::leaf_b")
        );
        assert!(nested
            .message
            .ends_with("`.expect()` at crates/alpha/src/lib.rs:6"));
    }

    #[test]
    fn s1_ignores_non_entry_fns_and_test_panics() {
        let out = run(&[(
            "crates/alpha/src/lib.rs",
            "pub fn helper_api(x: Option<u32>) -> u32 { x.unwrap() }\n\
             pub fn march() { clean(); }\nfn clean() {}\n\
             #[cfg(test)]\nmod tests { fn t() { panic!(); } }",
        )]);
        assert!(!rules_of(&out).contains(&"S1"));
    }

    #[test]
    fn panics_report_covers_non_entry_pub_fns() {
        let out = run(&[(
            "crates/alpha/src/lib.rs",
            "pub fn other(x: Option<u32>) -> u32 { x.unwrap() }",
        )]);
        let row = out
            .panics
            .entries
            .iter()
            .find(|e| e.display == "alpha::other")
            .expect("report row");
        assert_eq!(row.dist, Some(0));
        assert!(row.sink.as_deref().unwrap_or("").contains("`.unwrap()`"));
    }

    #[test]
    fn s2_flags_determinism_sinks() {
        let out = run(&[(
            "crates/alpha/src/lib.rs",
            "pub fn march() { helper(); }\nfn helper() { let _ = thread_rng(); }",
        )]);
        let s2 = out.findings.iter().find(|f| f.rule == "S2").expect("S2");
        assert!(s2.message.contains("thread_rng"));
        assert_eq!(s2.path.as_deref(), Some("alpha::march -> alpha::helper"));
    }

    #[test]
    fn s2_flags_os_rng() {
        let out = run(&[(
            "crates/alpha/src/lib.rs",
            "pub fn march() -> u64 { nonce() }\nfn nonce() -> u64 { OsRng.next_u64() }",
        )]);
        let s2 = out.findings.iter().find(|f| f.rule == "S2").expect("S2");
        assert_eq!(
            s2.message,
            "entry point `alpha::march` reaches a nondeterminism sink: \
             `OsRng` unseeded RNG at crates/alpha/src/lib.rs:2"
        );
        assert_eq!(s2.path.as_deref(), Some("alpha::march -> alpha::nonce"));
    }

    #[test]
    fn s2_exempts_the_wall_module() {
        let out = run(&[
            (
                "crates/trace/src/wall.rs",
                "pub fn now_ms() -> u64 { SystemTime::now(); 0 }",
            ),
            (
                "crates/alpha/src/lib.rs",
                "use trace::now_ms;\npub fn march() { now_ms(); }",
            ),
        ]);
        assert!(!rules_of(&out).contains(&"S2"));
    }

    #[test]
    fn s3_flags_cross_crate_dead_pub_only() {
        let out = run(&[
            (
                "crates/alpha/src/lib.rs",
                "pub struct Used;\npub struct Dead;\npub fn dead_fn() {}\n\
                 pub fn used_fn() {}\npub(crate) fn internal() {}",
            ),
            (
                "crates/beta/src/lib.rs",
                "use alpha::Used;\npub fn f(_u: Used) { alpha::used_fn(); }",
            ),
        ]);
        let s3: Vec<&str> = out
            .findings
            .iter()
            .filter(|f| f.rule == "S3")
            .map(|f| f.message.as_str())
            .collect();
        // `beta::f` is also dead: nothing references beta's export.
        assert_eq!(s3.len(), 3, "{s3:?}");
        assert!(s3.iter().any(|m| m.contains("struct Dead")));
        assert!(s3.iter().any(|m| m.contains("fn dead_fn")));
        assert!(!s3
            .iter()
            .any(|m| m.contains("used_fn") || m.contains("Used") && !m.contains("Dead")));
    }

    #[test]
    fn s3_test_references_keep_exports_alive() {
        let out = run(&[
            ("crates/alpha/src/lib.rs", "pub fn probe() {}"),
            (
                "crates/alpha/tests/t.rs",
                "#[test]\nfn uses() { alpha::probe(); }",
            ),
        ]);
        assert!(rules_of(&out).is_empty());
    }

    #[test]
    fn panics_report_is_deterministic() {
        let files: &[(&str, &str)] = &[(
            "crates/alpha/src/lib.rs",
            "pub fn alpha_a() { alpha_b(); }\npub fn alpha_b(x: Option<u32>) { x.unwrap(); }\npub fn alpha_c() {}",
        )];
        let a = run(files).panics.to_jsonl();
        let b = run(files).panics.to_jsonl();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\":\"anr-lint-panics/1\""));
        assert!(a.lines().last().unwrap().contains("\"reachable\":2"));
    }
}
