//! L1 — lock discipline over the call graph.
//!
//! Four checks, all driven by the same acquisition-site scan:
//!
//! * **Order cycles** — every `Mutex`/`RwLock` acquisition site gets a
//!   stable key (impl type + field for `self.x.lock()`, the receiver
//!   path otherwise); ordered pairs within one body plus locks reached
//!   *through calls made while a guard is live* build a lock-order
//!   digraph, and any cycle is a potential deadlock.
//! * **Bare `Condvar::wait`** — a `.wait(guard)` that is not inside a
//!   `while`/`loop` block cannot re-check its predicate after a
//!   spurious wakeup.
//! * **Guard held across a panic path** — a call made while a guard is
//!   live that can reach a panic site (S1's walk) poisons the lock for
//!   every other thread.
//! * **`.lock().unwrap()` in library code** — a poisoning panic in one
//!   thread cascades into every later locker; recover with
//!   `PoisonError::into_inner` or surface a typed error.
//!
//! The scan is scope-free by design (conservative): a guard is live
//! from its acquisition to the end of the body unless an explicit
//! `drop(binding)` intervenes.

use crate::context::{FileCtx, FileKind};
use crate::graph::CallGraph;
use crate::lexer::{TokKind, Token};
use crate::parser::ParsedFile;
use crate::rules::Finding;
use crate::semantic::{mk_finding, Reach};
use crate::sites::SiteKind;
use std::collections::{BTreeMap, BTreeSet};

/// One lock-acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Stable lock key (`ConnQueue.state`, `PlanCache.inner`, …).
    pub key: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Acquiring function display.
    pub func: String,
}

/// One edge of the lock-order digraph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Held lock.
    pub from: String,
    /// Lock acquired (directly or through a call) while holding `from`.
    pub to: String,
    /// Site evidencing the edge.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// The lock-discipline report (`--report locks`).
#[derive(Debug, Clone, Default)]
pub struct LockReport {
    /// Every acquisition site, ordered by (file, line).
    pub sites: Vec<LockSite>,
    /// Lock-order edges, ordered by (from, to).
    pub edges: Vec<LockEdge>,
    /// Detected order cycles, each ` -> `-joined and starting at its
    /// smallest key.
    pub cycles: Vec<String>,
    /// `Condvar::wait` sites: (file, line, loop-guarded?).
    pub waits: Vec<(String, u32, bool)>,
}

impl LockReport {
    /// Human-readable lock-order listing.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::from("lock acquisition sites:\n");
        if self.sites.is_empty() {
            out.push_str("  (none)\n");
        }
        for s in &self.sites {
            out.push_str(&format!(
                "  {} at {}:{} ({})\n",
                s.key, s.file, s.line, s.func
            ));
        }
        out.push_str("lock-order edges:\n");
        if self.edges.is_empty() {
            out.push_str("  (none)\n");
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  {} -> {} ({}:{})\n",
                e.from, e.to, e.file, e.line
            ));
        }
        if !self.cycles.is_empty() {
            out.push_str("CYCLES:\n");
            for c in &self.cycles {
                out.push_str(&format!("  {c}\n"));
            }
        }
        out.push_str("condvar waits:\n");
        if self.waits.is_empty() {
            out.push_str("  (none)\n");
        }
        for (file, line, guarded) in &self.waits {
            out.push_str(&format!(
                "  {file}:{line} {}\n",
                if *guarded { "(loop-guarded)" } else { "BARE" }
            ));
        }
        out
    }
}

/// A parsed acquisition inside one body.
struct Acq {
    key: String,
    tok: usize,
    line: u32,
    /// `let g = x.lock()…;` binding, for `drop(g)` release tracking.
    binding: Option<String>,
    /// Followed by `.unwrap()` / `.expect(`?
    unwrapped: bool,
}

/// Is `i` a lock-acquisition method name: `.lock()`, `.read()`,
/// `.write()` with an *empty* argument list (`Read::read` takes a
/// buffer, so a non-empty list is I/O, not a lock)?
fn acquisition_at(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && matches!(toks[i].text.as_str(), "lock" | "read" | "write")
        && i > 0
        && toks[i - 1].is_punct(".")
        && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(")"))
}

/// The receiver chain of a `.name(` call at `i`, innermost-last:
/// `self.state.lock()` → `["self", "state"]`.
fn receiver_chain(toks: &[Token], i: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = i - 1; // the `.` before the method name
    loop {
        if j == 0 || !toks[j].is_punct(".") {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind != TokKind::Ident {
            break;
        }
        chain.push(prev.text.clone());
        if j < 2 {
            break;
        }
        j -= 2;
    }
    chain.reverse();
    chain
}

/// Stable lock key for an acquisition's receiver chain.
fn lock_key(chain: &[String], self_ty: Option<&str>) -> String {
    match (chain.first().map(String::as_str), self_ty) {
        (Some("self"), Some(ty)) if chain.len() > 1 => {
            format!("{ty}.{}", chain[1..].join("."))
        }
        (Some("self"), Some(ty)) => ty.to_string(),
        _ => {
            if chain.is_empty() {
                "<expr>".to_string()
            } else {
                chain.join(".")
            }
        }
    }
}

/// Extracts the acquisitions of one body, in source order.
fn body_acquisitions(ctx: &FileCtx, body: (usize, usize), self_ty: Option<&str>) -> Vec<Acq> {
    let toks = &ctx.tokens;
    let mut out = Vec::new();
    for i in body.0..body.1.min(toks.len()) {
        if !acquisition_at(toks, i) {
            continue;
        }
        let key = lock_key(&receiver_chain(toks, i), self_ty);
        // `let [mut] g = …` binding, looking back past the receiver.
        let mut j = i;
        while j > body.0 && (toks[j - 1].kind == TokKind::Ident || toks[j - 1].is_punct(".")) {
            j -= 1;
        }
        let binding = if j >= 2 && toks[j - 1].is_punct("=") {
            let mut k = j - 1;
            while k > body.0 && !toks[k - 1].is_ident("let") {
                k -= 1;
                if i - k > 6 {
                    break;
                }
            }
            (k > body.0 && toks[k - 1].is_ident("let"))
                .then(|| {
                    (k..j - 1)
                        .rev()
                        .find(|&m| toks[m].kind == TokKind::Ident && !toks[m].is_ident("mut"))
                        .map(|m| toks[m].text.clone())
                })
                .flatten()
        } else {
            None
        };
        let unwrapped = ctx
            .site_at(i + 4)
            .is_some_and(|s| s.kind == SiteKind::Panic);
        out.push(Acq {
            key,
            tok: i,
            line: toks[i].line,
            binding,
            unwrapped,
        });
    }
    out
}

/// Token ranges of `while … { … }` / `loop { … }` blocks in a body.
fn loop_blocks(toks: &[Token], body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let end = body.1.min(toks.len());
    for i in body.0..end {
        if !(toks[i].is_ident("while") || toks[i].is_ident("loop")) {
            continue;
        }
        // The body block is the next `{` at relative delimiter depth 0.
        let mut depth = 0isize;
        let mut j = i + 1;
        while j < end {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                if let Some(close) = crate::context::matching(toks, j, "{", "}") {
                    out.push((j, close));
                }
                break;
            } else if t.is_punct(";") && depth == 0 {
                break;
            }
            j += 1;
        }
    }
    out
}

/// Runs the L1 rule family.
pub(crate) fn analyze_locks(
    graph: &CallGraph,
    files: &[(FileCtx, ParsedFile)],
    panic: &Reach,
) -> (Vec<Finding>, LockReport) {
    // Direct acquisitions per node.
    let mut acqs: BTreeMap<usize, Vec<Acq>> = BTreeMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.in_test || !matches!(n.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let Some(body) = n.body else { continue };
        let a = body_acquisitions(&files[n.file_idx].0, body, n.self_ty.as_deref());
        if !a.is_empty() {
            acqs.insert(i, a);
        }
    }

    // Transitive lock set per node (fixed point over the call graph).
    let n_nodes = graph.nodes.len();
    let mut locks_of: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n_nodes];
    for (&i, list) in &acqs {
        locks_of[i].extend(list.iter().map(|a| a.key.clone()));
    }
    loop {
        let mut changed = false;
        for &(caller, callee) in &graph.edges {
            if locks_of[callee].is_empty() {
                continue;
            }
            let add: Vec<String> = locks_of[callee]
                .iter()
                .filter(|k| !locks_of[caller].contains(*k))
                .cloned()
                .collect();
            if !add.is_empty() {
                locks_of[caller].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Callable-name index for position-aware call scanning inside
    // guarded regions (same-crate candidates win).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if !n.in_test {
            by_name.entry(n.name.as_str()).or_default().push(i);
        }
    }

    let mut findings = Vec::new();
    let mut report = LockReport::default();
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();

    for (i, n) in graph.nodes.iter().enumerate() {
        if n.in_test || !matches!(n.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let Some(body) = n.body else { continue };
        let ctx = &files[n.file_idx].0;
        let toks = &ctx.tokens;
        let end = body.1.min(toks.len());
        let list = acqs.get(&i).map_or(&[][..], |v| v.as_slice());
        for a in list {
            report.sites.push(LockSite {
                key: a.key.clone(),
                file: n.file.clone(),
                line: a.line,
                func: n.display.clone(),
            });
            if a.unwrapped && n.kind == FileKind::Lib {
                findings.push(mk_finding(
                    "L1",
                    &n.file,
                    a.line,
                    format!(
                        "`.lock().unwrap()` on `{}` in library code: one poisoning panic cascades into every later locker",
                        a.key
                    ),
                    None,
                ));
            }
        }

        // Condvar waits: `.wait(guard)` / `.wait_timeout(guard, …)`.
        let blocks = loop_blocks(toks, body);
        for j in body.0..end {
            let is_wait = toks[j].kind == TokKind::Ident
                && matches!(toks[j].text.as_str(), "wait" | "wait_timeout")
                && j > 0
                && toks[j - 1].is_punct(".")
                && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
                && !toks.get(j + 2).is_some_and(|t| t.is_punct(")"));
            if !is_wait {
                continue;
            }
            let guarded = blocks.iter().any(|&(o, c)| o < j && j < c);
            report.waits.push((n.file.clone(), toks[j].line, guarded));
            if !guarded {
                findings.push(mk_finding(
                    "L1",
                    &n.file,
                    toks[j].line,
                    "`Condvar::wait` outside a `while`/`loop` re-check: a spurious wakeup skips the predicate".to_string(),
                    None,
                ));
            }
        }

        if list.is_empty() {
            continue;
        }
        // Guarded-region scan: what happens after each acquisition and
        // before an explicit `drop(binding)`.
        for (ai, a) in list.iter().enumerate() {
            let mut released_at = end;
            if let Some(b) = &a.binding {
                for j in a.tok..end {
                    if toks[j].is_ident("drop")
                        && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
                        && toks.get(j + 2).is_some_and(|t| t.is_ident(b))
                    {
                        released_at = j;
                        break;
                    }
                }
            }
            // Direct ordered pairs within the body.
            for b in &list[ai + 1..] {
                if b.tok < released_at && b.key != a.key {
                    edges
                        .entry((a.key.clone(), b.key.clone()))
                        .or_insert((n.file.clone(), b.line));
                }
            }
            // Calls made while the guard is live.
            for j in a.tok + 3..released_at.min(end) {
                if toks[j].kind != TokKind::Ident
                    || !toks.get(j + 1).is_some_and(|t| t.is_punct("("))
                {
                    continue;
                }
                let name = toks[j].text.as_str();
                if matches!(
                    name,
                    "if" | "while" | "for" | "match" | "loop" | "return" | "drop"
                ) || acquisition_at(toks, j)
                {
                    continue;
                }
                let Some(cands) = by_name.get(name) else {
                    continue;
                };
                // Same-crate candidates only: name-level resolution
                // across crate lines is too coarse for this check.
                let resolved: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| graph.nodes[c].crate_name == n.crate_name)
                    .collect();
                for c in resolved {
                    if c == i {
                        continue;
                    }
                    for k in &locks_of[c] {
                        if *k != a.key {
                            edges
                                .entry((a.key.clone(), k.clone()))
                                .or_insert((n.file.clone(), toks[j].line));
                        }
                    }
                    if panic.reaches(c) && n.kind == FileKind::Lib {
                        findings.push(mk_finding(
                            "L1",
                            &n.file,
                            toks[j].line,
                            format!(
                                "guard on `{}` held across call to `{}`, which can reach a panic site",
                                a.key, graph.nodes[c].display
                            ),
                            Some(format!("{} -> {}", n.display, graph.nodes[c].display)),
                        ));
                    }
                }
            }
        }
    }

    report
        .sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.waits.sort();
    for ((from, to), (file, line)) in &edges {
        report.edges.push(LockEdge {
            from: from.clone(),
            to: to.clone(),
            file: file.clone(),
            line: *line,
        });
    }

    // Cycle detection over the order digraph (iterative DFS with a
    // back-edge stack; each cycle reported once, rotated to start at
    // its smallest key).
    let keys: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let adj: BTreeMap<&String, Vec<&String>> = keys
        .iter()
        .map(|&k| {
            (
                k,
                edges
                    .keys()
                    .filter(|(a, _)| a == k)
                    .map(|(_, b)| b)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in &keys {
        let mut stack: Vec<(&String, usize)> = vec![(start, 0)];
        let mut path: Vec<&String> = vec![start];
        while let Some((node, next)) = stack.last_mut() {
            let succs = &adj[*node];
            if *next >= succs.len() {
                stack.pop();
                path.pop();
                continue;
            }
            let succ = succs[*next];
            *next += 1;
            if let Some(pos) = path.iter().position(|&p| p == succ) {
                let mut cyc: Vec<String> = path[pos..].iter().map(|s| (*s).clone()).collect();
                // Canonical rotation: smallest key first.
                let min_at = cyc
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, k)| k.as_str())
                    .map_or(0, |(p, _)| p);
                cyc.rotate_left(min_at);
                seen_cycles.insert(cyc);
                continue;
            }
            if path.len() < 16 {
                path.push(succ);
                stack.push((succ, 0));
            }
        }
    }
    for cyc in seen_cycles {
        let display = format!("{} -> {}", cyc.join(" -> "), cyc[0]);
        let (file, line) = cyc
            .first()
            .zip(cyc.get(1).or(cyc.first()))
            .and_then(|(a, b)| edges.get(&(a.clone(), b.clone())))
            .cloned()
            .unwrap_or_else(|| ("lint.capabilities.toml".to_string(), 1));
        findings.push(mk_finding(
            "L1",
            &file,
            line,
            format!("lock-order cycle (potential deadlock): {display}"),
            Some(display.clone()),
        ));
        report.cycles.push(display);
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.message).cmp(&(&b.file, b.line, b.col, &b.message))
    });
    (findings, report)
}
