//! U1 — untrusted-input taint: byte streams entering through
//! `Read`/socket primitives are sources; integers derived from them
//! must pass a bound check against a named limit before sizing an
//! allocation, indexing a slice, or feeding unchecked arithmetic.
//!
//! The analysis is a forward intraprocedural dataflow over each body's
//! token range, with two call-graph summaries gluing helpers together:
//!
//! * a function whose body (transitively) performs a primitive read
//!   (`.read_exact(…)`, `.read(buf)`, `.read_to_end(…)`, `.recv(…)`)
//!   *returns tainted data*, and
//! * a function taking a raw byte-slice/`Vec<u8>` parameter in a crate
//!   whose manifest declares `net` treats that parameter as tainted
//!   within its own body — the bytes came off a socket somewhere.
//!
//! Within a body, taint propagates through `let` bindings and `&mut`
//! read targets; `.len()` results are clean (bounded by real bytes on
//! hand, not by an attacker-chosen length field). A tainted value is
//! *sanitized* by a comparison (or `.min(…)`/`.clamp(…)`) against a
//! named `UPPER_SNAKE` constant or an identifier naming a bound
//! (`max`, `cap`, `limit`, `bound`); `checked_*`/`saturating_*`/
//! `wrapping_*` arithmetic is always fine.

use crate::capabilities::CapsManifest;
use crate::context::{matching, FileCtx, FileKind};
use crate::graph::CallGraph;
use crate::lexer::{TokKind, Token};
use crate::parser::ParsedFile;
use crate::rules::Finding;
use crate::semantic::{mk_finding, Reach};
use crate::sites::{Site, SiteKind};
use std::collections::{BTreeMap, BTreeSet};

/// One observed source→sink flow, bounded or not — the `--report
/// taint` listing.
#[derive(Debug, Clone)]
pub struct TaintFlow {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the sink (or of the bound check).
    pub line: u32,
    /// The flow as ` -> `-joined steps, source first.
    pub path: String,
    /// Did a bound check intervene?
    pub bounded: bool,
}

/// Every taint flow the analyzer traced (`--report taint`).
#[derive(Debug, Clone, Default)]
pub struct TaintReport {
    /// Flows ordered by (file, line, path).
    pub flows: Vec<TaintFlow>,
}

impl TaintReport {
    /// Human-readable flow listing.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::from("untrusted-input flows (source -> … -> sink):\n");
        if self.flows.is_empty() {
            out.push_str("  (none)\n");
            return out;
        }
        for f in &self.flows {
            out.push_str(&format!(
                "  [{}] {}:{} {}\n",
                if f.bounded { "bounded" } else { "OPEN" },
                f.file,
                f.line,
                f.path,
            ));
        }
        out
    }
}

/// `UPPER_SNAKE` constant, or an identifier that *names* a bound.
/// Shared with M1, which accepts a `MAX_*`-style constant as a clamp
/// on an otherwise-unbounded container field.
pub(crate) fn names_a_bound(text: &str) -> bool {
    let upper_snake = text.len() >= 2
        && text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && text.chars().any(|c| c.is_ascii_uppercase());
    if upper_snake {
        return true;
    }
    let lower = text.to_ascii_lowercase();
    ["max", "cap", "limit", "bound"]
        .iter()
        .any(|k| lower.contains(k))
}

/// Does the token range contain a bound-naming identifier?
fn range_names_bound(toks: &[Token], range: (usize, usize)) -> bool {
    toks[range.0..range.1.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && names_a_bound(&t.text))
}

/// Byte-slice parameter names of a signature token range: identifiers
/// whose declared type mentions `u8`.
fn byte_params(toks: &[Token], sig: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    // Find the parameter list: first `(` in the signature.
    let Some(open) = (sig.0..sig.1.min(toks.len())).find(|&i| toks[i].is_punct("(")) else {
        return out;
    };
    let Some(close) = matching(toks, open, "(", ")") else {
        return out;
    };
    let mut i = open + 1;
    while i < close {
        // A parameter starts `name :` at top level (skip `mut`, `self`).
        if toks[i].kind == TokKind::Ident
            && !toks[i].is_ident("mut")
            && !toks[i].is_ident("self")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
        {
            let name = toks[i].text.clone();
            // Type extends to the next top-level `,` (or the close).
            let mut j = i + 2;
            let mut depth = 0usize;
            let mut has_u8 = false;
            while j < close {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct(",") && depth == 0 {
                    break;
                } else if t.is_ident("u8") {
                    // A byte *buffer* (`&[u8]`, `Vec<u8>`), not a bare
                    // scalar `u8` selector.
                    let sliceish = (j >= 1 && toks[j - 1].is_punct("["))
                        || (j >= 2 && toks[j - 2].is_ident("Vec"));
                    if sliceish {
                        has_u8 = true;
                    }
                }
                j += 1;
            }
            if has_u8 {
                out.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Which functions return tainted data, split by call form so a bare
/// `Vec::new()` cannot match an unrelated tainted method named `new`.
#[derive(Debug, Default)]
struct TaintedFns {
    /// Free functions, by bare name (`read_frame`).
    free: BTreeSet<String>,
    /// Methods, by bare name (`.u64(` on a tainted-returning impl).
    methods: BTreeSet<String>,
    /// Qualified constructors/associated fns, as `Type::name`.
    typed: BTreeSet<String>,
}

/// The tainted-variable state of one body walk.
struct Walk<'a> {
    ctx: &'a FileCtx,
    body: (usize, usize),
    /// var → provenance chain (`source -> … -> var`).
    tainted: BTreeMap<String, String>,
    tainted_fns: &'a TaintedFns,
}

impl Walk<'_> {
    /// Is token `i` a primitive read?
    fn read_at(&self, i: usize) -> Option<&Site> {
        self.ctx.site_at(i).filter(|s| s.kind == SiteKind::Read)
    }

    /// Does `range` *produce* a tainted value? Returns the provenance
    /// of the first taint source found, unless the range also bounds it
    /// via `.min(…)`/`.clamp(…)` against a named limit.
    fn range_taint(&self, range: (usize, usize)) -> Option<String> {
        let toks = &self.ctx.tokens;
        let end = range.1.min(toks.len());
        let mut source = None;
        for i in range.0..end {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let text = toks[i].text.as_str();
            // `x.len()` is clean: bounded by bytes actually on hand.
            if toks.get(i + 1).is_some_and(|t| t.is_punct("."))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("len"))
            {
                continue;
            }
            if let Some(prov) = self.tainted.get(text) {
                source.get_or_insert_with(|| prov.clone());
            }
            if let Some(read) = self.read_at(i) {
                source.get_or_insert_with(|| read.label.to_string());
            }
            // A call to a function that returns tainted data. The
            // call form must match how the function is defined.
            if toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                let after_dot = i > 0 && toks[i - 1].is_punct(".");
                let after_colons = i >= 2 && toks[i - 1].is_punct(":") && toks[i - 2].is_punct(":");
                let hit = if after_dot {
                    self.tainted_fns.methods.contains(text)
                } else if after_colons {
                    let head = (i >= 3 && toks[i - 3].kind == TokKind::Ident)
                        .then(|| toks[i - 3].text.as_str());
                    head.is_some_and(|h| self.tainted_fns.typed.contains(&format!("{h}::{text}")))
                        || self.tainted_fns.free.contains(text)
                } else {
                    self.tainted_fns.free.contains(text)
                };
                if hit {
                    source.get_or_insert_with(|| format!("`{text}()`"));
                }
            }
        }
        let bounded = (range.0..end).any(|i| {
            toks[i].kind == TokKind::Ident
                && (toks[i].is_ident("min") || toks[i].is_ident("clamp"))
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                && range_names_bound(toks, (i, range.1))
        });
        if bounded {
            None
        } else {
            source
        }
    }

    /// Marks every ident inside a primitive read's argument list
    /// tainted (`r.read_exact(&mut lenb)` taints `lenb`).
    fn taint_read_args(&mut self, i: usize) {
        let toks = &self.ctx.tokens;
        let Some(close) = matching(toks, i + 1, "(", ")") else {
            return;
        };
        let src = format!("`.{}()`", toks[i].text);
        for tok in toks.iter().take(close).skip(i + 2) {
            if tok.kind == TokKind::Ident && !tok.is_ident("mut") {
                let name = tok.text.clone();
                self.tainted
                    .entry(name.clone())
                    .or_insert_with(|| format!("{src} -> {name}"));
            }
        }
    }
}

/// Runs the U1 taint rule over every shipping function body.
pub(crate) fn analyze_taint(
    graph: &CallGraph,
    files: &[(FileCtx, ParsedFile)],
    reads: &Reach,
    manifest: Option<&CapsManifest>,
) -> (Vec<Finding>, TaintReport) {
    // The two summaries: a function that reaches a primitive read (the
    // shared `reads` walk) returns tainted data, and byte-slice
    // parameters in net-manifest crates are tainted in their own body.
    let mut tainted_fns = TaintedFns::default();
    let mark = |n: &crate::graph::FnNode, fns: &mut TaintedFns| match &n.self_ty {
        Some(ty) => {
            fns.methods.insert(n.name.clone());
            fns.typed.insert(format!("{ty}::{}", n.name));
        }
        None => {
            fns.free.insert(n.name.clone());
        }
    };
    let mut param_taint: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if reads.reaches(i) {
            mark(n, &mut tainted_fns);
        }
        let in_net_crate = manifest.is_some_and(|m| m.declares(&n.crate_name, "net"));
        if !in_net_crate || n.in_test {
            continue;
        }
        let ctx = &files[n.file_idx].0;
        let Some(def) = files[n.file_idx]
            .1
            .fns
            .iter()
            .find(|d| d.line == n.line && d.name == n.name)
        else {
            continue;
        };
        // Byte-buffer params are tainted *inside this body* only — a
        // byte-slice argument says nothing about the return value, and
        // name-level "returns tainted" for common method names (`get`)
        // would poison unrelated crates.
        let params = byte_params(&ctx.tokens, def.sig);
        if !params.is_empty() {
            param_taint.insert(i, params);
        }
    }

    let mut findings = Vec::new();
    let mut flows = Vec::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.in_test || !matches!(n.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let Some(body) = n.body else { continue };
        let ctx = &files[n.file_idx].0;
        let mut walk = Walk {
            ctx,
            body,
            tainted: BTreeMap::new(),
            tainted_fns: &tainted_fns,
        };
        for p in param_taint.get(&i).map_or(&[][..], |v| v.as_slice()) {
            walk.tainted
                .insert(p.clone(), format!("`&[u8]` param -> {p}"));
        }
        scan_body(&mut walk, &n.file, &mut findings, &mut flows);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    flows.sort_by(|a, b| (&a.file, a.line, &a.path).cmp(&(&b.file, b.line, &b.path)));
    (findings, TaintReport { flows })
}

/// One statement's extent: from `start` to its `;` at relative
/// bracket/brace depth 0, exclusive.
fn statement_end(toks: &[Token], start: usize, body_end: usize) -> usize {
    let mut depth = 0isize;
    let mut i = start;
    let end = body_end.min(toks.len());
    while i < end {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        } else if t.is_punct(";") && depth == 0 {
            return i;
        }
        i += 1;
    }
    end
}

/// The forward walk: propagate taint through `let` bindings, drop it at
/// bound checks, and flag tainted sinks.
fn scan_body(
    walk: &mut Walk<'_>,
    file: &str,
    findings: &mut Vec<Finding>,
    flows: &mut Vec<TaintFlow>,
) {
    let (start, body_end) = walk.body;
    let toks = &walk.ctx.tokens;
    let end = body_end.min(toks.len());
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Primitive reads taint their `&mut` buffer arguments.
        if walk.read_at(i).is_some() {
            walk.taint_read_args(i);
            i += 1;
            continue;
        }
        // `let pat [: ty] = rhs ;` — bind taint to the pattern idents.
        // In `if let` / `while let` the "statement" is the scrutinee
        // only: it ends at the block `{`, not at some `;` inside it.
        if t.is_ident("let") {
            let conditional =
                i > start && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
            let mut stmt_end = statement_end(toks, i, end);
            if conditional {
                let mut depth = 0isize;
                for (j, tj) in toks.iter().enumerate().take(stmt_end).skip(i + 1) {
                    if tj.is_punct("(") || tj.is_punct("[") {
                        depth += 1;
                    } else if tj.is_punct(")") || tj.is_punct("]") {
                        depth -= 1;
                    } else if tj.is_punct("{") && depth <= 0 {
                        stmt_end = j;
                        break;
                    }
                }
            }
            let mut eq = None;
            let mut depth = 0isize;
            for j in i + 1..stmt_end {
                let tj = &toks[j];
                if tj.is_punct("(") || tj.is_punct("[") || tj.is_punct("<") {
                    depth += 1;
                } else if tj.is_punct(")") || tj.is_punct("]") || tj.is_punct(">") {
                    depth -= 1;
                } else if tj.is_punct("=") && depth <= 0 && !toks[j - 1].is_punct("=") {
                    eq = Some(j);
                    break;
                }
            }
            if let Some(eq) = eq {
                if let Some(prov) = walk.range_taint((eq + 1, stmt_end)) {
                    // Pattern idents: everything before a top-level `:`.
                    let mut pat_end = eq;
                    for j in i + 1..eq {
                        if toks[j].is_punct(":")
                            && !toks.get(j + 1).is_some_and(|t| t.is_punct(":"))
                        {
                            pat_end = j;
                            break;
                        }
                    }
                    for j in i + 1..pat_end {
                        // Constructor/path heads (`Some(x)`, `Frame::End`)
                        // are not bindings — only the leaf idents are.
                        let constructor = toks
                            .get(j + 1)
                            .is_some_and(|t| t.is_punct("(") || t.is_punct(":"));
                        if toks[j].kind == TokKind::Ident
                            && !constructor
                            && !matches!(toks[j].text.as_str(), "mut" | "ref" | "_")
                        {
                            let name = toks[j].text.clone();
                            walk.tainted
                                .insert(name.clone(), format!("{prov} -> {name}"));
                        }
                    }
                }
                i = eq + 1; // the RHS is re-scanned for sinks below
                continue;
            }
            i += 1;
            continue;
        }
        // Bound check: `v <cmp> BOUND` (or `BOUND <cmp> v`) sanitizes v.
        if let Some(prov) = walk.tainted.get(t.text.as_str()).cloned() {
            // This occurrence is `v.len()` — bounded by bytes on hand.
            if toks.get(i + 1).is_some_and(|n| n.is_punct("."))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("len"))
            {
                i += 1;
                continue;
            }
            let cmp_next = toks.get(i + 1).is_some_and(|n| {
                (n.is_punct("<") || n.is_punct(">"))
                    && !toks
                        .get(i + 2)
                        .is_some_and(|m| m.is_punct("<") || m.is_punct(">"))
            });
            let cmp_prev = i >= 1
                && (toks[i - 1].is_punct("<") || toks[i - 1].is_punct(">"))
                && !(i >= 2 && toks[i - 2].is_punct("-"));
            let window = if cmp_next {
                Some((i + 2, (i + 10).min(end)))
            } else if cmp_prev {
                Some((i.saturating_sub(8), i - 1))
            } else {
                None
            };
            if let Some(w) = window {
                if range_names_bound(toks, w) {
                    walk.tainted.remove(t.text.as_str());
                    flows.push(TaintFlow {
                        file: file.to_string(),
                        line: t.line,
                        path: format!("{prov} -> bound check"),
                        bounded: true,
                    });
                    i += 1;
                    continue;
                }
            }
            // `.min(BOUND)` / `.clamp(…)` on the variable sanitizes the
            // expression; a plain reassignment keeps taint.
            if toks.get(i + 1).is_some_and(|n| n.is_punct("."))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("min") || n.is_ident("clamp"))
                && range_names_bound(toks, (i + 3, (i + 12).min(end)))
            {
                flows.push(TaintFlow {
                    file: file.to_string(),
                    line: t.line,
                    path: format!("{prov} -> `.min()` clamp"),
                    bounded: true,
                });
                i += 3;
                continue;
            }
            // Sinks.
            if let Some(sink) = sink_at(walk, i) {
                let line = t.line;
                let col = t.col;
                findings.push(mk_finding(
                    "U1",
                    file,
                    line,
                    format!(
                        "tainted `{}` flows into {sink} without a bound check",
                        t.text
                    ),
                    Some(format!("{prov} -> {sink}")),
                ));
                // Make the last-created finding carry the real column.
                if let Some(f) = findings.last_mut() {
                    f.col = col;
                }
                flows.push(TaintFlow {
                    file: file.to_string(),
                    line,
                    path: format!("{prov} -> {sink}"),
                    bounded: false,
                });
                // One report per variable per body keeps the noise down.
                walk.tainted.remove(t.text.as_str());
            }
        }
        i += 1;
    }
}

/// Is the tainted identifier at `i` feeding a sink? Returns the sink
/// label.
fn sink_at(walk: &Walk<'_>, i: usize) -> Option<String> {
    let toks = &walk.ctx.tokens;
    let end = walk.body.1.min(toks.len());
    // Enclosing-call detection: walk back over balanced groups to find
    // `with_capacity (` / `vec ! [` whose argument list contains `i`.
    let mut depth = 0isize;
    let mut j = i;
    while j > walk.body.0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            if depth > 0 {
                depth -= 1;
                continue;
            }
            // `i` sits directly inside this group.
            if t.is_punct("(") && j >= 1 && toks[j - 1].is_ident("with_capacity") {
                return Some("`with_capacity`".to_string());
            }
            if t.is_punct("[") {
                // `vec![elem; n]` — the capacity slot only.
                if j >= 2 && toks[j - 1].is_punct("!") && toks[j - 2].is_ident("vec") {
                    let semi = (j + 1..i).find(|&k| toks[k].is_punct(";"));
                    if semi.is_some() {
                        return Some("`vec![_; n]`".to_string());
                    }
                    return None;
                }
                // Slice/array indexing: `expr[i]` — the opener follows
                // a value token.
                let ident_value = toks[j - 1].kind == TokKind::Ident
                    && !matches!(
                        toks[j - 1].text.as_str(),
                        "in" | "return"
                            | "break"
                            | "if"
                            | "else"
                            | "match"
                            | "while"
                            | "loop"
                            | "as"
                            | "move"
                            | "mut"
                            | "ref"
                            | "unsafe"
                            | "await"
                            | "yield"
                    );
                if j >= 1 && (ident_value || toks[j - 1].is_punct(")") || toks[j - 1].is_punct("]"))
                {
                    return Some("slice index".to_string());
                }
            }
            // Keep walking out of nested groups.
            continue;
        } else if t.is_punct(";") && depth == 0 {
            break;
        }
    }
    // Unchecked arithmetic adjacency: `t * x`, `x * t`, `t + x`, …
    let stmt_start = (walk.body.0..=i)
        .rev()
        .find(|&k| toks[k].is_punct(";") || toks[k].is_punct("{"))
        .map_or(walk.body.0, |k| k + 1);
    let stmt_end = statement_end(toks, i, end);
    let checked = (stmt_start..stmt_end).any(|k| {
        toks[k].kind == TokKind::Ident
            && ["checked_", "saturating_", "wrapping_"]
                .iter()
                .any(|p| toks[k].text.starts_with(p))
    });
    if checked {
        return None;
    }
    let bin_after = toks
        .get(i + 1)
        .is_some_and(|t| t.is_punct("*") || t.is_punct("+"))
        && toks
            .get(i + 2)
            .is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Literal));
    let bin_before = i >= 2
        && (toks[i - 1].is_punct("*") || toks[i - 1].is_punct("+"))
        && (matches!(toks[i - 2].kind, TokKind::Ident | TokKind::Literal)
            || toks[i - 2].is_punct(")"));
    if bin_after || bin_before {
        return Some("unchecked arithmetic".to_string());
    }
    None
}
