//! Per-file analysis context: what kind of target a file belongs to,
//! which token spans are test code, which tokens are sites, and where
//! functions live.

use crate::lexer::{TokKind, Token};
use crate::sites::{classify as classify_sites, Site};

/// What compilation target a source file belongs to, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code — the panic-safety rules apply here.
    Lib,
    /// Binary code (`src/main.rs`, `src/bin/`, and all of `crates/cli`).
    Bin,
    /// Integration tests (`tests/` directories).
    Test,
    /// Benchmarks (`benches/` directories).
    Bench,
    /// Examples (`examples/` directories).
    Example,
}

/// The analysis context for one source file.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Owning crate directory name (`core`, `mesh`, …; the umbrella
    /// crate's `src/` and `tests/` map to `anr-marching`).
    pub crate_name: String,
    /// Target classification.
    pub kind: FileKind,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// `in_test[i]` — token `i` is inside `#[cfg(test)]` / `#[test]` /
    /// proptest-macro code.
    pub in_test: Vec<bool>,
    /// The file's site table, sorted by token.
    pub(crate) sites: Vec<Site>,
}

impl FileCtx {
    /// Builds the context for one file.
    #[must_use]
    pub fn new(rel_path: &str, src: &str) -> FileCtx {
        let rel_path = rel_path.replace('\\', "/");
        let tokens = crate::lexer::lex(src);
        let in_test = mark_test_regions(&tokens);
        let sites = classify_sites(&tokens);
        let (crate_name, kind) = classify(&rel_path);
        FileCtx {
            rel_path,
            crate_name,
            kind,
            tokens,
            in_test,
            sites,
        }
    }

    /// The sites inside a token range (a function body).
    #[must_use]
    pub(crate) fn sites_in(&self, (start, end): (usize, usize)) -> &[Site] {
        let from = self.sites.partition_point(|s| s.tok < start);
        let to = self.sites.partition_point(|s| s.tok < end);
        &self.sites[from..to.max(from)]
    }

    /// The site at token `i`, if it is one.
    #[must_use]
    pub(crate) fn site_at(&self, i: usize) -> Option<&Site> {
        self.sites
            .binary_search_by_key(&i, |s| s.tok)
            .ok()
            .map(|k| &self.sites[k])
    }

    /// Library code outside any test region?
    #[must_use]
    pub fn is_lib_code(&self, i: usize) -> bool {
        self.kind == FileKind::Lib && !self.in_test[i]
    }

    /// Shipping (library or binary) code outside any test region?
    #[must_use]
    pub fn is_shipping_code(&self, i: usize) -> bool {
        matches!(self.kind, FileKind::Lib | FileKind::Bin) && !self.in_test[i]
    }

    /// Is this file a crate root (`src/lib.rs`)?
    #[must_use]
    pub fn is_crate_root(&self) -> bool {
        self.rel_path.ends_with("src/lib.rs")
    }
}

fn classify(rel_path: &str) -> (String, FileKind) {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("anr-marching")
        .to_string();
    let kind = if rel_path.contains("/tests/") || rel_path.starts_with("tests/") {
        FileKind::Test
    } else if rel_path.contains("/benches/") || rel_path.starts_with("benches/") {
        FileKind::Bench
    } else if rel_path.contains("/examples/") || rel_path.starts_with("examples/") {
        FileKind::Example
    } else if rel_path.contains("/src/bin/")
        || rel_path.ends_with("src/main.rs")
        || crate_name == "cli"
    {
        // The CLI crate is the binary surface end to end; its lib.rs
        // exists only so the binary's logic is unit-testable.
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    (crate_name, kind)
}

/// Marks tokens inside test-only items: any item annotated
/// `#[cfg(test)]` (but not `cfg(not(test))`), `#[test]`, or a proptest
/// macro block (`proptest! { … }`).
fn mark_test_regions(toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let mut region: Option<(usize, usize)> = None;
        if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            let close = match matching(toks, i + 1, "[", "]") {
                Some(c) => c,
                None => break,
            };
            if attr_is_test(&toks[i + 1..=close]) {
                if let Some(end) = item_body_end(toks, close + 1) {
                    region = Some((i, end));
                }
            }
            // Attributes never nest; resume after `]` either way so
            // stacked attributes (`#[test] #[ignore] fn …`) still see
            // the item.
            if region.is_none() {
                i = close + 1;
                continue;
            }
        } else if toks[i].is_ident("proptest") && i + 1 < toks.len() && toks[i + 1].is_punct("!") {
            if let Some(open) = toks[i + 2..].iter().position(|t| t.is_punct("{")) {
                if let Some(end) = matching(toks, i + 2 + open, "{", "}") {
                    region = Some((i, end));
                }
            }
        }
        match region {
            Some((start, end)) => {
                for flag in &mut in_test[start..=end] {
                    *flag = true;
                }
                i = end + 1;
            }
            None => i += 1,
        }
    }
    in_test
}

/// Does an attribute token slice (from `[` to `]`) mark test-only code?
fn attr_is_test(attr: &[Token]) -> bool {
    let has = |name: &str| attr.iter().any(|t| t.is_ident(name));
    if has("not") {
        return false; // `cfg(not(test))` is shipping code
    }
    (has("cfg") && has("test")) || attr.iter().any(|t| t.is_ident("test") && attr.len() <= 3)
}

/// Finds the end of the item starting at `start` (after its
/// attributes): the matching `}` of its first block, or the first `;`
/// for body-less items. Skips over any further attributes.
fn item_body_end(toks: &[Token], mut start: usize) -> Option<usize> {
    while start + 1 < toks.len() && toks[start].is_punct("#") && toks[start + 1].is_punct("[") {
        start = matching(toks, start + 1, "[", "]")? + 1;
    }
    let mut j = start;
    while j < toks.len() {
        if toks[j].is_punct(";") {
            return Some(j);
        }
        if toks[j].is_punct("{") {
            return matching(toks, j, "{", "}");
        }
        j += 1;
    }
    None
}

/// Index of the delimiter matching `toks[open]`.
pub(crate) fn matching(
    toks: &[Token],
    open: usize,
    open_ch: &str,
    close_ch: &str,
) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// A function item found in a file: its name and body token range.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    /// Function name.
    pub(crate) name: String,
    /// Line of the `fn` keyword.
    pub(crate) line: u32,
    /// Token range of the body (inside the braces, exclusive).
    pub(crate) body: (usize, usize),
}

/// Extracts every named `fn` item with a body (at any nesting level).
#[must_use]
pub(crate) fn functions(toks: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Scan the signature for the body `{`; a `;` first means a
            // trait method declaration without a body.
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                if toks[j].is_punct(";") {
                    break;
                }
                if toks[j].is_punct("{") {
                    if let Some(end) = matching(toks, j, "{", "}") {
                        body = Some((j + 1, end));
                    }
                    break;
                }
                j += 1;
            }
            if let Some(body) = body {
                fns.push(FnItem { name, line, body });
            }
        }
        i += 1;
    }
    fns
}

/// The set of names invoked as calls (`name(…)`, `.name(…)`, or
/// `name!{…}`) within a token range, sorted and deduplicated.
#[must_use]
pub(crate) fn call_names(toks: &[Token], range: (usize, usize)) -> Vec<String> {
    let mut names = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1);
        let called = match next {
            Some(t) if t.is_punct("(") => !toks
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_ident("fn")),
            Some(t) if t.is_punct("!") => true,
            _ => false,
        };
        if called {
            names.push(toks[i].text.clone());
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classifies_paths() {
        assert_eq!(
            classify("crates/mesh/src/foi.rs"),
            ("mesh".into(), FileKind::Lib)
        );
        assert_eq!(
            classify("crates/cli/src/commands.rs"),
            ("cli".into(), FileKind::Bin)
        );
        assert_eq!(
            classify("crates/netgraph/tests/properties.rs"),
            ("netgraph".into(), FileKind::Test)
        );
        assert_eq!(
            classify("tests/lemmas.rs"),
            ("anr-marching".into(), FileKind::Test)
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            ("anr-marching".into(), FileKind::Example)
        );
        assert_eq!(
            classify("src/lib.rs"),
            ("anr-marching".into(), FileKind::Lib)
        );
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn shipping() {}\n#[cfg(test)]\nmod tests { fn helper() { x.unwrap(); } }";
        let ctx = FileCtx::new("crates/core/src/x.rs", src);
        let unwrap_at = ctx
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(ctx.in_test[unwrap_at]);
        let shipping_at = ctx
            .tokens
            .iter()
            .position(|t| t.is_ident("shipping"))
            .unwrap();
        assert!(!ctx.in_test[shipping_at]);
    }

    #[test]
    fn cfg_not_test_is_shipping() {
        let src = "#[cfg(not(test))]\nfn real() { x.unwrap(); }";
        let ctx = FileCtx::new("crates/core/src/x.rs", src);
        assert!(ctx.in_test.iter().all(|&b| !b));
    }

    #[test]
    fn stacked_attrs_and_test_fn() {
        let src = "#[test]\n#[ignore]\nfn t() { x.unwrap(); }\nfn live() {}";
        let ctx = FileCtx::new("crates/core/src/x.rs", src);
        let unwrap_at = ctx
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(ctx.in_test[unwrap_at]);
        let live_at = ctx.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!ctx.in_test[live_at]);
    }

    #[test]
    fn derive_attrs_do_not_swallow_items() {
        let src = "#[derive(Debug, Clone)]\nstruct S { x: u32 }\nfn live() { y.unwrap(); }";
        let ctx = FileCtx::new("crates/core/src/x.rs", src);
        assert!(ctx.in_test.iter().all(|&b| !b));
    }

    #[test]
    fn finds_functions_and_calls() {
        let toks = lex("fn a() { b(); c.d(); }\nfn e();\nfn b() {}");
        let fns = functions(&toks);
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        let calls = call_names(&toks, fns[0].body);
        assert_eq!(calls, vec!["b", "d"]);
    }
}
