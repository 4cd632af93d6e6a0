//! The site table: which tokens of a file are panic, hash-order,
//! clock, RNG, net, fs, thread, env or primitive-read sites.
//!
//! Each file is classified once, while it is lexed. Every rule that
//! looks for one of these patterns reads the table instead of matching
//! tokens itself: the per-file rules D1–D4 and P1 filter it by file
//! region, and the call-graph rules (S1, S2, C1, M2, L1, U1) take a
//! function body's sub-slice as that function's direct sites.

use crate::lexer::{TokKind, Token};

/// The one module allowed to read the wall clock: exempt from D2, and
/// not a determinism sink for S2 (it is still the `time` effect).
pub(crate) const WALL_MODULE: &str = "crates/trace/src/wall.rs";

/// What a site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteKind {
    /// `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`,
    /// `unimplemented!`.
    Panic,
    /// `HashMap` / `HashSet`: nondeterministic iteration order.
    Hash,
    /// A wall-clock read (`Instant::now()`, `.elapsed()`) or a
    /// `SystemTime` use (`read` is false).
    Clock { read: bool },
    /// An unseeded RNG: constructed (`from_entropy`, `thread_rng`,
    /// `OsRng`) or drawn from the thread RNG (`rand::random`).
    Rng { constructs: bool },
    /// `TcpListener`, `TcpStream`, `UdpSocket`.
    Net,
    /// A `fs::` or `File::` path, or `OpenOptions`.
    Fs,
    /// A `thread::` path; `spawn` is its tail when that is `spawn`,
    /// `scope` or `Builder` (the spawning subset D3 flags).
    Thread { spawn: Option<&'static str> },
    /// An `env::` path.
    Env,
    /// A primitive read with arguments: `.read_exact(…)`, `.read(…)`,
    /// `.read_to_end(…)`, `.recv(…)`, `.recv_from(…)` (an empty
    /// `.read()` is `RwLock::read`).
    Read,
}

impl SiteKind {
    /// The C1 effect this site performs, if any.
    pub(crate) fn effect(self) -> Option<&'static str> {
        match self {
            SiteKind::Env => Some("env"),
            SiteKind::Fs => Some("fs"),
            SiteKind::Net => Some("net"),
            SiteKind::Rng { .. } => Some("rng"),
            SiteKind::Thread { .. } => Some("thread"),
            SiteKind::Clock { .. } => Some("time"),
            SiteKind::Panic | SiteKind::Hash | SiteKind::Read => None,
        }
    }

    /// A hash-order, clock or RNG site: what S2 follows.
    pub(crate) fn is_nondeterministic(self) -> bool {
        matches!(
            self,
            SiteKind::Hash | SiteKind::Clock { .. } | SiteKind::Rng { .. }
        )
    }
}

/// One classified token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    /// Token index in the file. A path site sits on the path's first
    /// token (`Instant` of `Instant::now`, `rand` of `rand::random`).
    pub(crate) tok: usize,
    /// What the site does.
    pub(crate) kind: SiteKind,
    /// The pattern as reports print it: `` `.unwrap()` ``,
    /// `` `Instant::now()` ``, `` `fs::` ``, ….
    pub(crate) label: &'static str,
    /// 1-based line of the token.
    pub(crate) line: u32,
}

/// Classifies every token of a file. At most one site per token, in
/// token order.
pub(crate) fn classify(toks: &[Token]) -> Vec<Site> {
    let punct_at = |i: usize, p: &str| toks.get(i).is_some_and(|t| t.is_punct(p));
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // `.name(`, `.name(` with arguments, `name!`, and `name::` with
        // `tail` after the colons.
        let method = i > 0 && toks[i - 1].is_punct(".") && punct_at(i + 1, "(");
        let read = method && !punct_at(i + 2, ")");
        let mac = punct_at(i + 1, "!");
        let path = punct_at(i + 1, ":") && punct_at(i + 2, ":");
        let tail = |name: &str| path && toks.get(i + 3).is_some_and(|n| n.is_ident(name));
        let (kind, label) = match t.text.as_str() {
            "unwrap" if method => (SiteKind::Panic, "`.unwrap()`"),
            "expect" if method => (SiteKind::Panic, "`.expect()`"),
            "panic" if mac => (SiteKind::Panic, "`panic!`"),
            "unreachable" if mac => (SiteKind::Panic, "`unreachable!`"),
            "todo" if mac => (SiteKind::Panic, "`todo!`"),
            "unimplemented" if mac => (SiteKind::Panic, "`unimplemented!`"),
            "HashMap" => (SiteKind::Hash, "`HashMap`"),
            "HashSet" => (SiteKind::Hash, "`HashSet`"),
            "Instant" if tail("now") => (SiteKind::Clock { read: true }, "`Instant::now()`"),
            "elapsed" if method => (SiteKind::Clock { read: true }, "`.elapsed()`"),
            "SystemTime" => (SiteKind::Clock { read: false }, "`SystemTime`"),
            "from_entropy" => (SiteKind::Rng { constructs: true }, "`from_entropy`"),
            "thread_rng" => (SiteKind::Rng { constructs: true }, "`thread_rng`"),
            "OsRng" => (SiteKind::Rng { constructs: true }, "`OsRng`"),
            "rand" if tail("random") => (SiteKind::Rng { constructs: false }, "`rand::random`"),
            "TcpListener" => (SiteKind::Net, "`TcpListener`"),
            "TcpStream" => (SiteKind::Net, "`TcpStream`"),
            "UdpSocket" => (SiteKind::Net, "`UdpSocket`"),
            "fs" if path => (SiteKind::Fs, "`fs::`"),
            "File" if path => (SiteKind::Fs, "`File::`"),
            "OpenOptions" => (SiteKind::Fs, "`OpenOptions`"),
            "thread" if path => (
                SiteKind::Thread {
                    spawn: ["spawn", "scope", "Builder"].into_iter().find(|&n| tail(n)),
                },
                "`thread::`",
            ),
            "env" if path => (SiteKind::Env, "`env::`"),
            "read_exact" if read => (SiteKind::Read, "`.read_exact()`"),
            "read_to_end" if read => (SiteKind::Read, "`.read_to_end()`"),
            "read" if read => (SiteKind::Read, "`.read()`"),
            "recv" if read => (SiteKind::Read, "`.recv()`"),
            "recv_from" if read => (SiteKind::Read, "`.recv_from()`"),
            _ => continue,
        };
        sites.push(Site {
            tok: i,
            kind,
            label,
            line: t.line,
        });
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn kinds(src: &str) -> Vec<(&'static str, SiteKind)> {
        classify(&lex(src))
            .into_iter()
            .map(|s| (s.label, s.kind))
            .collect()
    }

    #[test]
    fn paths_anchor_on_their_first_token() {
        let toks = lex("let t = Instant::now(); let r: u8 = rand::random();");
        let sites = classify(&toks);
        assert_eq!(sites.len(), 2);
        assert!(toks[sites[0].tok].is_ident("Instant"));
        assert!(toks[sites[1].tok].is_ident("rand"));
        assert_eq!(sites[1].kind, SiteKind::Rng { constructs: false });
    }

    #[test]
    fn reads_need_arguments() {
        assert_eq!(
            kinds("r.read(&mut b); l.read(); s.recv_from(&mut b);"),
            vec![
                ("`.read()`", SiteKind::Read),
                ("`.recv_from()`", SiteKind::Read),
            ]
        );
    }
}
