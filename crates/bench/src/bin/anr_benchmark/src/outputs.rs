//! What the program prints, parsed, and the golden march table the
//! parsed results are checked against.

use std::collections::BTreeMap;

/// The golden table, committed next to this file: one line per
/// `(scenario, robots, separation)` with the `anr scenario --method a`
/// results every march must reproduce. `golden.sh` regenerates it.
const GOLDEN_TSV: &str = include_str!("../golden.tsv");

/// The checked part of one march's result line: `L` and `D` as the CLI
/// prints them (3 and 0 decimals), `C`, and the link counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MarchResult {
    pub(crate) l: String,
    pub(crate) d: String,
    pub(crate) c: u8,
    pub(crate) preserved: u64,
    pub(crate) initial: u64,
    pub(crate) new: u64,
}

impl MarchResult {
    /// The result as the CLI would print it for these metrics.
    pub(crate) fn from_metrics(m: &anr_march::TransitionMetrics) -> MarchResult {
        MarchResult {
            l: format!("{:.3}", m.stable_link_ratio),
            d: format!("{:.0}", m.total_distance),
            c: m.global_connectivity,
            preserved: m.preserved_links as u64,
            initial: m.initial_links as u64,
            new: m.new_links as u64,
        }
    }
}

/// A golden table key: scenario, robots, separation in ranges.
pub(crate) type GoldenKey = (u8, usize, u32);

/// Expected march results by key.
#[derive(Debug, Clone, Default)]
pub(crate) struct Golden(pub(crate) BTreeMap<GoldenKey, MarchResult>);

impl Golden {
    /// The committed table.
    pub(crate) fn committed() -> Result<Golden, String> {
        Golden::parse(GOLDEN_TSV)
    }

    /// Parses tab-separated `scenario robots separation L D preserved
    /// initial new` lines; `#` starts a comment line.
    pub(crate) fn parse(text: &str) -> Result<Golden, String> {
        let mut table = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("golden.tsv line {}: {line:?}", n + 1);
            if f.len() != 8 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let key = (
                f[0].parse().map_err(|_| bad())?,
                f[1].parse().map_err(|_| bad())?,
                f[2].parse().map_err(|_| bad())?,
            );
            let result = MarchResult {
                l: f[3].to_string(),
                d: f[4].to_string(),
                c: 1,
                preserved: num(f[5])?,
                initial: num(f[6])?,
                new: num(f[7])?,
            };
            table.insert(key, result);
        }
        Ok(Golden(table))
    }

    /// Checks one march result against its golden entry.
    pub(crate) fn check(&self, key: GoldenKey, got: &MarchResult) -> Result<(), String> {
        if got.c != 1 {
            return Err(format!("{key:?}: C = {}", got.c));
        }
        match self.0.get(&key) {
            None => Err(format!("{key:?}: no golden entry")),
            Some(want) if want != got => Err(format!("{key:?}: got {got:?}, golden {want:?}")),
            Some(_) => Ok(()),
        }
    }
}

/// Parses the result line of `anr scenario` for one method:
/// `our method (a)  L = 0.938  D = 3121014 m  C = 1  preserved 45213/48181 links, 7154 new`.
pub(crate) fn parse_scenario_line(stdout: &str) -> Option<MarchResult> {
    let line = stdout.lines().find(|l| l.contains(" L = "))?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    let after = |key: &str| {
        toks.windows(3)
            .find(|w| w[0] == key && w[1] == "=")
            .map(|w| w[2])
    };
    let at = toks.iter().position(|t| *t == "preserved")?;
    let (preserved, initial) = toks.get(at + 1)?.split_once('/')?;
    Some(MarchResult {
        l: after("L")?.to_string(),
        d: after("D")?.to_string(),
        c: after("C")?.parse().ok()?,
        preserved: preserved.parse().ok()?,
        initial: initial.parse().ok()?,
        new: toks.get(at + 3)?.parse().ok()?,
    })
}

/// Parses `anr serve: listening on 127.0.0.1:<port>`.
pub(crate) fn parse_listening(line: &str) -> Option<u16> {
    line.trim()
        .strip_prefix("anr serve: listening on 127.0.0.1:")?
        .parse()
        .ok()
}

/// The server's own accounting from its closing stderr line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ServerStats {
    pub(crate) accepted: u64,
    pub(crate) served: u64,
    pub(crate) busy: u64,
    pub(crate) protocol_errors: u64,
    pub(crate) plan_errors: u64,
    pub(crate) worker_panics: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// Parses `anr serve: done — A accepted, S served, B busy, P protocol
/// errors, E plan errors, W worker panics, cache H hits / M misses`.
pub(crate) fn parse_server_done(stderr: &str) -> Option<ServerStats> {
    let line = stderr.lines().find(|l| l.starts_with("anr serve: done"))?;
    let n: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.trim_end_matches(',').parse().ok())
        .collect();
    let [accepted, served, busy, protocol_errors, plan_errors, worker_panics, hits, misses] = n[..]
    else {
        return None;
    };
    Some(ServerStats {
        accepted,
        served,
        busy,
        protocol_errors,
        plan_errors,
        worker_panics,
        hits,
        misses,
    })
}

/// Parses `anr-lint: F files, N findings (B baselined, O open)` into
/// `(files, findings)`.
pub(crate) fn parse_lint_summary(stdout: &str) -> Option<(u64, u64)> {
    let line = stdout.lines().find(|l| l.starts_with("anr-lint: "))?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    let files = toks.get(1)?.parse().ok()?;
    let findings = toks.get(3)?.parse().ok()?;
    Some((files, findings))
}

/// Checks the zero-fault cells of an `anr fault-sweep` JSON grid: there
/// must be at least one, and each must be `correct`.
pub(crate) fn check_zero_fault_cells(json: &str) -> Result<(), String> {
    let cells: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"loss\": 0.0, \"crashes\": 0,"))
        .collect();
    if cells.is_empty() {
        return Err("fault sweep printed no zero-fault cell".to_string());
    }
    match cells.iter().find(|c| !c.contains("\"correct\": true")) {
        Some(bad) => Err(format!("zero-fault cell not correct: {}", bad.trim())),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_captured_scenario_line() {
        let out = "scenario 1: 1296 robots, separation 2400 m\n\
                   our method (a)       L = 0.938  D =   3121014 m  C = 1  preserved 45213/48181 links, 7154 new\n";
        let r = parse_scenario_line(out).unwrap();
        assert_eq!(
            r,
            MarchResult {
                l: "0.938".into(),
                d: "3121014".into(),
                c: 1,
                preserved: 45213,
                initial: 48181,
                new: 7154,
            }
        );
        assert!(parse_scenario_line("scenario 1: 1296 robots\n").is_none());
    }

    #[test]
    fn parses_captured_serve_lines() {
        assert_eq!(
            parse_listening("anr serve: listening on 127.0.0.1:40123\n"),
            Some(40123)
        );
        assert_eq!(parse_listening("something else"), None);
        let done = "anr serve: done — 721 accepted, 721 served, 0 busy, 0 protocol errors, \
                    0 plan errors, 0 worker panics, cache 600 hits / 121 misses\n";
        assert_eq!(
            parse_server_done(done),
            Some(ServerStats {
                accepted: 721,
                served: 721,
                hits: 600,
                misses: 121,
                ..ServerStats::default()
            })
        );
        assert_eq!(parse_server_done("anr serve: done — 1 accepted"), None);
    }

    #[test]
    fn parses_captured_lint_line() {
        let out = "anr-lint: 170 files, 0 findings (0 baselined, 0 open)\n";
        assert_eq!(parse_lint_summary(out), Some((170, 0)));
        assert_eq!(parse_lint_summary("no summary"), None);
    }

    #[test]
    fn zero_fault_cells_must_be_correct() {
        let ok = "{\"loss\": 0.0, \"crashes\": 0, \"converged\": true, \"correct\": true}\n\
                  {\"loss\": 0.05, \"crashes\": 0, \"converged\": true, \"correct\": false}\n";
        assert_eq!(check_zero_fault_cells(ok), Ok(()));
        let bad = "{\"loss\": 0.0, \"crashes\": 0, \"converged\": true, \"correct\": false}\n";
        assert!(check_zero_fault_cells(bad).is_err());
        assert!(check_zero_fault_cells("{}").is_err());
    }

    #[test]
    fn committed_golden_table_parses() {
        let golden = Golden::committed().unwrap();
        assert!(!golden.0.is_empty());
        let (&key, want) = golden.0.iter().next().unwrap();
        assert_eq!(golden.check(key, want), Ok(()));
        let mut c0 = want.clone();
        c0.c = 0;
        assert!(golden.check(key, &c0).is_err());
        assert!(golden.check((9, 1, 1), want).is_err());
    }
}
