//! The `lint.allow.toml` baseline: a checked-in, justification-carrying
//! ledger of accepted findings, matched by `(rule, file)` with a
//! maximum count so entries survive line churn but ratchet down as
//! violations are fixed.
//!
//! The file goes through the reader all three manifests share:
//! `[[allow]]` tables with string and integer values, `#` comments.
//! Entries are written by hand, each with its own justification.
//!
//! Interprocedural findings (S1/S2) carry a call chain; their entries
//! may pin a `path` — a substring the finding's chain must contain —
//! so a justification stays attached to *that* panic path and stops
//! matching if the chain is rerouted.

use crate::manifest::{quoted, read_tables, ManifestError};
use crate::rules::{rule_info, Finding};

/// The baseline's default file name, at the workspace root.
pub(crate) const ALLOW_FILE: &str = "lint.allow.toml";

/// One baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry covers.
    pub rule: String,
    /// Workspace-relative file the entry covers.
    pub file: String,
    /// Maximum findings of `rule` in `file` this entry absorbs.
    pub count: usize,
    /// One-line justification (required).
    pub reason: String,
    /// Findings actually absorbed (filled by [`apply_baseline`]).
    pub used: usize,
    /// Call-chain substring this entry is pinned to (S-rules); an entry
    /// with a path only absorbs findings whose chain contains it.
    pub path: Option<String>,
}

#[derive(Default)]
struct Partial {
    rule: Option<String>,
    file: Option<String>,
    count: Option<usize>,
    reason: Option<String>,
    path: Option<String>,
}

fn set(p: &mut Partial, key: &str, value: &str) -> Result<(), String> {
    match key {
        "rule" => p.rule = Some(quoted(value, "rule must be a quoted string")?),
        "file" => p.file = Some(quoted(value, "file must be a quoted string")?),
        "reason" => p.reason = Some(quoted(value, "reason must be a quoted string")?),
        "count" => {
            p.count = Some(
                value
                    .parse()
                    .map_err(|_| "count must be an integer".to_string())?,
            );
        }
        "path" => p.path = Some(quoted(value, "path must be a quoted string")?),
        other => return Err(format!("unknown key `{other}`")),
    }
    Ok(())
}

fn finish(p: Partial) -> Result<AllowEntry, String> {
    let missing = |key: &str| format!("entry missing `{key}`");
    let rule = p.rule.ok_or_else(|| missing("rule"))?;
    let file = p.file.ok_or_else(|| missing("file"))?;
    let count = p.count.ok_or_else(|| missing("count"))?;
    let reason = p.reason.ok_or_else(|| missing("reason"))?;
    if rule_info(&rule).is_none() {
        return Err(format!("unknown rule id `{rule}`"));
    }
    if count == 0 {
        return Err("count must be ≥ 1 (delete the entry instead)".to_string());
    }
    if reason.trim().is_empty() {
        return Err("reason must be a non-empty justification".to_string());
    }
    Ok(AllowEntry {
        rule,
        file,
        count,
        reason,
        used: 0,
        path: p.path,
    })
}

/// Parses the baseline text.
///
/// # Errors
///
/// [`ManifestError`] on malformed syntax, unknown keys or rules,
/// missing justifications, or zero counts.
pub fn parse_baseline(text: &str) -> Result<Vec<AllowEntry>, ManifestError> {
    let mut entries = Vec::new();
    read_tables(ALLOW_FILE, "allow", text, set, |_, p| {
        entries.push(finish(p)?);
        Ok(())
    })?;
    Ok(entries)
}

/// Marks findings covered by the baseline (`finding.baselined`) and
/// records usage on each entry. Findings must be pre-sorted so the
/// assignment is deterministic.
pub fn apply_baseline(findings: &mut [Finding], entries: &mut [AllowEntry]) {
    for f in findings.iter_mut() {
        // Path-pinned entries are preferred so a broad (pathless) entry
        // is not consumed by a finding a specific entry justifies.
        let slot = entries
            .iter_mut()
            .filter(|e| e.rule == f.rule && e.file == f.file && e.used < e.count)
            .filter(|e| match &e.path {
                None => true,
                Some(p) => f
                    .path
                    .as_deref()
                    .is_some_and(|chain| chain.contains(p.as_str())),
            })
            .max_by_key(|e| e.path.is_some());
        if let Some(e) = slot {
            e.used += 1;
            f.baselined = true;
        }
    }
}

/// Entries whose `count` exceeds the findings they absorbed — the
/// ratchet can be tightened (or the entry deleted).
#[must_use]
pub fn stale_entries(entries: &[AllowEntry]) -> Vec<AllowEntry> {
    entries
        .iter()
        .filter(|e| e.used < e.count)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCtx;
    use crate::rules::scan_file;

    const GOOD: &str = r#"
# keep sorted
[[allow]]
rule = "P1"  # panic family
file = "crates/mesh/src/foi.rs"
count = 2
reason = "geometric invariant: centroid of a non-degenerate polygon exists"
"#;

    #[test]
    fn parses_entries() {
        let entries = parse_baseline(GOOD).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "P1");
        assert_eq!(entries[0].count, 2);
    }

    #[test]
    fn rejects_missing_reason_unknown_rule_zero_count() {
        let no_reason = "[[allow]]\nrule = \"P1\"\nfile = \"a.rs\"\ncount = 1\n";
        assert!(parse_baseline(no_reason).is_err());
        let bad_rule = "[[allow]]\nrule = \"Z9\"\nfile = \"a.rs\"\ncount = 1\nreason = \"x\"\n";
        assert!(parse_baseline(bad_rule).is_err());
        let zero = "[[allow]]\nrule = \"P1\"\nfile = \"a.rs\"\ncount = 0\nreason = \"x\"\n";
        assert!(parse_baseline(zero).is_err());
        let stray = "rule = \"P1\"\n";
        assert!(parse_baseline(stray).is_err());
    }

    #[test]
    fn baseline_absorbs_up_to_count() {
        let src = "fn f(a: Option<u32>, b: Option<u32>, c: Option<u32>) -> u32 {\n\
                   a.unwrap() + b.unwrap() + c.unwrap() }";
        let mut findings = scan_file(&FileCtx::new("crates/mesh/src/x.rs", src));
        assert_eq!(findings.len(), 3);
        let mut entries = parse_baseline(
            "[[allow]]\nrule = \"P1\"\nfile = \"crates/mesh/src/x.rs\"\ncount = 2\nreason = \"two are invariant-guarded\"\n",
        )
        .unwrap();
        apply_baseline(&mut findings, &mut entries);
        assert_eq!(findings.iter().filter(|f| f.baselined).count(), 2);
        assert_eq!(findings.iter().filter(|f| !f.baselined).count(), 1);
        assert!(stale_entries(&entries).is_empty());
    }

    #[test]
    fn stale_entries_reported() {
        let mut entries = parse_baseline(
            "[[allow]]\nrule = \"D1\"\nfile = \"crates/x/src/y.rs\"\ncount = 5\nreason = \"gone\"\n",
        )
        .unwrap();
        apply_baseline(&mut [], &mut entries);
        let stale = stale_entries(&entries);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].used, 0);
    }
}
