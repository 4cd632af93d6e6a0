//! C1 — capability enforcement: every workspace crate declares its
//! effect surface in `lint.capabilities.toml`, and the analyzer proves
//! the declaration matches what the crate can actually reach through
//! the cross-crate call graph.
//!
//! The effect lattice is a small fixed set — `net`, `fs`, `time`,
//! `thread`, `rng`, `env` — chosen to cover everything that can make a
//! run nondeterministic or touch the world outside the process. Direct
//! effect *sites* come from the site table the D-rules read, and each
//! effect's reachability is one of the shared call-graph walks (which
//! M2 reads too), so every finding carries a concrete shortest call
//! chain from the offending crate to the effect site.
//!
//! Both directions are enforced: an effect the crate reaches but does
//! not declare is an error (the manifest must widen in the same diff),
//! and a declared effect the crate no longer reaches is a warning (the
//! manifest must ratchet down). A missing manifest file disables C1
//! entirely — fixture workspaces opt in by shipping their own manifest.

use crate::graph::CallGraph;
use crate::manifest::{quoted, read_tables, ManifestError};
use crate::report::json_string as json_str;
use crate::rules::Finding;
use crate::semantic::{chain, mk_finding, Reach};
use std::collections::BTreeMap;

/// The manifest's file name, at the workspace root.
pub(crate) const CAPS_FILE: &str = "lint.capabilities.toml";

/// The effect lattice, in report order.
pub const EFFECTS: &[&str] = &["env", "fs", "net", "rng", "thread", "time"];

/// One crate's computed use of one effect: the shortest chain from the
/// crate to a direct effect site.
#[derive(Debug, Clone)]
pub struct EffectUse {
    /// Effect name (`net`, `fs`, …).
    pub effect: &'static str,
    /// Pattern label at the sink (`` `TcpStream` ``, `` `fs::` ``, …).
    pub sink: String,
    /// File of the chain's head (the crate-local function).
    pub file: String,
    /// 1-based line of the chain's head.
    pub line: u32,
    /// Shortest call chain, ` -> `-joined function displays.
    pub via: String,
}

/// One crate's full computed effect surface.
#[derive(Debug, Clone)]
pub struct CrateCaps {
    /// Crate directory name (`serve`, `par`, … or `anr-marching`).
    pub crate_name: String,
    /// Effects the crate can reach, ordered by effect name.
    pub effects: Vec<EffectUse>,
}

/// The computed per-crate effect surface — the `--capabilities`
/// artifact (`anr-lint-caps/1`).
#[derive(Debug, Clone, Default)]
pub struct CapsReport {
    /// Every crate that owns call-graph nodes, ordered by name.
    pub crates: Vec<CrateCaps>,
}

impl CapsReport {
    /// Serializes as `anr-lint-caps/1` JSONL: one `crate` record per
    /// crate (its effect list), one `effect` record per reached effect
    /// (with the chain), and a trailing `summary`. Byte-identical
    /// across runs and worker counts.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut effect_records = 0usize;
        for c in &self.crates {
            let list = c
                .effects
                .iter()
                .map(|e| format!("\"{}\"", e.effect))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"schema\":\"anr-lint-caps/1\",\"kind\":\"crate\",\"crate\":{},\"effects\":[{}]}}\n",
                json_str(&c.crate_name),
                list,
            ));
            for e in &c.effects {
                effect_records += 1;
                out.push_str(&format!(
                    "{{\"schema\":\"anr-lint-caps/1\",\"kind\":\"effect\",\"crate\":{},\"effect\":\"{}\",\"sink\":{},\"file\":{},\"line\":{},\"path\":{}}}\n",
                    json_str(&c.crate_name),
                    e.effect,
                    json_str(&e.sink),
                    json_str(&e.file),
                    e.line,
                    json_str(&e.via),
                ));
            }
        }
        out.push_str(&format!(
            "{{\"schema\":\"anr-lint-caps/1\",\"kind\":\"summary\",\"crates\":{},\"effects\":{}}}\n",
            self.crates.len(),
            effect_records,
        ));
        out
    }

    /// Human-readable surface listing.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::from("computed per-crate effect surface:\n");
        for c in &self.crates {
            let list = c
                .effects
                .iter()
                .map(|e| e.effect)
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  {:<14} [{}]\n",
                c.crate_name,
                if list.is_empty() { "-" } else { &list }
            ));
            for e in &c.effects {
                out.push_str(&format!(
                    "    {:<6} {} ({}:{})\n",
                    e.effect, e.via, e.file, e.line
                ));
            }
        }
        out
    }
}

/// A parsed `lint.capabilities.toml`: crate name → (line, declared
/// effects).
#[derive(Debug, Clone, Default)]
pub struct CapsManifest {
    /// Declared effects per crate, with the `[[crate]]` header line.
    pub entries: BTreeMap<String, (u32, Vec<String>)>,
}

impl CapsManifest {
    /// Does `crate_name` declare `effect`?
    #[must_use]
    pub fn declares(&self, crate_name: &str, effect: &str) -> bool {
        self.entries
            .get(crate_name)
            .is_some_and(|(_, effs)| effs.iter().any(|e| e == effect))
    }
}

/// Parses the manifest: `[[crate]]` tables with a `name` string and an
/// `effects` string array (one line). Comments and blank lines are
/// free.
///
/// # Errors
///
/// [`ManifestError`] on any malformed construct, unknown effect name,
/// or duplicate crate entry.
pub fn parse_capabilities(text: &str) -> Result<CapsManifest, ManifestError> {
    let mut manifest = CapsManifest::default();
    let set = |entry: &mut (Option<String>, Option<Vec<String>>), key: &str, value: &str| {
        match key {
            "name" => entry.0 = Some(quoted(value, "bad string for `name`")?),
            "effects" => entry.1 = Some(effect_list(value)?),
            other => return Err(format!("unknown key `{other}`")),
        }
        Ok(())
    };
    read_tables(CAPS_FILE, "crate", text, set, |line, (name, effects)| {
        let name = name.ok_or("[[crate]] entry missing `name`")?;
        let effects = effects.ok_or("[[crate]] entry missing `effects`")?;
        if manifest
            .entries
            .insert(name.clone(), (line as u32, effects))
            .is_some()
        {
            return Err(format!("duplicate [[crate]] entry for `{name}`"));
        }
        Ok(())
    })?;
    Ok(manifest)
}

/// A one-line `["effect", …]` array: known effects, no duplicates,
/// sorted.
fn effect_list(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or("`effects` must be a one-line string array")?;
    let mut list = Vec::new();
    for part in inner.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let eff = quoted(part, "bad string in `effects` array")?;
        if !EFFECTS.contains(&eff.as_str()) {
            return Err(format!("unknown effect `{eff}`"));
        }
        if list.contains(&eff) {
            return Err(format!("duplicate effect `{eff}`"));
        }
        list.push(eff);
    }
    list.sort();
    Ok(list)
}

/// Computes the per-crate effect surface from the shared effect walks
/// (one per [`EFFECTS`] entry) and, when a manifest is present, the C1
/// findings for both disagreement directions.
pub(crate) fn analyze_capabilities(
    graph: &CallGraph,
    effects: &[Reach],
    manifest: Option<&CapsManifest>,
) -> (Vec<Finding>, CapsReport) {
    let manifest_file = CAPS_FILE;
    // Fold each effect's walk into per-crate surfaces: for each
    // (crate, effect) keep the crate-local node with the shortest chain
    // (node index as tie-break).
    let mut surfaces: BTreeMap<String, BTreeMap<&'static str, EffectUse>> = BTreeMap::new();
    for n in &graph.nodes {
        if !n.in_test {
            surfaces.entry(n.crate_name.clone()).or_default();
        }
    }
    for (&effect, walk) in EFFECTS.iter().zip(effects) {
        let mut best: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, n) in graph.nodes.iter().enumerate() {
            if n.in_test || !walk.reaches(i) {
                continue;
            }
            let head = best.entry(n.crate_name.as_str()).or_insert(i);
            if walk.dist[i] < walk.dist[*head] {
                *head = i;
            }
        }
        for (crate_name, start) in best {
            let (via, _) = chain(graph, &walk.dist, start);
            let head = &graph.nodes[start];
            surfaces.entry(crate_name.to_string()).or_default().insert(
                effect,
                EffectUse {
                    effect,
                    sink: walk.label(start).to_string(),
                    file: head.file.clone(),
                    line: head.line,
                    via,
                },
            );
        }
    }

    let report = CapsReport {
        crates: surfaces
            .iter()
            .map(|(name, effects)| CrateCaps {
                crate_name: name.clone(),
                effects: effects.values().cloned().collect(),
            })
            .collect(),
    };

    // No manifest file — the surface is informational only.
    let Some(manifest) = manifest else {
        return (Vec::new(), report);
    };

    let mut findings = Vec::new();
    for (crate_name, effects) in &surfaces {
        for (effect, eu) in effects {
            if manifest.declares(crate_name, effect) {
                continue;
            }
            let what = if manifest.entries.contains_key(crate_name) {
                format!("does not declare `{effect}`")
            } else {
                "has no [[crate]] entry".to_string()
            };
            findings.push(mk_finding(
                "C1",
                &eu.file,
                eu.line,
                format!(
                    "crate `{crate_name}` reaches effect `{effect}` (sink {}) but {manifest_file} {what}",
                    eu.sink,
                ),
                Some(eu.via.clone()),
            ));
        }
    }
    // Declared-but-unreached: the manifest must ratchet down too.
    for (crate_name, (line, declared)) in &manifest.entries {
        let reached = surfaces.get(crate_name.as_str());
        for effect in declared {
            let used = reached.is_some_and(|effs| effs.contains_key(effect.as_str()));
            if !used {
                let mut f = mk_finding(
                    "C1",
                    manifest_file,
                    *line,
                    format!(
                        "{manifest_file} declares effect `{effect}` for crate `{crate_name}` but the crate never reaches it"
                    ),
                    None,
                );
                f.severity = crate::rules::Severity::Warn;
                findings.push(f);
            }
        }
    }
    (findings, report)
}
