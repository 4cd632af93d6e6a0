//! Metric declarations, the per-run record, and the JSON the benchmark
//! prints.
//!
//! The declarations here and `BENCHMARK.json` must name the same
//! metrics with the same units; a test holds them together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with `--trace 0`:
/// `(name, unit)`.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload never reaches reads 0.
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("trace.pass_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("triangulate.share", "ratio"),
    ("harmonic.share", "ratio"),
    ("rotation.share", "ratio"),
    ("repair.share", "ratio"),
    ("trajectory.share", "ratio"),
    ("lloyd.share", "ratio"),
    ("audit.share", "ratio"),
    ("audit.share.sc1", "ratio"),
    ("audit.share.sc2", "ratio"),
    ("audit.share.sc3", "ratio"),
    ("audit.share.sc4", "ratio"),
    ("audit.share.sc5", "ratio"),
    ("audit.share.sc6", "ratio"),
    ("audit.share.sc7", "ratio"),
    ("audit.pieces", "count"),
    ("audit.checks", "count"),
    ("audit.parallel_speedup", "ratio"),
    ("lloyd.iters", "count"),
    ("harmonic.pcg_iters", "count"),
    ("rotation.evals", "count"),
    ("serve.share", "ratio"),
    ("serve.hit_ratio", "ratio"),
    ("serve.dup_misses", "count"),
    ("serve.miss_overhead", "ratio"),
    ("serve.reply_kib", "KiB"),
    ("serve.errors", "count"),
    ("sweep.share", "ratio"),
    ("sweep.msgs", "count"),
    ("sweep.converged_cells", "count"),
    ("sweep.parallel_speedup", "ratio"),
    ("eventsim.share", "ratio"),
    ("eventsim.rounds", "count"),
    ("eventsim.msgs", "count"),
    ("eventsim.peak_payload_bits", "bits"),
    ("lint.share", "ratio"),
    ("lint.scan_share", "ratio"),
    ("lint.files", "count"),
    ("lint.findings", "count"),
];

/// One raw timing: what ran and how long it took.
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    pub(crate) op: String,
    pub(crate) ms: f64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub(crate) struct Run {
    pub(crate) attempted: usize,
    pub(crate) failures: Vec<String>,
    pub(crate) metrics: BTreeMap<&'static str, f64>,
    pub(crate) samples: Vec<Sample>,
    pub(crate) setup_ms: Vec<f64>,
}

impl Run {
    /// A run whose per-layer metrics all read 0 until set.
    pub(crate) fn with_layers() -> Run {
        Run {
            metrics: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            ..Run::default()
        }
    }

    /// Counts one operation, failed when `result` is an error.
    pub(crate) fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    pub(crate) fn sample(&mut self, op: impl Into<String>, ms: f64) {
        self.samples.push(Sample { op: op.into(), ms });
    }

    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The operation latencies whose label starts with `prefix`.
    pub(crate) fn latencies(&self, prefix: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.op.starts_with(prefix))
            .map(|s| s.ms)
            .collect()
    }
}

pub(crate) fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number as JSON, at full precision; anything else as `null`.
pub(crate) fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The last line of standard output:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`
/// over exactly the `declared` metrics.
pub(crate) fn summary_line(run: &Run, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut out = String::new();
    let failed = run.failures.len();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && run.attempted > 0,
        run.attempted,
    );
    for (i, &(name, unit)) in declared.iter().enumerate() {
        let value = run
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, name);
        out.push_str(": {\"value\": ");
        json_num(&mut out, value);
        out.push_str(", \"unit\": ");
        json_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, which declares what the
    /// driver checks.
    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{list}\""))
            .expect("list present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("list closed")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                    entry[at..entry[at..].find('"').expect("quote") + at].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn declarations_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), as_owned(END_TO_END));
        assert_eq!(declared("per_layer"), as_owned(PER_LAYER));
    }

    #[test]
    fn metric_names_are_well_formed() {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn summary_refuses_a_missing_metric() {
        let mut run = Run::default();
        run.op(Ok(()));
        assert!(summary_line(&run, END_TO_END).is_err());
        for &(name, _) in END_TO_END {
            run.set(name, 1.5);
        }
        let line = summary_line(&run, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"pass_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
