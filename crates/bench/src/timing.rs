//! Wall-clock trajectory of the marching pipeline.
//!
//! [`run_pipeline_bench`] marches the seed scenarios (and, on request,
//! the 10⁴-robot tier) under a wall-clock tracer and reads every time
//! from the march's own spans: the end-to-end `march` span and one span
//! per pipeline stage. It also times the fault sweep serial versus
//! parallel. The result is a deterministic-schema JSON document
//! (`BENCH_pipeline.json` at the repo root); the numbers, of course,
//! depend on the machine, so the core and worker counts ride along.

use crate::BenchError;
use anr_march::{march_traced, run_fault_sweep, MarchConfig, Method, SweepConfig};
use anr_trace::Tracer;

/// What to bench and how hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Smoke mode: scenario 1 only, fewer robots — fast enough for CI.
    pub smoke: bool,
    /// Timed runs of each scenario's march and of the fault sweep; the
    /// medians are reported.
    pub repeats: usize,
    /// Also run the 10⁴-robot scale tier (scenario 1, one repeat):
    /// a single full march at 10k robots, reported separately.
    pub scale_tier: bool,
}

/// The stages [`march_traced`] opens a span for, in pipeline order.
const MARCH_STAGES: [&str; 8] = [
    "triangulate",
    "harmonic_m1",
    "harmonic_m2",
    "rotation",
    "repair",
    "trajectories",
    "lloyd",
    "metrics",
];

/// One timed stage of one march.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (`"triangulate"`, `"harmonic_m1"`, ...).
    pub stage: &'static str,
    /// Median wall time over the repeats, milliseconds.
    pub median_ms: f64,
}

/// One scenario marched `repeats` times, every time read from the
/// march's own spans.
#[derive(Debug, Clone, PartialEq)]
pub struct MarchTiming {
    /// Scenario id (1–7).
    pub id: u8,
    /// Robots in the deployment.
    pub robots: usize,
    /// Median wall time of the `march` span, milliseconds.
    pub march_ms: f64,
    /// Median wall time of each pipeline stage's span, in pipeline
    /// order (`triangulate` to `metrics`).
    pub march_stages: Vec<StageTiming>,
    /// Timeline rows of the march.
    pub timeline_rows: usize,
    /// Pieces the continuous audit walked.
    pub audit_pieces: usize,
    /// Connectivity checks (event-sweep intervals) the audit performed.
    pub audit_checks: usize,
}

/// Serial-versus-parallel fault-sweep timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepTiming {
    /// Robots in the swept deployment.
    pub robots: usize,
    /// Grid cells per protocol.
    pub cells: usize,
    /// Median wall time with `workers = 1`, milliseconds.
    pub serial_ms: f64,
    /// Median wall time with auto workers, milliseconds.
    pub parallel_ms: f64,
    /// The auto worker count used.
    pub workers: usize,
    /// Did the two runs produce byte-identical JSON?
    pub byte_identical: bool,
}

/// The full benchmark trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineBenchReport {
    /// Logical cores of the machine the numbers were taken on.
    pub cores: usize,
    /// Worker threads the parallel paths (audit, assignment, rotation,
    /// fault sweep) fan out over (`anr_par::default_workers()`).
    pub workers: usize,
    /// Timed runs of each scenario's march and of the fault sweep.
    pub repeats: usize,
    /// Was this a smoke run?
    pub smoke: bool,
    /// One entry per benched scenario.
    pub scenarios: Vec<MarchTiming>,
    /// The fault-sweep duel.
    pub fault_sweep: FaultSweepTiming,
    /// The 10⁴-robot scale tier, when requested.
    pub scale: Option<MarchTiming>,
}

/// Median of a set of timings, `0.0` when empty.
fn median_of(mut times: Vec<f64>) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let mid = times.len() / 2;
    if times.len() % 2 == 1 {
        times[mid]
    } else {
        (times[mid - 1] + times[mid]) / 2.0
    }
}

/// Medians the durations of the spans named `name` on `tracer`, which
/// must hold one per repeat. With anr-trace's `off` feature the spans
/// vanish and the medians degrade to 0.0.
fn span_median_ms(tracer: &Tracer, name: &str, repeats: usize) -> Result<f64, BenchError> {
    let times = tracer.span_durations_ms(name);
    if tracer.is_enabled() && times.len() != repeats {
        return Err(BenchError::TimingMissing {
            expected: repeats,
            got: times.len(),
        });
    }
    Ok(median_of(times))
}

/// Medians the wall time of `f` over `repeats` runs, in milliseconds.
/// Each run is timed through a wall-clock tracer span — the same clock
/// the pipeline's own stage spans use — rather than an ad-hoc timer.
/// The closure's result is returned (from the last run) so the timed
/// work cannot be optimized away.
pub(crate) fn median_ms<T>(
    repeats: usize,
    mut f: impl FnMut() -> T,
) -> Result<(f64, T), BenchError> {
    let tracer = Tracer::wall(2 * repeats);
    let mut last = None;
    for _ in 0..repeats {
        let _rep = tracer.span("bench_rep");
        last = Some(f());
    }
    let Some(last) = last else {
        return Err(BenchError::ZeroRepeats);
    };
    Ok((span_median_ms(&tracer, "bench_rep", repeats)?, last))
}

/// Marches scenario `id` (separation 10 ranges, method (a), default
/// configuration) `repeats` times under one wall-clock tracer.
fn bench_march(id: u8, robots: usize, repeats: usize) -> Result<MarchTiming, BenchError> {
    let problem = crate::scenario_problem(id, 10.0, robots)?;
    let config = MarchConfig::default();
    let tracer = Tracer::wall(1 << 18);
    let mut last = None;
    for _ in 0..repeats {
        let outcome = crate::recorded(march_traced(
            &problem,
            Method::MaxStableLinks,
            &config,
            &tracer,
        ))?;
        let m = &outcome.metrics;
        last = Some((outcome.timeline.len(), m.audit_pieces, m.audit_checks));
    }
    let Some((timeline_rows, audit_pieces, audit_checks)) = last else {
        return Err(BenchError::ZeroRepeats);
    };
    let march_stages = MARCH_STAGES
        .iter()
        .map(|&stage| {
            let median_ms = span_median_ms(&tracer, stage, repeats)?;
            Ok(StageTiming { stage, median_ms })
        })
        .collect::<Result<_, BenchError>>()?;
    Ok(MarchTiming {
        id,
        robots: problem.num_robots(),
        march_ms: span_median_ms(&tracer, "march", repeats)?,
        march_stages,
        timeline_rows,
        audit_pieces,
        audit_checks,
    })
}

/// Times the fault sweep of the benchmark's `tools` workload: `anr
/// fault-sweep --robots 256 --loss 0,0.05 --crashes 0,1` at seed 42 (the
/// `sweep/tools` row of `tests/engine_golden.rs`), on 64 robots in smoke
/// mode.
fn bench_fault_sweep(smoke: bool, repeats: usize) -> Result<FaultSweepTiming, BenchError> {
    let robots = if smoke { 64 } else { 256 };
    let problem = crate::scenario_problem(1, 10.0, robots)?;
    let base = SweepConfig {
        loss_rates: vec![0.0, 0.05],
        crash_counts: vec![0, 1],
        seed: 42,
        ..SweepConfig::default()
    };
    let cells = base.loss_rates.len() * base.crash_counts.len();
    let workers = anr_par::default_workers();
    let serial_cfg = SweepConfig {
        workers: 1,
        ..base.clone()
    };
    let parallel_cfg = SweepConfig { workers, ..base };
    let (serial_ms, serial) = median_ms(repeats, || {
        run_fault_sweep(&problem.positions, problem.range, &serial_cfg)
    })?;
    let (parallel_ms, parallel) = median_ms(repeats, || {
        run_fault_sweep(&problem.positions, problem.range, &parallel_cfg)
    })?;
    let byte_identical = serial?.to_json() == parallel?.to_json();
    Ok(FaultSweepTiming {
        robots: problem.num_robots(),
        cells,
        serial_ms,
        parallel_ms,
        workers,
        byte_identical,
    })
}

/// Runs the full pipeline benchmark.
///
/// # Errors
///
/// Propagates scenario construction and pipeline failures.
pub fn run_pipeline_bench(opts: &BenchOptions) -> Result<PipelineBenchReport, BenchError> {
    // The scenario FoIs have the paper's fixed areas, so the robot count
    // can't drop below the paper's 144 even in smoke mode — fewer robots
    // make the deployment too sparse to triangulate. Smoke trims the
    // scenarios instead; the full run marches 1296 robots, the size of
    // the benchmark's `march-paper` workload.
    let (ids, robots): (&[u8], usize) = if opts.smoke {
        (&[1], 144)
    } else {
        (&[1, 2, 3, 4, 5, 6, 7], 1296)
    };
    let scenarios = ids
        .iter()
        .map(|&id| bench_march(id, robots, opts.repeats))
        .collect::<Result<_, _>>()?;
    let fault_sweep = bench_fault_sweep(opts.smoke, opts.repeats)?;
    let scale = if opts.scale_tier {
        Some(bench_march(1, 10_000, 1)?)
    } else {
        None
    };
    Ok(PipelineBenchReport {
        cores: anr_par::available_cores(),
        workers: anr_par::default_workers(),
        repeats: opts.repeats,
        smoke: opts.smoke,
        scenarios,
        fault_sweep,
        scale,
    })
}

fn json_ms(x: f64) -> String {
    format!("{x:.3}")
}

impl MarchTiming {
    /// This timing's JSON object members, one per line, each indented by
    /// `pad`.
    fn json_members(&self, pad: &str) -> String {
        let stages: Vec<String> = self
            .march_stages
            .iter()
            .map(|st| {
                format!(
                    "{pad}  {{\"stage\": \"{}\", \"median_ms\": {}}}",
                    st.stage,
                    json_ms(st.median_ms)
                )
            })
            .collect();
        format!(
            "{pad}\"id\": {},\n{pad}\"robots\": {},\n{pad}\"march_ms\": {},\n\
             {pad}\"march_stages\": [\n{}\n{pad}],\n{pad}\"timeline_rows\": {},\n\
             {pad}\"audit_pieces\": {},\n{pad}\"audit_checks\": {}\n",
            self.id,
            self.robots,
            json_ms(self.march_ms),
            stages.join(",\n"),
            self.timeline_rows,
            self.audit_pieces,
            self.audit_checks,
        )
    }
}

impl PipelineBenchReport {
    /// Serializes the report as a self-contained JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let scenarios: Vec<String> = self
            .scenarios
            .iter()
            .map(|sc| format!("    {{\n{}    }}", sc.json_members("      ")))
            .collect();
        let scale = match &self.scale {
            None => "null".to_string(),
            Some(t) => format!("{{\n{}  }}", t.json_members("    ")),
        };
        let fsw = &self.fault_sweep;
        format!(
            "{{\n  \"schema\": \"anr-bench-pipeline/4\",\n  \"cores\": {},\n  \"workers\": {},\n  \
             \"repeats\": {},\n  \"smoke\": {},\n  \"scenarios\": [\n{}\n  ],\n  \
             \"fault_sweep\": {{\"robots\": {}, \"cells\": {}, \"serial_ms\": {}, \
             \"parallel_ms\": {}, \"workers\": {}, \"byte_identical\": {}}},\n  \
             \"scale_tier\": {scale}\n}}\n",
            self.cores,
            self.workers,
            self.repeats,
            self.smoke,
            scenarios.join(",\n"),
            fsw.robots,
            fsw.cells,
            json_ms(fsw.serial_ms),
            json_ms(fsw.parallel_ms),
            fsw.workers,
            fsw.byte_identical,
        )
    }
}

/// Reads `"key": number` from one line of a report, if present.
fn member(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts every time the `--against` guard compares from a pipeline
/// bench report's JSON — the committed `BENCH_pipeline*.json` baselines
/// this crate itself writes: per scenario its `march_ms` and each
/// `march_stages` median, the fault sweep's `serial_ms` and
/// `parallel_ms`, and the scale tier's `march_ms` (not its stages).
/// Each time is labelled as the guard names it: `scenario 1 march_ms`,
/// ``scenario 1 stage `lloyd` ``, `fault sweep serial_ms`, `scale tier
/// march_ms`.
///
/// The parser is keyed on this crate's own serializer layout; lines it
/// does not recognize are skipped, so older baselines (schemas `/2` and
/// `/3`, which carry extra sections) parse fine.
#[must_use]
pub fn parse_guarded_times(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    // The scenario or tier the current lines belong to.
    let mut owner: Option<String> = None;
    let mut in_scale_tier = false;
    let mut in_march_stages = false;
    for line in json.lines() {
        let t = line.trim();
        if t.starts_with("\"scale_tier\"") {
            in_scale_tier = true;
            owner = Some("scale tier".to_string());
        }
        if let Some(rest) = t.strip_prefix("\"id\":") {
            if !in_scale_tier {
                let id: Option<u8> = rest.trim_end_matches(',').trim().parse().ok();
                owner = id.map(|id| format!("scenario {id}"));
            }
        }
        if t.starts_with("\"fault_sweep\"") {
            for key in ["serial_ms", "parallel_ms"] {
                if let Some(ms) = member(t, key) {
                    out.push((format!("fault sweep {key}"), ms));
                }
            }
        }
        let Some(owner) = &owner else { continue };
        if t.starts_with("\"march_stages\"") {
            in_march_stages = !in_scale_tier;
            continue;
        }
        if in_march_stages {
            if t.starts_with(']') {
                in_march_stages = false;
                continue;
            }
            let (Some(si), Some(ms)) = (t.find("\"stage\": \""), member(t, "median_ms")) else {
                continue;
            };
            let rest = &t[si + 10..];
            if let Some(se) = rest.find('\"') {
                out.push((format!("{owner} stage `{}`", &rest[..se]), ms));
            }
        } else if let Some(ms) = member(t, "march_ms") {
            out.push((format!("{owner} march_ms"), ms));
        }
    }
    out
}

/// Compares a fresh report's times against a committed baseline report
/// (same scale!), returning one message per time that regressed beyond
/// `factor`× the baseline plus `grace_ms`: each scenario's `march_ms`
/// and pipeline-stage medians, the fault sweep's serial and parallel
/// times, and the scale tier's `march_ms` when both reports have a tier
/// (see [`parse_guarded_times`]).
///
/// The absolute grace keeps sub-millisecond stages from tripping the
/// guard on scheduler jitter. Times missing from either side are skipped
/// (a new stage has no baseline to regress from), but a baseline that
/// shares no time with the report is itself a regression message: the
/// guard compared nothing.
#[must_use]
pub fn time_regressions(
    current: &PipelineBenchReport,
    baseline_json: &str,
    factor: f64,
    grace_ms: f64,
) -> Vec<String> {
    compare_times(
        &parse_guarded_times(&current.to_json()),
        &parse_guarded_times(baseline_json),
        factor,
        grace_ms,
    )
}

fn compare_times(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    factor: f64,
    grace_ms: f64,
) -> Vec<String> {
    let mut messages = Vec::new();
    let mut compared = 0usize;
    for (label, ms) in current {
        let Some((_, base)) = baseline.iter().find(|(l, _)| l == label) else {
            continue;
        };
        compared += 1;
        let limit = base * factor + grace_ms;
        if *ms > limit {
            messages.push(format!(
                "{label}: {ms:.3} ms exceeds {limit:.3} ms \
                 ({factor}x baseline {base:.3} ms + {grace_ms} ms grace)"
            ));
        }
    }
    if compared == 0 {
        messages.push(
            "the baseline holds none of this report's times: nothing was compared".to_string(),
        );
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let mut k = 0;
        let (m, last) = median_ms(3, || {
            k += 1;
            k
        })
        .unwrap();
        assert!(m >= 0.0);
        assert_eq!(last, 3);
    }

    #[test]
    fn smoke_bench_runs_and_serializes() {
        let report = run_pipeline_bench(&BenchOptions {
            smoke: true,
            repeats: 1,
            scale_tier: false,
        })
        .unwrap();
        assert_eq!(report.scenarios.len(), 1);
        assert!(report.fault_sweep.byte_identical);
        let sc = &report.scenarios[0];
        assert_eq!(sc.march_stages.len(), 8);
        // The march and every pipeline stage span were seen and timed on
        // this machine.
        assert!(sc.march_ms > 0.0, "march never timed");
        for st in &sc.march_stages {
            assert!(st.median_ms > 0.0, "stage `{}` never timed", st.stage);
        }
        assert!(
            sc.timeline_rows >= 2,
            "timeline has {} rows",
            sc.timeline_rows
        );
        let json = report.to_json();
        for key in [
            "\"schema\": \"anr-bench-pipeline/4\"",
            "\"workers\"",
            "\"march_ms\"",
            "\"timeline_rows\"",
            "\"audit_pieces\"",
            "\"audit_checks\"",
            "\"scale_tier\": null",
            "\"march_stages\"",
            "\"stage\": \"triangulate\"",
            "\"stage\": \"trajectories\"",
            "\"stage\": \"lloyd\"",
            "\"fault_sweep\"",
            "\"byte_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(sc.audit_checks >= 1, "audit never checked connectivity");
        assert!(sc.audit_pieces >= 1, "audit saw no motion pieces");

        // The report's own JSON round-trips through the baseline parser,
        // and an identical baseline never trips the regression guard.
        let parsed = parse_guarded_times(&json);
        let expected = [
            ("scenario 1 march_ms".to_string(), sc.march_ms),
            (
                "fault sweep serial_ms".to_string(),
                report.fault_sweep.serial_ms,
            ),
            (
                "fault sweep parallel_ms".to_string(),
                report.fault_sweep.parallel_ms,
            ),
        ]
        .into_iter()
        .chain(
            sc.march_stages
                .iter()
                .map(|st| (format!("scenario 1 stage `{}`", st.stage), st.median_ms)),
        );
        let mut count = 0;
        for (label, ms) in expected {
            count += 1;
            assert!(
                parsed
                    .iter()
                    .any(|(l, m)| *l == label && (*m - ms).abs() <= 0.0005),
                "`{label}` lost by the parser"
            );
        }
        assert_eq!(parsed.len(), count);
        assert!(time_regressions(&report, &json, 2.0, 10.0).is_empty());

        // A baseline claiming every stage ran in ~0 ms flags every stage
        // slower than the grace budget.
        let zeroed: String = json
            .lines()
            .map(|l| {
                if l.contains("\"median_ms\"") {
                    let head = l.split("\"median_ms\"").next().unwrap();
                    format!("{head}\"median_ms\": 0.000}},")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let slow = sc
            .march_stages
            .iter()
            .filter(|st| st.median_ms > 10.0)
            .count();
        let flagged = time_regressions(&report, &zeroed, 2.0, 10.0);
        assert_eq!(flagged.len(), slow, "{flagged:?}");

        // A baseline with nothing to compare fails the guard.
        let empty = time_regressions(&report, "", 2.0, 10.0);
        assert_eq!(empty.len(), 1, "{empty:?}");
    }

    #[test]
    fn guard_names_every_time_cut_tenfold_in_the_baseline() {
        let committed = include_str!("../../../BENCH_pipeline_smoke.json");
        let times = parse_guarded_times(committed);
        // The committed smoke baseline carries every end-to-end time CI's
        // guarded run reports, the 10⁴ tier included, and compared with
        // itself the guard is quiet.
        for label in [
            "scenario 1 march_ms",
            "fault sweep serial_ms",
            "fault sweep parallel_ms",
            "scale tier march_ms",
        ] {
            assert!(
                times.iter().any(|(l, _)| l == label),
                "no `{label}` in the committed baseline"
            );
        }
        assert_eq!(times.len(), 4 + 8, "{times:?}");
        assert!(compare_times(&times, &times, 2.0, 10.0).is_empty());
        // Cut any one time tenfold in the baseline and the guard names it,
        // and only it: always without a grace, and with CI's 10 ms grace
        // whenever the time exceeds its limit (a fifth of it plus 10 ms).
        for (i, (label, ms)) in times.iter().enumerate() {
            let mut cut = times.clone();
            cut[i].1 = ms / 10.0;
            for grace in [0.0, 10.0] {
                let messages = compare_times(&times, &cut, 2.0, grace);
                if *ms > 0.2 * ms + grace {
                    assert_eq!(messages.len(), 1, "{label}: {messages:?}");
                    assert!(
                        messages[0].starts_with(&format!("{label}: ")),
                        "{messages:?}"
                    );
                } else {
                    assert!(messages.is_empty(), "{label}: {messages:?}");
                }
            }
        }
    }
}
