//! The march workloads: `anr scenario` end to end, and `march_traced`
//! in-process for the per-layer split.

use crate::measure::{event_count, median, peak_rss_kib, repeat_passes, run_child, span_ms, timed};
use crate::outputs::{parse_scenario_line, Golden, GoldenKey, MarchResult};
use crate::report::Run;
use crate::seeded::{self, Stream};
use crate::Env;
use anr_march::{
    audit_piecewise_with_workers, march, march_traced, MarchConfig, MarchProblem, Method,
};
use anr_scenarios::{build_scenario, ScenarioParams};
use anr_trace::{TraceEvent, TraceValue, Tracer};

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 3;

/// The pipeline stages `march_traced` opens spans for, with the layer
/// metric each feeds. The `metrics` span is the continuous-time audit.
const STAGES: &[(&str, &str)] = &[
    ("triangulate", "triangulate.share"),
    ("harmonic_m1", "harmonic.share"),
    ("harmonic_m2", "harmonic.share"),
    ("rotation", "rotation.share"),
    ("repair", "repair.share"),
    ("trajectories", "trajectory.share"),
    ("lloyd", "lloyd.share"),
    ("metrics", "audit.share"),
];

/// Per-scenario audit shares, indexed by scenario id − 1.
const AUDIT_BY_SCENARIO: [&str; 7] = [
    "audit.share.sc1",
    "audit.share.sc2",
    "audit.share.sc3",
    "audit.share.sc4",
    "audit.share.sc5",
    "audit.share.sc6",
    "audit.share.sc7",
];

/// Which marches a workload runs.
#[derive(Debug, Clone)]
pub(crate) struct MarchSpec {
    pub(crate) scenarios: Vec<u8>,
    pub(crate) robots: usize,
}

impl MarchSpec {
    /// The seven paper scenarios at 1296 robots.
    pub(crate) fn paper() -> MarchSpec {
        MarchSpec {
            scenarios: (1..=7).collect(),
            robots: 1296,
        }
    }

    /// Scenario 1 at 3025 robots: the largest swarm whose march fits a
    /// few times into one run on two cores.
    pub(crate) fn large() -> MarchSpec {
        MarchSpec {
            scenarios: vec![1],
            robots: 3025,
        }
    }
}

fn build_problem(id: u8, robots: usize, separation: u32) -> Result<MarchProblem, String> {
    let s = build_scenario(
        id,
        &ScenarioParams {
            robots,
            separation_ranges: f64::from(separation),
            ..Default::default()
        },
    )
    .map_err(|e| format!("scenario {id}: {e}"))?;
    MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range)
        .map_err(|e| format!("scenario {id}: {e}"))
}

/// Builds every problem of the run [`SETUPS`] times, recording each
/// round's time, and returns the last round's problems.
fn set_up(
    run: &mut Run,
    spec: &MarchSpec,
    inputs: &[(u8, u32)],
) -> Result<Vec<MarchProblem>, String> {
    let mut problems = Vec::new();
    for _ in 0..SETUPS {
        let (built, ms) = timed(|| {
            inputs
                .iter()
                .map(|&(id, s)| build_problem(id, spec.robots, s))
                .collect::<Result<Vec<_>, _>>()
        });
        problems = built?;
        run.setup_ms.push(ms);
    }
    Ok(problems)
}

fn check_march(
    golden: &Golden,
    key: GoldenKey,
    output: &std::process::Output,
) -> Result<(), String> {
    if !output.status.success() {
        return Err(format!(
            "{key:?}: anr scenario exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let got = parse_scenario_line(&stdout)
        .ok_or_else(|| format!("{key:?}: no result line in {:?}", stdout.trim()))?;
    golden.check(key, &got)
}

/// Marches every scenario of `spec` as `anr scenario` child processes,
/// pass after pass in a seeded order, until `seconds` are spent (at
/// least one pass). Each scenario keeps one seeded separation for the
/// run, so its marches are repeats of one input.
pub(crate) fn run_e2e(
    env: &Env,
    spec: &MarchSpec,
    seed: u64,
    seconds: f64,
    golden: &Golden,
) -> Result<Run, String> {
    let mut run = Run::default();
    let inputs = seeded::separations(seed, &spec.scenarios);
    set_up(&mut run, spec, &inputs)?;

    let mut order_rng = seeded::rng(seed, Stream::MarchOrder);
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut peak_kib = 0;
    repeat_passes(seconds, || {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        seeded::shuffle(&mut order_rng, &mut order);
        for k in order {
            let (id, s) = inputs[k];
            let args: Vec<String> = [
                "scenario",
                "--id",
                &id.to_string(),
                "--robots",
                &spec.robots.to_string(),
                "--method",
                "a",
                "--separation",
                &s.to_string(),
            ]
            .iter()
            .map(|a| a.to_string())
            .collect();
            let child = run_child(&env.anr, &args).map_err(|e| format!("spawn anr: {e}"))?;
            run.op(check_march(golden, (id, spec.robots, s), &child.output));
            run.sample(format!("march:sc{id}:s{s}"), child.ms);
            per_input[k].push(child.ms);
            peak_kib = peak_kib.max(child.peak_kib);
        }
        Ok(())
    })?;

    let pass_ms: f64 = per_input.iter().map(|v| median(v)).sum();
    run.set("pass_s", pass_ms / 1000.0);
    run.set("p50_ms", median(&run.latencies("march:")));
    run.set("setup_s", median(&run.setup_ms) / 1000.0);
    let own = peak_rss_kib("self").unwrap_or(0);
    run.set("peak_rss_mb", peak_kib.max(own) as f64 / 1024.0);
    Ok(run)
}

/// Per-stage wall times and counters of the marches of one traced run.
#[derive(Default)]
pub(crate) struct StageTotals {
    /// Traced time of every operation added, ms.
    pub(crate) op_ms: f64,
    stage_ms: Vec<(&'static str, f64)>,
    audit_ms_by_scenario: [f64; 7],
    op_ms_by_scenario: [f64; 7],
    pcg_iters: u64,
    rotation_evals: u64,
    lloyd_iters: u64,
}

impl StageTotals {
    /// Adds the stage spans and solver events of one march traced into
    /// `events`, which took `op_ms` on scenario `scenario` (if any).
    pub(crate) fn add(&mut self, events: &[TraceEvent], op_ms: f64, scenario: Option<u8>) {
        self.op_ms += op_ms;
        for &(span, metric) in STAGES {
            let ms: f64 = span_ms(events, span).iter().sum();
            match self.stage_ms.iter_mut().find(|(m, _)| *m == metric) {
                Some((_, total)) => *total += ms,
                None => self.stage_ms.push((metric, ms)),
            }
        }
        if let Some(k) = scenario.map(|id| usize::from(id) - 1).filter(|&k| k < 7) {
            self.audit_ms_by_scenario[k] += span_ms(events, "metrics").iter().sum::<f64>();
            self.op_ms_by_scenario[k] += op_ms;
        }
        self.pcg_iters += event_count(events, "pcg_iter");
        self.rotation_evals += event_count(events, "rotation_eval");
        self.lloyd_iters += event_count(events, "lloyd_iter");
    }

    /// Writes the stage shares of the traced time, the traced time
    /// itself and the counters into `run`.
    pub(crate) fn report(&self, run: &mut Run) {
        run.set("trace.pass_ms", self.op_ms);
        for &(metric, ms) in &self.stage_ms {
            run.set(metric, ms / self.op_ms);
        }
        let by_scenario = self
            .audit_ms_by_scenario
            .iter()
            .zip(&self.op_ms_by_scenario);
        for (metric, (&audit_ms, &op_ms)) in AUDIT_BY_SCENARIO.iter().zip(by_scenario) {
            if op_ms > 0.0 {
                run.set(metric, audit_ms / op_ms);
            }
        }
        run.set("harmonic.pcg_iters", self.pcg_iters as f64);
        run.set("rotation.evals", self.rotation_evals as f64);
        run.set("lloyd.iters", self.lloyd_iters as f64);
    }
}

/// Normalized instants of a timeline of `len` rows, spaced as
/// `evaluate_timeline` spaces them.
fn uniform_times(len: usize) -> Vec<f64> {
    let steps = len.saturating_sub(1).max(1) as f64;
    (0..len).map(|k| k as f64 / steps).collect()
}

/// The per-layer run: each distinct problem marched in-process, once
/// untraced and once under a wall tracer whose stage spans give the
/// split, then the audit called directly on the march's own timeline at
/// auto and at one worker. Every span is appended to `spans`.
pub(crate) fn run_traced(
    spec: &MarchSpec,
    seed: u64,
    golden: &Golden,
    spans: &mut Vec<TraceEvent>,
) -> Result<Run, String> {
    let mut run = Run::with_layers();
    let inputs = seeded::separations(seed, &spec.scenarios);
    let problems = set_up(&mut run, spec, &inputs)?;
    let config = MarchConfig::default();
    let tracer = Tracer::wall(1 << 20);
    let mut totals = StageTotals::default();
    let (mut untraced_ms, mut pieces, mut checks) = (0.0, 0, 0);
    let (mut direct_ms, mut direct_serial_ms) = (0.0, 0.0);
    for (&(id, s), problem) in inputs.iter().zip(&problems) {
        let key = (id, spec.robots, s);
        let (plain, ms) = timed(|| march(problem, Method::MaxStableLinks, &config));
        untraced_ms += ms;
        run.sample(format!("march_untraced:sc{id}:s{s}"), ms);
        let outcome = {
            let _op = tracer.span_with(
                "bench_march",
                vec![
                    ("scenario", TraceValue::U64(u64::from(id))),
                    ("separation", TraceValue::U64(u64::from(s))),
                ],
            );
            march_traced(problem, Method::MaxStableLinks, &config, &tracer)
        };
        let events = tracer.take_events();
        let op_ms: f64 = span_ms(&events, "bench_march").iter().sum();
        totals.add(&events, op_ms, Some(id));
        spans.extend(events);
        run.sample(format!("march_traced:sc{id}:s{s}"), op_ms);
        let (Ok(outcome), Ok(plain)) = (outcome, plain) else {
            run.op(Err(format!("{key:?}: in-process march failed")));
            continue;
        };
        let result = MarchResult::from_metrics(&outcome.metrics);
        let same = result == MarchResult::from_metrics(&plain.metrics);
        run.op(golden.check(key, &result).and_then(|()| {
            same.then_some(())
                .ok_or_else(|| format!("{key:?}: tracing changed the outcome"))
        }));
        pieces += outcome.metrics.audit_pieces;
        checks += outcome.metrics.audit_checks;
        let times = uniform_times(outcome.timeline.len());
        let disabled = Tracer::disabled();
        for workers in [0, 1] {
            let (report, ms) = timed(|| {
                audit_piecewise_with_workers(
                    &outcome.timeline,
                    &times,
                    problem.range,
                    workers,
                    &disabled,
                )
            });
            if workers == 0 {
                direct_ms += ms;
            } else {
                direct_serial_ms += ms;
            }
            run.sample(format!("audit_direct:w{workers}:sc{id}"), ms);
            run.op(match report {
                Ok(r)
                    if r.global_connectivity == outcome.metrics.global_connectivity
                        && r.preserved_links == outcome.metrics.preserved_links =>
                {
                    Ok(())
                }
                Ok(_) => Err(format!("{key:?}: direct audit disagrees with the march")),
                Err(e) => Err(format!("{key:?}: direct audit: {e}")),
            });
        }
    }
    totals.report(&mut run);
    run.set("trace.overhead", totals.op_ms / untraced_ms);
    run.set("audit.pieces", pieces as f64);
    run.set("audit.checks", checks as f64);
    run.set("audit.parallel_speedup", direct_serial_ms / direct_ms);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn small() -> MarchSpec {
        MarchSpec {
            scenarios: vec![1, 2],
            robots: 144,
        }
    }

    /// Golden entries for the small spec, taken from one traced run's
    /// own outcomes (which a separate test pins to the CLI's output).
    fn golden_for(spec: &MarchSpec, seed: u64) -> Golden {
        let mut golden = Golden::default();
        for (id, s) in seeded::separations(seed, &spec.scenarios) {
            let p = build_problem(id, spec.robots, s).unwrap();
            let out = march(&p, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
            golden.0.insert(
                (id, spec.robots, s),
                MarchResult::from_metrics(&out.metrics),
            );
        }
        golden
    }

    #[test]
    fn e2e_run_emits_exactly_the_declared_metrics() {
        let env = Env::for_tests();
        let spec = small();
        let golden = golden_for(&spec, 5);
        let run = run_e2e(&env, &spec, 5, 0.0, &golden).unwrap();
        assert_eq!(run.failures, Vec::<String>::new());
        assert_eq!(run.attempted, 2);
        let names: Vec<&str> = run.metrics.keys().copied().collect();
        let mut declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert!(run.metrics.values().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn corrupted_golden_entry_is_a_counted_failure() {
        let env = Env::for_tests();
        let spec = small();
        let mut golden = golden_for(&spec, 5);
        let entry = golden.0.values_mut().next().unwrap();
        entry.d.push('7');
        let run = run_e2e(&env, &spec, 5, 0.0, &golden).unwrap();
        assert_eq!(run.attempted, 2);
        assert_eq!(run.failures.len(), 1, "{:?}", run.failures);
    }

    #[test]
    fn traced_run_emits_exactly_the_declared_layers() {
        let spec = small();
        let golden = golden_for(&spec, 5);
        let mut spans = Vec::new();
        let run = run_traced(&spec, 5, &golden, &mut spans).unwrap();
        assert_eq!(run.failures, Vec::<String>::new());
        let names: Vec<&str> = run.metrics.keys().copied().collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert!(run.metrics["audit.share"] > 0.0 && run.metrics["audit.share"] < 1.0);
        assert!(run.metrics["audit.share.sc2"] > 0.0);
        assert_eq!(run.metrics["audit.share.sc3"], 0.0);
        assert!(spans.iter().any(|e| e.name == "bench_march"));
    }
}
