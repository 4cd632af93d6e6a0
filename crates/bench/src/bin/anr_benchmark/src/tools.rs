//! The tools workload: `anr fault-sweep` and `anr lint --deny` as child
//! processes, and the event-engine hop field on a 10⁵-robot lattice
//! in-process (no CLI command runs it).

use crate::measure::{median, peak_rss_kib, repeat_passes, run_child, span_ms, timed};
use crate::outputs::{check_zero_fault_cells, parse_lint_summary};
use crate::report::Run;
use crate::seeded::{self, Stream};
use crate::Env;
use anr_distsim::FaultPlan;
use anr_eventsim::{run_event_hop_field_accounted, ExplicitTopology, RHOP_MSG_BITS};
use anr_geom::Point;
use anr_march::{run_fault_sweep, run_fault_sweep_traced, MarchProblem, SweepConfig};
use anr_netgraph::robust::RetransmitConfig;
use anr_netgraph::UnitDiskGraph;
use anr_scenarios::{build_scenario, ScenarioParams};
use anr_trace::{TraceEvent, TraceValue, Tracer};
use rand::Rng;

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 3;
/// Lattice pitch (m): with the 80 m range every robot hears its eight
/// neighbours.
const PITCH: f64 = 55.0;
/// Communication range (m).
const RANGE: f64 = 80.0;
/// Loss rate of the hop-field runs.
const HOP_LOSS: f64 = 0.02;
/// The fault-sweep grid, CLI and in-process alike.
const SWEEP_LOSS: [f64; 2] = [0.0, 0.05];
const SWEEP_CRASHES: [usize; 2] = [0, 1];

/// What the tools workload runs.
#[derive(Debug, Clone)]
pub(crate) struct ToolsSpec {
    /// Robots of the `anr fault-sweep` deployment (scenario 1).
    pub(crate) sweep_robots: usize,
    /// The hop-field lattice is `side × side` robots.
    pub(crate) lattice_side: usize,
    /// One pass: this many sweeps, hop fields and lints.
    pub(crate) sweeps: usize,
    pub(crate) hop_fields: usize,
    pub(crate) lints: usize,
}

impl ToolsSpec {
    /// A 256-robot sweep, two hop fields on 316² = 99 856 robots and
    /// seven lints per pass: about 6 s on two cores.
    pub(crate) fn full() -> ToolsSpec {
        ToolsSpec {
            sweep_robots: 256,
            lattice_side: 316,
            sweeps: 1,
            hop_fields: 2,
            lints: 7,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tool {
    Sweep,
    HopField,
    Lint,
}

/// The hop-field inputs: lattice adjacency, and hop counts by BFS from
/// robot 0 as the reference every run must reproduce.
struct HopInputs {
    adjacency: Vec<Vec<usize>>,
    sources: Vec<bool>,
    bfs: Vec<Option<usize>>,
}

fn lattice(side: usize) -> Vec<Point> {
    (0..side * side)
        .map(|i| Point::new((i % side) as f64 * PITCH, (i / side) as f64 * PITCH))
        .collect()
}

/// Builds the hop-field adjacency and its topology [`SETUPS`] times,
/// recording each time.
fn set_up(run: &mut Run, side: usize) -> Result<HopInputs, String> {
    let mut graph = None;
    for _ in 0..SETUPS {
        let (built, ms) = timed(|| {
            let g = UnitDiskGraph::new(&lattice(side), RANGE);
            ExplicitTopology::new(g.adjacency().to_vec()).map(|_| g)
        });
        graph = Some(built.map_err(|e| format!("hop-field topology: {e}"))?);
        run.setup_ms.push(ms);
    }
    let graph = graph.ok_or("no set-up ran")?;
    let n = side * side;
    Ok(HopInputs {
        adjacency: graph.adjacency().to_vec(),
        sources: (0..n).map(|i| i == 0).collect(),
        bfs: graph.bfs_hops(0),
    })
}

fn max_rounds(side: usize) -> usize {
    40 * side + 400
}

/// One hop-field run under `FaultPlan::reliable(seed)` with 2% loss,
/// checked against BFS and the CONGEST payload budget. Returns the
/// rounds, messages and peak payload bits.
fn hop_field(inputs: &HopInputs, side: usize, seed: u64) -> Result<(usize, usize, u32), String> {
    let plan = FaultPlan::reliable(seed).with_loss(HOP_LOSS);
    let (outcome, obs) = run_event_hop_field_accounted(
        &inputs.sources,
        &inputs.adjacency,
        plan,
        RetransmitConfig::default(),
        max_rounds(side),
    )
    .map_err(|e| format!("hop field (seed {seed}): {e}"))?;
    if outcome.results != inputs.bfs {
        return Err(format!(
            "hop field (seed {seed}): hop counts differ from BFS"
        ));
    }
    if obs.peak_payload_bits > RHOP_MSG_BITS {
        return Err(format!(
            "hop field (seed {seed}): {} payload bits > {RHOP_MSG_BITS}",
            obs.peak_payload_bits
        ));
    }
    Ok((
        outcome.stats.rounds,
        outcome.stats.sent,
        obs.peak_payload_bits,
    ))
}

fn sweep_args(spec: &ToolsSpec, seed: u64) -> Vec<String> {
    let csv = |v: Vec<String>| v.join(",");
    vec![
        "fault-sweep".to_string(),
        "--robots".to_string(),
        spec.sweep_robots.to_string(),
        "--loss".to_string(),
        csv(SWEEP_LOSS.iter().map(f64::to_string).collect()),
        "--crashes".to_string(),
        csv(SWEEP_CRASHES.iter().map(usize::to_string).collect()),
        "--seed".to_string(),
        seed.to_string(),
    ]
}

fn check_sweep(output: &std::process::Output) -> Result<(), String> {
    if !output.status.success() {
        return Err(format!(
            "anr fault-sweep exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    check_zero_fault_cells(&String::from_utf8_lossy(&output.stdout))
}

fn check_lint(output: &std::process::Output) -> Result<(), String> {
    let stdout = String::from_utf8_lossy(&output.stdout);
    match parse_lint_summary(&stdout) {
        Some((_, 0)) if output.status.success() => Ok(()),
        _ => Err(format!("anr lint --deny: {}", stdout.trim())),
    }
}

/// Runs passes of sweeps, hop fields and lints in a seeded order until
/// `seconds` are spent (at least one pass).
pub(crate) fn run_e2e(env: &Env, spec: &ToolsSpec, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut run = Run::default();
    let inputs = set_up(&mut run, spec.lattice_side)?;
    let lint_args: Vec<String> = vec![
        "lint".into(),
        "--deny".into(),
        "--root".into(),
        env.root.display().to_string(),
    ];
    let mut seeds = seeded::rng(seed, Stream::ToolSeeds);
    let mut order_rng = seeded::rng(seed, Stream::ToolOrder);
    let mut peak_kib = 0;
    repeat_passes(seconds, || {
        let mut pass: Vec<Tool> = [
            (Tool::Sweep, spec.sweeps),
            (Tool::HopField, spec.hop_fields),
            (Tool::Lint, spec.lints),
        ]
        .iter()
        .flat_map(|&(tool, n)| std::iter::repeat_n(tool, n))
        .collect();
        seeded::shuffle(&mut order_rng, &mut pass);
        for tool in pass {
            let tool_seed: u64 = seeds.gen_range(0..1_000_000);
            match tool {
                Tool::Sweep => {
                    let child = run_child(&env.anr, &sweep_args(spec, tool_seed))
                        .map_err(|e| format!("spawn anr: {e}"))?;
                    run.op(check_sweep(&child.output));
                    run.sample("sweep", child.ms);
                    peak_kib = peak_kib.max(child.peak_kib);
                }
                Tool::HopField => {
                    let (result, ms) = timed(|| hop_field(&inputs, spec.lattice_side, tool_seed));
                    run.op(result.map(|_| ()));
                    run.sample("hop_field", ms);
                }
                Tool::Lint => {
                    let child =
                        run_child(&env.anr, &lint_args).map_err(|e| format!("spawn anr: {e}"))?;
                    run.op(check_lint(&child.output));
                    run.sample("lint", child.ms);
                    peak_kib = peak_kib.max(child.peak_kib);
                }
            }
        }
        Ok(())
    })?;

    let pass_ms = spec.sweeps as f64 * median(&run.latencies("sweep"))
        + spec.hop_fields as f64 * median(&run.latencies("hop_field"))
        + spec.lints as f64 * median(&run.latencies("lint"));
    run.set("pass_s", pass_ms / 1000.0);
    run.set("p50_ms", median(&run.latencies("lint")));
    run.set("setup_s", median(&run.setup_ms) / 1000.0);
    let own = peak_rss_kib("self").unwrap_or(0);
    run.set("peak_rss_mb", peak_kib.max(own) as f64 / 1024.0);
    Ok(run)
}

/// The positions `anr fault-sweep --robots n` sweeps: scenario 1's
/// deployment at separation 10.
fn sweep_positions(robots: usize) -> Result<(Vec<Point>, f64), String> {
    let s = build_scenario(
        1,
        &ScenarioParams {
            robots,
            separation_ranges: 10.0,
            ..Default::default()
        },
    )
    .map_err(|e| format!("scenario 1: {e}"))?;
    let p = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range)
        .map_err(|e| format!("scenario 1: {e}"))?;
    Ok((p.positions, p.range))
}

/// The per-layer run: one sweep in-process traced, untraced, and on one
/// worker; one hop field; and the lint, once per file through
/// `scan_source` and once whole through `lint_workspace`.
pub(crate) fn run_traced(
    env: &Env,
    spec: &ToolsSpec,
    seed: u64,
    spans: &mut Vec<TraceEvent>,
) -> Result<Run, String> {
    let mut run = Run::with_layers();
    let inputs = set_up(&mut run, spec.lattice_side)?;
    let mut seeds = seeded::rng(seed, Stream::ToolSeeds);

    let (positions, range) = sweep_positions(spec.sweep_robots)?;
    let auto = SweepConfig {
        loss_rates: SWEEP_LOSS.to_vec(),
        crash_counts: SWEEP_CRASHES.to_vec(),
        seed: seeds.gen_range(0..1_000_000),
        ..SweepConfig::default()
    };
    let serial = SweepConfig {
        workers: 1,
        ..auto.clone()
    };
    let tracer = Tracer::wall(1 << 16);
    let traced = {
        let _op = tracer.span_with("bench_sweep", vec![("seed", TraceValue::U64(auto.seed))]);
        run_fault_sweep_traced(&positions, range, &auto, &tracer)
    };
    let events = tracer.take_events();
    let sweep_ms: f64 = span_ms(&events, "bench_sweep").iter().sum();
    spans.extend(events);
    let (untraced, untraced_sweep_ms) = timed(|| run_fault_sweep(&positions, range, &auto));
    let (one_worker, serial_ms) = timed(|| run_fault_sweep(&positions, range, &serial));
    run.sample("sweep_traced", sweep_ms);
    run.sample("sweep_untraced", untraced_sweep_ms);
    run.sample("sweep_serial", serial_ms);
    match (traced, untraced, one_worker) {
        (Ok(report), Ok(plain), Ok(serial_report)) => {
            let cells = report.protocols.iter().flat_map(|p| &p.cells);
            let zero_fault_ok = cells
                .clone()
                .filter(|c| c.loss_permille == 0 && c.crashes == 0)
                .all(|c| c.correct);
            run.set("sweep.msgs", cells.clone().map(|c| c.sent as f64).sum());
            run.set(
                "sweep.converged_cells",
                cells.filter(|c| c.converged).count() as f64,
            );
            run.op(if !zero_fault_ok {
                Err("sweep: a zero-fault cell is not correct".to_string())
            } else if report != plain || report != serial_report {
                Err("sweep: tracing or the worker count changed the grid".to_string())
            } else {
                Ok(())
            });
        }
        _ => run.op(Err("sweep: run failed".to_string())),
    }

    let hop_seed = seeds.gen_range(0..1_000_000);
    let (hop, hop_ms) = timed(|| hop_field(&inputs, spec.lattice_side, hop_seed));
    run.sample("hop_field", hop_ms);
    match hop {
        Ok((rounds, msgs, bits)) => {
            run.set("eventsim.rounds", rounds as f64);
            run.set("eventsim.msgs", msgs as f64);
            run.set("eventsim.peak_payload_bits", f64::from(bits));
            run.op(Ok(()));
        }
        Err(e) => run.op(Err(e)),
    }

    let files = anr_lint::workspace_files(&env.root).map_err(|e| format!("lint walk: {e}"))?;
    let sources = files
        .iter()
        .map(|(rel, abs)| std::fs::read_to_string(abs).map(|src| (rel.clone(), src)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("lint read: {e}"))?;
    let (_, scan_ms) = timed(|| {
        sources
            .iter()
            .map(|(rel, src)| anr_lint::scan_source(rel, src).len())
            .sum::<usize>()
    });
    let (report, lint_ms) =
        timed(|| anr_lint::lint_workspace(&anr_lint::LintOptions::at(&env.root)));
    run.sample("lint_scan", scan_ms);
    run.sample("lint_workspace", lint_ms);
    match report {
        Ok(r) => {
            run.set("lint.files", r.files_scanned as f64);
            run.set("lint.findings", r.findings.len() as f64);
            run.op(if r.findings.is_empty() {
                Ok(())
            } else {
                Err(format!("lint: {} findings", r.findings.len()))
            });
        }
        Err(e) => run.op(Err(format!("lint: {e}"))),
    }

    let total = sweep_ms + hop_ms + lint_ms;
    run.set("trace.pass_ms", total);
    run.set(
        "trace.overhead",
        total / (untraced_sweep_ms + hop_ms + lint_ms),
    );
    run.set("sweep.share", sweep_ms / total);
    run.set("sweep.parallel_speedup", serial_ms / untraced_sweep_ms);
    run.set("eventsim.share", hop_ms / total);
    run.set("lint.share", lint_ms / total);
    run.set("lint.scan_share", scan_ms / lint_ms);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn small() -> ToolsSpec {
        ToolsSpec {
            sweep_robots: 64,
            lattice_side: 20,
            sweeps: 1,
            hop_fields: 1,
            lints: 1,
        }
    }

    #[test]
    fn e2e_run_emits_exactly_the_declared_metrics() {
        let env = Env::for_tests();
        let run = run_e2e(&env, &small(), 2, 0.0).unwrap();
        assert_eq!(run.failures, Vec::<String>::new());
        assert_eq!(run.attempted, 3);
        let names: Vec<&str> = run.metrics.keys().copied().collect();
        let mut declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
    }

    #[test]
    fn traced_run_emits_exactly_the_declared_layers() {
        let env = Env::for_tests();
        let mut spans = Vec::new();
        let run = run_traced(&env, &small(), 2, &mut spans).unwrap();
        assert_eq!(run.failures, Vec::<String>::new());
        let names: Vec<&str> = run.metrics.keys().copied().collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert!(run.metrics["lint.files"] > 100.0);
        assert!(run.metrics["eventsim.rounds"] > 0.0);
    }
}
