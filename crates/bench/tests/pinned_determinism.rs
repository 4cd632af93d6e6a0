//! Determinism pins on the real bench scenarios.
//!
//! The unit tests in `anr-coverage`, `anr-harmonic` and `anr-march` pin
//! the accelerated paths (bucket-grid Lloyd assignment, batched rotation
//! search, parallel audit) against their reference implementations on
//! synthetic inputs; these tests repeat the pins on every bench scenario
//! geometry — holes, concavities and detours included — at the smoke
//! robot count, so a fast path that only agrees on easy inputs cannot
//! slip through.

use anr_bench::scenario_problem_sized;
use anr_coverage::GridPartition;
use anr_harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay, HarmonicConfig, Solver};
use anr_march::{
    audit_piecewise_uncontracted, audit_piecewise_with_workers, march, MarchConfig, MarchProblem,
    Method,
};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_trace::Tracer;

const ROBOTS: usize = 144;
const SEPARATION: f64 = 10.0;

fn scenario_problem(id: u8) -> MarchProblem {
    scenario_problem_sized(id, SEPARATION, ROBOTS).unwrap()
}

/// The bucket-grid sample assignment equals the brute-force scan,
/// bucket by bucket, on every scenario's target FoI — the exact pin the
/// guarded Lloyd iteration relies on.
#[test]
fn lloyd_assignment_matches_brute_force_on_every_scenario() {
    for id in 1..=7u8 {
        let problem = scenario_problem(id);
        let config = MarchConfig::default();
        let spacing = config.resolve_mesh_spacing(problem.m2.area(), problem.num_robots());
        let partition = GridPartition::new(&problem.m2, spacing * 0.2);
        assert_eq!(
            partition.assign(&problem.positions),
            partition.assign_brute_force(&problem.positions),
            "scenario {id}: grid assignment diverged from brute force"
        );
    }
}

/// The batched (worker-fanned) rotation search lands on the same
/// `(theta, value, evaluations)` as the serial bisection on the real
/// stable-link objective, scenario by scenario.
#[test]
fn rotation_batch_matches_serial_on_every_scenario() {
    for id in 1..=7u8 {
        let problem = scenario_problem(id);
        let n = problem.num_robots();
        let config = MarchConfig::default();
        let spacing = config.resolve_mesh_spacing(problem.m2.area(), n);
        let pcg_cfg = HarmonicConfig {
            solver: Solver::Pcg,
            ..HarmonicConfig::default()
        };

        // Same construction as the pipeline's rotation stage.
        let foi2 = anr_mesh::FoiMesher::new(spacing).mesh(&problem.m2).unwrap();
        let filled2 = fill_holes(foi2.mesh()).unwrap();
        let disk2 = harmonic_map_to_disk(filled2.mesh(), &pcg_cfg).unwrap();
        let t_mesh = extract_triangulation(&problem.positions, problem.range).unwrap();
        let filled_t = fill_holes(&t_mesh).unwrap();
        let disk_t = harmonic_map_to_disk(filled_t.mesh(), &pcg_cfg).unwrap();
        let robot_disk: Vec<_> = (0..n).map(|v| disk_t.position(v)).collect();
        let overlay = DiskOverlay::new(
            filled2.mesh(),
            disk2.positions(),
            filled2.virtual_vertices(),
        );
        let links = UnitDiskGraph::new(&problem.positions, problem.range).links();
        let locator = anr_mesh::PointLocator::new(overlay.disk_mesh());
        let objective = |theta: f64| {
            let q = overlay.map_all_with(&locator, &robot_disk, theta);
            if links.is_empty() {
                return 1.0;
            }
            links
                .iter()
                .filter(|&&(i, j)| q[i].position.distance(q[j].position) <= problem.range)
                .count() as f64
                / links.len() as f64
        };

        let serial = config.rotation.maximize(objective);
        let batched = config
            .rotation
            .maximize_batch(|thetas| anr_par::par_map(thetas, 0, |&theta| objective(theta)));
        assert_eq!(
            serial, batched,
            "scenario {id}: batched rotation search diverged from serial"
        );
    }
}

/// The parallel audit report is identical — every field, every violation
/// interval — at workers 1, 2 and 8, on real march timelines from a
/// simply-connected scenario, a hole-detour scenario, and scenario 6,
/// whose preserved links leave two components so the contracted sweep
/// runs.
#[test]
fn audit_identical_across_worker_counts() {
    for id in [1u8, 4, 6] {
        let problem = scenario_problem(id);
        let config = MarchConfig::default();
        let outcome = march(&problem, Method::MaxStableLinks, &config).unwrap();
        let rows = &outcome.timeline;
        assert!(rows.len() >= 2, "scenario {id}: march produced no motion");
        let times: Vec<f64> = (0..rows.len())
            .map(|k| k as f64 / (rows.len() - 1) as f64)
            .collect();
        let tracer = Tracer::disabled();
        let reference =
            audit_piecewise_with_workers(rows, &times, problem.range, 1, &tracer).unwrap();
        if id == 6 {
            assert!(
                reference.components > 1 && reference.swept_pairs > 0,
                "scenario 6 no longer exercises the contracted sweep"
            );
        }
        for workers in [2usize, 8] {
            let report =
                audit_piecewise_with_workers(rows, &times, problem.range, workers, &tracer)
                    .unwrap();
            assert_eq!(
                reference, report,
                "scenario {id}: audit report changed at {workers} workers"
            );
        }
    }
}

/// The certificate-first audit agrees with its uncontracted oracle on
/// every scenario's real march timeline at 144 and 256 robots: `C`,
/// `L`, the violations and the preserved links exactly, the
/// disconnected intervals in count and to the 1e-12 event-merge
/// tolerance. The march's own metrics are that same audit.
#[test]
fn audit_matches_uncontracted_oracle_on_every_scenario() {
    for robots in [144usize, 256] {
        for id in 1..=7u8 {
            let problem = scenario_problem_sized(id, SEPARATION, robots).unwrap();
            let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
            let rows = &outcome.timeline;
            let times: Vec<f64> = (0..rows.len())
                .map(|k| k as f64 / (rows.len() - 1) as f64)
                .collect();
            let got =
                audit_piecewise_with_workers(rows, &times, problem.range, 0, &Tracer::disabled())
                    .unwrap();
            let want = audit_piecewise_uncontracted(rows, &times, problem.range, 0).unwrap();
            let key = format!("scenario {id} at {robots} robots");
            assert_eq!(got.global_connectivity, want.global_connectivity, "{key}");
            assert_eq!(got.stable_link_ratio, want.stable_link_ratio, "{key}");
            assert_eq!(got.preserved_links, want.preserved_links, "{key}");
            assert_eq!(got.violations, want.violations, "{key}");
            let (a, b) = (&got.disconnected_intervals, &want.disconnected_intervals);
            assert_eq!(a.len(), b.len(), "{key}");
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x.0 - y.0).abs() <= 1e-12 && (x.1 - y.1).abs() <= 1e-12,
                    "{key}: {x:?} vs {y:?}"
                );
            }
            let m = &outcome.metrics;
            assert_eq!(
                (m.global_connectivity, m.preserved_links, &m.violations),
                (
                    got.global_connectivity,
                    got.preserved_links,
                    &got.violations
                ),
                "{key}: the march's metrics are not its own audit"
            );
        }
    }
}
