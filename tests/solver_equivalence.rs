//! Integration: the PCG harmonic solver agrees with the Gauss–Seidel
//! reference on every seed scenario mesh — same linear system, different
//! solver, so the embeddings must coincide to solver tolerance.

use anr_marching::coverage::deploy_exactly;
use anr_marching::harmonic::{
    fill_holes, harmonic_map_gauss_seidel, harmonic_map_to_disk, DiskOverlay, HarmonicConfig,
};
use anr_marching::march::MarchConfig;
use anr_marching::mesh::{FoiMesher, PointLocator};
use anr_marching::netgraph::{extract_triangulation, UnitDiskGraph};
use anr_marching::scenarios::{all_scenarios, ScenarioParams};
use anr_marching::trace::Tracer;
use anr_mesh::TriMesh;

/// Solves `mesh` by PCG (the path the march runs) and by the
/// Gauss–Seidel reference, and returns the max per-vertex distance
/// between the embeddings plus the two iteration counts.
fn compare_solvers(mesh: &TriMesh) -> (f64, usize, usize) {
    let config = HarmonicConfig::default();
    let pcg = harmonic_map_to_disk(mesh, &config, &Tracer::disabled()).unwrap();
    let gs = harmonic_map_gauss_seidel(mesh, None, &config).unwrap();
    let max_diff = pcg
        .positions()
        .iter()
        .zip(gs.positions())
        .map(|(a, b)| a.distance(*b))
        .fold(0.0f64, f64::max);
    (max_diff, pcg.iterations(), gs.iterations())
}

#[test]
fn pcg_matches_gauss_seidel_on_every_scenario_foi_mesh() {
    let scenarios = all_scenarios(&ScenarioParams::default()).unwrap();
    for s in &scenarios {
        let spacing = MarchConfig::default().resolve_mesh_spacing(s.m2.area(), s.robots);
        let meshed = FoiMesher::new(spacing).mesh(&s.m2).unwrap();
        let filled = fill_holes(meshed.mesh()).unwrap();
        let (max_diff, pcg_iters, gs_iters) = compare_solvers(filled.mesh());
        assert!(
            max_diff < 1e-6,
            "scenario {}: embeddings diverge by {max_diff}",
            s.id
        );
        assert!(
            pcg_iters < gs_iters,
            "scenario {}: PCG took {pcg_iters} iterations vs GS {gs_iters}",
            s.id
        );
    }
}

#[test]
fn pcg_matches_gauss_seidel_on_every_robot_triangulation() {
    let scenarios = all_scenarios(&ScenarioParams::default()).unwrap();
    for s in &scenarios {
        let positions = deploy_exactly(&s.m1, s.robots).unwrap();
        let t = extract_triangulation(&positions, s.range).unwrap();
        let filled = fill_holes(&t).unwrap();
        let (max_diff, pcg_iters, gs_iters) = compare_solvers(filled.mesh());
        assert!(
            max_diff < 1e-6,
            "scenario {}: robot-mesh embeddings diverge by {max_diff}",
            s.id
        );
        assert!(
            pcg_iters < gs_iters,
            "scenario {}: PCG took {pcg_iters} iterations vs GS {gs_iters}",
            s.id
        );
    }
}

#[test]
fn full_pipeline_agrees_across_solvers() {
    // End to end: the march (PCG) picks the rotation that the same
    // method-(a) search picks on the Gauss–Seidel reference maps, and
    // its destinations differ from the reference's only by solver
    // tolerance, far below a millimetre at field scale.
    use anr_marching::march::{march, MarchProblem, Method};
    let scenarios = all_scenarios(&ScenarioParams::default()).unwrap();
    let s = &scenarios[0];
    let problem =
        MarchProblem::with_lattice_deployment(s.m1.clone(), s.m2.clone(), s.robots, s.range)
            .unwrap();
    let config = MarchConfig::default();
    let a = march(&problem, Method::MaxStableLinks, &config).unwrap();
    // No repair, so `mapped` is the composed map at the chosen rotation.
    assert!(a.repair.is_clean(), "{:?}", a.repair);

    // The march's two disk maps, solved by the reference.
    let n = problem.num_robots();
    let t_mesh = extract_triangulation(&problem.positions, problem.range).unwrap();
    let filled_t = fill_holes(&t_mesh).unwrap();
    let disk_t = harmonic_map_gauss_seidel(filled_t.mesh(), None, &config.harmonic).unwrap();
    let robot_disk: Vec<_> = (0..n).map(|v| disk_t.position(v)).collect();
    let spacing = config.resolve_mesh_spacing(problem.m2.area(), n);
    let foi2 = FoiMesher::new(spacing).mesh(&problem.m2).unwrap();
    let filled2 = fill_holes(foi2.mesh()).unwrap();
    let disk2 = harmonic_map_gauss_seidel(filled2.mesh(), None, &config.harmonic).unwrap();
    let overlay = DiskOverlay::new(
        filled2.mesh(),
        disk2.positions(),
        filled2.virtual_vertices(),
    );
    let locator = PointLocator::new(overlay.disk_mesh());
    let map_at = |theta: f64| -> Vec<_> {
        overlay
            .map_all_with(&locator, &robot_disk, theta)
            .into_iter()
            .map(|m| problem.m2.clamp_inside(m.position))
            .collect()
    };
    let links = UnitDiskGraph::new(&problem.positions, problem.range).links();
    let (rotation, _, _) = config.rotation.maximize(|theta| {
        let q = map_at(theta);
        links
            .iter()
            .filter(|&&(i, j)| q[i].distance(q[j]) <= problem.range)
            .count() as f64
            / links.len() as f64
    });
    assert_eq!(a.rotation, rotation, "same rotation chosen");
    let max_diff = a
        .mapped
        .iter()
        .zip(&map_at(rotation))
        .map(|(p, q)| p.distance(*q))
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-3, "mapped positions diverge by {max_diff} m");
}
