//! One test per quotable claim from the paper's text, beyond the
//! figure/table reproductions (those live in `tests/scenario_pipeline.rs`
//! and the bench harnesses).

use anr_marching::harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay, HarmonicConfig};
use anr_marching::march::{march, MarchConfig, MarchProblem, Method};
use anr_marching::mesh::FoiMesher;
use anr_marching::netgraph::{extract_triangulation, UnitDiskGraph};
use anr_marching::scenarios::{build_scenario, ScenarioParams};
use anr_marching::trace::Tracer;

fn problem(id: u8) -> MarchProblem {
    let s = build_scenario(id, &ScenarioParams::default()).unwrap();
    MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range).unwrap()
}

/// "It is obvious that the positions of mobile robots have been very
/// close to the optimal coverage positions after harmonic map.
/// Therefore the moving cost in the minor adjustment step ... is low."
/// (Sec. IV-A)
#[test]
fn minor_adjustment_cost_is_minor() {
    let p = problem(1);
    let out = march(&p, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
    let transition_d = out.transition.total_length();
    let adjustment_d = out.metrics.total_distance - transition_d;
    assert!(
        adjustment_d < 0.05 * transition_d,
        "adjustment {adjustment_d:.0} m vs transition {transition_d:.0} m"
    );
    // Per-robot adjustment is a fraction of the communication range.
    let per_robot: f64 = out
        .mapped
        .iter()
        .zip(&out.final_positions)
        .map(|(a, b)| a.distance(*b))
        .sum::<f64>()
        / p.num_robots() as f64;
    assert!(per_robot < p.range, "mean adjustment {per_robot:.1} m");
}

/// "Lloyd algorithm only needs a few steps to converge" (Sec. III-C).
#[test]
fn lloyd_converges_in_a_few_steps() {
    let p = problem(1);
    let out = march(&p, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
    assert!(
        out.lloyd_iterations <= 30,
        "{} Lloyd iterations",
        out.lloyd_iterations
    );
}

/// "The computed rotation angle has been very close to the optimal one
/// with the search depth value [4]" (Sec. III-B) — the depth-limited
/// search recovers ≥ 92% of the exhaustive-sweep link ratio.
#[test]
fn depth_limited_rotation_close_to_exhaustive() {
    let p = problem(3);
    let n = p.num_robots();
    let t = extract_triangulation(&p.positions, p.range).unwrap();
    let filled_t = fill_holes(&t).unwrap();
    let disk_t = harmonic_map_to_disk(
        filled_t.mesh(),
        &HarmonicConfig::default(),
        &Tracer::disabled(),
    )
    .unwrap();
    let robot_disk: Vec<_> = (0..n).map(|v| disk_t.position(v)).collect();

    let spacing = MarchConfig::default().resolve_mesh_spacing(p.m2.area(), n);
    let foi2 = FoiMesher::new(spacing).mesh(&p.m2).unwrap();
    let filled2 = fill_holes(foi2.mesh()).unwrap();
    let disk2 = harmonic_map_to_disk(
        filled2.mesh(),
        &HarmonicConfig::default(),
        &Tracer::disabled(),
    )
    .unwrap();
    let overlay = DiskOverlay::new(
        filled2.mesh(),
        disk2.positions(),
        filled2.virtual_vertices(),
    );

    let links = UnitDiskGraph::new(&p.positions, p.range).links();
    let objective = |theta: f64| -> f64 {
        let q: Vec<_> = overlay
            .map_all(&robot_disk, theta)
            .into_iter()
            .map(|m| m.position)
            .collect();
        links
            .iter()
            .filter(|&&(i, j)| q[i].distance(q[j]) <= p.range)
            .count() as f64
            / links.len() as f64
    };

    let search = anr_marching::harmonic::RotationSearch::default();
    let (_, l_search, evals) = search.maximize(objective);
    let (_, l_exhaustive) = anr_marching::harmonic::RotationSearch::exhaustive(360, objective);
    assert!(evals <= 24);
    assert!(
        l_search >= 0.92 * l_exhaustive,
        "search {l_search:.3} vs exhaustive {l_exhaustive:.3}"
    );
}

/// "Boundary vertices of T are mapped to the boundary of M2 and form a
/// closed loop" (Sec. III-D-1): the boundary robots' destinations hug
/// M2's outer boundary.
#[test]
fn boundary_robots_map_to_m2_boundary() {
    let p = problem(1);
    let cfg = MarchConfig {
        refine_coverage: false,
        ..Default::default()
    };
    let out = march(&p, Method::MaxStableLinks, &cfg).unwrap();
    let t = extract_triangulation(&p.positions, p.range).unwrap();
    let boundary = t.boundary_loops().into_iter().next().unwrap();
    let spacing = cfg.resolve_mesh_spacing(p.m2.area(), p.num_robots());
    for &v in &boundary {
        let d = p.m2.outer().distance_to_boundary(out.mapped[v]);
        assert!(
            d < 1.5 * spacing,
            "boundary robot {v} mapped {d:.1} m from M2's boundary"
        );
    }
}

/// "Every sensor is connected to six neighboring sensors" for the
/// triangular lattice at r_c ≥ √3·r_s (Sec. II-A): interior robots of
/// the generated deployments have degree ≥ 6.
#[test]
fn interior_robots_have_six_neighbors() {
    let p = problem(1);
    let g = UnitDiskGraph::new(&p.positions, p.range);
    let t = extract_triangulation(&p.positions, p.range).unwrap();
    let boundary: std::collections::HashSet<usize> =
        t.boundary_loops().into_iter().flatten().collect();
    let mut interior_checked = 0;
    for v in 0..p.num_robots() {
        if !boundary.contains(&v) {
            assert!(
                g.degree(v) >= 5,
                "interior robot {v} has degree {}",
                g.degree(v)
            );
            interior_checked += 1;
        }
    }
    assert!(
        interior_checked > 50,
        "only {interior_checked} interior robots"
    );
}

/// The global-connectivity definition is about *paths to the network
/// boundary* (Def. 2): with C = 1 every robot can reach a boundary robot
/// at every sample.
#[test]
fn every_robot_reaches_the_boundary_at_every_sample() {
    let p = problem(6);
    let out = march(&p, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
    assert_eq!(out.metrics.global_connectivity, 1);
    let t = extract_triangulation(&p.positions, p.range).unwrap();
    let boundary: Vec<usize> = t.boundary_loops().into_iter().next().unwrap();
    for (k, row) in out.timeline.iter().enumerate().step_by(7) {
        let g = UnitDiskGraph::new(row, p.range);
        let hops = g.multi_source_hops(&boundary);
        assert!(
            hops.iter().all(Option::is_some),
            "sample {k}: some robot cannot reach the boundary"
        );
    }
}
