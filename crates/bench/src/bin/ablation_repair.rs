//! Ablation: connectivity-repair variants on sparse swarms.
//!
//! The paper's Sec. III-D-1 repair detects isolation with packets
//! initiated at boundary vertices, implicitly assuming the mapped
//! boundary ring stays connected. For sparse swarms that assumption can
//! fail; this library's default is the *strict* variant that also merges
//! preserved-link components. The ablation compares, per swarm size:
//! no repair, the paper's boundary-based repair, and the strict repair —
//! reporting predicted endpoint connectivity, robots re-targeted and the
//! distance overhead of the re-targeting.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_repair
//! ```

use anr_geom::{Point, Polygon, PolygonWithHoles};
use anr_march::{repair_connectivity, repair_connectivity_strict, MarchConfig, MarchProblem};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};

/// Builds the raw harmonic-map targets for a problem without any repair
/// (refine_coverage off, strict repair bypassed by re-deriving targets
/// from the unrepaired outcome is not exposed; instead run the pipeline
/// pieces directly).
fn raw_targets(problem: &MarchProblem) -> Option<(Vec<Point>, Vec<usize>)> {
    use anr_harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay};
    use anr_mesh::FoiMesher;
    use anr_trace::Tracer;

    let n = problem.num_robots();
    let t_mesh = extract_triangulation(&problem.positions, problem.range).ok()?;
    if (0..n).any(|v| t_mesh.vertex_neighbors(v).is_empty()) {
        return None;
    }
    let filled_t = fill_holes(&t_mesh).ok()?;
    let disk_t =
        harmonic_map_to_disk(filled_t.mesh(), &Default::default(), &Tracer::disabled()).ok()?;
    let robot_disk: Vec<Point> = (0..n).map(|v| disk_t.position(v)).collect();

    let config = MarchConfig::default();
    let spacing = config.resolve_mesh_spacing(problem.m2.area(), n);
    let foi2 = FoiMesher::new(spacing).mesh(&problem.m2).ok()?;
    let filled2 = fill_holes(foi2.mesh()).ok()?;
    let disk2 =
        harmonic_map_to_disk(filled2.mesh(), &Default::default(), &Tracer::disabled()).ok()?;
    let overlay = DiskOverlay::new(
        filled2.mesh(),
        disk2.positions(),
        filled2.virtual_vertices(),
    );
    let targets: Vec<Point> = overlay
        .map_all(&robot_disk, 0.0)
        .into_iter()
        .map(|m| problem.m2.clamp_inside(m.position))
        .collect();
    let boundary: Vec<usize> = filled_t
        .mesh()
        .boundary_loops()
        .into_iter()
        .next()
        .unwrap_or_default()
        .into_iter()
        .filter(|&v| v < n)
        .collect();
    Some((targets, boundary))
}

/// Is the preserved-link graph of (initial positions → targets)
/// connected?
fn preserved_connected(initial: &UnitDiskGraph, targets: &[Point]) -> bool {
    let mut uf = anr_netgraph::UnionFind::new(initial.len());
    for (i, j) in initial.links() {
        if targets[i].distance(targets[j]) <= initial.range() {
            uf.union(i, j);
        }
    }
    uf.num_sets() == 1
}

fn main() {
    println!("robots,variant,preserved_graph_connected,adjusted_robots,extra_distance_m");
    // Sparse-to-dense sweep: small swarms stress the boundary assumption.
    for robots in [24usize, 36, 64, 100, 144] {
        // M1 dense enough to triangulate (pitch ~61 m); M2 strongly
        // elongated so the mapped boundary ring is stretched.
        let side = (robots as f64 * 3200.0).sqrt();
        let m1 = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side));
        let m2 = PolygonWithHoles::without_holes(Polygon::rectangle(
            Point::new(side + 1200.0, 0.0),
            side * 1.6,
            side * 0.35,
        ));
        // Raw lattice deployment (no Lloyd refinement): constant pitch
        // keeps every Delaunay edge within range so the comparison
        // isolates the repair stage.
        let Some(positions) = anr_coverage::deploy_exactly(&m1, robots) else {
            println!("{robots},skipped_deployment,,,");
            continue;
        };
        let Ok(problem) = MarchProblem::new(m1, m2, positions, 80.0) else {
            println!("{robots},skipped_disconnected_deployment,,,");
            continue;
        };
        let Some((base_targets, boundary)) = raw_targets(&problem) else {
            println!("{robots},skipped_triangulation,,,");
            continue;
        };
        let initial = UnitDiskGraph::new(&problem.positions, problem.range);
        let base_d: f64 = problem
            .positions
            .iter()
            .zip(&base_targets)
            .map(|(a, b)| a.distance(*b))
            .sum();

        // No repair.
        println!(
            "{robots},none,{},0,0",
            preserved_connected(&initial, &base_targets),
        );

        // Paper's boundary-based repair.
        let mut t1 = base_targets.clone();
        let r1 = repair_connectivity(&initial, &mut t1, &boundary);
        let d1: f64 = problem
            .positions
            .iter()
            .zip(&t1)
            .map(|(a, b)| a.distance(*b))
            .sum();
        println!(
            "{robots},boundary_packets,{},{},{:.1}",
            preserved_connected(&initial, &t1),
            r1.adjusted_robots.len(),
            d1 - base_d,
        );

        // Strict repair (this library's default).
        let mut t2 = base_targets.clone();
        let r2 = repair_connectivity_strict(&initial, &mut t2, &boundary);
        let d2: f64 = problem
            .positions
            .iter()
            .zip(&t2)
            .map(|(a, b)| a.distance(*b))
            .sum();
        println!(
            "{robots},strict,{},{},{:.1}",
            preserved_connected(&initial, &t2),
            r2.adjusted_robots.len(),
            d2 - base_d,
        );
    }
}
