//! The march's geometry kernels against the loops they replaced, on every
//! scenario's fields of interest: row-sweep region sampling against
//! per-point containment, the circumcircle-indexed Delaunay against the
//! per-point triangle scan, and the adjacency-free connectivity test
//! against a built unit-disk graph.

use anr_coverage::{
    deploy_exactly, run_lloyd, triangular_lattice, Density, GridPartition, LloydConfig,
};
use anr_geom::{Point, PolygonWithHoles};
use anr_mesh::{delaunay, FoiMesher};
use anr_netgraph::UnitDiskGraph;
use anr_scenarios::{build_scenario, Scenario, ScenarioParams};

#[path = "../../mesh/tests/support/delaunay_scan.rs"]
mod delaunay_scan;
use delaunay_scan::delaunay_scan;

const SIZES: [usize; 2] = [144, 1296];

fn scenarios() -> Vec<Scenario> {
    (1..=7)
        .map(|id| build_scenario(id, &ScenarioParams::default()).unwrap())
        .collect()
}

/// The robot lattice pitch for `n` robots in `region` and the `M2` mesh
/// spacing the march derives from it (`MarchConfig::resolve_mesh_spacing`).
fn pitch_and_mesh_spacing(region: &PolygonWithHoles, n: usize) -> (f64, f64) {
    let pitch = (region.area() / n as f64 * 2.0 / 3f64.sqrt()).sqrt();
    (pitch, 0.6 * pitch)
}

/// `PolygonWithHoles::grid_points` as the per-point loop it was.
fn grid_points_by_point(region: &PolygonWithHoles, spacing: f64) -> Vec<Point> {
    let bb = region.bbox();
    let mut pts = Vec::new();
    let mut y = bb.min.y + spacing / 2.0;
    while y < bb.max.y {
        let mut x = bb.min.x + spacing / 2.0;
        while x < bb.max.x {
            let p = Point::new(x, y);
            if region.contains(p) {
                pts.push(p);
            }
            x += spacing;
        }
        y += spacing;
    }
    pts
}

/// `triangular_lattice` as the per-point loop it was.
fn lattice_by_point(region: &PolygonWithHoles, spacing: f64) -> Vec<Point> {
    let bb = region.bbox();
    let row_height = spacing * 3f64.sqrt() / 2.0;
    let mut pts = Vec::new();
    let mut row = 0usize;
    let mut y = bb.min.y + row_height / 2.0;
    while y < bb.max.y {
        let offset = if row % 2 == 1 { spacing / 2.0 } else { 0.0 };
        let mut x = bb.min.x + spacing / 2.0 + offset;
        while x < bb.max.x {
            let p = Point::new(x, y);
            if region.contains(p) && !region.in_hole(p) {
                pts.push(p);
            }
            x += spacing;
        }
        y += row_height;
        row += 1;
    }
    pts
}

/// `deploy_exactly` over [`lattice_by_point`]: the spacing bisection
/// sees the same counts, so it must end on the same lattice.
fn deploy_by_point(region: &PolygonWithHoles, n: usize) -> Option<Vec<Point>> {
    let ideal = (region.area() / (n as f64) * 2.0 / 3f64.sqrt()).sqrt();
    let mut lo = ideal * 0.5;
    let mut hi = ideal * 2.0;
    for _ in 0..20 {
        if lattice_by_point(region, lo).len() >= n {
            break;
        }
        lo *= 0.7;
    }
    if lattice_by_point(region, lo).len() < n {
        return None;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if lattice_by_point(region, mid).len() >= n {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mut pts = lattice_by_point(region, lo);
    let c = region.centroid();
    pts.sort_by(|a, b| a.distance_sq(c).total_cmp(&b.distance_sq(c)));
    pts.truncate(n);
    Some(pts)
}

/// The march's starting positions (`optimal_coverage_positions`): the
/// lattice deployment refined by plain Lloyd.
fn coverage_positions(region: &PolygonWithHoles, n: usize) -> Vec<Point> {
    let seed = deploy_exactly(region, n).unwrap();
    let spacing = (region.area() / n as f64).sqrt() / 4.0;
    let partition = GridPartition::new(region, spacing);
    let config = LloydConfig {
        tolerance: spacing * 0.1,
        max_iterations: 60,
        ..Default::default()
    };
    run_lloyd(&seed, &partition, &Density::Uniform, &config).sites
}

#[test]
fn row_sweep_sampling_matches_per_point_containment_on_every_scenario() {
    for s in scenarios() {
        for (name, region) in [("M1", &s.m1), ("M2", &s.m2)] {
            for n in SIZES {
                let (pitch, mesh) = pitch_and_mesh_spacing(region, n);
                // The mesh grid, the march's Lloyd partition (0.2 × mesh)
                // and the coverage partition of the starting positions.
                let coverage = (region.area() / n as f64).sqrt() / 4.0;
                for spacing in [mesh, 0.2 * mesh, coverage] {
                    assert_eq!(
                        region.grid_points(spacing),
                        grid_points_by_point(region, spacing),
                        "scenario {} {name}, {n} robots, grid spacing {spacing}",
                        s.id
                    );
                }
                for spacing in [pitch, 0.97 * pitch] {
                    assert_eq!(
                        triangular_lattice(region, spacing),
                        lattice_by_point(region, spacing),
                        "scenario {} {name}, {n} robots, lattice spacing {spacing}",
                        s.id
                    );
                }
            }
        }
    }
}

#[test]
fn deploy_exactly_matches_the_per_point_lattice_on_every_scenario() {
    let all = scenarios();
    // Scenarios 1–5 share M1.
    let regions = all
        .iter()
        .filter(|s| s.id == 1 || s.id >= 6)
        .map(|s| &s.m1)
        .chain(all.iter().map(|s| &s.m2));
    for (k, region) in regions.enumerate() {
        for n in SIZES {
            assert_eq!(
                deploy_exactly(region, n),
                deploy_by_point(region, n),
                "region {k}, {n} robots"
            );
        }
    }
}

#[test]
fn indexed_delaunay_matches_the_scan_on_every_scenario() {
    let n = 1296;
    for s in scenarios() {
        let (_, mesh) = pitch_and_mesh_spacing(&s.m2, n);
        let m2_input = FoiMesher::new(mesh).points(&s.m2);
        let robots = coverage_positions(&s.m1, n);
        for (what, pts) in [("M2 mesh input", &m2_input), ("robots", &robots)] {
            let indexed = delaunay(pts).map(|m| (m.vertices().to_vec(), m.triangles().to_vec()));
            let scanned =
                delaunay_scan(pts).map(|m| (m.vertices().to_vec(), m.triangles().to_vec()));
            assert!(indexed.is_ok(), "scenario {} {what}", s.id);
            assert_eq!(indexed, scanned, "scenario {} {what}", s.id);
        }
    }
}

#[test]
fn connected_matches_the_built_graph_on_scenario_deployments() {
    let range = ScenarioParams::default().range;
    let mut outcomes = [0usize; 2];
    for s in scenarios() {
        for n in SIZES {
            let pts = deploy_exactly(&s.m2, n).unwrap();
            let c = s.m2.centroid();
            // Stretching the lattice about its centroid breaks it apart
            // step by step.
            for stretch in [1.0, 1.2, 1.45, 1.7, 2.5] {
                let stretched: Vec<Point> = pts.iter().map(|&p| c + (p - c) * stretch).collect();
                let expect = UnitDiskGraph::new(&stretched, range).is_connected();
                assert_eq!(
                    UnitDiskGraph::connected(&stretched, range),
                    expect,
                    "scenario {}, {n} robots, stretch {stretch}",
                    s.id
                );
                outcomes[usize::from(expect)] += 1;
            }
        }
    }
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}
