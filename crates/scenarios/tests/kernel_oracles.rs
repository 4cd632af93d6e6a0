//! The march's geometry kernels against the loops they replaced, on every
//! scenario's fields of interest: row-sweep region sampling against
//! per-point containment, the circumcircle-indexed Delaunay against the
//! per-point triangle scan, the flat mesh adjacency against the ordered
//! maps, the adjacency-free connectivity test against a built unit-disk
//! graph, and Lloyd's tile-batched assignment, centroid clamp and guarded
//! step against the brute-force scan and the exact polygon tests.

use anr_coverage::{
    deploy_exactly, run_lloyd, triangular_lattice, Density, GridPartition, LloydConfig,
};
use anr_geom::{Point, PolygonWithHoles, Segment};
use anr_harmonic::fill_holes;
use anr_mesh::{delaunay, FoiMesher, TriMesh};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_scenarios::{build_scenario, Scenario, ScenarioParams};

#[path = "../../mesh/tests/support/delaunay_scan.rs"]
mod delaunay_scan;
use delaunay_scan::delaunay_scan;

#[path = "../../mesh/tests/support/trimesh_map.rs"]
mod trimesh_map;
use trimesh_map::assert_matches_map;

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
fn indexed_delaunay_matches_the_scan_at_the_large_march_size() {
    // Scenario 1 at 3025 robots, the benchmark's large march: 7452
    // mesher points inserted boundary first, so wide circles span the
    // interior until the grid rows fill in.
    let n = 3025;
    let s = build_scenario(
        1,
        &ScenarioParams {
            robots: n,
            ..Default::default()
        },
    )
    .unwrap();
    let (_, mesh) = pitch_and_mesh_spacing(&s.m2, n);
    let m2_input = FoiMesher::new(mesh).points(&s.m2);
    assert_eq!(m2_input.len(), 7452);
    let robots = coverage_positions(&s.m1, n);
    for (what, pts) in [("M2 mesh input", &m2_input), ("robots", &robots)] {
        let indexed = delaunay(pts).map(|m| (m.vertices().to_vec(), m.triangles().to_vec()));
        let scanned = delaunay_scan(pts).map(|m| (m.vertices().to_vec(), m.triangles().to_vec()));
        assert!(indexed.is_ok(), "{what}");
        assert_eq!(indexed, scanned, "{what}");
    }
}

#[test]
fn flat_mesh_adjacency_matches_the_maps_on_every_scenario() {
    let n = 1296;
    for s in scenarios() {
        let (_, spacing) = pitch_and_mesh_spacing(&s.m2, n);
        let mesher = FoiMesher::new(spacing);
        let dt = delaunay(&mesher.points(&s.m2)).unwrap();
        let foi = mesher.mesh(&s.m2).unwrap();
        let t = extract_triangulation(&coverage_positions(&s.m1, n), s.range).unwrap();
        let meshes: [(&str, TriMesh); 5] = [
            ("M2 Delaunay", dt),
            ("M2 filled", fill_holes(foi.mesh()).unwrap().mesh().clone()),
            ("M2 mesh", foi.into_mesh()),
            ("T filled", fill_holes(&t).unwrap().mesh().clone()),
            ("T", t),
        ];
        for (what, m) in meshes {
            let what = format!("scenario {} {what}", s.id);
            assert!(assert_matches_map(m.vertices(), m.triangles(), &what));
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

/// Deterministic uniform draws in [0, 1) (LCG).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The two partitions Lloyd runs on for `n` robots in `region`: the
/// march's (0.2 × the mesh spacing) and the coverage positions' one.
fn lloyd_partitions(region: &PolygonWithHoles, n: usize) -> [(&'static str, GridPartition); 2] {
    let (_, mesh) = pitch_and_mesh_spacing(region, n);
    let coverage = (region.area() / n as f64).sqrt() / 4.0;
    [
        ("Lloyd", GridPartition::new(region, 0.2 * mesh)),
        ("coverage", GridPartition::new(region, coverage)),
    ]
}

/// CVT sites in `region`, each moved by up to ±0.3 lattice pitches.
fn jittered_cvt(region: &PolygonWithHoles, n: usize, seed: u64) -> Vec<Point> {
    let (pitch, _) = pitch_and_mesh_spacing(region, n);
    let mut next = lcg(seed);
    coverage_positions(region, n)
        .into_iter()
        .map(|p| {
            Point::new(
                p.x + (next() - 0.5) * 0.6 * pitch,
                p.y + (next() - 0.5) * 0.6 * pitch,
            )
        })
        .collect()
}

/// Sites that are not a clean CVT: exact duplicates, one site at each
/// hole's centroid and vertices, sites outside the region, and a NaN.
fn awkward_extras(region: &PolygonWithHoles, sites: &[Point]) -> Vec<Point> {
    let mut extra: Vec<Point> = sites.iter().step_by(7).copied().collect();
    for h in region.holes() {
        extra.push(h.centroid());
        extra.extend(h.vertices().iter().step_by(3));
    }
    let bb = region.bbox();
    extra.extend([
        Point::new(bb.min.x - 40.0, bb.min.y - 40.0),
        Point::new(bb.max.x + 15.0, 0.5 * (bb.min.y + bb.max.y)),
        Point::new(0.5 * (bb.min.x + bb.max.x), bb.max.y + 3.0),
        Point::new(f64::NAN, bb.min.y),
    ]);
    extra
}

#[test]
fn tile_assignment_matches_brute_force_on_every_scenario() {
    for s in scenarios() {
        for n in [144, 400, 1296] {
            let cvt = jittered_cvt(&s.m2, n, 0x1100 + n as u64 + u64::from(s.id));
            let mut awkward = cvt.clone();
            awkward.extend(awkward_extras(&s.m2, &cvt));
            let mut outlier = awkward.clone();
            outlier.push(Point::new(5.0e4, -7.0e4));
            let c = s.m2.centroid();
            let sets: [(&str, Vec<Point>); 5] = [
                ("jittered CVT", cvt),
                ("duplicates, holes, outside, NaN", awkward),
                ("far outlier", outlier),
                ("single site", vec![c]),
                ("coincident", vec![c; 9]),
            ];
            for (name, part) in lloyd_partitions(&s.m2, n) {
                for (what, sites) in &sets {
                    assert_eq!(
                        part.assign(sites),
                        part.assign_brute_force(sites),
                        "scenario {} {name} partition, {n} robots, {what}",
                        s.id
                    );
                }
            }
        }
    }
}

/// `segment_blocked` then `clamp_inside` on the region: the guard's
/// exact path.
fn exact_step(region: &PolygonWithHoles, from: Point, to: Point) -> Point {
    if region.segment_blocked(Segment::new(from, to)) {
        from
    } else {
        region.clamp_inside(to)
    }
}

#[test]
fn guarded_step_matches_the_polygon_tests_on_every_scenario() {
    let mut paths = [0usize; 2];
    for s in scenarios() {
        for n in [144, 400, 1296] {
            let [(_, part), _] = lloyd_partitions(&s.m2, n);
            let from = jittered_cvt(&s.m2, n, 0x2200 + n as u64 + u64::from(s.id));
            let mut moves: Vec<(Point, Point)> = from
                .iter()
                .copied()
                .zip(part.centroids(&from, &Density::Uniform))
                .collect();
            // Steps that end exactly on hole vertices and on hole edges,
            // from the robots nearest each.
            for h in s.m2.holes() {
                for e in h.edges() {
                    for target in [e.a, e.at(0.5), e.at(0.3)] {
                        let mut near = from.clone();
                        near.sort_by(|a, b| {
                            a.distance_sq(target).total_cmp(&b.distance_sq(target))
                        });
                        moves.extend(near.iter().take(3).map(|&p| (p, target)));
                    }
                }
            }
            for (from, target) in moves {
                let mut fraction = 1.0f64;
                for _ in 0..7 {
                    let to = from.lerp(target, fraction);
                    let (end, exact) = part.guarded_step(from, to);
                    assert_eq!(
                        end,
                        exact_step(&s.m2, from, to),
                        "scenario {}, {n} robots, {from:?} -> {to:?}",
                        s.id
                    );
                    paths[usize::from(exact)] += 1;
                    fraction /= 2.0;
                }
            }
        }
    }
    // Both paths are exercised, the shortcut on most steps.
    assert!(paths[0] > paths[1] && paths[1] > 0, "{paths:?}");
}

#[test]
fn centroid_clamp_matches_clamp_inside_on_every_scenario() {
    let mut unchanged = 0usize;
    let mut total = 0usize;
    for s in scenarios() {
        let region = &s.m2;
        for n in [144, 1296] {
            for (name, part) in lloyd_partitions(region, n) {
                let sites = jittered_cvt(region, n, 0x3300 + n as u64 + u64::from(s.id));
                // The raw centroids, before the clamp.
                let labels = part.assign_brute_force(&sites);
                let mut sums = vec![(0.0, 0.0, 0.0); sites.len()];
                for (&p, &i) in part.samples().iter().zip(&labels) {
                    let (wx, wy, w) = &mut sums[i as usize];
                    *wx += p.x;
                    *wy += p.y;
                    *w += 1.0;
                }
                let mut points: Vec<Point> = sums
                    .iter()
                    .filter(|&&(_, _, w)| w > 0.0)
                    .map(|&(wx, wy, w)| Point::new(wx / w, wy / w))
                    .collect();
                // Points in holes, on and next to hole and outer edges,
                // and outside the region.
                let mut next = lcg(0x44 + u64::from(s.id));
                for poly in std::iter::once(region.outer()).chain(region.holes()) {
                    points.push(poly.centroid());
                    for e in poly.edges() {
                        for t in [0.0, 0.5, next()] {
                            let q = e.at(t);
                            points.extend([
                                q,
                                Point::new(q.x + 1e-9, q.y),
                                Point::new(q.x, q.y - 1e-9),
                                Point::new(q.x + (next() - 0.5) * 6.0, q.y + (next() - 0.5) * 6.0),
                            ]);
                        }
                    }
                }
                let bb = region.bbox();
                points.extend((0..200).map(|_| {
                    Point::new(
                        bb.min.x - 30.0 + next() * (bb.width() + 60.0),
                        bb.min.y - 30.0 + next() * (bb.height() + 60.0),
                    )
                }));
                points.push(Point::new(f64::NAN, bb.min.y));
                for p in points {
                    let want = region.clamp_inside(p);
                    let got = part.clamp_inside(p);
                    assert!(
                        got == want || (got.x.is_nan() && want.x.is_nan()),
                        "scenario {} {name} partition, {n} robots, {p:?}: {got:?} vs {want:?}",
                        s.id
                    );
                    unchanged += usize::from(want == p);
                    total += 1;
                }
                // The streamed centroids are the per-region loop's.
                let want: Vec<Point> = sites
                    .iter()
                    .zip(&sums)
                    .map(|(&site, &(wx, wy, w))| {
                        if w > 0.0 {
                            region.clamp_inside(Point::new(wx / w, wy / w))
                        } else {
                            site
                        }
                    })
                    .collect();
                assert_eq!(part.centroids(&sites, &Density::Uniform), want);
            }
        }
    }
    // Points the clamp keeps and points it moves are both exercised.
    assert!(unchanged > 0 && unchanged < total, "{unchanged} of {total}");
}
