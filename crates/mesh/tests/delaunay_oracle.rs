//! The indexed Bowyer–Watson triangulation against the per-point scan it
//! replaced: same vertices, same triangles, same order, same errors.

use anr_geom::{Point, Polygon, PolygonWithHoles};
use anr_mesh::{delaunay, FoiMesher, MeshError};

#[path = "support/delaunay_scan.rs"]
mod delaunay_scan;
use delaunay_scan::delaunay_scan;

type Triangulation = Result<(Vec<Point>, Vec<[usize; 3]>), MeshError>;

fn triangulation(result: Result<anr_mesh::TriMesh, MeshError>) -> Triangulation {
    result.map(|m| (m.vertices().to_vec(), m.triangles().to_vec()))
}

fn assert_matches_scan(points: &[Point], what: &str) {
    assert_eq!(
        triangulation(delaunay(points)),
        triangulation(delaunay_scan(points)),
        "{what}: indexed triangulation differs from the scan"
    );
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

#[test]
fn integer_grid_matches_scan() {
    // Every unit square is a cocircular quadruple: the guarded in_circle
    // decides each one, so the cavities depend on which triangles were
    // tested at all.
    let pts: Vec<Point> = (0..40 * 40)
        .map(|k| Point::new((k % 40) as f64, (k / 40) as f64))
        .collect();
    assert_matches_scan(&pts, "40 x 40 grid");
    // Column-major and shifted far from the origin.
    let pts: Vec<Point> = (0..25 * 25)
        .map(|k| Point::new(1.0e6 + (k / 25) as f64, -3.0e6 + (k % 25) as f64))
        .collect();
    assert_matches_scan(&pts, "offset 25 x 25 grid");
}

#[test]
fn random_cloud_matches_scan() {
    let mut next = lcg(7);
    let pts: Vec<Point> = (0..3000)
        .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
        .collect();
    assert_matches_scan(&pts, "3000-point cloud");
}

#[test]
fn duplicate_and_clustered_points_match_scan() {
    let mut next = lcg(11);
    let mut pts: Vec<Point> = (0..400)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    // Exact duplicates, near-duplicates and a tight cluster far from a
    // lone outlier: wide circles, slivers and empty cells.
    for k in (0..400).step_by(7) {
        pts.push(pts[k]);
        pts.push(Point::new(pts[k].x + 1e-10, pts[k].y));
    }
    pts.extend((0..50).map(|_| Point::new(50.0 + next() * 1e-3, 50.0 + next() * 1e-3)));
    pts.push(Point::new(5000.0, -7000.0));
    assert_matches_scan(&pts, "duplicates and clusters");
}

#[test]
fn degenerate_inputs_match_scan() {
    let line: Vec<Point> = (0..20)
        .map(|i| Point::new(i as f64, 2.0 * i as f64))
        .collect();
    assert_matches_scan(&line, "collinear");
    assert_matches_scan(&line[..2], "two points");
    let same = vec![Point::new(3.0, 3.0); 5];
    assert_matches_scan(&same, "coincident");
    let circle: Vec<Point> = (0..64)
        .map(|k| {
            let t = std::f64::consts::TAU * k as f64 / 64.0;
            Point::new(100.0 * t.cos(), 100.0 * t.sin())
        })
        .collect();
    assert_matches_scan(&circle, "cocircular ring");
    // A thin strip: the grid degenerates to one row of cells.
    let mut next = lcg(3);
    let strip: Vec<Point> = (0..300)
        .map(|_| Point::new(next() * 1e4, next() * 0.5))
        .collect();
    assert_matches_scan(&strip, "thin strip");
    // Coordinates too large for the index's rounding argument: one cell.
    let huge: Vec<Point> = (0..200)
        .map(|_| Point::new(1e120 * (1.0 + next()), 1e120 * next()))
        .collect();
    assert_matches_scan(&huge, "huge coordinates");
    let with_nan = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(f64::NAN, 0.5),
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
    ];
    assert_eq!(
        format!("{:?}", triangulation(delaunay(&with_nan))),
        format!("{:?}", triangulation(delaunay_scan(&with_nan))),
        "NaN input"
    );
}

#[test]
fn foi_mesher_inputs_match_scan() {
    let outer = Polygon::regular(Point::new(20.0, -10.0), 300.0, 40);
    let holes = vec![
        Polygon::regular(Point::new(-60.0, 40.0), 50.0, 12),
        Polygon::rectangle(Point::new(80.0, -90.0), 60.0, 40.0),
    ];
    let region = PolygonWithHoles::new(outer, holes).unwrap();
    for spacing in [9.0, 14.0, 25.0] {
        let pts = FoiMesher::new(spacing).points(&region);
        assert_matches_scan(&pts, &format!("FoI mesh input at spacing {spacing}"));
    }
}
