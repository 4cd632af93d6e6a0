//! `TriMesh`'s flat adjacency and boundary walk against the ordered maps
//! they replaced: every accessor, every boundary loop and every error
//! alike, on the unit-test fixtures, seeded triangle soups and the
//! mesher's own meshes.

use anr_geom::{Point, Polygon, PolygonWithHoles};
use anr_mesh::{delaunay, FoiMesher};

#[path = "support/trimesh_map.rs"]
mod trimesh_map;
use trimesh_map::assert_matches_map;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Deterministic draws in [0, 1) (LCG).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An `nx` × `ny` vertex grid cut into two triangles per square.
fn grid(nx: usize, ny: usize) -> (Vec<Point>, Vec<[usize; 3]>) {
    let verts = (0..nx * ny)
        .map(|k| p((k % nx) as f64, (k / nx) as f64))
        .collect();
    let mut tris = Vec::new();
    for j in 0..ny - 1 {
        for i in 0..nx - 1 {
            let v = j * nx + i;
            tris.push([v, v + 1, v + nx + 1]);
            tris.push([v, v + nx + 1, v + nx]);
        }
    }
    (verts, tris)
}

#[test]
fn unit_fixtures_match_the_map() {
    let (verts, tris) = grid(3, 3);
    assert!(assert_matches_map(&verts, &tris, "3 x 3 grid"));

    let ring = vec![
        p(0.0, 0.0),
        p(3.0, 0.0),
        p(3.0, 3.0),
        p(0.0, 3.0),
        p(1.0, 1.0),
        p(2.0, 1.0),
        p(2.0, 2.0),
        p(1.0, 2.0),
    ];
    let ring_tris = [
        [0, 1, 5],
        [0, 5, 4],
        [1, 2, 6],
        [1, 6, 5],
        [2, 3, 7],
        [2, 7, 6],
        [3, 0, 4],
        [3, 4, 7],
    ];
    assert!(assert_matches_map(&ring, &ring_tris, "square ring"));

    let bowtie = vec![
        p(0.0, 0.0),
        p(2.0, 0.0),
        p(1.0, 1.0),
        p(0.0, 2.0),
        p(2.0, 2.0),
    ];
    assert!(assert_matches_map(
        &bowtie,
        &[[0, 1, 2], [2, 4, 3]],
        "bowtie pinch"
    ));

    let fan = vec![
        p(0.0, 0.0),
        p(1.0, 0.0),
        p(0.5, 1.0),
        p(0.5, -1.0),
        p(2.0, 0.5),
    ];
    assert!(!assert_matches_map(
        &fan,
        &[[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        "non-manifold fan"
    ));

    let tri = vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)];
    assert!(!assert_matches_map(&tri, &[[0, 1, 5]], "bad index"));
    assert!(!assert_matches_map(&tri, &[[0, 1, 1]], "repeated vertex"));
    assert!(assert_matches_map(&tri, &[[0, 2, 1]], "clockwise"));
    assert!(assert_matches_map(&tri, &[], "no triangles"));
    assert!(assert_matches_map(&[], &[], "empty"));
}

#[test]
fn non_manifold_error_names_the_first_third_incidence() {
    // Edges (0, 1) and (2, 3) both get a third triangle; (2, 3)'s comes
    // first in triangle order, and within one triangle the earlier slot
    // wins.
    let verts: Vec<Point> = (0..9).map(|k| p(k as f64, (k * k % 7) as f64)).collect();
    let tris = [
        [0, 1, 4],
        [2, 3, 5],
        [0, 1, 6],
        [2, 3, 7],
        [3, 2, 8],
        [1, 0, 8],
    ];
    assert!(!assert_matches_map(&verts, &tris, "two non-manifold edges"));
    let tris = [
        [0, 1, 2],
        [0, 1, 3],
        [2, 3, 1],
        [2, 3, 0],
        [0, 1, 4],
        [2, 3, 4],
    ];
    assert!(!assert_matches_map(
        &verts,
        &tris,
        "third incidences in one triangle"
    ));
}

/// A grid mesh with triangles dropped (holes, pinch vertices, dangling
/// boundaries), stray triangles added (overlaps, non-manifold edges),
/// corners rotated or flipped, the order shuffled, and now and then a
/// repeated vertex or an index out of range.
fn soup(seed: u64) -> (Vec<Point>, Vec<[usize; 3]>) {
    let mut next = lcg(seed);
    let nx = 3 + (next() * 9.0) as usize;
    let ny = 3 + (next() * 9.0) as usize;
    let (mut verts, base) = grid(nx, ny);
    for v in verts.iter_mut() {
        *v = p(v.x + 0.3 * (next() - 0.5), v.y + 0.3 * (next() - 0.5));
    }
    // Repeated positions.
    if next() < 0.3 {
        let k = (next() * verts.len() as f64) as usize;
        verts.push(verts[k]);
    }
    let n = verts.len();
    let keep = 0.5 + 0.5 * next();
    let mut tris: Vec<[usize; 3]> = base.into_iter().filter(|_| next() < keep).collect();
    let strays = (next() * 6.0) as usize;
    for _ in 0..strays {
        let pick = |r: f64| ((r * n as f64) as usize).min(n - 1);
        let t = [pick(next()), pick(next()), pick(next())];
        if t[0] != t[1] && t[1] != t[2] && t[0] != t[2] {
            tris.push(t);
        }
    }
    for t in tris.iter_mut() {
        let r = next();
        if r < 0.3 {
            t.rotate_left(1);
        } else if r < 0.5 {
            t.swap(0, 1);
        }
    }
    for i in (1..tris.len()).rev() {
        let j = (next() * (i + 1) as f64) as usize;
        tris.swap(i, j);
    }
    if !tris.is_empty() {
        let r = next();
        let at = (next() * tris.len() as f64) as usize;
        if r < 0.05 {
            tris[at][1] = tris[at][0];
        } else if r < 0.1 {
            tris[at][2] = n + (next() * 3.0) as usize;
        }
    }
    (verts, tris)
}

#[test]
fn seeded_triangle_soups_match_the_map() {
    let mut built = 0;
    for seed in 0..400 {
        let (verts, tris) = soup(seed);
        if assert_matches_map(&verts, &tris, &format!("soup {seed}")) {
            built += 1;
        }
    }
    // Both the built meshes and the errors are exercised.
    assert!((100..400).contains(&built), "{built} soups built");
}

#[test]
fn delaunay_and_mesher_output_match_the_map() {
    let mut next = lcg(5);
    let cloud: Vec<Point> = (0..2000)
        .map(|_| p(next() * 1000.0, next() * 1000.0))
        .collect();
    let dt = delaunay(&cloud).unwrap();
    assert!(assert_matches_map(
        dt.vertices(),
        dt.triangles(),
        "random cloud"
    ));

    let outer = Polygon::regular(Point::new(20.0, -10.0), 300.0, 40);
    let holes = vec![
        Polygon::regular(Point::new(-60.0, 40.0), 50.0, 12),
        Polygon::rectangle(Point::new(80.0, -90.0), 60.0, 40.0),
    ];
    let region = PolygonWithHoles::new(outer, holes).unwrap();
    for spacing in [9.0, 25.0] {
        let mesher = FoiMesher::new(spacing);
        let dt = delaunay(&mesher.points(&region)).unwrap();
        assert!(assert_matches_map(
            dt.vertices(),
            dt.triangles(),
            "mesher input"
        ));
        let foi = mesher.mesh(&region).unwrap();
        let m = foi.mesh();
        assert!(assert_matches_map(
            m.vertices(),
            m.triangles(),
            "mesher output"
        ));
    }
}
