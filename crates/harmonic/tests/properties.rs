//! Property tests: the harmonic disk map is a valid embedding on random
//! triangulations, and the rotation search behaves.

use anr_geom::Point;
use anr_harmonic::{harmonic_map_to_disk, HarmonicConfig, RotationSearch};
use anr_mesh::delaunay;
use anr_trace::Tracer;
use proptest::prelude::*;

/// Random separated point clouds that triangulate cleanly.
fn cloud() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..400.0f64, 0.0..400.0f64), 8..40).prop_map(|raw| {
        let mut pts: Vec<Point> = Vec::new();
        for (x, y) in raw {
            let p = Point::new(x, y);
            if pts.iter().all(|q| q.distance(p) > 15.0) {
                pts.push(p);
            }
        }
        pts
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disk_map_is_an_embedding(pts in cloud()) {
        prop_assume!(pts.len() >= 6);
        let mesh = match delaunay(&pts) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let disk = harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).expect("disk mesh");
        // No flipped triangles (Tutte's theorem).
        let dmesh = disk.as_disk_mesh(&mesh);
        for t in 0..dmesh.num_triangles() {
            prop_assert!(dmesh.triangle(t).signed_area() > 0.0);
        }
        // All vertices in the closed disk; boundary exactly on the circle.
        for v in 0..dmesh.num_vertices() {
            prop_assert!(dmesh.vertex(v).to_vector().norm() <= 1.0 + 1e-9);
        }
        for &v in disk.boundary() {
            prop_assert!((disk.position(v).to_vector().norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn disk_map_is_injective(pts in cloud()) {
        prop_assume!(pts.len() >= 6);
        let mesh = match delaunay(&pts) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let disk = harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).expect("disk mesh");
        for a in 0..mesh.num_vertices() {
            for b in (a + 1)..mesh.num_vertices() {
                prop_assert!(disk.position(a).distance(disk.position(b)) > 1e-9,
                    "vertices {a}, {b} collapsed");
            }
        }
    }

    #[test]
    fn rotation_search_at_least_as_good_as_coarse(peak in 0.0..std::f64::consts::TAU) {
        // Refinement never loses to the best coarse sample on a smooth
        // objective.
        let f = |t: f64| (t - peak).cos();
        let coarse = RotationSearch::new(16, 0).maximize(f).1;
        let refined = RotationSearch::new(16, 5).maximize(f).1;
        prop_assert!(refined >= coarse - 1e-12);
        // And lands within the sector width of the true peak's value.
        prop_assert!(1.0 - refined < 0.08, "refined {refined}");
    }
}
