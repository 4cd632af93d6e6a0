//! Integration: harmonic maps over every scenario FoI — embedding
//! validity (Tutte), hole filling, and overlay composition.

use anr_marching::coverage::deploy_exactly;
use anr_marching::harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay, HarmonicConfig};
use anr_marching::march::MarchConfig;
use anr_marching::mesh::FoiMesher;
use anr_marching::netgraph::extract_triangulation;
use anr_marching::scenarios::{all_scenarios, ScenarioParams};
use anr_marching::trace::Tracer;

#[test]
fn every_scenario_foi_maps_to_a_valid_disk_embedding() {
    let scenarios = all_scenarios(&ScenarioParams::default()).unwrap();
    for s in &scenarios {
        let spacing = MarchConfig::default().resolve_mesh_spacing(s.m2.area(), s.robots);
        let meshed = FoiMesher::new(spacing).mesh(&s.m2).unwrap();
        assert_eq!(
            meshed.hole_loops().len(),
            s.m2.holes().len(),
            "scenario {}: hole loop count",
            s.id
        );
        let filled = fill_holes(meshed.mesh()).unwrap();
        let disk = harmonic_map_to_disk(
            filled.mesh(),
            &HarmonicConfig::default(),
            &Tracer::disabled(),
        )
        .unwrap();

        // Tutte guarantee: the disk embedding has no flipped triangles.
        let dmesh = disk.as_disk_mesh(filled.mesh());
        for t in 0..dmesh.num_triangles() {
            assert!(
                dmesh.triangle(t).signed_area() > 0.0,
                "scenario {}: flipped triangle {t}",
                s.id
            );
        }
        // All vertices inside the closed unit disk.
        for v in 0..dmesh.num_vertices() {
            assert!(dmesh.vertex(v).to_vector().norm() <= 1.0 + 1e-9);
        }
    }
}

#[test]
fn robot_triangulations_map_to_valid_disks() {
    let scenarios = all_scenarios(&ScenarioParams::default()).unwrap();
    for s in &scenarios {
        let positions = deploy_exactly(&s.m1, s.robots).unwrap();
        let t = extract_triangulation(&positions, s.range).unwrap();
        let filled = fill_holes(&t).unwrap();
        let disk = harmonic_map_to_disk(
            filled.mesh(),
            &HarmonicConfig::default(),
            &Tracer::disabled(),
        )
        .unwrap();
        let dmesh = disk.as_disk_mesh(filled.mesh());
        for tri in 0..dmesh.num_triangles() {
            assert!(
                dmesh.triangle(tri).signed_area() > 0.0,
                "scenario {}: robot-mesh triangle {tri} flipped",
                s.id
            );
        }
    }
}

#[test]
fn overlay_composition_is_piecewise_identity() {
    // Map the target mesh's own disk vertices through the overlay at
    // zero rotation: each must land on its own geographic position.
    let s = &all_scenarios(&ScenarioParams::default()).unwrap()[2]; // scenario 3
    let spacing = MarchConfig::default().resolve_mesh_spacing(s.m2.area(), s.robots);
    let meshed = FoiMesher::new(spacing).mesh(&s.m2).unwrap();
    let filled = fill_holes(meshed.mesh()).unwrap();
    let disk = harmonic_map_to_disk(
        filled.mesh(),
        &HarmonicConfig::default(),
        &Tracer::disabled(),
    )
    .unwrap();
    let overlay = DiskOverlay::new(filled.mesh(), disk.positions(), filled.virtual_vertices());

    for v in (0..filled.num_real()).step_by(13) {
        let mapped = overlay.map_point(disk.position(v), 0.0);
        if mapped.via_hole_fallback {
            continue; // vertices on the hole rim may hit virtual fans
        }
        let expect = filled.mesh().vertex(v);
        assert!(
            mapped.position.distance(expect) < 1e-6,
            "vertex {v}: {} vs {}",
            mapped.position,
            expect
        );
    }
}

#[test]
fn rotation_sweep_stays_inside_target() {
    // Whatever the rotation, mapped points stay within the target FoI's
    // bounding box (the overlay clamps to the mesh).
    let s = &all_scenarios(&ScenarioParams::default()).unwrap()[3]; // scenario 4
    let spacing = MarchConfig::default().resolve_mesh_spacing(s.m2.area(), s.robots);
    let meshed = FoiMesher::new(spacing).mesh(&s.m2).unwrap();
    let filled = fill_holes(meshed.mesh()).unwrap();
    let disk = harmonic_map_to_disk(
        filled.mesh(),
        &HarmonicConfig::default(),
        &Tracer::disabled(),
    )
    .unwrap();
    let overlay = DiskOverlay::new(filled.mesh(), disk.positions(), filled.virtual_vertices());

    let bbox = s.m2.bbox().inflated(1.0);
    let probes = [
        anr_marching::geom::Point::new(0.0, 0.0),
        anr_marching::geom::Point::new(0.5, 0.3),
        anr_marching::geom::Point::new(-0.7, 0.2),
        anr_marching::geom::Point::new(0.99, 0.0),
    ];
    for k in 0..12 {
        let theta = std::f64::consts::TAU * k as f64 / 12.0;
        for &p in &probes {
            let m = overlay.map_point(p, theta);
            assert!(
                bbox.contains(m.position),
                "θ={theta:.2}: {} escaped",
                m.position
            );
        }
    }
}
