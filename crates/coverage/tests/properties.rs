//! Property tests: lattices, partitions and Lloyd invariants.

use anr_coverage::{
    deploy_exactly, min_pairwise_distance, run_lloyd, triangular_lattice, voronoi_cells, Density,
    GridPartition, LloydConfig,
};
use anr_geom::{Point, Polygon, PolygonWithHoles};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lattice_spacing_is_respected(w in 100.0..400.0f64, h in 100.0..400.0f64,
                                    s in 20.0..60.0f64) {
        let foi = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, w, h));
        let pts = triangular_lattice(&foi, s);
        prop_assume!(pts.len() >= 2);
        let min_d = min_pairwise_distance(&pts).expect("two points");
        prop_assert!(min_d > s - 1e-9, "min distance {} under spacing {}", min_d, s);
        for p in &pts {
            prop_assert!(foi.contains(*p));
        }
    }

    #[test]
    fn deploy_exactly_hits_count(side in 200.0..500.0f64, n in 10usize..80) {
        let foi = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side));
        if let Some(pts) = deploy_exactly(&foi, n) {
            prop_assert_eq!(pts.len(), n);
            for p in &pts {
                prop_assert!(foi.contains(*p));
            }
        }
    }

    #[test]
    fn partition_assignment_is_total_and_nearest(
        side in 80.0..200.0f64,
        sites in prop::collection::vec((10.0..70.0f64, 10.0..70.0f64), 1..8),
    ) {
        let foi = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side));
        let part = GridPartition::new(&foi, 5.0);
        let sites: Vec<Point> = sites.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let labels = part.assign(&sites);
        // One label per sample, each naming a site.
        prop_assert_eq!(labels.len(), part.samples().len());
        for (&s, &i) in part.samples().iter().zip(&labels) {
            let i = i as usize;
            prop_assert!(i < sites.len());
            for (j, &other) in sites.iter().enumerate() {
                if j != i {
                    prop_assert!(s.distance(sites[i]) <= s.distance(other) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn lloyd_total_movement_is_finite_and_positive(
        side in 150.0..300.0f64,
        n in 4usize..16,
    ) {
        let foi = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side));
        let part = GridPartition::new(&foi, side / 40.0);
        // Clumped start: all sites in a corner.
        let sites: Vec<Point> = (0..n)
            .map(|k| Point::new(10.0 + (k % 4) as f64 * 4.0, 10.0 + (k / 4) as f64 * 4.0))
            .collect();
        let r = run_lloyd(
            &sites,
            &part,
            &Density::Uniform,
            &LloydConfig {
                record_history: true,
                ..Default::default()
            },
        );
        prop_assert!(r.total_movement.is_finite());
        prop_assert!(r.total_movement > 0.0);
        prop_assert_eq!(r.history.len(), r.iterations);
        // Lloyd spreads the clump.
        let before = min_pairwise_distance(&sites).unwrap_or(0.0);
        let after = min_pairwise_distance(&r.sites).unwrap_or(0.0);
        prop_assert!(after >= before);
    }

    #[test]
    fn analytic_cells_tile_rectangles(
        sites in prop::collection::vec((5.0..95.0f64, 5.0..95.0f64), 2..10),
    ) {
        let region = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let sites: Vec<Point> = sites.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        // Skip near-coincident sites (degenerate bisectors).
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                prop_assume!(sites[i].distance(sites[j]) > 1.0);
            }
        }
        let cells = voronoi_cells(&region, &sites);
        let total: f64 = cells.iter().flatten().map(Polygon::area).sum();
        prop_assert!((total - region.area()).abs() / region.area() < 1e-6,
            "cells tile {} of {}", total, region.area());
    }
}
