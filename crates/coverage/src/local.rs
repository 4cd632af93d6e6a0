//! Locally computed centroids (paper Sec. III-C).
//!
//! "At each step, a mobile robot collects the position information of
//! its **two-range neighbors**, computing its corresponding Voronoi
//! region and the centroid of the Voronoi region." A robot's Voronoi
//! cell is determined entirely by sites within twice the maximum cell
//! radius, so for coverage-dense deployments the two-hop neighborhood
//! suffices and the local computation equals the global one — verified
//! in tests against [`GridPartition::centroids`].

use crate::{Density, GridPartition};
use anr_geom::Point;

/// Computes every site's Voronoi centroid using only the sites within
/// `neighborhood` of it (the paper's two-range collection rule:
/// `neighborhood = 2·r_c`) and only the region samples within
/// `neighborhood` of it.
///
/// Sites whose (locally computed) region is empty keep their position.
/// Centroids are snapped into the region like the global variant.
///
/// For deployments whose Voronoi cells have radius well under
/// `neighborhood / 2` this equals [`GridPartition::centroids`] exactly;
/// for sparse deployments the local view may truncate a cell (the same
/// truncation a real robot would suffer).
///
/// # Panics
///
/// Panics when `sites` is empty or `neighborhood <= 0`.
pub fn local_centroids(
    partition: &GridPartition,
    sites: &[Point],
    density: &Density,
    neighborhood: f64,
) -> Vec<Point> {
    assert!(!sites.is_empty(), "need at least one site");
    assert!(neighborhood > 0.0, "neighborhood must be positive");
    let r2 = neighborhood * neighborhood;

    sites
        .iter()
        .enumerate()
        .map(|(i, &me)| {
            // The robots this one can learn about (paper: two-range).
            let visible: Vec<Point> = sites
                .iter()
                .enumerate()
                .filter(|&(j, &s)| j != i && s.distance_sq(me) <= r2)
                .map(|(_, &s)| s)
                .collect();

            let mut wx = 0.0;
            let mut wy = 0.0;
            let mut w = 0.0;
            for &sample in partition.samples() {
                if sample.distance_sq(me) > r2 {
                    continue; // beyond the robot's sensing of the field
                }
                let mine = sample.distance_sq(me);
                if visible.iter().any(|&v| v.distance_sq(sample) < mine) {
                    continue; // a visible neighbor owns this sample
                }
                let rho = density.eval(partition.region(), sample);
                wx += rho * sample.x;
                wy += rho * sample.y;
                w += rho;
            }
            if w == 0.0 {
                me
            } else {
                partition.region().clamp_inside(Point::new(wx / w, wy / w))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangular_lattice;
    use anr_geom::{Polygon, PolygonWithHoles};

    fn square(side: f64) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side))
    }

    #[test]
    fn local_equals_global_for_dense_lattice() {
        // Lattice pitch 40 m, two-range neighborhood 160 m: every cell is
        // fully determined by the local view.
        let region = square(300.0);
        let part = GridPartition::new(&region, 4.0);
        let sites = triangular_lattice(&region, 40.0);
        let global = part.centroids(&sites, &Density::Uniform);
        let local = local_centroids(&part, &sites, &Density::Uniform, 160.0);
        for (i, (g, l)) in global.iter().zip(&local).enumerate() {
            assert!(g.distance(*l) < 1e-9, "site {i}: global {g} vs local {l}");
        }
    }

    #[test]
    fn local_equals_global_with_density() {
        let outer = Polygon::rectangle(Point::ORIGIN, 240.0, 240.0);
        let hole = Polygon::rectangle(Point::new(100.0, 100.0), 40.0, 40.0);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 4.0);
        let sites = triangular_lattice(&region, 40.0);
        let dens = Density::HoleProximity {
            falloff: 60.0,
            gain: 5.0,
        };
        let global = part.centroids(&sites, &dens);
        let local = local_centroids(&part, &sites, &dens, 160.0);
        for (g, l) in global.iter().zip(&local) {
            assert!(g.distance(*l) < 1e-9);
        }
    }

    #[test]
    fn tiny_neighborhood_truncates_cells() {
        // A lone far site with a myopic neighborhood only sees samples
        // near itself — its centroid stays near it rather than moving to
        // the region center.
        let region = square(200.0);
        let part = GridPartition::new(&region, 4.0);
        let sites = vec![Point::new(20.0, 20.0)];
        let global = part.centroids(&sites, &Density::Uniform);
        let local = local_centroids(&part, &sites, &Density::Uniform, 30.0);
        // Global pulls hard toward (100, 100); local barely moves.
        assert!(global[0].distance(Point::new(100.0, 100.0)) < 5.0);
        assert!(local[0].distance(sites[0]) < 20.0);
    }

    #[test]
    fn empty_local_region_keeps_position() {
        // A site outside the region with a neighborhood too small to
        // reach any sample keeps its position.
        let region = square(100.0);
        let part = GridPartition::new(&region, 5.0);
        let sites = vec![Point::new(50.0, 50.0), Point::new(-500.0, -500.0)];
        let local = local_centroids(&part, &sites, &Density::Uniform, 50.0);
        assert_eq!(local[1], sites[1]);
    }
}
