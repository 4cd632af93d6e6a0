//! Density functions for weighted centroidal Voronoi diagrams.

use anr_geom::{Point, PolygonWithHoles};

/// A density field over a field of interest.
///
/// The centroid of a Voronoi region is computed with respect to this
/// density (Sec. III-C); non-uniform densities let the swarm concentrate
/// robots where the task demands (Sec. IV-E).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum Density {
    /// Constant density: plain centroidal Voronoi.
    #[default]
    Uniform,
    /// Higher density near hole boundaries: `1 + exp(−d/falloff) · gain`
    /// where `d` is the distance to the nearest hole. The paper's fire
    /// example — "the closer to the hole, the more mobile robots are
    /// needed" (Fig. 6).
    HoleProximity {
        /// Distance scale of the exponential falloff, in metres.
        falloff: f64,
        /// Peak density multiplier at the hole boundary.
        gain: f64,
    },
}

impl Density {
    /// Evaluates the density at `p` within `region`.
    ///
    /// Always strictly positive.
    pub fn eval(&self, region: &PolygonWithHoles, p: Point) -> f64 {
        match *self {
            Density::Uniform => 1.0,
            Density::HoleProximity { falloff, gain } => {
                let d = region.distance_to_holes(p);
                if d.is_finite() {
                    1.0 + gain * (-d / falloff).exp()
                } else {
                    1.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn region_with_hole() -> PolygonWithHoles {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::rectangle(Point::new(40.0, 40.0), 20.0, 20.0);
        PolygonWithHoles::new(outer, vec![hole]).unwrap()
    }

    #[test]
    fn uniform_is_one_everywhere() {
        let r = region_with_hole();
        assert_eq!(Density::Uniform.eval(&r, Point::new(1.0, 1.0)), 1.0);
        assert_eq!(Density::Uniform.eval(&r, Point::new(99.0, 99.0)), 1.0);
    }

    #[test]
    fn hole_proximity_decays_with_distance() {
        let r = region_with_hole();
        let d = Density::HoleProximity {
            falloff: 20.0,
            gain: 5.0,
        };
        let near = d.eval(&r, Point::new(38.0, 50.0)); // 2 m from hole
        let far = d.eval(&r, Point::new(5.0, 5.0));
        assert!(near > far);
        assert!(far > 1.0); // still positive baseline
    }

    #[test]
    fn hole_proximity_without_holes_is_uniform() {
        let r = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, 10.0, 10.0));
        let d = Density::HoleProximity {
            falloff: 5.0,
            gain: 9.0,
        };
        assert_eq!(d.eval(&r, Point::new(5.0, 5.0)), 1.0);
    }

    #[test]
    fn density_always_positive() {
        let r = region_with_hole();
        for dens in [
            Density::Uniform,
            Density::HoleProximity {
                falloff: 1.0,
                gain: 100.0,
            },
            Density::HoleProximity {
                falloff: 0.5,
                gain: 50.0,
            },
        ] {
            for p in [Point::new(0.0, 0.0), Point::new(99.0, 3.0)] {
                assert!(dens.eval(&r, p) > 0.0);
            }
        }
    }
}
