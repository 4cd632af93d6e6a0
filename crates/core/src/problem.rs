//! Problem statement and configuration for one marching instance.

use crate::MarchError;
use anr_coverage::{deploy_exactly, run_lloyd, Density, GridPartition, LloydConfig};
use anr_geom::{Point, PolygonWithHoles};
use anr_harmonic::{HarmonicConfig, RotationSearch};
use anr_netgraph::UnitDiskGraph;

/// One instance of the optimal marching problem (Definition 6): a
/// deployed swarm in the current FoI `M1` and a target FoI `M2`.
#[derive(Debug, Clone)]
pub struct MarchProblem {
    /// The current field of interest.
    pub m1: PolygonWithHoles,
    /// The target field of interest.
    pub m2: PolygonWithHoles,
    /// Robot positions in `M1`.
    pub positions: Vec<Point>,
    /// Communication range `r_c` (the paper assumes `r_c ≥ √3·r_s`).
    pub range: f64,
}

impl MarchProblem {
    /// Creates a problem from explicit robot positions.
    ///
    /// # Errors
    ///
    /// * [`MarchError::TooFewRobots`] for fewer than 3 robots.
    /// * [`MarchError::DisconnectedDeployment`] when the initial
    ///   connectivity graph is not connected.
    pub fn new(
        m1: PolygonWithHoles,
        m2: PolygonWithHoles,
        positions: Vec<Point>,
        range: f64,
    ) -> Result<Self, MarchError> {
        if positions.len() < 3 {
            return Err(MarchError::TooFewRobots {
                got: positions.len(),
            });
        }
        assert!(range > 0.0, "communication range must be positive");
        if !UnitDiskGraph::connected(&positions, range) {
            let components = UnitDiskGraph::new(&positions, range)
                .connected_components()
                .len();
            return Err(MarchError::DisconnectedDeployment { components });
        }
        Ok(MarchProblem {
            m1,
            m2,
            positions,
            range,
        })
    }

    /// Creates a problem with `n` robots deployed on a triangular lattice
    /// in `M1` and refined to near-optimal coverage positions — the
    /// paper's starting state ("they complete a task at current FoI").
    ///
    /// # Errors
    ///
    /// Same as [`MarchProblem::new`], plus
    /// [`MarchError::TooFewRobots`] when the lattice cannot fit `n`.
    pub fn with_lattice_deployment(
        m1: PolygonWithHoles,
        m2: PolygonWithHoles,
        n: usize,
        range: f64,
    ) -> Result<Self, MarchError> {
        let positions =
            optimal_coverage_positions(&m1, n).ok_or(MarchError::TooFewRobots { got: 0 })?;
        MarchProblem::new(m1, m2, positions, range)
    }

    /// Number of robots.
    #[inline]
    pub fn num_robots(&self) -> usize {
        self.positions.len()
    }

    /// The sensing range implied by `r_c = √3·r_s`.
    #[inline]
    pub fn sensing_range(&self) -> f64 {
        self.range / 3f64.sqrt()
    }

    /// All hole polygons of both FoIs — the forbidden regions robot
    /// paths must avoid.
    pub fn obstacles(&self) -> Vec<anr_geom::Polygon> {
        self.m1
            .holes()
            .iter()
            .chain(self.m2.holes().iter())
            .cloned()
            .collect()
    }
}

/// Computes `n` optimal coverage positions in `region`: a triangular
/// lattice refined by (plain) Lloyd iteration — the centroidal-Voronoi
/// layout the paper's comparison methods assume precomputed (Sec. IV).
///
/// Returns `None` when `n == 0` or the region cannot fit `n` robots.
pub fn optimal_coverage_positions(region: &PolygonWithHoles, n: usize) -> Option<Vec<Point>> {
    let seed = deploy_exactly(region, n)?;
    // Partition resolution: a few samples per robot cell.
    let spacing = (region.area() / n as f64).sqrt() / 4.0;
    let partition = GridPartition::new(region, spacing);
    let result = run_lloyd(
        &seed,
        &partition,
        &Density::Uniform,
        &LloydConfig {
            tolerance: spacing * 0.1,
            max_iterations: 60,
            ..Default::default()
        },
    );
    Some(result.sites)
}

/// Tunable configuration of the marching pipeline.
#[derive(Debug, Clone)]
pub struct MarchConfig {
    /// Harmonic-map solver settings.
    pub harmonic: HarmonicConfig,
    /// Rotation-search settings (paper: depth 4).
    pub rotation: RotationSearch,
    /// Uniform sample intervals of the transition in the dense rendering
    /// timeline ([`crate::MarchOutcome::timeline`]). Default 50. It sets
    /// only that timeline's resolution: `L` and `C` are audited exactly
    /// over each robot's own motion, whatever this is.
    pub time_samples: usize,
    /// Lloyd settings for the final coverage adjustment.
    pub lloyd: LloydConfig,
    /// Density for the final coverage adjustment (Sec. IV-E). Default
    /// uniform.
    pub density: Density,
    /// Run the post-transition Lloyd refinement (default true). Disable
    /// to study the raw harmonic-map placement.
    pub refine_coverage: bool,
}

impl Default for MarchConfig {
    fn default() -> Self {
        MarchConfig {
            harmonic: HarmonicConfig::default(),
            rotation: RotationSearch::default(),
            time_samples: 50,
            lloyd: LloydConfig {
                tolerance: 1.0,
                max_iterations: 30,
                ..Default::default()
            },
            density: Density::Uniform,
            refine_coverage: true,
        }
    }
}

impl MarchConfig {
    /// The `M2` mesh spacing to use for `n` robots in a region of the
    /// given area: 0.6× the robot lattice pitch.
    pub fn resolve_mesh_spacing(&self, area: f64, n: usize) -> f64 {
        let robot_pitch = (area / n as f64 * 2.0 / 3f64.sqrt()).sqrt();
        0.6 * robot_pitch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn square(side: f64, origin: Point) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(origin, side, side))
    }

    #[test]
    fn rejects_too_few_robots() {
        let m1 = square(100.0, Point::ORIGIN);
        let m2 = square(100.0, Point::new(500.0, 0.0));
        assert!(matches!(
            MarchProblem::new(m1, m2, vec![Point::ORIGIN], 80.0),
            Err(MarchError::TooFewRobots { got: 1 })
        ));
    }

    #[test]
    fn rejects_disconnected_deployment() {
        let m1 = square(100.0, Point::ORIGIN);
        let m2 = square(100.0, Point::new(500.0, 0.0));
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(2000.0, 0.0),
        ];
        assert!(matches!(
            MarchProblem::new(m1, m2, positions, 80.0),
            Err(MarchError::DisconnectedDeployment { components: 2 })
        ));
    }

    #[test]
    fn lattice_deployment_is_connected_and_exact() {
        let m1 = square(500.0, Point::ORIGIN);
        let m2 = square(500.0, Point::new(2000.0, 0.0));
        let p = MarchProblem::with_lattice_deployment(m1, m2, 64, 80.0).unwrap();
        assert_eq!(p.num_robots(), 64);
        assert!(UnitDiskGraph::new(&p.positions, 80.0).is_connected());
        // All robots inside M1.
        for q in &p.positions {
            assert!(p.m1.contains(*q));
        }
    }

    #[test]
    fn sensing_range_ratio() {
        let m1 = square(500.0, Point::ORIGIN);
        let m2 = square(500.0, Point::new(2000.0, 0.0));
        let p = MarchProblem::with_lattice_deployment(m1, m2, 64, 80.0).unwrap();
        assert!((p.sensing_range() * 3f64.sqrt() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_positions_spread_out() {
        let region = square(400.0, Point::ORIGIN);
        let pts = optimal_coverage_positions(&region, 25).unwrap();
        assert_eq!(pts.len(), 25);
        let min_d = anr_coverage::min_pairwise_distance(&pts).unwrap();
        // 25 robots in 400×400: lattice pitch ~86 m; CVT should keep
        // them well separated.
        assert!(min_d > 40.0, "min distance {min_d}");
    }

    #[test]
    fn obstacles_collects_both_fois() {
        let outer1 = Polygon::rectangle(Point::ORIGIN, 200.0, 200.0);
        let hole1 = Polygon::rectangle(Point::new(80.0, 80.0), 30.0, 30.0);
        let m1 = PolygonWithHoles::new(outer1, vec![hole1]).unwrap();
        let outer2 = Polygon::rectangle(Point::new(900.0, 0.0), 200.0, 200.0);
        let hole2 = Polygon::rectangle(Point::new(980.0, 80.0), 30.0, 30.0);
        let m2 = PolygonWithHoles::new(outer2, vec![hole2]).unwrap();
        let positions = vec![
            Point::new(10.0, 10.0),
            Point::new(60.0, 10.0),
            Point::new(35.0, 50.0),
        ];
        let p = MarchProblem::new(m1, m2, positions, 80.0).unwrap();
        assert_eq!(p.obstacles().len(), 2);
    }

    #[test]
    fn mesh_spacing_resolution() {
        let cfg = MarchConfig::default();
        let s = cfg.resolve_mesh_spacing(308_261.0, 144);
        // Robot pitch ≈ 49.7 m → spacing ≈ 29.8 m.
        assert!(s > 25.0 && s < 35.0, "spacing {s}");
    }
}
