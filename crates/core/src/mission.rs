//! Multi-FoI missions (paper Definition 6: "a group of ANRs are
//! instructed to explore a number of FoIs **sequentially**").
//!
//! A [`Mission`] chains marching legs: the swarm deploys in the first
//! FoI, marches to the second, finishes its task there, marches on, and
//! so forth. Each leg's starting positions are the previous leg's final
//! coverage positions, so errors and link wear compound exactly as they
//! would on a real tour.

use crate::{march, MarchConfig, MarchError, MarchOutcome, MarchProblem, Method};
use anr_geom::{Point, PolygonWithHoles};

/// A sequential tour of fields of interest.
#[derive(Debug, Clone)]
pub struct Mission {
    /// The fields to explore, in visiting order (at least two).
    pub fois: Vec<PolygonWithHoles>,
    /// Number of robots.
    pub robots: usize,
    /// Communication range `r_c`.
    pub range: f64,
}

/// Aggregate metrics of a whole mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionMetrics {
    /// Sum of every leg's total moving distance.
    pub total_distance: f64,
    /// Per-leg stable link ratios.
    pub leg_link_ratios: Vec<f64>,
    /// Arithmetic mean of the per-leg stable link ratios.
    pub mean_stable_link_ratio: f64,
    /// 1 when global connectivity held on **every** leg. A leg that
    /// loses it ends the mission with [`MarchError::ConnectivityLost`],
    /// so a mission that returns `Ok` reports 1.
    pub global_connectivity: u8,
}

/// Everything produced by a mission run.
#[derive(Debug, Clone)]
pub struct MissionOutcome {
    /// One marching outcome per leg (`fois.len() − 1` legs).
    pub legs: Vec<MarchOutcome>,
    /// Aggregates across legs.
    pub metrics: MissionMetrics,
}

impl Mission {
    /// Creates a mission.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two FoIs are given, `robots < 3`, or
    /// `range <= 0`.
    pub fn new(fois: Vec<PolygonWithHoles>, robots: usize, range: f64) -> Self {
        assert!(fois.len() >= 2, "a mission needs at least two FoIs");
        assert!(robots >= 3, "a mission needs at least 3 robots");
        assert!(range > 0.0, "communication range must be positive");
        Mission {
            fois,
            robots,
            range,
        }
    }

    /// Number of marching legs.
    pub fn num_legs(&self) -> usize {
        self.fois.len() - 1
    }
}

/// Runs the whole mission with the given method: deploy in `fois[0]`,
/// march to `fois[1]`, then `fois[2]`, …
///
/// # Errors
///
/// Any [`MarchError`] from a leg (the tour stops at the first failure);
/// [`MarchError::TooFewRobots`] when the first FoI cannot fit the swarm.
pub fn march_mission(
    mission: &Mission,
    method: Method,
    config: &MarchConfig,
) -> Result<MissionOutcome, MarchError> {
    let mut positions: Vec<Point> =
        crate::optimal_coverage_positions(&mission.fois[0], mission.robots)
            .ok_or(MarchError::TooFewRobots { got: 0 })?;

    let mut legs = Vec::with_capacity(mission.num_legs());
    for leg in 0..mission.num_legs() {
        let problem = MarchProblem::new(
            mission.fois[leg].clone(),
            mission.fois[leg + 1].clone(),
            positions.clone(),
            mission.range,
        )?;
        let outcome = march(&problem, method, config)?;
        positions = outcome.final_positions.clone();
        legs.push(outcome);
    }

    let leg_link_ratios: Vec<f64> = legs.iter().map(|o| o.metrics.stable_link_ratio).collect();
    let metrics = MissionMetrics {
        total_distance: legs.iter().map(|o| o.metrics.total_distance).sum(),
        mean_stable_link_ratio: leg_link_ratios.iter().sum::<f64>() / leg_link_ratios.len() as f64,
        global_connectivity: u8::from(legs.iter().all(|o| o.metrics.global_connectivity == 1)),
        leg_link_ratios,
    };

    Ok(MissionOutcome { legs, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn square(side: f64, origin: Point) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(origin, side, side))
    }

    fn three_foi_mission() -> Mission {
        Mission::new(
            vec![
                square(300.0, Point::ORIGIN),
                square(320.0, Point::new(900.0, 100.0)),
                square(280.0, Point::new(1800.0, -100.0)),
            ],
            36,
            80.0,
        )
    }

    #[test]
    fn tour_of_three_fois() {
        let mission = three_foi_mission();
        let out = march_mission(&mission, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
        assert_eq!(out.legs.len(), 2);
        assert_eq!(out.metrics.global_connectivity, 1);
        assert_eq!(out.metrics.leg_link_ratios.len(), 2);
        // Every leg ends inside its target FoI.
        for (leg, outcome) in out.legs.iter().enumerate() {
            for q in &outcome.final_positions {
                assert!(
                    mission.fois[leg + 1].contains(*q),
                    "leg {leg}: robot outside FoI at {q}"
                );
            }
        }
    }

    #[test]
    fn legs_chain_positions() {
        let mission = three_foi_mission();
        let out = march_mission(&mission, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
        assert_eq!(out.legs[1].initial, out.legs[0].final_positions);
    }

    #[test]
    fn mission_distance_is_sum_of_legs() {
        let mission = three_foi_mission();
        let out =
            march_mission(&mission, Method::MinMovingDistance, &MarchConfig::default()).unwrap();
        let sum: f64 = out.legs.iter().map(|l| l.metrics.total_distance).sum();
        assert!((out.metrics.total_distance - sum).abs() < 1e-9);
        assert!(out.metrics.mean_stable_link_ratio > 0.5);
    }

    #[test]
    #[should_panic]
    fn mission_needs_two_fois() {
        let _ = Mission::new(vec![square(100.0, Point::ORIGIN)], 10, 80.0);
    }

    #[test]
    fn num_legs_counts() {
        assert_eq!(three_foi_mission().num_legs(), 2);
    }
}
