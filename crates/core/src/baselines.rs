//! The paper's two comparison methods (Sec. IV): direct translation and
//! the pure Hungarian assignment. Both assume the optimal coverage
//! positions in `M2` were computed before the transition. Unlike
//! [`crate::march`], both report a transition that loses connectivity as
//! data (`C = 0` in their metrics): that loss is what they are compared
//! on.

use crate::{
    evaluate_timeline, optimal_coverage_positions, DenseTimeline, KnotTimeline, MarchConfig,
    MarchError, MarchOutcome, MarchProblem, RepairReport, TrajectorySet, TransitionMetrics,
};
use anr_assign::{euclidean_costs, hungarian};
use anr_geom::Point;
use anr_netgraph::UnitDiskGraph;
use anr_trace::Tracer;

/// Direct translation: the robots rigidly translate by the vector
/// between the two FoI centroids, then adjust to the optimal coverage
/// positions with a Hungarian assignment.
///
/// The rigid leg preserves every link perfectly; all breakage happens in
/// the adjustment leg, whose size depends on how similar the two FoI
/// shapes are — the effect the paper measures in scenarios 1–7.
///
/// # Errors
///
/// [`MarchError::TooFewRobots`] when `M2` cannot fit the swarm, plus
/// assignment errors.
pub fn direct_translation(
    problem: &MarchProblem,
    config: &MarchConfig,
) -> Result<MarchOutcome, MarchError> {
    let n = problem.num_robots();
    let coverage =
        optimal_coverage_positions(&problem.m2, n).ok_or(MarchError::TooFewRobots { got: n })?;

    let shift = problem.m2.centroid() - problem.m1.centroid();
    let translated: Vec<Point> = problem.positions.iter().map(|&p| p + shift).collect();

    // Hungarian assignment from the translated positions to the optimal
    // coverage positions.
    let costs = euclidean_costs(&translated, &coverage)?;
    let assignment = hungarian(&costs);
    let finals: Vec<Point> = (0..n).map(|i| coverage[assignment.target_of(i)]).collect();

    let obstacles = problem.obstacles();
    // Two legs: the rigid translation, then the assignment adjustment.
    // Waypoints concatenate so the timeline sampling covers both.
    let paths: Vec<crate::Polyline> = (0..n)
        .map(|i| {
            let mut wps =
                crate::route_around_obstacles(problem.positions[i], translated[i], &obstacles);
            let leg2 = crate::route_around_obstacles(translated[i], finals[i], &obstacles);
            wps.extend(leg2.into_iter().skip(1));
            crate::Polyline::new(wps)
        })
        .collect();
    let transition = TrajectorySet::new(paths);
    let (timeline, metrics) = transition_metrics(problem, &transition, config)?;

    Ok(MarchOutcome {
        initial: problem.positions.clone(),
        mapped: translated,
        final_positions: finals,
        rotation: 0.0,
        transition,
        timeline,
        metrics,
        repair: RepairReport::default(),
        lloyd_iterations: 0,
    })
}

/// Pure Hungarian method: the minimum-total-moving-distance assignment
/// from the `M1` positions straight to the optimal coverage positions in
/// `M2` — the paper's lower bound on `D` ("should achieve the minimum
/// total moving distance among all possible methods", Sec. IV).
///
/// # Errors
///
/// [`MarchError::TooFewRobots`] when `M2` cannot fit the swarm, plus
/// assignment errors.
pub fn hungarian_direct(
    problem: &MarchProblem,
    config: &MarchConfig,
) -> Result<MarchOutcome, MarchError> {
    let n = problem.num_robots();
    let coverage =
        optimal_coverage_positions(&problem.m2, n).ok_or(MarchError::TooFewRobots { got: n })?;

    let costs = euclidean_costs(&problem.positions, &coverage)?;
    let assignment = hungarian(&costs);
    let finals: Vec<Point> = (0..n).map(|i| coverage[assignment.target_of(i)]).collect();

    let transition = TrajectorySet::straight(&problem.positions, &finals, &problem.obstacles());
    let (timeline, metrics) = transition_metrics(problem, &transition, config)?;

    Ok(MarchOutcome {
        initial: problem.positions.clone(),
        mapped: finals.clone(),
        final_positions: finals,
        rotation: 0.0,
        transition,
        timeline,
        metrics,
        repair: RepairReport::default(),
        lloyd_iterations: 0,
    })
}

/// A baseline's dense rendering timeline, built on first read, and the
/// exact audit of its knots (no Lloyd leg: the transition ends on the
/// coverage positions).
fn transition_metrics(
    problem: &MarchProblem,
    transition: &TrajectorySet,
    config: &MarchConfig,
) -> Result<(DenseTimeline, TransitionMetrics), MarchError> {
    let timeline = DenseTimeline::new(transition, config.time_samples, Vec::new());
    let knots = KnotTimeline::from_trajectories(transition, &[])?;
    let metrics = evaluate_timeline(
        &knots,
        &UnitDiskGraph::new(&problem.positions, problem.range),
        transition.total_length(),
        &Tracer::disabled(),
    )?;
    Ok((timeline, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::{Polygon, PolygonWithHoles};

    fn square_region(side: f64, origin: Point) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(origin, side, side))
    }

    fn problem(separation: f64) -> MarchProblem {
        let m1 = square_region(300.0, Point::ORIGIN);
        let m2 = square_region(300.0, Point::new(separation, 0.0));
        MarchProblem::with_lattice_deployment(m1, m2, 36, 80.0).unwrap()
    }

    #[test]
    fn hungarian_is_cheapest() {
        let pr = problem(800.0);
        let cfg = MarchConfig::default();
        let h = hungarian_direct(&pr, &cfg).unwrap();
        let d = direct_translation(&pr, &cfg).unwrap();
        assert!(
            h.metrics.total_distance <= d.metrics.total_distance + 1e-6,
            "hungarian {} vs direct {}",
            h.metrics.total_distance,
            d.metrics.total_distance
        );
    }

    #[test]
    fn direct_translation_identical_shapes_preserves_most_links() {
        // Same-shape FoIs: the Hungarian touch-up is small, so L is high.
        let pr = problem(900.0);
        let cfg = MarchConfig::default();
        let d = direct_translation(&pr, &cfg).unwrap();
        assert!(
            d.metrics.stable_link_ratio > 0.6,
            "L = {}",
            d.metrics.stable_link_ratio
        );
    }

    #[test]
    fn hungarian_breaks_links_on_distant_transition() {
        // The min-distance matching reshuffles robots; links break.
        let pr = problem(700.0);
        let cfg = MarchConfig::default();
        let h = hungarian_direct(&pr, &cfg).unwrap();
        assert!(
            h.metrics.stable_link_ratio < 1.0,
            "L = {}",
            h.metrics.stable_link_ratio
        );
    }

    #[test]
    fn both_end_at_coverage_positions() {
        let pr = problem(800.0);
        let cfg = MarchConfig::default();
        let h = hungarian_direct(&pr, &cfg).unwrap();
        let d = direct_translation(&pr, &cfg).unwrap();
        // Identical final position sets (different per-robot matching).
        let mut hf: Vec<(i64, i64)> = h
            .final_positions
            .iter()
            .map(|p| ((p.x * 100.0) as i64, (p.y * 100.0) as i64))
            .collect();
        let mut df: Vec<(i64, i64)> = d
            .final_positions
            .iter()
            .map(|p| ((p.x * 100.0) as i64, (p.y * 100.0) as i64))
            .collect();
        hf.sort_unstable();
        df.sort_unstable();
        assert_eq!(hf, df);
        for q in &h.final_positions {
            assert!(pr.m2.contains(*q));
        }
    }

    #[test]
    fn rigid_leg_of_direct_translation_is_lossless() {
        // Sample only the first leg (before the Hungarian touch-up):
        // mapped == translated positions preserve all links.
        let pr = problem(1200.0);
        let cfg = MarchConfig::default();
        let d = direct_translation(&pr, &cfg).unwrap();
        let initial = anr_netgraph::UnitDiskGraph::new(&pr.positions, pr.range);
        let after = anr_netgraph::UnitDiskGraph::new(&d.mapped, pr.range);
        assert_eq!(initial.num_links(), after.num_links());
    }
}
