//! Mid-transition replanning after robot failures.
//!
//! The paper's introduction motivates global connectivity with exactly
//! this situation: "an unexpected event … may happen during the
//! relocation. As a result, the ANRs must cooperatively determine how to
//! adapt to the event. If an ANR is isolated at this time, it may be
//! excluded from the new plan and thus become permanently lost."
//!
//! [`replan_after_failure`] plays that scenario out: freeze the march at
//! a fraction of the transition, remove a set of failed robots, and
//! compute a fresh marching plan for the survivors from their
//! mid-transition positions. [`MarchProblem::new`] refuses survivors
//! that are no longer one network (they are one, whenever the original
//! plan maintained `C = 1` and the failures don't hit articulation
//! robots).

use crate::{march, MarchConfig, MarchError, MarchOutcome, MarchProblem, Method};
use anr_geom::{Point, PolygonWithHoles};

/// The outcome of a failure-and-replan experiment.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// Positions at the failure instant (all robots, before removal).
    pub at_failure: Vec<Point>,
    /// Indices (into the original swarm) of the surviving robots, which
    /// were one connected network at the failure instant — the property
    /// the paper's `C = 1` guarantee is meant to protect.
    pub survivors: Vec<usize>,
    /// The fresh plan computed for the survivors.
    pub plan: MarchOutcome,
}

/// Freezes `outcome` at `time_fraction ∈ [0, 1]` of its transition leg,
/// removes the `failed` robots, and computes a new plan from the
/// survivors' positions to the target FoI.
///
/// The new problem reuses the original `M2` (and both FoIs' obstacles);
/// `M1` is kept for obstacle purposes only — the survivors start from
/// their mid-transition positions, not from a FoI deployment.
///
/// # Errors
///
/// * [`MarchError::TooFewRobots`] when fewer than 3 robots survive.
/// * [`MarchError::DisconnectedDeployment`] when the survivors are not
///   one network at the failure instant (the situation the paper calls
///   "permanently lost" — surfaced as an error so callers can count it).
/// * Any pipeline error from the fresh plan.
///
/// # Panics
///
/// Panics when `time_fraction` is not in `[0, 1]`.
pub fn replan_after_failure(
    problem: &MarchProblem,
    outcome: &MarchOutcome,
    time_fraction: f64,
    failed: &[usize],
    method: Method,
    config: &MarchConfig,
) -> Result<ReplanOutcome, MarchError> {
    assert!(
        (0.0..=1.0).contains(&time_fraction),
        "time fraction must be in [0, 1]"
    );
    let at_failure: Vec<Point> = outcome
        .transition
        .paths()
        .iter()
        .map(|p| p.position_at(time_fraction))
        .collect();

    let survivors: Vec<usize> = (0..at_failure.len())
        .filter(|i| !failed.contains(i))
        .collect();
    let survivor_positions: Vec<Point> = survivors.iter().map(|&i| at_failure[i]).collect();

    // Fresh plan from the frozen positions; the problem refuses fewer
    // than 3 survivors and survivors that are not one network. M1 is
    // only consulted for its holes (obstacle avoidance), so passing the
    // original M1 keeps the obstacle set intact even though the
    // survivors are outside it.
    let new_problem = MarchProblem::new(
        problem.m1.clone(),
        problem.m2.clone(),
        survivor_positions,
        problem.range,
    )?;
    let plan = march(&new_problem, method, config)?;

    Ok(ReplanOutcome {
        at_failure,
        survivors,
        plan,
    })
}

/// Convenience wrapper: fail every robot in `failed` at the midpoint of
/// the transition and replan with method (a).
///
/// # Errors
///
/// See [`replan_after_failure`].
pub fn replan_midway(
    problem: &MarchProblem,
    outcome: &MarchOutcome,
    failed: &[usize],
) -> Result<ReplanOutcome, MarchError> {
    replan_after_failure(
        problem,
        outcome,
        0.5,
        failed,
        Method::MaxStableLinks,
        &MarchConfig::default(),
    )
}

/// Keeps the target FoI reachable for a shrunken swarm: `M2` scaled so
/// the per-robot area stays what it was for the full swarm. Useful when
/// many robots fail and full coverage of the original `M2` is no longer
/// possible at `r_c ≥ √3·r_s`.
///
/// Returns `None` when `survivors == 0`.
pub fn shrink_target_for(
    m2: &PolygonWithHoles,
    original_robots: usize,
    survivors: usize,
) -> Option<PolygonWithHoles> {
    if survivors == 0 || original_robots == 0 {
        return None;
    }
    if survivors >= original_robots {
        return Some(m2.clone());
    }
    let factor = (survivors as f64 / original_robots as f64).sqrt();
    let c = m2.centroid();
    let outer = m2.outer().scaled_about(c, factor);
    let holes: Vec<_> = m2
        .holes()
        .iter()
        .map(|h| h.scaled_about(c, factor))
        .collect();
    PolygonWithHoles::new(outer, holes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn square(side: f64, origin: Point) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(origin, side, side))
    }

    fn setup() -> (MarchProblem, MarchOutcome) {
        let m1 = square(300.0, Point::ORIGIN);
        let m2 = square(300.0, Point::new(900.0, 0.0));
        let problem = MarchProblem::with_lattice_deployment(m1, m2, 36, 80.0).unwrap();
        let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
        (problem, outcome)
    }

    #[test]
    fn replan_after_losing_two_robots() {
        let (problem, outcome) = setup();
        let r = replan_midway(&problem, &outcome, &[3, 17]).unwrap();
        assert_eq!(r.survivors.len(), 34);
        assert_eq!(r.plan.metrics.global_connectivity, 1);
        // Survivors end inside (or within metres of) M2 — robots whose
        // targets were parallel-shifted by the repair may finish just
        // outside the boundary before a longer coverage refinement would
        // pull them in.
        for q in &r.plan.final_positions {
            assert!(
                problem.m2.contains(*q) || problem.m2.outer().distance_to_boundary(*q) < 10.0,
                "robot far outside M2 at {q}"
            );
        }
    }

    #[test]
    fn failure_positions_interpolate_the_transition() {
        let (problem, outcome) = setup();
        let r = replan_after_failure(
            &problem,
            &outcome,
            0.0,
            &[],
            Method::MaxStableLinks,
            &MarchConfig::default(),
        )
        .unwrap();
        // At t = 0 the frozen positions are the initial deployment.
        for (a, b) in r.at_failure.iter().zip(&problem.positions) {
            assert!(a.distance(*b) < 1e-9);
        }
    }

    #[test]
    fn too_many_failures_rejected() {
        let (problem, outcome) = setup();
        let all: Vec<usize> = (0..35).collect();
        assert!(matches!(
            replan_midway(&problem, &outcome, &all),
            Err(MarchError::TooFewRobots { got: 1 })
        ));
    }

    #[test]
    fn disconnected_survivors_rejected() {
        let (problem, outcome) = setup();
        // At t = 0, fail a band of robots 100 m wide across the lattice.
        let failed: Vec<usize> = (0..problem.num_robots())
            .filter(|&i| (100.0..200.0).contains(&problem.positions[i].x))
            .collect();
        let survivors: Vec<Point> = (0..problem.num_robots())
            .filter(|i| !failed.contains(i))
            .map(|i| problem.positions[i])
            .collect();
        let components = anr_netgraph::UnitDiskGraph::new(&survivors, problem.range)
            .connected_components()
            .len();
        assert!(components > 1);
        let got = replan_after_failure(
            &problem,
            &outcome,
            0.0,
            &failed,
            Method::MaxStableLinks,
            &MarchConfig::default(),
        );
        assert!(
            matches!(got, Err(MarchError::DisconnectedDeployment { components: c }) if c == components),
            "{:?}",
            got.err()
        );
    }

    #[test]
    fn shrink_target_scales_area() {
        let m2 = square(300.0, Point::ORIGIN);
        let shrunk = shrink_target_for(&m2, 144, 36).unwrap();
        // Quarter of the robots → quarter of the area.
        assert!((shrunk.area() - m2.area() / 4.0).abs() / m2.area() < 1e-9);
        // Same centroid.
        assert!(shrunk.centroid().distance(m2.centroid()) < 1e-6);
        // No shrink when nothing was lost.
        let same = shrink_target_for(&m2, 144, 144).unwrap();
        assert_eq!(same.area(), m2.area());
        assert!(shrink_target_for(&m2, 144, 0).is_none());
    }

    #[test]
    fn midway_failure_of_many_still_replans() {
        let (problem, outcome) = setup();
        // Lose a whole corner block (6 robots).
        let failed: Vec<usize> = (0..6).collect();
        let r = replan_midway(&problem, &outcome, &failed).unwrap();
        assert_eq!(r.survivors.len(), 30);
        assert_eq!(r.plan.metrics.global_connectivity, 1);
    }
}
