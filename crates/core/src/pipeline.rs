//! The optimal-marching pipeline (paper Sec. III).

use crate::{
    evaluate_timeline, repair_connectivity_strict, DenseTimeline, KnotTimeline, MarchConfig,
    MarchError, MarchProblem, RepairReport, TrajectorySet, TransitionMetrics,
};
use anr_coverage::{run_lloyd_guarded, GridPartition};
use anr_geom::Point;
use anr_harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay};
use anr_mesh::{FoiMesher, PointLocator};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_trace::{TraceValue, Tracer};

/// Which objective the rotation search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Method (a): maximize the total stable link ratio subject to
    /// global connectivity — the optimal-marching objective
    /// (Definition 6).
    MaxStableLinks,
    /// Method (b): minimize the total moving distance, trading "a little
    /// total stable link ratio" (Sec. III-D-2).
    MinMovingDistance,
}

/// Everything produced by one marching run.
#[derive(Debug, Clone, PartialEq)]
pub struct MarchOutcome {
    /// Initial positions (copied from the problem).
    pub initial: Vec<Point>,
    /// Positions after the harmonic-map transition, before the coverage
    /// refinement (the second row of the paper's Fig. 3).
    pub mapped: Vec<Point>,
    /// Final optimal coverage positions (the third row of Fig. 3).
    pub final_positions: Vec<Point>,
    /// The chosen disk rotation angle (radians).
    pub rotation: f64,
    /// The transition trajectories `M1 → M2`.
    pub transition: TrajectorySet,
    /// The dense position timeline for rendering: every robot at the
    /// uniform samples and every robot's breakpoints of the transition,
    /// then one row per Lloyd iteration. The march builds none of its
    /// rows; the first caller that reads them (a serve reply, an
    /// animation) builds them once. The metrics audit each robot's own
    /// knots instead ([`KnotTimeline`]).
    pub timeline: DenseTimeline,
    /// `D`, `L`, `C` and link accounting.
    pub metrics: TransitionMetrics,
    /// What the connectivity repair did.
    pub repair: RepairReport,
    /// Lloyd iterations used by the coverage refinement.
    pub lloyd_iterations: usize,
}

/// Runs the paper's marching pipeline on `problem` with the given
/// `method` and configuration.
///
/// Pipeline (Fig. 2): extract the triangulation `T` of the deployment →
/// fill holes → harmonic-map `T` and the meshed target FoI onto unit
/// disks → search the disk rotation (max `L` for method (a), min `D` for
/// method (b)) → compose the maps to get destinations → repair predicted
/// isolation → move along straight hole-avoiding paths → guarded Lloyd
/// to optimal coverage positions.
///
/// `Ok` means the paper's guarantee held: the network stayed connected
/// at every instant of the march (`C = 1`).
///
/// # Errors
///
/// Any [`MarchError`]; most commonly a disconnected deployment, a robot
/// outside the triangulation, or a meshing failure on a degenerate FoI.
/// A march whose own audit finds `C = 0` returns
/// [`MarchError::ConnectivityLost`], which carries the whole outcome.
pub fn march(
    problem: &MarchProblem,
    method: Method,
    config: &MarchConfig,
) -> Result<MarchOutcome, MarchError> {
    march_traced(problem, method, config, &Tracer::disabled())
}

/// [`march`] with structured tracing: every pipeline stage runs inside a
/// span (`triangulate`, `harmonic_m1`, `harmonic_m2`, `rotation`,
/// `repair`, `lloyd`, plus `trajectories` and `metrics`, which holds the
/// audit's spans and `new_links`), rotation
/// evaluations and solver iterations are emitted as events, and the
/// produced outcome is **byte-identical** to the untraced run — tracing
/// observes, never steers (pinned by a test below).
///
/// # Errors
///
/// Same as [`march`].
pub fn march_traced(
    problem: &MarchProblem,
    method: Method,
    config: &MarchConfig,
    tracer: &Tracer,
) -> Result<MarchOutcome, MarchError> {
    let n = problem.num_robots();
    let positions = &problem.positions;
    let range = problem.range;
    let _pipeline = tracer.span_with(
        "march",
        vec![
            ("robots", TraceValue::U64(n as u64)),
            ("range", TraceValue::F64(range)),
            (
                "method",
                TraceValue::Str(
                    match method {
                        Method::MaxStableLinks => "max_stable_links",
                        Method::MinMovingDistance => "min_moving_distance",
                    }
                    .to_string(),
                ),
            ),
        ],
    );

    // ------------------------------------------------------------------
    // 1. Triangulation T of the deployment (Sec. III-A).
    // ------------------------------------------------------------------
    let t_mesh = {
        let _s = tracer.span("triangulate");
        extract_triangulation(positions, range)?
    };
    if let Some(robot) = (0..n).find(|&v| t_mesh.vertex_neighbors(v).is_empty()) {
        return Err(MarchError::RobotOutsideTriangulation { robot });
    }

    // ------------------------------------------------------------------
    // 2. Harmonic map of T to the unit disk (holes filled first when M1
    //    itself has holes, Sec. III-D-3).
    // ------------------------------------------------------------------
    let (filled_t, robot_disk) = {
        let _s = tracer.span("harmonic_m1");
        let filled_t = fill_holes(&t_mesh)?;
        let disk_t = harmonic_map_to_disk(filled_t.mesh(), &config.harmonic, tracer)?;
        let robot_disk: Vec<Point> = (0..n).map(|v| disk_t.position(v)).collect();
        (filled_t, robot_disk)
    };

    // ------------------------------------------------------------------
    // 3. Grid + triangulate + harmonic-map the target FoI (Sec. III-B).
    // ------------------------------------------------------------------
    let spacing = config.resolve_mesh_spacing(problem.m2.area(), n);
    let overlay = {
        let _s = tracer.span("harmonic_m2");
        let foi2 = FoiMesher::new(spacing).mesh(&problem.m2)?;
        let filled2 = fill_holes(foi2.mesh())?;
        let disk2 = harmonic_map_to_disk(filled2.mesh(), &config.harmonic, tracer)?;
        DiskOverlay::new(
            filled2.mesh(),
            disk2.positions(),
            filled2.virtual_vertices(),
        )
    };

    // ------------------------------------------------------------------
    // 4. Rotation search (Sec. III-B for (a), III-D-2 for (b)).
    //
    // For synchronized straight-line motion the inter-robot distance is
    // convex in t, so a link survives the whole transition iff it holds
    // at both endpoints; the link objective therefore only needs the
    // mapped endpoint positions. The same initial graph later gives the
    // repair and the audit their links.
    // ------------------------------------------------------------------
    let initial_graph = UnitDiskGraph::new(positions, range);
    let links = initial_graph.links();
    // The point locator over the target disk mesh is built once for the
    // whole sweep; rebuilding it per angle used to dominate this stage.
    let disk_locator = PointLocator::new(overlay.disk_mesh());
    // Destinations are clamped into M2: mesh-boundary jitter can place
    // an interpolated position a millimetre outside the polygon.
    let map_at = |theta: f64| -> Vec<Point> {
        overlay
            .map_all_with(&disk_locator, &robot_disk, theta)
            .into_iter()
            .map(|m| problem.m2.clamp_inside(m.position))
            .collect()
    };
    let score_at = |theta: f64| -> f64 {
        let q = map_at(theta);
        match method {
            Method::MaxStableLinks => {
                if links.is_empty() {
                    1.0
                } else {
                    links
                        .iter()
                        .filter(|&&(i, j)| q[i].distance(q[j]) <= range)
                        .count() as f64
                        / links.len() as f64
                }
            }
            Method::MinMovingDistance => positions
                .iter()
                .zip(&q)
                .map(|(p, t)| p.distance(*t))
                .sum::<f64>(),
        }
    };
    // Each search round's angles fan out over worker threads; the round's
    // scores are re-scanned in input order on this thread (including the
    // trace events), so the chosen optimum and the event stream are
    // identical to the serial sweep at any worker count.
    let batch = |thetas: &[f64]| -> Vec<f64> {
        let scores = anr_par::par_map(thetas, 0, |&t| score_at(t));
        for (&theta, &score) in thetas.iter().zip(&scores) {
            tracer.event(
                "rotation_eval",
                &[
                    ("theta", TraceValue::F64(theta)),
                    ("score", TraceValue::F64(score)),
                ],
            );
        }
        scores
    };

    let rotation_span = tracer.span("rotation");
    let (rotation, _score, _evals) = match method {
        Method::MaxStableLinks => config.rotation.maximize_batch(batch),
        Method::MinMovingDistance => config.rotation.minimize_batch(batch),
    };
    drop(rotation_span);

    let mut targets = map_at(rotation);

    // ------------------------------------------------------------------
    // 5. Global-connectivity repair (Sec. III-D-1): isolated subgroups
    //    adopt parallel motion. The network boundary is T's outer loop.
    // ------------------------------------------------------------------
    let repair = {
        let _s = tracer.span("repair");
        let boundary: Vec<usize> = filled_t
            .mesh()
            .boundary_loops()
            .into_iter()
            .next()
            .unwrap_or_default()
            .into_iter()
            .filter(|&v| v < n)
            .collect();
        repair_connectivity_strict(&initial_graph, &mut targets, &boundary)
    };

    // ------------------------------------------------------------------
    // 6. Transition trajectories (Eqn. 2) with hole avoidance.
    // ------------------------------------------------------------------
    let _trajectories_span = tracer.span("trajectories");
    let obstacles = problem.obstacles();
    let transition = TrajectorySet::straight(positions, &targets, &obstacles);
    let mut total_distance = transition.total_length();
    let mapped = targets.clone();
    drop(_trajectories_span);

    // ------------------------------------------------------------------
    // 7. Minor local adjustment: connectivity-guarded Lloyd (Sec. III-C).
    // ------------------------------------------------------------------
    let (final_positions, lloyd_iterations, lloyd_rows) = if config.refine_coverage {
        let _s = tracer.span("lloyd");
        // Fine partition: ≥ ~50 samples per robot cell, so the weighted
        // centroids resolve the density gradient instead of locking into
        // a coarse discrete fixed point.
        let partition = GridPartition::new(&problem.m2, spacing * 0.2);
        // The timeline metrics need the per-iteration site history.
        let lloyd_config = anr_coverage::LloydConfig {
            record_history: true,
            ..config.lloyd
        };
        let lloyd = run_lloyd_guarded(
            &targets,
            &partition,
            &config.density,
            &lloyd_config,
            range,
            tracer,
        );
        total_distance += lloyd.total_movement;
        (lloyd.sites, lloyd.iterations, lloyd.history)
    } else {
        (targets, 0, Vec::new())
    };

    // ------------------------------------------------------------------
    // 8. Metrics (Definitions 1 and 2), exact over each robot's own
    //    piecewise-linear motion: its transition waypoints on s ∈ [0, 1],
    //    then its Lloyd iterates at s = 2, 3, ….
    // ------------------------------------------------------------------
    let (metrics, timeline) = {
        let _s = tracer.span("metrics");
        let knots = {
            let _k = tracer.span("knots");
            KnotTimeline::from_trajectories(&transition, &lloyd_rows)?
        };
        // Only the row count is read here; the rows wait for a reader.
        let timeline = DenseTimeline::new(&transition, config.time_samples, lloyd_rows);
        let metrics = evaluate_timeline(&knots, &initial_graph, total_distance, tracer)?;
        (metrics, timeline)
    };

    let outcome = MarchOutcome {
        initial: positions.clone(),
        mapped,
        final_positions,
        rotation,
        transition,
        timeline,
        metrics,
        repair,
        lloyd_iterations,
    };
    if outcome.metrics.global_connectivity == 0 {
        return Err(MarchError::ConnectivityLost(Box::new(outcome)));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::{Polygon, PolygonWithHoles};

    fn square_region(side: f64, origin: Point) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(origin, side, side))
    }

    /// A small but realistic problem: 36 robots, square → square.
    fn small_problem(separation: f64) -> MarchProblem {
        let m1 = square_region(300.0, Point::ORIGIN);
        let m2 = square_region(300.0, Point::new(separation, 0.0));
        MarchProblem::with_lattice_deployment(m1, m2, 36, 80.0).unwrap()
    }

    fn fast_config() -> MarchConfig {
        MarchConfig {
            time_samples: 20,
            lloyd: anr_coverage::LloydConfig {
                tolerance: 2.0,
                max_iterations: 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn method_a_maintains_global_connectivity() {
        let problem = small_problem(800.0);
        let out = march(&problem, Method::MaxStableLinks, &fast_config()).unwrap();
        assert_eq!(out.metrics.global_connectivity, 1);
        assert!(
            out.metrics.stable_link_ratio > 0.5,
            "L = {}",
            out.metrics.stable_link_ratio
        );
        assert_eq!(out.final_positions.len(), 36);
        // All robots end inside M2.
        for q in &out.final_positions {
            assert!(problem.m2.contains(*q), "{q} outside M2");
        }
    }

    #[test]
    fn method_b_moves_no_more_than_method_a() {
        let problem = small_problem(700.0);
        let cfg = fast_config();
        let a = march(&problem, Method::MaxStableLinks, &cfg).unwrap();
        let b = march(&problem, Method::MinMovingDistance, &cfg).unwrap();
        // (b) optimizes distance; allow a small tolerance because the
        // final Lloyd cost differs between rotations.
        assert!(
            b.metrics.total_distance <= a.metrics.total_distance * 1.10,
            "D(b) = {} vs D(a) = {}",
            b.metrics.total_distance,
            a.metrics.total_distance
        );
        assert_eq!(b.metrics.global_connectivity, 1);
    }

    #[test]
    fn distance_scales_with_separation() {
        let cfg = fast_config();
        let near = march(&small_problem(600.0), Method::MaxStableLinks, &cfg).unwrap();
        let far = march(&small_problem(2000.0), Method::MaxStableLinks, &cfg).unwrap();
        assert!(far.metrics.total_distance > near.metrics.total_distance + 30_000.0);
    }

    #[test]
    fn timeline_starts_at_initial_positions() {
        let problem = small_problem(600.0);
        let cfg = fast_config();
        let unrefined = MarchConfig {
            refine_coverage: false,
            ..fast_config()
        };
        for out in [
            march(&problem, Method::MaxStableLinks, &cfg),
            march(&problem, Method::MinMovingDistance, &cfg),
            march(&problem, Method::MaxStableLinks, &unrefined),
            crate::direct_translation(&problem, &cfg),
            crate::hungarian_direct(&problem, &cfg),
        ] {
            let out = out.unwrap();
            assert_eq!(out.timeline[0], problem.positions);
            assert_eq!(out.timeline.iter().count(), out.timeline.len());
        }
    }

    #[test]
    fn disconnected_deployment_rejected() {
        let m1 = square_region(300.0, Point::ORIGIN);
        let m2 = square_region(300.0, Point::new(900.0, 0.0));
        let positions = vec![
            Point::new(10.0, 10.0),
            Point::new(60.0, 10.0),
            Point::new(35.0, 50.0),
            Point::new(290.0, 290.0), // alone in the corner
        ];
        assert!(matches!(
            MarchProblem::new(m1, m2, positions, 80.0),
            Err(MarchError::DisconnectedDeployment { .. })
        ));
    }

    #[test]
    fn refine_coverage_can_be_disabled() {
        let problem = small_problem(600.0);
        let cfg = MarchConfig {
            refine_coverage: false,
            ..fast_config()
        };
        let out = march(&problem, Method::MaxStableLinks, &cfg).unwrap();
        assert_eq!(out.lloyd_iterations, 0);
        assert_eq!(out.mapped, out.final_positions);
    }

    #[test]
    fn tracing_is_observation_only_and_covers_stages() {
        use anr_trace::TraceKind;
        let problem = small_problem(700.0);
        let cfg = fast_config();
        // The untraced run IS the disabled-tracer run (`march` delegates
        // with `Tracer::disabled()`), so this comparison pins the
        // contract: enabling tracing changes no output byte.
        let plain = march(&problem, Method::MaxStableLinks, &cfg).unwrap();
        let tracer = Tracer::ring(1 << 16);
        let traced = march_traced(&problem, Method::MaxStableLinks, &cfg, &tracer).unwrap();
        assert_eq!(plain.initial, traced.initial);
        assert_eq!(plain.mapped, traced.mapped);
        assert_eq!(plain.final_positions, traced.final_positions);
        assert_eq!(plain.rotation, traced.rotation);
        assert_eq!(plain.timeline, traced.timeline);
        assert_eq!(plain.metrics, traced.metrics);
        assert_eq!(plain.lloyd_iterations, traced.lloyd_iterations);

        let events = tracer.events();
        for stage in [
            "march",
            "triangulate",
            "harmonic_m1",
            "harmonic_m2",
            "rotation",
            "repair",
            "trajectories",
            "lloyd",
            "metrics",
            "knots",
            "new_links",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == TraceKind::SpanStart && e.name == stage),
                "missing span {stage}"
            );
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == TraceKind::SpanEnd && e.name == stage),
                "unclosed span {stage}"
            );
        }
        // Solver iterations and rotation evaluations ride along.
        assert!(events.iter().any(|e| e.name == "pcg_iter"));
        assert!(events.iter().any(|e| e.name == "rotation_eval"));
        assert!(events.iter().any(|e| e.name == "lloyd_iter"));
        assert_eq!(tracer.dropped(), 0, "ring must hold the whole run");
    }

    #[test]
    fn marching_into_foi_with_hole() {
        let m1 = square_region(300.0, Point::ORIGIN);
        let outer = Polygon::rectangle(Point::new(800.0, 0.0), 340.0, 340.0);
        let hole = Polygon::regular(Point::new(970.0, 170.0), 50.0, 12);
        let m2 = PolygonWithHoles::new(outer, vec![hole.clone()]).unwrap();
        let problem = MarchProblem::with_lattice_deployment(m1, m2, 36, 80.0).unwrap();
        let out = march(&problem, Method::MaxStableLinks, &fast_config()).unwrap();
        assert_eq!(out.metrics.global_connectivity, 1);
        // Nobody ends up inside the hole.
        for q in &out.final_positions {
            assert!(!problem.m2.in_hole(*q), "robot inside hole at {q}");
        }
    }
}
