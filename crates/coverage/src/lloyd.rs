//! Lloyd's algorithm for centroidal Voronoi coverage (Sec. III-C),
//! with the connectivity-guarded step rule of Sec. III-D-1.

use crate::{Density, GridPartition};
use anr_geom::Point;
use anr_netgraph::UnitDiskGraph;
use anr_trace::{TraceValue, Tracer};

/// Configuration for the Lloyd iteration.
#[derive(Debug, Clone, Copy)]
pub struct LloydConfig {
    /// Stop when no site moves farther than this (metres). Default 0.5.
    pub tolerance: f64,
    /// Iteration budget. Default 100.
    pub max_iterations: usize,
    /// Record the full site vector after every iteration in
    /// [`LloydResult::history`] (default `false`). Recording clones all
    /// sites each iteration — pure overhead for callers that only want
    /// the final positions, so opt in only when a timeline is needed
    /// (e.g. transition metrics or per-step connectivity audits).
    pub record_history: bool,
}

impl Default for LloydConfig {
    fn default() -> Self {
        LloydConfig {
            tolerance: 0.5,
            max_iterations: 100,
            record_history: false,
        }
    }
}

/// Result of a Lloyd run.
#[derive(Debug, Clone)]
pub struct LloydResult {
    /// Final site positions.
    pub sites: Vec<Point>,
    /// Iterations executed.
    pub iterations: usize,
    /// Total distance moved by all sites across the whole run — the
    /// "adjustment cost" that the paper folds into its moving-distance
    /// comparison (Sec. IV-A).
    pub total_movement: f64,
    /// Whether the run converged within the budget.
    pub converged: bool,
    /// Site positions after every iteration (excluding the initial
    /// positions) — the sampled timeline used by transition metrics.
    /// Empty unless [`LloydConfig::record_history`] is set.
    pub history: Vec<Vec<Point>>,
}

/// Runs plain Lloyd iteration: each site repeatedly moves to the
/// density-weighted centroid of its Voronoi region.
///
/// Site motion is clamped to the region: a straight move that would cut
/// through a hole follows the shorter path in spirit by stopping at the
/// clamped centroid (hole-aware centroids come from
/// [`GridPartition::centroids`]).
///
/// # Panics
///
/// Panics when `sites` is empty.
pub fn run_lloyd(
    sites: &[Point],
    partition: &GridPartition,
    density: &Density,
    config: &LloydConfig,
) -> LloydResult {
    assert!(!sites.is_empty(), "need at least one site");
    let mut cur = sites.to_vec();
    let mut total_movement = 0.0;
    let mut iterations = 0;
    let mut converged = false;
    let mut history = Vec::new();
    while iterations < config.max_iterations {
        iterations += 1;
        let targets = partition.centroids(&cur, density);
        let mut max_move = 0.0f64;
        for (s, t) in cur.iter_mut().zip(&targets) {
            let d = s.distance(*t);
            total_movement += d;
            max_move = max_move.max(d);
            *s = *t;
        }
        if config.record_history {
            history.push(cur.clone());
        }
        if max_move < config.tolerance {
            converged = true;
            break;
        }
    }
    LloydResult {
        sites: cur,
        iterations,
        total_movement,
        converged,
        history,
    }
}

/// Runs Lloyd iteration with the paper's global-connectivity guard: at
/// each step, if moving every robot to its centroid would disconnect the
/// network, the step is halved (and halved again, down to `2⁻⁶` of the
/// full step) until the network stays connected (Sec. III-D-1: "each
/// robot checks whether it is safe to move to half of the distance to
/// the centroid position and so on").
///
/// Every iteration emits a `lloyd_iter` event on `tracer` carrying the
/// iteration number, the accepted step fraction (1.0 for an unguarded
/// full step, 0.0 when even the smallest step would disconnect), the
/// largest single-site move, `exact_steps` (the robots whose accepted
/// step took the exact polygon tests of
/// [`GridPartition::guarded_step`]; 0 when no step is accepted) and
/// `candidates` (the assignment's work count). Tracing is observation
/// only: a disabled tracer gives the same result.
///
/// # Panics
///
/// Panics when `sites` is empty or `range <= 0`.
pub fn run_lloyd_guarded(
    sites: &[Point],
    partition: &GridPartition,
    density: &Density,
    config: &LloydConfig,
    range: f64,
    tracer: &Tracer,
) -> LloydResult {
    assert!(!sites.is_empty(), "need at least one site");
    assert!(range > 0.0, "communication range must be positive");
    let mut cur = sites.to_vec();
    let mut total_movement = 0.0;
    let mut iterations = 0;
    let mut converged = false;
    let mut history = Vec::new();
    let mut candidate = cur.clone();

    while iterations < config.max_iterations {
        iterations += 1;
        let (targets, candidates) = partition.centroids_with_work(&cur, density);
        let moves: Vec<(Point, Point)> = cur.iter().copied().zip(targets).collect();

        // Find the largest fraction of the step that keeps the network
        // connected. Full step first, then halve.
        let mut fraction = 1.0f64;
        let mut accepted = false;
        let mut exact_steps = 0usize;
        for _ in 0..7 {
            // Do not step across a hole: a robot whose straight segment
            // is blocked stays in place this round. Robots are
            // independent, so the fan-out changes nothing.
            let steps = anr_par::par_chunks(&moves, 64, 0, |chunk| {
                chunk
                    .iter()
                    .map(|&(s, t)| partition.guarded_step(s, s.lerp(t, fraction)))
                    .collect::<Vec<_>>()
            });
            let mut moved = false;
            exact_steps = 0;
            for ((c, s), (end, exact)) in candidate.iter_mut().zip(&cur).zip(steps.concat()) {
                moved |= end != *s;
                exact_steps += usize::from(exact);
                *c = end;
            }
            // Nobody moves at this fraction: the topology is exactly the
            // current one, so there is nothing to re-check.
            if !moved || UnitDiskGraph::connected(&candidate, range) {
                accepted = true;
                break;
            }
            fraction /= 2.0;
        }

        if !accepted {
            // Even tiny steps disconnect: freeze this iteration.
            candidate.copy_from_slice(&cur);
            exact_steps = 0;
        }

        let mut max_move = 0.0f64;
        for (s, n) in cur.iter().zip(&candidate) {
            let d = s.distance(*n);
            total_movement += d;
            max_move = max_move.max(d);
        }
        if tracer.is_enabled() {
            tracer.event(
                "lloyd_iter",
                &[
                    ("iter", TraceValue::U64(iterations as u64)),
                    (
                        "fraction",
                        TraceValue::F64(if accepted { fraction } else { 0.0 }),
                    ),
                    ("max_move", TraceValue::F64(max_move)),
                    ("exact_steps", TraceValue::U64(exact_steps as u64)),
                    ("candidates", TraceValue::U64(candidates)),
                ],
            );
        }
        std::mem::swap(&mut cur, &mut candidate);
        if config.record_history {
            history.push(cur.clone());
        }
        if max_move < config.tolerance {
            converged = true;
            break;
        }
    }

    LloydResult {
        sites: cur,
        iterations,
        total_movement,
        converged,
        history,
    }
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
    fn single_site_converges_to_center() {
        let region = square(100.0);
        let part = GridPartition::new(&region, 2.5);
        let r = run_lloyd(
            &[Point::new(5.0, 95.0)],
            &part,
            &Density::Uniform,
            &LloydConfig::default(),
        );
        assert!(r.converged);
        assert!(r.sites[0].distance(Point::new(50.0, 50.0)) < 2.0);
    }

    #[test]
    fn lloyd_reduces_spread_irregularity() {
        // Clumped initial sites spread out: min pairwise distance grows.
        let region = square(100.0);
        let part = GridPartition::new(&region, 2.5);
        let sites: Vec<Point> = (0..9)
            .map(|i| Point::new(10.0 + (i % 3) as f64 * 3.0, 10.0 + (i / 3) as f64 * 3.0))
            .collect();
        let before = crate::min_pairwise_distance(&sites).unwrap();
        let r = run_lloyd(&sites, &part, &Density::Uniform, &LloydConfig::default());
        let after = crate::min_pairwise_distance(&r.sites).unwrap();
        assert!(after > 3.0 * before, "spread {before} -> {after}");
        assert!(r.total_movement > 0.0);
    }

    #[test]
    fn converged_lattice_barely_moves() {
        // A deployment already near-CVT needs only minor adjustment —
        // the paper's premise for the post-transition step.
        let region = square(200.0);
        let part = GridPartition::new(&region, 5.0);
        let sites = triangular_lattice(&region, 40.0);
        let r = run_lloyd(&sites, &part, &Density::Uniform, &LloydConfig::default());
        let per_site = r.total_movement / sites.len() as f64;
        assert!(per_site < 20.0, "per-site adjustment {per_site}");
    }

    #[test]
    fn density_concentrates_sites() {
        let outer = Polygon::rectangle(Point::ORIGIN, 200.0, 200.0);
        let hole = Polygon::regular(Point::new(100.0, 100.0), 25.0, 12);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 5.0);
        let sites = triangular_lattice(&region, 40.0);
        let n = sites.len() as f64;

        let uniform = run_lloyd(&sites, &part, &Density::Uniform, &LloydConfig::default());
        let dense = run_lloyd(
            &sites,
            &part,
            &Density::HoleProximity {
                falloff: 30.0,
                gain: 8.0,
            },
            &LloydConfig::default(),
        );
        let mean_hole_dist = |pts: &[Point]| -> f64 {
            pts.iter()
                .map(|&p| region.distance_to_holes(p))
                .sum::<f64>()
                / n
        };
        assert!(
            mean_hole_dist(&dense.sites) < mean_hole_dist(&uniform.sites),
            "density did not pull sites toward the hole"
        );
    }

    #[test]
    fn sites_stay_inside_region() {
        let outer = Polygon::rectangle(Point::ORIGIN, 120.0, 120.0);
        let hole = Polygon::rectangle(Point::new(45.0, 45.0), 30.0, 30.0);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 4.0);
        let sites = triangular_lattice(&region, 30.0);
        let r = run_lloyd(&sites, &part, &Density::Uniform, &LloydConfig::default());
        for p in &r.sites {
            assert!(region.contains(*p));
            assert!(!region.in_hole(*p));
        }
    }

    #[test]
    fn history_is_opt_in() {
        let region = square(100.0);
        let part = GridPartition::new(&region, 2.5);
        let sites = vec![Point::new(5.0, 95.0), Point::new(90.0, 10.0)];
        let quiet = run_lloyd(&sites, &part, &Density::Uniform, &LloydConfig::default());
        assert!(quiet.history.is_empty(), "history off by default");
        let recorded = run_lloyd(
            &sites,
            &part,
            &Density::Uniform,
            &LloydConfig {
                record_history: true,
                ..Default::default()
            },
        );
        assert_eq!(recorded.history.len(), recorded.iterations);
        // Recording is observation only: the run itself is unchanged.
        assert_eq!(quiet.sites, recorded.sites);
        assert_eq!(quiet.iterations, recorded.iterations);
        assert_eq!(quiet.total_movement, recorded.total_movement);
        assert_eq!(recorded.history.last(), Some(&recorded.sites));
    }

    #[test]
    fn guarded_history_is_opt_in_and_identical() {
        let region = square(400.0);
        let part = GridPartition::new(&region, 10.0);
        let sites: Vec<Point> = (0..9)
            .map(|i| Point::new(180.0 + (i % 3) as f64 * 12.0, 180.0 + (i / 3) as f64 * 12.0))
            .collect();
        let cfg = LloydConfig {
            max_iterations: 8,
            ..Default::default()
        };
        let quiet = run_lloyd_guarded(
            &sites,
            &part,
            &Density::Uniform,
            &cfg,
            80.0,
            &Tracer::disabled(),
        );
        assert!(quiet.history.is_empty());
        let recorded = run_lloyd_guarded(
            &sites,
            &part,
            &Density::Uniform,
            &LloydConfig {
                record_history: true,
                ..cfg
            },
            80.0,
            &Tracer::disabled(),
        );
        assert_eq!(recorded.history.len(), recorded.iterations);
        assert_eq!(quiet.sites, recorded.sites);
        assert_eq!(quiet.total_movement, recorded.total_movement);
    }

    #[test]
    fn traced_guarded_lloyd_is_observation_only() {
        let region = square(400.0);
        let part = GridPartition::new(&region, 10.0);
        let sites: Vec<Point> = (0..9)
            .map(|i| Point::new(180.0 + (i % 3) as f64 * 12.0, 180.0 + (i / 3) as f64 * 12.0))
            .collect();
        let cfg = LloydConfig {
            max_iterations: 8,
            ..Default::default()
        };
        let plain = run_lloyd_guarded(
            &sites,
            &part,
            &Density::Uniform,
            &cfg,
            80.0,
            &Tracer::disabled(),
        );
        let tracer = Tracer::ring(4096);
        let traced = run_lloyd_guarded(&sites, &part, &Density::Uniform, &cfg, 80.0, &tracer);
        assert_eq!(plain.sites, traced.sites);
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(plain.total_movement, traced.total_movement);
        let events = tracer.events();
        let iters: Vec<_> = events.iter().filter(|e| e.name == "lloyd_iter").collect();
        assert_eq!(
            iters.len(),
            traced.iterations,
            "one lloyd_iter per iteration"
        );
        let keys: Vec<&str> = iters[0].fields.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            keys,
            ["iter", "fraction", "max_move", "exact_steps", "candidates"]
        );
        for e in &iters {
            // Every tile lists at least one candidate.
            assert!(
                matches!(e.fields[4].1, TraceValue::U64(c) if c > 0),
                "{e:?}"
            );
            assert!(
                matches!(e.fields[3].1, TraceValue::U64(x) if x <= 9),
                "{e:?}"
            );
        }
    }

    #[test]
    fn guarded_lloyd_preserves_connectivity_every_step() {
        // Start from a tight cluster whose Lloyd targets would stretch
        // the network; the guard must keep it connected throughout.
        let region = square(400.0);
        let part = GridPartition::new(&region, 10.0);
        let range = 80.0;
        let sites: Vec<Point> = (0..16)
            .map(|i| Point::new(180.0 + (i % 4) as f64 * 12.0, 180.0 + (i / 4) as f64 * 12.0))
            .collect();
        let cfg = LloydConfig {
            max_iterations: 40,
            ..Default::default()
        };
        // Re-run step by step and assert connectivity after each
        // iteration by using max_iterations = k.
        for k in 1..=8 {
            let r = run_lloyd_guarded(
                &sites,
                &part,
                &Density::Uniform,
                &LloydConfig {
                    max_iterations: k,
                    ..cfg
                },
                range,
                &Tracer::disabled(),
            );
            assert!(
                UnitDiskGraph::new(&r.sites, range).is_connected(),
                "disconnected after {k} iterations"
            );
        }
    }

    #[test]
    fn guarded_moves_less_or_equal_when_binding() {
        let region = square(600.0);
        let part = GridPartition::new(&region, 12.0);
        let sites: Vec<Point> = (0..9)
            .map(|i| Point::new(280.0 + (i % 3) as f64 * 15.0, 280.0 + (i / 3) as f64 * 15.0))
            .collect();
        let cfg = LloydConfig {
            max_iterations: 30,
            ..Default::default()
        };
        let free = run_lloyd(&sites, &part, &Density::Uniform, &cfg);
        let guarded = run_lloyd_guarded(
            &sites,
            &part,
            &Density::Uniform,
            &cfg,
            80.0,
            &Tracer::disabled(),
        );
        // The free run disconnects the 80 m network; the guarded run must
        // not, at the price of staying more compact.
        assert!(!UnitDiskGraph::new(&free.sites, 80.0).is_connected());
        assert!(UnitDiskGraph::new(&guarded.sites, 80.0).is_connected());
    }
}
