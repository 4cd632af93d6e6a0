//! Transition metrics: total moving distance `D`, total stable link
//! ratio `L` (Definition 1) and global connectivity `C` (Definition 2).
//!
//! Both `L` and `C` quantify over **every instant** of the march.
//! [`evaluate_timeline`] therefore audits each robot's own
//! piecewise-linear motion, its [`KnotTimeline`], exactly — link maxima
//! from the convexity of the per-piece distance quadratic, connectivity
//! by sweeping the quadratic's range-crossing roots — via the continuous
//! auditor in [`crate::audit`]. No sampled-instant approximation remains.

use crate::audit::{audit_knots, LinkViolation};
use crate::knots::KnotTimeline;
use anr_geom::Point;
use anr_netgraph::UnitDiskGraph;
use anr_trace::Tracer;
use std::error::Error;
use std::fmt;

/// Input errors of the metrics and audit functions.
///
/// These used to be `assert!` panics; library callers now get a typed
/// error and the CLI keeps its user-facing message via `Display`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum MetricsError {
    /// Two parallel inputs disagree in length.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// The communication range must be positive.
    NonPositiveRange {
        /// The offending range.
        range: f64,
    },
    /// A timeline needs at least one row.
    EmptyTimeline,
    /// A timeline row covers a different number of robots than row 0.
    RaggedTimeline {
        /// Offending row index.
        row: usize,
        /// Its length.
        got: usize,
        /// Row 0's length.
        expected: usize,
    },
    /// Timeline instants must be finite and strictly increasing.
    NonMonotonicTimes {
        /// Index of the first offending instant.
        index: usize,
    },
    /// A position is NaN or infinite.
    NonFinitePosition {
        /// Row of the offending position.
        row: usize,
        /// Robot index within the row.
        robot: usize,
    },
    /// An agreement audit found no live robot to read totals from —
    /// every robot crashed before the protocol finished.
    NoLiveRobots,
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "expected {expected} entries, got {got} (one target per robot)"
                )
            }
            MetricsError::NonPositiveRange { range } => {
                write!(f, "communication range must be positive, got {range}")
            }
            MetricsError::EmptyTimeline => {
                write!(f, "timeline must have at least one sample")
            }
            MetricsError::RaggedTimeline { row, got, expected } => {
                write!(
                    f,
                    "every sample must cover every robot: row {row} has {got} positions, expected {expected}"
                )
            }
            MetricsError::NonMonotonicTimes { index } => {
                write!(
                    f,
                    "timeline instants must be strictly increasing (index {index})"
                )
            }
            MetricsError::NonFinitePosition { row, robot } => {
                write!(f, "non-finite position for robot {robot} at row {row}")
            }
            MetricsError::NoLiveRobots => {
                write!(f, "no live robot left to read agreed totals from")
            }
        }
    }
}

impl Error for MetricsError {}

/// Edge-stretch statistics of a proposed relocation: for every initial
/// communication link `(i, j)`, the ratio `‖qᵢ − qⱼ‖ / ‖pᵢ − pⱼ‖`.
///
/// The harmonic map is "proved least-stretched" (paper Sec. II-B); these
/// statistics let that claim be measured against the baselines: a
/// method with smaller maximum stretch breaks fewer links for the same
/// communication range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchStats {
    /// Smallest link stretch (compression < 1).
    pub min: f64,
    /// Largest link stretch. Infinite when a coincident pair separates
    /// (`before == 0`, `after > 0`): such a link has unbounded stretch.
    pub max: f64,
    /// Mean link stretch over the non-degenerate links.
    pub mean: f64,
    /// Fraction of non-degenerate links with stretch ≤ 1.
    pub fraction_compressed: f64,
    /// Number of links measured (including degenerate ones).
    pub links: usize,
    /// Links whose robots start coincident (`before == 0`): stretch is
    /// undefined there, so they are excluded from `min`, `mean` and
    /// `fraction_compressed`; any such pair that separates forces
    /// `max = ∞`.
    pub degenerate: usize,
}

/// Measures the stretch of every initial link under the relocation
/// `positions[i] → targets[i]`.
///
/// Returns `Ok(None)` when the initial graph has no links. Coincident
/// robots (`before == 0`) are counted in [`StretchStats::degenerate`];
/// if any such pair separates, `max` is infinite (their stretch grows
/// without bound), never silently `1.0`.
///
/// # Errors
///
/// [`MetricsError`] when the slices disagree in length or `range <= 0`.
pub fn edge_stretch_stats(
    positions: &[Point],
    targets: &[Point],
    range: f64,
) -> Result<Option<StretchStats>, MetricsError> {
    if positions.len() != targets.len() {
        return Err(MetricsError::LengthMismatch {
            expected: positions.len(),
            got: targets.len(),
        });
    }
    if range.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MetricsError::NonPositiveRange { range });
    }
    let g = UnitDiskGraph::new(positions, range);
    let links = g.links();
    if links.is_empty() {
        return Ok(None);
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut sum = 0.0;
    let mut compressed = 0usize;
    let mut degenerate = 0usize;
    for &(i, j) in &links {
        let before = positions[i].distance(positions[j]);
        let after = targets[i].distance(targets[j]);
        if before > 0.0 {
            let stretch = after / before;
            min = min.min(stretch);
            max = max.max(stretch);
            sum += stretch;
            if stretch <= 1.0 {
                compressed += 1;
            }
        } else {
            degenerate += 1;
            if after > 0.0 {
                max = f64::INFINITY;
            }
        }
    }
    let finite = links.len() - degenerate;
    let (min, mean, fraction_compressed) = if finite > 0 {
        (min, sum / finite as f64, compressed as f64 / finite as f64)
    } else {
        (0.0, 0.0, 0.0)
    };
    Ok(Some(StretchStats {
        min,
        max,
        mean,
        fraction_compressed,
        links: links.len(),
        degenerate,
    }))
}

/// Metrics of one completed transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMetrics {
    /// Total moving distance `D = Σ dᵢ` over the whole relocation
    /// (transition leg plus coverage adjustment).
    pub total_distance: f64,
    /// Total stable link ratio `L` (Definition 1): the fraction of `M1`
    /// communication links that stayed within range at **every** instant
    /// of the piecewise-linear motion (exact, not sampled).
    pub stable_link_ratio: f64,
    /// Global connectivity `C` (Definition 2): 1 when the network was
    /// connected at every instant (certified by the continuous range-
    /// crossing sweep), else 0.
    pub global_connectivity: u8,
    /// Number of `M1` links that survived the whole transition.
    pub preserved_links: usize,
    /// Number of `M1` links (the denominator of `L`).
    pub initial_links: usize,
    /// Links present at the end that did not exist in `M1` ("red edges"
    /// in the paper's figures).
    pub new_links: usize,
    /// Rows of the dense timeline the march keeps for rendering
    /// ([`crate::MarchOutcome::timeline`]); the audit does not read them.
    pub samples: usize,
    /// Linear motion pieces the continuous audit covered: every robot's
    /// own pieces summed (knots − robots).
    pub audit_pieces: usize,
    /// Connectivity checks the audit performed: 1 when the preserved
    /// links alone certify `C = 1`, otherwise one per open interval
    /// between range-crossing events of pairs joining different
    /// components of the preserved links. Recorded per scenario by the
    /// pipeline bench.
    pub audit_checks: usize,
    /// Every broken `M1` link with its exact out-of-range interval, in
    /// link order (`initial_links - preserved_links` entries).
    pub violations: Vec<LinkViolation>,
}

/// Evaluates `L`, `C` and link counts over every robot's own motion.
///
/// `initial` is the unit-disk graph of the `M1` deployment — every
/// robot's first knot — whose links are the ones tracked; the audit
/// reads its range. Robots move **linearly** between their own knots,
/// and both metrics are evaluated exactly over that continuous motion
/// on the knots' time axis. `samples` is reported as-is (the row count
/// of the caller's dense rendering timeline), and `total_distance` is
/// **not** computed here — it depends on the exact paths — and must be
/// supplied by the caller.
///
/// The audit's spans and events go to `tracer`, followed by a
/// `new_links` span around the final graph; tracing changes no output.
///
/// # Errors
///
/// [`MetricsError::LengthMismatch`] when `initial` covers a different
/// number of robots than `knots`.
pub fn evaluate_timeline(
    knots: &KnotTimeline,
    initial: &UnitDiskGraph,
    samples: usize,
    total_distance: f64,
    tracer: &Tracer,
) -> Result<TransitionMetrics, MetricsError> {
    let report = audit_knots(knots, initial, 0, tracer)?;

    // New links: present in the final graph but not initially.
    let new_links = {
        let _s = tracer.span("new_links");
        UnitDiskGraph::new(&knots.final_positions(), initial.range())
            .links()
            .iter()
            .filter(|&&(i, j)| !initial.has_link(i, j))
            .count()
    };

    Ok(TransitionMetrics {
        total_distance,
        stable_link_ratio: report.stable_link_ratio,
        global_connectivity: report.global_connectivity,
        preserved_links: report.preserved_links,
        initial_links: report.initial_links,
        new_links,
        samples,
        audit_pieces: report.pieces,
        audit_checks: report.connectivity_checks,
        violations: report.violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Evaluates a dense timeline, row `k` at instant `k`.
    fn eval(rows: &[Vec<Point>], range: f64, d: f64) -> Result<TransitionMetrics, MetricsError> {
        let times: Vec<f64> = (0..rows.len()).map(|k| k as f64).collect();
        let knots = KnotTimeline::from_rows(rows, &times)?;
        let initial = UnitDiskGraph::new(&knots.initial_positions(), range);
        evaluate_timeline(&knots, &initial, rows.len(), d, &Tracer::disabled())
    }

    #[test]
    fn stationary_swarm_preserves_everything() {
        let row = vec![p(0.0, 0.0), p(50.0, 0.0), p(100.0, 0.0)];
        let timeline = vec![row.clone(), row.clone(), row];
        let m = eval(&timeline, 80.0, 0.0).unwrap();
        assert_eq!(m.stable_link_ratio, 1.0);
        assert_eq!(m.global_connectivity, 1);
        assert_eq!(m.preserved_links, 2);
        assert_eq!(m.initial_links, 2);
        assert_eq!(m.new_links, 0);
        // Each of the 3 robots has 2 pieces of its own.
        assert_eq!(m.audit_pieces, 6);
        assert!(m.audit_checks >= 1);
    }

    #[test]
    fn link_broken_mid_transition_counts_broken() {
        // Two robots drift apart then come back: the link is NOT stable
        // (e_ij requires e_ij(t) = 1 for all t).
        let timeline = vec![
            vec![p(0.0, 0.0), p(50.0, 0.0)],
            vec![p(0.0, 0.0), p(200.0, 0.0)],
            vec![p(0.0, 0.0), p(50.0, 0.0)],
        ];
        let m = eval(&timeline, 80.0, 300.0).unwrap();
        assert_eq!(m.stable_link_ratio, 0.0);
        assert_eq!(m.global_connectivity, 0);
        assert_eq!(m.total_distance, 300.0);
    }

    #[test]
    fn new_links_counted() {
        // Robots far apart come together: one new link appears.
        let timeline = vec![
            vec![p(0.0, 0.0), p(500.0, 0.0)],
            vec![p(0.0, 0.0), p(50.0, 0.0)],
        ];
        let m = eval(&timeline, 80.0, 450.0).unwrap();
        assert_eq!(m.initial_links, 0);
        assert_eq!(m.stable_link_ratio, 1.0); // vacuous: no links to lose
        assert_eq!(m.new_links, 1);
        assert_eq!(m.global_connectivity, 0); // started disconnected
    }

    #[test]
    fn partial_preservation() {
        // Three in a line; the end robot walks away, the other two hold.
        let timeline = vec![
            vec![p(0.0, 0.0), p(60.0, 0.0), p(120.0, 0.0)],
            vec![p(0.0, 0.0), p(60.0, 0.0), p(400.0, 0.0)],
        ];
        let m = eval(&timeline, 80.0, 280.0).unwrap();
        assert_eq!(m.initial_links, 2);
        assert_eq!(m.preserved_links, 1);
        assert!((m.stable_link_ratio - 0.5).abs() < 1e-12);
        assert_eq!(m.global_connectivity, 0);
    }

    #[test]
    fn rigid_translation_is_perfect() {
        let row0 = [p(0.0, 0.0), p(50.0, 0.0), p(25.0, 40.0)];
        let timeline: Vec<Vec<Point>> = (0..=10)
            .map(|k| {
                let dx = 100.0 * k as f64;
                row0.iter().map(|q| p(q.x + dx, q.y)).collect()
            })
            .collect();
        let m = eval(&timeline, 80.0, 3000.0).unwrap();
        assert_eq!(m.stable_link_ratio, 1.0);
        assert_eq!(m.global_connectivity, 1);
        assert_eq!(m.new_links, 0);
    }

    /// The sampled-instant bug, pinned from the metrics side: a link
    /// within range at every row would previously be counted stable even
    /// if the motion between rows pushed it out. With rows as true
    /// breakpoints the in-between excursion is part of the motion and
    /// must be caught exactly.
    #[test]
    fn excursion_between_rows_breaks_link_and_connectivity() {
        // Robot B's breakpoint row sits at 80.2 — between any uniform
        // sampling of the old evaluator, but an explicit breakpoint here.
        let timeline = vec![
            vec![p(0.0, 0.0), p(76.0, 0.0)],
            vec![p(0.0, 0.0), p(80.2, 0.0)],
            vec![p(0.0, 0.0), p(72.4, 0.0)],
        ];
        let m = eval(&timeline, 80.0, 12.0).unwrap();
        assert_eq!(m.preserved_links, 0);
        assert_eq!(m.global_connectivity, 0);
    }

    #[test]
    fn stretch_of_rigid_translation_is_one() {
        let from = vec![p(0.0, 0.0), p(50.0, 0.0), p(25.0, 40.0)];
        let to: Vec<Point> = from.iter().map(|q| p(q.x + 500.0, q.y)).collect();
        let s = edge_stretch_stats(&from, &to, 80.0).unwrap().unwrap();
        assert!((s.min - 1.0).abs() < 1e-9);
        assert!((s.max - 1.0).abs() < 1e-9);
        assert_eq!(s.fraction_compressed, 1.0);
        assert_eq!(s.links, 3);
        assert_eq!(s.degenerate, 0);
    }

    #[test]
    fn stretch_detects_expansion() {
        let from = vec![p(0.0, 0.0), p(50.0, 0.0)];
        let to = vec![p(0.0, 0.0), p(150.0, 0.0)];
        let s = edge_stretch_stats(&from, &to, 80.0).unwrap().unwrap();
        assert!((s.max - 3.0).abs() < 1e-9);
        assert_eq!(s.fraction_compressed, 0.0);
    }

    #[test]
    fn stretch_none_without_links() {
        let from = vec![p(0.0, 0.0), p(500.0, 0.0)];
        let to = from.clone();
        assert!(edge_stretch_stats(&from, &to, 80.0).unwrap().is_none());
    }

    /// Coincident robots whose targets separate used to report stretch
    /// 1.0 — as if nothing moved. Their stretch is unbounded.
    #[test]
    fn coincident_separating_pair_is_infinite_stretch() {
        let from = vec![p(0.0, 0.0), p(0.0, 0.0), p(50.0, 0.0)];
        let to = vec![p(0.0, 0.0), p(60.0, 0.0), p(50.0, 0.0)];
        let s = edge_stretch_stats(&from, &to, 80.0).unwrap().unwrap();
        assert!(s.max.is_infinite());
        // Links: (0,1) at d = 0 (degenerate), (0,2) and (1,2) at d = 50.
        assert_eq!(s.degenerate, 1);
        assert_eq!(s.links, 3);
        // Finite links are unaffected by the degenerate one:
        // (0,2) stays at 50 (stretch 1), (1,2) compresses 50 → 10.
        assert!((s.min - 0.2).abs() < 1e-9);
    }

    #[test]
    fn coincident_staying_pair_counts_degenerate_without_infinity() {
        let from = vec![p(0.0, 0.0), p(0.0, 0.0)];
        let to = vec![p(30.0, 0.0), p(30.0, 0.0)];
        let s = edge_stretch_stats(&from, &to, 80.0).unwrap().unwrap();
        assert_eq!(s.degenerate, 1);
        assert_eq!(s.links, 1);
        assert!(!s.max.is_infinite());
        // No finite links: aggregate stats are zeroed, not NaN.
        assert_eq!(s.mean, 0.0);
        assert!(s.min == 0.0 && s.fraction_compressed == 0.0);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let a = vec![p(0.0, 0.0)];
        let b = vec![p(0.0, 0.0), p(1.0, 0.0)];
        assert!(matches!(
            edge_stretch_stats(&a, &b, 80.0),
            Err(MetricsError::LengthMismatch {
                expected: 1,
                got: 2
            })
        ));
        assert!(matches!(
            edge_stretch_stats(&a, &a, 0.0),
            Err(MetricsError::NonPositiveRange { .. })
        ));
        assert!(matches!(
            eval(&[], 80.0, 0.0),
            Err(MetricsError::EmptyTimeline)
        ));
        assert!(matches!(
            eval(&[a.clone(), vec![]], 80.0, 0.0),
            Err(MetricsError::RaggedTimeline { .. })
        ));
        assert!(matches!(
            eval(&[vec![p(f64::NAN, 0.0)]], 80.0, 0.0),
            Err(MetricsError::NonFinitePosition { row: 0, robot: 0 })
        ));
        let knots = KnotTimeline::from_rows(std::slice::from_ref(&a), &[0.0]).unwrap();
        assert!(matches!(
            evaluate_timeline(
                &knots,
                &UnitDiskGraph::new(&b, 80.0),
                1,
                0.0,
                &Tracer::disabled()
            ),
            Err(MetricsError::LengthMismatch { .. })
        ));
        // Errors render a user-facing message.
        let msg = MetricsError::NonPositiveRange { range: -1.0 }.to_string();
        assert!(msg.contains("positive"));
    }

    #[test]
    fn samples_counted() {
        let row = vec![p(0.0, 0.0)];
        let m = eval(&[row.clone(), row.clone(), row.clone()], 10.0, 0.0).unwrap();
        assert_eq!(m.samples, 3);
        assert_eq!(m.stable_link_ratio, 1.0); // no links at all
        assert_eq!(m.audit_pieces, 2);

        let m = eval(&[row], 10.0, 0.0).unwrap();
        assert_eq!(m.audit_pieces, 0);
        assert_eq!(m.audit_checks, 1);
    }
}
