//! Each robot's own motion breakpoints — its *knots* — on one shared
//! time axis.
//!
//! Under Eqn. 2 a robot moves in straight lines between its own
//! waypoints, so its motion is fully described by the instants where it
//! turns and its positions there. The march's time axis `s` runs the
//! transition over `s ∈ [0, 1]` (a robot's waypoint sits at
//! `s = arclength / length`) and Lloyd iteration `k` over `[k, k + 1]`,
//! ending on the iterate at `s = 1 + k`. Every instant a robot does not
//! list lies on the straight piece between its neighbouring knots.
//!
//! The continuous audit walks each pair of robots over the merge of
//! their two knot lists, so its cost follows what the robots do, not
//! `robots × (every robot's breakpoints)` as a dense timeline's does.

use crate::metrics::MetricsError;
use crate::trajectory::TrajectorySet;
use anr_geom::Point;
use std::cmp::Ordering;

/// Every robot's knots, packed CSR-style: robot `i`'s instants are
/// `s[offsets[i]..offsets[i + 1]]`, with its positions at the same
/// indices of `points`.
///
/// Invariants (checked by every constructor): each robot has at least
/// one knot, its instants are finite and strictly increasing, all
/// robots start at the first shared instant, end at the last and knot
/// exactly at every one in between, and every position is finite.
#[derive(Debug, Clone, PartialEq)]
pub struct KnotTimeline {
    offsets: Vec<usize>,
    s: Vec<f64>,
    points: Vec<Point>,
    /// Instants where every robot has a knot (an instant equal to one of
    /// its own), the bounds included: the transition's ends and each
    /// Lloyd iterate, or every dense row.
    shared: Vec<f64>,
}

impl KnotTimeline {
    /// The knots of a march: each robot's transition waypoints at
    /// `s = arclength / length`, then its Lloyd iterates, `lloyd[k - 1]`
    /// at `s = 1 + k`. A zero-length path gets knots at `s = 0` and
    /// `s = 1`; waypoints at one instant (a zero-length segment) keep the
    /// last, the position the robot holds from then on.
    ///
    /// # Errors
    ///
    /// [`MetricsError::RaggedTimeline`] when a Lloyd row (numbered from
    /// 1 after the transition) covers a different number of robots,
    /// [`MetricsError::NonFinitePosition`] naming the robot and the
    /// index of its offending knot, and
    /// [`MetricsError::NonMonotonicTimes`] naming a robot whose path
    /// length is not finite.
    pub fn from_trajectories(
        set: &TrajectorySet,
        lloyd: &[Vec<Point>],
    ) -> Result<Self, MetricsError> {
        let n = set.len();
        if let Some((k, row)) = lloyd.iter().enumerate().find(|(_, r)| r.len() != n) {
            return Err(MetricsError::RaggedTimeline {
                row: k + 1,
                got: row.len(),
                expected: n,
            });
        }
        let knots: usize = set.paths().iter().map(|p| p.waypoints().len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut s = Vec::with_capacity(knots + n * (lloyd.len() + 1));
        let mut points = Vec::with_capacity(s.capacity());
        offsets.push(0);
        for (i, path) in set.paths().iter().enumerate() {
            let first = s.len();
            let waypoints = path.waypoints();
            if let Some(k) = waypoints.iter().position(|p| !p.is_finite()) {
                return Err(MetricsError::NonFinitePosition { row: k, robot: i });
            }
            if path.length() > 0.0 {
                for (&t, &p) in path.breakpoints().iter().zip(waypoints) {
                    if s.len() > first && s.last() == Some(&t) {
                        s.pop();
                        points.pop();
                    }
                    s.push(t);
                    points.push(p);
                }
            } else {
                s.extend([0.0, 1.0]);
                points.extend([waypoints[0]; 2]);
            }
            for (k, row) in lloyd.iter().enumerate() {
                s.push(2.0 + k as f64);
                points.push(row[i]);
            }
            offsets.push(s.len());
        }
        let shared = (0..=lloyd.len()).map(|k| 1.0 + k as f64);
        Self::checked(
            offsets,
            s,
            points,
            std::iter::once(0.0).chain(shared).collect(),
        )
    }

    /// The knots of a dense timeline: `rows[k]` holds every robot's
    /// position at `times[k]`, so every robot knots at every row (a
    /// single row is a single instant with no motion).
    ///
    /// # Errors
    ///
    /// [`MetricsError`] on an empty or ragged timeline, mismatched or
    /// non-increasing `times`, or non-finite positions.
    pub fn from_rows(rows: &[Vec<Point>], times: &[f64]) -> Result<Self, MetricsError> {
        Self::validate_rows(rows, times)?;
        let n = rows[0].len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut s = Vec::with_capacity(n * rows.len());
        let mut points = Vec::with_capacity(n * rows.len());
        offsets.push(0);
        for i in 0..n {
            s.extend_from_slice(times);
            points.extend(rows.iter().map(|row| row[i]));
            offsets.push(s.len());
        }
        Self::checked(offsets, s, points, times.to_vec())
    }

    /// Checks a dense timeline: at least one row, one instant per row,
    /// every row covering row 0's robots with finite positions, and
    /// finite strictly increasing instants.
    fn validate_rows(rows: &[Vec<Point>], times: &[f64]) -> Result<(), MetricsError> {
        if rows.is_empty() {
            return Err(MetricsError::EmptyTimeline);
        }
        if times.len() != rows.len() {
            return Err(MetricsError::LengthMismatch {
                expected: rows.len(),
                got: times.len(),
            });
        }
        let n = rows[0].len();
        for (k, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(MetricsError::RaggedTimeline {
                    row: k,
                    got: row.len(),
                    expected: n,
                });
            }
            if let Some(robot) = row.iter().position(|p| !p.is_finite()) {
                return Err(MetricsError::NonFinitePosition { row: k, robot });
            }
        }
        if let Some(idx) = times
            .windows(2)
            .position(|w| w[1].partial_cmp(&w[0]) != Some(Ordering::Greater))
        {
            return Err(MetricsError::NonMonotonicTimes { index: idx + 1 });
        }
        if times.iter().any(|t| !t.is_finite()) {
            return Err(MetricsError::NonMonotonicTimes { index: 0 });
        }
        Ok(())
    }

    fn checked(
        offsets: Vec<usize>,
        s: Vec<f64>,
        points: Vec<Point>,
        shared: Vec<f64>,
    ) -> Result<Self, MetricsError> {
        let bounds = (shared[0], shared[shared.len() - 1]);
        for (robot, w) in offsets.windows(2).enumerate() {
            let (ks, ps) = (&s[w[0]..w[1]], &points[w[0]..w[1]]);
            if let Some(k) = ps.iter().position(|p| !p.is_finite()) {
                return Err(MetricsError::NonFinitePosition { row: k, robot });
            }
            let increasing = ks
                .windows(2)
                .all(|t| t[1].partial_cmp(&t[0]) == Some(Ordering::Greater));
            // Both lists increase, so this counts the shared instants the
            // robot knots at, in order.
            let at_shared = ks
                .iter()
                .fold(0, |m, &t| m + usize::from(shared.get(m) == Some(&t)));
            if !increasing
                || ks.first() != Some(&bounds.0)
                || ks.last() != Some(&bounds.1)
                || at_shared != shared.len()
            {
                return Err(MetricsError::NonMonotonicTimes { index: robot });
            }
        }
        Ok(KnotTimeline {
            offsets,
            s,
            points,
            shared,
        })
    }

    /// Number of robots.
    #[must_use]
    pub fn robots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total knots over all robots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True when there are no robots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// The first and last instant, shared by every robot.
    #[must_use]
    pub fn bounds(&self) -> (f64, f64) {
        (self.shared[0], self.shared[self.shared.len() - 1])
    }

    /// The instants where every robot has a knot, the bounds included:
    /// each one equals one of every robot's own instants exactly, which
    /// the audit's gallop relies on to land each robot on its knot.
    pub(crate) fn shared(&self) -> &[f64] {
        &self.shared
    }

    /// Offset of robot `i`'s first knot in the packed arrays, so
    /// per-knot data can sit in one array aligned with them.
    pub(crate) fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Robot `i`'s knot instants and its positions there.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.robots()`.
    #[must_use]
    pub(crate) fn knots(&self, i: usize) -> (&[f64], &[Point]) {
        let (a, b) = (self.offsets[i], self.offsets[i + 1]);
        (&self.s[a..b], &self.points[a..b])
    }

    /// Every robot's position at its first knot.
    #[cfg(test)]
    pub(crate) fn initial_positions(&self) -> Vec<Point> {
        self.offsets[..self.robots()]
            .iter()
            .map(|&a| self.points[a])
            .collect()
    }

    /// Every robot's position at its last knot.
    #[must_use]
    pub(crate) fn final_positions(&self) -> Vec<Point> {
        self.offsets[1..]
            .iter()
            .map(|&b| self.points[b - 1])
            .collect()
    }

    /// Robot `i`'s position at instant `t`: its knot there, or the point
    /// on the straight piece between its neighbouring knots (clamped to
    /// the first and last knot outside the bounds).
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.robots()`.
    #[must_use]
    pub(crate) fn position_at(&self, i: usize, t: f64) -> Point {
        let (s, p) = self.knots(i);
        let k = s.partition_point(|&x| x <= t);
        if k == 0 {
            return p[0];
        }
        if k == s.len() || s[k - 1] == t {
            return p[k - 1];
        }
        lerp_piece(s, p, k - 1, t)
    }
}

/// The position on piece `k` (`s[k] ≤ t < s[k + 1]`) at `t`.
pub(crate) fn lerp_piece(s: &[f64], p: &[Point], k: usize, t: f64) -> Point {
    p[k].lerp(p[k + 1], (t - s[k]) / (s[k + 1] - s[k]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Polyline;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn trajectories_knot_at_their_waypoints_then_at_each_lloyd_iterate() {
        let set = TrajectorySet::new(vec![
            Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 30.0)]),
            Polyline::stationary(p(5.0, 5.0)),
            // A zero-length segment: both waypoints sit at s = 0.25.
            Polyline::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 0.0), p(4.0, 0.0)]),
        ]);
        let lloyd = vec![
            vec![p(10.0, 31.0), p(5.0, 6.0), p(4.0, 1.0)],
            vec![p(10.0, 32.0), p(5.0, 7.0), p(4.0, 2.0)],
        ];
        let k = KnotTimeline::from_trajectories(&set, &lloyd).unwrap();
        assert_eq!(k.robots(), 3);
        assert_eq!(k.bounds(), (0.0, 3.0));
        assert_eq!(k.knots(0).0, &[0.0, 0.25, 1.0, 2.0, 3.0]);
        assert_eq!(k.knots(0).1[1], p(10.0, 0.0));
        // A stationary robot still spans the transition.
        assert_eq!(k.knots(1).0, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(k.knots(1).1[..2], [p(5.0, 5.0); 2]);
        assert_eq!(k.knots(2).0, &[0.0, 0.25, 1.0, 2.0, 3.0]);
        assert_eq!(k.len(), 14);
        assert_eq!(
            k.initial_positions(),
            vec![p(0.0, 0.0), p(5.0, 5.0), p(0.0, 0.0)]
        );
        assert_eq!(k.final_positions(), lloyd[1]);
        // Between knots a robot is on its straight piece.
        assert_eq!(k.position_at(0, 0.625), p(10.0, 15.0));
        assert_eq!(k.position_at(1, 2.5), p(5.0, 6.5));
        assert_eq!(k.position_at(0, 9.0), p(10.0, 32.0));
    }

    #[test]
    fn rows_knot_every_robot_at_every_row() {
        let rows = vec![
            vec![p(0.0, 0.0), p(1.0, 1.0)],
            vec![p(2.0, 0.0), p(1.0, 3.0)],
        ];
        let k = KnotTimeline::from_rows(&rows, &[0.5, 0.75]).unwrap();
        assert_eq!(k.bounds(), (0.5, 0.75));
        assert_eq!(
            k.knots(1),
            (&[0.5, 0.75][..], &[p(1.0, 1.0), p(1.0, 3.0)][..])
        );
        let one = KnotTimeline::from_rows(&rows[..1], &[0.0]).unwrap();
        assert_eq!(one.knots(0).0, &[0.0]);
        assert_eq!(one.final_positions(), rows[0]);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let row = vec![p(0.0, 0.0)];
        assert!(matches!(
            KnotTimeline::from_rows(&[], &[]),
            Err(MetricsError::EmptyTimeline)
        ));
        assert!(matches!(
            KnotTimeline::from_rows(&[row.clone(), vec![]], &[0.0, 1.0]),
            Err(MetricsError::RaggedTimeline { row: 1, .. })
        ));
        assert!(matches!(
            KnotTimeline::from_rows(&[row.clone(), row.clone()], &[0.0]),
            Err(MetricsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            KnotTimeline::from_rows(&[row.clone(), row.clone()], &[0.5, 0.5]),
            Err(MetricsError::NonMonotonicTimes { .. })
        ));
        assert!(matches!(
            KnotTimeline::from_rows(&[vec![p(f64::NAN, 0.0)]], &[0.0]),
            Err(MetricsError::NonFinitePosition { row: 0, robot: 0 })
        ));
        let set = TrajectorySet::new(vec![Polyline::new(vec![p(0.0, 0.0), p(f64::NAN, 1.0)])]);
        assert!(matches!(
            KnotTimeline::from_trajectories(&set, &[]),
            Err(MetricsError::NonFinitePosition { row: 1, robot: 0 })
        ));
        let set = TrajectorySet::new(vec![Polyline::stationary(p(0.0, 0.0))]);
        assert!(matches!(
            KnotTimeline::from_trajectories(&set, &[vec![]]),
            Err(MetricsError::RaggedTimeline { row: 1, .. })
        ));
        // Robot 0 skips the shared instant 1.
        let skips = KnotTimeline::checked(
            vec![0, 2, 5],
            vec![0.0, 2.0, 0.0, 1.0, 2.0],
            vec![p(0.0, 0.0); 5],
            vec![0.0, 1.0, 2.0],
        );
        assert!(matches!(
            skips,
            Err(MetricsError::NonMonotonicTimes { index: 0 })
        ));
    }
}
