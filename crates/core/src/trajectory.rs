//! Robot trajectories: constant-speed polylines with hole avoidance.
//!
//! The transition path of a robot is a straight line from its `M1`
//! position to its mapped `M2` position (paper Eqn. 2). When the straight
//! line crosses a forbidden region, "the robot goes along the boundary
//! until it can follow its computed moving path again" (Sec. III-D-3);
//! [`route_around_obstacles`] computes that detour.

use anr_geom::{Point, Polygon, Segment};
use std::ops::Deref;
use std::sync::OnceLock;

/// A constant-speed polyline path, parameterized by normalized time
/// `s ∈ [0, 1]` (all robots depart at `s = 0` and arrive at `s = 1`,
/// matching the synchronized linear motion of Eqn. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    waypoints: Vec<Point>,
    /// Cumulative arclength at each waypoint.
    cumulative: Vec<f64>,
}

impl Polyline {
    /// Creates a path through `waypoints` (at least one).
    ///
    /// # Panics
    ///
    /// Panics when `waypoints` is empty.
    pub fn new(waypoints: Vec<Point>) -> Self {
        assert!(!waypoints.is_empty(), "a path needs at least one waypoint");
        let mut cumulative = Vec::with_capacity(waypoints.len());
        let mut acc = 0.0;
        cumulative.push(0.0);
        for w in waypoints.windows(2) {
            acc += w[0].distance(w[1]);
            cumulative.push(acc);
        }
        Polyline {
            waypoints,
            cumulative,
        }
    }

    /// A stationary path.
    pub fn stationary(p: Point) -> Self {
        Polyline::new(vec![p])
    }

    /// The waypoints.
    #[inline]
    pub fn waypoints(&self) -> &[Point] {
        &self.waypoints
    }

    /// Total path length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// Start point.
    #[inline]
    pub fn start(&self) -> Point {
        self.waypoints[0]
    }

    /// End point.
    #[inline]
    pub fn end(&self) -> Point {
        self.waypoints.last().copied().unwrap_or(Point::ORIGIN)
    }

    /// Position at normalized time `s ∈ [0, 1]` (constant speed along
    /// the path; clamped outside the range).
    pub fn position_at(&self, s: f64) -> Point {
        self.position_at_cursor(&mut 0, s)
    }

    /// [`Polyline::position_at`] with a cursor: `idx` is the segment the
    /// previous query ended on (0 to start). The cursor only ever lags
    /// for non-decreasing times, so a monotone sequence of queries walks
    /// the cumulative-length table once; a decreasing time restarts the
    /// scan from segment 0. The result depends only on `s`, whatever
    /// segment the cursor starts from at or before it.
    fn position_at_cursor(&self, idx: &mut usize, s: f64) -> Point {
        let len = self.length();
        let m = self.waypoints.len();
        if len == 0.0 {
            return self.waypoints[0];
        }
        let target = s.clamp(0.0, 1.0) * len;
        if self.cumulative[*idx] > target {
            *idx = 0;
        }
        while *idx + 1 < m && self.cumulative[*idx + 1] <= target {
            *idx += 1;
        }
        if *idx + 1 >= m {
            return self.end();
        }
        let seg_len = self.cumulative[*idx + 1] - self.cumulative[*idx];
        if seg_len <= 0.0 {
            return self.waypoints[*idx];
        }
        let t = (target - self.cumulative[*idx]) / seg_len;
        self.waypoints[*idx].lerp(self.waypoints[*idx + 1], t)
    }

    /// Normalized times `s` of the waypoints — the breakpoints of the
    /// piecewise-linear motion. Between consecutive breakpoints the
    /// robot moves along a single straight segment, so any per-instant
    /// property that is convex along a segment (inter-robot distance in
    /// particular) attains its extremes at these instants.
    ///
    /// A zero-length path reports a single breakpoint at `0.0`.
    pub fn breakpoints(&self) -> Vec<f64> {
        let len = self.length();
        if len <= 0.0 {
            return vec![0.0];
        }
        self.cumulative.iter().map(|c| c / len).collect()
    }
}

/// The synchronized trajectories of a whole swarm.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySet {
    paths: Vec<Polyline>,
}

impl TrajectorySet {
    /// Creates a set from per-robot paths.
    pub fn new(paths: Vec<Polyline>) -> Self {
        TrajectorySet { paths }
    }

    /// Builds straight-line paths `from[i] → to[i]`, detouring around
    /// `obstacles`.
    ///
    /// # Panics
    ///
    /// Panics when `from.len() != to.len()`.
    pub fn straight(from: &[Point], to: &[Point], obstacles: &[Polygon]) -> Self {
        assert_eq!(from.len(), to.len(), "endpoint lists must match");
        let paths = from
            .iter()
            .zip(to)
            .map(|(&a, &b)| Polyline::new(route_around_obstacles(a, b, obstacles)))
            .collect();
        TrajectorySet { paths }
    }

    /// Number of robots.
    #[inline]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Per-robot paths.
    #[inline]
    pub fn paths(&self) -> &[Polyline] {
        &self.paths
    }

    /// Sum of all path lengths — the total moving distance `D` of the
    /// transition leg.
    pub fn total_length(&self) -> f64 {
        self.paths.iter().map(Polyline::length).sum()
    }

    /// All robot positions at normalized time `s ∈ [0, 1]`.
    pub fn positions_at(&self, s: f64) -> Vec<Point> {
        self.paths.iter().map(|p| p.position_at(s)).collect()
    }

    /// All robot positions at each of the given normalized `times`.
    ///
    /// The times are sampled in blocks of rows fanned out over worker
    /// threads: each path walks one cursor down its block, writing
    /// straight into the rows, so no robot-major copy of the timeline is
    /// ever held. Sorted time lists (the common case —
    /// [`TrajectorySet::breakpoints`] and
    /// [`TrajectorySet::sample_times_with_breakpoints`] are sorted) walk
    /// each path's segments once per block. The rows are bit-identical to
    /// [`TrajectorySet::positions_at`] per time at any worker count.
    pub fn sample_at(&self, times: &[f64]) -> Vec<Vec<Point>> {
        self.sample_rows(times, 0)
    }

    /// [`TrajectorySet::sample_at`] on `workers` threads (0 = auto).
    fn sample_rows(&self, times: &[f64], workers: usize) -> Vec<Vec<Point>> {
        let blocks = anr_par::par_chunks(times, 32, workers, |block| {
            let mut rows: Vec<Vec<Point>> = (0..block.len())
                .map(|_| Vec::with_capacity(self.paths.len()))
                .collect();
            for path in &self.paths {
                let mut idx = 0;
                for (row, &s) in rows.iter_mut().zip(block) {
                    row.push(path.position_at_cursor(&mut idx, s));
                }
            }
            rows
        });
        blocks.into_iter().flatten().collect()
    }

    /// The union of every path's waypoint instants — sorted, deduped,
    /// always containing `0.0` and `1.0`. Between consecutive entries
    /// **every** robot moves along one straight segment, which is what
    /// makes the closed-form distance-extremum audit exact.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut times = vec![0.0, 1.0];
        for path in &self.paths {
            times.extend(path.breakpoints());
        }
        times.sort_by(f64::total_cmp);
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        times
    }

    /// `samples + 1` uniform instants **augmented with every trajectory
    /// breakpoint**: a timeline sampled at these times is genuinely
    /// piecewise-linear row-to-row, so rendering it draws the true paths
    /// and an audit of its rows ([`crate::KnotTimeline::from_rows`]) is
    /// exact. The uniform instants keep the timeline's visual resolution
    /// for rendering.
    ///
    /// # Panics
    ///
    /// Panics when `samples == 0`.
    pub fn sample_times_with_breakpoints(&self, samples: usize) -> Vec<f64> {
        assert!(samples > 0, "need at least one sample interval");
        let mut times = self.breakpoints();
        times.extend((0..=samples).map(|k| k as f64 / samples as f64));
        times.sort_by(f64::total_cmp);
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        times
    }
}

/// The dense rendering timeline of a march: every robot at each of the
/// transition's [`TrajectorySet::sample_times_with_breakpoints`], then
/// one row per Lloyd iterate.
///
/// It stores only the paths, the instants and the Lloyd rows. The rows
/// are built once, on the first read through `Deref` (the way
/// [`std::sync::LazyLock`] derefs), with [`TrajectorySet::sample_at`];
/// [`DenseTimeline::len`] counts them without building any. The rows
/// cost O(robots × rows) and grow with every hole detour, while the
/// paths cost O(robots × waypoints), so a march that nobody renders
/// never pays for them.
#[derive(Debug, Clone)]
pub struct DenseTimeline {
    paths: TrajectorySet,
    times: Vec<f64>,
    lloyd: Vec<Vec<Point>>,
    rows: OnceLock<Vec<Vec<Point>>>,
}

impl DenseTimeline {
    /// The timeline of `transition` at `samples` uniform intervals plus
    /// its breakpoints, followed by the `lloyd` rows.
    ///
    /// # Panics
    ///
    /// Panics when `samples == 0`.
    pub(crate) fn new(transition: &TrajectorySet, samples: usize, lloyd: Vec<Vec<Point>>) -> Self {
        DenseTimeline {
            paths: transition.clone(),
            times: transition.sample_times_with_breakpoints(samples),
            lloyd,
            rows: OnceLock::new(),
        }
    }

    /// Number of rows; builds none.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len() + self.lloyd.len()
    }

    /// True when the timeline has no rows; builds none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for DenseTimeline {
    type Target = [Vec<Point>];

    fn deref(&self) -> &[Vec<Point>] {
        self.rows.get_or_init(|| {
            let mut rows = self.paths.sample_at(&self.times);
            rows.extend(self.lloyd.iter().cloned());
            rows
        })
    }
}

impl PartialEq for DenseTimeline {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Computes a path `a → b` detouring around the `obstacles` that the
/// straight segment would cross (Sec. III-D-3: follow the hole boundary
/// until the straight path is clear again).
///
/// The detour follows the crossed obstacle's boundary in whichever
/// direction is shorter, with waypoints pushed slightly outward so the
/// path never grazes the obstacle interior. Handles multiple obstacles
/// sequentially (up to a small recursion depth — FoI scenarios cross at
/// most a few holes).
pub fn route_around_obstacles(a: Point, b: Point, obstacles: &[Polygon]) -> Vec<Point> {
    let mut waypoints = route_recursive(a, b, obstacles, 8);
    // Drop consecutive duplicates introduced by tangent touches.
    waypoints.dedup_by(|x, y| x.distance(*y) < 1e-9);
    waypoints
}

fn route_recursive(a: Point, b: Point, obstacles: &[Polygon], depth: usize) -> Vec<Point> {
    if depth == 0 {
        return vec![a, b];
    }
    let seg = Segment::new(a, b);

    // Find the obstacle crossed first (nearest entry along the segment).
    let mut first: Option<(usize, f64, f64)> = None; // (obstacle, t_in, t_out)
    for (oi, obs) in obstacles.iter().enumerate() {
        let mut ts: Vec<f64> = Vec::new();
        for e in obs.edges() {
            if let Some(x) = seg.intersection(e) {
                let t = if (b - a).norm() > 0.0 {
                    (x - a).dot(b - a) / (b - a).norm_sq()
                } else {
                    0.0
                };
                ts.push(t.clamp(0.0, 1.0));
            }
        }
        // Also catch segments that start or end inside the obstacle.
        if obs.contains_strict(a) {
            ts.push(0.0);
        }
        if obs.contains_strict(b) {
            ts.push(1.0);
        }
        if ts.len() >= 2 {
            let t_in = ts.iter().copied().fold(f64::INFINITY, f64::min);
            let t_out = ts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            // Ignore grazing touches.
            if t_out - t_in > 1e-9 && seg.at(0.5 * (t_in + t_out)).distance(a) > 0.0 {
                let mid = seg.at(0.5 * (t_in + t_out));
                if obs.contains_strict(mid) {
                    match first {
                        Some((_, bt, _)) if bt <= t_in => {}
                        _ => first = Some((oi, t_in, t_out)),
                    }
                }
            }
        }
    }

    let (oi, t_in, t_out) = match first {
        Some(f) => f,
        None => return vec![a, b],
    };
    let obs = &obstacles[oi];
    let entry = seg.at(t_in);
    let exit = seg.at(t_out);

    // Walk the obstacle boundary between the entry and exit points in
    // both directions; keep the shorter walk.
    let detour = boundary_walk(obs, entry, exit);

    let mut out = vec![a];
    out.extend(detour);
    // Continue past the obstacle toward b (there may be more obstacles).
    let rest = route_recursive(exit_offset(obs, exit), b, obstacles, depth - 1);
    out.extend(rest);
    out
}

/// Pushes `p` slightly outward from the obstacle so subsequent segments
/// do not re-enter it numerically.
fn exit_offset(obs: &Polygon, p: Point) -> Point {
    let c = obs.centroid();
    let v = p - c;
    if v.norm() == 0.0 {
        return p;
    }
    p + v.normalized() * (obs.bbox().diagonal() * 1e-6)
}

/// The shorter boundary walk from `entry` to `exit`, with waypoints
/// pushed slightly outward.
fn boundary_walk(obs: &Polygon, entry: Point, exit: Point) -> Vec<Point> {
    let verts = obs.vertices();
    let n = verts.len();

    // Edge index whose segment contains a point (the closest edge).
    let edge_of = |p: Point| -> usize {
        (0..n)
            .min_by(|&i, &j| {
                let di = Segment::new(verts[i], verts[(i + 1) % n]).distance_to_point(p);
                let dj = Segment::new(verts[j], verts[(j + 1) % n]).distance_to_point(p);
                di.total_cmp(&dj)
            })
            .unwrap_or(0)
    };
    let e_in = edge_of(entry);
    let e_out = edge_of(exit);

    let push = |p: Point| exit_offset(obs, p);

    // Forward walk: entry → verts[e_in+1] → ... → verts[e_out] → exit.
    let mut forward = vec![push(entry)];
    {
        let mut k = (e_in + 1) % n;
        loop {
            forward.push(push(verts[k]));
            if k == e_out {
                break;
            }
            // entry and exit may share an edge.
            if forward.len() > n + 2 {
                break;
            }
            k = (k + 1) % n;
        }
        if e_in == e_out {
            forward = vec![push(entry)];
        }
        forward.push(push(exit));
    }

    // Backward walk: entry → verts[e_in] → verts[e_in−1] → ... →
    // verts[e_out+1] → exit.
    let mut backward = vec![push(entry)];
    {
        let mut k = e_in;
        loop {
            backward.push(push(verts[k]));
            if k == (e_out + 1) % n {
                break;
            }
            if backward.len() > n + 2 {
                break;
            }
            k = (k + n - 1) % n;
        }
        if e_in == e_out {
            backward = vec![push(entry)];
        }
        backward.push(push(exit));
    }

    let len = |pts: &[Point]| -> f64 { pts.windows(2).map(|w| w[0].distance(w[1])).sum() };
    if len(&forward) <= len(&backward) {
        forward
    } else {
        backward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn polyline_length_and_positions() {
        let path = Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0)]);
        assert_eq!(path.length(), 20.0);
        assert_eq!(path.position_at(0.0), p(0.0, 0.0));
        assert_eq!(path.position_at(0.25), p(5.0, 0.0));
        assert_eq!(path.position_at(0.5), p(10.0, 0.0));
        assert_eq!(path.position_at(0.75), p(10.0, 5.0));
        assert_eq!(path.position_at(1.0), p(10.0, 10.0));
    }

    #[test]
    fn polyline_clamps_time() {
        let path = Polyline::new(vec![p(0.0, 0.0), p(4.0, 0.0)]);
        assert_eq!(path.position_at(-1.0), p(0.0, 0.0));
        assert_eq!(path.position_at(2.0), p(4.0, 0.0));
    }

    #[test]
    fn stationary_path() {
        let path = Polyline::stationary(p(3.0, 3.0));
        assert_eq!(path.length(), 0.0);
        assert_eq!(path.position_at(0.5), p(3.0, 3.0));
    }

    #[test]
    fn straight_route_without_obstacles() {
        let route = route_around_obstacles(p(0.0, 0.0), p(10.0, 0.0), &[]);
        assert_eq!(route, vec![p(0.0, 0.0), p(10.0, 0.0)]);
    }

    #[test]
    fn route_detours_around_square() {
        let obs = Polygon::rectangle(p(4.0, -2.0), 2.0, 4.0);
        let route = route_around_obstacles(p(0.0, 0.0), p(10.0, 0.0), std::slice::from_ref(&obs));
        assert!(route.len() > 2, "no detour: {route:?}");
        // Path avoids the obstacle interior at every sampled position.
        let path = Polyline::new(route);
        for k in 0..=200 {
            let q = path.position_at(k as f64 / 200.0);
            assert!(
                !obs.contains_strict(q) || obs.distance_to_boundary(q) < 1e-4,
                "path enters obstacle at {q}"
            );
        }
        // Detour costs more than the straight line but not absurdly more.
        assert!(path.length() >= 10.0);
        assert!(path.length() < 10.0 + obs.perimeter());
    }

    #[test]
    fn route_takes_shorter_side() {
        // Obstacle offset downward: the shorter detour goes over the top.
        let obs = Polygon::new(vec![p(4.0, -8.0), p(6.0, -8.0), p(6.0, 1.0), p(4.0, 1.0)]).unwrap();
        let route = route_around_obstacles(p(0.0, 0.0), p(10.0, 0.0), &[obs]);
        let max_y = route.iter().map(|q| q.y).fold(f64::NEG_INFINITY, f64::max);
        let min_y = route.iter().map(|q| q.y).fold(f64::INFINITY, f64::min);
        assert!(max_y > 0.5, "did not go over the top: {route:?}");
        assert!(min_y > -5.0, "went the long way: {route:?}");
    }

    #[test]
    fn route_handles_two_obstacles() {
        let o1 = Polygon::rectangle(p(2.0, -1.0), 1.0, 2.0);
        let o2 = Polygon::rectangle(p(6.0, -1.0), 1.0, 2.0);
        let route = route_around_obstacles(p(0.0, 0.0), p(10.0, 0.0), &[o1.clone(), o2.clone()]);
        let path = Polyline::new(route);
        for k in 0..=300 {
            let q = path.position_at(k as f64 / 300.0);
            for obs in [&o1, &o2] {
                assert!(
                    !obs.contains_strict(q) || obs.distance_to_boundary(q) < 1e-4,
                    "path enters obstacle at {q}"
                );
            }
        }
    }

    #[test]
    fn route_detours_around_concave_flower() {
        // A five-petal flower obstacle (the paper's pond shape): the
        // detour must stay out of the obstacle interior even though the
        // boundary walk passes concave notches.
        let verts: Vec<Point> = (0..40)
            .map(|i| {
                let theta = std::f64::consts::TAU * i as f64 / 40.0;
                let r = 3.0 * (1.0 + 0.35 * (5.0 * theta).cos());
                p(5.0 + r * theta.cos(), r * theta.sin())
            })
            .collect();
        let obs = Polygon::new(verts).unwrap();
        let route = route_around_obstacles(p(-2.0, 0.0), p(12.0, 0.0), std::slice::from_ref(&obs));
        assert!(route.len() > 2);
        let path = Polyline::new(route);
        for k in 0..=400 {
            let q = path.position_at(k as f64 / 400.0);
            assert!(
                !obs.contains_strict(q) || obs.distance_to_boundary(q) < 1e-3,
                "path enters flower at {q}"
            );
        }
    }

    #[test]
    fn untouched_obstacles_do_not_detour() {
        let obs = Polygon::rectangle(p(4.0, 5.0), 2.0, 2.0);
        let route = route_around_obstacles(p(0.0, 0.0), p(10.0, 0.0), &[obs]);
        assert_eq!(route.len(), 2);
    }

    #[test]
    fn trajectory_set_sampling() {
        let set = TrajectorySet::straight(
            &[p(0.0, 0.0), p(0.0, 10.0)],
            &[p(10.0, 0.0), p(10.0, 10.0)],
            &[],
        );
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_length(), 20.0);
        let samples = set.sample_at(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0][0], p(0.0, 0.0));
        assert_eq!(samples[2][0], p(5.0, 0.0));
        assert_eq!(samples[4][1], p(10.0, 10.0));
    }

    #[test]
    fn breakpoints_cover_every_waypoint() {
        let path = Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0)]);
        assert_eq!(path.breakpoints(), vec![0.0, 0.5, 1.0]);
        assert_eq!(Polyline::stationary(p(1.0, 1.0)).breakpoints(), vec![0.0]);

        let set = TrajectorySet::new(vec![
            path,
            Polyline::new(vec![p(0.0, 0.0), p(3.0, 0.0), p(4.0, 0.0)]),
        ]);
        let bks = set.breakpoints();
        assert_eq!(bks.first(), Some(&0.0));
        assert_eq!(bks.last(), Some(&1.0));
        assert!(bks.contains(&0.5) && bks.contains(&0.75), "{bks:?}");
        assert!(bks.windows(2).all(|w| w[1] > w[0]), "{bks:?}");
        // Sampling at the breakpoints reproduces the waypoints exactly.
        let rows = set.sample_at(&bks);
        assert_eq!(rows.len(), bks.len());
        assert_eq!(
            rows[bks.iter().position(|&s| s == 0.75).unwrap()][1],
            p(3.0, 0.0)
        );
    }

    /// FNV-1a 64 of the points' coordinate bits, big-endian.
    fn points_digest(points: &[Point]) -> u64 {
        points
            .iter()
            .flat_map(|q| [q.x.to_bits(), q.y.to_bits()])
            .flat_map(u64::to_be_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn sorted_sampling_matches_per_query() {
        // Detour-like path with many short segments plus a stationary
        // robot; sampling at breakpoints, uniform times, repeated times
        // and unsorted times must be bit-identical to per-query
        // position_at.
        let jagged = Polyline::new(
            (0..50)
                .map(|i| p(i as f64, if i % 2 == 0 { 0.0 } else { 0.3 }))
                .collect(),
        );
        let set = TrajectorySet::new(vec![
            jagged.clone(),
            Polyline::stationary(p(7.0, 7.0)),
            Polyline::new(vec![p(0.0, 0.0), p(100.0, 0.0)]),
        ]);
        let mut times = set.sample_times_with_breakpoints(13);
        times.push(1.0); // repeated endpoint
        let unsorted = [0.9, 0.1, 0.5, 0.5, 0.0];
        // The jagged path's per-query positions, a golden digest of the
        // binary segment search this cursor replaced.
        let per_query: Vec<Point> = times
            .iter()
            .chain(&unsorted)
            .map(|&s| jagged.position_at(s))
            .collect();
        assert_eq!(per_query.len(), 68);
        assert_eq!(points_digest(&per_query), 0xb91c_9082_6804_3625);
        // The cursor restarts on a decreasing time, so unsorted lists
        // sample the same rows as sorted ones.
        for list in [&times[..], &unsorted] {
            let rows = set.sample_at(list);
            for (r, &s) in list.iter().enumerate() {
                assert_eq!(rows[r], set.positions_at(s), "row {r} at s={s}");
            }
        }
        // Row blocks give every worker count the per-query rows, bit for
        // bit (more rows than one block, so blocks split).
        let many: Vec<f64> = (0..=200).map(|k| f64::from(k) / 200.0).collect();
        for workers in [1, 2, 8] {
            let rows = set.sample_rows(&many, workers);
            assert_eq!(rows.len(), many.len());
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    row,
                    &set.positions_at(many[r]),
                    "row {r} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn dense_timeline_builds_its_rows_on_first_read() {
        let set = TrajectorySet::new(vec![
            Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0)]),
            Polyline::new(vec![p(0.0, 5.0), p(3.0, 5.0), p(4.0, 9.0)]),
        ]);
        let lloyd = vec![
            vec![p(10.0, 11.0), p(4.0, 8.0)],
            vec![p(10.0, 12.0), p(4.0, 7.0)],
        ];
        let timeline = DenseTimeline::new(&set, 4, lloyd.clone());
        let times = set.sample_times_with_breakpoints(4);
        // Counting the rows builds none.
        assert_eq!(timeline.len(), times.len() + lloyd.len());
        assert!(!timeline.is_empty());
        assert!(timeline.rows.get().is_none());
        let unbuilt = timeline.clone();
        // The first read builds the sampled rows, then the Lloyd rows.
        let mut expected = set.sample_at(&times);
        expected.extend(lloyd);
        assert_eq!(&timeline[..], &expected[..]);
        assert!(timeline.rows.get().is_some());
        assert_eq!(timeline.iter().count(), timeline.len());
        // A clone taken before the build equals one taken after it.
        assert!(unbuilt.rows.get().is_none());
        assert_eq!(unbuilt.clone(), timeline.clone());
    }

    #[test]
    fn synchronized_arrival() {
        // Robots with different path lengths still arrive together at
        // s = 1 (speeds differ, per Eqn. 2's common transition time T).
        let set = TrajectorySet::straight(
            &[p(0.0, 0.0), p(0.0, 1.0)],
            &[p(100.0, 0.0), p(1.0, 1.0)],
            &[],
        );
        assert_eq!(set.positions_at(1.0), vec![p(100.0, 0.0), p(1.0, 1.0)]);
        // At half time, both are halfway along their own paths.
        assert_eq!(set.positions_at(0.5), vec![p(50.0, 0.0), p(0.5, 1.0)]);
    }
}
