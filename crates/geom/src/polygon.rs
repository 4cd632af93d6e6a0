//! Simple polygons: containment, measures, boundary operations.

use crate::{orient2d, Aabb, GeomError, Point, Segment, Vector, EPS};

/// A simple (non-self-intersecting) polygon given by its vertex loop.
///
/// Vertices may be listed clockwise or counter-clockwise; queries are
/// orientation-agnostic and [`Polygon::to_ccw`] normalizes when needed.
/// The last vertex is implicitly connected back to the first.
///
/// ```
/// use anr_geom::{Point, Polygon};
/// let tri = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(0.0, 4.0),
/// ])?;
/// assert_eq!(tri.area(), 8.0);
/// assert!(tri.contains(Point::new(1.0, 1.0)));
/// # Ok::<(), anr_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex loop.
    ///
    /// # Errors
    ///
    /// * [`GeomError::TooFewVertices`] for fewer than 3 vertices.
    /// * [`GeomError::NonFiniteCoordinate`] for NaN/∞ coordinates.
    /// * [`GeomError::DegeneratePolygon`] when the area is (near) zero.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::TooFewVertices {
                got: vertices.len(),
            });
        }
        if vertices.iter().any(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        let poly = Polygon { vertices };
        let scale = poly.bbox().diagonal();
        if poly.area() <= EPS * scale * scale {
            return Err(GeomError::DegeneratePolygon);
        }
        Ok(poly)
    }

    /// A regular `n`-gon of circumradius `radius` centered at `center`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `radius <= 0`.
    pub fn regular(center: Point, radius: f64, n: usize) -> Self {
        assert!(n >= 3, "regular polygon needs n >= 3");
        assert!(radius > 0.0, "regular polygon needs positive radius");
        let verts = (0..n)
            .map(|i| {
                let theta = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(
                    center.x + radius * theta.cos(),
                    center.y + radius * theta.sin(),
                )
            })
            .collect();
        Polygon { vertices: verts }
    }

    /// An axis-aligned rectangle.
    ///
    /// # Panics
    ///
    /// Panics when width or height is not positive.
    pub fn rectangle(min: Point, width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "rectangle extents must be positive"
        );
        Polygon {
            vertices: vec![
                min,
                Point::new(min.x + width, min.y),
                Point::new(min.x + width, min.y + height),
                Point::new(min.x, min.y + height),
            ],
        }
    }

    /// The vertex loop.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: construction rejects empty polygons.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Iterator over boundary edges, in vertex order.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area via the shoelace formula (positive = counter-clockwise).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut sum = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            sum += p.x * q.y - q.x * p.y;
        }
        0.5 * sum
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Boundary length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Is the vertex loop counter-clockwise?
    #[inline]
    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Returns the polygon with a counter-clockwise vertex loop.
    pub fn to_ccw(&self) -> Polygon {
        if self.is_ccw() {
            self.clone()
        } else {
            let mut v = self.vertices.clone();
            v.reverse();
            Polygon { vertices: v }
        }
    }

    /// Area centroid (first moment / area), not the vertex average.
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        // a = 2 * signed area; construction guarantees |a| > 0.
        Point::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Bounding box of the vertex loop.
    pub fn bbox(&self) -> Aabb {
        // Construction guarantees at least three vertices; the fallback
        // keeps this panic-free all the same.
        Aabb::from_points(self.vertices.iter().copied())
            .unwrap_or(Aabb::new(Point::ORIGIN, Point::ORIGIN))
    }

    /// Point-in-polygon test (boundary counts as inside).
    ///
    /// Crossing-number algorithm, orientation-agnostic. Points within a
    /// small tolerance of the boundary are reported as contained. The
    /// parity is tested first: both tests are pure, so the answer is the
    /// same either way, and interior points skip the distance pass.
    pub fn contains(&self, p: Point) -> bool {
        self.contains_strict(p) || self.distance_to_boundary(p) <= self.boundary_tolerance()
    }

    /// Distance within which [`Polygon::contains`] counts a point as on
    /// the boundary: `1e-8` of the bounding-box diagonal (at least 1).
    pub(crate) fn boundary_tolerance(&self) -> f64 {
        let scale = self.bbox().diagonal().max(1.0);
        EPS * scale * 10.0
    }

    /// Point-in-polygon by crossing number, with no boundary tolerance.
    ///
    /// Boundary points may report either way up to floating-point noise;
    /// use [`Polygon::contains`] for a boundary-inclusive test.
    pub fn contains_strict(&self, p: Point) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            if crossing_x(self.vertices[i], self.vertices[j], p.y).is_some_and(|x| p.x < x) {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// One row of a sweep over the polygon at height `y`, for
    /// [`crate::PolygonWithHoles::extend_row_inside`].
    ///
    /// Pushes onto `crossings` the crossing abscissa of every edge that
    /// [`Polygon::contains_strict`] counts at this height, computed by
    /// the same [`crossing_x`], so for any `x` the parity of
    /// `#{c : x < c}` is `contains_strict((x, y))` bit for bit. Pushes
    /// onto `bands` an x-interval around every edge that comes within
    /// `half_width` of the row: every row point within `half_width` of
    /// the boundary lies in one of them.
    pub(crate) fn row_sweep(
        &self,
        y: f64,
        half_width: f64,
        crossings: &mut Vec<f64>,
        bands: &mut Vec<(f64, f64)>,
    ) {
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (a, b) = (self.vertices[i], self.vertices[j]);
            if let Some(x) = crossing_x(a, b, y) {
                // A NaN crossing never satisfies `x < c`: leave it out.
                if !x.is_nan() {
                    crossings.push(x);
                }
            }
            if a.y.min(b.y) - half_width <= y && y <= a.y.max(b.y) + half_width {
                // The part of the edge inside the slab |y' - y| <= half_width,
                // widened by half_width: the nearest edge point of any row
                // point within half_width of the edge lies in that part.
                let dy = b.y - a.y;
                let (t0, t1) = if dy == 0.0 {
                    (0.0, 1.0)
                } else {
                    let lo = (y - half_width - a.y) / dy;
                    let hi = (y + half_width - a.y) / dy;
                    (lo.min(hi).max(0.0), lo.max(hi).min(1.0))
                };
                let xa = a.x + (b.x - a.x) * t0;
                let xb = a.x + (b.x - a.x) * t1;
                let band = (xa.min(xb) - half_width, xa.max(xb) + half_width);
                bands.push(if band.0.is_nan() || band.1.is_nan() {
                    (f64::NEG_INFINITY, f64::INFINITY)
                } else {
                    band
                });
            }
            j = i;
        }
    }

    /// Distance from `p` to the nearest boundary point (0 on the boundary).
    pub fn distance_to_boundary(&self, p: Point) -> f64 {
        self.edges()
            .map(|e| e.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The boundary point nearest to `p`.
    pub fn closest_boundary_point(&self, p: Point) -> Point {
        let mut best = self.vertices[0];
        let mut best_d = f64::INFINITY;
        for e in self.edges() {
            let q = e.closest_point(p);
            let d = q.distance(p);
            if d < best_d {
                best_d = d;
                best = q;
            }
        }
        best
    }

    /// Does the open segment `(a, b)` cross the polygon boundary?
    ///
    /// Endpoint touches on the boundary are not counted as crossings.
    pub fn segment_crosses_boundary(&self, seg: Segment) -> bool {
        self.edges().any(|e| seg.crosses_interior(e))
    }

    /// Resamples the boundary at (approximately) uniform arclength
    /// spacing, returning at least `min_points` points.
    ///
    /// Original vertices are not necessarily kept; the result is a new
    /// closed loop suitable for meshing.
    ///
    /// # Panics
    ///
    /// Panics when `spacing <= 0`.
    pub fn resample_boundary(&self, spacing: f64, min_points: usize) -> Vec<Point> {
        assert!(spacing > 0.0, "spacing must be positive");
        let perimeter = self.perimeter();
        let count = ((perimeter / spacing).ceil() as usize).max(min_points.max(3));
        let step = perimeter / count as f64;

        let mut result = Vec::with_capacity(count);
        let mut remaining = 0.0; // distance until next sample
        for e in self.edges() {
            let len = e.length();
            let mut along = remaining;
            while along < len {
                result.push(e.at(along / len));
                along += step;
            }
            remaining = along - len;
        }
        // Guard against accumulation error producing one extra point.
        result.truncate(count);
        result
    }

    /// Returns the polygon translated by `v`.
    pub fn translated(&self, v: Vector) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| p + v).collect(),
        }
    }

    /// Returns the polygon uniformly scaled about `center` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics when `factor <= 0`.
    pub fn scaled_about(&self, center: Point, factor: f64) -> Polygon {
        assert!(factor > 0.0, "scale factor must be positive");
        Polygon {
            vertices: self
                .vertices
                .iter()
                .map(|&p| center + (p - center) * factor)
                .collect(),
        }
    }

    /// Returns the polygon scaled (about its centroid) to have exactly
    /// `target_area`.
    ///
    /// # Panics
    ///
    /// Panics when `target_area <= 0`.
    pub fn scaled_to_area(&self, target_area: f64) -> Polygon {
        assert!(target_area > 0.0, "target area must be positive");
        let factor = (target_area / self.area()).sqrt();
        self.scaled_about(self.centroid(), factor)
    }

    /// Returns the polygon rotated by `theta` about `center`.
    pub fn rotated_about(&self, center: Point, theta: f64) -> Polygon {
        let rot = crate::Rotation::about(center, theta);
        Polygon {
            vertices: self.vertices.iter().map(|&p| rot.apply(p)).collect(),
        }
    }

    /// Clips the polygon against the half-plane on the **left** of the
    /// directed line `a → b` (Sutherland–Hodgman step).
    ///
    /// Returns `None` when the intersection is empty or degenerate.
    /// Clipping a convex polygon stays convex; clipping a non-convex
    /// polygon is correct whenever the result is a single piece (the
    /// case for Voronoi-cell construction, where the clip regions are
    /// convex intersections).
    pub fn clip_half_plane(&self, a: Point, b: Point) -> Option<Polygon> {
        let inside = |p: Point| orient2d(a, b, p) >= 0.0;
        let n = self.vertices.len();
        let mut out: Vec<Point> = Vec::with_capacity(n + 4);
        for i in 0..n {
            let cur = self.vertices[i];
            let next = self.vertices[(i + 1) % n];
            let cur_in = inside(cur);
            let next_in = inside(next);
            if cur_in {
                out.push(cur);
            }
            if cur_in != next_in {
                // Edge crosses the clip line: add the intersection.
                let d = b - a;
                let e = next - cur;
                let denom = d.cross(e);
                if denom.abs() > f64::MIN_POSITIVE {
                    // Solve cross(d, cur + t*e - a) = 0.
                    let t = -d.cross(cur - a) / denom;
                    out.push(cur.lerp(next, t.clamp(0.0, 1.0)));
                }
            }
        }
        // Drop consecutive duplicates created by vertices on the line.
        out.dedup_by(|x, y| x.distance(*y) < EPS * (1.0 + x.to_vector().norm()));
        if out.len() >= 2 {
            let first = out[0];
            let last = out[out.len() - 1];
            if first.distance(last) < EPS * (1.0 + first.to_vector().norm()) {
                out.pop();
            }
        }
        Polygon::new(out).ok()
    }
}

/// Where the edge `vi`–`vj` crosses the horizontal line at height `y`,
/// when the crossing-number test counts it there (one endpoint strictly
/// above `y`, the other not).
#[inline]
fn crossing_x(vi: Point, vj: Point, y: f64) -> Option<f64> {
    ((vi.y > y) != (vj.y > y)).then(|| (vj.x - vi.x) * (y - vi.y) / (vj.y - vi.y) + vi.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn unit_square() -> Polygon {
        Polygon::rectangle(Point::ORIGIN, 1.0, 1.0)
    }

    #[test]
    fn rejects_too_few_vertices() {
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, 0.0)]),
            Err(GeomError::TooFewVertices { got: 2 })
        ));
    }

    #[test]
    fn rejects_nonfinite() {
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, f64::NAN), p(0.0, 1.0)]),
            Err(GeomError::NonFiniteCoordinate)
        ));
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)]),
            Err(GeomError::DegeneratePolygon)
        ));
    }

    #[test]
    fn square_measures() {
        let sq = unit_square();
        assert_eq!(sq.area(), 1.0);
        assert_eq!(sq.perimeter(), 4.0);
        assert!(sq.is_ccw());
        assert_eq!(sq.centroid(), p(0.5, 0.5));
    }

    #[test]
    fn clockwise_polygon_negative_signed_area() {
        let mut verts = unit_square().vertices().to_vec();
        verts.reverse();
        let cw = Polygon::new(verts).unwrap();
        assert!(cw.signed_area() < 0.0);
        assert!(cw.to_ccw().is_ccw());
        // containment unaffected by orientation
        assert!(cw.contains(p(0.5, 0.5)));
    }

    #[test]
    fn contains_interior_exterior_boundary() {
        let sq = unit_square();
        assert!(sq.contains(p(0.5, 0.5)));
        assert!(!sq.contains(p(1.5, 0.5)));
        assert!(sq.contains(p(1.0, 0.5))); // boundary inclusive
        assert!(sq.contains(p(0.0, 0.0))); // corner
    }

    #[test]
    fn contains_concave() {
        // L-shape
        let l = Polygon::new(vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(2.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 2.0),
            p(0.0, 2.0),
        ])
        .unwrap();
        assert!(l.contains(p(0.5, 1.5)));
        assert!(l.contains(p(1.5, 0.5)));
        assert!(!l.contains(p(1.5, 1.5))); // the notch
    }

    #[test]
    fn contains_matches_the_distance_first_expression() {
        // The expression `contains` had before it tested parity first.
        let old = |poly: &Polygon, q: Point| {
            poly.distance_to_boundary(q) <= poly.boundary_tolerance() || poly.contains_strict(q)
        };
        let mut state = 0x0dd_c0ffeeu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut checked = 0usize;
        for trial in 0..40 {
            // A star-shaped polygon with random radii, far from the
            // origin on every fourth trial.
            let c = if trial % 4 == 3 {
                p(3.0e6, -2.0e6)
            } else {
                p(next() * 200.0 - 100.0, next() * 200.0 - 100.0)
            };
            let n = 3 + trial % 17;
            let radius = 1.0 + next() * 300.0;
            let verts: Vec<Point> = (0..n)
                .map(|k| {
                    let theta = std::f64::consts::TAU * (k as f64 + 0.8 * next()) / n as f64;
                    let rho = radius * (0.3 + 0.7 * next());
                    p(c.x + rho * theta.cos(), c.y + rho * theta.sin())
                })
                .collect();
            let Ok(poly) = Polygon::new(verts) else {
                continue;
            };
            let mut queries: Vec<Point> = (0..200)
                .map(|_| {
                    p(
                        c.x + (next() * 2.4 - 1.2) * radius,
                        c.y + (next() * 2.4 - 1.2) * radius,
                    )
                })
                .collect();
            for e in poly.edges() {
                for t in [0.0, 0.25, 0.5, 1.0, next()] {
                    let on = e.at(t);
                    queries.push(on);
                    // Within 1e-12 of the edge or vertex, on both sides.
                    for (dx, dy) in [(1e-12, 0.0), (-1e-12, 0.0), (0.0, 1e-12), (0.0, -1e-12)] {
                        queries.push(p(on.x + dx, on.y + dy));
                    }
                }
            }
            queries.extend([
                p(f64::NAN, c.y),
                p(c.x, f64::NAN),
                p(f64::NAN, f64::NAN),
                p(f64::INFINITY, c.y),
            ]);
            for q in queries {
                assert_eq!(
                    poly.contains(q),
                    old(&poly, q),
                    "trial {trial}, query {q:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 10_000, "only {checked} queries");
    }

    #[test]
    fn distance_and_closest_point() {
        let sq = unit_square();
        assert_eq!(sq.distance_to_boundary(p(0.5, 0.5)), 0.5);
        assert_eq!(sq.distance_to_boundary(p(2.0, 0.5)), 1.0);
        assert_eq!(sq.closest_boundary_point(p(0.5, -3.0)), p(0.5, 0.0));
    }

    #[test]
    fn segment_crossing_boundary() {
        let sq = unit_square();
        let crossing = Segment::new(p(-1.0, 0.5), p(2.0, 0.5));
        let inside = Segment::new(p(0.25, 0.25), p(0.75, 0.75));
        assert!(sq.segment_crosses_boundary(crossing));
        assert!(!sq.segment_crosses_boundary(inside));
    }

    #[test]
    fn resample_boundary_spacing() {
        let sq = unit_square();
        let pts = sq.resample_boundary(0.25, 3);
        assert_eq!(pts.len(), 16);
        // All resampled points lie on the boundary.
        for q in &pts {
            assert!(sq.distance_to_boundary(*q) < 1e-9);
        }
        // Consecutive spacing close to requested.
        for w in pts.windows(2) {
            assert!((w[0].distance(w[1]) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_respects_min_points() {
        let sq = unit_square();
        let pts = sq.resample_boundary(10.0, 12);
        assert_eq!(pts.len(), 12);
    }

    #[test]
    fn translation_and_scaling() {
        let sq = unit_square();
        let moved = sq.translated(Vector::new(5.0, 5.0));
        assert_eq!(moved.centroid(), p(5.5, 5.5));
        assert_eq!(moved.area(), 1.0);

        let scaled = sq.scaled_to_area(25.0);
        assert!((scaled.area() - 25.0).abs() < 1e-9);
        assert!(scaled.centroid().distance(sq.centroid()) < 1e-9);
    }

    #[test]
    fn rotation_preserves_area() {
        let sq = unit_square();
        let rot = sq.rotated_about(sq.centroid(), 0.7);
        assert!((rot.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regular_polygon_approaches_circle_area() {
        let c = Polygon::regular(p(3.0, 3.0), 2.0, 256);
        let circle_area = std::f64::consts::PI * 4.0;
        assert!((c.area() - circle_area).abs() / circle_area < 1e-3);
    }

    #[test]
    fn centroid_matches_vertex_mean_for_regular() {
        let c = Polygon::regular(p(1.0, -2.0), 3.0, 7);
        assert!(c.centroid().distance(p(1.0, -2.0)) < 1e-9);
    }

    #[test]
    fn clip_half_plane_basic() {
        let sq = unit_square();
        // Keep the left half: clip line x = 0.5 pointing up (left side
        // of the upward line is x < 0.5... the left of a→b with a=(0.5,0),
        // b=(0.5,1) is the half-plane x <= 0.5).
        let half = sq.clip_half_plane(p(0.5, 0.0), p(0.5, 1.0)).unwrap();
        assert!((half.area() - 0.5).abs() < 1e-9);
        assert!(half.contains(p(0.25, 0.5)));
        assert!(!half.contains(p(0.75, 0.5)));
    }

    #[test]
    fn clip_half_plane_no_intersection() {
        let sq = unit_square();
        // Clip line far to the left, keeping only x <= -1: empty.
        assert!(sq.clip_half_plane(p(-1.0, 0.0), p(-1.0, 1.0)).is_none());
    }

    #[test]
    fn clip_half_plane_whole_polygon() {
        let sq = unit_square();
        // Keep x <= 5: the whole square survives.
        let c = sq.clip_half_plane(p(5.0, 0.0), p(5.0, 1.0)).unwrap();
        assert!((c.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clip_through_vertex() {
        // Diagonal clip through two corners halves the square.
        let sq = unit_square();
        let c = sq.clip_half_plane(p(0.0, 0.0), p(1.0, 1.0)).unwrap();
        assert!((c.area() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn successive_clips_build_a_cell() {
        // Clip a big square by two perpendicular bisectors: quadrant.
        let sq = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let c = sq
            .clip_half_plane(p(5.0, 10.0), p(5.0, 0.0)) // keep x >= 5
            .and_then(|c| c.clip_half_plane(p(0.0, 5.0), p(10.0, 5.0))) // keep y >= 5... left of →x is +y
            .unwrap();
        assert!((c.area() - 25.0).abs() < 1e-9);
        assert!(c.contains(p(7.5, 7.5)));
    }

    #[test]
    #[should_panic]
    fn regular_panics_on_small_n() {
        let _ = Polygon::regular(Point::ORIGIN, 1.0, 2);
    }
}
