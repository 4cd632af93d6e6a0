//! Polygons with holes — the Field-of-Interest (FoI) model.
//!
//! The paper's FoIs may contain "obstacles or landscape features that
//! forbid mobile robot placement" (Sec. III-D-3). A
//! [`PolygonWithHoles`] is an outer simple polygon minus a set of
//! disjoint hole polygons strictly inside it.

use crate::{Aabb, GeomError, Point, Polygon, Segment, Vector};

/// An outer boundary polygon minus zero or more disjoint holes.
///
/// ```
/// use anr_geom::{Point, Polygon, PolygonWithHoles};
/// let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
/// let hole = Polygon::rectangle(Point::new(4.0, 4.0), 2.0, 2.0);
/// let foi = PolygonWithHoles::new(outer, vec![hole])?;
/// assert!(foi.contains(Point::new(1.0, 1.0)));
/// assert!(!foi.contains(Point::new(5.0, 5.0))); // inside the hole
/// assert_eq!(foi.area(), 96.0);
/// # Ok::<(), anr_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolygonWithHoles {
    outer: Polygon,
    holes: Vec<Polygon>,
}

impl PolygonWithHoles {
    /// Creates a region from an outer boundary and holes.
    ///
    /// # Errors
    ///
    /// * [`GeomError::HoleOutsideBoundary`] when a hole vertex falls
    ///   outside the outer polygon.
    /// * [`GeomError::OverlappingHoles`] when two holes' boundaries
    ///   intersect or one contains the other.
    pub fn new(outer: Polygon, holes: Vec<Polygon>) -> Result<Self, GeomError> {
        for (i, h) in holes.iter().enumerate() {
            if !h.vertices().iter().all(|&v| outer.contains(v)) {
                return Err(GeomError::HoleOutsideBoundary { hole: i });
            }
        }
        for i in 0..holes.len() {
            for j in (i + 1)..holes.len() {
                if holes_overlap(&holes[i], &holes[j]) {
                    return Err(GeomError::OverlappingHoles {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        Ok(PolygonWithHoles { outer, holes })
    }

    /// A region with no holes.
    pub fn without_holes(outer: Polygon) -> Self {
        PolygonWithHoles {
            outer,
            holes: Vec::new(),
        }
    }

    /// The outer boundary.
    #[inline]
    pub fn outer(&self) -> &Polygon {
        &self.outer
    }

    /// The holes.
    #[inline]
    pub fn holes(&self) -> &[Polygon] {
        &self.holes
    }

    /// Does the region have holes?
    #[inline]
    pub fn has_holes(&self) -> bool {
        !self.holes.is_empty()
    }

    /// Region area: outer area minus hole areas.
    pub fn area(&self) -> f64 {
        self.outer.area() - self.holes.iter().map(Polygon::area).sum::<f64>()
    }

    /// Area centroid of the region (holes subtracted).
    pub fn centroid(&self) -> Point {
        let ao = self.outer.area();
        let co = self.outer.centroid();
        let mut wx = ao * co.x;
        let mut wy = ao * co.y;
        let mut w = ao;
        for h in &self.holes {
            let a = h.area();
            let c = h.centroid();
            wx -= a * c.x;
            wy -= a * c.y;
            w -= a;
        }
        Point::new(wx / w, wy / w)
    }

    /// Bounding box of the outer boundary.
    #[inline]
    pub fn bbox(&self) -> Aabb {
        self.outer.bbox()
    }

    /// Is `p` inside the region (inside outer, not strictly inside any
    /// hole; both boundaries count as inside)?
    pub fn contains(&self, p: Point) -> bool {
        if !self.outer.contains(p) {
            return false;
        }
        !self
            .holes
            .iter()
            .any(|h| h.contains_strict(p) && h.distance_to_boundary(p) > h.boundary_tolerance())
    }

    /// Is `p` strictly inside a hole (hole boundary excluded)?
    pub fn in_hole(&self, p: Point) -> bool {
        self.outer.contains(p) && !self.contains(p)
    }

    /// Index of the hole strictly containing `p`, if any.
    pub fn hole_containing(&self, p: Point) -> Option<usize> {
        self.holes.iter().position(|h| {
            h.contains_strict(p) && h.distance_to_boundary(p) > h.boundary_tolerance()
        })
    }

    /// Distance from `p` to the nearest boundary (outer or any hole).
    pub fn distance_to_boundary(&self, p: Point) -> f64 {
        let mut d = self.outer.distance_to_boundary(p);
        for h in &self.holes {
            d = d.min(h.distance_to_boundary(p));
        }
        d
    }

    /// Distance from `p` to the nearest *hole* boundary.
    ///
    /// Returns `f64::INFINITY` when the region has no holes. Used by
    /// density functions such as "more robots near the fire" (Sec. IV-E).
    pub fn distance_to_holes(&self, p: Point) -> f64 {
        self.holes
            .iter()
            .map(|h| h.distance_to_boundary(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The region point nearest to `p`.
    ///
    /// If `p` is already inside the region, `p` itself; if `p` is in a
    /// hole, the nearest point on that hole's boundary; if outside the
    /// outer polygon, the nearest point on the outer boundary.
    pub fn clamp_inside(&self, p: Point) -> Point {
        if self.contains(p) {
            return p;
        }
        if let Some(i) = self.hole_containing(p) {
            return self.holes[i].closest_boundary_point(p);
        }
        self.outer.closest_boundary_point(p)
    }

    /// Does the open segment cross into forbidden space (outside the
    /// outer boundary or through a hole)?
    ///
    /// Endpoint touches on boundaries do not count. The test is
    /// conservative for robot motion: it also flags segments whose
    /// midpoint is in forbidden space (fully-contained crossings).
    pub fn segment_blocked(&self, seg: Segment) -> bool {
        if self.outer.segment_crosses_boundary(seg) {
            return true;
        }
        for h in &self.holes {
            if h.edges().any(|e| seg.crosses_interior(e)) {
                return true;
            }
        }
        // Segment entirely in forbidden space (or hole) without crossing
        // an edge: check the midpoint.
        !self.contains(seg.midpoint())
    }

    /// A distance past which no containment answer depends on the
    /// boundary tolerance or on rounding: twice the outer polygon's
    /// tolerance (the largest, since holes lie inside it) plus `1e-9` of
    /// the coordinates' magnitude. A point farther than this from every
    /// edge is inside exactly when the crossing-number parities say so.
    pub fn containment_slack(&self) -> f64 {
        let bb = self.bbox();
        let magnitude = bb
            .min
            .x
            .abs()
            .max(bb.max.x.abs())
            .max(bb.min.y.abs())
            .max(bb.max.y.abs());
        2.0 * self.outer.boundary_tolerance() + 1e-9 * magnitude
    }

    /// Interior sample points on a square grid of the given `spacing`.
    ///
    /// Only points inside the region (outside holes) are returned; the
    /// grid is aligned to the bounding box with a half-spacing inset.
    ///
    /// # Panics
    ///
    /// Panics when `spacing <= 0`.
    pub fn grid_points(&self, spacing: f64) -> Vec<Point> {
        assert!(spacing > 0.0, "spacing must be positive");
        let bb = self.bbox();
        let mut pts = Vec::new();
        let mut y = bb.min.y + spacing / 2.0;
        while y < bb.max.y {
            self.extend_row_inside(y, bb.min.x + spacing / 2.0, spacing, bb.max.x, &mut pts);
            y += spacing;
        }
        pts
    }

    /// Appends to `out`, in row order, the points of the row
    /// `(x0, y), (x0 + step, y), …` (x accumulated by repeated addition,
    /// while `x < x_end`) that [`PolygonWithHoles::contains`] accepts.
    ///
    /// The result is exactly that of testing each point with
    /// [`PolygonWithHoles::contains`], at a cost of one pass over the
    /// edges per row instead of several per point. Each polygon's
    /// crossings of the row are computed once, with
    /// [`Polygon::contains_strict`]'s own expression, and swept in
    /// order, so the parity at every point is that test's answer bit
    /// for bit. Only points inside a conservative band around an edge
    /// that comes within the containment tolerance of the row, where
    /// the boundary-distance test could decide, call
    /// [`PolygonWithHoles::contains`] itself.
    ///
    /// # Panics
    ///
    /// Panics when `step <= 0`.
    pub fn extend_row_inside(&self, y: f64, x0: f64, step: f64, x_end: f64, out: &mut Vec<Point>) {
        assert!(step > 0.0, "row step must be positive");
        let half_width = self.containment_slack();

        let mut bands = Vec::new();
        let mut parities: Vec<RowParity> = Vec::with_capacity(1 + self.holes.len());
        for poly in std::iter::once(&self.outer).chain(&self.holes) {
            let mut crossings = Vec::new();
            poly.row_sweep(y, half_width, &mut crossings, &mut bands);
            crossings.sort_unstable_by(f64::total_cmp);
            parities.push(RowParity {
                crossings,
                passed: 0,
            });
        }
        bands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(bands.len());
        for (lo, hi) in bands {
            match merged.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }

        let mut band = 0usize;
        let mut x = x0;
        while x < x_end {
            while band < merged.len() && merged[band].1 < x {
                band += 1;
            }
            let p = Point::new(x, y);
            let inside = if band < merged.len() && merged[band].0 <= x {
                self.contains(p)
            } else {
                // Off every band the boundary tolerance cannot apply:
                // inside the outer polygon and strictly inside no hole.
                let mut inside = parities[0].odd_at(x);
                for hole in &mut parities[1..] {
                    inside &= !hole.odd_at(x);
                }
                inside
            };
            if inside {
                out.push(p);
            }
            x += step;
        }
    }

    /// Returns the region translated by `v`.
    pub fn translated(&self, v: Vector) -> PolygonWithHoles {
        PolygonWithHoles {
            outer: self.outer.translated(v),
            holes: self.holes.iter().map(|h| h.translated(v)).collect(),
        }
    }
}

/// A row's sorted crossing abscissae for one polygon and how many of
/// them lie at or left of the sweep position.
struct RowParity {
    crossings: Vec<f64>,
    passed: usize,
}

impl RowParity {
    /// Parity of the crossings strictly right of `x` — the crossing-number
    /// answer at `x`. Calls must come with non-decreasing `x`.
    fn odd_at(&mut self, x: f64) -> bool {
        while self.passed < self.crossings.len() && self.crossings[self.passed] <= x {
            self.passed += 1;
        }
        (self.crossings.len() - self.passed) % 2 == 1
    }
}

/// Overlap test used during validation: vertices of one hole inside the
/// other, or boundary edges intersecting.
fn holes_overlap(a: &Polygon, b: &Polygon) -> bool {
    if !a.bbox().intersects(&b.bbox()) {
        return false;
    }
    if b.vertices().iter().any(|&v| a.contains_strict(v))
        || a.vertices().iter().any(|&v| b.contains_strict(v))
    {
        return true;
    }
    a.edges()
        .any(|ea| b.edges().any(|eb| ea.crosses_interior(eb)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn region() -> PolygonWithHoles {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let hole = Polygon::rectangle(p(4.0, 4.0), 2.0, 2.0);
        PolygonWithHoles::new(outer, vec![hole]).unwrap()
    }

    #[test]
    fn area_subtracts_holes() {
        assert_eq!(region().area(), 96.0);
    }

    #[test]
    fn centroid_of_symmetric_region_is_center() {
        assert!(region().centroid().distance(p(5.0, 5.0)) < 1e-9);
    }

    #[test]
    fn centroid_shifts_away_from_offset_hole() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let hole = Polygon::rectangle(p(7.0, 4.0), 2.0, 2.0);
        let r = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        assert!(r.centroid().x < 5.0);
    }

    #[test]
    fn contains_respects_holes() {
        let r = region();
        assert!(r.contains(p(1.0, 1.0)));
        assert!(!r.contains(p(5.0, 5.0)));
        assert!(r.contains(p(4.0, 5.0))); // hole boundary counts as region
        assert!(!r.contains(p(11.0, 5.0)));
    }

    #[test]
    fn in_hole_and_hole_containing() {
        let r = region();
        assert!(r.in_hole(p(5.0, 5.0)));
        assert_eq!(r.hole_containing(p(5.0, 5.0)), Some(0));
        assert_eq!(r.hole_containing(p(1.0, 1.0)), None);
        assert!(!r.in_hole(p(20.0, 20.0))); // outside entirely is not "in hole"
    }

    #[test]
    fn rejects_hole_outside() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let hole = Polygon::rectangle(p(9.0, 9.0), 5.0, 5.0);
        assert!(matches!(
            PolygonWithHoles::new(outer, vec![hole]),
            Err(GeomError::HoleOutsideBoundary { hole: 0 })
        ));
    }

    #[test]
    fn rejects_overlapping_holes() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let h1 = Polygon::rectangle(p(2.0, 2.0), 3.0, 3.0);
        let h2 = Polygon::rectangle(p(4.0, 4.0), 3.0, 3.0);
        assert!(matches!(
            PolygonWithHoles::new(outer, vec![h1, h2]),
            Err(GeomError::OverlappingHoles { .. })
        ));
    }

    #[test]
    fn accepts_disjoint_holes() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let h1 = Polygon::rectangle(p(1.0, 1.0), 2.0, 2.0);
        let h2 = Polygon::rectangle(p(6.0, 6.0), 2.0, 2.0);
        let r = PolygonWithHoles::new(outer, vec![h1, h2]).unwrap();
        assert_eq!(r.holes().len(), 2);
        assert_eq!(r.area(), 92.0);
    }

    #[test]
    fn distance_to_holes() {
        let r = region();
        assert_eq!(r.distance_to_holes(p(1.0, 5.0)), 3.0);
        let no_holes = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, 1.0, 1.0));
        assert_eq!(no_holes.distance_to_holes(p(0.5, 0.5)), f64::INFINITY);
    }

    #[test]
    fn clamp_inside_cases() {
        let r = region();
        // already inside
        assert_eq!(r.clamp_inside(p(1.0, 1.0)), p(1.0, 1.0));
        // in hole -> hole boundary
        let c = r.clamp_inside(p(5.0, 5.0));
        assert!(r.holes()[0].distance_to_boundary(c) < 1e-9);
        // outside -> outer boundary
        let c = r.clamp_inside(p(15.0, 5.0));
        assert!(c.distance(p(10.0, 5.0)) < 1e-9);
    }

    #[test]
    fn segment_blocked_by_hole() {
        let r = region();
        assert!(r.segment_blocked(Segment::new(p(1.0, 5.0), p(9.0, 5.0))));
        assert!(!r.segment_blocked(Segment::new(p(1.0, 1.0), p(9.0, 1.0))));
        assert!(r.segment_blocked(Segment::new(p(5.0, -1.0), p(5.0, 1.0)))); // enters from outside
    }

    #[test]
    fn segment_fully_inside_hole_is_blocked() {
        let r = region();
        assert!(r.segment_blocked(Segment::new(p(4.5, 5.0), p(5.5, 5.0))));
    }

    #[test]
    fn grid_points_avoid_holes() {
        let r = region();
        let pts = r.grid_points(1.0);
        assert!(!pts.is_empty());
        for q in &pts {
            assert!(r.contains(*q));
            assert!(!r.in_hole(*q));
        }
        // Roughly area / spacing^2 points.
        assert!((pts.len() as f64 - r.area()).abs() / r.area() < 0.15);
    }

    /// The per-point loop [`PolygonWithHoles::extend_row_inside`]
    /// replaces: the oracle it must match exactly.
    fn row_by_point(r: &PolygonWithHoles, y: f64, x0: f64, step: f64, x_end: f64) -> Vec<Point> {
        let mut out = Vec::new();
        let mut x = x0;
        while x < x_end {
            let q = Point::new(x, y);
            if r.contains(q) {
                out.push(q);
            }
            x += step;
        }
        out
    }

    fn assert_rows_match(r: &PolygonWithHoles, ys: &[f64], x0: f64, step: f64, x_end: f64) {
        for &y in ys {
            let mut swept = Vec::new();
            r.extend_row_inside(y, x0, step, x_end, &mut swept);
            assert_eq!(swept, row_by_point(r, y, x0, step, x_end), "row y = {y}");
        }
    }

    /// Deterministic uniform draws in [0, 1) (LCG).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A star-shaped polygon: `n` vertices at increasing angles with
    /// random radii in `[0.4, 1] × radius`.
    fn star(next: &mut impl FnMut() -> f64, c: Point, radius: f64, n: usize) -> Polygon {
        let verts = (0..n)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64 + 0.8 * next()) / n as f64;
                let rho = radius * (0.4 + 0.6 * next());
                p(c.x + rho * theta.cos(), c.y + rho * theta.sin())
            })
            .collect();
        Polygon::new(verts).unwrap()
    }

    #[test]
    fn row_sweep_matches_per_point_contains_on_random_regions() {
        let mut next = lcg(0x5eed);
        let mut regions = 0;
        for trial in 0..60 {
            let c = p(next() * 2000.0 - 1000.0, next() * 2000.0 - 1000.0);
            let radius = 50.0 + next() * 500.0;
            let outer = star(&mut next, c, radius, 5 + trial % 40);
            let holes: Vec<Polygon> = (0..trial % 4)
                .map(|_| {
                    let hc = p(
                        c.x + (next() - 0.5) * 0.5 * radius,
                        c.y + (next() - 0.5) * 0.5 * radius,
                    );
                    let hr = radius * (0.05 + 0.1 * next());
                    star(&mut next, hc, hr, 3 + trial % 9)
                })
                .collect();
            let Ok(region) = PolygonWithHoles::new(outer, holes) else {
                continue;
            };
            regions += 1;
            let bb = region.bbox();
            let step = bb.width() / (5.0 + next() * 120.0);
            let x0 = bb.min.x - step * next();
            let mut ys: Vec<f64> = (0..25).map(|_| bb.min.y + next() * bb.height()).collect();
            // Rows through every vertex: crossings there are decided by
            // the strict `>` of the crossing-number test.
            for poly in std::iter::once(region.outer()).chain(region.holes()) {
                ys.extend(poly.vertices().iter().map(|v| v.y));
            }
            assert_rows_match(&region, &ys, x0, step, bb.max.x + step);
            assert_eq!(
                region.grid_points(step),
                {
                    let mut pts = Vec::new();
                    let mut y = bb.min.y + step / 2.0;
                    while y < bb.max.y {
                        pts.extend(row_by_point(
                            &region,
                            y,
                            bb.min.x + step / 2.0,
                            step,
                            bb.max.x,
                        ));
                        y += step;
                    }
                    pts
                },
                "grid_points, trial {trial}"
            );
        }
        assert!(regions > 40, "only {regions} valid random regions");
    }

    #[test]
    fn row_sweep_matches_on_rows_along_edges_and_through_vertices() {
        // Rectangle with a hole whose edges lie on sample rows and whose
        // corners are sample points: every boundary case lands on a row.
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let hole = Polygon::rectangle(p(4.0, 4.0), 2.0, 2.0);
        let r = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let ys: Vec<f64> = (-2..=22).map(|k| k as f64 * 0.5).collect();
        assert_rows_match(&r, &ys, -1.0, 0.5, 11.0);
        assert_rows_match(&r, &ys, -1.0, 0.25, 11.0);
        assert!(r.grid_points(1.0).len() > 80);

        // Staircase outer boundary and a diamond hole with every vertex
        // on the half-unit lattice the rows and samples use.
        let stairs = Polygon::new(vec![
            p(0.0, 0.0),
            p(8.0, 0.0),
            p(8.0, 2.0),
            p(6.0, 2.0),
            p(6.0, 4.0),
            p(4.0, 4.0),
            p(4.0, 6.0),
            p(2.0, 6.0),
            p(2.0, 8.0),
            p(0.0, 8.0),
        ])
        .unwrap();
        let diamond =
            Polygon::new(vec![p(2.0, 1.0), p(3.0, 2.0), p(2.0, 3.0), p(1.0, 2.0)]).unwrap();
        let r = PolygonWithHoles::new(stairs, vec![diamond]).unwrap();
        let ys: Vec<f64> = (-1..=17).map(|k| k as f64 * 0.5).collect();
        assert_rows_match(&r, &ys, -0.5, 0.5, 8.5);
        assert_rows_match(&r, &ys, -0.5, 0.1, 8.5);

        // Far from the origin, where the tolerance band must absorb the
        // coordinates' rounding.
        let far = r.translated(Vector::new(3.0e7, -4.0e7));
        let ys: Vec<f64> = ys.iter().map(|y| y - 4.0e7).collect();
        assert_rows_match(&far, &ys, 3.0e7 - 0.5, 0.5, 3.0e7 + 8.5);
    }

    #[test]
    fn row_sweep_handles_empty_and_outside_rows() {
        let r = region();
        let mut out = Vec::new();
        r.extend_row_inside(5.0, 3.0, 1.0, 3.0, &mut out); // x0 == x_end: no samples
        r.extend_row_inside(-5.0, 0.0, 1.0, 10.0, &mut out); // below the region
        r.extend_row_inside(5.0, 20.0, 1.0, 30.0, &mut out); // right of it
        assert!(out.is_empty());
    }

    #[test]
    fn translated_moves_everything() {
        let r = region().translated(Vector::new(100.0, 0.0));
        assert!(r.contains(p(101.0, 1.0)));
        assert!(!r.contains(p(105.0, 5.0)));
        assert_eq!(r.area(), 96.0);
    }
}
