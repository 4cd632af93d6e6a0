//! Triangular-lattice deployments.
//!
//! The paper's optimal coverage layout is the triangular lattice — "a
//! network of equilateral triangles ... proved optimal in terms of
//! minimum number of sensors required for complete coverage" (Sec. II-A,
//! refs. [6], [7], [11]). These generators seed the initial deployments
//! and the Lloyd refinement.

use anr_geom::{Point, PolygonWithHoles};

/// Generates a triangular lattice of the given spacing clipped to
/// `region` (holes excluded).
///
/// Rows are `spacing·√3/2` apart with odd rows offset by half a spacing,
/// so nearest neighbors are exactly `spacing` apart. Each row is
/// classified in one sweep ([`PolygonWithHoles::extend_row_inside`]),
/// with the same points as testing each with
/// [`PolygonWithHoles::contains`].
///
/// # Panics
///
/// Panics when `spacing <= 0`.
///
/// # Example
///
/// ```
/// use anr_geom::{Point, Polygon, PolygonWithHoles};
/// use anr_coverage::triangular_lattice;
///
/// let foi = PolygonWithHoles::without_holes(
///     Polygon::rectangle(Point::ORIGIN, 100.0, 100.0),
/// );
/// let pts = triangular_lattice(&foi, 20.0);
/// assert!(!pts.is_empty());
/// assert!(pts.iter().all(|p| foi.contains(*p)));
/// ```
pub fn triangular_lattice(region: &PolygonWithHoles, spacing: f64) -> Vec<Point> {
    assert!(spacing > 0.0, "spacing must be positive");
    let bb = region.bbox();
    let row_height = spacing * 3f64.sqrt() / 2.0;
    let mut pts = Vec::new();
    let mut row = 0usize;
    let mut y = bb.min.y + row_height / 2.0;
    while y < bb.max.y {
        let offset = if row % 2 == 1 { spacing / 2.0 } else { 0.0 };
        let x0 = bb.min.x + spacing / 2.0 + offset;
        region.extend_row_inside(y, x0, spacing, bb.max.x, &mut pts);
        y += row_height;
        row += 1;
    }
    pts
}

/// Deploys **exactly** `n` robots in `region` on a (near-)triangular
/// lattice.
///
/// The spacing is found by bisection so the clipped lattice holds at
/// least `n` points; surplus points are dropped farthest-from-centroid
/// first, which trims the lattice fringe rather than its interior.
///
/// Returns `None` when `n == 0` or no spacing in a sane range fits `n`
/// points (region far too small).
pub fn deploy_exactly(region: &PolygonWithHoles, n: usize) -> Option<Vec<Point>> {
    if n == 0 {
        return None;
    }
    // Ideal spacing from the lattice density: each point covers
    // spacing² · √3/2 of area.
    let ideal = (region.area() / (n as f64) * 2.0 / 3f64.sqrt()).sqrt();

    // Bisect on spacing: smaller spacing → more points.
    let mut lo = ideal * 0.5;
    let mut hi = ideal * 2.0;
    // Ensure hi is small enough (count >= n at lo) and expand if needed.
    for _ in 0..20 {
        if triangular_lattice(region, lo).len() >= n {
            break;
        }
        lo *= 0.7;
    }
    if triangular_lattice(region, lo).len() < n {
        return None;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if triangular_lattice(region, mid).len() >= n {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mut pts = triangular_lattice(region, lo);
    debug_assert!(pts.len() >= n);

    // Trim the fringe: drop the points farthest from the centroid.
    let c = region.centroid();
    pts.sort_by(|a, b| a.distance_sq(c).total_cmp(&b.distance_sq(c)));
    pts.truncate(n);
    Some(pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn square(side: f64) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side))
    }

    #[test]
    fn lattice_neighbors_at_spacing() {
        let pts = triangular_lattice(&square(100.0), 10.0);
        assert!(pts.len() > 50);
        // Each interior point's nearest neighbor is at exactly the
        // spacing (within fp noise).
        let mut checked = 0;
        for &p in &pts {
            if p.x > 20.0 && p.x < 80.0 && p.y > 20.0 && p.y < 80.0 {
                let nearest = pts
                    .iter()
                    .filter(|&&q| q != p)
                    .map(|&q| q.distance(p))
                    .fold(f64::INFINITY, f64::min);
                assert!((nearest - 10.0).abs() < 1e-9, "nearest {nearest}");
                checked += 1;
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn lattice_avoids_holes() {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::rectangle(Point::new(30.0, 30.0), 40.0, 40.0);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let pts = triangular_lattice(&region, 8.0);
        for p in pts {
            assert!(!region.in_hole(p));
        }
    }

    #[test]
    fn deploy_exactly_gives_exact_count() {
        for n in [10, 50, 144] {
            let pts = deploy_exactly(&square(555.0), n).unwrap();
            assert_eq!(pts.len(), n);
        }
    }

    #[test]
    fn deploy_exactly_zero_is_none() {
        assert!(deploy_exactly(&square(10.0), 0).is_none());
    }

    #[test]
    fn deployment_density_matches_area() {
        // 144 robots in the paper's M1-sized region (~308,261 m²): the
        // implied lattice spacing should be ~√(2A/(√3·n)) ≈ 49.7 m.
        let side = 308_261f64.sqrt();
        let pts = deploy_exactly(&square(side), 144).unwrap();
        assert_eq!(pts.len(), 144);
        // Min pairwise distance close to the ideal spacing.
        let mut min_d = f64::INFINITY;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                min_d = min_d.min(pts[i].distance(pts[j]));
            }
        }
        let ideal = (308_261.0 / 144.0 * 2.0 / 3f64.sqrt()).sqrt();
        assert!(
            min_d > 0.75 * ideal && min_d < 1.25 * ideal,
            "min distance {min_d} vs ideal {ideal}"
        );
    }

    #[test]
    fn deployment_is_deterministic() {
        let a = deploy_exactly(&square(300.0), 40).unwrap();
        let b = deploy_exactly(&square(300.0), 40).unwrap();
        assert_eq!(a, b);
    }
}
