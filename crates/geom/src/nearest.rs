//! Exact nearest-point and fixed-radius queries over a fixed point set.
//!
//! [`NearestGrid`] is a uniform bucket grid with an expanding Chebyshev
//! ring search. It answers the *same* query as the ascending brute-force
//! scan — index of the closest point, ties to the lowest index — and is
//! pinned bit-identical to that scan by tests here and at every call
//! site (Lloyd's sample assignment, the point-locator outside-mesh
//! fallback). [`NearestGrid::within`] lists the points in a disk, as the
//! filtered ascending scan would. Build cost is `O(n)`; nearest queries
//! are `O(1)` expected at roughly uniform density.

use crate::Point;

/// Uniform bucket grid over a point set answering exact nearest-point
/// queries by expanding ring search.
///
/// Cell size is chosen so cells hold ~1 point on average; a query visits
/// Chebyshev rings around the query's (clamped) cell and stops as soon
/// as a ring's distance lower bound exceeds the best distance found. The
/// bound is non-strict-compared (a ring at exactly the best distance is
/// still visited), so an equidistant lower-index point can never be
/// missed and the result is bit-identical to the ascending brute-force
/// scan.
///
/// The grid stores only indices; callers pass the same slice the grid
/// was built over to each query.
///
/// ```
/// use anr_geom::{NearestGrid, Point};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
/// let grid = NearestGrid::new(&pts);
/// assert_eq!(grid.nearest(&pts, Point::new(2.0, 1.0)), 0);
/// assert_eq!(grid.nearest(&pts, Point::new(9.0, -3.0)), 1);
/// // Exact tie: lowest index wins, as in a brute-force scan.
/// assert_eq!(grid.nearest(&pts, Point::new(5.0, 7.0)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct NearestGrid {
    x0: f64,
    y0: f64,
    h: f64,
    nx: usize,
    ny: usize,
    /// CSR offsets into `order`, `nx * ny + 1` entries.
    starts: Vec<u32>,
    /// Point indices bucketed by cell, ascending within each cell.
    order: Vec<u32>,
}

impl NearestGrid {
    /// Builds the grid over `points`.
    ///
    /// An empty or fully coincident point set degenerates to a single
    /// cell; queries stay correct (and trivially cheap).
    pub fn new(points: &[Point]) -> Self {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let w = (max_x - min_x).max(0.0);
        let ht = (max_y - min_y).max(0.0);
        // ~1 point per cell on average; degenerate (coincident) sets get
        // a single cell.
        let mut h = w.max(ht) / (points.len() as f64).sqrt();
        if !h.is_finite() || h <= 0.0 {
            h = 1.0;
        }
        let nx = ((w / h).ceil() as usize + 1).max(1);
        let ny = ((ht / h).ceil() as usize + 1).max(1);
        let cell_of = |p: &Point| -> usize {
            let cx = (((p.x - min_x) / h) as usize).min(nx - 1);
            let cy = (((p.y - min_y) / h) as usize).min(ny - 1);
            cy * nx + cx
        };
        let mut starts = vec![0u32; nx * ny + 1];
        for p in points {
            starts[cell_of(p) + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; points.len()];
        // Ascending point order keeps each bucket's list ascending.
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            order[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        NearestGrid {
            x0: min_x,
            y0: min_y,
            h,
            nx,
            ny,
            starts,
            order,
        }
    }

    /// Index of the point nearest to `q`; ties resolve to the lowest
    /// index, exactly as the ascending brute-force scan does.
    ///
    /// `points` must be the slice the grid was built over. Returns 0 for
    /// an empty set.
    pub fn nearest(&self, points: &[Point], q: Point) -> usize {
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        // Grid cell nearest to the query (clamped: queries may fall
        // outside the point bounding box).
        let cx = (((q.x - self.x0) / self.h).floor() as i64).clamp(0, nx - 1);
        let cy = (((q.y - self.y0) / self.h).floor() as i64).clamp(0, ny - 1);
        // Distance from the query to its clamped cell's box: every grid
        // cell is at least this far (clamping picks the nearest boundary
        // cell), so it joins the per-ring lower bound below.
        let bx0 = self.x0 + cx as f64 * self.h;
        let by0 = self.y0 + cy as f64 * self.h;
        let dx = (bx0 - q.x).max(q.x - (bx0 + self.h)).max(0.0);
        let dy = (by0 - q.y).max(q.y - (by0 + self.h)).max(0.0);
        let d0_sq = dx * dx + dy * dy;
        // Rings past this cover no grid cell at all.
        let kmax = cx.max(nx - 1 - cx).max(cy).max(ny - 1 - cy);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for k in 0..=kmax {
            // A ring-k cell is separated from the clamped cell by k-1
            // whole cells, and no cell is nearer than the clamped box.
            let ring = ((k - 1).max(0) as f64) * self.h;
            let lb = (ring * ring).max(d0_sq);
            if lb > best_d {
                break;
            }
            let mut visit = |a: i64, b: i64| {
                let c = b as usize * self.nx + a as usize;
                for &j in &self.order[self.starts[c] as usize..self.starts[c + 1] as usize] {
                    let j = j as usize;
                    let d = points[j].distance_sq(q);
                    if d < best_d || (d == best_d && j < best) {
                        best_d = d;
                        best = j;
                    }
                }
            };
            if k == 0 {
                visit(cx, cy);
                continue;
            }
            // Ring edges clipped to the grid, so empty space costs nothing.
            let a_lo = (cx - k).max(0);
            let a_hi = (cx + k).min(nx - 1);
            if cy - k >= 0 {
                for a in a_lo..=a_hi {
                    visit(a, cy - k);
                }
            }
            if cy + k < ny {
                for a in a_lo..=a_hi {
                    visit(a, cy + k);
                }
            }
            let b_lo = (cy - k + 1).max(0);
            let b_hi = (cy + k - 1).min(ny - 1);
            if cx - k >= 0 {
                for b in b_lo..=b_hi {
                    visit(cx - k, b);
                }
            }
            if cx + k < nx {
                for b in b_lo..=b_hi {
                    visit(cx + k, b);
                }
            }
        }
        best
    }

    /// Fills `out` with the index of every point whose `distance_sq` to
    /// `q` is at most `r²`, in ascending order.
    ///
    /// Only the cells overlapping the square of half-side `r` around `q`
    /// are visited. The square is widened by `1e-9` of `r` plus the
    /// coordinate's magnitude, far above the few roundings that separate
    /// a selected point's coordinate from `q`'s ± `r`, so every selected
    /// point lies inside it and, the cell map being monotone, in a
    /// visited cell. A negative or NaN `r` selects nothing, and points
    /// with a NaN coordinate are never selected. `points` must be the
    /// slice the grid was built over.
    pub fn within(&self, points: &[Point], q: Point, r: f64, out: &mut Vec<u32>) {
        out.clear();
        if r.is_nan() || r < 0.0 {
            return;
        }
        let r2 = r * r;
        let span = |c: f64, origin: f64, n: usize| {
            let half = r + 1e-9 * (r + c.abs());
            let cell = |v: f64| (((v - origin) / self.h).floor() as i64).clamp(0, n as i64 - 1);
            (cell(c - half) as usize, cell(c + half) as usize)
        };
        let (a0, a1) = span(q.x, self.x0, self.nx);
        let (b0, b1) = span(q.y, self.y0, self.ny);
        for b in b0..=b1 {
            let row = b * self.nx;
            let cells = self.starts[row + a0] as usize..self.starts[row + a1 + 1] as usize;
            // The cells of one row are contiguous in `order`.
            for &j in &self.order[cells] {
                if points[j as usize].distance_sq(q) <= r2 {
                    out.push(j);
                }
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(points: &[Point], q: Point) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, p) in points.iter().enumerate() {
            let d = p.distance_sq(q);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_random_sets() {
        // LCG point cloud with an exact duplicate and a far outlier, so
        // ties and empty-ring regions are both exercised.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut pts: Vec<Point> = (0..300)
            .map(|_| Point::new(next() * 100.0, next() * 80.0))
            .collect();
        pts.push(pts[17]); // duplicate → exact tie
        pts.push(Point::new(5000.0, -5000.0)); // outlier → empty rings

        let grid = NearestGrid::new(&pts);
        for _ in 0..500 {
            let q = Point::new(next() * 140.0 - 20.0, next() * 120.0 - 20.0);
            assert_eq!(grid.nearest(&pts, q), brute(&pts, q), "query {q}");
        }
        // Queries at the points themselves (distance 0, tie on the
        // duplicate pair).
        for &q in &pts {
            assert_eq!(grid.nearest(&pts, q), brute(&pts, q));
        }
    }

    /// The brute-force `within`: ascending indices at `distance_sq ≤ r²`.
    fn brute_within(points: &[Point], q: Point, r: f64) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&j| r >= 0.0 && points[j as usize].distance_sq(q) <= r * r)
            .collect()
    }

    #[test]
    fn within_matches_brute_force() {
        let mut seed = 0x51_7cc1_b727_220au64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut pts: Vec<Point> = (0..400)
            .map(|_| Point::new(next() * 100.0, next() * 30.0))
            .collect();
        // A duplicate, an outlier, a NaN (never selected) and a point
        // exactly on a query circle.
        pts.push(pts[5]);
        pts.push(Point::new(-900.0, 4000.0));
        pts.push(Point::new(f64::NAN, 3.0));
        pts.push(Point::new(50.0, 18.0));
        let grid = NearestGrid::new(&pts);
        let mut out = vec![7u32]; // stale contents are cleared
        let mut queries: Vec<(Point, f64)> = (0..300)
            .map(|_| {
                let q = Point::new(next() * 160.0 - 30.0, next() * 90.0 - 30.0);
                (q, next() * next() * 60.0)
            })
            .collect();
        queries.extend([
            (Point::new(50.0, 15.0), 3.0),
            (pts[5], 0.0),
            (Point::new(10.0, 10.0), f64::INFINITY),
            (Point::new(10.0, 10.0), f64::NAN),
            (Point::new(10.0, 10.0), -4.0),
            (Point::new(1e6, -1e6), 5.0),
        ]);
        for (q, r) in queries {
            grid.within(&pts, q, r, &mut out);
            assert_eq!(out, brute_within(&pts, q, r), "query {q}, r {r}");
        }
    }

    #[test]
    fn exact_tie_takes_lowest_index() {
        let pts = vec![Point::new(-3.0, 0.0), Point::new(3.0, 0.0)];
        let grid = NearestGrid::new(&pts);
        assert_eq!(grid.nearest(&pts, Point::new(0.0, 4.0)), 0);
    }

    #[test]
    fn coincident_points_degenerate_grid() {
        let pts = vec![Point::new(2.0, 2.0); 5];
        let grid = NearestGrid::new(&pts);
        assert_eq!(grid.nearest(&pts, Point::new(7.0, -1.0)), 0);
        assert_eq!(grid.nearest(&pts, Point::new(2.0, 2.0)), 0);
    }

    #[test]
    fn single_point() {
        let pts = vec![Point::new(1.0, 1.0)];
        let grid = NearestGrid::new(&pts);
        assert_eq!(grid.nearest(&pts, Point::new(-50.0, 9.0)), 0);
    }
}
