//! Bowyer–Watson Delaunay triangulation.

use crate::{MeshError, TriMesh};
use anr_geom::{in_circle, orient2d, Aabb, Point};

/// Computes the Delaunay triangulation of a point set.
///
/// Incremental Bowyer–Watson with a super-triangle: each point is
/// inserted by removing every triangle whose circumcircle contains it and
/// re-triangulating the resulting cavity.
///
/// The triangles whose circumcircle may contain a point are looked up in
/// a loose grid hierarchy of their circumcircles over the input's
/// bounding box rather than found by scanning every live triangle; the
/// cavity, the new triangles and their order are exactly those of the
/// scan.
///
/// The output indices match the input point order. Near-duplicate points
/// (closer than `1e-9` times the bounding-box diagonal) are rejected via
/// [`MeshError::DegenerateTriangle`]-free construction — they simply
/// produce slivers that are filtered; callers should deduplicate inputs.
///
/// # Errors
///
/// * [`MeshError::TooFewPoints`] for fewer than 3 points.
/// * [`MeshError::AllCollinear`] when no triangle can be formed.
///
/// # Example
///
/// ```
/// use anr_geom::Point;
/// use anr_mesh::delaunay;
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(0.0, 1.0),
///     Point::new(1.0, 1.0),
/// ];
/// let mesh = delaunay(&pts)?;
/// assert_eq!(mesh.num_triangles(), 2);
/// # Ok::<(), anr_mesh::MeshError>(())
/// ```
pub fn delaunay(points: &[Point]) -> Result<TriMesh, MeshError> {
    if points.len() < 3 {
        return Err(MeshError::TooFewPoints { got: points.len() });
    }

    let Some(bb) = Aabb::from_points(points.iter().copied()) else {
        return Err(MeshError::TooFewPoints { got: 0 });
    };
    let span = bb.diagonal().max(1.0);
    let center = bb.center();

    // Super-triangle large enough to strictly contain every point.
    let m = 20.0 * span;
    let s0 = Point::new(center.x - 2.0 * m, center.y - m);
    let s1 = Point::new(center.x + 2.0 * m, center.y - m);
    let s2 = Point::new(center.x, center.y + 2.0 * m);

    let n = points.len();
    let mut verts: Vec<Point> = points.to_vec();
    verts.push(s0); // index n
    verts.push(s1); // index n + 1
    verts.push(s2); // index n + 2

    // Active triangle list, with each triangle's circumcircle cached as
    // [center x, center y, radius²]. The cached circle is only a
    // *prefilter*: a triangle whose circle (with a generous relative
    // slack) excludes the query point cannot pass the exact guarded
    // in_circle test below, so skipping it never changes the bad set —
    // the expensive determinant runs only for the handful of candidates
    // near the cavity.
    let mut tris: Vec<[usize; 3]> = vec![[n, n + 1, n + 2]];
    let mut alive: Vec<bool> = vec![true];
    let circle = circumcircle(s0, s1, s2);
    let mut circles: Vec<[f64; 3]> = vec![circle];
    let mut dead = 0usize;
    let mut index = CircleIndex::new(&bb, n);
    index.file(0, circle);

    let mut bad: Vec<usize> = Vec::new();
    // The bad triangles' edges as (undirected key, directed edge).
    let mut cavity: Vec<((usize, usize), (usize, usize))> = Vec::new();
    let mut hull: Vec<(usize, usize)> = Vec::new();
    for pi in 0..n {
        let p = verts[pi];

        // Find all "bad" triangles whose circumcircle contains p. Every
        // triangle the prefilter can pass is among the candidates.
        bad.clear();
        index.for_each_candidate(p, &alive, |ti| {
            let [cx, cy, r2] = circles[ti];
            let dx = p.x - cx;
            let dy = p.y - cy;
            let d2 = dx * dx + dy * dy;
            // Conservative reject: slack is ~1e10× the worst rounding
            // error of the cached center (degenerate triangles cache an
            // infinite radius and always fall through to the exact test).
            if d2 > r2 + 1e-6 * (d2 + r2) {
                return;
            }
            let t = tris[ti];
            let (a, b, c) = (verts[t[0]], verts[t[1]], verts[t[2]]);
            // Triangles are maintained CCW, required by in_circle's sign.
            // The guard is relative to the determinant's length⁴ scale so
            // cocircular quadruples classify consistently as "not inside"
            // instead of flipping sign with rounding noise.
            let scale = {
                let s = (a.distance_sq(p) + b.distance_sq(p) + c.distance_sq(p)) / 3.0;
                s * s
            };
            if in_circle(a, b, c, p) > 1e-12 * scale {
                bad.push(ti);
            }
        });
        // Slot order, as a scan over the triangle list finds them.
        bad.sort_unstable();

        // Boundary of the cavity: edges of bad triangles not shared by
        // two bad triangles, i.e. whose key occurs once.
        cavity.clear();
        for &ti in &bad {
            alive[ti] = false;
            let t = tris[ti];
            for k in 0..3 {
                let (a, b) = (t[k], t[(k + 1) % 3]);
                cavity.push(((a.min(b), a.max(b)), (a, b)));
            }
        }
        cavity.sort_unstable();
        hull.clear();
        hull.extend(
            cavity
                .chunk_by(|x, y| x.0 == y.0)
                .filter(|run| run.len() == 1)
                .map(|run| run[0].1),
        );
        // Deterministic insertion order.
        hull.sort_unstable();

        for &(a, b) in &hull {
            // Orient the new triangle CCW.
            let (va, vb) = (verts[a], verts[b]);
            let t = if orient2d(va, vb, p) > 0.0 {
                [a, b, pi]
            } else {
                [b, a, pi]
            };
            // Skip degenerate (collinear) triangles.
            if orient2d(verts[t[0]], verts[t[1]], verts[t[2]]) <= 0.0 {
                continue;
            }
            let circle = circumcircle(verts[t[0]], verts[t[1]], verts[t[2]]);
            index.file(tris.len(), circle);
            tris.push(t);
            alive.push(true);
            circles.push(circle);
        }

        // Compact dead slots once they dominate, preserving relative
        // order so the final triangle list (and thus the output mesh) is
        // identical to the never-compacted scan.
        dead += bad.len();
        if dead * 2 > tris.len() && tris.len() > 64 {
            let mut slot: Vec<Option<usize>> = vec![None; tris.len()];
            let mut w = 0usize;
            for r in 0..tris.len() {
                if alive[r] {
                    slot[r] = Some(w);
                    tris[w] = tris[r];
                    circles[w] = circles[r];
                    w += 1;
                }
            }
            tris.truncate(w);
            circles.truncate(w);
            alive.truncate(w);
            alive.fill(true);
            index.remap(&slot);
            dead = 0;
        }
    }

    // Drop triangles touching the super-triangle.
    let final_tris: Vec<[usize; 3]> = tris
        .into_iter()
        .zip(alive)
        .filter(|(t, a)| *a && t.iter().all(|&v| v < n))
        .map(|(t, _)| t)
        .collect();

    if final_tris.is_empty() {
        return Err(MeshError::AllCollinear);
    }

    verts.truncate(n);
    TriMesh::new(verts, final_tris)
}

/// Largest number of cells a circle's bounding box may overlap at the
/// level it is filed at.
const MAX_FILED_CELLS: usize = 4;

/// The triangles' cached circumcircles filed in a loose grid hierarchy
/// over the input's bounding box.
///
/// Level 0 is a uniform grid of about one input point per cell. A
/// point's cell at level `ℓ` is its level-0 column and row shifted right
/// by `ℓ`, so each level halves the columns and rows of the one below,
/// and the top level is one cell.
///
/// Each circle is widened well past the prefilter's slack and filed at
/// the lowest level where its bounding box overlaps at most
/// [`MAX_FILED_CELLS`] cells, under each of them; a circle that is not
/// finite goes to an overflow list. The map from a coordinate to its
/// level-0 column or row is monotone, and so is the shift to a level, so
/// a point the prefilter could let into a circle has its cell at the
/// circle's level inside the circle's box there.
///
/// A point's lists, one per level and the overflow list, therefore hold
/// every triangle the prefilter could pass, each in one list. Dead
/// triangles are dropped lazily when a list is visited and on
/// compaction.
struct CircleIndex {
    x0: f64,
    y0: f64,
    /// Reciprocal of the level-0 cell side.
    inv_cell: f64,
    /// Level-0 columns and rows.
    nx: usize,
    ny: usize,
    /// Absolute widening: rounding at the coordinates' magnitude.
    slack: f64,
    /// Level `ℓ`'s cells, row-major, start at `level_start[ℓ]`.
    level_start: Vec<usize>,
    cells: Vec<Vec<usize>>,
    overflow: Vec<usize>,
}

impl CircleIndex {
    fn new(bb: &Aabb, n: usize) -> Self {
        let (w, h) = (bb.width(), bb.height());
        let magnitude = bb
            .min
            .x
            .abs()
            .max(bb.max.x.abs())
            .max(bb.min.y.abs())
            .max(bb.max.y.abs());
        let cell = (w * h / n as f64).sqrt().max(bb.diagonal() / n as f64);
        // Beyond ~1e100 the prefilter's squared distances could overflow
        // and stop being conservative: one cell then lists every filed
        // triangle, which is the plain scan.
        let (nx, ny) = if cell > 0.0 && cell.is_finite() && magnitude < 1e100 {
            (
                ((w / cell).ceil() as usize).clamp(1, n),
                ((h / cell).ceil() as usize).clamp(1, n),
            )
        } else {
            (1, 1)
        };
        let mut level_start = Vec::new();
        let mut total = 0;
        for level in 0.. {
            level_start.push(total);
            let (cols, rows) = ((nx - 1) >> level, (ny - 1) >> level);
            total += (cols + 1) * (rows + 1);
            if cols == 0 && rows == 0 {
                break;
            }
        }
        CircleIndex {
            x0: bb.min.x,
            y0: bb.min.y,
            inv_cell: 1.0 / cell,
            nx,
            ny,
            slack: 1e-9 * magnitude,
            level_start,
            cells: vec![Vec::new(); total],
            overflow: Vec::new(),
        }
    }

    /// Level-0 cell column or row of coordinate `v`: monotone in `v`,
    /// clamped to the grid (NaN lands in cell 0).
    fn bucket(v: f64, origin: f64, inv_cell: f64, count: usize) -> usize {
        ((v - origin) * inv_cell)
            .floor()
            .max(0.0)
            .min((count - 1) as f64) as usize
    }

    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        (
            Self::bucket(x, self.x0, self.inv_cell, self.nx),
            Self::bucket(y, self.y0, self.inv_cell, self.ny),
        )
    }

    /// Index into `cells` of the first cell of `row` at `level`.
    fn row_start(&self, level: usize, row: usize) -> usize {
        self.level_start[level] + row * (((self.nx - 1) >> level) + 1)
    }

    /// Files triangle `ti` with cached circle `[cx, cy, r2]`.
    fn file(&mut self, ti: usize, [cx, cy, r2]: [f64; 3]) {
        if !(cx.is_finite() && cy.is_finite() && r2.is_finite()) {
            self.overflow.push(ti);
            return;
        }
        // The prefilter passes only points within ~(1 + 3e-6)·r of the
        // cached center; 1e-3 more keeps the box edges' rounding inside.
        let r = r2.sqrt() * (1.0 + 1e-3) + self.slack;
        let (ix0, iy0) = self.cell_of(cx - r, cy - r);
        let (ix1, iy1) = self.cell_of(cx + r, cy + r);
        let mut level = 0;
        while ((ix1 >> level) - (ix0 >> level) + 1) * ((iy1 >> level) - (iy0 >> level) + 1)
            > MAX_FILED_CELLS
        {
            level += 1;
        }
        for row in (iy0 >> level)..=(iy1 >> level) {
            let start = self.row_start(level, row);
            for col in (ix0 >> level)..=(ix1 >> level) {
                self.cells[start + col].push(ti);
            }
        }
    }

    /// Calls `visit` once for every live triangle filed under `p`'s cell
    /// at any level or in the overflow list, dropping the dead entries
    /// it meets.
    fn for_each_candidate(&mut self, p: Point, alive: &[bool], mut visit: impl FnMut(usize)) {
        let (ix, iy) = self.cell_of(p.x, p.y);
        let mut keep = |ti: &usize| {
            if alive[*ti] {
                visit(*ti);
            }
            alive[*ti]
        };
        for level in 0..self.level_start.len() {
            let slot = self.row_start(level, iy >> level) + (ix >> level);
            self.cells[slot].retain(&mut keep);
        }
        self.overflow.retain(keep);
    }

    /// Renames filed triangles after compaction (`slot[old]` is the new
    /// index, `None` for a dropped dead triangle).
    fn remap(&mut self, slot: &[Option<usize>]) {
        for list in self
            .cells
            .iter_mut()
            .chain(std::iter::once(&mut self.overflow))
        {
            list.retain_mut(|ti| match slot[*ti] {
                Some(new) => {
                    *ti = new;
                    true
                }
                None => false,
            });
        }
    }
}

/// Circumcircle of triangle `abc` as `[center_x, center_y, radius²]`.
///
/// Near-collinear triangles (twice-area below `1e-8` of the longest
/// squared edge, where the division would amplify rounding into the
/// cached center) return an infinite radius, which makes the caller's
/// prefilter pass-through — the exact in_circle test then decides.
fn circumcircle(a: Point, b: Point, c: Point) -> [f64; 3] {
    let bx = b.x - a.x;
    let by = b.y - a.y;
    let cx = c.x - a.x;
    let cy = c.y - a.y;
    let d = 2.0 * (bx * cy - by * cx);
    let b2 = bx * bx + by * by;
    let c2 = cx * cx + cy * cy;
    let ex = bx - cx;
    let ey = by - cy;
    let l2max = b2.max(c2).max(ex * ex + ey * ey);
    if d.abs() <= 1e-8 * l2max {
        return [a.x, a.y, f64::INFINITY];
    }
    let ux = (cy * b2 - by * c2) / d;
    let uy = (bx * c2 - cx * b2) / d;
    [a.x + ux, a.y + uy, ux * ux + uy * uy]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn too_few_points() {
        assert!(matches!(
            delaunay(&[p(0.0, 0.0), p(1.0, 0.0)]),
            Err(MeshError::TooFewPoints { got: 2 })
        ));
    }

    #[test]
    fn collinear_points_error() {
        let pts: Vec<Point> = (0..5).map(|i| p(i as f64, 2.0 * i as f64)).collect();
        assert!(matches!(delaunay(&pts), Err(MeshError::AllCollinear)));
    }

    #[test]
    fn triangle_of_three_points() {
        let m = delaunay(&[p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap();
        assert_eq!(m.num_triangles(), 1);
        assert_eq!(m.num_vertices(), 3);
        assert!((m.total_area() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn square_has_two_triangles() {
        let m = delaunay(&[p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap();
        assert_eq!(m.num_triangles(), 2);
        assert!((m.total_area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn delaunay_prefers_short_diagonal() {
        // Quadrilateral where one diagonal choice violates the empty-
        // circle property: the Delaunay result must use the short one.
        let pts = vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 1.0), p(0.0, 1.0)];
        let m = delaunay(&pts).unwrap();
        // The shared edge must be a diagonal (0-2 or 1-3), both have the
        // same length here; check total area is exact instead and that
        // the empty-circle property holds.
        assert!((m.total_area() - 10.0).abs() < 1e-9);
        assert_empty_circle(&m);
    }

    fn assert_empty_circle(m: &TriMesh) {
        for t in 0..m.num_triangles() {
            let [a, b, c] = m.triangles()[t];
            let (pa, pb, pc) = (m.vertex(a), m.vertex(b), m.vertex(c));
            for v in 0..m.num_vertices() {
                if v == a || v == b || v == c {
                    continue;
                }
                let val = in_circle(pa, pb, pc, m.vertex(v));
                // Allow tiny positive values from floating-point noise on
                // cocircular configurations.
                let scale = (pa.distance(pb) * pb.distance(pc) * pc.distance(pa))
                    .powi(2)
                    .max(1.0);
                assert!(
                    val <= 1e-6 * scale,
                    "vertex {v} inside circumcircle of triangle {t} (val {val})"
                );
            }
        }
    }

    #[test]
    fn empty_circle_property_random_cloud() {
        // Deterministic pseudo-random points via an LCG.
        let mut seed: u64 = 42;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point> = (0..60).map(|_| p(next() * 100.0, next() * 100.0)).collect();
        let m = delaunay(&pts).unwrap();
        assert_eq!(m.num_vertices(), 60);
        assert_empty_circle(&m);
        // Convex-hull area check: triangulation covers the hull.
        assert!(m.total_area() > 0.0);
        assert_eq!(m.boundary_loops().len(), 1);
        assert_eq!(m.euler_characteristic(), 1);
    }

    #[test]
    fn grid_points_triangulate_fully() {
        // Structured grids are the worst case for cocircular quadruples;
        // the triangulation must still tile the full square.
        let mut pts = Vec::new();
        for j in 0..6 {
            for i in 0..6 {
                pts.push(p(i as f64, j as f64));
            }
        }
        let m = delaunay(&pts).unwrap();
        assert!((m.total_area() - 25.0).abs() < 1e-6);
        assert_eq!(m.num_triangles(), 50);
        assert_eq!(m.euler_characteristic(), 1);
    }

    #[test]
    fn output_indices_match_input_order() {
        let pts = vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 2.0), p(1.0, 0.7)];
        let m = delaunay(&pts).unwrap();
        for (i, q) in pts.iter().enumerate() {
            assert_eq!(m.vertex(i), *q);
        }
    }
}
