//! Point location in a triangle mesh.
//!
//! The harmonic-map composition (Sec. III-B) must find, for every robot's
//! disk position, the target-mesh triangle containing it in the overlapped
//! unit disks. [`PointLocator`] provides a bucket-grid accelerated lookup
//! with a nearest-triangle fallback for points that fall just outside the
//! mesh (numerical noise near the disk boundary).

use crate::TriMesh;
use anr_geom::{Aabb, NearestGrid, Point};

/// Bucket-grid point locator over a fixed mesh.
///
/// Build once, query many times. Queries return the containing triangle,
/// or with [`PointLocator::locate_or_nearest`] the nearest triangle when
/// the point is slightly outside the mesh.
///
/// ```
/// use anr_geom::Point;
/// use anr_mesh::{delaunay, PointLocator};
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(10.0, 10.0),
///     Point::new(0.0, 10.0),
/// ];
/// let mesh = delaunay(&pts)?;
/// let locator = PointLocator::new(&mesh);
/// assert!(locator.locate(Point::new(5.0, 5.0)).is_some());
/// assert!(locator.locate(Point::new(50.0, 50.0)).is_none());
/// # Ok::<(), anr_mesh::MeshError>(())
/// ```
#[derive(Debug)]
pub struct PointLocator<'m> {
    mesh: &'m TriMesh,
    bbox: Aabb,
    nx: usize,
    ny: usize,
    cell: f64,
    /// For each grid cell, the triangles whose bbox overlaps it.
    buckets: Vec<Vec<usize>>,
    /// Triangle centroids plus an exact nearest-centroid index, for the
    /// outside-mesh fallback of [`PointLocator::locate_or_nearest`].
    centroids: Vec<Point>,
    centroid_grid: NearestGrid,
}

impl<'m> PointLocator<'m> {
    /// Builds a locator for `mesh`.
    ///
    /// # Panics
    ///
    /// Panics for a mesh with zero triangles.
    pub fn new(mesh: &'m TriMesh) -> Self {
        assert!(mesh.num_triangles() > 0, "cannot locate in an empty mesh");
        // The assert above guarantees vertices exist; the degenerate
        // fallback keeps this panic-free all the same.
        let bbox = Aabb::from_points(mesh.vertices().iter().copied())
            .unwrap_or(Aabb::new(Point::ORIGIN, Point::ORIGIN));
        // Aim for ~2 triangles per cell.
        let target_cells = (mesh.num_triangles() / 2).max(1);
        let aspect = (bbox.width() / bbox.height().max(1e-12)).max(1e-6);
        let ny = ((target_cells as f64 / aspect).sqrt().ceil() as usize).max(1);
        let nx = target_cells.div_ceil(ny).max(1);
        let cell = (bbox.width() / nx as f64)
            .max(bbox.height() / ny as f64)
            .max(1e-12);

        let mut buckets = vec![Vec::new(); nx * ny];
        for t in 0..mesh.num_triangles() {
            let tri = mesh.triangle(t);
            let mut tb = Aabb::new(tri.a, tri.b);
            tb.expand(tri.c);
            let (i0, j0) = Self::cell_of(&bbox, cell, nx, ny, tb.min);
            let (i1, j1) = Self::cell_of(&bbox, cell, nx, ny, tb.max);
            for j in j0..=j1 {
                for i in i0..=i1 {
                    buckets[j * nx + i].push(t);
                }
            }
        }

        let centroids: Vec<Point> = (0..mesh.num_triangles())
            .map(|t| mesh.triangle(t).centroid())
            .collect();
        let centroid_grid = NearestGrid::new(&centroids);

        PointLocator {
            mesh,
            bbox,
            nx,
            ny,
            cell,
            buckets,
            centroids,
            centroid_grid,
        }
    }

    fn cell_of(bbox: &Aabb, cell: f64, nx: usize, ny: usize, p: Point) -> (usize, usize) {
        let i = (((p.x - bbox.min.x) / cell).floor() as isize).clamp(0, nx as isize - 1) as usize;
        let j = (((p.y - bbox.min.y) / cell).floor() as isize).clamp(0, ny as isize - 1) as usize;
        (i, j)
    }

    /// The mesh this locator indexes.
    #[inline]
    pub fn mesh(&self) -> &TriMesh {
        self.mesh
    }

    /// Triangle index containing `p`, if any (boundary inclusive).
    pub fn locate(&self, p: Point) -> Option<usize> {
        if !self.bbox.inflated(self.cell).contains(p) {
            return None;
        }
        let (i, j) = Self::cell_of(&self.bbox, self.cell, self.nx, self.ny, p);
        for &t in &self.buckets[j * self.nx + i] {
            if self.mesh.triangle(t).contains(p) {
                return Some(t);
            }
        }
        // The point may sit exactly on a cell border; check the 8
        // surrounding cells before giving up.
        for dj in -1i64..=1 {
            for di in -1i64..=1 {
                if di == 0 && dj == 0 {
                    continue;
                }
                let ii = i as i64 + di;
                let jj = j as i64 + dj;
                if ii < 0 || jj < 0 || ii >= self.nx as i64 || jj >= self.ny as i64 {
                    continue;
                }
                for &t in &self.buckets[jj as usize * self.nx + ii as usize] {
                    if self.mesh.triangle(t).contains(p) {
                        return Some(t);
                    }
                }
            }
        }
        None
    }

    /// Containing triangle, or the triangle whose centroid is nearest
    /// when `p` is outside the mesh.
    ///
    /// The boolean is `true` when the point was genuinely contained. The
    /// fallback is an exact ring search over cached centroids (ties to
    /// the lowest triangle index, identical to a linear scan) — it runs
    /// for every boundary robot of a rotated disk, so it must not cost
    /// `O(triangles)`.
    pub fn locate_or_nearest(&self, p: Point) -> (usize, bool) {
        if let Some(t) = self.locate(p) {
            return (t, true);
        }
        (self.centroid_grid.nearest(&self.centroids, p), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delaunay;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn grid_mesh(n: usize) -> TriMesh {
        let mut pts = Vec::new();
        for j in 0..n {
            for i in 0..n {
                pts.push(p(i as f64, j as f64));
            }
        }
        delaunay(&pts).unwrap()
    }

    #[test]
    fn locate_interior_points() {
        let m = grid_mesh(5);
        let loc = PointLocator::new(&m);
        for &q in &[p(0.5, 0.5), p(3.3, 2.7), p(0.0, 0.0), p(4.0, 4.0)] {
            let t = loc.locate(q).expect("point should be inside");
            assert!(m.triangle(t).contains(q));
        }
    }

    #[test]
    fn locate_outside_returns_none() {
        let m = grid_mesh(4);
        let loc = PointLocator::new(&m);
        assert!(loc.locate(p(100.0, 100.0)).is_none());
        assert!(loc.locate(p(-1.0, -1.0)).is_none());
    }

    #[test]
    fn locate_or_nearest_fallback() {
        let m = grid_mesh(4);
        let loc = PointLocator::new(&m);
        let (t, inside) = loc.locate_or_nearest(p(10.0, 1.5));
        assert!(!inside);
        // Nearest triangle should hug the right edge (x near 3).
        assert!(m.triangle(t).centroid().x > 2.0);
        let (_, inside) = loc.locate_or_nearest(p(1.5, 1.5));
        assert!(inside);
    }

    #[test]
    fn locate_matches_brute_force() {
        let m = grid_mesh(6);
        let loc = PointLocator::new(&m);
        let mut seed: u64 = 7;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..200 {
            let q = p(next() * 5.0, next() * 5.0);
            let fast = loc.locate(q);
            let brute = (0..m.num_triangles()).find(|&t| m.triangle(t).contains(q));
            match (fast, brute) {
                (Some(a), Some(b)) => {
                    // Both must actually contain the point (ties on shared
                    // edges can differ in index).
                    assert!(m.triangle(a).contains(q));
                    assert!(m.triangle(b).contains(q));
                }
                (None, None) => {}
                other => panic!("mismatch at {q}: {other:?}"),
            }
        }
    }
}
