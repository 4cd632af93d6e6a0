//! The overlapped-disks correspondence `T → M2` (paper Eqn. 1).
//!
//! With the robot triangulation `T` and the target FoI mesh both
//! harmonically mapped to unit disks, rotating one disk by θ overlays
//! them; a robot's disk position then falls inside a target-mesh triangle
//! whose barycentric coordinates interpolate the original geographic
//! coordinates of its grid points — that is the robot's destination.

use anr_geom::{barycentric_coords, NearestGrid, Point, Rotation, Triangle};
use anr_mesh::{PointLocator, TriMesh};

/// A robot's mapped destination in the target FoI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedPoint {
    /// Geographic destination in `M2`.
    pub position: Point,
    /// True when the disk position landed in a virtual (hole-fill)
    /// triangle and the nearest-real-grid-point fallback was used
    /// (Sec. III-D-3).
    pub via_hole_fallback: bool,
    /// True when the disk position fell (numerically) outside the target
    /// disk mesh and the nearest triangle was used instead.
    pub outside_disk: bool,
}

/// Overlay of a target FoI mesh's disk embedding, ready to map robot
/// disk positions at any rotation angle.
///
/// Build once per target FoI; each [`DiskOverlay::map_point`] call is a
/// point location plus one barycentric interpolation, so evaluating the
/// rotation-search objective at many angles is cheap.
#[derive(Debug)]
pub struct DiskOverlay {
    /// Target mesh geographic positions, indexed like the disk mesh.
    geo_positions: Vec<Point>,
    /// Target mesh embedded in the unit disk.
    disk_mesh: TriMesh,
    /// Per-vertex: is this a virtual hole-center vertex?
    virtual_vertex: Vec<bool>,
    /// Disk positions of the real (non-virtual) vertices, with their
    /// original vertex indices, plus an exact nearest-point index — the
    /// hole-fallback lookup must not scan every vertex per robot.
    real_disk_positions: Vec<Point>,
    real_vertex_ids: Vec<usize>,
    real_grid: NearestGrid,
}

impl DiskOverlay {
    /// Creates an overlay from a target mesh's geographic coordinates,
    /// its unit-disk embedding and the list of virtual vertices (empty
    /// for a hole-free FoI).
    ///
    /// # Panics
    ///
    /// Panics when `geo.num_vertices() != disk_positions.len()`, when a
    /// virtual index is out of range, or when the mesh has no triangles.
    pub fn new(geo: &TriMesh, disk_positions: &[Point], virtual_vertices: &[usize]) -> Self {
        assert_eq!(
            geo.num_vertices(),
            disk_positions.len(),
            "disk embedding must cover every vertex"
        );
        assert!(geo.num_triangles() > 0, "target mesh has no triangles");
        let mut virtual_vertex = vec![false; geo.num_vertices()];
        for &v in virtual_vertices {
            assert!(v < geo.num_vertices(), "virtual vertex out of range");
            virtual_vertex[v] = true;
        }
        let disk_mesh = geo.with_positions(disk_positions.to_vec());
        let mut real_disk_positions = Vec::new();
        let mut real_vertex_ids = Vec::new();
        for (v, &is_virtual) in virtual_vertex.iter().enumerate() {
            if !is_virtual {
                real_disk_positions.push(disk_mesh.vertex(v));
                real_vertex_ids.push(v);
            }
        }
        let real_grid = NearestGrid::new(&real_disk_positions);
        DiskOverlay {
            geo_positions: geo.vertices().to_vec(),
            disk_mesh,
            virtual_vertex,
            real_disk_positions,
            real_vertex_ids,
            real_grid,
        }
    }

    /// The target mesh in disk coordinates.
    #[inline]
    pub fn disk_mesh(&self) -> &TriMesh {
        &self.disk_mesh
    }

    /// Maps one robot disk position through the overlay at rotation
    /// `theta` (the robot's disk is rotated by `theta` before lookup).
    ///
    /// Implements paper Eqn. 1 with two fallbacks from Sec. III-B/D-3:
    /// positions outside the (polygonal) disk boundary use the nearest
    /// triangle with clamped barycentric coordinates, and positions in a
    /// virtual hole-fill triangle snap to the nearest real grid point.
    pub fn map_point(&self, disk_position: Point, theta: f64) -> MappedPoint {
        let locator = PointLocator::new(&self.disk_mesh);
        self.map_point_with(&locator, disk_position, theta)
    }

    /// [`DiskOverlay::map_point`] with a caller-provided locator, so the
    /// locator is built once per rotation sweep instead of per point.
    pub fn map_point_with(
        &self,
        locator: &PointLocator<'_>,
        disk_position: Point,
        theta: f64,
    ) -> MappedPoint {
        let rotated = Rotation::about(Point::ORIGIN, theta).apply(disk_position);
        let (t, inside) = locator.locate_or_nearest(rotated);
        let [a, b, c] = self.disk_mesh.triangles()[t];

        // Virtual triangle: the robot would land in a hole. Paper rule:
        // "the robot can simply choose the nearest grid point in M2".
        if self.virtual_vertex[a] || self.virtual_vertex[b] || self.virtual_vertex[c] {
            let nearest = self.nearest_real_vertex(rotated);
            return MappedPoint {
                position: self.geo_positions[nearest],
                via_hole_fallback: true,
                outside_disk: !inside,
            };
        }

        let tri = Triangle::new(
            self.disk_mesh.vertex(a),
            self.disk_mesh.vertex(b),
            self.disk_mesh.vertex(c),
        );
        let (t1, t2, t3) =
            barycentric_coords(&tri, rotated).unwrap_or((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0));
        // Clamp + renormalize: points just outside the disk polygon get
        // projected onto the nearest triangle instead of extrapolated.
        let (t1, t2, t3) = clamp_barycentric(t1, t2, t3);
        let (ga, gb, gc) = (
            self.geo_positions[a],
            self.geo_positions[b],
            self.geo_positions[c],
        );
        MappedPoint {
            position: Point::new(
                t1 * ga.x + t2 * gb.x + t3 * gc.x,
                t1 * ga.y + t2 * gb.y + t3 * gc.y,
            ),
            via_hole_fallback: false,
            outside_disk: !inside,
        }
    }

    /// Maps a whole set of robot disk positions at rotation `theta`.
    pub fn map_all(&self, disk_positions: &[Point], theta: f64) -> Vec<MappedPoint> {
        let locator = PointLocator::new(&self.disk_mesh);
        self.map_all_with(&locator, disk_positions, theta)
    }

    /// [`DiskOverlay::map_all`] with a caller-provided locator (built over
    /// [`DiskOverlay::disk_mesh`]), so a rotation sweep evaluating many
    /// angles builds the locator once instead of per angle.
    pub fn map_all_with(
        &self,
        locator: &PointLocator<'_>,
        disk_positions: &[Point],
        theta: f64,
    ) -> Vec<MappedPoint> {
        disk_positions
            .iter()
            .map(|&p| self.map_point_with(locator, p, theta))
            .collect()
    }

    /// Nearest non-virtual vertex to `p` in disk coordinates.
    ///
    /// Ring search over the real-vertex subset; ties resolve to the
    /// lowest vertex index (the subset preserves vertex order), exactly
    /// as the linear filtered scan did.
    fn nearest_real_vertex(&self, p: Point) -> usize {
        if self.real_disk_positions.is_empty() {
            return 0;
        }
        self.real_vertex_ids[self.real_grid.nearest(&self.real_disk_positions, p)]
    }
}

/// Clamps barycentric coordinates to the triangle and renormalizes.
fn clamp_barycentric(t1: f64, t2: f64, t3: f64) -> (f64, f64, f64) {
    let (c1, c2, c3) = (t1.max(0.0), t2.max(0.0), t3.max(0.0));
    let s = c1 + c2 + c3;
    if s <= 0.0 {
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    } else {
        (c1 / s, c2 / s, c3 / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fill_holes, harmonic_map_to_disk, HarmonicConfig};
    use anr_geom::{Polygon, PolygonWithHoles};
    use anr_mesh::FoiMesher;
    use anr_trace::Tracer;

    /// Target: a meshed 100×100 square with its harmonic disk embedding.
    fn square_overlay() -> (DiskOverlay, TriMesh) {
        let foi = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, 100.0, 100.0));
        let meshed = FoiMesher::new(10.0).mesh(&foi).unwrap();
        let mesh = meshed.mesh().clone();
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        (DiskOverlay::new(&mesh, disk.positions(), &[]), mesh)
    }

    #[test]
    fn disk_vertex_maps_to_its_geographic_position() {
        let (overlay, mesh) = square_overlay();
        // Mapping a disk vertex position with zero rotation must return
        // (approximately) that vertex's geographic position.
        for v in (0..mesh.num_vertices()).step_by(7) {
            let dp = overlay.disk_mesh().vertex(v);
            let m = overlay.map_point(dp, 0.0);
            assert!(
                m.position.distance(mesh.vertex(v)) < 1e-6,
                "vertex {v}: {} vs {}",
                m.position,
                mesh.vertex(v)
            );
        }
    }

    #[test]
    fn center_maps_inside_target() {
        let (overlay, _) = square_overlay();
        for theta in [0.0, 0.7, 2.0, 4.5] {
            let m = overlay.map_point(Point::ORIGIN, theta);
            assert!(!m.via_hole_fallback);
            assert!(m.position.x > 0.0 && m.position.x < 100.0);
            assert!(m.position.y > 0.0 && m.position.y < 100.0);
        }
    }

    #[test]
    fn rotation_moves_the_image() {
        let (overlay, _) = square_overlay();
        let p = Point::new(0.5, 0.0);
        let a = overlay.map_point(p, 0.0).position;
        let b = overlay.map_point(p, std::f64::consts::PI).position;
        assert!(a.distance(b) > 10.0, "rotation had no effect: {a} vs {b}");
    }

    #[test]
    fn outside_disk_is_flagged_and_clamped() {
        let (overlay, _) = square_overlay();
        let m = overlay.map_point(Point::new(1.5, 0.0), 0.0);
        assert!(m.outside_disk);
        // Still a sane position inside the target's bounding box.
        assert!(m.position.x >= -1.0 && m.position.x <= 101.0);
        assert!(m.position.y >= -1.0 && m.position.y <= 101.0);
    }

    #[test]
    fn hole_fallback_snaps_to_real_grid_point() {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::regular(Point::new(50.0, 50.0), 20.0, 14);
        let foi = PolygonWithHoles::new(outer, vec![hole.clone()]).unwrap();
        let meshed = FoiMesher::new(8.0).mesh(&foi).unwrap();
        let filled = fill_holes(meshed.mesh()).unwrap();
        let disk = harmonic_map_to_disk(
            filled.mesh(),
            &HarmonicConfig::default(),
            &Tracer::disabled(),
        )
        .unwrap();
        let overlay = DiskOverlay::new(filled.mesh(), disk.positions(), filled.virtual_vertices());

        // The virtual vertex's own disk position is surely in a virtual
        // triangle.
        let vc = filled.virtual_vertices()[0];
        let m = overlay.map_point(disk.position(vc), 0.0);
        assert!(m.via_hole_fallback);
        // The fallback destination is a real mesh vertex, outside the
        // hole.
        assert!(!foi.in_hole(m.position) || hole.distance_to_boundary(m.position) < 1.0);
    }

    #[test]
    fn map_all_matches_map_point() {
        let (overlay, _) = square_overlay();
        let pts = vec![Point::ORIGIN, Point::new(0.3, 0.2), Point::new(-0.5, 0.4)];
        let all = overlay.map_all(&pts, 1.0);
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(all[i], overlay.map_point(p, 1.0));
        }
    }

    #[test]
    fn clamp_barycentric_cases() {
        let (a, b, c) = clamp_barycentric(0.5, 0.25, 0.25);
        assert_eq!((a, b, c), (0.5, 0.25, 0.25));
        let (a, b, c) = clamp_barycentric(-0.5, 0.75, 0.75);
        assert_eq!(a, 0.0);
        assert!((b - 0.5).abs() < 1e-12 && (c - 0.5).abs() < 1e-12);
        let (a, b, c) = clamp_barycentric(-1.0, -1.0, -1.0);
        assert!((a + b + c - 1.0).abs() < 1e-12);
    }
}
