//! Filling FoI holes with virtual vertices (paper Sec. III-D-3).
//!
//! Harmonic maps require a topological disk. For a FoI with holes the
//! paper adds "a virtual vertex for each hole", positioned at the average
//! of the hole's boundary vertices, and fills the hole with the fan of
//! virtual triangles connecting consecutive boundary vertices to the
//! virtual vertex.

use crate::HarmonicError;
use anr_geom::Point;
use anr_mesh::TriMesh;

/// A mesh whose holes were filled with virtual vertices and triangles.
#[derive(Debug, Clone)]
pub struct FilledMesh {
    /// The filled (topological-disk) mesh. Vertices `0..num_real` are the
    /// original vertices; vertices `num_real..` are virtual.
    mesh: TriMesh,
    /// Number of original (real) vertices.
    num_real: usize,
    /// Indices of the added virtual vertices (one per hole).
    virtual_vertices: Vec<usize>,
    /// Triangle indices that are virtual (contain a virtual vertex).
    virtual_triangles: Vec<bool>,
}

impl FilledMesh {
    /// The filled mesh (a topological disk).
    #[inline]
    pub fn mesh(&self) -> &TriMesh {
        &self.mesh
    }

    /// Number of original vertices; indices `>= num_real` are virtual.
    #[inline]
    pub fn num_real(&self) -> usize {
        self.num_real
    }

    /// Is vertex `v` a virtual hole-center?
    #[inline]
    pub fn is_virtual_vertex(&self, v: usize) -> bool {
        v >= self.num_real
    }

    /// The virtual vertex indices, one per filled hole.
    #[inline]
    pub fn virtual_vertices(&self) -> &[usize] {
        &self.virtual_vertices
    }

    /// Is triangle `t` one of the virtual fill triangles?
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    #[inline]
    pub fn is_virtual_triangle(&self, t: usize) -> bool {
        self.virtual_triangles[t]
    }

    /// Number of holes that were filled.
    #[inline]
    pub fn num_holes(&self) -> usize {
        self.virtual_vertices.len()
    }
}

/// Fills every inner hole of `mesh` with a virtual vertex and a triangle
/// fan, returning a topological disk.
///
/// A mesh that is already a disk is returned unchanged (zero virtual
/// vertices).
///
/// # Errors
///
/// * [`HarmonicError::NoBoundary`] — the mesh has no boundary.
/// * [`HarmonicError::TooSmall`] — no triangles.
///
/// # Example
///
/// ```
/// use anr_geom::{Point, Polygon, PolygonWithHoles};
/// use anr_mesh::FoiMesher;
/// use anr_harmonic::fill_holes;
///
/// let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
/// let hole = Polygon::rectangle(Point::new(40.0, 40.0), 20.0, 20.0);
/// let foi = PolygonWithHoles::new(outer, vec![hole]).unwrap();
/// let meshed = FoiMesher::new(8.0).mesh(&foi)?;
/// let filled = fill_holes(meshed.mesh())?;
/// assert_eq!(filled.num_holes(), 1);
/// assert_eq!(filled.mesh().boundary_loops().len(), 1); // now a disk
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fill_holes(mesh: &TriMesh) -> Result<FilledMesh, HarmonicError> {
    if mesh.num_triangles() == 0 {
        return Err(HarmonicError::TooSmall);
    }
    let loops = mesh.boundary_loops();
    if loops.is_empty() {
        return Err(HarmonicError::NoBoundary);
    }
    let num_real = mesh.num_vertices();
    let real_triangles = mesh.num_triangles();

    let mut verts: Vec<Point> = mesh.vertices().to_vec();
    let mut tris: Vec<[usize; 3]> = mesh.triangles().to_vec();
    let mut virtual_vertices = Vec::new();

    // loops[0] is the outer boundary; the rest are holes.
    for hole in loops.iter().skip(1) {
        // Virtual vertex at the average of the hole's boundary vertices
        // (paper: "computed as average of the positions of boundary
        // vertices along the hole").
        let Some(center) = Point::centroid_of(hole.iter().map(|&v| mesh.vertex(v))) else {
            continue; // an empty loop has nothing to fill
        };
        let vc = verts.len();
        verts.push(center);
        virtual_vertices.push(vc);
        // Fan: each consecutive pair on the loop + the virtual vertex.
        for k in 0..hole.len() {
            let a = hole[k];
            let b = hole[(k + 1) % hole.len()];
            tris.push([a, b, vc]);
        }
    }

    let mesh = TriMesh::new(verts, tris).map_err(HarmonicError::InvalidFill)?;
    let virtual_triangles: Vec<bool> = (0..mesh.num_triangles())
        .map(|t| t >= real_triangles)
        .collect();

    Ok(FilledMesh {
        mesh,
        num_real,
        virtual_vertices,
        virtual_triangles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::{Polygon, PolygonWithHoles};
    use anr_mesh::FoiMesher;
    use anr_trace::Tracer;

    fn ring_mesh() -> TriMesh {
        let p = |x: f64, y: f64| Point::new(x, y);
        let verts = vec![
            p(0.0, 0.0),
            p(3.0, 0.0),
            p(3.0, 3.0),
            p(0.0, 3.0),
            p(1.0, 1.0),
            p(2.0, 1.0),
            p(2.0, 2.0),
            p(1.0, 2.0),
        ];
        let tris = vec![
            [0, 1, 5],
            [0, 5, 4],
            [1, 2, 6],
            [1, 6, 5],
            [2, 3, 7],
            [2, 7, 6],
            [3, 0, 4],
            [3, 4, 7],
        ];
        TriMesh::new(verts, tris).unwrap()
    }

    #[test]
    fn fills_square_ring() {
        let filled = fill_holes(&ring_mesh()).unwrap();
        assert_eq!(filled.num_holes(), 1);
        assert_eq!(filled.num_real(), 8);
        assert_eq!(filled.mesh().num_vertices(), 9);
        assert_eq!(filled.mesh().num_triangles(), 12); // 8 + 4 fan
        assert_eq!(filled.mesh().boundary_loops().len(), 1);
        assert_eq!(filled.mesh().euler_characteristic(), 1);
    }

    #[test]
    fn virtual_vertex_at_hole_center() {
        let filled = fill_holes(&ring_mesh()).unwrap();
        let vc = filled.virtual_vertices()[0];
        assert!(filled.is_virtual_vertex(vc));
        assert!(filled.mesh().vertex(vc).distance(Point::new(1.5, 1.5)) < 1e-12);
    }

    #[test]
    fn virtual_triangle_flags() {
        let filled = fill_holes(&ring_mesh()).unwrap();
        let n_virtual = (0..filled.mesh().num_triangles())
            .filter(|&t| filled.is_virtual_triangle(t))
            .count();
        assert_eq!(n_virtual, 4);
        // All virtual triangles touch the virtual vertex.
        let vc = filled.virtual_vertices()[0];
        for t in 0..filled.mesh().num_triangles() {
            let has_vc = filled.mesh().triangles()[t].contains(&vc);
            assert_eq!(filled.is_virtual_triangle(t), has_vc);
        }
    }

    #[test]
    fn disk_mesh_unchanged() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let mesh =
            TriMesh::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)], vec![[0, 1, 2]]).unwrap();
        let filled = fill_holes(&mesh).unwrap();
        assert_eq!(filled.num_holes(), 0);
        assert_eq!(filled.mesh().num_vertices(), 3);
        assert_eq!(filled.mesh().num_triangles(), 1);
    }

    #[test]
    fn filled_foi_mesh_maps_to_disk() {
        // End-to-end with the harmonic map: fill a real FoI with two
        // holes and verify the result is mappable.
        let outer = Polygon::rectangle(Point::ORIGIN, 120.0, 100.0);
        let h1 = Polygon::regular(Point::new(35.0, 50.0), 12.0, 10);
        let h2 = Polygon::regular(Point::new(85.0, 50.0), 14.0, 12);
        let foi = PolygonWithHoles::new(outer, vec![h1, h2]).unwrap();
        let meshed = FoiMesher::new(8.0).mesh(&foi).unwrap();
        let filled = fill_holes(meshed.mesh()).unwrap();
        assert_eq!(filled.num_holes(), 2);
        let disk =
            crate::harmonic_map_to_disk(filled.mesh(), &Default::default(), &Tracer::disabled())
                .unwrap();
        // Virtual vertices are interior: strictly inside the disk.
        for &vc in filled.virtual_vertices() {
            assert!(disk.position(vc).to_vector().norm() < 1.0 - 1e-6);
        }
    }

    #[test]
    fn empty_mesh_rejected() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let mesh = TriMesh::new(vec![p(0.0, 0.0)], vec![]).unwrap();
        assert!(matches!(fill_holes(&mesh), Err(HarmonicError::TooSmall)));
    }
}
