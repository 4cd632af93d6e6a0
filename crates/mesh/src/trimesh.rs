//! Index-based triangle mesh with adjacency and boundary extraction.

use crate::MeshError;
use anr_geom::{Point, Triangle};
use std::collections::BTreeMap;

/// An indexed triangle mesh embedded in the plane.
///
/// Vertices are points; triangles are triples of vertex indices stored
/// counter-clockwise. The structure maintains derived adjacency: edge →
/// incident triangles, vertex → incident triangles, vertex neighbors.
///
/// Boundary edges are exactly the edges incident to one triangle — the
/// rule the paper uses to identify FoI and hole boundaries
/// (Sec. III-B, III-D-3).
///
/// ```
/// use anr_geom::Point;
/// use anr_mesh::TriMesh;
///
/// // Two triangles sharing the diagonal of a unit square.
/// let mesh = TriMesh::new(
///     vec![
///         Point::new(0.0, 0.0),
///         Point::new(1.0, 0.0),
///         Point::new(1.0, 1.0),
///         Point::new(0.0, 1.0),
///     ],
///     vec![[0, 1, 2], [0, 2, 3]],
/// )?;
/// assert_eq!(mesh.num_triangles(), 2);
/// assert_eq!(mesh.boundary_loops().len(), 1);
/// assert!(mesh.is_boundary_vertex(0));
/// # Ok::<(), anr_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TriMesh {
    vertices: Vec<Point>,
    triangles: Vec<[usize; 3]>,
    /// Undirected edge (min, max) → incident triangle indices (1 or 2).
    edge_tris: BTreeMap<(usize, usize), Vec<usize>>,
    /// Vertex → incident triangle indices.
    vertex_tris: Vec<Vec<usize>>,
    /// Vertex → neighboring vertex indices (sorted).
    neighbors: Vec<Vec<usize>>,
}

impl TriMesh {
    /// Builds a mesh from vertices and CCW triangles, validating indices,
    /// degeneracy and manifoldness.
    ///
    /// Triangles with clockwise orientation are flipped to CCW.
    ///
    /// # Errors
    ///
    /// * [`MeshError::IndexOutOfRange`] — triangle references a missing vertex.
    /// * [`MeshError::DegenerateTriangle`] — triangle repeats a vertex.
    /// * [`MeshError::NonManifoldEdge`] — edge shared by 3+ triangles.
    pub fn new(vertices: Vec<Point>, triangles: Vec<[usize; 3]>) -> Result<Self, MeshError> {
        let n = vertices.len();
        let mut tris = Vec::with_capacity(triangles.len());
        for (ti, t) in triangles.into_iter().enumerate() {
            for &v in &t {
                if v >= n {
                    return Err(MeshError::IndexOutOfRange {
                        triangle: ti,
                        vertex: v,
                    });
                }
            }
            if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
                return Err(MeshError::DegenerateTriangle { triangle: ti });
            }
            // Normalize to CCW.
            let tri = Triangle::new(vertices[t[0]], vertices[t[1]], vertices[t[2]]);
            if tri.signed_area() < 0.0 {
                tris.push([t[0], t[2], t[1]]);
            } else {
                tris.push(t);
            }
        }

        let mut edge_tris: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        let mut vertex_tris: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ti, t) in tris.iter().enumerate() {
            for k in 0..3 {
                let a = t[k];
                let b = t[(k + 1) % 3];
                let key = (a.min(b), a.max(b));
                let entry = edge_tris.entry(key).or_default();
                entry.push(ti);
                if entry.len() > 2 {
                    return Err(MeshError::NonManifoldEdge { edge: key });
                }
                vertex_tris[a].push(ti);
            }
        }
        for v in vertex_tris.iter_mut() {
            v.sort_unstable();
            v.dedup();
        }

        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edge_tris.keys() {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        for nb in neighbors.iter_mut() {
            nb.sort_unstable();
            nb.dedup();
        }

        Ok(TriMesh {
            vertices,
            triangles: tris,
            edge_tris,
            vertex_tris,
            neighbors,
        })
    }

    /// Vertex positions.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Position of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    #[inline]
    pub fn vertex(&self, v: usize) -> Point {
        self.vertices[v]
    }

    /// Triangles as CCW vertex-index triples.
    #[inline]
    pub fn triangles(&self) -> &[[usize; 3]] {
        &self.triangles
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of triangles.
    #[inline]
    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_tris.len()
    }

    /// The geometric triangle of triangle index `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn triangle(&self, t: usize) -> Triangle {
        let [a, b, c] = self.triangles[t];
        Triangle::new(self.vertices[a], self.vertices[b], self.vertices[c])
    }

    /// Neighboring vertex indices of `v` (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    #[inline]
    pub fn vertex_neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[v]
    }

    /// Triangle indices incident to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    #[inline]
    pub fn vertex_triangles(&self, v: usize) -> &[usize] {
        &self.vertex_tris[v]
    }

    /// Triangle indices incident to the undirected edge `(a, b)`.
    ///
    /// Returns an empty slice when the edge is not in the mesh.
    pub fn edge_triangles(&self, a: usize, b: usize) -> &[usize] {
        self.edge_tris
            .get(&(a.min(b), a.max(b)))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// All undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edge_tris.keys().copied()
    }

    /// Is `(a, b)` a boundary edge (incident to exactly one triangle)?
    pub fn is_boundary_edge(&self, a: usize, b: usize) -> bool {
        self.edge_triangles(a, b).len() == 1
    }

    /// Is `v` on the mesh boundary (incident to a boundary edge)?
    pub fn is_boundary_vertex(&self, v: usize) -> bool {
        self.neighbors[v]
            .iter()
            .any(|&u| self.is_boundary_edge(v, u))
    }

    /// Ordered boundary loops, each a cyclic list of vertex indices.
    ///
    /// With all triangles CCW, the **outer** loop runs counter-clockwise
    /// and every hole loop runs clockwise. Loops are returned with the
    /// outer loop first (the loop whose polygonal signed area is largest).
    pub fn boundary_loops(&self) -> Vec<Vec<usize>> {
        // Directed boundary half-edges: (a, b) from a CCW triangle whose
        // opposite (b, a) is missing. A vertex may have several outgoing
        // boundary half-edges (pinch vertices), so traversal marks
        // *edges* visited, not vertices.
        let mut outgoing: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for t in &self.triangles {
            for k in 0..3 {
                let a = t[k];
                let b = t[(k + 1) % 3];
                if self.is_boundary_edge(a, b) {
                    outgoing.entry(a).or_default().push(b);
                }
            }
        }
        for v in outgoing.values_mut() {
            v.sort_unstable();
        }

        let mut visited: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        let mut loops: Vec<Vec<usize>> = Vec::new();
        let mut starts: Vec<usize> = outgoing.keys().copied().collect();
        starts.sort_unstable();
        for start in starts {
            let nexts = outgoing[&start].clone();
            for &first in &nexts {
                if visited.contains(&(start, first)) {
                    continue;
                }
                let mut cycle = vec![start];
                let mut edge = (start, first);
                loop {
                    visited.insert(edge);
                    let cur = edge.1;
                    if cur == start {
                        break;
                    }
                    cycle.push(cur);
                    // Pick the first unvisited outgoing half-edge.
                    let Some(cands) = outgoing.get(&cur) else {
                        break; // dangling boundary (non-manifold input)
                    };
                    match cands.iter().find(|&&b| !visited.contains(&(cur, b))) {
                        Some(&b) => edge = (cur, b),
                        None => break,
                    }
                }
                if cycle.len() >= 3 {
                    loops.push(cycle);
                }
            }
        }

        // Outer loop first: largest absolute signed area.
        loops.sort_by(|a, b| {
            let area = |l: &Vec<usize>| -> f64 {
                let mut s = 0.0;
                for i in 0..l.len() {
                    let p = self.vertices[l[i]];
                    let q = self.vertices[l[(i + 1) % l.len()]];
                    s += p.x * q.y - q.x * p.y;
                }
                (0.5 * s).abs()
            };
            area(b).total_cmp(&area(a))
        });
        loops
    }

    /// Euler characteristic `V - E + F` (counting only triangles as faces).
    ///
    /// A triangulated disk has χ = 1; a disk with `k` holes has χ = 1 − k.
    pub fn euler_characteristic(&self) -> isize {
        self.num_vertices() as isize - self.num_edges() as isize + self.num_triangles() as isize
    }

    /// Sum of all triangle areas.
    pub fn total_area(&self) -> f64 {
        (0..self.num_triangles())
            .map(|t| self.triangle(t).area())
            .sum()
    }

    /// Replaces all vertex positions, keeping connectivity.
    ///
    /// Used by harmonic mapping, which re-embeds the same mesh in the
    /// unit disk.
    ///
    /// # Panics
    ///
    /// Panics when `positions.len() != self.num_vertices()`.
    pub fn with_positions(&self, positions: Vec<Point>) -> TriMesh {
        assert_eq!(
            positions.len(),
            self.num_vertices(),
            "position count must match vertex count"
        );
        TriMesh {
            vertices: positions,
            triangles: self.triangles.clone(),
            edge_tris: self.edge_tris.clone(),
            vertex_tris: self.vertex_tris.clone(),
            neighbors: self.neighbors.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// 3x3 vertex grid, 8 triangles, one boundary loop.
    fn grid_mesh() -> TriMesh {
        let mut verts = Vec::new();
        for j in 0..3 {
            for i in 0..3 {
                verts.push(p(i as f64, j as f64));
            }
        }
        let mut tris = Vec::new();
        for j in 0..2 {
            for i in 0..2 {
                let v = j * 3 + i;
                tris.push([v, v + 1, v + 4]);
                tris.push([v, v + 4, v + 3]);
            }
        }
        TriMesh::new(verts, tris).unwrap()
    }

    #[test]
    fn construction_counts() {
        let m = grid_mesh();
        assert_eq!(m.num_vertices(), 9);
        assert_eq!(m.num_triangles(), 8);
        assert_eq!(m.num_edges(), 16);
        assert_eq!(m.euler_characteristic(), 1); // disk
    }

    #[test]
    fn rejects_bad_index() {
        let r = TriMesh::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)], vec![[0, 1, 5]]);
        assert!(matches!(r, Err(MeshError::IndexOutOfRange { .. })));
    }

    #[test]
    fn rejects_repeated_vertex() {
        let r = TriMesh::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)], vec![[0, 1, 1]]);
        assert!(matches!(r, Err(MeshError::DegenerateTriangle { .. })));
    }

    #[test]
    fn rejects_nonmanifold_edge() {
        let verts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.5, 1.0),
            p(0.5, -1.0),
            p(2.0, 0.5),
        ];
        // Three triangles all sharing edge (0, 1).
        let r = TriMesh::new(verts, vec![[0, 1, 2], [0, 1, 3], [0, 1, 4]]);
        assert!(matches!(
            r,
            Err(MeshError::NonManifoldEdge { edge: (0, 1) })
        ));
    }

    #[test]
    fn cw_triangles_are_flipped() {
        let m = TriMesh::new(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)],
            vec![[0, 2, 1]], // clockwise
        )
        .unwrap();
        assert!(m.triangle(0).signed_area() > 0.0);
    }

    #[test]
    fn boundary_detection() {
        let m = grid_mesh();
        // Center vertex (index 4) is interior; corners are boundary.
        assert!(!m.is_boundary_vertex(4));
        for v in [0, 2, 6, 8] {
            assert!(m.is_boundary_vertex(v));
        }
        assert!(m.is_boundary_edge(0, 1));
        assert!(!m.is_boundary_edge(0, 4));
    }

    #[test]
    fn single_boundary_loop_covers_perimeter() {
        let m = grid_mesh();
        let loops = m.boundary_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), 8); // all non-center vertices
        assert!(!loops[0].contains(&4));
    }

    #[test]
    fn boundary_loop_is_ccw_outer() {
        let m = grid_mesh();
        let l = &m.boundary_loops()[0];
        let mut s = 0.0;
        for i in 0..l.len() {
            let a = m.vertex(l[i]);
            let b = m.vertex(l[(i + 1) % l.len()]);
            s += a.x * b.y - b.x * a.y;
        }
        assert!(s > 0.0, "outer loop must be CCW");
    }

    #[test]
    fn mesh_with_hole_has_two_loops_and_euler_zero() {
        // Square ring: 8 vertices, outer square 4 + inner square 4.
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
        let m = TriMesh::new(verts, tris).unwrap();
        assert_eq!(m.euler_characteristic(), 0); // disk with one hole
        let loops = m.boundary_loops();
        assert_eq!(loops.len(), 2);
        // Outer loop (larger area) must come first.
        assert_eq!(loops[0].len(), 4);
        assert!(loops[0].contains(&0));
        assert!(loops[1].contains(&4));
    }

    #[test]
    fn bowtie_pinch_yields_two_loops() {
        // Two triangles sharing only vertex 2 (a pinch): the boundary
        // traversal must report two separate 3-loops, not merge them.
        let m = TriMesh::new(
            vec![
                p(0.0, 0.0),
                p(2.0, 0.0),
                p(1.0, 1.0), // shared pinch vertex
                p(0.0, 2.0),
                p(2.0, 2.0),
            ],
            vec![[0, 1, 2], [2, 4, 3]],
        )
        .unwrap();
        let loops = m.boundary_loops();
        assert_eq!(loops.len(), 2, "loops: {loops:?}");
        for l in &loops {
            assert_eq!(l.len(), 3);
            assert!(l.contains(&2), "each loop passes the pinch vertex");
        }
    }

    #[test]
    fn neighbors_and_incidence() {
        let m = grid_mesh();
        assert_eq!(m.vertex_neighbors(4).len(), 6);
        assert_eq!(m.vertex_triangles(4).len(), 6);
        assert_eq!(m.edge_triangles(0, 4).len(), 2);
        assert_eq!(m.edge_triangles(0, 8).len(), 0);
    }

    #[test]
    fn total_area_of_grid() {
        assert!((grid_mesh().total_area() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn with_positions_keeps_connectivity() {
        let m = grid_mesh();
        let doubled: Vec<Point> = m
            .vertices()
            .iter()
            .map(|q| p(q.x * 2.0, q.y * 2.0))
            .collect();
        let m2 = m.with_positions(doubled);
        assert_eq!(m2.num_triangles(), m.num_triangles());
        assert!((m2.total_area() - 16.0).abs() < 1e-12);
    }
}
