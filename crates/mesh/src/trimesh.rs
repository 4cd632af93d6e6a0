//! Index-based triangle mesh with adjacency and boundary extraction.

use crate::MeshError;
use anr_geom::{Point, Triangle};

/// Second incident triangle of a boundary edge: there is none.
const NO_TRIANGLE: usize = usize::MAX;

/// An indexed triangle mesh embedded in the plane.
///
/// Vertices are points; triangles are triples of vertex indices stored
/// counter-clockwise. The structure maintains derived adjacency in flat
/// arrays: the sorted undirected edges with their incident triangles,
/// and per-vertex (CSR) lists of incident triangles and neighbours.
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
    /// Undirected edges `(min, max)`, sorted.
    edges: Vec<(usize, usize)>,
    /// Each edge's incident triangles, ascending; a boundary edge's
    /// second slot is [`NO_TRIANGLE`].
    edge_tris: Vec<[usize; 2]>,
    /// Vertex `v`'s incident triangles (ascending) are
    /// `vertex_tris[tri_start[v]..tri_start[v + 1]]`.
    tri_start: Vec<usize>,
    vertex_tris: Vec<usize>,
    /// Vertex `v`'s neighbours (ascending) are
    /// `neighbors[neighbor_start[v]..neighbor_start[v + 1]]`.
    neighbor_start: Vec<usize>,
    neighbors: Vec<usize>,
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
    /// * [`MeshError::NonManifoldEdge`] — edge shared by 3+ triangles
    ///   (of several, the one whose third triangle comes first).
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

        // Vertex → triangles: a counting sort in triangle order.
        let tri_start = csr_offsets(n, tris.iter().flatten().copied());
        let mut vertex_tris = vec![0; tri_start[n]];
        let mut fill = tri_start[..n].to_vec();
        for (ti, t) in tris.iter().enumerate() {
            for &v in t {
                vertex_tris[fill[v]] = ti;
                fill[v] += 1;
            }
        }

        // Edges by smaller endpoint `lo`: its triangles hold every
        // half-edge with `lo` as the smaller end. Keyed by the larger end
        // and by `3·triangle + slot` (its place in triangle order), each
        // run of one larger end is an edge, its triangles ascending.
        let mut edges = Vec::with_capacity(n + tris.len());
        let mut edge_tris = Vec::with_capacity(n + tris.len());
        // The edge whose third triangle comes first, with that key.
        let mut non_manifold: Option<(usize, (usize, usize))> = None;
        let mut half: Vec<(usize, usize)> = Vec::new();
        for lo in 0..n {
            half.clear();
            for &ti in &vertex_tris[tri_start[lo]..tri_start[lo + 1]] {
                let t = tris[ti];
                for k in 0..3 {
                    let (a, b) = (t[k], t[(k + 1) % 3]);
                    if a.min(b) == lo {
                        half.push((a.max(b), 3 * ti + k));
                    }
                }
            }
            half.sort_unstable();
            for run in half.chunk_by(|x, y| x.0 == y.0) {
                let edge = (lo, run[0].0);
                if let Some(&(_, third)) = run.get(2) {
                    if non_manifold.is_none_or(|(first, _)| third < first) {
                        non_manifold = Some((third, edge));
                    }
                }
                edges.push(edge);
                edge_tris.push([run[0].1 / 3, run.get(1).map_or(NO_TRIANGLE, |h| h.1 / 3)]);
            }
        }
        if let Some((_, edge)) = non_manifold {
            return Err(MeshError::NonManifoldEdge { edge });
        }

        // Neighbours: filled in edge order, each vertex's list is its
        // smaller neighbours ascending, then its larger ones ascending.
        let neighbor_start = csr_offsets(n, edges.iter().flat_map(|&(a, b)| [a, b]));
        let mut neighbors = vec![0; neighbor_start[n]];
        let mut fill = neighbor_start[..n].to_vec();
        for &(a, b) in &edges {
            neighbors[fill[a]] = b;
            fill[a] += 1;
            neighbors[fill[b]] = a;
            fill[b] += 1;
        }

        Ok(TriMesh {
            vertices,
            triangles: tris,
            edges,
            edge_tris,
            tri_start,
            vertex_tris,
            neighbor_start,
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
        self.edges.len()
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
        &self.neighbors[self.neighbor_start[v]..self.neighbor_start[v + 1]]
    }

    /// Triangle indices incident to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    #[inline]
    pub fn vertex_triangles(&self, v: usize) -> &[usize] {
        &self.vertex_tris[self.tri_start[v]..self.tri_start[v + 1]]
    }

    /// Triangle indices incident to the undirected edge `(a, b)`.
    ///
    /// Returns an empty slice when the edge is not in the mesh.
    pub fn edge_triangles(&self, a: usize, b: usize) -> &[usize] {
        match self.edges.binary_search(&(a.min(b), a.max(b))) {
            Ok(e) => self.incident(e),
            Err(_) => &[],
        }
    }

    /// The triangles incident to edge number `e`.
    fn incident(&self, e: usize) -> &[usize] {
        let tris = &self.edge_tris[e];
        if tris[1] == NO_TRIANGLE {
            &tris[..1]
        } else {
            tris
        }
    }

    /// All undirected edges `(a, b)` with `a < b`, in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Is `(a, b)` a boundary edge (incident to exactly one triangle)?
    pub fn is_boundary_edge(&self, a: usize, b: usize) -> bool {
        self.edge_triangles(a, b).len() == 1
    }

    /// Is `v` on the mesh boundary (incident to a boundary edge)?
    pub fn is_boundary_vertex(&self, v: usize) -> bool {
        self.vertex_neighbors(v)
            .iter()
            .any(|&u| self.is_boundary_edge(v, u))
    }

    /// Ordered boundary loops, each a cyclic list of vertex indices.
    ///
    /// With all triangles CCW, the **outer** loop runs counter-clockwise
    /// and every hole loop runs clockwise. Loops are returned with the
    /// outer loop first (the loop whose polygonal signed area is largest).
    pub fn boundary_loops(&self) -> Vec<Vec<usize>> {
        // Directed boundary half-edges: a boundary edge runs the way its
        // one CCW triangle runs it. Sorted, each vertex's outgoing
        // half-edges are one run. A vertex may have several (pinch
        // vertices), so traversal marks *half-edges* visited, not
        // vertices.
        let mut half: Vec<(usize, usize)> = self
            .edges
            .iter()
            .zip(&self.edge_tris)
            .filter(|(_, tris)| tris[1] == NO_TRIANGLE)
            .map(|(&(a, b), tris)| {
                let t = self.triangles[tris[0]];
                if (0..3).any(|k| t[k] == a && t[(k + 1) % 3] == b) {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        half.sort_unstable();

        let mut visited = vec![false; half.len()];
        let mut loops: Vec<Vec<usize>> = Vec::new();
        for first in 0..half.len() {
            if visited[first] {
                continue;
            }
            let start = half[first].0;
            let mut cycle = vec![start];
            let mut edge = first;
            loop {
                visited[edge] = true;
                let cur = half[edge].1;
                if cur == start {
                    break;
                }
                cycle.push(cur);
                // Take the first unvisited outgoing half-edge; there is
                // none at a dangling boundary (non-manifold input).
                let from = half.partition_point(|h| h.0 < cur);
                let next = (from..half.len())
                    .take_while(|&h| half[h].0 == cur)
                    .find(|&h| !visited[h]);
                match next {
                    Some(h) => edge = h,
                    None => break,
                }
            }
            if cycle.len() >= 3 {
                loops.push(cycle);
            }
        }

        // Outer loop first: largest absolute signed area.
        let area = |l: &[usize]| -> f64 {
            let mut s = 0.0;
            for i in 0..l.len() {
                let p = self.vertices[l[i]];
                let q = self.vertices[l[(i + 1) % l.len()]];
                s += p.x * q.y - q.x * p.y;
            }
            (0.5 * s).abs()
        };
        let mut by_area: Vec<(f64, Vec<usize>)> =
            loops.into_iter().map(|l| (area(&l), l)).collect();
        by_area.sort_by(|a, b| b.0.total_cmp(&a.0));
        by_area.into_iter().map(|(_, l)| l).collect()
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
            edges: self.edges.clone(),
            edge_tris: self.edge_tris.clone(),
            tri_start: self.tri_start.clone(),
            vertex_tris: self.vertex_tris.clone(),
            neighbor_start: self.neighbor_start.clone(),
            neighbors: self.neighbors.clone(),
        }
    }
}

/// CSR offsets of `n` buckets: bucket `v` holds the items numbered
/// `start[v]..start[v + 1]`, given each item's bucket.
fn csr_offsets(n: usize, buckets: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut start = vec![0; n + 1];
    for b in buckets {
        start[b + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    start
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
