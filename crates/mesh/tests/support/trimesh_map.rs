//! The map-based `TriMesh` adjacency and boundary walk that the flat
//! arrays replaced, kept as a test oracle: a `BTreeMap` from each edge
//! to its triangles, a `Vec` per vertex, and a boundary walk over a map
//! of outgoing half-edges with a set of visited ones. `TriMesh` must
//! answer every accessor as this does, in the same order, and fail with
//! the same error. Shared by the crates' oracle tests with
//! `#[path = ".../support/trimesh_map.rs"] mod trimesh_map;`.

use anr_geom::{Point, Triangle};
use anr_mesh::{MeshError, TriMesh};
use std::collections::{BTreeMap, BTreeSet};

/// The adjacency `TriMesh` kept in ordered maps and nested vectors.
pub struct MapMesh {
    vertices: Vec<Point>,
    triangles: Vec<[usize; 3]>,
    /// Undirected edge (min, max) → incident triangle indices (1 or 2).
    edge_tris: BTreeMap<(usize, usize), Vec<usize>>,
    /// Vertex → incident triangle indices.
    vertex_tris: Vec<Vec<usize>>,
    /// Vertex → neighboring vertex indices (sorted).
    neighbors: Vec<Vec<usize>>,
}

impl MapMesh {
    /// `TriMesh::new` as it was.
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

        Ok(MapMesh {
            vertices,
            triangles: tris,
            edge_tris,
            vertex_tris,
            neighbors,
        })
    }

    fn edge_triangles(&self, a: usize, b: usize) -> &[usize] {
        self.edge_tris
            .get(&(a.min(b), a.max(b)))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    fn is_boundary_edge(&self, a: usize, b: usize) -> bool {
        self.edge_triangles(a, b).len() == 1
    }

    fn is_boundary_vertex(&self, v: usize) -> bool {
        self.neighbors[v]
            .iter()
            .any(|&u| self.is_boundary_edge(v, u))
    }

    /// `TriMesh::boundary_loops` as it was.
    pub fn boundary_loops(&self) -> Vec<Vec<usize>> {
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

        let mut visited: BTreeSet<(usize, usize)> = BTreeSet::new();
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
}

/// Asserts that `TriMesh::new` and [`MapMesh::new`] agree on
/// `(vertices, triangles)`: the same error, or meshes that answer every
/// accessor alike — edge order, each edge's triangles (both ways round
/// and for absent pairs), neighbours, vertex triangles, boundary tests
/// and boundary loops, also after `with_positions`. Returns whether the
/// mesh was built.
pub fn assert_matches_map(vertices: &[Point], triangles: &[[usize; 3]], what: &str) -> bool {
    let flat = TriMesh::new(vertices.to_vec(), triangles.to_vec());
    let map = MapMesh::new(vertices.to_vec(), triangles.to_vec());
    match (flat, map) {
        (Err(f), Err(m)) => {
            assert_eq!(f, m, "{what}: errors differ");
            false
        }
        (Ok(f), Ok(m)) => {
            assert_same_mesh(&f, &m, what);
            let moved: Vec<Point> = vertices
                .iter()
                .map(|p| Point::new(2.0 * p.y - 1.0, p.x + 3.0))
                .collect();
            let f = f.with_positions(moved.clone());
            let m = MapMesh {
                vertices: moved,
                ..m
            };
            assert_same_mesh(&f, &m, &format!("{what}, moved"));
            true
        }
        (f, m) => panic!("{what}: TriMesh gives {:?}, the map {:?}", f.err(), m.err()),
    }
}

fn assert_same_mesh(f: &TriMesh, m: &MapMesh, what: &str) {
    let n = m.vertices.len();
    assert_eq!(f.vertices(), &m.vertices[..], "{what}: vertices");
    assert_eq!(f.triangles(), &m.triangles[..], "{what}: triangles");
    assert_eq!(f.num_vertices(), n, "{what}: vertex count");
    assert_eq!(
        f.num_triangles(),
        m.triangles.len(),
        "{what}: triangle count"
    );
    assert_eq!(f.num_edges(), m.edge_tris.len(), "{what}: edge count");
    let edges: Vec<(usize, usize)> = f.edges().collect();
    let map_edges: Vec<(usize, usize)> = m.edge_tris.keys().copied().collect();
    assert_eq!(edges, map_edges, "{what}: edges");
    for &(a, b) in &edges {
        for (u, v) in [(a, b), (b, a)] {
            assert_eq!(
                f.edge_triangles(u, v),
                m.edge_triangles(u, v),
                "{what}: triangles of edge ({u}, {v})"
            );
            assert_eq!(f.is_boundary_edge(u, v), m.is_boundary_edge(u, v));
        }
    }
    for v in 0..n {
        assert_eq!(
            f.vertex_neighbors(v),
            &m.neighbors[v][..],
            "{what}: neighbours of {v}"
        );
        assert_eq!(
            f.vertex_triangles(v),
            &m.vertex_tris[v][..],
            "{what}: triangles of {v}"
        );
        assert_eq!(
            f.is_boundary_vertex(v),
            m.is_boundary_vertex(v),
            "{what}: boundary vertex {v}"
        );
        // Pairs that are mostly not edges, some out of range.
        for u in [0, v, v + 1, n.saturating_sub(1), n, n + 7, (31 * v + 7) % n] {
            assert_eq!(
                f.edge_triangles(v, u),
                m.edge_triangles(v, u),
                "{what}: triangles of pair ({v}, {u})"
            );
        }
    }
    assert_eq!(
        f.euler_characteristic(),
        n as isize - m.edge_tris.len() as isize + m.triangles.len() as isize,
        "{what}: Euler characteristic"
    );
    assert_eq!(
        f.boundary_loops(),
        m.boundary_loops(),
        "{what}: boundary loops"
    );
}
