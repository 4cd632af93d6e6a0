//! Extracting the triangulation `T` from a connectivity graph
//! (paper Sec. III-A, following the idea of its ref. [18]).
//!
//! With position information available at every robot, the triangulation
//! of the deployment is the Delaunay triangulation restricted to
//! communication-range edges: every triangulation edge must be an actual
//! wireless link. [`extract_triangulation`] is the centralized reference;
//! [`extract_triangulation_distributed`] runs a localized protocol on the
//! message-passing engine in which every robot learns only its one-hop
//! neighborhood and decides which incident links belong to `T`.

use crate::protocols::run_reliable;
use crate::UnitDiskGraph;
use anr_distsim::{Envelope, Node, Outbox};
use anr_geom::{in_circle, orient2d, Point};
use anr_mesh::{delaunay, MeshError, TriMesh};

/// Extracts the triangulation `T` of a deployment: Delaunay triangles
/// whose three edges are all communication links (length ≤ `range`),
/// restricted to the largest edge-connected triangle component.
///
/// The returned mesh indexes the same robots as `positions`; robots that
/// end up in no triangle (stragglers out of range) are still present as
/// vertices but have no incident edges — callers that require a spanning
/// disk should check [`TriMesh::vertex_neighbors`] is non-empty for all.
///
/// # Errors
///
/// Propagates [`MeshError`] from the underlying Delaunay triangulation,
/// and returns [`MeshError::EmptyMesh`] when no triangle survives the
/// range filter.
///
/// # Example
///
/// ```
/// use anr_geom::Point;
/// use anr_netgraph::extract_triangulation;
///
/// // A 2×2 block of robots 50 m apart, comm range 80 m.
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(50.0, 0.0),
///     Point::new(0.0, 50.0),
///     Point::new(50.0, 50.0),
/// ];
/// let t = extract_triangulation(&pts, 80.0)?;
/// assert_eq!(t.num_triangles(), 2);
/// # Ok::<(), anr_mesh::MeshError>(())
/// ```
pub fn extract_triangulation(positions: &[Point], range: f64) -> Result<TriMesh, MeshError> {
    assert!(range > 0.0, "communication range must be positive");
    let dt = delaunay(positions)?;

    // Keep triangles whose edges are all links.
    let kept: Vec<usize> = (0..dt.num_triangles())
        .filter(|&t| {
            let tri = dt.triangle(t);
            tri.a.distance(tri.b) <= range
                && tri.b.distance(tri.c) <= range
                && tri.c.distance(tri.a) <= range
        })
        .collect();
    if kept.is_empty() {
        return Err(MeshError::EmptyMesh);
    }

    // Largest edge-connected component of the kept triangles.
    let mut uf = crate::UnionFind::new(dt.num_triangles());
    let mut is_kept = vec![false; dt.num_triangles()];
    for &t in &kept {
        is_kept[t] = true;
    }
    for &t in &kept {
        let [a, b, c] = dt.triangles()[t];
        for (u, v) in [(a, b), (b, c), (c, a)] {
            for &other in dt.edge_triangles(u, v) {
                if other != t && is_kept[other] {
                    uf.union(t, other);
                }
            }
        }
    }
    // The first component to reach the largest count wins.
    let mut best_root = uf.find(kept[0]);
    let mut best_count = 0usize;
    let mut counts = vec![0usize; dt.num_triangles()];
    for &t in &kept {
        let r = uf.find(t);
        counts[r] += 1;
        if counts[r] > best_count {
            best_count = counts[r];
            best_root = r;
        }
    }

    let tris: Vec<[usize; 3]> = kept
        .iter()
        .filter(|&&t| uf.find(t) == best_root)
        .map(|&t| dt.triangles()[t])
        .collect();

    // The range filter can leave *pinch* vertices — two triangle fans
    // meeting only at a vertex — whose boundary is ill-defined (two
    // loops sharing the vertex). Clean them by keeping only the largest
    // fan at every pinched vertex, then re-select the largest
    // edge-connected component, iterating until stable.
    let tris = remove_pinches(positions, tris)?;

    TriMesh::new(positions.to_vec(), tris)
}

/// Removes pinch vertices: at every vertex whose incident triangles form
/// more than one edge-connected fan, only the largest fan survives.
/// Repeats (removals can create new pinches or disconnect the mesh)
/// until the triangle set is stable, keeping the largest edge-connected
/// component at each round.
fn remove_pinches(
    positions: &[Point],
    mut tris: Vec<[usize; 3]>,
) -> Result<Vec<[usize; 3]>, MeshError> {
    let num_vertices = positions.len();
    loop {
        let mut changed = false;

        // Vertex → incident triangle indices.
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); num_vertices];
        for (ti, t) in tris.iter().enumerate() {
            for &v in t {
                incident[v].push(ti);
            }
        }

        let mut drop = vec![false; tris.len()];
        #[allow(clippy::needless_range_loop)] // v indexes two parallel arrays
        for v in 0..num_vertices {
            let inc = &incident[v];
            if inc.len() < 2 {
                continue;
            }
            // Cluster incident triangles via shared edges containing v.
            let mut cluster = vec![usize::MAX; inc.len()];
            let mut next_cluster = 0usize;
            for i in 0..inc.len() {
                if cluster[i] != usize::MAX {
                    continue;
                }
                cluster[i] = next_cluster;
                let mut stack = vec![i];
                while let Some(a) = stack.pop() {
                    for b in 0..inc.len() {
                        if cluster[b] != usize::MAX {
                            continue;
                        }
                        // Triangles share an edge through v when they
                        // share a second vertex besides v.
                        let ta = tris[inc[a]];
                        let tb = tris[inc[b]];
                        let shared = ta.iter().filter(|&&x| x != v && tb.contains(&x)).count();
                        if shared >= 1 {
                            cluster[b] = next_cluster;
                            stack.push(b);
                        }
                    }
                }
                next_cluster += 1;
            }
            if next_cluster <= 1 {
                continue;
            }
            // Keep the largest cluster (ties: lowest cluster id).
            let mut sizes = vec![0usize; next_cluster];
            for &c in &cluster {
                sizes[c] += 1;
            }
            let keep = sizes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(c, _)| c)
                .unwrap_or(0);
            for (i, &c) in cluster.iter().enumerate() {
                if c != keep && !drop[inc[i]] {
                    drop[inc[i]] = true;
                    changed = true;
                }
            }
        }

        if changed {
            tris = tris
                .into_iter()
                .zip(drop)
                .filter(|(_, d)| !d)
                .map(|(t, _)| t)
                .collect();
        }

        // Largest edge-connected component of what remains.
        if !tris.is_empty() {
            // Join each triangle to the first holder of each of its
            // edges, in triangle order (the union order fixes the roots).
            let mesh = TriMesh::new(positions.to_vec(), tris.clone())?;
            let mut uf = crate::UnionFind::new(tris.len());
            for (ti, t) in tris.iter().enumerate() {
                for k in 0..3 {
                    let first = mesh.edge_triangles(t[k], t[(k + 1) % 3])[0];
                    if first != ti {
                        uf.union(ti, first);
                    }
                }
            }
            if uf.num_sets() > 1 {
                let mut counts = vec![0usize; tris.len()];
                for ti in 0..tris.len() {
                    counts[uf.find(ti)] += 1;
                }
                // The largest count; among equal counts the largest root.
                let best = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &c)| c)
                    .map(|(r, _)| r)
                    .unwrap_or(0);
                let before = tris.len();
                let mut filtered = Vec::with_capacity(before);
                #[allow(clippy::needless_range_loop)] // union-find needs the index
                for ti in 0..tris.len() {
                    if uf.find(ti) == best {
                        filtered.push(tris[ti]);
                    }
                }
                if filtered.len() != before {
                    changed = true;
                }
                tris = filtered;
            }
        }

        if !changed {
            return Ok(tris);
        }
    }
}

/// One robot's state in the distributed triangulation-extraction protocol.
#[derive(Debug, Clone)]
struct TriExtractNode {
    id: usize,
    position: Point,
    range: f64,
    /// Learned one-hop neighbor positions: (id, position).
    neighbor_positions: Vec<(usize, Point)>,
    /// Incident links this robot decided to keep in `T`.
    kept: Vec<usize>,
    decided: bool,
}

impl Node for TriExtractNode {
    // Wire IDs are `u32` (robot count < 2^32) so the payload has a
    // provable fixed width — see `lint.models.toml`.
    type Msg = (u32, Point);

    fn on_start(&mut self, out: &mut Outbox<(u32, Point)>) {
        out.broadcast((self.id as u32, self.position));
    }

    fn on_round(
        &mut self,
        _round: usize,
        inbox: &[Envelope<(u32, Point)>],
        _out: &mut Outbox<(u32, Point)>,
    ) {
        for env in inbox {
            let (id, pos) = env.msg;
            self.neighbor_positions.push((id as usize, pos));
        }
        // All broadcasts arrive in round 0; decide immediately after.
        if !self.decided {
            self.decide();
            self.decided = true;
        }
    }

    /// Once decided, an empty inbox changes nothing.
    fn idle(&self) -> bool {
        self.decided
    }
}

impl TriExtractNode {
    /// Local edge-keeping rule, computable from one-hop information:
    /// keep link (self, v) iff no *common* neighbor `w` lies strictly
    /// inside the circle through `self` and `v` with `w` on the other
    /// side violating the empty-circumcircle test — concretely, the link
    /// survives iff for each side of the edge, the common neighbor `w`
    /// minimizing the circumradius has an empty circumcircle w.r.t. the
    /// other common neighbors (a localized Delaunay test).
    fn decide(&mut self) {
        let me = self.position;
        for &(vid, vpos) in &self.neighbor_positions {
            if me.distance(vpos) > self.range {
                continue;
            }
            // Common neighbors = my neighbors within range of v.
            let common: Vec<Point> = self
                .neighbor_positions
                .iter()
                .filter(|&&(wid, wpos)| wid != vid && wpos.distance(vpos) <= self.range)
                .map(|&(_, wpos)| wpos)
                .collect();

            if is_edge_locally_delaunay(me, vpos, &common) {
                self.kept.push(vid);
            }
        }
        self.kept.sort_unstable();
    }
}

/// Localized Delaunay test for edge (u, v) against witness points `w`:
/// the edge is kept iff on each side that has witnesses, the circumcircle
/// through (u, v, best witness) is empty of the remaining witnesses, or
/// the Gabriel circle (diameter uv) is empty of all witnesses.
fn is_edge_locally_delaunay(u: Point, v: Point, witnesses: &[Point]) -> bool {
    // Gabriel test: circle with diameter uv empty of witnesses.
    let mid = u.midpoint(v);
    let r2 = u.distance_sq(v) / 4.0;
    if witnesses.iter().all(|&w| mid.distance_sq(w) > r2) {
        return true;
    }
    // Otherwise require a witness triangle with an empty circumcircle on
    // at least one side of the edge.
    for side in [1.0f64, -1.0] {
        let on_side: Vec<Point> = witnesses
            .iter()
            .copied()
            .filter(|&w| side * orient2d(u, v, w) > 0.0)
            .collect();
        if on_side.is_empty() {
            continue;
        }
        for &w in &on_side {
            // CCW order for in_circle.
            let (a, b, c) = if orient2d(u, v, w) > 0.0 {
                (u, v, w)
            } else {
                (v, u, w)
            };
            let empty = witnesses
                .iter()
                .all(|&x| x == w || in_circle(a, b, c, x) <= 0.0);
            if empty {
                return true;
            }
        }
    }
    false
}

/// Runs the distributed triangulation-extraction protocol and returns the
/// kept links `(i, j)` with `i < j` — a link is kept when **both**
/// endpoints decide to keep it.
///
/// On lattice-like deployments this matches the edge set of
/// [`extract_triangulation`]; the protocol uses one broadcast round and
/// only one-hop information per robot (fully distributed, linear in the
/// number of links, as the paper's ref.\[18\] requires).
///
/// # Errors
///
/// Propagates engine errors (e.g. topology validation).
pub fn extract_triangulation_distributed(
    positions: &[Point],
    range: f64,
) -> Result<Vec<(usize, usize)>, anr_distsim::SimError> {
    let udg = UnitDiskGraph::new(positions, range);
    let nodes: Vec<TriExtractNode> = positions
        .iter()
        .enumerate()
        .map(|(id, &p)| TriExtractNode {
            id,
            position: p,
            range,
            neighbor_positions: Vec::new(),
            kept: Vec::new(),
            decided: false,
        })
        .collect();
    let (nodes, _) = run_reliable(nodes, udg.adjacency().to_vec(), 4)?;
    let mut edges = Vec::new();
    for node in &nodes {
        for &v in &node.kept {
            if v > node.id && nodes[v].kept.binary_search(&node.id).is_ok() {
                edges.push((node.id, v));
            }
        }
    }
    Ok(edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Triangular lattice of `rows × cols` robots with given spacing.
    fn lattice(rows: usize, cols: usize, s: f64) -> Vec<Point> {
        let mut pts = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let x = c as f64 * s + if r % 2 == 1 { s / 2.0 } else { 0.0 };
                let y = r as f64 * s * 3f64.sqrt() / 2.0;
                pts.push(p(x, y));
            }
        }
        pts
    }

    #[test]
    fn lattice_triangulation_spans_all_robots() {
        let pts = lattice(6, 8, 60.0);
        let t = extract_triangulation(&pts, 80.0).unwrap();
        assert_eq!(t.num_vertices(), pts.len());
        for v in 0..t.num_vertices() {
            assert!(
                !t.vertex_neighbors(v).is_empty(),
                "robot {v} not in the triangulation"
            );
        }
        assert_eq!(t.euler_characteristic(), 1);
    }

    #[test]
    fn all_triangulation_edges_are_links() {
        let pts = lattice(5, 5, 65.0);
        let t = extract_triangulation(&pts, 80.0).unwrap();
        for (a, b) in t.edges() {
            assert!(t.vertex(a).distance(t.vertex(b)) <= 80.0);
        }
    }

    #[test]
    fn long_edges_are_dropped() {
        // Two clusters with a gap larger than the range: only the bigger
        // cluster's triangles survive.
        let mut pts = lattice(3, 3, 60.0);
        let offset = 1000.0;
        pts.extend(lattice(2, 2, 60.0).iter().map(|q| p(q.x + offset, q.y)));
        let t = extract_triangulation(&pts, 80.0).unwrap();
        // Triangles only in the 3×3 cluster (largest component).
        for tri in 0..t.num_triangles() {
            let c = t.triangle(tri).centroid();
            assert!(c.x < 500.0);
        }
    }

    #[test]
    fn no_triangles_in_sparse_deployment_errors() {
        let pts = vec![p(0.0, 0.0), p(500.0, 0.0), p(0.0, 500.0)];
        assert!(matches!(
            extract_triangulation(&pts, 80.0),
            Err(MeshError::EmptyMesh)
        ));
    }

    #[test]
    fn pinched_deployment_is_cleaned_to_a_disk() {
        // Two triangle fans joined only at a single robot: the extracted
        // triangulation must drop the smaller fan so the mesh is a clean
        // topological disk (well-defined boundary loop).
        let mut pts = lattice(3, 3, 60.0); // 9 robots, fan A
                                           // Fan B: a small triangle attached only through robot 8 (the
                                           // lattice corner at (120+30, 103.9...)).
        let corner = pts[8];
        pts.push(p(corner.x + 70.0, corner.y + 20.0));
        pts.push(p(corner.x + 40.0, corner.y + 70.0));
        let t = extract_triangulation(&pts, 80.0).unwrap();
        let loops = t.boundary_loops();
        assert_eq!(loops.len(), 1, "pinch not cleaned: {} loops", loops.len());
        // The two appended robots are outside the kept component.
        assert!(t.vertex_neighbors(9).is_empty());
        assert!(t.vertex_neighbors(10).is_empty());
        // χ of the disk is 1; the two dropped robots remain as isolated
        // vertices and each adds +1 to V − E + F.
        assert_eq!(t.euler_characteristic(), 3);
    }

    #[test]
    fn distributed_matches_centralized_on_lattice() {
        let pts = lattice(5, 6, 62.0);
        let t = extract_triangulation(&pts, 80.0).unwrap();
        let mut central: Vec<(usize, usize)> = t.edges().collect();
        central.sort_unstable();
        let mut dist = extract_triangulation_distributed(&pts, 80.0).unwrap();
        dist.sort_unstable();
        // The localized rule keeps every centralized Delaunay link.
        for e in &central {
            assert!(dist.binary_search(e).is_ok(), "missing link {e:?}");
        }
        // And does not keep more than ~10% extra (one-hop information can
        // keep a few edges a global view would flip).
        assert!(
            dist.len() <= central.len() + central.len() / 10 + 2,
            "distributed kept {} vs centralized {}",
            dist.len(),
            central.len()
        );
    }

    /// Rounds, messages and kept links of the extraction protocol,
    /// pinned across the engine change.
    #[test]
    fn distributed_run_matches_golden_digest() {
        let pts = lattice(5, 6, 60.0);
        let udg = UnitDiskGraph::new(&pts, 80.0);
        let nodes: Vec<TriExtractNode> = pts
            .iter()
            .enumerate()
            .map(|(id, &position)| TriExtractNode {
                id,
                position,
                range: 80.0,
                neighbor_positions: Vec::new(),
                kept: Vec::new(),
                decided: false,
            })
            .collect();
        let (nodes, stats) = run_reliable(nodes, udg.adjacency().to_vec(), 4).unwrap();
        let kept: Vec<Vec<usize>> = nodes.into_iter().map(|nd| nd.kept).collect();
        assert_eq!(
            crate::protocols::tests::digest(&(stats.rounds, stats.sent, kept)),
            0x7aa178812f91cb92
        );
    }

    #[test]
    fn distributed_edges_are_symmetric_links() {
        let pts = lattice(4, 4, 70.0);
        let edges = extract_triangulation_distributed(&pts, 80.0).unwrap();
        for (i, j) in edges {
            assert!(i < j);
            assert!(pts[i].distance(pts[j]) <= 80.0);
        }
    }
}
