//! Discrete harmonic map of a triangulated disk onto the unit disk.

use crate::HarmonicError;
use anr_geom::Point;
use anr_mesh::TriMesh;
use anr_sparse::{pcg_jacobi2, CsrMatrix, PcgConfig};
use anr_trace::{TraceValue, Tracer};
use std::collections::VecDeque;
use std::f64::consts::TAU;

/// How boundary vertices are distributed along the unit circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryParam {
    /// Uniformly by hop count along the loop — the paper's distributed
    /// protocol ("uniformly and sequentially distributed along the
    /// boundary", Sec. III-B).
    #[default]
    HopUniform,
    /// Proportionally to boundary arc length (chord-length
    /// parametrization), an ablation alternative.
    ChordLength,
}

/// Interior averaging weights. They also choose the solver.
///
/// Either way the map solves one linear system — the interior sub-block
/// of the weighted graph Laplacian with the pinned boundary moved to the
/// right-hand side — so it inherits Tutte's embedding guarantee. Uniform
/// weights make that matrix symmetric, and it is solved by
/// Jacobi-preconditioned conjugate gradient, which converges in
/// O(√n)-ish iterations. Mean-value weights are asymmetric
/// (w(v,u) ≠ w(u,v)), which CG cannot take, so they run Gauss–Seidel
/// averaging sweeps, the model of the paper's distributed protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weighting {
    /// Plain average of neighbors (Tutte / spring system with identical
    /// springs) — what the paper's robots compute.
    #[default]
    Uniform,
    /// Mean-value weights from the original embedding: better shape
    /// preservation for irregular meshes, used as an ablation.
    MeanValue,
}

/// Configuration for [`harmonic_map_to_disk`].
#[derive(Debug, Clone, Copy)]
pub struct HarmonicConfig {
    /// Boundary distribution (default: hop-uniform, as in the paper).
    pub boundary: BoundaryParam,
    /// Interior weights (default: uniform, as in the paper).
    pub weighting: Weighting,
    /// Convergence tolerance on the largest per-iteration vertex
    /// displacement, in unit-disk units (default `1e-9`). The PCG
    /// solver stops on the diagonally scaled residual — the same
    /// quantity in the same units — so one tolerance serves both.
    pub tolerance: f64,
    /// Iteration budget (default 100 000). Applies to whichever solver
    /// the weights choose; PCG typically uses a few dozen iterations of
    /// it.
    pub max_iterations: usize,
}

impl Default for HarmonicConfig {
    fn default() -> Self {
        HarmonicConfig {
            boundary: BoundaryParam::HopUniform,
            weighting: Weighting::Uniform,
            tolerance: 1e-9,
            max_iterations: 100_000,
        }
    }
}

/// The result of a harmonic map: unit-disk positions per vertex.
#[derive(Debug, Clone)]
pub struct DiskMap {
    positions: Vec<Point>,
    boundary: Vec<usize>,
    iterations: usize,
}

impl DiskMap {
    /// Disk position of every vertex (same indexing as the input mesh).
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Disk position of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    #[inline]
    pub fn position(&self, v: usize) -> Point {
        self.positions[v]
    }

    /// The boundary loop (vertex indices) that was pinned to the circle.
    #[inline]
    pub fn boundary(&self) -> &[usize] {
        &self.boundary
    }

    /// Iterations the interior solver ran for: PCG iterations for
    /// uniform weights, Gauss–Seidel sweeps for mean-value weights.
    #[inline]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The input mesh re-embedded at the disk positions.
    pub fn as_disk_mesh(&self, mesh: &TriMesh) -> TriMesh {
        mesh.with_positions(self.positions.clone())
    }

    /// Consumes the map, returning the disk positions.
    pub fn into_positions(self) -> Vec<Point> {
        self.positions
    }

    /// Assembles a map from raw parts (used by the distributed solver,
    /// which produces the same structure via messages).
    pub(crate) fn from_parts(
        positions: Vec<Point>,
        boundary: Vec<usize>,
        iterations: usize,
    ) -> DiskMap {
        DiskMap {
            positions,
            boundary,
            iterations,
        }
    }
}

/// Computes the discrete harmonic map of a triangulated disk onto the
/// unit disk.
///
/// Boundary vertices are fixed on the unit circle (starting at the
/// boundary vertex with the smallest index — the paper's smallest-ID
/// initiator — and running along the loop); interior vertices start at
/// the disk center and are repeatedly replaced by the weighted average of
/// their neighbors until no vertex moves more than `tolerance`
/// (Sec. III-B). With uniform weights and a convex (circle) boundary this
/// is Tutte's embedding: a guaranteed diffeomorphism.
///
/// The weights choose the solver (see [`Weighting`]), and the interior
/// solve emits a per-iteration residual series on `tracer`: `pcg_iter`
/// events from CG, `gs_sweep` events from Gauss–Seidel. Tracing is
/// observation only: the map is bit-identical under any tracer.
///
/// # Errors
///
/// * [`HarmonicError::NotADisk`] / [`HarmonicError::NoBoundary`] — wrong
///   topology (fill holes first with [`crate::fill_holes`]).
/// * [`HarmonicError::DisconnectedInterior`] — a vertex has no path to
///   the boundary.
/// * [`HarmonicError::NotConverged`] — iteration budget exhausted.
/// * [`HarmonicError::TooSmall`] — no triangles.
pub fn harmonic_map_to_disk(
    mesh: &TriMesh,
    config: &HarmonicConfig,
    tracer: &Tracer,
) -> Result<DiskMap, HarmonicError> {
    let symmetric = config.weighting == Weighting::Uniform;
    pin_to_circle(mesh, config)?.solve(mesh, config.max_iterations, symmetric, tracer)
}

/// Computes a harmonic (Tutte) map of `mesh` with an **arbitrary** fixed
/// boundary: `boundary_positions[k]` pins vertex `boundary[k]` of the
/// single boundary loop.
///
/// Unlike the unit-disk map, an arbitrary boundary is **not** guaranteed
/// to produce an embedding: Tutte's theorem requires a convex boundary.
/// This entry point exists exactly to measure that failure — the paper's
/// argument for the two-disk construction ("the requirement of convex
/// shape boundary is too restrictive on the shape of a FoI",
/// Sec. II-B). Callers should count flipped triangles in the result.
///
/// The boundary loop is the mesh's single loop, rotated to start at its
/// smallest vertex index (same convention as [`harmonic_map_to_disk`]).
///
/// # Errors
///
/// Same as [`harmonic_map_to_disk`].
///
/// # Panics
///
/// Panics when `boundary_positions.len()` does not match the boundary
/// loop length.
pub fn harmonic_map_with_boundary(
    mesh: &TriMesh,
    boundary_positions: &[Point],
    config: &HarmonicConfig,
) -> Result<DiskMap, HarmonicError> {
    // Always uniform weights, so always symmetric.
    let pinned = pin_to(mesh, boundary_positions, config)?;
    pinned.solve(mesh, config.max_iterations, true, &Tracer::disabled())
}

/// Gauss–Seidel sweeps on the system of [`harmonic_map_to_disk`]
/// (`boundary_positions` `None`) or of [`harmonic_map_with_boundary`]
/// (`Some`), whatever the weights. This is the reference the PCG path is
/// tested against: the two maps agree to solver tolerance, and for
/// mean-value weights, which run these sweeps anyway, bit for bit.
///
/// # Errors
///
/// Same as [`harmonic_map_to_disk`].
///
/// # Panics
///
/// Same as [`harmonic_map_with_boundary`].
#[doc(hidden)]
pub fn harmonic_map_gauss_seidel(
    mesh: &TriMesh,
    boundary_positions: Option<&[Point]>,
    config: &HarmonicConfig,
) -> Result<DiskMap, HarmonicError> {
    let pinned = match boundary_positions {
        None => pin_to_circle(mesh, config)?,
        Some(positions) => pin_to(mesh, positions, config)?,
    };
    pinned.solve(mesh, config.max_iterations, false, &Tracer::disabled())
}

/// The mesh's single boundary loop, rotated to start at its smallest
/// vertex index (the paper's smallest ID), and every vertex's boundary
/// flag.
fn boundary_loop(mesh: &TriMesh) -> Result<(Vec<usize>, Vec<bool>), HarmonicError> {
    if mesh.num_triangles() == 0 {
        return Err(HarmonicError::TooSmall);
    }
    let loops = mesh.boundary_loops();
    if loops.len() > 1 {
        return Err(HarmonicError::NotADisk { loops: loops.len() });
    }
    let Some(mut boundary) = loops.into_iter().next() else {
        return Err(HarmonicError::NoBoundary);
    };
    let start = boundary
        .iter()
        .enumerate()
        .min_by_key(|&(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    boundary.rotate_left(start);
    let mut is_boundary = vec![false; mesh.num_vertices()];
    for &v in &boundary {
        is_boundary[v] = true;
    }
    Ok((boundary, is_boundary))
}

/// A harmonic map's linear system before its solve: the boundary loop,
/// every vertex's start (the boundary at its pinned position), the
/// averaging weights and the stop tolerance.
struct Pinned {
    boundary: Vec<usize>,
    is_boundary: Vec<bool>,
    pos: Vec<Point>,
    weights: Vec<Vec<f64>>,
    tolerance: f64,
}

/// The system of [`harmonic_map_to_disk`]: the boundary on the unit
/// circle, the interior at its center.
fn pin_to_circle(mesh: &TriMesh, config: &HarmonicConfig) -> Result<Pinned, HarmonicError> {
    let (boundary, is_boundary) = boundary_loop(mesh)?;
    if boundary.len() < 3 {
        return Err(HarmonicError::TooSmall);
    }
    let n = mesh.num_vertices();

    // Interior vertices must reach the boundary through mesh edges.
    {
        let mut seen = vec![false; n];
        let mut queue: VecDeque<usize> = boundary.iter().copied().collect();
        for &v in &boundary {
            seen[v] = true;
        }
        while let Some(u) = queue.pop_front() {
            for &w in mesh.vertex_neighbors(u) {
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
        // Vertices with no incident edges at all are also unusable.
        if let Some(v) = (0..n).find(|&v| !seen[v]) {
            return Err(HarmonicError::DisconnectedInterior { vertex: v });
        }
    }

    // Pin the boundary onto the circle.
    let mut pos = vec![Point::ORIGIN; n];
    match config.boundary {
        BoundaryParam::HopUniform => {
            let len = boundary.len() as f64;
            for (k, &v) in boundary.iter().enumerate() {
                let theta = TAU * k as f64 / len;
                pos[v] = Point::new(theta.cos(), theta.sin());
            }
        }
        BoundaryParam::ChordLength => {
            let mut cumulative = vec![0.0f64; boundary.len()];
            let mut total = 0.0;
            for k in 0..boundary.len() {
                let a = mesh.vertex(boundary[k]);
                let b = mesh.vertex(boundary[(k + 1) % boundary.len()]);
                cumulative[k] = total;
                total += a.distance(b);
            }
            for (k, &v) in boundary.iter().enumerate() {
                let theta = TAU * cumulative[k] / total;
                pos[v] = Point::new(theta.cos(), theta.sin());
            }
        }
    }

    // Precompute neighbor weights from the *original* embedding.
    let weights: Vec<Vec<f64>> = match config.weighting {
        Weighting::Uniform => uniform_weights(mesh),
        Weighting::MeanValue => (0..n).map(|v| mean_value_weights(mesh, v)).collect(),
    };
    Ok(Pinned {
        boundary,
        is_boundary,
        pos,
        weights,
        tolerance: config.tolerance,
    })
}

/// The system of [`harmonic_map_with_boundary`]: the boundary at
/// `boundary_positions`, the interior at their centroid, uniform weights
/// (`config.weighting` describes the *disk* map).
fn pin_to(
    mesh: &TriMesh,
    boundary_positions: &[Point],
    config: &HarmonicConfig,
) -> Result<Pinned, HarmonicError> {
    let (boundary, is_boundary) = boundary_loop(mesh)?;
    assert_eq!(
        boundary.len(),
        boundary_positions.len(),
        "one pinned position per boundary vertex"
    );
    // Start interior vertices at the boundary centroid so they converge
    // into the pinned shape.
    let centroid = Point::centroid_of(boundary_positions.iter().copied()).unwrap_or(Point::ORIGIN);
    let mut pos = vec![centroid; mesh.num_vertices()];
    for (k, &v) in boundary.iter().enumerate() {
        pos[v] = boundary_positions[k];
    }
    // Reject interior vertices with no neighbors (cannot be averaged).
    if let Some(v) =
        (0..pos.len()).find(|&v| !is_boundary[v] && mesh.vertex_neighbors(v).is_empty())
    {
        return Err(HarmonicError::DisconnectedInterior { vertex: v });
    }
    let scale = boundary_positions
        .iter()
        .map(|p| p.distance(centroid))
        .fold(0.0f64, f64::max)
        .max(1.0);
    Ok(Pinned {
        boundary,
        is_boundary,
        pos,
        weights: uniform_weights(mesh),
        tolerance: config.tolerance * scale,
    })
}

impl Pinned {
    /// Solves the pinned-boundary averaging fixed point for the interior
    /// vertices: every interior vertex `v` must satisfy
    /// `pos[v] = Σ_u w(v,u)·pos[u] / Σ_u w(v,u)` — equivalently the
    /// sparse linear system `Σ_u w(v,u)·(pos[v] − pos[u]) = 0` with
    /// boundary positions moved to the right-hand side. When the weights
    /// are `symmetric` that system is SPD (given the already-checked
    /// boundary reachability) and PCG solves it directly; otherwise
    /// Gauss–Seidel relaxes it by sweeps.
    fn solve(
        mut self,
        mesh: &TriMesh,
        max_iterations: usize,
        symmetric: bool,
        tracer: &Tracer,
    ) -> Result<DiskMap, HarmonicError> {
        let interior: Vec<usize> = (0..self.pos.len())
            .filter(|&v| !self.is_boundary[v])
            .collect();
        let iterations = if symmetric {
            self.solve_pcg(mesh, &interior, max_iterations, tracer)?
        } else {
            self.solve_gauss_seidel(mesh, &interior, max_iterations, tracer)?
        };
        Ok(DiskMap {
            positions: self.pos,
            boundary: self.boundary,
            iterations,
        })
    }

    /// The Gauss–Seidel averaging sweeps.
    fn solve_gauss_seidel(
        &mut self,
        mesh: &TriMesh,
        interior: &[usize],
        max_iterations: usize,
        tracer: &Tracer,
    ) -> Result<usize, HarmonicError> {
        let pos = &mut self.pos;
        let mut iterations = 0usize;
        let mut residual = f64::INFINITY;
        while iterations < max_iterations {
            iterations += 1;
            residual = 0.0;
            for &v in interior {
                let nbrs = mesh.vertex_neighbors(v);
                let ws = &self.weights[v];
                let mut sx = 0.0;
                let mut sy = 0.0;
                let mut sw = 0.0;
                for (k, &u) in nbrs.iter().enumerate() {
                    sx += ws[k] * pos[u].x;
                    sy += ws[k] * pos[u].y;
                    sw += ws[k];
                }
                let np = Point::new(sx / sw, sy / sw);
                residual = residual.max(np.distance(pos[v]));
                pos[v] = np;
            }
            if tracer.is_enabled() {
                tracer.event(
                    "gs_sweep",
                    &[
                        ("iter", TraceValue::U64(iterations as u64)),
                        ("residual", TraceValue::F64(residual)),
                    ],
                );
            }
            if residual < self.tolerance {
                break;
            }
        }
        if residual >= self.tolerance {
            return Err(HarmonicError::NotConverged {
                iterations,
                residual,
            });
        }
        Ok(iterations)
    }

    /// The PCG path: assemble the interior Laplacian once, then run one
    /// paired Jacobi-PCG solve for both coordinates.
    fn solve_pcg(
        &mut self,
        mesh: &TriMesh,
        interior: &[usize],
        max_iterations: usize,
        tracer: &Tracer,
    ) -> Result<usize, HarmonicError> {
        let pos = &mut self.pos;
        let m = interior.len();
        if m == 0 {
            return Ok(0);
        }
        let mut interior_index = vec![usize::MAX; pos.len()];
        for (i, &v) in interior.iter().enumerate() {
            interior_index[v] = i;
        }

        // Row v: (Σ_u w)·x_v − Σ_{u interior} w·x_u = Σ_{u boundary} w·pos_u.
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut bx = vec![0.0; m];
        let mut by = vec![0.0; m];
        for (i, &v) in interior.iter().enumerate() {
            let nbrs = mesh.vertex_neighbors(v);
            let ws = &self.weights[v];
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(nbrs.len() + 1);
            let mut degree = 0.0;
            for (k, &u) in nbrs.iter().enumerate() {
                let w = ws[k];
                degree += w;
                if self.is_boundary[u] {
                    bx[i] += w * pos[u].x;
                    by[i] += w * pos[u].y;
                } else {
                    row.push((interior_index[u], -w));
                }
            }
            row.push((i, degree));
            rows.push(row);
        }
        let a = CsrMatrix::from_rows(m, &rows);

        let x0: Vec<f64> = interior.iter().map(|&v| pos[v].x).collect();
        let y0: Vec<f64> = interior.iter().map(|&v| pos[v].y).collect();
        let cfg = PcgConfig {
            tolerance: self.tolerance,
            max_iterations,
        };
        // One paired solve: the x and y systems share the matrix, so the
        // lockstep recurrence reads every stored entry once per iteration
        // instead of once per coordinate.
        let s = pcg_jacobi2(&a, &bx, &by, &x0, &y0, &cfg, tracer);
        if !s.converged {
            return Err(HarmonicError::NotConverged {
                iterations: s.iterations,
                residual: s.residual,
            });
        }
        for (i, &v) in interior.iter().enumerate() {
            pos[v] = Point::new(s.x[i], s.y[i]);
        }
        Ok(s.iterations)
    }
}

/// A weight of one for every edge of every vertex.
fn uniform_weights(mesh: &TriMesh) -> Vec<Vec<f64>> {
    (0..mesh.num_vertices())
        .map(|v| vec![1.0; mesh.vertex_neighbors(v).len()])
        .collect()
}

/// Mean-value weights of vertex `v`'s edges, computed from the mesh's
/// original embedding: `w(v, u) = (tan(α/2) + tan(β/2)) / ‖v − u‖` where
/// α, β are the angles at `v` in the two triangles flanking edge (v, u).
fn mean_value_weights(mesh: &TriMesh, v: usize) -> Vec<f64> {
    let nbrs = mesh.vertex_neighbors(v);
    let pv = mesh.vertex(v);
    nbrs.iter()
        .map(|&u| {
            let pu = mesh.vertex(u);
            let mut w = 0.0;
            for &t in mesh.edge_triangles(v, u) {
                // The third vertex of triangle t; a degenerate triangle
                // without one contributes no weight.
                let Some(third) = mesh.triangles()[t]
                    .iter()
                    .copied()
                    .find(|&x| x != v && x != u)
                else {
                    continue;
                };
                let pw = mesh.vertex(third);
                // Angle at v in triangle (v, u, w).
                let a = (pu - pv).normalized();
                let b = (pw - pv).normalized();
                let angle = a.dot(b).clamp(-1.0, 1.0).acos();
                w += (angle / 2.0).tan();
            }
            (w / pv.distance(pu)).max(1e-12)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_mesh::delaunay;

    fn grid(n: usize, s: f64) -> TriMesh {
        let mut pts = Vec::new();
        for j in 0..n {
            for i in 0..n {
                pts.push(Point::new(i as f64 * s, j as f64 * s));
            }
        }
        delaunay(&pts).unwrap()
    }

    #[test]
    fn boundary_on_unit_circle() {
        let mesh = grid(5, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        for &v in disk.boundary() {
            assert!((disk.position(v).to_vector().norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn interior_strictly_inside() {
        let mesh = grid(6, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let boundary: std::collections::HashSet<usize> = disk.boundary().iter().copied().collect();
        for v in 0..mesh.num_vertices() {
            if !boundary.contains(&v) {
                let r = disk.position(v).to_vector().norm();
                assert!(r < 1.0 - 1e-6, "interior vertex {v} at radius {r}");
            }
        }
    }

    #[test]
    fn map_is_injective_on_grid() {
        let mesh = grid(5, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        for a in 0..mesh.num_vertices() {
            for b in (a + 1)..mesh.num_vertices() {
                assert!(
                    disk.position(a).distance(disk.position(b)) > 1e-8,
                    "vertices {a} and {b} collapsed"
                );
            }
        }
    }

    #[test]
    fn triangles_stay_positively_oriented() {
        // Tutte's theorem: the disk embedding is a proper embedding, so
        // every (input-CCW) triangle keeps positive area.
        let mesh = grid(6, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let dmesh = disk.as_disk_mesh(&mesh);
        for t in 0..dmesh.num_triangles() {
            assert!(
                dmesh.triangle(t).signed_area() > 0.0,
                "triangle {t} flipped in the disk"
            );
        }
    }

    #[test]
    fn hop_uniform_boundary_is_equally_spaced() {
        let mesh = grid(4, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let b = disk.boundary();
        let step = TAU / b.len() as f64;
        for k in 0..b.len() {
            let a = disk.position(b[k]);
            let c = disk.position(b[(k + 1) % b.len()]);
            let chord = 2.0 * (step / 2.0).sin();
            assert!((a.distance(c) - chord).abs() < 1e-9);
        }
    }

    #[test]
    fn boundary_starts_at_smallest_index() {
        let mesh = grid(4, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let first = disk.boundary()[0];
        assert_eq!(first, *disk.boundary().iter().min().unwrap());
        // The smallest-index boundary vertex sits at angle 0.
        assert!(disk.position(first).distance(Point::new(1.0, 0.0)) < 1e-12);
    }

    #[test]
    fn chord_length_param_converges_too() {
        let mesh = grid(5, 10.0);
        let cfg = HarmonicConfig {
            boundary: BoundaryParam::ChordLength,
            ..Default::default()
        };
        let disk = harmonic_map_to_disk(&mesh, &cfg, &Tracer::disabled()).unwrap();
        for &v in disk.boundary() {
            assert!((disk.position(v).to_vector().norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_value_weights_converge_and_embed() {
        let mesh = grid(5, 10.0);
        let cfg = HarmonicConfig {
            weighting: Weighting::MeanValue,
            ..Default::default()
        };
        let disk = harmonic_map_to_disk(&mesh, &cfg, &Tracer::disabled()).unwrap();
        let dmesh = disk.as_disk_mesh(&mesh);
        for t in 0..dmesh.num_triangles() {
            assert!(dmesh.triangle(t).signed_area() > 0.0);
        }
    }

    #[test]
    fn symmetric_grid_center_maps_to_center() {
        // 5×5 grid: the center vertex is fixed by symmetry.
        let mesh = grid(5, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        // Vertex 12 is the grid center; it may not map exactly to the
        // origin because the hop-uniform boundary breaks the symmetry
        // slightly (corners vs edge midpoints), but it must stay near.
        assert!(disk.position(12).to_vector().norm() < 0.2);
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let mesh = grid(6, 10.0);
        let cfg = HarmonicConfig {
            max_iterations: 2,
            tolerance: 1e-15,
            ..Default::default()
        };
        assert!(matches!(
            harmonic_map_to_disk(&mesh, &cfg, &Tracer::disabled()),
            Err(HarmonicError::NotConverged { iterations: 2, .. })
        ));
    }

    #[test]
    fn custom_convex_boundary_still_embeds() {
        // Pinning the boundary to a convex shape (a scaled circle)
        // keeps Tutte's guarantee: no flipped triangles.
        let mesh = grid(5, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let boundary = disk.boundary().to_vec();
        let pinned: Vec<Point> = (0..boundary.len())
            .map(|k| {
                let theta = TAU * k as f64 / boundary.len() as f64;
                Point::new(30.0 + 7.0 * theta.cos(), -5.0 + 4.0 * theta.sin())
            })
            .collect();
        let map = harmonic_map_with_boundary(&mesh, &pinned, &HarmonicConfig::default()).unwrap();
        let emb = map.as_disk_mesh(&mesh);
        for t in 0..emb.num_triangles() {
            assert!(emb.triangle(t).signed_area() > 0.0, "triangle {t} flipped");
        }
    }

    #[test]
    fn concave_boundary_breaks_the_embedding() {
        // The paper's motivation for the two-disk construction: pin the
        // boundary to a deeply concave (star) shape and the direct
        // harmonic map flips triangles.
        let mesh = grid(7, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let boundary = disk.boundary().to_vec();
        let pinned: Vec<Point> = (0..boundary.len())
            .map(|k| {
                let theta = TAU * k as f64 / boundary.len() as f64;
                let r = 10.0 * (1.0 + 0.85 * (5.0 * theta).cos()).max(0.05);
                Point::new(r * theta.cos(), r * theta.sin())
            })
            .collect();
        let map = harmonic_map_with_boundary(&mesh, &pinned, &HarmonicConfig::default()).unwrap();
        let emb = map.as_disk_mesh(&mesh);
        let flipped = (0..emb.num_triangles())
            .filter(|&t| emb.triangle(t).signed_area() <= 0.0)
            .count();
        assert!(
            flipped > 0,
            "expected flipped triangles on a concave boundary"
        );
    }

    #[test]
    fn custom_boundary_length_mismatch_panics() {
        let mesh = grid(4, 10.0);
        let r = std::panic::catch_unwind(|| {
            let _ =
                harmonic_map_with_boundary(&mesh, &[Point::ORIGIN; 3], &HarmonicConfig::default());
        });
        assert!(r.is_err());
    }

    #[test]
    fn pcg_matches_gauss_seidel_reference() {
        let mesh = grid(7, 10.0);
        let pcg =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let gs = harmonic_map_gauss_seidel(&mesh, None, &HarmonicConfig::default()).unwrap();
        for v in 0..mesh.num_vertices() {
            let d = pcg.position(v).distance(gs.position(v));
            assert!(d < 1e-6, "vertex {v} differs by {d}");
        }
        // The point of the exercise: far fewer iterations.
        assert!(
            pcg.iterations() < gs.iterations(),
            "PCG {} vs GS {} iterations",
            pcg.iterations(),
            gs.iterations()
        );
    }

    #[test]
    fn pcg_matches_reference_on_custom_boundary() {
        let mesh = grid(6, 10.0);
        let disk =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let pinned: Vec<Point> = (0..disk.boundary().len())
            .map(|k| {
                let theta = TAU * k as f64 / disk.boundary().len() as f64;
                Point::new(12.0 + 9.0 * theta.cos(), -3.0 + 5.0 * theta.sin())
            })
            .collect();
        let pcg = harmonic_map_with_boundary(&mesh, &pinned, &HarmonicConfig::default()).unwrap();
        let gs =
            harmonic_map_gauss_seidel(&mesh, Some(&pinned), &HarmonicConfig::default()).unwrap();
        for v in 0..mesh.num_vertices() {
            let d = pcg.position(v).distance(gs.position(v));
            assert!(d < 1e-6, "vertex {v} differs by {d}");
        }
    }

    #[test]
    fn mean_value_weights_use_the_reference_solver() {
        // Mean-value weights are asymmetric, so the map runs the
        // Gauss–Seidel reference: identical results, bit for bit.
        let mesh = grid(5, 10.0);
        let cfg = HarmonicConfig {
            weighting: Weighting::MeanValue,
            ..Default::default()
        };
        let a = harmonic_map_to_disk(&mesh, &cfg, &Tracer::disabled()).unwrap();
        let b = harmonic_map_gauss_seidel(&mesh, None, &cfg).unwrap();
        assert_eq!(a.iterations(), b.iterations());
        for v in 0..mesh.num_vertices() {
            assert_eq!(a.position(v), b.position(v));
        }
    }

    #[test]
    fn traced_map_is_observation_only() {
        // Both solver paths: tracing emits a residual series without
        // changing a single output bit.
        let mesh = grid(6, 10.0);
        for (weighting, name) in [
            (Weighting::Uniform, "pcg_iter"),
            (Weighting::MeanValue, "gs_sweep"),
        ] {
            let cfg = HarmonicConfig {
                weighting,
                ..Default::default()
            };
            let plain = harmonic_map_to_disk(&mesh, &cfg, &Tracer::disabled()).unwrap();
            let tracer = Tracer::ring(65_536);
            let traced = harmonic_map_to_disk(&mesh, &cfg, &tracer).unwrap();
            assert_eq!(plain.positions(), traced.positions());
            assert_eq!(plain.iterations(), traced.iterations());
            let count = tracer.events().iter().filter(|e| e.name == name).count();
            assert_eq!(count, traced.iterations(), "one {name} per iteration");
        }
    }

    #[test]
    fn mesh_with_hole_is_rejected() {
        // Square ring (8 vertices) — two boundary loops.
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
        let mesh = TriMesh::new(verts, tris).unwrap();
        assert!(matches!(
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()),
            Err(HarmonicError::NotADisk { loops: 2 })
        ));
    }
}
