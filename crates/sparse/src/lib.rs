//! # anr-sparse — just enough sparse linear algebra for harmonic maps
//!
//! The discrete harmonic map pins boundary vertices and asks every
//! interior vertex to be the weighted average of its neighbours. That
//! fixed point is the solution of a sparse linear system: the interior
//! sub-block of the graph Laplacian against a boundary-induced
//! right-hand side. The seed solved it by Gauss–Seidel sweeps — O(n)
//! iterations of O(nnz) work on grid-like meshes. This crate provides
//! the tools to solve the same system directly:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with a cached
//!   diagonal;
//! * [`pcg_jacobi`] — conjugate gradient with a Jacobi (diagonal)
//!   preconditioner, which converges in O(√n)-ish iterations on these
//!   Laplacians.
//!
//! Convergence is declared on the **diagonally scaled residual**
//! `max_i |r_i| / a_ii`: for an averaging system this is exactly how far
//! a Jacobi sweep would still move vertex `i`, i.e. the same units as
//! the Gauss–Seidel "largest per-iteration displacement" stop rule it
//! replaces, so callers can reuse their tolerance unchanged.
//!
//! CG requires the matrix to be **symmetric positive definite**. The
//! interior Laplacian sub-block with symmetric positive edge weights is
//! SPD whenever every interior vertex has a path to the pinned boundary
//! (an irreducibly diagonally dominant M-matrix) — which the harmonic
//! solver checks before assembling the system.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

/// A square sparse matrix in compressed sparse row form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// `a_ii` per row (0.0 where the diagonal is absent).
    diag: Vec<f64>,
}

impl CsrMatrix {
    /// Builds an `n × n` matrix from per-row `(column, value)` lists.
    ///
    /// Entries in a row are coalesced (duplicate columns summed) and
    /// sorted by column; explicit zeros are kept.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len() != n` or a column index is out of range.
    #[must_use]
    pub fn from_rows(n: usize, rows: &[Vec<(usize, f64)>]) -> CsrMatrix {
        assert_eq!(rows.len(), n, "one entry list per row");
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut diag = vec![0.0; n];
        row_ptr.push(0);
        let mut sorted: Vec<(usize, f64)> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            sorted.clear();
            sorted.extend_from_slice(row);
            sorted.sort_unstable_by_key(|&(j, _)| j);
            let mut k = 0;
            while k < sorted.len() {
                let (j, mut v) = sorted[k];
                assert!(j < n, "column {j} out of range for an {n}×{n} matrix");
                k += 1;
                while k < sorted.len() && sorted[k].0 == j {
                    v += sorted[k].1;
                    k += 1;
                }
                if j == i {
                    diag[i] = v;
                }
                col_idx.push(j);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
            diag,
        }
    }

    /// Matrix dimension.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    #[inline]
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The diagonal (0.0 where no diagonal entry is stored).
    #[inline]
    #[must_use]
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` length differs from [`CsrMatrix::n`].
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
    }

    /// Applies `A` to two vectors stored interleaved
    /// (`xy = [x_0, y_0, x_1, y_1, ...]`), writing the interleaved
    /// results into `out`. Each stored entry is read once and used for
    /// both vectors — the point of pairing (see [`pcg_jacobi2`]).
    ///
    /// # Panics
    ///
    /// Panics when `xy` or `out` length differs from `2 * n`.
    pub fn mul_vec2(&self, xy: &[f64], out: &mut [f64]) {
        assert_eq!(xy.len(), 2 * self.n);
        assert_eq!(out.len(), 2 * self.n);
        for i in 0..self.n {
            let mut ax = 0.0;
            let mut ay = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let v = self.values[k];
                let j = self.col_idx[k];
                ax += v * xy[2 * j];
                ay += v * xy[2 * j + 1];
            }
            out[2 * i] = ax;
            out[2 * i + 1] = ay;
        }
    }

    /// [`CsrMatrix::mul_vec2`] that also returns the two dot products
    /// `[x · (A x), y · (A y)]`, accumulated in row order during the
    /// same traversal — CG needs `pᵀAp` right after `Ap`, and fusing
    /// the dot into the product saves a full pass over both vectors.
    ///
    /// # Panics
    ///
    /// Panics when `xy` or `out` length differs from `2 * n`.
    pub fn mul_vec2_dot(&self, xy: &[f64], out: &mut [f64]) -> [f64; 2] {
        assert_eq!(xy.len(), 2 * self.n);
        assert_eq!(out.len(), 2 * self.n);
        let mut dot = [0.0f64; 2];
        for i in 0..self.n {
            let mut ax = 0.0;
            let mut ay = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let v = self.values[k];
                let j = self.col_idx[k];
                ax += v * xy[2 * j];
                ay += v * xy[2 * j + 1];
            }
            out[2 * i] = ax;
            out[2 * i + 1] = ay;
            dot[0] += xy[2 * i] * ax;
            dot[1] += xy[2 * i + 1] * ay;
        }
        dot
    }
}

/// Stopping rule and budget for [`pcg_jacobi`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcgConfig {
    /// Stop when `max_i |r_i| / a_ii < tolerance` (Jacobi-displacement
    /// units; see the crate docs). Default `1e-9`.
    pub tolerance: f64,
    /// Iteration budget. Default 10 000.
    pub max_iterations: usize,
}

impl Default for PcgConfig {
    fn default() -> Self {
        PcgConfig {
            tolerance: 1e-9,
            max_iterations: 10_000,
        }
    }
}

/// What a [`pcg_jacobi`] run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PcgOutcome {
    /// The (approximate) solution.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final diagonally scaled residual `max_i |r_i| / a_ii`.
    pub residual: f64,
    /// Whether the tolerance was reached within the budget.
    pub converged: bool,
}

/// Diagonally scaled residual inf-norm: `max_i |r_i| / d_i`.
fn scaled_inf_norm(r: &[f64], d: &[f64]) -> f64 {
    r.iter()
        .zip(d)
        .map(|(&ri, &di)| (ri / di).abs())
        .fold(0.0, f64::max)
}

/// Solves `A x = b` by conjugate gradient with a Jacobi preconditioner,
/// starting from `x0`.
///
/// `A` must be symmetric positive definite with a strictly positive
/// diagonal; neither is checked (the cost would dwarf the solve), but a
/// zero or negative diagonal entry makes the scaled residual infinite
/// or meaningless, and an indefinite matrix can stall the recurrence —
/// the run then ends with `converged: false` rather than panicking.
///
/// # Panics
///
/// Panics when `b` or `x0` length differs from `a.n()`.
#[must_use]
pub fn pcg_jacobi(a: &CsrMatrix, b: &[f64], x0: &[f64], config: &PcgConfig) -> PcgOutcome {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    if n == 0 {
        return PcgOutcome {
            x: Vec::new(),
            iterations: 0,
            residual: 0.0,
            converged: true,
        };
    }
    let d = a.diagonal();

    let mut x = x0.to_vec();
    // r = b - A x
    let mut r = vec![0.0; n];
    a.mul_vec(&x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut residual = scaled_inf_norm(&r, d);
    if residual < config.tolerance {
        return PcgOutcome {
            x,
            iterations: 0,
            residual,
            converged: true,
        };
    }

    // z = M⁻¹ r with M = diag(A).
    let mut z: Vec<f64> = r.iter().zip(d).map(|(&ri, &di)| ri / di).collect();
    let mut p = z.clone();
    let mut rz: f64 = r.iter().zip(&z).map(|(&ri, &zi)| ri * zi).sum();
    let mut ap = vec![0.0; n];

    let mut iterations = 0;
    while iterations < config.max_iterations {
        iterations += 1;
        a.mul_vec(&p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(&pi, &api)| pi * api).sum();
        if !pap.is_finite() || pap <= 0.0 {
            // Breakdown (indefinite or numerically exhausted): report
            // the current iterate honestly.
            break;
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        residual = scaled_inf_norm(&r, d);
        if residual < config.tolerance {
            return PcgOutcome {
                x,
                iterations,
                residual,
                converged: true,
            };
        }
        for i in 0..n {
            z[i] = r[i] / d[i];
        }
        let rz_next: f64 = r.iter().zip(&z).map(|(&ri, &zi)| ri * zi).sum();
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    PcgOutcome {
        x,
        iterations,
        residual,
        converged: false,
    }
}

/// What a [`pcg_jacobi2`] run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pcg2Outcome {
    /// The (approximate) solution of `A x = bx`.
    pub x: Vec<f64>,
    /// The (approximate) solution of `A y = by`.
    pub y: Vec<f64>,
    /// Iterations executed (the slower of the two systems).
    pub iterations: usize,
    /// The larger of the two final scaled residuals.
    pub residual: f64,
    /// Whether both systems reached the tolerance within the budget.
    pub converged: bool,
}

/// Solves the two systems `A x = bx` and `A y = by` (same SPD matrix,
/// two right-hand sides) with paired Jacobi-preconditioned CG. The two
/// Krylov recurrences run in lockstep over one interleaved matrix
/// traversal ([`CsrMatrix::mul_vec2`]) — each stored entry is read once
/// per iteration instead of once per system, which roughly halves the
/// dominant cost. A system that converges (or breaks down) early is
/// frozen while the other finishes.
///
/// Same preconditions and stopping rule as [`pcg_jacobi`]. After every
/// CG iteration a `pcg_iter` event carrying the iteration number and the
/// larger of the two scaled residuals is emitted on `tracer`. Tracing is
/// observation only: the arithmetic is the same under any tracer.
///
/// # Panics
///
/// Panics when any vector length differs from `a.n()`.
#[must_use]
pub fn pcg_jacobi2(
    a: &CsrMatrix,
    bx: &[f64],
    by: &[f64],
    x0: &[f64],
    y0: &[f64],
    config: &PcgConfig,
    tracer: &anr_trace::Tracer,
) -> Pcg2Outcome {
    let n = a.n();
    assert_eq!(bx.len(), n);
    assert_eq!(by.len(), n);
    assert_eq!(x0.len(), n);
    assert_eq!(y0.len(), n);
    if n == 0 {
        return Pcg2Outcome {
            x: Vec::new(),
            y: Vec::new(),
            iterations: 0,
            residual: 0.0,
            converged: true,
        };
    }
    let d = a.diagonal();
    let b = |i: usize, lane: usize| if lane == 0 { bx[i] } else { by[i] };

    // Interleaved state: lane 0 = x at even indices, lane 1 = y at odd.
    let mut u = vec![0.0; 2 * n];
    for i in 0..n {
        u[2 * i] = x0[i];
        u[2 * i + 1] = y0[i];
    }
    let mut r = vec![0.0; 2 * n];
    a.mul_vec2(&u, &mut r);
    for i in 0..n {
        for lane in 0..2 {
            r[2 * i + lane] = b(i, lane) - r[2 * i + lane];
        }
    }
    let lane_residual = |r: &[f64], lane: usize| -> f64 {
        (0..n)
            .map(|i| (r[2 * i + lane] / d[i]).abs())
            .fold(0.0, f64::max)
    };
    let mut residuals = [lane_residual(&r, 0), lane_residual(&r, 1)];
    // active = still iterating; converged = reached tolerance (a lane
    // can stop active without converging on breakdown).
    let mut active = [
        residuals[0] >= config.tolerance,
        residuals[1] >= config.tolerance,
    ];
    let mut converged = [!active[0], !active[1]];

    let mut z = vec![0.0; 2 * n];
    for i in 0..n {
        z[2 * i] = r[2 * i] / d[i];
        z[2 * i + 1] = r[2 * i + 1] / d[i];
    }
    let mut p = z.clone();
    let mut rz = [0.0f64; 2];
    for i in 0..n {
        rz[0] += r[2 * i] * z[2 * i];
        rz[1] += r[2 * i + 1] * z[2 * i + 1];
    }
    let mut ap = vec![0.0; 2 * n];

    let mut iterations = 0;
    while (active[0] || active[1]) && iterations < config.max_iterations {
        iterations += 1;
        let pap = a.mul_vec2_dot(&p, &mut ap);
        let mut alpha = [0.0f64; 2];
        for lane in 0..2 {
            if !active[lane] {
                continue;
            }
            if !pap[lane].is_finite() || pap[lane] <= 0.0 {
                // Breakdown: freeze this lane at its current iterate.
                active[lane] = false;
                continue;
            }
            alpha[lane] = rz[lane] / pap[lane];
        }
        // One fused pass: step the iterate and residual, apply the
        // preconditioner (z = r / d), and accumulate both the new r·z
        // and the scaled residual inf-norm — which is exactly max |z|,
        // the same `|r_i| / a_ii` the single-system solver computes.
        let mut rz_next = [0.0f64; 2];
        let mut res = [0.0f64; 2];
        for (i, &di) in d.iter().enumerate() {
            for lane in 0..2 {
                if active[lane] {
                    let k = 2 * i + lane;
                    u[k] += alpha[lane] * p[k];
                    r[k] -= alpha[lane] * ap[k];
                    let zk = r[k] / di;
                    z[k] = zk;
                    rz_next[lane] += r[k] * zk;
                    res[lane] = res[lane].max(zk.abs());
                }
            }
        }
        let mut beta = [0.0f64; 2];
        for lane in 0..2 {
            if !active[lane] {
                continue;
            }
            residuals[lane] = res[lane];
            if residuals[lane] < config.tolerance {
                active[lane] = false;
                converged[lane] = true;
                continue;
            }
            beta[lane] = rz_next[lane] / rz[lane];
            rz[lane] = rz_next[lane];
        }
        if tracer.is_enabled() {
            tracer.event(
                "pcg_iter",
                &[
                    ("iter", anr_trace::TraceValue::U64(iterations as u64)),
                    (
                        "residual",
                        anr_trace::TraceValue::F64(residuals[0].max(residuals[1])),
                    ),
                ],
            );
        }
        // Search-direction update. The lanes converge at nearly the
        // same iteration, so the both-active case gets one contiguous
        // pass; per-lane arithmetic is unchanged either way.
        if active[0] && active[1] {
            for (k, pk) in p.iter_mut().enumerate() {
                *pk = z[k] + beta[k % 2] * *pk;
            }
        } else {
            for lane in 0..2 {
                if active[lane] {
                    for i in 0..n {
                        p[2 * i + lane] = z[2 * i + lane] + beta[lane] * p[2 * i + lane];
                    }
                }
            }
        }
    }

    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    for i in 0..n {
        x[i] = u[2 * i];
        y[i] = u[2 * i + 1];
    }
    Pcg2Outcome {
        x,
        y,
        iterations,
        residual: residuals[0].max(residuals[1]),
        converged: converged[0] && converged[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_trace::Tracer;

    /// 1-D Dirichlet Laplacian: tridiagonal [-1, 2, -1], SPD.
    fn path_laplacian(n: usize) -> CsrMatrix {
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let mut row = vec![(i, 2.0)];
                if i > 0 {
                    row.push((i - 1, -1.0));
                }
                if i + 1 < n {
                    row.push((i + 1, -1.0));
                }
                row
            })
            .collect();
        CsrMatrix::from_rows(n, &rows)
    }

    #[test]
    fn csr_mul_matches_dense() {
        let a = CsrMatrix::from_rows(
            3,
            &[
                vec![(0, 4.0), (2, 1.0)],
                vec![(1, 3.0)],
                vec![(0, 1.0), (2, 5.0)],
            ],
        );
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.diagonal(), &[4.0, 3.0, 5.0]);
        let mut y = vec![0.0; 3];
        a.mul_vec(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![7.0, 6.0, 16.0]);
    }

    #[test]
    fn duplicate_entries_coalesce() {
        let a = CsrMatrix::from_rows(2, &[vec![(0, 1.0), (0, 2.5), (1, -1.0)], vec![(1, 4.0)]]);
        assert_eq!(a.diagonal(), &[3.5, 4.0]);
        let mut y = vec![0.0; 2];
        a.mul_vec(&[2.0, 1.0], &mut y);
        assert_eq!(y, vec![6.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_column_panics() {
        let _ = CsrMatrix::from_rows(2, &[vec![(5, 1.0)], vec![]]);
    }

    #[test]
    fn pcg_solves_path_laplacian() {
        // A x = b with known solution: pick x*, compute b = A x*.
        let n = 200;
        let a = path_laplacian(n);
        let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut b = vec![0.0; n];
        a.mul_vec(&x_star, &mut b);
        let out = pcg_jacobi(&a, &b, &vec![0.0; n], &PcgConfig::default());
        assert!(out.converged, "residual {}", out.residual);
        assert!(out.iterations <= n, "CG finishes in ≤ n steps exactly");
        for (xi, si) in out.x.iter().zip(&x_star) {
            assert!((xi - si).abs() < 1e-6, "{xi} vs {si}");
        }
    }

    #[test]
    fn warm_start_costs_fewer_iterations() {
        let n = 300;
        let a = path_laplacian(n);
        let x_star: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let mut b = vec![0.0; n];
        a.mul_vec(&x_star, &mut b);
        let cold = pcg_jacobi(&a, &b, &vec![0.0; n], &PcgConfig::default());
        let near: Vec<f64> = x_star.iter().map(|&s| s + 1e-7).collect();
        let warm = pcg_jacobi(&a, &b, &near, &PcgConfig::default());
        assert!(cold.converged && warm.converged);
        assert!(warm.iterations < cold.iterations);
    }

    #[test]
    fn exact_start_converges_immediately() {
        let a = path_laplacian(50);
        let x_star: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut b = vec![0.0; 50];
        a.mul_vec(&x_star, &mut b);
        let out = pcg_jacobi(&a, &b, &x_star, &PcgConfig::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let n = 400;
        let a = path_laplacian(n);
        let b = vec![1.0; n];
        let out = pcg_jacobi(
            &a,
            &b,
            &vec![0.0; n],
            &PcgConfig {
                tolerance: 1e-12,
                max_iterations: 3,
            },
        );
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
        assert!(out.residual > 1e-12);
    }

    #[test]
    fn empty_system_is_trivially_solved() {
        let a = CsrMatrix::from_rows(0, &[]);
        let out = pcg_jacobi(&a, &[], &[], &PcgConfig::default());
        assert!(out.converged);
        assert!(out.x.is_empty());
    }

    #[test]
    fn mul_vec2_matches_two_mul_vecs() {
        let n = 60;
        let a = path_laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        a.mul_vec(&x, &mut ax);
        a.mul_vec(&y, &mut ay);
        let mut xy = vec![0.0; 2 * n];
        for i in 0..n {
            xy[2 * i] = x[i];
            xy[2 * i + 1] = y[i];
        }
        let mut out = vec![0.0; 2 * n];
        a.mul_vec2(&xy, &mut out);
        for i in 0..n {
            assert_eq!(out[2 * i], ax[i]);
            assert_eq!(out[2 * i + 1], ay[i]);
        }
    }

    #[test]
    fn paired_solve_matches_single_solves() {
        // The paired recurrence is the single recurrence run twice in
        // lockstep, so the iterates are identical arithmetic — compare
        // against pcg_jacobi exactly, not just to tolerance.
        let n = 150;
        let a = path_laplacian(n);
        let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let y_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut bx = vec![0.0; n];
        let mut by = vec![0.0; n];
        a.mul_vec(&x_star, &mut bx);
        a.mul_vec(&y_star, &mut by);
        let zero = vec![0.0; n];
        let cfg = PcgConfig::default();
        let sx = pcg_jacobi(&a, &bx, &zero, &cfg);
        let sy = pcg_jacobi(&a, &by, &zero, &cfg);
        let pair = pcg_jacobi2(&a, &bx, &by, &zero, &zero, &cfg, &Tracer::disabled());
        assert!(pair.converged);
        assert_eq!(pair.iterations, sx.iterations.max(sy.iterations));
        assert_eq!(pair.x, sx.x);
        assert_eq!(pair.y, sy.x);
    }

    #[test]
    fn paired_solve_handles_one_lane_already_converged() {
        let n = 80;
        let a = path_laplacian(n);
        let x_star: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut bx = vec![0.0; n];
        a.mul_vec(&x_star, &mut bx);
        let by = vec![1.0; n];
        // Lane 0 starts at its exact solution; lane 1 from zero.
        let out = pcg_jacobi2(
            &a,
            &bx,
            &by,
            &x_star,
            &vec![0.0; n],
            &PcgConfig::default(),
            &Tracer::disabled(),
        );
        assert!(out.converged);
        for (xi, si) in out.x.iter().zip(&x_star) {
            assert_eq!(xi, si, "the converged lane must stay frozen");
        }
        let mut ay = vec![0.0; n];
        a.mul_vec(&out.y, &mut ay);
        for (ai, bi) in ay.iter().zip(&by) {
            assert!((ai - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn paired_budget_exhaustion_reported() {
        let n = 400;
        let a = path_laplacian(n);
        let b = vec![1.0; n];
        let zero = vec![0.0; n];
        let out = pcg_jacobi2(
            &a,
            &b,
            &b,
            &zero,
            &zero,
            &PcgConfig {
                tolerance: 1e-12,
                max_iterations: 3,
            },
            &Tracer::disabled(),
        );
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn traced_solve_is_observation_only() {
        let n = 150;
        let a = path_laplacian(n);
        let b = vec![1.0; n];
        let zero = vec![0.0; n];
        let cfg = PcgConfig::default();
        let plain = pcg_jacobi2(&a, &b, &b, &zero, &zero, &cfg, &Tracer::disabled());
        let tracer = Tracer::ring(4096);
        let traced = pcg_jacobi2(&a, &b, &b, &zero, &zero, &cfg, &tracer);
        assert_eq!(plain, traced, "tracing must not perturb the solve");
        let events = tracer.events();
        assert_eq!(
            events.len(),
            traced.iterations,
            "one pcg_iter per iteration"
        );
        // The residual series is the per-iteration convergence record;
        // its last entry is the outcome's final residual.
        let last = events.last().unwrap();
        assert_eq!(last.name, "pcg_iter");
        match &last.fields[1] {
            ("residual", anr_trace::TraceValue::F64(r)) => assert_eq!(*r, traced.residual),
            f => panic!("unexpected field {f:?}"),
        }
    }

    #[test]
    fn paired_empty_system() {
        let a = CsrMatrix::from_rows(0, &[]);
        let out = pcg_jacobi2(
            &a,
            &[],
            &[],
            &[],
            &[],
            &PcgConfig::default(),
            &Tracer::disabled(),
        );
        assert!(out.converged);
        assert!(out.x.is_empty() && out.y.is_empty());
    }
}
