//! Rotation-angle search over the overlapped unit disks (Sec. III-B).
//!
//! The induced map `T → M2` depends on the relative rotation of the two
//! unit disks. The paper avoids solving the non-linear optimum by running
//! "a simple binary search method ... with a pre-defined search depth"
//! (set to 4 in its simulations). [`RotationSearch`] reproduces that:
//! a coarse sweep picks the best sector, then `depth` bisection steps
//! refine it. [`RotationSearch::exhaustive`] is the dense-sweep reference
//! used by the ablation benches.

use std::f64::consts::TAU;

/// Depth-limited rotation search.
///
/// ```
/// use anr_harmonic::RotationSearch;
///
/// // Maximize a smooth function of the angle with a peak at 2.0 rad.
/// let f = |theta: f64| -((theta - 2.0).cos() - 1.0).abs();
/// let search = RotationSearch::default();
/// let (best, _score, evals) = search.maximize(f);
/// assert!((best - 2.0).abs() < 0.2);
/// assert!(evals <= 16 + 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationSearch {
    /// Number of coarse samples around the circle (default 16).
    pub initial_samples: usize,
    /// Bisection refinement depth (default 4, as in the paper).
    pub depth: usize,
}

impl Default for RotationSearch {
    fn default() -> Self {
        RotationSearch {
            initial_samples: 16,
            depth: 4,
        }
    }
}

impl RotationSearch {
    /// Creates a search with the given coarse sampling and depth.
    ///
    /// # Panics
    ///
    /// Panics when `initial_samples == 0`.
    pub fn new(initial_samples: usize, depth: usize) -> Self {
        assert!(initial_samples > 0, "need at least one coarse sample");
        RotationSearch {
            initial_samples,
            depth,
        }
    }

    /// Finds the angle maximizing `objective`, returning
    /// `(angle, score, evaluations)`.
    ///
    /// The search evaluates `initial_samples` coarse angles, keeps the
    /// best, then runs `depth` bisection rounds on the surrounding
    /// sector: at each round the two half-sector midpoints are evaluated
    /// and the search recurses into the better half (the paper's
    /// "divides current search interval of angle into two and rotates
    /// ... with the midpoint angle of the interval").
    pub fn maximize<F: FnMut(f64) -> f64>(&self, mut objective: F) -> (f64, f64, usize) {
        self.maximize_batch(|thetas| thetas.iter().map(|&theta| objective(theta)).collect())
    }

    /// Finds the angle minimizing `objective` (used by method (b), the
    /// minimum-moving-distance variant, Sec. III-D-2).
    pub fn minimize<F: FnMut(f64) -> f64>(&self, mut objective: F) -> (f64, f64, usize) {
        let (theta, neg_score, evals) = self.maximize(|t| -objective(t));
        (theta, -neg_score, evals)
    }

    /// [`RotationSearch::maximize`] with a batched objective: each round's
    /// angles are handed to `batch` together (the coarse sweep as one
    /// batch, then each bisection round's two midpoints), so the caller
    /// can fan the evaluations out over worker threads. Batch results
    /// are scanned in ascending-angle order, so for a pure objective the
    /// result does not depend on how `batch` schedules its evaluations.
    ///
    /// # Panics
    ///
    /// Panics when `batch` returns a result count different from its
    /// input count.
    pub fn maximize_batch<F: FnMut(&[f64]) -> Vec<f64>>(&self, mut batch: F) -> (f64, f64, usize) {
        let mut evals = 0usize;
        let mut eval = |thetas: &[f64], evals: &mut usize| -> Vec<f64> {
            *evals += thetas.len();
            let scores = batch(thetas);
            assert_eq!(
                scores.len(),
                thetas.len(),
                "batch objective must score every angle"
            );
            scores
        };

        // Coarse sweep: one batch, scanned in ascending-angle order.
        let coarse: Vec<f64> = (0..self.initial_samples)
            .map(|k| TAU * k as f64 / self.initial_samples as f64)
            .collect();
        let scores = eval(&coarse, &mut evals);
        let mut best_theta = 0.0;
        let mut best_score = f64::NEG_INFINITY;
        for (&theta, &s) in coarse.iter().zip(&scores) {
            if s > best_score {
                best_score = s;
                best_theta = theta;
            }
        }

        // Bisection refinement, both half-sector midpoints per batch.
        let mut half_width = TAU / self.initial_samples as f64 / 2.0;
        for _ in 0..self.depth {
            let left = best_theta - half_width / 2.0;
            let right = best_theta + half_width / 2.0;
            let s = eval(&[left, right], &mut evals);
            let (sl, sr) = (s[0], s[1]);
            if sl > best_score && sl >= sr {
                best_score = sl;
                best_theta = left;
            } else if sr > best_score {
                best_score = sr;
                best_theta = right;
            }
            half_width /= 2.0;
        }

        (best_theta.rem_euclid(TAU), best_score, evals)
    }

    /// Batched form of [`RotationSearch::minimize`].
    ///
    /// # Panics
    ///
    /// Panics when `batch` returns a result count different from its
    /// input count.
    pub fn minimize_batch<F: FnMut(&[f64]) -> Vec<f64>>(&self, mut batch: F) -> (f64, f64, usize) {
        let (theta, neg, evals) =
            self.maximize_batch(|ts| batch(ts).into_iter().map(|s| -s).collect());
        (theta, -neg, evals)
    }

    /// Dense sweep over `samples` uniformly spaced angles — the
    /// validation reference for the depth-limited search.
    ///
    /// # Panics
    ///
    /// Panics when `samples == 0`.
    pub fn exhaustive<F: FnMut(f64) -> f64>(samples: usize, mut objective: F) -> (f64, f64) {
        assert!(samples > 0, "need at least one sample");
        let mut best_theta = 0.0;
        let mut best_score = f64::NEG_INFINITY;
        for k in 0..samples {
            let theta = TAU * k as f64 / samples as f64;
            let s = objective(theta);
            if s > best_score {
                best_score = s;
                best_theta = theta;
            }
        }
        (best_theta, best_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_peak_of_cosine() {
        // f(θ) = cos(θ − 1), peak at θ = 1.
        let search = RotationSearch::default();
        let (theta, score, _) = search.maximize(|t| (t - 1.0).cos());
        assert!((theta - 1.0).abs() < 0.1, "found {theta}");
        assert!(score > 0.99);
    }

    #[test]
    fn minimize_finds_valley() {
        let search = RotationSearch::default();
        let (theta, score, _) = search.minimize(|t| (t - 4.0).cos());
        // Valley of cos(θ−4) is at θ = 4 − π ≈ 0.858... + 2πk; the
        // minimum value is −1.
        assert!(score < -0.99);
        assert!(((theta - 4.0).cos() - score).abs() < 1e-12);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let search = RotationSearch::new(8, 4);
        let mut count = 0usize;
        let (_, _, evals) = search.maximize(|t| {
            count += 1;
            t.sin()
        });
        assert_eq!(evals, count);
        assert_eq!(evals, 8 + 2 * 4);
    }

    #[test]
    fn deeper_search_is_no_worse() {
        let f = |t: f64| (3.0 * (t - 2.3)).cos() + 0.3 * (t - 2.3).cos();
        let shallow = RotationSearch::new(16, 1).maximize(f).1;
        let deep = RotationSearch::new(16, 6).maximize(f).1;
        assert!(deep >= shallow - 1e-12);
    }

    #[test]
    fn depth_four_close_to_exhaustive() {
        // The paper's claim: "the computed rotation angle has been very
        // close to the optimal one with the search depth value" (4).
        let f = |t: f64| (t - 5.1).cos();
        let (_, s4, _) = RotationSearch::new(16, 4).maximize(f);
        let (_, sx) = RotationSearch::exhaustive(3600, f);
        assert!(sx - s4 < 0.01, "depth-4 {s4} vs exhaustive {sx}");
    }

    #[test]
    fn exhaustive_hits_grid_peak() {
        let (theta, score) = RotationSearch::exhaustive(4, |t| -(t - std::f64::consts::PI).abs());
        assert!((theta - std::f64::consts::PI).abs() < 1e-12);
        assert!((score - 0.0).abs() < 1e-12);
    }

    #[test]
    fn search_is_pinned_on_a_multimodal_objective() {
        // Awkward multi-modal objective with plateaus (exact ties). The
        // expected `(theta, score, evals)` are golden values of the
        // serial bisection loop this search replaced.
        let f = |t: f64| ((3.0 * t).sin() * 10.0).floor() + 0.25 * (t - 1.7).cos();
        let pins = [
            (
                (16, 4),
                (4.71238898038469, 9.752083797386883, 24),
                (5.706408530934585, -10.162195059892943, 24),
            ),
            (
                (7, 3),
                (2.4683942278205517, 9.179756894540551, 13),
                (3.8147910793590345, -10.129389553549094, 13),
            ),
            (
                (1, 5),
                (4.71238898038469, 9.752083797386883, 11),
                (1.4726215563702154, -9.75643482388437, 11),
            ),
            (
                (16, 0),
                (4.71238898038469, 9.752083797386883, 16),
                (5.890486225480862, -10.124632621144007, 16),
            ),
        ];
        for ((samples, depth), max, min) in pins {
            let search = RotationSearch::new(samples, depth);
            assert_eq!(search.maximize(f), max, "samples {samples} depth {depth}");
            assert_eq!(search.minimize(f), min, "samples {samples} depth {depth}");
            let batched = search.minimize_batch(|ts| ts.iter().map(|&t| f(t)).collect());
            assert_eq!(batched, min, "samples {samples} depth {depth}");
        }
    }

    #[test]
    #[should_panic]
    fn batch_with_wrong_arity_panics() {
        let _ = RotationSearch::default().maximize_batch(|_| Vec::new());
    }

    #[test]
    fn result_angle_is_normalized() {
        let search = RotationSearch::new(4, 6);
        let (theta, _, _) = search.maximize(|t| (t - 0.01).cos());
        assert!((0.0..TAU).contains(&theta));
    }
}
