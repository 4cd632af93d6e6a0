//! Cross-crate property tests: randomized FoI shapes and deployments
//! through the full pipeline.

use anr_marching::geom::{Point, Polygon, PolygonWithHoles};
use anr_marching::march::{march, MarchConfig, MarchProblem, Method};
use anr_marching::netgraph::UnitDiskGraph;
use anr_marching::scenarios::blob;
use proptest::prelude::*;

proptest! {
    // Full-pipeline runs are comparatively expensive; a handful of cases
    // each is plenty to sweep the seeded shape space.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn marching_between_random_blobs_keeps_connectivity(
        seed1 in 0u64..1000,
        seed2 in 1000u64..2000,
        sep in 8.0..40.0f64,
    ) {
        let m1 = PolygonWithHoles::without_holes(
            blob(Point::ORIGIN, 200_000.0, seed1, 48).unwrap(),
        );
        let m2 = PolygonWithHoles::without_holes(
            blob(Point::new(sep * 80.0, 0.0), 180_000.0, seed2, 48).unwrap(),
        );
        let problem = MarchProblem::with_lattice_deployment(m1, m2, 96, 80.0).unwrap();
        let out = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).unwrap();

        // The paper's guarantee: global connectivity at every sample.
        prop_assert_eq!(out.metrics.global_connectivity, 1);
        // Everyone ends inside the target FoI.
        for q in &out.final_positions {
            prop_assert!(problem.m2.contains(*q));
        }
        // Stable link ratio is meaningful.
        prop_assert!(out.metrics.stable_link_ratio > 0.3);
        prop_assert!(out.metrics.stable_link_ratio <= 1.0);
    }

    #[test]
    fn metrics_are_internally_consistent(
        seed in 0u64..500,
    ) {
        let m1 = PolygonWithHoles::without_holes(
            blob(Point::ORIGIN, 150_000.0, seed, 48).unwrap(),
        );
        let m2 = PolygonWithHoles::without_holes(
            blob(Point::new(1500.0, 0.0), 150_000.0, seed + 7, 48).unwrap(),
        );
        let problem = MarchProblem::with_lattice_deployment(m1, m2, 72, 80.0).unwrap();
        let out = march(&problem, Method::MinMovingDistance, &MarchConfig::default()).unwrap();

        prop_assert_eq!(out.metrics.initial_links,
            UnitDiskGraph::new(&problem.positions, 80.0).num_links());
        prop_assert!(out.metrics.preserved_links <= out.metrics.initial_links);
        let expect_ratio = out.metrics.preserved_links as f64 / out.metrics.initial_links as f64;
        prop_assert!((out.metrics.stable_link_ratio - expect_ratio).abs() < 1e-12);
        // D is at least the sum of straight-line displacements.
        let lower: f64 = problem.positions.iter()
            .zip(&out.final_positions)
            .map(|(a, b)| a.distance(*b))
            .sum();
        prop_assert!(out.metrics.total_distance >= lower - 1e-6);
    }

    #[test]
    fn degenerate_square_fois_work(side in 250.0..500.0f64, robots in 16usize..48) {
        // Axis-aligned rectangles are a degenerate boundary case for the
        // meshing (collinear boundary runs): the pipeline must not panic.
        let m1 = PolygonWithHoles::without_holes(
            Polygon::rectangle(Point::ORIGIN, side, side),
        );
        let m2 = PolygonWithHoles::without_holes(
            Polygon::rectangle(Point::new(side + 900.0, 0.0), side, side * 0.8),
        );
        // Skip deployments whose lattice pitch exceeds the range.
        let pitch = (side * side / robots as f64 * 2.0 / 3f64.sqrt()).sqrt();
        // Near-range pitches can disconnect after the coverage
        // refinement redistributes the lattice; stay clearly below r_c.
        prop_assume!(pitch < 68.0);
        let problem = match MarchProblem::with_lattice_deployment(m1, m2, robots, 80.0) {
            Ok(p) => p,
            // Marginal lattices can end up disconnected after refinement.
            Err(anr_marching::march::MarchError::DisconnectedDeployment { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("problem: {e}"))),
        };
        let out = match march(&problem, Method::MaxStableLinks, &MarchConfig::default()) {
            Ok(o) => o,
            // A robot connected only through over-range Delaunay edges is
            // a documented error path, not a pipeline failure.
            Err(anr_marching::march::MarchError::RobotOutsideTriangulation { .. }) => {
                return Ok(())
            }
            Err(e) => return Err(TestCaseError::fail(format!("march: {e}"))),
        };
        prop_assert_eq!(out.metrics.global_connectivity, 1);
    }
}

proptest! {
    // Dense-sampling cross-checks are cheap; run more cases than the
    // full-pipeline properties above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The closed-form continuous-time auditor against brute force: on
    /// random piecewise-linear timelines, everything a 10⁴-sample dense
    /// check can see must agree with the exact (quadratic-extremum)
    /// verdict, and the exact verdict may only be *stricter* — it
    /// catches violations that slip between samples, never the reverse.
    #[test]
    fn exact_audit_agrees_with_dense_sampling(
        coords in prop::collection::vec((-250.0..250.0f64, -250.0..250.0f64), 18),
    ) {
        use anr_marching::march::audit_piecewise;
        use anr_marching::trace::Tracer;

        const ROWS: usize = 3;
        const SAMPLES: usize = 10_000;
        let n = coords.len() / ROWS;
        let range = 150.0;
        let rows: Vec<Vec<Point>> = (0..ROWS)
            .map(|k| (0..n).map(|i| {
                let (x, y) = coords[k * n + i];
                Point::new(x, y)
            }).collect())
            .collect();
        let times = vec![0.0, 0.5, 1.0];
        let report = audit_piecewise(&rows, &times, range, &Tracer::disabled()).unwrap();

        let sample_pos = |s: f64| -> Vec<Point> {
            let seg = if s < 0.5 { 0 } else { 1 };
            let tau = (s - times[seg]) / (times[seg + 1] - times[seg]);
            (0..n).map(|i| {
                let a = rows[seg][i];
                let b = rows[seg + 1][i];
                Point::new(a.x + (b.x - a.x) * tau, a.y + (b.y - a.y) * tau)
            }).collect()
        };

        let initial = UnitDiskGraph::new(&rows[0], range).links();
        let mut sampled_stable: std::collections::HashSet<(usize, usize)> =
            initial.iter().copied().collect();
        let mut sampled_connected = true;
        for k in 0..=SAMPLES {
            let pos = sample_pos(k as f64 / SAMPLES as f64);
            sampled_connected &= UnitDiskGraph::new(&pos, range).is_connected();
            sampled_stable.retain(|&(i, j)| pos[i].distance(pos[j]) <= range);
        }

        let exact_violated: std::collections::HashSet<(usize, usize)> =
            report.violations.iter().map(|v| v.link).collect();

        // Exact bookkeeping is internally consistent.
        prop_assert_eq!(report.initial_links, initial.len());
        prop_assert_eq!(
            report.preserved_links,
            report.initial_links - exact_violated.len()
        );

        for &link in &initial {
            if !exact_violated.contains(&link) {
                // Exact says stable ⇒ no sample may see it out of range.
                prop_assert!(
                    sampled_stable.contains(&link),
                    "auditor kept {:?} but a dense sample breaks it", link
                );
            } else if !sampled_stable.contains(&link) {
                // Both agree it breaks — fine.
            } else {
                // Exact caught a violation the samples missed: it must
                // be a genuinely narrow excursion (shorter than two
                // sample steps), not a bookkeeping error.
                let v = report.violations.iter().find(|v| v.link == link).unwrap();
                prop_assert!(
                    v.interval.1 - v.interval.0 < 2.0 / SAMPLES as f64,
                    "wide violation {:?} of {:?} invisible to 10^4 samples",
                    v.interval, link
                );
                prop_assert!(v.max_distance > range);
            }
        }

        // Connectivity: a dense-sample disconnect must be caught
        // exactly; the exact C may only be stricter.
        if report.global_connectivity == 1 {
            prop_assert!(sampled_connected);
        }
    }

    /// The certificate-first audit against its uncontracted oracle
    /// (every robot its own component, every candidate pair swept) on
    /// random jittered-lattice timelines. Small swarms take the dense
    /// pair path, large ones the grid discovery; the jitter spans
    /// certified, multi-component and disconnected timelines.
    #[test]
    fn contracted_audit_matches_uncontracted_oracle(
        seed in 0u64..1_000_000,
        n in 12usize..90,
        jitter in 5.0..35.0f64,
    ) {
        use anr_marching::march::{audit_piecewise, audit_piecewise_uncontracted};
        use anr_marching::trace::Tracer;

        const ROWS: usize = 4;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let side = (n as f64).sqrt().ceil() as usize;
        let mut rows: Vec<Vec<Point>> = vec![(0..n)
            .map(|i| Point::new(60.0 * (i % side) as f64, 60.0 * (i / side) as f64))
            .collect()];
        for k in 1..ROWS {
            let next = rows[k - 1]
                .iter()
                .map(|q| Point::new(q.x + 40.0 + jitter * unit(), q.y + jitter * unit()))
                .collect();
            rows.push(next);
        }
        let times: Vec<f64> = (0..ROWS).map(|k| k as f64 / (ROWS - 1) as f64).collect();
        let range = 80.0;

        let got = audit_piecewise(&rows, &times, range, &Tracer::disabled()).unwrap();
        let want = audit_piecewise_uncontracted(&rows, &times, range, 0).unwrap();
        prop_assert_eq!(got.global_connectivity, want.global_connectivity);
        prop_assert_eq!(got.stable_link_ratio, want.stable_link_ratio);
        prop_assert_eq!(got.preserved_links, want.preserved_links);
        prop_assert_eq!(&got.violations, &want.violations);
        let (a, b) = (&got.disconnected_intervals, &want.disconnected_intervals);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            prop_assert!(
                (x.0 - y.0).abs() <= 1e-12 && (x.1 - y.1).abs() <= 1e-12,
                "interval {:?} vs oracle {:?}", x, y
            );
        }
        prop_assert!(got.components >= 1 && got.components <= n);
        prop_assert_eq!(got.swept_pairs == 0, got.components == 1);
    }
}
