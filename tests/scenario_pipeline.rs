//! End-to-end integration tests: the full marching pipeline on the
//! paper's scenarios at paper scale (144 robots, r_c = 80 m).

use anr_marching::coverage::{covered_fraction, GridPartition};
use anr_marching::march::{
    direct_translation, hungarian_direct, march, MarchConfig, MarchError, MarchProblem, Method,
};
use anr_marching::netgraph::UnitDiskGraph;
use anr_marching::scenarios::{build_scenario, ScenarioParams};

fn problem(id: u8) -> MarchProblem {
    let s = build_scenario(id, &ScenarioParams::default()).unwrap();
    MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range).unwrap()
}

#[test]
fn scenario1_full_pipeline_invariants() {
    let p = problem(1);
    let cfg = MarchConfig::default();
    let a = march(&p, Method::MaxStableLinks, &cfg).unwrap();

    // Definition 2: global connectivity throughout.
    assert_eq!(a.metrics.global_connectivity, 1);
    // High link preservation on similar shapes.
    assert!(
        a.metrics.stable_link_ratio > 0.85,
        "L = {}",
        a.metrics.stable_link_ratio
    );
    // All robots end in M2, outside holes.
    for q in &a.final_positions {
        assert!(p.m2.contains(*q));
        assert!(!p.m2.in_hole(*q));
    }
    // The final network is connected.
    assert!(UnitDiskGraph::new(&a.final_positions, p.range).is_connected());
}

#[test]
fn final_deployment_achieves_full_coverage() {
    // The paper's premise: with r_c >= sqrt(3) * r_s the triangular-lattice
    // CVT layout fully covers the FoI. Verify for the flower-pond target.
    let p = problem(3);
    let out = march(&p, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
    let partition = GridPartition::new(&p.m2, 8.0);
    let f = covered_fraction(&partition, &out.final_positions, p.sensing_range());
    assert!(f > 0.93, "coverage fraction {f}");
}

#[test]
fn scenario1_method_ordering() {
    let p = problem(1);
    let cfg = MarchConfig::default();
    let a = march(&p, Method::MaxStableLinks, &cfg).unwrap();
    let b = march(&p, Method::MinMovingDistance, &cfg).unwrap();
    let dt = direct_translation(&p, &cfg).unwrap();
    let hu = hungarian_direct(&p, &cfg).unwrap();

    // Paper Fig. 3 row 5: L(ours) > L(direct translation) > L(Hungarian).
    assert!(a.metrics.stable_link_ratio > dt.metrics.stable_link_ratio);
    assert!(dt.metrics.stable_link_ratio > hu.metrics.stable_link_ratio);

    // Paper Fig. 3 row 4: D(Hungarian) is minimal; ours within a small
    // factor; method (b) does not move more than method (a) (within the
    // coverage-refinement noise).
    assert!(hu.metrics.total_distance <= a.metrics.total_distance);
    assert!(hu.metrics.total_distance <= dt.metrics.total_distance);
    assert!(
        a.metrics.total_distance < hu.metrics.total_distance * 1.10,
        "ours(a) {} vs hungarian {}",
        a.metrics.total_distance,
        hu.metrics.total_distance
    );
    assert!(b.metrics.total_distance <= a.metrics.total_distance * 1.02);
}

#[test]
fn hole_scenarios_maintain_connectivity() {
    for id in [3u8, 4, 5] {
        let p = problem(id);
        let out = march(&p, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
        assert_eq!(out.metrics.global_connectivity, 1, "scenario {id}");
        for q in &out.final_positions {
            assert!(!p.m2.in_hole(*q), "scenario {id}: robot in hole at {q}");
        }
        assert!(
            out.metrics.stable_link_ratio > 0.7,
            "scenario {id}: L = {}",
            out.metrics.stable_link_ratio
        );
    }
}

#[test]
fn hole_to_hole_scenarios_work() {
    for id in [6u8, 7] {
        let p = problem(id);
        let cfg = MarchConfig::default();
        let a = march(&p, Method::MaxStableLinks, &cfg).unwrap();
        let hu = hungarian_direct(&p, &cfg).unwrap();
        assert_eq!(a.metrics.global_connectivity, 1, "scenario {id}");
        // Ours beats the Hungarian baseline on link preservation by a
        // wide margin in the hardest scenarios.
        assert!(
            a.metrics.stable_link_ratio > 2.0 * hu.metrics.stable_link_ratio,
            "scenario {id}: L(a) = {} vs L(hung) = {}",
            a.metrics.stable_link_ratio,
            hu.metrics.stable_link_ratio
        );
    }
}

#[test]
fn timeline_is_consistent() {
    let p = problem(2);
    let out = march(&p, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
    // Starts at the initial deployment, ends at the final positions.
    assert_eq!(out.timeline[0], p.positions);
    let last = out.timeline.last().unwrap();
    for (a, b) in last.iter().zip(&out.final_positions) {
        assert!(a.distance(*b) < 1e-9);
    }
    // The count that builds no row matches the rows built.
    assert_eq!(out.timeline.iter().count(), out.timeline.len());
    // Total distance at least the straight-line lower bound.
    let lower: f64 = p
        .positions
        .iter()
        .zip(&out.final_positions)
        .map(|(a, b)| a.distance(*b))
        .sum();
    assert!(out.metrics.total_distance >= lower - 1e-6);
}

#[test]
fn baselines_share_final_coverage_positions() {
    let p = problem(1);
    let cfg = MarchConfig::default();
    let dt = direct_translation(&p, &cfg).unwrap();
    let hu = hungarian_direct(&p, &cfg).unwrap();
    let key = |pts: &[anr_marching::geom::Point]| {
        let mut v: Vec<(i64, i64)> = pts
            .iter()
            .map(|q| ((q.x * 10.0).round() as i64, (q.y * 10.0).round() as i64))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(key(&dt.final_positions), key(&hu.final_positions));
}

#[test]
fn separation_sweep_converges_to_hungarian() {
    // Fig. 3 row 4: as the FoI separation grows, every method's D
    // converges to the Hungarian optimum.
    let cfg = MarchConfig::default();
    let mut ratios = Vec::new();
    for sep in [10.0, 40.0, 100.0] {
        let s = build_scenario(
            1,
            &ScenarioParams {
                separation_ranges: sep,
                ..Default::default()
            },
        )
        .unwrap();
        let p = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range).unwrap();
        let a = march(&p, Method::MaxStableLinks, &cfg).unwrap();
        let hu = hungarian_direct(&p, &cfg).unwrap();
        ratios.push(a.metrics.total_distance / hu.metrics.total_distance);
    }
    assert!(
        ratios[2] < ratios[0],
        "D(ours)/D(hungarian) should shrink with separation: {ratios:?}"
    );
    assert!(
        ratios[2] < 1.05,
        "at 100× separation the ratio is ~1: {ratios:?}"
    );
}

#[test]
fn connectivity_lost_debug_names_the_metrics_not_the_outcome() {
    // Scenario 3 at separation 50 loses connectivity under method (b).
    let s = build_scenario(
        3,
        &ScenarioParams {
            separation_ranges: 50.0,
            ..Default::default()
        },
    )
    .unwrap();
    let p = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range).unwrap();
    let err = march(&p, Method::MinMovingDistance, &MarchConfig::default()).unwrap_err();
    let MarchError::ConnectivityLost(outcome) = &err else {
        panic!("expected ConnectivityLost, got {err}");
    };
    let intervals = &outcome.metrics.disconnected_intervals;
    assert!(!intervals.is_empty());
    let text = format!("{err:?}");
    assert!(text.len() < 1024, "{} bytes: {text}", text.len());
    assert!(text.starts_with("ConnectivityLost"), "{text}");
    assert!(text.contains(&format!("{intervals:?}")), "{text}");
    assert!(
        text.contains(&format!("violations: {}", outcome.metrics.violations.len())),
        "{text}"
    );
}
