//! The robust protocols converge to their reliable-network references
//! under loss, delay, duplication and churn, and every run is a pure
//! function of its inputs.

use anr_distsim::{DelayModel, FaultPlan};
use anr_eventsim::{
    run_event_boundary_loop_accounted, run_event_flood_sum_accounted, run_event_hop_field_accounted,
};
use anr_geom::Point;
use anr_netgraph::protocols::{run_boundary_loop, run_flood_sum, run_hop_field};
use anr_netgraph::robust::RetransmitConfig;
use anr_netgraph::UnitDiskGraph;

fn lattice(cols: usize, rows: usize, pitch: f64) -> Vec<Point> {
    (0..cols * rows)
        .map(|i| Point::new((i % cols) as f64 * pitch, (i / cols) as f64 * pitch))
        .collect()
}

fn grid_graph(cols: usize, rows: usize) -> UnitDiskGraph {
    UnitDiskGraph::new(&lattice(cols, rows, 60.0), 80.0)
}

fn nasty_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed)
        .with_loss(0.3)
        .with_delay(DelayModel::Uniform { min: 0, max: 2 })
        .with_duplication(0.1)
}

#[test]
fn robust_flood_matches_reference_on_reliable_network() {
    let g = grid_graph(4, 3);
    let values: Vec<f64> = (0..12).map(|i| i as f64).collect();
    let reference = run_flood_sum(&values, g.adjacency()).unwrap();
    let (robust, _) = run_event_flood_sum_accounted(
        &values,
        g.adjacency(),
        FaultPlan::reliable(0),
        RetransmitConfig::default(),
        400,
    )
    .unwrap();
    assert_eq!(robust.results, reference);
}

#[test]
fn robust_flood_survives_loss_delay_duplication() {
    let g = grid_graph(4, 3);
    let values: Vec<f64> = (0..12).map(|i| (i * i) as f64).collect();
    let reference = run_flood_sum(&values, g.adjacency()).unwrap();
    for seed in [1, 2, 3] {
        let (robust, _) = run_event_flood_sum_accounted(
            &values,
            g.adjacency(),
            nasty_plan(seed),
            RetransmitConfig::default(),
            2000,
        )
        .unwrap();
        assert_eq!(robust.results, reference, "seed {seed}");
        assert!(robust.stats.dropped_loss > 0, "plan actually dropped");
    }
}

#[test]
fn robust_flood_overhead_is_positive_under_loss() {
    let g = grid_graph(4, 3);
    let values = vec![1.0; 12];
    let cfg = RetransmitConfig::default();
    let (reliable, _) =
        run_event_flood_sum_accounted(&values, g.adjacency(), FaultPlan::reliable(0), cfg, 400)
            .unwrap();
    let (lossy, _) =
        run_event_flood_sum_accounted(&values, g.adjacency(), nasty_plan(7), cfg, 2000).unwrap();
    assert!(
        lossy.stats.sent > reliable.stats.sent,
        "retransmissions cost messages: {} vs {}",
        lossy.stats.sent,
        reliable.stats.sent
    );
    assert!(lossy.stats.rounds >= reliable.stats.rounds);
}

#[test]
fn robust_hop_field_matches_centralized_bfs_under_faults() {
    let g = grid_graph(4, 4);
    let sources: Vec<bool> = (0..16).map(|i| i == 0 || i == 15).collect();
    let expect = g.multi_source_hops(&[0, 15]);
    assert_eq!(run_hop_field(&sources, g.adjacency()).unwrap(), expect);
    for seed in [4, 5, 6] {
        let (robust, _) = run_event_hop_field_accounted(
            &sources,
            g.adjacency(),
            nasty_plan(seed),
            RetransmitConfig::default(),
            2000,
        )
        .unwrap();
        assert_eq!(robust.results, expect, "seed {seed}");
    }
}

#[test]
fn robust_hop_field_sees_crash_as_isolation() {
    // Path 0-1-2-3; source at 0; robot 1 crashes immediately: 2 and 3
    // can never hear from the source.
    let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
    let sources = vec![true, false, false, false];
    let plan = FaultPlan::reliable(0).with_crash(0, 1);
    let (robust, _) =
        run_event_hop_field_accounted(&sources, &adj, plan, RetransmitConfig::default(), 500)
            .unwrap();
    assert_eq!(robust.results[0], Some(0));
    assert_eq!(robust.results[2], None, "cut off by the crash");
    assert_eq!(robust.results[3], None);
}

#[test]
fn robust_boundary_loop_matches_reference() {
    let ids = vec![12, 5, 40, 3, 9, 77, 21];
    let reference = run_boundary_loop(&ids).unwrap();
    let (robust, _) = run_event_boundary_loop_accounted(
        &ids,
        FaultPlan::reliable(0),
        RetransmitConfig::default(),
        800,
    )
    .unwrap();
    assert_eq!(robust.results, reference);
}

#[test]
fn robust_boundary_loop_survives_loss() {
    let ids: Vec<usize> = (0..10).map(|i| (i * 7 + 3) % 101).collect();
    let reference = run_boundary_loop(&ids).unwrap();
    for seed in [8, 9] {
        let (robust, _) = run_event_boundary_loop_accounted(
            &ids,
            FaultPlan::reliable(seed).with_loss(0.25),
            RetransmitConfig::default(),
            4000,
        )
        .unwrap();
        assert_eq!(robust.results, reference, "seed {seed}");
        assert!(robust.stats.dropped_loss > 0);
    }
}

#[test]
fn robust_runs_are_deterministic() {
    let g = grid_graph(3, 3);
    let values: Vec<f64> = (0..9).map(|i| i as f64 * 0.5).collect();
    let run = || {
        run_event_flood_sum_accounted(
            &values,
            g.adjacency(),
            nasty_plan(42),
            RetransmitConfig::default(),
            2000,
        )
        .unwrap()
    };
    assert_eq!(run(), run());
}
