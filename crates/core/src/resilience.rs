//! Deployment resilience: how much robot failure a network tolerates.
//!
//! The paper motivates ANR systems with fault tolerance — "the failure
//! of an individual robot can be recovered by its peers" (Sec. I) — and
//! keeps the swarm connected so no robot is "excluded from the new plan
//! and thus become permanently lost". This module quantifies the margin:
//! articulation robots (single points of failure), biconnectivity, and
//! an explicit failure-injection check.

use crate::faultsweep::{run_fault_sweep, ProtocolGrid, SweepConfig};
use anr_distsim::SimError;
use anr_geom::Point;
use anr_netgraph::{
    articulation_points, is_biconnected, vertex_connectivity_estimate, UnitDiskGraph,
};

/// Robustness summary of one deployment snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Is the network connected at all?
    pub connected: bool,
    /// Robots whose single failure would split the network.
    pub articulation_robots: Vec<usize>,
    /// Does the network survive any single robot failure?
    pub biconnected: bool,
    /// Lower-bound estimate of the vertex connectivity.
    pub vertex_connectivity: usize,
    /// Minimum robot degree.
    pub min_degree: usize,
    /// Protocol-level survival: rounds-to-quiescence and message
    /// overhead of the robust marching protocols as functions of loss
    /// rate and crash count. Empty unless the report was built with
    /// [`with_protocol_survival`](Self::with_protocol_survival).
    pub protocol_survival: Vec<ProtocolGrid>,
}

impl ResilienceReport {
    /// Analyzes a deployment with communication range `range`.
    ///
    /// The structural metrics only; [`Self::protocol_survival`] stays
    /// empty. Use
    /// [`with_protocol_survival`](Self::with_protocol_survival) to also
    /// run the fault sweep.
    ///
    /// # Panics
    ///
    /// Panics when `range <= 0`.
    pub fn of(positions: &[Point], range: f64) -> ResilienceReport {
        let g = UnitDiskGraph::new(positions, range);
        ResilienceReport {
            connected: g.is_connected(),
            articulation_robots: articulation_points(&g),
            biconnected: is_biconnected(&g),
            vertex_connectivity: vertex_connectivity_estimate(&g),
            min_degree: (0..g.len()).map(|v| g.degree(v)).min().unwrap_or(0),
            protocol_survival: Vec::new(),
        }
    }

    /// Like [`of`](Self::of), but additionally runs the fault sweep of
    /// [`run_fault_sweep`](crate::run_fault_sweep) and attaches the
    /// resulting per-protocol survival grids.
    ///
    /// # Errors
    ///
    /// Engine/plan errors from the sweep.
    ///
    /// # Panics
    ///
    /// Panics when `range <= 0` or `positions.len() < 2`.
    pub fn with_protocol_survival(
        positions: &[Point],
        range: f64,
        config: &SweepConfig,
    ) -> Result<ResilienceReport, SimError> {
        let mut report = Self::of(positions, range);
        report.protocol_survival = run_fault_sweep(positions, range, config)?.protocols;
        Ok(report)
    }
}

/// Removes the given robots from a deployment and reports whether the
/// survivors remain connected — direct failure injection against
/// Definition 2's motivation.
///
/// Robots listed in `failed` are excluded; duplicate or out-of-range
/// indices are ignored. A network with fewer than two survivors counts
/// as connected.
///
/// # Panics
///
/// Panics when `range <= 0`.
pub fn survives_failures(positions: &[Point], range: f64, failed: &[usize]) -> bool {
    let survivors: Vec<Point> = positions
        .iter()
        .enumerate()
        .filter(|(i, _)| !failed.contains(i))
        .map(|(_, &p)| p)
        .collect();
    UnitDiskGraph::connected(&survivors, range)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn line(n: usize) -> Vec<Point> {
        (0..n).map(|i| p(i as f64 * 60.0, 0.0)).collect()
    }

    #[test]
    fn line_deployment_is_fragile() {
        let report = ResilienceReport::of(&line(5), 80.0);
        assert!(report.connected);
        assert!(!report.biconnected);
        assert_eq!(report.articulation_robots, vec![1, 2, 3]);
        assert_eq!(report.vertex_connectivity, 1);
        assert_eq!(report.min_degree, 1);
    }

    #[test]
    fn lattice_deployment_is_robust() {
        let mut pts = Vec::new();
        for r in 0..4 {
            for c in 0..5 {
                let x = c as f64 * 55.0 + if r % 2 == 1 { 27.5 } else { 0.0 };
                let y = r as f64 * 48.0;
                pts.push(p(x, y));
            }
        }
        let report = ResilienceReport::of(&pts, 80.0);
        assert!(report.biconnected);
        assert!(report.articulation_robots.is_empty());
        assert!(report.vertex_connectivity >= 2);
    }

    #[test]
    fn failure_injection_on_line() {
        let pts = line(5);
        // Killing an endpoint keeps the rest connected.
        assert!(survives_failures(&pts, 80.0, &[0]));
        assert!(survives_failures(&pts, 80.0, &[4]));
        // Killing an interior robot splits the chain.
        assert!(!survives_failures(&pts, 80.0, &[2]));
        // Killing all but one survivor is trivially fine.
        assert!(survives_failures(&pts, 80.0, &[0, 1, 2, 3]));
    }

    #[test]
    fn failure_injection_matches_articulation_points() {
        let mut pts = Vec::new();
        for r in 0..3 {
            for c in 0..4 {
                let x = c as f64 * 55.0 + if r % 2 == 1 { 27.5 } else { 0.0 };
                let y = r as f64 * 48.0;
                pts.push(p(x, y));
            }
        }
        let report = ResilienceReport::of(&pts, 80.0);
        for v in 0..pts.len() {
            let survives = survives_failures(&pts, 80.0, &[v]);
            let is_cut = report.articulation_robots.contains(&v);
            assert_eq!(survives, !is_cut, "robot {v}");
        }
    }

    #[test]
    fn bad_indices_ignored() {
        let pts = line(3);
        assert!(survives_failures(&pts, 80.0, &[99, 99]));
    }

    #[test]
    fn protocol_survival_attaches_grids() {
        let mut pts = Vec::new();
        for r in 0..3 {
            for c in 0..4 {
                let x = c as f64 * 55.0 + if r % 2 == 1 { 27.5 } else { 0.0 };
                pts.push(p(x, r as f64 * 48.0));
            }
        }
        let config = SweepConfig {
            loss_rates: vec![0.0, 0.1],
            crash_counts: vec![0],
            seed: 3,
            ..Default::default()
        };
        let report = ResilienceReport::with_protocol_survival(&pts, 80.0, &config).unwrap();
        // Structural metrics unchanged by the sweep.
        assert_eq!(
            ResilienceReport {
                protocol_survival: Vec::new(),
                ..report.clone()
            },
            ResilienceReport::of(&pts, 80.0)
        );
        assert_eq!(report.protocol_survival.len(), 2);
        for grid in &report.protocol_survival {
            assert_eq!(grid.cells.len(), 2);
            assert!(grid.cells.iter().all(|c| c.converged && c.correct));
            // Loss costs messages relative to the zero-fault baseline.
            let lossy = grid.cells.iter().find(|c| c.loss_permille == 100).unwrap();
            assert!(lossy.overhead_permille >= 1000);
        }
    }
}
