//! Fully distributed harmonic map (paper Sec. III-B).
//!
//! The paper's robots compute the harmonic map themselves: the boundary
//! loop is sized by a hop-counting token, boundary robots place
//! themselves uniformly on the unit circle, and every inner robot
//! repeatedly moves its *virtual* disk position to the average of its
//! neighbors' positions — a Jacobi iteration realized purely with
//! one-hop messages. This module runs that protocol on the message-passing
//! engine over a reliable network and is cross-checked in tests against the
//! centralized map ([`crate::harmonic_map_to_disk`]), which solves the same
//! uniform-weight system by PCG.

use crate::{DiskMap, HarmonicError};
use anr_distsim::{Envelope, EventSim, ExplicitTopology, FaultPlan, Node, Outbox, SimError};
use anr_geom::Point;
use anr_mesh::TriMesh;
use std::f64::consts::TAU;

/// One robot's state in the distributed harmonic-map protocol.
#[derive(Debug, Clone)]
struct HarmonicNode {
    /// Current virtual disk position.
    position: Point,
    /// Fixed boundary vertex?
    fixed: bool,
    /// Latest known neighbor positions (by neighbor id).
    neighbor_positions: Vec<(usize, Point)>,
    /// Stop re-broadcasting once the local update is below this.
    tolerance: f64,
}

impl Node for HarmonicNode {
    type Msg = Point;

    fn on_start(&mut self, out: &mut Outbox<Point>) {
        out.broadcast(self.position);
    }

    fn on_round(&mut self, _round: usize, inbox: &[Envelope<Point>], out: &mut Outbox<Point>) {
        for env in inbox {
            match self
                .neighbor_positions
                .iter_mut()
                .find(|(id, _)| *id == env.from)
            {
                Some((_, p)) => *p = env.msg,
                None => self.neighbor_positions.push((env.from, env.msg)),
            }
        }
        if self.fixed || self.neighbor_positions.is_empty() {
            return;
        }
        let mut sx = 0.0;
        let mut sy = 0.0;
        for &(_, p) in &self.neighbor_positions {
            sx += p.x;
            sy += p.y;
        }
        let n = self.neighbor_positions.len() as f64;
        let next = Point::new(sx / n, sy / n);
        let moved = next.distance(self.position);
        self.position = next;
        // Quiescence by local convergence: keep gossiping while moving.
        if moved > self.tolerance {
            out.broadcast(self.position);
        }
    }

    /// An empty inbox re-averages the same neighbor positions, so the
    /// node moves by 0 and gossips only if 0 exceeds its tolerance.
    fn idle(&self) -> bool {
        self.fixed
            || self.neighbor_positions.is_empty()
            || self.tolerance >= 0.0
            || self.tolerance.is_nan()
    }
}

/// Configuration of the distributed harmonic protocol.
#[derive(Debug, Clone, Copy)]
pub struct DistributedHarmonicConfig {
    /// A node stops re-broadcasting when its per-round move drops below
    /// this (unit-disk units). Default `1e-7`.
    pub local_tolerance: f64,
    /// Round budget. Jacobi converges linearly; the default (200 000) is
    /// generous for meshes of a few hundred vertices.
    pub max_rounds: usize,
}

impl Default for DistributedHarmonicConfig {
    fn default() -> Self {
        DistributedHarmonicConfig {
            local_tolerance: 1e-7,
            max_rounds: 200_000,
        }
    }
}

/// Outcome of the distributed protocol: the disk map plus the message
/// accounting that a real deployment would pay.
#[derive(Debug, Clone)]
pub struct DistributedHarmonicOutcome {
    /// Disk position per vertex.
    pub map: DiskMap,
    /// Synchronous rounds executed.
    pub rounds: usize,
    /// Total point messages delivered.
    pub messages: usize,
}

/// Runs the distributed harmonic map of `mesh` (a topological disk) to
/// the unit circle, using only one-hop messages.
///
/// Boundary placement follows the paper's protocol: the smallest-index
/// boundary vertex is the loop origin and boundary vertices sit
/// uniformly by hop count. Inner vertices start at the disk center and
/// run the gossip-averaging protocol until every robot's update falls
/// under `config.local_tolerance`.
///
/// # Errors
///
/// * [`HarmonicError::NotADisk`] / [`HarmonicError::NoBoundary`] /
///   [`HarmonicError::TooSmall`] — wrong topology (fill holes first).
/// * [`HarmonicError::NotConverged`] — round budget exhausted (reported
///   with the executed round count).
/// * [`HarmonicError::BadTopology`] — the engine rejected the
///   adjacency rebuilt from the mesh (a violated mesh invariant).
pub fn distributed_harmonic_map(
    mesh: &TriMesh,
    config: &DistributedHarmonicConfig,
) -> Result<DistributedHarmonicOutcome, HarmonicError> {
    if mesh.num_triangles() == 0 {
        return Err(HarmonicError::TooSmall);
    }
    let loops = mesh.boundary_loops();
    if loops.is_empty() {
        return Err(HarmonicError::NoBoundary);
    }
    if loops.len() != 1 {
        return Err(HarmonicError::NotADisk { loops: loops.len() });
    }
    let Some(mut boundary) = loops.into_iter().next() else {
        return Err(HarmonicError::NoBoundary);
    };
    if boundary.len() < 3 {
        return Err(HarmonicError::TooSmall);
    }
    let start = boundary
        .iter()
        .enumerate()
        .min_by_key(|&(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    boundary.rotate_left(start);

    let n = mesh.num_vertices();
    let mut fixed = vec![false; n];
    let mut init = vec![Point::ORIGIN; n];
    let len = boundary.len() as f64;
    for (k, &v) in boundary.iter().enumerate() {
        let theta = TAU * k as f64 / len;
        fixed[v] = true;
        init[v] = Point::new(theta.cos(), theta.sin());
    }

    let nodes: Vec<HarmonicNode> = (0..n)
        .map(|v| HarmonicNode {
            position: init[v],
            fixed: fixed[v],
            neighbor_positions: Vec::new(),
            tolerance: config.local_tolerance,
        })
        .collect();
    let adjacency: Vec<Vec<usize>> = (0..n).map(|v| mesh.vertex_neighbors(v).to_vec()).collect();

    // A `TriMesh` keeps its adjacency symmetric and in range, so these
    // rejections indicate a violated mesh invariant upstream — surface
    // them as a typed error rather than asserting unreachability.
    let topology = ExplicitTopology::new(adjacency).map_err(HarmonicError::BadTopology)?;
    let mut sim = EventSim::new(nodes, topology, FaultPlan::reliable(0))
        .map_err(HarmonicError::BadTopology)?;
    let stats = match sim.run_until_quiet(config.max_rounds) {
        Ok(stats) => stats,
        Err(SimError::NotQuiescent { max_rounds, .. }) => {
            return Err(HarmonicError::NotConverged {
                iterations: max_rounds,
                residual: f64::NAN,
            })
        }
        Err(e) => return Err(HarmonicError::BadTopology(e)),
    };

    let positions: Vec<Point> = sim.into_nodes().into_iter().map(|nd| nd.position).collect();
    Ok(DistributedHarmonicOutcome {
        map: DiskMap::from_parts(positions, boundary, stats.rounds),
        rounds: stats.rounds,
        messages: stats.sent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{harmonic_map_to_disk, HarmonicConfig};
    use anr_mesh::delaunay;
    use anr_trace::Tracer;

    fn grid(n: usize) -> TriMesh {
        let mut pts = Vec::new();
        for j in 0..n {
            for i in 0..n {
                pts.push(Point::new(i as f64 * 10.0, j as f64 * 10.0));
            }
        }
        delaunay(&pts).unwrap()
    }

    #[test]
    fn distributed_matches_centralized() {
        let mesh = grid(6);
        let central =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let dist = distributed_harmonic_map(&mesh, &DistributedHarmonicConfig::default()).unwrap();
        for v in 0..mesh.num_vertices() {
            let d = central.position(v).distance(dist.map.position(v));
            assert!(d < 1e-3, "vertex {v} differs by {d}");
        }
    }

    #[test]
    fn boundary_is_pinned_identically() {
        let mesh = grid(5);
        let central =
            harmonic_map_to_disk(&mesh, &HarmonicConfig::default(), &Tracer::disabled()).unwrap();
        let dist = distributed_harmonic_map(&mesh, &DistributedHarmonicConfig::default()).unwrap();
        assert_eq!(central.boundary(), dist.map.boundary());
        for &v in dist.map.boundary() {
            assert!(dist.map.position(v).distance(central.position(v)) < 1e-12);
        }
    }

    #[test]
    fn message_accounting_is_reported() {
        let mesh = grid(4);
        let out = distributed_harmonic_map(&mesh, &DistributedHarmonicConfig::default()).unwrap();
        assert!(out.rounds > 1);
        assert!(out.messages >= mesh.num_vertices()); // at least the initial gossip
    }

    #[test]
    fn round_budget_enforced() {
        let mesh = grid(6);
        let cfg = DistributedHarmonicConfig {
            local_tolerance: 1e-14,
            max_rounds: 3,
        };
        assert!(matches!(
            distributed_harmonic_map(&mesh, &cfg),
            Err(HarmonicError::NotConverged { iterations: 3, .. })
        ));
    }

    #[test]
    fn embedding_is_valid() {
        let mesh = grid(5);
        let dist = distributed_harmonic_map(&mesh, &DistributedHarmonicConfig::default()).unwrap();
        let dmesh = dist.map.as_disk_mesh(&mesh);
        for t in 0..dmesh.num_triangles() {
            assert!(
                dmesh.triangle(t).signed_area() > 0.0,
                "triangle {t} flipped"
            );
        }
    }
}
