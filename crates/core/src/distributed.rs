//! Distributed evaluation of the rotation-search objectives
//! (paper Sec. III-B and III-D-2).
//!
//! During the rotation search "the mobile robot computes its mapped
//! position in M2 and exchanges the position with its one-range
//! neighbors. After calculating its own stable link ratio, the mobile
//! robot then floods the information to other mobile robots." This
//! module runs exactly that protocol on the message-passing engine:
//! one target-exchange round, a local count, then a network-wide flood —
//! so every robot ends up knowing the *global* stable link ratio (or
//! total moving distance for method (b)) of the candidate rotation.
//!
//! The pipeline itself uses the centralized evaluation (identical by
//! construction, verified in tests); this protocol documents — with
//! round and message accounting — what the swarm would actually run.

use crate::MetricsError;
use anr_distsim::{
    Envelope, EventSim, ExplicitTopology, FaultPlan, FaultStats, Node, Outbox, SimError,
};
use anr_geom::Point;
use anr_netgraph::UnitDiskGraph;
use std::error::Error;
use std::fmt;

/// Message of the objective-evaluation protocol.
///
/// Counter fields ride the wire as `u32`: ids, preserved-link counts,
/// and degrees are all bounded by the robot count (n < 2^32 everywhere
/// in this repo), and fixed-width payloads are what keeps the protocol
/// inside its CONGEST bit budget (`lint.models.toml`, rule M1).
#[derive(Debug, Clone, PartialEq)]
enum ObjectiveMsg {
    /// Round 0: my mapped target position.
    Target(Point),
    /// Flood: (robot id, locally preserved incident links, degree,
    /// my moving distance).
    Local {
        id: u32,
        preserved: u32,
        degree: u32,
        distance: f64,
    },
}

#[derive(Debug, Clone)]
struct ObjectiveNode {
    id: usize,
    n: usize,
    position: Point,
    target: Point,
    range: f64,
    /// Neighbor targets learned in round 0: (id, target).
    neighbor_targets: Vec<(usize, Point)>,
    counted: bool,
    /// Which robots' local reports this robot has seen.
    seen: Vec<bool>,
    total_preserved: usize,
    total_degree: usize,
    total_distance: f64,
}

impl Node for ObjectiveNode {
    type Msg = ObjectiveMsg;

    fn on_start(&mut self, out: &mut Outbox<ObjectiveMsg>) {
        out.broadcast(ObjectiveMsg::Target(self.target));
    }

    fn on_round(
        &mut self,
        _round: usize,
        inbox: &[Envelope<ObjectiveMsg>],
        out: &mut Outbox<ObjectiveMsg>,
    ) {
        for env in inbox {
            match env.msg {
                ObjectiveMsg::Target(t) => self.neighbor_targets.push((env.from, t)),
                ObjectiveMsg::Local {
                    id,
                    preserved,
                    degree,
                    distance,
                } => {
                    if !self.seen[id as usize] {
                        self.seen[id as usize] = true;
                        self.total_preserved += preserved as usize;
                        self.total_degree += degree as usize;
                        self.total_distance += distance;
                        out.broadcast(ObjectiveMsg::Local {
                            id,
                            preserved,
                            degree,
                            distance,
                        });
                    }
                }
            }
        }
        if !self.counted && !self.neighbor_targets.is_empty() {
            self.counted = true;
            // For synchronized straight-line motion, a link survives iff
            // it holds at both endpoints; the start holds by definition.
            let preserved = self
                .neighbor_targets
                .iter()
                .filter(|&&(_, t)| self.target.distance(t) <= self.range)
                .count();
            let degree = self.neighbor_targets.len();
            let distance = self.position.distance(self.target);
            self.seen[self.id] = true;
            self.total_preserved += preserved;
            self.total_degree += degree;
            self.total_distance += distance;
            out.broadcast(ObjectiveMsg::Local {
                id: self.id as u32,
                preserved: preserved as u32,
                degree: degree as u32,
                distance,
            });
        }
        let _ = self.n;
    }

    /// Purely message-driven: the local count happens in the round the
    /// first targets arrive, so an empty inbox changes nothing.
    fn idle(&self) -> bool {
        true
    }
}

/// Outcome of the objective protocol.
///
/// The paper's protocol assumes reliable synchronous delivery, and on a
/// [`FaultPlan::reliable`] network every robot computes the same totals.
/// `agreement` is that implicit correctness condition — every live
/// robot computed the same global totals — and is reported, not
/// asserted: under loss the flood can quiesce with robots missing
/// reports, which is precisely the failure mode the robust wrappers in
/// [`anr_netgraph::robust`] exist to fix.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveOutcome {
    /// Did every live robot compute identical totals?
    pub agreement: bool,
    /// The total stable link ratio `L` of the first live robot (the
    /// agreed value when `agreement` holds).
    pub stable_link_ratio: f64,
    /// The first live robot's total moving distance `D` (straight-line
    /// leg only, as used by method (b)'s search).
    pub total_distance: f64,
    /// Engine accounting: rounds used, messages sent, and what the
    /// faults did to them.
    pub stats: FaultStats,
}

/// Error of the objective protocol: either the engine rejected the run,
/// or the inputs or outcome were unusable for metrics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ObjectiveError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// The inputs or outcome were unusable (mismatched lengths,
    /// non-positive range, or every robot crashed).
    Metrics(MetricsError),
}

impl fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveError::Sim(e) => write!(f, "objective simulation: {e}"),
            ObjectiveError::Metrics(e) => write!(f, "objective inputs: {e}"),
        }
    }
}

impl Error for ObjectiveError {}

impl From<SimError> for ObjectiveError {
    fn from(e: SimError) -> Self {
        ObjectiveError::Sim(e)
    }
}

impl From<MetricsError> for ObjectiveError {
    fn from(e: MetricsError) -> Self {
        ObjectiveError::Metrics(e)
    }
}

/// Runs the (ack-free) objective-evaluation protocol for one candidate
/// rotation under `plan`: `targets[i]` is robot `i`'s mapped
/// destination. Pass [`FaultPlan::reliable`] for the paper's network.
///
/// # Errors
///
/// Propagates engine errors, including [`SimError::NotQuiescent`]
/// when messages are still in flight after `4 n + 16` rounds, and
/// returns a typed [`MetricsError`] for mismatched input lengths, a
/// non-positive range, or a run that left no robot alive.
pub fn distributed_objective(
    positions: &[Point],
    targets: &[Point],
    range: f64,
    plan: FaultPlan,
) -> Result<ObjectiveOutcome, ObjectiveError> {
    if positions.len() != targets.len() {
        return Err(MetricsError::LengthMismatch {
            expected: positions.len(),
            got: targets.len(),
        }
        .into());
    }
    if range.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MetricsError::NonPositiveRange { range }.into());
    }
    let n = positions.len();
    let graph = UnitDiskGraph::new(positions, range);

    let nodes: Vec<ObjectiveNode> = (0..n)
        .map(|id| ObjectiveNode {
            id,
            n,
            position: positions[id],
            target: targets[id],
            range,
            neighbor_targets: Vec::new(),
            counted: false,
            seen: vec![false; n],
            total_preserved: 0,
            total_degree: 0,
            total_distance: 0.0,
        })
        .collect();
    let topology = ExplicitTopology::new(graph.adjacency().to_vec())?;
    let mut sim = EventSim::new(nodes, topology, plan)?;
    let stats = sim.run_until_quiet(4 * n + 16)?;

    let live: Vec<usize> = (0..n).filter(|&i| !sim.is_crashed(i)).collect();
    let nodes = sim.nodes();
    // The flood initiator is normally alive, but a plan can crash every
    // robot — surface that as a typed error instead of indexing.
    let Some(&first_live) = live.first() else {
        return Err(MetricsError::NoLiveRobots.into());
    };
    let first = &nodes[first_live];
    let agreement = live.iter().all(|&i| {
        nodes[i].total_preserved == first.total_preserved
            && nodes[i].total_degree == first.total_degree
            && (nodes[i].total_distance - first.total_distance).abs() < 1e-9
    });
    let ratio = if first.total_degree == 0 {
        1.0
    } else {
        first.total_preserved as f64 / first.total_degree as f64
    };
    Ok(ObjectiveOutcome {
        agreement,
        stable_link_ratio: ratio,
        total_distance: first.total_distance,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn lattice(rows: usize, cols: usize, s: f64) -> Vec<Point> {
        let mut pts = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let x = c as f64 * s + if r % 2 == 1 { s / 2.0 } else { 0.0 };
                pts.push(p(x, r as f64 * s * 3f64.sqrt() / 2.0));
            }
        }
        pts
    }

    /// Centralized reference: Definition 1's L from endpoints.
    fn central_ratio(positions: &[Point], targets: &[Point], range: f64) -> f64 {
        let g = UnitDiskGraph::new(positions, range);
        let links = g.links();
        if links.is_empty() {
            return 1.0;
        }
        links
            .iter()
            .filter(|&&(i, j)| targets[i].distance(targets[j]) <= range)
            .count() as f64
            / links.len() as f64
    }

    /// The protocol on the paper's reliable network, where every robot
    /// must agree.
    fn reliable(positions: &[Point], targets: &[Point]) -> ObjectiveOutcome {
        let out = distributed_objective(positions, targets, 80.0, FaultPlan::reliable(0)).unwrap();
        assert!(out.agreement, "reliable network disagreement");
        out
    }

    #[test]
    fn matches_centralized_on_rigid_translation() {
        let positions = lattice(4, 5, 60.0);
        let targets: Vec<Point> = positions.iter().map(|q| p(q.x + 700.0, q.y)).collect();
        let obj = reliable(&positions, &targets);
        assert_eq!(obj.stable_link_ratio, 1.0);
        assert_eq!(
            obj.stable_link_ratio,
            central_ratio(&positions, &targets, 80.0)
        );
        let expect_d: f64 = positions
            .iter()
            .zip(&targets)
            .map(|(a, b)| a.distance(*b))
            .sum();
        assert!((obj.total_distance - expect_d).abs() < 1e-9);
    }

    #[test]
    fn matches_centralized_on_scrambled_targets() {
        let positions = lattice(4, 5, 60.0);
        // Scramble the assignment with a deterministic non-isometric
        // permutation (stride map): massive link breakage.
        let n = positions.len();
        let targets: Vec<Point> = (0..n)
            .map(|i| {
                let q = positions[(i * 7) % n];
                p(q.x + 700.0, q.y + 100.0)
            })
            .collect();
        let obj = reliable(&positions, &targets);
        let central = central_ratio(&positions, &targets, 80.0);
        assert!(
            (obj.stable_link_ratio - central).abs() < 1e-12,
            "distributed {} vs centralized {central}",
            obj.stable_link_ratio
        );
        assert!(obj.stable_link_ratio < 1.0);
    }

    #[test]
    fn message_accounting_reported() {
        let positions = lattice(3, 3, 60.0);
        let targets: Vec<Point> = positions.iter().map(|q| p(q.x + 500.0, q.y)).collect();
        let obj = reliable(&positions, &targets);
        // At least one target broadcast and one flood per robot, all
        // delivered on the reliable network.
        assert!(obj.stats.sent >= 2 * positions.len());
        assert_eq!(obj.stats.delivered, obj.stats.sent);
        assert!(obj.stats.rounds >= 2);
    }

    #[test]
    fn heavy_loss_breaks_the_idealized_protocol() {
        // The ack-free protocol has no defense against loss: some seed
        // in this range must leave the swarm in disagreement.
        let positions = lattice(3, 4, 60.0);
        let targets: Vec<Point> = positions.iter().map(|q| p(q.x + 700.0, q.y)).collect();
        let broke = (0..20).any(|seed| {
            let plan = FaultPlan::reliable(seed).with_loss(0.5);
            match distributed_objective(&positions, &targets, 80.0, plan) {
                Ok(out) => !out.agreement,
                // Never quiescing also counts as broken.
                Err(ObjectiveError::Sim(SimError::NotQuiescent { .. })) => true,
                Err(e) => panic!("unexpected error: {e}"),
            }
        });
        assert!(broke, "50% loss should break agreement for some seed");
    }

    #[test]
    fn crashed_robots_excluded_from_agreement() {
        let positions = lattice(3, 4, 60.0);
        let targets: Vec<Point> = positions.iter().map(|q| p(q.x + 700.0, q.y)).collect();
        // Crash a corner robot before the protocol starts: the rest
        // still agree (on totals that exclude the crashed robot).
        let plan = FaultPlan::reliable(0).with_crash(0, 11);
        let out = distributed_objective(&positions, &targets, 80.0, plan).unwrap();
        assert!(out.agreement, "live robots agree among themselves");
        assert!(out.stats.dropped_crash > 0);
        let ideal = reliable(&positions, &targets);
        assert!(
            out.total_distance < ideal.total_distance,
            "crashed robot's leg is missing from the total"
        );
    }

    #[test]
    fn all_robots_crashed_is_a_typed_error() {
        let positions = lattice(2, 2, 60.0);
        let targets: Vec<Point> = positions.iter().map(|q| p(q.x + 500.0, q.y)).collect();
        let mut plan = FaultPlan::reliable(0);
        for robot in 0..positions.len() {
            plan = plan.with_crash(0, robot);
        }
        assert!(matches!(
            distributed_objective(&positions, &targets, 80.0, plan),
            Err(ObjectiveError::Metrics(MetricsError::NoLiveRobots))
        ));
    }

    #[test]
    fn bad_audit_inputs_are_typed_errors() {
        let positions = lattice(2, 2, 60.0);
        let targets = positions[..2].to_vec();
        assert!(matches!(
            distributed_objective(&positions, &targets, 80.0, FaultPlan::reliable(0)),
            Err(ObjectiveError::Metrics(MetricsError::LengthMismatch { .. }))
        ));
        for range in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                distributed_objective(&positions, &positions, range, FaultPlan::reliable(0)),
                Err(ObjectiveError::Metrics(
                    MetricsError::NonPositiveRange { .. }
                ))
            ));
        }
    }

    #[test]
    fn agrees_for_every_rotation_candidate() {
        // Evaluate several candidate rotations of the target pattern and
        // check distributed = centralized for each.
        let positions = lattice(3, 4, 60.0);
        let centroid = Point::centroid_of(positions.iter().copied()).unwrap();
        for k in 0..6 {
            let theta = std::f64::consts::TAU * k as f64 / 6.0;
            let rot = anr_geom::Rotation::about(centroid, theta);
            let targets: Vec<Point> = positions
                .iter()
                .map(|&q| {
                    let r = rot.apply(q);
                    p(r.x + 900.0, r.y)
                })
                .collect();
            let obj = reliable(&positions, &targets);
            let central = central_ratio(&positions, &targets, 80.0);
            assert!(
                (obj.stable_link_ratio - central).abs() < 1e-12,
                "θ = {theta}"
            );
        }
    }
}
