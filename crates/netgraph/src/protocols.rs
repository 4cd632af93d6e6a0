//! Distributed protocols used by the marching pipeline, run on the
//! reliable network of Sec. III (the [`EventSim`] under
//! [`FaultPlan::reliable`]) and each cross-checked against a
//! centralized reference in tests.
//!
//! * [`run_boundary_loop`] — the paper's boundary-sizing token
//!   (Sec. III-B): the boundary vertex with the smallest ID starts a
//!   hop-counting message around the boundary loop; when it returns, the
//!   initiator floods the loop size so every boundary vertex knows both
//!   its position index and the loop length.
//! * [`run_flood_sum`] — network-wide value dissemination ("the mobile robot
//!   then floods the information to other mobile robots"): at
//!   quiescence every robot knows every robot's value, from which global
//!   aggregates (total stable link ratio, total distance) are computed.
//! * [`run_hop_field`] — multi-source BFS hop field (Sec. III-D-1): every
//!   boundary vertex initiates a packet with a zero counter; interior
//!   vertices learn their distance to the nearest boundary vertex, and
//!   vertices that never receive a packet are in an isolated subgroup.

use anr_distsim::{
    Envelope, EventSim, ExplicitTopology, FaultPlan, FaultStats, Node, Outbox, SimError,
};

/// Runs `nodes` over `adjacency` on the reliable network until no
/// message is in flight; returns the final nodes and the accounting.
///
/// # Errors
///
/// Topology validation errors, send-validation errors, and
/// [`SimError::NotQuiescent`] past `max_rounds`.
pub(crate) fn run_reliable<N: Node>(
    nodes: Vec<N>,
    adjacency: Vec<Vec<usize>>,
    max_rounds: usize,
) -> Result<(Vec<N>, FaultStats), SimError> {
    let topology = ExplicitTopology::new(adjacency)?;
    let mut sim = EventSim::new(nodes, topology, FaultPlan::reliable(0))?;
    let stats = sim.run_until_quiet(max_rounds)?;
    Ok((sim.into_nodes(), stats))
}

// ---------------------------------------------------------------------
// Boundary loop sizing
// ---------------------------------------------------------------------

/// Message for the boundary-loop protocol.
///
/// Wire fields are `u32`, not `usize`: vertex IDs and hop counts are
/// bounded by the robot count (n < 2^32 everywhere in this repo), and
/// fixed-width payloads are what keeps the protocol inside its CONGEST
/// bit budget (`lint.models.toml`, rule M1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LoopMsg {
    /// Hop-counting token: (initiator id, hops travelled so far).
    Token {
        /// ID of the initiating boundary vertex.
        initiator: u32,
        /// Hops travelled when this message was sent.
        hops: u32,
    },
    /// Loop size announcement from the initiator.
    Size(u32),
}

/// A vertex on the (directed) boundary loop.
///
/// Construct one node per boundary vertex with its successor in the
/// loop's cyclic order; the topology must contain at least the loop
/// edges. After the run, `index` holds the vertex's position along the
/// loop (initiator = 0) and `loop_size` the total loop length.
#[derive(Debug, Clone)]
pub(crate) struct BoundaryLoopNode {
    /// This node's ID (its index in the simulator).
    pub(crate) id: usize,
    /// Whether this node starts the token (smallest boundary ID).
    pub(crate) is_initiator: bool,
    /// Successor on the boundary loop.
    pub(crate) next: usize,
    /// Learned position along the loop.
    pub(crate) index: Option<usize>,
    /// Learned loop size.
    pub(crate) loop_size: Option<usize>,
}

impl BoundaryLoopNode {
    /// Creates a protocol participant.
    pub(crate) fn new(id: usize, is_initiator: bool, next: usize) -> Self {
        BoundaryLoopNode {
            id,
            is_initiator,
            next,
            index: None,
            loop_size: None,
        }
    }
}

impl Node for BoundaryLoopNode {
    type Msg = LoopMsg;

    fn on_start(&mut self, out: &mut Outbox<LoopMsg>) {
        if self.is_initiator {
            self.index = Some(0);
            out.send(
                self.next,
                LoopMsg::Token {
                    initiator: self.id as u32,
                    hops: 1,
                },
            );
        }
    }

    fn on_round(&mut self, _round: usize, inbox: &[Envelope<LoopMsg>], out: &mut Outbox<LoopMsg>) {
        for env in inbox {
            match env.msg {
                LoopMsg::Token { initiator, hops } => {
                    if initiator as usize == self.id {
                        // Token returned: the loop has `hops` vertices.
                        self.loop_size = Some(hops as usize);
                        out.send(self.next, LoopMsg::Size(hops));
                    } else {
                        self.index = Some(hops as usize);
                        out.send(
                            self.next,
                            LoopMsg::Token {
                                initiator,
                                hops: hops + 1,
                            },
                        );
                    }
                }
                LoopMsg::Size(size) => {
                    if self.loop_size.is_none() {
                        self.loop_size = Some(size as usize);
                        out.send(self.next, LoopMsg::Size(size));
                    }
                }
            }
        }
    }

    /// Purely message-driven: an empty inbox changes nothing.
    fn idle(&self) -> bool {
        true
    }
}

/// Runs the boundary-loop protocol over a cyclic vertex order.
///
/// `loop_order` lists the boundary vertices in cyclic order using
/// *simulator-local* indices `0..loop_order.len()`; entry `i` is the ID
/// used for initiator selection (the smallest ID initiates, matching the
/// paper). Returns `(index_along_loop, loop_size)` per vertex, in
/// `loop_order` order.
///
/// # Errors
///
/// Propagates engine errors; returns [`SimError::NotQuiescent`] if the
/// token does not return within `4 × loop` rounds (malformed loop).
pub fn run_boundary_loop(ids: &[usize]) -> Result<Vec<(usize, usize)>, SimError> {
    let n = ids.len();
    assert!(n >= 3, "a boundary loop needs at least 3 vertices");
    let initiator_pos = ids
        .iter()
        .enumerate()
        .min_by_key(|&(_, &id)| id)
        .map(|(i, _)| i)
        .unwrap_or(0);

    let nodes: Vec<BoundaryLoopNode> = (0..n)
        .map(|i| BoundaryLoopNode::new(i, i == initiator_pos, (i + 1) % n))
        .collect();
    // Ring topology (undirected so the Size message could also go either
    // way; the protocol only uses `next`).
    let adjacency: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect();
    let max_rounds = 4 * n + 8;
    let (nodes, _) = run_reliable(nodes, adjacency, max_rounds)?;
    // Quiescence without every vertex visited means the token died on
    // the ring — surface it as a typed error, not a panic.
    let unvisited: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, nd)| nd.index.is_none() || nd.loop_size.is_none())
        .map(|(i, _)| i)
        .collect();
    if !unvisited.is_empty() {
        return Err(SimError::NotQuiescent {
            max_rounds,
            pending: unvisited,
        });
    }
    Ok(nodes
        .into_iter()
        .map(|nd| (nd.index.unwrap_or(0), nd.loop_size.unwrap_or(0)))
        .collect())
}

// ---------------------------------------------------------------------
// Value flooding
// ---------------------------------------------------------------------

/// Floods `(robot id, value)` pairs until every robot knows every value.
///
/// The paper uses this to aggregate per-robot stable-link ratios and
/// moving distances during the rotation search (Sec. III-B, III-D-2).
#[derive(Debug, Clone)]
pub(crate) struct FloodNode {
    /// This node's ID.
    pub(crate) id: usize,
    /// This node's own value.
    pub(crate) value: f64,
    /// All values learned so far, indexed by robot ID.
    pub(crate) known: Vec<Option<f64>>,
}

impl FloodNode {
    /// Creates a flooding participant for a network of `n` robots.
    pub(crate) fn new(id: usize, value: f64, n: usize) -> Self {
        let mut known = vec![None; n];
        known[id] = Some(value);
        FloodNode { id, value, known }
    }

    /// Sum of all known values (the global aggregate after quiescence).
    pub(crate) fn sum(&self) -> f64 {
        self.known.iter().flatten().sum()
    }
}

impl Node for FloodNode {
    // Wire IDs are `u32` (robot count < 2^32) so the payload has a
    // provable fixed width — see `lint.models.toml`.
    type Msg = (u32, f64);

    fn on_start(&mut self, out: &mut Outbox<(u32, f64)>) {
        out.broadcast((self.id as u32, self.value));
    }

    fn on_round(
        &mut self,
        _round: usize,
        inbox: &[Envelope<(u32, f64)>],
        out: &mut Outbox<(u32, f64)>,
    ) {
        for env in inbox {
            let (id, value) = env.msg;
            if self.known[id as usize].is_none() {
                self.known[id as usize] = Some(value);
                out.broadcast((id, value));
            }
        }
    }

    /// Purely message-driven: an empty inbox changes nothing.
    fn idle(&self) -> bool {
        true
    }
}

/// Floods every robot's value over `adjacency`; returns each robot's
/// learned total sum (identical across robots iff the graph is
/// connected).
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_flood_sum(values: &[f64], adjacency: &[Vec<usize>]) -> Result<Vec<f64>, SimError> {
    let n = values.len();
    let nodes: Vec<FloodNode> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| FloodNode::new(i, v, n))
        .collect();
    let (nodes, _) = run_reliable(nodes, adjacency.to_vec(), 2 * n + 8)?;
    Ok(nodes.iter().map(FloodNode::sum).collect())
}

// ---------------------------------------------------------------------
// Multi-source hop field
// ---------------------------------------------------------------------

/// Multi-source BFS participant: sources start with hop 0 and everyone
/// learns the hop distance to the nearest source.
#[derive(Debug, Clone)]
pub(crate) struct HopFieldNode {
    /// Whether this node is a source (e.g. a boundary vertex).
    pub(crate) is_source: bool,
    /// Learned hop distance to the nearest source.
    pub(crate) hops: Option<usize>,
}

impl Node for HopFieldNode {
    // Hop counts ride the wire as `u32` (bounded by the robot count,
    // n < 2^32) so the payload has a provable fixed width — see
    // `lint.models.toml`.
    type Msg = u32;

    fn on_start(&mut self, out: &mut Outbox<u32>) {
        if self.is_source {
            self.hops = Some(0);
            out.broadcast(1);
        }
    }

    fn on_round(&mut self, _round: usize, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
        for env in inbox {
            if self.hops.is_none_or(|h| (env.msg as usize) < h) {
                self.hops = Some(env.msg as usize);
                out.broadcast(env.msg + 1);
            }
        }
    }

    /// Purely message-driven: an empty inbox changes nothing.
    fn idle(&self) -> bool {
        true
    }
}

/// Runs the hop-field protocol; `None` entries mark robots unreachable
/// from every source — exactly the isolated subgroups of Sec. III-D-1.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_hop_field(
    sources: &[bool],
    adjacency: &[Vec<usize>],
) -> Result<Vec<Option<usize>>, SimError> {
    let nodes: Vec<HopFieldNode> = sources
        .iter()
        .map(|&is_source| HopFieldNode {
            is_source,
            hops: None,
        })
        .collect();
    let (nodes, _) = run_reliable(nodes, adjacency.to_vec(), 2 * sources.len() + 8)?;
    Ok(nodes.into_iter().map(|n| n.hops).collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::UnitDiskGraph;
    use anr_geom::Point;

    #[test]
    fn boundary_loop_indices_and_size() {
        // Loop of 7 vertices with shuffled IDs; initiator is smallest ID.
        let ids = vec![12, 5, 40, 3, 9, 77, 21];
        let res = run_boundary_loop(&ids).unwrap();
        // All vertices learn the same size.
        for &(_, size) in &res {
            assert_eq!(size, 7);
        }
        // The initiator (ID 3, position 3) has index 0; indices follow
        // the cyclic order.
        assert_eq!(res[3].0, 0);
        assert_eq!(res[4].0, 1);
        assert_eq!(res[5].0, 2);
        assert_eq!(res[6].0, 3);
        assert_eq!(res[0].0, 4);
        assert_eq!(res[1].0, 5);
        assert_eq!(res[2].0, 6);
    }

    #[test]
    fn boundary_loop_all_indices_distinct() {
        let ids: Vec<usize> = (0..20).map(|i| (i * 7 + 3) % 101).collect();
        let res = run_boundary_loop(&ids).unwrap();
        let mut idx: Vec<usize> = res.iter().map(|&(i, _)| i).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn flood_sum_on_connected_graph() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 50.0, 0.0)).collect();
        let g = UnitDiskGraph::new(&pts, 80.0);
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let sums = run_flood_sum(&values, g.adjacency()).unwrap();
        for s in sums {
            assert!((s - 45.0).abs() < 1e-12);
        }
    }

    #[test]
    fn flood_on_disconnected_graph_partial_sums() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(1000.0, 0.0),
        ];
        let g = UnitDiskGraph::new(&pts, 80.0);
        let sums = run_flood_sum(&[1.0, 2.0, 4.0], g.adjacency()).unwrap();
        assert_eq!(sums[0], 3.0);
        assert_eq!(sums[1], 3.0);
        assert_eq!(sums[2], 4.0);
    }

    #[test]
    fn hop_field_matches_centralized_bfs() {
        let pts: Vec<Point> = (0..12)
            .map(|i| Point::new((i % 4) as f64 * 60.0, (i / 4) as f64 * 60.0))
            .collect();
        let g = UnitDiskGraph::new(&pts, 80.0);
        let sources: Vec<bool> = (0..12).map(|i| i == 0 || i == 11).collect();
        let dist = run_hop_field(&sources, g.adjacency()).unwrap();
        let expect = g.multi_source_hops(&[0, 11]);
        assert_eq!(dist, expect);
    }

    #[test]
    fn hop_field_flags_unreachable() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(1000.0, 0.0),
        ];
        let g = UnitDiskGraph::new(&pts, 80.0);
        let dist = run_hop_field(&[true, false, false], g.adjacency()).unwrap();
        assert_eq!(dist[0], Some(0));
        assert_eq!(dist[1], Some(1));
        assert_eq!(dist[2], None); // isolated subgroup
    }

    /// FNV-1a 64 of a value's `Debug` rendering.
    pub(crate) fn digest(value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Rounds, messages and results of each reliable-network protocol,
    /// pinned across the engine change.
    #[test]
    fn reliable_runs_match_golden_digests() {
        let pts: Vec<Point> = (0..35)
            .map(|i| Point::new((i % 7) as f64 * 55.0, (i / 7) as f64 * 55.0))
            .collect();
        let g = UnitDiskGraph::new(&pts, 80.0);
        let n = pts.len();
        let flood: Vec<FloodNode> = (0..n)
            .map(|i| FloodNode::new(i, i as f64 * 0.75, n))
            .collect();
        let (nodes, stats) = run_reliable(flood, g.adjacency().to_vec(), 2 * n + 8).unwrap();
        let sums: Vec<f64> = nodes.iter().map(FloodNode::sum).collect();
        let flood = digest(&(stats.rounds, stats.sent, sums));

        let hop: Vec<HopFieldNode> = (0..n)
            .map(|i| HopFieldNode {
                is_source: i == 0 || i == 20,
                hops: None,
            })
            .collect();
        let (nodes, stats) = run_reliable(hop, g.adjacency().to_vec(), 2 * n + 8).unwrap();
        let hops: Vec<Option<usize>> = nodes.into_iter().map(|nd| nd.hops).collect();
        let hop = digest(&(stats.rounds, stats.sent, hops));

        let ids = [12usize, 5, 40, 3, 9, 77, 21];
        let m = ids.len();
        let nodes: Vec<BoundaryLoopNode> = (0..m)
            .map(|i| BoundaryLoopNode::new(i, i == 3, (i + 1) % m))
            .collect();
        let ring: Vec<Vec<usize>> = (0..m).map(|i| vec![(i + m - 1) % m, (i + 1) % m]).collect();
        let (nodes, stats) = run_reliable(nodes, ring, 4 * m + 8).unwrap();
        let labels: Vec<(Option<usize>, Option<usize>)> = nodes
            .into_iter()
            .map(|nd| (nd.index, nd.loop_size))
            .collect();
        let boundary = digest(&(stats.rounds, stats.sent, labels));

        assert_eq!(
            [flood, hop, boundary],
            [0x71e341baaa076ae5, 0x90ae310602c17b5b, 0x6acda792b6e860ed],
            "flood, hop field, boundary loop"
        );
    }

    #[test]
    fn hop_field_no_sources_all_none() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let g = UnitDiskGraph::new(&pts, 80.0);
        let dist = run_hop_field(&[false, false], g.adjacency()).unwrap();
        assert!(dist.iter().all(Option::is_none));
    }
}
