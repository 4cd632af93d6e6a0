//! # anr-distsim — the message-passing engine
//!
//! The ICDCS 2016 optimal-marching paper specifies its algorithms at the
//! message level: boundary vertices pass a hop-counting token around the
//! boundary loop, robots flood their stable-link ratios, isolated
//! subgroups are discovered by packets initiated at boundary vertices
//! (Sec. III-B, III-D-1). This crate is the one engine those protocols
//! run on: a deterministic, round-based, discrete-event simulator.
//!
//! * Nodes implement the [`Node`] trait (`on_start` + `on_round`, and
//!   optionally an [`idle`](Node::idle) certificate that lets the
//!   engine skip them).
//! * [`EventSim`] executes only the rounds in which something is due
//!   and steps only the robots that have something to do; a send made
//!   in round `r` arrives in round `r + 1` (plus any delay).
//! * The communication topology, an [`ExplicitTopology`], is a fixed,
//!   undirected, prebuilt adjacency list; a node may only send to its
//!   neighbors (enforced).
//! * A seeded [`FaultPlan`] layers loss, delay, duplication and churn
//!   over the network; [`FaultPlan::reliable`] draws no randomness and
//!   gives the paper's idealized synchronous network.
//! * [`EventSim::save`] / [`EventSim::restore`] checkpoint a run into
//!   versioned, byte-stable bytes built on the [`snapshot`] codec.
//!
//! ## Example: min-ID flooding (leader election)
//!
//! ```
//! use anr_distsim::{Envelope, EventSim, ExplicitTopology, FaultPlan, Node, Outbox};
//!
//! struct MinId { id: usize, min_seen: usize }
//!
//! impl Node for MinId {
//!     type Msg = usize;
//!     fn on_start(&mut self, out: &mut Outbox<usize>) {
//!         out.broadcast(self.id);
//!     }
//!     fn on_round(&mut self, _round: usize, inbox: &[Envelope<usize>], out: &mut Outbox<usize>) {
//!         for env in inbox {
//!             if env.msg < self.min_seen {
//!                 self.min_seen = env.msg;
//!                 out.broadcast(env.msg);
//!             }
//!         }
//!     }
//!     // An empty inbox changes nothing, so the engine may skip the call.
//!     fn idle(&self) -> bool {
//!         true
//!     }
//! }
//!
//! // A path graph 0 - 1 - 2.
//! let nodes = (0..3).map(|id| MinId { id, min_seen: id }).collect();
//! let topology = ExplicitTopology::new(vec![vec![1], vec![0, 2], vec![1]])?;
//! let mut sim = EventSim::new(nodes, topology, FaultPlan::reliable(0))?;
//! let stats = sim.run_until_quiet(100)?;
//! assert!(stats.rounds <= 4);
//! assert!(sim.nodes().iter().all(|n| n.min_seen == 0));
//! # Ok::<(), anr_distsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod ckpt;
pub mod engine;
pub mod fault;
pub mod snapshot;
pub mod topology;

pub use ckpt::{CkptError, CKPT_MAGIC};
pub use engine::{EventSim, FaultStats, ModelObservation};
pub use fault::{ChurnEvent, ChurnKind, DelayModel, FaultPlan};
pub use snapshot::{Persist, PersistError, SnapshotReader, SnapshotWriter};
pub use topology::ExplicitTopology;

use std::error::Error;
use std::fmt;

/// A received message together with its sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Index of the sending node.
    pub from: usize,
    /// The message payload.
    pub msg: M,
}

/// Outgoing-message buffer handed to a node during its turn.
///
/// Sends are addressed by node index and validated against the topology
/// when the round is committed.
#[derive(Debug)]
pub struct Outbox<M> {
    /// (to, msg) pairs; a [`BROADCAST`] destination means broadcast.
    queued: Vec<(usize, M)>,
}

/// Destination marker for a broadcast to all neighbors: the engine
/// expands it over the sender's neighbor row, in row order, when the
/// outbox is committed.
const BROADCAST: usize = usize::MAX;

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox (for driving a [`Node`] by hand, e.g. in tests).
    pub fn new() -> Self {
        Outbox { queued: Vec::new() }
    }

    /// Queues a message to the neighbor with index `to`.
    ///
    /// Sending to a non-neighbor is detected when the round commits and
    /// fails the simulation with [`SimError::NotANeighbor`].
    pub fn send(&mut self, to: usize, msg: M) {
        self.queued.push((to, msg));
    }

    /// Queues a copy of `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        self.queued.push((BROADCAST, msg));
    }

    /// Number of queued sends (a broadcast counts once here).
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// Drains the queued sends, keeping the buffer's capacity; `None`
    /// destinations are broadcasts.
    fn drain(&mut self) -> impl Iterator<Item = (Option<usize>, M)> + '_ {
        self.queued
            .drain(..)
            .map(|(to, msg)| ((to != BROADCAST).then_some(to), msg))
    }
}

/// A protocol participant.
///
/// Nodes are identified by their index in the simulator's node vector;
/// the topology's adjacency list uses the same indices.
pub trait Node {
    /// Message type exchanged by this protocol.
    type Msg: Clone;

    /// Called once before round 0; initial sends go to `out`.
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Called in a round with the messages delivered that round.
    ///
    /// `inbox` is empty for a woken node that received nothing; such
    /// calls let timeouts act on the round counter.
    fn on_round(
        &mut self,
        round: usize,
        inbox: &[Envelope<Self::Msg>],
        out: &mut Outbox<Self::Msg>,
    );

    /// Dormancy certificate. Returning `true` promises that, until a
    /// message arrives, `on_round` with an empty inbox would change no
    /// state and send nothing, so the engine may skip those calls. The
    /// default, `false`, is always safe: the node is then stepped every
    /// round it is live.
    fn idle(&self) -> bool {
        false
    }
}

/// Errors raised by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Adjacency list length does not match the node count.
    TopologyMismatch {
        /// Number of nodes supplied.
        nodes: usize,
        /// Length of the adjacency list.
        adjacency: usize,
    },
    /// The adjacency list references a node that does not exist.
    BadNeighborIndex {
        /// Node whose adjacency row is invalid.
        node: usize,
        /// The out-of-range neighbor index.
        neighbor: usize,
    },
    /// The adjacency list is not symmetric (undirected graph required).
    AsymmetricTopology {
        /// Edge present as (from, to) but not (to, from).
        from: usize,
        /// See `from`.
        to: usize,
    },
    /// A node tried to send to a non-neighbor.
    NotANeighbor {
        /// The sending node.
        from: usize,
        /// The invalid destination.
        to: usize,
    },
    /// A run hit its round limit with messages still flowing (or, for
    /// `run_until`, before its predicate held).
    NotQuiescent {
        /// The round limit that was exceeded.
        max_rounds: usize,
        /// Nodes that still had messages in flight towards them when the
        /// limit was hit — the first place to look when debugging a
        /// protocol that fails to terminate (especially under faults).
        pending: Vec<usize>,
    },
    /// A [`FaultPlan`] is inconsistent with the simulation.
    InvalidFaultPlan {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A protocol run observed a message payload larger than the
    /// static CONGEST bit budget declared for it in `lint.models.toml`
    /// — the runtime side of the anr-lint M1/M3 cross-check.
    ModelBudgetExceeded {
        /// The protocol (its `Node` impl self type).
        protocol: &'static str,
        /// Largest payload observed, in bits.
        observed_bits: u32,
        /// The declared static budget, in bits.
        bound_bits: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TopologyMismatch { nodes, adjacency } => {
                write!(f, "adjacency list has {adjacency} rows for {nodes} nodes")
            }
            SimError::BadNeighborIndex { node, neighbor } => {
                write!(f, "node {node} lists non-existent neighbor {neighbor}")
            }
            SimError::AsymmetricTopology { from, to } => {
                write!(f, "edge ({from}, {to}) present but ({to}, {from}) missing")
            }
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from} sent to non-neighbor {to}")
            }
            SimError::NotQuiescent {
                max_rounds,
                pending,
            } => {
                write!(
                    f,
                    "protocol still active after {max_rounds} rounds \
                     ({} node(s) with messages in flight: {:?})",
                    pending.len(),
                    pending
                )
            }
            SimError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            SimError::ModelBudgetExceeded {
                protocol,
                observed_bits,
                bound_bits,
            } => {
                write!(
                    f,
                    "{protocol} sent a {observed_bits}-bit payload, exceeding its \
                     declared {bound_bits}-bit CONGEST budget (lint.models.toml)"
                )
            }
        }
    }
}

impl Error for SimError {}
