//! # anr-eventsim — the robust protocols at swarm scale
//!
//! The message-passing engine itself, [`EventSim`], lives in
//! [`anr_distsim`] (re-exported here): a deterministic discrete-event
//! simulator that executes only the rounds in which something is due
//! and steps only the robots that have something to do, under the
//! seeded [`anr_distsim::FaultPlan`] model (loss, delay/reordering,
//! duplication, churn), with byte-stable `anr-eventsim-ckpt/2`
//! checkpoints. It runs over an [`ExplicitTopology`], usually the rows
//! of [`anr_netgraph::UnitDiskGraph::adjacency`]. This crate adds the
//! accounted runners on top: [`protocols`] runs the ack/retransmit
//! flooding, hop-field and boundary-loop protocols from
//! [`anr_netgraph::robust`] and checks every observed payload against
//! the static CONGEST budgets `*_MSG_BITS` declared in
//! `lint.models.toml`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod protocols;

pub use anr_distsim::{CkptError, EventSim, ExplicitTopology, ModelObservation, CKPT_MAGIC};
pub use protocols::{
    run_event_boundary_loop_accounted, run_event_flood_sum_accounted,
    run_event_hop_field_accounted, RFLOOD_MSG_BITS, RHOP_MSG_BITS, RLOOP_MSG_BITS,
};
