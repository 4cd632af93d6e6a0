//! # anr-netgraph — connectivity graphs of networked robots
//!
//! Robots within communication range `r_c` of one another share a
//! wireless link; the resulting **unit-disk graph** is the paper's
//! connectivity graph (Sec. II-B). This crate provides:
//!
//! * [`UnitDiskGraph`] — build the connectivity graph from positions,
//!   query neighbors / degrees / links;
//! * connectivity queries — BFS hop fields, connected components (both
//!   BFS and [`UnionFind`]), global-connectivity checks;
//! * [`extract_triangulation`] — the triangulation `T` of the robots'
//!   connectivity graph used by the harmonic map (Sec. III-A, following
//!   the distributed-triangulation idea of the paper's ref.\[18\]:
//!   communication-range-constrained Delaunay);
//! * distributed protocols on [`anr_distsim`]: boundary-loop sizing
//!   ([`protocols::run_boundary_loop`]), value flooding
//!   ([`protocols::run_flood_sum`]) and multi-source hop fields
//!   ([`protocols::run_hop_field`]), each cross-checked against its
//!   centralized reference.
//!
//! ## Example
//!
//! ```
//! use anr_geom::Point;
//! use anr_netgraph::UnitDiskGraph;
//!
//! let positions = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(50.0, 0.0),
//!     Point::new(200.0, 0.0), // out of range of the others
//! ];
//! let g = UnitDiskGraph::new(&positions, 80.0);
//! assert!(g.has_link(0, 1));
//! assert!(!g.has_link(1, 2));
//! assert!(!g.is_connected());
//! assert_eq!(g.connected_components().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod biconnectivity;
mod graph;
pub mod protocols;
pub mod robust;
mod triangulation;
mod unionfind;

pub use biconnectivity::{articulation_points, is_biconnected, vertex_connectivity_estimate};
pub use graph::UnitDiskGraph;
pub use triangulation::{extract_triangulation, extract_triangulation_distributed};
pub use unionfind::{RollbackUnionFind, UnionFind};
