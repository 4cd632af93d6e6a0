//! # anr-coverage — centroidal-Voronoi coverage control
//!
//! After the harmonic-map transition drops the robots into the target
//! FoI, the paper runs "a minor local adjustment to optimal coverage
//! positions" (Sec. III-C): Lloyd's algorithm on the Voronoi partition of
//! the FoI, with an optional density function so "more robots will be
//! deployed near the center of a fire" (Sec. IV-E), and a
//! connectivity-guarded step rule so no robot disconnects while moving to
//! its centroid (Sec. III-D-1).
//!
//! Because the FoIs are concave and multiply connected, the Voronoi
//! partition is computed against a dense sample grid of the region
//! ([`GridPartition`]) — the same discretization the paper uses for the
//! FoI's "surface data". Centroids falling inside holes are snapped to
//! the nearest region point, as prescribed in Sec. III-D-3.
//!
//! ## Example
//!
//! ```
//! use anr_geom::{Point, Polygon, PolygonWithHoles};
//! use anr_coverage::{triangular_lattice, GridPartition, LloydConfig, run_lloyd, Density};
//!
//! let foi = PolygonWithHoles::without_holes(
//!     Polygon::rectangle(Point::ORIGIN, 200.0, 200.0),
//! );
//! let partition = GridPartition::new(&foi, 5.0);
//! let sites = triangular_lattice(&foi, 50.0);
//! let result = run_lloyd(&sites, &partition, &Density::Uniform, &LloydConfig::default());
//! assert!(result.iterations >= 1);
//! assert!(result.sites.iter().all(|p| foi.contains(*p)));
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod analytic;
mod density;
mod lattice;
mod lloyd;
mod local;
mod metrics;
mod partition;

pub use analytic::{voronoi_cell, voronoi_cells};
pub use density::Density;
pub use lattice::{deploy_exactly, triangular_lattice};
pub use lloyd::{run_lloyd, run_lloyd_guarded, LloydConfig, LloydResult};
pub use local::local_centroids;
pub use metrics::{covered_fraction, min_pairwise_distance};
pub use partition::GridPartition;
