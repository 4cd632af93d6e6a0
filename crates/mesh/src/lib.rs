//! # anr-mesh — triangle meshes, Delaunay triangulation, FoI meshing
//!
//! The optimal-marching pipeline (ICDCS 2016) manipulates two kinds of
//! triangulations:
//!
//! 1. the triangulation `T` extracted from the robots' connectivity graph
//!    in the current field of interest `M1` (Sec. III-A), and
//! 2. a gridded triangulation of the target field of interest `M2`
//!    (Sec. III-B: "we can add grid points and triangulate the surface
//!    data of FoI M2").
//!
//! This crate provides the shared substrate for both: an index-based
//! [`TriMesh`] with adjacency and boundary-loop extraction, a
//! Bowyer–Watson [`delaunay`] triangulator, a [`FoiMesher`] that turns a
//! [`PolygonWithHoles`](anr_geom::PolygonWithHoles) into a well-shaped
//! mesh, point location and mesh-quality statistics.
//!
//! ## Example
//!
//! ```
//! use anr_geom::{Point, Polygon, PolygonWithHoles};
//! use anr_mesh::FoiMesher;
//!
//! let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 60.0);
//! let foi = PolygonWithHoles::without_holes(outer);
//! let mesh = FoiMesher::new(10.0).mesh(&foi)?;
//! assert!(mesh.mesh().num_triangles() > 0);
//! assert_eq!(mesh.mesh().boundary_loops().len(), 1); // a topological disk
//! # Ok::<(), anr_mesh::MeshError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod delaunay;
mod error;
mod foi;
mod locate;
mod quality;
mod trimesh;

pub use delaunay::delaunay;
pub use error::MeshError;
pub use foi::{FoiMesh, FoiMesher};
pub use locate::PointLocator;
pub use quality::MeshQuality;
pub use trimesh::TriMesh;
