//! Error type for the marching pipeline.

use std::error::Error;
use std::fmt;

/// Errors raised by the optimal-marching pipeline.
///
/// `Debug` prints [`MarchError::ConnectivityLost`] by its metrics alone
/// (`L`, `D`, the violation count and the disconnected intervals), not
/// by every position of the outcome it carries.
#[derive(Clone, PartialEq)]
#[non_exhaustive]
pub enum MarchError {
    /// The initial deployment's connectivity graph is not connected, so
    /// no transition can preserve global connectivity.
    DisconnectedDeployment {
        /// Number of connected components found.
        components: usize,
    },
    /// A robot is not part of the extracted triangulation (too far from
    /// the rest of the swarm).
    RobotOutsideTriangulation {
        /// Index of the offending robot.
        robot: usize,
    },
    /// The deployment has fewer robots than the minimum for a
    /// triangulation.
    TooFewRobots {
        /// Robots supplied.
        got: usize,
    },
    /// Geometry error from a FoI.
    Geometry(anr_geom::GeomError),
    /// Meshing error while gridding a FoI.
    Mesh(anr_mesh::MeshError),
    /// Harmonic-map error.
    Harmonic(anr_harmonic::HarmonicError),
    /// Assignment error from a baseline.
    Assign(anr_assign::AssignError),
    /// Invalid input to the metrics / continuous-audit layer.
    Metrics(crate::MetricsError),
    /// The march's own audit found the network disconnected on some
    /// stretch of the march (`C = 0`), so the plan breaks the paper's
    /// first guarantee. The whole outcome rides along: its metrics hold
    /// the disconnected intervals and the link violations, its
    /// trajectories the plan.
    ConnectivityLost(Box<crate::MarchOutcome>),
}

impl fmt::Display for MarchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarchError::DisconnectedDeployment { components } => {
                write!(
                    f,
                    "initial deployment has {components} connected components"
                )
            }
            MarchError::RobotOutsideTriangulation { robot } => {
                write!(
                    f,
                    "robot {robot} is not part of the deployment triangulation"
                )
            }
            MarchError::TooFewRobots { got } => {
                write!(f, "marching needs at least 3 robots, got {got}")
            }
            MarchError::Geometry(e) => write!(f, "geometry error: {e}"),
            MarchError::Mesh(e) => write!(f, "meshing error: {e}"),
            MarchError::Harmonic(e) => write!(f, "harmonic map error: {e}"),
            MarchError::Assign(e) => write!(f, "assignment error: {e}"),
            MarchError::Metrics(e) => write!(f, "metrics error: {e}"),
            MarchError::ConnectivityLost(outcome) => write!(
                f,
                "the march loses global connectivity (C = 0) on {} interval(s) of s",
                outcome.metrics.disconnected_intervals.len()
            ),
        }
    }
}

impl fmt::Debug for MarchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarchError::DisconnectedDeployment { components } => f
                .debug_struct("DisconnectedDeployment")
                .field("components", components)
                .finish(),
            MarchError::RobotOutsideTriangulation { robot } => f
                .debug_struct("RobotOutsideTriangulation")
                .field("robot", robot)
                .finish(),
            MarchError::TooFewRobots { got } => {
                f.debug_struct("TooFewRobots").field("got", got).finish()
            }
            MarchError::Geometry(e) => f.debug_tuple("Geometry").field(e).finish(),
            MarchError::Mesh(e) => f.debug_tuple("Mesh").field(e).finish(),
            MarchError::Harmonic(e) => f.debug_tuple("Harmonic").field(e).finish(),
            MarchError::Assign(e) => f.debug_tuple("Assign").field(e).finish(),
            MarchError::Metrics(e) => f.debug_tuple("Metrics").field(e).finish(),
            MarchError::ConnectivityLost(outcome) => {
                let m = &outcome.metrics;
                f.debug_struct("ConnectivityLost")
                    .field("stable_link_ratio", &m.stable_link_ratio)
                    .field("total_distance", &m.total_distance)
                    .field("violations", &m.violations.len())
                    .field("disconnected_intervals", &m.disconnected_intervals)
                    .finish()
            }
        }
    }
}

impl Error for MarchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MarchError::Geometry(e) => Some(e),
            MarchError::Mesh(e) => Some(e),
            MarchError::Harmonic(e) => Some(e),
            MarchError::Assign(e) => Some(e),
            MarchError::Metrics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<anr_geom::GeomError> for MarchError {
    fn from(e: anr_geom::GeomError) -> Self {
        MarchError::Geometry(e)
    }
}

impl From<anr_mesh::MeshError> for MarchError {
    fn from(e: anr_mesh::MeshError) -> Self {
        MarchError::Mesh(e)
    }
}

impl From<anr_harmonic::HarmonicError> for MarchError {
    fn from(e: anr_harmonic::HarmonicError) -> Self {
        MarchError::Harmonic(e)
    }
}

impl From<anr_assign::AssignError> for MarchError {
    fn from(e: anr_assign::AssignError) -> Self {
        MarchError::Assign(e)
    }
}

impl From<crate::MetricsError> for MarchError {
    fn from(e: crate::MetricsError) -> Self {
        MarchError::Metrics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = MarchError::DisconnectedDeployment { components: 3 };
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_none());

        let e: MarchError = anr_mesh::MeshError::EmptyMesh.into();
        assert!(e.to_string().contains("meshing"));
        assert!(e.source().is_some());
    }
}
