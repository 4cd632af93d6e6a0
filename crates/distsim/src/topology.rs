//! The engine's communication topology: a prebuilt adjacency list,
//! such as the rows of `anr-netgraph`'s `UnitDiskGraph::adjacency()`.

use crate::SimError;

/// A fixed, undirected communication topology: a prebuilt adjacency
/// list, validated once at construction. Each row's order is the order
/// in which a broadcast reaches the neighbors.
#[derive(Debug, Clone)]
pub struct ExplicitTopology {
    adjacency: Vec<Vec<usize>>,
}

impl ExplicitTopology {
    /// Wraps `adjacency`, enforcing in-range neighbor indices and
    /// symmetry (an undirected graph).
    ///
    /// # Errors
    ///
    /// [`SimError::BadNeighborIndex`] or
    /// [`SimError::AsymmetricTopology`].
    pub fn new(adjacency: Vec<Vec<usize>>) -> Result<Self, SimError> {
        for (u, nbrs) in adjacency.iter().enumerate() {
            for &v in nbrs {
                if v >= adjacency.len() {
                    return Err(SimError::BadNeighborIndex {
                        node: u,
                        neighbor: v,
                    });
                }
                if !adjacency[v].contains(&u) {
                    return Err(SimError::AsymmetricTopology { from: u, to: v });
                }
            }
        }
        Ok(ExplicitTopology { adjacency })
    }

    /// The wrapped adjacency rows.
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adjacency
    }

    /// The neighbor row of `u`, in broadcast order.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adjacency[u]
    }

    /// Is there a link `u — v`? Rows need not be sorted, so this scans
    /// the row of `u`.
    pub fn has_link(&self, u: usize, v: usize) -> bool {
        self.adjacency[u].contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_topology_validates() {
        assert!(ExplicitTopology::new(vec![vec![1], vec![0]]).is_ok());
        assert!(matches!(
            ExplicitTopology::new(vec![vec![5], vec![0]]),
            Err(SimError::BadNeighborIndex {
                node: 0,
                neighbor: 5
            })
        ));
        assert!(matches!(
            ExplicitTopology::new(vec![vec![1], vec![]]),
            Err(SimError::AsymmetricTopology { from: 0, to: 1 })
        ));
    }
}
