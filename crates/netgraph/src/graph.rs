//! The unit-disk connectivity graph of a robot deployment.

use crate::UnionFind;
use anr_geom::Point;
use std::collections::VecDeque;

/// Connectivity graph of robots with identical communication range:
/// robots `i` and `j` share a link iff `‖pᵢ − pⱼ‖ ≤ r_c`.
///
/// The graph snapshot stores positions, the range, and a sorted adjacency
/// list. It is the `e_ij(t)` of the paper evaluated at one instant.
///
/// ```
/// use anr_geom::Point;
/// use anr_netgraph::UnitDiskGraph;
///
/// let g = UnitDiskGraph::new(
///     &[Point::new(0.0, 0.0), Point::new(60.0, 0.0), Point::new(120.0, 0.0)],
///     80.0,
/// );
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_connected());
/// assert_eq!(g.bfs_hops(0)[2], Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct UnitDiskGraph {
    positions: Vec<Point>,
    range: f64,
    adjacency: Vec<Vec<usize>>,
    num_links: usize,
}

impl UnitDiskGraph {
    /// Builds the connectivity graph of `positions` with communication
    /// range `range`: the rows are the links of
    /// [`for_each_link`](Self::for_each_link), sorted.
    ///
    /// # Panics
    ///
    /// Panics when `range <= 0` or a position is non-finite.
    pub fn new(positions: &[Point], range: f64) -> Self {
        let mut adjacency = vec![Vec::new(); positions.len()];
        let mut num_links = 0;
        Self::for_each_link(positions, range, |i, j| {
            adjacency[i].push(j);
            adjacency[j].push(i);
            num_links += 1;
        });
        for a in adjacency.iter_mut() {
            a.sort_unstable();
        }

        UnitDiskGraph {
            positions: positions.to_vec(),
            range,
            adjacency,
            num_links,
        }
    }

    /// Calls `f(i, j)` with `i < j` once for every link of the unit-disk
    /// graph of `positions` (`‖pᵢ − pⱼ‖² ≤ range²`), in unspecified
    /// order, without storing the adjacency.
    ///
    /// Robots are walked sorted by range cell `floor(x / range)`: each
    /// cell is paired with itself and with its forward neighbours
    /// (0, 1), (1, −1), (1, 0) and (1, 1), which covers the 3 × 3
    /// neighbourhood of every cell with each pair of cells once.
    ///
    /// # Panics
    ///
    /// Panics when `range <= 0` or a position is non-finite.
    pub fn for_each_link(positions: &[Point], range: f64, mut f: impl FnMut(usize, usize)) {
        let keyed = sorted_by_cell(positions, range);
        let pts: Vec<Point> = keyed.iter().map(|e| positions[e.2]).collect();
        let r2 = range * range;
        let mut link = |a: usize, b: usize| {
            if pts[a].distance_sq(pts[b]) <= r2 {
                let (i, j) = (keyed[a].2, keyed[b].2);
                f(i.min(j), i.max(j));
            }
        };
        // Each range cell is a run `start..end` of the sorted robots.
        let mut start = 0;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let (end, (kx, ky)) = (start + run.len(), run[0].0);
            for a in start..end {
                for b in a + 1..end {
                    link(a, b);
                }
            }
            for (dx, dy) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
                let (Some(nx), Some(ny)) = (kx.checked_add(dx), ky.checked_add(dy)) else {
                    continue;
                };
                let first = end + keyed[end..].partition_point(|e| e.0 < (nx, ny));
                let last = first + keyed[first..].partition_point(|e| e.0 == (nx, ny));
                for a in start..end {
                    for b in first..last {
                        link(a, b);
                    }
                }
            }
            start = end;
        }
    }

    /// Is the unit-disk graph of `positions` connected? The same answer
    /// as `UnitDiskGraph::new(positions, range).is_connected()`, without
    /// building the adjacency.
    ///
    /// Robots are bucketed into half-range sub-cells nested in the range
    /// cells of [`for_each_link`](Self::for_each_link): the fractional
    /// part of `x / range` picks the half of the range cell
    /// `floor(x / range)`. Robots sharing a sub-cell are within
    /// `range·√2/2` of each other, so each sub-cell starts as one set,
    /// checked with one distance per robot against its first robot (a
    /// robot that fails the check, possible only at coordinates beyond
    /// ~10¹⁴ ranges, makes its sub-cell test every pair). Two sub-cells
    /// whose range cells are neighbours are then joined by their first
    /// pair within range, and only while they are still apart. Every
    /// union is a link of the constructor's graph and every link it
    /// finds ends in one set, so the components agree.
    ///
    /// # Panics
    ///
    /// Panics when `range <= 0` or a position is non-finite.
    pub fn connected(positions: &[Point], range: f64) -> bool {
        let keyed = sorted_by_cell(positions, range);
        let r2 = range * range;
        let within = |i: usize, j: usize| positions[i].distance_sq(positions[j]) <= r2;

        struct SubCell {
            cell: (i64, i64),
            robots: Vec<usize>,
            /// Every robot is linked to the first.
            whole: bool,
        }
        let mut uf = UnionFind::new(positions.len());
        let mut subcells: Vec<SubCell> = Vec::new();
        for run in keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let robots: Vec<usize> = run.iter().map(|e| e.2).collect();
            let mut whole = true;
            for &m in &robots[1..] {
                if within(m, robots[0]) {
                    uf.union(m, robots[0]);
                } else {
                    whole = false;
                }
            }
            if !whole {
                for (k, &a) in robots.iter().enumerate() {
                    for &b in &robots[k + 1..] {
                        if within(a, b) {
                            uf.union(a, b);
                        }
                    }
                }
            }
            subcells.push(SubCell {
                cell: run[0].0,
                robots,
                whole,
            });
        }

        let mut join = |a: &SubCell, b: &SubCell| {
            let whole = a.whole && b.whole;
            if whole && uf.connected(a.robots[0], b.robots[0]) {
                return;
            }
            for &i in &a.robots {
                for &j in &b.robots {
                    if within(i, j) {
                        uf.union(i, j);
                        if whole {
                            return;
                        }
                    }
                }
            }
        };
        for (s, a) in subcells.iter().enumerate() {
            // Later sub-cells of the same range cell, then those of the
            // range cells at (kx, ky + 1) and (kx + 1, ky - 1 ..= ky + 1):
            // each neighbouring pair once, as in `for_each_link`.
            for b in subcells[s + 1..].iter().take_while(|b| b.cell == a.cell) {
                join(a, b);
            }
            let (kx, ky) = a.cell;
            for (dx, dy) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
                let (Some(nx), Some(ny)) = (kx.checked_add(dx), ky.checked_add(dy)) else {
                    continue;
                };
                let first = subcells.partition_point(|b| b.cell < (nx, ny));
                for b in subcells[first..].iter().take_while(|b| b.cell == (nx, ny)) {
                    join(a, b);
                }
            }
        }
        uf.num_sets() <= 1
    }

    /// Number of robots.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True for an empty deployment.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Robot positions.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The communication range used to build the graph.
    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Sorted neighbor list of robot `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Number of links incident to robot `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// The full adjacency list (e.g. to build an
    /// [`anr_distsim::ExplicitTopology`]).
    #[inline]
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adjacency
    }

    /// Consumes the graph, returning the adjacency list.
    pub fn into_adjacency(self) -> Vec<Vec<usize>> {
        self.adjacency
    }

    /// Total number of undirected links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// All undirected links as `(i, j)` with `i < j`.
    pub fn links(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_links);
        for (i, nbrs) in self.adjacency.iter().enumerate() {
            for &j in nbrs {
                if j > i {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Do robots `i` and `j` share a link?
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn has_link(&self, i: usize, j: usize) -> bool {
        self.adjacency[i].binary_search(&j).is_ok()
    }

    /// BFS hop distance from `source` to every robot (`None` =
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    pub fn bfs_hops(&self, source: usize) -> Vec<Option<usize>> {
        self.multi_source_hops(&[source])
    }

    /// BFS hop distance from the nearest of several `sources`.
    ///
    /// Used by the isolated-subgroup detection (Sec. III-D-1), where
    /// every boundary vertex is a source.
    ///
    /// # Panics
    ///
    /// Panics when any source is out of range.
    pub fn multi_source_hops(&self, sources: &[usize]) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        let mut queue = VecDeque::new();
        for &s in sources {
            assert!(s < self.len(), "source out of range");
            if dist[s].is_none() {
                dist[s] = Some(0);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let Some(d) = dist[u] else { continue };
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Is the whole network one connected component?
    ///
    /// An empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.bfs_hops(0).iter().all(Option::is_some)
    }

    /// Connected components as sorted vertex lists, largest first.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.len());
        for (i, j) in self.links() {
            uf.union(i, j);
        }
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for v in 0..self.len() {
            by_root.entry(uf.find(v)).or_default().push(v);
        }
        let mut comps: Vec<Vec<usize>> = by_root.into_values().collect();
        for c in comps.iter_mut() {
            c.sort_unstable();
        }
        comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        comps
    }

    /// Robots with no links at all.
    pub fn isolated_robots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.degree(i) == 0).collect()
    }
}

/// Robots as `(range cell, half-cell quadrant, index)`, sorted, so range
/// cells and half-range sub-cells are runs. Cell keys saturate at the
/// `i64` bounds past ~9.2·10¹⁸ ranges; take neighbouring keys with
/// `checked_add`.
///
/// # Panics
///
/// Panics when `range <= 0` or a position is non-finite.
fn sorted_by_cell(positions: &[Point], range: f64) -> Vec<((i64, i64), u8, usize)> {
    assert!(range > 0.0, "communication range must be positive");
    assert!(
        positions.iter().all(|p| p.is_finite()),
        "positions must be finite"
    );
    let split = |v: f64| {
        let q = v / range;
        (q.floor() as i64, u8::from(q - q.floor() >= 0.5))
    };
    let mut keyed: Vec<((i64, i64), u8, usize)> = positions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let ((kx, hx), (ky, hy)) = (split(p.x), split(p.y));
            ((kx, ky), hx | (hy << 1), i)
        })
        .collect();
    keyed.sort_unstable();
    keyed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn line(n: usize, spacing: f64) -> Vec<Point> {
        (0..n).map(|i| p(i as f64 * spacing, 0.0)).collect()
    }

    #[test]
    fn line_graph_structure() {
        let g = UnitDiskGraph::new(&line(5, 60.0), 80.0);
        assert_eq!(g.num_links(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn range_boundary_is_inclusive() {
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(80.0, 0.0)], 80.0);
        assert!(g.has_link(0, 1));
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(80.01, 0.0)], 80.0);
        assert!(!g.has_link(0, 1));
    }

    #[test]
    fn disconnected_components() {
        let mut pts = line(3, 50.0);
        pts.extend([p(1000.0, 0.0), p(1050.0, 0.0)]);
        let g = UnitDiskGraph::new(&pts, 80.0);
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]); // largest first
        assert_eq!(comps[1], vec![3, 4]);
    }

    #[test]
    fn bfs_hops_on_line() {
        let g = UnitDiskGraph::new(&line(6, 70.0), 80.0);
        let hops = g.bfs_hops(0);
        for (i, h) in hops.iter().enumerate() {
            assert_eq!(*h, Some(i));
        }
    }

    #[test]
    fn multi_source_hops_take_nearest() {
        let g = UnitDiskGraph::new(&line(7, 70.0), 80.0);
        let hops = g.multi_source_hops(&[0, 6]);
        assert_eq!(hops[3], Some(3));
        assert_eq!(hops[5], Some(1));
        assert_eq!(hops[0], Some(0));
    }

    #[test]
    fn unreachable_is_none() {
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(500.0, 0.0)], 80.0);
        assert_eq!(g.bfs_hops(0)[1], None);
    }

    #[test]
    fn isolated_robots_listed() {
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(50.0, 0.0), p(900.0, 0.0)], 80.0);
        assert_eq!(g.isolated_robots(), vec![2]);
    }

    #[test]
    fn links_are_canonical_pairs() {
        let g = UnitDiskGraph::new(&line(4, 60.0), 80.0);
        for (i, j) in g.links() {
            assert!(i < j);
            assert!(g.has_link(i, j));
            assert!(g.has_link(j, i));
        }
    }

    /// The `O(n²)` rows: every other robot within range, ascending.
    fn brute_rows(pts: &[Point], range: f64) -> Vec<Vec<usize>> {
        (0..pts.len())
            .map(|i| {
                (0..pts.len())
                    .filter(|&j| j != i && pts[i].distance_sq(pts[j]) <= range * range)
                    .collect()
            })
            .collect()
    }

    /// `new`'s rows equal the `O(n²)` rows, and `for_each_link` reports
    /// each of their links exactly once, with `i < j`.
    fn assert_matches_bruteforce(pts: &[Point], range: f64, key: &str) {
        let rows = brute_rows(pts, range);
        assert_eq!(UnitDiskGraph::new(pts, range).adjacency(), rows, "{key}");
        let mut walked = Vec::new();
        UnitDiskGraph::for_each_link(pts, range, |i, j| walked.push((i, j)));
        assert!(walked.iter().all(|&(i, j)| i < j), "{key}");
        walked.sort_unstable();
        let want: Vec<(usize, usize)> = rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().filter(move |&&j| j > i).map(move |&j| (i, j)))
            .collect();
        assert_eq!(walked, want, "{key}");
    }

    #[test]
    fn spatial_hash_matches_bruteforce() {
        // Pseudo-random cloud; compare against O(n²) construction.
        let mut seed: u64 = 99;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point> = (0..80).map(|_| p(next() * 500.0, next() * 500.0)).collect();
        let g = UnitDiskGraph::new(&pts, 90.0);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let expect = pts[i].distance(pts[j]) <= 90.0;
                assert_eq!(g.has_link(i, j), expect, "link ({i}, {j})");
            }
        }
        assert_matches_bruteforce(&pts, 90.0, "uniform cloud");

        // The clouds of `connected_matches_the_built_graph`: four ranges,
        // origins far from zero on either side, a fifth of the clouds
        // snapped onto range-cell and sub-cell boundaries; each also gets
        // a robot on top of its first and one at the range from it.
        let mut seed: u64 = 0xB0B;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..2000 {
            let range = [80.0, 1.0, 0.3, 1e-3][trial % 4];
            let n = 1 + (next() * 60.0) as usize;
            let side = range * (n as f64).sqrt() * (0.3 + 1.2 * next());
            let origin = p((next() - 0.5) * 1e3 * range, (next() - 0.5) * 1e3 * range);
            let snap = trial % 5 == 0;
            let mut pts: Vec<Point> = (0..n)
                .map(|_| {
                    let q = p(origin.x + next() * side, origin.y + next() * side);
                    if snap {
                        let h = range / 2.0;
                        p((q.x / h).round() * h, (q.y / h).round() * h)
                    } else {
                        q
                    }
                })
                .collect();
            let first = pts[0];
            pts.extend([first, p(first.x + range, first.y)]);
            assert_matches_bruteforce(&pts, range, &format!("trial {trial}: range {range}"));
        }
        // Exactly at the range, across a cell boundary in each direction.
        let at_range = [
            p(0.0, 0.0),
            p(80.0, 0.0),
            p(0.0, 80.0),
            p(-80.0, 0.0),
            p(0.0, -80.0),
        ];
        assert_matches_bruteforce(&at_range, 80.0, "at the range");
        assert_eq!(UnitDiskGraph::new(&at_range, 80.0).degree(0), 4);
    }

    #[test]
    fn saturated_cell_keys_find_their_link() {
        // Beyond ~9.2·10¹⁸ ranges every cell key saturates at an `i64`
        // bound, and a neighbouring key must not overflow.
        for x in [1e300, -1e300] {
            let pts = [p(x, -x), p(x, -x)];
            assert_eq!(UnitDiskGraph::new(&pts, 1.0).links(), vec![(0, 1)]);
            let mut walked = Vec::new();
            UnitDiskGraph::for_each_link(&pts, 1.0, |i, j| walked.push((i, j)));
            assert_eq!(walked, vec![(0, 1)]);
            assert!(UnitDiskGraph::connected(&pts, 1.0));
        }
    }

    #[test]
    fn connected_matches_the_built_graph() {
        // Random sets around the connectivity threshold; a fifth of them
        // snap coordinates onto range-cell and sub-cell boundaries.
        let mut seed: u64 = 0xC0FFEE;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut connected_sets = 0;
        for trial in 0..4000 {
            let range = [80.0, 1.0, 0.3, 1e-3][trial % 4];
            let n = 1 + (next() * 60.0) as usize;
            let side = range * (n as f64).sqrt() * (0.3 + 1.2 * next());
            let origin = p((next() - 0.5) * 1e3 * range, (next() - 0.5) * 1e3 * range);
            let snap = trial % 5 == 0;
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    let q = p(origin.x + next() * side, origin.y + next() * side);
                    if snap {
                        let h = range / 2.0;
                        p((q.x / h).round() * h, (q.y / h).round() * h)
                    } else {
                        q
                    }
                })
                .collect();
            let expect = UnitDiskGraph::new(&pts, range).is_connected();
            assert_eq!(
                UnitDiskGraph::connected(&pts, range),
                expect,
                "trial {trial}: {pts:?} at range {range}"
            );
            connected_sets += usize::from(expect);
        }
        assert!(
            (800..3200).contains(&connected_sets),
            "{connected_sets} of 4000 sets connected"
        );
    }

    #[test]
    fn connected_handles_degenerate_sets() {
        assert!(UnitDiskGraph::connected(&[], 10.0));
        assert!(UnitDiskGraph::connected(&[p(3.0, 4.0)], 10.0));
        // Coincident robots share every cell.
        assert!(UnitDiskGraph::connected(&[p(1.0, 1.0); 5], 10.0));
        // Links exactly at the range and just beyond it.
        assert!(UnitDiskGraph::connected(&line(6, 80.0), 80.0));
        assert!(!UnitDiskGraph::connected(&line(6, 80.000001), 80.0));
        // Near 2⁶³ robots 1024 apart share `x / range` (its ulp is 1024
        // there), so one sub-cell holds robots beyond range of each other
        // and must test them pairwise.
        let range = 1.9;
        let mut far: Vec<Point> = (0..8)
            .map(|i| p(2f64.powi(63) - 4096.0 - 1024.0 * i as f64, 5.0))
            .collect();
        assert!(far
            .windows(2)
            .any(|w| w[0].x / range == w[1].x / range && w[0].distance(w[1]) > range));
        assert!(!UnitDiskGraph::connected(&far, range));
        assert!(!UnitDiskGraph::new(&far, range).is_connected());
        far.truncate(1);
        far.push(far[0]);
        assert!(UnitDiskGraph::connected(&far, range));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = UnitDiskGraph::new(&[], 10.0);
        assert!(g.is_connected());
        assert!(g.connected_components().is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_range_panics() {
        let _ = UnitDiskGraph::new(&[p(0.0, 0.0)], 0.0);
    }
}
