//! Global-connectivity repair (paper Sec. III-D-1).
//!
//! After the harmonic map proposes a destination for every robot, some
//! robots — or whole subgroups — may be predicted to lose every
//! communication link during the transition. The paper's fix: identify
//! vertices with no preserved path to the network boundary (packets
//! initiated at boundary vertices, flooded over preserved links), pick
//! for each isolated subgroup a *root* whose one-range neighbor is
//! nearest to the boundary, and make the subgroup march **parallel** to
//! that reference neighbor at the same speed. Parallel same-speed motion
//! keeps every relative vector inside the subgroup — and from the root to
//! its reference — constant, so those links survive the whole transition.
//!
//! For synchronized straight-line motion (Eqn. 2) the distance between
//! two robots is a convex function of time, so a link is preserved for
//! all `t` iff it holds at both endpoints; "preserved" below therefore
//! means *target distance within range*.

use anr_geom::Point;
use anr_netgraph::UnitDiskGraph;
use std::collections::VecDeque;

/// What the repair pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Robots whose targets were adjusted to parallel motion.
    pub adjusted_robots: Vec<usize>,
    /// Number of isolated subgroups found (singletons included).
    pub isolated_subgroups: usize,
    /// Repair rounds executed.
    pub rounds: usize,
}

impl RepairReport {
    /// Did the repair change anything?
    pub fn is_clean(&self) -> bool {
        self.adjusted_robots.is_empty()
    }
}

/// Repairs predicted isolation by re-targeting isolated subgroups to
/// parallel motion (Sec. III-D-1). `initial` is the unit-disk graph of
/// the deployment (the robots' positions, their range and their `M1`
/// links); `boundary` lists the triangulation's boundary vertices — the
/// "network boundary" of Definition 2.
///
/// Returns the report; `targets` is modified in place.
///
/// # Panics
///
/// Panics when `targets` and `initial` disagree in length, or
/// `boundary` contains an out-of-range index.
pub fn repair_connectivity(
    initial: &UnitDiskGraph,
    targets: &mut [Point],
    boundary: &[usize],
) -> RepairReport {
    let (positions, range) = (initial.positions(), initial.range());
    assert_eq!(positions.len(), targets.len(), "one target per robot");
    let n = positions.len();
    for &b in boundary {
        assert!(b < n, "boundary vertex out of range");
    }

    let mut report = RepairReport::default();

    // A few rounds for safety; one round suffices in theory because
    // adjusted subgroups attach to already-reachable references.
    for round in 0..5 {
        // Preserved-link adjacency: initial links whose endpoint targets
        // remain within range.
        let preserved: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                initial
                    .neighbors(i)
                    .iter()
                    .copied()
                    .filter(|&j| targets[i].distance(targets[j]) <= range)
                    .collect()
            })
            .collect();

        // Hop field from the boundary over preserved links.
        let mut hops: Vec<Option<usize>> = vec![None; n];
        let mut queue = VecDeque::new();
        for &b in boundary {
            if hops[b].is_none() {
                hops[b] = Some(0);
                queue.push_back(b);
            }
        }
        while let Some(u) = queue.pop_front() {
            let Some(d) = hops[u] else { continue };
            for &v in &preserved[u] {
                if hops[v].is_none() {
                    hops[v] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }

        let unreachable: Vec<usize> = (0..n).filter(|&v| hops[v].is_none()).collect();
        if unreachable.is_empty() {
            report.rounds = round;
            return report;
        }
        report.rounds = round + 1;

        // Subgroups: connected components of the unreachable set under
        // the *initial* links (the subgroup will move rigidly, so all its
        // internal links are preserved by construction).
        let mut comp: Vec<Option<usize>> = vec![None; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for &v in &unreachable {
            if comp[v].is_some() {
                continue;
            }
            let gid = groups.len();
            let mut group = Vec::new();
            let mut q = VecDeque::from([v]);
            comp[v] = Some(gid);
            while let Some(u) = q.pop_front() {
                group.push(u);
                for &w in initial.neighbors(u) {
                    if hops[w].is_none() && comp[w].is_none() {
                        comp[w] = Some(gid);
                        q.push_back(w);
                    }
                }
            }
            groups.push(group);
        }
        report.isolated_subgroups += groups.len();

        for group in &groups {
            // Root selection: the member with a reachable one-range
            // neighbor nearest (in hops, then distance) to the boundary.
            let mut best: Option<(usize, usize, usize, f64)> = None; // (root, ref, hops, dist)
            for &m in group {
                for &nb in initial.neighbors(m) {
                    if let Some(h) = hops[nb] {
                        let d = positions[m].distance(positions[nb]);
                        let better = match best {
                            None => true,
                            Some((_, _, bh, bd)) => h < bh || (h == bh && d < bd),
                        };
                        if better {
                            best = Some((m, nb, h, d));
                        }
                    }
                }
            }
            // Extreme fallback: no member has a reachable one-range
            // neighbor (the subgroup was already separated in M1 — cannot
            // happen for connected deployments, but stay safe): reference
            // the nearest reachable robot.
            let (root, reference) = match best {
                Some((r, nb, _, _)) => (r, nb),
                None => {
                    let m = group[0];
                    let nb = (0..n).filter(|&x| hops[x].is_some()).min_by(|&a, &b| {
                        positions[a]
                            .distance_sq(positions[m])
                            .total_cmp(&positions[b].distance_sq(positions[m]))
                    });
                    match nb {
                        Some(nb) => (m, nb),
                        None => continue, // no reachable robot at all
                    }
                }
            };

            // The whole subgroup marches parallel to the reference: each
            // member's displacement equals the reference's displacement.
            let shift = targets[reference] - positions[reference];
            let _ = root;
            for &m in group {
                targets[m] = positions[m] + shift;
                report.adjusted_robots.push(m);
            }
        }
    }

    finalize(report)
}

fn finalize(mut report: RepairReport) -> RepairReport {
    report.adjusted_robots.sort_unstable();
    report.adjusted_robots.dedup();
    report
}

/// Strengthened repair: runs the paper's boundary-based pass, then keeps
/// merging connected components of the *preserved-link graph* until it
/// is a single component.
///
/// The boundary heuristic of Sec. III-D-1 silently assumes the boundary
/// ring itself stays connected when mapped onto `M2`; for sparse swarms
/// (boundary gaps stretched beyond `r_c`) that assumption fails. This
/// pass restores the guarantee: every non-largest component of the
/// preserved graph adopts parallel motion relative to the nearest robot
/// of another component (preferring an actual one-range neighbor), which
/// preserves that attachment link for the whole transition; since the
/// preserved graph is then connected and preserved links hold at every
/// `t`, global connectivity `C = 1` follows for the straight-line leg.
///
/// # Panics
///
/// Same contract as [`repair_connectivity`].
pub fn repair_connectivity_strict(
    initial: &UnitDiskGraph,
    targets: &mut [Point],
    boundary: &[usize],
) -> RepairReport {
    let mut report = repair_connectivity(initial, targets, boundary);
    let (positions, range) = (initial.positions(), initial.range());
    let n = positions.len();

    for _ in 0..n {
        // Components of the preserved-link graph.
        let mut comp: Vec<Option<usize>> = vec![None; n];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if comp[start].is_some() {
                continue;
            }
            let gid = comps.len();
            let mut group = Vec::new();
            let mut q = VecDeque::from([start]);
            comp[start] = Some(gid);
            while let Some(u) = q.pop_front() {
                group.push(u);
                for &v in initial.neighbors(u) {
                    if comp[v].is_none() && targets[u].distance(targets[v]) <= range {
                        comp[v] = Some(gid);
                        q.push_back(v);
                    }
                }
            }
            comps.push(group);
        }
        if comps.len() <= 1 {
            break;
        }

        // Attach the smallest component to the best outside reference:
        // prefer an initial one-range neighbor (guaranteed attachment),
        // else the closest outside robot.
        let smallest = comps
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| g.len())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let group = &comps[smallest];
        let mut best: Option<(usize, usize, f64)> = None;
        for &m in group {
            for &nb in initial.neighbors(m) {
                if comp[nb] != Some(smallest) {
                    let d = positions[m].distance(positions[nb]);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((m, nb, d));
                    }
                }
            }
        }
        let reference = match best {
            Some((_, nb, _)) => nb,
            None => {
                // No initial link leaves the group (possible only for a
                // disconnected initial deployment): fall back to the
                // closest outside robot.
                let comp = &comp;
                match group
                    .iter()
                    .flat_map(|&m| {
                        (0..n)
                            .filter(move |&x| comp[x] != Some(smallest))
                            .map(move |x| (m, x))
                    })
                    .min_by(|&(m1, x1), &(m2, x2)| {
                        positions[m1]
                            .distance_sq(positions[x1])
                            .total_cmp(&positions[m2].distance_sq(positions[x2]))
                    }) {
                    Some((_, x)) => x,
                    None => break,
                }
            }
        };
        let shift = targets[reference] - positions[reference];
        for &m in group {
            targets[m] = positions[m] + shift;
            report.adjusted_robots.push(m);
        }
        report.isolated_subgroups += 1;
        report.rounds += 1;
    }

    finalize(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// The boundary-based pass over the unit-disk graph of `positions`
    /// at range 80.
    fn repair(positions: &[Point], targets: &mut [Point], boundary: &[usize]) -> RepairReport {
        repair_connectivity(&UnitDiskGraph::new(positions, 80.0), targets, boundary)
    }

    #[test]
    fn clean_transition_is_untouched() {
        // Rigid translation: everything preserved.
        let positions = vec![p(0.0, 0.0), p(60.0, 0.0), p(120.0, 0.0)];
        let mut targets: Vec<Point> = positions.iter().map(|q| p(q.x + 500.0, q.y)).collect();
        let before = targets.clone();
        let report = repair(&positions, &mut targets, &[0, 2]);
        assert!(report.is_clean());
        assert_eq!(report.isolated_subgroups, 0);
        assert_eq!(targets, before);
    }

    #[test]
    fn isolated_singleton_adopts_parallel_motion() {
        // Robot 2's proposed target strands it; it must be re-targeted
        // parallel to a neighbor.
        let positions = vec![p(0.0, 0.0), p(60.0, 0.0), p(120.0, 0.0)];
        let mut targets = vec![p(500.0, 0.0), p(560.0, 0.0), p(2000.0, 0.0)];
        let report = repair(&positions, &mut targets, &[0]);
        assert_eq!(report.adjusted_robots, vec![2]);
        assert_eq!(report.isolated_subgroups, 1);
        // Parallel to robot 1 (its only in-range neighbor with a path):
        // displacement (500, 0) applied to (120, 0).
        assert_eq!(targets[2], p(620.0, 0.0));
        // The repaired plan preserves the 1–2 link at the endpoints.
        assert!(targets[1].distance(targets[2]) <= 80.0);
    }

    #[test]
    fn isolated_pair_moves_as_a_block() {
        // Robots 3, 4 form a subgroup stranded by the proposal.
        let positions = vec![
            p(0.0, 0.0),
            p(60.0, 0.0),
            p(120.0, 0.0),
            p(180.0, 0.0),
            p(240.0, 0.0),
        ];
        let mut targets = vec![
            p(0.0, 500.0),
            p(60.0, 500.0),
            p(120.0, 500.0),
            p(5000.0, 0.0),
            p(5060.0, 0.0),
        ];
        let report = repair(&positions, &mut targets, &[0]);
        assert_eq!(report.adjusted_robots, vec![3, 4]);
        assert_eq!(report.isolated_subgroups, 1);
        // Root is 3 (neighbor 2 is reachable); subgroup shifts by robot
        // 2's displacement (0, 500).
        assert_eq!(targets[3], p(180.0, 500.0));
        assert_eq!(targets[4], p(240.0, 500.0));
        // Internal link and attachment link hold at the endpoints.
        assert!(targets[3].distance(targets[4]) <= 80.0);
        assert!(targets[2].distance(targets[3]) <= 80.0);
    }

    #[test]
    fn repaired_plan_has_full_hop_coverage() {
        // After repair, re-running the reachability analysis finds no
        // isolated vertices.
        let positions: Vec<Point> = (0..8).map(|i| p(i as f64 * 60.0, 0.0)).collect();
        let mut targets: Vec<Point> = positions
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if i >= 5 {
                    p(q.x * 3.0, 900.0) // strand the tail
                } else {
                    p(q.x, 400.0)
                }
            })
            .collect();
        let r1 = repair(&positions, &mut targets, &[0]);
        assert!(!r1.is_clean());
        let mut targets2 = targets.clone();
        let r2 = repair(&positions, &mut targets2, &[0]);
        assert!(r2.is_clean(), "second pass should find nothing: {r2:?}");
        assert_eq!(targets, targets2);
    }

    #[test]
    fn straight_line_motion_keeps_subgroup_connected_throughout() {
        // Simulate the synchronized linear motion and verify the network
        // stays connected at every sampled instant after repair.
        let positions: Vec<Point> = (0..6).map(|i| p(i as f64 * 60.0, 0.0)).collect();
        let mut targets: Vec<Point> = vec![
            p(0.0, 300.0),
            p(60.0, 300.0),
            p(120.0, 300.0),
            p(180.0, 300.0),
            p(800.0, -500.0),
            p(860.0, -500.0),
        ];
        repair(&positions, &mut targets, &[0]);
        for k in 0..=20 {
            let t = k as f64 / 20.0;
            let row: Vec<Point> = positions
                .iter()
                .zip(&targets)
                .map(|(a, b)| a.lerp(*b, t))
                .collect();
            assert!(
                UnitDiskGraph::new(&row, 80.0).is_connected(),
                "disconnected at t = {t}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let positions = vec![p(0.0, 0.0)];
        let mut targets = vec![p(0.0, 0.0), p(1.0, 1.0)];
        let _ = repair(&positions, &mut targets, &[]);
    }
}
