//! Golden digests of every engine-facing output.
//!
//! Each case runs a message-passing protocol and folds what it
//! produced into an FNV-1a 64 digest: results, final node states
//! (`Persist` bytes where the node type has a codec), `FaultStats`,
//! `NotQuiescent` recipients and, for the robust runs, the
//! `EventSim::save()` bytes at the end of the run (which carry the
//! fault RNG state). The table at the bottom pins every digest, so a
//! change to the engine's delivery order, random draws or accounting
//! shows up as a named mismatch. On a mismatch the test prints the
//! whole recomputed table.

use anr_distsim::snapshot::{Persist, SnapshotWriter};
use anr_distsim::{
    DelayModel, Envelope, EventSim, ExplicitTopology, FaultPlan, FaultStats, Node, Outbox, SimError,
};
use anr_eventsim::{
    run_event_boundary_loop_accounted, run_event_flood_sum_accounted, run_event_hop_field_accounted,
};
use anr_marching::coverage::deploy_exactly;
use anr_marching::geom::Point;
use anr_marching::harmonic::{distributed_harmonic_map, DistributedHarmonicConfig};
use anr_marching::march::{
    distributed_objective, run_fault_sweep, MarchProblem, ObjectiveError, SweepConfig,
};
use anr_marching::mesh::delaunay;
use anr_marching::netgraph::protocols::{run_boundary_loop, run_flood_sum, run_hop_field};
use anr_marching::netgraph::robust::{
    RetransmitConfig, RobustBoundaryLoopNode, RobustFloodNode, RobustHopFieldNode,
};
use anr_marching::netgraph::{
    extract_triangulation, extract_triangulation_distributed, UnitDiskGraph,
};
use anr_marching::scenarios::{build_scenario, m1_standard, ScenarioParams};
use std::fmt::Debug;

/// FNV-1a 64 accumulator.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a value's `Debug` rendering (exact for integers, and for
    /// `f64`, whose `Debug` output round-trips).
    fn debug(&mut self, value: &impl Debug) -> &mut Self {
        self.bytes(format!("{value:?}").as_bytes())
    }

    fn stats(&mut self, s: &FaultStats) -> &mut Self {
        self.debug(&[
            s.rounds,
            s.sent,
            s.delivered,
            s.dropped_loss,
            s.dropped_crash,
            s.duplicated,
            s.delayed,
            s.crashes,
            s.recoveries,
        ])
    }

    fn persist<P: Persist>(&mut self, value: &P) -> &mut Self {
        let mut w = SnapshotWriter::new();
        value.persist(&mut w);
        self.bytes(&w.into_bytes())
    }

    fn error(&mut self, err: &SimError) -> &mut Self {
        match err {
            SimError::NotQuiescent {
                max_rounds,
                pending,
            } => self.debug(&("NotQuiescent", max_rounds, pending)),
            other => self.debug(&other.to_string()),
        }
    }
}

/// Collects `(case, digest)` pairs.
#[derive(Default)]
struct Table(Vec<(String, u64)>);

impl Table {
    fn push(&mut self, case: impl Into<String>, digest: &Digest) {
        self.0.push((case.into(), digest.0));
    }
}

fn lattice(cols: usize, rows: usize, pitch: f64) -> Vec<Point> {
    (0..cols * rows)
        .map(|i| Point::new((i % cols) as f64 * pitch, (i / cols) as f64 * pitch))
        .collect()
}

fn lattice_adjacency(cols: usize, rows: usize) -> Vec<Vec<usize>> {
    UnitDiskGraph::new(&lattice(cols, rows, 55.0), 80.0)
        .adjacency()
        .to_vec()
}

fn nasty_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed)
        .with_loss(0.3)
        .with_delay(DelayModel::Uniform { min: 0, max: 2 })
        .with_duplication(0.1)
}

fn flood_nodes(values: &[f64], adjacency: &[Vec<usize>]) -> Vec<RobustFloodNode> {
    let n = values.len();
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            RobustFloodNode::new(i, v, n, adjacency[i].clone(), RetransmitConfig::default())
        })
        .collect()
}

fn hop_nodes(sources: &[bool], adjacency: &[Vec<usize>]) -> Vec<RobustHopFieldNode> {
    sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            RobustHopFieldNode::new(s, adjacency[i].clone(), RetransmitConfig::default())
        })
        .collect()
}

fn loop_nodes(ids: &[usize]) -> (Vec<RobustBoundaryLoopNode>, Vec<Vec<usize>>) {
    let n = ids.len();
    let cfg = RetransmitConfig::default();
    let initiator = (0..n).min_by_key(|&i| ids[i]).unwrap_or(0);
    let restart_after = (n + 2) * (cfg.interval + 1);
    let nodes = (0..n)
        .map(|i| {
            RobustBoundaryLoopNode::new(i, i == initiator, (i + 1) % n, cfg, restart_after, 16)
        })
        .collect();
    let ring = (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect();
    (nodes, ring)
}

/// The robust runners' shape on a bare `EventSim`: settle, then drain
/// the in-flight tail. Returns the final stats.
fn settle_and_drain<N: Node>(
    sim: &mut EventSim<N>,
    max_rounds: usize,
    settled: fn(&N) -> bool,
) -> FaultStats {
    let stats = sim
        .run_until(max_rounds, |nodes| nodes.iter().all(settled))
        .expect("settles");
    sim.run_until_quiet(max_rounds.saturating_sub(stats.rounds))
        .expect("drains")
}

/// Digest of a robust run: runner results and stats, plus the final
/// node states and snapshot of the same run driven directly.
fn robust_digest<N, R>(results: &R, stats: &FaultStats, sim: &EventSim<N>) -> Digest
where
    N: Node + Persist + Clone,
    N::Msg: Persist,
    R: Debug,
{
    let mut d = Digest::new();
    d.debug(results)
        .stats(stats)
        .persist(&sim.nodes().to_vec())
        .bytes(&sim.save());
    d
}

// ---------------------------------------------------------------------
// The robust protocols under loss, delay, duplication and churn
// ---------------------------------------------------------------------

fn flood_case(
    table: &mut Table,
    case: &str,
    cols: usize,
    rows: usize,
    values: fn(usize) -> f64,
    plan: FaultPlan,
    max_rounds: usize,
) {
    let adjacency = lattice_adjacency(cols, rows);
    let values: Vec<f64> = (0..adjacency.len()).map(values).collect();
    let cfg = RetransmitConfig::default();
    let (outcome, _) =
        run_event_flood_sum_accounted(&values, &adjacency, plan.clone(), cfg, max_rounds)
            .expect("runner");
    let topology = ExplicitTopology::new(adjacency.clone()).unwrap();
    let mut sim = EventSim::new(flood_nodes(&values, &adjacency), topology, plan).unwrap();
    let stats = settle_and_drain(&mut sim, max_rounds, RobustFloodNode::is_settled);
    assert_eq!(stats, outcome.stats, "{case}: runner shape");
    table.push(case, &robust_digest(&outcome.results, &outcome.stats, &sim));
}

fn hop_case(
    table: &mut Table,
    case: &str,
    adjacency: &[Vec<usize>],
    sources: &[bool],
    plan: FaultPlan,
    max_rounds: usize,
) {
    let cfg = RetransmitConfig::default();
    let (outcome, _) =
        run_event_hop_field_accounted(sources, adjacency, plan.clone(), cfg, max_rounds)
            .expect("runner");
    let topology = ExplicitTopology::new(adjacency.to_vec()).unwrap();
    let mut sim = EventSim::new(hop_nodes(sources, adjacency), topology, plan).unwrap();
    let stats = settle_and_drain(&mut sim, max_rounds, RobustHopFieldNode::is_settled);
    assert_eq!(stats, outcome.stats, "{case}: runner shape");
    table.push(case, &robust_digest(&outcome.results, &outcome.stats, &sim));
}

fn loop_case(table: &mut Table, case: &str, ids: &[usize], plan: FaultPlan, max_rounds: usize) {
    let cfg = RetransmitConfig::default();
    let (outcome, _) =
        run_event_boundary_loop_accounted(ids, plan.clone(), cfg, max_rounds).expect("runner");
    let (nodes, ring) = loop_nodes(ids);
    let topology = ExplicitTopology::new(ring).unwrap();
    let mut sim = EventSim::new(nodes, topology, plan).unwrap();
    let stats = settle_and_drain(&mut sim, max_rounds, RobustBoundaryLoopNode::is_settled);
    assert_eq!(stats, outcome.stats, "{case}: runner shape");
    table.push(case, &robust_digest(&outcome.results, &outcome.stats, &sim));
}

fn robust_cases(table: &mut Table) {
    flood_case(
        table,
        "flood/reliable",
        6,
        4,
        |i| i as f64 * 1.5 + 1.0,
        FaultPlan::reliable(7),
        400,
    );
    for seed in [1u64, 2, 3, 42, 99] {
        flood_case(
            table,
            &format!("flood/nasty/{seed}"),
            5,
            4,
            |i| (i * i) as f64 * 0.25,
            nasty_plan(seed),
            2000,
        );
    }
    let adjacency = lattice_adjacency(6, 3);
    let n = adjacency.len();
    let sources: Vec<bool> = (0..n).map(|i| i == 0 || i == n - 1).collect();
    for seed in [5u64, 17] {
        let plan = FaultPlan::reliable(seed)
            .with_loss(0.15)
            .with_crash(3, 7)
            .with_recovery(12, 7)
            .with_crash(0, 4)
            .with_recovery(9, 4);
        hop_case(
            table,
            &format!("hop/churn/{seed}"),
            &adjacency,
            &sources,
            plan,
            2000,
        );
    }
    for seed in [3u64, 21] {
        let plan = FaultPlan::reliable(seed).with_loss(0.2);
        loop_case(
            table,
            &format!("loop/loss/{seed}"),
            &[9, 4, 11, 2, 7, 5, 13, 8],
            plan,
            4000,
        );
    }
}

/// Step-level run: the stats, node states and snapshot after every
/// single round.
fn stepwise_case(table: &mut Table) {
    let adjacency = lattice_adjacency(4, 3);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64).collect();
    let plan = nasty_plan(11).with_crash(4, 2).with_recovery(10, 2);
    let topology = ExplicitTopology::new(adjacency.clone()).unwrap();
    let mut sim = EventSim::new(flood_nodes(&values, &adjacency), topology, plan).unwrap();
    let mut d = Digest::new();
    for _ in 0..40 {
        let stats = sim.run_rounds(1).unwrap();
        d.stats(&stats)
            .persist(&sim.nodes().to_vec())
            .bytes(&sim.save());
    }
    table.push("stepwise/flood", &d);
}

/// A flood over a 6 × 4 unit-disk lattice, run until settled (no
/// drain).
fn grid_case(table: &mut Table) {
    let pts = lattice(6, 4, 55.0);
    let adjacency = UnitDiskGraph::new(&pts, 80.0).adjacency().to_vec();
    let values: Vec<f64> = (0..pts.len()).map(|i| i as f64 * 2.0).collect();
    let settled = |ns: &[RobustFloodNode]| ns.iter().all(RobustFloodNode::is_settled);
    let topology = ExplicitTopology::new(adjacency.clone()).unwrap();
    let mut explicit =
        EventSim::new(flood_nodes(&values, &adjacency), topology, nasty_plan(23)).unwrap();
    let stats = explicit.run_until(2000, settled).unwrap();
    let mut d = Digest::new();
    d.stats(&stats)
        .persist(&explicit.nodes().to_vec())
        .bytes(&explicit.save());
    table.push("grid/flood", &d);
}

/// `NotQuiescent` under a 5-round fixed delay and a 2-round budget.
fn not_quiescent_case(table: &mut Table) {
    let adjacency = lattice_adjacency(3, 3);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64).collect();
    let plan = FaultPlan::reliable(31).with_delay(DelayModel::Fixed(5));
    let topology = ExplicitTopology::new(adjacency.clone()).unwrap();
    let mut sim = EventSim::new(flood_nodes(&values, &adjacency), topology, plan).unwrap();
    let err = sim.run_until_quiet(2).expect_err("times out");
    let mut d = Digest::new();
    d.error(&err)
        .stats(&sim.stats())
        .persist(&sim.nodes().to_vec())
        .bytes(&sim.save());
    table.push("not_quiescent/flood", &d);
}

/// `run_until`'s cap is an absolute round count.
fn run_until_cap_case(table: &mut Table) {
    let adjacency = lattice_adjacency(3, 2);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64).collect();
    let plan = FaultPlan::reliable(13);
    let topology = ExplicitTopology::new(adjacency.clone()).unwrap();
    let mut sim = EventSim::new(flood_nodes(&values, &adjacency), topology, plan).unwrap();
    sim.run_rounds(3).unwrap();
    let err = sim.run_until(2, |_| false).expect_err("cap exceeded");
    let mut d = Digest::new();
    d.error(&err)
        .stats(&sim.stats())
        .persist(&sim.nodes().to_vec())
        .bytes(&sim.save());
    table.push("run_until_cap/flood", &d);
}

// ---------------------------------------------------------------------
// Reliable-network runs
// ---------------------------------------------------------------------

/// Gossip node whose state records its exact delivery trace.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Gossip {
    id: usize,
    min_seen: usize,
    trace: Vec<(usize, usize)>,
}

impl Node for Gossip {
    type Msg = usize;
    fn on_start(&mut self, out: &mut Outbox<usize>) {
        out.broadcast(self.id);
    }
    fn on_round(&mut self, _round: usize, inbox: &[Envelope<usize>], out: &mut Outbox<usize>) {
        for env in inbox {
            self.trace.push((env.from, env.msg));
            if env.msg < self.min_seen {
                self.min_seen = env.msg;
                out.broadcast(env.msg);
            }
        }
    }
}

/// A path `0-1-…-(n-1)` plus `extra` seeded chords.
fn random_connected(n: usize, extra: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut v = Vec::new();
            if i > 0 {
                v.push(i - 1);
            }
            if i + 1 < n {
                v.push(i + 1);
            }
            v
        })
        .collect();
    let mut state = seed ^ 0x9E3779B97F4A7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for _ in 0..extra {
        let u = (next() % n as u64) as usize;
        let v = (next() % n as u64) as usize;
        if u != v && !adj[u].contains(&v) {
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    adj
}

fn gossip_case(table: &mut Table, n: usize, extra: usize, topo_seed: u64, plan_seed: u64) {
    let adjacency = random_connected(n, extra, topo_seed);
    let nodes = || -> Vec<Gossip> {
        (0..n)
            .map(|id| Gossip {
                id,
                min_seen: id,
                trace: Vec::new(),
            })
            .collect()
    };
    let topology = ExplicitTopology::new(adjacency).unwrap();
    let mut sim = EventSim::new(nodes(), topology, FaultPlan::reliable(plan_seed)).unwrap();
    let stats = sim.run_until_quiet(4 * n + 8).unwrap();
    let mut d = Digest::new();
    d.stats(&stats).debug(&sim.nodes());
    table.push(format!("gossip/{n}/{extra}/{topo_seed}/{plan_seed}"), &d);
}

fn reliable_cases(table: &mut Table) {
    for (n, extra, topo_seed, plan_seed) in [
        (3, 0, 0, 0),
        (8, 3, 11, 5),
        (17, 7, 123, 999),
        (31, 11, 77, 42),
    ] {
        gossip_case(table, n, extra, topo_seed, plan_seed);
    }
}

// ---------------------------------------------------------------------
// The pipeline's distributed protocols
// ---------------------------------------------------------------------

fn paper_deployment() -> Vec<Point> {
    deploy_exactly(&m1_standard().unwrap(), 144).unwrap()
}

fn netgraph_cases(table: &mut Table) {
    let positions = paper_deployment();
    let g = UnitDiskGraph::new(&positions, 80.0);
    let mesh = extract_triangulation(&positions, 80.0).unwrap();
    let outer = mesh.boundary_loops().into_iter().next().unwrap();
    let mut sources = vec![false; positions.len()];
    for &v in &outer {
        sources[v] = true;
    }
    let values: Vec<f64> = (0..positions.len()).map(|i| i as f64 * 0.5).collect();
    let mut d = Digest::new();
    d.debug(&run_flood_sum(&values, g.adjacency()).unwrap());
    table.push("netgraph/flood_sum", &d);
    let mut d = Digest::new();
    d.debug(&run_hop_field(&sources, g.adjacency()).unwrap());
    table.push("netgraph/hop_field", &d);
    let mut d = Digest::new();
    d.debug(&run_boundary_loop(&outer).unwrap());
    table.push("netgraph/boundary_loop", &d);
    let mut d = Digest::new();
    d.debug(&extract_triangulation_distributed(&positions, 80.0).unwrap());
    table.push("netgraph/triangulation", &d);
}

fn harmonic_case(table: &mut Table) {
    let pts: Vec<Point> = (0..36)
        .map(|i| Point::new((i % 6) as f64 * 10.0, (i / 6) as f64 * 10.0))
        .collect();
    let mesh = delaunay(&pts).unwrap();
    let out = distributed_harmonic_map(&mesh, &DistributedHarmonicConfig::default()).unwrap();
    let positions: Vec<Point> = (0..mesh.num_vertices())
        .map(|v| out.map.position(v))
        .collect();
    let mut d = Digest::new();
    d.debug(&(out.rounds, out.messages)).debug(&positions);
    table.push("harmonic/grid6", &d);
}

fn hex_lattice(rows: usize, cols: usize, s: f64) -> Vec<Point> {
    let mut pts = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let x = c as f64 * s + if r % 2 == 1 { s / 2.0 } else { 0.0 };
            pts.push(Point::new(x, r as f64 * s * 3f64.sqrt() / 2.0));
        }
    }
    pts
}

fn objective_cases(table: &mut Table) {
    let positions = hex_lattice(4, 5, 60.0);
    let n = positions.len();
    let shifted: Vec<Point> = positions
        .iter()
        .map(|q| Point::new(q.x + 700.0, q.y))
        .collect();
    let scrambled: Vec<Point> = (0..n)
        .map(|i| {
            let q = positions[(i * 7) % n];
            Point::new(q.x + 700.0, q.y + 100.0)
        })
        .collect();
    for (case, targets) in [("shifted", &shifted), ("scrambled", &scrambled)] {
        let obj = distributed_objective(&positions, targets, 80.0, FaultPlan::reliable(0)).unwrap();
        assert!(
            obj.agreement,
            "objective/{case}: reliable network disagreement"
        );
        let mut d = Digest::new();
        d.debug(&(
            obj.stable_link_ratio,
            obj.total_distance,
            obj.stats.rounds,
            obj.stats.sent,
        ));
        table.push(format!("objective/{case}"), &d);
    }
    let mut plans = vec![
        ("reliable", FaultPlan::reliable(99)),
        ("crash", FaultPlan::reliable(0).with_crash(0, 11)),
    ];
    for seed in 0..6 {
        plans.push(("loss", FaultPlan::reliable(seed).with_loss(0.5)));
    }
    for (i, (case, plan)) in plans.into_iter().enumerate() {
        let mut d = Digest::new();
        match distributed_objective(&positions, &shifted, 80.0, plan) {
            Ok(out) => {
                d.debug(&(
                    out.agreement,
                    out.stable_link_ratio,
                    out.total_distance,
                    out.stats.rounds,
                ))
                .stats(&out.stats);
            }
            Err(ObjectiveError::Sim(e)) => {
                d.error(&e);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        table.push(format!("objective_under_faults/{i}/{case}"), &d);
    }
}

/// `anr fault-sweep --robots <robots> --loss .. --crashes ..` (seed 42):
/// scenario 1's deployment at separation 10.
fn sweep_case(table: &mut Table, case: &str, robots: usize, loss: &[f64], crashes: &[usize]) {
    let s = build_scenario(
        1,
        &ScenarioParams {
            robots,
            separation_ranges: 10.0,
            ..Default::default()
        },
    )
    .unwrap();
    let problem = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range).unwrap();
    let config = SweepConfig {
        loss_rates: loss.to_vec(),
        crash_counts: crashes.to_vec(),
        seed: 42,
        ..SweepConfig::default()
    };
    let json = run_fault_sweep(&problem.positions, problem.range, &config)
        .unwrap()
        .to_json();
    let mut d = Digest::new();
    d.bytes(json.as_bytes());
    table.push(case, &d);
}

fn sweep_cases(table: &mut Table) {
    sweep_case(
        table,
        "sweep/cli_defaults",
        64,
        &[0.0, 0.05, 0.1, 0.2],
        &[0, 1, 2],
    );
    sweep_case(table, "sweep/tools", 256, &[0.0, 0.05], &[0, 1]);
}

/// Digests recorded before the synchronous simulators were removed,
/// by this test in a form that also asserted, case by case, that the
/// round-stepping simulators and the event engine agreed.
const GOLDEN: &[(&str, u64)] = &[
    ("flood/reliable", 0xe87abf1adc7b3cd1),
    ("flood/nasty/1", 0x226e25e4b2938827),
    ("flood/nasty/2", 0x85d0d0689c21d306),
    ("flood/nasty/3", 0x29544ee7e2da9aa3),
    ("flood/nasty/42", 0x45055e92ce2d35a8),
    ("flood/nasty/99", 0x04e8b3ee40a8bf6f),
    ("hop/churn/5", 0x1529211c1d205242),
    ("hop/churn/17", 0x338739130eb8d03f),
    ("loop/loss/3", 0xe293a87a9e1f82ee),
    ("loop/loss/21", 0x44561a6bb86175fc),
    ("stepwise/flood", 0x28b5508e3a9e5538),
    ("grid/flood", 0xcb0cdf6f358a51c3),
    ("not_quiescent/flood", 0x364b4a881be54f84),
    ("run_until_cap/flood", 0x72809aab6e6333ed),
    ("gossip/3/0/0/0", 0x843902f0ace0918f),
    ("gossip/8/3/11/5", 0xb892c71700c85572),
    ("gossip/17/7/123/999", 0x01a53d8d10b94d8f),
    ("gossip/31/11/77/42", 0xb0e12d10e07f27d6),
    ("netgraph/flood_sum", 0x15b73682c00ba8a1),
    ("netgraph/hop_field", 0x64873f75f7f6c6b5),
    ("netgraph/boundary_loop", 0xf2638c5d7a693d98),
    ("netgraph/triangulation", 0x0f17ee41f9d25be3),
    ("harmonic/grid6", 0x5bddd9145bda778d),
    ("objective/shifted", 0x24132bc55b7890f3),
    ("objective/scrambled", 0xe1035d93806083ab),
    ("objective_under_faults/0/reliable", 0xf01c48400df53b50),
    ("objective_under_faults/1/crash", 0x8492ed9bad5723ec),
    ("objective_under_faults/2/loss", 0x5a8e1b2dcae8caa3),
    ("objective_under_faults/3/loss", 0x957390f5b90d239f),
    ("objective_under_faults/4/loss", 0xa60b372f63ee5294),
    ("objective_under_faults/5/loss", 0x9d7e1b3e2da61d3e),
    ("objective_under_faults/6/loss", 0x708a8bc798322ff8),
    ("objective_under_faults/7/loss", 0x9bf0de889145e937),
    ("sweep/cli_defaults", 0xc3bc3dec33225266),
    ("sweep/tools", 0x91d9001bf0991da2),
];

#[test]
fn engine_outputs_match_the_golden_digests() {
    let mut table = Table::default();
    robust_cases(&mut table);
    stepwise_case(&mut table);
    grid_case(&mut table);
    not_quiescent_case(&mut table);
    run_until_cap_case(&mut table);
    reliable_cases(&mut table);
    netgraph_cases(&mut table);
    harmonic_case(&mut table);
    objective_cases(&mut table);
    sweep_cases(&mut table);
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(c, d)| (c.to_string(), d)).collect();
    if table.0 != golden {
        let rendered: Vec<String> = table
            .0
            .iter()
            .map(|(c, d)| format!("    ({c:?}, {d:#018x}),"))
            .collect();
        panic!("digests differ; recomputed table:\n{}", rendered.join("\n"));
    }
}
