//! The fault-sweep grid: protocol survival as a function of loss rate
//! and crash count.
//!
//! For every cell of a (loss rate × crash count) grid this module runs
//! the robust marching protocols — ack/retransmit flooding and the
//! robust hop field ([`anr_netgraph::robust`]) — on the [`EventSim`]
//! over a deployment's connectivity graph under a seeded [`FaultPlan`],
//! and records:
//!
//! * **converged** — did the protocol terminate (all retransmission
//!   queues drained) within the round budget?
//! * **correct** — do the surviving robots' results match the
//!   centralized reference computed on the *live* topology (crashed
//!   robots excluded)?
//! * **rounds-to-quiescence** and **message counts** — the price paid,
//!   reported alongside `overhead_permille`, messages relative to the
//!   same protocol's zero-fault baseline (1000 = parity).
//!
//! Crashes are scheduled at round 0 (the robots never participate), so
//! the reference is well defined: the remaining swarm on the remaining
//! links. Everything is a pure function of the config's seed — two runs
//! of the same sweep are identical, cell by cell.
//!
//! [`FaultSweepReport::to_json`] emits the grid as a self-contained
//! JSON document for the `fault-sweep` CLI subcommand.

use anr_distsim::fault::FaultRng;
use anr_distsim::{EventSim, ExplicitTopology, FaultPlan, FaultStats, Node, SimError};
use anr_geom::Point;
use anr_netgraph::robust::{RetransmitConfig, RobustFloodNode, RobustHopFieldNode};
use anr_netgraph::UnitDiskGraph;
use anr_trace::{TraceValue, Tracer};

/// Which robust protocols a sweep exercises.
///
/// Flooding keeps `O(n)` state per robot (every robot learns every
/// value), so it is intentionally deselectable for large-`n` sweeps
/// where the hop field is the scalable representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProtocols {
    /// Ack/retransmit flooding of per-robot values.
    pub flooding: bool,
    /// The robust multi-source hop field.
    pub hop_field: bool,
}

impl Default for SweepProtocols {
    fn default() -> Self {
        SweepProtocols {
            flooding: true,
            hop_field: true,
        }
    }
}

/// Parameters of a fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Per-delivery loss probabilities to sweep (each in `[0, 1)`).
    pub loss_rates: Vec<f64>,
    /// Numbers of round-0 crashes to sweep (each `< n`).
    pub crash_counts: Vec<usize>,
    /// Master seed; every cell derives its own plan seed from it.
    pub seed: u64,
    /// Worker threads for the (loss × crashes) grid: every cell is an
    /// independent seeded simulation, so they fan out over
    /// [`anr_par::par_map`]. `0` (the default) means auto
    /// ([`anr_par::default_workers`]); `1` forces the serial order. The
    /// report — and its JSON — is byte-identical whatever the count.
    pub workers: usize,
    /// Protocols to sweep (at least one must be enabled).
    pub protocols: SweepProtocols,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            loss_rates: vec![0.0, 0.05, 0.1, 0.2],
            crash_counts: vec![0, 1, 2],
            seed: 42,
            workers: 0,
            protocols: SweepProtocols::default(),
        }
    }
}

/// One grid cell: survival of one protocol under one fault setting.
///
/// `Eq`-friendly on purpose (loss is stored in permille) so it can ride
/// inside [`ResilienceReport`](crate::ResilienceReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivalStats {
    /// Loss probability of this cell, in permille (137 = 13.7%).
    pub loss_permille: u32,
    /// Robots crashed at round 0.
    pub crashes: usize,
    /// Did the protocol terminate within the round budget?
    pub converged: bool,
    /// Do live robots' results match the centralized reference on the
    /// live topology?
    pub correct: bool,
    /// Rounds to quiescence (the round budget if not converged).
    pub rounds: usize,
    /// Messages accepted by the channel (retransmissions included).
    pub sent: usize,
    /// Messages delivered to live robots.
    pub delivered: usize,
    /// Messages dropped by the loss model.
    pub dropped_loss: usize,
    /// Messages dropped at a crashed recipient.
    pub dropped_crash: usize,
    /// `sent` relative to the protocol's zero-fault baseline, permille.
    pub overhead_permille: u32,
}

/// The sweep grid of one protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolGrid {
    /// Protocol name (`"flooding"`, `"hop_field"`).
    pub protocol: String,
    /// Rounds the zero-fault baseline took.
    pub baseline_rounds: usize,
    /// Messages the zero-fault baseline sent.
    pub baseline_sent: usize,
    /// One entry per (loss, crashes) pair, loss-major order.
    pub cells: Vec<SurvivalStats>,
}

/// A complete fault sweep over a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepReport {
    /// Robots in the deployment.
    pub robots: usize,
    /// Communication range used to build the connectivity graph.
    pub range: f64,
    /// Master seed of the sweep.
    pub seed: u64,
    /// The swept loss rates.
    pub loss_rates: Vec<f64>,
    /// The swept crash counts.
    pub crash_counts: Vec<usize>,
    /// One grid per protocol.
    pub protocols: Vec<ProtocolGrid>,
}

/// A cell's seed: one step of the fault plan's splitmix64 stream from a
/// state mixing the master seed with the cell's grid position.
fn cell_seed(master: u64, li: usize, ci: usize) -> u64 {
    FaultRng::from_state(master ^ ((li as u64) << 32) ^ (ci as u64 + 1)).next_u64()
}

/// Picks `count` distinct robots to crash, deterministically per seed.
fn pick_crashed(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = FaultRng::from_state(seed);
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    while picked.len() < count {
        let r = (rng.next_u64() % n as u64) as usize;
        if !picked.contains(&r) {
            picked.push(r);
        }
    }
    picked.sort_unstable();
    picked
}

/// Per-robot component ID over the topology with `crashed` removed;
/// `None` for crashed robots.
fn live_components(adjacency: &[Vec<usize>], crashed: &[bool]) -> Vec<Option<usize>> {
    let n = adjacency.len();
    let mut comp = vec![None; n];
    let mut next_id = 0;
    for start in 0..n {
        if crashed[start] || comp[start].is_some() {
            continue;
        }
        let mut queue = vec![start];
        comp[start] = Some(next_id);
        while let Some(u) = queue.pop() {
            for &v in &adjacency[u] {
                if !crashed[v] && comp[v].is_none() {
                    comp[v] = Some(next_id);
                    queue.push(v);
                }
            }
        }
        next_id += 1;
    }
    comp
}

/// Multi-source BFS hop field over the topology with `crashed` removed.
fn live_hops(adjacency: &[Vec<usize>], crashed: &[bool], sources: &[bool]) -> Vec<Option<usize>> {
    let n = adjacency.len();
    let mut hops = vec![None; n];
    let mut frontier: Vec<usize> = (0..n).filter(|&i| sources[i] && !crashed[i]).collect();
    for &s in &frontier {
        hops[s] = Some(0);
    }
    let mut d = 0;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in &adjacency[u] {
                if !crashed[v] && hops[v].is_none() {
                    hops[v] = Some(d);
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    hops
}

fn permille(x: f64) -> u32 {
    (x * 1000.0).round() as u32
}

/// Raw outcome of one cell run before overhead is filled in.
struct CellRun {
    converged: bool,
    correct: bool,
    stats: FaultStats,
}

/// Round budget of every cell run (and of each zero-fault baseline):
/// far above the 60–90 rounds a crash's retransmit give-up takes.
const MAX_ROUNDS: usize = 4000;

/// Runs one protocol under one plan, tolerating non-convergence (the
/// stats of a timed-out run are still reported): settle, then drain.
fn run_cell<N, F, C>(
    nodes: Vec<N>,
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
    settled: F,
    check: C,
) -> Result<CellRun, SimError>
where
    N: Node,
    F: Fn(&[N]) -> bool,
    C: Fn(&[N]) -> bool,
{
    let topology = ExplicitTopology::new(adjacency.to_vec())?;
    let mut sim = EventSim::new(nodes, topology, plan)?;
    let converged = match sim.run_until(MAX_ROUNDS, &settled) {
        Ok(_) => true,
        Err(SimError::NotQuiescent { .. }) => false,
        Err(e) => return Err(e),
    };
    if converged {
        // Drain the in-flight tail (stray acks, duplicates) so
        // delivery accounting is complete.
        match sim.run_until_quiet(MAX_ROUNDS) {
            Ok(_) | Err(SimError::NotQuiescent { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(CellRun {
        converged,
        correct: converged && check(sim.nodes()),
        stats: sim.stats(),
    })
}

fn flood_cell(
    adjacency: &[Vec<usize>],
    values: &[f64],
    plan: FaultPlan,
    crashed: &[bool],
) -> Result<CellRun, SimError> {
    let n = values.len();
    let comp = live_components(adjacency, crashed);
    let mut comp_sum: Vec<f64> = Vec::new();
    for i in 0..n {
        if let Some(c) = comp[i] {
            if c >= comp_sum.len() {
                comp_sum.resize(c + 1, 0.0);
            }
            comp_sum[c] += values[i];
        }
    }
    let expected: Vec<Option<f64>> = comp.iter().map(|c| c.map(|c| comp_sum[c])).collect();
    let nodes: Vec<RobustFloodNode> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            RobustFloodNode::new(i, v, n, adjacency[i].clone(), RetransmitConfig::default())
        })
        .collect();
    run_cell(
        nodes,
        adjacency,
        plan,
        |ns| ns.iter().all(RobustFloodNode::is_settled),
        move |ns| {
            ns.iter().enumerate().all(|(i, nd)| match expected[i] {
                Some(want) => (nd.sum() - want).abs() < 1e-9,
                None => true, // crashed: no claim
            })
        },
    )
}

fn hop_field_cell(
    adjacency: &[Vec<usize>],
    sources: &[bool],
    plan: FaultPlan,
    crashed: &[bool],
) -> Result<CellRun, SimError> {
    let expected = live_hops(adjacency, crashed, sources);
    let crashed_owned = crashed.to_vec();
    let nodes: Vec<RobustHopFieldNode> = sources
        .iter()
        .enumerate()
        .map(|(i, &is_source)| {
            RobustHopFieldNode::new(is_source, adjacency[i].clone(), RetransmitConfig::default())
        })
        .collect();
    run_cell(
        nodes,
        adjacency,
        plan,
        |ns| ns.iter().all(RobustHopFieldNode::is_settled),
        move |ns| {
            ns.iter()
                .enumerate()
                .all(|(i, nd)| crashed_owned[i] || nd.hops == expected[i])
        },
    )
}

/// Runs the full (loss × crashes) sweep over a deployment's
/// connectivity graph.
///
/// Protocols swept: ack/retransmit flooding (values `1..=n`) and the
/// robust hop field (sources: first and last robot). Crashes happen at
/// round 0, so correctness is judged against the centralized reference
/// on the live topology.
///
/// # Errors
///
/// [`SimError::InvalidFaultPlan`] when a loss rate is outside `[0, 1)`
/// or a crash count reaches the robot count; engine errors otherwise.
///
/// # Panics
///
/// Panics when `positions.len() < 2` or `range <= 0`.
pub fn run_fault_sweep(
    positions: &[Point],
    range: f64,
    config: &SweepConfig,
) -> Result<FaultSweepReport, SimError> {
    run_fault_sweep_traced(positions, range, config, &Tracer::disabled())
}

/// [`run_fault_sweep`] with structured tracing: the sweep runs inside a
/// `fault_sweep` span, and every finished grid cell emits a
/// `sweep_cell` summary event (protocol, loss, crashes, convergence,
/// rounds, messages). Cell events are emitted in the deterministic
/// loss-major fold order — **not** from the worker threads — so the
/// trace is byte-identical for any worker count. Tracing is observation
/// only: the report matches [`run_fault_sweep`] exactly.
///
/// # Errors
///
/// Same as [`run_fault_sweep`].
///
/// # Panics
///
/// Same as [`run_fault_sweep`].
pub fn run_fault_sweep_traced(
    positions: &[Point],
    range: f64,
    config: &SweepConfig,
    tracer: &Tracer,
) -> Result<FaultSweepReport, SimError> {
    let n = positions.len();
    assert!(n >= 2, "a sweep needs at least 2 robots");
    for &loss in &config.loss_rates {
        if !(0.0..1.0).contains(&loss) {
            return Err(SimError::InvalidFaultPlan {
                reason: format!("loss rate {loss} outside [0, 1)"),
            });
        }
    }
    for &c in &config.crash_counts {
        if c >= n {
            return Err(SimError::InvalidFaultPlan {
                reason: format!("cannot crash {c} of {n} robots"),
            });
        }
    }
    if !config.protocols.flooding && !config.protocols.hop_field {
        return Err(SimError::InvalidFaultPlan {
            reason: "no protocols selected for the sweep".to_string(),
        });
    }
    let _sweep_span = tracer.span_with(
        "fault_sweep",
        vec![
            ("robots", TraceValue::U64(n as u64)),
            (
                "cells",
                TraceValue::U64((config.loss_rates.len() * config.crash_counts.len()) as u64),
            ),
            ("seed", TraceValue::U64(config.seed)),
        ],
    );
    let graph = UnitDiskGraph::new(positions, range);
    let adjacency = graph.adjacency().to_vec();
    let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let sources: Vec<bool> = (0..n).map(|i| i == 0 || i == n - 1).collect();
    let no_crash = vec![false; n];

    // Zero-fault baselines (overhead denominators), one per enabled
    // protocol, in the fixed flooding-then-hop-field order.
    let mut grids = Vec::new();
    if config.protocols.flooding {
        let flood_base = flood_cell(
            &adjacency,
            &values,
            FaultPlan::reliable(config.seed),
            &no_crash,
        )?;
        grids.push(ProtocolGrid {
            protocol: "flooding".to_string(),
            baseline_rounds: flood_base.stats.rounds,
            baseline_sent: flood_base.stats.sent,
            cells: Vec::new(),
        });
    }
    if config.protocols.hop_field {
        let hop_base = hop_field_cell(
            &adjacency,
            &sources,
            FaultPlan::reliable(config.seed),
            &no_crash,
        )?;
        grids.push(ProtocolGrid {
            protocol: "hop_field".to_string(),
            baseline_rounds: hop_base.stats.rounds,
            baseline_sent: hop_base.stats.sent,
            cells: Vec::new(),
        });
    }

    // Every cell is an independent seeded simulation: fan them out and
    // fold the results back in loss-major order, so the report (and its
    // JSON) is byte-identical to the serial sweep for any worker count.
    let coords: Vec<(usize, usize)> = (0..config.loss_rates.len())
        .flat_map(|li| (0..config.crash_counts.len()).map(move |ci| (li, ci)))
        .collect();
    let cell_results = anr_par::par_map(&coords, config.workers, |&(li, ci)| {
        let loss = config.loss_rates[li];
        let crash_count = config.crash_counts[ci];
        let seed = cell_seed(config.seed, li, ci);
        let crashed_ids = pick_crashed(n, crash_count, seed ^ 0xC2A5);
        let mut crashed = vec![false; n];
        let mut plan = FaultPlan::reliable(seed);
        if loss > 0.0 {
            plan = plan.with_loss(loss);
        }
        for &r in &crashed_ids {
            crashed[r] = true;
            plan = plan.with_crash(0, r);
        }
        let mut runs = Vec::with_capacity(2);
        if config.protocols.flooding {
            runs.push(flood_cell(&adjacency, &values, plan.clone(), &crashed)?);
        }
        if config.protocols.hop_field {
            runs.push(hop_field_cell(&adjacency, &sources, plan, &crashed)?);
        }
        Ok(runs)
    });

    for (&(li, ci), runs) in coords.iter().zip(cell_results) {
        let runs: Vec<CellRun> = runs?;
        let loss = config.loss_rates[li];
        let crash_count = config.crash_counts[ci];
        for (grid, run) in grids.iter_mut().zip(runs) {
            let overhead = if grid.baseline_sent == 0 {
                1000
            } else {
                (run.stats.sent as u64 * 1000 / grid.baseline_sent as u64) as u32
            };
            if tracer.is_enabled() {
                tracer.event(
                    "sweep_cell",
                    &[
                        ("protocol", TraceValue::Str(grid.protocol.clone())),
                        ("loss_permille", TraceValue::U64(permille(loss) as u64)),
                        ("crashes", TraceValue::U64(crash_count as u64)),
                        ("converged", TraceValue::Bool(run.converged)),
                        ("correct", TraceValue::Bool(run.correct)),
                        ("rounds", TraceValue::U64(run.stats.rounds as u64)),
                        ("sent", TraceValue::U64(run.stats.sent as u64)),
                        ("overhead_permille", TraceValue::U64(overhead as u64)),
                    ],
                );
            }
            grid.cells.push(SurvivalStats {
                loss_permille: permille(loss),
                crashes: crash_count,
                converged: run.converged,
                correct: run.correct,
                rounds: run.stats.rounds,
                sent: run.stats.sent,
                delivered: run.stats.delivered,
                dropped_loss: run.stats.dropped_loss,
                dropped_crash: run.stats.dropped_crash,
                overhead_permille: overhead,
            });
        }
    }

    Ok(FaultSweepReport {
        robots: n,
        range,
        seed: config.seed,
        loss_rates: config.loss_rates.clone(),
        crash_counts: config.crash_counts.clone(),
        protocols: grids,
    })
}

fn json_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{x}")
    }
}

impl FaultSweepReport {
    /// Serializes the report as a self-contained JSON document
    /// (deterministic: same report, same bytes).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"robots\": {},\n", self.robots));
        s.push_str(&format!("  \"range\": {},\n", json_f64(self.range)));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        let losses: Vec<String> = self.loss_rates.iter().map(|&l| json_f64(l)).collect();
        s.push_str(&format!("  \"loss_rates\": [{}],\n", losses.join(", ")));
        let crashes: Vec<String> = self.crash_counts.iter().map(|c| c.to_string()).collect();
        s.push_str(&format!("  \"crash_counts\": [{}],\n", crashes.join(", ")));
        s.push_str("  \"protocols\": [\n");
        for (pi, grid) in self.protocols.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"protocol\": \"{}\",\n", grid.protocol));
            s.push_str(&format!(
                "      \"baseline\": {{\"rounds\": {}, \"sent\": {}}},\n",
                grid.baseline_rounds, grid.baseline_sent
            ));
            s.push_str("      \"cells\": [\n");
            for (i, c) in grid.cells.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"loss\": {}, \"crashes\": {}, \"converged\": {}, \
                     \"correct\": {}, \"rounds\": {}, \"sent\": {}, \"delivered\": {}, \
                     \"dropped_loss\": {}, \"dropped_crash\": {}, \"overhead_permille\": {}}}{}\n",
                    json_f64(c.loss_permille as f64 / 1000.0),
                    c.crashes,
                    c.converged,
                    c.correct,
                    c.rounds,
                    c.sent,
                    c.delivered,
                    c.dropped_loss,
                    c.dropped_crash,
                    c.overhead_permille,
                    if i + 1 < grid.cells.len() { "," } else { "" },
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if pi + 1 < self.protocols.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(rows: usize, cols: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let x = c as f64 * 55.0 + if r % 2 == 1 { 27.5 } else { 0.0 };
                pts.push(Point::new(x, r as f64 * 48.0));
            }
        }
        pts
    }

    fn small_config() -> SweepConfig {
        SweepConfig {
            loss_rates: vec![0.0, 0.15],
            crash_counts: vec![0, 1],
            seed: 7,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn protocol_selection_prunes_grids() {
        let pts = lattice(3, 4);
        let both = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        let hop_only = run_fault_sweep(
            &pts,
            80.0,
            &SweepConfig {
                protocols: SweepProtocols {
                    flooding: false,
                    hop_field: true,
                },
                ..small_config()
            },
        )
        .unwrap();
        assert_eq!(hop_only.protocols.len(), 1);
        assert_eq!(hop_only.protocols[0].protocol, "hop_field");
        // Deselecting flooding must not perturb the hop-field grid:
        // cells are seeded per coordinate, not per protocol order.
        assert_eq!(hop_only.protocols[0], both.protocols[1]);
        let none = run_fault_sweep(
            &pts,
            80.0,
            &SweepConfig {
                protocols: SweepProtocols {
                    flooding: false,
                    hop_field: false,
                },
                ..small_config()
            },
        );
        assert!(matches!(none, Err(SimError::InvalidFaultPlan { .. })));
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let pts = lattice(3, 4);
        let serial = run_fault_sweep(
            &pts,
            80.0,
            &SweepConfig {
                workers: 1,
                ..small_config()
            },
        )
        .unwrap();
        let parallel = run_fault_sweep(
            &pts,
            80.0,
            &SweepConfig {
                workers: 4,
                ..small_config()
            },
        )
        .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn sweep_is_deterministic() {
        let pts = lattice(3, 4);
        let a = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        let b = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn zero_fault_cell_matches_a_plain_reliable_run_exactly() {
        // The (loss 0, crashes 0) cell must report the same rounds and
        // messages as the robust protocol run to quiescence on the
        // reliable network.
        let pts = lattice(3, 4);
        let n = pts.len();
        let report = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        let graph = UnitDiskGraph::new(&pts, 80.0);
        let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let nodes: Vec<RobustFloodNode> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                RobustFloodNode::new(
                    i,
                    v,
                    n,
                    graph.adjacency()[i].clone(),
                    RetransmitConfig::default(),
                )
            })
            .collect();
        let topology = ExplicitTopology::new(graph.adjacency().to_vec()).unwrap();
        let mut sim = EventSim::new(nodes, topology, FaultPlan::reliable(0)).unwrap();
        let stats = sim.run_until_quiet(3000).unwrap();

        let flood = &report.protocols[0];
        assert_eq!(flood.protocol, "flooding");
        let cell = flood
            .cells
            .iter()
            .find(|c| c.loss_permille == 0 && c.crashes == 0)
            .expect("zero-fault cell present");
        assert_eq!(cell.rounds, stats.rounds, "rounds match the reliable run");
        assert_eq!(cell.sent, stats.sent, "messages match the reliable run");
        assert_eq!(cell.dropped_loss, 0);
        assert_eq!(
            cell.overhead_permille, 1000,
            "baseline is its own overhead unit"
        );
        assert!(cell.converged && cell.correct);
    }

    #[test]
    fn lossy_cells_converge_correctly_with_overhead() {
        let pts = lattice(3, 4);
        let report = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        for grid in &report.protocols {
            let lossy = grid
                .cells
                .iter()
                .find(|c| c.loss_permille == 150 && c.crashes == 0)
                .unwrap();
            assert!(
                lossy.converged,
                "{}: converged under 15% loss",
                grid.protocol
            );
            assert!(lossy.correct, "{}: correct under 15% loss", grid.protocol);
            assert!(lossy.dropped_loss > 0);
            assert!(
                lossy.overhead_permille > 1000,
                "{}: retransmissions cost messages",
                grid.protocol
            );
        }
    }

    #[test]
    fn crash_cells_judged_against_live_topology() {
        let pts = lattice(3, 4);
        let report = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        for grid in &report.protocols {
            let crashed = grid
                .cells
                .iter()
                .find(|c| c.loss_permille == 0 && c.crashes == 1)
                .unwrap();
            assert!(crashed.converged, "{}", grid.protocol);
            assert!(
                crashed.correct,
                "{}: live robots match the live-topology reference",
                grid.protocol
            );
        }
    }

    #[test]
    fn json_has_expected_shape() {
        let pts = lattice(2, 3);
        let report = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        let json = report.to_json();
        for key in [
            "\"robots\": 6",
            "\"range\": 80.0",
            "\"loss_rates\": [0.0, 0.15]",
            "\"crash_counts\": [0, 1]",
            "\"protocol\": \"flooding\"",
            "\"protocol\": \"hop_field\"",
            "\"overhead_permille\"",
            "\"baseline\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn traced_sweep_is_observation_only_and_worker_independent() {
        let pts = lattice(3, 4);
        let plain = run_fault_sweep(&pts, 80.0, &small_config()).unwrap();
        let traced_run = |workers: usize| {
            let tracer = Tracer::ring(65_536);
            let report = run_fault_sweep_traced(
                &pts,
                80.0,
                &SweepConfig {
                    workers,
                    ..small_config()
                },
                &tracer,
            )
            .unwrap();
            let lines: Vec<String> = tracer.events().iter().map(anr_trace::jsonl_line).collect();
            (report, lines)
        };
        let (r1, l1) = traced_run(1);
        let (r4, l4) = traced_run(4);
        assert_eq!(plain, r1, "tracing must not perturb the sweep");
        assert_eq!(r1, r4);
        assert_eq!(l1, l4, "trace byte-identical for any worker count");
        // One summary event per (protocol × loss × crash) cell.
        let cells = l1.iter().filter(|l| l.contains("sweep_cell")).count();
        assert_eq!(cells, 2 * 2 * 2);
    }

    #[test]
    fn invalid_configs_rejected() {
        let pts = lattice(2, 2);
        let mut cfg = small_config();
        cfg.loss_rates = vec![1.5];
        assert!(matches!(
            run_fault_sweep(&pts, 80.0, &cfg),
            Err(SimError::InvalidFaultPlan { .. })
        ));
        let mut cfg = small_config();
        cfg.crash_counts = vec![4];
        assert!(matches!(
            run_fault_sweep(&pts, 80.0, &cfg),
            Err(SimError::InvalidFaultPlan { .. })
        ));
    }
}
