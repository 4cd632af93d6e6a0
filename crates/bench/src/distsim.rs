//! n-scaling trajectory of the discrete-event engine.
//!
//! [`run_distsim_bench`] times the accounted robust-protocol runs on square
//! lattice deployments of 10⁴ and ~10⁵ robots (10⁶ behind
//! [`DistsimBenchOptions::large`]), the checkpoint save/restore path at
//! every size (verifying the resumed run stays byte-identical), and a
//! ~10⁵-robot fault sweep on the event engine. The result is a
//! deterministic-schema JSON document (`BENCH_distsim.json` at the repo
//! root) plus the 10⁴-robot checkpoint bytes as a reproducible
//! artifact.
//!
//! Flooding is deliberately absent from the scaling series: every
//! flooding participant keeps `O(n)` state, so the protocol itself —
//! not the engine — is the wall at these sizes. The hop field and the
//! boundary loop are the scalable representatives.

use crate::BenchError;
use anr_distsim::snapshot::Persist;
use anr_distsim::{EventSim, ExplicitTopology, FaultPlan, Node};
use anr_eventsim::{
    run_event_boundary_loop_accounted, run_event_hop_field_accounted, RHOP_MSG_BITS, RLOOP_MSG_BITS,
};
use anr_geom::Point;
use anr_march::{run_fault_sweep, SweepConfig, SweepProtocols};
use anr_netgraph::robust::{RetransmitConfig, RobustHopFieldNode};
use anr_netgraph::UnitDiskGraph;
use anr_trace::Tracer;

use crate::timing::median_ms;

/// Lattice pitch in meters; with an 80 m range each robot hears its
/// 8-neighborhood (55√2 ≈ 77.8 < 80).
const PITCH: f64 = 55.0;
/// Communication range in meters.
const RANGE: f64 = 80.0;

/// What to bench and how hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistsimBenchOptions {
    /// Smoke mode: one repeat per timing — fast enough for CI.
    pub smoke: bool,
    /// Timed repetitions per stage; the median is reported.
    pub repeats: usize,
    /// Include the 10⁶-robot series (minutes, not seconds).
    pub large: bool,
}

/// One protocol at one swarm size.
#[derive(Debug, Clone, PartialEq)]
pub struct DistsimSeries {
    /// Protocol name (`"hop_field"`, `"boundary_loop"`).
    pub protocol: &'static str,
    /// Participants (swarm size; ring length for the boundary loop).
    pub robots: usize,
    /// Rounds the run took to settle and drain.
    pub rounds: usize,
    /// Messages accepted by the fault channel.
    pub sent: usize,
    /// Median wall time of the full run, milliseconds.
    pub run_ms: f64,
    /// Median wall time of one mid-run [`EventSim::save`], ms.
    pub save_ms: f64,
    /// Median wall time of one [`EventSim::restore`], ms.
    pub restore_ms: f64,
    /// Size of the mid-run snapshot, bytes.
    pub ckpt_bytes: usize,
    /// Did the restored run stay byte-identical to the uninterrupted
    /// one after both advanced the same number of rounds?
    pub resume_identical: bool,
    /// Largest single payload observed on any link, in bits (runtime
    /// CONGEST accounting).
    pub peak_payload_bits: u32,
    /// The protocol's static per-message bit budget from
    /// `lint.models.toml`; the run errors if observation exceeds it.
    pub static_payload_bits: u32,
    /// Most messages offered to the fault model in one round.
    pub peak_round_msgs: u64,
}

/// The event-engine fault sweep timing.
#[derive(Debug, Clone, PartialEq)]
pub struct DistsimSweepTiming {
    /// Robots in the swept deployment.
    pub robots: usize,
    /// Grid cells per protocol.
    pub cells: usize,
    /// Cells whose protocol run converged within the round budget.
    pub converged_cells: usize,
    /// Wall time of the whole sweep, milliseconds.
    pub total_ms: f64,
}

/// The full distsim benchmark trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct DistsimBenchReport {
    /// Logical cores of the machine the numbers were taken on.
    pub cores: usize,
    /// Repeats per timing.
    pub repeats: usize,
    /// Was this a smoke run?
    pub smoke: bool,
    /// Was the 10⁶-robot series included?
    pub large: bool,
    /// One entry per (protocol × size).
    pub series: Vec<DistsimSeries>,
    /// The ~10⁵-robot event-engine fault sweep.
    pub sweep: DistsimSweepTiming,
    /// The 10⁴-robot hop-field mid-run snapshot — a reproducible
    /// checkpoint artifact (`anr-eventsim-ckpt/2` bytes).
    pub checkpoint_artifact: Vec<u8>,
}

/// Square lattice of `side × side` robots at [`PITCH`] spacing.
fn lattice(side: usize) -> Vec<Point> {
    (0..side * side)
        .map(|i| Point::new((i % side) as f64 * PITCH, (i / side) as f64 * PITCH))
        .collect()
}

/// Times a mid-run checkpoint round trip: `save` and `restore` medians,
/// then both the original and the restored simulator advance `h2` more
/// rounds and their snapshots are compared byte for byte.
fn ckpt_roundtrip<N>(
    mk_nodes: impl Fn() -> Vec<N>,
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
    h1: usize,
    h2: usize,
    repeats: usize,
) -> Result<(f64, f64, usize, bool, Vec<u8>), BenchError>
where
    N: Node + Persist,
    N::Msg: Persist,
{
    let topology = ExplicitTopology::new(adjacency.to_vec())?;
    let mut sim = EventSim::new(mk_nodes(), topology, plan)?;
    sim.run_rounds(h1)?;
    let (save_ms, bytes) = median_ms(repeats, || sim.save())?;
    let restore_topology = ExplicitTopology::new(adjacency.to_vec())?;
    let (restore_ms, restored) = median_ms(repeats, || {
        EventSim::<N>::restore(&bytes, restore_topology.clone(), &Tracer::disabled())
    })?;
    let mut restored = restored?;
    sim.run_rounds(h2)?;
    restored.run_rounds(h2)?;
    let resume_identical = sim.save() == restored.save();
    Ok((save_ms, restore_ms, bytes.len(), resume_identical, bytes))
}

/// Hop-field series at one size; returns the entry and the mid-run
/// checkpoint bytes.
fn hop_field_series(side: usize, repeats: usize) -> Result<(DistsimSeries, Vec<u8>), BenchError> {
    let positions = lattice(side);
    let n = positions.len();
    let adjacency = UnitDiskGraph::new(&positions, RANGE).adjacency().to_vec();
    let sources: Vec<bool> = (0..n).map(|i| i == 0).collect();
    let cfg = RetransmitConfig::default();
    let plan = FaultPlan::reliable(42).with_loss(0.02);
    let max_rounds = 40 * side + 400;

    let (run_ms, outcome) = median_ms(repeats, || {
        run_event_hop_field_accounted(&sources, &adjacency, plan.clone(), cfg, max_rounds)
    })?;
    let (outcome, obs) = outcome?;

    let (save_ms, restore_ms, ckpt_bytes, resume_identical, bytes) = ckpt_roundtrip(
        || {
            sources
                .iter()
                .enumerate()
                .map(|(i, &is_source)| {
                    RobustHopFieldNode::new(is_source, adjacency[i].clone(), cfg)
                })
                .collect()
        },
        &adjacency,
        plan,
        side / 2 + 1,
        side,
        repeats,
    )?;

    Ok((
        DistsimSeries {
            protocol: "hop_field",
            robots: n,
            rounds: outcome.stats.rounds,
            sent: outcome.stats.sent,
            run_ms,
            save_ms,
            restore_ms,
            ckpt_bytes,
            resume_identical,
            peak_payload_bits: obs.peak_payload_bits,
            static_payload_bits: RHOP_MSG_BITS,
            peak_round_msgs: obs.peak_round_msgs,
        },
        bytes,
    ))
}

/// Boundary-loop series over the lattice's perimeter ring.
fn boundary_loop_series(side: usize, repeats: usize) -> Result<DistsimSeries, BenchError> {
    let ring = (4 * (side - 1)).max(3);
    let ids: Vec<usize> = (0..ring).collect();
    let cfg = RetransmitConfig::default();
    // The token must survive ~2·ring consecutive hops, so the loop runs
    // reliably; its cost model (one live token, not a flood) is what is
    // being measured.
    let plan = FaultPlan::reliable(42);
    let max_rounds = 10 * ring + 400;
    let (run_ms, outcome) = median_ms(repeats, || {
        run_event_boundary_loop_accounted(&ids, plan.clone(), cfg, max_rounds)
    })?;
    let (outcome, obs) = outcome?;

    let restart_after = (ring + 2) * (cfg.interval + 1);
    let adjacency: Vec<Vec<usize>> = (0..ring)
        .map(|i| vec![(i + ring - 1) % ring, (i + 1) % ring])
        .collect();
    let (save_ms, restore_ms, ckpt_bytes, resume_identical, _) = ckpt_roundtrip(
        || {
            (0..ring)
                .map(|i| {
                    anr_netgraph::robust::RobustBoundaryLoopNode::new(
                        i,
                        i == 0,
                        (i + 1) % ring,
                        cfg,
                        restart_after,
                        16,
                    )
                })
                .collect()
        },
        &adjacency,
        plan,
        ring / 2 + 1,
        ring,
        repeats,
    )?;

    Ok(DistsimSeries {
        protocol: "boundary_loop",
        robots: ring,
        rounds: outcome.stats.rounds,
        sent: outcome.stats.sent,
        run_ms,
        save_ms,
        restore_ms,
        ckpt_bytes,
        resume_identical,
        peak_payload_bits: obs.peak_payload_bits,
        static_payload_bits: RLOOP_MSG_BITS,
        peak_round_msgs: obs.peak_round_msgs,
    })
}

/// The ~10⁵-robot fault sweep on the event engine (hop field only).
fn event_sweep(side: usize) -> Result<DistsimSweepTiming, BenchError> {
    let positions = lattice(side);
    let config = SweepConfig {
        loss_rates: vec![0.0, 0.05],
        crash_counts: vec![0, 10],
        seed: 42,
        workers: 0,
        protocols: SweepProtocols {
            flooding: false,
            hop_field: true,
        },
    };
    let cells = config.loss_rates.len() * config.crash_counts.len();
    let (total_ms, report) = median_ms(1, || run_fault_sweep(&positions, RANGE, &config))?;
    let report = report?;
    let converged_cells = report
        .protocols
        .iter()
        .flat_map(|g| &g.cells)
        .filter(|c| c.converged)
        .count();
    Ok(DistsimSweepTiming {
        robots: positions.len(),
        cells,
        converged_cells,
        total_ms,
    })
}

/// [`run_distsim_bench`] over explicit lattice sides — the test-size
/// hook; the public entry point picks the 10⁴/10⁵/10⁶ sides.
fn run_with_sides(
    opts: &DistsimBenchOptions,
    sides: &[usize],
    sweep_side: usize,
) -> Result<DistsimBenchReport, BenchError> {
    if opts.repeats == 0 {
        return Err(BenchError::ZeroRepeats);
    }
    let repeats = if opts.smoke { 1 } else { opts.repeats };
    let mut series = Vec::new();
    let mut artifact = Vec::new();
    for (i, &side) in sides.iter().enumerate() {
        let (hop, bytes) = hop_field_series(side, repeats)?;
        if i == 0 {
            artifact = bytes;
        }
        series.push(hop);
        series.push(boundary_loop_series(side, repeats)?);
    }
    let sweep = event_sweep(sweep_side)?;
    Ok(DistsimBenchReport {
        cores: anr_par::available_cores(),
        repeats,
        smoke: opts.smoke,
        large: opts.large,
        series,
        sweep,
        checkpoint_artifact: artifact,
    })
}

/// Runs the distsim scaling benchmark: 10⁴ and ~10⁵ robots (plus 10⁶
/// with [`DistsimBenchOptions::large`]), a checkpoint round trip per
/// size, and a ~10⁵-robot event-engine fault sweep.
///
/// # Errors
///
/// Propagates simulator and checkpoint failures; rejects zero repeats.
pub fn run_distsim_bench(opts: &DistsimBenchOptions) -> Result<DistsimBenchReport, BenchError> {
    // Lattice sides: 100² = 10⁴, 316² ≈ 10⁵, 1000² = 10⁶.
    let mut sides = vec![100, 316];
    if opts.large {
        sides.push(1000);
    }
    run_with_sides(opts, &sides, 316)
}

fn json_ms(x: f64) -> String {
    format!("{x:.3}")
}

impl DistsimBenchReport {
    /// Serializes the report as a self-contained JSON document
    /// (`anr-bench-distsim/2` — bumped from `/1` when the series
    /// gained per-round CONGEST accounting). The checkpoint artifact
    /// is binary and rides separately; only its size appears here.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"anr-bench-distsim/2\",\n");
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str(&format!("  \"large\": {},\n", self.large));
        s.push_str(&format!(
            "  \"checkpoint_artifact_bytes\": {},\n",
            self.checkpoint_artifact.len()
        ));
        s.push_str("  \"series\": [\n");
        for (i, e) in self.series.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"protocol\": \"{}\", \"robots\": {}, \"rounds\": {}, \"sent\": {}, \
                 \"run_ms\": {}, \"save_ms\": {}, \"restore_ms\": {}, \"ckpt_bytes\": {}, \
                 \"resume_identical\": {}, \"peak_payload_bits\": {}, \
                 \"static_payload_bits\": {}, \"peak_round_msgs\": {}}}{}\n",
                e.protocol,
                e.robots,
                e.rounds,
                e.sent,
                json_ms(e.run_ms),
                json_ms(e.save_ms),
                json_ms(e.restore_ms),
                e.ckpt_bytes,
                e.resume_identical,
                e.peak_payload_bits,
                e.static_payload_bits,
                e.peak_round_msgs,
                if i + 1 < self.series.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"sweep\": {{\"engine\": \"event\", \"robots\": {}, \"cells\": {}, \
             \"converged_cells\": {}, \"total_ms\": {}}}\n",
            self.sweep.robots,
            self.sweep.cells,
            self.sweep.converged_cells,
            json_ms(self.sweep.total_ms),
        ));
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_eventsim::CKPT_MAGIC;

    #[test]
    fn tiny_distsim_bench_runs_and_serializes() {
        // Test-sized lattices; the real sizes are exercised by the CI
        // bench job in release mode.
        let report = run_with_sides(
            &DistsimBenchOptions {
                smoke: true,
                repeats: 1,
                large: false,
            },
            &[10, 14],
            10,
        )
        .unwrap();
        assert_eq!(report.series.len(), 4);
        for e in &report.series {
            assert!(e.resume_identical, "{} n={}", e.protocol, e.robots);
            assert!(e.rounds > 0 && e.sent > 0, "{} n={}", e.protocol, e.robots);
            assert!(e.ckpt_bytes > 0);
            // The runtime CONGEST cross-check: something was observed,
            // and it stayed inside the static bound (the runner itself
            // errors otherwise — this pins the recorded numbers too).
            assert!(
                e.peak_payload_bits > 0 && e.peak_payload_bits <= e.static_payload_bits,
                "{}: observed {} bits vs static bound {}",
                e.protocol,
                e.peak_payload_bits,
                e.static_payload_bits
            );
            assert!(e.peak_round_msgs > 0, "{} n={}", e.protocol, e.robots);
        }
        assert_eq!(report.sweep.cells, 4);
        assert_eq!(
            report.sweep.converged_cells, 4,
            "tiny sweep must converge in every cell"
        );
        assert!(report
            .checkpoint_artifact
            .starts_with(CKPT_MAGIC.as_bytes()));
        let json = report.to_json();
        for key in [
            "\"schema\": \"anr-bench-distsim/2\"",
            "\"peak_payload_bits\"",
            "\"static_payload_bits\"",
            "\"peak_round_msgs\"",
            "\"protocol\": \"hop_field\"",
            "\"protocol\": \"boundary_loop\"",
            "\"resume_identical\": true",
            "\"engine\": \"event\"",
            "\"checkpoint_artifact_bytes\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn distsim_bench_is_deterministic_modulo_timing() {
        let opts = DistsimBenchOptions {
            smoke: true,
            repeats: 1,
            large: false,
        };
        let a = run_with_sides(&opts, &[10], 10).unwrap();
        let b = run_with_sides(&opts, &[10], 10).unwrap();
        assert_eq!(a.checkpoint_artifact, b.checkpoint_artifact);
        #[allow(clippy::type_complexity)]
        let strip = |r: &DistsimBenchReport| -> Vec<(String, usize, usize, usize, bool, u32, u64)> {
            r.series
                .iter()
                .map(|e| {
                    (
                        e.protocol.to_string(),
                        e.robots,
                        e.rounds,
                        e.sent,
                        e.resume_identical,
                        e.peak_payload_bits,
                        e.peak_round_msgs,
                    )
                })
                .collect()
        };
        assert_eq!(strip(&a), strip(&b));
    }
}
