//! Ablation: the connectivity guard on the final Lloyd refinement
//! (Sec. III-D-1). Plain Lloyd moves every robot straight to its
//! centroid; the guarded variant halves the step whenever the full step
//! would disconnect the network. Compare connectivity during the
//! refinement, adjustment cost and final coverage.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_lloyd_guard
//! ```

use anr_bench::{recorded, scenario_problem, BenchError};
use anr_coverage::{
    covered_fraction, run_lloyd, run_lloyd_guarded, Density, GridPartition, LloydConfig,
};
use anr_march::{march, MarchConfig, Method};
use anr_netgraph::UnitDiskGraph;
use anr_trace::Tracer;

fn main() -> Result<(), BenchError> {
    println!("scenario,variant,iterations,adjustment_distance_m,refinement_connected_throughout,coverage_fraction");
    for id in [1u8, 3, 7] {
        let problem = scenario_problem(id, 30.0, 144)?;
        // Transition without refinement, then refine both ways.
        let cfg = MarchConfig {
            refine_coverage: false,
            ..Default::default()
        };
        let out = recorded(march(&problem, Method::MaxStableLinks, &cfg))?;

        let spacing = cfg.resolve_mesh_spacing(problem.m2.area(), problem.num_robots());
        let partition = GridPartition::new(&problem.m2, spacing * 0.2);
        let lloyd_cfg = LloydConfig {
            tolerance: 1.0,
            max_iterations: 30,
            // This ablation audits per-step connectivity.
            record_history: true,
        };
        let r_s = problem.sensing_range();

        for (name, result) in [
            (
                "plain",
                run_lloyd(&out.mapped, &partition, &Density::Uniform, &lloyd_cfg),
            ),
            (
                "guarded",
                run_lloyd_guarded(
                    &out.mapped,
                    &partition,
                    &Density::Uniform,
                    &lloyd_cfg,
                    problem.range,
                    &Tracer::disabled(),
                ),
            ),
        ] {
            let connected_throughout = result
                .history
                .iter()
                .all(|row| UnitDiskGraph::new(row, problem.range).is_connected());
            let coverage = covered_fraction(&partition, &result.sites, r_s);
            println!(
                "{},{},{},{:.1},{},{:.4}",
                id, name, result.iterations, result.total_movement, connected_throughout, coverage,
            );
        }
    }
    Ok(())
}
