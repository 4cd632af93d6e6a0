//! Ablation: is the harmonic map actually least-stretched?
//!
//! The paper's Sec. II-B argues the discrete harmonic map is a
//! "least-stretched diffeomorphism", which is *why* it preserves links.
//! This harness measures the link-stretch distribution of every method's
//! endpoint mapping: smaller maximum stretch ⇒ fewer links pushed past
//! the communication range.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_stretch
//! ```

use anr_bench::{run_all_methods, scenario_problem, BenchError};
use anr_march::{edge_stretch_stats, MarchConfig};

fn main() -> Result<(), BenchError> {
    println!("scenario,method,mean_stretch,max_stretch,fraction_unstretched,stable_link_ratio");
    for id in [1u8, 2, 3, 7] {
        let problem = scenario_problem(id, 30.0, 144)?;
        let results = run_all_methods(&problem, &MarchConfig::default())?;
        for (name, outcome) in &results {
            // Stretch of the full relocation endpoints (initial
            // positions → final coverage positions), so the baselines'
            // second legs are included.
            let stats =
                edge_stretch_stats(&problem.positions, &outcome.final_positions, problem.range)
                    .expect("endpoint rows are finite and matched")
                    .expect("paper deployments have links");
            println!(
                "{},{},{:.3},{:.3},{:.3},{:.3}",
                id,
                name,
                stats.mean,
                stats.max,
                stats.fraction_compressed,
                outcome.metrics.stable_link_ratio,
            );
        }
    }
    Ok(())
}
