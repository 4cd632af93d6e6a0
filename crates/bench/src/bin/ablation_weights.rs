//! Ablation: interior averaging weights of the harmonic map. The paper's
//! robots compute plain averages (uniform/Tutte weights); mean-value
//! weights preserve shape better on irregular meshes. Compare L/D across
//! scenarios.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_weights
//! ```

use anr_bench::{recorded, scenario_problem, BenchError};
use anr_harmonic::{HarmonicConfig, Weighting};
use anr_march::{march, MarchConfig, Method};

fn main() -> Result<(), BenchError> {
    println!("scenario,weighting,stable_link_ratio,total_distance_m,global_connectivity");
    for id in 1..=7u8 {
        let problem = scenario_problem(id, 30.0, 144)?;
        for (name, weighting) in [
            ("uniform", Weighting::Uniform),
            ("mean_value", Weighting::MeanValue),
        ] {
            let config = MarchConfig {
                harmonic: HarmonicConfig {
                    weighting,
                    ..Default::default()
                },
                ..Default::default()
            };
            let out = recorded(march(&problem, Method::MaxStableLinks, &config))?;
            println!(
                "{},{},{:.4},{:.1},{}",
                id,
                name,
                out.metrics.stable_link_ratio,
                out.metrics.total_distance,
                out.metrics.global_connectivity,
            );
        }
    }
    Ok(())
}
