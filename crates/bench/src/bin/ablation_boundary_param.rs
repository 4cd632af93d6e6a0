//! Ablation: boundary parametrization of the harmonic map. The paper's
//! distributed protocol distributes boundary vertices uniformly by hop
//! count; chord-length parametrization respects boundary geometry
//! instead. Compare L/D across scenarios.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_boundary_param
//! ```

use anr_bench::{recorded, scenario_problem, BenchError};
use anr_harmonic::{BoundaryParam, HarmonicConfig};
use anr_march::{march, MarchConfig, Method};

fn main() -> Result<(), BenchError> {
    println!("scenario,boundary_param,stable_link_ratio,total_distance_m,global_connectivity");
    for id in 1..=7u8 {
        let problem = scenario_problem(id, 30.0, 144)?;
        for (name, boundary) in [
            ("hop_uniform", BoundaryParam::HopUniform),
            ("chord_length", BoundaryParam::ChordLength),
        ] {
            let config = MarchConfig {
                harmonic: HarmonicConfig {
                    boundary,
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
