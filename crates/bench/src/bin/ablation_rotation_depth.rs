//! Ablation: rotation-search depth. The paper fixes the bisection depth
//! at 4 and claims the result is "very close to the optimal one"; this
//! harness sweeps the depth and compares against an exhaustive 720-angle
//! sweep.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_rotation_depth
//! ```

use anr_bench::{recorded, scenario_problem, BenchError};
use anr_harmonic::RotationSearch;
use anr_march::{march, MarchConfig, Method};

fn main() -> Result<(), BenchError> {
    let problem = scenario_problem(3, 30.0, 144)?;

    println!("depth,initial_samples,evaluations,stable_link_ratio,rotation_rad");
    for depth in 0..=8usize {
        let config = MarchConfig {
            rotation: RotationSearch::new(16, depth),
            ..Default::default()
        };
        let out = recorded(march(&problem, Method::MaxStableLinks, &config))?;
        println!(
            "{},16,{},{:.4},{:.4}",
            depth,
            16 + 2 * depth,
            out.metrics.stable_link_ratio,
            out.rotation,
        );
    }

    // Exhaustive reference: 720 coarse samples, no refinement.
    let config = MarchConfig {
        rotation: RotationSearch::new(720, 0),
        ..Default::default()
    };
    let out = recorded(march(&problem, Method::MaxStableLinks, &config))?;
    println!(
        "exhaustive,720,720,{:.4},{:.4}",
        out.metrics.stable_link_ratio, out.rotation,
    );
    Ok(())
}
