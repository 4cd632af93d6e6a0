//! Ablation: the energy framing of the paper's link-preservation
//! argument. Evaluates every method under three energy models — motion
//! dominated, balanced (default), and pairing dominated — and reports
//! total joules per scenario.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_energy
//! ```

use anr_bench::{run_all_methods, scenario_problem, BenchError};
use anr_march::{EnergyModel, MarchConfig};

fn main() -> Result<(), BenchError> {
    let models = [
        (
            "motion_dominated",
            EnergyModel {
                motion_cost_per_meter: 10.0,
                link_setup_cost: 5.0,
                idle_cost_per_robot: 0.0,
            },
        ),
        ("balanced_default", EnergyModel::default()),
        (
            "pairing_dominated",
            EnergyModel {
                motion_cost_per_meter: 0.5,
                link_setup_cost: 500.0,
                idle_cost_per_robot: 0.0,
            },
        ),
    ];

    println!("scenario,model,method,motion_j,link_maintenance_j,total_j");
    for id in [1u8, 3, 7] {
        let problem = scenario_problem(id, 30.0, 144)?;
        let results = run_all_methods(&problem, &MarchConfig::default())?;
        for (model_name, model) in &models {
            for (method, outcome) in &results {
                let report = model.evaluate(&outcome.metrics, problem.num_robots());
                println!(
                    "{},{},{},{:.0},{:.0},{:.0}",
                    id,
                    model_name,
                    method,
                    report.motion,
                    report.link_maintenance,
                    report.total(),
                );
            }
        }
    }
    Ok(())
}
