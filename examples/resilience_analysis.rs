//! Resilience and energy analysis of a marching run — the paper's two
//! motivating arguments made quantitative: (1) "the failure of an
//! individual robot can be recovered by its peers" (resilience), and
//! (2) preserving links "saves a lot of energy on updating new
//! connections" (energy).
//!
//! ```sh
//! cargo run --release --example resilience_analysis
//! ```

use anr_marching::march::{
    hungarian_direct, march, replan_midway, EnergyModel, MarchConfig, MarchProblem, Method,
    ResilienceReport,
};
use anr_marching::scenarios::{build_scenario, ScenarioParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = build_scenario(4, &ScenarioParams::default())?;
    println!("scenario 4: {}", scenario.name);
    let problem = MarchProblem::with_lattice_deployment(
        scenario.m1,
        scenario.m2,
        scenario.robots,
        scenario.range,
    )?;
    let config = MarchConfig::default();

    let ours = march(&problem, Method::MaxStableLinks, &config)?;
    let hung = hungarian_direct(&problem, &config)?;

    // --- Energy: price the link churn. -------------------------------
    println!("\nenergy (default model: 2 J/m motion, 50 J/link handshake):");
    let model = EnergyModel::default();
    for (name, outcome) in [("our method (a)", &ours), ("Hungarian", &hung)] {
        let report = model.evaluate(&outcome.metrics, problem.num_robots());
        println!("  {name:<16} {report}");
    }

    // --- Resilience of the final deployment. -------------------------
    println!("\nfinal-deployment resilience:");
    for (name, outcome) in [("our method (a)", &ours), ("Hungarian", &hung)] {
        let r = ResilienceReport::of(&outcome.final_positions, problem.range);
        println!(
            "  {name:<16} connected={} biconnected={} articulation_robots={} min_degree={} k≥{}",
            r.connected,
            r.biconnected,
            r.articulation_robots.len(),
            r.min_degree,
            r.vertex_connectivity,
        );
    }

    // --- Unexpected event: lose three robots mid-march and replan. ---
    println!("\nunexpected event: robots 10, 57 and 101 fail at mid-transition");
    let replan = replan_midway(&problem, &ours, &[10, 57, 101])?;
    println!("  survivors: {}", replan.survivors.len());
    println!(
        "  fresh plan: L = {:.3}, D = {:.0} m, C = {} — nobody was lost",
        replan.plan.metrics.stable_link_ratio,
        replan.plan.metrics.total_distance,
        replan.plan.metrics.global_connectivity,
    );
    Ok(())
}
