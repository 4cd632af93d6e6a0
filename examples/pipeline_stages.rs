//! Renders every stage of the marching pipeline as SVG — the panels of
//! the paper's Fig. 2: (a) connectivity graph in M1, (b) extracted
//! triangulation, (c) harmonic map of T to the unit disk, (d) the target
//! FoI mesh, (e) redeployment after the harmonic transition with
//! preserved (blue) / new (red) links, (f) optimal coverage positions.
//!
//! ```sh
//! cargo run --release --example pipeline_stages
//! # SVGs are written to target/figures/
//! ```

use anr_marching::geom::{Aabb, Point};
use anr_marching::harmonic::{fill_holes, harmonic_map_to_disk, HarmonicConfig};
use anr_marching::march::{march, MarchConfig, MarchProblem, Method};
use anr_marching::mesh::FoiMesher;
use anr_marching::netgraph::{extract_triangulation, UnitDiskGraph};
use anr_marching::scenarios::{build_scenario, ScenarioParams};
use anr_marching::trace::Tracer;
use anr_marching::viz::{palette, SvgCanvas};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&out_dir)?;

    // Scenario 3: the flower-pond target FoI of Fig. 2(d).
    let scenario = build_scenario(3, &ScenarioParams::default())?;
    let problem = MarchProblem::with_lattice_deployment(
        scenario.m1.clone(),
        scenario.m2.clone(),
        scenario.robots,
        scenario.range,
    )?;
    let initial_graph = UnitDiskGraph::new(&problem.positions, problem.range);

    // (a) Connectivity graph of the deployment in M1.
    let mut svg = SvgCanvas::fitting([scenario.m1.bbox()], 640.0)?;
    svg.deployment(
        &scenario.m1,
        &problem.positions,
        &initial_graph.links(),
        |_, _| true,
    );
    svg.save(out_dir.join("fig2a_connectivity_m1.svg"))?;

    // (b) Extracted triangulation T.
    let t_mesh = extract_triangulation(&problem.positions, problem.range)?;
    let mut svg = SvgCanvas::fitting([scenario.m1.bbox()], 640.0)?;
    svg.region(&scenario.m1, palette::FOI_FILL, palette::FOI_STROKE);
    for (a, b) in t_mesh.edges() {
        svg.line(t_mesh.vertex(a), t_mesh.vertex(b), palette::PRESERVED, 1.0);
    }
    for &p in t_mesh.vertices() {
        svg.robot(p, 2.5, palette::ROBOT);
    }
    svg.save(out_dir.join("fig2b_triangulation.svg"))?;

    // (c) Harmonic map of T onto the unit disk.
    let filled_t = fill_holes(&t_mesh)?;
    let disk_t = harmonic_map_to_disk(
        filled_t.mesh(),
        &HarmonicConfig::default(),
        &Tracer::disabled(),
    )?;
    let disk_box = Aabb::new(Point::new(-1.1, -1.1), Point::new(1.1, 1.1));
    let mut svg = SvgCanvas::fitting([disk_box], 640.0)?;
    let dmesh = disk_t.as_disk_mesh(filled_t.mesh());
    for (a, b) in dmesh.edges() {
        svg.line(dmesh.vertex(a), dmesh.vertex(b), palette::PRESERVED, 0.8);
    }
    for &p in dmesh.vertices() {
        svg.robot(p, 2.0, palette::ROBOT);
    }
    svg.save(out_dir.join("fig2c_disk_map.svg"))?;

    // (d) The meshed target FoI with its flower-shaped pond.
    let spacing =
        MarchConfig::default().resolve_mesh_spacing(scenario.m2.area(), problem.num_robots());
    let foi2 = FoiMesher::new(spacing).mesh(&scenario.m2)?;
    let mut svg = SvgCanvas::fitting([scenario.m2.bbox()], 640.0)?;
    svg.region(&scenario.m2, palette::FOI_FILL, palette::FOI_STROKE);
    let m2_mesh = foi2.mesh();
    for (a, b) in m2_mesh.edges() {
        svg.line(m2_mesh.vertex(a), m2_mesh.vertex(b), "#b0a890", 0.6);
    }
    svg.save(out_dir.join("fig2d_target_mesh.svg"))?;

    // Run the full pipeline (method a).
    let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default())?;

    // (e) After the harmonic transition: blue = preserved, red = new.
    let after = UnitDiskGraph::new(&outcome.mapped, problem.range);
    let mut svg = SvgCanvas::fitting([scenario.m2.bbox()], 640.0)?;
    svg.deployment(&scenario.m2, &outcome.mapped, &after.links(), |i, j| {
        initial_graph.has_link(i, j)
    });
    svg.save(out_dir.join("fig2e_after_transition.svg"))?;

    // (f) Final optimal coverage positions.
    let final_graph = UnitDiskGraph::new(&outcome.final_positions, problem.range);
    let mut svg = SvgCanvas::fitting([scenario.m2.bbox()], 640.0)?;
    svg.deployment(
        &scenario.m2,
        &outcome.final_positions,
        &final_graph.links(),
        |i, j| initial_graph.has_link(i, j),
    );
    svg.save(out_dir.join("fig2f_final_coverage.svg"))?;

    println!("pipeline stages written to {}", out_dir.display());
    println!(
        "metrics: L = {:.3}, D = {:.0} m, C = {}, rotation = {:.3} rad, \
         {} robots re-targeted by the connectivity repair",
        outcome.metrics.stable_link_ratio,
        outcome.metrics.total_distance,
        outcome.metrics.global_connectivity,
        outcome.rotation,
        outcome.repair.adjusted_robots.len(),
    );
    Ok(())
}
