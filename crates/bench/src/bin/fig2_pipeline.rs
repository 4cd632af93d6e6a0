//! Fig. 2: the algorithm pipeline on scenario 3 — per-stage statistics
//! plus the SVG panels (via the same rendering as
//! `examples/pipeline_stages.rs`).
//!
//! ```sh
//! cargo run --release -p anr-bench --bin fig2_pipeline
//! ```

use anr_bench::{recorded, scenario_problem};
use anr_harmonic::{fill_holes, harmonic_map_to_disk, HarmonicConfig};
use anr_march::{march, MarchConfig, Method};
use anr_mesh::{FoiMesher, MeshQuality};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = scenario_problem(3, 30.0, 144)?;
    let config = MarchConfig::default();

    // (a) connectivity graph in M1
    let g = UnitDiskGraph::new(&problem.positions, problem.range);
    println!(
        "stage a (connectivity graph): {} robots, {} links, mean degree {:.2}",
        g.len(),
        g.num_links(),
        2.0 * g.num_links() as f64 / g.len() as f64,
    );

    // (b) extracted triangulation
    let t = extract_triangulation(&problem.positions, problem.range)?;
    println!(
        "stage b (triangulation T): {} triangles, {} edges, quality: {}",
        t.num_triangles(),
        t.num_edges(),
        MeshQuality::of(&t),
    );

    // (c) harmonic map of T to the disk
    let (harmonic, tracer) = (HarmonicConfig::default(), Tracer::disabled());
    let filled_t = fill_holes(&t)?;
    let disk_t = harmonic_map_to_disk(filled_t.mesh(), &harmonic, &tracer)?;
    println!(
        "stage c (harmonic map of T): boundary {} vertices, {} iterations to converge",
        disk_t.boundary().len(),
        disk_t.iterations(),
    );

    // (d) target FoI meshing + map
    let spacing = config.resolve_mesh_spacing(problem.m2.area(), problem.num_robots());
    let foi2 = FoiMesher::new(spacing).mesh(&problem.m2)?;
    let filled2 = fill_holes(foi2.mesh())?;
    let disk2 = harmonic_map_to_disk(filled2.mesh(), &harmonic, &tracer)?;
    println!(
        "stage d (target FoI mesh): spacing {:.1} m, {} vertices, {} triangles, {} holes filled, disk map in {} iterations",
        spacing,
        filled2.mesh().num_vertices(),
        filled2.mesh().num_triangles(),
        filled2.num_holes(),
        disk2.iterations(),
    );

    // (e) + (f): full pipeline
    let out = recorded(march(&problem, Method::MaxStableLinks, &config))?;
    let after = UnitDiskGraph::new(&out.mapped, problem.range);
    let preserved_now = after
        .links()
        .iter()
        .filter(|&&(i, j)| g.has_link(i, j))
        .count();
    println!(
        "stage e (after transition): rotation {:.3} rad, {} links ({} preserved / {} new), {} robots re-targeted by repair",
        out.rotation,
        after.num_links(),
        preserved_now,
        after.num_links() - preserved_now,
        out.repair.adjusted_robots.len(),
    );
    println!(
        "stage f (optimal coverage): {} Lloyd iterations, final metrics: L = {:.3}, D = {:.0} m, C = {}",
        out.lloyd_iterations,
        out.metrics.stable_link_ratio,
        out.metrics.total_distance,
        out.metrics.global_connectivity,
    );
    println!("\nrun `cargo run --release --example pipeline_stages` for the SVG panels");
    Ok(())
}
