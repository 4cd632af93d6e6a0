//! Ablation: why the two-disk ("modified") harmonic map exists.
//!
//! The obvious construction — harmonically map the robot triangulation
//! `T` *directly* onto the target FoI by pinning T's boundary to M2's
//! boundary — requires a convex target to be a diffeomorphism
//! (Kneser/Choquet, paper Sec. II-B). On the paper's concave FoIs it
//! flips triangles (robots cross paths / leave the FoI); the two-disk
//! route never does. This harness measures both per scenario.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin ablation_direct_map
//! ```

use anr_bench::{recorded, scenario_problem};
use anr_geom::Point;
use anr_harmonic::{fill_holes, harmonic_map_to_disk, harmonic_map_with_boundary, HarmonicConfig};
use anr_march::{march, MarchConfig, Method};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("scenario,approach,flipped_triangles,total_triangles,targets_outside_m2,stable_link_ratio_endpoints");
    for id in 1..=7u8 {
        let problem = scenario_problem(id, 30.0, 144)?;
        let n = problem.num_robots();
        let t_mesh = extract_triangulation(&problem.positions, problem.range)?;
        let filled = fill_holes(&t_mesh)?;

        // ----- Direct map: pin T's boundary onto M2's outer boundary by
        // arclength, solve the interior. -------------------------------
        let disk = harmonic_map_to_disk(
            filled.mesh(),
            &HarmonicConfig::default(),
            &Tracer::disabled(),
        )?;
        let b_len = disk.boundary().len();
        let m2_boundary = problem
            .m2
            .outer()
            .resample_boundary(problem.m2.outer().perimeter() / b_len as f64, b_len);
        let pinned: Vec<Point> = (0..b_len)
            .map(|k| m2_boundary[k % m2_boundary.len()])
            .collect();
        let direct =
            harmonic_map_with_boundary(filled.mesh(), &pinned, &HarmonicConfig::default())?;
        let emb = direct.as_disk_mesh(filled.mesh());
        let flipped = (0..emb.num_triangles())
            .filter(|&t| emb.triangle(t).signed_area() <= 0.0)
            .count();
        let direct_targets: Vec<Point> = (0..n).map(|v| direct.position(v)).collect();
        let outside = direct_targets
            .iter()
            .filter(|q| !problem.m2.contains(**q) || problem.m2.in_hole(**q))
            .count();
        let l_direct = endpoint_link_ratio(&problem.positions, &direct_targets, problem.range);
        println!(
            "{id},direct_to_m2,{flipped},{},{outside},{l_direct:.3}",
            emb.num_triangles(),
        );

        // ----- Two-disk route (the paper's method (a)). ---------------
        let cfg = MarchConfig {
            refine_coverage: false,
            ..Default::default()
        };
        let ours = recorded(march(&problem, Method::MaxStableLinks, &cfg))?;
        let l_ours = endpoint_link_ratio(&problem.positions, &ours.mapped, problem.range);
        let ours_outside = ours
            .mapped
            .iter()
            .filter(|q| !problem.m2.contains(**q) || problem.m2.in_hole(**q))
            .count();
        println!(
            "{id},two_disk,0,{},{ours_outside},{l_ours:.3}",
            emb.num_triangles()
        );
    }
    Ok(())
}

fn endpoint_link_ratio(positions: &[Point], targets: &[Point], range: f64) -> f64 {
    let g = UnitDiskGraph::new(positions, range);
    let links = g.links();
    if links.is_empty() {
        return 1.0;
    }
    links
        .iter()
        .filter(|&&(i, j)| targets[i].distance(targets[j]) <= range)
        .count() as f64
        / links.len() as f64
}
