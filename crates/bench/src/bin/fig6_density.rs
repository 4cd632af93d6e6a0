//! Fig. 6: density-adjusted deployment — encode "the closer to the hole,
//! the more mobile robots are needed" into the centroid computation and
//! measure the resulting radial density profile.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin fig6_density
//! ```

use anr_bench::{charts_flag, recorded, scenario_problem, BenchError};
use anr_coverage::Density;
use anr_march::{march, MarchConfig, Method};

fn main() -> Result<(), BenchError> {
    let problem = scenario_problem(3, 30.0, 144)?;
    let m2 = problem.m2.clone();

    let uniform_cfg = MarchConfig::default();
    let dense_cfg = MarchConfig {
        density: Density::HoleProximity {
            falloff: 100.0,
            gain: 30.0,
        },
        lloyd: anr_coverage::LloydConfig {
            tolerance: 0.5,
            max_iterations: 80,
            ..Default::default()
        },
        ..Default::default()
    };

    let uniform = recorded(march(&problem, Method::MaxStableLinks, &uniform_cfg))?;
    let dense = recorded(march(&problem, Method::MaxStableLinks, &dense_cfg))?;

    // Band areas from the sample grid (handles the concave boundary).
    let grid = m2.grid_points(8.0);
    let cell = 64.0;
    let bands = [0.0, 60.0, 120.0, 180.0, 240.0, f64::INFINITY];

    println!("band_min_m,band_max_m,band_area_m2,robots_uniform,robots_density,density_uniform_per_1e4m2,density_weighted_per_1e4m2");
    let mut chart_categories: Vec<String> = Vec::new();
    let mut chart_uniform: Vec<f64> = Vec::new();
    let mut chart_weighted: Vec<f64> = Vec::new();
    for w in bands.windows(2) {
        let in_band = |p: &anr_geom::Point| {
            let d = m2.distance_to_holes(*p);
            d >= w[0] && d < w[1]
        };
        let band_area = grid.iter().filter(|p| in_band(p)).count() as f64 * cell;
        if band_area == 0.0 {
            continue;
        }
        let cu = uniform
            .final_positions
            .iter()
            .filter(|p| in_band(p))
            .count();
        let cd = dense.final_positions.iter().filter(|p| in_band(p)).count();
        println!(
            "{},{},{:.0},{},{},{:.3},{:.3}",
            w[0],
            if w[1].is_finite() { w[1] } else { 1e9 },
            band_area,
            cu,
            cd,
            cu as f64 / band_area * 1e4,
            cd as f64 / band_area * 1e4,
        );
        chart_categories.push(if w[1].is_finite() {
            format!("{:.0}-{:.0}", w[0], w[1])
        } else {
            format!("{:.0}+", w[0])
        });
        chart_uniform.push(cu as f64 / band_area * 1e4);
        chart_weighted.push(cd as f64 / band_area * 1e4);
    }

    if let Some(dir) = charts_flag() {
        std::fs::create_dir_all(&dir).ok();
        let mut chart = anr_viz::BarChart::new(
            "Fig. 6: robot density by distance-to-hole band",
            "distance to hole (m)",
            "robots per 10\u{2074} m\u{00b2}",
        );
        chart.set_categories(chart_categories);
        chart.add_series("uniform", chart_uniform);
        chart.add_series("hole-proximity density", chart_weighted);
        if let Err(e) = chart.save(dir.join("fig6_density.svg")) {
            eprintln!("warning: failed to write chart: {e}");
        } else {
            eprintln!(
                "chart written to {}",
                dir.join("fig6_density.svg").display()
            );
        }
    }

    eprintln!(
        "uniform: C={} L={:.3}; hole-density: C={} L={:.3}",
        uniform.metrics.global_connectivity,
        uniform.metrics.stable_link_ratio,
        dense.metrics.global_connectivity,
        dense.metrics.stable_link_ratio,
    );
    Ok(())
}
