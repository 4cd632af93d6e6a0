//! Criterion micro-benchmarks of the computational kernels: Delaunay
//! triangulation (random clouds and the FoI mesher's points), mesh
//! adjacency, harmonic-map convergence, Hungarian assignment, overlay
//! mapping, Lloyd iteration, and the full pipeline.

use anr_assign::{euclidean_costs, hungarian};
use anr_bench::scenario_problem;
use anr_coverage::{run_lloyd, Density, GridPartition, LloydConfig};
use anr_geom::Point;
use anr_harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay, HarmonicConfig};
use anr_march::{march, MarchConfig, Method};
use anr_mesh::{delaunay, FoiMesher, TriMesh};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_trace::Tracer;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn pseudo_random_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..n)
        .map(|_| Point::new(next() * span, next() * span))
        .collect()
}

fn bench_delaunay(c: &mut Criterion) {
    let pts144 = pseudo_random_points(144, 7, 600.0);
    let pts500 = pseudo_random_points(500, 9, 1200.0);
    c.bench_function("delaunay_144", |b| {
        b.iter(|| delaunay(black_box(&pts144)).unwrap())
    });
    c.bench_function("delaunay_500", |b| {
        b.iter(|| delaunay(black_box(&pts500)).unwrap())
    });
}

/// The march's `M2` meshing for scenario 1 at 3025 robots (7 452 mesher
/// points). Unlike the random clouds above, the mesher inserts the
/// boundary samples first, so long triangles span the interior until
/// the grid rows fill in.
fn bench_foi_mesh(c: &mut Criterion) {
    let robots = 3025;
    let problem = scenario_problem(1, 30.0, robots).unwrap();
    let spacing = MarchConfig::default().resolve_mesh_spacing(problem.m2.area(), robots);
    let mesher = FoiMesher::new(spacing);
    let points = mesher.points(&problem.m2);
    let dt = delaunay(&points).unwrap();
    let mut group = c.benchmark_group("mesh");
    group.sample_size(20);
    group.bench_function("foi_mesh_sc1_3025", |b| {
        b.iter(|| mesher.mesh(black_box(&problem.m2)).unwrap())
    });
    group.bench_function("delaunay_foi_sc1_3025", |b| {
        b.iter(|| delaunay(black_box(&points)).unwrap())
    });
    group.bench_function("trimesh_sc1_3025", |b| {
        b.iter(|| {
            let mesh = TriMesh::new(dt.vertices().to_vec(), dt.triangles().to_vec()).unwrap();
            mesh.boundary_loops()
        })
    });
    group.finish();
}

fn bench_unit_disk_graph(c: &mut Criterion) {
    let problem = scenario_problem(1, 30.0, 144).unwrap();
    c.bench_function("unit_disk_graph_144", |b| {
        b.iter(|| UnitDiskGraph::new(black_box(&problem.positions), 80.0))
    });
}

fn bench_harmonic(c: &mut Criterion) {
    let (config, tracer) = (HarmonicConfig::default(), Tracer::disabled());
    let problem = scenario_problem(3, 30.0, 144).unwrap();
    let t = extract_triangulation(&problem.positions, problem.range).unwrap();
    let filled_t = fill_holes(&t).unwrap();
    c.bench_function("harmonic_map_robot_mesh_144", |b| {
        b.iter(|| harmonic_map_to_disk(filled_t.mesh(), &config, &tracer).unwrap())
    });

    let spacing = MarchConfig::default().resolve_mesh_spacing(problem.m2.area(), 144);
    let foi = FoiMesher::new(spacing).mesh(&problem.m2).unwrap();
    let filled = fill_holes(foi.mesh()).unwrap();
    c.bench_function("harmonic_map_foi_mesh", |b| {
        b.iter(|| harmonic_map_to_disk(filled.mesh(), &config, &tracer).unwrap())
    });
}

fn bench_overlay_mapping(c: &mut Criterion) {
    let (config, tracer) = (HarmonicConfig::default(), Tracer::disabled());
    let problem = scenario_problem(3, 30.0, 144).unwrap();
    let t = extract_triangulation(&problem.positions, problem.range).unwrap();
    let filled_t = fill_holes(&t).unwrap();
    let disk_t = harmonic_map_to_disk(filled_t.mesh(), &config, &tracer).unwrap();
    let robot_disk: Vec<Point> = (0..144).map(|v| disk_t.position(v)).collect();

    let spacing = MarchConfig::default().resolve_mesh_spacing(problem.m2.area(), 144);
    let foi = FoiMesher::new(spacing).mesh(&problem.m2).unwrap();
    let filled = fill_holes(foi.mesh()).unwrap();
    let disk = harmonic_map_to_disk(filled.mesh(), &config, &tracer).unwrap();
    let overlay = DiskOverlay::new(filled.mesh(), disk.positions(), filled.virtual_vertices());

    c.bench_function("overlay_map_all_144", |b| {
        b.iter(|| overlay.map_all(black_box(&robot_disk), 1.0))
    });
}

fn bench_hungarian(c: &mut Criterion) {
    let src = pseudo_random_points(144, 21, 600.0);
    let dst = pseudo_random_points(144, 22, 600.0);
    let costs = euclidean_costs(&src, &dst).unwrap();
    c.bench_function("hungarian_144", |b| b.iter(|| hungarian(black_box(&costs))));
}

fn bench_lloyd(c: &mut Criterion) {
    let problem = scenario_problem(1, 30.0, 144).unwrap();
    let partition = GridPartition::new(&problem.m2, 10.0);
    let cfg = LloydConfig {
        tolerance: 1.0,
        max_iterations: 1,
        ..Default::default()
    };
    c.bench_function("lloyd_iteration_144", |b| {
        b.iter(|| {
            run_lloyd(
                black_box(&problem.positions),
                &partition,
                &Density::Uniform,
                &cfg,
            )
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let problem = scenario_problem(1, 30.0, 144).unwrap();
    let config = MarchConfig::default();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("march_scenario1_144", |b| {
        b.iter(|| march(black_box(&problem), Method::MaxStableLinks, &config).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_delaunay,
    bench_foi_mesh,
    bench_unit_disk_graph,
    bench_harmonic,
    bench_overlay_mapping,
    bench_hungarian,
    bench_lloyd,
    bench_full_pipeline
);
criterion_main!(benches);
