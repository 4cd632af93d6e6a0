//! Seeded inputs. Everything a workload hands the program is drawn here
//! from `rand`'s seeded generator: the same `--seed` gives the same
//! inputs, another seed gives others. Each kind of input has its own
//! stream, so adding a draw to one leaves the others unchanged.

use anr_geom::Point;
use anr_serve::{PlanMethod, PlanRequest, PlanTarget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Separations (communication ranges) the march workloads draw from:
/// around the CLI default of 30. Across the paper's 10–100 sweep a
/// march's cost moves by up to a third, which would make the work a run
/// measures depend on the seed; within 28–32 it stays level, while `D`
/// and the timeline still change.
pub(crate) const SEPARATIONS: [u32; 3] = [28, 30, 32];

/// The separation seed 0 uses everywhere: the CLI default.
const DEFAULT_SEPARATION: u32 = 30;

/// Independent streams drawn from one seed.
#[derive(Clone, Copy)]
pub(crate) enum Stream {
    Separation = 1,
    MarchOrder = 2,
    ServeKeys = 3,
    ServeDraws = 4,
    ToolSeeds = 5,
    ToolOrder = 6,
    ServeLayout = 7,
}

/// The generator for one stream of one seed.
pub(crate) fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fisher–Yates shuffle.
pub(crate) fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One separation per scenario for a whole run.
pub(crate) fn separations(seed: u64, scenarios: &[u8]) -> Vec<(u8, u32)> {
    let mut rng = rng(seed, Stream::Separation);
    scenarios
        .iter()
        .map(|&id| {
            let s = if seed == 0 {
                DEFAULT_SEPARATION
            } else {
                SEPARATIONS[rng.gen_range(0..SEPARATIONS.len())]
            };
            (id, s)
        })
        .collect()
}

/// The key set of the serve workload.
#[derive(Debug, Clone)]
pub(crate) struct ServeSpec {
    pub(crate) scenarios: Vec<u8>,
    pub(crate) robots: Vec<u32>,
    pub(crate) methods: Vec<PlanMethod>,
    pub(crate) separations: Vec<f64>,
    /// Regular polygons with these side counts, each at `rotations`
    /// seeded rotations, 144 robots, method (a).
    pub(crate) polygon_sides: Vec<usize>,
    pub(crate) rotations: usize,
    /// Requests after each key's first.
    pub(crate) repeats: usize,
}

impl ServeSpec {
    /// 84 scenario keys (7 scenarios × 3 swarm sizes × 2 methods × 2
    /// separations) and 36 polygon keys (5- to 16-gons × 3 rotations),
    /// then 600 repeats.
    pub(crate) fn full() -> ServeSpec {
        ServeSpec {
            scenarios: (1..=7).collect(),
            robots: vec![144, 256, 400],
            methods: vec![PlanMethod::MaxStableLinks, PlanMethod::MinMovingDistance],
            separations: vec![10.0, 40.0],
            polygon_sides: (5..=16).collect(),
            rotations: 3,
            repeats: 600,
        }
    }
}

/// The serve workload's requests: every key once, in rank order, then
/// the repeats.
#[derive(Debug, Clone)]
pub(crate) struct ServeLoad {
    /// Distinct requests in popularity-rank order.
    pub(crate) keys: Vec<PlanRequest>,
    /// Key index of every request, in issue order.
    pub(crate) stream: Vec<usize>,
}

impl ServeLoad {
    /// Is request `i` its key's first?
    pub(crate) fn is_first(&self, i: usize) -> bool {
        i < self.keys.len()
    }
}

/// A regular `sides`-gon of area `area` centred on the origin, turned by
/// `rotation` radians.
fn regular_polygon(sides: usize, area: f64, rotation: f64) -> Vec<Point> {
    let step = std::f64::consts::TAU / sides as f64;
    let radius = (2.0 * area / (sides as f64 * step.sin())).sqrt();
    (0..sides)
        .map(|k| {
            let a = rotation + step * k as f64;
            Point::new(radius * a.cos(), radius * a.sin())
        })
        .collect()
}

/// Keys of one class — the same scenario (or any polygon) at the same
/// swarm size — have replies of similar size (0.2–9 MB across classes)
/// and similar plan times, which set the latency of their hits and
/// misses.
type KeyClass = (u8, u32);

fn key_class(req: &PlanRequest) -> KeyClass {
    match req.target {
        PlanTarget::Scenario(id) => (id, req.robots),
        PlanTarget::Polygon(_) => (0, req.robots),
    }
}

/// Builds the serve workload for `seed`: each key's first request, in
/// rank order, then the repeats, drawn Zipf(s = 1) by rank.
/// `polygon_area` is the area of every polygon key.
///
/// First requests come before any repeat so that a hit never waits
/// behind a plan the server is building: interleaved, hit latency
/// followed the timing of the two clients more than the cache.
/// The class at each popularity rank is the same for every seed (one
/// fixed arrangement); the seed decides which key of that class takes
/// the rank. Otherwise whether the most popular keys carry 0.2 or 9 MB
/// replies, and which plans run side by side, would be the seed's
/// choice.
pub(crate) fn serve_load(seed: u64, spec: &ServeSpec, polygon_area: f64) -> ServeLoad {
    let mut keys = Vec::new();
    for &id in &spec.scenarios {
        for &robots in &spec.robots {
            for &method in &spec.methods {
                for &separation_ranges in &spec.separations {
                    keys.push(PlanRequest {
                        robots,
                        method,
                        separation_ranges,
                        ..PlanRequest::scenario(id)
                    });
                }
            }
        }
    }
    let mut key_rng = rng(seed, Stream::ServeKeys);
    for &sides in &spec.polygon_sides {
        for _ in 0..spec.rotations {
            let rotation = key_rng.gen_range(0.0..std::f64::consts::TAU / sides as f64);
            keys.push(PlanRequest {
                target: PlanTarget::Polygon(regular_polygon(sides, polygon_area, rotation)),
                ..PlanRequest::scenario(1)
            });
        }
    }
    let mut layout: Vec<KeyClass> = keys.iter().map(key_class).collect();
    shuffle(&mut rng(0, Stream::ServeLayout), &mut layout);
    shuffle(&mut key_rng, &mut keys);
    let mut ranked = Vec::with_capacity(keys.len());
    for class in layout {
        if let Some(at) = keys.iter().position(|k| key_class(k) == class) {
            ranked.push(keys.remove(at));
        }
    }
    let keys = ranked;

    // Zipf(s = 1) over issue ranks: cumulative weights of 1/r.
    let cumulative: Vec<f64> = (1..=keys.len())
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let mut draws = rng(seed, Stream::ServeDraws);
    let total = cumulative.last().copied().unwrap_or(0.0);
    let repeats = (0..spec.repeats).map(|_| {
        let u = draws.gen_range(0.0..total);
        cumulative.partition_point(|&c| c <= u).min(keys.len() - 1)
    });
    let stream = (0..keys.len()).chain(repeats).collect();
    ServeLoad { keys, stream }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let spec = ServeSpec::full();
        let a = serve_load(7, &spec, 1e6);
        let b = serve_load(7, &spec, 1e6);
        let c = serve_load(8, &spec, 1e6);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.stream, c.stream);
        assert_ne!(a.keys, c.keys);
        let scenarios: Vec<u8> = (1..=7).collect();
        assert_eq!(separations(3, &scenarios), separations(3, &scenarios));
        assert_ne!(separations(3, &scenarios), separations(4, &scenarios));
        assert!(separations(0, &scenarios).iter().all(|&(_, s)| s == 30));
    }

    #[test]
    fn serve_stream_has_120_misses_and_600_repeats() {
        for seed in [0, 1, 99] {
            let load = serve_load(seed, &ServeSpec::full(), 1e6);
            assert_eq!(load.keys.len(), 120);
            assert_eq!(load.stream.len(), 720);
            let firsts = (0..load.stream.len()).filter(|&i| load.is_first(i)).count();
            assert_eq!(firsts, 120);
            // Each key's first request is the first time it appears.
            for (i, &k) in load.stream.iter().enumerate() {
                assert_eq!(load.is_first(i), !load.stream[..i].contains(&k));
            }
            // Zipf(1): rank 1 draws about 1/H(120) ≈ 19% of the repeats.
            let top = load.stream[120..].iter().filter(|&&k| k == 0).count();
            assert!((70..160).contains(&top), "{top}");
        }
    }

    #[test]
    fn popularity_classes_do_not_depend_on_the_seed() {
        let spec = ServeSpec::full();
        let classes = |seed| -> Vec<KeyClass> {
            serve_load(seed, &spec, 1e6)
                .keys
                .iter()
                .map(key_class)
                .collect()
        };
        assert_eq!(classes(1), classes(2));
    }

    #[test]
    fn polygons_have_the_requested_area() {
        let pts = regular_polygon(7, 5.0e5, 0.3);
        let area: f64 = (0..7)
            .map(|i| {
                let (a, b) = (pts[i], pts[(i + 1) % 7]);
                a.x * b.y - b.x * a.y
            })
            .sum::<f64>()
            / 2.0;
        assert!((area - 5.0e5).abs() < 1e-6 * 5.0e5);
    }
}
