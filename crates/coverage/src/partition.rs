//! Sample-grid Voronoi partition of a field of interest.

use crate::Density;
use anr_geom::{NearestGrid, Point, PolygonWithHoles, Segment};

/// A dense sample grid over a FoI used to evaluate Voronoi regions,
/// centroids and coverage integrals on concave, multiply-connected
/// regions.
///
/// Build once per FoI and reuse across Lloyd iterations. Construction
/// also groups the samples into square tiles, which batch the
/// nearest-site queries of [`GridPartition::assign`] and carry the
/// clearances that let [`GridPartition::clamp_inside`] and
/// [`GridPartition::guarded_step`] skip the exact polygon tests.
#[derive(Debug, Clone)]
pub struct GridPartition {
    region: PolygonWithHoles,
    samples: Vec<Point>,
    /// Area represented by each sample (spacing²).
    cell_area: f64,
    tiles: Tiles,
}

impl GridPartition {
    /// Samples `region` on a square grid with the given spacing.
    ///
    /// # Panics
    ///
    /// Panics when `spacing <= 0` or when the region is so thin that no
    /// sample lands inside it.
    pub fn new(region: &PolygonWithHoles, spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        let samples = region.grid_points(spacing);
        assert!(
            !samples.is_empty(),
            "no grid samples inside the region; decrease the spacing"
        );
        let tiles = Tiles::new(region, &samples, spacing);
        GridPartition {
            region: region.clone(),
            samples,
            cell_area: spacing * spacing,
            tiles,
        }
    }

    /// The sampled region.
    #[inline]
    pub fn region(&self) -> &PolygonWithHoles {
        &self.region
    }

    /// The sample points.
    #[inline]
    pub fn samples(&self) -> &[Point] {
        &self.samples
    }

    /// Area represented by one sample.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.cell_area
    }

    /// The nearest site of every sample, in sample order: the discrete
    /// Voronoi regions as one site label per sample.
    ///
    /// Equal to [`GridPartition::assign_brute_force`] label for label,
    /// ties to the lowest site index, at any worker count.
    ///
    /// # Panics
    ///
    /// Panics when `sites` is empty.
    pub fn assign(&self, sites: &[Point]) -> Vec<u32> {
        self.labels(sites).0
    }

    /// Reference nearest-site pass: the plain `samples × sites` loop
    /// [`GridPartition::assign`] is pinned against.
    ///
    /// # Panics
    ///
    /// Panics when `sites` is empty.
    pub fn assign_brute_force(&self, sites: &[Point]) -> Vec<u32> {
        assert!(!sites.is_empty(), "need at least one site");
        let labels = anr_par::par_chunks(&self.samples, 2048, 0, |chunk| {
            chunk
                .iter()
                .map(|&s| {
                    let mut best = 0u32;
                    let mut best_d = f64::INFINITY;
                    for (i, &site) in sites.iter().enumerate() {
                        let d = site.distance_sq(s);
                        if d < best_d {
                            best_d = d;
                            best = i as u32;
                        }
                    }
                    best
                })
                .collect::<Vec<u32>>()
        });
        labels.concat()
    }

    /// The tile-batched assignment behind [`GridPartition::assign`], with
    /// its work count: the summed length of the tiles' candidate lists.
    ///
    /// Each tile with samples finds the site nearest its centre `c`, at
    /// distance `d`. A sample `q` of the tile, at most `reach` from `c`,
    /// has its nearest site within `|q − c| + d`, so that site and every
    /// site tied with it lie within `d + 2·reach` of `c` (triangle
    /// inequality; inflated by a relative `1e-9` for rounding). The
    /// tile's samples are scanned over exactly those sites, in ascending
    /// index order with the brute-force loop's strict `<`, so every label
    /// is the brute-force one. A tile whose radius is not finite or whose
    /// list comes back empty (only possible with non-finite sites) asks
    /// [`NearestGrid::nearest`] per sample instead and adds no work.
    fn labels(&self, sites: &[Point]) -> (Vec<u32>, u64) {
        assert!(!sites.is_empty(), "need at least one site");
        let grid = NearestGrid::new(sites);
        let t = &self.tiles;
        let busy: Vec<usize> = (0..t.centres.len())
            .filter(|&k| t.starts[k] < t.starts[k + 1])
            .collect();
        let chunks = anr_par::par_chunks(&busy, 16, 0, |chunk| {
            let mut labels = Vec::new();
            let mut work = 0u64;
            let mut near = Vec::new();
            for &k in chunk {
                let members = &t.order[t.starts[k] as usize..t.starts[k + 1] as usize];
                let c = t.centres[k];
                let d = sites[grid.nearest(sites, c)].distance(c);
                let r = (d + 2.0 * t.reach[k]) * (1.0 + 1e-9);
                if r.is_finite() {
                    grid.within(sites, c, r, &mut near);
                } else {
                    near.clear();
                }
                if near.is_empty() {
                    labels.extend(
                        members
                            .iter()
                            .map(|&j| grid.nearest(sites, self.samples[j as usize]) as u32),
                    );
                    continue;
                }
                work += near.len() as u64;
                for &j in members {
                    let q = self.samples[j as usize];
                    let mut best = 0u32;
                    let mut best_d = f64::INFINITY;
                    for &i in &near {
                        let d = sites[i as usize].distance_sq(q);
                        if d < best_d {
                            best_d = d;
                            best = i;
                        }
                    }
                    labels.push(best);
                }
            }
            (labels, work)
        });
        // The busy tiles' members, in tile order, are `order` itself.
        let mut labels = vec![0u32; self.samples.len()];
        let tiled = chunks.iter().flat_map(|(l, _)| l);
        for (&j, &label) in t.order.iter().zip(tiled) {
            labels[j as usize] = label;
        }
        (labels, chunks.iter().map(|&(_, w)| w).sum())
    }

    /// Density-weighted centroid of each site's Voronoi region.
    ///
    /// Sites whose region is empty keep their current position. Centroids
    /// that fall outside the region (possible for concave regions and
    /// holes) are snapped to the nearest region point, per Sec. III-D-3.
    pub fn centroids(&self, sites: &[Point], density: &Density) -> Vec<Point> {
        self.centroids_with_work(sites, density).0
    }

    /// [`GridPartition::centroids`] with the assignment's work count.
    ///
    /// The weighted sums are streamed in ascending sample order: each
    /// site receives the same additions, in the same order, as a loop
    /// over its own region's samples, so no region is materialised.
    pub(crate) fn centroids_with_work(
        &self,
        sites: &[Point],
        density: &Density,
    ) -> (Vec<Point>, u64) {
        let (labels, work) = self.labels(sites);
        let mut sums: Vec<Option<(f64, f64, f64)>> = vec![None; sites.len()];
        for (&p, &i) in self.samples.iter().zip(&labels) {
            let rho = density.eval(&self.region, p);
            let (wx, wy, w) = sums[i as usize].get_or_insert((0.0, 0.0, 0.0));
            *wx += rho * p.x;
            *wy += rho * p.y;
            *w += rho;
        }
        let centroids = sites
            .iter()
            .zip(&sums)
            .map(|(&site, sum)| match *sum {
                None => site,
                Some((wx, wy, w)) => self.clamp_inside(Point::new(wx / w, wy / w)),
            })
            .collect();
        (centroids, work)
    }

    /// The region point nearest to `p`: exactly
    /// [`PolygonWithHoles::clamp_inside`].
    ///
    /// A point in a tile with positive clearance is more than the
    /// containment slack inside the region, so the region would return
    /// it unchanged; it is returned without the polygon tests.
    pub fn clamp_inside(&self, p: Point) -> Point {
        if self.tiles.clearance_at(p) > 0.0 {
            p
        } else {
            self.region.clamp_inside(p)
        }
    }

    /// Where one connectivity-guarded Lloyd step from `from` towards `to`
    /// ends (Sec. III-D-1): `from` when the straight segment crosses
    /// forbidden space, else `to` clamped into the region — exactly
    /// [`PolygonWithHoles::segment_blocked`] then
    /// [`PolygonWithHoles::clamp_inside`]. The flag says whether those
    /// polygon tests ran.
    ///
    /// A step shorter than the clearance of the tile holding `from` stays
    /// within `distance_to_boundary(centre) − slack` of the tile's inside
    /// centre, so it crosses no edge, its midpoint is contained and `to`
    /// clamps to itself: it is decided without the polygon tests.
    pub fn guarded_step(&self, from: Point, to: Point) -> (Point, bool) {
        if from.distance(to) < self.tiles.clearance_at(from) {
            return (to, false);
        }
        let end = if self.region.segment_blocked(Segment::new(from, to)) {
            from
        } else {
            self.region.clamp_inside(to)
        };
        (end, true)
    }
}

/// Sample spacings per tile side. At the march's partition spacing (0.2 ×
/// the mesh spacing) a tile is about one robot cell, roughly 60 samples.
const TILE_SPACINGS: f64 = 8.0;

/// At least this many samples per tile on average: slivers get larger
/// tiles instead of one entry per empty cell of their bounding box.
const MIN_SAMPLES_PER_TILE: usize = 16;

/// Square tiles over the region's bounding box: the samples grouped for
/// the tile-batched assignment, and each tile's clearance.
#[derive(Debug, Clone)]
struct Tiles {
    x0: f64,
    y0: f64,
    side: f64,
    nx: usize,
    ny: usize,
    /// CSR offsets into `order`, one per tile plus one.
    starts: Vec<u32>,
    /// Sample indices grouped by tile, ascending within each tile.
    order: Vec<u32>,
    /// Each tile's centre.
    centres: Vec<Point>,
    /// The largest distance from a tile's centre to one of its samples.
    reach: Vec<f64>,
    /// `distance_to_boundary(centre) − half-diagonal − containment slack`
    /// for a tile with samples whose centre is inside the region, else
    /// −∞. Every point of a tile with clearance `c > 0` is more than
    /// `c` plus the slack away from the boundary, on the inside.
    clearance: Vec<f64>,
}

impl Tiles {
    fn new(region: &PolygonWithHoles, samples: &[Point], spacing: f64) -> Self {
        let bb = region.bbox();
        let (w, h) = (bb.width(), bb.height());
        let dims = |side: f64| {
            (
                ((w / side).ceil() as usize).max(1),
                ((h / side).ceil() as usize).max(1),
            )
        };
        let cap = (samples.len() / MIN_SAMPLES_PER_TILE).max(1);
        let mut side = TILE_SPACINGS * spacing;
        let (mut nx, mut ny) = dims(side);
        while nx.saturating_mul(ny) > cap {
            side *= 2.0;
            (nx, ny) = dims(side);
        }
        // Samples clamp into the grid; a tile's reach is measured from
        // the samples it holds, so rounding at tile edges is harmless.
        let tile_of = |p: &Point| {
            let tx = (((p.x - bb.min.x) / side) as usize).min(nx - 1);
            let ty = (((p.y - bb.min.y) / side) as usize).min(ny - 1);
            ty * nx + tx
        };
        let mut starts = vec![0u32; nx * ny + 1];
        for p in samples {
            starts[tile_of(p) + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; samples.len()];
        for (j, p) in samples.iter().enumerate() {
            let k = tile_of(p);
            order[cursor[k] as usize] = j as u32;
            cursor[k] += 1;
        }

        let half_diagonal = side * std::f64::consts::FRAC_1_SQRT_2;
        let slack = region.containment_slack();
        let mut centres = Vec::with_capacity(nx * ny);
        let mut reach = Vec::with_capacity(nx * ny);
        let mut clearance = Vec::with_capacity(nx * ny);
        for k in 0..nx * ny {
            let c = Point::new(
                bb.min.x + ((k % nx) as f64 + 0.5) * side,
                bb.min.y + ((k / nx) as f64 + 0.5) * side,
            );
            let members = &order[starts[k] as usize..starts[k + 1] as usize];
            centres.push(c);
            reach.push(
                members
                    .iter()
                    .map(|&j| samples[j as usize].distance(c))
                    .fold(0.0, f64::max),
            );
            clearance.push(if !members.is_empty() && region.contains(c) {
                region.distance_to_boundary(c) - half_diagonal - slack
            } else {
                f64::NEG_INFINITY
            });
        }
        Tiles {
            x0: bb.min.x,
            y0: bb.min.y,
            side,
            nx,
            ny,
            starts,
            order,
            centres,
            reach,
            clearance,
        }
    }

    /// The clearance of the tile holding `p`; −∞ when `p` (or a NaN) is
    /// outside the tile grid.
    fn clearance_at(&self, p: Point) -> f64 {
        let fx = (p.x - self.x0) / self.side;
        let fy = (p.y - self.y0) / self.side;
        // A NaN coordinate fails both ranges.
        if (0.0..self.nx as f64).contains(&fx) && (0.0..self.ny as f64).contains(&fy) {
            self.clearance[fy as usize * self.nx + fx as usize]
        } else {
            f64::NEG_INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn square(side: f64) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side))
    }

    #[test]
    fn sample_count_tracks_area() {
        let part = GridPartition::new(&square(100.0), 5.0);
        let expect = (100.0f64 / 5.0).powi(2);
        assert!((part.samples().len() as f64 - expect).abs() / expect < 0.1);
        assert_eq!(part.cell_area(), 25.0);
    }

    #[test]
    fn assign_partitions_all_samples() {
        let part = GridPartition::new(&square(60.0), 4.0);
        let sites = vec![Point::new(15.0, 30.0), Point::new(45.0, 30.0)];
        let labels = part.assign(&sites);
        assert_eq!(labels.len(), part.samples().len());
        assert!(labels.iter().all(|&i| i < 2));
        // Symmetric split.
        let first = labels.iter().filter(|&&i| i == 0).count() as isize;
        let diff = first - (labels.len() as isize - first);
        assert!(diff.abs() < 20, "unbalanced split: {diff}");
        // Every sample assigned to its nearer site.
        for (&s, &i) in part.samples().iter().zip(&labels) {
            let (own, other) = (sites[i as usize], sites[1 - i as usize]);
            assert!(s.distance(own) <= s.distance(other) + 1e-9);
        }
    }

    #[test]
    fn uniform_centroid_of_single_site_is_region_center() {
        let part = GridPartition::new(&square(80.0), 2.0);
        let c = part.centroids(&[Point::new(7.0, 9.0)], &Density::Uniform);
        assert!(c[0].distance(Point::new(40.0, 40.0)) < 2.0);
    }

    #[test]
    fn density_pulls_centroid() {
        // A small hole near the right edge: the density peaks around it.
        let outer = Polygon::rectangle(Point::ORIGIN, 80.0, 80.0);
        let hole = Polygon::rectangle(Point::new(68.0, 38.0), 4.0, 4.0);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 2.0);
        let dens = Density::HoleProximity {
            falloff: 15.0,
            gain: 20.0,
        };
        let c = part.centroids(&[Point::new(40.0, 40.0)], &dens);
        assert!(c[0].x > 45.0, "centroid {} not pulled toward density", c[0]);
    }

    #[test]
    fn centroid_snapped_out_of_hole() {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::rectangle(Point::new(35.0, 35.0), 30.0, 30.0);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 2.5);
        // One site centered: its region is the whole FoI, whose centroid
        // is the hole center — must be snapped to the hole boundary.
        let c = part.centroids(&[Point::new(50.0, 48.0)], &Density::Uniform);
        assert!(region.contains(c[0]));
        assert!(!region.in_hole(c[0]));
    }

    #[test]
    fn empty_region_site_keeps_position() {
        let part = GridPartition::new(&square(50.0), 2.0);
        // Second site is far outside; all samples go to the first.
        let sites = vec![Point::new(25.0, 25.0), Point::new(4000.0, 4000.0)];
        let c = part.centroids(&sites, &Density::Uniform);
        assert_eq!(c[1], sites[1]);
    }

    #[test]
    fn assign_grid_matches_brute_force() {
        // Deterministic pseudo-random sites (LCG), including exact
        // duplicates (index ties) and far-outlier sites.
        let part = GridPartition::new(&square(100.0), 1.5);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut sites: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 140.0 - 20.0, next() * 140.0 - 20.0))
            .collect();
        sites.push(sites[17]); // exact duplicate: tie must pick index 17
        sites.push(Point::new(5000.0, -5000.0)); // far outlier
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));

        // Sample exactly equidistant between two sites.
        let part = GridPartition::new(&square(10.0), 1.0);
        let sites = vec![Point::new(2.0, 5.0), Point::new(8.0, 5.0)];
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));

        // Degenerate: all sites coincident.
        let sites = vec![Point::new(5.0, 5.0); 4];
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));

        // NaN sites are never nearest; all-NaN sites label everything 0.
        let sites = vec![
            Point::new(f64::NAN, 5.0),
            Point::new(3.0, 3.0),
            Point::new(f64::NAN, f64::NAN),
            Point::new(7.0, 6.0),
        ];
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));
        let sites = vec![Point::new(f64::NAN, f64::NAN); 3];
        assert_eq!(part.assign(&sites), vec![0; part.samples().len()]);
    }

    #[test]
    fn sliver_gets_few_tiles_and_exact_labels() {
        // 400 m × 0.5 m at 0.1 m spacing: 8 spacings per tile would make
        // 500 tiles for 20 000 samples' worth of bounding box; the cap of
        // one tile per 16 samples holds instead.
        let sliver = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, 400.0, 0.5));
        let part = GridPartition::new(&sliver, 0.1);
        let tiles = part.tiles.centres.len();
        assert!(tiles <= part.samples().len() / 16, "{tiles} tiles");
        let sites: Vec<Point> = (0..40)
            .map(|i| Point::new(i as f64 * 10.0 + 3.0, (i % 3) as f64 * 0.2))
            .collect();
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));
    }

    #[test]
    fn streamed_centroids_match_the_per_region_loop() {
        let outer = Polygon::rectangle(Point::ORIGIN, 120.0, 90.0);
        let hole = Polygon::regular(Point::new(60.0, 45.0), 15.0, 9);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 1.7);
        let dens = Density::HoleProximity {
            falloff: 20.0,
            gain: 4.0,
        };
        let mut sites = crate::triangular_lattice(&region, 14.0);
        sites.push(Point::new(60.0, 45.0)); // in the hole
        sites.push(Point::new(-300.0, 10.0)); // far outside: no samples
                                              // The loop `centroids` replaced: per-site regions, then sums.
        let labels = part.assign_brute_force(&sites);
        let want: Vec<Point> = sites
            .iter()
            .enumerate()
            .map(|(i, &site)| {
                let mut wx = 0.0;
                let mut wy = 0.0;
                let mut w = 0.0;
                let mut any = false;
                for (&p, &l) in part.samples().iter().zip(&labels) {
                    if l as usize == i {
                        let rho = dens.eval(&region, p);
                        wx += rho * p.x;
                        wy += rho * p.y;
                        w += rho;
                        any = true;
                    }
                }
                if any {
                    region.clamp_inside(Point::new(wx / w, wy / w))
                } else {
                    site
                }
            })
            .collect();
        assert_eq!(part.centroids(&sites, &dens), want);
    }

    #[test]
    #[should_panic]
    fn assign_empty_sites_panics() {
        let part = GridPartition::new(&square(10.0), 1.0);
        let _ = part.assign(&[]);
    }
}
