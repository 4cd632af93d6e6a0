//! Continuous-time invariant audit: exact link stability and global
//! connectivity over piecewise-linear motion (Definitions 1 and 2).
//!
//! The paper's definitions quantify over **every instant** of the march.
//! Under Eqn. 2 every robot moves in straight lines between its own
//! breakpoints (its *knots*, see [`KnotTimeline`]), so on each piece of
//! the merge of two robots' knots both move linearly and their squared
//! distance is a convex quadratic in the time parameter,
//!
//! ```text
//! d²(τ) = ‖u + τ·w‖² = ‖w‖² τ² + 2(u·w) τ + ‖u‖²,
//! ```
//!
//! (`u` the relative position at the piece start, `w` the relative
//! displacement over the piece), so no sampling is ever needed:
//!
//! * the **maximum** of `d` over a piece is attained at a piece endpoint
//!   (convexity) — a link is stable on the whole axis iff it is within
//!   range at every merged knot;
//! * the instants where a pair **crosses** the range `r` are the roots
//!   of `d²(τ) = r²` — the unit-disk edge set only changes at those
//!   roots, so connectivity is certified by checking one instant inside
//!   each open interval between consecutive roots (at a root instant the
//!   edge set is a superset of both one-sided limits, because `d ≤ r` is
//!   a closed condition; a supergraph of a connected graph is
//!   connected).
//!
//! The audit runs in three steps, each doing only the work its metric
//! needs:
//!
//! 1. **Link pass.** Only the initial links are walked, each over the
//!    merge of its two robots' knots. Each walk depends on its own pair
//!    alone, so this already yields every violation, the preserved links
//!    and `L` exactly.
//! 2. **Certificate.** A preserved link is in range at every instant, so
//!    the robots it joins stay connected throughout. Union-find over the
//!    preserved links gives `k` components; `k = 1` certifies `C = 1`
//!    with no further work.
//! 3. **Contracted sweep.** Otherwise only pairs whose endpoints lie in
//!    different components can change the answer (a pair inside one
//!    component is a self-loop of the contracted graph). Those pairs are
//!    walked the same way, and their crossing instants form one global
//!    event axis on which a single offline dynamic-connectivity pass over
//!    the `k` component ids decides `C`: a divide-and-conquer with a
//!    rollback union-find whose independent subtrees fan out over
//!    [`anr_par`].
//!
//! The sweep's pair discovery is batched into *epochs* of the time axis:
//! one uniform grid built at the epoch's start prunes the `O(n²)` pair
//! set for the whole epoch. Each robot's deviation over an epoch is
//! bounded by summing `|Δp − v·Δs|` over its own pieces, with `v` one
//! drift velocity shared by all robots (inter-robot distances are
//! invariant under a common drift, so any shared `v` keeps the bound
//! valid; the swarm's mean keeps it tight), and a pair must start the
//! epoch within `range` plus both robots' deviations. All of this is
//! observation-order independent — every parallel path returns
//! byte-identical results at any worker count.
//!
//! [`audit_knots`] is the production audit; [`audit_trajectories`]
//! builds the knots of a [`TrajectorySet`] and runs it. The dense
//! [`audit_piecewise`] runs the same three steps over an explicit
//! timeline with every robot at every row, and is the reference the knot
//! audit is tested against. Violations are reported with the offending
//! link, the exact out-of-range interval, and the maximum distance
//! reached, and are mirrored as `anr-trace` events.

use crate::knots::{lerp_piece, KnotTimeline};
use crate::metrics::MetricsError;
use crate::trajectory::TrajectorySet;
use anr_geom::Point;
use anr_netgraph::{RollbackUnionFind, UnionFind, UnitDiskGraph};
use anr_trace::{TraceValue, Tracer};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// An initial link that left communication range during the march.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkViolation {
    /// The offending link `(i, j)`, `i < j`.
    pub link: (usize, usize),
    /// First maximal interval of the audited time axis during which the
    /// pair was out of range (exact roots of `d²(s) = r²`, not samples).
    pub interval: (f64, f64),
    /// Maximum distance the pair reached over the whole axis.
    pub max_distance: f64,
}

/// Result of a continuous-time audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Number of robots audited.
    pub robots: usize,
    /// Links of the initial unit-disk graph (denominator of `L`).
    pub initial_links: usize,
    /// Initial links within range at **every** instant.
    pub preserved_links: usize,
    /// Exact total stable link ratio `L` (1.0 when there are no links).
    pub stable_link_ratio: f64,
    /// 1 when the network was connected at every instant, else 0.
    pub global_connectivity: u8,
    /// Every broken initial link, with its exact violation interval.
    pub violations: Vec<LinkViolation>,
    /// Maximal intervals of the audited time axis during which the
    /// network was disconnected (empty iff `global_connectivity == 1`).
    pub disconnected_intervals: Vec<(f64, f64)>,
    /// Linear motion pieces audited: every robot's own pieces summed
    /// (`knots − robots`) for [`audit_knots`]; timeline rows − 1 for the
    /// dense [`audit_piecewise`], whose row steps move every robot at
    /// once.
    pub pieces: usize,
    /// Knots audited: every robot's own breakpoints summed
    /// (`robots × rows` for a dense timeline).
    pub knots: usize,
    /// Connectivity check instants examined: one per open interval
    /// between consecutive cross-component crossing events on the
    /// contracted event axis (events + 1), or 1 when the preserved links
    /// alone certify `C = 1`.
    pub connectivity_checks: usize,
    /// Connected components of the preserved initial links (1 certifies
    /// `C = 1` without a sweep).
    pub components: usize,
    /// Cross-component pairs the contracted sweep walked (0 when
    /// certified).
    pub swept_pairs: usize,
}

impl AuditReport {
    /// True when both invariants held: `C = 1` and no link violations.
    #[must_use]
    pub fn certified(&self) -> bool {
        self.global_connectivity == 1 && self.violations.is_empty()
    }
}

/// Audits a [`TrajectorySet`] continuously over `s ∈ [0, 1]`: the
/// [`audit_knots`] of its waypoints, with the links of the unit-disk
/// graph at `s = 0`.
///
/// # Errors
///
/// [`MetricsError`] on non-positive range or non-finite positions.
pub fn audit_trajectories(
    set: &TrajectorySet,
    range: f64,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    check_range(range)?;
    let knots = KnotTimeline::from_trajectories(set, &[])?;
    let initial = UnitDiskGraph::new(&knots.initial_positions(), range);
    audit_knots(&knots, &initial, 0, tracer)
}

/// Audits each robot's own piecewise-linear motion: the initial links
/// are `initial`'s (the unit-disk graph of every robot's first knot, at
/// `initial.range()`), and every instant of `knots.bounds()` counts.
///
/// Emits `audit_violation` events inside an `audit_links` span,
/// `audit_disconnect` events inside an `audit_sweep` span (opened only
/// when the preserved links leave more than one component), and a final
/// `audit_summary` event.
///
/// Pair chunks of the link pass and of the sweep, discovery epochs and
/// subtrees of the offline dynamic connectivity fan out over `workers`
/// threads (0 = auto). Each is merged back in deterministic input order,
/// so the report (and every trace event) is byte-identical whatever
/// `workers` is.
///
/// # Errors
///
/// [`MetricsError::LengthMismatch`] when `initial` covers a different
/// number of robots than `knots`.
pub fn audit_knots(
    knots: &KnotTimeline,
    initial: &UnitDiskGraph,
    workers: usize,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    if initial.len() != knots.robots() {
        return Err(MetricsError::LengthMismatch {
            expected: knots.robots(),
            got: initial.len(),
        });
    }
    let motion = KnotMotion::new(knots, initial.range());
    Ok(run_audit(
        &motion,
        &initial.links(),
        workers,
        tracer,
        true,
        (knots.len() - knots.robots(), knots.len()),
    ))
}

/// Audits an explicit piecewise-linear timeline: `rows[k]` holds every
/// robot's position at normalized time `times[k]`, and every robot moves
/// **linearly** between consecutive rows (rows must therefore include
/// every trajectory breakpoint — see [`TrajectorySet::breakpoints`]).
///
/// This dense form is the reference [`audit_knots`] is tested against;
/// it emits the same spans and events.
///
/// Worker count: [`anr_par::default_workers`]. The result is
/// byte-identical at any worker count (see
/// [`audit_piecewise_with_workers`]).
///
/// # Errors
///
/// [`MetricsError`] on an empty or ragged timeline, mismatched or
/// non-monotonic `times`, non-positive `range`, or non-finite positions.
pub fn audit_piecewise(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    audit_piecewise_with_workers(rows, times, range, 0, tracer)
}

/// [`audit_piecewise`] with an explicit worker count (0 = auto).
///
/// Parallel fan-out happens over three structures — pair chunks of the
/// link pass and of the sweep, piece epochs of the sweep's pair
/// discovery, and subtrees of the offline dynamic-connectivity
/// divide-and-conquer. Each is merged back in deterministic input order,
/// so the report (and every trace event) is byte-identical whatever
/// `workers` is.
///
/// # Errors
///
/// See [`audit_piecewise`].
pub fn audit_piecewise_with_workers(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    workers: usize,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    audit_contracted(rows, times, range, workers, tracer, true)
}

/// The same audit with every robot its own component: no certificate,
/// and the sweep walks every candidate pair on the full `n`-robot axis.
/// This is the reference [`audit_piecewise_with_workers`] is tested
/// against: `C`, `L`, the violations and the preserved links agree
/// exactly, the disconnected intervals in count and to the 1e-12
/// event-merge tolerance.
///
/// # Errors
///
/// See [`audit_piecewise`].
#[doc(hidden)]
pub fn audit_piecewise_uncontracted(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    workers: usize,
) -> Result<AuditReport, MetricsError> {
    audit_contracted(rows, times, range, workers, &Tracer::disabled(), false)
}

/// The dense audit. With `certify`, the sweep runs on the components of
/// the preserved links; without it, every robot is its own component.
fn audit_contracted(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    workers: usize,
    tracer: &Tracer,
    certify: bool,
) -> Result<AuditReport, MetricsError> {
    check_range(range)?;
    validate_rows(rows, times)?;
    let stripes = Stripes::new(rows, times, range);
    let links = UnitDiskGraph::new(&rows[0], range).links();
    let counts = (rows.len() - 1, rows.len() * rows[0].len());
    Ok(run_audit(
        &stripes, &links, workers, tracer, certify, counts,
    ))
}

/// A motion the three audit steps can walk: pair by pair over its
/// pieces, and epoch by epoch for the sweep's pair discovery.
trait Motion: Sync {
    /// One grid pass of the sweep's pair discovery.
    type Epoch: Sync;

    /// Number of robots.
    fn robots(&self) -> usize;

    /// The audited time axis.
    fn bounds(&self) -> (f64, f64);

    /// Walks pair `(i, j)` over every piece on which both move
    /// linearly, recording its spans, events and violation in `out`.
    fn walk_pair(&self, out: &mut PairScan, i: usize, j: usize);

    /// Discovery epochs covering the whole axis.
    fn epochs(&self) -> Vec<Self::Epoch>;

    /// The robots' positions at the epoch's start, and a cutoff: every
    /// pair that comes within range during the epoch starts it within
    /// the cutoff.
    fn epoch_grid(&self, epoch: &Self::Epoch) -> (Cow<'_, [Point]>, f64);
}

/// The three audit steps over `motion`, whose initial links are `links`
/// (in index order). `counts` is the report's `(pieces, knots)`.
fn run_audit<M: Motion>(
    motion: &M,
    links: &[(usize, usize)],
    workers: usize,
    tracer: &Tracer,
    certify: bool,
    counts: (usize, usize),
) -> AuditReport {
    let n = motion.robots();
    let (t0, t1) = motion.bounds();

    // ------------------------------------------------------------------
    // 1. Link pass. A violating link is exactly an initial link whose
    // in-range spans fail to cover [t0, t1] (d² is convex per piece, so
    // any excursion beyond range shows up as a span gap). The walker
    // reports each one with its first out-of-range interval and its
    // maximum distance, in link order.
    // ------------------------------------------------------------------
    let link_pass = tracer.span("audit_links");
    let link_pairs: Vec<(u32, u32)> = links.iter().map(|&(i, j)| (i as u32, j as u32)).collect();
    let violations: Vec<LinkViolation> = walk(motion, &link_pairs, workers)
        .violations
        .into_iter()
        .map(|(i, j, lo, hi, max_distance)| LinkViolation {
            link: (i as usize, j as usize),
            interval: (lo, hi),
            max_distance,
        })
        .collect();
    for v in &violations {
        tracer.event(
            "audit_violation",
            &[
                ("i", TraceValue::U64(v.link.0 as u64)),
                ("j", TraceValue::U64(v.link.1 as u64)),
                ("s_lo", TraceValue::F64(v.interval.0)),
                ("s_hi", TraceValue::F64(v.interval.1)),
                ("max_distance", TraceValue::F64(v.max_distance)),
            ],
        );
    }
    drop(link_pass);

    // ------------------------------------------------------------------
    // 2. Certificate. A preserved link is in range at every instant, so
    // the robots of one component of the preserved links stay connected
    // throughout. Component ids are numbered by lowest robot index.
    // ------------------------------------------------------------------
    let (comp, components): (Vec<u32>, usize) = if certify {
        let mut uf = UnionFind::new(n);
        let mut broken = violations.iter().map(|v| v.link).peekable();
        for &(i, j) in links {
            if broken.next_if_eq(&(i, j)).is_none() {
                uf.union(i, j);
            }
        }
        let mut id = vec![u32::MAX; n];
        let mut k = 0u32;
        let comp = (0..n)
            .map(|i| {
                let root = uf.find(i);
                if id[root] == u32::MAX {
                    id[root] = k;
                    k += 1;
                }
                id[root]
            })
            .collect();
        (comp, k as usize)
    } else {
        ((0..n as u32).collect(), n)
    };

    // ------------------------------------------------------------------
    // 3. Contracted sweep. Only cross-component pairs can join or split
    // components, and the contracted graph changes only at their
    // crossing instants (plus exact-at-a-knot status flips, which the
    // walker reports explicitly), so one check instant inside each open
    // interval between consecutive events certifies the whole axis.
    // ------------------------------------------------------------------
    let mut disconnected_intervals: Vec<(f64, f64)> = Vec::new();
    let (mut connectivity_checks, mut swept_pairs) = (1, 0);
    if components > 1 {
        let _sweep = tracer.span("audit_sweep");
        let pairs = cross_pairs(motion, &comp, workers);
        swept_pairs = pairs.len();
        let scan = walk(motion, &pairs, workers);

        let mut events: Vec<f64> = scan
            .events
            .into_iter()
            .filter(|&e| e > t0 && e < t1)
            .collect();
        events.sort_by(f64::total_cmp);
        events.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
        let interval = |k: usize| {
            let lo = if k == 0 { t0 } else { events[k - 1] };
            (lo, events.get(k).copied().unwrap_or(t1))
        };
        let mids: Vec<f64> = (0..=events.len())
            .map(|k| {
                let (lo, hi) = interval(k);
                0.5 * (lo + hi)
            })
            .collect();
        connectivity_checks = mids.len();

        // Maximal in-range spans mapped to interval-index runs between
        // component ids.
        let spans: Vec<(u32, u32, u32, u32)> = scan
            .spans
            .iter()
            .filter_map(|&(i, j, elo, ehi)| {
                let a = mids.partition_point(|&m| m < elo);
                let b = mids.partition_point(|&m| m <= ehi);
                (a < b).then(|| (comp[i as usize], comp[j as usize], a as u32, (b - 1) as u32))
            })
            .collect();
        for k in disconnected_leaves_par(components, mids.len(), &spans, workers) {
            merge_interval(&mut disconnected_intervals, interval(k));
        }
        for &(lo, hi) in &disconnected_intervals {
            tracer.event(
                "audit_disconnect",
                &[("s_lo", TraceValue::F64(lo)), ("s_hi", TraceValue::F64(hi))],
            );
        }
    }

    let initial_links = links.len();
    let preserved_links = initial_links - violations.len();
    let stable_link_ratio = if initial_links == 0 {
        1.0
    } else {
        preserved_links as f64 / initial_links as f64
    };
    let report = AuditReport {
        robots: n,
        initial_links,
        preserved_links,
        stable_link_ratio,
        global_connectivity: u8::from(disconnected_intervals.is_empty()),
        violations,
        disconnected_intervals,
        pieces: counts.0,
        knots: counts.1,
        connectivity_checks,
        components,
        swept_pairs,
    };
    trace_summary(tracer, &report);
    report
}

fn trace_summary(tracer: &Tracer, report: &AuditReport) {
    tracer.event(
        "audit_summary",
        &[
            ("robots", TraceValue::U64(report.robots as u64)),
            (
                "initial_links",
                TraceValue::U64(report.initial_links as u64),
            ),
            (
                "violations",
                TraceValue::U64(report.violations.len() as u64),
            ),
            (
                "stable_link_ratio",
                TraceValue::F64(report.stable_link_ratio),
            ),
            (
                "global_connectivity",
                TraceValue::U64(u64::from(report.global_connectivity)),
            ),
            (
                "connectivity_checks",
                TraceValue::U64(report.connectivity_checks as u64),
            ),
            ("components", TraceValue::U64(report.components as u64)),
            ("swept_pairs", TraceValue::U64(report.swept_pairs as u64)),
            ("knots", TraceValue::U64(report.knots as u64)),
        ],
    );
}

/// Pair-walk output, all values on the global time axis.
#[derive(Default)]
struct PairScan {
    /// Edge-set change instants (crossing roots plus exact-at-a-knot
    /// status flips), unsorted, possibly including the axis bounds.
    events: Vec<f64>,
    /// Maximal closed in-range intervals, grouped by pair and
    /// time-sorted within a pair.
    spans: Vec<(u32, u32, f64, f64)>,
    /// `(i, j, out_lo, out_hi, max_distance)` for every walked pair
    /// that was in range at the axis start but not for the whole axis,
    /// in walk order.
    violations: Vec<(u32, u32, f64, f64, f64)>,
}

/// Walks every pair over the whole axis. Pair chunks are independent;
/// concatenating their outputs in order keeps spans and violations in
/// pair order.
fn walk<M: Motion>(motion: &M, pairs: &[(u32, u32)], workers: usize) -> PairScan {
    let outs: Vec<PairScan> = anr_par::par_chunks(pairs, 2048, workers, |chunk| {
        let mut out = PairScan::default();
        for &(i, j) in chunk {
            motion.walk_pair(&mut out, i as usize, j as usize);
        }
        out
    });
    let mut all = PairScan::default();
    for o in outs {
        all.events.extend(o.events);
        all.spans.extend(o.spans);
        all.violations.extend(o.violations);
    }
    all
}

/// Every pair `i < j` with `comp[i] != comp[j]` that can come within
/// range at some instant, in index order.
///
/// One uniform grid per discovery epoch marks every pair that can come
/// within range during that epoch. The union across epochs (a bit-OR,
/// order-independent) is the full candidate set; pairs never marked are
/// provably never in range.
fn cross_pairs<M: Motion>(motion: &M, comp: &[u32], workers: usize) -> Vec<(u32, u32)> {
    let n = comp.len();
    let cross = |i: u32, j: u32| comp[i as usize] != comp[j as usize];
    if n < 64 {
        return (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .filter(|&(i, j)| cross(i, j))
            .collect();
    }
    let words = (n * n).div_ceil(64);
    // One bitset per chunk of epochs, not per epoch: the OR is the same
    // either way, and fewer live bitsets keep the peak memory down.
    let sets: Vec<Vec<u64>> = anr_par::par_chunks(&motion.epochs(), 8, workers, |chunk| {
        let mut bits = vec![0u64; words];
        for epoch in chunk {
            let (start, cutoff) = motion.epoch_grid(epoch);
            for_each_near_pair(&start, cutoff, &mut |i, j| {
                let idx = i * n + j;
                bits[idx >> 6] |= 1 << (idx & 63);
            });
        }
        bits
    });
    let mut bits = vec![0u64; words];
    for s in &sets {
        for (w, &v) in bits.iter_mut().zip(s) {
            *w |= v;
        }
    }
    let mut pairs = Vec::new();
    for (wi, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let idx = wi * 64 + word.trailing_zeros() as usize;
            let (i, j) = ((idx / n) as u32, (idx % n) as u32);
            if cross(i, j) {
                pairs.push((i, j));
            }
            word &= word - 1;
        }
    }
    pairs
}

/// One pair's walk over consecutive linear pieces: whether the pair is
/// in range at the current breakpoint, and when its open in-range span
/// began. Both walkers feed it the same per-piece quadratic.
struct PairState {
    i: u32,
    j: u32,
    initial_in: bool,
    prev_in: bool,
    open: Option<f64>,
    first_span: usize,
}

impl PairState {
    /// Starts a walk at `t0`, where the pair's squared distance is `d2`.
    fn start(out: &PairScan, i: usize, j: usize, d2: f64, r2: f64, t0: f64) -> Self {
        let initial_in = d2 <= r2;
        PairState {
            i: i as u32,
            j: j as u32,
            initial_in,
            prev_in: initial_in,
            open: initial_in.then_some(t0),
            first_span: out.spans.len(),
        }
    }

    /// One linear piece `[piece_lo, piece_hi]` over which the pair's
    /// relative position moves from `(ux, uy)` by `(wx, wy)`: the exact
    /// roots of `d² = r²` become events and span ends.
    fn piece(
        &mut self,
        out: &mut PairScan,
        (ux, uy): (f64, f64),
        (wx, wy): (f64, f64),
        piece_lo: f64,
        piece_hi: f64,
        r2: f64,
    ) {
        let (qa, qb, qc) = (wx * wx + wy * wy, ux * wx + uy * wy, ux * ux + uy * uy - r2);
        let span_w = piece_hi - piece_lo;
        let mut iv: Option<(f64, f64)> = None;
        if qa <= 0.0 {
            if qc <= 0.0 {
                iv = Some((0.0, 1.0));
            }
        } else {
            let disc = qb * qb - qa * qc;
            if disc <= 0.0 {
                if qc <= 0.0 {
                    iv = Some((0.0, 1.0));
                }
            } else {
                let sq = disc.sqrt();
                let (root1, root2) = ((-qb - sq) / qa, (-qb + sq) / qa);
                if root2 > 0.0 && root1 < 1.0 {
                    for root in [root1, root2] {
                        if root > 0.0 && root < 1.0 {
                            out.events.push(piece_lo + root * span_w);
                        }
                    }
                    let (lo, hi) = (root1.max(0.0), root2.min(1.0));
                    if hi > lo {
                        iv = Some((lo, hi));
                    }
                }
            }
        }

        // A status flip exactly at the piece start has no interior
        // root; the global axis still needs the event.
        let in_start = matches!(iv, Some((lo, _)) if lo == 0.0);
        if in_start != self.prev_in {
            out.events.push(piece_lo);
            if self.prev_in {
                let s0 = self.open.take().unwrap_or(piece_lo);
                out.spans.push((self.i, self.j, s0, piece_lo));
            } else {
                self.open = Some(piece_lo);
            }
        }
        match iv {
            None => self.prev_in = false,
            Some((lo, hi)) => {
                if lo > 0.0 {
                    self.open = Some(piece_lo + lo * span_w);
                }
                if hi < 1.0 {
                    let s0 = self.open.take().unwrap_or(piece_lo);
                    out.spans.push((self.i, self.j, s0, piece_lo + hi * span_w));
                    self.prev_in = false;
                } else {
                    self.prev_in = true;
                }
            }
        }
    }

    /// Closes the walk at `t1`. An initial link whose spans don't cover
    /// `[t0, t1]` broke: it is reported with its first out-of-range
    /// interval and its maximum distance, the square root of
    /// `max_d2()` (d is convex per piece, so the maximum over the
    /// breakpoints is the exact maximum over all time).
    fn finish(self, out: &mut PairScan, (t0, t1): (f64, f64), max_d2: impl FnOnce() -> f64) {
        if let Some(s0) = self.open {
            out.spans.push((self.i, self.j, s0, t1));
        }
        if self.initial_in {
            let spans = &out.spans[self.first_span..];
            let fully = spans.len() == 1 && spans[0].2 == t0 && spans[0].3 == t1;
            if !fully {
                let interval = first_out_from_spans(spans, t0, t1);
                let m = max_d2().sqrt();
                out.violations
                    .push((self.i, self.j, interval.0, interval.1, m));
            }
        }
    }
}

/// The knot motion: every robot on its own knots.
struct KnotMotion<'a> {
    knots: &'a KnotTimeline,
    range: f64,
    r2: f64,
}

impl<'a> KnotMotion<'a> {
    fn new(knots: &'a KnotTimeline, range: f64) -> Self {
        KnotMotion {
            knots,
            range,
            r2: range * range,
        }
    }

    /// Each own piece's deviation from the shared drift, `|Δp − v·Δs|`,
    /// aligned with the packed knots (the entry of a robot's last knot
    /// is unused). `v` is the swarm's mean velocity between consecutive
    /// instants where every robot knots, so no piece straddles a change
    /// of `v`.
    fn deviations(&self) -> Vec<f64> {
        let knots = self.knots;
        let (n, shared) = (knots.robots(), knots.shared());
        let mut drift = vec![(0.0f64, 0.0f64); shared.len().saturating_sub(1)];
        for i in 0..n {
            let (s, p) = knots.knots(i);
            let (mut m, mut from) = (0, p[0]);
            for (&t, &q) in s.iter().zip(p).skip(1) {
                if t == shared[m + 1] {
                    drift[m].0 += q.x - from.x;
                    drift[m].1 += q.y - from.y;
                    from = q;
                    m += 1;
                }
            }
        }
        let velocity: Vec<(f64, f64)> = drift
            .iter()
            .zip(shared.windows(2))
            .map(|(&(dx, dy), w)| {
                let scale = 1.0 / (n as f64 * (w[1] - w[0]));
                (dx * scale, dy * scale)
            })
            .collect();
        let mut dev = vec![0.0f64; knots.len()];
        for i in 0..n {
            let (s, p) = knots.knots(i);
            let base = knots.offset(i);
            let mut m = 0;
            for k in 0..s.len().saturating_sub(1) {
                while s[k] >= shared[m + 1] {
                    m += 1;
                }
                let dt = s[k + 1] - s[k];
                let dx = p[k + 1].x - p[k].x - velocity[m].0 * dt;
                let dy = p[k + 1].y - p[k].y - velocity[m].1 * dt;
                dev[base + k] = (dx * dx + dy * dy).sqrt();
            }
        }
        dev
    }
}

/// A knot discovery epoch: its start and its grid cutoff.
struct KnotEpoch {
    start: f64,
    cutoff: f64,
}

impl Motion for KnotMotion<'_> {
    type Epoch = KnotEpoch;

    fn robots(&self) -> usize {
        self.knots.robots()
    }

    fn bounds(&self) -> (f64, f64) {
        self.knots.bounds()
    }

    /// Walks the merge of the two robots' knots. At a merged knot that
    /// is one robot's own, that robot sits exactly on its knot; the
    /// other is interpolated on its current piece.
    fn walk_pair(&self, out: &mut PairScan, i: usize, j: usize) {
        let (sa, pa) = self.knots.knots(i);
        let (sb, pb) = self.knots.knots(j);
        let bounds = self.knots.bounds();
        let rel = |p: Point, q: Point| (p.x - q.x, p.y - q.y);
        let mut u = rel(pa[0], pb[0]);
        let mut max_d2 = u.0 * u.0 + u.1 * u.1;
        let mut state = PairState::start(out, i, j, max_d2, self.r2, bounds.0);
        let (mut a, mut b, mut t) = (0, 0, bounds.0);
        while a + 1 < sa.len() && b + 1 < sb.len() {
            let (na, nb) = (sa[a + 1], sb[b + 1]);
            let next = na.min(nb);
            let qa = if na == next {
                pa[a + 1]
            } else {
                lerp_piece(sa, pa, a, next)
            };
            let qb = if nb == next {
                pb[b + 1]
            } else {
                lerp_piece(sb, pb, b, next)
            };
            let v = rel(qa, qb);
            state.piece(out, u, (v.0 - u.0, v.1 - u.1), t, next, self.r2);
            max_d2 = max_d2.max(v.0 * v.0 + v.1 * v.1);
            a += usize::from(na == next);
            b += usize::from(nb == next);
            (u, t) = (v, next);
        }
        state.finish(out, bounds, || max_d2);
    }

    /// Greedy epochs: each ends where the first robot's deviation since
    /// the epoch start reaches half the range (or at the next knot of
    /// any robot, if that comes first in floating point). The cutoff is
    /// `range + 2·(largest deviation over the epoch)`, with a relative
    /// slack for rounding in the interpolated starts.
    fn epochs(&self) -> Vec<KnotEpoch> {
        let knots = self.knots;
        let n = knots.robots();
        let (t0, t1) = knots.bounds();
        let slack = 1.0 + 1e-9;
        if t1 <= t0 {
            return vec![KnotEpoch {
                start: t0,
                cutoff: self.range * slack,
            }];
        }
        let dev = self.deviations();
        // Deviation of robot i's piece k over [x, y] within it.
        let part = |i: usize, s: &[f64], k: usize, x: f64, y: f64| {
            dev[knots.offset(i) + k] * ((y - x) / (s[k + 1] - s[k]))
        };
        let budget = 0.5 * self.range;
        // Robot i is on piece cursor[i] at the epoch start `a`.
        let mut cursor = vec![0usize; n];
        let mut epochs = Vec::new();
        let mut a = t0;
        while a < t1 {
            let mut b = t1;
            let mut next_knot = t1;
            for (i, &k0) in cursor.iter().enumerate() {
                let s = knots.knots(i).0;
                next_knot = next_knot.min(s[k0 + 1]);
                let (mut k, mut x, mut acc) = (k0, a, 0.0);
                while k + 1 < s.len() && x < b {
                    let d = part(i, s, k, x, s[k + 1]);
                    if acc + d > budget {
                        b = b.min(x + (s[k + 1] - x) * ((budget - acc) / d));
                        break;
                    }
                    acc += d;
                    x = s[k + 1];
                    k += 1;
                }
            }
            if b <= a {
                b = next_knot;
            }
            let mut worst = 0.0f64;
            for (i, k) in cursor.iter_mut().enumerate() {
                let s = knots.knots(i).0;
                let (mut x, mut acc) = (a, 0.0);
                while *k + 1 < s.len() && s[*k + 1] <= b {
                    acc += part(i, s, *k, x, s[*k + 1]);
                    x = s[*k + 1];
                    *k += 1;
                }
                if *k + 1 < s.len() && x < b {
                    acc += part(i, s, *k, x, b);
                }
                worst = worst.max(acc);
            }
            epochs.push(KnotEpoch {
                start: a,
                cutoff: (self.range + 2.0 * worst) * slack,
            });
            a = b;
        }
        epochs
    }

    fn epoch_grid(&self, epoch: &KnotEpoch) -> (Cow<'_, [Point]>, f64) {
        let start = (0..self.knots.robots())
            .map(|i| self.knots.position_at(i, epoch.start))
            .collect();
        (Cow::Owned(start), epoch.cutoff)
    }
}

/// Struct-of-arrays layout of a dense timeline shared by every pair
/// walk: positions plus a per-robot cumulative *deviation* prefix,
/// robot-major (`arr[i * nrows + r]`). The deviation frame subtracts
/// each piece's mean displacement over all robots: inter-robot distances
/// are invariant under the common drift, so every skip and cutoff bound
/// only spends budget on how far robots move relative to the formation
/// — for a marching swarm that is far smaller than absolute motion.
struct Stripes<'a> {
    rows: &'a [Vec<Point>],
    px: Vec<f64>,
    py: Vec<f64>,
    /// Per-robot deviation prefix (drives the per-pair galloping skip
    /// and the discovery cutoffs).
    cum: Vec<f64>,
    /// The largest single-robot deviation on each piece (drives the
    /// epoch budget).
    dmax: Vec<f64>,
    times: &'a [f64],
    pieces: usize,
    nrows: usize,
    range: f64,
    r2: f64,
}

impl<'a> Stripes<'a> {
    fn new(rows: &'a [Vec<Point>], times: &'a [f64], range: f64) -> Self {
        let n = rows[0].len();
        let pieces = rows.len() - 1;
        let nrows = pieces + 1;
        // Transpose a block of robots at a time: each row read is then
        // contiguous and each stripe written sequentially, where a plain
        // row-by-row transpose misses cache on every write.
        const BLOCK: usize = 16;
        let mut px = vec![0.0f64; n * nrows];
        let mut py = vec![0.0f64; n * nrows];
        for i0 in (0..n).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(n);
            for (r, row) in rows.iter().enumerate() {
                for (i, p) in (i0..i1).zip(&row[i0..i1]) {
                    px[i * nrows + r] = p.x;
                    py[i * nrows + r] = p.y;
                }
            }
        }
        let inv_n = 1.0 / n as f64;
        let mut mean_dx = vec![0.0f64; pieces];
        let mut mean_dy = vec![0.0f64; pieces];
        for (r, (row, next)) in rows.iter().zip(&rows[1..]).enumerate() {
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for (p, q) in row.iter().zip(next) {
                sx += q.x - p.x;
                sy += q.y - p.y;
            }
            mean_dx[r] = sx * inv_n;
            mean_dy[r] = sy * inv_n;
        }
        let mut cum = vec![0.0f64; n * nrows];
        let mut dmax = vec![0.0f64; pieces];
        for i in 0..n {
            let base = i * nrows;
            for r in 1..nrows {
                let dx = px[base + r] - px[base + r - 1] - mean_dx[r - 1];
                let dy = py[base + r] - py[base + r - 1] - mean_dy[r - 1];
                let dev = (dx * dx + dy * dy).sqrt();
                cum[base + r] = cum[base + r - 1] + dev;
                dmax[r - 1] = dmax[r - 1].max(dev);
            }
        }
        Stripes {
            rows,
            px,
            py,
            cum,
            dmax,
            times,
            pieces,
            nrows,
            range,
            r2: range * range,
        }
    }
}

impl Motion for Stripes<'_> {
    /// `(first piece, piece count)`.
    type Epoch = (usize, usize);

    fn robots(&self) -> usize {
        self.rows[0].len()
    }

    fn bounds(&self) -> (f64, f64) {
        (self.times[0], self.times[self.pieces])
    }

    /// Walks the pair down the whole timeline, touching the two robots'
    /// contiguous stripes. It skips runs of pieces in `O(log)` whenever
    /// the pair's distance to the range circle exceeds what the two
    /// robots' remaining displacement can close.
    fn walk_pair(&self, out: &mut PairScan, i: usize, j: usize) {
        let (bi, bj) = (i * self.nrows, j * self.nrows);
        let d2 = {
            let dx = self.px[bi] - self.px[bj];
            let dy = self.py[bi] - self.py[bj];
            dx * dx + dy * dy
        };
        let mut state = PairState::start(out, i, j, d2, self.r2, self.times[0]);

        let mut r = 0usize;
        while r < self.pieces {
            let dx = self.px[bi + r] - self.px[bj + r];
            let dy = self.py[bi + r] - self.py[bj + r];
            let dist = (dx * dx + dy * dy).sqrt();
            // Small relative margin so a rounding wobble in the bound
            // can never skip over a genuine grazing crossing.
            let gap = (dist - self.range).abs() - 1e-9 * (dist + self.range);
            if gap > 0.0 {
                // Skip every piece the pair provably cannot cross: their
                // combined displacement bound is monotone, so gallop then
                // bisect for the farthest safe row.
                let c0 = self.cum[bi + r] + self.cum[bj + r];
                if self.cum[bi + r + 1] + self.cum[bj + r + 1] - c0 < gap {
                    let mut q = r + 1;
                    let mut step = 1usize;
                    while q + step <= self.pieces
                        && self.cum[bi + q + step] + self.cum[bj + q + step] - c0 < gap
                    {
                        q += step;
                        step *= 2;
                    }
                    let mut hi = (q + step).min(self.pieces);
                    while q < hi {
                        let m = q + (hi - q).div_ceil(2);
                        if self.cum[bi + m] + self.cum[bj + m] - c0 < gap {
                            q = m;
                        } else {
                            hi = m - 1;
                        }
                    }
                    r = q;
                    continue;
                }
            }

            // Exact quadratic on piece r.
            let wx = (self.px[bi + r + 1] - self.px[bj + r + 1]) - dx;
            let wy = (self.py[bi + r + 1] - self.py[bj + r + 1]) - dy;
            state.piece(
                out,
                (dx, dy),
                (wx, wy),
                self.times[r],
                self.times[r + 1],
                self.r2,
            );
            r += 1;
        }
        state.finish(out, self.bounds(), || {
            let mut m = 0.0f64;
            for r in 0..self.nrows {
                let dx = self.px[bi + r] - self.px[bj + r];
                let dy = self.py[bi + r] - self.py[bj + r];
                m = m.max(dx * dx + dy * dy);
            }
            m
        });
    }

    /// Epochs of consecutive pieces, grown greedily while the sum of the
    /// pieces' largest single-robot deviation stays within half the
    /// range (a single row is one empty epoch).
    fn epochs(&self) -> Vec<(usize, usize)> {
        let budget = 0.5 * self.range;
        let mut epochs: Vec<(usize, usize)> = Vec::new();
        let mut k = 0;
        while k < self.pieces {
            let mut len = 1;
            let mut moved = self.dmax[k];
            while k + len < self.pieces && moved + self.dmax[k + len] <= budget {
                moved += self.dmax[k + len];
                len += 1;
            }
            epochs.push((k, len));
            k += len;
        }
        if epochs.is_empty() {
            epochs.push((0, 0));
        }
        epochs
    }

    /// The epoch's first row; a pair must start the epoch within
    /// `range + 2·(max per-robot deviation over the epoch)`.
    fn epoch_grid(&self, &(k0, npieces): &(usize, usize)) -> (Cow<'_, [Point]>, f64) {
        let mut move_max = 0.0f64;
        for i in 0..self.rows[0].len() {
            let base = i * self.nrows;
            move_max = move_max.max(self.cum[base + k0 + npieces] - self.cum[base + k0]);
        }
        (Cow::Borrowed(&self.rows[k0]), self.range + 2.0 * move_max)
    }
}

/// First maximal out-of-range interval of a link given its in-range
/// spans over `[t0, t1]` (time-sorted): the complement's first run,
/// with in-range gaps ≤ 1e-12 bridged. Degenerate `(t0, t0)` when the
/// link only grazes out of range at isolated instants.
fn first_out_from_spans(in_spans: &[(u32, u32, f64, f64)], t0: f64, t1: f64) -> (f64, f64) {
    let mut outs: Vec<(f64, f64)> = Vec::new();
    let mut cursor = t0;
    for &(_, _, lo, hi) in in_spans {
        if lo > cursor {
            outs.push((cursor, lo));
        }
        cursor = cursor.max(hi);
    }
    if cursor < t1 {
        outs.push((cursor, t1));
    }
    let mut it = outs.into_iter();
    let Some((start, mut end)) = it.next() else {
        return (t0, t0);
    };
    for (lo, hi) in it {
        if lo <= end + 1e-12 {
            end = end.max(hi);
        } else {
            break;
        }
    }
    (start, end)
}

fn check_range(range: f64) -> Result<(), MetricsError> {
    if range.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MetricsError::NonPositiveRange { range });
    }
    Ok(())
}

/// Checks a dense timeline: at least one row, one instant per row,
/// every row covering row 0's robots with finite positions, and finite
/// strictly increasing instants.
pub(crate) fn validate_rows(rows: &[Vec<Point>], times: &[f64]) -> Result<(), MetricsError> {
    if rows.is_empty() {
        return Err(MetricsError::EmptyTimeline);
    }
    if times.len() != rows.len() {
        return Err(MetricsError::LengthMismatch {
            expected: rows.len(),
            got: times.len(),
        });
    }
    let n = rows[0].len();
    for (k, row) in rows.iter().enumerate() {
        if row.len() != n {
            return Err(MetricsError::RaggedTimeline {
                row: k,
                got: row.len(),
                expected: n,
            });
        }
        if let Some(robot) = row.iter().position(|p| !p.is_finite()) {
            return Err(MetricsError::NonFinitePosition { row: k, robot });
        }
    }
    if let Some(idx) = times
        .windows(2)
        .position(|w| w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater))
    {
        return Err(MetricsError::NonMonotonicTimes { index: idx + 1 });
    }
    if times.iter().any(|t| !t.is_finite()) {
        return Err(MetricsError::NonMonotonicTimes { index: 0 });
    }
    Ok(())
}

/// Calls `f(i, j)` (with `i < j`) exactly once for every pair of points
/// within `cutoff` of each other — and possibly for some farther pairs,
/// which the callback must re-filter. Uniform grid with `cutoff`-sized
/// cells: near pairs share a cell or sit in 8-adjacent cells, and each
/// unordered cell pair is enumerated once via a forward
/// half-neighborhood. `O(n + near pairs)` instead of `O(n²)`; iteration
/// order is unspecified.
fn for_each_near_pair(points: &[Point], cutoff: f64, f: &mut impl FnMut(usize, usize)) {
    debug_assert!(cutoff > 0.0 && cutoff.is_finite());
    let inv = 1.0 / cutoff;
    let mut cells: BTreeMap<(i64, i64), Vec<u32>> = BTreeMap::new();
    for (k, p) in points.iter().enumerate() {
        let key = ((p.x * inv).floor() as i64, (p.y * inv).floor() as i64);
        cells.entry(key).or_default().push(k as u32);
    }
    const FWD: [(i64, i64); 4] = [(1, -1), (1, 0), (1, 1), (0, 1)];
    for (&(cx, cy), members) in &cells {
        for (s, &i) in members.iter().enumerate() {
            for &j in &members[s + 1..] {
                f(i.min(j) as usize, i.max(j) as usize);
            }
        }
        for (dx, dy) in FWD {
            if let Some(other) = cells.get(&(cx.saturating_add(dx), cy.saturating_add(dy))) {
                for &i in members {
                    for &j in other {
                        f(i.min(j) as usize, i.max(j) as usize);
                    }
                }
            }
        }
    }
}

/// Offline dynamic connectivity over the global interval axis, fanned
/// out over [`anr_par`]: the recursion's independent subtrees are cut
/// off at a fixed depth (worker-count independent) into tasks, each
/// carrying the edges that fully cover its subtree (the unions its
/// ancestors would have applied). Each task replays those unions into a
/// fresh rollback union-find and runs the serial recursion; leaf
/// indices concatenate back in axis order.
fn disconnected_leaves_par(
    n: usize,
    num_leaves: usize,
    spans: &[(u32, u32, u32, u32)],
    workers: usize,
) -> Vec<usize> {
    struct Task {
        k_lo: usize,
        k_hi: usize,
        spans: Vec<(u32, u32, u32, u32)>,
        path: Vec<(u32, u32)>,
    }
    fn split(
        k_lo: usize,
        k_hi: usize,
        spans: Vec<(u32, u32, u32, u32)>,
        path: Vec<(u32, u32)>,
        depth: usize,
        uf: &mut RollbackUnionFind,
        tasks: &mut Vec<Task>,
    ) {
        if depth == 0 || k_lo == k_hi {
            tasks.push(Task {
                k_lo,
                k_hi,
                spans,
                path,
            });
            return;
        }
        let mark = uf.checkpoint();
        let mid = k_lo + (k_hi - k_lo) / 2;
        let mut covering = path;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &(i, j, a, b) in &spans {
            if a as usize <= k_lo && k_hi <= b as usize {
                covering.push((i, j));
                uf.union(i as usize, j as usize);
            } else {
                if a as usize <= mid {
                    left.push((i, j, a, b));
                }
                if b as usize > mid {
                    right.push((i, j, a, b));
                }
            }
        }
        // The covering edges alone already connect the graph: every
        // leaf below only gains edges, so the whole subtree is clean.
        if uf.num_sets() == 1 {
            uf.rollback(mark);
            return;
        }
        split(k_lo, mid, left, covering.clone(), depth - 1, uf, tasks);
        split(mid + 1, k_hi, right, covering, depth - 1, uf, tasks);
        uf.rollback(mark);
    }

    let mut tasks = Vec::new();
    let depth = if num_leaves >= 64 { 4 } else { 0 };
    let mut uf0 = RollbackUnionFind::new(n);
    split(
        0,
        num_leaves - 1,
        spans.to_vec(),
        Vec::new(),
        depth,
        &mut uf0,
        &mut tasks,
    );
    let results = anr_par::par_map(&tasks, workers, |t| {
        let mut uf = RollbackUnionFind::new(n);
        for &(i, j) in &t.path {
            uf.union(i as usize, j as usize);
        }
        let mut out = Vec::new();
        disconnected_leaves(t.k_lo, t.k_hi, &t.spans, &mut uf, &mut out);
        out
    });
    results.into_iter().flatten().collect()
}

/// Offline dynamic connectivity over the interval axis `[k_lo, k_hi]`:
/// an edge whose interval run covers the whole node is unioned once
/// here; the rest are handed to whichever children they overlap. Each
/// leaf is one open interval between consecutive edge-set change
/// events — its index is pushed to `out` when the graph there is
/// disconnected. Leaves are visited left to right, so `out` stays
/// sorted. Unions are rolled back on exit, so each edge costs
/// `O(log E)` unions overall instead of one scan per interval.
fn disconnected_leaves(
    k_lo: usize,
    k_hi: usize,
    spans: &[(u32, u32, u32, u32)],
    uf: &mut RollbackUnionFind,
    out: &mut Vec<usize>,
) {
    let mark = uf.checkpoint();
    if k_lo == k_hi {
        for &(i, j, _, _) in spans {
            uf.union(i as usize, j as usize);
        }
        if uf.num_sets() != 1 {
            out.push(k_lo);
        }
        uf.rollback(mark);
        return;
    }
    let mid = k_lo + (k_hi - k_lo) / 2;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &(i, j, a, b) in spans {
        if a as usize <= k_lo && k_hi <= b as usize {
            uf.union(i as usize, j as usize);
        } else {
            if a as usize <= mid {
                left.push((i, j, a, b));
            }
            if b as usize > mid {
                right.push((i, j, a, b));
            }
        }
    }
    // Covering edges alone connect the graph ⇒ every leaf below is
    // connected; prune the subtree.
    if uf.num_sets() == 1 {
        uf.rollback(mark);
        return;
    }
    disconnected_leaves(k_lo, mid, &left, uf, out);
    disconnected_leaves(mid + 1, k_hi, &right, uf, out);
    uf.rollback(mark);
}

/// Appends `iv` to `list`, merging with the previous interval when they
/// touch (intervals arrive in increasing order).
fn merge_interval(list: &mut Vec<(f64, f64)>, iv: (f64, f64)) {
    if let Some(last) = list.last_mut() {
        if iv.0 <= last.1 + 1e-12 {
            last.1 = last.1.max(iv.1);
            return;
        }
    }
    list.push(iv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Polyline;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// The knot audit agrees with the dense reference on the same
    /// motion: `C`, `L`, the preserved links and the violating links
    /// exactly, interval endpoints and maximum distances within 1e-9.
    fn assert_matches_reference(got: &AuditReport, want: &AuditReport) {
        assert_eq!(got.global_connectivity, want.global_connectivity);
        assert_eq!(got.stable_link_ratio, want.stable_link_ratio);
        assert_eq!(got.preserved_links, want.preserved_links);
        assert_eq!(got.components, want.components);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9;
        assert_eq!(got.violations.len(), want.violations.len());
        for (g, w) in got.violations.iter().zip(&want.violations) {
            assert_eq!(g.link, w.link);
            assert!(
                close(g.interval.0, w.interval.0) && close(g.interval.1, w.interval.1),
                "{g:?} vs {w:?}"
            );
            assert!(close(g.max_distance, w.max_distance), "{g:?} vs {w:?}");
        }
        let (a, b) = (&got.disconnected_intervals, &want.disconnected_intervals);
        assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b) {
            assert!(close(x.0, y.0) && close(x.1, y.1), "{x:?} vs {y:?}");
        }
    }

    /// The dense audit of one timeline checked against its uncontracted
    /// oracle (`C`, `L`, the violations and the preserved links exactly,
    /// the disconnected intervals in count and to the 1e-12 event-merge
    /// tolerance), and the knot audit of the same rows against it.
    /// Returns the knot audit.
    fn checked(rows: &[Vec<Point>], times: &[f64], range: f64) -> AuditReport {
        let dense = audit_piecewise(rows, times, range, &Tracer::disabled()).unwrap();
        let want = audit_piecewise_uncontracted(rows, times, range, 0).unwrap();
        assert_eq!(want.components, want.robots);
        assert_eq!(dense.global_connectivity, want.global_connectivity);
        assert_eq!(dense.stable_link_ratio, want.stable_link_ratio);
        assert_eq!(dense.preserved_links, want.preserved_links);
        assert_eq!(dense.violations, want.violations);
        let (a, b) = (&dense.disconnected_intervals, &want.disconnected_intervals);
        assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.0 - y.0).abs() <= 1e-12 && (x.1 - y.1).abs() <= 1e-12,
                "{x:?} vs {y:?}"
            );
        }
        let knots = KnotTimeline::from_rows(rows, times).unwrap();
        let initial = UnitDiskGraph::new(&rows[0], range);
        let got = audit_knots(&knots, &initial, 0, &Tracer::disabled()).unwrap();
        assert_matches_reference(&got, &dense);
        assert_eq!(got.knots, rows.len() * rows[0].len());
        got
    }

    /// The knot audit of a trajectory set's own waypoints, checked
    /// against the dense reference on the union of every robot's
    /// breakpoints at their true instants.
    fn checked_set(set: &TrajectorySet, range: f64) -> AuditReport {
        let times = set.breakpoints();
        let dense = checked(&set.sample_at(&times), &times, range);
        let got = audit_trajectories(set, range, &Tracer::disabled()).unwrap();
        assert_matches_reference(&got, &dense);
        got
    }

    #[test]
    fn near_pair_grid_covers_all_near_pairs_once() {
        // Deterministic scatter; the grid must report every pair within
        // the cutoff (farther extras are allowed) and never repeat one.
        let mut seed = 0xdead_beef_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point> = (0..200)
            .map(|_| p(next() * 900.0 - 450.0, next() * 900.0 - 450.0))
            .collect();
        for cutoff in [40.0, 120.0, 2000.0] {
            let mut got: Vec<(usize, usize)> = Vec::new();
            for_each_near_pair(&pts, cutoff, &mut |i, j| {
                assert!(i < j);
                got.push((i, j));
            });
            got.sort_unstable();
            assert!(
                got.windows(2).all(|w| w[0] != w[1]),
                "duplicate pair at cutoff {cutoff}"
            );
            let got: std::collections::HashSet<_> = got.into_iter().collect();
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    if pts[i].distance(pts[j]) <= cutoff {
                        assert!(
                            got.contains(&(i, j)),
                            "missing near pair ({i}, {j}) at cutoff {cutoff}"
                        );
                    }
                }
            }
        }
    }

    /// The grid-pruned scan path (n ≥ 64) must behave exactly like the
    /// dense one: a rigidly translating 70-robot chain certifies, and an
    /// endpoint robot detouring out of range mid-piece is caught as both
    /// a violation and a disconnect.
    #[test]
    fn grid_path_large_swarm_audits_exactly() {
        let n = 70;
        let mut polys: Vec<Polyline> = (0..n)
            .map(|i| {
                let x = i as f64 * 50.0;
                Polyline::new(vec![p(x, 0.0), p(x + 300.0, 40.0)])
            })
            .collect();
        let set = TrajectorySet::new(polys.clone());
        let r = checked_set(&set, 80.0);
        assert!(r.certified(), "rigid translation must certify");
        assert_eq!(r.initial_links, n - 1);

        // Robot 0 detours far below the chain before rejoining: its only
        // link breaks and it disconnects, invisible at the endpoints.
        polys[0] = Polyline::new(vec![p(0.0, 0.0), p(150.0, -200.0), p(300.0, 40.0)]);
        let set = TrajectorySet::new(polys);
        let r = checked_set(&set, 80.0);
        assert_eq!(r.global_connectivity, 0);
        assert!(!r.violations.is_empty());
        assert!(!r.disconnected_intervals.is_empty());
        // Robot 0 knots three times, every other robot twice.
        assert_eq!((r.knots, r.pieces), (2 * n + 1, n + 1));
    }

    #[test]
    fn stationary_pair_certifies() {
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::stationary(p(50.0, 0.0)),
        ]);
        let r = checked_set(&set, 80.0);
        assert!(r.certified());
        assert_eq!(r.initial_links, 1);
        assert_eq!(r.preserved_links, 1);
        assert_eq!(r.stable_link_ratio, 1.0);
    }

    /// The regression scenario from the issue: a link that is within
    /// range at **all 11 default sample instants** but bows out of range
    /// between samples. Sampled metrics call it stable; the exact
    /// auditor must not.
    #[test]
    fn link_breaking_between_samples_is_caught() {
        // Robot A parked at the origin; robot B runs x: 76 → 80.2 → 72.4
        // (total arclength 12, so the 80.2 peak sits at s = 4.2/12 =
        // 0.35, strictly between the s = 0.3 and s = 0.4 samples).
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::new(vec![p(76.0, 0.0), p(80.2, 0.0), p(72.4, 0.0)]),
        ]);
        let range = 80.0;

        // Sanity: the default 10-interval sampling sees nothing wrong.
        for k in 0..=10 {
            let s = k as f64 / 10.0;
            let rowa = set.positions_at(s);
            assert!(
                rowa[0].distance(rowa[1]) <= range,
                "sample {k} already out of range — scenario miscalibrated"
            );
        }

        let r = checked_set(&set, range);
        assert!(!r.certified());
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.link, (0, 1));
        assert!((v.max_distance - 80.2).abs() < 1e-9);
        // Exact interval: |76 + 12s| = 80 ⇒ s = 1/3; on the way back
        // |80.2 − 12(s − 0.35)·(7.8/0.65)/…| — endpoints from the roots.
        assert!(
            v.interval.0 > 0.3 && v.interval.0 < 0.35,
            "{:?}",
            v.interval
        );
        assert!(
            v.interval.1 > 0.35 && v.interval.1 < 0.4,
            "{:?}",
            v.interval
        );
        assert!((set.positions_at(v.interval.0)[1].x - 80.0).abs() < 1e-9);
        assert!((set.positions_at(v.interval.1)[1].x - 80.0).abs() < 1e-9);
        // L reflects the broken link exactly.
        assert_eq!(r.preserved_links, 0);
        assert_eq!(r.stable_link_ratio, 0.0);
    }

    /// Two moving robots whose knots interleave: the pair is walked over
    /// the merge of both knot lists, each robot interpolated at the
    /// other's knots. A leaves range of B in the open middle of B's
    /// pieces and comes back at one of A's own knots.
    #[test]
    fn interleaved_knots_walk_the_merged_pieces() {
        let set = TrajectorySet::new(vec![
            Polyline::new(vec![p(0.0, 0.0), p(30.0, 40.0), p(60.0, 0.0)]),
            Polyline::new(vec![
                p(70.0, 0.0),
                p(70.0, 10.0),
                p(160.0, 10.0),
                p(130.0, 0.0),
            ]),
        ]);
        let r = checked_set(&set, 80.0);
        assert_eq!(r.violations.len(), 1);
        let (lo, hi) = r.violations[0].interval;
        assert!(lo > 0.0 && hi < 1.0 && lo < hi, "{lo}, {hi}");
        assert_eq!(r.knots, 7);
    }

    /// Knots that coincide, or lie under 1e-12 apart, leave a piece too
    /// short to matter: the walk neither stalls nor loses the crossing.
    /// (The dense reference merges the two instants into one row.)
    #[test]
    fn coincident_and_near_coincident_knots() {
        let set = TrajectorySet::new(vec![
            // Turns exactly at s = 0.5.
            Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0)]),
            // Turns at s = 0.5 + 2.5e-13.
            Polyline::new(vec![
                p(50.0, 0.0),
                p(60.0 + 1e-11, 0.0),
                p(60.0 + 1e-11, -10.0),
            ]),
            // Turns at exactly s = 0.5, like robot 0.
            Polyline::new(vec![p(0.0, 40.0), p(0.0, 50.0), p(-10.0, 50.0)]),
        ]);
        let (s0, s1) = (
            set.paths()[0].breakpoints()[1],
            set.paths()[1].breakpoints()[1],
        );
        assert!(s1 > s0 && s1 - s0 < 1e-12, "{s0} vs {s1}");
        let r = checked_set(&set, 80.0);
        assert_eq!(r.initial_links, 3);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].link, (1, 2));
        assert_eq!(r.global_connectivity, 1);
        assert_eq!(r.knots, 9);
    }

    /// A detour whose turning point sits exactly on the range circle
    /// flips the link's status exactly at the robot's own knot.
    #[test]
    fn status_flip_exactly_at_a_knot() {
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::new(vec![
                p(70.0, 0.0),
                p(80.0, 0.0),
                p(90.0, 0.0),
                p(80.0, 0.0),
                p(70.0, 0.0),
            ]),
        ]);
        let r = checked_set(&set, 80.0);
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].interval, (0.25, 0.75));
        assert_eq!(r.violations[0].max_distance, 90.0);
        assert_eq!(r.disconnected_intervals, vec![(0.25, 0.75)]);
    }

    #[test]
    fn transient_partition_between_rows_is_caught() {
        // Bridge handover: A and B are 140 apart (never linked). Relay
        // R1 starts between them and slides past B; relay R2 slides in
        // from beyond A to take over the bridge. Both row instants are
        // connected (R1 bridges at s = 0, R2 at s = 1), but mid-piece
        // each relay is within range of only its own side, so the
        // network splits into {A, R2} | {B, R1} — a partition no
        // row-instant check can see.
        let rows = vec![
            vec![p(0.0, 0.0), p(140.0, 0.0), p(70.0, 10.0), p(-70.0, 10.0)],
            vec![p(0.0, 0.0), p(140.0, 0.0), p(210.0, 10.0), p(70.0, 10.0)],
        ];
        for row in &rows {
            assert!(
                UnitDiskGraph::new(row, 80.0).is_connected(),
                "row instants must look fine — scenario miscalibrated"
            );
        }
        let times = vec![0.0, 1.0];
        let r = checked(&rows, &times, 80.0);
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (lo, hi) = r.disconnected_intervals[0];
        // A–R1 breaks at 70 + 140τ = √6300 ⇒ τ ≈ 0.067; B–R2 restores
        // the bridge symmetrically at τ ≈ 0.933.
        let tau = (6300.0f64.sqrt() - 70.0) / 140.0;
        assert!((lo - tau).abs() < 1e-9, "lo = {lo}, expected {tau}");
        assert!((hi - (1.0 - tau)).abs() < 1e-9, "hi = {hi}");
        // Initial links: A–R1, A–R2, B–R1; only A–R1 breaks.
        assert_eq!(r.initial_links, 3);
        assert_eq!(r.preserved_links, 2);
        assert!((r.stable_link_ratio - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rigid_translation_certifies_exactly() {
        let from = [p(0.0, 0.0), p(60.0, 0.0), p(30.0, 50.0)];
        let to: Vec<Point> = from.iter().map(|q| p(q.x + 900.0, q.y + 40.0)).collect();
        let set = TrajectorySet::straight(&from, &to, &[]);
        let r = checked_set(&set, 80.0);
        assert!(r.certified());
        assert_eq!(r.stable_link_ratio, 1.0);
    }

    #[test]
    fn violation_events_are_traced() {
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::new(vec![p(76.0, 0.0), p(80.2, 0.0), p(72.4, 0.0)]),
        ]);
        let tracer = Tracer::ring(256);
        let r = audit_trajectories(&set, 80.0, &tracer).unwrap();
        assert!(!r.certified());
        let events = tracer.events();
        assert!(events.iter().any(|e| e.name == "audit_violation"));
        // The broken link leaves two components, so the sweep runs.
        for span in ["audit_links", "audit_sweep"] {
            assert!(events.iter().any(|e| e.name == span), "no {span} span");
        }
        let summary = events.iter().find(|e| e.name == "audit_summary").unwrap();
        for (key, want) in [
            ("violations", 1),
            ("components", 2),
            ("swept_pairs", 1),
            ("knots", 5),
        ] {
            assert!(
                summary
                    .fields
                    .iter()
                    .any(|(k, v)| *k == key && *v == TraceValue::U64(want)),
                "{key} != {want}"
            );
        }
    }

    /// Two 64-robot clusters, joined only by links that come and go: A
    /// holds still while B slides up one lattice pitch (50) at a
    /// horizontal gap of 78. Facing robots are in range only while
    /// their vertical offset is within √(80² − 78²) = √316, so the
    /// initial cross links break at τ = √316/50 and the next row's links
    /// form at τ = 1 − √316/50; in between the network is split, though
    /// both row instants are connected. The preserved links leave
    /// exactly the two clusters, so the contracted sweep must find that
    /// mid-piece interval on its 2-component axis.
    #[test]
    fn multi_component_certificate_catches_transient_partition() {
        let row = |shift: f64| -> Vec<Point> {
            let mut pts = Vec::new();
            for c in 0..8 {
                for r in 0..8 {
                    pts.push(p(-50.0 * c as f64, 50.0 * r as f64));
                }
            }
            for c in 0..8 {
                for r in 0..8 {
                    pts.push(p(78.0 + 50.0 * c as f64, 50.0 * r as f64 + shift));
                }
            }
            pts
        };
        let rows = vec![row(0.0), row(50.0)];
        for r in &rows {
            assert!(
                UnitDiskGraph::new(r, 80.0).is_connected(),
                "row instants must look fine — scenario miscalibrated"
            );
        }
        let r = checked(&rows, &[0.0, 1.0], 80.0);
        assert_eq!(r.robots, 128);
        assert_eq!(r.components, 2);
        assert!(r.swept_pairs > 0);
        // The 8 facing pairs are the only initial cross links.
        assert_eq!(r.violations.len(), 8);
        let tau = 316f64.sqrt() / 50.0;
        for v in &r.violations {
            assert!((v.interval.0 - tau).abs() < 1e-9 && v.interval.1 == 1.0);
        }
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (lo, hi) = r.disconnected_intervals[0];
        assert!((lo - tau).abs() < 1e-9, "lo = {lo}, expected {tau}");
        assert!((hi - (1.0 - tau)).abs() < 1e-9, "hi = {hi}");
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let row = vec![p(0.0, 0.0)];
        assert!(matches!(
            audit_piecewise(std::slice::from_ref(&row), &[0.0], 0.0, &Tracer::disabled()),
            Err(MetricsError::NonPositiveRange { .. })
        ));
        assert!(matches!(
            audit_piecewise(&[], &[], 80.0, &Tracer::disabled()),
            Err(MetricsError::EmptyTimeline)
        ));
        assert!(matches!(
            audit_piecewise(
                &[row.clone(), vec![]],
                &[0.0, 1.0],
                80.0,
                &Tracer::disabled()
            ),
            Err(MetricsError::RaggedTimeline { row: 1, .. })
        ));
        assert!(matches!(
            audit_piecewise(
                &[row.clone(), row.clone()],
                &[0.0],
                80.0,
                &Tracer::disabled()
            ),
            Err(MetricsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            audit_piecewise(
                &[row.clone(), row.clone()],
                &[0.5, 0.5],
                80.0,
                &Tracer::disabled()
            ),
            Err(MetricsError::NonMonotonicTimes { .. })
        ));
        let set = TrajectorySet::new(vec![Polyline::stationary(p(0.0, 0.0))]);
        assert!(matches!(
            audit_trajectories(&set, f64::NAN, &Tracer::disabled()),
            Err(MetricsError::NonPositiveRange { .. })
        ));
        let nan = TrajectorySet::new(vec![Polyline::stationary(p(f64::NAN, 0.0))]);
        assert!(matches!(
            audit_trajectories(&nan, 80.0, &Tracer::disabled()),
            Err(MetricsError::NonFinitePosition { row: 0, robot: 0 })
        ));
        let knots = KnotTimeline::from_rows(&[row.clone(), row.clone()], &[0.0, 1.0]).unwrap();
        let two = UnitDiskGraph::new(&[p(0.0, 0.0), p(1.0, 0.0)], 80.0);
        assert!(matches!(
            audit_knots(&knots, &two, 0, &Tracer::disabled()),
            Err(MetricsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn single_row_connectivity() {
        let connected = vec![p(0.0, 0.0), p(50.0, 0.0)];
        let r = checked(&[connected], &[0.0], 80.0);
        assert_eq!(r.global_connectivity, 1);
        let split = vec![p(0.0, 0.0), p(500.0, 0.0)];
        let r = checked(&[split], &[0.0], 80.0);
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.disconnected_intervals, vec![(0.0, 0.0)]);
    }

    /// The parallel fan-out must be byte-identical at every worker
    /// count: same violations, same intervals, same counts.
    #[test]
    fn workers_do_not_change_the_report() {
        // A 80-robot chain with several detouring robots, many pieces.
        let n = 80;
        let polys: Vec<Polyline> = (0..n)
            .map(|i| {
                let x = i as f64 * 50.0;
                if i % 11 == 3 {
                    Polyline::new(vec![
                        p(x, 0.0),
                        p(x + 90.0, -160.0),
                        p(x + 180.0, 30.0),
                        p(x + 300.0, 40.0),
                    ])
                } else {
                    Polyline::new(vec![p(x, 0.0), p(x + 150.0, 20.0), p(x + 300.0, 40.0)])
                }
            })
            .collect();
        let set = TrajectorySet::new(polys);
        let times = set.sample_times_with_breakpoints(40);
        let rows = set.sample_at(&times);
        checked(&rows, &times, 80.0);
        let reference =
            audit_piecewise_with_workers(&rows, &times, 80.0, 1, &Tracer::disabled()).unwrap();
        for workers in [2, 3, 8] {
            let r = audit_piecewise_with_workers(&rows, &times, 80.0, workers, &Tracer::disabled())
                .unwrap();
            assert_eq!(r, reference, "workers = {workers} diverged");
        }
        let knot_reference = checked_set(&set, 80.0);
        assert!(knot_reference.swept_pairs > 0, "the sweep must run");
        let knots = KnotTimeline::from_trajectories(&set, &[]).unwrap();
        let initial = UnitDiskGraph::new(&knots.initial_positions(), 80.0);
        for workers in [1, 2, 8] {
            let r = audit_knots(&knots, &initial, workers, &Tracer::disabled()).unwrap();
            assert_eq!(
                r, knot_reference,
                "knot audit diverged at {workers} workers"
            );
        }
    }

    /// Knot discovery must stay conservative — a missed pair can give a
    /// wrong `C`. With every robot its own component all pairs are
    /// cross pairs, so every pair that is in range at some instant
    /// (walked by brute force over all pairs) must be a candidate, while
    /// the grid still prunes far pairs.
    #[test]
    fn knot_discovery_keeps_every_pair_that_comes_within_range() {
        let n = 90;
        let polys: Vec<Polyline> = (0..n)
            .map(|i| {
                let (x, y) = ((i % 15) as f64 * 60.0, (i / 15) as f64 * 60.0);
                match i % 7 {
                    // Detours of different lengths: different speeds and
                    // knots at different instants.
                    0 => Polyline::new(vec![
                        p(x, y),
                        p(x + 200.0, y - 250.0),
                        p(x + 900.0, y + 50.0),
                    ]),
                    3 => Polyline::new(vec![
                        p(x, y),
                        p(x + 450.0, y + 30.0),
                        p(x + 500.0, y + 300.0),
                        p(x + 900.0, y + 60.0),
                    ]),
                    _ => Polyline::new(vec![p(x, y), p(x + 900.0, y + 40.0)]),
                }
            })
            .collect();
        let set = TrajectorySet::new(polys);
        let end = set.positions_at(1.0);
        let lloyd: Vec<Vec<Point>> = (1..=3)
            .map(|k| {
                let t = f64::from(k) * 7.0;
                end.iter()
                    .enumerate()
                    .map(|(i, q)| p(q.x + t * (i as f64).sin(), q.y + t * (i as f64).cos()))
                    .collect()
            })
            .collect();
        let knots = KnotTimeline::from_trajectories(&set, &lloyd).unwrap();
        let motion = KnotMotion::new(&knots, 80.0);
        let comp: Vec<u32> = (0..n as u32).collect();
        let found: std::collections::HashSet<(u32, u32)> =
            cross_pairs(&motion, &comp, 0).into_iter().collect();
        let all: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let scan = walk(&motion, &all, 1);
        assert!(!scan.spans.is_empty());
        for &(i, j, lo, hi) in &scan.spans {
            assert!(
                found.contains(&(i, j)),
                "pair ({i}, {j}) in range on [{lo}, {hi}] was never a candidate"
            );
        }
        assert!(found.len() < all.len(), "the grid pruned no pair");
    }

    /// A status flip exactly at a row instant (the peak of a detour
    /// touching the range circle at a breakpoint) must still be audited
    /// exactly — the global event axis gets an explicit event there.
    #[test]
    fn exact_breakpoint_crossing_is_an_event() {
        // B sits exactly at range 80 at its middle waypoint, then moves
        // out to 90 before coming back: out-of-range strictly between
        // the middle rows.
        let rows = vec![
            vec![p(0.0, 0.0), p(70.0, 0.0)],
            vec![p(0.0, 0.0), p(80.0, 0.0)],
            vec![p(0.0, 0.0), p(90.0, 0.0)],
            vec![p(0.0, 0.0), p(80.0, 0.0)],
            vec![p(0.0, 0.0), p(70.0, 0.0)],
        ];
        let times = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        let r = checked(&rows, &times, 80.0);
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.violations.len(), 1);
        let (lo, hi) = r.violations[0].interval;
        assert!((lo - 0.25).abs() < 1e-12, "lo = {lo}");
        assert!((hi - 0.75).abs() < 1e-12, "hi = {hi}");
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (dlo, dhi) = r.disconnected_intervals[0];
        assert!((dlo - 0.25).abs() < 1e-12 && (dhi - 0.75).abs() < 1e-12);
    }
}
