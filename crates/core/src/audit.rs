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
//!    the `k` component ids decides `C`: a serial divide-and-conquer
//!    with a rollback union-find.
//!
//! Both walks share one drift bound. Each robot's deviation over a
//! stretch of the axis is bounded by summing `|Δp − v·Δs|` over its own
//! pieces, with `v` one drift velocity shared by all robots (inter-robot
//! distances are invariant under a common drift, so any shared `v` keeps
//! the bound valid; the swarm's mean keeps it tight). A pair's distance
//! therefore moves by at most the sum of its two robots' deviations.
//!
//! * The pair walk **gallops** at *shared instants*, where every robot
//!   has a knot: while the bound stays below the pair's distance to the
//!   range circle, the pair cannot cross it, so those pieces hold no
//!   root, no status flip and no span boundary and are skipped whole. At
//!   the next shared instant both robots sit on their own knots again,
//!   so the walk resumes exactly where walking would have put it.
//! * The sweep's pair discovery is batched into *epochs* of the time
//!   axis: one unit-disk walk ([`UnitDiskGraph::for_each_link`]) over
//!   the positions at the epoch's start, at a cutoff of `range` plus
//!   both robots' deviations, keeps the pairs that can come within
//!   range during the whole epoch.
//!
//! All of this is observation-order independent — every parallel path
//! returns byte-identical results at any worker count. Violations are
//! reported with the offending link, the exact out-of-range interval,
//! and the maximum distance reached, and are mirrored as `anr-trace`
//! events.

use crate::knots::{lerp_piece, KnotTimeline};
use crate::metrics::MetricsError;
use anr_geom::Point;
use anr_netgraph::{RollbackUnionFind, UnionFind, UnitDiskGraph};
use anr_trace::{TraceValue, Tracer};

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
    /// (`knots − robots`).
    pub pieces: usize,
    /// Knots audited: every robot's own breakpoints summed.
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
    /// Merged pieces whose quadratic the pair walks evaluated, link pass
    /// plus sweep; the walks galloped over the rest.
    pub walked_pieces: usize,
}

impl AuditReport {
    /// True when both invariants held: `C = 1` and no link violations.
    #[must_use]
    pub fn certified(&self) -> bool {
        self.global_connectivity == 1 && self.violations.is_empty()
    }
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
/// Pair chunks of the link pass and of the sweep, and discovery epochs,
/// fan out over `workers` threads (0 = auto); the offline dynamic
/// connectivity runs serially. Each chunk is merged back in
/// deterministic input order, so the report (and every trace event) is
/// byte-identical whatever `workers` is.
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
    run_audit(knots, initial, workers, tracer, true)
}

/// The same audit with every robot its own component: no certificate,
/// and the sweep walks every candidate pair on the full `n`-robot axis.
/// This is the oracle [`audit_knots`] is tested against: `C`, `L`, the
/// violations and the preserved links agree exactly, the disconnected
/// intervals in count and to the 1e-12 event-merge tolerance.
///
/// # Errors
///
/// See [`audit_knots`].
#[doc(hidden)]
pub fn audit_knots_uncontracted(
    knots: &KnotTimeline,
    initial: &UnitDiskGraph,
    workers: usize,
) -> Result<AuditReport, MetricsError> {
    run_audit(knots, initial, workers, &Tracer::disabled(), false)
}

/// [`audit_knots`] over a dense timeline: `rows[k]` holds every robot's
/// position at `times[k]` ([`KnotTimeline::from_rows`]), and the initial
/// links are those of `rows[0]` at `range`. It is exact only on rows
/// that include every trajectory breakpoint.
///
/// This adapter exists only because the benchmark package
/// (`crates/bench/src/bin/anr_benchmark`) compiles against its name;
/// new code calls [`audit_knots`].
///
/// # Errors
///
/// [`MetricsError`] on a non-positive `range`, and as
/// [`KnotTimeline::from_rows`] on the rows.
#[doc(hidden)]
pub fn audit_piecewise_with_workers(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    workers: usize,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    if range.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MetricsError::NonPositiveRange { range });
    }
    let knots = KnotTimeline::from_rows(rows, times)?;
    audit_knots(
        &knots,
        &UnitDiskGraph::new(&rows[0], range),
        workers,
        tracer,
    )
}

/// The three audit steps over `knots`, whose initial links are
/// `initial`'s. With `certify`, the sweep runs on the components of the
/// preserved links; without it, every robot is its own component.
fn run_audit(
    knots: &KnotTimeline,
    initial: &UnitDiskGraph,
    workers: usize,
    tracer: &Tracer,
    certify: bool,
) -> Result<AuditReport, MetricsError> {
    let n = knots.robots();
    if initial.len() != n {
        return Err(MetricsError::LengthMismatch {
            expected: n,
            got: initial.len(),
        });
    }
    let (t0, t1) = knots.bounds();

    // ------------------------------------------------------------------
    // 1. Link pass. A violating link is exactly an initial link whose
    // in-range spans fail to cover [t0, t1] (d² is convex per piece, so
    // any excursion beyond range shows up as a span gap). The walker
    // reports each one with its first out-of-range interval and its
    // maximum distance, in link order.
    // ------------------------------------------------------------------
    let link_pass = tracer.span("audit_links");
    let motion = KnotMotion::new(knots, initial.range());
    let links = initial.links();
    let link_pairs: Vec<(u32, u32)> = links.iter().map(|&(i, j)| (i as u32, j as u32)).collect();
    // The links' spans and events are dropped here, before the sweep
    // allocates its own.
    let PairScan {
        violations, walked, ..
    } = walk(&motion, &link_pairs, workers);
    let mut walked_pieces = walked;
    let violations: Vec<LinkViolation> = violations
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
        for &(i, j) in &links {
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
        let pairs = cross_pairs(&motion, &comp, workers);
        swept_pairs = pairs.len();
        let scan = walk(&motion, &pairs, workers);
        walked_pieces += scan.walked;

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
        let mut leaves = Vec::new();
        let mut uf = RollbackUnionFind::new(components);
        disconnected_leaves(0, mids.len() - 1, &spans, &mut uf, &mut leaves);
        for k in leaves {
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
        pieces: knots.len() - n,
        knots: knots.len(),
        connectivity_checks,
        components,
        swept_pairs,
        walked_pieces,
    };
    trace_summary(tracer, &report);
    Ok(report)
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
            (
                "walked_pieces",
                TraceValue::U64(report.walked_pieces as u64),
            ),
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
    /// Merged pieces whose quadratic was evaluated.
    walked: usize,
}

/// Walks every pair over the whole axis. Pair chunks are independent;
/// concatenating their outputs in order keeps spans and violations in
/// pair order.
fn walk(motion: &KnotMotion, pairs: &[(u32, u32)], workers: usize) -> PairScan {
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
        all.walked += o.walked;
    }
    all
}

/// Every pair `i < j` with `comp[i] != comp[j]` that can come within
/// range at some instant, in index order.
///
/// One unit-disk walk per discovery epoch, at the epoch's cutoff, marks
/// every pair that can come within range during that epoch. The union
/// across epochs (a bit-OR, order-independent) is the full candidate
/// set; pairs never marked are provably never in range.
fn cross_pairs(motion: &KnotMotion, comp: &[u32], workers: usize) -> Vec<(u32, u32)> {
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
            UnitDiskGraph::for_each_link(&motion.epoch_positions(epoch), epoch.cutoff, |i, j| {
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
/// began.
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
        out.walked += 1;
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

/// Every robot on its own knots, with the drift-deviation tables both
/// walks read.
struct KnotMotion<'a> {
    knots: &'a KnotTimeline,
    range: f64,
    r2: f64,
    /// Each own piece's deviation from the shared drift, aligned with
    /// the packed knots (the entry of a robot's last knot is unused).
    dev: Vec<f64>,
    /// Robot-major, one entry per robot and shared instant: the robot's
    /// own knot index there.
    shared_knot: Vec<u32>,
    /// Robot-major like `shared_knot`: the robot's deviation summed over
    /// its own pieces up to the shared instant.
    shared_dev: Vec<f64>,
}

impl<'a> KnotMotion<'a> {
    /// Each own piece's deviation from the shared drift, `|Δp − v·Δs|`,
    /// and the shared-instant tables summed from it. `v` is the swarm's
    /// mean velocity between consecutive shared instants, so no piece
    /// straddles a change of `v`.
    fn new(knots: &'a KnotTimeline, range: f64) -> Self {
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
        let mut shared_knot = Vec::with_capacity(n * shared.len());
        let mut shared_dev = Vec::with_capacity(n * shared.len());
        for i in 0..n {
            let (s, p) = knots.knots(i);
            let own = &mut dev[knots.offset(i)..];
            // `next` counts the shared instants at or before knot `k`.
            let (mut next, mut acc) = (0, 0.0);
            for k in 0..s.len() {
                if s[k] == shared[next] {
                    shared_knot.push(k as u32);
                    shared_dev.push(acc);
                    next += 1;
                }
                if k + 1 < s.len() {
                    let (vx, vy) = velocity[next - 1];
                    let dt = s[k + 1] - s[k];
                    let dx = p[k + 1].x - p[k].x - vx * dt;
                    let dy = p[k + 1].y - p[k].y - vy * dt;
                    own[k] = (dx * dx + dy * dy).sqrt();
                    acc += own[k];
                }
            }
        }
        KnotMotion {
            knots,
            range,
            r2: range * range,
            dev,
            shared_knot,
            shared_dev,
        }
    }

    /// Robot `i`'s entries of a robot-major shared-instant table.
    fn shared_row<'t, T>(&self, table: &'t [T], i: usize) -> &'t [T] {
        let width = self.knots.shared().len();
        &table[i * width..(i + 1) * width]
    }

    /// The last shared instant `q ≥ m` the pair `(i, j)` provably cannot
    /// cross the range circle before, given its distance `d` at shared
    /// instant `m` (not the last): the pair's distance moves by at most
    /// the two robots' deviations since `m`, so while their sum stays
    /// below the gap to the circle, less a relative margin for rounding,
    /// the pair stays strictly on one side. The sums are monotone in
    /// `q`, so gallop, then bisect.
    fn gallop(&self, i: usize, j: usize, m: usize, d: f64) -> usize {
        let gap = (d - self.range).abs() - 1e-9 * (d + self.range);
        let (di, dj) = (
            self.shared_row(&self.shared_dev, i),
            self.shared_row(&self.shared_dev, j),
        );
        let c0 = di[m] + dj[m];
        let fits = |q: usize| di[q] + dj[q] - c0 < gap;
        if gap <= 0.0 || !fits(m + 1) {
            return m;
        }
        let last = di.len() - 1;
        let (mut q, mut step) = (m + 1, 1);
        while q + step <= last && fits(q + step) {
            q += step;
            step *= 2;
        }
        let mut hi = (q + step).min(last);
        while q < hi {
            let mid = q + (hi - q).div_ceil(2);
            if fits(mid) {
                q = mid;
            } else {
                hi = mid - 1;
            }
        }
        q
    }

    /// Walks pair `(i, j)` over the merge of the two robots' knots,
    /// recording its spans, events and violation in `out`. At a merged
    /// knot that is one robot's own, that robot sits exactly on its
    /// knot; the other is interpolated on its current piece. At each
    /// shared instant the walk first gallops over the stretch the pair
    /// cannot cross ([`KnotMotion::gallop`]).
    fn walk_pair(&self, out: &mut PairScan, i: usize, j: usize) {
        let (sa, pa) = self.knots.knots(i);
        let (sb, pb) = self.knots.knots(j);
        let shared = self.knots.shared();
        let bounds = self.knots.bounds();
        let mut u = rel(pa[0], pb[0]);
        let mut state = PairState::start(out, i, j, norm2(u), self.r2, bounds.0);
        // `m` is the next shared instant at or after `t`.
        let (mut a, mut b, mut t, mut m) = (0, 0, bounds.0, 0);
        loop {
            if t == shared[m] {
                if m + 1 == shared.len() {
                    break;
                }
                let q = self.gallop(i, j, m, norm2(u).sqrt());
                if q > m {
                    a = self.shared_row(&self.shared_knot, i)[q] as usize;
                    b = self.shared_row(&self.shared_knot, j)[q] as usize;
                    (u, t, m) = (rel(pa[a], pb[b]), shared[q], q);
                    continue;
                }
                m += 1;
            }
            let (next, qa, qb) = merge_step(sa, pa, sb, pb, &mut a, &mut b);
            let v = rel(qa, qb);
            state.piece(out, u, (v.0 - u.0, v.1 - u.1), t, next, self.r2);
            (u, t) = (v, next);
        }
        state.finish(out, bounds, || self.max_d2(i, j));
    }

    /// The pair's largest squared distance over every merged knot, the
    /// ones a gallop skipped included: `d` is convex on each merged
    /// piece, so this is its maximum over the whole axis.
    fn max_d2(&self, i: usize, j: usize) -> f64 {
        let (sa, pa) = self.knots.knots(i);
        let (sb, pb) = self.knots.knots(j);
        let (mut a, mut b) = (0, 0);
        let mut max = norm2(rel(pa[0], pb[0]));
        while a + 1 < sa.len() && b + 1 < sb.len() {
            let (_, qa, qb) = merge_step(sa, pa, sb, pb, &mut a, &mut b);
            max = max.max(norm2(rel(qa, qb)));
        }
        max
    }

    /// Greedy discovery epochs: each ends where the first robot's
    /// deviation since the epoch start reaches half the range (or at the
    /// next knot of any robot, if that comes first in floating point).
    /// The cutoff is `range + 2·(largest deviation over the epoch)`, with
    /// a relative slack for rounding in the interpolated starts.
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
        let dev = &self.dev;
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

    /// The robots' positions at the epoch's start.
    fn epoch_positions(&self, epoch: &KnotEpoch) -> Vec<Point> {
        (0..self.knots.robots())
            .map(|i| self.knots.position_at(i, epoch.start))
            .collect()
    }
}

/// A discovery epoch: its start and its cutoff; every pair that comes
/// within range during the epoch starts it within the cutoff.
struct KnotEpoch {
    start: f64,
    cutoff: f64,
}

/// Steps a pair's walk from merged knot `(a, b)` to the next: its
/// instant and both robots' positions there, a robot that knots there
/// exactly on its knot. The indices advance in branches, not by the
/// comparison's value, so a run of instants both robots knot at (every
/// step on dense rows) is predicted instead of waiting on each load;
/// inlined, a violator's maximum over thousands of merged knots pays no
/// call per knot.
#[inline(always)]
fn merge_step(
    sa: &[f64],
    pa: &[Point],
    sb: &[f64],
    pb: &[Point],
    a: &mut usize,
    b: &mut usize,
) -> (f64, Point, Point) {
    let (na, nb) = (sa[*a + 1], sb[*b + 1]);
    if na == nb {
        *a += 1;
        *b += 1;
        (na, pa[*a], pb[*b])
    } else if na < nb {
        *a += 1;
        (na, pa[*a], lerp_piece(sb, pb, *b, na))
    } else {
        *b += 1;
        (nb, lerp_piece(sa, pa, *a, nb), pb[*b])
    }
}

fn rel(p: Point, q: Point) -> (f64, f64) {
    (p.x - q.x, p.y - q.y)
}

fn norm2((x, y): (f64, f64)) -> f64 {
    x * x + y * y
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
    use crate::trajectory::{Polyline, TrajectorySet};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// The knot audit agrees with the audit of the same motion given
    /// another way: `C`, `L`, the preserved links and the violating
    /// links exactly, interval endpoints and maximum distances within
    /// 1e-9.
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

    /// The knot audit of `knots`, whose initial links are those of every
    /// robot's first knot, checked against its uncontracted oracle (`C`,
    /// `L`, the violations and the preserved links exactly, the
    /// disconnected intervals in count and to the 1e-12 event-merge
    /// tolerance).
    fn checked_knots(knots: &KnotTimeline, range: f64) -> AuditReport {
        let initial = UnitDiskGraph::new(&knots.initial_positions(), range);
        let got = audit_knots(knots, &initial, 0, &Tracer::disabled()).unwrap();
        let want = audit_knots_uncontracted(knots, &initial, 0).unwrap();
        assert_eq!(want.components, want.robots);
        assert_eq!(got.global_connectivity, want.global_connectivity);
        assert_eq!(got.stable_link_ratio, want.stable_link_ratio);
        assert_eq!(got.preserved_links, want.preserved_links);
        assert_eq!(got.violations, want.violations);
        let (a, b) = (&got.disconnected_intervals, &want.disconnected_intervals);
        assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.0 - y.0).abs() <= 1e-12 && (x.1 - y.1).abs() <= 1e-12,
                "{x:?} vs {y:?}"
            );
        }
        got
    }

    /// The knot audit of a dense timeline (every robot knots at every
    /// row), checked against its oracle.
    fn checked(rows: &[Vec<Point>], times: &[f64], range: f64) -> AuditReport {
        let got = checked_knots(&KnotTimeline::from_rows(rows, times).unwrap(), range);
        assert_eq!(got.knots, rows.len() * rows[0].len());
        got
    }

    /// The knot audit of a trajectory set's own waypoints, checked
    /// against its oracle and against the audit of the set's rows at
    /// the union of every robot's breakpoints, where every instant is
    /// shared and the walks gallop differently.
    fn checked_set(set: &TrajectorySet, range: f64) -> AuditReport {
        let got = checked_knots(&KnotTimeline::from_trajectories(set, &[]).unwrap(), range);
        let times = set.breakpoints();
        assert_matches_reference(&got, &checked(&set.sample_at(&times), &times, range));
        got
    }

    /// The walk-pruned discovery path (n ≥ 64) must behave exactly like
    /// the dense one: a rigidly translating 70-robot chain certifies, and
    /// an endpoint robot detouring out of range mid-piece is caught as
    /// both a violation and a disconnect.
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
    /// (The rows at the set's breakpoints merge the two instants.)
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
        // No pair can close its gap to the range circle, so every link
        // gallops from the first instant to the last.
        assert_eq!((r.pieces, r.walked_pieces), (3, 0));
    }

    #[test]
    fn violation_events_are_traced() {
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::new(vec![p(76.0, 0.0), p(80.2, 0.0), p(72.4, 0.0)]),
        ]);
        let knots = KnotTimeline::from_trajectories(&set, &[]).unwrap();
        let initial = UnitDiskGraph::new(&knots.initial_positions(), 80.0);
        let tracer = Tracer::ring(256);
        let r = audit_knots(&knots, &initial, 0, &tracer).unwrap();
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
            // Both pieces of the link, walked again by the sweep.
            ("walked_pieces", 4),
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

    /// The row adapter checks the range, then hands the rows to
    /// [`KnotTimeline::from_rows`], whose errors it forwards.
    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let row = vec![p(0.0, 0.0)];
        let rows = |rows: &[Vec<Point>], times: &[f64], range: f64| {
            audit_piecewise_with_workers(rows, times, range, 0, &Tracer::disabled())
        };
        for range in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                rows(std::slice::from_ref(&row), &[0.0], range),
                Err(MetricsError::NonPositiveRange { .. })
            ));
        }
        assert!(matches!(
            rows(&[], &[], 80.0),
            Err(MetricsError::EmptyTimeline)
        ));
        assert!(matches!(
            rows(&[row.clone(), vec![]], &[0.0, 1.0], 80.0),
            Err(MetricsError::RaggedTimeline { row: 1, .. })
        ));
        assert!(matches!(
            rows(&[row.clone(), row.clone()], &[0.0], 80.0),
            Err(MetricsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            rows(&[row.clone(), row.clone()], &[0.5, 0.5], 80.0),
            Err(MetricsError::NonMonotonicTimes { .. })
        ));
        assert!(matches!(
            rows(&[vec![p(f64::NAN, 0.0)]], &[0.0], 80.0),
            Err(MetricsError::NonFinitePosition { row: 0, robot: 0 })
        ));
        let knots = KnotTimeline::from_rows(&[row.clone(), row.clone()], &[0.0, 1.0]).unwrap();
        let two = UnitDiskGraph::new(&[p(0.0, 0.0), p(1.0, 0.0)], 80.0);
        assert!(matches!(
            audit_knots(&knots, &two, 0, &Tracer::disabled()),
            Err(MetricsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            audit_knots_uncontracted(&knots, &two, 0),
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
    /// the epoch cutoffs still prune far pairs.
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
        assert!(found.len() < all.len(), "discovery pruned no pair");
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

    /// A six-robot chain, 60 apart, translating rigidly over 200 shared
    /// instants (rows at `s = k/200`); from row 150 the last robot also
    /// pulls away along the chain at 3 per row, so its link reaches the
    /// range 80 at row `150 + 20/3` and stays out. The gallop must skip
    /// the rigid stretch and still find that crossing mid-piece.
    #[test]
    fn gallop_finds_a_late_break_after_a_long_rigid_march() {
        let (n, steps) = (6usize, 200usize);
        let rows: Vec<Vec<Point>> = (0..=steps)
            .map(|k| {
                let (dx, dy) = (5.0 * k as f64, 2.0 * k as f64);
                let pull = 3.0 * k.saturating_sub(150) as f64;
                (0..n)
                    .map(|i| {
                        let extra = if i == n - 1 { pull } else { 0.0 };
                        p(60.0 * i as f64 + dx + extra, dy)
                    })
                    .collect()
            })
            .collect();
        let times: Vec<f64> = (0..=steps).map(|k| k as f64 / steps as f64).collect();
        let r = checked(&rows, &times, 80.0);
        let t = (150.0 + 20.0 / 3.0) / steps as f64;
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.link, (n - 2, n - 1));
        assert!((v.interval.0 - t).abs() < 1e-9, "{:?} vs {t}", v.interval);
        assert_eq!(v.interval.1, 1.0);
        assert_eq!(v.max_distance, 60.0 + 3.0 * 50.0);
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (lo, hi) = r.disconnected_intervals[0];
        assert!((lo - t).abs() < 1e-9 && hi == 1.0, "{lo}, {hi}");
        // Of 5 links and the sweep's cross pairs over 200 pieces each,
        // only the broken link's pieces from row 156 to 158 (distance
        // 78 to 84, each within one row's deviation of the range) are
        // walked, by the link pass and again by the sweep.
        assert_eq!((r.pieces, r.walked_pieces), (n * steps, 4));
    }

    /// A link that breaks, runs far out of range and comes back: its
    /// maximum distance (330, at row 3) lies inside a stretch the
    /// gallop skips, and must still be reported exactly.
    #[test]
    fn max_distance_inside_a_skipped_stretch() {
        let xs = [70.0, 100.0, 300.0, 330.0, 300.0, 100.0, 70.0];
        let rows: Vec<Vec<Point>> = xs.iter().map(|&x| vec![p(0.0, 0.0), p(x, 0.0)]).collect();
        let times: Vec<f64> = (0..xs.len()).map(|k| k as f64).collect();
        let r = checked(&rows, &times, 80.0);
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.max_distance, 330.0);
        assert!((v.interval.0 - 1.0 / 3.0).abs() < 1e-12, "{:?}", v.interval);
        assert!(
            (v.interval.1 - 17.0 / 3.0).abs() < 1e-12,
            "{:?}",
            v.interval
        );
        // Rows 0–2 and 5–6 are walked, by the link pass and again by the
        // sweep; rows 2–5 are galloped over.
        assert_eq!(r.walked_pieces, 6);
    }

    /// Robot 0 zigzags through two knots of its own inside the
    /// transition while robot 1 moves straight; then both translate
    /// rigidly through 30 Lloyd iterates until robot 1 pulls away at 15
    /// per iterate from iterate 25. The gallop starts only at shared
    /// instants and lands each robot on its own knot there, so the walk
    /// resumes on the right pieces and finds the late crossing at
    /// `s = 1 + 25 + 40/15`.
    #[test]
    fn gallop_lands_on_each_robots_own_knot() {
        let set = TrajectorySet::new(vec![
            Polyline::new(vec![p(0.0, 0.0), p(10.0, 10.0), p(20.0, 0.0), p(30.0, 0.0)]),
            Polyline::new(vec![p(40.0, 0.0), p(70.0, 0.0)]),
        ]);
        let lloyd: Vec<Vec<Point>> = (1..=30)
            .map(|k| {
                let x = 5.0 * f64::from(k);
                let pull = 15.0 * f64::from((k - 25).max(0));
                vec![p(30.0 + x, 0.0), p(70.0 + x + pull, 0.0)]
            })
            .collect();
        let knots = KnotTimeline::from_trajectories(&set, &lloyd).unwrap();
        assert_eq!(knots.knots(0).0.len(), 4 + 30);
        let r = checked_knots(&knots, 80.0);
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        let s = 1.0 + 25.0 + 40.0 / 15.0;
        assert!((v.interval.0 - s).abs() < 1e-9, "{:?} vs {s}", v.interval);
        assert_eq!(v.interval.1, 31.0);
        assert_eq!(v.max_distance, 40.0 + 15.0 * 5.0);
        // The zigzag (deviations summing to about 22 against a gap of
        // 40) and the rigid iterates are galloped over: only the pieces
        // from s = 28 to 30 (distance 70 to 100) are walked, by the link
        // pass and again by the sweep.
        assert_eq!(r.walked_pieces, 4);
        // The same motion as rows at every knot instant agrees.
        let times: Vec<f64> = {
            let mut t: Vec<f64> = set.breakpoints();
            t.extend((2..=31).map(f64::from));
            t
        };
        let rows: Vec<Vec<Point>> = times
            .iter()
            .map(|&t| (0..2).map(|i| knots.position_at(i, t)).collect())
            .collect();
        assert_matches_reference(&r, &checked(&rows, &times, 80.0));
    }
}
