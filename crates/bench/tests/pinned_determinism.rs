//! Determinism pins on the real bench scenarios.
//!
//! The unit tests in `anr-coverage`, `anr-harmonic` and `anr-march` pin
//! the accelerated paths (bucket-grid Lloyd assignment, the rotation
//! search's worker fan-out, parallel audit) against reference
//! implementations or frozen values on synthetic inputs; these tests
//! repeat the pins on every bench scenario geometry — holes,
//! concavities and detours included — at the smoke robot count, so a
//! fast path that only agrees on easy inputs cannot slip through.

use anr_bench::scenario_problem as sized_problem;
use anr_coverage::GridPartition;
use anr_harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay, HarmonicConfig};
use anr_march::{
    audit_knots, audit_piecewise_with_workers, march, AuditReport, KnotTimeline, MarchConfig,
    MarchError, MarchOutcome, MarchProblem, Method,
};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_trace::Tracer;

const ROBOTS: usize = 144;
const SEPARATION: f64 = 10.0;

fn scenario_problem(id: u8) -> MarchProblem {
    sized_problem(id, SEPARATION, ROBOTS).unwrap()
}

/// The bucket-grid sample assignment equals the brute-force scan,
/// bucket by bucket, on every scenario's target FoI — the exact pin the
/// guarded Lloyd iteration relies on.
#[test]
fn lloyd_assignment_matches_brute_force_on_every_scenario() {
    for id in 1..=7u8 {
        let problem = scenario_problem(id);
        let config = MarchConfig::default();
        let spacing = config.resolve_mesh_spacing(problem.m2.area(), problem.num_robots());
        let partition = GridPartition::new(&problem.m2, spacing * 0.2);
        assert_eq!(
            partition.assign(&problem.positions),
            partition.assign_brute_force(&problem.positions),
            "scenario {id}: grid assignment diverged from brute force"
        );
    }
}

/// The rotation search with its batches fanned out over workers lands
/// on the same `(theta, value, evaluations)` as with every angle
/// evaluated in order on one thread, on the real stable-link objective,
/// scenario by scenario.
#[test]
fn rotation_batch_matches_serial_on_every_scenario() {
    for id in 1..=7u8 {
        let problem = scenario_problem(id);
        let n = problem.num_robots();
        let config = MarchConfig::default();
        let spacing = config.resolve_mesh_spacing(problem.m2.area(), n);
        let harmonic = HarmonicConfig::default();

        // Same construction as the pipeline's rotation stage.
        let foi2 = anr_mesh::FoiMesher::new(spacing).mesh(&problem.m2).unwrap();
        let filled2 = fill_holes(foi2.mesh()).unwrap();
        let disk2 = harmonic_map_to_disk(filled2.mesh(), &harmonic, &Tracer::disabled()).unwrap();
        let t_mesh = extract_triangulation(&problem.positions, problem.range).unwrap();
        let filled_t = fill_holes(&t_mesh).unwrap();
        let disk_t = harmonic_map_to_disk(filled_t.mesh(), &harmonic, &Tracer::disabled()).unwrap();
        let robot_disk: Vec<_> = (0..n).map(|v| disk_t.position(v)).collect();
        let overlay = DiskOverlay::new(
            filled2.mesh(),
            disk2.positions(),
            filled2.virtual_vertices(),
        );
        let links = UnitDiskGraph::new(&problem.positions, problem.range).links();
        let locator = anr_mesh::PointLocator::new(overlay.disk_mesh());
        let objective = |theta: f64| {
            let q = overlay.map_all_with(&locator, &robot_disk, theta);
            if links.is_empty() {
                return 1.0;
            }
            links
                .iter()
                .filter(|&&(i, j)| q[i].position.distance(q[j].position) <= problem.range)
                .count() as f64
                / links.len() as f64
        };

        let serial = config.rotation.maximize(objective);
        let batched = config
            .rotation
            .maximize_batch(|thetas| anr_par::par_map(thetas, 0, |&theta| objective(theta)));
        assert_eq!(
            serial, batched,
            "scenario {id}: batched rotation search diverged from serial"
        );
    }
}

/// The march's own knots: its transition waypoints, then the Lloyd
/// rows at the end of its dense timeline.
fn knots_of(outcome: &MarchOutcome) -> KnotTimeline {
    let lloyd = &outcome.timeline[outcome.timeline.len() - outcome.lloyd_iterations..];
    KnotTimeline::from_trajectories(&outcome.transition, lloyd).unwrap()
}

/// The true instants of the march's dense rows: the transition's
/// samples on `s ∈ [0, 1]`, then Lloyd iterate `k` at `s = 1 + k`.
fn true_instants(outcome: &MarchOutcome, config: &MarchConfig) -> Vec<f64> {
    let mut times = outcome
        .transition
        .sample_times_with_breakpoints(config.time_samples);
    times.extend((1..=outcome.lloyd_iterations).map(|k| 1.0 + k as f64));
    assert_eq!(times.len(), outcome.timeline.len());
    times
}

/// The knot audit of a march, checked against the march's own metrics.
fn knot_audit_checked(problem: &MarchProblem, method: Method, key: &str) -> AuditReport {
    let outcome = march(problem, method, &MarchConfig::default()).unwrap();
    knot_audit_of(problem, &outcome, key)
}

/// The knot audit of `outcome`, checked against its own metrics.
fn knot_audit_of(problem: &MarchProblem, outcome: &MarchOutcome, key: &str) -> AuditReport {
    let initial = UnitDiskGraph::new(&problem.positions, problem.range);
    let got = audit_knots(&knots_of(outcome), &initial, 0, &Tracer::disabled()).unwrap();
    let m = &outcome.metrics;
    assert_eq!(
        (m.global_connectivity, m.preserved_links, &m.violations),
        (
            got.global_connectivity,
            got.preserved_links,
            &got.violations
        ),
        "{key}: the march's metrics are not its own audit"
    );
    got
}

/// The knot audit report is identical — every field, every violation
/// interval — at workers 1, 2 and 8, on real marches of a
/// simply-connected scenario, a hole-detour scenario, and scenario 6,
/// whose preserved links leave two components so the contracted sweep
/// runs. The audit of the march's dense rows at their true instants is
/// pinned the same way.
#[test]
fn audit_identical_across_worker_counts() {
    for id in [1u8, 4, 6] {
        let problem = scenario_problem(id);
        let config = MarchConfig::default();
        let outcome = march(&problem, Method::MaxStableLinks, &config).unwrap();
        let knots = knots_of(&outcome);
        let initial = UnitDiskGraph::new(&problem.positions, problem.range);
        let tracer = Tracer::disabled();
        let reference = audit_knots(&knots, &initial, 1, &tracer).unwrap();
        if id == 6 {
            assert!(
                reference.components > 1 && reference.swept_pairs > 0,
                "scenario 6 no longer exercises the contracted sweep"
            );
        }
        let rows = &outcome.timeline;
        let times = true_instants(&outcome, &config);
        let by_rows =
            audit_piecewise_with_workers(rows, &times, problem.range, 1, &tracer).unwrap();
        for workers in [2usize, 8] {
            let report = audit_knots(&knots, &initial, workers, &tracer).unwrap();
            assert_eq!(
                reference, report,
                "scenario {id}: knot audit changed at {workers} workers"
            );
            let report =
                audit_piecewise_with_workers(rows, &times, problem.range, workers, &tracer)
                    .unwrap();
            assert_eq!(
                by_rows, report,
                "scenario {id}: row audit changed at {workers} workers"
            );
        }
    }
}

/// FNV-1a 64 of an audit report's outputs: its fields in declaration
/// order, each count as a `u64` and each `f64` as its bits, big-endian,
/// every list preceded by its length. Fields are named one by one, so a
/// field added to the report later cannot move a digest. The work
/// counters are left out and pinned as they are ([`work_counters`]), so
/// a change that only does less work moves no output digest.
fn report_digest(r: &AuditReport) -> u64 {
    let mut words: Vec<u64> = vec![
        r.robots as u64,
        r.initial_links as u64,
        r.preserved_links as u64,
        r.stable_link_ratio.to_bits(),
        u64::from(r.global_connectivity),
        r.violations.len() as u64,
    ];
    for v in &r.violations {
        words.extend([
            v.link.0 as u64,
            v.link.1 as u64,
            v.interval.0.to_bits(),
            v.interval.1.to_bits(),
            v.max_distance.to_bits(),
        ]);
    }
    words.push(r.disconnected_intervals.len() as u64);
    for &(lo, hi) in &r.disconnected_intervals {
        words.extend([lo.to_bits(), hi.to_bits()]);
    }
    words.extend([r.pieces as u64, r.knots as u64, r.components as u64]);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
    anr_serve::fnv1a64(&bytes)
}

/// The audit's work counters: `(connectivity_checks, swept_pairs)`.
fn work_counters(r: &AuditReport) -> (usize, usize) {
    (r.connectivity_checks, r.swept_pairs)
}

/// A scenario's pin: id, method tag, robots, then its [`report_digest`]
/// and [`work_counters`].
type ScenarioPin = (u8, char, usize, u64, (usize, usize));

/// The knot audit of every scenario's real march, methods (a) and (b),
/// at 144, 400 and 1296 robots, pinned by [`report_digest`] and
/// [`work_counters`]. A dense all-robot walk, since deleted, checked
/// every one of these reports when they were first pinned (`C`, `L`,
/// the preserved and violating links exactly, intervals and maximum
/// distances within 1e-9).
#[test]
fn knot_audit_is_pinned_on_every_scenario() {
    let mut got = Vec::new();
    for robots in [144usize, 400, 1296] {
        for id in 1..=7u8 {
            let problem = sized_problem(id, SEPARATION, robots).unwrap();
            for method in [Method::MaxStableLinks, Method::MinMovingDistance] {
                let key = format!("scenario {id}, {method:?}, {robots} robots");
                let r = knot_audit_checked(&problem, method, &key);
                let tag = if method == Method::MaxStableLinks {
                    'a'
                } else {
                    'b'
                };
                got.push((id, tag, robots, report_digest(&r), work_counters(&r)));
            }
        }
    }
    let want: Vec<ScenarioPin> = vec![
        (1, 'a', 144, 0xd6ce_14be_979b_19b2, (1, 0)),
        (1, 'b', 144, 0xd2b7_dc46_3dad_76c2, (1, 0)),
        (2, 'a', 144, 0x9a9d_ad92_ecdf_8ee9, (1, 0)),
        (2, 'b', 144, 0x510f_32fb_8a62_2f19, (1, 0)),
        (3, 'a', 144, 0xa961_1e18_a97b_1c8b, (1, 0)),
        (3, 'b', 144, 0x78f6_7916_2f6a_0343, (141, 110)),
        (4, 'a', 144, 0x929e_5ae6_54fc_2c65, (1, 0)),
        (4, 'b', 144, 0xe787_256e_f4cf_0684, (1, 0)),
        (5, 'a', 144, 0x6818_a0c7_54c3_9cdc, (1, 0)),
        (5, 'b', 144, 0xff5e_8451_d5c6_ff39, (1, 0)),
        (6, 'a', 144, 0xe8b9_6843_a9ec_2f53, (2367, 1584)),
        (6, 'b', 144, 0x1004_1dac_84ba_9ca4, (118, 383)),
        (7, 'a', 144, 0xa535_4f77_22f6_ad11, (368, 790)),
        (7, 'b', 144, 0x228f_300f_49cc_f298, (123, 317)),
        (1, 'a', 400, 0x50dc_9cd2_1b08_a827, (1, 0)),
        (1, 'b', 400, 0x2310_f6be_4d91_40ef, (1, 0)),
        (2, 'a', 400, 0x3ce6_20c7_7251_cbfa, (1, 0)),
        (2, 'b', 400, 0xc4d2_51d4_df35_8fc1, (1, 0)),
        (3, 'a', 400, 0xa535_d555_c671_f8ed, (1, 0)),
        (3, 'b', 400, 0x8815_9f78_faf6_2a5b, (1, 0)),
        (4, 'a', 400, 0xaf30_10b1_d510_b075, (1, 0)),
        (4, 'b', 400, 0xb72c_b4b7_f69f_3675, (1, 0)),
        (5, 'a', 400, 0xaea2_b310_faa1_aa00, (1, 0)),
        (5, 'b', 400, 0xdcce_bc42_a0c5_1cc1, (1, 0)),
        (6, 'a', 400, 0xc2ea_093e_0cd5_96ad, (16681, 7600)),
        (6, 'b', 400, 0x30af_cdfa_f989_7688, (1, 0)),
        (7, 'a', 400, 0xb192_3551_b4b7_3d1a, (2878, 4839)),
        (7, 'b', 400, 0x0b4a_7a09_3ed4_bdbd, (1548, 3715)),
        (1, 'a', 1296, 0xd323_e488_dec0_d715, (1, 0)),
        (1, 'b', 1296, 0x2e0d_b290_563c_1210, (1, 0)),
        (2, 'a', 1296, 0x853c_636f_75a0_1ef4, (1, 0)),
        (2, 'b', 1296, 0xe07f_bad5_55fe_9c6d, (1, 0)),
        (3, 'a', 1296, 0x9999_4f0c_e5d1_fbd7, (1, 0)),
        (3, 'b', 1296, 0x2fe6_1bff_f494_55d3, (1, 0)),
        (4, 'a', 1296, 0xf138_d187_17e1_ea06, (1, 0)),
        (4, 'b', 1296, 0xf440_3a54_3fc4_2698, (1, 0)),
        (5, 'a', 1296, 0xc4b8_e7b7_f67c_bc3b, (1, 0)),
        (5, 'b', 1296, 0xd320_ff52_7702_023f, (1, 0)),
        (6, 'a', 1296, 0x86e0_e91b_a5a1_1273, (1, 0)),
        (6, 'b', 1296, 0x48ed_8c89_a53d_8071, (1, 0)),
        (7, 'a', 1296, 0x6171_47b4_8979_e74b, (33945, 56392)),
        (7, 'b', 1296, 0x7e2a_40c5_c83c_344f, (13513, 35821)),
    ];
    assert_eq!(got, want);
}

/// The known marches that lose connectivity during the transition
/// (ROADMAP item 1): each returns [`MarchError::ConnectivityLost`], and
/// the audit of the outcome it carries reports `C = 0` with the
/// preserved-link count `anr scenario` prints for it, the disconnected
/// intervals the error's metrics hold, and is pinned by
/// [`report_digest`] and [`work_counters`].
fn assert_connectivity_lost(
    (id, separation, robots): (u8, f64, usize),
    method: Method,
    (preserved, initial): (usize, usize),
    digest: u64,
    counters: (usize, usize),
) {
    let problem = sized_problem(id, separation, robots).unwrap();
    let key = format!("scenario {id}, separation {separation}, {robots} robots, {method:?}");
    let outcome = match march(&problem, method, &MarchConfig::default()) {
        Err(MarchError::ConnectivityLost(outcome)) => outcome,
        other => panic!("{key}: expected ConnectivityLost, got {other:?}"),
    };
    let r = knot_audit_of(&problem, &outcome, &key);
    assert_eq!(r.global_connectivity, 0, "{key}");
    assert!(!r.disconnected_intervals.is_empty(), "{key}");
    assert_eq!(
        outcome.metrics.disconnected_intervals, r.disconnected_intervals,
        "{key}"
    );
    assert_eq!(
        (r.preserved_links, r.initial_links),
        (preserved, initial),
        "{key}"
    );
    assert_eq!(report_digest(&r), digest, "{key}");
    assert_eq!(work_counters(&r), counters, "{key}");
}

#[test]
fn scenario3_method_a_separation_100_loses_connectivity() {
    assert_connectivity_lost(
        (3, 100.0, 100),
        Method::MaxStableLinks,
        (201, 263),
        0x01d6_cc59_01ff_0045,
        (106, 105),
    );
}

#[test]
fn scenario3_method_b_separation_30_loses_connectivity() {
    assert_connectivity_lost(
        (3, 30.0, 100),
        Method::MinMovingDistance,
        (176, 263),
        0x9623_a520_a0ad_0627,
        (115, 146),
    );
}

#[test]
fn scenario6_method_b_separation_5_loses_connectivity() {
    assert_connectivity_lost(
        (6, 5.0, 100),
        Method::MinMovingDistance,
        (176, 252),
        0x79b8_a4b5_fe2f_35f7,
        (58, 187),
    );
}

/// At the paper's default swarm (144 robots), method (b) on scenario 3
/// loses connectivity at separations 50–80; this pins separation 50.
#[test]
fn scenario3_method_b_separation_50_loses_connectivity() {
    assert_connectivity_lost(
        (3, 50.0, 144),
        Method::MinMovingDistance,
        (339, 409),
        0xec3c_0819_3e98_043c,
        (35, 28),
    );
}

/// The audit of each benchmark march's dense rows, called the way the
/// benchmark calls it (`audit_piecewise_with_workers` on the rows at
/// uniform instants): `C`, the bits of `L`, the preserved links and an
/// FNV-1a 64 of the violating links, on the seven scenarios at 1296
/// robots and scenario 1 at 3025, separation 30, method (a).
#[test]
fn row_audit_is_pinned_on_the_benchmark_marches() {
    let mut got = Vec::new();
    for (id, robots) in (1..=7u8).map(|id| (id, 1296usize)).chain([(1, 3025)]) {
        let problem = sized_problem(id, 30.0, robots).unwrap();
        let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
        let rows = &outcome.timeline;
        let steps = (rows.len() - 1).max(1) as f64;
        let times: Vec<f64> = (0..rows.len()).map(|k| k as f64 / steps).collect();
        let r = audit_piecewise_with_workers(rows, &times, problem.range, 0, &Tracer::disabled())
            .unwrap();
        let links: Vec<u8> = r
            .violations
            .iter()
            .flat_map(|v| [v.link.0 as u64, v.link.1 as u64])
            .flat_map(u64::to_be_bytes)
            .collect();
        got.push((
            id,
            robots,
            r.global_connectivity,
            r.stable_link_ratio.to_bits(),
            r.preserved_links,
            anr_serve::fnv1a64(&links),
        ));
    }
    let want: Vec<(u8, usize, u8, u64, usize, u64)> = vec![
        (
            1,
            1296,
            1,
            0x3fee_075d_3e39_5a0b,
            45213,
            0xe7d3_c6f2_714b_98e6,
        ),
        (
            2,
            1296,
            1,
            0x3fed_3afe_58f9_fae3,
            44011,
            0x0c72_08a0_6d36_f303,
        ),
        (
            3,
            1296,
            1,
            0x3feb_46f2_ce9c_e6d5,
            41070,
            0x0704_d246_5973_a511,
        ),
        (
            4,
            1296,
            1,
            0x3feb_53de_d2e2_8182,
            41146,
            0x74d6_5895_238c_ce7c,
        ),
        (
            5,
            1296,
            1,
            0x3fec_5b11_e687_2e51,
            42694,
            0xd1e5_974a_f389_c4d2,
        ),
        (
            6,
            1296,
            1,
            0x3fea_8142_c9f0_f516,
            38510,
            0xcdfd_4150_7df3_c6d6,
        ),
        (
            7,
            1296,
            1,
            0x3fea_0db4_1789_2242,
            37903,
            0x39db_3d00_e4d8_71b4,
        ),
        (
            1,
            3025,
            1,
            0x3fee_52f8_b2b5_3224,
            251167,
            0xc9de_5414_b7c6_639a,
        ),
    ];
    assert_eq!(got, want);
}

/// A hole scenario's whole dense timeline, pinned by the FNV-1a 64 of
/// its coordinates' bits: the transition rows filled block by block and
/// the Lloyd rows after them stay byte-identical.
#[test]
fn hole_scenario_timeline_is_pinned() {
    let problem = scenario_problem(4);
    let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).unwrap();
    let mut bytes = Vec::new();
    for p in outcome.timeline.iter().flatten() {
        bytes.extend_from_slice(&p.x.to_bits().to_be_bytes());
        bytes.extend_from_slice(&p.y.to_bits().to_be_bytes());
    }
    assert_eq!(
        (outcome.timeline.len(), anr_serve::fnv1a64(&bytes)),
        (349, 0xb754_3959_204d_804c)
    );
}

/// FNV-1a 64 of a run of points' coordinate bits, big-endian.
fn extend_points(bytes: &mut Vec<u8>, points: &[anr_geom::Point]) {
    for p in points {
        bytes.extend_from_slice(&p.x.to_bits().to_be_bytes());
        bytes.extend_from_slice(&p.y.to_bits().to_be_bytes());
    }
}

/// Every march's Lloyd stage, pinned by the FNV-1a 64 of its rows, its
/// final positions, its iteration count and the march's total distance:
/// the seven scenarios at 144 robots with methods (a) and (b) and at 400
/// robots with method (a). The digests were taken before the Lloyd
/// kernels were rewritten, so any change to an assignment, a centroid
/// or a guarded step shows here.
#[test]
fn lloyd_stage_is_pinned_on_every_scenario() {
    let mut got = Vec::new();
    for (robots, methods) in [
        (
            144usize,
            &[Method::MaxStableLinks, Method::MinMovingDistance][..],
        ),
        (400, &[Method::MaxStableLinks][..]),
    ] {
        for id in 1..=7u8 {
            let problem = sized_problem(id, SEPARATION, robots).unwrap();
            for &method in methods {
                let outcome = march(&problem, method, &MarchConfig::default()).unwrap();
                let rows = &outcome.timeline[outcome.timeline.len() - outcome.lloyd_iterations..];
                let mut bytes = Vec::new();
                for row in rows {
                    extend_points(&mut bytes, row);
                }
                extend_points(&mut bytes, &outcome.final_positions);
                bytes.extend_from_slice(&(outcome.lloyd_iterations as u64).to_be_bytes());
                bytes.extend_from_slice(&outcome.metrics.total_distance.to_bits().to_be_bytes());
                let tag = if method == Method::MaxStableLinks {
                    'a'
                } else {
                    'b'
                };
                got.push((id, tag, robots, anr_serve::fnv1a64(&bytes)));
            }
        }
    }
    let want: Vec<(u8, char, usize, u64)> = vec![
        (1, 'a', 144, 0xb59c_8963_49b2_7124),
        (1, 'b', 144, 0x2546_3090_6817_f711),
        (2, 'a', 144, 0xf330_ad5a_64bf_549f),
        (2, 'b', 144, 0x61cb_f70d_f2e2_3ec4),
        (3, 'a', 144, 0xd403_56bf_c48c_b426),
        (3, 'b', 144, 0xd0f9_79c8_c154_99ca),
        (4, 'a', 144, 0xc862_e23c_7658_d551),
        (4, 'b', 144, 0x9723_6bec_c3f9_35f4),
        (5, 'a', 144, 0xf154_7264_560a_074b),
        (5, 'b', 144, 0x27f1_22ec_0195_ac7b),
        (6, 'a', 144, 0x1f51_7cd2_ce1f_7b12),
        (6, 'b', 144, 0x8e38_4bb7_45dd_e78c),
        (7, 'a', 144, 0xf22f_af21_9c9f_1ec5),
        (7, 'b', 144, 0xfe6c_3e83_054d_3b0c),
        (1, 'a', 400, 0x43ee_7009_6292_6a4b),
        (2, 'a', 400, 0x9e3d_b44c_11b1_8213),
        (3, 'a', 400, 0xd38a_2e84_b0a5_33fe),
        (4, 'a', 400, 0xe84f_9a50_c663_d7f4),
        (5, 'a', 400, 0x0c5c_1441_dd92_2df6),
        (6, 'a', 400, 0x3704_5373_dad9_780d),
        (7, 'a', 400, 0x4585_b226_643e_40b6),
    ];
    assert_eq!(got, want);
}

/// The plain-Lloyd coverage positions every problem starts from
/// (`optimal_coverage_positions` on each scenario's `M1`), pinned the
/// same way at 144 and 400 robots.
#[test]
fn coverage_positions_are_pinned_on_every_scenario() {
    let mut got = Vec::new();
    for robots in [144usize, 400] {
        for id in 1..=7u8 {
            let s = anr_scenarios::build_scenario(
                id,
                &anr_scenarios::ScenarioParams {
                    robots,
                    separation_ranges: SEPARATION,
                    ..Default::default()
                },
            )
            .unwrap();
            let positions = anr_march::optimal_coverage_positions(&s.m1, robots).unwrap();
            let mut bytes = Vec::new();
            extend_points(&mut bytes, &positions);
            got.push((id, robots, anr_serve::fnv1a64(&bytes)));
        }
    }
    let want: Vec<(u8, usize, u64)> = vec![
        (1, 144, 0x4705_b355_c162_d590),
        (2, 144, 0x4705_b355_c162_d590),
        (3, 144, 0x4705_b355_c162_d590),
        (4, 144, 0x4705_b355_c162_d590),
        (5, 144, 0x4705_b355_c162_d590),
        (6, 144, 0xed2c_5477_1535_4b28),
        (7, 144, 0xa0b6_a9c8_05b2_5513),
        (1, 400, 0xb624_87d7_17f6_b3bf),
        (2, 400, 0xb624_87d7_17f6_b3bf),
        (3, 400, 0xb624_87d7_17f6_b3bf),
        (4, 400, 0xb624_87d7_17f6_b3bf),
        (5, 400, 0xb624_87d7_17f6_b3bf),
        (6, 400, 0xfdfe_bf34_a97f_222b),
        (7, 400, 0x9f56_da10_b21c_1775),
    ];
    assert_eq!(got, want);
}
