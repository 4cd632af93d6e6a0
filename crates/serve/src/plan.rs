//! Request execution: decode → march → canonical response bytes.
//!
//! [`execute_plan`] is the single source of truth for what a cold
//! (uncached) response looks like on the wire. The cache stores exactly
//! the bytes this function returns, so "cache hit ≡ fresh march" is a
//! byte-equality statement tests can (and do) pin.

use crate::protocol::{
    encode_header, frame_into, request_hash, Fnv1a64, PlanMethod, PlanRequest, PlanTarget,
    ResponseHeader, CHUNK_POINTS, ERR_BAD_REQUEST, ERR_CONNECTIVITY_LOST, ERR_INTERNAL,
    ERR_UNKNOWN_SCENARIO, KIND_RESP_CHUNK, KIND_RESP_END, KIND_RESP_HEADER, MAX_REPLY_POINTS,
};
use anr_geom::{Polygon, PolygonWithHoles, Vector};
use anr_march::{march_traced, MarchConfig, MarchError, MarchProblem, Method};
use anr_scenarios::{build_scenario, ScenarioError, ScenarioParams};
use anr_trace::Tracer;

/// Communication range (metres) used for custom polygon targets — the
/// paper's r_c. Bundled scenarios use the same value via
/// [`ScenarioParams`]'s default.
pub const SERVE_RANGE: f64 = 80.0;

/// Why a decoded request could not be planned. Each variant maps to a
/// wire error code; none of them takes the server down.
#[derive(Debug)]
pub enum PlanError {
    /// The scenario id is outside the bundled 1–7.
    UnknownScenario {
        /// The requested id.
        id: u8,
    },
    /// The request decoded but describes an unplannable problem
    /// (degenerate polygon, too few robots, lattice does not fit).
    BadRequest(String),
    /// The march pipeline itself failed on a well-formed problem.
    March(String),
    /// The march planned, but its own audit found the network
    /// disconnected at some instant (`C = 0`); no plan is sent.
    ConnectivityLost(String),
}

impl PlanError {
    /// The wire error code for this failure.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            PlanError::UnknownScenario { .. } => ERR_UNKNOWN_SCENARIO,
            PlanError::BadRequest(_) => ERR_BAD_REQUEST,
            PlanError::March(_) => ERR_INTERNAL,
            PlanError::ConnectivityLost(_) => ERR_CONNECTIVITY_LOST,
        }
    }

    /// The wire error message for this failure.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            PlanError::UnknownScenario { id } => format!("scenario ids run 1..=7, got {id}"),
            PlanError::BadRequest(msg) => msg.clone(),
            PlanError::March(msg) => format!("march failed: {msg}"),
            PlanError::ConnectivityLost(msg) => msg.clone(),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for PlanError {}

/// Builds the marching problem a request describes; the lattice
/// deployment runs under a `deploy` span.
fn build_problem(req: &PlanRequest, tracer: &Tracer) -> Result<MarchProblem, PlanError> {
    let robots = req.robots as usize;
    let (m1, m2, range) = match &req.target {
        PlanTarget::Scenario(id) => {
            let s = build_scenario(
                *id,
                &ScenarioParams {
                    robots,
                    separation_ranges: req.separation_ranges,
                    ..Default::default()
                },
            )
            .map_err(|e| match e {
                ScenarioError::UnknownScenario { id } => PlanError::UnknownScenario { id },
                other => PlanError::BadRequest(other.to_string()),
            })?;
            (s.m1, s.m2, s.range)
        }
        PlanTarget::Polygon(pts) => {
            let outer = Polygon::new(pts.clone())
                .map_err(|e| PlanError::BadRequest(format!("bad polygon: {e}")))?;
            let m2 = PolygonWithHoles::without_holes(outer.to_ccw());
            // The swarm starts in a congruent FoI a full separation back
            // along −x, mirroring how the bundled scenarios separate
            // their centroids.
            let shift = Vector::new(-req.separation_ranges * SERVE_RANGE, 0.0);
            let m1 = PolygonWithHoles::without_holes(m2.outer().translated(shift));
            (m1, m2, SERVE_RANGE)
        }
    };
    let _deploy = tracer.span("deploy");
    MarchProblem::with_lattice_deployment(m1, m2, robots, range)
        .map_err(|e| PlanError::BadRequest(format!("cannot deploy {robots} robots: {e}")))
}

/// The `MarchConfig` a request's overrides resolve to.
fn build_config(req: &PlanRequest) -> MarchConfig {
    let mut config = MarchConfig::default();
    if req.time_samples > 0 {
        config.time_samples = req.time_samples as usize;
    }
    config.refine_coverage = req.refine_coverage;
    if req.lloyd_max_iterations > 0 {
        config.lloyd.max_iterations = req.lloyd_max_iterations as usize;
    }
    config
}

fn clamp_u32(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// The points a reply of `rows` timeline rows of `robots` robots
/// streams, refused as a bad request above [`MAX_REPLY_POINTS`].
fn reply_points(rows: usize, robots: usize) -> Result<usize, PlanError> {
    rows.checked_mul(robots)
        .filter(|&points| points <= MAX_REPLY_POINTS)
        .ok_or_else(|| {
            PlanError::BadRequest(format!(
                "a reply of {rows} timeline rows x {robots} robots exceeds \
                 {MAX_REPLY_POINTS} points"
            ))
        })
}

/// Executes a plan request and encodes the complete response byte
/// stream: one header frame, `ceil(rows·robots / CHUNK_POINTS)` chunk
/// frames of timeline points (row-major), and one end frame carrying a
/// FNV integrity hash over every preceding payload. The reply's size is
/// checked against [`MAX_REPLY_POINTS`] before any timeline row is
/// built; building the rows and encoding them run in an `encode` span.
///
/// Deterministic by construction — the pipeline has no ambient inputs —
/// so equal requests produce equal bytes, which is what makes the
/// content-addressed cache sound.
///
/// # Errors
///
/// A typed [`PlanError`]; the caller turns it into a wire error frame. A
/// march that loses connectivity is [`PlanError::ConnectivityLost`]: a
/// reply always carries a plan with `C = 1`.
pub fn execute_plan(req: &PlanRequest, tracer: &Tracer) -> Result<Vec<u8>, PlanError> {
    let problem = build_problem(req, tracer)?;
    let config = build_config(req);
    let method = match req.method {
        PlanMethod::MaxStableLinks => Method::MaxStableLinks,
        PlanMethod::MinMovingDistance => Method::MinMovingDistance,
    };
    let outcome = march_traced(&problem, method, &config, tracer).map_err(|e| match e {
        MarchError::ConnectivityLost(_) => PlanError::ConnectivityLost(e.to_string()),
        e => PlanError::March(e.to_string()),
    })?;

    let robots = problem.num_robots();
    let rows = outcome.timeline.len();
    let total_points = reply_points(rows, robots)?;
    let _encode = tracer.span("encode");
    let chunk_count = total_points.div_ceil(CHUNK_POINTS).max(1);

    let header = ResponseHeader {
        request_hash: request_hash(req),
        robots: clamp_u32(robots),
        timeline_rows: clamp_u32(rows),
        chunk_count: clamp_u32(chunk_count),
        lloyd_iterations: clamp_u32(outcome.lloyd_iterations),
        rotation: outcome.rotation,
        total_distance: outcome.metrics.total_distance,
        stable_link_ratio: outcome.metrics.stable_link_ratio,
        global_connectivity: outcome.metrics.global_connectivity,
        preserved_links: clamp_u32(outcome.metrics.preserved_links),
        initial_links: clamp_u32(outcome.metrics.initial_links),
        new_links: clamp_u32(outcome.metrics.new_links),
    };
    let header_payload = encode_header(&header);

    let mut out = Vec::with_capacity(16 * total_points + 128);
    let mut stream_hash = Fnv1a64::new();
    stream_hash.update(&header_payload);
    frame_into(&mut out, KIND_RESP_HEADER, &header_payload);

    // The first read builds the timeline rows; chunks are encoded
    // straight from them into one reused payload buffer, hashed as they
    // are produced.
    let mut points = outcome.timeline.iter().flatten();
    let mut payload = Vec::with_capacity(8 + 16 * CHUNK_POINTS.min(total_points));
    for index in 0..chunk_count {
        let len = CHUNK_POINTS.min(total_points - index * CHUNK_POINTS);
        payload.clear();
        payload.extend_from_slice(&clamp_u32(index).to_be_bytes());
        payload.extend_from_slice(&clamp_u32(len).to_be_bytes());
        for p in points.by_ref().take(len) {
            payload.extend_from_slice(&p.x.to_bits().to_be_bytes());
            payload.extend_from_slice(&p.y.to_bits().to_be_bytes());
        }
        stream_hash.update(&payload);
        frame_into(&mut out, KIND_RESP_CHUNK, &payload);
    }

    let mut end = Vec::with_capacity(12);
    end.extend_from_slice(&clamp_u32(chunk_count).to_be_bytes());
    end.extend_from_slice(&stream_hash.finish().to_be_bytes());
    frame_into(&mut out, KIND_RESP_END, &end);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Point;

    #[test]
    fn unknown_scenario_is_typed() {
        let req = PlanRequest::scenario(9);
        match execute_plan(&req, &Tracer::disabled()) {
            Err(PlanError::UnknownScenario { id: 9 }) => {}
            other => panic!("expected UnknownScenario, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_polygon_is_bad_request() {
        let req = PlanRequest {
            target: PlanTarget::Polygon(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ]),
            ..PlanRequest::scenario(1)
        };
        match execute_plan(&req, &Tracer::disabled()) {
            Err(PlanError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    /// The full reply bytes — header, every chunk, end frame — of one
    /// hole-scenario request and one polygon request, pinned by their
    /// FNV-1a 64 so that how a reply is encoded cannot move a byte.
    #[test]
    fn reply_bytes_are_pinned() {
        let polygon = PlanRequest {
            target: PlanTarget::Polygon(vec![
                Point::new(0.0, 0.0),
                Point::new(600.0, 0.0),
                Point::new(600.0, 300.0),
                Point::new(300.0, 300.0),
                Point::new(300.0, 600.0),
                Point::new(0.0, 600.0),
            ]),
            ..PlanRequest::scenario(1)
        };
        for (req, len, hash) in [
            (
                PlanRequest::scenario(6),
                1_221_450,
                0xc5d1_bbe2_5928_6373u64,
            ),
            (polygon, 161_402, 0xe593_5107_19e2_accf),
        ] {
            let bytes = execute_plan(&req, &Tracer::disabled()).unwrap();
            assert_eq!(
                (bytes.len(), crate::protocol::fnv1a64(&bytes)),
                (len, hash),
                "{:?}",
                req.target
            );
        }
    }

    #[test]
    fn reply_points_are_bounded() {
        // Scenario 7 at 10⁴ robots is refused, at 3025 robots served.
        let refused = reply_points(26_286, 10_000).unwrap_err();
        assert_eq!(refused.code(), ERR_BAD_REQUEST);
        let msg = refused.message();
        for part in ["26286", "10000", &MAX_REPLY_POINTS.to_string()] {
            assert!(msg.contains(part), "{msg:?} does not name {part}");
        }
        assert_eq!(reply_points(8_089, 3_025).unwrap(), 8_089 * 3_025);
        // An overflowing product is an error, not a panic.
        assert!(matches!(
            reply_points(usize::MAX, 2),
            Err(PlanError::BadRequest(_))
        ));
    }

    #[test]
    fn too_few_robots_is_bad_request() {
        let mut req = PlanRequest::scenario(1);
        req.robots = 2;
        match execute_plan(&req, &Tracer::disabled()) {
            Err(PlanError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
}
