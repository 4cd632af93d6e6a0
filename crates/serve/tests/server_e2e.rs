//! End-to-end server tests: a real listener, real sockets, the real
//! worker pool. Every thread here comes from `anr-par` (lint rule D3
//! binds test code too); concurrency is expressed as `par_map` roles.

mod common;

use anr_geom::Point;
use anr_serve::{
    decode_chunk, encode_request, execute_plan, frame_into, read_frame, request_plan, write_frame,
    PlanReply, PlanRequest, PlanTarget, ServeConfig, CHUNK_POINTS, ERR_BAD_REQUEST,
    ERR_CONNECTIVITY_LOST, ERR_INTERNAL, ERR_MALFORMED, ERR_OVERSIZED, ERR_UNKNOWN_SCENARIO,
    KIND_PLAN_REQUEST, KIND_RESP_BUSY, KIND_RESP_CHUNK, KIND_RESP_END, KIND_RESP_ERROR,
    KIND_RESP_HEADER, MAX_POLYGON_VERTICES, MAX_REQUEST_BYTES, MAX_RESPONSE_FRAME, MAX_ROBOTS,
    MAX_TIMELINE_POINTS, MAX_TIME_SAMPLES, SERVE_RANGE,
};
use anr_trace::Tracer;
use common::{cheap_request, with_server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn small_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn plan_round_trip_and_cache_hit_bytes_identical() {
    let tracer = Tracer::ring(65536);
    let req = cheap_request(1);
    let reference = execute_plan(&req, &Tracer::disabled()).expect("reference march");

    let ((cold, hot), report) = with_server(small_config(), &tracer, |server| {
        let cold = match request_plan(server.port(), &req).expect("cold request") {
            PlanReply::Plan(resp) => resp,
            other => panic!("expected a plan, got {other:?}"),
        };
        let hot = match request_plan(server.port(), &req).expect("hot request") {
            PlanReply::Plan(resp) => resp,
            other => panic!("expected a plan, got {other:?}"),
        };
        (cold, hot)
    });

    // The cold response IS the fresh march, byte for byte — and the
    // cache hit replays it exactly.
    assert_eq!(
        cold.raw, reference,
        "cold response differs from a direct march"
    );
    assert_eq!(hot.raw, cold.raw, "cache hit is not byte-identical");
    assert_eq!(cold.header.robots, 144);
    assert_eq!(
        cold.points.len(),
        cold.header.timeline_rows as usize * cold.header.robots as usize
    );
    assert!(cold.header.stable_link_ratio >= 0.0 && cold.header.stable_link_ratio <= 1.0);
    assert!(cold.header.total_distance > 0.0);

    // Walk the raw stream frame by frame — header, bounded chunks, end
    // — and re-encode it with `frame_into` to pin the framing layer.
    let mut cursor = &cold.raw[..];
    let mut rebuilt = Vec::new();
    let (kind, header_payload) = read_frame(&mut cursor, MAX_RESPONSE_FRAME).expect("header frame");
    assert_eq!(kind, KIND_RESP_HEADER, "a response leads with its header");
    frame_into(&mut rebuilt, kind, &header_payload);
    let mut chunk_frames = 0u32;
    let mut streamed_points = 0usize;
    loop {
        let (kind, payload) = read_frame(&mut cursor, MAX_RESPONSE_FRAME).expect("stream frame");
        frame_into(&mut rebuilt, kind, &payload);
        if kind == KIND_RESP_END {
            break;
        }
        assert_eq!(kind, KIND_RESP_CHUNK, "only chunks between header and end");
        let (index, chunk) = decode_chunk(&payload).expect("chunk decodes");
        assert_eq!(index, chunk_frames, "chunks arrive in order");
        assert!(chunk.len() <= CHUNK_POINTS, "chunk above the size bound");
        streamed_points += chunk.len();
        chunk_frames += 1;
    }
    assert!(cursor.is_empty(), "bytes after the end frame");
    assert_eq!(chunk_frames, cold.header.chunk_count);
    assert_eq!(streamed_points, cold.points.len());
    assert_eq!(rebuilt, cold.raw, "frame_into must reproduce the stream");

    assert_eq!(report.stats.served, 2);
    assert_eq!(report.stats.cache.hits, 1);
    assert_eq!(report.stats.cache.misses, 1);
    assert_eq!(report.stats.worker_panics, 0);

    // The per-request spans rode the tracer: one miss, one hit. Only
    // the miss builds and encodes a reply.
    let events = tracer.events();
    let starts = |name: &str| {
        events
            .iter()
            .filter(|e| e.name == name && e.kind == anr_trace::TraceKind::SpanStart)
            .count()
    };
    assert_eq!(starts("serve_request"), 2, "one span per request");
    assert_eq!(starts("encode"), 1, "one encode span, for the cold request");
}

#[test]
fn polygon_target_marches() {
    let tracer = Tracer::disabled();
    // A rectangle a few communication ranges across — SERVE_RANGE is
    // the r_c the server assumes for custom polygon targets.
    let req = PlanRequest {
        target: PlanTarget::Polygon(vec![
            Point::new(0.0, 0.0),
            Point::new(5.25 * SERVE_RANGE, 0.0),
            Point::new(5.25 * SERVE_RANGE, 3.75 * SERVE_RANGE),
            Point::new(0.0, 3.75 * SERVE_RANGE),
        ]),
        separation_ranges: 5.0,
        ..cheap_request(1)
    };
    let (resp, report) = with_server(small_config(), &tracer, |server| {
        let resp = match request_plan(server.port(), &req).expect("polygon request") {
            PlanReply::Plan(resp) => resp,
            other => panic!("expected a plan, got {other:?}"),
        };

        // A polygon above the wire's vertex bound never reaches the
        // planner: the decoder rejects it as malformed.
        let huge = PlanRequest {
            target: PlanTarget::Polygon(
                (0..=MAX_POLYGON_VERTICES)
                    .map(|i| Point::new(i as f64, f64::from(u32::from(i % 2 == 0))))
                    .collect(),
            ),
            ..cheap_request(1)
        };
        match request_plan(server.port(), &huge).expect("oversized polygon reply") {
            PlanReply::ServerError { code, .. } => assert_eq!(code, ERR_MALFORMED),
            other => panic!("expected a malformed error, got {other:?}"),
        }
        resp
    });
    assert_eq!(resp.header.robots, 144);
    assert!(resp.header.timeline_rows >= 2);
    assert_eq!(report.stats.served, 1);
    assert_eq!(report.stats.protocol_errors, 1);
    assert_eq!(report.stats.worker_panics, 0);
}

#[test]
fn typed_errors_never_take_the_server_down() {
    let tracer = Tracer::disabled();
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (.., report) = with_server(config, &tracer, |server| {
        let port = server.port();

        // 1. Unknown scenario → typed error frame.
        match request_plan(port, &PlanRequest::scenario(9)).expect("reply") {
            PlanReply::ServerError { code, .. } => assert_eq!(code, ERR_UNKNOWN_SCENARIO),
            other => panic!("expected unknown-scenario error, got {other:?}"),
        }

        // 2. A degenerate (collinear) polygon decodes fine but cannot
        //    be planned → typed bad-request error.
        let degenerate = PlanRequest {
            target: PlanTarget::Polygon(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ]),
            ..cheap_request(1)
        };
        match request_plan(port, &degenerate).expect("reply") {
            PlanReply::ServerError { code, .. } => assert_eq!(code, ERR_BAD_REQUEST),
            other => panic!("expected bad-request error, got {other:?}"),
        }

        // 3. Garbage bytes → malformed error frame.
        let mut raw = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write_frame(&mut raw, KIND_PLAN_REQUEST, b"\xff\xff\xff").expect("write");
        assert_eq!(read_error_code(&mut raw), ERR_MALFORMED);

        // 4. Wrong frame kind → malformed error frame.
        let mut raw = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write_frame(&mut raw, 0x7f, b"").expect("write");
        assert_eq!(read_error_code(&mut raw), ERR_MALFORMED);

        // 5. The smallest oversized length word → oversized error frame,
        //    body unread.
        let mut raw = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        let len = u32::try_from(MAX_REQUEST_BYTES + 1).expect("bound fits a length word");
        raw.write_all(&len.to_be_bytes()).expect("write len");
        assert_eq!(read_error_code(&mut raw), ERR_OVERSIZED);

        // 6. The server is still alive and planning.
        match request_plan(port, &cheap_request(1)).expect("healthy request") {
            PlanReply::Plan(_) => {}
            other => panic!("server should still serve plans, got {other:?}"),
        }
    });
    assert_eq!(report.stats.protocol_errors, 3);
    assert_eq!(report.stats.plan_errors, 2); // unknown scenario + bad polygon
    assert_eq!(report.stats.served, 1);
    assert_eq!(report.stats.worker_panics, 0);

    // The wire error codes are a closed, pairwise-distinct set — a
    // client can dispatch on them.
    let codes = [
        ERR_MALFORMED,
        ERR_OVERSIZED,
        ERR_UNKNOWN_SCENARIO,
        ERR_BAD_REQUEST,
        ERR_INTERNAL,
        ERR_CONNECTIVITY_LOST,
    ];
    for (i, a) in codes.iter().enumerate() {
        for b in &codes[i + 1..] {
            assert_ne!(a, b, "error codes must be distinct");
        }
    }
}

/// A march whose own audit finds `C = 0` (scenario 3, 100 robots,
/// separation 100, method (a)) is answered with a typed error, not a
/// plan, and nothing is cached for it: asking again marches again.
#[test]
fn connectivity_lost_is_a_typed_error_and_never_cached() {
    let tracer = Tracer::disabled();
    let req = PlanRequest {
        robots: 100,
        separation_ranges: 100.0,
        ..PlanRequest::scenario(3)
    };
    let (.., report) = with_server(small_config(), &tracer, |server| {
        for _ in 0..2 {
            match request_plan(server.port(), &req).expect("reply") {
                PlanReply::ServerError { code, message } => {
                    assert_eq!(code, ERR_CONNECTIVITY_LOST);
                    assert!(message.contains("C = 0"), "{message}");
                }
                other => panic!("expected a connectivity-lost error, got {other:?}"),
            }
        }
    });
    assert_eq!(report.stats.plan_errors, 2);
    assert_eq!(report.stats.served, 0);
    assert_eq!(report.stats.cache.hits, 0);
    assert_eq!(report.stats.cache.misses, 2);
    assert_eq!(report.stats.cache.entries, 0);
    assert_eq!(report.stats.worker_panics, 0);
}

/// Sends `over`, expects a malformed-request error, then checks that a
/// normal request on the same server still gets a plan.
fn rejected_at_decode_then_served(over: &PlanRequest) {
    let tracer = Tracer::disabled();
    let (.., report) = with_server(small_config(), &tracer, |server| {
        match request_plan(server.port(), over).expect("reply") {
            PlanReply::ServerError { code, .. } => assert_eq!(code, ERR_MALFORMED),
            other => panic!("expected a malformed error, got {other:?}"),
        }
        match request_plan(server.port(), &cheap_request(1)).expect("healthy request") {
            PlanReply::Plan(_) => {}
            other => panic!("server should still serve plans, got {other:?}"),
        }
    });
    assert_eq!(report.stats.protocol_errors, 1);
    assert_eq!(report.stats.plan_errors, 0);
    assert_eq!(report.stats.served, 1);
    assert_eq!(report.stats.worker_panics, 0);
}

#[test]
fn swarms_beyond_max_robots_are_malformed() {
    for robots in [MAX_ROBOTS + 1, u32::MAX] {
        rejected_at_decode_then_served(&PlanRequest {
            robots,
            ..cheap_request(1)
        });
    }
}

#[test]
fn time_samples_beyond_max_are_malformed() {
    for time_samples in [MAX_TIME_SAMPLES + 1, u32::MAX] {
        rejected_at_decode_then_served(&PlanRequest {
            time_samples,
            ..cheap_request(1)
        });
    }
}

/// Reads one frame and asserts it is an error frame, returning its code.
fn read_error_code(stream: &mut TcpStream) -> u8 {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut lenb = [0u8; 4];
    stream.read_exact(&mut lenb).expect("length word");
    let len = u32::from_be_bytes(lenb) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("frame body");
    assert_eq!(body[0], KIND_RESP_ERROR, "expected an error frame");
    body[1]
}

#[test]
fn admission_backpressure_sends_busy() {
    let tracer = Tracer::disabled();
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let busy_seen = AtomicBool::new(false);
    let (.., report) = with_server(config, &tracer, |server| {
        let port = server.port();
        let wait_for = |what: &str, ready: &dyn Fn() -> bool| {
            for _ in 0..6000 {
                if ready() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("timed out waiting for {what}");
        };
        // Two concurrent roles: a hog occupying the single worker, and a
        // probe that fills the queue and collects the Busy refusal while
        // the hog is in flight. The hog holds the worker by withholding
        // its request bytes until the probe has read the Busy frame (the
        // worker's 30 s read timeout bounds the wait), so the test does
        // not depend on how long a march takes.
        let roles = [true, false]; // true = hog, false = probe
        let outcomes = anr_par::par_map(&roles, roles.len(), |&hogging| {
            if hogging {
                let mut hog = TcpStream::connect(("127.0.0.1", port)).expect("hog conn");
                wait_for("the Busy refusal", &|| busy_seen.load(Ordering::SeqCst));
                write_frame(
                    &mut hog,
                    KIND_PLAN_REQUEST,
                    &encode_request(&cheap_request(1)),
                )
                .expect("hog request");
                hog.set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("timeout");
                // The hog's request completes: header, chunks, end.
                let (kind, _) = read_frame(&mut hog, MAX_RESPONSE_FRAME).expect("hog reply");
                assert_eq!(kind, KIND_RESP_HEADER, "the hog's request should complete");
                loop {
                    let (kind, _) = read_frame(&mut hog, MAX_RESPONSE_FRAME).expect("hog stream");
                    if kind == KIND_RESP_END {
                        break;
                    }
                    assert_eq!(kind, KIND_RESP_CHUNK, "the hog's request should complete");
                }
                true
            } else {
                // The hog's connection is accepted, and the idle worker
                // takes it off the queue (the server exposes no queue
                // depth, so allow it a moment)...
                wait_for("the hog's connection", &|| server.stats().accepted >= 1);
                std::thread::sleep(Duration::from_millis(200));

                // ...a second connection fills the queue...
                let mut queued = TcpStream::connect(("127.0.0.1", port)).expect("queued conn");
                wait_for("the queued connection", &|| server.stats().accepted >= 2);

                // ...so the third is refused with an explicit Busy
                // frame before its request is even read.
                let mut refused = TcpStream::connect(("127.0.0.1", port)).expect("refused conn");
                refused
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                let mut lenb = [0u8; 4];
                refused.read_exact(&mut lenb).expect("busy length");
                let mut body = vec![0u8; u32::from_be_bytes(lenb) as usize];
                refused.read_exact(&mut body).expect("busy body");
                assert_eq!(body, vec![KIND_RESP_BUSY], "expected a bare Busy frame");
                busy_seen.store(true, Ordering::SeqCst);

                // The queued connection still gets served once the hog
                // finishes: send its request now.
                write_frame(
                    &mut queued,
                    KIND_PLAN_REQUEST,
                    &encode_request(&cheap_request(1)),
                )
                .expect("queued request");
                queued
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("timeout");
                let mut first = [0u8; 4];
                queued.read_exact(&mut first).expect("queued reply starts");
                true
            }
        });
        assert_eq!(outcomes, vec![true, true]);
    });
    assert_eq!(report.stats.busy, 1);
    assert!(report.stats.accepted >= 3);
    assert_eq!(report.stats.worker_panics, 0);
}

#[test]
fn max_requests_bounds_the_session() {
    let tracer = Tracer::disabled();
    let config = ServeConfig {
        workers: 1,
        max_requests: 1,
        ..ServeConfig::default()
    };
    // The session ends after one accepted connection all by itself;
    // the harness's stop() afterwards is a no-op on a wound-down
    // server.
    let (reply, report) = with_server(config, &tracer, |server| {
        request_plan(server.port(), &cheap_request(1)).expect("request")
    });
    assert!(matches!(reply, PlanReply::Plan(_)));
    assert_eq!(report.stats.accepted, 1);
    assert_eq!(report.stats.served, 1);
}

#[test]
fn timeline_preallocation_clamp_is_sane() {
    // The client pre-reserves at most `MAX_TIMELINE_POINTS` from the
    // header's `timeline_rows x robots` product, so a hostile header
    // cannot demand an arbitrary allocation before any chunk arrives.
    const { assert!(MAX_TIMELINE_POINTS >= CHUNK_POINTS) };
    // A hostile header's `rows × robots` product is clamped...
    let hostile = (u32::MAX as usize).saturating_mul(u32::MAX as usize);
    assert_eq!(hostile.min(MAX_TIMELINE_POINTS), MAX_TIMELINE_POINTS);
    // ...while a legitimate small reply is unaffected.
    let small = 8usize * 8;
    assert_eq!(small.min(MAX_TIMELINE_POINTS), small);
}
