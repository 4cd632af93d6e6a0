//! The serve workload: `anr serve` as a child process driven by two
//! closed-loop clients, and `execute_plan` in-process for the per-layer
//! split.

use crate::march::StageTotals;
use crate::measure::{median, peak_rss_kib, repeat_passes, span_ms, timed};
use crate::outputs::{parse_listening, parse_server_done, ServerStats};
use crate::report::Run;
use crate::seeded::{self, ServeLoad, ServeSpec};
use crate::Env;
use anr_scenarios::{build_scenario, ScenarioParams};
use anr_serve::{
    decode_chunk, decode_header, execute_plan, fnv1a64, read_frame, request_plan, PlanReply,
    PlanTarget, ResponseHeader, KIND_RESP_CHUNK, KIND_RESP_END, KIND_RESP_HEADER,
    MAX_RESPONSE_FRAME,
};
use anr_trace::{TraceEvent, TraceValue, Tracer};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Closed-loop clients; each holds at most one connection.
const CLIENTS: usize = 2;

/// Server starts timed per session; the last server carries the load.
/// A start takes under a millisecond, so the median needs several.
const SETUPS: usize = 7;

/// What one request got back.
#[derive(Debug, Clone)]
enum Reply {
    /// A complete plan: FNV-64 of its bytes and its `C`.
    Plan { fnv: u64, c: u8 },
    /// `Busy`, an error frame, or a transport failure.
    Refused(String),
}

struct Server {
    child: Child,
    port: u16,
}

impl Server {
    /// Spawns `anr serve` and waits for its `listening` line.
    fn start(anr: &Path, max_requests: usize) -> Result<Server, String> {
        let mut child = Command::new(anr)
            .args(["serve", "--max-requests", &max_requests.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn anr serve: {e}"))?;
        let mut line = String::new();
        if let Some(stdout) = child.stdout.take() {
            // A short line or an error leaves `line` unparsable.
            let _ = BufReader::new(stdout).read_line(&mut line);
        }
        match parse_listening(&line) {
            Some(port) => Ok(Server { child, port }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("anr serve did not report a port: {line:?}"))
            }
        }
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The area of every polygon key: scenario 1's target FoI.
fn polygon_area() -> Result<f64, String> {
    build_scenario(1, &ScenarioParams::default())
        .map(|s| s.m2.area())
        .map_err(|e| format!("scenario 1: {e}"))
}

fn summarize(reply: Result<PlanReply, anr_serve::ClientError>) -> Reply {
    match reply {
        Ok(PlanReply::Plan(resp)) => Reply::Plan {
            fnv: fnv1a64(&resp.raw),
            c: resp.header.global_connectivity,
        },
        Ok(PlanReply::Busy) => Reply::Refused("busy".to_string()),
        Ok(PlanReply::ServerError { code, message }) => {
            Reply::Refused(format!("server error {code}: {message}"))
        }
        Err(e) => Reply::Refused(e.to_string()),
    }
}

/// One serve session's record.
struct Session {
    load: ServeLoad,
    /// Latency (ms) and reply of every request, in stream order.
    replies: Vec<(f64, Reply)>,
    stats: ServerStats,
    /// Wall time of the load phase, ms.
    load_ms: f64,
    /// The server's peak resident set, KiB.
    server_kib: u64,
}

impl Session {
    /// The reply to key `k`'s first request, which is request `k`.
    fn first_reply(&self, k: usize) -> Option<&(f64, Reply)> {
        self.replies.get(k)
    }
}

/// Starts the server [`SETUPS`] times, then sends the seeded stream
/// through [`CLIENTS`] closed-loop clients, checking and recording every
/// request in `run`. After the load the benchmark reads the server's
/// peak memory and closes the session with one more (untimed) request,
/// which makes the server exit and report; a clean close is one more
/// checked operation.
fn run_session(
    env: &Env,
    spec: &ServeSpec,
    seed: u64,
    run: &mut Run,
    spans: &mut Vec<TraceEvent>,
) -> Result<Session, String> {
    let load = seeded::serve_load(seed, spec, polygon_area()?);
    let mut server = None;
    for i in 0..SETUPS {
        let (started, ms) = timed(|| Server::start(&env.anr, load.stream.len() + 1));
        let started = started?;
        run.setup_ms.push(ms);
        if i + 1 < SETUPS {
            started.kill();
        } else {
            server = Some(started);
        }
    }
    let server = server.ok_or("no server started")?;

    let next = AtomicUsize::new(0);
    let clients: Vec<usize> = (0..CLIENTS).collect();
    let (per_client, load_ms) = timed(|| {
        anr_par::par_map(&clients, CLIENTS, |_| {
            let tracer = Tracer::wall(1 << 16);
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&k) = load.stream.get(i) else { break };
                let reply = {
                    let _span = tracer.span_with(
                        "request",
                        vec![
                            ("index", TraceValue::U64(i as u64)),
                            ("key", TraceValue::U64(k as u64)),
                        ],
                    );
                    request_plan(server.port, &load.keys[k])
                };
                mine.push((i, summarize(reply)));
            }
            (mine, tracer.take_events())
        })
    });
    let server_kib = peak_rss_kib(&server.child.id().to_string()).unwrap_or(0);
    // The server exits after `max_requests` connections. Cheap hits top
    // up any the load did not deliver: one when every request reached it.
    let mut closing = 0;
    while closing <= load.stream.len() && request_plan(server.port, &load.keys[0]).is_ok() {
        closing += 1;
    }
    let mut child = server.child;
    if closing > load.stream.len() {
        let _ = child.kill();
    }
    let output = child
        .wait_with_output()
        .map_err(|e| format!("wait for anr serve: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stats = parse_server_done(&stderr)
        .filter(|s| output.status.success() && closing == 1 && s.served == s.accepted);
    run.op(stats.map(|_| ()).ok_or_else(|| {
        format!(
            "anr serve did not close cleanly ({}, {closing} closing requests): {}",
            output.status,
            stderr.trim()
        )
    }));
    let stats = stats.unwrap_or_default();

    let mut replies: Vec<Option<(f64, Reply)>> = vec![None; load.stream.len()];
    for (mine, events) in per_client {
        for ((i, reply), ms) in mine.into_iter().zip(span_ms(&events, "request")) {
            replies[i] = Some((ms, reply));
        }
        spans.extend(events);
    }
    let replies: Vec<(f64, Reply)> = replies
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a request went unanswered")?;

    let session = Session {
        load,
        replies,
        stats,
        load_ms,
        server_kib,
    };
    for (i, (ms, reply)) in session.replies.iter().enumerate() {
        let k = session.load.stream[i];
        let reference = session.first_reply(k).map(|r| &r.1);
        let label = if session.load.is_first(i) {
            "first"
        } else {
            "repeat"
        };
        let check = match (reply, reference) {
            (Reply::Refused(why), _) => Err(format!("request {i} (key {k}): {why}")),
            (Reply::Plan { c, .. }, _) if *c != 1 => Err(format!("request {i} (key {k}): C = {c}")),
            (Reply::Plan { fnv, .. }, Some(Reply::Plan { fnv: want, .. })) if fnv != want => Err(
                format!("request {i} (key {k}): reply differs from the key's first"),
            ),
            _ => Ok(()),
        };
        run.op(check);
        run.sample(format!("{label}:k{k}"), *ms);
    }
    Ok(session)
}

/// Runs sessions, each on a fresh server with the same seeded stream,
/// until `seconds` are spent (at least one).
pub(crate) fn run_e2e(env: &Env, spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut run = Run::default();
    let (mut load_ms, mut server_kib) = (Vec::new(), 0);
    repeat_passes(seconds, || {
        let session = run_session(env, spec, seed, &mut run, &mut Vec::new())?;
        load_ms.push(session.load_ms);
        server_kib = server_kib.max(session.server_kib);
        Ok(())
    })?;
    run.set("pass_s", median(&load_ms) / 1000.0);
    run.set("p50_ms", median(&run.latencies("first:")));
    run.set("setup_s", median(&run.setup_ms) / 1000.0);
    let own = peak_rss_kib("self").unwrap_or(0);
    run.set("peak_rss_mb", server_kib.max(own) as f64 / 1024.0);
    Ok(run)
}

/// Reads a framed reply back the way a client does: header, chunks, end.
fn decode_reply(mut bytes: &[u8]) -> Result<ResponseHeader, String> {
    let mut frame = |want: u8| match read_frame(&mut bytes, MAX_RESPONSE_FRAME) {
        Ok((kind, payload)) if kind == want => Ok(payload),
        Ok((kind, _)) => Err(format!("frame kind {kind:#04x}, expected {want:#04x}")),
        Err(e) => Err(e.to_string()),
    };
    let header = decode_header(&frame(KIND_RESP_HEADER)?).map_err(|e| e.to_string())?;
    for _ in 0..header.chunk_count {
        decode_chunk(&frame(KIND_RESP_CHUNK)?).map_err(|e| e.to_string())?;
    }
    frame(KIND_RESP_END)?;
    Ok(header)
}

/// The per-layer run: the session as above (for the server's own
/// accounting and the client latencies), then every distinct key
/// planned in-process untraced and under a wall tracer, and its reply
/// decoded.
pub(crate) fn run_traced(
    env: &Env,
    spec: &ServeSpec,
    seed: u64,
    spans: &mut Vec<TraceEvent>,
) -> Result<Run, String> {
    let mut run = Run::with_layers();
    let session = run_session(env, spec, seed, &mut run, spans)?;

    let tracer = Tracer::wall(1 << 20);
    let disabled = Tracer::disabled();
    let mut totals = StageTotals::default();
    let (mut untraced_ms, mut serve_ms, mut reply_bytes, mut pieces) = (0.0, 0.0, 0usize, 0u64);
    let mut overheads = Vec::new();
    for (k, req) in session.load.keys.iter().enumerate() {
        let (plain, plain_ms) = timed(|| execute_plan(req, &disabled));
        untraced_ms += plain_ms;
        let (bytes, header) = {
            let bytes = {
                let _op = tracer.span_with("bench_plan", vec![("key", TraceValue::U64(k as u64))]);
                execute_plan(req, &tracer)
            };
            let header = bytes.as_ref().ok().map(|b| {
                let _decode = tracer.span("bench_decode");
                decode_reply(b)
            });
            (bytes, header)
        };
        let events = tracer.take_events();
        let plan_ms: f64 = span_ms(&events, "bench_plan").iter().sum();
        let march_ms: f64 = span_ms(&events, "march").iter().sum();
        let decode_ms: f64 = span_ms(&events, "bench_decode").iter().sum();
        let scenario = match req.target {
            PlanTarget::Scenario(id) => Some(id),
            PlanTarget::Polygon(_) => None,
        };
        totals.add(&events, plan_ms + decode_ms, scenario);
        spans.extend(events);
        let (Ok(bytes), Ok(plain), Some(header)) = (bytes, plain, header) else {
            run.op(Err(format!("key {k}: in-process plan failed")));
            continue;
        };
        serve_ms += plan_ms - march_ms + decode_ms;
        untraced_ms += decode_ms;
        reply_bytes += bytes.len();
        run.sample(format!("plan:k{k}"), plan_ms);
        run.sample(format!("decode:k{k}"), decode_ms);
        let first = session.first_reply(k);
        if let Some((latency, _)) = first {
            overheads.push((latency - plain_ms) / latency);
        }
        if let Ok(h) = &header {
            pieces = pieces.saturating_add(u64::from(h.timeline_rows.saturating_sub(1)));
        }
        run.op(match (header, first) {
            (Err(e), _) => Err(format!("key {k}: decode: {e}")),
            (Ok(h), _) if h.global_connectivity != 1 => Err(format!("key {k}: C = 0")),
            _ if bytes != plain => Err(format!("key {k}: tracing changed the reply")),
            (Ok(_), Some((_, Reply::Plan { fnv, .. }))) if *fnv != fnv1a64(&bytes) => Err(format!(
                "key {k}: the server's reply differs from execute_plan"
            )),
            _ => Ok(()),
        });
    }
    totals.report(&mut run);
    run.set("trace.overhead", totals.op_ms / untraced_ms);
    run.set("serve.share", serve_ms / totals.op_ms);
    run.set("audit.pieces", pieces as f64);
    let s = session.stats;
    let keys = session.load.keys.len() as u64;
    // The closing request is one more hit on key 0.
    let hits = s.hits.saturating_sub(1);
    let planned = hits.saturating_add(s.misses).max(1);
    run.set("serve.hit_ratio", hits as f64 / planned as f64);
    run.set("serve.dup_misses", s.misses.saturating_sub(keys) as f64);
    run.set("serve.miss_overhead", median(&overheads));
    run.set(
        "serve.reply_kib",
        reply_bytes as f64 / keys.max(1) as f64 / 1024.0,
    );
    run.set(
        "serve.errors",
        s.busy
            .saturating_add(s.protocol_errors)
            .saturating_add(s.plan_errors)
            .saturating_add(s.worker_panics) as f64,
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use anr_serve::PlanMethod;

    fn small() -> ServeSpec {
        ServeSpec {
            scenarios: vec![1, 2],
            robots: vec![144],
            methods: vec![PlanMethod::MaxStableLinks],
            separations: vec![10.0],
            polygon_sides: vec![6],
            rotations: 2,
            repeats: 12,
        }
    }

    #[test]
    fn e2e_run_checks_every_request() {
        let env = Env::for_tests();
        let run = run_e2e(&env, &small(), 3, 0.0).unwrap();
        assert_eq!(run.failures, Vec::<String>::new());
        // 16 requests and the session's clean close.
        assert_eq!(run.attempted, 17);
        assert_eq!(run.latencies("first:").len(), 4);
        assert_eq!(run.latencies("repeat:").len(), 12);
        let names: Vec<&str> = run.metrics.keys().copied().collect();
        let mut declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
    }

    #[test]
    fn traced_run_emits_exactly_the_declared_layers() {
        let env = Env::for_tests();
        let mut spans = Vec::new();
        let run = run_traced(&env, &small(), 3, &mut spans).unwrap();
        assert_eq!(run.failures, Vec::<String>::new());
        let names: Vec<&str> = run.metrics.keys().copied().collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert!(run.metrics["serve.share"] > 0.0);
        assert!(run.metrics["serve.hit_ratio"] > 0.5);
        assert!(spans
            .iter()
            .any(|e| e.name == "request" && e.fields.iter().any(|(k, _)| *k == "index")));
    }
}
