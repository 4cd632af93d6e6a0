//! The plan server: a nonblocking accept loop plus a bounded worker
//! pool, all of whose threads come from `anr-par` (the workspace's only
//! thread-spawning crate, enforced by lint rule D3).
//!
//! Admission control happens **before** a request is read: a connection
//! either enters the bounded queue or is answered with a `Busy` frame
//! and closed — the queue never grows past its capacity, so a traffic
//! spike degrades into explicit retry signals instead of latency
//! collapse or memory growth.

use crate::cache::{CacheStats, PlanCache};
use crate::plan::execute_plan;
use crate::protocol::{
    decode_request, encode_error, encode_request, fnv1a64, write_frame, WireError, ERR_MALFORMED,
    ERR_OVERSIZED, KIND_PLAN_REQUEST, KIND_RESP_BUSY, KIND_RESP_ERROR, MAX_REQUEST_BYTES,
};
use anr_par::{default_workers, par_map};
use anr_trace::{TraceValue, Tracer};
use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Server configuration. `Default` gives a localhost server on an
/// ephemeral port with an auto-sized worker pool.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on localhost; 0 asks the OS for a free one.
    pub port: u16,
    /// Worker pool size; 0 = [`default_workers`].
    pub workers: usize,
    /// Bounded admission queue: connections waiting for a worker beyond
    /// this are answered `Busy` and closed.
    pub queue_capacity: usize,
    /// Plan-cache budget in response bytes.
    pub cache_bytes: usize,
    /// Stop accepting after this many connections (0 = run until
    /// [`PlanServer::stop`]). Lets tests and the CLI run bounded
    /// sessions.
    pub max_requests: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 0,
            queue_capacity: 1024,
            cache_bytes: 256 << 20,
            max_requests: 0,
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Bind(io::Error),
    /// A worker panicked while holding a pool lock (connection queue or
    /// plan cache). The lock state was recovered — no cascade, the pool
    /// kept serving — but the run is reported failed instead of
    /// pretending nothing happened.
    Poisoned,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "cannot bind plan server: {e}"),
            ServeError::Poisoned => write!(
                f,
                "a worker panicked while holding a plan-server lock; the pool                  recovered but the run is reported failed"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Point-in-time server accounting; every counter is monotone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections the accept loop took off the listener.
    pub accepted: u64,
    /// Requests answered with a complete plan (cold or cached).
    pub served: u64,
    /// Connections refused with a `Busy` frame at admission.
    pub busy: u64,
    /// Requests answered with a typed protocol error (malformed or
    /// oversized frames, wrong frame kind).
    pub protocol_errors: u64,
    /// Requests answered with a typed plan error (unknown scenario, bad
    /// request, march failure, lost connectivity).
    pub plan_errors: u64,
    /// Connections dropped because the socket itself failed mid-request.
    pub io_errors: u64,
    /// Worker jobs that panicked (always 0 unless there is a bug; the
    /// server survives and CI asserts zero).
    pub worker_panics: u64,
    /// Plan-cache accounting.
    pub cache: CacheStats,
}

/// What [`PlanServer::serve`] returns once the server winds down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Final counters.
    pub stats: ServeStats,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// The port the server listened on.
    pub port: u16,
    /// Did a worker panic while holding the queue or cache lock?
    /// [`run_server`] turns this into [`ServeError::Poisoned`].
    pub poisoned: bool,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    served: AtomicU64,
    busy: AtomicU64,
    protocol_errors: AtomicU64,
    plan_errors: AtomicU64,
    io_errors: AtomicU64,
    worker_panics: AtomicU64,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// Bounded handoff between the accept loop and the workers. Plain
/// `Mutex` + `Condvar` — the threads themselves come from `anr-par`.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    poisoned: AtomicBool,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Queue mutations are single pushes/pops, so the state is
    /// consistent even if a holder panicked — recover a poisoned guard,
    /// but record it so the server reports [`ServeError::Poisoned`]
    /// instead of letting the panic cascade through the pool.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.poisoned.store(true, Ordering::Relaxed);
                poisoned.into_inner()
            }
        }
    }

    /// Did any holder of the queue lock panic?
    fn was_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Admits `conn` unless the queue is full; on refusal the caller
    /// gets the connection back to answer `Busy`.
    fn try_push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut st = self.lock();
        if st.closed || st.conns.len() >= self.capacity {
            return Err(conn);
        }
        st.conns.push_back(conn);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once the queue is closed
    /// and drained. The wait sits in a `while` over its predicate, so a
    /// spurious wakeup or a steal by another worker just re-checks.
    fn pop(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        while st.conns.is_empty() && !st.closed {
            st = match self.ready.wait(st) {
                Ok(g) => g,
                Err(poisoned) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    poisoned.into_inner()
                }
            };
        }
        st.conns.pop_front()
    }

    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }
}

/// One thread's role inside [`PlanServer::serve`]'s `par_map` fan-out.
#[derive(Debug, Clone, Copy)]
enum Role {
    Accept,
    Worker,
}

/// A bound plan server. [`PlanServer::bind`] reserves the port;
/// [`PlanServer::serve`] runs the accept loop and worker pool until
/// [`PlanServer::stop`] is called (from a request handler's tracer
/// thread, a bench driver, or a signal wrapper) or `max_requests`
/// connections have been accepted.
pub struct PlanServer {
    listener: TcpListener,
    config: ServeConfig,
    cache: PlanCache,
    counters: Counters,
    stop_flag: AtomicBool,
    port: u16,
}

impl PlanServer {
    /// Binds the listener on localhost and prepares the cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the port cannot be bound.
    pub fn bind(config: &ServeConfig) -> Result<PlanServer, ServeError> {
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, config.port));
        let listener = TcpListener::bind(addr).map_err(ServeError::Bind)?;
        listener.set_nonblocking(true).map_err(ServeError::Bind)?;
        let port = listener.local_addr().map_err(ServeError::Bind)?.port();
        Ok(PlanServer {
            listener,
            config: config.clone(),
            cache: PlanCache::new(config.cache_bytes),
            counters: Counters::default(),
            stop_flag: AtomicBool::new(false),
            port,
        })
    }

    /// The bound port (useful with `port: 0`).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Asks the accept loop to wind down; safe from any thread.
    pub fn stop(&self) {
        self.stop_flag.store(true, Ordering::Relaxed);
    }

    /// Current counters (readable while serving).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            served: self.counters.served.load(Ordering::Relaxed),
            busy: self.counters.busy.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            plan_errors: self.counters.plan_errors.load(Ordering::Relaxed),
            io_errors: self.counters.io_errors.load(Ordering::Relaxed),
            worker_panics: self.counters.worker_panics.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Runs the server: one accept role plus `workers` worker roles,
    /// all on an `anr-par` scoped fan-out. Returns when the accept loop
    /// winds down (stop flag or `max_requests`) and the queue drains.
    pub fn serve(&self, tracer: &Tracer) -> ServeReport {
        let workers = if self.config.workers == 0 {
            default_workers()
        } else {
            self.config.workers
        }
        .max(1);
        let queue = ConnQueue::new(self.config.queue_capacity);

        let mut roles = vec![Role::Accept];
        roles.extend(std::iter::repeat_n(Role::Worker, workers));
        // One thread per role: the accept loop runs beside the workers.
        let _ = par_map(&roles, roles.len(), |role| match role {
            Role::Accept => {
                self.accept_loop(&queue);
                queue.close();
            }
            Role::Worker => self.worker_loop(&queue, tracer),
        });

        ServeReport {
            stats: self.stats(),
            workers,
            port: self.port,
            poisoned: queue.was_poisoned() || self.cache.was_poisoned(),
        }
    }

    fn accept_loop(&self, queue: &ConnQueue) {
        let mut accepted = 0u64;
        loop {
            if self.stop_flag.load(Ordering::Relaxed) {
                return;
            }
            if self.config.max_requests > 0 && accepted >= self.config.max_requests {
                return;
            }
            match self.listener.accept() {
                Ok((conn, _peer)) => {
                    accepted += 1;
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    // The listener is nonblocking; request handling
                    // wants plain blocking reads with timeouts.
                    let sane = conn.set_nonblocking(false).is_ok()
                        && conn.set_read_timeout(Some(Duration::from_secs(30))).is_ok()
                        && conn
                            .set_write_timeout(Some(Duration::from_secs(30)))
                            .is_ok();
                    if !sane {
                        self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if let Err(mut refused) = queue.try_push(conn) {
                        self.counters.busy.fetch_add(1, Ordering::Relaxed);
                        // Best-effort: the peer may already be gone.
                        let _ = write_frame(&mut refused, KIND_RESP_BUSY, &[]);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(_) => {
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn worker_loop(&self, queue: &ConnQueue, tracer: &Tracer) {
        while let Some(conn) = queue.pop() {
            // A panic in one request must never take the pool down: it
            // is counted (CI asserts the counter stays 0), the
            // connection drops, and the worker moves on.
            let outcome = catch_unwind(AssertUnwindSafe(|| self.handle(conn, tracer)));
            if outcome.is_err() {
                self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn handle(&self, mut conn: TcpStream, tracer: &Tracer) {
        let frame = crate::protocol::read_frame(&mut conn, MAX_REQUEST_BYTES);
        let payload = match frame {
            Ok((KIND_PLAN_REQUEST, payload)) => payload,
            Ok((kind, _)) => {
                self.reply_error(
                    &mut conn,
                    ERR_MALFORMED,
                    &format!("unexpected frame kind {kind:#04x}"),
                );
                return;
            }
            Err(WireError::Oversized { len, max }) => {
                self.reply_error(
                    &mut conn,
                    ERR_OVERSIZED,
                    &format!("request frame of {len} bytes exceeds the {max}-byte bound"),
                );
                return;
            }
            Err(WireError::Malformed(what)) => {
                self.reply_error(&mut conn, ERR_MALFORMED, what);
                return;
            }
            Err(WireError::Io(_)) => {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                self.reply_error(&mut conn, ERR_MALFORMED, &e.to_string());
                return;
            }
        };

        // Canonical re-encoding is the cache key: decode(encode(x)) is
        // the identity on valid requests, so this equals the wire
        // payload — hashing the re-encoding keeps the address sound
        // even if a future decoder accepts non-canonical aliases.
        let key = encode_request(&req);
        let hash = fnv1a64(&key);
        let cached = self.cache.get(hash, &key);
        let _span = tracer.span_with(
            "serve_request",
            vec![
                ("hash", TraceValue::U64(hash)),
                ("robots", TraceValue::U64(u64::from(req.robots))),
                ("cache_hit", TraceValue::Bool(cached.is_some())),
            ],
        );
        let response = match cached {
            Some(bytes) => bytes,
            None => match execute_plan(&req, tracer) {
                Ok(bytes) => {
                    let bytes = std::sync::Arc::new(bytes);
                    self.cache.put(hash, key, std::sync::Arc::clone(&bytes));
                    bytes
                }
                Err(plan_err) => {
                    self.counters.plan_errors.fetch_add(1, Ordering::Relaxed);
                    tracer.event(
                        "serve_plan_error",
                        &[("code", TraceValue::U64(u64::from(plan_err.code())))],
                    );
                    let payload = encode_error(plan_err.code(), &plan_err.message());
                    if write_frame(&mut conn, KIND_RESP_ERROR, &payload).is_err() {
                        self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
            },
        };
        use std::io::Write;
        if conn
            .write_all(&response)
            .and_then(|()| conn.flush())
            .is_ok()
        {
            self.counters.served.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn reply_error(&self, conn: &mut TcpStream, code: u8, msg: &str) {
        self.counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        let payload = encode_error(code, msg);
        let _ = write_frame(conn, KIND_RESP_ERROR, &payload);
    }
}

/// Binds and serves in one call — the lint-visible entry point of the
/// serve subsystem (`ENTRY_POINTS`): everything reachable from here is
/// panic-checked (S1) and determinism-checked (S2) by `anr-lint`.
///
/// `on_bound` runs with the bound port after the listener is up but
/// before serving starts — the CLI prints it there, and tests use it to
/// learn an OS-assigned port.
///
/// # Errors
///
/// [`ServeError::Bind`] when the listener cannot be bound;
/// [`ServeError::Poisoned`] when a worker panicked while holding a pool
/// lock (the pool recovered, but the run must not pass silently).
pub fn run_server(
    config: &ServeConfig,
    tracer: &Tracer,
    on_bound: impl FnOnce(u16),
) -> Result<ServeReport, ServeError> {
    let server = PlanServer::bind(config)?;
    on_bound(server.port());
    let report = server.serve(tracer);
    if report.poisoned {
        return Err(ServeError::Poisoned);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{request_plan, PlanReply};
    use crate::protocol::PlanRequest;
    use std::sync::atomic::AtomicU16;

    enum Outcome {
        Server(Box<Result<ServeReport, ServeError>>),
        Client(Box<PlanReply>),
    }

    #[test]
    fn run_server_serves_one_request_and_returns() {
        let config = ServeConfig {
            workers: 1,
            max_requests: 1,
            ..ServeConfig::default()
        };
        let tracer = Tracer::disabled();
        // `on_bound` publishes the OS-assigned port; the client role
        // spins on it (0 is never a bound port). Both roles run on one
        // anr-par fan-out — D3 binds tests too.
        let port_cell = AtomicU16::new(0);
        let roles = [true, false]; // true = server, false = client
        let mut outs = par_map(&roles, roles.len(), |&serving| {
            if serving {
                Outcome::Server(Box::new(run_server(&config, &tracer, |port| {
                    port_cell.store(port, Ordering::SeqCst);
                })))
            } else {
                let port = loop {
                    match port_cell.load(Ordering::SeqCst) {
                        0 => std::thread::sleep(Duration::from_millis(1)),
                        p => break p,
                    }
                };
                let req = PlanRequest {
                    time_samples: 6,
                    refine_coverage: false,
                    ..PlanRequest::scenario(1)
                };
                Outcome::Client(Box::new(request_plan(port, &req).expect("request")))
            }
        });
        let Some(Outcome::Client(reply)) = outs.pop() else {
            panic!("client outcome missing");
        };
        let Some(Outcome::Server(result)) = outs.pop() else {
            panic!("server outcome missing");
        };
        assert!(matches!(*reply, PlanReply::Plan(_)));
        let report = result.expect("serve");
        assert_eq!(report.stats.accepted, 1);
        assert_eq!(report.stats.served, 1);
    }
}
