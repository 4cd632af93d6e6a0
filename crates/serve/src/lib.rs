//! # anr-serve — marching-as-a-service
//!
//! A long-running batch plan server over a length-prefixed framed TCP
//! protocol on localhost (ROADMAP item 2). A request names a target —
//! a bundled scenario id or a custom FoI polygon — plus the swarm size,
//! a seed, and `MarchConfig` overrides; the reply streams the planned
//! trajectories in bounded chunks after a metrics header.
//!
//! Production concerns are first-class:
//!
//! * **Content-addressed plan cache** — requests are encoded
//!   canonically and FNV-hashed ([`request_hash`]); the pipeline is
//!   deterministic (enforced by `anr-lint` S2), so a hit can replay the
//!   cached bytes and be *byte-identical* to a fresh march (pinned by
//!   the cache-soundness tests).
//! * **Bounded worker pool with admission control** — all threads come
//!   from `anr-par`; a connection beyond the queue capacity is answered
//!   with an explicit `Busy` frame, never queued unboundedly.
//! * **Typed errors end-to-end** — malformed frames, oversized
//!   requests, unknown scenarios and march failures are all wire-level
//!   error frames; none of them takes the server down (a worker panic
//!   is caught, counted, and asserted zero in CI).
//! * **Per-request tracing** — every request runs inside an
//!   `anr-trace` span carrying the request hash and cache-hit flag,
//!   riding the existing JSONL sink.
//!
//! The load generator lives in `anr-bench` (`anr bench --serve`) and
//! records `BENCH_serve.json`; `anr serve` runs the server standalone.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod cache;
mod client;
mod plan;
mod protocol;
mod server;

pub use cache::{CacheStats, PlanCache};
pub use client::{request_plan, ClientError, PlanReply, PlanResponse};
pub use plan::{execute_plan, PlanError, SERVE_RANGE};
pub use protocol::{
    decode_chunk, decode_error, decode_header, decode_request, encode_error, encode_header,
    encode_request, fnv1a64, frame_into, read_frame, request_hash, write_frame, PlanMethod,
    PlanRequest, PlanTarget, ResponseHeader, WireError, CHUNK_POINTS, ERR_BAD_REQUEST,
    ERR_CONNECTIVITY_LOST, ERR_INTERNAL, ERR_MALFORMED, ERR_OVERSIZED, ERR_UNKNOWN_SCENARIO,
    KIND_PLAN_REQUEST, KIND_RESP_BUSY, KIND_RESP_CHUNK, KIND_RESP_END, KIND_RESP_ERROR,
    KIND_RESP_HEADER, MAX_POLYGON_VERTICES, MAX_REPLY_POINTS, MAX_REQUEST_BYTES,
    MAX_RESPONSE_FRAME, MAX_ROBOTS, MAX_TIMELINE_POINTS, MAX_TIME_SAMPLES, PROTOCOL_VERSION,
};
pub use server::{run_server, PlanServer, ServeConfig, ServeError, ServeReport, ServeStats};
