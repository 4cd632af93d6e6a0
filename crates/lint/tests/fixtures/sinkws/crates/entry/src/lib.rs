#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
//! Sink fixture, entry crate: one guarded entry point per sink pattern,
//! each reaching its site through calls across crates.

use std::time::Instant;

/// S1: reaches `.unwrap()` through `mid`.
pub fn march(xs: &[u32]) -> u32 {
    mid::plan(xs)
}

/// S2: reaches `HashMap` through `mid`.
pub fn audit_piecewise(xs: &[u32]) -> usize {
    mid::count(xs)
}

/// S2: reaches `SystemTime` through `mid`.
pub fn run_lloyd_guarded() -> u64 {
    mid::clock()
}

/// S2: reaches `Instant::now()` in `leaf`.
pub fn run_fault_sweep() -> Instant {
    leaf::tick()
}

/// S2: reaches `.elapsed()` through `mid`.
pub fn run_pipeline_bench(start: Instant) -> u128 {
    mid::measure(start)
}

/// S2: reaches `thread_rng` in `leaf`.
pub fn run_distsim_bench() -> u32 {
    leaf::roll()
}

/// S2: reaches `rand::random` through `mid`.
pub fn run_serve_bench() -> u64 {
    mid::lottery()
}

/// No S-rule: reaches only `net`.
///
/// # Errors
///
/// Propagates connection errors.
pub fn run_server() -> std::io::Result<()> {
    mid::fetch()
}

/// No S2: the wall module is the sanctioned clock.
pub fn lint_workspace() -> u64 {
    trace::wall::now_ms()
}
