#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
//! Sink fixture, stray crate: reaches `fs` and `thread` with no
//! `[[crate]]` entry in the manifest, and spawns a thread itself (D3).

/// Loads a file and sizes a pool from the core count.
pub fn boot(path: &str) -> usize {
    let n = leaf::load(path).map_or(0, |s| s.len());
    n + leaf::cores()
}

/// Spawns outside `par`.
pub fn detach() {
    std::thread::Builder::new().spawn(|| {}).ok();
    par::run_scoped(|| {});
}
