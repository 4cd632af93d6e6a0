#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
//! Sink fixture, par crate: the one crate D3 lets spawn threads.

/// Runs `f` on a scoped worker.
pub fn run_scoped(f: impl Fn() + Send + Sync) {
    std::thread::scope(|s| {
        s.spawn(&f);
    });
}
