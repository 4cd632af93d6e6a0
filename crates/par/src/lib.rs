//! # anr-par — minimal fork/join parallelism on `std::thread::scope`
//!
//! The build environment is offline, so instead of `rayon` this crate
//! vendors the two primitives the workspace's hot paths actually need:
//!
//! * [`par_map`] — apply a function to every element of a slice on a
//!   fixed number of worker threads, returning results in **input
//!   order** (bit-identical to the serial map, whatever the worker
//!   count);
//! * [`par_chunks`] — the same, over contiguous chunks, for workloads
//!   whose per-element cost is too small to schedule individually.
//!
//! Scheduling is dynamic (an atomic next-index counter), so uneven
//! per-item costs — fault-sweep cells whose round counts differ by an
//! order of magnitude, say — still balance across workers. Workers
//! collect `(index, result)` pairs privately and the results are
//! scattered back into place after the join, which keeps the output
//! order deterministic without any `unsafe`.
//!
//! Worker panics propagate to the caller when the scope joins, like the
//! serial loop they replace.
//!
//! ## Choosing a worker count
//!
//! [`default_workers`] resolves, in order: the `ANR_WORKERS` environment
//! variable (clamped to [1, 1024]), then
//! [`std::thread::available_parallelism`], then 1. Pass an explicit
//! count to pin behaviour in tests; `0` means "use the default" in every
//! entry point so configs can store "auto" without an `Option`.
//!
//! The ceiling is deliberately far above any sensible compute fan-out:
//! the serve load generator drives hundreds of mostly-blocked client
//! connections, one per thread, through [`par_map`].

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Upper bound on the worker count accepted from the environment or an
/// explicit request. High enough for I/O-bound fan-outs (the serve
/// bench parks hundreds of client threads on blocking sockets), low
/// enough to catch a garbage `ANR_WORKERS` value.
const MAX_WORKERS: usize = 1024;

/// The worker count used when a caller passes `0`: the `ANR_WORKERS`
/// environment variable if set and valid, otherwise
/// [`std::thread::available_parallelism`], otherwise 1.
#[must_use]
pub fn default_workers() -> usize {
    if let Ok(raw) = std::env::var("ANR_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_WORKERS);
            }
        }
    }
    available_cores()
}

/// The machine's logical cores ([`std::thread::available_parallelism`],
/// 1 when unknown). Unlike [`default_workers`] it ignores
/// `ANR_WORKERS`: it says where a measurement ran, not how wide it fanned
/// out.
#[must_use]
pub fn available_cores() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves a requested worker count: `0` means [`default_workers`],
/// and the count never exceeds the number of work items (no point
/// spawning idle threads).
fn resolve_workers(requested: usize, items: usize) -> usize {
    let w = if requested == 0 {
        default_workers()
    } else {
        requested.min(MAX_WORKERS)
    };
    w.max(1).min(items.max(1))
}

/// Maps `f` over `items` on `workers` threads (0 = auto), returning the
/// results in input order — byte-for-byte the serial `items.iter().map(f)`.
///
/// Items are scheduled dynamically, one at a time, so heterogeneous
/// per-item costs balance. With one worker (or one item) no thread is
/// spawned and the map runs inline.
///
/// # Panics
///
/// Re-raises the first worker panic when the scope joins.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = resolve_workers(workers, items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut labelled: Vec<(usize, R)> = Vec::with_capacity(items.len());
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut mine: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    mine.push((i, f(&items[i])));
                }
                mine
            }));
        }
        for h in handles {
            // Re-raise a worker panic with its original payload instead
            // of masking it behind a fresh panic message.
            match h.join() {
                Ok(part) => labelled.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Scatter back into input order.
    labelled.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(labelled.len(), items.len());
    labelled.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over contiguous chunks of `items` (each of length
/// `chunk_len`, the last possibly shorter) on `workers` threads
/// (0 = auto), returning one result per chunk in input order.
///
/// Use this instead of [`par_map`] when individual items are too cheap
/// to schedule — e.g. a nearest-site query per grid sample.
///
/// # Panics
///
/// Panics when `chunk_len == 0`; re-raises worker panics.
pub fn par_chunks<T, R, F>(items: &[T], chunk_len: usize, workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    par_map(&chunks, workers, |c| f(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = par_map(&[] as &[i32], 4, |&x| x * 2);
        assert!(out.is_empty());
    }

    #[test]
    fn order_matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 7, 64] {
            assert_eq!(par_map(&items, workers, |&x| x * x + 1), serial);
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [10, 20];
        assert_eq!(par_map(&items, 16, |&x| x + 1), vec![11, 21]);
    }

    #[test]
    fn zero_workers_means_auto() {
        let items: Vec<i32> = (0..17).collect();
        let serial: Vec<i32> = items.iter().map(|&x| -x).collect();
        assert_eq!(par_map(&items, 0, |&x| -x), serial);
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        let items: Vec<usize> = (0..103).collect();
        for chunk in [1, 7, 50, 103, 200] {
            let sums = par_chunks(&items, chunk, 4, |c| c.iter().sum::<usize>());
            assert_eq!(sums.len(), items.len().div_ceil(chunk));
            assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
            // First chunk is the leading items, deterministically.
            assert_eq!(sums[0], items[..chunk.min(items.len())].iter().sum());
        }
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        let _ = par_chunks(&[1, 2, 3], 0, 2, |c| c.len());
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            let _ = par_map(&[1, 2, 3, 4], 2, |&x| {
                assert!(x < 3, "boom");
                x
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn heterogeneous_costs_still_ordered() {
        // Item i sleeps inversely to its index so completion order is
        // the reverse of input order; output must still be input order.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(&items, 4, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn default_workers_is_at_least_one() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn available_cores_is_the_machines_parallelism() {
        let cores = available_cores();
        assert!(cores >= 1);
        if let Ok(n) = thread::available_parallelism() {
            assert_eq!(cores, usize::from(n));
        }
    }
}
