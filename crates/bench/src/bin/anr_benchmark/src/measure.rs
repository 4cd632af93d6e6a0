//! Bench-side measurement: wall spans, order statistics, peak memory,
//! and child processes timed while a second thread samples their memory.
//!
//! Every duration comes from an `anr-trace` wall span opened here, in
//! the benchmark, around a call into the program: lint rule D2 keeps
//! every other clock out of the workspace.

use anr_trace::{TraceEvent, TraceKind, TraceValue, Tracer};
use std::io;
use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// How often the sampler thread reads a child's `VmHWM`.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Tail percentiles considered for a summary, highest first.
const TAILS: [f64; 5] = [0.99, 0.98, 0.95, 0.9, 0.75];

/// Runs `f` under a bench-side wall span and returns its result with the
/// span's duration in milliseconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let tracer = Tracer::wall(2);
    let out = {
        let _span = tracer.span("timed");
        f()
    };
    let ms = tracer
        .span_durations_ms("timed")
        .first()
        .copied()
        .unwrap_or(f64::NAN);
    (out, ms)
}

/// Runs `pass` once, then again while one more pass as long as the last
/// still fits into `seconds` in all.
pub(crate) fn repeat_passes(
    seconds: f64,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut spent_ms = 0.0;
    loop {
        let (done, ms) = timed(&mut pass);
        done?;
        spent_ms += ms;
        if spent_ms + ms > seconds * 1000.0 {
            return Ok(());
        }
    }
}

/// Wall durations (ms) of every closed span named `name` in `events`.
pub(crate) fn span_ms(events: &[TraceEvent], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.kind == TraceKind::SpanEnd && e.name == name)
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k, v) {
                (&"dur_ns", TraceValue::U64(ns)) => Some(*ns as f64 / 1e6),
                _ => None,
            })
        })
        .collect()
}

/// Number of instant events named `name` in `events`.
pub(crate) fn event_count(events: &[TraceEvent], name: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.kind == TraceKind::Event && e.name == name)
        .count() as u64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for an even count; NaN
/// when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile of `values`, or `None` when fewer than
/// ten samples lie beyond it: a tail the sample cannot support.
pub(crate) fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < 10 {
        return None;
    }
    Some(sorted(values)[rank])
}

/// The highest of the [`TAILS`] that `values` supports, with its value.
pub(crate) fn highest_tail(values: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| tail_percentile(values, p).map(|v| (p, v)))
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one)
/// in KiB, or `None` once the process has exited.
pub(crate) fn peak_rss_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One finished child process.
pub(crate) struct ChildRun {
    /// Spawn to exit, milliseconds.
    pub(crate) ms: f64,
    /// Exit status and captured output.
    pub(crate) output: Output,
    /// Largest `VmHWM` the sampler saw, KiB (0 if it exited too fast to
    /// be sampled).
    pub(crate) peak_kib: u64,
}

#[derive(Clone, Copy)]
enum Role {
    Wait,
    Sample,
}

/// Runs `program args` to completion with stdout and stderr captured.
///
/// One thread spawns the child and blocks in `wait` inside a wall span;
/// a second reads the child's `VmHWM` every [`SAMPLE_EVERY`] until the
/// first returns, so sampling never delays the timing.
pub(crate) fn run_child(program: &Path, args: &[String]) -> io::Result<ChildRun> {
    let pid = AtomicU32::new(0);
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let roles = [Role::Wait, Role::Sample];
    let outs = anr_par::par_map(&roles, roles.len(), |role| match role {
        Role::Wait => {
            let (output, ms) = timed(|| {
                let child = Command::new(program)
                    .args(args)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()?;
                pid.store(child.id(), Ordering::SeqCst);
                child.wait_with_output()
            });
            done.store(true, Ordering::SeqCst);
            Some((output, ms))
        }
        Role::Sample => {
            while !done.load(Ordering::SeqCst) {
                let p = pid.load(Ordering::SeqCst);
                if p != 0 {
                    if let Some(kib) = peak_rss_kib(&p.to_string()) {
                        peak.fetch_max(kib, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            None
        }
    });
    let (output, ms) = outs
        .into_iter()
        .flatten()
        .next()
        .ok_or_else(|| io::Error::other("child runner lost its result"))?;
    Ok(ChildRun {
        ms,
        output: output?,
        peak_kib: peak.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // p95 of 100 samples leaves only 5 beyond it.
        assert_eq!(tail_percentile(&v, 0.95), None);
        assert_eq!(highest_tail(&v), Some((0.9, 90.0)));
        assert_eq!(tail_percentile(&v[..10], 0.5), None);
        assert_eq!(highest_tail(&v[..10]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn timed_spans_are_positive() {
        let (x, ms) = timed(|| (0..1000u64).sum::<u64>());
        assert_eq!(x, 499_500);
        assert!(ms >= 0.0 && ms.is_finite());
    }

    #[test]
    fn reads_own_peak_memory() {
        assert!(peak_rss_kib("self").is_some_and(|kib| kib > 0));
    }
}
