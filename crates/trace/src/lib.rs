//! # anr-trace — zero-dependency structured tracing and metrics
//!
//! The marching pipeline is a chain of numerical stages (triangulate →
//! harmonic map → rotation search → repair → trajectories → Lloyd) whose
//! behaviour the paper quantifies *per instant* and *per iteration*.
//! This crate is the observability substrate for all of it: spans with
//! parent ids, instant events, counters and histograms, collected into
//! an in-memory ring buffer and (optionally) streamed to a JSONL sink.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Timestamps are *logical*: a monotonic counter
//!    (`seq`) advanced by the tracer itself, one tick per record, so two
//!    runs of the same deterministic pipeline produce byte-identical
//!    traces. Wall-clock durations are opt-in ([`TraceConfig::wall_clock`],
//!    used by the benchmark harness) and ride along as a `dur_ns` field
//!    on span ends without replacing the logical clock.
//! 2. **Observation only.** A tracer never influences the traffic it
//!    watches: every emit path is append-only, and the disabled tracer
//!    ([`Tracer::disabled`]) is a no-op whose presence is pinned (by
//!    tests in `anr-march`) to change no pipeline output byte.
//! 3. **Zero dependencies.** Hand-rolled JSON, `std` only.
//!
//! ## Example
//!
//! ```
//! use anr_trace::{Tracer, TraceValue};
//!
//! let tracer = Tracer::ring(1024);
//! {
//!     let _stage = tracer.span("rotation");
//!     tracer.event("eval", &[("theta", TraceValue::F64(0.5))]);
//!     tracer.counter_add("evals", 1);
//! }
//! let events = tracer.events();
//! // span_start, event, counter, span_end.
//! assert_eq!(events.len(), 4);
//! assert_eq!(tracer.counter("evals"), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

mod wall;
use wall::WallStamp;

/// A field value attached to a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (serialized as `null` when not finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on serialization).
    Str(String),
}

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened (`span` is its id, `parent` the enclosing span).
    SpanStart,
    /// A span closed (same `span` id as its start).
    SpanEnd,
    /// An instant event inside the current span.
    Event,
    /// A counter increment (`fields` carry `delta` and `total`).
    Counter,
    /// A histogram sample (`fields` carry `value`).
    Hist,
}

/// One record of the trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Logical timestamp: the tracer's monotonic counter at emit time.
    pub seq: u64,
    /// Record kind.
    pub kind: TraceKind,
    /// Record name (stage, event, counter or histogram name).
    pub name: &'static str,
    /// Span id this record belongs to (0 = outside any span).
    pub span: u64,
    /// Parent span id (0 = top level). Only meaningful for span records.
    pub parent: u64,
    /// Structured payload.
    pub fields: Vec<(&'static str, TraceValue)>,
}

/// Aggregate summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of all samples.
    pub sum: f64,
}

impl HistSummary {
    /// Mean sample (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Construction options for an enabled tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events; older events are dropped (and
    /// counted) once full. Default 65 536.
    pub capacity: usize,
    /// Also record wall-clock span durations (`dur_ns` on span ends).
    /// Off by default: wall times are nondeterministic, so they are
    /// reserved for the benchmark harness. Default `false`.
    pub wall_clock: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 65_536,
            wall_clock: false,
        }
    }
}

#[derive(Default)]
struct Histogram {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

struct State {
    seq: u64,
    next_span: u64,
    stack: Vec<u64>,
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    sink: Option<Box<dyn Write + Send>>,
    sink_failed: bool,
}

struct Inner {
    wall: Option<WallStamp>,
    state: Mutex<State>,
}

/// A structured tracer handle.
///
/// Cheap to clone (all clones share one stream); safe to share across
/// threads. The disabled tracer ([`Tracer::disabled`], also `Default`)
/// short-circuits every emit path.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    // A panic while holding the lock must not cascade: tracing is
    // observation only.
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Tracer {
    /// A tracer that records nothing; every emit path is a no-op.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer collecting into a ring buffer of `capacity`
    /// events, logical clock only.
    #[must_use]
    pub fn ring(capacity: usize) -> Tracer {
        Tracer::new(TraceConfig {
            capacity,
            ..TraceConfig::default()
        })
    }

    /// An enabled tracer with wall-clock span durations — the benchmark
    /// harness's stage timer.
    #[must_use]
    pub fn wall(capacity: usize) -> Tracer {
        Tracer::new(TraceConfig {
            capacity,
            wall_clock: true,
        })
    }

    /// An enabled tracer with explicit options.
    #[must_use]
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer::build(config, None)
    }

    /// An enabled tracer that additionally streams every record to
    /// `sink` as one JSON object per line (JSONL).
    #[must_use]
    pub fn with_sink(config: TraceConfig, sink: Box<dyn Write + Send>) -> Tracer {
        Tracer::build(config, Some(sink))
    }

    /// Convenience: JSONL sink writing to a freshly created `path`
    /// (buffered), default options.
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn jsonl_file<P: AsRef<std::path::Path>>(path: P) -> io::Result<Tracer> {
        let file = std::fs::File::create(path)?;
        Ok(Tracer::with_sink(
            TraceConfig::default(),
            Box::new(io::BufWriter::new(file)),
        ))
    }

    fn build(config: TraceConfig, sink: Option<Box<dyn Write + Send>>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                wall: config.wall_clock.then(wall::stamp),
                state: Mutex::new(State {
                    seq: 0,
                    next_span: 0,
                    stack: Vec::new(),
                    ring: VecDeque::new(),
                    capacity: config.capacity.max(1),
                    dropped: 0,
                    counters: BTreeMap::new(),
                    hists: BTreeMap::new(),
                    sink,
                    sink_failed: false,
                }),
            })),
        }
    }

    /// Is this tracer recording? Use to skip expensive field
    /// construction; emit calls are already safe either way.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name` nested under the currently open span.
    /// The span closes (emitting a `span_end` record) when the returned
    /// guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, Vec::new())
    }

    /// [`Tracer::span`] with structured fields on the start record.
    #[must_use]
    pub fn span_with(
        &self,
        name: &'static str,
        fields: Vec<(&'static str, TraceValue)>,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: Tracer::disabled(),
                id: 0,
                parent: 0,
                name,
                started: None,
            };
        };
        let started = inner.wall.map(|_| wall::stamp());
        let mut st = lock(&inner.state);
        st.next_span += 1;
        let id = st.next_span;
        let parent = st.stack.last().copied().unwrap_or(0);
        st.stack.push(id);
        emit(&mut st, TraceKind::SpanStart, name, id, parent, fields);
        SpanGuard {
            tracer: self.clone(),
            id,
            parent,
            name,
            started,
        }
    }

    /// Emits an instant event inside the currently open span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, TraceValue)]) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        let span = st.stack.last().copied().unwrap_or(0);
        emit(&mut st, TraceKind::Event, name, span, 0, fields.to_vec());
    }

    /// Adds `delta` to the named monotonic counter and emits a record
    /// carrying both the delta and the new total.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        let total = {
            let t = st.counters.entry(name).or_insert(0);
            *t += delta;
            *t
        };
        let span = st.stack.last().copied().unwrap_or(0);
        emit(
            &mut st,
            TraceKind::Counter,
            name,
            span,
            0,
            vec![
                ("delta", TraceValue::U64(delta)),
                ("total", TraceValue::U64(total)),
            ],
        );
    }

    /// Records one sample into the named histogram and emits a record.
    pub fn hist_record(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        {
            let h = st.hists.entry(name).or_default();
            if h.count == 0 {
                h.min = value;
                h.max = value;
            } else {
                h.min = h.min.min(value);
                h.max = h.max.max(value);
            }
            h.count += 1;
            h.sum += value;
        }
        let span = st.stack.last().copied().unwrap_or(0);
        emit(
            &mut st,
            TraceKind::Hist,
            name,
            span,
            0,
            vec![("value", TraceValue::F64(value))],
        );
    }

    /// Current total of a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        lock(&inner.state).counters.get(name).copied().unwrap_or(0)
    }

    /// Summary of a histogram, if any samples were recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<HistSummary> {
        let inner = self.inner.as_ref()?;
        let st = lock(&inner.state);
        st.hists.get(name).map(|h| HistSummary {
            count: h.count,
            min: h.min,
            max: h.max,
            sum: h.sum,
        })
    }

    /// Snapshot of the ring buffer (oldest first).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        lock(&inner.state).ring.iter().cloned().collect()
    }

    /// Drains the ring buffer, returning the events (oldest first).
    /// Counters and histograms are unaffected.
    #[must_use]
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        lock(&inner.state).ring.drain(..).collect()
    }

    /// Events evicted from the ring buffer because it was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        lock(&inner.state).dropped
    }

    /// Wall-clock durations (milliseconds) of every closed span named
    /// `name` still in the ring buffer, in completion order. Empty
    /// unless the tracer was built with [`TraceConfig::wall_clock`].
    #[must_use]
    pub fn span_durations_ms(&self, name: &str) -> Vec<f64> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        lock(&inner.state)
            .ring
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

    /// Flushes the JSONL sink, surfacing any deferred write error.
    ///
    /// # Errors
    ///
    /// The first sink write/flush failure (writes themselves never
    /// interrupt the traced computation; the error is remembered and
    /// reported here).
    pub fn flush(&self) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut st = lock(&inner.state);
        if st.sink_failed {
            return Err(io::Error::other("trace sink write failed"));
        }
        match &mut st.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    fn end_span(&self, guard: &SpanGuard) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        // Unwind the stack down to (and including) this span: spans are
        // guards, so an early-dropped inner span has already popped.
        while let Some(&top) = st.stack.last() {
            st.stack.pop();
            if top == guard.id {
                break;
            }
        }
        let mut fields = Vec::new();
        if let Some(started) = guard.started {
            fields.push(("dur_ns", TraceValue::U64(started.elapsed_ns())));
        }
        emit(
            &mut st,
            TraceKind::SpanEnd,
            guard.name,
            guard.id,
            guard.parent,
            fields,
        );
    }
}

/// RAII guard for an open span; closing happens on drop.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    started: Option<WallStamp>,
}

impl SpanGuard {
    /// This span's id (0 when the tracer is disabled).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            let tracer = self.tracer.clone();
            tracer.end_span(self);
        }
    }
}

fn emit(
    st: &mut State,
    kind: TraceKind,
    name: &'static str,
    span: u64,
    parent: u64,
    fields: Vec<(&'static str, TraceValue)>,
) {
    st.seq += 1;
    let ev = TraceEvent {
        seq: st.seq,
        kind,
        name,
        span,
        parent,
        fields,
    };
    if !st.sink_failed {
        if let Some(sink) = st.sink.as_mut() {
            let line = jsonl_line(&ev);
            if sink.write_all(line.as_bytes()).is_err() {
                st.sink_failed = true;
            }
        }
    }
    if st.ring.len() == st.capacity {
        st.ring.pop_front();
        st.dropped += 1;
    }
    st.ring.push_back(ev);
}

fn kind_str(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::SpanStart => "span_start",
        TraceKind::SpanEnd => "span_end",
        TraceKind::Event => "event",
        TraceKind::Counter => "counter",
        TraceKind::Hist => "hist",
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_value(out: &mut String, v: &TraceValue) {
    match v {
        TraceValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        TraceValue::I64(x) => {
            let _ = write!(out, "{x}");
        }
        TraceValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        TraceValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        TraceValue::Str(s) => push_json_str(out, s),
    }
}

/// Serializes one event as a single JSONL line (trailing newline
/// included). `span`/`parent` are omitted when 0; `fields` when empty.
#[must_use]
pub fn jsonl_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"seq\":{},\"kind\":\"{}\",",
        ev.seq,
        kind_str(ev.kind)
    );
    s.push_str("\"name\":");
    push_json_str(&mut s, ev.name);
    if ev.span != 0 {
        let _ = write!(s, ",\"span\":{}", ev.span);
    }
    if ev.parent != 0 {
        let _ = write!(s, ",\"parent\":{}", ev.parent);
    }
    if !ev.fields.is_empty() {
        s.push_str(",\"fields\":{");
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, k);
            s.push(':');
            push_json_value(&mut s, v);
        }
        s.push('}');
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let span = t.span("stage");
            assert_eq!(span.id(), 0);
            t.event("e", &[("k", TraceValue::U64(1))]);
            t.counter_add("c", 5);
            t.hist_record("h", 1.0);
        }
        assert!(t.events().is_empty());
        assert_eq!(t.counter("c"), 0);
        assert!(t.hist("h").is_none());
        t.flush().unwrap();
    }

    #[test]
    fn spans_nest_with_parent_ids() {
        let t = Tracer::ring(64);
        {
            let outer = t.span("outer");
            {
                let inner = t.span("inner");
                assert_ne!(inner.id(), outer.id());
            }
            t.event("tail", &[]);
        }
        let evs = t.events();
        let starts: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == TraceKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0].name, "outer");
        assert_eq!(starts[0].parent, 0);
        assert_eq!(starts[1].name, "inner");
        assert_eq!(starts[1].parent, starts[0].span);
        // The tail event belongs to the outer span again.
        let tail = evs.iter().find(|e| e.name == "tail").unwrap();
        assert_eq!(tail.span, starts[0].span);
        // Ends come in inner-first order.
        let ends: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == TraceKind::SpanEnd)
            .collect();
        assert_eq!(ends[0].name, "inner");
        assert_eq!(ends[1].name, "outer");
    }

    #[test]
    fn seq_is_monotonic_and_dense() {
        let t = Tracer::ring(64);
        let _s = t.span("a");
        t.event("b", &[]);
        t.counter_add("c", 1);
        drop(_s);
        let evs = t.events();
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn counters_and_hists_aggregate() {
        let t = Tracer::ring(64);
        t.counter_add("msgs", 3);
        t.counter_add("msgs", 4);
        assert_eq!(t.counter("msgs"), 7);
        t.hist_record("res", 2.0);
        t.hist_record("res", 4.0);
        t.hist_record("res", 0.5);
        let h = t.hist("res").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - 6.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let t = Tracer::ring(3);
        for _ in 0..5 {
            t.event("e", &[]);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 3);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn take_events_drains() {
        let t = Tracer::ring(8);
        t.event("e", &[]);
        assert_eq!(t.take_events().len(), 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn jsonl_lines_are_valid_and_deterministic() {
        let ev = TraceEvent {
            seq: 7,
            kind: TraceKind::Event,
            name: "pcg_iter",
            span: 3,
            parent: 0,
            fields: vec![
                ("iter", TraceValue::U64(12)),
                ("residual", TraceValue::F64(0.5)),
                ("label", TraceValue::Str("a\"b".to_string())),
                ("nan", TraceValue::F64(f64::NAN)),
            ],
        };
        let line = jsonl_line(&ev);
        assert_eq!(
            line,
            "{\"seq\":7,\"kind\":\"event\",\"name\":\"pcg_iter\",\"span\":3,\
             \"fields\":{\"iter\":12,\"residual\":0.5,\"label\":\"a\\\"b\",\"nan\":null}}\n"
        );
    }

    #[test]
    fn sink_receives_jsonl_stream() {
        struct ChanWriter(mpsc::Sender<Vec<u8>>);
        impl Write for ChanWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.send(buf.to_vec()).ok();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        let t = Tracer::with_sink(TraceConfig::default(), Box::new(ChanWriter(tx)));
        {
            let _s = t.span("stage");
        }
        t.flush().unwrap();
        drop(t);
        let bytes: Vec<u8> = rx.try_iter().flatten().collect();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"span_start\""));
        assert!(lines[1].contains("\"kind\":\"span_end\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn wall_clock_records_durations() {
        let t = Tracer::wall(16);
        {
            let _s = t.span("timed");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let durs = t.span_durations_ms("timed");
        assert_eq!(durs.len(), 1);
        assert!(durs[0] >= 0.0);
        // Logical-clock tracers carry no durations.
        let t2 = Tracer::ring(16);
        {
            let _s = t2.span("timed");
        }
        assert!(t2.span_durations_ms("timed").is_empty());
    }

    #[test]
    fn clones_share_the_stream() {
        let t = Tracer::ring(16);
        let t2 = t.clone();
        t.event("a", &[]);
        t2.event("b", &[]);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t2.events().len(), 2);
    }
}
