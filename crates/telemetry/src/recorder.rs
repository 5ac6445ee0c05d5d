//! The [`Recorder`] sink trait and the [`Telemetry`] handle plumbed
//! through the simulation builders.

use crate::event::Event;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A sink for telemetry [`Event`]s.
///
/// Implementations must be thread-safe: one recorder is shared (via the
/// clone-cheap [`Telemetry`] handle) across every `try_fan_out` worker of a
/// batched run, exactly like the `Arc`-pooled `Budget`.
pub trait Recorder: Send + Sync {
    /// Consumes one event. Must not panic; sinks with fallible
    /// back-ends (files, sockets) latch the first error and surface it
    /// at close instead.
    fn record(&self, event: &Event);
}

/// A recorder that discards every event.
///
/// This is the semantic default. In practice a default [`Telemetry`]
/// handle does not even dispatch to it: the handle is enum-dispatched,
/// and its off state skips event construction entirely — the
/// [`NoopRecorder`] type exists for explicitly exercising the full
/// dispatch path (e.g. the dispatch-overhead row `probe_observe` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: &Event) {}
}

/// Fans one event stream out to several recorders, in order.
pub struct Tee {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl Tee {
    /// Builds a tee over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Tee {
        Tee { sinks }
    }
}

impl Recorder for Tee {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

impl fmt::Debug for Tee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tee({} sinks)", self.sinks.len())
    }
}

/// How much an on [`Telemetry`] handle records.
///
/// Levels are ordered: each level includes everything below it.
/// [`DetailLevel::Iterations`] additionally emits per-iteration solver
/// diagnostics ([`Event::NewtonResidual`]) and the fine-grained MAC
/// span layer, which can multiply trace size by an order of magnitude —
/// reach for it when diagnosing a convergence pathology, not by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetailLevel {
    /// Record nothing. [`Telemetry::with_detail`] normalizes a handle
    /// at this level to the off handle, so the hot-path cost is the
    /// same single discriminant check.
    Off,
    /// Summary reports: solve/step/batch events and coarse spans (the
    /// default for an on handle).
    #[default]
    Reports,
    /// Everything, including per-iteration Newton residual norms,
    /// damping factors, and per-row MAC spans.
    Iterations,
}

impl DetailLevel {
    /// Parses the CLI spelling used by `--trace-detail`
    /// (`off`/`reports`/`iterations`, case-insensitive).
    pub fn parse(text: &str) -> Option<DetailLevel> {
        match text.to_ascii_lowercase().as_str() {
            "off" => Some(DetailLevel::Off),
            "reports" => Some(DetailLevel::Reports),
            "iterations" => Some(DetailLevel::Iterations),
            _ => None,
        }
    }
}

/// A span id handed out by [`Telemetry::span`] (see [`Span::id`]).
///
/// Ids are process-unique and never 0 (0 is the wire encoding of "no
/// parent"). Pass one to [`Telemetry::span_under`] to parent work done
/// on another thread — e.g. `try_fan_out` workers — under the issuing span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id as written to [`Event::SpanBegin`].
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Allocator for process-unique span ids; 0 is reserved for "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocator for small sequential thread ids (first-use order).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// The process trace epoch: every [`Event::SpanBegin`] timestamp is
/// microseconds since the first span of the process.
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The innermost open span on this thread (0 = none): read as the
    /// implicit parent by [`Telemetry::span`], restored on span drop.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// This thread's sequential id (0 = not yet assigned).
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

fn current_thread_tid() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

fn epoch_micros() -> f64 {
    TRACE_EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_secs_f64()
        * 1e6
}

/// The clone-cheap telemetry handle threaded through `DcAnalysis`,
/// `TransientAnalysis`, `MonteCarlo`, `CimArray`, and friends (the same
/// builder pattern as `Budget`).
///
/// The default handle is **off**: instrumentation sites behind it cost
/// one enum-discriminant check and never construct their event. An on
/// handle shares one [`Recorder`] across all clones and records at a
/// [`DetailLevel`] (default [`DetailLevel::Reports`]).
#[derive(Clone, Default)]
pub struct Telemetry {
    handle: Option<Arc<dyn Recorder>>,
    detail: DetailLevel,
}

impl Telemetry {
    /// The disabled handle (the default): events are skipped before
    /// they are constructed.
    pub fn off() -> Telemetry {
        Telemetry {
            handle: None,
            detail: DetailLevel::Off,
        }
    }

    /// A handle recording into an existing shared recorder at
    /// [`DetailLevel::Reports`].
    pub fn new(recorder: Arc<dyn Recorder>) -> Telemetry {
        Telemetry {
            handle: Some(recorder),
            detail: DetailLevel::Reports,
        }
    }

    /// Convenience: wraps a recorder value in an `Arc` and enables it.
    pub fn to(recorder: impl Recorder + 'static) -> Telemetry {
        Telemetry::new(Arc::new(recorder))
    }

    /// Sets the detail level. [`DetailLevel::Off`] drops the recorder
    /// entirely, so an off-by-detail handle is indistinguishable from
    /// (and as cheap as) [`Telemetry::off`].
    #[must_use]
    pub fn with_detail(mut self, detail: DetailLevel) -> Telemetry {
        if detail == DetailLevel::Off {
            self.handle = None;
        }
        self.detail = detail;
        self
    }

    /// The effective detail level ([`DetailLevel::Off`] when no
    /// recorder is attached).
    pub fn detail(&self) -> DetailLevel {
        if self.handle.is_some() {
            self.detail
        } else {
            DetailLevel::Off
        }
    }

    /// Whether events are being recorded. Hot loops hoist this check
    /// (like `Budget::is_limited`) so the off path stays branch-cheap.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.handle.is_some()
    }

    /// Whether per-iteration solver diagnostics should be emitted
    /// ([`DetailLevel::Iterations`] with a recorder attached). Hoist
    /// this next to [`Telemetry::is_on`] in solver loops.
    #[inline]
    pub fn wants_iterations(&self) -> bool {
        self.handle.is_some() && self.detail == DetailLevel::Iterations
    }

    /// Records the event produced by `make`, constructing it only when
    /// the handle is on.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(recorder) = &self.handle {
            recorder.record(&make());
        }
    }

    /// Records an already-constructed event (for callers that built it
    /// anyway, e.g. to also print it).
    #[inline]
    pub fn record(&self, event: &Event) {
        if let Some(recorder) = &self.handle {
            recorder.record(event);
        }
    }

    /// Opens a scoped wall-clock timer: emits [`Event::SpanBegin`] now
    /// and [`Event::SpanEnd`] when dropped. The span's parent is the
    /// innermost span currently open on this thread, so lexically
    /// nested spans form a tree without any plumbing. When the handle
    /// is off no id is allocated and the clock is never read.
    #[must_use = "the span measures until it is dropped"]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.is_on() {
            return Span::disabled(self);
        }
        let parent = CURRENT_SPAN.with(Cell::get);
        self.open_span(name, parent, parent)
    }

    /// Like [`Telemetry::span`], but with an explicit parent instead of
    /// the thread-local one — the bridge for handing causality across
    /// threads (a `try_fan_out` worker parents its spans under the batch
    /// span via [`Span::id`]). `None` makes a root span.
    #[must_use = "the span measures until it is dropped"]
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> Span<'_> {
        if !self.is_on() {
            return Span::disabled(self);
        }
        let prev = CURRENT_SPAN.with(Cell::get);
        self.open_span(name, parent.map_or(0, SpanId::as_u64), prev)
    }

    /// Allocates an id, emits the begin event, and installs the span as
    /// the thread's innermost. `prev` is what the thread-local slot is
    /// restored to on drop (== `parent` for same-thread nesting).
    fn open_span(&self, name: &'static str, parent: u64, prev: u64) -> Span<'_> {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let ts = epoch_micros();
        self.record(&Event::SpanBegin {
            id,
            parent,
            tid: current_thread_tid(),
            name: name.to_string(),
            ts,
        });
        CURRENT_SPAN.with(|cell| cell.set(id));
        Span {
            telemetry: self,
            id,
            prev,
            start: Some(Instant::now()),
        }
    }
}

/// A [`Telemetry`] handle is itself a recorder (a no-op while off), so
/// one handle can sit inside a [`Tee`] next to plain sinks — e.g. an
/// aggregator plus an optional trace file.
impl Recorder for Telemetry {
    fn record(&self, event: &Event) {
        Telemetry::record(self, event);
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.handle {
            None => write!(f, "Telemetry(off)"),
            Some(_) => write!(f, "Telemetry(on, {:?})", self.detail),
        }
    }
}

/// A span-style scoped timer borrowed from [`Telemetry::span`].
///
/// [`Event::SpanBegin`] is emitted when the span opens; dropping it (or
/// [`Span::finish`], an explicit drop point) emits [`Event::SpanEnd`]
/// with the elapsed wall-clock time and restores the thread's previous
/// innermost span. Spans are scope-shaped: on any one thread they close
/// in LIFO order, which is what the thread-local restore relies on.
#[derive(Debug)]
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    id: u64,
    /// Thread-local `CURRENT_SPAN` value to restore on drop.
    prev: u64,
    start: Option<Instant>,
}

impl Span<'_> {
    fn disabled(telemetry: &Telemetry) -> Span<'_> {
        Span {
            telemetry,
            id: 0,
            prev: 0,
            start: None,
        }
    }

    /// The span's id, for parenting cross-thread work under it via
    /// [`Telemetry::span_under`]. `None` when telemetry is off.
    pub fn id(&self) -> Option<SpanId> {
        self.start.is_some().then_some(SpanId(self.id))
    }

    /// Ends the span now, emitting its event.
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let micros = start.elapsed().as_secs_f64() * 1e6;
            CURRENT_SPAN.with(|cell| cell.set(self.prev));
            self.telemetry.record(&Event::SpanEnd {
                id: self.id,
                micros,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Capture(Mutex<Vec<Event>>);

    impl Recorder for Capture {
        fn record(&self, event: &Event) {
            if let Ok(mut events) = self.0.lock() {
                events.push(event.clone());
            }
        }
    }

    #[test]
    fn off_handle_never_constructs_events() {
        let tele = Telemetry::off();
        assert!(!tele.is_on());
        assert!(!tele.wants_iterations());
        assert_eq!(tele.detail(), DetailLevel::Off);
        tele.emit(|| unreachable!("must not run"));
        // Spans from an off handle never allocate an id, read the
        // clock, or emit.
        let span = tele.span("noop");
        assert_eq!(span.id(), None);
        span.finish();
    }

    #[test]
    fn detail_off_drops_the_recorder() {
        let capture = Arc::new(Capture::default());
        let tele = Telemetry::new(capture.clone()).with_detail(DetailLevel::Off);
        assert!(!tele.is_on());
        tele.emit(|| unreachable!("must not run"));
        assert!(capture.0.lock().expect("no poison").is_empty());
    }

    #[test]
    fn detail_iterations_is_reported() {
        let tele = Telemetry::to(NoopRecorder).with_detail(DetailLevel::Iterations);
        assert!(tele.is_on());
        assert!(tele.wants_iterations());
        assert_eq!(tele.detail(), DetailLevel::Iterations);
        // Default on-handle level is Reports: no iteration detail.
        assert!(!Telemetry::to(NoopRecorder).wants_iterations());
    }

    #[test]
    fn detail_level_parses_cli_spellings() {
        assert_eq!(DetailLevel::parse("off"), Some(DetailLevel::Off));
        assert_eq!(DetailLevel::parse("Reports"), Some(DetailLevel::Reports));
        assert_eq!(
            DetailLevel::parse("ITERATIONS"),
            Some(DetailLevel::Iterations)
        );
        assert_eq!(DetailLevel::parse("verbose"), None);
        assert!(DetailLevel::Off < DetailLevel::Reports);
        assert!(DetailLevel::Reports < DetailLevel::Iterations);
    }

    #[test]
    fn on_handle_records_in_order() {
        let capture = Arc::new(Capture::default());
        let tele = Telemetry::new(capture.clone());
        assert!(tele.is_on());
        tele.emit(|| Event::McRunStarted { run: 0 });
        tele.emit(|| Event::McRunDone { run: 0, ok: true });
        tele.span("work").finish();
        let events = capture.0.lock().expect("no poison");
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], Event::McRunStarted { run: 0 });
        assert_eq!(events[1], Event::McRunDone { run: 0, ok: true });
        let begin_id = match &events[2] {
            Event::SpanBegin {
                id, name, tid, ts, ..
            } => {
                assert_eq!(name, "work");
                assert!(*tid >= 1);
                assert!(*ts >= 0.0);
                *id
            }
            other => panic!("expected SpanBegin, got {other:?}"),
        };
        assert!(
            matches!(&events[3], Event::SpanEnd { id, micros } if *id == begin_id && *micros >= 0.0)
        );
    }

    #[test]
    fn nested_spans_parent_through_the_thread_local() {
        let capture = Arc::new(Capture::default());
        let tele = Telemetry::new(capture.clone());
        let outer = tele.span("outer");
        let outer_id = outer.id().expect("on handle allocates ids").as_u64();
        {
            let inner = tele.span("inner");
            let _ = inner.id();
        }
        // After the nested span closed, a new span parents under
        // `outer` again (the thread-local was restored).
        tele.span("sibling").finish();
        drop(outer);
        let events = capture.0.lock().expect("no poison");
        let begins: Vec<(u64, u64, String)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanBegin {
                    id, parent, name, ..
                } => Some((*id, *parent, name.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(begins.len(), 3);
        assert_eq!(begins[0], (outer_id, 0, "outer".to_string()));
        assert_eq!(begins[1].1, outer_id, "inner parents under outer");
        assert_eq!(begins[2].1, outer_id, "sibling parents under outer");
        assert_ne!(begins[1].0, begins[2].0, "ids are unique");
    }

    #[test]
    fn span_under_bridges_threads_and_restores_local_state() {
        let capture = Arc::new(Capture::default());
        let tele = Telemetry::new(capture.clone());
        let batch = tele.span("batch");
        let batch_id = batch.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let worker = tele.span_under("worker", batch_id);
                // The explicit parent also becomes the implicit parent
                // of nested spans on this thread.
                tele.span("inner").finish();
                drop(worker);
                // The worker thread's current span is back to "none".
                tele.span("root_again").finish();
            });
        });
        drop(batch);
        let events = capture.0.lock().expect("no poison");
        let find = |wanted: &str| {
            events.iter().find_map(|e| match e {
                Event::SpanBegin {
                    id, parent, name, ..
                } if name == wanted => Some((*id, *parent)),
                _ => None,
            })
        };
        let (worker_id, worker_parent) = find("worker").expect("worker span");
        assert_eq!(worker_parent, batch_id.expect("on").as_u64());
        let (_, inner_parent) = find("inner").expect("inner span");
        assert_eq!(inner_parent, worker_id);
        let (_, root_parent) = find("root_again").expect("root_again span");
        assert_eq!(root_parent, 0, "thread-local restored after worker span");
    }

    #[test]
    fn tee_duplicates_events() {
        let a = Arc::new(Capture::default());
        let b = Arc::new(Capture::default());
        let tele = Telemetry::to(Tee::new(vec![a.clone(), b.clone()]));
        tele.emit(|| Event::NewtonConverged { iterations: 2 });
        assert_eq!(a.0.lock().expect("no poison").len(), 1);
        assert_eq!(b.0.lock().expect("no poison").len(), 1);
    }

    #[test]
    fn clones_share_the_recorder() {
        let capture = Arc::new(Capture::default());
        let tele = Telemetry::new(capture.clone());
        let clone = tele.clone();
        clone.emit(|| Event::NewtonIter { iteration: 1 });
        tele.emit(|| Event::NewtonIter { iteration: 2 });
        assert_eq!(capture.0.lock().expect("no poison").len(), 2);
    }
}
