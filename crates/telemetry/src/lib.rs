//! Zero-overhead-when-off observability for the `ferrocim` stack.
//!
//! The paper's evaluation is a fleet of long-running sweeps (Monte-Carlo
//! over device variation, 0–85 °C temperature grids, VGG/CIFAR-10
//! inference through simulated rows). This crate is the substrate for
//! watching those runs without slowing them down:
//!
//! * [`Event`] — the typed vocabulary emitted by the hot loops of
//!   `ferrocim-spice` (Newton iterations, adaptive-step accept/reject,
//!   rescue-ladder rungs, budget spend, Monte-Carlo runs),
//!   `ferrocim-cim` (batched MAC issues, fault substitutions), and
//!   `ferrocim-nn` (training epochs).
//! * [`Recorder`] — the sink trait; [`NoopRecorder`], [`Aggregator`]
//!   (atomic counters + fixed-bucket histograms, mergeable across
//!   `try_fan_out` threads, with a Prometheus-style text exposition), and
//!   [`JsonlSink`] (buffered JSONL stream with a versioned schema and
//!   atomic tmp+rename close) implement it. [`Tee`] fans one event
//!   stream out to several sinks.
//! * [`Telemetry`] — the cheap clone-shared handle plumbed through the
//!   simulation builders (the same way `Budget` is). The default
//!   handle is enum-dispatched to a no-op: when telemetry is off, an
//!   instrumentation site costs one discriminant check and the event
//!   is never even constructed. An on handle records at a
//!   [`DetailLevel`]; [`DetailLevel::Iterations`] adds per-iteration
//!   Newton residual/damping diagnostics ([`Event::NewtonResidual`]).
//! * [`FlightRecorder`] — the always-on retroactive sink: a
//!   fixed-capacity ring (per-thread segments stitched by a global
//!   epoch) retaining the last N events, whose snapshot is a valid
//!   `ferrocim-trace-v1` document, with [`DumpOn`] trigger hooks that
//!   write atomic dumps when a breaker trips or the SLO burn-rate
//!   monitor (in [`Aggregator`]) latches a breach.
//! * [`Span`] — scoped wall-clock timers forming a causal tree: each
//!   span gets a process-unique [`SpanId`] and a parent (the innermost
//!   open span on the thread, or an explicit id via
//!   [`Telemetry::span_under`] for cross-thread work), emitting
//!   [`Event::SpanBegin`] on open and [`Event::SpanEnd`] on drop. When
//!   telemetry is off, no id is allocated and the clock is never read.
//!
//! # Example
//!
//! ```
//! use ferrocim_telemetry::{Aggregator, Event, Telemetry};
//! use std::sync::Arc;
//!
//! let agg = Arc::new(Aggregator::new());
//! let tele = Telemetry::new(agg.clone());
//! tele.emit(|| Event::StepAccepted { time: 0.0, dt: 1e-12 });
//! {
//!     let _timer = tele.span("solve");
//! } // emits Event::SpanBegin on open, Event::SpanEnd on drop
//! assert_eq!(agg.counts().steps_accepted, 1);
//! assert_eq!(agg.counts().spans, 1);
//!
//! // The default handle is off: the closure is never run.
//! let off = Telemetry::off();
//! off.emit(|| unreachable!("not constructed when telemetry is off"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aggregate;
mod event;
mod flight;
mod recorder;
mod sink;

pub use aggregate::{
    Aggregator, CounterSpec, Counts, Histogram, LabeledCount, LabeledCounts, SloBreachInfo,
};
pub use event::{
    DegradeStageKind, Event, ResourceKind, RungKind, ServeBackendKind, ServeOutcome, SolverBackend,
    TRACE_FORMAT,
};
pub use flight::{DumpOn, FlightEntry, FlightRecorder};
pub use recorder::{DetailLevel, NoopRecorder, Recorder, Span, SpanId, Tee, Telemetry};
pub use sink::{read_trace, render_trace, write_trace, JsonlSink, TraceError};
