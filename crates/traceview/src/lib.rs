//! Analysis of `ferrocim-telemetry` JSONL traces.
//!
//! `ferrocim-telemetry` is the producer side of observability: hot
//! loops emit [`Event`]s into a trace file. This crate is the consumer
//! side, turning those flat event streams back into something a human
//! (or a CI gate) can act on:
//!
//! * [`SpanTree`] — reconstructs the causal span tree from
//!   `SpanBegin`/`SpanEnd` pairs (network → layer → MAC batch → solve),
//!   including parents bridged across `try_fan_out` threads by explicit id.
//! * [`Summary`] — counts, histograms, and top spans for one trace
//!   (`trace summary`).
//! * [`diff_metrics`] — per-metric deltas between two traces with a
//!   regression threshold (`trace diff`).
//! * [`chrome_trace`] — Chrome/Perfetto `trace_event` JSON export
//!   (`trace export --chrome`), loadable in `about:tracing` or
//!   <https://ui.perfetto.dev>.
//!
//! The `trace` binary in this crate wraps all three behind a CLI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod diff;
mod summary;
mod tree;

pub use chrome::chrome_trace;
pub use diff::{
    diff_extracted, diff_metrics, extract_metrics, has_regression, metrics_from_json, metrics_json,
    render_deltas, Delta, DiffReport, DiffWarning, GATE_DEFAULT_THRESHOLD_PCT,
};
pub use summary::{tenant_rollups, top_spans, SpanRollup, Summary, TenantRollup};
pub use tree::{SpanNode, SpanTree};

// Re-exported so the bin and downstream tests name one crate.
pub use ferrocim_telemetry::{read_trace, Event, TraceError};
