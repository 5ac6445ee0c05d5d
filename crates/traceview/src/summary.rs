//! One-trace summaries: counters, histograms, and top spans.

use crate::tree::SpanTree;
use ferrocim_telemetry::{Aggregator, Counts, Event, Recorder as _};
use std::collections::HashMap;

/// Aggregated wall-clock statistics for one span label.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRollup {
    /// The span label.
    pub name: String,
    /// Closed spans with this label.
    pub count: u64,
    /// Total wall-clock microseconds across those spans.
    pub total_micros: f64,
}

/// Rolls closed spans up by label, sorted by descending total time.
pub fn top_spans(events: &[Event]) -> Vec<SpanRollup> {
    let mut names: HashMap<u64, &str> = HashMap::new();
    let mut rollup: HashMap<&str, (u64, f64)> = HashMap::new();
    for event in events {
        match event {
            Event::SpanBegin { id, name, .. } => {
                names.insert(*id, name.as_str());
            }
            Event::SpanEnd { id, micros } => {
                if let Some(name) = names.get(id) {
                    let slot = rollup.entry(name).or_insert((0, 0.0));
                    slot.0 += 1;
                    slot.1 += micros;
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<SpanRollup> = rollup
        .into_iter()
        .map(|(name, (count, total_micros))| SpanRollup {
            name: name.to_string(),
            count,
            total_micros,
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_micros
            .total_cmp(&a.total_micros)
            .then(a.name.cmp(&b.name))
    });
    out
}

/// Per-tenant serve outcomes, rolled up from the trace's
/// [`Event::ServeDone`] records — the typed form of the label
/// breakdown `/metrics` exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRollup {
    /// The tenant label.
    pub tenant: String,
    /// Terminal requests for this tenant.
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered from a degraded tier.
    pub degraded: u64,
    /// Requests that burned error budget (shed, deadline, error,
    /// degraded — everything [`ferrocim_telemetry::ServeOutcome`]
    /// counts against the SLO).
    pub budget_burned: u64,
    /// Total serve latency across the tenant's requests, milliseconds.
    pub total_latency_ms: f64,
}

/// Rolls [`Event::ServeDone`] records up by tenant, sorted by
/// descending request count (ties by tenant name).
pub fn tenant_rollups(events: &[Event]) -> Vec<TenantRollup> {
    let mut rollup: Vec<TenantRollup> = Vec::new();
    for event in events {
        let Event::ServeDone {
            tenant,
            outcome,
            latency_ms,
            ..
        } = event
        else {
            continue;
        };
        let idx = match rollup.iter().position(|r| r.tenant == *tenant) {
            Some(idx) => idx,
            None => {
                rollup.push(TenantRollup {
                    tenant: tenant.clone(),
                    requests: 0,
                    ok: 0,
                    degraded: 0,
                    budget_burned: 0,
                    total_latency_ms: 0.0,
                });
                rollup.len() - 1
            }
        };
        let slot = &mut rollup[idx];
        slot.requests += 1;
        slot.total_latency_ms += latency_ms;
        if *outcome == ferrocim_telemetry::ServeOutcome::Ok {
            slot.ok += 1;
        }
        if *outcome == ferrocim_telemetry::ServeOutcome::Degraded {
            slot.degraded += 1;
        }
        if outcome.burns_error_budget() {
            slot.budget_burned += 1;
        }
    }
    rollup.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.tenant.cmp(&b.tenant)));
    rollup
}

/// The `trace summary` payload for one trace.
#[derive(Debug)]
pub struct Summary {
    /// Total events in the trace (including span begin/ends).
    pub events: usize,
    /// Counter snapshot from replaying the trace into an [`Aggregator`].
    pub counts: Counts,
    /// Span labels by descending total wall-clock time.
    pub top_spans: Vec<SpanRollup>,
    /// Per-tenant serve outcomes (empty for non-serve traces).
    pub tenants: Vec<TenantRollup>,
    /// Spans whose end never made it into the trace.
    pub open_spans: usize,
    /// The replayed aggregator (for `--prometheus` output).
    aggregator: Aggregator,
}

impl Summary {
    /// Replays `events` into counters, histograms, and span rollups.
    pub fn of(events: &[Event]) -> Summary {
        let aggregator = Aggregator::new();
        for event in events {
            aggregator.record(event);
        }
        let tree = SpanTree::build(events);
        Summary {
            events: events.len(),
            counts: aggregator.counts(),
            top_spans: top_spans(events),
            tenants: tenant_rollups(events),
            open_spans: tree.open_spans(),
            aggregator,
        }
    }

    /// The Prometheus text exposition of the replayed trace.
    pub fn render_prometheus(&self) -> String {
        self.aggregator.render_prometheus()
    }

    /// Renders the human-readable summary (the `trace summary` output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "events                {}", self.events);
        for (spec, value) in self.counts.entries() {
            if value > 0 {
                let _ = writeln!(out, "{:<22}{value}", spec.name);
            }
        }
        if self.open_spans > 0 {
            let _ = writeln!(out, "open_spans            {}", self.open_spans);
        }
        if !self.tenants.is_empty() {
            let _ = writeln!(out, "\nserve outcomes by tenant:");
            for t in self.tenants.iter().take(10) {
                let mean_ms = t.total_latency_ms / t.requests.max(1) as f64;
                let _ = writeln!(
                    out,
                    "  {:<20} {:>6} req  {:>5} ok  {:>5} degraded  {:>5} burned  {:>9.2}ms mean",
                    t.tenant, t.requests, t.ok, t.degraded, t.budget_burned, mean_ms
                );
            }
        }
        let newton = self.aggregator.newton_histogram();
        if newton.total() > 0 {
            let _ = writeln!(out, "\nnewton iterations per converged solve:");
            let counts = newton.counts();
            for (bound, n) in newton.bounds().iter().zip(&counts) {
                if *n > 0 {
                    let _ = writeln!(out, "  <= {bound:<8} {n}");
                }
            }
            if let Some(overflow) = counts.last() {
                if *overflow > 0 {
                    let _ = writeln!(out, "  >  last     {overflow}");
                }
            }
        }
        if !self.top_spans.is_empty() {
            let _ = writeln!(out, "\ntop spans by total wall-clock:");
            for span in self.top_spans.iter().take(10) {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>8}x {:>14.1}us",
                    span.name, span.count, span.total_micros
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_and_ranks_spans() {
        let events = vec![
            Event::NewtonIter { iteration: 1 },
            Event::NewtonConverged { iterations: 1 },
            Event::SpanBegin {
                id: 1,
                parent: 0,
                tid: 1,
                name: "slow".into(),
                ts: 0.0,
            },
            Event::SpanEnd {
                id: 1,
                micros: 100.0,
            },
            Event::SpanBegin {
                id: 2,
                parent: 0,
                tid: 1,
                name: "fast".into(),
                ts: 1.0,
            },
            Event::SpanEnd { id: 2, micros: 5.0 },
            Event::SpanBegin {
                id: 3,
                parent: 0,
                tid: 1,
                name: "open".into(),
                ts: 2.0,
            },
        ];
        let summary = Summary::of(&events);
        assert_eq!(summary.events, 7);
        assert_eq!(summary.counts.newton_iters, 1);
        assert_eq!(summary.counts.spans, 2);
        assert_eq!(summary.open_spans, 1);
        assert_eq!(summary.top_spans[0].name, "slow");
        assert_eq!(summary.top_spans[1].name, "fast");
        let text = summary.render_text();
        assert!(text.contains("newton_iters"));
        assert!(text.contains("top spans"));
        assert!(summary
            .render_prometheus()
            .contains("ferrocim_newton_iterations_total 1"));
    }

    #[test]
    fn summary_text_lists_solver_counters() {
        use ferrocim_telemetry::{DegradeStageKind, SolverBackend};
        let solved = |symbolic| Event::SolverSolved {
            backend: SolverBackend::Sparse,
            symbolic,
        };
        let events = vec![
            Event::NewtonIter { iteration: 1 },
            solved(true),
            solved(false),
            Event::SolveRefined {
                passes: 1,
                residual: 1e-12,
            },
            Event::SolveDegraded {
                stage: DegradeStageKind::FreshSymbolic,
                residual: 1e-3,
            },
        ];
        let text = Summary::of(&events).render_text();
        for line in [
            "newton_iters          1",
            "solver_solves         2",
            "solver_symbolic       1",
            "solves_refined        1",
            "solves_degraded       1",
        ] {
            assert!(text.lines().any(|l| l == line), "{line:?} missing:\n{text}");
        }
    }

    #[test]
    fn serve_traces_roll_up_by_tenant() {
        use ferrocim_telemetry::{ServeBackendKind, ServeOutcome};
        let done = |tenant: &str, outcome: ServeOutcome, latency_ms: f64| Event::ServeDone {
            request_id: 7,
            tenant: tenant.to_string(),
            outcome,
            backend: ServeBackendKind::Live,
            latency_ms,
        };
        let events = vec![
            done("acme", ServeOutcome::Ok, 10.0),
            done("acme", ServeOutcome::Degraded, 30.0),
            done("acme", ServeOutcome::Shed, 2.0),
            done("zeta", ServeOutcome::Ok, 1.0),
            Event::SloBreach {
                window: 8,
                bad: 5,
                burn_pct: 62.5,
            },
        ];
        let summary = Summary::of(&events);
        assert_eq!(summary.counts.serve_done, 4);
        assert_eq!(summary.counts.slo_breaches, 1);
        assert_eq!(summary.tenants.len(), 2);
        let acme = &summary.tenants[0];
        assert_eq!(acme.tenant, "acme", "sorted by descending requests");
        assert_eq!(acme.requests, 3);
        assert_eq!(acme.ok, 1);
        assert_eq!(acme.degraded, 1);
        assert_eq!(acme.budget_burned, 2, "degraded + shed burn budget");
        assert!((acme.total_latency_ms - 42.0).abs() < 1e-12);
        assert_eq!(summary.tenants[1].tenant, "zeta");
        let text = summary.render_text();
        assert!(text.contains("serve_done"));
        assert!(text.contains("slo_breaches"));
        assert!(text.contains("serve outcomes by tenant:"));
        assert!(text.contains("acme"));
    }
}
