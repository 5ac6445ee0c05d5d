//! Golden-file lock on the Prometheus text exposition.
//!
//! The exposition is a wire format consumed outside this repo (scrape
//! configs, dashboards), so metric names, HELP/TYPE lines, and bucket
//! layout must not drift silently. The golden file is regenerated by
//! running this test with `FERROCIM_UPDATE_GOLDEN=1` — review the diff
//! like any other API change.

use ferrocim_telemetry::{
    Aggregator, Event, Recorder as _, ResourceKind, RungKind, ServeBackendKind, ServeOutcome,
};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/render_prometheus.txt")
}

/// A fixed event set exercising every counter and both histograms.
fn populated_aggregator() -> Aggregator {
    let agg = Aggregator::new();
    for iteration in 1..=3 {
        agg.record(&Event::NewtonIter { iteration });
    }
    agg.record(&Event::NewtonResidual {
        iteration: 3,
        residual: 1.25e-6,
        damping: 0.5,
    });
    agg.record(&Event::NewtonConverged { iterations: 3 });
    agg.record(&Event::NewtonConverged { iterations: 7 });
    agg.record(&Event::NewtonConverged { iterations: 100 });
    agg.record(&Event::StepAccepted {
        time: 1e-9,
        dt: 1e-12,
    });
    agg.record(&Event::StepRejected {
        time: 2e-9,
        dt: 2e-12,
    });
    agg.record(&Event::RescueAttempt {
        rung: RungKind::GminStepping,
        iterations: 11,
        converged: true,
    });
    agg.record(&Event::BudgetSpend {
        resource: ResourceKind::NewtonIterations,
        amount: 5,
    });
    agg.record(&Event::BudgetSpend {
        resource: ResourceKind::Steps,
        amount: 2,
    });
    agg.record(&Event::McRunStarted { run: 0 });
    agg.record(&Event::McRunDone { run: 0, ok: true });
    agg.record(&Event::McRunStarted { run: 1 });
    agg.record(&Event::McRunDone { run: 1, ok: false });
    agg.record(&Event::MacIssued {
        jobs: 16,
        solves: 4,
    });
    agg.record(&Event::FaultSubstituted { substitute: 3 });
    agg.record(&Event::EpochDone {
        epoch: 0,
        loss: 2.1,
        accuracy: 0.4,
    });
    agg.record(&Event::SpanBegin {
        id: 1,
        parent: 0,
        tid: 1,
        name: "solve".into(),
        ts: 0.0,
    });
    agg.record(&Event::SpanEnd {
        id: 1,
        micros: 42.0,
    });
    agg.record(&Event::SpanEnd { id: 2, micros: 5e3 });
    agg.record(&Event::Manifest {
        bin: "probe".into(),
        args: vec![],
    });
    agg.record(&Event::ServeAdmitted {
        queue_depth: 2,
        request_id: 1,
    });
    agg.record(&Event::ServeAdmitted {
        queue_depth: 3,
        request_id: 2,
    });
    agg.record(&Event::ServeShed {
        queue_depth: 8,
        retry_after_ms: 150,
        request_id: 3,
        tenant: "acme".into(),
    });
    agg.record(&Event::ServeRetry {
        attempt: 1,
        backoff_ms: 25,
        request_id: 1,
    });
    agg.record(&Event::ServeDegraded {
        breaker_open: true,
        request_id: 1,
        tenant: "acme".into(),
    });
    agg.record(&Event::ServeBreakerOpen {
        window_failures: 6,
        window_size: 10,
        request_id: 1,
        tenant: "acme".into(),
    });
    agg.record(&Event::ServeDone {
        request_id: 1,
        tenant: "acme".into(),
        outcome: ServeOutcome::Degraded,
        backend: ServeBackendKind::Fallback,
        latency_ms: 12.5,
    });
    agg.record(&Event::ServeDone {
        request_id: 2,
        tenant: "zeta".into(),
        outcome: ServeOutcome::Ok,
        backend: ServeBackendKind::Surrogate,
        latency_ms: 0.75,
    });
    agg.record(&Event::SloBreach {
        window: 64,
        bad: 33,
        burn_pct: 51.6,
    });
    agg.record(&Event::SurrogateLookup { hit: true });
    agg.record(&Event::SurrogateLookup { hit: false });
    agg.record(&Event::SurrogateCheck {
        ok: true,
        deviation: 3e-5,
    });
    agg.record(&Event::SurrogateEvicted);
    agg
}

#[test]
fn render_prometheus_matches_golden_file() {
    let rendered = populated_aggregator().render_prometheus();
    let path = golden_path();
    if std::env::var_os("FERROCIM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir golden");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with FERROCIM_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "render_prometheus drifted from the golden file; if intentional, \
         regenerate with FERROCIM_UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn histogram_buckets_are_cumulative_and_close_with_inf() {
    let text = populated_aggregator().render_prometheus();
    for metric in [
        "ferrocim_newton_iterations_per_solve",
        "ferrocim_span_micros",
    ] {
        let buckets: Vec<(String, u64)> = text
            .lines()
            .filter_map(|line| {
                let rest = line.strip_prefix(&format!("{metric}_bucket{{le=\""))?;
                let (bound, tail) = rest.split_once("\"}")?;
                let count: u64 = tail.trim().parse().ok()?;
                Some((bound.to_string(), count))
            })
            .collect();
        assert!(buckets.len() >= 2, "{metric} has buckets");
        // Prometheus `le` buckets are cumulative: counts never decrease.
        for pair in buckets.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "{metric} bucket counts must be non-decreasing: {pair:?}"
            );
        }
        let (last_bound, last_count) = buckets.last().expect("non-empty");
        assert_eq!(last_bound, "+Inf", "{metric} closes with the +Inf bucket");
        let count_line = format!("{metric}_count {last_count}");
        assert!(
            text.contains(&count_line),
            "{metric}_count equals the +Inf bucket"
        );
    }
}

#[test]
fn every_rendered_metric_has_help_and_type() {
    let text = populated_aggregator().render_prometheus();
    let mut metrics: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert!(!metrics.is_empty());
    metrics.dedup();
    for metric in metrics {
        assert!(
            text.contains(&format!("# HELP {metric} ")),
            "{metric} is missing its HELP line"
        );
    }
}
