//! Two-trace comparison with a regression threshold (`trace diff`).
//!
//! Only deterministic *count* metrics are gated: the counters marked
//! `gated` in `ferrocim-telemetry`'s counter table. They cover Newton
//! and step work, rescues, Monte-Carlo failures, MAC job/solve counts,
//! linear-solver factorizations and symbolic analyses (a symbolic rise
//! means pattern reuse broke), refinement passes and degradation-ladder
//! escalations (systems got harder to solve), serve outcomes, and
//! surrogate hits, misses, and envelope check failures. Wall-clock span
//! times vary run-to-run and machine-to-machine, so they are reported
//! by `trace summary` but never gated — a baseline trace recorded on
//! one host must gate identically on another.
//!
//! Baselines don't have to be full traces: [`metrics_json`] renders the
//! extracted counters as a small standalone JSON object (the format
//! `trace metrics` emits), and [`metrics_from_json`] reads it back for
//! `trace diff`, which accepts either representation on each side.
//!
//! The repository's own probe workloads are not gated through this
//! module: `crates/bench/tests/counter_gates.rs` asserts their gated
//! counters by exact equality under `cargo test`.

use ferrocim_telemetry::{Aggregator, Event, Recorder as _};
use serde_json::Value;

/// Default regression threshold (percent increase) for `trace diff`
/// without `--threshold`: room for deliberate small changes in solver
/// work between two runs a user compares.
pub const GATE_DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// One per-metric comparison between a baseline and a new trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name (matches the `Counts` field).
    pub metric: String,
    /// Baseline value.
    pub base: u64,
    /// New value.
    pub new: u64,
    /// Percent change relative to the baseline (`+` = more work).
    pub pct: f64,
    /// Whether the increase exceeds the threshold. Every gated metric
    /// counts solver *work*, so only increases regress; a decrease is
    /// an improvement and never fails the gate.
    pub regressed: bool,
}

/// A typed structural mismatch between the two metric sets being
/// diffed. Counter sets can drift when one side is an extract written
/// by an older (or newer) `trace` binary; a plain zip used to drop the
/// unmatched counters silently, so a baseline counter with no candidate
/// measurement read as a pass.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffWarning {
    /// A counter present in the baseline has no measurement in the
    /// candidate. This always fails the gate: the baseline promised
    /// work that the candidate never measured, which is
    /// indistinguishable from the instrumentation silently breaking.
    MissingCounter {
        /// The unmatched metric name.
        metric: String,
        /// Its baseline value.
        base: u64,
    },
    /// A counter present in the candidate has no baseline entry. Fails
    /// the gate only when the candidate value is nonzero (unaccounted
    /// new work — the same rule as a nonzero rise from a zero
    /// baseline); a zero merely warns that the baseline is stale.
    UnknownCounter {
        /// The unmatched metric name.
        metric: String,
        /// Its candidate value.
        new: u64,
    },
}

impl std::fmt::Display for DiffWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffWarning::MissingCounter { metric, base } => write!(
                f,
                "MissingCounter: baseline has {metric} = {base} but the candidate \
                 did not measure it"
            ),
            DiffWarning::UnknownCounter { metric, new } => write!(
                f,
                "UnknownCounter: candidate measured {metric} = {new} but the \
                 baseline has no entry — regenerate it with `trace metrics`"
            ),
        }
    }
}

/// The full result of one metric diff: per-metric deltas over the
/// counters both sides measured, plus typed warnings for the counters
/// only one side has.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-metric comparisons over the matched counters.
    pub deltas: Vec<Delta>,
    /// Structural mismatches between the two counter sets.
    pub warnings: Vec<DiffWarning>,
}

/// The deterministic count metrics the gate compares: every
/// [`CounterSpec::gated`](ferrocim_telemetry::CounterSpec::gated)
/// counter, in counter-table order.
pub fn extract_metrics(events: &[Event]) -> Vec<(&'static str, u64)> {
    let agg = Aggregator::new();
    for event in events {
        agg.record(event);
    }
    agg.counts()
        .entries()
        .filter(|(spec, _)| spec.gated)
        .map(|(spec, value)| (spec.name, value))
        .collect()
}

/// Renders extracted metrics as the standalone baseline JSON object
/// (`trace metrics`), keys in gate order.
pub fn metrics_json(metrics: &[(&'static str, u64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value)| (name.to_string(), Value::Number(value as f64)))
            .collect(),
    )
}

/// Parses a baseline JSON object back into gate metrics. Every entry
/// must be a known metric with a non-negative integer value (unknown
/// keys fail loudly, so an arbitrary JSON object is never mistaken for
/// a baseline), but a known metric may be *absent* — extracts written
/// before a gate counter existed still parse, and [`diff_extracted`]
/// reports the gap as a typed [`DiffWarning::MissingCounter`] /
/// [`DiffWarning::UnknownCounter`] instead of this function guessing a
/// zero.
///
/// # Errors
///
/// Returns a description of the first unknown or non-integer entry, or
/// of an object containing no known metric at all.
pub fn metrics_from_json(doc: &Value) -> Result<Vec<(&'static str, u64)>, String> {
    let Value::Object(entries) = doc else {
        return Err("metrics baseline must be a JSON object".to_string());
    };
    let known = extract_metrics(&[]);
    for (key, _) in entries {
        if !known.iter().any(|&(name, _)| name == key) {
            return Err(format!(
                "unknown metric {key:?} — regenerate the baseline with \
                 `trace metrics`"
            ));
        }
    }
    let mut metrics = Vec::new();
    for &(name, _) in &known {
        let Some(value) = doc.get(name) else {
            continue;
        };
        match value {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 => metrics.push((name, *n as u64)),
            other => return Err(format!("metric {name:?} must be a count, got {other:?}")),
        }
    }
    if metrics.is_empty() {
        return Err("metrics baseline contains no known metric".to_string());
    }
    Ok(metrics)
}

/// Compares two event streams metric-by-metric. `threshold_pct` is the
/// largest tolerated increase; a metric appearing from a zero baseline
/// is only a regression if the new value is itself nonzero.
pub fn diff_metrics(base: &[Event], new: &[Event], threshold_pct: f64) -> DiffReport {
    diff_extracted(&extract_metrics(base), &extract_metrics(new), threshold_pct)
}

/// [`diff_metrics`] over already-extracted metric lists (either side
/// may come from [`metrics_from_json`] instead of a trace). Counters
/// are matched *by name*, not by position: a counter present on only
/// one side becomes a typed [`DiffWarning`] instead of being silently
/// dropped or read as zero.
pub fn diff_extracted(
    base: &[(&'static str, u64)],
    new: &[(&'static str, u64)],
    threshold_pct: f64,
) -> DiffReport {
    let mut deltas = Vec::new();
    let mut warnings = Vec::new();
    for &(metric, base_value) in base {
        let Some(&(_, new_value)) = new.iter().find(|&&(name, _)| name == metric) else {
            warnings.push(DiffWarning::MissingCounter {
                metric: metric.to_string(),
                base: base_value,
            });
            continue;
        };
        let pct = if base_value == 0 {
            if new_value == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (new_value as f64 - base_value as f64) / base_value as f64 * 100.0
        };
        deltas.push(Delta {
            metric: metric.to_string(),
            base: base_value,
            new: new_value,
            pct,
            regressed: pct > threshold_pct,
        });
    }
    for &(metric, new_value) in new {
        if !base.iter().any(|&(name, _)| name == metric) {
            warnings.push(DiffWarning::UnknownCounter {
                metric: metric.to_string(),
                new: new_value,
            });
        }
    }
    DiffReport { deltas, warnings }
}

/// Whether the report fails the gate: a matched metric regressed, a
/// baseline counter went unmeasured ([`DiffWarning::MissingCounter`]),
/// or an unbaselined counter measured nonzero work.
pub fn has_regression(report: &DiffReport) -> bool {
    report.deltas.iter().any(|d| d.regressed)
        || report.warnings.iter().any(|w| match w {
            DiffWarning::MissingCounter { .. } => true,
            DiffWarning::UnknownCounter { new, .. } => *new > 0,
        })
}

/// Renders the diff table plus any typed warnings (the `trace diff`
/// output).
pub fn render_deltas(report: &DiffReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>12} {:>9}",
        "metric", "base", "new", "change"
    );
    for d in &report.deltas {
        let marker = if d.regressed { "  REGRESSED" } else { "" };
        let pct = if d.pct.is_infinite() {
            "new".to_string()
        } else {
            format!("{:+.1}%", d.pct)
        };
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>12} {:>9}{marker}",
            d.metric, d.base, d.new, pct
        );
    }
    for warning in &report.warnings {
        let _ = writeln!(out, "warning: {warning}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iters(n: u64) -> Vec<Event> {
        (1..=n)
            .map(|i| Event::NewtonIter { iteration: i })
            .collect()
    }

    #[test]
    fn identical_traces_never_regress() {
        let a = iters(20);
        let report = diff_metrics(&a, &a, GATE_DEFAULT_THRESHOLD_PCT);
        assert!(!has_regression(&report));
        assert!(report.warnings.is_empty());
        assert!(report.deltas.iter().all(|d| d.pct == 0.0));
    }

    #[test]
    fn ten_percent_increase_trips_the_default_gate() {
        let base = iters(100);
        let regressed = iters(111); // +11% > 10% threshold
        let report = diff_metrics(&base, &regressed, GATE_DEFAULT_THRESHOLD_PCT);
        assert!(has_regression(&report));
        let newton = report
            .deltas
            .iter()
            .find(|d| d.metric == "newton_iters")
            .unwrap();
        assert!(newton.regressed);
        assert!((newton.pct - 11.0).abs() < 1e-9);
        // Exactly at the threshold passes: the gate is strict-greater.
        let at = diff_metrics(&iters(100), &iters(110), GATE_DEFAULT_THRESHOLD_PCT);
        assert!(!has_regression(&at));
    }

    #[test]
    fn improvements_and_zero_baselines_behave() {
        // Fewer iterations: improvement, not a regression.
        let deltas = diff_metrics(&iters(100), &iters(50), 10.0);
        assert!(!has_regression(&deltas));
        // Zero baseline, nonzero new: infinite increase, regression.
        let appeared = diff_metrics(&[], &[Event::StepRejected { time: 0.0, dt: 1.0 }], 10.0);
        assert!(has_regression(&appeared));
        // Zero to zero: clean.
        let empty = diff_metrics(&[], &[], 10.0);
        assert!(!has_regression(&empty));
    }

    #[test]
    fn metrics_round_trip_through_the_baseline_json() {
        let metrics = extract_metrics(&iters(42));
        let doc = metrics_json(&metrics);
        let text = serde_json::to_string_pretty(&doc).expect("serialize");
        let back = metrics_from_json(&serde_json::from_str(&text).expect("parse")).expect("valid");
        assert_eq!(back, metrics);
        // Diffing a trace against its own extracted baseline is clean.
        assert!(!has_regression(&diff_extracted(
            &back,
            &extract_metrics(&iters(42)),
            GATE_DEFAULT_THRESHOLD_PCT
        )));
    }

    #[test]
    fn stale_or_malformed_baselines_are_rejected() {
        let mut doc = metrics_json(&extract_metrics(&[]));
        let Value::Object(entries) = &mut doc else {
            unreachable!()
        };
        entries.push(("warp_factor".to_string(), Value::Number(9.0)));
        assert!(metrics_from_json(&doc)
            .expect_err("unknown key")
            .contains("warp_factor"));
        let Value::Object(entries) = &mut doc else {
            unreachable!()
        };
        entries.pop();
        entries.retain(|(k, _)| k != "newton_iters");
        entries.push(("newton_iters".to_string(), Value::Number(1.5)));
        assert!(metrics_from_json(&doc)
            .expect_err("non-integer value")
            .contains("newton_iters"));
        assert!(metrics_from_json(&Value::Array(Vec::new())).is_err());
        assert!(metrics_from_json(&Value::Object(Vec::new())).is_err());
    }

    #[test]
    fn extracts_missing_known_keys_still_parse() {
        // An extract written before a gate counter existed parses into
        // the subset it carries; the gap is reported by the diff, not
        // invented as a zero here.
        let mut doc = metrics_json(&extract_metrics(&iters(7)));
        let Value::Object(entries) = &mut doc else {
            unreachable!()
        };
        entries.retain(|(k, _)| k != "newton_iters");
        let parsed = metrics_from_json(&doc).expect("missing known key is tolerated");
        assert!(!parsed.iter().any(|&(name, _)| name == "newton_iters"));
        assert_eq!(parsed.len(), extract_metrics(&[]).len() - 1);
    }

    #[test]
    fn baseline_only_counter_is_a_missing_counter_failure() {
        // Direction 1 of the satellite: a counter present in the
        // baseline but absent from the candidate used to be silently
        // dropped by the positional zip; it must now fail typed.
        let base = extract_metrics(&iters(5));
        let candidate: Vec<(&'static str, u64)> = base
            .iter()
            .copied()
            .filter(|&(name, _)| name != "newton_iters")
            .collect();
        let report = diff_extracted(&base, &candidate, GATE_DEFAULT_THRESHOLD_PCT);
        assert_eq!(
            report.warnings,
            vec![DiffWarning::MissingCounter {
                metric: "newton_iters".to_string(),
                base: 5,
            }]
        );
        assert!(has_regression(&report), "MissingCounter always fails");
        // The matched counters still produce clean deltas.
        assert_eq!(report.deltas.len(), base.len() - 1);
        assert!(report.deltas.iter().all(|d| !d.regressed));
    }

    #[test]
    fn candidate_only_counter_is_an_unknown_counter() {
        // Direction 2: a candidate counter with no baseline entry warns,
        // and fails only when it measured nonzero work (the same rule as
        // a nonzero rise from a zero baseline).
        let candidate = extract_metrics(&iters(5));
        let base: Vec<(&'static str, u64)> = candidate
            .iter()
            .copied()
            .filter(|&(name, _)| name != "serve_shed")
            .collect();
        let zero = diff_extracted(&base, &candidate, GATE_DEFAULT_THRESHOLD_PCT);
        assert_eq!(
            zero.warnings,
            vec![DiffWarning::UnknownCounter {
                metric: "serve_shed".to_string(),
                new: 0,
            }]
        );
        assert!(
            !has_regression(&zero),
            "a zero unknown counter warns without failing"
        );
        let mut shedding = candidate.clone();
        for entry in &mut shedding {
            if entry.0 == "serve_shed" {
                entry.1 = 3;
            }
        }
        let nonzero = diff_extracted(&base, &shedding, GATE_DEFAULT_THRESHOLD_PCT);
        assert_eq!(
            nonzero.warnings,
            vec![DiffWarning::UnknownCounter {
                metric: "serve_shed".to_string(),
                new: 3,
            }]
        );
        assert!(has_regression(&nonzero), "nonzero unknown work fails");
    }

    #[test]
    fn render_marks_regressions() {
        let text = render_deltas(&diff_metrics(&iters(10), &iters(20), 10.0));
        assert!(text.contains("newton_iters"));
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("+100.0%"));
        // Warnings render with their typed names.
        let base = extract_metrics(&iters(5));
        let candidate: Vec<(&'static str, u64)> = base
            .iter()
            .copied()
            .filter(|&(name, _)| name != "newton_iters")
            .collect();
        let warned = render_deltas(&diff_extracted(&base, &candidate, 10.0));
        assert!(warned.contains("warning: MissingCounter"));
        assert!(warned.contains("newton_iters"));
    }
}
