//! In-memory aggregation: atomic counters, fixed-bucket histograms,
//! and a Prometheus-style text exposition.

use crate::event::Event;
use crate::recorder::Recorder;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the data from a poisoned lock: every
/// structure in this module stays internally consistent under panic
/// (counters may at worst miss the increment that panicked), so
/// observing after a poisoning is always safe.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Escapes a label value for the Prometheus text exposition format
/// (backslash, double quote, and newline are the only specials).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Adds `value` into an `AtomicU64` holding `f64` bits, lock-free.
fn atomic_f64_add(cell: &AtomicU64, value: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + value).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// A fixed-bucket histogram with atomic counts.
///
/// Bucket `i` counts observations `value <= bounds[i]` (the smallest
/// such bound wins, Prometheus `le` semantics); one extra overflow
/// bucket catches everything above the last bound. Recording is
/// lock-free, and two histograms with identical bounds can be merged
/// bucket-wise (the `try_fan_out` per-thread pattern).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits.
    sum: AtomicU64,
}

impl Histogram {
    /// Builds a histogram over ascending upper bounds. Out-of-order
    /// bounds are sorted; an empty bound list yields a single overflow
    /// bucket.
    pub fn new(bounds: &[f64]) -> Histogram {
        let mut bounds = bounds.to_vec();
        bounds.sort_by(f64::total_cmp);
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// The bucket upper bounds (ascending, exclusive of the overflow
    /// bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Records one observation.
    pub fn record(&self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum, value);
    }

    /// Per-bucket counts (the last entry is the overflow bucket).
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum.load(Ordering::Relaxed))
    }

    /// Adds `other`'s buckets into `self`. When the bucket bounds
    /// differ, `other`'s observations land in the overflow bucket (the
    /// totals and sums stay exact; only their placement degrades).
    pub fn merge_from(&self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (mine, theirs) in self.counts.iter().zip(&other.counts) {
                mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        } else if let Some(overflow) = self.counts.last() {
            overflow.fetch_add(other.total(), Ordering::Relaxed);
        }
        atomic_f64_add(&self.sum, other.sum());
    }

    /// Renders the histogram in Prometheus text exposition format.
    fn render_prometheus_into(&self, name: &str, help: &str, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        self.render_samples_into(name, None, out);
    }

    /// Renders the `_bucket`/`_sum`/`_count` sample lines, labeled with
    /// an (already escaped) tenant when given.
    fn render_samples_into(&self, name: &str, tenant: Option<&str>, out: &mut String) {
        use std::fmt::Write as _;
        let (le_prefix, labels) = match tenant {
            Some(t) => (format!("tenant=\"{t}\","), format!("{{tenant=\"{t}\"}}")),
            None => (String::new(), String::new()),
        };
        let counts = self.counts();
        let mut cumulative = 0u64;
        for (bound, count) in self.bounds.iter().zip(&counts) {
            cumulative += count;
            let _ = writeln!(
                out,
                "{name}_bucket{{{le_prefix}le=\"{bound}\"}} {cumulative}"
            );
        }
        let total: u64 = counts.iter().sum();
        let _ = writeln!(out, "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "{name}_sum{labels} {}", self.sum());
        let _ = writeln!(out, "{name}_count{labels} {total}");
    }
}

/// One sample from a [`LabeledCounts`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledCount {
    /// Tenant label (overflow tenants collapse to `"other"`).
    pub tenant: String,
    /// Request-outcome label (see
    /// [`ServeOutcome::label`](crate::ServeOutcome::label)).
    pub outcome: String,
    /// Answering-backend label (see
    /// [`ServeBackendKind::label`](crate::ServeBackendKind::label)).
    pub backend: String,
    /// Requests observed with this label set.
    pub value: u64,
}

/// One (tenant, outcome, backend) key in a [`LabeledCounts`] family.
type LabelKey = (String, String, String);

/// The tenant cardinality cap, shared by every per-tenant series: the
/// label `tenant` is recorded under is `tenant` itself when it is
/// already tracked or fewer than `cap` distinct tenants are, and
/// `"other"` otherwise (so at most `cap + 1` labels ever exist).
fn capped_tenant<'t, 'a>(
    tenant: &'t str,
    tracked: impl Iterator<Item = &'a str> + Clone,
    cap: usize,
) -> &'t str {
    if tracked.clone().any(|t| t == tenant) {
        return tenant;
    }
    let mut distinct: Vec<&str> = tracked.collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < cap {
        tenant
    } else {
        "other"
    }
}

/// A bounded-cardinality counter family keyed on small label sets:
/// (tenant, outcome, backend).
///
/// Tenant labels are client-controlled, so the family caps how many
/// distinct tenants it tracks; once the cap is reached, new tenants
/// collapse into the `"other"` label (at most `cap + 1` tenant labels
/// ever exist, never unbounded growth). Outcome and backend labels come
/// from the closed [`ServeOutcome`](crate::ServeOutcome) /
/// [`ServeBackendKind`](crate::ServeBackendKind) sets and need no cap.
#[derive(Debug)]
pub struct LabeledCounts {
    tenant_cap: usize,
    cells: Mutex<Vec<(LabelKey, u64)>>,
}

impl LabeledCounts {
    /// An empty family tracking at most `tenant_cap` distinct tenants
    /// (plus the `"other"` overflow label).
    pub fn new(tenant_cap: usize) -> LabeledCounts {
        LabeledCounts {
            tenant_cap,
            cells: Mutex::new(Vec::new()),
        }
    }

    /// Increments the (tenant, outcome, backend) cell by one.
    pub fn add(&self, tenant: &str, outcome: &str, backend: &str) {
        self.add_n(tenant, outcome, backend, 1);
    }

    fn add_n(&self, tenant: &str, outcome: &str, backend: &str, n: u64) {
        let mut cells = lock(&self.cells);
        let tracked = cells.iter().map(|((t, _, _), _)| t.as_str());
        let tenant = capped_tenant(tenant, tracked, self.tenant_cap);
        if let Some((_, value)) = cells
            .iter_mut()
            .find(|((t, o, b), _)| t == tenant && o == outcome && b == backend)
        {
            *value += n;
        } else {
            cells.push((
                (tenant.to_string(), outcome.to_string(), backend.to_string()),
                n,
            ));
        }
    }

    /// A sorted snapshot of every cell.
    pub fn snapshot(&self) -> Vec<LabeledCount> {
        let mut cells: Vec<LabeledCount> = lock(&self.cells)
            .iter()
            .map(|((tenant, outcome, backend), value)| LabeledCount {
                tenant: tenant.clone(),
                outcome: outcome.clone(),
                backend: backend.clone(),
                value: *value,
            })
            .collect();
        cells.sort_by(|a, b| {
            (&a.tenant, &a.outcome, &a.backend).cmp(&(&b.tenant, &b.outcome, &b.backend))
        });
        cells
    }

    /// Sum over every cell.
    pub fn total(&self) -> u64 {
        lock(&self.cells).iter().map(|(_, v)| v).sum()
    }

    /// Adds `other`'s cells into `self`, re-applying `self`'s tenant
    /// cap (the per-thread merge pattern).
    pub fn merge_from(&self, other: &LabeledCounts) {
        for cell in other.snapshot() {
            self.add_n(&cell.tenant, &cell.outcome, &cell.backend, cell.value);
        }
    }
}

/// Policy for the serve SLO burn-rate monitor: a sliding window of
/// request outcomes in which shed, degraded, deadline-missed, and
/// errored answers burn error budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Sliding-window length in requests.
    pub window: usize,
    /// Minimum observations before a breach can latch (protects the
    /// first few requests from tripping on a tiny denominator).
    pub min_samples: usize,
    /// Burn fraction (`bad / window`) at or above which a breach
    /// latches.
    pub burn_threshold: f64,
}

impl Default for SloPolicy {
    fn default() -> SloPolicy {
        SloPolicy {
            window: 64,
            min_samples: 16,
            burn_threshold: 0.5,
        }
    }
}

/// A latched SLO breach: the window statistics at the moment the burn
/// rate crossed the policy threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBreachInfo {
    /// Observations in the window when the breach latched.
    pub window: u64,
    /// Budget-burning observations among them.
    pub bad: u64,
    /// The burn fraction `bad / window` (0..=1).
    pub burn: f64,
}

/// The SLO monitor's sliding window. Edge-triggered: a breach latches
/// once when the burn rate crosses the threshold and re-arms only
/// after the rate drops back below it, so a sustained breach produces
/// one dump trigger rather than one per request.
#[derive(Debug, Default)]
struct SloState {
    recent: VecDeque<bool>,
    latched: bool,
    pending: Option<SloBreachInfo>,
}

/// One row of the counter table: a [`Counts`] field and how it is
/// exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSpec {
    /// The [`Counts`] field name, which is also the counter's key in
    /// `trace summary` and `trace metrics`.
    pub name: &'static str,
    /// The Prometheus metric name.
    pub prometheus: &'static str,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    /// Whether the `trace diff` regression gate compares this counter.
    /// Gated counters are deterministic counts of work or outcomes;
    /// the rest depend on detail level, budgets, or run length.
    pub gated: bool,
}

/// Declares every [`Aggregator`] counter once. Each row is a [`Counts`]
/// field (with its doc and serde attributes), its Prometheus name,
/// `gated` or `ungated`, and its Prometheus help text. The `Counts`
/// struct, the atomic storage slots, the snapshot, and the
/// [`CounterSpec`] table behind [`Counts::entries`] are generated from
/// it; adding a counter is one row plus the [`Recorder::record`] arm
/// that increments it.
macro_rules! counters {
    (@gated gated) => { true };
    (@gated ungated) => { false };
    ($(
        $(#[$attr:meta])*
        $field:ident => $prometheus:literal, $gate:ident, $help:literal;
    )*) => {
        /// A point-in-time snapshot of every [`Aggregator`] counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct Counts {
            $($(#[$attr])* pub $field: u64,)*
        }

        /// A counter's slot in the [`Aggregator`] storage array.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Id {
            $($field,)*
        }

        const COUNTER_COUNT: usize = [$(Id::$field),*].len();

        static COUNTERS: [CounterSpec; COUNTER_COUNT] = [$(CounterSpec {
            name: stringify!($field),
            prometheus: $prometheus,
            help: $help,
            gated: counters!(@gated $gate),
        },)*];

        impl Counts {
            fn load(slots: &[AtomicU64; COUNTER_COUNT]) -> Counts {
                Counts {
                    $($field: slots[Id::$field as usize].load(Ordering::Relaxed),)*
                }
            }

            /// Every counter with its table row, in field order (the
            /// order of the Prometheus exposition and `trace summary`).
            pub fn entries(&self) -> impl Iterator<Item = (&'static CounterSpec, u64)> {
                COUNTERS.iter().zip([$(self.$field),*])
            }
        }
    };
}

counters! {
    /// Newton iterations run ([`Event::NewtonIter`]).
    newton_iters => "ferrocim_newton_iterations_total", gated,
        "Newton-Raphson iterations run.";
    /// Per-iteration residual diagnostics ([`Event::NewtonResidual`],
    /// emitted only at `DetailLevel::Iterations`).
    newton_residuals => "ferrocim_newton_residuals_total", ungated,
        "Per-iteration residual diagnostics recorded.";
    /// Newton solves that converged ([`Event::NewtonConverged`]).
    newton_converged => "ferrocim_newton_converged_total", gated,
        "Newton solves that converged.";
    /// Linear systems factored and solved ([`Event::SolverSolved`]).
    solver_solves => "ferrocim_solver_solves_total", gated,
        "Linear systems factored and solved.";
    /// Solves that ran a fresh symbolic analysis first
    /// ([`Event::SolverSolved`] with `symbolic: true`). On a fixed
    /// topology the sparse backend reports exactly one of these no
    /// matter how many numeric solves follow.
    solver_symbolic => "ferrocim_solver_symbolic_total", gated,
        "Solves that ran a fresh symbolic analysis.";
    /// Certified solves that needed iterative refinement
    /// ([`Event::SolveRefined`]).
    solves_refined => "ferrocim_solves_refined_total", gated,
        "Certified solves that needed iterative refinement.";
    /// Solver degradation-ladder escalations ([`Event::SolveDegraded`]).
    solves_degraded => "ferrocim_solves_degraded_total", gated,
        "Solver degradation-ladder escalations.";
    /// Transient steps accepted ([`Event::StepAccepted`]).
    steps_accepted => "ferrocim_steps_accepted_total", gated,
        "Transient steps accepted.";
    /// Transient steps rejected ([`Event::StepRejected`]).
    steps_rejected => "ferrocim_steps_rejected_total", gated,
        "Transient steps rejected.";
    /// Rescue-ladder rung attempts ([`Event::RescueAttempt`]).
    rescue_attempts => "ferrocim_rescue_attempts_total", gated,
        "Convergence-rescue rung attempts.";
    /// Rescue-ladder attempts that converged (one per rescued solve).
    rescues_succeeded => "ferrocim_rescues_succeeded_total", gated,
        "Rescue rungs that converged.";
    /// Newton iterations charged to a limited budget.
    budget_newton => "ferrocim_budget_newton_total", ungated,
        "Newton iterations charged to a limited budget.";
    /// Steps charged to a limited budget.
    budget_steps => "ferrocim_budget_steps_total", ungated,
        "Steps charged to a limited budget.";
    /// Monte-Carlo runs started ([`Event::McRunStarted`]).
    mc_runs_started => "ferrocim_mc_runs_started_total", gated,
        "Monte-Carlo runs started.";
    /// Monte-Carlo runs that produced a sample.
    mc_runs_ok => "ferrocim_mc_runs_ok_total", ungated,
        "Monte-Carlo runs that produced a sample.";
    /// Monte-Carlo runs that failed or were skipped.
    mc_runs_failed => "ferrocim_mc_runs_failed_total", gated,
        "Monte-Carlo runs that failed or were skipped.";
    /// MAC jobs requested across all batches ([`Event::MacIssued`]).
    mac_jobs => "ferrocim_mac_jobs_total", gated,
        "Row-MAC jobs requested.";
    /// MAC transients actually solved after duplicate collapsing.
    mac_solves => "ferrocim_mac_solves_total", gated,
        "Row-MAC transients solved after dedup.";
    /// Fault substitutions ([`Event::FaultSubstituted`]).
    faults_substituted => "ferrocim_faults_substituted_total", gated,
        "Fault-tolerant oracle substitutions.";
    /// Training epochs completed ([`Event::EpochDone`]).
    epochs_done => "ferrocim_epochs_done_total", ungated,
        "Training epochs completed.";
    /// Scoped timers closed ([`Event::SpanEnd`]).
    spans => "ferrocim_spans_total", ungated,
        "Scoped timers closed.";
    /// Run manifests seen ([`Event::Manifest`]).
    manifests => "ferrocim_manifests_total", ungated,
        "Run manifests seen.";
    /// Requests admitted by `ferrocim-serve` ([`Event::ServeAdmitted`]).
    serve_admitted => "ferrocim_serve_admitted_total", gated,
        "Requests admitted into the serve worker queue.";
    /// Requests shed with a typed `429` ([`Event::ServeShed`]).
    serve_shed => "ferrocim_serve_shed_total", gated,
        "Requests shed with a typed 429 Overloaded.";
    /// Backoff retries of transient solve failures
    /// ([`Event::ServeRetry`]).
    serve_retries => "ferrocim_serve_retries_total", gated,
        "Backoff retries of transient solve failures.";
    /// Responses answered from the degraded transfer-curve fallback
    /// ([`Event::ServeDegraded`]).
    serve_degraded => "ferrocim_serve_degraded_total", gated,
        "Responses answered from the degraded transfer-curve fallback.";
    /// Circuit-breaker closed-to-open trips
    /// ([`Event::ServeBreakerOpen`]).
    serve_breaker_open => "ferrocim_serve_breaker_open_total", gated,
        "Circuit-breaker closed-to-open trips.";
    /// Requests finished with a typed outcome ([`Event::ServeDone`]).
    /// Absent from traces recorded before the flight-recorder release,
    /// hence the serde default.
    #[serde(default)]
    serve_done => "ferrocim_serve_done_total", gated,
        "Requests finished with a typed outcome.";
    /// SLO burn-rate breaches latched ([`Event::SloBreach`]).
    #[serde(default)]
    slo_breaches => "ferrocim_slo_breaches_total", gated,
        "SLO burn-rate breaches latched.";
    /// Surrogate-store lookups answered from a calibrated curve
    /// ([`Event::SurrogateLookup`] with `hit: true`).
    surrogate_hits => "ferrocim_surrogate_hits_total", gated,
        "Surrogate lookups answered from a calibrated curve.";
    /// Surrogate-store lookups that missed and triggered a live
    /// calibration ([`Event::SurrogateLookup`] with `hit: false`).
    surrogate_misses => "ferrocim_surrogate_misses_total", gated,
        "Surrogate lookups that triggered a live calibration.";
    /// Check-mode live re-solves of surrogate-answered queries
    /// ([`Event::SurrogateCheck`]).
    surrogate_checks => "ferrocim_surrogate_checks_total", gated,
        "Check-mode live re-solves of surrogate answers.";
    /// Check-mode re-solves whose deviation exceeded the certified
    /// envelope ([`Event::SurrogateCheck`] with `ok: false`).
    surrogate_check_failures => "ferrocim_surrogate_check_failures_total", gated,
        "Check-mode deviations exceeding the certified envelope.";
    /// Calibrated curves dropped by a full surrogate store
    /// ([`Event::SurrogateEvicted`]). Depends on run length and store
    /// traffic, so ungated.
    #[serde(default)]
    surrogate_evictions => "ferrocim_surrogate_evictions_total", ungated,
        "Calibrated curves evicted from a full surrogate store.";
}

/// A lock-free in-memory [`Recorder`]: atomic counters per event kind
/// plus fixed-bucket histograms of Newton iterations per converged
/// solve and span latencies.
///
/// The aggregator is `Sync`, so one instance can be shared across
/// `try_fan_out` worker threads directly; alternatively, give each thread
/// its own and combine them with [`Aggregator::merge_from`].
#[derive(Debug)]
pub struct Aggregator {
    counters: [AtomicU64; COUNTER_COUNT],
    newton_histogram: Histogram,
    span_histogram: Histogram,
    serve_tenant_cap: usize,
    serve_requests: LabeledCounts,
    serve_latency: Mutex<Vec<(String, Histogram)>>,
    slo_policy: SloPolicy,
    slo: Mutex<SloState>,
}

/// Upper bounds (iterations) for the Newton-per-solve histogram.
const NEWTON_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0];

/// Upper bounds (microseconds) for the span-latency histogram.
const SPAN_BOUNDS: &[f64] = &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

/// Upper bounds (milliseconds) for the per-tenant serve request-latency
/// histograms: sub-millisecond surrogate answers up through the serve
/// deadline ceiling.
const SERVE_LATENCY_BOUNDS_MS: &[f64] = &[
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3,
];

/// Default cap on distinct tenant labels in the dimensional serve
/// metrics (see [`Aggregator::with_serve_tenant_cap`]).
const SERVE_TENANT_CAP: usize = 16;

/// The per-tenant latency histogram `tenant` records into, created on
/// first use under the tenant cap.
fn latency_series<'s>(
    series: &'s mut Vec<(String, Histogram)>,
    tenant: &str,
    cap: usize,
) -> &'s Histogram {
    let name = capped_tenant(tenant, series.iter().map(|(t, _)| t.as_str()), cap);
    let slot = match series.iter().position(|(t, _)| t == name) {
        Some(i) => i,
        None => {
            series.push((name.to_string(), Histogram::new(SERVE_LATENCY_BOUNDS_MS)));
            series.len() - 1
        }
    };
    &series[slot].1
}

impl Aggregator {
    /// An empty aggregator with the default histogram buckets.
    pub fn new() -> Aggregator {
        Aggregator {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            newton_histogram: Histogram::new(NEWTON_BOUNDS),
            span_histogram: Histogram::new(SPAN_BOUNDS),
            serve_tenant_cap: SERVE_TENANT_CAP,
            serve_requests: LabeledCounts::new(SERVE_TENANT_CAP),
            serve_latency: Mutex::new(Vec::new()),
            slo_policy: SloPolicy::default(),
            slo: Mutex::new(SloState::default()),
        }
    }

    /// Caps the number of distinct tenant labels tracked by the
    /// dimensional serve metrics (counter cells and latency series);
    /// tenants beyond the cap collapse into `"other"`. Call before
    /// recording: already-tracked tenants are kept.
    pub fn with_serve_tenant_cap(mut self, cap: usize) -> Aggregator {
        self.serve_tenant_cap = cap;
        let old = std::mem::replace(&mut self.serve_requests, LabeledCounts::new(cap));
        self.serve_requests.merge_from(&old);
        self
    }

    /// Replaces the SLO burn-rate policy (window, minimum samples, and
    /// the burn fraction at which a breach latches).
    pub fn with_slo_policy(mut self, policy: SloPolicy) -> Aggregator {
        self.slo_policy = SloPolicy {
            window: policy.window.max(1),
            ..policy
        };
        self
    }

    /// Snapshot of every counter.
    pub fn counts(&self) -> Counts {
        Counts::load(&self.counters)
    }

    /// Adds `n` to one counter.
    fn add(&self, id: Id, n: u64) {
        self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The histogram of Newton iterations per converged solve.
    pub fn newton_histogram(&self) -> &Histogram {
        &self.newton_histogram
    }

    /// The histogram of span latencies (microseconds).
    pub fn span_histogram(&self) -> &Histogram {
        &self.span_histogram
    }

    /// A snapshot of the (tenant, outcome, backend) labeled request
    /// counters (sorted, bounded cardinality).
    pub fn serve_requests(&self) -> Vec<LabeledCount> {
        self.serve_requests.snapshot()
    }

    /// Per-tenant request-latency rollups: `(tenant, count, sum_ms)`,
    /// sorted by tenant.
    pub fn serve_latency_totals(&self) -> Vec<(String, u64, f64)> {
        let mut rows: Vec<(String, u64, f64)> = lock(&self.serve_latency)
            .iter()
            .map(|(tenant, hist)| (tenant.clone(), hist.total(), hist.sum()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// The current SLO error-budget burn fraction (`bad / window` over
    /// the sliding window; 0 when nothing has been observed).
    pub fn slo_burn(&self) -> f64 {
        let slo = lock(&self.slo);
        if slo.recent.is_empty() {
            return 0.0;
        }
        let bad = slo.recent.iter().filter(|&&b| b).count();
        bad as f64 / slo.recent.len() as f64
    }

    /// Takes the pending SLO breach, if one latched since the last
    /// call. The monitor is edge-triggered: a sustained burn above the
    /// threshold yields exactly one breach until the rate recovers
    /// below the threshold and crosses again.
    pub fn take_slo_breach(&self) -> Option<SloBreachInfo> {
        lock(&self.slo).pending.take()
    }

    /// Feeds one request outcome into the SLO sliding window, latching
    /// a breach on the threshold's rising edge.
    fn observe_slo(&self, bad: bool) {
        let policy = self.slo_policy;
        let mut slo = lock(&self.slo);
        slo.recent.push_back(bad);
        while slo.recent.len() > policy.window {
            slo.recent.pop_front();
        }
        let n = slo.recent.len();
        let bad_count = slo.recent.iter().filter(|&&b| b).count();
        let burn = bad_count as f64 / n as f64;
        if burn >= policy.burn_threshold && n >= policy.min_samples {
            if !slo.latched {
                slo.latched = true;
                slo.pending = Some(SloBreachInfo {
                    window: n as u64,
                    bad: bad_count as u64,
                    burn,
                });
            }
        } else if burn < policy.burn_threshold {
            slo.latched = false;
        }
    }

    /// Adds `other`'s counters and histograms into `self` (the
    /// per-thread `try_fan_out` merge pattern).
    pub fn merge_from(&self, other: &Aggregator) {
        for (mine, theirs) in self.counters.iter().zip(&other.counters) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.newton_histogram.merge_from(&other.newton_histogram);
        self.span_histogram.merge_from(&other.span_histogram);
        self.serve_requests.merge_from(&other.serve_requests);
        let theirs = lock(&other.serve_latency);
        let mut series = lock(&self.serve_latency);
        for (tenant, hist) in theirs.iter() {
            latency_series(&mut series, tenant, self.serve_tenant_cap).merge_from(hist);
        }
        // The SLO sliding window is deliberately not merged: it is a
        // time-ordered sample sequence, and interleaving two windows
        // after the fact would fabricate an ordering that never
        // happened. Breach *counts* merge via `slo_breaches` above.
    }

    /// Renders every counter and histogram in the Prometheus text
    /// exposition format (`# HELP`/`# TYPE` + sample lines); this is
    /// the body `ferrocim-serve` answers `GET /metrics` with.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (spec, value) in self.counts().entries() {
            let name = spec.prometheus;
            let _ = writeln!(out, "# HELP {name} {}", spec.help);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        self.newton_histogram.render_prometheus_into(
            "ferrocim_newton_iterations_per_solve",
            "Newton iterations needed per converged solve.",
            &mut out,
        );
        self.span_histogram.render_prometheus_into(
            "ferrocim_span_micros",
            "Scoped-timer latencies in microseconds.",
            &mut out,
        );
        let labeled = self.serve_requests.snapshot();
        if !labeled.is_empty() {
            let name = "ferrocim_serve_requests_total";
            let _ = writeln!(
                out,
                "# HELP {name} Requests by tenant, outcome, and answering backend."
            );
            let _ = writeln!(out, "# TYPE {name} counter");
            for cell in &labeled {
                let _ = writeln!(
                    out,
                    "{name}{{tenant=\"{}\",outcome=\"{}\",backend=\"{}\"}} {}",
                    escape_label(&cell.tenant),
                    escape_label(&cell.outcome),
                    escape_label(&cell.backend),
                    cell.value,
                );
            }
        }
        let series = lock(&self.serve_latency);
        let mut sorted: Vec<&(String, Histogram)> = series.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        if !sorted.is_empty() {
            let name = "ferrocim_serve_request_latency_ms";
            let _ = writeln!(
                out,
                "# HELP {name} Serve request latency in milliseconds by tenant."
            );
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (tenant, hist) in sorted {
                hist.render_samples_into(name, Some(&escape_label(tenant)), &mut out);
            }
        }
        drop(series);
        let _ = writeln!(
            out,
            "# HELP ferrocim_serve_slo_burn Error-budget burn fraction over the sliding SLO window."
        );
        let _ = writeln!(out, "# TYPE ferrocim_serve_slo_burn gauge");
        let _ = writeln!(out, "ferrocim_serve_slo_burn {}", self.slo_burn());
        out
    }
}

impl Default for Aggregator {
    fn default() -> Self {
        Aggregator::new()
    }
}

impl Recorder for Aggregator {
    fn record(&self, event: &Event) {
        match event {
            Event::NewtonIter { .. } => self.add(Id::newton_iters, 1),
            Event::NewtonResidual { .. } => self.add(Id::newton_residuals, 1),
            Event::NewtonConverged { iterations } => {
                self.add(Id::newton_converged, 1);
                self.newton_histogram.record(*iterations as f64);
            }
            Event::SolverSolved { symbolic, .. } => {
                self.add(Id::solver_solves, 1);
                if *symbolic {
                    self.add(Id::solver_symbolic, 1);
                }
            }
            Event::SolveRefined { .. } => self.add(Id::solves_refined, 1),
            Event::SolveDegraded { .. } => self.add(Id::solves_degraded, 1),
            Event::StepAccepted { .. } => self.add(Id::steps_accepted, 1),
            Event::StepRejected { .. } => self.add(Id::steps_rejected, 1),
            Event::RescueAttempt { converged, .. } => {
                self.add(Id::rescue_attempts, 1);
                if *converged {
                    self.add(Id::rescues_succeeded, 1);
                }
            }
            Event::BudgetSpend { resource, amount } => match resource {
                crate::event::ResourceKind::NewtonIterations => {
                    self.add(Id::budget_newton, *amount)
                }
                crate::event::ResourceKind::Steps => self.add(Id::budget_steps, *amount),
            },
            Event::McRunStarted { .. } => self.add(Id::mc_runs_started, 1),
            Event::McRunDone { ok: true, .. } => self.add(Id::mc_runs_ok, 1),
            Event::McRunDone { ok: false, .. } => self.add(Id::mc_runs_failed, 1),
            Event::MacIssued { jobs, solves } => {
                self.add(Id::mac_jobs, *jobs);
                self.add(Id::mac_solves, *solves);
            }
            Event::FaultSubstituted { .. } => self.add(Id::faults_substituted, 1),
            Event::EpochDone { .. } => self.add(Id::epochs_done, 1),
            // Only the close is counted: a SpanEnd proves the full
            // begin/end pair, and its duration feeds the histogram.
            Event::SpanBegin { .. } => {}
            Event::SpanEnd { micros, .. } => {
                self.add(Id::spans, 1);
                self.span_histogram.record(*micros);
            }
            Event::Manifest { .. } => self.add(Id::manifests, 1),
            Event::ServeAdmitted { .. } => self.add(Id::serve_admitted, 1),
            Event::ServeShed { .. } => self.add(Id::serve_shed, 1),
            Event::ServeRetry { .. } => self.add(Id::serve_retries, 1),
            Event::ServeDegraded { .. } => self.add(Id::serve_degraded, 1),
            Event::ServeBreakerOpen { .. } => self.add(Id::serve_breaker_open, 1),
            Event::ServeDone {
                tenant,
                outcome,
                backend,
                latency_ms,
                ..
            } => {
                self.add(Id::serve_done, 1);
                self.serve_requests
                    .add(tenant, outcome.label(), backend.label());
                latency_series(
                    &mut lock(&self.serve_latency),
                    tenant,
                    self.serve_tenant_cap,
                )
                .record(*latency_ms);
                self.observe_slo(outcome.burns_error_budget());
            }
            Event::SloBreach { .. } => self.add(Id::slo_breaches, 1),
            Event::SurrogateLookup { hit: true } => self.add(Id::surrogate_hits, 1),
            Event::SurrogateLookup { hit: false } => self.add(Id::surrogate_misses, 1),
            Event::SurrogateCheck { ok, .. } => {
                self.add(Id::surrogate_checks, 1);
                if !*ok {
                    self.add(Id::surrogate_check_failures, 1);
                }
            }
            Event::SurrogateEvicted => self.add(Id::surrogate_evictions, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ResourceKind, RungKind};

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(1.0); // le="1" (inclusive)
        h.record(5.0);
        h.record(100.0); // overflow
        assert_eq!(h.counts(), vec![2, 1, 1]);
        assert_eq!(h.total(), 4);
        assert!((h.sum() - 106.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_same_shape_is_bucketwise() {
        let a = Histogram::new(&[1.0, 10.0]);
        let b = Histogram::new(&[1.0, 10.0]);
        a.record(0.5);
        b.record(5.0);
        b.record(50.0);
        a.merge_from(&b);
        assert_eq!(a.counts(), vec![1, 1, 1]);
        assert!((a.sum() - 55.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_shape_mismatch_keeps_totals() {
        let a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        b.record(0.5);
        b.record(3.0);
        a.merge_from(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.counts(), vec![0, 2]);
    }

    #[test]
    fn aggregator_counts_every_event_kind() {
        let agg = Aggregator::new();
        agg.record(&Event::NewtonIter { iteration: 1 });
        agg.record(&Event::NewtonIter { iteration: 2 });
        agg.record(&Event::NewtonResidual {
            iteration: 2,
            residual: 1e-6,
            damping: 1.0,
        });
        agg.record(&Event::NewtonConverged { iterations: 2 });
        agg.record(&Event::SolverSolved {
            backend: crate::SolverBackend::Sparse,
            symbolic: true,
        });
        agg.record(&Event::SolverSolved {
            backend: crate::SolverBackend::Sparse,
            symbolic: false,
        });
        agg.record(&Event::SolveRefined {
            passes: 1,
            residual: 1e-12,
        });
        agg.record(&Event::SolveDegraded {
            stage: crate::DegradeStageKind::FreshSymbolic,
            residual: 1e-3,
        });
        agg.record(&Event::StepAccepted { time: 0.0, dt: 1.0 });
        agg.record(&Event::StepRejected { time: 0.0, dt: 1.0 });
        agg.record(&Event::RescueAttempt {
            rung: RungKind::PlainNewton,
            iterations: 3,
            converged: false,
        });
        agg.record(&Event::RescueAttempt {
            rung: RungKind::GminStepping,
            iterations: 9,
            converged: true,
        });
        agg.record(&Event::BudgetSpend {
            resource: ResourceKind::NewtonIterations,
            amount: 4,
        });
        agg.record(&Event::BudgetSpend {
            resource: ResourceKind::Steps,
            amount: 2,
        });
        agg.record(&Event::McRunStarted { run: 0 });
        agg.record(&Event::McRunDone { run: 0, ok: true });
        agg.record(&Event::McRunDone { run: 1, ok: false });
        agg.record(&Event::MacIssued {
            jobs: 16,
            solves: 2,
        });
        agg.record(&Event::FaultSubstituted { substitute: 4 });
        agg.record(&Event::EpochDone {
            epoch: 0,
            loss: 1.0,
            accuracy: 0.5,
        });
        agg.record(&Event::SpanBegin {
            id: 1,
            parent: 0,
            tid: 1,
            name: "x".into(),
            ts: 0.0,
        });
        agg.record(&Event::SpanEnd { id: 1, micros: 5.0 });
        agg.record(&Event::ServeAdmitted {
            queue_depth: 1,
            request_id: 1,
        });
        agg.record(&Event::ServeAdmitted {
            queue_depth: 2,
            request_id: 2,
        });
        agg.record(&Event::ServeShed {
            queue_depth: 8,
            retry_after_ms: 100,
            request_id: 3,
            tenant: "t".into(),
        });
        agg.record(&Event::ServeRetry {
            attempt: 1,
            backoff_ms: 20,
            request_id: 1,
        });
        agg.record(&Event::ServeDegraded {
            breaker_open: false,
            request_id: 1,
            tenant: "t".into(),
        });
        agg.record(&Event::ServeBreakerOpen {
            window_failures: 5,
            window_size: 8,
            request_id: 1,
            tenant: "t".into(),
        });
        agg.record(&Event::ServeDone {
            request_id: 1,
            tenant: "t".into(),
            outcome: crate::ServeOutcome::Ok,
            backend: crate::ServeBackendKind::Live,
            latency_ms: 3.0,
        });
        agg.record(&Event::SloBreach {
            window: 64,
            bad: 33,
            burn_pct: 51.6,
        });
        agg.record(&Event::SurrogateLookup { hit: true });
        agg.record(&Event::SurrogateLookup { hit: true });
        agg.record(&Event::SurrogateLookup { hit: false });
        agg.record(&Event::SurrogateCheck {
            ok: true,
            deviation: 1e-5,
        });
        agg.record(&Event::SurrogateCheck {
            ok: false,
            deviation: 1e-2,
        });
        agg.record(&Event::SurrogateEvicted);
        let c = agg.counts();
        assert_eq!(c.newton_iters, 2);
        assert_eq!(c.newton_residuals, 1);
        assert_eq!(c.newton_converged, 1);
        assert_eq!(c.solver_solves, 2);
        assert_eq!(c.solver_symbolic, 1);
        assert_eq!(c.solves_refined, 1);
        assert_eq!(c.solves_degraded, 1);
        assert_eq!(c.steps_accepted, 1);
        assert_eq!(c.steps_rejected, 1);
        assert_eq!(c.rescue_attempts, 2);
        assert_eq!(c.rescues_succeeded, 1);
        assert_eq!(c.budget_newton, 4);
        assert_eq!(c.budget_steps, 2);
        assert_eq!(c.mc_runs_started, 1);
        assert_eq!(c.mc_runs_ok, 1);
        assert_eq!(c.mc_runs_failed, 1);
        assert_eq!(c.mac_jobs, 16);
        assert_eq!(c.mac_solves, 2);
        assert_eq!(c.faults_substituted, 1);
        assert_eq!(c.epochs_done, 1);
        assert_eq!(c.spans, 1, "only SpanEnd counts as a closed span");
        assert_eq!(c.serve_admitted, 2);
        assert_eq!(c.serve_shed, 1);
        assert_eq!(c.serve_retries, 1);
        assert_eq!(c.serve_degraded, 1);
        assert_eq!(c.serve_breaker_open, 1);
        assert_eq!(c.serve_done, 1);
        assert_eq!(c.slo_breaches, 1);
        assert_eq!(c.surrogate_hits, 2);
        assert_eq!(c.surrogate_misses, 1);
        assert_eq!(c.surrogate_checks, 2);
        assert_eq!(c.surrogate_check_failures, 1);
        assert_eq!(c.surrogate_evictions, 1);
        assert_eq!(agg.newton_histogram().total(), 1);
        assert_eq!(agg.span_histogram().total(), 1);
        let labeled = agg.serve_requests();
        assert_eq!(labeled.len(), 1);
        assert_eq!(labeled[0].tenant, "t");
        assert_eq!(labeled[0].outcome, "ok");
        assert_eq!(labeled[0].backend, "live");
        assert_eq!(labeled[0].value, 1);
        assert_eq!(agg.serve_latency_totals(), vec![("t".into(), 1, 3.0)]);
    }

    #[test]
    fn labeled_counts_cap_collapses_overflow_tenants_to_other() {
        let counts = LabeledCounts::new(2);
        counts.add("a", "ok", "live");
        counts.add("b", "ok", "live");
        counts.add("c", "ok", "live"); // over the cap -> "other"
        counts.add("d", "shed", "none"); // also "other"
        counts.add("a", "ok", "live"); // existing tenant still tracked
        let cells = counts.snapshot();
        let tenants: Vec<&str> = cells.iter().map(|c| c.tenant.as_str()).collect();
        assert_eq!(tenants, vec!["a", "b", "other", "other"]);
        assert_eq!(cells[0].value, 2);
        assert_eq!(counts.total(), 5);
    }

    #[test]
    fn labeled_counts_merge_reapplies_cap() {
        let a = LabeledCounts::new(1);
        let b = LabeledCounts::new(8);
        a.add("t1", "ok", "live");
        b.add("t2", "ok", "live");
        b.add("t3", "degraded", "fallback");
        a.merge_from(&b);
        let tenants: Vec<String> = a.snapshot().into_iter().map(|c| c.tenant).collect();
        assert!(tenants.iter().all(|t| t == "t1" || t == "other"));
        assert_eq!(a.total(), 3);
    }

    fn done(tenant: &str, outcome: crate::ServeOutcome) -> Event {
        Event::ServeDone {
            request_id: 0,
            tenant: tenant.into(),
            outcome,
            backend: crate::ServeBackendKind::Live,
            latency_ms: 1.0,
        }
    }

    #[test]
    fn slo_breach_latches_once_per_threshold_crossing() {
        let agg = Aggregator::new().with_slo_policy(SloPolicy {
            window: 8,
            min_samples: 4,
            burn_threshold: 0.5,
        });
        // Three bad outcomes: below min_samples, nothing latches.
        for _ in 0..3 {
            agg.record(&done("t", crate::ServeOutcome::Shed));
        }
        assert!(agg.take_slo_breach().is_none());
        // Fourth bad outcome crosses with burn 1.0: one latch only.
        agg.record(&done("t", crate::ServeOutcome::Deadline));
        let breach = agg.take_slo_breach().expect("breach should latch");
        assert_eq!(breach.window, 4);
        assert_eq!(breach.bad, 4);
        assert!((breach.burn - 1.0).abs() < 1e-12);
        agg.record(&done("t", crate::ServeOutcome::Error));
        assert!(
            agg.take_slo_breach().is_none(),
            "edge-triggered, no re-latch"
        );
        // Recover below the threshold, then breach again: re-latches.
        for _ in 0..8 {
            agg.record(&done("t", crate::ServeOutcome::Ok));
        }
        assert!(agg.take_slo_breach().is_none());
        for _ in 0..4 {
            agg.record(&done("t", crate::ServeOutcome::Degraded));
        }
        assert!(agg.take_slo_breach().is_some(), "re-armed after recovery");
    }

    #[test]
    fn rejected_and_ok_outcomes_do_not_burn_budget() {
        let agg = Aggregator::new().with_slo_policy(SloPolicy {
            window: 8,
            min_samples: 4,
            burn_threshold: 0.5,
        });
        for _ in 0..8 {
            agg.record(&done("t", crate::ServeOutcome::Rejected));
        }
        assert!(agg.take_slo_breach().is_none());
        assert!((agg.slo_burn()).abs() < 1e-12);
    }

    #[test]
    fn prometheus_exposition_has_per_tenant_series() {
        let agg = Aggregator::new();
        agg.record(&done("acme", crate::ServeOutcome::Ok));
        agg.record(&done("acme", crate::ServeOutcome::Shed));
        agg.record(&done("zeta", crate::ServeOutcome::Ok));
        let text = agg.render_prometheus();
        assert!(text.contains(
            "ferrocim_serve_requests_total{tenant=\"acme\",outcome=\"ok\",backend=\"live\"} 1"
        ));
        assert!(text.contains(
            "ferrocim_serve_requests_total{tenant=\"zeta\",outcome=\"ok\",backend=\"live\"} 1"
        ));
        assert!(text.contains("# TYPE ferrocim_serve_request_latency_ms histogram"));
        assert!(text
            .contains("ferrocim_serve_request_latency_ms_bucket{tenant=\"acme\",le=\"+Inf\"} 2"));
        assert!(text.contains("ferrocim_serve_request_latency_ms_sum{tenant=\"acme\"} 2"));
        assert!(text.contains("ferrocim_serve_request_latency_ms_count{tenant=\"zeta\"} 1"));
        assert!(text.contains("# TYPE ferrocim_serve_slo_burn gauge"));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let agg = Aggregator::new();
        agg.record(&done("evil\"tenant\\x\n", crate::ServeOutcome::Ok));
        let text = agg.render_prometheus();
        assert!(text.contains("tenant=\"evil\\\"tenant\\\\x\\n\""));
    }

    #[test]
    fn merge_from_combines_labeled_and_latency_series() {
        let a = Aggregator::new();
        let b = Aggregator::new();
        a.record(&done("t1", crate::ServeOutcome::Ok));
        b.record(&done("t1", crate::ServeOutcome::Ok));
        b.record(&done("t2", crate::ServeOutcome::Degraded));
        a.merge_from(&b);
        assert_eq!(a.counts().serve_done, 3);
        let totals = a.serve_latency_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0], ("t1".into(), 2, 2.0));
        assert_eq!(totals[1], ("t2".into(), 1, 1.0));
        assert_eq!(a.serve_requests().iter().map(|c| c.value).sum::<u64>(), 3);
    }

    #[test]
    fn merge_from_adds_counters_and_histograms() {
        let a = Aggregator::new();
        let b = Aggregator::new();
        a.record(&Event::StepAccepted { time: 0.0, dt: 1.0 });
        b.record(&Event::StepAccepted { time: 1.0, dt: 1.0 });
        b.record(&Event::NewtonConverged { iterations: 3 });
        a.merge_from(&b);
        assert_eq!(a.counts().steps_accepted, 2);
        assert_eq!(a.counts().newton_converged, 1);
        assert_eq!(a.newton_histogram().total(), 1);
    }

    #[test]
    fn prometheus_exposition_has_counters_and_buckets() {
        let agg = Aggregator::new();
        agg.record(&Event::StepAccepted { time: 0.0, dt: 1.0 });
        agg.record(&Event::NewtonConverged { iterations: 5 });
        let text = agg.render_prometheus();
        assert!(text.contains("# TYPE ferrocim_steps_accepted_total counter"));
        assert!(text.contains("ferrocim_steps_accepted_total 1"));
        assert!(text.contains("# TYPE ferrocim_solves_refined_total counter"));
        assert!(text.contains("# TYPE ferrocim_solves_degraded_total counter"));
        assert!(text.contains("# HELP ferrocim_newton_iterations_per_solve "));
        assert!(text.contains("# TYPE ferrocim_newton_iterations_per_solve histogram"));
        assert!(text.contains("ferrocim_newton_iterations_per_solve_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ferrocim_newton_iterations_per_solve_count 1"));
    }
}
