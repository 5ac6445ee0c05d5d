//! The typed event vocabulary shared by every instrumented layer.

use serde::{Deserialize, Serialize};

/// Schema version string carried by the header line of every JSONL
/// trace (see [`crate::JsonlSink`]); readers refuse a trace whose header
/// names another version.
pub const TRACE_FORMAT: &str = "ferrocim-trace-v1";

/// Which budgeted resource a [`Event::BudgetSpend`] charge drew from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Newton–Raphson iterations (`Budget::charge_newton`).
    NewtonIterations,
    /// Transient/sweep/batch steps (`Budget::charge_steps`).
    Steps,
}

/// Which rung of the convergence-rescue ladder an attempt ran on.
///
/// Mirrors `ferrocim_spice::RescueRung` without the rung parameters, so
/// the event stays `Copy` and allocation-free on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RungKind {
    /// The plain Newton retry from the last good state.
    PlainNewton,
    /// Newton with a tighter damping clamp.
    Damping,
    /// Gmin stepping (conductance ladder).
    GminStepping,
    /// Source stepping (supplies ramped from zero).
    SourceStepping,
}

/// Which linear-solver backend performed a [`Event::SolverSolved`]
/// solve.
///
/// Mirrors `ferrocim_spice`'s solver selection without the solver
/// internals, so the event stays `Copy` and allocation-free on the hot
/// path (the same convention as [`RungKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverBackend {
    /// Dense LU with partial pivoting.
    Dense,
    /// Sparse KLU-style LU (symbolic analysis reused across solves).
    Sparse,
}

/// Which rung of the solver degradation ladder a
/// [`Event::SolveDegraded`] escalation landed on.
///
/// Mirrors the ladder in `ferrocim_spice`'s workspace without the
/// solver internals, so the event stays `Copy` and allocation-free on
/// the hot path (the same convention as [`RungKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeStageKind {
    /// The sparse backend discarded its symbolic analysis and re-ran
    /// the fused symbolic + numeric factorization.
    FreshSymbolic,
    /// The sparse backend was rebuilt with the alternate fill ordering.
    AlternateOrdering,
    /// The system fell back to the dense LU backend.
    DenseFallback,
}

/// How one `ferrocim-serve` request terminated, as carried by
/// [`Event::ServeDone`].
///
/// The taxonomy mirrors the typed response bodies of the serve API:
/// every terminal answer the service can produce maps onto exactly one
/// variant, which is what makes per-tenant outcome counting and the SLO
/// error budget well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeOutcome {
    /// A `200` answered live or by the certified surrogate fast path.
    Ok,
    /// A `200` answered by the degraded fallback tier.
    Degraded,
    /// A typed `429` shed (queue full, tenant quota, or draining).
    Shed,
    /// A typed `504` deadline expiry (queued or mid-solve).
    Deadline,
    /// A typed `400`: the client's request never entered the solve
    /// path. Rejections do not burn the SLO error budget.
    Rejected,
    /// A typed `500` (fatal solver misuse or a contained worker panic).
    Error,
}

impl ServeOutcome {
    /// The lowercase label used for Prometheus `outcome` label values.
    pub fn label(self) -> &'static str {
        match self {
            ServeOutcome::Ok => "ok",
            ServeOutcome::Degraded => "degraded",
            ServeOutcome::Shed => "shed",
            ServeOutcome::Deadline => "deadline",
            ServeOutcome::Rejected => "rejected",
            ServeOutcome::Error => "error",
        }
    }

    /// Whether this outcome burns the SLO error budget (shed, degraded,
    /// deadline, and internal errors do; successes and client-side
    /// rejections do not).
    pub fn burns_error_budget(self) -> bool {
        matches!(
            self,
            ServeOutcome::Degraded
                | ServeOutcome::Shed
                | ServeOutcome::Deadline
                | ServeOutcome::Error
        )
    }
}

/// Which tier produced the answer carried by an [`Event::ServeDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeBackendKind {
    /// A live solve through the full solver stack.
    Live,
    /// The certified surrogate fast path.
    Surrogate,
    /// The degraded fallback curve.
    Fallback,
    /// No tier ran (sheds, rejections, queued deadline expiries).
    None,
}

impl ServeBackendKind {
    /// The lowercase label used for Prometheus `backend` label values.
    pub fn label(self) -> &'static str {
        match self {
            ServeBackendKind::Live => "live",
            ServeBackendKind::Surrogate => "surrogate",
            ServeBackendKind::Fallback => "fallback",
            ServeBackendKind::None => "none",
        }
    }
}

/// One observation from an instrumented hot loop.
///
/// Events are deliberately flat and (except for [`Event::SpanBegin`] and
/// [`Event::Manifest`]) allocation-free, so constructing one costs a
/// handful of register writes; sites behind a disabled [`crate::Telemetry`]
/// handle never construct them at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// One Newton–Raphson iteration ran (converged or not).
    NewtonIter {
        /// 1-based iteration index within the enclosing solve.
        iteration: u64,
    },
    /// Per-iteration Newton diagnostics, emitted only at
    /// [`crate::DetailLevel::Iterations`]: the residual norm (largest
    /// damped update applied to any unknown, in volts) and the damping
    /// factor the clamp applied (1.0 = undamped).
    NewtonResidual {
        /// 1-based iteration index within the enclosing solve.
        iteration: u64,
        /// Largest absolute damped Newton update this iteration (V).
        residual: f64,
        /// `min(1, max_step / raw_update)`: 1.0 means the step was not
        /// clamped, smaller values mean the damping limiter engaged.
        damping: f64,
    },
    /// A Newton solve converged.
    NewtonConverged {
        /// Iterations the solve needed.
        iterations: u64,
    },
    /// One linear system was factored and solved (one per Newton
    /// iteration). `symbolic` is true when the solve had to run a fresh
    /// symbolic analysis first — for the sparse backend on a fixed
    /// topology this happens exactly once, so a trace showing
    /// `solver_solves = N, solver_symbolic = 1` proves the KLU-style
    /// pattern reuse is working.
    SolverSolved {
        /// The backend that performed the solve.
        backend: SolverBackend,
        /// Whether a symbolic analysis ran as part of this solve.
        symbolic: bool,
    },
    /// A certified solve needed iterative refinement to reach the
    /// residual tolerance (see `ferrocim_spice`'s `HealthPolicy`).
    SolveRefined {
        /// Refinement passes applied.
        passes: u64,
        /// Relative backward error after the final pass.
        residual: f64,
    },
    /// A certified solve failed refinement and escalated one rung down
    /// the solver degradation ladder.
    SolveDegraded {
        /// The ladder stage the solve escalated to.
        stage: DegradeStageKind,
        /// The relative backward error that triggered the escalation.
        residual: f64,
    },
    /// An adaptive (or fixed-grid) transient step was accepted.
    StepAccepted {
        /// Simulation time at the end of the step, in seconds.
        time: f64,
        /// The accepted step size, in seconds.
        dt: f64,
    },
    /// An adaptive transient step was rejected (LTE too large or the
    /// solve diverged above the `dt_min` floor).
    StepRejected {
        /// Simulation time at the start of the rejected step, in seconds.
        time: f64,
        /// The rejected step size, in seconds.
        dt: f64,
    },
    /// One rung of the convergence-rescue ladder was attempted.
    RescueAttempt {
        /// The ladder rung.
        rung: RungKind,
        /// Newton iterations the rung consumed.
        iterations: u64,
        /// Whether the rung converged (ending the ladder).
        converged: bool,
    },
    /// A limited `Budget` was charged.
    BudgetSpend {
        /// The resource pool charged.
        resource: ResourceKind,
        /// Units charged.
        amount: u64,
    },
    /// A Monte-Carlo run started.
    McRunStarted {
        /// The deterministic run index.
        run: u64,
    },
    /// A Monte-Carlo run finished.
    McRunDone {
        /// The deterministic run index.
        run: u64,
        /// Whether the run produced a sample (`false` = failed/skipped).
        ok: bool,
    },
    /// A batch of row MACs was issued to the array engine.
    MacIssued {
        /// Jobs requested by the caller.
        jobs: u64,
        /// Transients actually solved after duplicate collapsing.
        solves: u64,
    },
    /// A fault-tolerant oracle substituted a fallback value for a
    /// panicked CIM read.
    FaultSubstituted {
        /// The substituted read-out count.
        substitute: u64,
    },
    /// A training epoch (forward+backward over the set, plus the
    /// post-epoch accuracy pass) completed.
    EpochDone {
        /// 0-based epoch index.
        epoch: u64,
        /// Mean training loss over the epoch.
        loss: f64,
        /// Training-set accuracy measured after the epoch.
        accuracy: f64,
    },
    /// A scoped timer opened (see [`crate::Span`]). Paired with the
    /// [`Event::SpanEnd`] carrying the same `id`; the `parent`/`id`
    /// links form the span tree (network → layer → MAC batch → solve).
    SpanBegin {
        /// Process-unique span id (never 0).
        id: u64,
        /// Id of the enclosing span, or 0 for a root span.
        parent: u64,
        /// Small sequential id of the emitting thread (first-use order,
        /// starting at 1), for trace viewers that lay out tracks.
        tid: u64,
        /// The span label.
        name: String,
        /// Begin timestamp: microseconds since the process trace epoch.
        ts: f64,
    },
    /// A scoped timer closed (see [`crate::Span`]).
    SpanEnd {
        /// Id matching the paired [`Event::SpanBegin`].
        id: u64,
        /// Elapsed wall-clock time in microseconds.
        micros: f64,
    },
    /// A run manifest: which binary produced this trace, with what
    /// command line. Emitted once at the head of `--trace` files.
    Manifest {
        /// Binary name.
        bin: String,
        /// Command-line arguments (excluding the binary path).
        args: Vec<String>,
    },
    /// `ferrocim-serve` admitted a request into the worker queue.
    ServeAdmitted {
        /// Queue depth observed right after the push.
        queue_depth: u64,
        /// The seeded per-request id echoed (as hex) in the response
        /// body, joining this event to the client-observed answer.
        /// Absent (0) in traces written before request ids existed.
        #[serde(default)]
        request_id: u64,
    },
    /// `ferrocim-serve` shed a request (admission queue full or a
    /// per-tenant concurrency quota exhausted) with a typed `429`.
    ServeShed {
        /// Queue depth observed at the shed decision.
        queue_depth: u64,
        /// The `retry_after_ms` hint returned to the client.
        retry_after_ms: u64,
        /// The seeded per-request id (0 in pre-request-id traces).
        #[serde(default)]
        request_id: u64,
        /// The shed tenant; empty when the shed happened before the
        /// request was parsed (acceptor-side queue-full sheds).
        #[serde(default)]
        tenant: String,
    },
    /// `ferrocim-serve` retried a transiently-failed solve after a
    /// backoff sleep.
    ServeRetry {
        /// 1-based retry attempt (the first retry is 1).
        attempt: u64,
        /// The jittered backoff slept before this attempt, in
        /// milliseconds.
        backoff_ms: u64,
        /// The seeded per-request id (0 in pre-request-id traces).
        #[serde(default)]
        request_id: u64,
    },
    /// `ferrocim-serve` answered a request from the calibrated
    /// transfer-curve fallback instead of a live solve (`degraded:
    /// true` in the response body).
    ServeDegraded {
        /// Whether the tenant's circuit breaker was open (as opposed to
        /// an in-request retry ladder exhausting its attempts).
        breaker_open: bool,
        /// The seeded per-request id (0 in pre-request-id traces).
        #[serde(default)]
        request_id: u64,
        /// The degraded tenant (empty in pre-request-id traces).
        #[serde(default)]
        tenant: String,
    },
    /// A tenant's circuit breaker tripped from closed to open.
    ServeBreakerOpen {
        /// Failures observed in the sliding window at the trip.
        window_failures: u64,
        /// Total outcomes in the sliding window at the trip.
        window_size: u64,
        /// The request whose recorded outcome tripped the breaker
        /// (0 in pre-request-id traces).
        #[serde(default)]
        request_id: u64,
        /// The tenant whose breaker tripped (empty in pre-request-id
        /// traces).
        #[serde(default)]
        tenant: String,
    },
    /// One `ferrocim-serve` request reached a terminal outcome. Emitted
    /// exactly once per answered request (a vanished client is the only
    /// path with no `ServeDone`), carrying the labels behind the
    /// per-tenant dimensional metrics and the SLO error budget.
    ServeDone {
        /// The seeded per-request id echoed (as hex) in the response.
        request_id: u64,
        /// The requesting tenant (`"unknown"` when the request was shed
        /// before parsing).
        tenant: String,
        /// How the request terminated.
        outcome: ServeOutcome,
        /// Which tier produced the answer.
        backend: ServeBackendKind,
        /// Admission-to-response latency in milliseconds.
        latency_ms: f64,
    },
    /// The serve SLO burn-rate monitor crossed its windowed
    /// error-budget threshold (see `Aggregator::take_slo_breach`). This
    /// event is the `DumpOn::SloBreach` flight-recorder trigger.
    SloBreach {
        /// Outcomes in the sliding window at the breach.
        window: u64,
        /// Budget-burning outcomes (shed + degraded + deadline + error)
        /// in the window.
        bad: u64,
        /// The burn rate at the breach, in percent of the window.
        burn_pct: f64,
    },
    /// A surrogate store was consulted for a MAC evaluation.
    SurrogateLookup {
        /// Whether a calibrated curve answered the query (`false` = the
        /// key missed and a live calibration had to run).
        hit: bool,
    },
    /// A check-mode subsample re-solved one surrogate-answered query
    /// through the live solver and compared it to the certified
    /// envelope.
    SurrogateCheck {
        /// Whether the deviation stayed within the certified envelope.
        ok: bool,
        /// Absolute deviation between the surrogate answer and the live
        /// solve, in volts.
        deviation: f64,
    },
    /// A full surrogate store dropped its least recently hit curve to
    /// make room for a newly calibrated one.
    SurrogateEvicted,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::NewtonIter { iteration: 3 },
            Event::NewtonResidual {
                iteration: 3,
                residual: 1.5e-7,
                damping: 0.25,
            },
            Event::NewtonConverged { iterations: 4 },
            Event::SolverSolved {
                backend: SolverBackend::Sparse,
                symbolic: true,
            },
            Event::SolverSolved {
                backend: SolverBackend::Dense,
                symbolic: false,
            },
            Event::SolveRefined {
                passes: 2,
                residual: 3.5e-12,
            },
            Event::SolveDegraded {
                stage: DegradeStageKind::DenseFallback,
                residual: 1.2e-3,
            },
            Event::StepAccepted {
                time: 1e-9,
                dt: 2e-12,
            },
            Event::StepRejected {
                time: 2e-9,
                dt: 4e-12,
            },
            Event::RescueAttempt {
                rung: RungKind::GminStepping,
                iterations: 17,
                converged: true,
            },
            Event::BudgetSpend {
                resource: ResourceKind::Steps,
                amount: 1,
            },
            Event::McRunStarted { run: 7 },
            Event::McRunDone { run: 7, ok: false },
            Event::MacIssued {
                jobs: 16,
                solves: 2,
            },
            Event::FaultSubstituted { substitute: 5 },
            Event::EpochDone {
                epoch: 0,
                loss: 2.3,
                accuracy: 0.11,
            },
            Event::SpanBegin {
                id: 9,
                parent: 3,
                tid: 1,
                name: "solve".into(),
                ts: 4521.25,
            },
            Event::SpanEnd {
                id: 9,
                micros: 12.5,
            },
            Event::Manifest {
                bin: "probe_observe".into(),
                args: vec!["--dump-dir".into(), "dumps".into()],
            },
            Event::ServeAdmitted {
                queue_depth: 3,
                request_id: 0x5EED_0001,
            },
            Event::ServeShed {
                queue_depth: 16,
                retry_after_ms: 120,
                request_id: 0x5EED_0002,
                tenant: "t1".into(),
            },
            Event::ServeRetry {
                attempt: 2,
                backoff_ms: 40,
                request_id: 0x5EED_0003,
            },
            Event::ServeDegraded {
                breaker_open: true,
                request_id: 0x5EED_0004,
                tenant: "t1".into(),
            },
            Event::ServeBreakerOpen {
                window_failures: 7,
                window_size: 10,
                request_id: 0x5EED_0005,
                tenant: "t1".into(),
            },
            Event::ServeDone {
                request_id: 0x5EED_0006,
                tenant: "t1".into(),
                outcome: ServeOutcome::Degraded,
                backend: ServeBackendKind::Fallback,
                latency_ms: 12.5,
            },
            Event::SloBreach {
                window: 64,
                bad: 40,
                burn_pct: 62.5,
            },
            Event::SurrogateLookup { hit: true },
            Event::SurrogateCheck {
                ok: false,
                deviation: 2.5e-4,
            },
            Event::SurrogateEvicted,
        ];
        for event in events {
            let text = serde_json::to_string(&event).expect("serialize");
            let back: Event = serde_json::from_str(&text).expect("deserialize");
            assert_eq!(back, event);
        }
    }
}
