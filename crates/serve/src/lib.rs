//! Overload-safe multi-tenant serving of CIM MAC simulations.
//!
//! `ferrocim-serve` exposes the `ferrocim-cim` array simulator as a
//! small HTTP/1.1 service built directly on [`std::net::TcpListener`]
//! (the workspace has no async runtime and no network registry, so the
//! server is dependency-light by construction). The interesting part is
//! not the HTTP plumbing but the robustness envelope around the solver:
//!
//! * **Admission control & load shedding** ([`queue`]) — a bounded
//!   worker pool fed by a fixed-capacity queue, plus per-tenant
//!   concurrency quotas. When either bound is hit the request is shed
//!   *immediately* with a typed `429 Overloaded` JSON body carrying a
//!   `retry_after_ms` hint, instead of queueing without bound.
//! * **Deadline propagation & cancellation** — each request's
//!   `timeout_ms` becomes a [`ferrocim_spice::Budget`] wall-clock
//!   deadline threaded into the transient solves; a client that
//!   disconnects mid-solve trips the [`ferrocim_spice::CancelToken`]
//!   via the connection watchdog, so abandoned work stops burning CPU.
//! * **Retry with backoff** ([`retry`]) — transient solver failures are
//!   retried under a deterministic, seedable exponential-backoff-with-
//!   jitter schedule, governed by a global retry *budget* so retries
//!   can never amplify an overload.
//! * **Graceful degradation** ([`breaker`], [`backend`]) — a per-tenant
//!   circuit breaker watches solve outcomes; while it is open, MAC
//!   requests fall back to the calibrated transfer-curve estimate
//!   (marked `degraded: true` in the response) instead of failing, and
//!   half-open probes restore live solving once the fault clears.
//! * **Observability** — `/metrics` renders the workspace-standard
//!   Prometheus exposition from a [`ferrocim_telemetry::Aggregator`]
//!   (including the `serve_*` counters and the per-tenant dimensional
//!   series), and `/healthz` reports queue and breaker state. Every
//!   response echoes a seeded hex `request_id` that is also attached to
//!   the request's telemetry events; the read-only `/debug/requests`,
//!   `/debug/queue`, `/debug/breakers`, and `/debug/flight` endpoints
//!   expose live internals, with `/debug/*` answered by the acceptor
//!   even when the admission queue is full.
//!
//! The crate's service tests (`tests/service.rs`) drive an in-process
//! server through overload, deadline expiry, chaos-injected solver
//! faults and drain, asserting the robustness contract end to end;
//! cimbench's `serve_mix` workload times the real backend under load.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod backend;
pub mod breaker;
pub mod chaos;
pub mod client;
pub mod http;
pub mod queue;
pub mod retry;
pub mod server;

pub use api::{ApiError, MacApiRequest};
pub use backend::{CimBackend, MacBackend, Solution, SolveRequest};
pub use breaker::{
    BreakerConfig, BreakerDecision, BreakerSnapshot, BreakerState, CircuitBreaker, TripInfo,
};
pub use chaos::{ChaosBackend, ChaosPlan};
pub use client::{http_request, HttpResponse};
pub use queue::{BoundedQueue, TenantGovernor};
pub use retry::{RetryBudget, RetryPolicy};
pub use server::{ServeConfig, Server};
