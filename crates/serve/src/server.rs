//! The service: acceptor, bounded worker pool, connection watchdog,
//! and the per-request robustness ladder.
//!
//! One request's life:
//!
//! 1. **Accept + admit.** The acceptor thread accepts the TCP
//!    connection and tries a non-blocking push into the bounded job
//!    queue. A full (or closing) queue sheds *right there* with a typed
//!    `429` carrying `retry_after_ms` — the acceptor never blocks on a
//!    slow worker pool.
//! 2. **Parse + quota.** A worker pops the job, reads the request under
//!    a read timeout, and claims the tenant's concurrency slot; an
//!    exhausted quota is the second shed point (also a typed `429`).
//! 3. **Surrogate, then solve under budget.** The calibrated surrogate
//!    store gets first refusal: an analytic request whose key is
//!    calibrated is answered from the curve (marked `surrogate: true`)
//!    with no solver work at all. Otherwise the request's `timeout_ms`
//!    (measured from *admission*, so queue wait counts) becomes a
//!    [`ferrocim_spice::Budget`] deadline, and a
//!    [`ferrocim_spice::CancelToken`] is registered with the watchdog
//!    thread, which trips it if the client disconnects mid-solve.
//! 4. **Retry, break, degrade.** Transient solver failures (numerical
//!    blowups, uncertified solves, worker-contained panics) walk the
//!    seeded backoff schedule while the global [`RetryBudget`] allows;
//!    the tenant's circuit breaker records every live outcome, and once
//!    it opens — or retries run dry — the answer comes from the
//!    surrogate's degraded tier (the startup-calibrated all-ones
//!    curve), marked `degraded: true`.
//! 5. **Answer, always typed.** Every terminal outcome is one of the
//!    bodies in [`crate::api`]; even a panic unwinds into a typed
//!    `500`, and a vanished client is the only case that produces no
//!    response at all.
//!
//! Every connection is stamped with a seeded 64-bit **request id** at
//! accept time, echoed (as fixed-width hex) in every response body and
//! attached to every `Serve*` telemetry event, so one grep correlates
//! a client-reported failure with the server's trace and flight dump.
//! Terminal MAC outcomes additionally emit one
//! [`Event::ServeDone`] each — the feed for the per-tenant dimensional
//! metrics and the SLO burn-rate monitor in
//! [`ferrocim_telemetry::Aggregator`]. The read-only `/debug/requests`,
//! `/debug/queue`, `/debug/breakers`, and `/debug/flight` endpoints
//! expose in-flight requests, admission state, breaker detail, and the
//! flight-recorder ring; `/debug/*` GETs are admission-exempt (answered
//! inline by the acceptor even when the queue is full), because
//! introspection matters most mid-incident.

use crate::api;
use crate::backend::{MacBackend, Solution, SolveRequest};
use crate::breaker::{BreakerConfig, BreakerDecision, CircuitBreaker};
use crate::http::{self, HttpError, Request};
use crate::queue::{BoundedQueue, TenantGovernor};
use crate::retry::{RetryBudget, RetryPolicy};
use ferrocim_cim::CimError;
use ferrocim_spice::{Budget, CancelToken, Deadline, SpiceError};
use ferrocim_telemetry::{
    Aggregator, Event, FlightRecorder, ServeBackendKind, ServeOutcome, Telemetry,
};
use ferrocim_units::Celsius;
use serde_json::{json, Value};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (also the live-solve concurrency bound).
    pub workers: usize,
    /// Admission-queue capacity; pushes beyond it are shed.
    pub queue_capacity: usize,
    /// Concurrent requests allowed per tenant.
    pub tenant_quota: usize,
    /// The retry ladder for transient solve failures.
    pub retry: RetryPolicy,
    /// Per-tenant circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 16,
            tenant_quota: 4,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

struct Job {
    stream: TcpStream,
    admitted_at: Instant,
    request_id: u64,
}

/// SplitMix64: turns the sequential accept counter into well-mixed,
/// reproducible request ids (seeded by [`RETRY_SEED`], so a test run's
/// ids are stable).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request currently being parsed or solved, as `/debug/requests`
/// reports it. Registered after admission, removed by RAII on every
/// exit path (including panics unwound by the worker's `catch_unwind`).
struct InflightEntry {
    request_id: u64,
    tenant: String,
    admitted_at: Instant,
    deadline_at: Option<Instant>,
}

/// An entry the watchdog polls: a dup of the connection's fd plus the
/// cancel token to trip when the peer goes away.
struct WatchEntry {
    id: u64,
    stream: TcpStream,
    token: CancelToken,
}

struct Shared {
    config: ServeConfig,
    backend: Arc<dyn MacBackend>,
    queue: Arc<BoundedQueue<Job>>,
    governor: Arc<TenantGovernor>,
    breakers: Mutex<Vec<(String, Arc<CircuitBreaker>)>>,
    retry_budget: RetryBudget,
    aggregator: Arc<Aggregator>,
    telemetry: Telemetry,
    shutting_down: AtomicBool,
    /// Set once every worker has been joined: the watchdog keeps
    /// cancelling abandoned solves through the drain and stops here.
    drained: AtomicBool,
    watch: Mutex<Vec<WatchEntry>>,
    watch_seq: AtomicU64,
    request_seq: AtomicU64,
    inflight: Mutex<Vec<InflightEntry>>,
    flight: Option<Arc<FlightRecorder>>,
}

impl Shared {
    fn breaker_for(&self, tenant: &str) -> Arc<CircuitBreaker> {
        let mut breakers = self
            .breakers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, breaker)) = breakers.iter().find(|(name, _)| name == tenant) {
            return Arc::clone(breaker);
        }
        let breaker = Arc::new(CircuitBreaker::new(self.config.breaker));
        breakers.push((tenant.to_string(), Arc::clone(&breaker)));
        breaker
    }

    fn emit(&self, event: Event) {
        self.telemetry.record(&event);
    }

    /// The client-facing backoff hint when shedding: scales with how
    /// deep the queue is so a deeply-overloaded server pushes retries
    /// further out.
    fn retry_after_hint(&self, queue_depth: usize) -> u64 {
        50 + 25 * queue_depth as u64
    }

    fn watch_register(&self, stream: &TcpStream, token: &CancelToken) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.watch_seq.fetch_add(1, Ordering::Relaxed);
        self.watch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(WatchEntry {
                id,
                stream: clone,
                token: token.clone(),
            });
        Some(id)
    }

    fn watch_deregister(&self, id: Option<u64>) {
        let Some(id) = id else { return };
        self.watch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .retain(|entry| entry.id != id);
    }

    /// Allocates the next request id: a seeded SplitMix64 mix of the
    /// accept counter, so ids look random on the wire but replay
    /// identically from run to run.
    fn next_request_id(&self) -> u64 {
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed);
        splitmix64(RETRY_SEED ^ seq)
    }

    /// Emits the terminal [`Event::ServeDone`] for one MAC request and
    /// drains the aggregator's SLO latch into a typed
    /// [`Event::SloBreach`] — routed through the same telemetry tee, so
    /// trace sinks and the flight recorder's `SloBreach` dump trigger
    /// both observe it.
    fn finish_request(
        &self,
        request_id: u64,
        tenant: &str,
        outcome: ServeOutcome,
        backend: ServeBackendKind,
        admitted_at: Instant,
    ) {
        let latency_ms = admitted_at.elapsed().as_secs_f64() * 1e3;
        self.emit(Event::ServeDone {
            request_id,
            tenant: tenant.to_string(),
            outcome,
            backend,
            latency_ms,
        });
        if let Some(info) = self.aggregator.take_slo_breach() {
            self.emit(Event::SloBreach {
                window: info.window,
                bad: info.bad,
                burn_pct: info.burn * 100.0,
            });
        }
    }

    fn inflight_register(
        &self,
        request_id: u64,
        tenant: &str,
        admitted_at: Instant,
        deadline_at: Option<Instant>,
    ) -> InflightGuard<'_> {
        self.inflight
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(InflightEntry {
                request_id,
                tenant: tenant.to_string(),
                admitted_at,
                deadline_at,
            });
        InflightGuard {
            shared: self,
            request_id,
        }
    }
}

/// RAII removal of one [`InflightEntry`]; dropping on any exit path
/// keeps `/debug/requests` free of ghosts.
struct InflightGuard<'a> {
    shared: &'a Shared,
    request_id: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.shared
            .inflight
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .retain(|entry| entry.request_id != self.request_id);
    }
}

/// A running service; dropping it without [`Server::shutdown`] aborts
/// the threads detached (tests should always call `shutdown`).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor + worker pool + watchdog, and returns
    /// once the service is accepting connections.
    ///
    /// `telemetry` receives every serve event and should usually wrap
    /// `aggregator` (plus any trace sink); the aggregator is what
    /// `/metrics` renders.
    ///
    /// # Errors
    ///
    /// Returns binding failures.
    pub fn start(
        config: ServeConfig,
        backend: Arc<dyn MacBackend>,
        telemetry: Telemetry,
        aggregator: Arc<Aggregator>,
    ) -> std::io::Result<Server> {
        Server::start_observed(config, backend, telemetry, aggregator, None)
    }

    /// [`Server::start`] plus an optional flight recorder. The recorder
    /// should already be wired into `telemetry` (usually via
    /// [`ferrocim_telemetry::Tee`]) so it sees every event; passing it
    /// here additionally exposes its ring at `GET /debug/flight`.
    ///
    /// # Errors
    ///
    /// Returns binding failures.
    pub fn start_observed(
        config: ServeConfig,
        backend: Arc<dyn MacBackend>,
        telemetry: Telemetry,
        aggregator: Arc<Aggregator>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            governor: TenantGovernor::new(config.tenant_quota),
            retry_budget: RetryBudget::new(RETRY_DEPOSIT_MILLIS, RETRY_BUDGET_CAP),
            breakers: Mutex::new(Vec::new()),
            aggregator,
            telemetry,
            shutting_down: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            watch: Mutex::new(Vec::new()),
            watch_seq: AtomicU64::new(0),
            request_seq: AtomicU64::new(0),
            inflight: Mutex::new(Vec::new()),
            flight,
            backend,
            config,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The aggregator `/metrics` renders (for in-process assertions).
    pub fn aggregator(&self) -> &Arc<Aggregator> {
        &self.shared.aggregator
    }

    /// The flight recorder `/debug/flight` exposes, when one was wired
    /// in via [`Server::start_observed`].
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.flight.as_ref()
    }

    /// Graceful shutdown: stop accepting, drain every admitted job,
    /// join all threads. The watchdog stops last, so a client that
    /// hangs up during the drain still cancels its solve. Idempotent
    /// against a racing drop.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Only after the acceptor stops pushing may the queue close;
        // workers drain what was admitted, then observe `None`.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.drained.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        let request_id = shared.next_request_id();
        if shared.shutting_down.load(Ordering::SeqCst) {
            // A connection that slipped in during shutdown still gets a
            // typed shed (this also answers the shutdown's own wake-up
            // connect, which ignores it).
            respond_and_drain(
                stream,
                429,
                "Too Many Requests",
                &api::overloaded_body("draining", shared.retry_after_hint(0), 0, request_id),
            );
            return;
        }
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_nodelay(true);
        match shared.queue.push(Job {
            stream,
            admitted_at: Instant::now(),
            request_id,
        }) {
            Ok(depth) => {
                shared.emit(Event::ServeAdmitted {
                    queue_depth: depth as u64,
                    request_id,
                });
                shared.retry_budget.deposit();
            }
            Err(job) => shed_or_debug(shared, job),
        }
    }
}

/// How long the acceptor waits on a peer: for the request it reads
/// before shedding, and for the drain after a shed reply.
const SHED_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Per-connection socket read timeout on the workers, also the deadline
/// for a whole request to arrive.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Deadline applied when a request carries no `timeout_ms`.
const DEFAULT_TIMEOUT_MS: u64 = 2_000;

/// Upper clamp on client-requested deadlines.
const MAX_TIMEOUT_MS: u64 = 30_000;

/// Base seed of the request ids, which in turn seed each request's
/// jittered backoff schedule.
const RETRY_SEED: u64 = 0x5EED;

/// Milli-tokens deposited into the retry budget per admission (1000 =
/// one whole retry, so 100 caps retries at 10% of traffic).
const RETRY_DEPOSIT_MILLIS: u64 = 100;

/// Retries the retry budget may bank.
const RETRY_BUDGET_CAP: u64 = 10;

/// The queue-full path. Introspection must keep working *especially*
/// under overload, so before shedding, the acceptor reads the request
/// under a tight bound and answers a `GET /debug/*` inline — the same
/// 100 ms the shed drain already tolerates, because the response to a
/// full queue must never depend on the wedged worker pool. Anything
/// else is shed with the typed 429.
fn shed_or_debug(shared: &Shared, mut job: Job) {
    let _ = job.stream.set_read_timeout(Some(SHED_READ_TIMEOUT));
    if let Ok(request) = http::read_request(&mut job.stream, SHED_READ_TIMEOUT) {
        if request.method == "GET"
            && request.path.starts_with("/debug/")
            && serve_debug(shared, &mut job.stream, &request.path, job.request_id)
        {
            return;
        }
    }
    let depth = shared.queue.depth();
    let retry_after_ms = shared.retry_after_hint(depth);
    shared.emit(Event::ServeShed {
        queue_depth: depth as u64,
        retry_after_ms,
        request_id: job.request_id,
        // Shed before the body was parsed: the tenant is unknowable.
        tenant: "unknown".to_string(),
    });
    shared.finish_request(
        job.request_id,
        "unknown",
        ServeOutcome::Shed,
        ServeBackendKind::None,
        job.admitted_at,
    );
    respond_and_drain(
        job.stream,
        429,
        "Too Many Requests",
        &api::overloaded_body("queue_full", retry_after_ms, depth, job.request_id),
    );
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &Value) {
    let text = serde_json::to_string(body).unwrap_or_else(|_| "{}".to_string());
    // A peer that vanished mid-response already has everything the
    // service can give it; the watchdog/cancel path owns that case.
    let _ = http::write_response(stream, status, reason, "application/json", text.as_bytes());
}

/// Responds on a stream whose request was (possibly) never read, then
/// drains the unread bytes before closing. Closing a socket with
/// unread inbound data makes the kernel send RST instead of FIN, and a
/// RST discards the response sitting in the peer's receive queue — the
/// shed reply would be destroyed exactly when the client needs it.
fn respond_and_drain(mut stream: TcpStream, status: u16, reason: &str, body: &Value) {
    use std::io::Read as _;
    respond(&mut stream, status, reason, body);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Bounded drain: waits briefly for the peer to finish sending (and
    // to close after reading the response), giving a clean FIN-FIN
    // teardown without letting a slow sender hold the acceptor hostage.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(SHED_READ_TIMEOUT));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(shared, job)));
        if let Err(_panic) = outcome {
            // The connection was consumed by the panicking handler; all
            // we can still do is keep the worker alive for the next job.
            // Solver panics are contained deeper (per-attempt), so this
            // only triggers on bugs in the serving layer itself.
        }
    }
}

fn handle_connection(shared: &Shared, mut job: Job) {
    let request = match http::read_request(&mut job.stream, READ_TIMEOUT) {
        Ok(request) => request,
        Err(HttpError::Disconnected) => return,
        Err(e @ (HttpError::Malformed(_) | HttpError::TooLarge(_))) => {
            // The request may be partially unread (e.g. an oversized
            // body) — drain it so the close is a FIN, not a RST.
            respond_and_drain(
                job.stream,
                400,
                "Bad Request",
                &api::bad_request_body(&e.to_string(), job.request_id),
            );
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = healthz_body(shared);
            respond(&mut job.stream, 200, "OK", &body);
        }
        ("GET", "/metrics") => {
            let text = shared.aggregator.render_prometheus();
            let _ = http::write_response(
                &mut job.stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                text.as_bytes(),
            );
        }
        ("GET", path) if path.starts_with("/debug/") => {
            if !serve_debug(shared, &mut job.stream, path, job.request_id) {
                respond(
                    &mut job.stream,
                    404,
                    "Not Found",
                    &json!({"ok": false, "error": "not_found"}),
                );
            }
        }
        ("POST", "/v1/mac") => handle_mac(shared, job, &request),
        _ => {
            respond(
                &mut job.stream,
                404,
                "Not Found",
                &json!({"ok": false, "error": "not_found"}),
            );
        }
    }
}

/// Serves the read-only introspection endpoints. Returns `false` when
/// the path is not a known debug view (the caller owns the 404 or the
/// shed). Everything here reads shared state under short locks and
/// never touches the solver, so it is safe to call from the acceptor.
fn serve_debug(shared: &Shared, stream: &mut TcpStream, path: &str, request_id: u64) -> bool {
    match path {
        "/debug/requests" => {
            let now = Instant::now();
            let requests: Vec<Value> =
                shared
                    .inflight
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .iter()
                    .map(|entry| {
                        let budget_remaining_ms = match entry.deadline_at {
                            Some(deadline) => Value::Number(
                                deadline.saturating_duration_since(now).as_millis() as f64,
                            ),
                            None => Value::Null,
                        };
                        json!({
                            "request_id": (api::request_id_hex(entry.request_id)),
                            "tenant": (entry.tenant.as_str()),
                            "age_ms": (now.saturating_duration_since(entry.admitted_at)
                                .as_millis() as u64),
                            "budget_remaining_ms": budget_remaining_ms
                        })
                    })
                    .collect();
            let body = json!({
                "ok": true,
                "request_id": (api::request_id_hex(request_id)),
                "in_flight": (requests.len() as u64),
                "requests": (Value::Array(requests))
            });
            respond(stream, 200, "OK", &body);
            true
        }
        "/debug/queue" => {
            let tenants: Vec<Value> = shared
                .governor
                .snapshot()
                .into_iter()
                .map(|(tenant, in_flight)| {
                    json!({"tenant": (tenant), "in_flight": (in_flight as u64)})
                })
                .collect();
            let body = json!({
                "ok": true,
                "request_id": (api::request_id_hex(request_id)),
                "depth": (shared.queue.depth() as u64),
                "capacity": (shared.queue.capacity() as u64),
                "workers": (shared.config.workers as u64),
                "tenant_quota": (shared.governor.quota() as u64),
                "retries_banked": (shared.retry_budget.available()),
                "shutting_down": (shared.shutting_down.load(Ordering::SeqCst)),
                "tenants": (Value::Array(tenants))
            });
            respond(stream, 200, "OK", &body);
            true
        }
        "/debug/breakers" => {
            let breakers: Vec<Value> = shared
                .breakers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .iter()
                .map(|(tenant, breaker)| {
                    let snap = breaker.snapshot();
                    json!({
                        "tenant": (tenant.as_str()),
                        "state": (snap.state.name()),
                        "window_failures": (snap.window_failures),
                        "window_size": (snap.window_size),
                        "cooldown_remaining_ms": (snap.cooldown_remaining_ms),
                        "probes_in_flight": (snap.probes_in_flight)
                    })
                })
                .collect();
            let body = json!({
                "ok": true,
                "request_id": (api::request_id_hex(request_id)),
                "breakers": (Value::Array(breakers))
            });
            respond(stream, 200, "OK", &body);
            true
        }
        "/debug/flight" => {
            match &shared.flight {
                Some(flight) => {
                    // The ring, rendered as the same ferrocim-trace-v1
                    // JSONL a dump file holds — pipe it straight into
                    // `ferrocim-trace summary -`.
                    let text = flight.render();
                    let _ = http::write_response(
                        stream,
                        200,
                        "OK",
                        "application/x-ndjson",
                        text.as_bytes(),
                    );
                }
                None => {
                    respond(
                        stream,
                        404,
                        "Not Found",
                        &json!({
                            "ok": false,
                            "error": "no_flight_recorder",
                            "request_id": (api::request_id_hex(request_id))
                        }),
                    );
                }
            }
            true
        }
        _ => false,
    }
}

fn healthz_body(shared: &Shared) -> Value {
    let breakers: Vec<Value> = shared
        .breakers
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .iter()
        .map(|(tenant, breaker)| {
            json!({
                "tenant": (tenant.as_str()),
                "state": (breaker.state().name())
            })
        })
        .collect();
    let draining = shared.shutting_down.load(Ordering::SeqCst);
    let any_open = breakers
        .iter()
        .any(|b| b.get("state") == Some(&Value::String("open".into())));
    let status = if draining {
        "draining"
    } else if any_open {
        "degraded"
    } else {
        "ok"
    };
    json!({
        "status": (status),
        "queue_depth": (shared.queue.depth() as u64),
        "queue_capacity": (shared.queue.capacity() as u64),
        "workers": (shared.config.workers as u64),
        "tenant_quota": (shared.governor.quota() as u64),
        "retries_banked": (shared.retry_budget.available()),
        "breakers": (Value::Array(breakers))
    })
}

/// How one live solve attempt ended, from the server's point of view.
enum AttemptOutcome {
    Ok(Solution),
    /// Retryable: blowups, convergence failures, uncertified solves,
    /// singular systems, and solver panics (contained per-attempt).
    Transient(String),
    /// The request's wall-clock budget ran out mid-solve.
    DeadlineExceeded,
    /// The client disconnected; the watchdog tripped the cancel token.
    Cancelled,
    /// Non-retryable solver misuse (surfaces as a typed 500).
    Fatal(String),
}

fn classify(
    result: Result<Result<Solution, CimError>, Box<dyn std::any::Any + Send>>,
) -> AttemptOutcome {
    match result {
        Ok(Ok(solution)) => AttemptOutcome::Ok(solution),
        Ok(Err(CimError::Spice(e))) => match e {
            SpiceError::NumericalBlowup { .. }
            | SpiceError::NoConvergence { .. }
            | SpiceError::UncertifiedSolve { .. }
            | SpiceError::SingularMatrix { .. } => AttemptOutcome::Transient(e.to_string()),
            SpiceError::Cancelled => AttemptOutcome::Cancelled,
            SpiceError::BudgetExceeded { .. } => AttemptOutcome::DeadlineExceeded,
            other => AttemptOutcome::Fatal(other.to_string()),
        },
        Ok(Err(other)) => AttemptOutcome::Fatal(other.to_string()),
        Err(_panic) => AttemptOutcome::Transient("solver panicked".to_string()),
    }
}

fn handle_mac(shared: &Shared, mut job: Job, request: &Request) {
    let request_id = job.request_id;
    let parsed = match api::MacApiRequest::parse(&request.body) {
        Ok(parsed) => parsed,
        Err(e) => {
            shared.finish_request(
                request_id,
                // The tenant field never parsed: unknowable.
                "unknown",
                ServeOutcome::Rejected,
                ServeBackendKind::None,
                job.admitted_at,
            );
            respond(
                &mut job.stream,
                400,
                "Bad Request",
                &api::bad_request_body(&e.message, request_id),
            );
            return;
        }
    };
    let width = shared.backend.cells_per_row();
    if parsed.inputs.len() != width || parsed.weights.len() != width {
        shared.finish_request(
            request_id,
            &parsed.tenant,
            ServeOutcome::Rejected,
            ServeBackendKind::None,
            job.admitted_at,
        );
        respond(
            &mut job.stream,
            400,
            "Bad Request",
            &api::bad_request_body(
                &format!(
                    "inputs and weights must each have exactly {width} entries \
                     (got {} and {})",
                    parsed.inputs.len(),
                    parsed.weights.len()
                ),
                request_id,
            ),
        );
        return;
    }
    // Second admission layer: the tenant's concurrency quota.
    let Some(permit) = shared.governor.try_acquire(&parsed.tenant) else {
        let depth = shared.queue.depth();
        let retry_after_ms = shared.retry_after_hint(depth);
        shared.emit(Event::ServeShed {
            queue_depth: depth as u64,
            retry_after_ms,
            request_id,
            tenant: parsed.tenant.clone(),
        });
        shared.finish_request(
            request_id,
            &parsed.tenant,
            ServeOutcome::Shed,
            ServeBackendKind::None,
            job.admitted_at,
        );
        respond(
            &mut job.stream,
            429,
            "Too Many Requests",
            &api::overloaded_body("tenant_quota", retry_after_ms, depth, request_id),
        );
        return;
    };
    // The deadline runs from *admission*, so time spent queued counts.
    let timeout_ms = parsed
        .timeout_ms
        .unwrap_or(DEFAULT_TIMEOUT_MS)
        .min(MAX_TIMEOUT_MS);
    let deadline_at = job.admitted_at + Duration::from_millis(timeout_ms);
    if Instant::now() >= deadline_at {
        shared.finish_request(
            request_id,
            &parsed.tenant,
            ServeOutcome::Deadline,
            ServeBackendKind::None,
            job.admitted_at,
        );
        respond(
            &mut job.stream,
            504,
            "Gateway Timeout",
            &api::deadline_body("deadline expired while queued", request_id),
        );
        return;
    }
    let token = CancelToken::new();
    let budget = Budget::unlimited()
        .with_deadline(Deadline::at(deadline_at))
        .with_cancel_token(&token);
    let solve = SolveRequest {
        inputs: parsed.inputs.clone(),
        weights: parsed.weights.clone(),
        temp: Celsius(parsed.temp_c),
        budget,
        path: parsed.path,
    };
    // Hand the connection to the watchdog for the duration of the
    // solve. The dup'd fd shares O_NONBLOCK with ours, so from here on
    // the response write must tolerate `WouldBlock` (it does).
    let _ = job.stream.set_nonblocking(true);
    let watch_id = shared.watch_register(&job.stream, &token);
    let inflight = shared.inflight_register(
        request_id,
        &parsed.tenant,
        job.admitted_at,
        Some(deadline_at),
    );
    run_mac(
        shared,
        &mut job.stream,
        &parsed.tenant,
        &solve,
        deadline_at,
        request_id,
        job.admitted_at,
    );
    drop(inflight);
    shared.watch_deregister(watch_id);
    drop(permit);
}

fn run_mac(
    shared: &Shared,
    stream: &mut TcpStream,
    tenant: &str,
    solve: &SolveRequest,
    deadline_at: Instant,
    request_id: u64,
    admitted_at: Instant,
) {
    // Surrogate fast path first: a calibrated key answers without any
    // solver work, so it neither consumes a breaker probe slot nor
    // records an outcome — the breaker tracks the health of the *live*
    // solver, which this path never touched.
    if let Some(solution) = shared.backend.surrogate(solve) {
        respond(
            stream,
            200,
            "OK",
            &api::ok_body(&solution, 0, false, None, request_id),
        );
        shared.finish_request(
            request_id,
            tenant,
            ServeOutcome::Ok,
            ServeBackendKind::Surrogate,
            admitted_at,
        );
        return;
    }
    let breaker = shared.breaker_for(tenant);
    let decision = breaker.decide();
    if decision == BreakerDecision::Deny {
        let fallback = shared.backend.fallback(solve);
        shared.emit(Event::ServeDegraded {
            breaker_open: true,
            request_id,
            tenant: tenant.to_string(),
        });
        respond(
            stream,
            200,
            "OK",
            &api::ok_body(&fallback, 0, true, Some("circuit breaker open"), request_id),
        );
        shared.finish_request(
            request_id,
            tenant,
            ServeOutcome::Degraded,
            ServeBackendKind::Fallback,
            admitted_at,
        );
        return;
    }
    let is_probe = decision == BreakerDecision::Probe;
    let remaining_ms = deadline_at
        .saturating_duration_since(Instant::now())
        .as_millis() as u64;
    let schedule = if is_probe {
        // Half-open probes never retry: one attempt, report faithfully.
        Vec::new()
    } else {
        // The request id is already a seeded SplitMix64 mix of the
        // accept counter, so it doubles as the jitter seed.
        shared.config.retry.schedule(request_id, remaining_ms)
    };
    let mut attempts: u32 = 0;
    let mut backoffs = schedule.into_iter();
    loop {
        attempts += 1;
        let outcome = classify(catch_unwind(AssertUnwindSafe(|| {
            shared.backend.solve(solve)
        })));
        match outcome {
            AttemptOutcome::Ok(solution) => {
                if let Some(trip) = breaker.record(true) {
                    shared.emit(Event::ServeBreakerOpen {
                        window_failures: trip.window_failures,
                        window_size: trip.window_size,
                        request_id,
                        tenant: tenant.to_string(),
                    });
                }
                respond(
                    stream,
                    200,
                    "OK",
                    &api::ok_body(&solution, attempts, false, None, request_id),
                );
                shared.finish_request(
                    request_id,
                    tenant,
                    ServeOutcome::Ok,
                    ServeBackendKind::Live,
                    admitted_at,
                );
                return;
            }
            AttemptOutcome::Cancelled => {
                // Client is gone: the solver did not fail, so a closed
                // breaker records nothing — but an abandoned half-open
                // probe must release its slot (conservatively, as a
                // failure) or the breaker would stay half-open forever.
                if is_probe {
                    breaker.record(false);
                }
                return;
            }
            AttemptOutcome::DeadlineExceeded => {
                if is_probe {
                    breaker.record(false);
                }
                respond(
                    stream,
                    504,
                    "Gateway Timeout",
                    &api::deadline_body("solve exceeded the request deadline", request_id),
                );
                shared.finish_request(
                    request_id,
                    tenant,
                    ServeOutcome::Deadline,
                    ServeBackendKind::None,
                    admitted_at,
                );
                return;
            }
            AttemptOutcome::Fatal(message) => {
                if is_probe {
                    breaker.record(false);
                }
                respond(
                    stream,
                    500,
                    "Internal Server Error",
                    &api::internal_body(&message, request_id),
                );
                shared.finish_request(
                    request_id,
                    tenant,
                    ServeOutcome::Error,
                    ServeBackendKind::None,
                    admitted_at,
                );
                return;
            }
            AttemptOutcome::Transient(message) => {
                if let Some(trip) = breaker.record(false) {
                    shared.emit(Event::ServeBreakerOpen {
                        window_failures: trip.window_failures,
                        window_size: trip.window_size,
                        request_id,
                        tenant: tenant.to_string(),
                    });
                }
                let next_backoff = backoffs.next();
                // `state()` (not `decide()`): mid-request checks must
                // never claim a half-open probe slot they won't use.
                let can_retry = next_backoff.is_some_and(|backoff| {
                    Instant::now() + Duration::from_millis(backoff) < deadline_at
                        && breaker.state() == crate::breaker::BreakerState::Closed
                        && shared.retry_budget.try_spend()
                });
                if let (true, Some(backoff)) = (can_retry, next_backoff) {
                    shared.emit(Event::ServeRetry {
                        attempt: attempts as u64,
                        backoff_ms: backoff,
                        request_id,
                    });
                    std::thread::sleep(Duration::from_millis(backoff));
                    continue;
                }
                // Out of retries (schedule, deadline, budget, or the
                // breaker just opened): degrade instead of failing.
                let fallback = shared.backend.fallback(solve);
                shared.emit(Event::ServeDegraded {
                    breaker_open: breaker.state() == crate::breaker::BreakerState::Open,
                    request_id,
                    tenant: tenant.to_string(),
                });
                respond(
                    stream,
                    200,
                    "OK",
                    &api::ok_body(&fallback, attempts, false, Some(&message), request_id),
                );
                shared.finish_request(
                    request_id,
                    tenant,
                    ServeOutcome::Degraded,
                    ServeBackendKind::Fallback,
                    admitted_at,
                );
                return;
            }
        }
    }
}

fn watchdog_loop(shared: &Shared) {
    let mut buf = [0u8; 1];
    while !shared.drained.load(Ordering::SeqCst) {
        {
            let watch = shared
                .watch
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for entry in watch.iter() {
                match entry.stream.peek(&mut buf) {
                    // EOF: the peer closed its write half (or the whole
                    // connection) — stop burning solver time on it.
                    Ok(0) => entry.token.cancel(),
                    // Data waiting or nothing yet: the peer is alive.
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // Reset/aborted: the peer is gone.
                    Err(_) => entry.token.cancel(),
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
