//! End-to-end service tests over real TCP connections.
//!
//! Most tests use a stub backend so they exercise the *serving* layers
//! (admission, deadlines, retries, breaker, shutdown) at millisecond
//! speed; one test runs the real `CimBackend` end to end. Every
//! response observed anywhere in this file must be one of the typed
//! bodies — that is the robustness contract. The timing of the real
//! backend under concurrent load is cimbench's `serve_mix` workload.

use ferrocim_cim::CimError;
use ferrocim_serve::{
    http_request, BreakerConfig, ChaosBackend, ChaosPlan, CimBackend, MacBackend, RetryPolicy,
    ServeConfig, Server, Solution, SolveRequest,
};
use ferrocim_telemetry::{Aggregator, FlightRecorder, Tee, Telemetry};
use ferrocim_units::Volt;
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fast deterministic backend that honors the request budget while
/// "solving", so deadline and cancellation propagation are testable
/// without a real transient.
struct StubBackend {
    width: usize,
    solve_delay: Duration,
}

impl StubBackend {
    fn instant(width: usize) -> StubBackend {
        StubBackend {
            width,
            solve_delay: Duration::ZERO,
        }
    }

    fn slow(width: usize, delay: Duration) -> StubBackend {
        StubBackend {
            width,
            solve_delay: delay,
        }
    }
}

impl MacBackend for StubBackend {
    fn solve(&self, request: &SolveRequest) -> Result<Solution, CimError> {
        let end = Instant::now() + self.solve_delay;
        loop {
            request.budget.check().map_err(CimError::Spice)?;
            if Instant::now() >= end {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let k = request.true_mac();
        Ok(Solution {
            v_acc: Volt(0.05 * k as f64),
            readout: k,
            expected: k,
            energy_j: 1.0e-15,
            latency_s: 6.9e-9,
            degraded: false,
            surrogate: false,
        })
    }

    fn fallback(&self, request: &SolveRequest) -> Solution {
        let k = request.true_mac();
        Solution {
            v_acc: Volt(0.05 * k as f64),
            readout: k,
            expected: k,
            energy_j: 0.0,
            latency_s: 0.0,
            degraded: true,
            surrogate: false,
        }
    }

    fn cells_per_row(&self) -> usize {
        self.width
    }
}

fn start(config: ServeConfig, backend: Arc<dyn MacBackend>) -> Server {
    let aggregator = Arc::new(Aggregator::new());
    let telemetry = Telemetry::new(aggregator.clone());
    Server::start(config, backend, telemetry, aggregator).expect("bind ephemeral port")
}

fn mac_body(tenant: &str, timeout_ms: u64) -> Vec<u8> {
    format!(
        r#"{{"tenant":"{tenant}","inputs":[true,true,false,false],
            "weights":[true,true,true,false],"timeout_ms":{timeout_ms}}}"#
    )
    .into_bytes()
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Asserts a body is one of the typed response shapes and returns it.
fn typed_json(status: u16, body: &[u8]) -> Value {
    let text = std::str::from_utf8(body).expect("response body is UTF-8");
    let doc: Value = serde_json::from_str(text).expect("response body is JSON");
    match status {
        200 => assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "200 carries ok"),
        429 => {
            assert_eq!(
                doc.get("error"),
                Some(&Value::String("overloaded".into())),
                "429 is the typed overload body"
            );
            assert!(
                matches!(doc.get("retry_after_ms"), Some(Value::Number(n)) if *n > 0.0),
                "429 carries a positive retry_after_ms"
            );
        }
        504 => assert_eq!(
            doc.get("error"),
            Some(&Value::String("deadline_exceeded".into()))
        ),
        400 => assert_eq!(doc.get("error"), Some(&Value::String("bad_request".into()))),
        500 => assert_eq!(doc.get("error"), Some(&Value::String("internal".into()))),
        other => panic!("untyped status {other}: {text}"),
    }
    doc
}

#[test]
fn ok_request_round_trips_with_health_and_metrics() {
    let server = start(ServeConfig::default(), Arc::new(StubBackend::instant(4)));
    let addr = server.addr();
    let resp = http_request(
        addr,
        "POST",
        "/v1/mac",
        &mac_body("t0", 2000),
        CLIENT_TIMEOUT,
    )
    .expect("request");
    assert_eq!(resp.status, 200);
    let doc = typed_json(resp.status, &resp.body);
    assert_eq!(doc.get("expected"), Some(&Value::Number(2.0)));
    assert_eq!(doc.get("degraded"), Some(&Value::Bool(false)));

    let health = http_request(addr, "GET", "/healthz", b"", CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    let health_doc = health.json().expect("healthz JSON");
    assert_eq!(health_doc.get("status"), Some(&Value::String("ok".into())));

    let metrics = http_request(addr, "GET", "/metrics", b"", CLIENT_TIMEOUT).expect("metrics");
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    assert!(text.contains("ferrocim_serve_admitted_total"));
    let counts = server.aggregator().counts();
    assert!(counts.serve_admitted >= 3, "all three requests admitted");
    assert_eq!(counts.serve_shed, 0);
    server.shutdown();
}

/// Most of an overload burst that may be shed.
const MAX_SHED_RATE: f64 = 0.95;
/// Slowest client-observed p99 tolerated under overload.
const MAX_OVERLOAD_P99: Duration = Duration::from_millis(2000);
/// Fewest requests an overload burst must still complete.
const MIN_OVERLOAD_OK: usize = 2;

#[test]
fn overload_sheds_typed_429_and_never_wedges() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        tenant_quota: 64,
        ..ServeConfig::default()
    };
    let server = start(
        config,
        Arc::new(StubBackend::slow(4, Duration::from_millis(150))),
    );
    let addr = server.addr();
    let clients: Vec<_> = (0..10)
        .map(|i| {
            std::thread::spawn(move || {
                let started = Instant::now();
                let resp = http_request(
                    addr,
                    "POST",
                    "/v1/mac",
                    &mac_body(&format!("t{i}"), 5000),
                    CLIENT_TIMEOUT,
                );
                (resp, started.elapsed())
            })
        })
        .collect();
    let mut ok = 0;
    let mut shed = 0;
    let mut latencies = Vec::new();
    for client in clients {
        let (resp, latency) = client.join().expect("client thread");
        let resp = resp.expect("response");
        typed_json(resp.status, &resp.body);
        match resp.status {
            200 => ok += 1,
            429 => shed += 1,
            other => panic!("unexpected status under overload: {other}"),
        }
        latencies.push(latency);
    }
    assert!(
        ok >= MIN_OVERLOAD_OK,
        "only {ok} requests completed (floor {MIN_OVERLOAD_OK})"
    );
    assert!(shed >= 1, "a 1-worker/2-deep server must shed 10 bursts");
    let shed_rate = shed as f64 / latencies.len() as f64;
    assert!(
        shed_rate <= MAX_SHED_RATE,
        "shed rate {shed_rate:.2} exceeds {MAX_SHED_RATE}"
    );
    // Over ten calls the nearest-rank p99 is the slowest one.
    let p99 = *latencies.iter().max().expect("ten calls");
    assert!(
        p99 <= MAX_OVERLOAD_P99,
        "client p99 {p99:?} exceeds {MAX_OVERLOAD_P99:?}"
    );
    let counts = server.aggregator().counts();
    assert_eq!(counts.serve_shed, shed as u64);
    // The server is still healthy after the burst.
    let resp = http_request(
        addr,
        "POST",
        "/v1/mac",
        &mac_body("after", 5000),
        CLIENT_TIMEOUT,
    )
    .expect("post-burst request");
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn tenant_quota_sheds_second_request() {
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 16,
        tenant_quota: 1,
        ..ServeConfig::default()
    };
    let server = start(
        config,
        Arc::new(StubBackend::slow(4, Duration::from_millis(200))),
    );
    let addr = server.addr();
    let first = std::thread::spawn(move || {
        http_request(
            addr,
            "POST",
            "/v1/mac",
            &mac_body("hog", 5000),
            CLIENT_TIMEOUT,
        )
    });
    std::thread::sleep(Duration::from_millis(60));
    let second = http_request(
        addr,
        "POST",
        "/v1/mac",
        &mac_body("hog", 5000),
        CLIENT_TIMEOUT,
    )
    .expect("second request");
    assert_eq!(second.status, 429, "same-tenant concurrent request shed");
    let doc = typed_json(second.status, &second.body);
    assert_eq!(
        doc.get("reason"),
        Some(&Value::String("tenant_quota".into()))
    );
    // A different tenant is unaffected.
    let other = http_request(
        addr,
        "POST",
        "/v1/mac",
        &mac_body("other", 5000),
        CLIENT_TIMEOUT,
    )
    .expect("other tenant");
    assert_eq!(other.status, 200);
    let first = first.join().expect("join").expect("first response");
    assert_eq!(first.status, 200);
    server.shutdown();
}

#[test]
fn expired_deadline_is_a_typed_504() {
    let server = start(
        ServeConfig::default(),
        Arc::new(StubBackend::slow(4, Duration::from_secs(5))),
    );
    let addr = server.addr();
    let resp =
        http_request(addr, "POST", "/v1/mac", &mac_body("t", 80), CLIENT_TIMEOUT).expect("request");
    assert_eq!(resp.status, 504);
    typed_json(resp.status, &resp.body);
    server.shutdown();
}

#[test]
fn malformed_bodies_get_typed_400() {
    let server = start(ServeConfig::default(), Arc::new(StubBackend::instant(4)));
    let addr = server.addr();
    for body in [
        b"not json at all".to_vec(),
        br#"{"inputs":[true],"weights":[true]}"#.to_vec(), // wrong width
        br#"{"inputs":"x","weights":[true]}"#.to_vec(),
    ] {
        let resp = http_request(addr, "POST", "/v1/mac", &body, CLIENT_TIMEOUT).expect("request");
        assert_eq!(resp.status, 400);
        typed_json(resp.status, &resp.body);
    }
    let resp = http_request(addr, "GET", "/nope", b"", CLIENT_TIMEOUT).expect("request");
    assert_eq!(resp.status, 404);
    server.shutdown();
}

/// A temperature at or below absolute zero is the client's error: it is
/// refused at parse time, before any solve, so it neither retries nor
/// counts against the tenant's breaker.
#[test]
fn temperature_below_absolute_zero_is_a_typed_400_that_spares_the_breaker() {
    let config = ServeConfig {
        breaker: BreakerConfig {
            window: 2,
            min_samples: 2,
            trip_error_rate: 0.5,
            cooldown: Duration::from_secs(30),
            half_open_probes: 1,
        },
        ..ServeConfig::default()
    };
    let server = start(config, Arc::new(StubBackend::instant(4)));
    let addr = server.addr();
    for temp_c in ["-300", "-273.15", "-300", "-1e300"] {
        let body = format!(
            r#"{{"tenant":"cold","inputs":[true,true,false,false],
                "weights":[true,true,true,false],"timeout_ms":2000,"temp_c":{temp_c}}}"#
        );
        let resp = http_request(addr, "POST", "/v1/mac", body.as_bytes(), CLIENT_TIMEOUT)
            .expect("request");
        assert_eq!(resp.status, 400, "temp_c {temp_c}");
        let doc = typed_json(resp.status, &resp.body);
        assert!(
            matches!(doc.get("message"), Some(Value::String(m)) if m.contains("temp_c")),
            "the 400 names the field: {doc:?}"
        );
    }
    let resp = http_request(
        addr,
        "POST",
        "/v1/mac",
        &mac_body("cold", 2000),
        CLIENT_TIMEOUT,
    )
    .expect("request");
    assert_eq!(resp.status, 200);
    let doc = typed_json(resp.status, &resp.body);
    assert_eq!(doc.get("degraded"), Some(&Value::Bool(false)));
    assert_eq!(doc.get("breaker_open"), Some(&Value::Bool(false)));
    let counts = server.aggregator().counts();
    assert_eq!(counts.serve_retries, 0);
    assert_eq!(counts.serve_breaker_open, 0);
    let health = http_request(addr, "GET", "/healthz", b"", CLIENT_TIMEOUT).expect("healthz");
    let health_doc = health.json().expect("healthz JSON");
    assert_eq!(health_doc.get("status"), Some(&Value::String("ok".into())));
    server.shutdown();
}

#[test]
fn chaos_faults_degrade_then_trip_the_breaker() {
    let config = ServeConfig {
        workers: 2,
        retry: RetryPolicy {
            max_attempts: 2,
            base_ms: 1,
            multiplier: 1.0,
            cap_ms: 2,
            jitter: 0.5,
        },
        breaker: BreakerConfig {
            window: 4,
            min_samples: 4,
            trip_error_rate: 0.5,
            cooldown: Duration::from_secs(30),
            half_open_probes: 1,
        },
        ..ServeConfig::default()
    };
    let chaotic = ChaosBackend::new(
        StubBackend::instant(4),
        ChaosPlan {
            seed: 7,
            blowup_probability: 1.0,
            uncertified_probability: 0.0,
            panic_probability: 0.0,
        },
    );
    let server = start(config, Arc::new(chaotic));
    let addr = server.addr();
    let mut saw_breaker_open_response = false;
    for _ in 0..8 {
        let resp = http_request(
            addr,
            "POST",
            "/v1/mac",
            &mac_body("t", 2000),
            CLIENT_TIMEOUT,
        )
        .expect("request");
        assert_eq!(resp.status, 200, "faults degrade, never fail");
        let doc = typed_json(resp.status, &resp.body);
        assert_eq!(
            doc.get("degraded"),
            Some(&Value::Bool(true)),
            "every all-faulty solve must fall back"
        );
        assert_eq!(
            doc.get("expected"),
            Some(&Value::Number(2.0)),
            "the fallback still answers the MAC"
        );
        if doc.get("breaker_open") == Some(&Value::Bool(true)) {
            saw_breaker_open_response = true;
        }
    }
    assert!(
        saw_breaker_open_response,
        "the breaker opens under sustained faults"
    );
    let counts = server.aggregator().counts();
    assert!(counts.serve_degraded >= 8);
    assert!(counts.serve_breaker_open >= 1, "trip event emitted");
    let health = http_request(addr, "GET", "/healthz", b"", CLIENT_TIMEOUT).expect("healthz");
    let health_doc = health.json().expect("healthz JSON");
    assert_eq!(
        health_doc.get("status"),
        Some(&Value::String("degraded".into())),
        "healthz reflects the open breaker"
    );
    server.shutdown();
}

#[test]
fn injected_panics_are_contained_and_substituted() {
    let chaotic = ChaosBackend::new(
        StubBackend::instant(4),
        ChaosPlan {
            seed: 11,
            blowup_probability: 0.0,
            uncertified_probability: 0.0,
            panic_probability: 1.0,
        },
    );
    let server = start(ServeConfig::default(), Arc::new(chaotic));
    let addr = server.addr();
    for _ in 0..4 {
        let resp = http_request(
            addr,
            "POST",
            "/v1/mac",
            &mac_body("t", 2000),
            CLIENT_TIMEOUT,
        )
        .expect("request");
        assert_eq!(resp.status, 200, "a panicking solver still answers");
        let doc = typed_json(resp.status, &resp.body);
        assert_eq!(doc.get("degraded"), Some(&Value::Bool(true)));
    }
    server.shutdown();
}

/// A mixed plan (blowups, uncertified solves and panics together) from
/// concurrent tenants: retries, the breaker and the fallback keep every
/// response a typed 200, live or degraded.
#[test]
fn mixed_chaos_plan_answers_every_request_with_a_typed_200() {
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        breaker: BreakerConfig {
            cooldown: Duration::from_millis(100),
            ..BreakerConfig::default()
        },
        ..ServeConfig::default()
    };
    let chaotic = ChaosBackend::new(
        StubBackend::instant(4),
        ChaosPlan {
            seed: 0xC1A0_5EED,
            blowup_probability: 0.25,
            uncertified_probability: 0.15,
            panic_probability: 0.05,
        },
    );
    let server = start(config, Arc::new(chaotic));
    let addr = server.addr();
    const REQUESTS: usize = 32;
    const CLIENTS: usize = 4;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                (client..REQUESTS)
                    .step_by(CLIENTS)
                    .map(|_| {
                        http_request(
                            addr,
                            "POST",
                            "/v1/mac",
                            &mac_body(&format!("chaos-{client}"), 10_000),
                            CLIENT_TIMEOUT,
                        )
                        .expect("response")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut answered = 0;
    for client in clients {
        for resp in client.join().expect("client thread") {
            assert_eq!(resp.status, 200, "a fault leaked out instead of degrading");
            let doc = typed_json(resp.status, &resp.body);
            assert_eq!(doc.get("expected"), Some(&Value::Number(2.0)));
            answered += 1;
        }
    }
    assert_eq!(answered, REQUESTS);
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_the_solve() {
    let server = start(
        ServeConfig::default(),
        Arc::new(StubBackend::slow(4, Duration::from_secs(30))),
    );
    let addr = server.addr();
    // Fire a request and hang up immediately.
    {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let body = mac_body("quitter", 60_000);
        let head = format!(
            "POST /v1/mac HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("head");
        stream.write_all(&body).expect("body");
        // Dropping the stream closes the connection; the watchdog
        // should trip the solve's cancel token shortly after.
    }
    // The worker must come back long before the 30 s stub delay: an
    // instant follow-up request proves the pool was not wedged.
    let start_at = Instant::now();
    let resp = loop {
        match http_request(addr, "GET", "/healthz", b"", Duration::from_secs(1)) {
            Ok(resp) => break resp,
            Err(_) if start_at.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(50))
            }
            Err(e) => panic!("healthz never recovered: {e}"),
        }
    };
    assert_eq!(resp.status, 200);
    // The watchdog outlives the drain: the abandoned solve is cancelled
    // instead of holding its worker for the stub's 30 s.
    let shutdown_at = Instant::now();
    server.shutdown();
    assert!(
        shutdown_at.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} to drain an abandoned solve",
        shutdown_at.elapsed()
    );
}

#[test]
fn shutdown_drains_admitted_work() {
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let server = start(
        config,
        Arc::new(StubBackend::slow(4, Duration::from_millis(100))),
    );
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                http_request(
                    addr,
                    "POST",
                    "/v1/mac",
                    &mac_body(&format!("t{i}"), 5000),
                    CLIENT_TIMEOUT,
                )
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    for client in clients {
        let resp = client.join().expect("client thread").expect("response");
        // Admitted work completes; late arrivals may be shed — both are
        // typed, nothing is dropped on the floor.
        assert!(matches!(resp.status, 200 | 429), "got {}", resp.status);
        typed_json(resp.status, &resp.body);
    }
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "listener is closed after shutdown"
    );
}

/// Pulls the `request_id` out of a response body, asserting it is the
/// fixed-width hex form every typed body must carry.
fn request_id_of(doc: &Value) -> String {
    match doc.get("request_id") {
        Some(Value::String(id)) if id.len() == 16 && id.chars().all(|c| c.is_ascii_hexdigit()) => {
            id.clone()
        }
        other => panic!("expected a 16-hex request_id, got {other:?}"),
    }
}

#[test]
fn request_ids_flow_from_responses_to_events_and_debug_views() {
    let aggregator = Arc::new(Aggregator::new());
    let flight = Arc::new(FlightRecorder::new(256));
    let telemetry = Telemetry::to(Tee::new(vec![
        Arc::clone(&aggregator) as Arc<dyn ferrocim_telemetry::Recorder>,
        Arc::clone(&flight) as Arc<dyn ferrocim_telemetry::Recorder>,
    ]));
    let server = Server::start_observed(
        ServeConfig::default(),
        Arc::new(StubBackend::instant(4)),
        telemetry,
        aggregator.clone(),
        Some(Arc::clone(&flight)),
    )
    .expect("bind");
    let addr = server.addr();

    // Success, shed (bad width -> 400), and the request ids they echo.
    let ok = http_request(
        addr,
        "POST",
        "/v1/mac",
        &mac_body("acme", 2000),
        CLIENT_TIMEOUT,
    )
    .expect("mac");
    assert_eq!(ok.status, 200);
    let ok_doc = typed_json(ok.status, &ok.body);
    let ok_id = request_id_of(&ok_doc);
    let bad = http_request(
        addr,
        "POST",
        "/v1/mac",
        br#"{"tenant":"acme","inputs":[true],"weights":[true]}"#,
        CLIENT_TIMEOUT,
    )
    .expect("bad width");
    assert_eq!(bad.status, 400);
    let bad_doc = typed_json(bad.status, &bad.body);
    let bad_id = request_id_of(&bad_doc);
    assert_ne!(ok_id, bad_id, "each request gets its own id");

    // Terminal outcomes feed the dimensional metrics: one ok (the live
    // stub is not surrogate-backed) and one rejected, both for acme.
    let counts = aggregator.counts();
    assert!(counts.serve_done >= 2, "every terminal MAC emits ServeDone");
    let labeled = aggregator.serve_requests();
    let acme_ok = labeled
        .iter()
        .find(|c| c.tenant == "acme" && c.outcome == "ok" && c.backend == "live")
        .expect("acme/ok/live cell exists");
    assert_eq!(acme_ok.value, 1);
    assert!(
        labeled
            .iter()
            .any(|c| c.tenant == "acme" && c.outcome == "rejected"),
        "the 400 shows up as a rejected outcome: {labeled:?}"
    );

    // The events in the flight ring carry the echoed ids.
    let events = flight.snapshot();
    let done_ids: Vec<String> = events
        .iter()
        .filter_map(|event| match event {
            ferrocim_telemetry::Event::ServeDone { request_id, .. } => {
                Some(format!("{request_id:016x}"))
            }
            _ => None,
        })
        .collect();
    assert!(done_ids.contains(&ok_id), "ok id reaches telemetry");
    assert!(done_ids.contains(&bad_id), "rejected id reaches telemetry");

    // The read-only debug surface.
    let requests =
        http_request(addr, "GET", "/debug/requests", b"", CLIENT_TIMEOUT).expect("debug requests");
    assert_eq!(requests.status, 200);
    let doc = requests.json().expect("JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    assert!(matches!(doc.get("in_flight"), Some(Value::Number(_))));
    let queue =
        http_request(addr, "GET", "/debug/queue", b"", CLIENT_TIMEOUT).expect("debug queue");
    let doc = queue.json().expect("JSON");
    assert_eq!(doc.get("capacity"), Some(&Value::Number(16.0)));
    assert_eq!(doc.get("shutting_down"), Some(&Value::Bool(false)));
    let breakers =
        http_request(addr, "GET", "/debug/breakers", b"", CLIENT_TIMEOUT).expect("debug breakers");
    let doc = breakers.json().expect("JSON");
    assert!(matches!(doc.get("breakers"), Some(Value::Array(_))));
    let flight_resp =
        http_request(addr, "GET", "/debug/flight", b"", CLIENT_TIMEOUT).expect("debug flight");
    assert_eq!(flight_resp.status, 200);
    let text = String::from_utf8_lossy(&flight_resp.body);
    assert!(
        text.starts_with("{\"format\":\"ferrocim-trace-v1\"}"),
        "flight stream is a trace dump: {}",
        &text[..text.len().min(80)]
    );
    assert!(text.contains("ServeDone"), "ring holds the serve events");
    // Unknown debug paths are typed 404s.
    let nope = http_request(addr, "GET", "/debug/nope", b"", CLIENT_TIMEOUT).expect("404");
    assert_eq!(nope.status, 404);
    server.shutdown();
}

#[test]
fn debug_endpoints_answer_even_when_the_queue_is_full() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        tenant_quota: 64,
        ..ServeConfig::default()
    };
    let server = start(
        config,
        Arc::new(StubBackend::slow(4, Duration::from_millis(400))),
    );
    let addr = server.addr();
    // One request solving, one parked in the depth-1 queue: full.
    let busy: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                http_request(
                    addr,
                    "POST",
                    "/v1/mac",
                    &mac_body(&format!("t{i}"), 5000),
                    CLIENT_TIMEOUT,
                )
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    // The acceptor must answer introspection inline despite the full
    // queue (a third MAC would be shed right now).
    let queue =
        http_request(addr, "GET", "/debug/queue", b"", CLIENT_TIMEOUT).expect("debug queue");
    assert_eq!(queue.status, 200, "debug endpoints are admission-exempt");
    let doc = queue.json().expect("JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    // No flight recorder was wired in: /debug/flight is a typed 404.
    let flight =
        http_request(addr, "GET", "/debug/flight", b"", CLIENT_TIMEOUT).expect("debug flight");
    assert_eq!(flight.status, 404);
    for client in busy {
        let resp = client.join().expect("client").expect("response");
        assert!(matches!(resp.status, 200 | 429));
    }
    server.shutdown();
}

/// Fewest in-domain analytic requests the surrogate must answer.
const MIN_SURROGATE_RATE: f64 = 0.9;

#[test]
fn real_cim_backend_serves_a_live_mac() {
    let aggregator = Arc::new(Aggregator::new());
    let telemetry = Telemetry::new(aggregator.clone());
    let backend = CimBackend::new(telemetry.clone(), 2).expect("calibrate");
    let server = Server::start(
        ServeConfig::default(),
        Arc::new(backend),
        telemetry,
        aggregator,
    )
    .expect("bind");
    let addr = server.addr();
    let body = br#"{"tenant":"live","inputs":[true,true,true,false,false,false,false,false],
        "weights":[true,true,false,false,true,false,false,false],"timeout_ms":20000}"#;
    let resp =
        http_request(addr, "POST", "/v1/mac", body, Duration::from_secs(30)).expect("request");
    assert_eq!(
        resp.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&resp.body)
    );
    let doc = typed_json(resp.status, &resp.body);
    assert_eq!(doc.get("expected"), Some(&Value::Number(2.0)));
    assert_eq!(doc.get("degraded"), Some(&Value::Bool(false)));
    // An analytic in-domain request is answered by the surrogate fast
    // path (the first solve for this weight pattern calibrates a curve
    // in-line, then answers from it).
    assert_eq!(doc.get("surrogate"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("attempts"), Some(&Value::Number(0.0)));
    let readout = match doc.get("readout") {
        Some(Value::Number(n)) => *n as i64,
        other => panic!("readout missing: {other:?}"),
    };
    assert!(
        (readout - 2).abs() <= 1,
        "nominal room-temperature readout is within one level of truth"
    );

    // The same request again is a pure cache hit; the counters in the
    // shared aggregator record both lookups.
    let again =
        http_request(addr, "POST", "/v1/mac", body, Duration::from_secs(30)).expect("request");
    assert_eq!(again.status, 200);
    let doc = typed_json(again.status, &again.body);
    assert_eq!(doc.get("surrogate"), Some(&Value::Bool(true)));
    let counts = server.aggregator().counts();
    assert!(
        counts.surrogate_misses >= 1,
        "startup + first request each calibrated a curve"
    );
    assert!(counts.surrogate_hits >= 1, "the repeat request hit");

    // Across the calibrated 0-85 °C domain the fast path answers with
    // zero solver attempts; 120 °C lies outside it and must reach a
    // live solve instead of an extrapolated curve.
    let at = |temp_c: f64| {
        let body = format!(
            r#"{{"tenant":"sweep","inputs":[true,true,true,false,false,true,false,false],
                "weights":[true,true,false,true,false,true,false,false],
                "timeout_ms":20000,"path":"analytic","temp_c":{temp_c}}}"#
        );
        let resp = http_request(
            addr,
            "POST",
            "/v1/mac",
            body.as_bytes(),
            Duration::from_secs(30),
        )
        .expect("request");
        assert_eq!(resp.status, 200, "{temp_c} °C");
        let doc = typed_json(resp.status, &resp.body);
        assert_eq!(
            doc.get("degraded"),
            Some(&Value::Bool(false)),
            "{temp_c} °C"
        );
        doc
    };
    let in_domain = [0.0, 12.5, 27.0, 45.5, 63.0, 85.0];
    let fast = in_domain
        .iter()
        .map(|&t| at(t))
        .filter(|doc| {
            doc.get("surrogate") == Some(&Value::Bool(true))
                && doc.get("attempts") == Some(&Value::Number(0.0))
        })
        .count();
    let fast_rate = fast as f64 / in_domain.len() as f64;
    assert!(
        fast_rate >= MIN_SURROGATE_RATE,
        "fast-path rate {fast_rate:.2} below {MIN_SURROGATE_RATE}"
    );
    let outside = at(120.0);
    assert_eq!(
        outside.get("surrogate"),
        Some(&Value::Bool(false)),
        "120 °C must fall through to a live solve"
    );
    let counts = server.aggregator().counts();
    assert!(counts.surrogate_checks >= 1, "check mode audited the sweep");
    assert_eq!(
        counts.surrogate_check_failures, 0,
        "check-mode deviation beyond the certified envelope"
    );
    server.shutdown();
}
