//! Probe: the serving layer's robustness contract under load
//! (DESIGN.md §16).
//!
//! Boots real `ferrocim-serve` instances on ephemeral ports and drives
//! them with concurrent in-process clients through five scenarios:
//!
//! 1. **Overload** — a burst of transient-path MACs against a
//!    deliberately small worker pool and queue. Some requests complete,
//!    the rest are shed; *every* response must be a typed `200` or a
//!    typed `429` with a `retry_after_ms` hint, the shed rate must stay
//!    under the gate bound, and client-observed p99 must stay bounded.
//! 2. **Deadline expiry** — transient solves under a 1 ms budget. The
//!    deadline propagates into the solver; responses are typed `504`s
//!    (or a `200` if a solve beats the clock), never hangs.
//! 3. **Chaos** — a [`ChaosBackend`] injects seeded solver blowups,
//!    uncertified solves, and outright panics. Every response is still
//!    a typed `200`: live after retries, or `degraded: true` from the
//!    surrogate's startup curve once retries/breaker give up.
//! 4. **Drain** — shutdown lands mid-burst; every admitted request
//!    completes, late arrivals are shed typed, and the listener closes.
//! 5. **Surrogate** — analytic in-domain MACs against the plain
//!    `CimBackend`. These must be answered by the certified surrogate
//!    fast path (`surrogate: true`, zero solver attempts); one
//!    deliberately out-of-domain request must fall through to a live
//!    solve instead of extrapolating, and the check-mode audit running
//!    underneath must report zero envelope violations.
//!
//! The gate bounds live in `baselines/probe_serve.json`, compiled into
//! the probe; unlike the trace-diff baselines these are hand-set
//! limits, because shed and retry counts are load-dependent by design.
//! Dumps `results/probe_serve.json`.

use ferrocim_bench::schema::{ServeCounters, ServeGateBounds, ServeProbe, ServeScenario};
use ferrocim_bench::{dump_json, print_table, Trace};
use ferrocim_serve::{
    http_request, BreakerConfig, ChaosBackend, ChaosPlan, CimBackend, HttpResponse, ServeConfig,
    Server,
};
use ferrocim_telemetry::{Aggregator, Recorder, Tee, Telemetry};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in the overload burst.
const OVERLOAD_REQUESTS: usize = 48;
/// Client threads driving the overload burst.
const OVERLOAD_CLIENTS: usize = 16;
/// Requests in the chaos scenario.
const CHAOS_REQUESTS: usize = 32;
/// Per-client socket timeout — far above any bound the gate allows, so
/// a hang shows up as an `untyped` failure, not a test timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// How one observed response classifies against the typed taxonomy.
struct Observed {
    status: u16,
    latency_ms: f64,
    degraded: bool,
    surrogate: bool,
    typed: bool,
    /// Transport-level failure: the connection was refused or reset
    /// before any response arrived (legal only while draining).
    refused: bool,
}

fn classify(resp: &HttpResponse, latency_ms: f64) -> Observed {
    let doc: Option<Value> = resp.json();
    let typed = match (&doc, resp.status) {
        (Some(doc), 200) => doc.get("ok") == Some(&Value::Bool(true)),
        (Some(doc), 429) => {
            doc.get("error") == Some(&Value::String("overloaded".into()))
                && matches!(doc.get("retry_after_ms"), Some(Value::Number(n)) if *n > 0.0)
        }
        (Some(doc), 504) => doc.get("error") == Some(&Value::String("deadline_exceeded".into())),
        (Some(doc), 400) => doc.get("error") == Some(&Value::String("bad_request".into())),
        _ => false,
    };
    let degraded = doc
        .as_ref()
        .map(|d| d.get("degraded") == Some(&Value::Bool(true)))
        .unwrap_or(false);
    let surrogate = doc
        .as_ref()
        .map(|d| d.get("surrogate") == Some(&Value::Bool(true)))
        .unwrap_or(false);
    Observed {
        status: resp.status,
        latency_ms,
        degraded,
        surrogate,
        typed,
        refused: false,
    }
}

fn mac_body(tenant: &str, timeout_ms: u64, path: &str) -> Vec<u8> {
    mac_body_at(tenant, timeout_ms, path, 27.0)
}

fn mac_body_at(tenant: &str, timeout_ms: u64, path: &str, temp_c: f64) -> Vec<u8> {
    format!(
        r#"{{"tenant":"{tenant}","inputs":[true,true,true,false,false,true,false,false],
            "weights":[true,true,false,true,false,true,false,false],
            "timeout_ms":{timeout_ms},"path":"{path}","temp_c":{temp_c}}}"#
    )
    .into_bytes()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn census(name: &str, observed: Vec<Observed>) -> ServeScenario {
    let mut latencies: Vec<f64> = observed.iter().map(|o| o.latency_ms).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    ServeScenario {
        name: name.to_string(),
        requests: observed.len(),
        ok_live: observed
            .iter()
            .filter(|o| o.typed && o.status == 200 && !o.degraded && !o.surrogate)
            .count(),
        ok_surrogate: observed
            .iter()
            .filter(|o| o.typed && o.status == 200 && !o.degraded && o.surrogate)
            .count(),
        ok_degraded: observed
            .iter()
            .filter(|o| o.typed && o.status == 200 && o.degraded)
            .count(),
        shed: observed
            .iter()
            .filter(|o| o.typed && o.status == 429)
            .count(),
        deadline_exceeded: observed
            .iter()
            .filter(|o| o.typed && o.status == 504)
            .count(),
        refused: observed.iter().filter(|o| o.refused).count(),
        untyped: observed.iter().filter(|o| !o.typed && !o.refused).count(),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

/// Fires `total` requests from `clients` threads and classifies every
/// response. A transport error (reset, timeout) counts as untyped —
/// the contract is that clients always get an answer.
fn drive(
    addr: std::net::SocketAddr,
    total: usize,
    clients: usize,
    body: impl Fn(usize) -> Vec<u8> + Send + Sync,
) -> Vec<Observed> {
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut i = client;
                    while i < total {
                        let payload = body(i);
                        let start = Instant::now();
                        let resp = http_request(addr, "POST", "/v1/mac", &payload, CLIENT_TIMEOUT);
                        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                        seen.push(match resp {
                            Ok(resp) => classify(&resp, latency_ms),
                            Err(e) => Observed {
                                status: 0,
                                latency_ms,
                                degraded: false,
                                surrogate: false,
                                typed: false,
                                refused: matches!(
                                    e.kind(),
                                    std::io::ErrorKind::ConnectionRefused
                                        | std::io::ErrorKind::ConnectionReset
                                        | std::io::ErrorKind::ConnectionAborted
                                        | std::io::ErrorKind::UnexpectedEof
                                ),
                            },
                        });
                        i += clients;
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = Trace::from_args()?;
    let gate = ServeGateBounds::checked_in()?;
    println!("# Probe — serving robustness: overload, deadlines, chaos, drain, surrogate\n");

    let agg = Arc::new(Aggregator::new());
    let tele = Telemetry::to(Tee::new(vec![
        agg.clone() as Arc<dyn Recorder>,
        Arc::new(trace.telemetry()),
    ]));
    let started = Instant::now();
    let backend = Arc::new(CimBackend::new(tele.clone(), 4)?);
    println!(
        "calibrated the surrogate store (all-ones curve, 0-85 °C) in {:.0} ms",
        started.elapsed().as_secs_f64() * 1e3
    );

    // Scenario 1: overload. Transient solves (~10 ms each) against 2
    // workers and a 4-deep queue; a 48-request burst must shed.
    let server = Server::start(
        ServeConfig {
            workers: 2,
            queue_capacity: 4,
            tenant_quota: 64,
            ..ServeConfig::default()
        },
        backend.clone(),
        tele.clone(),
        agg.clone(),
    )?;
    let addr = server.addr();
    let overload = census(
        "overload",
        drive(addr, OVERLOAD_REQUESTS, OVERLOAD_CLIENTS, |i| {
            mac_body(&format!("burst-{}", i % 4), 10_000, "transient")
        }),
    );
    server.shutdown();

    // Scenario 2: deadline expiry. A 1 ms budget cannot fit a transient
    // solve; the deadline must surface as a typed 504, not a hang.
    let server = Server::start(
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
        backend.clone(),
        tele.clone(),
        agg.clone(),
    )?;
    let addr = server.addr();
    let deadline = census(
        "deadline",
        drive(addr, 6, 2, |_| mac_body("tight", 1, "transient")),
    );
    server.shutdown();

    // Scenario 3: chaos. Seeded blowups, uncertified solves, and
    // panics; the retry ladder, breaker, and fallback keep every
    // response a typed 200.
    let server = Server::start(
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            breaker: BreakerConfig {
                cooldown: Duration::from_millis(100),
                ..BreakerConfig::default()
            },
            ..ServeConfig::default()
        },
        Arc::new(ChaosBackend::new(
            backend.clone(),
            ChaosPlan {
                seed: 0xC1A0_5EED,
                blowup_probability: 0.25,
                uncertified_probability: 0.15,
                panic_probability: 0.05,
            },
        )),
        tele.clone(),
        agg.clone(),
    )?;
    let addr = server.addr();
    let chaos = census(
        "chaos",
        drive(addr, CHAOS_REQUESTS, 4, |i| {
            mac_body(&format!("chaos-{}", i % 4), 10_000, "analytic")
        }),
    );
    server.shutdown();

    // Scenario 4: drain. Shutdown lands mid-burst; admitted work
    // completes, the rest is shed typed, and the port closes.
    let server = Server::start(
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
        backend.clone(),
        tele.clone(),
        agg.clone(),
    )?;
    let addr = server.addr();
    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
    });
    let drain = census(
        "drain",
        drive(addr, 8, 4, |i| {
            mac_body(&format!("drain-{}", i % 2), 10_000, "transient")
        }),
    );
    stopper.join().expect("stopper thread");
    let port_closed =
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err();

    // Scenario 5: surrogate fast path. Analytic in-domain requests are
    // answered from the certified store with zero solver attempts;
    // index 24 asks for 120 °C — outside the calibrated 0–85 °C domain
    // — and must fall through to a live solve, never extrapolate. The
    // backend's check mode (one in 4) audits the answers underneath.
    let server = Server::start(
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        backend.clone(),
        tele.clone(),
        agg.clone(),
    )?;
    let addr = server.addr();
    let in_domain = [0.0, 12.5, 27.0, 45.5, 63.0, 85.0];
    let surrogate = census(
        "surrogate",
        drive(addr, 25, 4, |i| {
            let temp_c = if i == 24 {
                120.0
            } else {
                in_domain[i % in_domain.len()]
            };
            mac_body_at(&format!("surro-{}", i % 4), 10_000, "analytic", temp_c)
        }),
    );
    server.shutdown();

    let counts = agg.counts();
    let counters = ServeCounters {
        admitted: counts.serve_admitted,
        shed: counts.serve_shed,
        retries: counts.serve_retries,
        degraded: counts.serve_degraded,
        breaker_open: counts.serve_breaker_open,
        surrogate_hits: counts.surrogate_hits,
        surrogate_misses: counts.surrogate_misses,
        surrogate_checks: counts.surrogate_checks,
        surrogate_check_failures: counts.surrogate_check_failures,
    };

    let scenarios = vec![overload, deadline, chaos, drain, surrogate];
    print_table(
        &[
            "scenario",
            "requests",
            "ok",
            "surrogate",
            "degraded",
            "shed",
            "504",
            "refused",
            "untyped",
            "p50 ms",
            "p99 ms",
        ],
        &scenarios
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.requests.to_string(),
                    s.ok_live.to_string(),
                    s.ok_surrogate.to_string(),
                    s.ok_degraded.to_string(),
                    s.shed.to_string(),
                    s.deadline_exceeded.to_string(),
                    s.refused.to_string(),
                    s.untyped.to_string(),
                    format!("{:.1}", s.p50_ms),
                    format!("{:.1}", s.p99_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ncounters: admitted {} shed {} retries {} degraded {} breaker_open {} \
         surrogate_hits {} surrogate_misses {} surrogate_checks {} check_failures {}",
        counters.admitted,
        counters.shed,
        counters.retries,
        counters.degraded,
        counters.breaker_open,
        counters.surrogate_hits,
        counters.surrogate_misses,
        counters.surrogate_checks,
        counters.surrogate_check_failures
    );

    // The robustness contract, then the tunable gate bounds.
    let mut violations = Vec::new();
    for s in &scenarios {
        if s.untyped > 0 {
            violations.push(format!("{}: {} untyped response(s)", s.name, s.untyped));
        }
        if s.refused > 0 && s.name != "drain" {
            violations.push(format!(
                "{}: {} transport failure(s) while the service was up",
                s.name, s.refused
            ));
        }
    }
    let overload = &scenarios[0];
    let chaos = &scenarios[2];
    let surrogate = &scenarios[4];
    if overload.shed == 0 {
        violations.push("overload: the burst never hit the queue bound".into());
    }
    if chaos.ok_live + chaos.ok_degraded != chaos.requests {
        violations.push("chaos: a fault leaked out instead of degrading".into());
    }
    if !port_closed {
        violations.push("drain: the listener is still accepting after shutdown".into());
    }
    let surrogate_rate = surrogate.ok_surrogate as f64 / surrogate.requests as f64;
    if surrogate_rate < gate.min_surrogate_rate {
        violations.push(format!(
            "surrogate: fast-path rate {:.2} below the {:.2} bound",
            surrogate_rate, gate.min_surrogate_rate
        ));
    }
    if surrogate.ok_live == 0 {
        violations.push("surrogate: the out-of-domain request never reached a live solve".into());
    }
    if surrogate.ok_degraded > 0 {
        violations.push("surrogate: an in-domain analytic request degraded".into());
    }
    if counters.surrogate_check_failures > 0 {
        violations.push(format!(
            "surrogate: {} check-mode deviation(s) beyond the certified envelope",
            counters.surrogate_check_failures
        ));
    }
    let shed_rate = overload.shed as f64 / overload.requests as f64;
    if shed_rate > gate.max_shed_rate {
        violations.push(format!(
            "overload: shed rate {:.2} exceeds the {:.2} bound",
            shed_rate, gate.max_shed_rate
        ));
    }
    if overload.p99_ms > gate.max_p99_ms {
        violations.push(format!(
            "overload: p99 {:.0} ms exceeds the {:.0} ms bound",
            overload.p99_ms, gate.max_p99_ms
        ));
    }
    if ((overload.ok_live + overload.ok_degraded) as u64) < gate.min_ok {
        violations.push(format!(
            "overload: only {} requests completed (gate floor {})",
            overload.ok_live + overload.ok_degraded,
            gate.min_ok
        ));
    }

    let out = ServeProbe {
        scenarios,
        counters,
        gate,
        gate_passed: violations.is_empty(),
    };
    let path = dump_json("probe_serve", &out)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    if !out.gate_passed {
        return Err(format!("serving contract violated:\n  {}", violations.join("\n  ")).into());
    }
    println!("serving contract held: every response typed, tail bounded, drain clean");
    Ok(())
}
