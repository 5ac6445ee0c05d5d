//! `ferrocim-serve` — serve CIM MAC simulations over HTTP.
//!
//! ```text
//! ferrocim-serve [--addr 127.0.0.1:7878] [--workers N] [--queue N]
//!                [--tenant-quota N] [--surrogate-check N]
//!                [--flight N] [--flight-dump DIR]
//!                [--self-check]
//! ```
//!
//! `--surrogate-check N` re-solves roughly one in `N` surrogate-
//! answered queries through the live solver and compares the deviation
//! to the certified error envelope (visible in `/metrics` as
//! `ferrocim_surrogate_checks_total` / `..._check_failures_total`).
//!
//! `--flight N` keeps the last N telemetry events per thread in an
//! in-memory flight recorder, exposed at `GET /debug/flight` as a
//! `ferrocim-trace-v1` stream (default 256; 0 disables it).
//! `--flight-dump DIR` additionally writes an atomic trace dump into
//! DIR whenever a breaker trips, the SLO burn-rate breaches, or a
//! request ends in error — the post-incident black box.
//!
//! `--self-check` boots the full service on an ephemeral port, drives
//! one MAC request plus `/healthz`, `/metrics`, and every `/debug/*`
//! endpoint through a real TCP client, shuts down cleanly, and exits
//! 0 — the CI smoke test, with no curl dependency.

use ferrocim_serve::{http_request, CimBackend, ServeConfig, Server};
use ferrocim_telemetry::{Aggregator, DumpOn, FlightRecorder, Recorder, Tee, Telemetry};
use serde_json::Value;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: ferrocim-serve [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--tenant-quota N] [--surrogate-check N] [--flight N] \
                     [--flight-dump DIR] [--self-check]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn parse_count(value: Option<&String>, flag: &str) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse::<usize>()
        .map_err(|_| format!("{flag} needs a positive integer"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };
    let mut self_check = false;
    let mut surrogate_check_every: usize = 0;
    let mut flight_capacity: usize = 256;
    let mut flight_dump: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = iter.next().ok_or("--addr needs a value")?.clone();
            }
            "--workers" => config.workers = parse_count(iter.next(), "--workers")?.max(1),
            "--queue" => config.queue_capacity = parse_count(iter.next(), "--queue")?.max(1),
            "--tenant-quota" => {
                config.tenant_quota = parse_count(iter.next(), "--tenant-quota")?.max(1);
            }
            "--surrogate-check" => {
                surrogate_check_every = parse_count(iter.next(), "--surrogate-check")?;
            }
            "--flight" => flight_capacity = parse_count(iter.next(), "--flight")?,
            "--flight-dump" => {
                flight_dump = Some(iter.next().ok_or("--flight-dump needs a value")?.clone());
            }
            "--self-check" => self_check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    if self_check {
        config.addr = "127.0.0.1:0".to_string();
    }

    let aggregator = Arc::new(Aggregator::new());
    let flight = if flight_capacity > 0 {
        let mut recorder = FlightRecorder::new(flight_capacity);
        if let Some(dir) = &flight_dump {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create --flight-dump dir {dir:?}: {e}"))?;
            recorder = recorder.with_dump_dir(
                dir,
                &[DumpOn::Error, DumpOn::BreakerOpen, DumpOn::SloBreach],
            );
        }
        Some(Arc::new(recorder))
    } else {
        if flight_dump.is_some() {
            return Err("--flight-dump needs a flight recorder (set --flight > 0)".to_string());
        }
        None
    };
    let telemetry = match &flight {
        Some(flight) => Telemetry::to(Tee::new(vec![
            Arc::clone(&aggregator) as Arc<dyn Recorder>,
            Arc::clone(flight) as Arc<dyn Recorder>,
        ])),
        None => Telemetry::new(aggregator.clone()),
    };
    eprintln!("calibrating surrogate store (all-ones curve, 0-85 \u{b0}C grid)...");
    let backend = CimBackend::new(telemetry.clone(), surrogate_check_every)
        .map_err(|e| format!("backend calibration failed: {e}"))?;
    let server = Server::start_observed(config, Arc::new(backend), telemetry, aggregator, flight)
        .map_err(|e| format!("bind failed: {e}"))?;
    eprintln!("ferrocim-serve listening on {}", server.addr());

    if self_check {
        return match self_check_run(&server) {
            Ok(()) => {
                server.shutdown();
                eprintln!("self-check passed");
                Ok(ExitCode::SUCCESS)
            }
            Err(message) => {
                server.shutdown();
                Err(format!("self-check failed: {message}"))
            }
        };
    }

    // Foreground mode: serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn self_check_run(server: &Server) -> Result<(), String> {
    let addr = server.addr();
    let timeout = Duration::from_secs(10);
    let mac = http_request(
        addr,
        "POST",
        "/v1/mac",
        br#"{"tenant":"smoke","inputs":[true,true,false,false,true,false,false,false],
            "weights":[true,true,true,false,false,false,false,false],"timeout_ms":5000}"#,
        timeout,
    )
    .map_err(|e| format!("MAC request: {e}"))?;
    if mac.status != 200 {
        return Err(format!(
            "MAC returned {} with body {}",
            mac.status,
            String::from_utf8_lossy(&mac.body)
        ));
    }
    let body = mac.json().ok_or("MAC response is not JSON")?;
    if body.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("MAC response not ok: {body:?}"));
    }
    match body.get("expected") {
        Some(Value::Number(n)) if *n == 2.0 => {}
        other => return Err(format!("expected MAC of 2, got {other:?}")),
    }
    // An analytic in-domain request is answered by the surrogate store
    // (populated on miss), never the degraded tier.
    if body.get("surrogate") != Some(&Value::Bool(true)) {
        return Err(format!("expected a surrogate-answered MAC: {body:?}"));
    }
    if body.get("degraded") != Some(&Value::Bool(false)) {
        return Err(format!("smoke MAC must not be degraded: {body:?}"));
    }
    // Every response carries the fixed-width hex request id.
    match body.get("request_id") {
        Some(Value::String(id)) if id.len() == 16 && id.chars().all(|c| c.is_ascii_hexdigit()) => {}
        other => return Err(format!("expected a 16-hex request_id, got {other:?}")),
    }

    let health =
        http_request(addr, "GET", "/healthz", b"", timeout).map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz returned {}", health.status));
    }
    let health_body = health.json().ok_or("healthz is not JSON")?;
    match health_body.get("status") {
        Some(Value::String(s)) if s == "ok" => {}
        other => return Err(format!("healthz status not ok: {other:?}")),
    }

    // The read-only introspection surface answers while serving.
    for path in ["/debug/requests", "/debug/queue", "/debug/breakers"] {
        let resp =
            http_request(addr, "GET", path, b"", timeout).map_err(|e| format!("{path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("{path} returned {}", resp.status));
        }
        let doc = resp.json().ok_or_else(|| format!("{path} is not JSON"))?;
        if doc.get("ok") != Some(&Value::Bool(true)) {
            return Err(format!("{path} not ok: {doc:?}"));
        }
    }
    let flight = http_request(addr, "GET", "/debug/flight", b"", timeout)
        .map_err(|e| format!("/debug/flight: {e}"))?;
    if server.flight().is_some() {
        if flight.status != 200 {
            return Err(format!("/debug/flight returned {}", flight.status));
        }
        let text = String::from_utf8_lossy(&flight.body);
        if !text.starts_with("{\"format\":\"ferrocim-trace-v1\"}") {
            return Err("flight stream is not a ferrocim-trace-v1 dump".to_string());
        }
    } else if flight.status != 404 {
        return Err(format!(
            "/debug/flight without a recorder must 404, got {}",
            flight.status
        ));
    }

    let metrics =
        http_request(addr, "GET", "/metrics", b"", timeout).map_err(|e| format!("metrics: {e}"))?;
    if metrics.status != 200 {
        return Err(format!("metrics returned {}", metrics.status));
    }
    let text = String::from_utf8_lossy(&metrics.body);
    for metric in [
        "ferrocim_serve_admitted_total",
        "ferrocim_serve_shed_total",
        "ferrocim_serve_done_total",
        "ferrocim_newton_iterations_total",
        "ferrocim_surrogate_hits_total",
        "ferrocim_surrogate_misses_total",
        "ferrocim_serve_requests_total{tenant=\"smoke\"",
        "ferrocim_serve_request_latency_ms_bucket{tenant=\"smoke\"",
        "ferrocim_serve_request_latency_ms_sum{tenant=\"smoke\"}",
        "ferrocim_serve_request_latency_ms_count{tenant=\"smoke\"}",
        "ferrocim_serve_slo_burn",
    ] {
        if !text.contains(metric) {
            return Err(format!("metrics exposition is missing {metric}"));
        }
    }
    Ok(())
}
