//! Probe: cost and teeth of the observability layer (DESIGN.md §18).
//!
//! Three claims are measured on real workloads:
//!
//! 1. **Cost** — always-on flight recording must stay under 2%
//!    wall-clock overhead on the 256-cell row DC readout. The same
//!    solve is timed at `iterations` detail against a
//!    [`NoopRecorder`] and against a [`FlightRecorder`] ring through
//!    the paired-median estimator every wall-clock gate uses
//!    ([`paired_overhead`]).
//! 2. **Incident dump** — a chaos backend with a 100% blowup rate is
//!    served behind a tight circuit breaker and a flight recorder
//!    armed with [`DumpOn::BreakerOpen`]. The trip must leave an
//!    atomic `ferrocim-trace-v1` dump behind, and replaying that dump
//!    through `trace summary` ([`Summary::of`]) must recover the
//!    `ServeBreakerOpen` event and the per-tenant rollup — the
//!    post-incident black box actually answers questions.
//! 3. **Cardinality** — tenant labels are client-controlled, so a
//!    server whose aggregator caps them at 4 is driven with 9 distinct
//!    tenants; `/metrics` must expose per-tenant `_bucket`/`_sum`/
//!    `_count` latency series for at most cap + 1 labels, with the
//!    overflow collapsed into `other`.
//!
//! It also reports, ungated, what attaching telemetry costs the
//! batched-MAC path: the same batches timed with telemetry off against
//! a [`NoopRecorder`], which runs the full event-construction and
//! dispatch path with nothing behind it.
//!
//! The gate bounds live in `baselines/probe_observe.json`, compiled
//! into the probe; like the serve gate these are hand-set limits,
//! because wall-clock overhead is machine-dependent. `--dump-dir DIR`
//! overrides where the incident dump lands (default
//! `target/flight-dumps/probe_observe`). Dumps
//! `results/probe_observe.json`.
//!
//! [`NoopRecorder`]: ferrocim_telemetry::NoopRecorder
//! [`FlightRecorder`]: ferrocim_telemetry::FlightRecorder
//! [`DumpOn::BreakerOpen`]: ferrocim_telemetry::DumpOn
//! [`Summary::of`]: ferrocim_traceview::Summary::of

use ferrocim_bench::schema::{
    ObserveCardinality, ObserveDump, ObserveGateBounds, ObserveOverhead, ObserveProbe,
};
use ferrocim_bench::timing::{paired_overhead, PairedTiming};
use ferrocim_bench::{dump_json, flag_value, wide_row_readout, Trace};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{ArrayConfig, ArrayEngine, CimArray};
use ferrocim_serve::{
    http_request, BreakerConfig, ChaosBackend, ChaosPlan, CimBackend, ServeConfig, Server,
};
use ferrocim_spice::{Circuit, DcAnalysis, SolverConfig, SpiceError, Workspace};
use ferrocim_telemetry::{
    Aggregator, DetailLevel, DumpOn, FlightRecorder, NoopRecorder, Recorder, Tee, Telemetry,
};
use ferrocim_traceview::{read_trace, Summary};
use ferrocim_units::Celsius;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row width of the timed DC workload (~1029 MNA unknowns).
const CELLS: usize = 256;

/// Paired timing repetitions; the gated overhead is the *median* of
/// the per-rep paired ratios, so up to `REPS / 2` reps may be hit by
/// load bursts without moving the verdict.
const REPS: usize = 9;

/// Solves per timed block. Blocking several solves under one clock
/// shrinks the relative cost of scheduler noise on each sample; the
/// flight-recording overhead bound (2%) is four times tighter than
/// `probe_health`'s, so single-solve samples are too jittery to gate
/// on.
const BLOCK: usize = 4;

/// Paired repetitions of the dispatch-overhead row. Each batch fans
/// out over threads, so single reps swing by tens of percent on a
/// loaded host; the median needs many pairs.
const DISPATCH_REPS: usize = 21;

/// MAC batches per timed dispatch block.
const DISPATCH_BATCHES: usize = 3;

/// Tenant cap configured on the cardinality scenario's aggregator.
const TENANT_CAP: usize = 4;

/// Distinct tenants driven at the cardinality scenario (> the cap).
const CARDINALITY_TENANTS: usize = 9;

/// Upper bound on chaos requests driven while waiting for the trip.
const DUMP_REQUESTS: usize = 16;

/// Per-client socket timeout — a hang shows up as a probe error, not
/// a test timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Times the full DC Newton solve recording into a no-op sink against
/// a flight-recorder ring through [`paired_overhead`], one
/// [`BLOCK`]-solve block per side and rep. Both handles run at
/// `iterations` detail so the per-event cost is actually exercised.
/// Returns the best per-solve wall clocks in microseconds, the ring
/// population, and the median paired overhead in percent.
fn time_recorders(ckt: &Circuit) -> Result<(f64, f64, usize, f64), SpiceError> {
    let noop = Telemetry::to(NoopRecorder).with_detail(DetailLevel::Iterations);
    let ring = Arc::new(FlightRecorder::new(4096));
    let flight = Telemetry::new(ring.clone()).with_detail(DetailLevel::Iterations);
    let block = |tele: &Telemetry| -> Result<(), SpiceError> {
        for _ in 0..BLOCK {
            // A fresh workspace per solve so each timing includes the
            // full symbolic + numeric cost, not a warm rerun.
            let mut ws = Workspace::with_solver(SolverConfig::sparse());
            DcAnalysis::new(ckt)
                .with_recorder(tele.clone())
                .solve_in(&mut ws)?;
        }
        Ok(())
    };
    let timing = paired_overhead(REPS, || block(&noop), || block(&flight))?;
    Ok((
        timing.base_best_s / BLOCK as f64 * 1e6,
        timing.test_best_s / BLOCK as f64 * 1e6,
        ring.len(),
        timing.overhead_pct,
    ))
}

/// Times a batched-MAC workload (16 jobs over 2 distinct patterns on
/// the paper-default row) with telemetry off against a
/// [`NoopRecorder`] attached, through [`paired_overhead`], one
/// [`DISPATCH_BATCHES`]-batch block per side and rep.
fn time_dispatch() -> Result<PairedTiming, ferrocim_cim::CimError> {
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )?;
    let weights = [true, true, false, true, true, false, true, true];
    let a: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
    let b: Vec<bool> = (0..8).map(|i| i < 5).collect();
    let inputs: Vec<Vec<bool>> = (0..16)
        .map(|j| if j % 2 == 0 { a.clone() } else { b.clone() })
        .collect();
    let noop_array = array.clone().with_recorder(Telemetry::to(NoopRecorder));
    let off_engine = ArrayEngine::new(&array, &weights)?;
    let noop_engine = ArrayEngine::new(&noop_array, &weights)?;
    let block = |engine: &ArrayEngine<'_, TwoTransistorOneFefet>| {
        (0..DISPATCH_BATCHES).try_for_each(|_| engine.mac_batch(&inputs, Celsius(27.0)).map(drop))
    };
    paired_overhead(DISPATCH_REPS, || block(&off_engine), || block(&noop_engine))
}

fn mac_body(tenant: &str, path: &str) -> Vec<u8> {
    format!(
        r#"{{"tenant":"{tenant}","inputs":[true,true,true,false,false,true,false,false],
            "weights":[true,true,false,true,false,true,false,false],
            "timeout_ms":10000,"path":"{path}","temp_c":27.0}}"#
    )
    .into_bytes()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = Trace::from_args()?;
    let args: Vec<String> = std::env::args().collect();
    let gate = ObserveGateBounds::checked_in()?;
    let dump_dir = flag_value(&args, "--dump-dir")?.unwrap_or("target/flight-dumps/probe_observe");
    println!("# Probe — observability: recording cost, incident dumps, label cardinality\n");

    // Claim 1: cost. The 256-cell row DC readout recorded into a no-op
    // sink versus a flight-recorder ring.
    let (ckt, unknowns) = wide_row_readout(CELLS)?;
    let (noop_us, flight_us, flight_events, overhead_pct) = time_recorders(&ckt)?;
    let overhead = ObserveOverhead {
        cells_per_row: CELLS,
        unknowns,
        reps: REPS,
        noop_us,
        flight_us,
        flight_events,
        overhead_pct,
        limit_pct: gate.max_overhead_pct,
    };
    println!(
        "{CELLS}-cell row DC readout ({unknowns} unknowns, {REPS} paired {BLOCK}-solve blocks, \
         iterations detail):"
    );
    println!("  no-op recorder    : {noop_us:.1} us/solve");
    println!("  flight recorder   : {flight_us:.1} us/solve  ({flight_events} events in the ring)");
    println!(
        "  median paired overhead = {:.2} % (limit {} %)",
        overhead.overhead_pct, overhead.limit_pct
    );

    // Reported, not gated: the cost of attaching telemetry at all.
    let dispatch = time_dispatch()?;
    let per_batch_us = |block_s: f64| block_s / DISPATCH_BATCHES as f64 * 1e6;
    println!(
        "\nbatched-MAC dispatch (NoopRecorder vs off, {DISPATCH_REPS} paired \
         {DISPATCH_BATCHES}-batch blocks, not gated):"
    );
    println!(
        "  off  : {:.1} us/batch",
        per_batch_us(dispatch.base_best_s)
    );
    println!(
        "  noop : {:.1} us/batch",
        per_batch_us(dispatch.test_best_s)
    );
    println!("  median paired overhead = {:.3} %", dispatch.overhead_pct);

    // One calibrated backend shared by both serving scenarios.
    let agg = Arc::new(Aggregator::new());
    std::fs::create_dir_all(dump_dir)?;
    let flight =
        Arc::new(FlightRecorder::new(1024).with_dump_dir(dump_dir, &[DumpOn::BreakerOpen]));
    let tele = Telemetry::to(Tee::new(vec![
        agg.clone() as Arc<dyn Recorder>,
        flight.clone() as Arc<dyn Recorder>,
        Arc::new(trace.telemetry()),
    ]));
    let started = Instant::now();
    let backend = Arc::new(CimBackend::new(tele.clone(), 0)?);
    println!(
        "\ncalibrated the surrogate store (all-ones curve, 0-85 °C) in {:.0} ms",
        started.elapsed().as_secs_f64() * 1e3
    );

    // Claim 2: incident dump. Every live solve blows up, the breaker
    // trips, and the armed flight recorder must leave a parseable
    // black-box dump behind.
    let server = Server::start_observed(
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            breaker: BreakerConfig {
                window: 8,
                min_samples: 4,
                trip_error_rate: 0.5,
                cooldown: Duration::from_millis(200),
                ..BreakerConfig::default()
            },
            ..ServeConfig::default()
        },
        Arc::new(ChaosBackend::new(
            backend.clone(),
            ChaosPlan {
                seed: 0x0B5E_12EE,
                blowup_probability: 1.0,
                uncertified_probability: 0.0,
                panic_probability: 0.0,
            },
        )),
        tele.clone(),
        agg.clone(),
        Some(flight.clone()),
    )?;
    let addr = server.addr();
    let mut driven = 0usize;
    for i in 0..DUMP_REQUESTS {
        let body = mac_body(&format!("incident-{}", i % 3), "analytic");
        http_request(addr, "POST", "/v1/mac", &body, CLIENT_TIMEOUT)
            .map_err(|e| format!("chaos request {i}: {e}"))?;
        driven += 1;
        if agg.counts().serve_breaker_open >= 1 && flight.dumps_written() >= 1 {
            break;
        }
    }
    server.shutdown();
    let dump_path = flight
        .last_dump()
        .ok_or("the breaker tripped but no flight dump was written")?;
    let events = read_trace(&dump_path)?;
    let summary = Summary::of(&events);
    let summary_text = summary.render_text();
    let dump = ObserveDump {
        requests: driven,
        breaker_opens: agg.counts().serve_breaker_open,
        dumps_written: flight.dumps_written(),
        dump_path: dump_path.display().to_string(),
        dump_events: summary.events,
        dump_serve_breaker_open: summary.counts.serve_breaker_open,
        dump_tenants: summary.tenants.len(),
    };
    println!(
        "chaos burst: {} request(s), {} breaker trip(s), {} dump(s) written",
        dump.requests, dump.breaker_opens, dump.dumps_written
    );
    println!(
        "  {} replays as {} event(s): serve_breaker_open {} across {} tenant(s)",
        dump.dump_path, dump.dump_events, dump.dump_serve_breaker_open, dump.dump_tenants
    );

    // Claim 3: cardinality. Nine tenants against a cap of four; the
    // exposition must stay bounded with the overflow in `other`.
    let agg_cap = Arc::new(Aggregator::new().with_serve_tenant_cap(TENANT_CAP));
    let tele_cap = Telemetry::to(Tee::new(vec![
        agg_cap.clone() as Arc<dyn Recorder>,
        Arc::new(trace.telemetry()),
    ]));
    let server = Server::start_observed(
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        backend.clone(),
        tele_cap,
        agg_cap.clone(),
        None,
    )?;
    let addr = server.addr();
    for i in 0..CARDINALITY_TENANTS {
        let body = mac_body(&format!("tenant-{i}"), "analytic");
        let resp = http_request(addr, "POST", "/v1/mac", &body, CLIENT_TIMEOUT)
            .map_err(|e| format!("cardinality request {i}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("cardinality request {i} returned {}", resp.status).into());
        }
    }
    let metrics = http_request(addr, "GET", "/metrics", b"", CLIENT_TIMEOUT)
        .map_err(|e| format!("metrics scrape: {e}"))?;
    server.shutdown();
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    let mut tenants: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("ferrocim_serve_requests_total{tenant=\""))
        .filter_map(|line| line.split("tenant=\"").nth(1)?.split('"').next())
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    let cardinality = ObserveCardinality {
        tenant_cap: TENANT_CAP,
        tenants_driven: CARDINALITY_TENANTS,
        distinct_request_series: tenants.len(),
        other_present: tenants.contains(&"other"),
        bucket_series_present: text.contains("ferrocim_serve_request_latency_ms_bucket{tenant=\""),
        sum_series_present: text.contains("ferrocim_serve_request_latency_ms_sum{tenant=\""),
        count_series_present: text.contains("ferrocim_serve_request_latency_ms_count{tenant=\""),
    };
    println!(
        "\ncardinality: {} tenants through a cap of {} -> {} request series \
         (other: {}, bucket/sum/count: {}/{}/{})",
        cardinality.tenants_driven,
        cardinality.tenant_cap,
        cardinality.distinct_request_series,
        cardinality.other_present,
        cardinality.bucket_series_present,
        cardinality.sum_series_present,
        cardinality.count_series_present
    );

    // The observability contract, then the tunable gate bounds.
    let mut violations = Vec::new();
    if overhead.flight_events == 0 {
        violations.push("overhead: the flight recorder never saw an event".to_string());
    }
    if overhead.overhead_pct >= gate.max_overhead_pct {
        violations.push(format!(
            "overhead: flight recording costs {:.2} % (limit {} %)",
            overhead.overhead_pct, gate.max_overhead_pct
        ));
    }
    if dump.dump_events == 0 {
        violations.push("dump: the incident dump replayed as zero events".to_string());
    }
    if dump.dump_serve_breaker_open < gate.min_dump_breaker_opens {
        violations.push(format!(
            "dump: {} ServeBreakerOpen event(s) in the dump (gate floor {})",
            dump.dump_serve_breaker_open, gate.min_dump_breaker_opens
        ));
    }
    if !summary_text.contains("serve_breaker_open") {
        violations.push("dump: trace summary does not surface serve_breaker_open".to_string());
    }
    if dump.dump_tenants == 0 {
        violations.push("dump: the per-tenant rollup of the dump is empty".to_string());
    }
    if cardinality.distinct_request_series > gate.max_distinct_tenants {
        violations.push(format!(
            "cardinality: {} tenant series exceed the {} bound",
            cardinality.distinct_request_series, gate.max_distinct_tenants
        ));
    }
    if !cardinality.other_present {
        violations.push("cardinality: the overflow never collapsed into `other`".to_string());
    }
    if !cardinality.bucket_series_present
        || !cardinality.sum_series_present
        || !cardinality.count_series_present
    {
        violations.push("cardinality: a per-tenant latency series is missing".to_string());
    }

    let out = ObserveProbe {
        overhead,
        dispatch,
        dump,
        cardinality,
        gate,
        gate_passed: violations.is_empty(),
    };
    let path = dump_json("probe_observe", &out)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    if !out.gate_passed {
        return Err(format!(
            "observability contract violated:\n  {}",
            violations.join("\n  ")
        )
        .into());
    }
    println!("observability contract held: recording cheap, dump parseable, cardinality bounded");
    Ok(())
}
