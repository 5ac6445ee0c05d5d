//! Probe: the certified surrogate fast path (DESIGN.md §17).
//!
//! Calibrates a `ferrocim-surrogate` store against the paper-default
//! 8-cell array over the 0–85 °C grid, then measures what the
//! subsystem promises:
//!
//! 1. **Speedup** — the same seeded query mix (random inputs,
//!    in-domain temperatures) is timed twice: through cache-hit
//!    surrogate evaluations and through live analytic solves. The gate
//!    requires the surrogate to be at least 50× faster.
//! 2. **Certificate** — every timed surrogate answer is compared
//!    against its live solve; the worst deviation must stay inside the
//!    curve's certified error envelope, and the envelope itself must
//!    stay under the gate bound.
//! 3. **Check mode** — a second store runs the same mix with
//!    `CheckPolicy::every(4)`: a seeded one-in-four subsample is
//!    re-solved live and compared to the envelope. Zero violations are
//!    tolerated — the envelope is a promise, not a statistic.
//! 4. **Domain refusal** — a 120 °C query must be refused with the
//!    typed `OutOfDomain` error, never extrapolated.
//!
//! Like `probe_serve`, the gate bounds in
//! `baselines/probe_surrogate.json` (compiled into the probe) are
//! hand-set limits (wall-clock ratios are machine-dependent);
//! `bench_gate.sh --update` never rewrites them.
//! Dumps `results/probe_surrogate.json`.

use ferrocim_bench::schema::{
    SurrogateCalibration, SurrogateCheckAudit, SurrogateDomainDemo, SurrogateGateBounds,
    SurrogateProbe, SurrogateSpeedup,
};
use ferrocim_bench::{dump_json, print_table, Trace};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::transfer::Adc;
use ferrocim_cim::{ArrayConfig, CimArray, MacPath, MacRequest};
use ferrocim_surrogate::{CheckPolicy, MacSurrogate, SurrogateError};
use ferrocim_telemetry::{Aggregator, Recorder, Tee, Telemetry};
use ferrocim_units::Celsius;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// The calibration temperature grid: the paper's operating range with
/// a room-temperature anchor (the same grid `ferrocim-serve` uses).
const GRID_C: [f64; 3] = [0.0, 27.0, 85.0];
/// Queries in the timed mix.
const QUERIES: usize = 128;
/// In-domain temperatures the query mix draws from. A small discrete
/// set keeps the per-temperature reference ADCs cheap to calibrate.
const QUERY_TEMPS_C: [f64; 6] = [0.0, 13.5, 27.0, 40.0, 56.0, 85.0];
/// The deliberately out-of-domain temperature for the refusal demo.
const OUT_OF_DOMAIN_C: f64 = 120.0;
/// Query-mix RNG seed (reproducible run-to-run).
const MIX_SEED: u64 = 0x05E5_EF17;
/// Check-mode sampling period.
const CHECK_EVERY: u64 = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = Trace::from_args()?;
    let gate = SurrogateGateBounds::checked_in()?;
    println!("# Probe — certified surrogate fast path: speedup, envelope, checks, domain\n");

    let agg = Arc::new(Aggregator::new());
    let tele = Telemetry::to(Tee::new(vec![
        agg.clone() as Arc<dyn Recorder>,
        Arc::new(trace.telemetry()),
    ]));
    let array = CimArray::new(
        TwoTransistorOneFefet::paper_default(),
        ArrayConfig::paper_default(),
    )?
    .with_recorder(tele.clone());
    let n = array.config().cells_per_row;
    let grid: Vec<Celsius> = GRID_C.iter().map(|&t| Celsius(t)).collect();
    let surrogate = MacSurrogate::new(array.clone(), &grid)?;

    // Calibrate the timed curve (a mixed weight pattern, so the probe
    // does not ride the all-ones special case) and record its cost.
    let weights: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
    let started = Instant::now();
    let curve = surrogate.curve_for(&weights)?;
    let calibration_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let envelope = curve.envelope();
    println!(
        "calibrated {} cells over {:?} °C in {:.0} ms ({} live solves, envelope {:.3} mV)",
        n,
        GRID_C,
        calibration_wall_ms,
        curve.solves(),
        envelope.max_v * 1e3
    );

    // The seeded query mix: random inputs, temperatures from the
    // discrete in-domain set.
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let mix: Vec<(Vec<bool>, Celsius)> = (0..QUERIES)
        .map(|_| {
            let inputs: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
            let temp = Celsius(QUERY_TEMPS_C[rng.random_range(0..QUERY_TEMPS_C.len())]);
            (inputs, temp)
        })
        .collect();

    // Timed pass 1: cache-hit surrogate evaluations.
    let started = Instant::now();
    let mut surrogate_answers = Vec::with_capacity(QUERIES);
    for (inputs, temp) in &mix {
        surrogate_answers.push(surrogate.evaluate(&weights, inputs, *temp)?);
    }
    let surrogate_us = started.elapsed().as_secs_f64() * 1e6;

    // Timed pass 2: the same queries through live analytic solves.
    let started = Instant::now();
    let mut live_answers = Vec::with_capacity(QUERIES);
    for (inputs, temp) in &mix {
        live_answers.push(
            array.run(
                &MacRequest::new(inputs)
                    .weights(&weights)
                    .at(*temp)
                    .path(MacPath::Analytic),
            )?,
        );
    }
    let live_us = started.elapsed().as_secs_f64() * 1e6;

    // The certificate, measured: worst |v_surrogate − v_live| across
    // the mix, plus readout agreement against a per-temperature
    // reference ADC (informational — a deviation inside the envelope
    // may still legally cross a quantization threshold).
    let mut max_abs_deviation_v = 0.0f64;
    let mut readout_mismatches = 0usize;
    for ((inputs, temp), (fast, live)) in mix
        .iter()
        .zip(surrogate_answers.iter().zip(live_answers.iter()))
    {
        let _ = inputs;
        max_abs_deviation_v = max_abs_deviation_v.max((fast.v_acc - live.v_acc).value().abs());
        let adc = Adc::calibrate(&array, *temp)?;
        if fast.readout != adc.quantize(live.v_acc) {
            readout_mismatches += 1;
        }
    }
    let speedup = SurrogateSpeedup {
        queries: QUERIES,
        live_us_per_query: live_us / QUERIES as f64,
        surrogate_us_per_query: surrogate_us / QUERIES as f64,
        speedup: live_us / surrogate_us,
        max_abs_deviation_v,
        readout_mismatches,
    };

    // Check mode: a fresh store (so check-mode live solves never
    // pollute the timing above) replays the mix under
    // `CheckPolicy::every(4)`.
    let checker =
        MacSurrogate::new(array.clone(), &grid)?.with_check(CheckPolicy::every(CHECK_EVERY));
    for (inputs, temp) in &mix {
        checker.evaluate(&weights, inputs, *temp)?;
    }
    let counts = checker.counts();
    let check = SurrogateCheckAudit {
        every: CHECK_EVERY,
        queries: QUERIES,
        checks: counts.checks,
        check_failures: counts.check_failures,
    };

    // Domain refusal: 120 °C is outside the grid and must come back as
    // the typed `OutOfDomain`, not an extrapolated number.
    let (lo_c, hi_c) = surrogate.domain_c();
    let inputs = vec![true; n];
    let rejected_typed = matches!(
        surrogate.evaluate(&weights, &inputs, Celsius(OUT_OF_DOMAIN_C)),
        Err(SurrogateError::OutOfDomain { .. })
    );
    let domain = SurrogateDomainDemo {
        lo_c,
        hi_c,
        rejected_temp_c: OUT_OF_DOMAIN_C,
        rejected_typed,
    };

    let calibration = SurrogateCalibration {
        curves: surrogate.store().len(),
        solves: curve.solves() as u64,
        wall_ms: calibration_wall_ms,
        envelope_max_v: envelope.max_v,
        envelope_rms_v: envelope.rms_v,
        envelope_probes: envelope.probes,
    };

    print_table(
        &["measure", "value"],
        &[
            vec![
                "live µs/query".to_string(),
                format!("{:.2}", speedup.live_us_per_query),
            ],
            vec![
                "surrogate µs/query".to_string(),
                format!("{:.3}", speedup.surrogate_us_per_query),
            ],
            vec!["speedup".to_string(), format!("{:.0}x", speedup.speedup)],
            vec![
                "certified envelope".to_string(),
                format!("{:.4} mV", envelope.max_v * 1e3),
            ],
            vec![
                "worst observed deviation".to_string(),
                format!("{:.4} mV", max_abs_deviation_v * 1e3),
            ],
            vec![
                "readout mismatches".to_string(),
                format!("{}/{}", readout_mismatches, QUERIES),
            ],
            vec![
                "checks (1 in 4)".to_string(),
                format!("{} ({} failed)", check.checks, check.check_failures),
            ],
            vec![
                "120 °C query".to_string(),
                if rejected_typed {
                    "refused (typed OutOfDomain)".to_string()
                } else {
                    "NOT refused".to_string()
                },
            ],
        ],
    );

    let mut violations = Vec::new();
    if speedup.speedup < gate.min_speedup {
        violations.push(format!(
            "speedup {:.1}x below the {:.0}x bound",
            speedup.speedup, gate.min_speedup
        ));
    }
    if !(envelope.max_v.is_finite() && envelope.max_v > 0.0) {
        violations.push(format!(
            "certified envelope {} is not usable",
            envelope.max_v
        ));
    }
    if envelope.max_v > gate.max_envelope_v {
        violations.push(format!(
            "certified envelope {:.3} mV exceeds the {:.3} mV bound",
            envelope.max_v * 1e3,
            gate.max_envelope_v * 1e3
        ));
    }
    if max_abs_deviation_v > envelope.max_v {
        violations.push(format!(
            "observed deviation {:.3} mV escaped the certified {:.3} mV envelope",
            max_abs_deviation_v * 1e3,
            envelope.max_v * 1e3
        ));
    }
    if check.checks == 0 {
        violations.push("check mode never sampled a query".into());
    }
    if check.check_failures > gate.max_check_failures {
        violations.push(format!(
            "{} check-mode envelope violation(s) (gate allows {})",
            check.check_failures, gate.max_check_failures
        ));
    }
    if !rejected_typed {
        violations.push("the out-of-domain query was not refused with OutOfDomain".into());
    }

    let out = SurrogateProbe {
        cells_per_row: n,
        grid_c: GRID_C.to_vec(),
        calibration,
        speedup,
        check,
        domain,
        gate,
        gate_passed: violations.is_empty(),
    };
    let path = dump_json("probe_surrogate", &out)?;
    println!("\nwrote {}", path.display());
    trace.finish()?;
    if !out.gate_passed {
        return Err(format!(
            "surrogate contract violated:\n  {}",
            violations.join("\n  ")
        )
        .into());
    }
    println!("surrogate contract held: fast, certified, checked, and domain-honest");
    Ok(())
}
