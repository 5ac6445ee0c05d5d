//! `mc_variation`: the paper's Fig. 9 Monte-Carlo (σ_VT = 54 mV,
//! 100 samples per MAC level) on the 8-cell row, cycling 0, 27 and
//! 85 °C, through `TransferModel::measure`.
//!
//! Each sample is an analytic-path MAC with its own per-cell threshold
//! offsets: many tiny dense transients fanned out over `MonteCarlo`
//! threads, never the sparse LU. One op is one sample; one call is one
//! `measure` (9 levels × 100 samples). The timed phase runs whole
//! temperature cycles, so every run weighs the three corners alike.

use crate::probe::{self, mix, since, Digest, Probe};
use crate::{Outcome, Window};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::transfer::{TransferConfig, TransferModel};
use ferrocim_cim::{ArrayConfig, CimArray};
use ferrocim_units::Celsius;
use std::error::Error;
use std::time::Instant;

/// Temperatures cycled call by call.
const TEMPS_C: [f64; 3] = [0.0, 27.0, 85.0];

/// Monte-Carlo samples per level of the set-up's warm-up measurement.
const WARM_UP_SAMPLES: usize = 10;

/// The paper's Fig. 9 worst-case readout error, as a share of full
/// scale.
const PAPER_MAX_ERROR: f64 = 0.25;

pub fn run(probe: &Probe, seed: u64, seconds: f64, reps: usize) -> Result<Outcome, Box<dyn Error>> {
    // Set-up builds the row and runs one small warm-up measurement, so
    // fan-out threads and ADC calibration are exercised before the timed
    // phase.
    let (array, setup_s) = probe::repeat_setup(reps, || {
        let array = CimArray::new(
            TwoTransistorOneFefet::paper_default(),
            ArrayConfig::paper_default(),
        )?
        .with_recorder(probe.telemetry.clone());
        let warm_up = TransferConfig {
            samples_per_level: WARM_UP_SAMPLES,
            ..TransferConfig::paper_default(Celsius::ROOM)
        };
        TransferModel::measure(&array, &warm_up)?;
        Ok::<_, ferrocim_cim::CimError>(array)
    })?;
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut models: Vec<TransferModel> = Vec::new();
    let start = Instant::now();
    let mut call = 0u64;
    while !call.is_multiple_of(TEMPS_C.len() as u64) || since(start) < seconds {
        let temp = Celsius(TEMPS_C[call as usize % TEMPS_C.len()]);
        let config = TransferConfig {
            seed: mix(seed, call),
            ..TransferConfig::paper_default(temp)
        };
        let samples =
            (config.samples_per_level * (ArrayConfig::paper_default().cells_per_row + 1)) as u64;
        let began = Instant::now();
        let measured = {
            let _span = probe.span("bench.transfer_measure");
            TransferModel::measure(&array, &config)
        };
        let mut window = Window {
            attempted: samples,
            failed: 0,
            seconds: since(began),
        };
        outcome.call_ms.push(window.seconds * 1e3);
        let rows_sum_to_one = |m: &TransferModel| {
            m.confusion()
                .iter()
                .all(|row| (row.iter().sum::<f64>() - 1.0).abs() < 1e-9)
        };
        // `measure` returns every sample or an error, so a failed
        // sample fails the whole call.
        match measured {
            Ok(model) if rows_sum_to_one(&model) => models.push(model),
            _ => window.failed = samples,
        }
        outcome.windows.push(window);
        call += 1;
    }

    // Share of samples read back exactly, over every level and call.
    let exact: f64 = models
        .iter()
        .map(|m| {
            let levels = m.confusion().len();
            (0..levels).map(|k| m.correct_probability(k)).sum::<f64>() / levels as f64
        })
        .sum();
    outcome.agreement = exact / models.len().max(1) as f64;
    // `measure` runs its Monte-Carlo without a recorder, so the
    // aggregator sees no run events; the samples are counted here.
    let failed = outcome.failed();
    outcome
        .layers
        .insert("cim.mc_runs_ok", (outcome.attempted() - failed) as f64);
    outcome.layers.insert("cim.mc_runs_failed", failed as f64);
    println!(
        "  {call} calls of {} samples, {:.0?} ms each",
        outcome.attempted() / call.max(1),
        outcome.call_ms
    );
    for model in models.iter().take(TEMPS_C.len()) {
        println!(
            "  fidelity @ {:>4.0} C: max relative error {:.1} % (paper Fig. 9: ≈{:.0} %)",
            model.temp().value(),
            model.max_relative_error() * 100.0,
            PAPER_MAX_ERROR * 100.0
        );
    }
    if let Some(first) = models.first() {
        let mut digest = Digest::default();
        for p in first.confusion().iter().flatten() {
            digest.push(p.to_bits());
        }
        println!("  digest confusion of call 0: {digest}");
    }
    Ok(outcome)
}
