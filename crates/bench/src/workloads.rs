//! The counted workloads of the probes.
//!
//! Each probe binary times or prints one of these functions, and
//! `tests/counter_gates.rs` runs the same function once under an
//! [`Aggregator`] and asserts the exact solver work it records (Newton
//! iterations, step accept/reject, MAC jobs, factorizations…). Wall
//! clocks stay in the binaries: where a probe times a workload, it
//! passes its clock in or wraps the call.

use crate::schema::{AdaptiveProbe, GuardrailDemo, PathStats};
use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::{
    mac_operands, ArrayConfig, CimArray, CimError, Crossbar, FaultPlan, MacOutput, MacRequest,
};
use ferrocim_spice::{
    AdaptiveOptions, Circuit, DcAnalysis, Element, FailurePolicy, HealthPolicy, RunContext,
    SolverConfig, SpiceError, TransientAnalysis, TransientResult, Workspace,
};
use ferrocim_telemetry::{Aggregator, Recorder, Tee, Telemetry};
use ferrocim_units::{Celsius, Farad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::sync::Arc;

/// A proposed 2T-1FeFET row `cells` wide. `C_acc` grows with the row
/// (≈1 fF per cell, as the shared capacitor would in layout), so eight
/// cells is exactly the paper default.
fn wide_row(cells: usize) -> Result<CimArray<TwoTransistorOneFefet>, CimError> {
    let base = ArrayConfig::paper_default();
    let config = ArrayConfig {
        cells_per_row: cells,
        c_acc: Farad(cells as f64 * base.c_o.value()),
        ..base
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config)
}

/// The mid-scale MAC of a `cells`-wide row: every weight 1 and the
/// first `cells / 2 + 1` inputs on, so both the charge and the share
/// phase run with several cells active.
fn mid_scale_operands(cells: usize) -> (Vec<bool>, Vec<bool>) {
    mac_operands(cells, cells / 2 + 1)
}

/// The paper-default row's mid-scale transient MAC at 27 °C (8 cells,
/// 37 unknowns) in `ws`, with every Newton solve certified under
/// `health`: the dense row `probe_health` times certification on, and
/// the row `probe_sparse` times on both backends (a fresh
/// `Workspace::new()` solves it with the dense LU).
///
/// # Errors
///
/// Returns the MAC's error.
pub fn paper_row_mac(health: HealthPolicy, ws: &mut Workspace) -> Result<MacOutput, CimError> {
    let cells = ArrayConfig::paper_default().cells_per_row;
    let array = wide_row(cells)?.with_context(RunContext {
        health,
        ..RunContext::default()
    });
    let (weights, inputs) = mid_scale_operands(cells);
    array.run_in(&MacRequest::new(&inputs).weights(&weights), ws)
}

/// The mid-scale readout netlist of a `cells`-wide row and its MNA
/// unknown count (non-ground nodes plus one branch current per voltage
/// source). This is the DC workload `probe_sparse`, `probe_health` and
/// `probe_observe` time.
///
/// # Errors
///
/// Returns the array's configuration error for `cells == 0`.
pub fn wide_row_readout(cells: usize) -> Result<(Circuit, usize), CimError> {
    let array = wide_row(cells)?;
    let (weights, inputs) = mid_scale_operands(cells);
    let (ckt, _acc, _t_stop) = array.readout_circuit(&weights, &inputs)?;
    let sources = ckt
        .elements()
        .iter()
        .filter(|el| matches!(el, Element::VoltageSource { .. }))
        .count();
    let unknowns = ckt.node_count() - 1 + sources;
    Ok((ckt, unknowns))
}

/// `probe_sparse`'s end-to-end workload: one mid-scale transient MAC on
/// a `cells`-wide row through the sparse backend, recorded into
/// `telemetry`. Returns the MAC output and the workspace's (symbolic,
/// numeric) factorization counts.
///
/// # Errors
///
/// Returns the MAC's error.
pub fn wide_row_mac(
    cells: usize,
    telemetry: &Telemetry,
) -> Result<(MacOutput, (u64, u64)), Box<dyn Error>> {
    let array = wide_row(cells)?.with_recorder(telemetry.clone());
    let (weights, inputs) = mid_scale_operands(cells);
    let mut ws = Workspace::with_solver(SolverConfig::sparse());
    let out = array.run_in(&MacRequest::new(&inputs).weights(&weights), &mut ws)?;
    let factors = ws
        .sparse_factor_counts()
        .ok_or("the sparse backend was not selected")?;
    Ok((out, factors))
}

/// `probe_adaptive`'s workload: the paper-default row's mid-scale
/// readout transient, once at the fixed array timestep and once under
/// LTE step control, both recorded into `telemetry`.
///
/// `time` runs one analysis and returns its wall clock in seconds with
/// its result; the probe times best-of-N there, a counter test runs it
/// once.
///
/// # Errors
///
/// Returns the circuit's construction error or the first error `time`
/// returns.
pub fn adaptive_probe(
    telemetry: &Telemetry,
    mut time: impl FnMut(&TransientAnalysis<'_>) -> Result<(f64, TransientResult), SpiceError>,
) -> Result<AdaptiveProbe, Box<dyn Error>> {
    let config = ArrayConfig::paper_default();
    let cells = config.cells_per_row;
    let (weights, inputs) = mid_scale_operands(cells);
    let (ckt, acc, t_stop) = wide_row(cells)?.readout_circuit(&weights, &inputs)?;
    let opts = AdaptiveOptions::for_duration(t_stop);
    let mut stats = |analysis: TransientAnalysis<'_>| -> Result<(PathStats, f64), SpiceError> {
        let (wall_s, run) = time(&analysis.with_recorder(telemetry.clone()))?;
        let report = run.step_report();
        let v_acc = run.final_voltage(acc).value();
        let stats = PathStats {
            samples: run.times().len(),
            accepted: report.accepted,
            rejected: report.rejected,
            rescued: report.rescued,
            wall_clock_us: wall_s * 1e6,
            v_acc_mv: v_acc * 1e3,
        };
        Ok((stats, v_acc))
    };
    let (fixed, v_fixed) = stats(TransientAnalysis::over(&ckt, t_stop).with_fixed_step(config.dt))?;
    let (adaptive, v_adaptive) =
        stats(TransientAnalysis::over(&ckt, t_stop).with_adaptive_options(opts))?;
    Ok(AdaptiveProbe {
        cells_per_row: cells,
        mac_level: cells / 2 + 1,
        t_stop_ns: t_stop.value() * 1e9,
        fixed_dt_ps: config.dt.value() * 1e12,
        lte_tol: opts.lte_tol,
        endpoint_delta_uv: (v_adaptive - v_fixed).abs() * 1e6,
        step_ratio: fixed.accepted as f64 / adaptive.accepted.max(1) as f64,
        speedup: fixed.wall_clock_us / adaptive.wall_clock_us,
        fixed,
        adaptive,
    })
}

/// `probe_health`'s teeth: the paper-default row's readout DC solve
/// held to an unmeetable backward-error tolerance, recorded into
/// `telemetry`. The solve must walk iterative refinement and the whole
/// degradation ladder, then refuse with `UncertifiedSolve`.
///
/// # Errors
///
/// Returns the circuit's construction error, or any solve error other
/// than the expected refusal.
pub fn certification_refusal(telemetry: &Telemetry) -> Result<GuardrailDemo, Box<dyn Error>> {
    let agg = Arc::new(Aggregator::new());
    let tele = Telemetry::to(Tee::new(vec![
        agg.clone() as Arc<dyn Recorder>,
        Arc::new(telemetry.clone()),
    ]));
    let (ckt, _unknowns) = wide_row_readout(ArrayConfig::paper_default().cells_per_row)?;
    let strict = HealthPolicy {
        residual_tol: 1e-30,
        ..HealthPolicy::default()
    };
    let refusal = DcAnalysis::new(&ckt)
        .with_context(RunContext {
            telemetry: tele,
            health: strict,
            ..RunContext::default()
        })
        .solve_in(&mut Workspace::with_solver(SolverConfig::sparse()));
    let (refused, reported_residual, cond_estimate) = match refusal {
        Err(SpiceError::UncertifiedSolve {
            residual,
            cond_estimate,
        }) => (true, residual, cond_estimate),
        Err(other) => return Err(format!("expected UncertifiedSolve, got {other:?}").into()),
        Ok(_) => (false, f64::NAN, None),
    };
    let counts = agg.counts();
    Ok(GuardrailDemo {
        residual_tol: strict.residual_tol,
        refused,
        reported_residual,
        cond_estimate,
        solves_refined: counts.solves_refined,
        solves_degraded: counts.solves_degraded,
    })
}

/// Crossbar rows of the fault sweep.
const FAULT_ROWS: usize = 4;
/// Seed of the sweep's weights, inputs and fault plans.
const FAULT_SEED: u64 = 42;
/// Cell fault rates swept.
const FAULT_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];
/// Temperatures every input batch is read at.
const FAULT_TEMPS: [Celsius; 3] = [Celsius(0.0), Celsius(27.0), Celsius(85.0)];
/// Input vectors per batch.
const FAULT_INPUTS: usize = 16;

/// The worst-case noise margin rate over adjacent observed true-count
/// levels: `min (lo_{k+1} - hi_k) / (hi_k - lo_k)`, computed from the
/// measured analog ranges (skipping counts never observed).
fn empirical_nmr_min(ranges: &[Option<(f64, f64)>]) -> Option<f64> {
    let observed: Vec<(f64, f64)> = ranges.iter().filter_map(|r| *r).collect();
    observed
        .windows(2)
        .map(|w| {
            let (lo_k, hi_k) = w[0];
            let (lo_next, _) = w[1];
            (lo_next - hi_k) / (hi_k - lo_k).max(1e-12)
        })
        .min_by(f64::total_cmp)
}

/// `probe_faults`'s workload: readout accuracy and noise margin of a
/// 4×8 proposed crossbar as the cell fault rate grows, recorded into
/// `telemetry`.
///
/// For each fault rate a deterministic [`FaultPlan`] (seed 42) is
/// installed and 16 seeded input vectors are read through the
/// fault-tolerant batched matrix–vector path at 0, 27 and 85 °C. Every
/// digital readout is scored against the fault-free true count, and an
/// *empirical* worst-case noise margin is computed from the observed
/// analog outputs grouped by true count (the analytic
/// [`ferrocim_cim::metrics::RangeTable`] assumes identical cells, which
/// faults break). Returns one report row per rate: rate, injected
/// faults, readout accuracy, mean |error| and empirical `NMR_min`.
///
/// # Errors
///
/// Returns the first crossbar, fault-plan or batch error.
pub fn fault_sweep(telemetry: &Telemetry) -> Result<Vec<[String; 5]>, Box<dyn Error>> {
    let config = ArrayConfig::paper_default();
    let cols = config.cells_per_row;
    let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)?
        .with_recorder(telemetry.clone());
    let mut xbar = Crossbar::new(array, FAULT_ROWS)?;

    // Deterministic weights and inputs, independent of the fault plan.
    let mut rng = StdRng::seed_from_u64(FAULT_SEED);
    for r in 0..FAULT_ROWS {
        let weights: Vec<bool> = (0..cols).map(|_| rng.random::<f64>() < 0.5).collect();
        xbar.program_row(r, &weights)?;
    }
    let inputs: Vec<Vec<bool>> = (0..FAULT_INPUTS)
        .map(|_| (0..cols).map(|_| rng.random::<f64>() < 0.5).collect())
        .collect();

    let mut rows = Vec::with_capacity(FAULT_RATES.len());
    for rate in FAULT_RATES {
        let plan = FaultPlan::random(FAULT_ROWS, cols, rate, FAULT_SEED)?;
        let injected = plan.fault_count();
        let faulted = xbar.clone().with_fault_plan(plan)?;

        let mut reads = 0usize;
        let mut exact = 0usize;
        let mut abs_err = 0usize;
        // Observed analog range per true count, pooled over rows/temps.
        let mut ranges: Vec<Option<(f64, f64)>> = vec![None; cols + 1];
        for temp in FAULT_TEMPS {
            let report = faulted.try_matvec_batch(
                &inputs,
                temp,
                &FailurePolicy::SkipAndReport { max_failures: 0 },
            )?;
            for (x, out) in inputs.iter().zip(report.values()) {
                for r in 0..FAULT_ROWS {
                    let truth = faulted
                        .row(r)
                        .iter()
                        .zip(x)
                        .filter(|(w, &on)| w.bit() && on)
                        .count();
                    reads += 1;
                    if out.digital[r] == truth {
                        exact += 1;
                    }
                    abs_err += out.digital[r].abs_diff(truth);
                    let v = out.analog[r].value();
                    let (lo, hi) = ranges[truth].unwrap_or((v, v));
                    ranges[truth] = Some((lo.min(v), hi.max(v)));
                }
            }
        }
        rows.push([
            rate.to_string(),
            injected.to_string(),
            format!("{:.4}", exact as f64 / reads as f64),
            format!("{:.4}", abs_err as f64 / reads as f64),
            empirical_nmr_min(&ranges).map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}")),
        ]);
    }
    Ok(rows)
}
