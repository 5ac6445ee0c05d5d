//! The solver backend behind the service, its surrogate fast path, and
//! its degraded fallback.
//!
//! [`MacBackend`] is the seam the server is written against: the real
//! [`CimBackend`] runs live `ferrocim-cim` transients, while tests and
//! the `probe_observe` bench wrap a backend in [`crate::ChaosBackend`]
//! to inject faults. Two layers sit in front of and behind the live
//! solve:
//!
//! - **Surrogate fast path** ([`MacBackend::surrogate`]): the
//!   content-addressed store from `ferrocim-surrogate`. Analytic
//!   requests whose (weights, faults, temperature-domain) key is
//!   calibrated are answered from the curve — no netlist, no Newton
//!   iterations — marked `surrogate: true` with `degraded: false`; a
//!   miss calibrates the key with live solves and then answers.
//! - **Degraded fallback** ([`MacBackend::fallback`]): the surrogate's
//!   lowest tier. The all-ones-weights curve calibrated at startup
//!   answers from the request's true MAC count with the temperature
//!   clamped into the calibrated domain — infallible and solver-free,
//!   which is what makes it safe while the circuit breaker is open.
//!   Fallback answers carry `degraded: true` *and* `surrogate: true`,
//!   so clients can tell the two tiers apart: a surrogate answer is a
//!   certified curve evaluation of the actual operands, a degraded
//!   answer is the level-table estimate for the digital count.

use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::transfer::Adc;
use ferrocim_cim::{
    mac_operands, ArrayConfig, CimArray, CimError, MacPath, MacRequest, RunContext,
};
use ferrocim_spice::Budget;
use ferrocim_surrogate::{CalibratedCurve, CheckPolicy, MacSurrogate, SurrogateError};
use ferrocim_telemetry::Telemetry;
use ferrocim_units::{Celsius, Volt};
use std::sync::Arc;

/// The serve backend's calibration grid: the paper's full operating
/// range with a room-temperature anchor.
const SURROGATE_GRID_C: [f64; 3] = [0.0, 27.0, 85.0];

/// One MAC solve as the server sees it: operands, operating
/// temperature, and the per-request budget (deadline + cancellation)
/// already attached.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Word-line inputs.
    pub inputs: Vec<bool>,
    /// Stored weights.
    pub weights: Vec<bool>,
    /// Operating temperature.
    pub temp: Celsius,
    /// Deadline + cancellation budget for this request.
    pub budget: Budget,
    /// Evaluation path (analytic by default for serving latency).
    pub path: MacPath,
}

impl SolveRequest {
    /// The digital ground truth `Σ wᵢ·xᵢ`.
    pub fn true_mac(&self) -> usize {
        self.inputs
            .iter()
            .zip(&self.weights)
            .filter(|&(&x, &w)| x && w)
            .count()
    }
}

/// A completed MAC answer, live, surrogate, or degraded.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The accumulated analog output (live), its certified curve
    /// evaluation (surrogate), or its calibrated estimate (degraded).
    pub v_acc: Volt,
    /// The quantized readout count.
    pub readout: usize,
    /// The digital ground truth `Σ wᵢ·xᵢ`.
    pub expected: usize,
    /// Operation energy in joules (0 when degraded: no solve ran).
    pub energy_j: f64,
    /// MAC latency in seconds (0 when degraded).
    pub latency_s: f64,
    /// Whether this answer came from the degraded fallback tier.
    pub degraded: bool,
    /// Whether this answer was produced by the calibrated surrogate
    /// store rather than a live solve. Degraded answers from
    /// [`CimBackend`] set both flags (the fallback *is* the surrogate's
    /// lowest tier); a surrogate fast-path answer sets only this one.
    pub surrogate: bool,
}

/// The solver seam the server drives.
pub trait MacBackend: Send + Sync {
    /// Runs one live MAC under the request's budget.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; the server classifies them into
    /// retryable, deadline, and invalid-input cases.
    fn solve(&self, request: &SolveRequest) -> Result<Solution, CimError>;

    /// Tries to answer from the calibrated surrogate store without a
    /// live solve. `None` means "no fast path for this request" (no
    /// store, transient-path request, out-of-domain temperature, or a
    /// calibration that failed) and the server falls through to
    /// [`MacBackend::solve`]. The default implementation has no store.
    fn surrogate(&self, request: &SolveRequest) -> Option<Solution> {
        let _ = request;
        None
    }

    /// Answers from the degraded tier without touching the solver.
    /// Infallible by design — degradation must not be able to fail.
    fn fallback(&self, request: &SolveRequest) -> Solution;

    /// Row width the backend accepts (for input validation).
    fn cells_per_row(&self) -> usize;
}

impl<B: MacBackend + ?Sized> MacBackend for std::sync::Arc<B> {
    fn solve(&self, request: &SolveRequest) -> Result<Solution, CimError> {
        (**self).solve(request)
    }

    fn surrogate(&self, request: &SolveRequest) -> Option<Solution> {
        (**self).surrogate(request)
    }

    fn fallback(&self, request: &SolveRequest) -> Solution {
        (**self).fallback(request)
    }

    fn cells_per_row(&self) -> usize {
        (**self).cells_per_row()
    }
}

/// Maps surrogate-layer failures into the backend's error type. The
/// grid and operand widths are fixed by construction, so in practice
/// only wrapped solver errors ever surface.
fn cim_error(e: SurrogateError) -> CimError {
    match e {
        SurrogateError::Cim(e) => e,
        _ => CimError::InvalidConfig {
            name: "surrogate",
            value: 0.0,
            requirement: "the serve surrogate grid and operands are static and must be accepted",
        },
    }
}

/// The live `ferrocim-cim` backend: the paper's 2T1F array, a startup-
/// calibrated ADC, and the surrogate store whose all-ones curve doubles
/// as the degraded fallback tier.
pub struct CimBackend {
    array: CimArray<TwoTransistorOneFefet>,
    adc: Adc,
    surrogate: MacSurrogate<TwoTransistorOneFefet>,
    /// The all-ones-weights curve calibrated at startup: the degraded
    /// tier, and the proof the surrogate store is answerable before the
    /// first request lands.
    startup: Arc<CalibratedCurve>,
    levels: Vec<Volt>,
}

impl CimBackend {
    /// Builds the paper-default array, calibrates the ADC, and eagerly
    /// calibrates the surrogate's all-ones-weights curve over the
    /// 0–85 °C grid (the degraded-fallback tier). `check_every` > 0
    /// enables surrogate check mode: roughly one in that many
    /// surrogate-answered queries is re-solved live and compared to the
    /// certified envelope (0 disables checking). Telemetry flows into
    /// the server's aggregator, so calibration work, surrogate hits,
    /// and check outcomes are all visible in `/metrics`.
    ///
    /// # Errors
    ///
    /// Propagates array-construction and calibration solve failures.
    pub fn new(telemetry: Telemetry, check_every: usize) -> Result<CimBackend, CimError> {
        let array = CimArray::new(
            TwoTransistorOneFefet::paper_default(),
            ArrayConfig::paper_default(),
        )?
        .with_recorder(telemetry);
        let adc = Adc::calibrate(&array, Celsius::ROOM)?;
        let levels = array.level_voltages(Celsius::ROOM)?;
        let grid: Vec<Celsius> = SURROGATE_GRID_C.iter().map(|&t| Celsius(t)).collect();
        let mut surrogate = MacSurrogate::new(array.clone(), &grid).map_err(cim_error)?;
        if check_every > 0 {
            surrogate = surrogate.with_check(CheckPolicy::every(check_every as u64));
        }
        let n = array.config().cells_per_row;
        let startup = surrogate.curve_for(&vec![true; n]).map_err(cim_error)?;
        Ok(CimBackend {
            array,
            adc,
            surrogate,
            startup,
            levels,
        })
    }

    /// The surrogate store (counters, curves, calibration domain).
    pub fn mac_surrogate(&self) -> &MacSurrogate<TwoTransistorOneFefet> {
        &self.surrogate
    }
}

impl MacBackend for CimBackend {
    fn solve(&self, request: &SolveRequest) -> Result<Solution, CimError> {
        // Cloning the array shares nothing mutable (it is a value-type
        // netlist description); attaching the request budget threads
        // the deadline and cancel token into every transient step.
        let array = self.array.clone().with_context(RunContext {
            budget: request.budget.clone(),
            ..self.array.context().clone()
        });
        let output = array.run(
            &MacRequest::new(&request.inputs)
                .weights(&request.weights)
                .at(request.temp)
                .path(request.path),
        )?;
        Ok(Solution {
            v_acc: output.v_acc,
            readout: self.adc.quantize(output.v_acc),
            expected: output.expected,
            energy_j: output.energy.value(),
            latency_s: output.latency.value(),
            degraded: false,
            surrogate: false,
        })
    }

    fn surrogate(&self, request: &SolveRequest) -> Option<Solution> {
        // The store is calibrated against the analytic path; a client
        // that explicitly asked for a transient simulation gets one.
        if request.path != MacPath::Analytic {
            return None;
        }
        // Out-of-domain temperatures and (unreachable) width mismatches
        // fall through to the live solve; a miss calibrates in-line and
        // then answers.
        let answer = self
            .surrogate
            .evaluate(&request.weights, &request.inputs, request.temp)
            .ok()?;
        Some(Solution {
            v_acc: answer.v_acc,
            // Quantize with the serve ADC, not the curve's interpolated
            // thresholds, so surrogate and live answers to the same
            // request can never disagree about the readout convention.
            readout: self.adc.quantize(answer.v_acc),
            expected: answer.expected,
            energy_j: answer.energy.value(),
            latency_s: answer.latency.value(),
            degraded: false,
            surrogate: true,
        })
    }

    fn fallback(&self, request: &SolveRequest) -> Solution {
        let n = self.levels.len().saturating_sub(1);
        let k = request.true_mac().min(n);
        // The degraded tier is the surrogate's startup curve: evaluate
        // the all-ones-weights row at the digital count's canonical
        // pattern, with the temperature clamped into the calibrated
        // domain so the answer exists for any request.
        let (lo, hi) = self.surrogate.domain_c();
        let temp = Celsius(request.temp.value().clamp(lo, hi));
        let (_, pattern) = mac_operands(n, k);
        match self.startup.eval(&pattern, temp) {
            Ok(answer) => Solution {
                v_acc: answer.v_acc,
                readout: self.adc.quantize(answer.v_acc),
                expected: request.true_mac(),
                energy_j: 0.0,
                latency_s: 0.0,
                degraded: true,
                surrogate: true,
            },
            // Unreachable (clamped temperature, canonical width); the
            // raw level table keeps the fallback infallible regardless.
            Err(_) => Solution {
                v_acc: self.levels[k],
                readout: k,
                expected: request.true_mac(),
                energy_j: 0.0,
                latency_s: 0.0,
                degraded: true,
                surrogate: false,
            },
        }
    }

    fn cells_per_row(&self) -> usize {
        self.array.config().cells_per_row
    }
}
