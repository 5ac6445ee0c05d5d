//! Certified error-bounded surrogate fast path for CIM MAC evaluation.
//!
//! Live MAC evaluation walks the full stack — netlist construction,
//! transient or analytic device solves, charge sharing — every time,
//! even though production workloads ask the *same* physical array the
//! same class of question over and over: "given these programmed
//! weights, these faults, and this temperature, what does the row
//! read?". This crate memoizes that question safely.
//!
//! The design has three pieces:
//!
//! 1. **A content-addressed key** ([`fingerprint()`]): an order-insensitive
//!    hash of the cell/netlist topology, the array geometry, the
//!    calibration temperature grid, and the per-column programmed state
//!    (weight bit + injected fault). Two arrays that are physically
//!    identical produce the same key no matter how their fault plans or
//!    cell states were enumerated.
//! 2. **A calibrated curve** ([`CalibratedCurve`]): for a fixed key, the
//!    analytic MAC is *linear in the input bits* — `v_acc(x) = base +
//!    Σᵢ xᵢ·Δᵢ` — because each cell drives its own output capacitor and
//!    charge sharing combines them linearly. Calibration therefore needs
//!    only `n + 1` live solves per grid temperature (one all-zero base,
//!    one per one-hot input). Queries between grid temperatures
//!    interpolate linearly; queries outside the grid return a typed
//!    [`SurrogateError::OutOfDomain`] instead of extrapolating.
//! 3. **A certified error envelope** ([`ErrorEnvelope`]): at calibration
//!    time the curve is probed against live solves at the interpolation
//!    worst case (midpoints between grid temperatures) over ramp and
//!    seeded-random input patterns. The observed maximum deviation,
//!    inflated by a safety factor plus an absolute floor, is stored with
//!    the curve and reported with every answer. A check mode
//!    ([`CheckPolicy`]) routes a deterministic subsample of hit-path
//!    queries back through the live solver and flags any answer whose
//!    deviation exceeds the envelope.
//!
//! Lookup outcomes and check results flow into the shared telemetry
//! pipeline as [`ferrocim_telemetry::Event::SurrogateLookup`] /
//! [`ferrocim_telemetry::Event::SurrogateCheck`], so hit rates and
//! envelope violations are visible in Prometheus and the bench gate.
//!
//! ```
//! use ferrocim_cim::cells::TwoTransistorOneFefet;
//! use ferrocim_cim::{ArrayConfig, CimArray};
//! use ferrocim_surrogate::MacSurrogate;
//! use ferrocim_units::{Celsius, Second};
//!
//! let config = ArrayConfig {
//!     cells_per_row: 4,
//!     dt: Second(100e-12),
//!     ..ArrayConfig::paper_default()
//! };
//! let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)?;
//! let surrogate = MacSurrogate::new(array, &[Celsius(0.0), Celsius(85.0)])?;
//! let weights = [true, false, true, true];
//! let inputs = [true, true, false, true];
//! // First query calibrates (live solves); repeats answer from the curve.
//! let answer = surrogate.evaluate(&weights, &inputs, Celsius(27.0))?;
//! assert_eq!(answer.expected, 2);
//! assert!(answer.envelope.max_v > 0.0);
//! # Ok::<(), ferrocim_surrogate::SurrogateError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod curve;
pub mod fingerprint;
pub mod store;

pub use curve::{CalibratedCurve, CheckOutcome, ErrorEnvelope, SurrogateAnswer};
pub use fingerprint::{fingerprint, CellState};
pub use store::{CheckPolicy, MacSurrogate, SurrogateCounts, SurrogateStore};

use ferrocim_cim::CimError;

/// Typed failures of the surrogate layer.
///
/// `OutOfDomain` is the load-bearing variant: the surrogate never
/// extrapolates outside its calibrated temperature grid, so callers can
/// (and must) fall back to a live solve — or clamp into the domain when
/// an infallible degraded answer is required.
#[derive(Debug, Clone)]
pub enum SurrogateError {
    /// The query temperature lies outside the calibrated grid.
    OutOfDomain {
        /// The requested temperature, °C.
        temp_c: f64,
        /// Lower edge of the calibrated domain, °C.
        lo_c: f64,
        /// Upper edge of the calibrated domain, °C.
        hi_c: f64,
    },
    /// Operand slices did not match the array's row width.
    MismatchedOperands {
        /// Length of the weights slice.
        weights: usize,
        /// Length of the inputs slice.
        inputs: usize,
        /// The array's configured row width.
        cells_per_row: usize,
    },
    /// The calibration temperature grid was rejected.
    InvalidGrid {
        /// What the grid must satisfy.
        requirement: &'static str,
    },
    /// A live calibration or check solve failed underneath.
    Cim(CimError),
    /// The calibration this caller waited for panicked; the key stays
    /// uncalibrated, so a later query calibrates it afresh.
    CalibrationPanicked {
        /// The surrogate key whose calibration panicked.
        key: u64,
    },
}

impl std::fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SurrogateError::OutOfDomain { temp_c, lo_c, hi_c } => write!(
                f,
                "temperature {temp_c} °C is outside the calibrated domain \
                 [{lo_c}, {hi_c}] °C; the surrogate does not extrapolate"
            ),
            SurrogateError::MismatchedOperands {
                weights,
                inputs,
                cells_per_row,
            } => write!(
                f,
                "operand widths (weights {weights}, inputs {inputs}) do not \
                 match the row width {cells_per_row}"
            ),
            SurrogateError::InvalidGrid { requirement } => {
                write!(f, "invalid calibration temperature grid: {requirement}")
            }
            SurrogateError::Cim(e) => write!(f, "live solve failed: {e}"),
            SurrogateError::CalibrationPanicked { key } => {
                write!(f, "the calibration of surrogate key {key:016x} panicked")
            }
        }
    }
}

impl std::error::Error for SurrogateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SurrogateError::Cim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CimError> for SurrogateError {
    fn from(e: CimError) -> Self {
        SurrogateError::Cim(e)
    }
}
