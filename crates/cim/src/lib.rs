//! Temperature-resilient subthreshold-FeFET compute-in-memory — the
//! primary contribution of the reproduced DATE 2024 paper.
//!
//! The crate provides:
//!
//! * [`cells`] — the baseline [`cells::OneFefetOneR`] and
//!   [`cells::OneFefetOneT`] cells and the proposed
//!   [`cells::TwoTransistorOneFefet`] feedback cell, all built on the
//!   `ferrocim-spice` circuit engine, with binary or multi-level
//!   ([`cells::CellWeight`]) stored weights.
//! * [`CimArray`] — rows of cells with per-cell `C_o` capacitors, an
//!   `EN`-switched accumulation capacitor `C_acc`, and full-transient or
//!   analytic charge-sharing MAC evaluation (the paper's Fig. 6 array
//!   and Eq. (1)); [`Crossbar`] stacks programmable rows into
//!   matrix–vector tiles. [`ArrayEngine`] batches many input vectors
//!   over one built row netlist, and [`Crossbar::matvec_batch`] fans
//!   whole matrix–vector products across threads.
//! * [`metrics`] — the Noise Margin Rate of Eqs. (2)–(3), output-range
//!   tables over temperature (optionally variation-inflated), and
//!   energy-efficiency accounting.
//! * [`transfer`] — the ADC ([`transfer::Adc`], global or
//!   replica-tracked) and the statistical readout model consumed by
//!   `ferrocim-nn` for hardware-in-the-loop accuracy evaluation.
//! * [`program`] — write-verify programming (the paper's ref \[9\]
//!   technique) that trims device variation out of stored weights.
//! * [`tune`] — the W/L coordinate-search tuner implementing the
//!   paper's "cell parameters are tuned" step.
//! * [`compare`] — the Table II cross-design comparison scaffold.
//!
//! # Example
//!
//! ```
//! use ferrocim_cim::cells::{CellDesign, CellOffsets, TwoTransistorOneFefet};
//! use ferrocim_units::Celsius;
//!
//! # fn main() -> Result<(), ferrocim_cim::CimError> {
//! let cell = TwoTransistorOneFefet::paper_default();
//! // stored '1' × input '1' conducts; stored '0' × input '1' does not.
//! let on = cell.read_current(true, true, Celsius(27.0), &CellOffsets::NOMINAL)?;
//! let off = cell.read_current(false, true, Celsius(27.0), &CellOffsets::NOMINAL)?;
//! assert!(on.value() > 10.0 * off.value().abs());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod array;
mod bias;
pub mod cells;
pub mod compare;
mod crossbar;
mod engine;
mod error;
pub mod fault;
pub mod metrics;
pub mod program;
pub mod transfer;
pub mod tune;

pub use array::{mac_operands, ArrayConfig, CimArray, MacBatch, MacOutput, MacPath, MacRequest};
pub use bias::ReadBias;
pub use crossbar::{Crossbar, MatVecOutput};
pub use engine::ArrayEngine;
pub use error::CimError;
pub use fault::{CellFault, FaultPlan};

/// Re-exported run context: [`CimArray::with_context`] and
/// [`Crossbar::with_context`] set the budget, telemetry, solver and
/// health policy every solve below them runs under; [`ArrayEngine`]
/// runs under its array's context.
pub use ferrocim_spice::RunContext;
/// Re-exported telemetry handle: [`CimArray`] and [`Crossbar`] accept
/// one via `with_recorder`, the shorthand for replacing only the
/// context's telemetry (see [`ferrocim_telemetry`] for recorders,
/// aggregation, and trace sinks).
pub use ferrocim_telemetry::Telemetry;
