//! A small analog circuit simulator for the `ferrocim` workspace.
//!
//! This crate replaces the Cadence Virtuoso Spectre runs of the paper
//! with an in-repo Modified Nodal Analysis (MNA) engine:
//!
//! * [`Circuit`] — netlist construction from [`Element`]s (resistors,
//!   capacitors, sources, scheduled switches, EKV MOSFETs and FeFETs
//!   from [`ferrocim_device`]).
//! * [`DcAnalysis`] — damped Newton–Raphson operating point.
//! * [`TransientAnalysis`] — fixed-step implicit integration (backward
//!   Euler or trapezoidal) with breakpoint alignment and per-source
//!   energy integrals, which is how the paper's fJ/op numbers are
//!   measured.
//! * [`MonteCarlo`] — deterministic seeded fan-out for process-variation
//!   studies (the paper's Fig. 9).
//! * [`sweep`] — temperature/voltage grids for the 0–85 °C evaluations.
//!
//! # Example: a subthreshold FeFET read
//!
//! ```
//! use ferrocim_spice::{Circuit, DcAnalysis, Element, NodeId};
//! use ferrocim_device::{Fefet, FefetParams, PolarizationState};
//! use ferrocim_units::{Celsius, Ohm, Volt};
//!
//! # fn main() -> Result<(), ferrocim_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let bl = ckt.node("bl");
//! let mid = ckt.node("mid");
//! let wl = ckt.node("wl");
//! ckt.add(Element::vdc("VBL", bl, NodeId::GROUND, Volt(1.2)))?;
//! ckt.add(Element::vdc("VWL", wl, NodeId::GROUND, Volt(0.35)))?;
//! ckt.add(Element::resistor("R", bl, mid, Ohm(250e3)))?;
//! let mut fefet = Fefet::new(FefetParams::paper_default());
//! fefet.force_state(PolarizationState::LowVt);
//! ckt.add(Element::fefet("F1", mid, wl, NodeId::GROUND, fefet))?;
//!
//! let op = DcAnalysis::new(&ckt).at(Celsius(27.0)).solve()?;
//! let i_cell = op.source_current("VBL")?; // the cell read current
//! assert!(i_cell.value().abs() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
pub mod chaos;
mod context;
mod dc;
mod dcsweep;
mod engine;
mod error;
mod export;
mod health;
mod linear;
mod mna;
mod montecarlo;
mod netlist;
mod rescue;
mod solver;
pub mod sweep;
mod transient;
mod waveform;

pub use budget::{Budget, BudgetResource, CancelToken, Deadline};
pub use context::RunContext;
pub use dc::{DcAnalysis, OperatingPoint};
pub use dcsweep::DcSweep;
pub use engine::{SimEngine, Workspace};
pub use error::SpiceError;
pub use export::export_netlist;
pub use health::{certify_solution, HealthPolicy, ResidualScan, SolveQuality};
pub use linear::Matrix;
pub use mna::NewtonOptions;
pub use montecarlo::{
    apply_policy, histogram, try_fan_out, FailurePolicy, FanOutError, FanOutReport, JobError,
    MonteCarlo, SampleStats,
};
pub use netlist::{Circuit, Element, NodeId, SwitchSchedule};
pub use rescue::{RescuePolicy, RescueReport, RescueRung, RungAttempt};
pub use solver::{
    DenseLu, FillOrdering, LinearSystem, SolveInfo, SolverConfig, SolverKind, SparseLu,
};
pub use transient::{AdaptiveOptions, Integrator, StepReport, TransientAnalysis, TransientResult};
pub use waveform::Waveform;

/// Re-exported telemetry handle: the `telemetry` field of a
/// [`RunContext`], which every analysis builder in this crate also
/// accepts alone via its `with_recorder` method (see
/// [`ferrocim_telemetry`] for recorders, aggregation, and trace sinks).
pub use ferrocim_telemetry::Telemetry;
