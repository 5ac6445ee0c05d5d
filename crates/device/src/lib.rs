//! Temperature-aware compact device models for the `ferrocim` stack.
//!
//! Two models are provided:
//!
//! * [`MosfetModel`] — an EKV-style all-region n-MOSFET model with smooth
//!   weak/moderate/strong-inversion interpolation, temperature-dependent
//!   threshold voltage, mobility and thermal voltage, DIBL and
//!   channel-length modulation. This stands in for the Intel 14 nm FinFET
//!   PDK model used by the paper.
//! * [`Fefet`] — a ferroelectric FET: the same underlying transistor with
//!   its threshold voltage shifted by a remanent polarization state that
//!   evolves through a multi-domain Preisach hysteresis operator
//!   ([`preisach::Preisach`]) with nucleation-limited-switching pulse
//!   kinetics. This reproduces the modelling approach of the calibrated
//!   Preisach FeFET compact model the paper simulates with.
//!
//! Both models expose drain current *and* its partial derivatives
//! ([`SmallSignal`]) so the `ferrocim-spice` Newton–Raphson solver can
//! stamp them directly.
//!
//! # Example
//!
//! ```
//! use ferrocim_device::{Fefet, FefetParams, PolarizationState};
//! use ferrocim_units::{Volt, Celsius};
//!
//! let mut fefet = Fefet::new(FefetParams::paper_default());
//! fefet.force_state(PolarizationState::LowVt); // store logic '1'
//!
//! // Subthreshold read at the paper's operating point.
//! let on = fefet.ids(Volt(0.35), Volt(0.15), Celsius(27.0));
//! fefet.force_state(PolarizationState::HighVt); // store logic '0'
//! let off = fefet.ids(Volt(0.35), Volt(0.15), Celsius(27.0));
//! assert!(on.value() / off.value() > 1e4, "I_ON/I_OFF ratio must be high");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod fefet;
mod mosfet;
pub mod preisach;
pub mod reliability;
pub mod variation;

pub use error::DeviceError;
pub use fefet::{Fefet, FefetParams, PolarizationState, ProgramPulse};
pub use mosfet::{MosfetCard, MosfetModel, MosfetParams, SmallSignal};
