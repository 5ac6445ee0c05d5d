//! Ferroelectric FET compact model: a Preisach-polarized gate stack on
//! top of the EKV transistor.
//!
//! The remanent polarization `P ∈ [-1, 1]` of the HfO₂ layer shifts the
//! underlying transistor's threshold voltage linearly across the memory
//! window `[V_TH_low, V_TH_high]`:
//!
//! ```text
//! V_TH(P) = V_mid − P · MW/2,    V_mid = (V_TH_low + V_TH_high)/2
//! ```
//!
//! so `P = +1` is the **low-`V_TH`** (logic '1', conducting at
//! `V_read = 0.35 V`) state and `P = −1` the **high-`V_TH`** (logic '0',
//! cut off) state — the two `I_D–V_G` branches of the paper's Fig. 1.
//!
//! Device-to-device process variation is applied as an additive
//! threshold offset (`σ_VT = 54 mV` in the paper's Fig. 9 Monte-Carlo).

use crate::mosfet::{MosfetCard, MosfetModel, MosfetParams, SmallSignal};
use crate::preisach::{Preisach, PreisachParams};
use crate::DeviceError;
use ferrocim_units::{Ampere, Celsius, Second, Volt};
use serde::{Deserialize, Serialize};

/// The two nominal memory states of a binary-programmed FeFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolarizationState {
    /// Fully polarized up: low threshold voltage, logic '1'.
    LowVt,
    /// Fully polarized down: high threshold voltage, logic '0'.
    HighVt,
}

impl PolarizationState {
    /// The logic bit conventionally stored by this state.
    pub fn bit(self) -> bool {
        matches!(self, PolarizationState::LowVt)
    }

    /// The state that stores the given logic bit.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            PolarizationState::LowVt
        } else {
            PolarizationState::HighVt
        }
    }
}

/// A write pulse: gate amplitude and duration.
///
/// The paper's write scheme is `+4 V / 115 ns` to program low-`V_TH`
/// and `−4 V / 200 ns` to erase to high-`V_TH`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgramPulse {
    /// Gate voltage amplitude (signed).
    pub amplitude: Volt,
    /// Pulse width.
    pub width: Second,
}

impl ProgramPulse {
    /// The paper's program pulse: +4 V for 115 ns (→ low-`V_TH`).
    pub const PROGRAM: ProgramPulse = ProgramPulse {
        amplitude: Volt(4.0),
        width: Second(115e-9),
    };

    /// The paper's erase pulse: −4 V for 200 ns (→ high-`V_TH`).
    pub const ERASE: ProgramPulse = ProgramPulse {
        amplitude: Volt(-4.0),
        width: Second(200e-9),
    };
}

/// Static parameters of a FeFET.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FefetParams {
    /// The underlying transistor. Its `vth0` field is ignored — the
    /// threshold is set by the polarization state and the memory window.
    pub channel: MosfetParams,
    /// Threshold voltage of the fully-programmed low-`V_TH` state.
    pub low_vt: Volt,
    /// Threshold voltage of the fully-erased high-`V_TH` state.
    pub high_vt: Volt,
    /// Preisach ensemble parameters of the ferroelectric layer.
    pub preisach: PreisachParams,
    /// Additional temperature coefficient of the *memory window edges*
    /// relative to the plain transistor, V/K. HfO₂ FeFETs lose remanent
    /// polarization with temperature, which effectively narrows the
    /// window; a small negative value on the low edge and a larger
    /// negative value on the high edge reproduce the paper's Fig. 1
    /// observation that "temperature changes have a stronger impact on
    /// the high-V_TH state compared to the low-V_TH state".
    pub low_vt_temp_coeff: f64,
    /// Temperature coefficient of the high-`V_TH` edge, V/K.
    pub high_vt_temp_coeff: f64,
}

impl FefetParams {
    /// The calibration used throughout the paper reproduction: a
    /// 14 nm-class FeFET with a ≈1.3 V memory window centred so that
    /// `V_read = 0.35 V` lies in the subthreshold region of the
    /// low-`V_TH` branch and far below the high-`V_TH` branch.
    pub fn paper_default() -> Self {
        FefetParams {
            channel: MosfetParams::nmos_14nm().with_wl_ratio(10.0),
            low_vt: Volt(0.45),
            high_vt: Volt(1.75),
            preisach: PreisachParams::default(),
            // Both window edges drift down with temperature, the high
            // edge faster (the high-V_TH branch moves the most — paper
            // Fig. 1): the memory window narrows when hot.
            low_vt_temp_coeff: -0.3e-3,
            high_vt_temp_coeff: -1.1e-3,
        }
    }

    /// Validates and builds a fresh (erased) FeFET.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyMemoryWindow`] if `low_vt >= high_vt`,
    /// or [`DeviceError::InvalidParameter`] if a window edge or its
    /// temperature coefficient is not finite or the channel transistor
    /// parameters are invalid.
    pub fn build(self) -> Result<Fefet, DeviceError> {
        Fefet::try_new(self)
    }

    /// The memory window width `high_vt − low_vt`.
    pub fn memory_window(&self) -> Volt {
        self.high_vt - self.low_vt
    }
}

/// A FeFET instance: immutable parameters plus mutable polarization
/// state and a per-device threshold variation offset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fefet {
    params: FefetParams,
    channel: MosfetModel,
    polarization: Preisach,
    vth_offset: Volt,
}

impl Fefet {
    /// Constructs a FeFET in the erased (high-`V_TH`) state.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters; use [`Fefet::try_new`] to handle
    /// the error instead.
    pub fn new(params: FefetParams) -> Self {
        match Self::try_new(params) {
            Ok(fefet) => fefet,
            Err(e) => panic!("invalid FeFET parameters: {e}"),
        }
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// See [`FefetParams::build`].
    pub fn try_new(params: FefetParams) -> Result<Self, DeviceError> {
        for (name, value) in [
            ("low_vt", params.low_vt.value()),
            ("high_vt", params.high_vt.value()),
            ("low_vt_temp_coeff", params.low_vt_temp_coeff),
            ("high_vt_temp_coeff", params.high_vt_temp_coeff),
        ] {
            if !value.is_finite() {
                return Err(DeviceError::InvalidParameter {
                    name,
                    value,
                    requirement: "finite",
                });
            }
        }
        if params.low_vt.value() >= params.high_vt.value() {
            return Err(DeviceError::EmptyMemoryWindow {
                low_vt: params.low_vt.value(),
                high_vt: params.high_vt.value(),
            });
        }
        let channel = MosfetModel::try_new(params.channel.clone())?;
        let polarization = Preisach::new(params.preisach.clone());
        Ok(Fefet {
            params,
            channel,
            polarization,
            vth_offset: Volt::ZERO,
        })
    }

    /// The FeFET parameters.
    pub fn params(&self) -> &FefetParams {
        &self.params
    }

    /// Net remanent polarization in `[-1, 1]`.
    pub fn polarization(&self) -> f64 {
        self.polarization.polarization()
    }

    /// Sets a device-specific threshold offset (process variation).
    /// The paper's Fig. 9 uses Gaussian offsets with `σ_VT = 54 mV`.
    pub fn set_vth_offset(&mut self, offset: Volt) {
        self.vth_offset = offset;
    }

    /// The current threshold-variation offset.
    pub fn vth_offset(&self) -> Volt {
        self.vth_offset
    }

    /// Applies a gate write pulse through the Preisach kinetics.
    pub fn apply_pulse(&mut self, pulse: ProgramPulse) {
        self.polarization.apply_pulse(pulse.amplitude, pulse.width);
    }

    /// Programs the device to a nominal binary state using the paper's
    /// write pulses ([`ProgramPulse::PROGRAM`] / [`ProgramPulse::ERASE`]).
    pub fn program(&mut self, state: PolarizationState) {
        match state {
            PolarizationState::LowVt => self.apply_pulse(ProgramPulse::PROGRAM),
            PolarizationState::HighVt => self.apply_pulse(ProgramPulse::ERASE),
        }
    }

    /// Forces the polarization to a nominal state instantly, bypassing
    /// pulse kinetics. Convenient for array initialization in tests and
    /// experiments where write dynamics are not under study.
    pub fn force_state(&mut self, state: PolarizationState) {
        self.polarization
            .saturate(matches!(state, PolarizationState::LowVt));
    }

    /// Sets an analog (multi-level) polarization directly.
    pub fn set_polarization(&mut self, p: f64) {
        self.polarization.set_polarization(p);
    }

    /// The stored binary state inferred from the polarization sign, or
    /// `None` if the device is in an intermediate analog state
    /// (|P| < 0.9).
    pub fn stored_state(&self) -> Option<PolarizationState> {
        let p = self.polarization();
        if p > 0.9 {
            Some(PolarizationState::LowVt)
        } else if p < -0.9 {
            Some(PolarizationState::HighVt)
        } else {
            None
        }
    }

    /// Effective threshold voltage at a temperature for the current
    /// polarization, including the memory-window temperature drift and
    /// the per-device variation offset (excluding DIBL, which the
    /// transistor model adds per bias point).
    pub fn effective_vth(&self, temp: Celsius) -> Volt {
        let dt = temp.value() - MosfetParams::T_REF.value();
        let low = self.params.low_vt.value() + self.params.low_vt_temp_coeff * dt;
        let high = self.params.high_vt.value() + self.params.high_vt_temp_coeff * dt;
        let mid = 0.5 * (low + high);
        let half_window = 0.5 * (high - low);
        let p = self.polarization();
        Volt(mid - p * half_window + self.vth_offset.value())
    }

    /// Resolves this device at `temp` into a transistor card whose
    /// threshold shift folds in the polarization-controlled threshold
    /// and the variation offset.
    ///
    /// # Panics
    ///
    /// Panics if `temp` is at or below absolute zero.
    pub fn card(&self, temp: Celsius) -> MosfetCard {
        // The channel model applies its own vth0 + temp drift; replace
        // them with the polarization-controlled threshold by shifting.
        let delta = self.effective_vth(temp) - Volt(self.channel.vth_t(temp));
        self.channel.card(temp, delta)
    }

    /// Drain current and small-signal derivatives at a bias point.
    pub fn evaluate(&self, vgs: Volt, vds: Volt, temp: Celsius) -> SmallSignal {
        self.card(temp).evaluate(vgs, vds)
    }

    /// Drain current only.
    pub fn ids(&self, vgs: Volt, vds: Volt, temp: Celsius) -> Ampere {
        self.evaluate(vgs, vds, temp).ids
    }

    /// The `I_ON/I_OFF` ratio at a read bias: current in the low-`V_TH`
    /// state divided by current in the high-`V_TH` state, without
    /// mutating the device.
    pub fn on_off_ratio(&self, vgs: Volt, vds: Volt, temp: Celsius) -> f64 {
        let mut probe = self.clone();
        probe.force_state(PolarizationState::LowVt);
        let on = probe.ids(vgs, vds, temp).value();
        probe.force_state(PolarizationState::HighVt);
        let off = probe.ids(vgs, vds, temp).value();
        on / off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOM: Celsius = Celsius(27.0);
    const V_READ_SUB: Volt = Volt(0.35);
    const V_READ_SAT: Volt = Volt(1.3);

    fn on_fefet() -> Fefet {
        let mut f = Fefet::new(FefetParams::paper_default());
        f.force_state(PolarizationState::LowVt);
        f
    }

    #[test]
    fn fresh_device_is_erased() {
        let f = Fefet::new(FefetParams::paper_default());
        assert_eq!(f.stored_state(), Some(PolarizationState::HighVt));
    }

    #[test]
    fn paper_pulses_program_and_erase() {
        let mut f = Fefet::new(FefetParams::paper_default());
        f.program(PolarizationState::LowVt);
        assert_eq!(f.stored_state(), Some(PolarizationState::LowVt));
        f.program(PolarizationState::HighVt);
        assert_eq!(f.stored_state(), Some(PolarizationState::HighVt));
    }

    #[test]
    fn read_voltage_is_subthreshold_for_low_vt_state() {
        let f = on_fefet();
        // V_read must sit below the low-Vt threshold: subthreshold.
        assert!(V_READ_SUB.value() < f.effective_vth(ROOM).value());
    }

    #[test]
    fn on_off_ratio_is_large_at_subthreshold_read() {
        let f = on_fefet();
        let ratio = f.on_off_ratio(V_READ_SUB, Volt(0.15), ROOM);
        assert!(ratio > 1e4, "I_ON/I_OFF = {ratio}");
    }

    #[test]
    fn high_vt_state_is_more_temperature_sensitive() {
        // Fig. 1 of the paper: the high-Vt branch moves more with T.
        let mut f = on_fefet();
        let on_swing = {
            let cold = f.ids(V_READ_SUB, Volt(0.15), Celsius(0.0)).value();
            let hot = f.ids(V_READ_SUB, Volt(0.15), Celsius(85.0)).value();
            hot / cold
        };
        f.force_state(PolarizationState::HighVt);
        let off_swing = {
            let cold = f.ids(V_READ_SUB, Volt(0.15), Celsius(0.0)).value();
            let hot = f.ids(V_READ_SUB, Volt(0.15), Celsius(85.0)).value();
            hot / cold
        };
        assert!(
            off_swing > on_swing,
            "high-Vt swing {off_swing} must exceed low-Vt swing {on_swing}"
        );
    }

    #[test]
    fn saturation_read_conducts_strongly() {
        let f = on_fefet();
        let i_sat = f.ids(V_READ_SAT, Volt(1.0), ROOM).value();
        let i_sub = f.ids(V_READ_SUB, Volt(1.0), ROOM).value();
        assert!(i_sat / i_sub > 50.0, "saturation read must be far larger");
    }

    #[test]
    fn vth_offset_shifts_current() {
        let mut f = on_fefet();
        let nominal = f.ids(V_READ_SUB, Volt(0.15), ROOM).value();
        f.set_vth_offset(Volt(0.054));
        let slow = f.ids(V_READ_SUB, Volt(0.15), ROOM).value();
        f.set_vth_offset(Volt(-0.054));
        let fast = f.ids(V_READ_SUB, Volt(0.15), ROOM).value();
        assert!(slow < nominal && nominal < fast);
        // ±54 mV in subthreshold ≈ ±0.7 decade: a strong effect.
        assert!(fast / slow > 10.0);
    }

    #[test]
    fn intermediate_polarization_is_recognized() {
        let mut f = Fefet::new(FefetParams::paper_default());
        f.set_polarization(0.0);
        assert_eq!(f.stored_state(), None);
        let vth_mid = f.effective_vth(ROOM).value();
        f.force_state(PolarizationState::LowVt);
        let vth_low = f.effective_vth(ROOM).value();
        f.force_state(PolarizationState::HighVt);
        let vth_high = f.effective_vth(ROOM).value();
        assert!(vth_low < vth_mid && vth_mid < vth_high);
        assert!((vth_mid - 0.5 * (vth_low + vth_high)).abs() < 1e-9);
    }

    #[test]
    fn empty_memory_window_rejected() {
        let mut p = FefetParams::paper_default();
        p.high_vt = Volt(0.3);
        assert!(matches!(
            Fefet::try_new(p),
            Err(DeviceError::EmptyMemoryWindow { .. })
        ));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        type Corrupt = fn(&mut FefetParams);
        let cases: [(&str, Corrupt); 4] = [
            ("low_vt", |p| p.low_vt = Volt(f64::NAN)),
            ("high_vt", |p| p.high_vt = Volt(f64::NAN)),
            ("low_vt_temp_coeff", |p| p.low_vt_temp_coeff = f64::INFINITY),
            ("high_vt_temp_coeff", |p| p.high_vt_temp_coeff = f64::NAN),
        ];
        for (field, corrupt) in cases {
            let mut p = FefetParams::paper_default();
            corrupt(&mut p);
            assert!(
                matches!(
                    Fefet::try_new(p),
                    Err(DeviceError::InvalidParameter { name, .. }) if name == field
                ),
                "{field} must be rejected"
            );
        }
    }

    #[test]
    fn memory_window_matches_params() {
        let p = FefetParams::paper_default();
        assert!((p.memory_window().value() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn read_disturb_is_negligible() {
        // Millions of subthreshold reads must not flip the state.
        let mut f = Fefet::new(FefetParams::paper_default());
        f.force_state(PolarizationState::HighVt);
        for _ in 0..1000 {
            f.apply_pulse(ProgramPulse {
                amplitude: Volt(0.35),
                width: Second(10e-9),
            });
        }
        assert_eq!(f.stored_state(), Some(PolarizationState::HighVt));
    }

    #[test]
    fn bit_round_trip() {
        assert_eq!(PolarizationState::from_bit(true), PolarizationState::LowVt);
        assert_eq!(
            PolarizationState::from_bit(false),
            PolarizationState::HighVt
        );
        assert!(PolarizationState::LowVt.bit());
        assert!(!PolarizationState::HighVt.bit());
    }
}
