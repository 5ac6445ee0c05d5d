//! EKV-style all-region n-MOSFET compact model.
//!
//! The EKV formulation interpolates smoothly between weak inversion
//! (subthreshold, exponential `I_D`) and strong inversion (square-law)
//! through the softplus charge linearization:
//!
//! ```text
//! I_D = I_S · (1 + λ·V_DS) · [ f(a)² − f(b)² ]
//! f(x) = ln(1 + eˣ)                         (softplus)
//! a = (V_GS − V_TH(T, V_DS)) / (2 n U_T)
//! b = a − V_DS / (2 U_T)
//! I_S = 2 n µ(T) C_ox (W/L) U_T²            (specific current)
//! ```
//!
//! Temperature enters three ways, all of which matter for the paper's
//! Fig. 3 analysis:
//!
//! 1. thermal voltage `U_T = kT/q` (exponential subthreshold sensitivity),
//! 2. threshold drift `V_TH(T) = V_TH0 + k_vt (T − T₀)` with
//!    `k_vt ≈ −0.7 mV/K`,
//! 3. mobility degradation `µ(T) = µ₀ (T/T₀)^(−β)` with `β ≈ 1.5`.
//!
//! In the subthreshold region effects 1–2 both *increase* current with
//! temperature and dominate effect 3, producing the large positive drift
//! the paper measures (52.1 % for the baseline cell); in saturation the
//! three partially cancel (20.6 %).

use crate::DeviceError;
use ferrocim_units::{Ampere, Celsius, Siemens, ThermalVoltage, Volt};
use serde::{Deserialize, Serialize};

/// Numerically safe softplus `ln(1 + eˣ)` and its derivative (the
/// logistic sigmoid), evaluated together.
#[inline]
fn softplus_with_deriv(x: f64) -> (f64, f64) {
    if x > 30.0 {
        (x, 1.0)
    } else if x < -30.0 {
        let e = x.exp();
        (e, e) // ln(1+e) ≈ e, σ(x) ≈ e for very negative x
    } else {
        let e = x.exp();
        ((1.0 + e).ln(), e / (1.0 + e))
    }
}

/// Static parameters of an EKV-style n-MOSFET.
///
/// Construct via [`MosfetParams::nmos_14nm`] (the calibrated 14 nm-class
/// transistor used throughout the paper reproduction) and customize with
/// the builder-style `with_*` methods, then validate with
/// [`MosfetParams::build`] or pass directly to [`MosfetModel::new`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosfetParams {
    /// Channel width in metres.
    pub width: f64,
    /// Channel length in metres.
    pub length: f64,
    /// Threshold voltage at the reference temperature (27 °C), in volts.
    pub vth0: Volt,
    /// Subthreshold slope factor `n` (dimensionless, ≥ 1). The room
    /// temperature swing is `n·U_T·ln 10` per decade, so `n = 1.25`
    /// gives ≈ 74 mV/dec — a realistic 14 nm-class FinFET value.
    pub ideality: f64,
    /// Low-field mobility at the reference temperature, m²/(V·s).
    pub mobility: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Channel-length-modulation coefficient λ, 1/V.
    pub lambda: f64,
    /// DIBL coefficient η: `V_TH` is reduced by `η·V_DS`.
    pub dibl: f64,
    /// Threshold temperature coefficient `dV_TH/dT`, V/K (negative).
    pub vth_temp_coeff: f64,
    /// Mobility temperature exponent β in `µ ∝ (T/T₀)^(−β)`.
    pub mobility_exponent: f64,
    /// Effective gate capacitance used when a netlist wants an explicit
    /// gate-loading capacitor for this device, in farads.
    pub gate_capacitance: f64,
}

impl MosfetParams {
    /// Reference temperature for all temperature coefficients: 27 °C.
    pub const T_REF: Celsius = Celsius::ROOM;

    /// A 14 nm-class low-power n-FinFET calibration: `V_TH ≈ 0.40 V`,
    /// ≈ 74 mV/dec swing, `dV_TH/dT = −0.7 mV/K`, `µ ∝ T^(−1.5)`.
    ///
    /// This is the workhorse device of the reproduction; the paper's
    /// M1/M2 transistors are derived from it by resizing W/L.
    pub fn nmos_14nm() -> Self {
        MosfetParams {
            width: 100e-9,
            length: 14e-9,
            vth0: Volt(0.40),
            ideality: 1.25,
            mobility: 0.020, // m²/Vs — effective FinFET channel mobility
            cox: 0.025,      // F/m² (~1.4 nm EOT)
            lambda: 0.05,
            dibl: 0.04,
            vth_temp_coeff: -0.7e-3,
            mobility_exponent: 1.5,
            gate_capacitance: 50e-18,
        }
    }

    /// Returns a copy with the given channel width in metres.
    pub fn with_width(mut self, width: f64) -> Self {
        self.width = width;
        self
    }

    /// Returns a copy with the given channel length in metres.
    pub fn with_length(mut self, length: f64) -> Self {
        self.length = length;
        self
    }

    /// Returns a copy with the given reference threshold voltage.
    pub fn with_vth0(mut self, vth0: Volt) -> Self {
        self.vth0 = vth0;
        self
    }

    /// Returns a copy with the given W/L ratio, keeping the length and
    /// adjusting the width. This is the tuning knob the paper exposes
    /// ("the cell parameters, such as the W/L ratio, … are tuned").
    pub fn with_wl_ratio(mut self, ratio: f64) -> Self {
        self.width = self.length * ratio;
        self
    }

    /// The W/L ratio of this geometry.
    pub fn wl_ratio(&self) -> f64 {
        self.width / self.length
    }

    /// Validates the parameters and constructs the model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if any geometric or
    /// physical parameter is non-positive or non-finite where it must be
    /// positive (width, length, ideality ≥ 1, mobility, cox), or not
    /// finite (all remaining coefficients).
    pub fn build(self) -> Result<MosfetModel, DeviceError> {
        MosfetModel::try_new(self)
    }
}

/// Drain current and its partial derivatives at one bias point — the
/// triple the Newton–Raphson solver stamps into the Jacobian.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SmallSignal {
    /// Drain current (positive from drain to source for `V_DS > 0`).
    pub ids: Ampere,
    /// Transconductance `∂I_D/∂V_GS`.
    pub gm: Siemens,
    /// Output conductance `∂I_D/∂V_DS`.
    pub gds: Siemens,
}

/// One transistor's parameters resolved at one temperature: everything
/// [`MosfetModel::evaluate_shifted`] needs that does not depend on the
/// bias point. An analysis at a fixed temperature resolves a card per
/// device once and evaluates it at every Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetCard {
    /// Thermal voltage `U_T`, volts.
    ut: f64,
    /// Specific current `I_S(T)`, amperes.
    i_s: f64,
    /// `V_TH0 + k_vt·(T − T₀)`: the threshold before DIBL and the shift.
    vth_t: f64,
    /// Threshold shift (variation offset, FeFET polarization), volts.
    delta_vth: f64,
    /// Subthreshold slope factor `n`.
    n: f64,
    /// Channel-length-modulation coefficient λ, 1/V.
    lambda: f64,
    /// DIBL coefficient η.
    dibl: f64,
}

impl MosfetCard {
    /// The first parameter of the card that is not finite, if any. A
    /// card resolved from validated inputs has none; one resolved from
    /// an instance mutated after validation (a NaN threshold offset)
    /// can.
    pub fn non_finite_parameter(&self) -> Option<f64> {
        [
            self.ut,
            self.i_s,
            self.vth_t,
            self.delta_vth,
            self.n,
            self.lambda,
            self.dibl,
        ]
        .into_iter()
        .find(|v| !v.is_finite())
    }

    /// Drain current and its small-signal derivatives at a bias point.
    ///
    /// Negative `V_DS` is handled by source/drain symmetry, so the model
    /// is safe to use for pass devices whose terminals swap roles.
    pub fn evaluate(&self, vgs: Volt, vds: Volt) -> SmallSignal {
        if vds.value() < 0.0 {
            // Symmetric device: swap source and drain roles. With
            // I(vgs, vds) = −I'(vgs − vds, −vds), the chain rule gives
            // gm = −gm' and gds = gm' + gds'.
            let flipped = self.evaluate(Volt(vgs.value() - vds.value()), Volt(-vds.value()));
            return SmallSignal {
                ids: -flipped.ids,
                gm: Siemens(-flipped.gm.value()),
                gds: Siemens(flipped.gm.value() + flipped.gds.value()),
            };
        }
        let MosfetCard {
            ut,
            i_s,
            vth_t,
            delta_vth,
            n,
            lambda,
            dibl,
        } = *self;
        let vth = (vth_t - dibl * vds.value()) + delta_vth;
        let a = (vgs.value() - vth) / (2.0 * n * ut);
        let b = a - vds.value() / (2.0 * ut);
        let (fa, sa) = softplus_with_deriv(a);
        let (fb, sb) = softplus_with_deriv(b);
        let clm = 1.0 + lambda * vds.value();
        let core = fa * fa - fb * fb;
        let ids = i_s * core * clm;
        // ∂a/∂vgs = 1/(2nUT); ∂b/∂vgs = 1/(2nUT)
        let dcore_dvgs = (2.0 * fa * sa - 2.0 * fb * sb) / (2.0 * n * ut);
        let gm = i_s * dcore_dvgs * clm;
        // ∂a/∂vds = η/(2nUT) (DIBL lowers vth); ∂b/∂vds = η/(2nUT) − 1/(2UT)
        let da_dvds = dibl / (2.0 * n * ut);
        let db_dvds = da_dvds - 1.0 / (2.0 * ut);
        let dcore_dvds = 2.0 * fa * sa * da_dvds - 2.0 * fb * sb * db_dvds;
        let gds = i_s * (dcore_dvds * clm + core * lambda);
        SmallSignal {
            ids: Ampere(ids),
            gm: Siemens(gm),
            gds: Siemens(gds),
        }
    }
}

/// A validated, immutable EKV n-MOSFET model instance.
///
/// The model is `Copy`-cheap to clone and stateless: all bias and
/// temperature dependence is passed per call, which keeps Monte-Carlo
/// sweeps embarrassingly parallel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosfetModel {
    params: MosfetParams,
}

impl MosfetModel {
    /// Constructs a model, panicking on invalid parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail the validation of
    /// [`MosfetParams::build`]. Use [`MosfetModel::try_new`] for a
    /// fallible variant.
    pub fn new(params: MosfetParams) -> Self {
        match Self::try_new(params) {
            Ok(model) => model,
            Err(e) => panic!("invalid MOSFET parameters: {e}"),
        }
    }

    /// Constructs a model, validating the parameters.
    ///
    /// # Errors
    ///
    /// See [`MosfetParams::build`].
    pub fn try_new(params: MosfetParams) -> Result<Self, DeviceError> {
        fn positive(name: &'static str, value: f64) -> Result<(), DeviceError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(DeviceError::InvalidParameter {
                    name,
                    value,
                    requirement: "positive and finite",
                })
            }
        }
        fn finite(name: &'static str, value: f64) -> Result<(), DeviceError> {
            if value.is_finite() {
                Ok(())
            } else {
                Err(DeviceError::InvalidParameter {
                    name,
                    value,
                    requirement: "finite",
                })
            }
        }
        positive("width", params.width)?;
        positive("length", params.length)?;
        positive("mobility", params.mobility)?;
        positive("cox", params.cox)?;
        if !(params.ideality.is_finite() && params.ideality >= 1.0) {
            return Err(DeviceError::InvalidParameter {
                name: "ideality",
                value: params.ideality,
                requirement: "finite and >= 1",
            });
        }
        finite("vth0", params.vth0.value())?;
        finite("lambda", params.lambda)?;
        finite("dibl", params.dibl)?;
        finite("vth_temp_coeff", params.vth_temp_coeff)?;
        finite("mobility_exponent", params.mobility_exponent)?;
        positive("gate_capacitance", params.gate_capacitance)?;
        Ok(MosfetModel { params })
    }

    /// The validated parameter set.
    pub fn params(&self) -> &MosfetParams {
        &self.params
    }

    /// Effective threshold voltage at a temperature and drain bias
    /// (includes the linear temperature drift and DIBL).
    pub fn vth_at(&self, temp: Celsius, vds: Volt) -> Volt {
        Volt(self.vth_t(temp) - self.params.dibl * vds.value())
    }

    /// `V_TH0 + k_vt·(T − T₀)`: the threshold at `temp` before DIBL.
    pub(crate) fn vth_t(&self, temp: Celsius) -> f64 {
        self.params.vth0.value()
            + self.params.vth_temp_coeff * (temp.value() - MosfetParams::T_REF.value())
    }

    /// Specific (normalization) current `I_S = 2 n µ(T) C_ox (W/L) U_T²`.
    pub fn specific_current(&self, temp: Celsius) -> Ampere {
        let p = &self.params;
        let t = temp.to_kelvin().value();
        let t_ref = MosfetParams::T_REF.to_kelvin().value();
        let mobility = p.mobility * (t / t_ref).powf(-p.mobility_exponent);
        let ut = ThermalVoltage::at_celsius(temp).value();
        Ampere(2.0 * p.ideality * mobility * p.cox * (p.width / p.length) * ut * ut)
    }

    /// Resolves the temperature-dependent parameters of this device at
    /// `temp`, with the threshold shifted by `delta_vth`, into a card
    /// that evaluates bias points without repeating that work.
    ///
    /// # Panics
    ///
    /// Panics if `temp` is at or below absolute zero (see
    /// [`ThermalVoltage::at`]).
    pub fn card(&self, temp: Celsius, delta_vth: Volt) -> MosfetCard {
        let p = &self.params;
        MosfetCard {
            ut: ThermalVoltage::at_celsius(temp).value(),
            i_s: self.specific_current(temp).value(),
            vth_t: self.vth_t(temp),
            delta_vth: delta_vth.value(),
            n: p.ideality,
            lambda: p.lambda,
            dibl: p.dibl,
        }
    }

    /// Drain current with the threshold shifted by `delta_vth`
    /// (used by the FeFET wrapper and by Monte-Carlo variation), plus
    /// the small-signal derivatives. See [`MosfetCard::evaluate`].
    pub fn evaluate_shifted(
        &self,
        vgs: Volt,
        vds: Volt,
        temp: Celsius,
        delta_vth: Volt,
    ) -> SmallSignal {
        self.card(temp, delta_vth).evaluate(vgs, vds)
    }

    /// Drain current and derivatives at a bias point.
    pub fn evaluate(&self, vgs: Volt, vds: Volt, temp: Celsius) -> SmallSignal {
        self.evaluate_shifted(vgs, vds, temp, Volt::ZERO)
    }

    /// Drain current only (convenience).
    pub fn ids(&self, vgs: Volt, vds: Volt, temp: Celsius) -> Ampere {
        self.evaluate(vgs, vds, temp).ids
    }

    /// Subthreshold swing at a temperature, mV/decade.
    pub fn subthreshold_swing_mv_per_dec(&self, temp: Celsius) -> f64 {
        let ut = ThermalVoltage::at_celsius(temp).value();
        self.params.ideality * ut * std::f64::consts::LN_10 * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MosfetModel {
        MosfetModel::new(MosfetParams::nmos_14nm())
    }

    const ROOM: Celsius = Celsius(27.0);

    #[test]
    fn subthreshold_current_is_exponential_in_vgs() {
        let m = model();
        // 100 mV of gate swing deep in subthreshold should give close to
        // 100/74 ≈ 1.35 decades of current.
        let i1 = m.ids(Volt(0.15), Volt(0.3), ROOM).value();
        let i2 = m.ids(Volt(0.25), Volt(0.3), ROOM).value();
        let decades = (i2 / i1).log10();
        let expected = 100.0 / m.subthreshold_swing_mv_per_dec(ROOM);
        assert!(
            (decades - expected).abs() < 0.05,
            "decades {decades} vs expected {expected}"
        );
    }

    #[test]
    fn strong_inversion_is_roughly_square_law() {
        let m = model();
        // Saturation, well above threshold: I ∝ (VGS−VTH)² approximately.
        let i1 = m.ids(Volt(0.9), Volt(1.3), ROOM).value();
        let i2 = m.ids(Volt(1.4), Volt(1.3), ROOM).value();
        let vth = m.vth_at(ROOM, Volt(1.3)).value();
        let ratio_expected = ((1.4 - vth) / (0.9 - vth)).powi(2);
        let ratio = i2 / i1;
        assert!(
            (ratio / ratio_expected - 1.0).abs() < 0.15,
            "ratio {ratio} vs {ratio_expected}"
        );
    }

    #[test]
    fn subthreshold_current_increases_with_temperature() {
        let m = model();
        let cold = m.ids(Volt(0.35), Volt(0.2), Celsius(0.0)).value();
        let room = m.ids(Volt(0.35), Volt(0.2), ROOM).value();
        let hot = m.ids(Volt(0.35), Volt(0.2), Celsius(85.0)).value();
        assert!(cold < room && room < hot, "{cold} {room} {hot}");
        // The increase must be strong (exponential region).
        assert!(hot / cold > 3.0, "hot/cold = {}", hot / cold);
    }

    #[test]
    fn saturation_current_is_much_less_temperature_sensitive() {
        let m = model();
        let sweep = |v: Volt| {
            let i0 = m.ids(v, Volt(1.3), Celsius(0.0)).value();
            let i85 = m.ids(v, Volt(1.3), Celsius(85.0)).value();
            (i85 / i0 - 1.0).abs()
        };
        let sat_change = sweep(Volt(1.3));
        let sub_change = {
            let i0 = m.ids(Volt(0.35), Volt(0.3), Celsius(0.0)).value();
            let i85 = m.ids(Volt(0.35), Volt(0.3), Celsius(85.0)).value();
            (i85 / i0 - 1.0).abs()
        };
        assert!(
            sub_change > 3.0 * sat_change,
            "subthreshold {sub_change} vs saturation {sat_change}"
        );
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = model();
        let h = 1e-7;
        for &(vgs, vds) in &[
            (0.35, 0.2),
            (0.35, 0.05),
            (0.8, 0.6),
            (1.3, 1.3),
            (0.1, 0.01),
        ] {
            let s = m.evaluate(Volt(vgs), Volt(vds), ROOM);
            let ip = m.ids(Volt(vgs + h), Volt(vds), ROOM).value();
            let im = m.ids(Volt(vgs - h), Volt(vds), ROOM).value();
            let gm_fd = (ip - im) / (2.0 * h);
            assert!(
                (s.gm.value() - gm_fd).abs() <= 1e-5 * gm_fd.abs().max(1e-12),
                "gm analytic {} vs fd {gm_fd} at ({vgs},{vds})",
                s.gm.value()
            );
            let ip = m.ids(Volt(vgs), Volt(vds + h), ROOM).value();
            let im = m.ids(Volt(vgs), Volt(vds - h), ROOM).value();
            let gds_fd = (ip - im) / (2.0 * h);
            assert!(
                (s.gds.value() - gds_fd).abs() <= 1e-4 * gds_fd.abs().max(1e-12),
                "gds analytic {} vs fd {gds_fd} at ({vgs},{vds})",
                s.gds.value()
            );
        }
    }

    #[test]
    fn reverse_mode_is_antisymmetric() {
        let m = model();
        // I(vgs, vds) with swapped terminals: I(vg−vd as vgs, −vds).
        let fwd = m.ids(Volt(0.5), Volt(0.3), ROOM).value();
        let rev = m.ids(Volt(0.5 - 0.3), Volt(-0.3), ROOM).value();
        assert!(
            (fwd + rev).abs() < 1e-9 * fwd.abs().max(1e-12),
            "fwd {fwd} rev {rev}"
        );
    }

    #[test]
    fn reverse_mode_derivatives_match_finite_differences() {
        let m = model();
        let h = 1e-7;
        let (vgs, vds) = (0.2, -0.15);
        let s = m.evaluate(Volt(vgs), Volt(vds), ROOM);
        let gm_fd = (m.ids(Volt(vgs + h), Volt(vds), ROOM).value()
            - m.ids(Volt(vgs - h), Volt(vds), ROOM).value())
            / (2.0 * h);
        let gds_fd = (m.ids(Volt(vgs), Volt(vds + h), ROOM).value()
            - m.ids(Volt(vgs), Volt(vds - h), ROOM).value())
            / (2.0 * h);
        assert!((s.gm.value() - gm_fd).abs() <= 1e-4 * gm_fd.abs().max(1e-14));
        assert!((s.gds.value() - gds_fd).abs() <= 1e-4 * gds_fd.abs().max(1e-14));
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let m = model();
        let i = m.ids(Volt(0.8), Volt(0.0), ROOM).value();
        assert!(i.abs() < 1e-15, "got {i}");
    }

    #[test]
    fn current_scales_linearly_with_wl() {
        let wide = MosfetModel::new(MosfetParams::nmos_14nm().with_wl_ratio(20.0));
        let narrow = MosfetModel::new(MosfetParams::nmos_14nm().with_wl_ratio(2.0));
        let iw = wide.ids(Volt(0.35), Volt(0.2), ROOM).value();
        let inr = narrow.ids(Volt(0.35), Volt(0.2), ROOM).value();
        assert!((iw / inr - 10.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let bad = MosfetParams::nmos_14nm().with_width(-1.0);
        assert!(matches!(
            MosfetModel::try_new(bad),
            Err(DeviceError::InvalidParameter { name: "width", .. })
        ));
        let mut bad = MosfetParams::nmos_14nm();
        bad.ideality = 0.5;
        assert!(MosfetModel::try_new(bad).is_err());
        let mut bad = MosfetParams::nmos_14nm();
        bad.vth_temp_coeff = f64::NAN;
        assert!(MosfetModel::try_new(bad).is_err());
    }

    #[test]
    fn swing_is_realistic_at_room_temperature() {
        let s = model().subthreshold_swing_mv_per_dec(ROOM);
        assert!((70.0..80.0).contains(&s), "swing {s} mV/dec");
    }

    #[test]
    fn dibl_lowers_threshold_with_drain_bias() {
        let m = model();
        let vth_low = m.vth_at(ROOM, Volt(1.2)).value();
        let vth_high = m.vth_at(ROOM, Volt(0.05)).value();
        assert!(vth_low < vth_high);
    }
}
