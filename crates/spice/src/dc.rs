//! DC operating-point analysis.

use crate::mna::{newton_solve_in, CapMode, Layout, NewtonOptions, SolveSettings};
use crate::netlist::{Circuit, Element, NodeId};
use crate::rescue::{is_rescuable, rescue_solve, RescuePolicy, RescueReport};
use crate::{RunContext, SpiceError, Workspace};
use ferrocim_telemetry::Telemetry;
use ferrocim_units::{Ampere, Celsius, Second, Volt};
use std::collections::HashMap;

/// The solved DC operating point of a circuit: every node voltage and
/// every voltage-source branch current.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Voltage per node index (including ground at index 0).
    voltages: Vec<f64>,
    /// Branch current per voltage-source element name. Positive current
    /// flows from the `pos` terminal through the source to `neg`
    /// (i.e. a battery *delivering* power shows a negative value).
    branch_currents: HashMap<String, f64>,
    /// Raw unknown vector, used to warm-start subsequent analyses.
    pub(crate) raw: Vec<f64>,
    /// How the solve converged (which rescue rungs ran, if any).
    rescue: RescueReport,
}

impl OperatingPoint {
    /// How this operating point was obtained: the rescue-ladder rungs
    /// that were attempted and which one converged. A plain solve
    /// reports a single converged [`crate::RescueRung::PlainNewton`]
    /// attempt.
    pub fn rescue_report(&self) -> &RescueReport {
        &self.rescue
    }
    /// The voltage at a node.
    pub fn voltage(&self, node: NodeId) -> Volt {
        Volt(self.voltages[node.index()])
    }

    /// The branch current of a voltage source, positive from `pos` to
    /// `neg` *through the source*.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] if no voltage source with
    /// this name exists.
    pub fn source_current(&self, name: &str) -> Result<Ampere, SpiceError> {
        self.branch_currents
            .get(name)
            .map(|&i| Ampere(i))
            .ok_or_else(|| SpiceError::UnknownElement {
                name: name.to_string(),
            })
    }

    /// The power *delivered* by a voltage source into the circuit
    /// (positive when sourcing).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] if the name is not a
    /// voltage source of the analyzed circuit.
    pub fn source_power(&self, circuit: &Circuit, name: &str) -> Result<f64, SpiceError> {
        let i = self.source_current(name)?.value();
        match circuit.element(name) {
            Some(Element::VoltageSource {
                pos, neg, waveform, ..
            }) => {
                let v = waveform.at(Second::ZERO).value();
                let _ = (pos, neg);
                Ok(-v * i)
            }
            _ => Err(SpiceError::UnknownElement {
                name: name.to_string(),
            }),
        }
    }
}

/// A DC operating-point analysis.
///
/// Capacitors are treated as open circuits; waveform sources take their
/// `t = 0` value.
///
/// # Examples
///
/// ```
/// use ferrocim_spice::{Circuit, DcAnalysis, Element, NodeId};
/// use ferrocim_units::{Celsius, Ohm, Volt};
///
/// # fn main() -> Result<(), ferrocim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.0)))?;
/// ckt.add(Element::resistor("R1", vin, out, Ohm(1e3)))?;
/// ckt.add(Element::resistor("R2", out, NodeId::GROUND, Ohm(1e3)))?;
/// let op = DcAnalysis::new(&ckt).at(Celsius(27.0)).solve()?;
/// assert!((op.voltage(out).value() - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DcAnalysis<'a> {
    circuit: &'a Circuit,
    temp: Celsius,
    options: NewtonOptions,
    initial_guess: Option<Vec<f64>>,
    rescue: RescuePolicy,
    ctx: RunContext,
}

impl<'a> DcAnalysis<'a> {
    /// Creates an analysis at the default temperature (27 °C) with the
    /// full rescue ladder enabled.
    pub fn new(circuit: &'a Circuit) -> Self {
        DcAnalysis {
            circuit,
            temp: Celsius::ROOM,
            options: NewtonOptions::default(),
            initial_guess: None,
            rescue: RescuePolicy::default(),
            ctx: RunContext::default(),
        }
    }

    /// Sets the simulation temperature.
    pub fn at(mut self, temp: Celsius) -> Self {
        self.temp = temp;
        self
    }

    /// Overrides the Newton iteration options.
    pub fn with_options(mut self, options: NewtonOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the convergence-rescue policy
    /// ([`RescuePolicy::none`] restores fail-fast behaviour).
    pub fn with_rescue(mut self, policy: RescuePolicy) -> Self {
        self.rescue = policy;
        self
    }

    /// Replaces the whole [`RunContext`]: the solve's budget (Newton
    /// iterations, including rescue-ladder retries, are charged against
    /// it), telemetry, linear-solver selection and health policy.
    pub fn with_context(mut self, ctx: RunContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Replaces only the context's telemetry handle: the solve emits
    /// Newton-iteration and rescue-ladder events through it.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.ctx.telemetry = telemetry;
        self
    }

    /// Warm-starts from a previous operating point (useful when sweeping
    /// temperature in small steps).
    pub fn warm_start(mut self, op: &OperatingPoint) -> Self {
        self.initial_guess = Some(op.raw.clone());
        self
    }

    /// Solves for the operating point. If plain Newton fails and the
    /// rescue policy enables it, the solve escalates through the
    /// rescue ladder (see [`RescuePolicy`]) before giving up.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::NoConvergence`] if Newton iteration (and every
    ///   enabled rescue rung) fails.
    /// * [`SpiceError::NumericalBlowup`] if an iteration produced a
    ///   non-finite update.
    /// * [`SpiceError::SingularMatrix`] for degenerate circuits.
    /// * [`SpiceError::InvalidValue`] named `temperature` if the
    ///   analysis temperature is not finite or not above absolute zero.
    pub fn solve(&self) -> Result<OperatingPoint, SpiceError> {
        self.solve_in(&mut Workspace::new())
    }

    /// [`DcAnalysis::solve`] using a caller-owned [`Workspace`] for all
    /// solver buffers. Repeated solves through the same workspace skip
    /// the per-solve matrix/vector allocations; the numerical result is
    /// bitwise identical to [`DcAnalysis::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`DcAnalysis::solve`].
    pub fn solve_in(&self, ws: &mut Workspace) -> Result<OperatingPoint, SpiceError> {
        let _span = self.ctx.telemetry.span("spice.dc");
        if let Some(config) = self.ctx.solver {
            ws.set_solver(config);
        }
        let layout = Layout::of(self.circuit, self.temp)?;
        let initial: Vec<f64> = match &self.initial_guess {
            Some(guess) if guess.len() == layout.size => guess.clone(),
            _ => vec![0.0; layout.size],
        };
        let mut x = initial.clone();
        let report = match newton_solve_in(
            self.circuit,
            &layout,
            Second::ZERO,
            CapMode::Open,
            &SolveSettings::NOMINAL,
            &mut x,
            &self.options,
            &self.ctx,
            ws,
        ) {
            Ok(iterations) => RescueReport::plain(iterations),
            Err(err) if self.rescue.is_enabled() && is_rescuable(&err) => rescue_solve(
                self.circuit,
                &layout,
                Second::ZERO,
                CapMode::Open,
                &mut x,
                &initial,
                &self.options,
                &self.rescue,
                &self.ctx,
                ws,
                err,
            )?,
            Err(err) => return Err(err),
        };
        Ok(pack_solution(self.circuit, &layout, x).with_rescue(report))
    }
}

pub(crate) fn pack_solution(circuit: &Circuit, layout: &Layout, x: Vec<f64>) -> OperatingPoint {
    let mut voltages = vec![0.0; circuit.node_count()];
    let n = circuit.node_count();
    voltages[1..n].copy_from_slice(&x[..n - 1]);
    let mut branch_currents = HashMap::new();
    for (idx, e) in circuit.elements().iter().enumerate() {
        if let Element::VoltageSource { name, .. } = e {
            let row = layout.branch_of_element[idx];
            branch_currents.insert(name.clone(), x[row]);
        }
    }
    OperatingPoint {
        voltages,
        branch_currents,
        raw: x,
        rescue: RescueReport::default(),
    }
}

impl OperatingPoint {
    pub(crate) fn with_rescue(mut self, report: RescueReport) -> OperatingPoint {
        self.rescue = report;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Element;
    use ferrocim_device::{Fefet, FefetParams, MosfetModel, MosfetParams, PolarizationState};
    use ferrocim_units::Ohm;

    const ROOM: Celsius = Celsius(27.0);

    #[test]
    fn voltage_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.2)))
            .unwrap();
        ckt.add(Element::resistor("R1", vin, out, Ohm(2e3)))
            .unwrap();
        ckt.add(Element::resistor("R2", out, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        let op = DcAnalysis::new(&ckt).solve().unwrap();
        assert!((op.voltage(out).value() - 0.4).abs() < 1e-6);
        // Battery delivers 1.2 V / 3 kΩ = 0.4 mA: branch current is −0.4 mA.
        let i = op.source_current("V1").unwrap().value();
        assert!((i + 0.4e-3).abs() < 1e-8, "i = {i}");
        let p = op.source_power(&ckt, "V1").unwrap();
        assert!((p - 1.2 * 0.4e-3).abs() < 1e-8);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add(Element::CurrentSource {
            name: "I1".into(),
            pos: out,
            neg: NodeId::GROUND,
            current: Ampere(1e-6),
        })
        .unwrap();
        ckt.add(Element::resistor("R1", out, NodeId::GROUND, Ohm(1e5)))
            .unwrap();
        let op = DcAnalysis::new(&ckt).solve().unwrap();
        assert!((op.voltage(out).value() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        ckt.add(Element::resistor("R1", vin, out, Ohm(1e3)))
            .unwrap();
        ckt.add(Element::capacitor(
            "C1",
            out,
            NodeId::GROUND,
            ferrocim_units::Farad(1e-15),
        ))
        .unwrap();
        let op = DcAnalysis::new(&ckt).solve().unwrap();
        // No DC path from `out` except GMIN: node floats up to the rail.
        assert!((op.voltage(out).value() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        // Drain resistor from 1.2 V rail; gate well above threshold.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let drain = ckt.node("d");
        ckt.add(Element::vdc("VDD", vdd, NodeId::GROUND, Volt(1.2)))
            .unwrap();
        ckt.add(Element::vdc("VG", gate, NodeId::GROUND, Volt(0.9)))
            .unwrap();
        ckt.add(Element::resistor("RD", vdd, drain, Ohm(20e3)))
            .unwrap();
        let model = MosfetModel::new(MosfetParams::nmos_14nm().with_wl_ratio(8.0));
        ckt.add(Element::mosfet(
            "M1",
            drain,
            gate,
            NodeId::GROUND,
            model.clone(),
        ))
        .unwrap();
        let op = DcAnalysis::new(&ckt).solve().unwrap();
        let vd = op.voltage(drain).value();
        assert!(
            vd > 0.0 && vd < 1.2,
            "drain must bias between rails, got {vd}"
        );
        // KCL check: resistor current equals transistor current.
        let ir = (1.2 - vd) / 20e3;
        let it = model.ids(Volt(0.9), Volt(vd), ROOM).value();
        assert!(
            (ir - it).abs() < 1e-6 * ir.abs().max(1e-9),
            "ir {ir} vs it {it}"
        );
    }

    #[test]
    fn diode_connected_nmos_settles_near_threshold() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.add(Element::vdc("VDD", vdd, NodeId::GROUND, Volt(1.2)))
            .unwrap();
        ckt.add(Element::resistor("R", vdd, d, Ohm(1e6))).unwrap();
        let model = MosfetModel::new(MosfetParams::nmos_14nm().with_wl_ratio(4.0));
        ckt.add(Element::mosfet("M1", d, d, NodeId::GROUND, model))
            .unwrap();
        let op = DcAnalysis::new(&ckt).solve().unwrap();
        let vd = op.voltage(d).value();
        // With ~1 µA through a diode-connected device the gate settles
        // in moderate inversion near V_TH.
        assert!(vd > 0.25 && vd < 0.65, "diode voltage {vd}");
    }

    #[test]
    fn fefet_on_and_off_states_differ() {
        let build = |state: PolarizationState| {
            let mut ckt = Circuit::new();
            let bl = ckt.node("bl");
            let sl = ckt.node("sl");
            let wl = ckt.node("wl");
            ckt.add(Element::vdc("VBL", bl, NodeId::GROUND, Volt(1.2)))
                .unwrap();
            ckt.add(Element::vdc("VSL", sl, NodeId::GROUND, Volt(0.2)))
                .unwrap();
            ckt.add(Element::vdc("VWL", wl, NodeId::GROUND, Volt(0.35)))
                .unwrap();
            let mut dev = Fefet::new(FefetParams::paper_default());
            dev.force_state(state);
            // FeFET pulls current from BL to SL: drain at bl, source at sl,
            // gate referenced to sl via wl - 0.2 offset handled by biasing.
            ckt.add(Element::fefet("F1", bl, wl, sl, dev)).unwrap();
            let op = DcAnalysis::new(&ckt).solve().unwrap();
            op.source_current("VSL").unwrap().value()
        };
        let on = build(PolarizationState::LowVt).abs();
        let off = build(PolarizationState::HighVt).abs();
        assert!(on / off.max(1e-30) > 1e3, "on {on} off {off}");
    }

    #[test]
    fn warm_start_reproduces_cold_solution() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        ckt.add(Element::resistor("R1", vin, out, Ohm(1e3)))
            .unwrap();
        ckt.add(Element::resistor("R2", out, NodeId::GROUND, Ohm(3e3)))
            .unwrap();
        let cold = DcAnalysis::new(&ckt).solve().unwrap();
        let warm = DcAnalysis::new(&ckt).warm_start(&cold).solve().unwrap();
        assert!((cold.voltage(out).value() - warm.voltage(out).value()).abs() < 1e-12);
    }

    #[test]
    fn unknown_probe_is_an_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        let op = DcAnalysis::new(&ckt).solve().unwrap();
        assert!(matches!(
            op.source_current("nope"),
            Err(SpiceError::UnknownElement { .. })
        ));
    }

    #[test]
    fn temperature_changes_bias_point() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add(Element::vdc("VDD", vdd, NodeId::GROUND, Volt(1.2)))
            .unwrap();
        ckt.add(Element::vdc("VG", g, NodeId::GROUND, Volt(0.35)))
            .unwrap();
        ckt.add(Element::resistor("RD", vdd, d, Ohm(1e6))).unwrap();
        let model = MosfetModel::new(MosfetParams::nmos_14nm().with_wl_ratio(8.0));
        ckt.add(Element::mosfet("M1", d, g, NodeId::GROUND, model))
            .unwrap();
        let cold = DcAnalysis::new(&ckt).at(Celsius(0.0)).solve().unwrap();
        let hot = DcAnalysis::new(&ckt).at(Celsius(85.0)).solve().unwrap();
        // Subthreshold device conducts more when hot → drain pulled lower.
        assert!(hot.voltage(d).value() < cold.voltage(d).value());
    }

    #[test]
    fn temperature_at_or_below_absolute_zero_is_a_typed_error() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        ckt.add(Element::vdc("VDD", d, NodeId::GROUND, Volt(0.5)))
            .unwrap();
        let model = MosfetModel::new(MosfetParams::nmos_14nm());
        ckt.add(Element::mosfet("M1", d, d, NodeId::GROUND, model))
            .unwrap();
        let is_temperature = |e: SpiceError| match e {
            SpiceError::InvalidValue { name, .. } => name == "temperature",
            _ => false,
        };
        for t in [-300.0, -273.15, f64::NAN, f64::INFINITY] {
            let dc = DcAnalysis::new(&ckt).at(Celsius(t)).solve();
            assert!(is_temperature(dc.unwrap_err()), "dc at {t}");
            let fixed = crate::TransientAnalysis::over(&ckt, Second(1e-9))
                .at(Celsius(t))
                .with_fixed_step(Second(1e-10))
                .run();
            assert!(is_temperature(fixed.unwrap_err()), "fixed step at {t}");
            let adaptive = crate::TransientAnalysis::over(&ckt, Second(1e-9))
                .at(Celsius(t))
                .run();
            assert!(is_temperature(adaptive.unwrap_err()), "adaptive at {t}");
        }
        assert!(DcAnalysis::new(&ckt).at(Celsius(-273.0)).solve().is_ok());
    }
}
