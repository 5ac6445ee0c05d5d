//! DC sweep analysis: repeated operating points over a swept source
//! value, with warm starting between points — the workhorse behind
//! `I_D–V_G` characteristic curves (the paper's Fig. 1).

use crate::dc::{DcAnalysis, OperatingPoint};
use crate::mna::NewtonOptions;
use crate::netlist::{Circuit, Element};
use crate::{RunContext, SpiceError, Waveform, Workspace};
use ferrocim_telemetry::Telemetry;
use ferrocim_units::{Celsius, Volt};

/// A DC sweep of one voltage source over a list of values.
///
/// The circuit is cloned once; at each sweep point the named source's
/// waveform is replaced by the DC value and the operating point is
/// solved, warm-started from the previous point (which makes fine
/// sweeps through exponential device regions fast and robust).
///
/// # Examples
///
/// ```
/// use ferrocim_spice::{Circuit, DcSweep, Element, NodeId};
/// use ferrocim_spice::sweep::voltage_sweep;
/// use ferrocim_units::{Celsius, Ohm, Volt};
///
/// # fn main() -> Result<(), ferrocim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(0.0)))?;
/// ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))?;
/// let points = DcSweep::new(&ckt, "V1", voltage_sweep(Volt(0.0), Volt(1.0), 5))
///     .at(Celsius(27.0))
///     .solve()?;
/// assert_eq!(points.len(), 5);
/// // Ohm's law at the last point: 1 V across 1 kΩ.
/// let i = points.last().unwrap().1.source_current("V1")?.value();
/// assert!((i + 1e-3).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DcSweep<'a> {
    circuit: &'a Circuit,
    source: String,
    values: Vec<Volt>,
    temp: Celsius,
    options: NewtonOptions,
    ctx: RunContext,
}

impl<'a> DcSweep<'a> {
    /// Creates a sweep of the named voltage source over `values`.
    pub fn new(circuit: &'a Circuit, source: impl Into<String>, values: Vec<Volt>) -> Self {
        DcSweep {
            circuit,
            source: source.into(),
            values,
            temp: Celsius::ROOM,
            options: NewtonOptions::default(),
            ctx: RunContext::default(),
        }
    }

    /// Sets the simulation temperature.
    pub fn at(mut self, temp: Celsius) -> Self {
        self.temp = temp;
        self
    }

    /// Overrides the Newton options.
    pub fn with_options(mut self, options: NewtonOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the whole [`RunContext`], forwarded to every per-point
    /// DC solve. One budget step is charged per sweep point on top of
    /// the solves' Newton iterations; a solver selection applies to the
    /// sweep's shared [`Workspace`], whose sparse symbolic analysis runs
    /// once at the first point and is reused for every later one.
    pub fn with_context(mut self, ctx: RunContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Replaces only the context's telemetry handle, so a recorder
    /// observes the warm-started Newton work of the whole sweep. The
    /// default handle is off.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.ctx.telemetry = telemetry;
        self
    }

    /// Runs the sweep, returning `(value, operating point)` pairs.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::UnknownElement`] if the named source does not
    ///   exist or is not a voltage source.
    /// * Analysis errors from any sweep point.
    pub fn solve(&self) -> Result<Vec<(Volt, OperatingPoint)>, SpiceError> {
        match self.circuit.element(&self.source) {
            Some(Element::VoltageSource { .. }) => {}
            _ => {
                return Err(SpiceError::UnknownElement {
                    name: self.source.clone(),
                })
            }
        }
        let _span = self.ctx.telemetry.span("spice.dcsweep");
        let mut working = self.circuit.clone();
        let mut results = Vec::with_capacity(self.values.len());
        let mut ws = Workspace::new();
        let mut previous: Option<OperatingPoint> = None;
        for &value in &self.values {
            self.ctx.budget.check()?;
            self.ctx.budget.charge_steps(1)?;
            if let Some(Element::VoltageSource { waveform, .. }) = working.element_mut(&self.source)
            {
                *waveform = Waveform::dc(value);
            }
            let cold = DcAnalysis::new(&working)
                .at(self.temp)
                .with_options(self.options)
                .with_context(self.ctx.clone());
            let op = match &previous {
                Some(prev) => {
                    match cold.clone().warm_start(prev).solve_in(&mut ws) {
                        Ok(op) => op,
                        // Continuation fallback: a sweep step large
                        // enough to throw the warm start out of the
                        // Newton basin retries from a cold start before
                        // the whole sweep is declared failed.
                        Err(SpiceError::NoConvergence { .. }) => cold.solve_in(&mut ws)?,
                        Err(e) => return Err(e),
                    }
                }
                None => cold.solve_in(&mut ws)?,
            };
            previous = Some(op.clone());
            results.push((value, op));
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NodeId;
    use crate::sweep::voltage_sweep;
    use ferrocim_device::{MosfetModel, MosfetParams};
    use ferrocim_units::Ohm;

    #[test]
    fn sweep_traces_a_transistor_transfer_curve() {
        let mut ckt = Circuit::new();
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add(Element::vdc("VG", g, NodeId::GROUND, Volt(0.0)))
            .unwrap();
        ckt.add(Element::vdc("VD", d, NodeId::GROUND, Volt(0.6)))
            .unwrap();
        ckt.add(Element::mosfet(
            "M1",
            d,
            g,
            NodeId::GROUND,
            MosfetModel::new(MosfetParams::nmos_14nm()),
        ))
        .unwrap();
        let points = DcSweep::new(&ckt, "VG", voltage_sweep(Volt(0.0), Volt(1.0), 21))
            .solve()
            .unwrap();
        assert_eq!(points.len(), 21);
        // Drain-source current grows monotonically with gate drive.
        let currents: Vec<f64> = points
            .iter()
            .map(|(_, op)| -op.source_current("VD").unwrap().value())
            .collect();
        for pair in currents.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-15, "{currents:?}");
        }
        assert!(currents[20] / currents[0].max(1e-18) > 1e3);
    }

    #[test]
    fn sweep_rejects_unknown_or_non_source_targets() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        assert!(matches!(
            DcSweep::new(&ckt, "VX", vec![Volt(0.0)]).solve(),
            Err(SpiceError::UnknownElement { .. })
        ));
        assert!(matches!(
            DcSweep::new(&ckt, "R1", vec![Volt(0.0)]).solve(),
            Err(SpiceError::UnknownElement { .. })
        ));
    }

    #[test]
    fn sweep_does_not_mutate_the_input_circuit() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(0.5)))
            .unwrap();
        ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        let _ = DcSweep::new(&ckt, "V1", voltage_sweep(Volt(0.0), Volt(1.0), 3))
            .solve()
            .unwrap();
        match ckt.element("V1") {
            Some(Element::VoltageSource { waveform, .. }) => {
                assert_eq!(waveform.at(ferrocim_units::Second::ZERO), Volt(0.5));
            }
            _ => panic!("source missing"),
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        let points = DcSweep::new(&ckt, "V1", Vec::new()).solve().unwrap();
        assert!(points.is_empty());
    }
}
