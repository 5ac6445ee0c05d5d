//! The CIM array of Fig. 6: `n` cells per row, each charging its own
//! `C_o`, with an `EN`-switched shared accumulation capacitor `C_acc`.
//!
//! A MAC operation proceeds in two phases:
//!
//! 1. **Charge** (`t_charge`): each cell multiplies its stored weight by
//!    the word-line input and integrates the product current onto its
//!    cell capacitor `C_o`.
//! 2. **Share** (`t_share`): the `EN` switches close simultaneously and
//!    the cell charges redistribute onto `C_acc`, producing the
//!    accumulated output of the paper's Eq. (1):
//!
//!    ```text
//!    V_acc = C_o / (n·C_o + C_acc) · Σᵢ V_Oi
//!    ```
//!
//! Both a **full-transient** evaluation (the entire row simulated as one
//! netlist, used for energy measurements) and a fast **analytic**
//! evaluation (per-cell charge transients + the closed-form
//! charge-sharing step) are provided; they are cross-checked in the
//! integration tests.

use crate::cells::{CellContext, CellDesign, CellOffsets, CellWeight};
use crate::fault::CellFault;
use crate::CimError;
use ferrocim_spice::{
    Circuit, Element, NodeId, RunContext, SwitchSchedule, TransientAnalysis, Waveform, Workspace,
};
use ferrocim_telemetry::Telemetry;
use ferrocim_units::{Celsius, Farad, Joule, Ohm, Second, Volt};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Residual resistance of a [`CellFault::ShortDevice`] path from the
/// bit line to the cell output — low enough to saturate `C_o` within
/// any realistic charge phase.
const SHORT_RESISTANCE: Ohm = Ohm(1e5);

/// Geometry and timing of a CIM row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Cells per row (the paper uses 8).
    pub cells_per_row: usize,
    /// Per-cell output capacitor `C_o`.
    pub c_o: Farad,
    /// Shared accumulation capacitor `C_acc`.
    pub c_acc: Farad,
    /// Duration of the charge phase.
    pub t_charge: Second,
    /// Dead time between word-line deassertion and `EN` closing, letting
    /// the cells' internal nodes discharge so the share phase is a pure
    /// charge redistribution (Eq. (1)).
    pub t_settle: Second,
    /// Duration of the charge-sharing phase.
    pub t_share: Second,
    /// Transient timestep.
    pub dt: Second,
}

impl ArrayConfig {
    /// The paper's row: 8 cells, with capacitors and timing sized for
    /// the 6.9 ns MAC latency and fJ-scale operation energy.
    pub fn paper_default() -> Self {
        ArrayConfig {
            cells_per_row: 8,
            c_o: Farad(1e-15),
            c_acc: Farad(8e-15),
            t_charge: Second(5.0e-9),
            t_settle: Second(0.4e-9),
            t_share: Second(1.5e-9),
            dt: Second(20e-12),
        }
    }

    /// Total MAC latency (`t_charge + t_settle + t_share`) — 6.9 ns for
    /// the paper default, matching the reported MAC latency.
    pub fn latency(&self) -> Second {
        self.t_charge + self.t_settle + self.t_share
    }

    /// The charge-sharing gain `C_o / (n·C_o + C_acc)` of Eq. (1).
    pub fn sharing_gain(&self) -> f64 {
        self.c_o.value() / (self.cells_per_row as f64 * self.c_o.value() + self.c_acc.value())
    }

    fn validate(&self) -> Result<(), CimError> {
        fn positive(name: &'static str, value: f64) -> Result<(), CimError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(CimError::InvalidConfig {
                    name,
                    value,
                    requirement: "positive and finite",
                })
            }
        }
        if self.cells_per_row == 0 {
            return Err(CimError::InvalidConfig {
                name: "cells_per_row",
                value: 0.0,
                requirement: "at least 1",
            });
        }
        positive("c_o", self.c_o.value())?;
        positive("c_acc", self.c_acc.value())?;
        positive("t_charge", self.t_charge.value())?;
        positive("t_share", self.t_share.value())?;
        if !(self.t_settle.value().is_finite() && self.t_settle.value() >= 0.0) {
            return Err(CimError::InvalidConfig {
                name: "t_settle",
                value: self.t_settle.value(),
                requirement: "non-negative and finite",
            });
        }
        positive("dt", self.dt.value())?;
        if self.dt.value() > self.t_share.value() || self.dt.value() > self.t_charge.value() {
            return Err(CimError::InvalidConfig {
                name: "dt",
                value: self.dt.value(),
                requirement: "smaller than both phases",
            });
        }
        Ok(())
    }
}

/// The result of one MAC operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacOutput {
    /// The accumulated analog output voltage on `C_acc`.
    pub v_acc: Volt,
    /// Per-cell `C_o` voltages at the end of the charge phase.
    pub cell_voltages: Vec<Volt>,
    /// Total energy delivered by all supplies over the operation.
    pub energy: Joule,
    /// The operation latency.
    pub latency: Second,
    /// The digital ground truth `Σ wᵢ·xᵢ`.
    pub expected: usize,
}

impl MacOutput {
    /// Energy efficiency in TOPS/W, using the paper's operation count of
    /// `n` multiplications + 1 accumulation per row MAC.
    pub fn tops_per_watt(&self, cells_per_row: usize) -> f64 {
        self.energy.tops_per_watt(cells_per_row as f64 + 1.0)
    }
}

/// Which evaluation path executes a [`MacRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacPath {
    /// The entire row simulated as one transient netlist — the
    /// energy-accurate reference path, and the default.
    #[default]
    Transient,
    /// Per-cell charge transients (deduplicated by operand/offset
    /// pattern) plus the closed-form Eq. (1) charge-sharing step — the
    /// fast path used by sweeps, tuning, and neural-network evaluation.
    Analytic,
}

/// A declarative MAC operation: operands, conditions, and evaluation
/// path, executed by [`CimArray::run`].
///
/// This is the single MAC entry point (the four historical methods
/// `mac` / `mac_with_offsets` / `mac_analytic` / `mac_analytic_weighted`
/// it once shimmed have been removed). Build a request from the input
/// vector, then chain whatever deviates from the defaults (room temperature, nominal
/// devices, transient path, all-ones weights are *not* defaulted —
/// weights must always be supplied):
///
/// ```
/// use ferrocim_cim::cells::TwoTransistorOneFefet;
/// use ferrocim_cim::{ArrayConfig, CimArray, MacPath, MacRequest};
/// use ferrocim_units::Celsius;
///
/// # fn main() -> Result<(), ferrocim_cim::CimError> {
/// let config = ArrayConfig { cells_per_row: 2, ..ArrayConfig::paper_default() };
/// let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config)?;
/// let request = MacRequest::new(&[true, false])
///     .weights(&[true, true])
///     .at(Celsius(85.0))
///     .path(MacPath::Analytic);
/// let out = array.run(&request)?;
/// assert_eq!(out.expected, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MacRequest {
    inputs: Vec<bool>,
    weights: Vec<CellWeight>,
    temp: Celsius,
    offsets: Option<Vec<CellOffsets>>,
    path: MacPath,
}

impl MacRequest {
    /// Starts a request from the word-line input vector. Weights start
    /// empty and must be set via [`MacRequest::weights`] or
    /// [`MacRequest::weighted`] before [`CimArray::run`] accepts the
    /// request.
    pub fn new(inputs: &[bool]) -> Self {
        MacRequest {
            inputs: inputs.to_vec(),
            weights: Vec::new(),
            temp: Celsius::ROOM,
            offsets: None,
            path: MacPath::default(),
        }
    }

    /// Sets binary stored weights.
    pub fn weights(mut self, weights: &[bool]) -> Self {
        self.weights = weights.iter().map(|&b| CellWeight::Bit(b)).collect();
        self
    }

    /// Sets multi-level stored weights.
    pub fn weighted(mut self, weights: &[CellWeight]) -> Self {
        self.weights = weights.to_vec();
        self
    }

    /// Sets per-cell variation offsets (one Monte-Carlo draw). Without
    /// this, cells are nominal.
    pub fn offsets(mut self, offsets: &[CellOffsets]) -> Self {
        self.offsets = Some(offsets.to_vec());
        self
    }

    /// Sets the simulation temperature (default 27 °C).
    pub fn at(mut self, temp: Celsius) -> Self {
        self.temp = temp;
        self
    }

    /// Selects the evaluation path (default [`MacPath::Transient`]).
    pub fn path(mut self, path: MacPath) -> Self {
        self.path = path;
        self
    }

    /// The word-line input vector.
    pub fn inputs(&self) -> &[bool] {
        &self.inputs
    }

    /// The stored weights.
    pub fn cell_weights(&self) -> &[CellWeight] {
        &self.weights
    }

    /// The simulation temperature.
    pub fn temperature(&self) -> Celsius {
        self.temp
    }

    /// The per-cell offsets, if any were set.
    pub fn cell_offsets(&self) -> Option<&[CellOffsets]> {
        self.offsets.as_deref()
    }

    /// The selected evaluation path.
    pub fn mac_path(&self) -> MacPath {
        self.path
    }
}

/// A single row of a CIM array built from any [`CellDesign`].
#[derive(Debug, Clone)]
pub struct CimArray<C> {
    cell: C,
    config: ArrayConfig,
    /// Per-column injected hardware faults (all `None` by default).
    faults: Vec<Option<CellFault>>,
    /// Budget, telemetry, solver selection and health policy threaded
    /// into every underlying solve.
    ctx: RunContext,
}

impl<C: CellDesign> CimArray<C> {
    /// Creates an array after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::InvalidConfig`] for non-physical geometry or
    /// timing values.
    pub fn new(cell: C, config: ArrayConfig) -> Result<Self, CimError> {
        config.validate()?;
        let faults = vec![None; config.cells_per_row];
        Ok(CimArray {
            cell,
            config,
            faults,
            ctx: RunContext::default(),
        })
    }

    /// Replaces the whole [`RunContext`] threaded into every underlying
    /// solve (see [`RunContext`]). Batch layers built on this array
    /// ([`crate::ArrayEngine`], [`crate::Crossbar`], the surrogate) run
    /// under the same context. An exhausted budget or a cancellation
    /// aborts a MAC mid-solve with a typed
    /// [`ferrocim_spice::SpiceError`] wrapped in [`CimError::Spice`];
    /// clones of one budget share a spend pool, so the same budget can
    /// govern a whole fleet of arrays. A `solver: None` keeps
    /// [`ferrocim_spice::SolverConfig::auto`], which keeps the paper's
    /// 8-cell rows on the dense path and switches wide rows to the
    /// sparse KLU-style backend.
    pub fn with_context(mut self, ctx: RunContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Replaces only the context's telemetry handle: every underlying
    /// transient solve reports its Newton iterations and accepted steps
    /// through it, and batch layers built on this array additionally
    /// emit [`ferrocim_telemetry::Event::MacIssued`] per batch. The
    /// default handle is off and adds no measurable cost.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.ctx.telemetry = telemetry;
        self
    }

    /// The context threaded into this array's solves.
    pub fn context(&self) -> &RunContext {
        &self.ctx
    }

    /// Installs per-column hardware faults (one entry per cell; `None`
    /// = healthy). Faults apply to every MAC path: stuck-at faults
    /// override the stored weight, a dead word line forces the input
    /// off, and open/short faults rewrite the cell's devices. The
    /// digital ground truth (`expected`) is still computed from the
    /// *requested* operands, so faulted outputs can be scored against
    /// the intent.
    ///
    /// # Errors
    ///
    /// [`CimError::MismatchedOperands`] when `faults` does not have one
    /// entry per cell.
    pub fn with_faults(mut self, faults: &[Option<CellFault>]) -> Result<Self, CimError> {
        if faults.len() != self.config.cells_per_row {
            return Err(CimError::MismatchedOperands {
                weights: faults.len(),
                inputs: faults.len(),
                cells_per_row: self.config.cells_per_row,
            });
        }
        self.faults = faults.to_vec();
        Ok(self)
    }

    /// The installed per-column faults.
    pub fn faults(&self) -> &[Option<CellFault>] {
        &self.faults
    }

    /// True when at least one cell has an injected fault.
    pub fn has_faults(&self) -> bool {
        self.faults.iter().any(|f| f.is_some())
    }

    /// The weight cell `i` effectively stores, after stuck-at faults.
    fn effective_weight(&self, i: usize, weight: CellWeight) -> CellWeight {
        match self.faults[i] {
            Some(CellFault::StuckAtLvt) => CellWeight::Bit(true),
            Some(CellFault::StuckAtHvt) => CellWeight::Bit(false),
            _ => weight,
        }
    }

    /// The input cell `i` effectively sees, after dead-wordline faults.
    fn effective_input(&self, i: usize, input: bool) -> bool {
        match self.faults[i] {
            Some(CellFault::DeadWordline) => false,
            _ => input,
        }
    }

    /// The cell design.
    pub fn cell(&self) -> &C {
        &self.cell
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    fn check_operands(&self, weights: &[bool], inputs: &[bool]) -> Result<(), CimError> {
        if weights.len() != self.config.cells_per_row || inputs.len() != self.config.cells_per_row {
            return Err(CimError::MismatchedOperands {
                weights: weights.len(),
                inputs: inputs.len(),
                cells_per_row: self.config.cells_per_row,
            });
        }
        Ok(())
    }

    fn nominal_offsets(&self) -> Vec<CellOffsets> {
        vec![CellOffsets::NOMINAL; self.config.cells_per_row]
    }

    /// Executes one MAC described by a [`MacRequest`].
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] when the request's
    /// weights, inputs, or offsets do not match the row width, or
    /// propagates simulation failures.
    pub fn run(&self, request: &MacRequest) -> Result<MacOutput, CimError> {
        self.run_in(request, &mut Workspace::new())
    }

    /// [`CimArray::run`] with a caller-owned solver [`Workspace`], so
    /// batched callers skip the per-operation solver allocations. The
    /// result is bitwise identical to [`CimArray::run`].
    ///
    /// # Errors
    ///
    /// As [`CimArray::run`].
    pub fn run_in(&self, request: &MacRequest, ws: &mut Workspace) -> Result<MacOutput, CimError> {
        self.run_cached(request, ws, &mut CellCache::default())
    }

    /// Executes every request in order through one solver [`Workspace`]
    /// and one per-cell cache shared by the whole call: an analytic
    /// cell transient runs once per distinct (effective weight, input,
    /// offsets, temperature) and every later cell with that state in
    /// any request reuses its result. Each output is bitwise identical
    /// to [`CimArray::run`] of the same request; nothing outlives the
    /// call.
    ///
    /// # Errors
    ///
    /// The first failing request's error, as [`CimArray::run`].
    pub fn run_all(&self, requests: &[MacRequest]) -> Result<Vec<MacOutput>, CimError> {
        let mut ws = Workspace::new();
        let mut cache = CellCache::default();
        requests
            .iter()
            .map(|request| self.run_cached(request, &mut ws, &mut cache))
            .collect()
    }

    /// The one MAC body behind [`CimArray::run_in`] and
    /// [`CimArray::run_all`].
    fn run_cached(
        &self,
        request: &MacRequest,
        ws: &mut Workspace,
        cache: &mut CellCache,
    ) -> Result<MacOutput, CimError> {
        let n = self.config.cells_per_row;
        if request.weights.len() != n
            || request.inputs.len() != n
            || request.offsets.as_ref().is_some_and(|o| o.len() != n)
        {
            return Err(CimError::MismatchedOperands {
                weights: request.weights.len(),
                inputs: request.inputs.len(),
                cells_per_row: n,
            });
        }
        let nominal;
        let offsets: &[CellOffsets] = match &request.offsets {
            Some(o) => o,
            None => {
                nominal = self.nominal_offsets();
                &nominal
            }
        };
        match request.path {
            MacPath::Transient => {
                self.run_transient(&request.weights, &request.inputs, request.temp, offsets, ws)
            }
            MacPath::Analytic => self.run_analytic(request, offsets, ws, cache),
        }
    }

    /// Builds the full-row MAC readout netlist with nominal
    /// (variation-free) cells and returns it together with the
    /// accumulation node and the readout duration. This is the same
    /// circuit the MAC entry points simulate, exposed so probes and
    /// benchmarks can run the readout transient under their own
    /// stepping or budget configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CimError::MismatchedOperands`] when `weights` or
    /// `inputs` do not match the row width.
    pub fn readout_circuit(
        &self,
        weights: &[bool],
        inputs: &[bool],
    ) -> Result<(Circuit, NodeId, Second), CimError> {
        self.check_operands(weights, inputs)?;
        let weights: Vec<CellWeight> = weights.iter().map(|&b| CellWeight::Bit(b)).collect();
        let offsets = self.nominal_offsets();
        let (ckt, _outs, acc) = self.build_row_circuit(&weights, inputs, &offsets)?;
        Ok((ckt, acc, self.config.latency()))
    }

    /// Builds the full-row MAC netlist for the given weights/inputs and
    /// returns it with the per-cell output nodes and the accumulation
    /// node. The word-line sources are named `VWL{i}`, which is how
    /// [`crate::ArrayEngine`] retargets a built circuit to a new input
    /// vector without rebuilding the cells.
    pub(crate) fn build_row_circuit(
        &self,
        weights: &[CellWeight],
        inputs: &[bool],
        offsets: &[CellOffsets],
    ) -> Result<(Circuit, Vec<NodeId>, NodeId), CimError> {
        let n = self.config.cells_per_row;
        let bias = self.cell.bias();
        let mut ckt = Circuit::new();
        let bl = ckt.node("bl");
        let sl = ckt.node("sl");
        let acc = ckt.node("acc");
        ckt.add(Element::vdc("VBL", bl, NodeId::GROUND, bias.v_bl))?;
        ckt.add(Element::vdc("VSL", sl, NodeId::GROUND, bias.v_sl))?;
        // All output capacitors reference the source line, so every cell
        // output starts the MAC precharged to V_SL (zero differential) —
        // the off-cell M1 then idles at V_GS ≈ 0 instead of leaking.
        ckt.add(Element::Capacitor {
            name: "CACC".into(),
            a: acc,
            b: sl,
            capacitance: self.config.c_acc,
            initial: Some(Volt::ZERO),
        })?;
        let mut outs = Vec::with_capacity(n);
        for i in 0..n {
            let wl = ckt.node(&format!("wl{i}"));
            let out = ckt.node(&format!("out{i}"));
            outs.push(out);
            // Word lines are asserted only during the charge phase; at
            // t_charge they drop back to the off level so the cells stop
            // driving and the share phase is a pure charge
            // redistribution (Eq. (1)).
            ckt.add(Element::vsource(
                format!("VWL{i}"),
                wl,
                NodeId::GROUND,
                Waveform::step(
                    bias.wl_for(self.effective_input(i, inputs[i])),
                    bias.v_wl_off,
                    self.config.t_charge,
                ),
            ))?;
            ckt.add(Element::Capacitor {
                name: format!("CO{i}"),
                a: out,
                b: sl,
                capacitance: self.config.c_o,
                initial: Some(Volt::ZERO),
            })?;
            ckt.add(Element::switch(
                format!("EN{i}"),
                out,
                acc,
                SwitchSchedule::open().then_at(self.config.t_charge + self.config.t_settle, true),
            ))?;
            match self.faults[i] {
                // The cell's devices never connect: only CO and EN remain.
                Some(CellFault::OpenDevice) => {}
                // A damaged device ties the output to the bit line
                // through a residual resistance instead of the cell.
                Some(CellFault::ShortDevice) => {
                    ckt.add(Element::resistor(
                        format!("FAULT{i}"),
                        bl,
                        out,
                        SHORT_RESISTANCE,
                    ))?;
                }
                _ => {
                    let ctx = CellContext {
                        index: i,
                        bl,
                        sl,
                        wl,
                        out,
                        weight: self.effective_weight(i, weights[i]),
                        offsets: &offsets[i],
                    };
                    self.cell.build_cell(&mut ckt, &ctx)?;
                }
            }
        }
        Ok((ckt, outs, acc))
    }

    /// Retargets a circuit built by [`CimArray::build_row_circuit`] to a
    /// new input vector by rewriting the `VWL{i}` waveforms in place.
    pub(crate) fn retarget_inputs(
        &self,
        ckt: &mut Circuit,
        inputs: &[bool],
    ) -> Result<(), CimError> {
        let bias = self.cell.bias();
        for (i, &input) in inputs.iter().enumerate() {
            match ckt.element_mut(&format!("VWL{i}")) {
                Some(Element::VoltageSource { waveform, .. }) => {
                    *waveform = Waveform::step(
                        bias.wl_for(self.effective_input(i, input)),
                        bias.v_wl_off,
                        self.config.t_charge,
                    );
                }
                _ => {
                    return Err(CimError::InvalidConfig {
                        name: "inputs",
                        value: i as f64,
                        requirement: "a circuit built by build_row_circuit",
                    })
                }
            }
        }
        Ok(())
    }

    /// Runs the full-row transient on a built circuit and packs the
    /// result. Split from [`CimArray::run_transient`] so the batch
    /// engine can reuse one circuit across jobs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn eval_row_transient(
        &self,
        ckt: &Circuit,
        outs: &[NodeId],
        acc: NodeId,
        weights: &[CellWeight],
        inputs: &[bool],
        temp: Celsius,
        ctx: &RunContext,
        ws: &mut Workspace,
    ) -> Result<MacOutput, CimError> {
        let t_stop = self.config.latency();
        // Cell voltages at the end of the charge phase (the last sample
        // at or before t_charge); the rest of the waveform is not kept.
        let t_charge = self.config.t_charge.value() + 1e-15;
        let mut at_charge = vec![0.0; outs.len()];
        let result = TransientAnalysis::over(ckt, t_stop)
            .with_fixed_step(self.config.dt)
            .at(temp)
            .with_context(ctx.clone())
            .run_streamed_in(ws, &mut |t, v| {
                if t.value() <= t_charge {
                    for (slot, o) in at_charge.iter_mut().zip(outs) {
                        *slot = v[o.index()];
                    }
                }
            })?;
        // All outputs are reported differentially against the source
        // line, which is what the sense circuit compares to.
        let v_sl = self.cell.bias().v_sl.value();
        let cell_voltages: Vec<Volt> = at_charge.iter().map(|&v| Volt(v - v_sl)).collect();
        Ok(MacOutput {
            v_acc: Volt(result.final_voltage(acc).value() - v_sl),
            cell_voltages,
            energy: result.total_energy_delivered(),
            latency: t_stop,
            expected: expected_count(weights, inputs),
        })
    }

    /// The full-row transient path behind [`MacPath::Transient`].
    fn run_transient(
        &self,
        weights: &[CellWeight],
        inputs: &[bool],
        temp: Celsius,
        offsets: &[CellOffsets],
        ws: &mut Workspace,
    ) -> Result<MacOutput, CimError> {
        let (ckt, outs, acc) = self.build_row_circuit(weights, inputs, offsets)?;
        self.eval_row_transient(&ckt, &outs, acc, weights, inputs, temp, &self.ctx, ws)
    }

    /// The fast path behind [`MacPath::Analytic`]: each cell is
    /// simulated in its own small transient (deduplicated through
    /// `cache` by cell state and temperature), then the charge-sharing
    /// step is applied in closed form (Eq. (1)).
    ///
    /// Energies are the summed per-cell supply energies; the share phase
    /// is lossless in the ideal-switch limit and contributes none.
    fn run_analytic(
        &self,
        request: &MacRequest,
        offsets: &[CellOffsets],
        ws: &mut Workspace,
        cache: &mut CellCache,
    ) -> Result<MacOutput, CimError> {
        let n = self.config.cells_per_row;
        let mut cell_voltages = Vec::with_capacity(n);
        let mut energy = 0.0;
        let bias = self.cell.bias();
        for (i, cell_offsets) in offsets.iter().enumerate() {
            // Open/short faults bypass the cell simulation entirely.
            match self.faults[i] {
                Some(CellFault::OpenDevice) => {
                    cell_voltages.push(Volt(0.0));
                    continue;
                }
                Some(CellFault::ShortDevice) => {
                    // The residual short charges C_o all the way to the
                    // bit line; the supply delivers ~C_o·ΔV² doing so.
                    let dv = bias.v_bl.value() - bias.v_sl.value();
                    cell_voltages.push(Volt(dv));
                    energy += self.config.c_o.value() * dv * dv;
                    continue;
                }
                _ => {}
            }
            let weight = self.effective_weight(i, request.weights[i]);
            let input = self.effective_input(i, request.inputs[i]);
            let key = CellKey::new(weight, input, cell_offsets, request.temp);
            let (v_o, e) = match cache.get(&key) {
                Some(&hit) => hit,
                None => {
                    let r = self.single_cell_charge_weighted(
                        weight,
                        input,
                        request.temp,
                        cell_offsets,
                        ws,
                    )?;
                    cache.insert(key, r);
                    r
                }
            };
            cell_voltages.push(Volt(v_o));
            energy += e;
        }
        let v_sum: f64 = cell_voltages.iter().map(|v| v.value()).sum();
        let v_acc = self.config.sharing_gain() * v_sum;
        Ok(MacOutput {
            v_acc: Volt(v_acc),
            cell_voltages,
            energy: Joule(energy),
            latency: self.config.latency(),
            expected: expected_count(&request.weights, &request.inputs),
        })
    }

    /// The nominal analog output level for every MAC value `0..=n` at a
    /// temperature: two cell transients (product-1 and product-0) plus
    /// the closed-form Eq. (1). This is the fast path behind
    /// [`crate::metrics::RangeTable::measure`] and the array tuner.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn level_voltages(&self, temp: Celsius) -> Result<Vec<Volt>, CimError> {
        let n = self.config.cells_per_row;
        let mut ws = Workspace::new();
        let (v_on, _) =
            self.single_cell_charge(true, true, temp, &CellOffsets::NOMINAL, &mut ws)?;
        let (v_off, _) =
            self.single_cell_charge(true, false, temp, &CellOffsets::NOMINAL, &mut ws)?;
        let gain = self.config.sharing_gain();
        Ok((0..=n)
            .map(|k| Volt(gain * (k as f64 * v_on + (n - k) as f64 * v_off)))
            .collect())
    }

    /// Estimates the per-cell output-voltage standard deviations
    /// `(σ_on, σ_off)` induced by device variation, by first-order
    /// finite differences over each offset axis (FeFET, M1, M2) at its
    /// ±1σ points.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn cell_sigma(
        &self,
        temp: Celsius,
        variation: &ferrocim_device::variation::VariationModel,
    ) -> Result<(Volt, Volt), CimError> {
        let axes = [
            CellOffsets {
                fefet: variation.sigma_vt,
                ..CellOffsets::NOMINAL
            },
            CellOffsets {
                m1: variation.sigma_vt_mosfet,
                ..CellOffsets::NOMINAL
            },
            CellOffsets {
                m2: variation.sigma_vt_mosfet,
                ..CellOffsets::NOMINAL
            },
        ];
        let mut var = [0.0f64; 2];
        let mut ws = Workspace::new();
        for (slot, &on) in [true, false].iter().enumerate() {
            for plus in &axes {
                let minus = CellOffsets {
                    fefet: -plus.fefet,
                    m1: -plus.m1,
                    m2: -plus.m2,
                };
                let (vp, _) = self.single_cell_charge(true, on, temp, plus, &mut ws)?;
                let (vm, _) = self.single_cell_charge(true, on, temp, &minus, &mut ws)?;
                let delta = 0.5 * (vp - vm);
                var[slot] += delta * delta;
            }
        }
        Ok((Volt(var[0].sqrt()), Volt(var[1].sqrt())))
    }

    /// Simulates one cell charging its `C_o` for `t_charge`; returns the
    /// final cell voltage and the supply energy.
    fn single_cell_charge(
        &self,
        weight: bool,
        input: bool,
        temp: Celsius,
        offsets: &CellOffsets,
        ws: &mut Workspace,
    ) -> Result<(f64, f64), CimError> {
        self.single_cell_charge_weighted(CellWeight::Bit(weight), input, temp, offsets, ws)
    }

    /// [`CimArray::single_cell_charge`] for an arbitrary stored weight.
    fn single_cell_charge_weighted(
        &self,
        weight: CellWeight,
        input: bool,
        temp: Celsius,
        offsets: &CellOffsets,
        ws: &mut Workspace,
    ) -> Result<(f64, f64), CimError> {
        let bias = self.cell.bias();
        let mut ckt = Circuit::new();
        let bl = ckt.node("bl");
        let sl = ckt.node("sl");
        let wl = ckt.node("wl");
        let out = ckt.node("out");
        ckt.add(Element::vdc("VBL", bl, NodeId::GROUND, bias.v_bl))?;
        ckt.add(Element::vdc("VSL", sl, NodeId::GROUND, bias.v_sl))?;
        ckt.add(Element::vdc("VWL", wl, NodeId::GROUND, bias.wl_for(input)))?;
        ckt.add(Element::Capacitor {
            name: "CO".into(),
            a: out,
            b: sl,
            capacitance: self.config.c_o,
            initial: Some(Volt::ZERO),
        })?;
        let ctx = CellContext {
            index: 0,
            bl,
            sl,
            wl,
            out,
            weight,
            offsets,
        };
        self.cell.build_cell(&mut ckt, &ctx)?;
        let result = TransientAnalysis::over(&ckt, self.config.t_charge)
            .with_fixed_step(self.config.dt)
            .at(temp)
            .with_context(self.ctx.clone())
            .run_streamed_in(ws, &mut |_, _| {})?;
        Ok((
            result.final_voltage(out).value() - bias.v_sl.value(),
            result.total_energy_delivered().value(),
        ))
    }
}

/// Everything one analytic cell transient depends on, as bit patterns:
/// the effective weight, the effective input, the cell's offsets and
/// the temperature. Equal keys give bitwise-equal transients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CellKey {
    weight: (u8, u64),
    input: bool,
    offsets: [u64; 3],
    temp: u64,
}

impl CellKey {
    fn new(weight: CellWeight, input: bool, offsets: &CellOffsets, temp: Celsius) -> Self {
        let weight = match weight {
            CellWeight::Bit(bit) => (0, u64::from(bit)),
            CellWeight::Level { level, max } => (1, u64::from(level) << 8 | u64::from(max)),
            CellWeight::Analog(p) => (2, p.to_bits()),
        };
        CellKey {
            weight,
            input,
            offsets: [
                offsets.fefet.value().to_bits(),
                offsets.m1.value().to_bits(),
                offsets.m2.value().to_bits(),
            ],
            temp: temp.value().to_bits(),
        }
    }
}

/// Per-cell analytic results `(v_o, energy)` shared by the requests of
/// one [`CimArray::run_all`] call (one request for [`CimArray::run_in`]).
type CellCache = HashMap<CellKey, (f64, f64)>;

/// The digital ground truth `Σ wᵢ·xᵢ`, counting a weight as '1' when
/// its polarization is positive.
fn expected_count(weights: &[CellWeight], inputs: &[bool]) -> usize {
    weights
        .iter()
        .zip(inputs)
        .filter(|(w, x)| w.bit() && **x)
        .count()
}

/// Builds the all-ones weight vector and an input vector with `k` active
/// bits — the operand pattern used to exercise `MAC = k`.
pub fn mac_operands(cells_per_row: usize, k: usize) -> (Vec<bool>, Vec<bool>) {
    assert!(
        k <= cells_per_row,
        "cannot activate {k} of {cells_per_row} cells"
    );
    let weights = vec![true; cells_per_row];
    let inputs = (0..cells_per_row).map(|i| i < k).collect();
    (weights, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::TwoTransistorOneFefet;

    const ROOM: Celsius = Celsius(27.0);

    fn small_array() -> CimArray<TwoTransistorOneFefet> {
        // 4 cells and a coarser timestep keep unit tests quick; the full
        // 8-cell row is exercised in the integration tests and benches.
        let config = ArrayConfig {
            cells_per_row: 4,
            dt: Second(50e-12),
            ..ArrayConfig::paper_default()
        };
        CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap()
    }

    #[test]
    fn sharing_gain_matches_equation_one() {
        let c = ArrayConfig::paper_default();
        let expected = 1e-15 / (8.0 * 1e-15 + 8e-15);
        assert!((c.sharing_gain() - expected).abs() < 1e-18);
    }

    #[test]
    fn config_validation() {
        let mut c = ArrayConfig::paper_default();
        c.cells_per_row = 0;
        assert!(matches!(
            CimArray::new(TwoTransistorOneFefet::paper_default(), c),
            Err(CimError::InvalidConfig {
                name: "cells_per_row",
                ..
            })
        ));
        let mut c = ArrayConfig::paper_default();
        c.dt = Second(1e-8);
        assert!(CimArray::new(TwoTransistorOneFefet::paper_default(), c).is_err());
        let mut c = ArrayConfig::paper_default();
        c.c_o = Farad(-1.0);
        assert!(CimArray::new(TwoTransistorOneFefet::paper_default(), c).is_err());
    }

    fn analytic(inputs: &[bool], weights: &[bool]) -> MacRequest {
        MacRequest::new(inputs)
            .weights(weights)
            .at(ROOM)
            .path(MacPath::Analytic)
    }

    #[test]
    fn operand_length_is_checked() {
        let array = small_array();
        let err = array
            .run(&MacRequest::new(&[true; 4]).weights(&[true; 3]).at(ROOM))
            .unwrap_err();
        assert!(matches!(err, CimError::MismatchedOperands { .. }));
        // A request with no weights at all is rejected, not defaulted.
        let err = array.run(&MacRequest::new(&[true; 4])).unwrap_err();
        assert!(matches!(err, CimError::MismatchedOperands { .. }));
        // Wrong offsets length too.
        let err = array
            .run(
                &MacRequest::new(&[true; 4])
                    .weights(&[true; 4])
                    .offsets(&[CellOffsets::NOMINAL; 3]),
            )
            .unwrap_err();
        assert!(matches!(err, CimError::MismatchedOperands { .. }));
    }

    #[test]
    fn mac_output_is_monotone_in_count() {
        let array = small_array();
        let mut last = -1.0;
        for k in 0..=4 {
            let (w, x) = mac_operands(4, k);
            let out = array.run(&analytic(&x, &w)).unwrap();
            assert_eq!(out.expected, k);
            assert!(
                out.v_acc.value() > last,
                "V_acc must grow with MAC count: k={k}, v={}",
                out.v_acc.value()
            );
            last = out.v_acc.value();
        }
    }

    #[test]
    fn zero_mac_output_is_near_zero() {
        let array = small_array();
        let (w, x) = mac_operands(4, 0);
        let out = array.run(&analytic(&x, &w)).unwrap();
        let (wf, xf) = mac_operands(4, 4);
        let full = array.run(&analytic(&xf, &wf)).unwrap();
        assert!(
            out.v_acc.value() < 0.05 * full.v_acc.value(),
            "MAC=0 output {} vs full {}",
            out.v_acc.value(),
            full.v_acc.value()
        );
    }

    #[test]
    fn transient_and_analytic_agree() {
        let array = small_array();
        let (w, x) = mac_operands(4, 2);
        let fast = array.run(&analytic(&x, &w)).unwrap();
        let full = array
            .run(&MacRequest::new(&x).weights(&w).at(ROOM))
            .unwrap();
        let rel = (fast.v_acc.value() - full.v_acc.value()).abs() / full.v_acc.value().max(1e-6);
        assert!(
            rel < 0.08,
            "analytic {} vs transient {} (rel {rel})",
            fast.v_acc.value(),
            full.v_acc.value()
        );
    }

    #[test]
    fn weights_gate_the_inputs() {
        // input '1' on a cell storing '0' must contribute ~nothing.
        let array = small_array();
        let out_gated = array.run(&analytic(&[true; 4], &[false; 4])).unwrap();
        assert_eq!(out_gated.expected, 0);
        let (w, x) = mac_operands(4, 4);
        let out_full = array.run(&analytic(&x, &w)).unwrap();
        assert!(out_gated.v_acc.value() < 0.05 * out_full.v_acc.value());
    }

    #[test]
    fn energy_is_positive_and_fj_scale() {
        let array = small_array();
        let (w, x) = mac_operands(4, 4);
        let out = array
            .run(&MacRequest::new(&x).weights(&w).at(ROOM))
            .unwrap();
        let e = out.energy.value();
        assert!(e > 0.0, "energy {e}");
        assert!(e < 100e-15, "energy should be fJ-scale, got {e}");
    }

    #[test]
    fn run_in_reuses_a_workspace_bitwise() {
        let array = small_array();
        let (w, x) = mac_operands(4, 2);
        let request = MacRequest::new(&x).weights(&w).at(ROOM);
        let fresh = array.run(&request).unwrap();
        let mut ws = Workspace::new();
        let first = array.run_in(&request, &mut ws).unwrap();
        // Second run through the warm workspace must be bitwise equal.
        let second = array.run_in(&request, &mut ws).unwrap();
        assert_eq!(fresh, first);
        assert_eq!(first, second);
    }

    #[test]
    fn mac_operands_pattern() {
        let (w, x) = mac_operands(8, 3);
        assert_eq!(w, vec![true; 8]);
        assert_eq!(x.iter().filter(|b| **b).count(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot activate")]
    fn mac_operands_rejects_excess() {
        let _ = mac_operands(4, 5);
    }
}
