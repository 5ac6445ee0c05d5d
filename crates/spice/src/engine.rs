//! The reusable simulation engine: solver workspaces and warm-started
//! repeated analyses.
//!
//! A single DC or transient solve allocates its system matrix and
//! vectors once, which is fine. Batched workloads — a 64-point `I–V`
//! sweep, a 100-sample Monte-Carlo run, a bit-serial neural-network
//! inference issuing thousands of MAC reads — repeat near-identical
//! solves where the per-solve allocations and cold Newton starts
//! dominate. This module factors both out:
//!
//! * [`Workspace`] owns the LU matrix, right-hand side, permutation and
//!   solution buffers, reused across every solve that goes through it.
//! * [`SimEngine`] owns a [`Workspace`] plus the last operating point,
//!   and seeds each new solve from the previous one (falling back to a
//!   cold start if the warm-started iteration fails to converge).
//!
//! Both are deliberately dumb containers: all numerical behavior lives
//! in [`crate::DcAnalysis`] / [`crate::TransientAnalysis`], and a solve
//! routed through a fresh workspace is bitwise identical to the
//! allocating path.

use crate::dc::{DcAnalysis, OperatingPoint};
use crate::health::SolveQuality;
use crate::mna::NewtonOptions;
use crate::netlist::Circuit;
use crate::rescue::RescuePolicy;
use crate::solver::{FillOrdering, LinearSystem, SolverConfig, SolverKind, SolverState};
use crate::transient::{AdaptiveOptions, Integrator, TransientAnalysis, TransientResult};
use crate::{RunContext, SpiceError};
use ferrocim_telemetry::{DegradeStageKind, SolverBackend, Telemetry};
use ferrocim_units::{Celsius, Second};

/// Reusable solver state: the linear-system backend (dense matrix or
/// sparse slot table + factors, selected by a [`SolverConfig`]) plus the
/// right-hand-side and solution buffers shared by every solve routed
/// through it.
///
/// A `Workspace` adapts itself to whatever system size it is handed, so
/// one instance can serve circuits of different sizes back to back; the
/// buffers only reallocate when the size or the selected backend
/// actually changes. Keeping the backend alive across solves is what
/// amortizes the sparse symbolic analysis over a whole Newton
/// iteration / sweep / Monte-Carlo campaign. (Reusing one workspace
/// across *same-size but different* topologies is safe — the sparse
/// pattern grows into a superset and re-analyzes — but wastes the
/// reuse; give unrelated circuits their own workspaces.)
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The linear-system backend stamped by `assemble` and factored by
    /// each Newton iteration.
    pub(crate) system: SolverState,
    /// Right-hand side stamped alongside `system`.
    pub(crate) z: Vec<f64>,
    /// Solution buffer filled by the backend's solve.
    pub(crate) x_new: Vec<f64>,
    /// Residual scratch for solve certification (`b − A·x`).
    pub(crate) resid: Vec<f64>,
    /// Correction scratch for iterative refinement.
    pub(crate) corr: Vec<f64>,
    config: SolverConfig,
    pub(crate) size: usize,
    /// Current rung on the solver degradation ladder (sticky across
    /// solves until the size changes or the config is replaced):
    /// 0 = as configured, 1 = fresh symbolic analysis forced,
    /// 2 = alternate fill ordering, 3 = dense fallback.
    degrade: u8,
    /// Quality verdict of the most recent certified solve.
    pub(crate) last_quality: Option<SolveQuality>,
}

impl Workspace {
    /// Creates an empty workspace with the default
    /// [`SolverConfig::auto`] backend selection; buffers are sized
    /// lazily on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Creates an empty workspace that selects its backend per
    /// `config`.
    pub fn with_solver(config: SolverConfig) -> Self {
        Workspace {
            config,
            ..Workspace::default()
        }
    }

    /// Creates a workspace pre-sized for an `n`-unknown system.
    pub fn with_size(n: usize) -> Self {
        let mut ws = Workspace::new();
        ws.ensure_size(n);
        ws
    }

    /// The system size the buffers are currently shaped for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Changes the solver configuration. The backend is rebuilt on the
    /// next solve if the new configuration selects differently; a
    /// matching configuration is a no-op, preserving any sparse
    /// symbolic analysis. A genuinely different configuration also
    /// resets the degradation ladder — the caller asked for a fresh
    /// selection.
    pub fn set_solver(&mut self, config: SolverConfig) {
        if config != self.config {
            self.degrade = 0;
        }
        self.config = config;
    }

    /// The backend currently selected for the workspace's size.
    pub fn solver_backend(&self) -> SolverBackend {
        self.system.backend()
    }

    /// Symbolic / numeric factorization counts of the sparse backend,
    /// or `None` while the dense backend is active. On a fixed topology
    /// the first count stays at 1 while the second grows with every
    /// Newton iteration — the KLU-style reuse this workspace exists to
    /// provide.
    pub fn sparse_factor_counts(&self) -> Option<(u64, u64)> {
        self.system
            .as_sparse()
            .map(|s| (s.symbolic_analyses(), s.numeric_factorizations()))
    }

    /// Full / replayed factorization counts of the dense backend, or
    /// `None` while the sparse backend is active. On a fixed stamped
    /// pattern the first count grows only when a replay cannot confirm
    /// the last full factorization's pivot choices.
    pub fn dense_factor_counts(&self) -> Option<(u64, u64)> {
        self.system
            .as_dense()
            .map(|d| (d.full_factorizations(), d.replayed_factorizations()))
    }

    /// Reshapes the buffers for an `n`-unknown system, rebuilding the
    /// backend when the size or the configured selection changed.
    /// No-op when everything already matches.
    pub(crate) fn ensure_size(&mut self, n: usize) {
        if self.size != n {
            // A new system size means a new circuit: degradation state
            // learned on the old one does not transfer.
            self.degrade = 0;
        }
        let effective = self.effective_config_for(n);
        if !self.system.matches(n, effective) {
            self.system = SolverState::for_config(n, effective);
        }
        if self.size == n {
            return;
        }
        self.z.clear();
        self.z.resize(n, 0.0);
        self.x_new.clear();
        self.x_new.reserve(n);
        self.size = n;
    }

    /// The current rung on the solver degradation ladder (0 = the
    /// configured backend, 3 = dense fallback).
    pub fn degrade_level(&self) -> u8 {
        self.degrade
    }

    /// Quality verdict of the most recent certified solve routed
    /// through this workspace, or `None` when certification is off (or
    /// before the first solve).
    pub fn last_solve_quality(&self) -> Option<SolveQuality> {
        self.last_quality
    }

    /// The configuration the backend is actually built from at the
    /// current degradation rung. Rungs 0 and 1 keep the configured
    /// selection (rung 1 acts by discarding the symbolic analysis, not
    /// by reconfiguring); rung 2 flips the sparse fill ordering; rung 3
    /// abandons sparse for the dense backend.
    fn effective_config_for(&self, n: usize) -> SolverConfig {
        if !self.config.wants_sparse(n) {
            return self.config;
        }
        match self.degrade {
            0 | 1 => self.config,
            2 => {
                let flipped = match self.config.ordering {
                    FillOrdering::MinDegree => FillOrdering::Natural,
                    FillOrdering::Natural => FillOrdering::MinDegree,
                };
                SolverConfig {
                    kind: SolverKind::Sparse,
                    ordering: flipped,
                    ..self.config
                }
            }
            _ => SolverConfig::dense(),
        }
    }

    /// Escalates one rung down the degradation ladder, rebuilding or
    /// invalidating the backend so the next assembly runs on it.
    /// Returns the stage entered, or `None` when the ladder is
    /// exhausted (also immediately for a configured-dense selection:
    /// dense LU with partial pivoting has no cheaper fallback).
    pub(crate) fn escalate_degrade(&mut self) -> Option<DegradeStageKind> {
        if !self.config.wants_sparse(self.size) {
            return None;
        }
        match self.degrade {
            0 => {
                self.degrade = 1;
                if let SolverState::Sparse(s) = &mut self.system {
                    s.invalidate_symbolic();
                }
                Some(DegradeStageKind::FreshSymbolic)
            }
            1 => {
                self.degrade = 2;
                self.system =
                    SolverState::for_config(self.size, self.effective_config_for(self.size));
                Some(DegradeStageKind::AlternateOrdering)
            }
            2 => {
                self.degrade = 3;
                self.system =
                    SolverState::for_config(self.size, self.effective_config_for(self.size));
                Some(DegradeStageKind::DenseFallback)
            }
            _ => None,
        }
    }
}

/// A warm-starting simulation engine for repeated solves on the same
/// (or similar) circuits.
///
/// The engine carries a [`Workspace`] so repeated solves stop paying
/// per-solve allocation, and remembers the last operating point so each
/// DC solve starts from the previous solution — the continuation
/// strategy that makes fine sweeps through exponential subthreshold
/// regions converge in a handful of Newton iterations. If a warm start
/// fails to converge (the new point is too far from the old one), the
/// engine transparently retries from a cold start before reporting an
/// error.
///
/// # Examples
///
/// ```
/// use ferrocim_spice::{Circuit, Element, NodeId, SimEngine, Waveform};
/// use ferrocim_units::{Celsius, Ohm, Volt};
///
/// # fn main() -> Result<(), ferrocim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(0.0)))?;
/// ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))?;
///
/// let mut engine = SimEngine::new().at(Celsius(27.0));
/// for mv in 0..5 {
///     if let Some(Element::VoltageSource { waveform, .. }) = ckt.element_mut("V1") {
///         *waveform = Waveform::dc(Volt(mv as f64 * 0.1));
///     }
///     // Each solve warm-starts from the previous point.
///     let op = engine.dc(&ckt)?;
///     assert!((op.voltage(a).value() - mv as f64 * 0.1).abs() < 1e-6);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimEngine {
    temp: Celsius,
    options: NewtonOptions,
    integrator: Integrator,
    rescue: Option<RescuePolicy>,
    ctx: RunContext,
    workspace: Workspace,
    last_op: Option<OperatingPoint>,
}

impl SimEngine {
    /// Creates an engine at the default temperature (27 °C).
    pub fn new() -> Self {
        SimEngine {
            temp: Celsius::ROOM,
            ..SimEngine::default()
        }
    }

    /// Sets the simulation temperature (builder style).
    pub fn at(mut self, temp: Celsius) -> Self {
        self.temp = temp;
        self
    }

    /// Overrides the Newton iteration options.
    pub fn with_options(mut self, options: NewtonOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the transient integration method.
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Overrides the convergence-rescue policy used by DC solves. The
    /// default is the full ladder ([`RescuePolicy::default`]); pass
    /// [`RescuePolicy::none`] for fail-fast behaviour.
    pub fn with_rescue(mut self, policy: RescuePolicy) -> Self {
        self.rescue = Some(policy);
        self
    }

    /// Replaces the whole [`RunContext`] forwarded to every DC and
    /// transient analysis issued through this engine: one budget spans
    /// a whole warm-started campaign, and a solver selection applies to
    /// the engine's [`Workspace`].
    pub fn with_context(mut self, ctx: RunContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Replaces only the context's telemetry handle, so one recorder
    /// observes a whole warm-started campaign. The default handle is
    /// off.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.ctx.telemetry = telemetry;
        self
    }

    /// The context forwarded to this engine's analyses.
    pub fn context(&self) -> &RunContext {
        &self.ctx
    }

    /// The current simulation temperature.
    pub fn temperature(&self) -> Celsius {
        self.temp
    }

    /// Changes the temperature without discarding the warm-start state —
    /// exactly what a fine temperature sweep wants, since the operating
    /// point moves continuously with temperature.
    pub fn set_temperature(&mut self, temp: Celsius) {
        self.temp = temp;
    }

    /// Drops the remembered operating point, forcing the next solve to
    /// start cold. Call this when switching to an unrelated circuit
    /// topology (a size mismatch is detected automatically, but a
    /// same-size different circuit is not).
    pub fn clear_warm_start(&mut self) {
        self.last_op = None;
    }

    /// The operating point of the most recent successful DC solve.
    pub fn last_operating_point(&self) -> Option<&OperatingPoint> {
        self.last_op.as_ref()
    }

    /// Direct access to the underlying workspace, for callers that mix
    /// engine-driven and hand-built analyses.
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// Solves the DC operating point, warm-started from the previous
    /// solve when one exists.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::NoConvergence`] if Newton iteration fails even
    ///   from a cold start.
    /// * [`SpiceError::SingularMatrix`] for degenerate circuits.
    pub fn dc(&mut self, circuit: &Circuit) -> Result<OperatingPoint, SpiceError> {
        let mut cold = DcAnalysis::new(circuit)
            .at(self.temp)
            .with_options(self.options)
            .with_context(self.ctx.clone());
        if let Some(policy) = &self.rescue {
            cold = cold.with_rescue(policy.clone());
        }
        let op = match &self.last_op {
            Some(prev) => {
                let warm = cold.clone().warm_start(prev);
                match warm.solve_in(&mut self.workspace) {
                    Ok(op) => op,
                    // Continuation fallback: a warm start far from the
                    // new solution can diverge (or blow up) where a cold
                    // start would not. Retry once from zero before
                    // giving up.
                    Err(SpiceError::NoConvergence { .. } | SpiceError::NumericalBlowup { .. }) => {
                        cold.solve_in(&mut self.workspace)?
                    }
                    Err(e) => return Err(e),
                }
            }
            None => cold.solve_in(&mut self.workspace)?,
        };
        self.last_op = Some(op.clone());
        Ok(op)
    }

    /// Runs a transient analysis whose initial condition is the
    /// (warm-started) DC operating point of `circuit`.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::InvalidValue`] for a bad timestep or stop time.
    /// * DC / per-step Newton errors as for [`SimEngine::dc`].
    pub fn transient(
        &mut self,
        circuit: &Circuit,
        dt: Second,
        t_stop: Second,
    ) -> Result<TransientResult, SpiceError> {
        let op = self.dc(circuit)?;
        TransientAnalysis::over(circuit, t_stop)
            .with_fixed_step(dt)
            .at(self.temp)
            .with_options(self.options)
            .with_integrator(self.integrator)
            .with_context(self.ctx.clone())
            .start_from(&op)
            .run_in(&mut self.workspace)
    }

    /// Runs an adaptive (LTE-controlled) transient analysis whose
    /// initial condition is the (warm-started) DC operating point of
    /// `circuit`. Pass [`AdaptiveOptions::for_duration`] or tweak it.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::InvalidValue`] for bad adaptive options.
    /// * DC / per-step Newton errors as for [`SimEngine::dc`].
    /// * [`SpiceError::BudgetExceeded`] / [`SpiceError::Cancelled`]
    ///   when the engine budget runs out.
    pub fn transient_adaptive(
        &mut self,
        circuit: &Circuit,
        t_stop: Second,
        opts: AdaptiveOptions,
    ) -> Result<TransientResult, SpiceError> {
        let op = self.dc(circuit)?;
        let mut analysis = TransientAnalysis::over(circuit, t_stop)
            .with_adaptive_options(opts)
            .at(self.temp)
            .with_options(self.options)
            .with_integrator(self.integrator)
            .with_context(self.ctx.clone())
            .start_from(&op);
        if let Some(policy) = &self.rescue {
            analysis = analysis.with_rescue(policy.clone());
        }
        analysis.run_in(&mut self.workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Element, NodeId};
    use crate::Waveform;
    use ferrocim_device::{MosfetModel, MosfetParams};
    use ferrocim_units::{Farad, Ohm, Volt};

    fn transistor_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add(Element::vdc("VDD", vdd, NodeId::GROUND, Volt(1.2)))
            .unwrap();
        ckt.add(Element::vdc("VG", g, NodeId::GROUND, Volt(0.3)))
            .unwrap();
        ckt.add(Element::resistor("RD", vdd, d, Ohm(1e6))).unwrap();
        ckt.add(Element::mosfet(
            "M1",
            d,
            g,
            NodeId::GROUND,
            MosfetModel::new(MosfetParams::nmos_14nm().with_wl_ratio(4.0)),
        ))
        .unwrap();
        ckt
    }

    #[test]
    fn engine_dc_matches_standalone_analysis() {
        let ckt = transistor_divider();
        let standalone = DcAnalysis::new(&ckt).solve().unwrap();
        let mut engine = SimEngine::new();
        let first = engine.dc(&ckt).unwrap();
        // First engine solve is a cold start through the workspace path:
        // bitwise identical to the allocating path.
        assert_eq!(first.raw, standalone.raw);
        // Second solve warm-starts but must land on the same point.
        let second = engine.dc(&ckt).unwrap();
        let d = ckt.find_node("d").unwrap();
        assert!((second.voltage(d).value() - first.voltage(d).value()).abs() < 1e-9);
    }

    #[test]
    fn warm_start_survives_a_gate_step() {
        let mut ckt = transistor_divider();
        let mut engine = SimEngine::new();
        let d = ckt.find_node("d").unwrap();
        let mut last = f64::INFINITY;
        for step in 0..8 {
            let vg = 0.20 + 0.05 * step as f64;
            if let Some(Element::VoltageSource { waveform, .. }) = ckt.element_mut("VG") {
                *waveform = Waveform::dc(Volt(vg));
            }
            let op = engine.dc(&ckt).unwrap();
            let vd = op.voltage(d).value();
            assert!(vd <= last + 1e-9, "drain must fall as the gate rises");
            last = vd;
        }
        assert!(engine.last_operating_point().is_some());
    }

    #[test]
    fn size_mismatch_falls_back_to_cold_start() {
        let mut engine = SimEngine::new();
        let ckt = transistor_divider();
        engine.dc(&ckt).unwrap();
        // A different, smaller circuit: the stale warm-start vector has
        // the wrong length and must be ignored, not mis-applied.
        let mut small = Circuit::new();
        let a = small.node("a");
        small
            .add(Element::vdc("V1", a, NodeId::GROUND, Volt(0.7)))
            .unwrap();
        small
            .add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        let op = engine.dc(&small).unwrap();
        assert!((op.voltage(a).value() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn engine_transient_matches_standalone_run() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Element::vsource(
            "V1",
            vin,
            NodeId::GROUND,
            Waveform::step(Volt(0.0), Volt(1.0), ferrocim_units::Second(1e-12)),
        ))
        .unwrap();
        ckt.add(Element::resistor("R1", vin, out, Ohm(1e3)))
            .unwrap();
        ckt.add(Element::Capacitor {
            name: "C1".into(),
            a: out,
            b: NodeId::GROUND,
            capacitance: Farad(1e-12),
            initial: Some(Volt(0.0)),
        })
        .unwrap();
        let standalone = TransientAnalysis::over(&ckt, Second(2e-9))
            .with_fixed_step(Second(5e-12))
            .run()
            .unwrap();
        let mut engine = SimEngine::new();
        let engined = engine.transient(&ckt, Second(5e-12), Second(2e-9)).unwrap();
        assert_eq!(standalone.len(), engined.len());
        let dv = (standalone.final_voltage(out).value() - engined.final_voltage(out).value()).abs();
        assert!(dv < 1e-12, "dv = {dv}");
    }

    #[test]
    fn workspace_resizes_between_circuits() {
        let mut ws = Workspace::with_size(4);
        assert_eq!(ws.size(), 4);
        ws.ensure_size(9);
        assert_eq!(ws.size(), 9);
        assert_eq!(ws.system.dim(), 9);
        ws.ensure_size(9);
        assert_eq!(ws.size(), 9);
    }

    #[test]
    fn workspace_backend_follows_the_solver_config() {
        let mut ws = Workspace::new();
        ws.ensure_size(10);
        assert_eq!(ws.solver_backend(), SolverBackend::Dense);
        assert!(ws.sparse_factor_counts().is_none());
        // Auto flips to sparse at the threshold.
        ws.ensure_size(SolverConfig::AUTO_SPARSE_THRESHOLD);
        assert_eq!(ws.solver_backend(), SolverBackend::Sparse);
        // An explicit config overrides the size heuristic.
        let mut forced = Workspace::with_solver(SolverConfig::sparse());
        forced.ensure_size(3);
        assert_eq!(forced.solver_backend(), SolverBackend::Sparse);
        assert_eq!(forced.sparse_factor_counts(), Some((0, 0)));
        forced.set_solver(SolverConfig::dense());
        forced.ensure_size(3);
        assert_eq!(forced.solver_backend(), SolverBackend::Dense);
    }

    #[test]
    fn degradation_ladder_escalates_deterministically() {
        let mut ws = Workspace::with_solver(SolverConfig::sparse());
        ws.ensure_size(8);
        assert_eq!(ws.degrade_level(), 0);
        assert_eq!(ws.escalate_degrade(), Some(DegradeStageKind::FreshSymbolic));
        assert_eq!(ws.degrade_level(), 1);
        assert_eq!(ws.solver_backend(), SolverBackend::Sparse);
        assert_eq!(
            ws.escalate_degrade(),
            Some(DegradeStageKind::AlternateOrdering)
        );
        assert_eq!(ws.degrade_level(), 2);
        assert_eq!(ws.solver_backend(), SolverBackend::Sparse);
        assert_eq!(ws.escalate_degrade(), Some(DegradeStageKind::DenseFallback));
        assert_eq!(ws.degrade_level(), 3);
        assert_eq!(ws.solver_backend(), SolverBackend::Dense);
        assert_eq!(ws.escalate_degrade(), None, "ladder must be finite");
        assert_eq!(ws.degrade_level(), 3);
    }

    #[test]
    fn dense_configuration_has_no_ladder() {
        let mut ws = Workspace::with_solver(SolverConfig::dense());
        ws.ensure_size(4);
        assert_eq!(ws.escalate_degrade(), None);
        assert_eq!(ws.degrade_level(), 0);
    }

    #[test]
    fn ladder_resets_on_size_change_and_reconfiguration() {
        let mut ws = Workspace::with_solver(SolverConfig::sparse());
        ws.ensure_size(8);
        ws.escalate_degrade();
        ws.escalate_degrade();
        assert_eq!(ws.degrade_level(), 2);
        // A new system size means a new circuit: start fresh.
        ws.ensure_size(9);
        assert_eq!(ws.degrade_level(), 0);
        ws.escalate_degrade();
        assert_eq!(ws.degrade_level(), 1);
        // Re-setting the same config keeps the learned rung…
        ws.set_solver(SolverConfig::sparse());
        assert_eq!(ws.degrade_level(), 1);
        // …but a genuinely different config resets it.
        ws.set_solver(SolverConfig::sparse().with_parallel_blocks(true));
        assert_eq!(ws.degrade_level(), 0);
    }

    #[test]
    fn dc_solve_populates_last_solve_quality() {
        let ckt = transistor_divider();
        let mut ws = Workspace::new();
        DcAnalysis::new(&ckt).solve_in(&mut ws).unwrap();
        let q = ws
            .last_solve_quality()
            .expect("certification on by default");
        assert!(q.residual.is_finite());
        assert!(q.residual <= crate::HealthPolicy::default().residual_tol);
        assert!(q.pivot_growth.is_finite());
        // With certification off the verdict is never produced.
        let mut ws_off = Workspace::new();
        DcAnalysis::new(&ckt)
            .with_context(RunContext {
                health: crate::HealthPolicy::off(),
                ..RunContext::default()
            })
            .solve_in(&mut ws_off)
            .unwrap();
        assert!(ws_off.last_solve_quality().is_none());
    }
}
