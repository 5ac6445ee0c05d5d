//! The reusable solver workspace.
//!
//! A single DC or transient solve allocates its system matrix and
//! vectors once, which is fine. Batched workloads — a 64-point `I–V`
//! sweep, a 100-sample Monte-Carlo run, a bit-serial neural-network
//! inference issuing thousands of MAC reads — repeat near-identical
//! solves where the per-solve allocations dominate. [`Workspace`] owns
//! the LU matrix, right-hand side, permutation and solution buffers,
//! reused across every solve that goes through it.
//!
//! It is deliberately a dumb container: all numerical behavior lives in
//! [`crate::DcAnalysis`] / [`crate::TransientAnalysis`], and a solve
//! routed through a fresh workspace is bitwise identical to the
//! allocating path.

use crate::health::SolveQuality;
use crate::solver::{FillOrdering, SolverConfig, SolverState};
use ferrocim_telemetry::{DegradeStageKind, SolverBackend};

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
        self.system.system_ref().backend()
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
                SolverConfig::sparse().with_ordering(flipped)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Circuit, Element, NodeId};
    use crate::{DcAnalysis, RunContext};
    use ferrocim_device::{MosfetModel, MosfetParams};
    use ferrocim_units::{Ohm, Volt};

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
    fn workspace_resizes_between_circuits() {
        let mut ws = Workspace::with_size(4);
        assert_eq!(ws.size(), 4);
        ws.ensure_size(9);
        assert_eq!(ws.size(), 9);
        assert_eq!(ws.system.system_ref().dim(), 9);
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
        ws.set_solver(SolverConfig::sparse().with_ordering(FillOrdering::Natural));
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
