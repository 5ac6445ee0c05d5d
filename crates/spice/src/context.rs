//! The run context: the four settings every analysis layer forwards to
//! the one below it.

use crate::{Budget, HealthPolicy, SolverConfig};
use ferrocim_telemetry::Telemetry;

/// What governs a solve: its resource [`Budget`], its [`Telemetry`]
/// handle, its linear-solver selection, and its numerical-health
/// policy. Every layer that issues solves — [`crate::DcAnalysis`],
/// [`crate::TransientAnalysis`], and the CIM array types above them —
/// holds one and hands a clone to the layer below, so a setting made
/// at the top reaches the leaf Newton solve unchanged.
///
/// The default is an unlimited budget, telemetry off, `solver: None`
/// and [`HealthPolicy::default`]. Cloning is cheap: a [`Budget`]
/// shares its spend pool and a [`Telemetry`] its recorder through
/// `Arc`s, so every clone charges the same pool and reports to the
/// same recorder.
///
/// # Examples
///
/// ```
/// use ferrocim_spice::{Budget, HealthPolicy, RunContext, SolverConfig};
///
/// let ctx = RunContext {
///     budget: Budget::unlimited().with_max_newton_iterations(10_000),
///     solver: Some(SolverConfig::sparse()),
///     health: HealthPolicy::off(),
///     ..RunContext::default()
/// };
/// assert!(ctx.budget.is_limited());
/// assert!(!ctx.telemetry.is_on());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// Resource budget: Newton iterations and steps are charged against
    /// it, and an exhausted, expired or cancelled budget aborts the
    /// solve with [`crate::SpiceError::BudgetExceeded`] /
    /// [`crate::SpiceError::Cancelled`].
    pub budget: Budget,
    /// Telemetry handle every solve emits its events and spans through.
    pub telemetry: Telemetry,
    /// Linear-solver selection applied to the [`crate::Workspace`] a
    /// solve runs in. `None` leaves the workspace's own configuration
    /// in force — [`SolverConfig::auto`] for a fresh workspace.
    pub solver: Option<SolverConfig>,
    /// Numerical-health policy: certification, bounded refinement and
    /// the solver degradation ladder for every linear solve.
    pub health: HealthPolicy,
}
