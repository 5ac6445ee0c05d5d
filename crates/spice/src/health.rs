//! Numerical-health certification for linear solves.
//!
//! PR 6's sparse backend reuses a frozen pivot sequence across numeric
//! refactorizations, which is fast but can silently lose precision on
//! the ill-conditioned operating points subthreshold FeFET rows produce
//! (nano-siemens cell conductances against the bitline hub). This
//! module closes the loop: after every factor-and-solve the residual is
//! measured against the *stamped* matrix (one pass over its stamped
//! entries, [`ResidualScan`]), the solution is iteratively
//! refined when it misses tolerance, and the final verdict ships as a
//! typed [`SolveQuality`] — so a caller either gets a certified answer
//! or a typed [`crate::SpiceError::UncertifiedSolve`], never a quietly
//! wrong number.
//!
//! The certification quantity is the componentwise-relative **backward
//! error** `max|b − A·x| / (‖A‖∞·max|x| + max|b|)`: it is scale-free
//! (doubling every conductance leaves it unchanged) and a small value
//! proves `x` exactly solves a nearby system — the strongest statement
//! a finite-precision solve can make. Condition is estimated with
//! Hager's 1-norm power iteration on `A⁻¹` (a handful of extra
//! triangular solves through the existing factors, no refactorization),
//! and only on the cold path where a solve has already failed
//! certification.

use crate::solver::LinearSystem;

/// Quality verdict attached to a certified linear solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveQuality {
    /// Componentwise-relative backward error of the returned solution:
    /// `max|b − A·x| / (‖A‖∞·max|x| + max|b|)`.
    pub residual: f64,
    /// Iterative-refinement passes applied (0 = the raw solve already
    /// met tolerance).
    pub refinement_passes: u32,
    /// Element growth of the factorization: the largest `U` magnitude
    /// over the largest stamped magnitude. Values far above 1 flag
    /// precision loss during elimination.
    pub pivot_growth: f64,
    /// Hager 1-norm condition estimate `‖A‖₁·est(‖A⁻¹‖₁)`, computed
    /// only when a solve fails certification (it costs extra triangular
    /// solves).
    pub cond_estimate: Option<f64>,
}

/// Residual-certification policy: the `health` field of the
/// [`crate::RunContext`] every analysis runs under.
///
/// The default policy is **on**: every Newton linear solve is checked,
/// refined up to twice when it misses tolerance, and escalated down the
/// solver degradation ladder when refinement cannot rescue it. The
/// check itself is one pass over the stamped entries per solve
/// ([`LinearSystem::residual_scan`]) plus the `|U|` maximum the
/// factorization takes as it goes. `probe_health` gates its overhead
/// below 8% on the 256-cell row DC readout (sparse LU) and reports it,
/// ungated, on the paper's 8-cell row transient (dense LU).
///
/// # Examples
///
/// ```
/// use ferrocim_spice::HealthPolicy;
///
/// let default = HealthPolicy::default();
/// assert!(default.enabled);
/// assert_eq!(default.residual_tol, 1e-9);
/// let off = HealthPolicy::off();
/// assert!(!off.enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Whether solves are certified at all. When `false` the solver
    /// behaves exactly as before this layer existed (bitwise-identical
    /// solutions, no residual computation).
    pub enabled: bool,
    /// Largest acceptable relative backward error. The default `1e-9`
    /// sits ~7 decades above the `f64` unit roundoff, so a healthy
    /// factorization passes untouched while genuine degradation
    /// (pivot-growth blowups, poisoned entries) is caught.
    pub residual_tol: f64,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            enabled: true,
            residual_tol: 1e-9,
        }
    }
}

/// Upper bound on iterative-refinement passes per certified solve.
const MAX_REFINEMENT_PASSES: u32 = 2;

impl HealthPolicy {
    /// Certification disabled: solves behave exactly as before the
    /// health layer existed.
    pub fn off() -> HealthPolicy {
        HealthPolicy {
            enabled: false,
            ..HealthPolicy::default()
        }
    }
}

/// What one certification pass ([`LinearSystem::residual_scan`])
/// measured against the stamped system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualScan {
    /// `max|b − A·x|` (a NaN entry is skipped here; see `finite`).
    pub resid_max: f64,
    /// Whether every entry of `b − A·x` is finite.
    pub finite: bool,
    /// `‖A‖∞`, the largest absolute row sum of the stamped matrix.
    pub a_inf: f64,
    /// The largest stamped magnitude: the pivot-growth denominator.
    pub a_max: f64,
    /// `max|x|`.
    pub x_max: f64,
    /// `max|b|`.
    pub b_max: f64,
}

impl ResidualScan {
    /// The componentwise-relative backward error
    /// `max|b − A·x| / (‖A‖∞·max|x| + max|b|)`; infinite when the
    /// residual or `max|x|` is not finite.
    pub fn backward_error(&self) -> f64 {
        if !self.finite || !self.x_max.is_finite() {
            return f64::INFINITY;
        }
        let scale = self.a_inf * self.x_max + self.b_max;
        if scale == 0.0 {
            // Zero matrix, zero RHS, zero solution: certified trivially.
            return if self.resid_max == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        self.resid_max / scale
    }

    /// Pivot growth of a factorization whose largest `|U|` is `u_max`
    /// (`None`: no factorization) against this scan's stamped matrix.
    /// Reports `1.0` without a factorization or for an all-zero matrix.
    fn pivot_growth(&self, u_max: Option<f64>) -> f64 {
        match u_max {
            Some(u) if self.a_max > 0.0 => u / self.a_max,
            _ => 1.0,
        }
    }
}

/// The outcome of certifying (and possibly refining) one solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CertifyOutcome {
    /// The measured quality, after any refinement passes.
    pub quality: SolveQuality,
    /// Whether the final residual meets the policy tolerance.
    pub acceptable: bool,
}

/// Runs one certification pass of `x` against the stamped system,
/// writing the raw residual `b − A·x` into `resid` (sized to the system
/// dimension) as a side effect.
fn scan(system: &mut dyn LinearSystem, b: &[f64], x: &[f64], resid: &mut Vec<f64>) -> ResidualScan {
    resid.clear();
    resid.resize(system.dim(), 0.0);
    system.residual_scan(b, x, resid)
}

/// Hager's 1-norm condition estimator: a few power-iteration steps on
/// `A⁻¹` using only triangular solves through the stored factors (one
/// forward and one transposed solve per step), times `‖A‖₁`.
///
/// Allocation is fine here — this runs only after a solve has already
/// failed certification.
fn hager_condest(system: &mut dyn LinearSystem) -> f64 {
    let n = system.dim();
    if n == 0 {
        return 1.0;
    }
    let a_norm = system.one_norm();
    if a_norm == 0.0 {
        return f64::INFINITY;
    }
    let mut x = vec![1.0 / n as f64; n];
    let mut v = Vec::with_capacity(n);
    let mut w = Vec::with_capacity(n);
    let mut est = 0.0f64;
    for _ in 0..5 {
        system.resolve_into(&x, &mut v);
        let v_norm: f64 = v.iter().map(|a| a.abs()).sum();
        if !v_norm.is_finite() {
            return f64::INFINITY;
        }
        est = est.max(v_norm);
        let xi: Vec<f64> = v
            .iter()
            .map(|&a| if a >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        system.solve_transposed_into(&xi, &mut w);
        let (mut j, mut wmax) = (0usize, f64::NEG_INFINITY);
        for (i, &wi) in w.iter().enumerate() {
            if wi.abs() > wmax {
                wmax = wi.abs();
                j = i;
            }
        }
        if !wmax.is_finite() {
            return f64::INFINITY;
        }
        let wx: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
        if wmax <= wx {
            break;
        }
        x.iter_mut().for_each(|a| *a = 0.0);
        x[j] = 1.0;
    }
    est * a_norm
}

/// Certifies one completed solve: measures the backward error of `x`
/// against the stamped system and, when it misses the policy tolerance,
/// applies bounded iterative refinement through the stored factors.
/// `x` is only mutated by refinement passes — an already-acceptable
/// solve returns it untouched (bitwise), which is what the refinement
/// parity proptest pins.
///
/// `resid` and `corr` are caller-owned scratch (the Newton workspace
/// reuses them across iterations).
pub(crate) fn certify(
    system: &mut dyn LinearSystem,
    b: &[f64],
    x: &mut [f64],
    policy: &HealthPolicy,
    resid: &mut Vec<f64>,
    corr: &mut Vec<f64>,
) -> CertifyOutcome {
    let mut measured = scan(system, b, x, resid);
    let mut residual = measured.backward_error();
    let mut passes = 0u32;
    while residual > policy.residual_tol && residual.is_finite() && passes < MAX_REFINEMENT_PASSES {
        system.resolve_into(resid, corr);
        for (xk, &ck) in x.iter_mut().zip(corr.iter()) {
            *xk += ck;
        }
        passes += 1;
        measured = scan(system, b, x, resid);
        residual = measured.backward_error();
    }
    let acceptable = residual <= policy.residual_tol;
    // The Hager estimate is diagnostic only; its extra triangular solves
    // run on the already-cold failure path.
    let cond_estimate = if !acceptable {
        Some(hager_condest(system))
    } else {
        None
    };
    CertifyOutcome {
        quality: SolveQuality {
            residual,
            refinement_passes: passes,
            pivot_growth: measured.pivot_growth(system.max_abs_u()),
            cond_estimate,
        },
        acceptable,
    }
}

/// One-shot public certification entry: measures the backward error of
/// `x` against the stamped system, applies bounded iterative refinement
/// through the stored factors when it misses tolerance, and returns the
/// final [`SolveQuality`] — or [`crate::SpiceError::UncertifiedSolve`]
/// when even the refined solution does not meet the policy tolerance.
///
/// The Newton loop inside the analyses does this automatically (with
/// the degradation ladder on top); this entry exists for harnesses —
/// the chaos soak test, external solver drivers — that certify a
/// [`LinearSystem`] solve directly.
///
/// # Errors
///
/// Returns [`crate::SpiceError::UncertifiedSolve`] when the refined
/// residual still exceeds `policy.residual_tol`.
pub fn certify_solution(
    system: &mut dyn LinearSystem,
    b: &[f64],
    x: &mut [f64],
    policy: &HealthPolicy,
) -> Result<SolveQuality, crate::SpiceError> {
    let (mut resid, mut corr) = (Vec::new(), Vec::new());
    let outcome = certify(system, b, x, policy, &mut resid, &mut corr);
    if outcome.acceptable {
        Ok(outcome.quality)
    } else {
        Err(crate::SpiceError::UncertifiedSolve {
            residual: outcome.quality.residual,
            cond_estimate: outcome.quality.cond_estimate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{DenseLu, SparseLu};
    use ferrocim_telemetry::Telemetry;

    fn well_conditioned(n: usize) -> DenseLu {
        let mut d = DenseLu::with_dim(n);
        for i in 0..n {
            d.add(i, i, 4.0);
            if i + 1 < n {
                d.add(i, i + 1, -1.0);
                d.add(i + 1, i, -1.0);
            }
        }
        d
    }

    #[test]
    fn acceptable_solve_is_not_mutated() {
        let mut d = well_conditioned(5);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = Vec::new();
        d.solve_into(&b, &mut x, &Telemetry::off()).unwrap();
        let before = x.clone();
        let (mut resid, mut corr) = (Vec::new(), Vec::new());
        let outcome = certify(
            &mut d,
            &b,
            &mut x,
            &HealthPolicy::default(),
            &mut resid,
            &mut corr,
        );
        assert!(outcome.acceptable);
        assert_eq!(outcome.quality.refinement_passes, 0);
        assert!(outcome.quality.cond_estimate.is_none());
        assert_eq!(x, before, "certification must not touch a good solve");
    }

    #[test]
    fn refinement_rescues_a_perturbed_solution() {
        let mut d = well_conditioned(4);
        let b = [1.0, -1.0, 2.0, 0.5];
        let mut x = Vec::new();
        d.solve_into(&b, &mut x, &Telemetry::off()).unwrap();
        // Inject error well above tolerance; refinement through the
        // (exact) factors recovers it in one pass.
        for xk in x.iter_mut() {
            *xk += 1e-4;
        }
        let (mut resid, mut corr) = (Vec::new(), Vec::new());
        let outcome = certify(
            &mut d,
            &b,
            &mut x,
            &HealthPolicy::default(),
            &mut resid,
            &mut corr,
        );
        assert!(outcome.acceptable, "quality {:?}", outcome.quality);
        assert!(outcome.quality.refinement_passes >= 1);
        assert!(outcome.quality.residual <= 1e-9);
    }

    #[test]
    fn nan_solution_is_unacceptable_with_infinite_residual() {
        let mut d = well_conditioned(3);
        let b = [1.0, 1.0, 1.0];
        let mut x = Vec::new();
        d.solve_into(&b, &mut x, &Telemetry::off()).unwrap();
        x[1] = f64::NAN;
        let (mut resid, mut corr) = (Vec::new(), Vec::new());
        let outcome = certify(
            &mut d,
            &b,
            &mut x,
            &HealthPolicy::default(),
            &mut resid,
            &mut corr,
        );
        assert!(!outcome.acceptable);
        assert!(outcome.quality.residual.is_infinite());
    }

    #[test]
    fn condest_tracks_true_conditioning() {
        // Diagonal matrix: κ₁ = max/min diagonal, exactly.
        let mut d = DenseLu::with_dim(3);
        d.add(0, 0, 1.0);
        d.add(1, 1, 1e-6);
        d.add(2, 2, 0.5);
        let b = [1.0, 1.0, 1.0];
        let mut x = Vec::new();
        d.solve_into(&b, &mut x, &Telemetry::off()).unwrap();
        let est = hager_condest(&mut d);
        assert!(
            (est - 1e6).abs() / 1e6 < 1e-9,
            "diagonal condest should be exact, got {est}"
        );
    }

    #[test]
    fn condest_works_through_the_sparse_backend() {
        let mut s = SparseLu::with_dim(3);
        s.add(0, 0, 2.0);
        s.add(0, 1, 1.0);
        s.add(1, 0, 1.0);
        s.add(1, 1, 3.0);
        s.add(1, 2, 1.0);
        s.add(2, 1, 1.0);
        s.add(2, 2, 4.0);
        let b = [4.0, 10.0, 14.0];
        let mut x = Vec::new();
        s.solve_into(&b, &mut x, &Telemetry::off()).unwrap();
        let est = hager_condest(&mut s);
        // κ₁(A) for this matrix is ≈ 5·0.55 ≈ 2.75; the estimator is a
        // lower bound on ‖A⁻¹‖₁·‖A‖₁ and must land in a sane range.
        assert!((1.0..10.0).contains(&est), "condest {est}");
    }

    #[test]
    fn zero_dimension_certifies_trivially() {
        let mut d = DenseLu::with_dim(0);
        let mut x: Vec<f64> = Vec::new();
        let (mut resid, mut corr) = (Vec::new(), Vec::new());
        let outcome = certify(
            &mut d,
            &[],
            &mut x,
            &HealthPolicy::default(),
            &mut resid,
            &mut corr,
        );
        assert!(outcome.acceptable);
        assert_eq!(outcome.quality.residual, 0.0);
    }
}
