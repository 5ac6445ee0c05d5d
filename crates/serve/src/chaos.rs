//! Chaos wrapper: deterministic fault injection at the backend seam.
//!
//! [`ChaosBackend`] wraps any [`MacBackend`] and makes a seeded
//! fraction of solves fail with realistic solver errors — numerical
//! blowups, uncertified solves — or panic outright, exercising the
//! retry ladder, the circuit breaker, and the worker's panic
//! containment exactly as a flaky solver would. Faults are drawn from
//! [`ferrocim_spice::chaos::ChaosRng`] keyed by `(seed, solve index)`,
//! so a failing probe run replays bit-for-bit.

use crate::backend::{MacBackend, Solution, SolveRequest};
use ferrocim_cim::CimError;
use ferrocim_spice::chaos::ChaosRng;
use ferrocim_spice::SpiceError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which fraction of solves fail, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Base seed; solve `i` draws from `ChaosRng::new(seed ^ i)`.
    pub seed: u64,
    /// Probability a solve returns [`SpiceError::NumericalBlowup`].
    pub blowup_probability: f64,
    /// Probability a solve returns [`SpiceError::UncertifiedSolve`].
    pub uncertified_probability: f64,
    /// Probability a solve panics (testing worker containment).
    pub panic_probability: f64,
}

/// A [`MacBackend`] decorator injecting seeded faults before the inner
/// solve runs.
pub struct ChaosBackend<B> {
    inner: B,
    plan: ChaosPlan,
    solves: AtomicU64,
}

impl<B: MacBackend> ChaosBackend<B> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: B, plan: ChaosPlan) -> ChaosBackend<B> {
        ChaosBackend {
            inner,
            plan,
            solves: AtomicU64::new(0),
        }
    }
}

impl<B: MacBackend> MacBackend for ChaosBackend<B> {
    fn solve(&self, request: &SolveRequest) -> Result<Solution, CimError> {
        let index = self.solves.fetch_add(1, Ordering::Relaxed);
        let mut rng = ChaosRng::new(self.plan.seed ^ index.wrapping_mul(0x9e37_79b9));
        if rng.chance(self.plan.panic_probability) {
            panic!("chaos: injected solver panic at solve {index}");
        }
        if rng.chance(self.plan.blowup_probability) {
            return Err(CimError::Spice(SpiceError::NumericalBlowup {
                iteration: rng.below(50),
                unknown: rng.below(8),
            }));
        }
        if rng.chance(self.plan.uncertified_probability) {
            return Err(CimError::Spice(SpiceError::UncertifiedSolve {
                residual: 1e-3 * rng.next_f64(),
                cond_estimate: Some(1e12),
            }));
        }
        self.inner.solve(request)
    }

    fn surrogate(&self, _request: &SolveRequest) -> Option<Solution> {
        // Chaos exists to exercise the live solve/retry/breaker ladder;
        // letting the inner surrogate answer would bypass exactly the
        // machinery under test, so the fast path is disabled here.
        None
    }

    fn fallback(&self, request: &SolveRequest) -> Solution {
        // Faults never touch the fallback: degradation must stay safe
        // even (especially) under chaos.
        self.inner.fallback(request)
    }

    fn cells_per_row(&self) -> usize {
        self.inner.cells_per_row()
    }
}
