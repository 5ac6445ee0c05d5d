//! Deterministic fault injection for robustness ("chaos") testing.
//!
//! The numerical-health layer ([`crate::HealthPolicy`], the solver
//! degradation ladder) claims that no injected fault can turn into a
//! *silent* wrong answer — every solve either certifies or fails with a
//! typed error. This module is the attacker side of that claim: a
//! seeded, fully deterministic fault injector whose perturbations are
//! reproducible from a single `u64` (same seed → same faults, byte for
//! byte), so a failing soak iteration can be replayed under a debugger.
//!
//! Fault families (mirroring the soak matrix in
//! `crates/spice/tests/chaos_soak.rs`):
//!
//! * [`MatrixFault`] — NaN-poisoning, magnitude scaling, and row wipes
//!   applied through the public [`LinearSystem`] stamp interface, which
//!   is exactly where assembly bugs or corrupted device evaluations
//!   would land.
//! * Worker panics and deadline expiry are injected directly by the
//!   soak test through [`crate::try_fan_out`] closures and pre-expired
//!   [`crate::Deadline`]s — no helper needed beyond [`ChaosRng`].

use crate::solver::LinearSystem;

/// A tiny deterministic RNG (splitmix64) for fault planning.
///
/// Deliberately *not* the Monte-Carlo engine's RNG: chaos draws must
/// never perturb the simulation's own deterministic sample streams.
///
/// # Examples
///
/// ```
/// use ferrocim_spice::chaos::ChaosRng;
///
/// let mut a = ChaosRng::new(42);
/// let mut b = ChaosRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let r = a.next_f64();
/// assert!((0.0..1.0).contains(&r));
/// ```
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        (self.next_u64() % bound as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// One deterministic perturbation of a stamped linear system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatrixFault {
    /// Stamps `NaN` onto entry `(row, col)` — models a corrupted device
    /// evaluation reaching assembly.
    NanPoison {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
    },
    /// Adds a large perturbation to entry `(row, col)`, pushing the
    /// solve away from the system the factors were computed for.
    Perturb {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
        /// The added value.
        delta: f64,
    },
    /// Cancels the diagonal at `row` by stamping its negation — drives
    /// the factorization toward a zero pivot / singularity.
    ZeroDiagonal {
        /// Target row.
        row: usize,
        /// The stamped cancellation (the negated current diagonal).
        neg_diagonal: f64,
    },
}

impl MatrixFault {
    /// Draws a fault for an `n`-unknown system from `rng`. `diag` is
    /// the current diagonal value at the drawn row, used to build an
    /// exact cancellation for [`MatrixFault::ZeroDiagonal`].
    pub fn draw(rng: &mut ChaosRng, n: usize, diag: impl Fn(usize) -> f64) -> MatrixFault {
        let row = rng.below(n);
        match rng.below(3) {
            0 => MatrixFault::NanPoison {
                row,
                col: rng.below(n),
            },
            1 => MatrixFault::Perturb {
                row,
                col: rng.below(n),
                delta: (rng.next_f64() - 0.5) * 10f64.powi(rng.below(20) as i32 - 4),
            },
            _ => MatrixFault::ZeroDiagonal {
                row,
                neg_diagonal: -diag(row),
            },
        }
    }

    /// Applies the fault through the stamp interface.
    pub fn apply(&self, system: &mut dyn LinearSystem) {
        match *self {
            MatrixFault::NanPoison { row, col } => system.add(row, col, f64::NAN),
            MatrixFault::Perturb { row, col, delta } => system.add(row, col, delta),
            MatrixFault::ZeroDiagonal { row, neg_diagonal } => system.add(row, row, neg_diagonal),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::DenseLu;

    #[test]
    fn rng_is_deterministic_and_uniform_ish() {
        let mut a = ChaosRng::new(7);
        let mut b = ChaosRng::new(7);
        let draws: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let again: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(draws, again);
        let mut c = ChaosRng::new(8);
        assert_ne!(draws[0], c.next_u64(), "different seeds diverge");
        for _ in 0..100 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(c.below(5) < 5);
        }
    }

    #[test]
    fn matrix_faults_apply_through_the_stamp_interface() {
        let mut d = DenseLu::with_dim(2);
        d.add(0, 0, 2.0);
        d.add(1, 1, 3.0);
        MatrixFault::NanPoison { row: 0, col: 1 }.apply(&mut d);
        MatrixFault::ZeroDiagonal {
            row: 1,
            neg_diagonal: -3.0,
        }
        .apply(&mut d);
        let mut y = vec![0.0; 2];
        d.matvec_into(&[1.0, 1.0], &mut y);
        assert!(y[0].is_nan(), "NaN poison must reach the matrix");
        assert_eq!(y[1], 0.0, "diagonal must cancel exactly");
    }

    #[test]
    fn fault_draws_are_reproducible() {
        let draw_all = || {
            let mut rng = ChaosRng::new(99);
            (0..50)
                .map(|_| MatrixFault::draw(&mut rng, 8, |_| 4.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_all(), draw_all());
    }
}
