//! Resource governance for analyses: iteration/step caps, wall-clock
//! deadlines, and cooperative cancellation.
//!
//! A [`Budget`] is threaded through every analysis entry point — DC,
//! DC sweep, transient, Monte Carlo, and the batched CIM paths built on
//! them — so a long campaign can be bounded up front instead of killed
//! from the outside. Exhaustion surfaces as the typed errors
//! [`crate::SpiceError::BudgetExceeded`] and
//! [`crate::SpiceError::Cancelled`]; batch layers catch these and
//! return whatever partial results were already complete.
//!
//! Cloning a [`Budget`] shares its spend counters, so one budget handed
//! to a fan-out governs the *total* work across all worker threads, not
//! per-thread quotas.

use crate::SpiceError;
use ferrocim_telemetry::{Event, ResourceKind, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cooperative-cancellation flag.
///
/// Clone it freely: all clones observe the same flag, so a supervisor
/// thread can hold one handle and cancel an analysis running elsewhere.
/// Cancellation is cooperative — solvers poll the token between Newton
/// iterations and time steps, so a cancelled analysis stops at the next
/// check, not instantly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wall-clock deadline.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline this far in the future.
    pub fn after(d: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline { at: instant }
    }

    /// Time left before the deadline, zero once passed.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetResource {
    /// The cumulative Newton-iteration cap.
    NewtonIterations {
        /// The configured limit.
        limit: u64,
    },
    /// The cumulative step cap (transient time steps, sweep points,
    /// Monte-Carlo samples).
    Steps {
        /// The configured limit.
        limit: u64,
    },
    /// The wall-clock [`Deadline`] passed.
    WallClock,
}

impl std::fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetResource::NewtonIterations { limit } => {
                write!(f, "newton iterations (limit {limit})")
            }
            BudgetResource::Steps { limit } => write!(f, "steps (limit {limit})"),
            BudgetResource::WallClock => write!(f, "wall-clock deadline"),
        }
    }
}

/// A resource budget for one analysis or a whole campaign.
///
/// The default budget is unlimited and adds near-zero overhead: solvers
/// only pay for the checks that are actually configured. Spend counters
/// live behind [`Arc`]s, so clones of one budget draw from a shared
/// pool — hand the same budget to every job of a fan-out (the samples
/// of a [`crate::MonteCarlo`] sweep, the rows of a batch) and the cap
/// covers the sum of all of them.
///
/// Step accounting is coarse by design: a transient charges one step
/// per attempted time step, a DC sweep one per point. Newton iterations
/// are charged one per linearized solve, including rescue-ladder
/// retries.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_newton_iterations: Option<u64>,
    max_steps: Option<u64>,
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    newton_spent: Arc<AtomicU64>,
    steps_spent: Arc<AtomicU64>,
    telemetry: Telemetry,
}

impl Budget {
    /// A budget with no limits — every check passes.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps the cumulative number of Newton iterations.
    pub fn with_max_newton_iterations(mut self, limit: u64) -> Budget {
        self.max_newton_iterations = Some(limit);
        self
    }

    /// Caps the cumulative number of steps (time steps, sweep points,
    /// Monte-Carlo samples).
    pub fn with_max_steps(mut self, limit: u64) -> Budget {
        self.max_steps = Some(limit);
        self
    }

    /// Aborts work once the deadline passes.
    pub fn with_deadline(mut self, deadline: Deadline) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token; the budget's checks fail with
    /// [`SpiceError::Cancelled`] once the token fires.
    pub fn with_cancel_token(mut self, token: &CancelToken) -> Budget {
        self.cancel = Some(token.clone());
        self
    }

    /// Attaches a telemetry handle: every charge against a configured
    /// cap additionally emits [`Event::BudgetSpend`]. Clones share the
    /// recorder along with the spend pool.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Budget {
        self.telemetry = telemetry;
        self
    }

    /// Whether any limit, deadline, or token is configured.
    pub fn is_limited(&self) -> bool {
        self.max_newton_iterations.is_some()
            || self.max_steps.is_some()
            || self.deadline.is_some()
            || self.cancel.is_some()
    }

    /// Newton iterations charged so far (only counted while a Newton
    /// cap is configured).
    pub fn newton_iterations_spent(&self) -> u64 {
        self.newton_spent.load(Ordering::Relaxed)
    }

    /// Steps charged so far (only counted while a step cap is
    /// configured).
    pub fn steps_spent(&self) -> u64 {
        self.steps_spent.load(Ordering::Relaxed)
    }

    /// Fails if the budget has been cancelled or its deadline passed.
    /// Solvers call this at every step boundary.
    pub fn check(&self) -> Result<(), SpiceError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(SpiceError::Cancelled);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Err(SpiceError::BudgetExceeded {
                    resource: BudgetResource::WallClock,
                });
            }
        }
        Ok(())
    }

    /// Charges `n` Newton iterations against the pool; fails once the
    /// cumulative total exceeds a configured cap, the deadline has
    /// passed, or the budget was cancelled. The deadline/cancel check
    /// runs *before* the spend is counted, so a budget whose deadline
    /// was already expired at construction refuses the very first
    /// charge instead of permitting one free iteration.
    pub fn charge_newton(&self, n: u64) -> Result<(), SpiceError> {
        self.check()?;
        if let Some(limit) = self.max_newton_iterations {
            self.telemetry.emit(|| Event::BudgetSpend {
                resource: ResourceKind::NewtonIterations,
                amount: n,
            });
            let spent = self.newton_spent.fetch_add(n, Ordering::Relaxed) + n;
            if spent > limit {
                return Err(SpiceError::BudgetExceeded {
                    resource: BudgetResource::NewtonIterations { limit },
                });
            }
        }
        Ok(())
    }

    /// Charges `n` steps against the pool; fails once the cumulative
    /// total exceeds a configured cap, the deadline has passed, or the
    /// budget was cancelled (the same pre-spend check as
    /// [`Budget::charge_newton`]).
    pub fn charge_steps(&self, n: u64) -> Result<(), SpiceError> {
        self.check()?;
        if let Some(limit) = self.max_steps {
            self.telemetry.emit(|| Event::BudgetSpend {
                resource: ResourceKind::Steps,
                amount: n,
            });
            let spent = self.steps_spent.fetch_add(n, Ordering::Relaxed) + n;
            if spent > limit {
                return Err(SpiceError::BudgetExceeded {
                    resource: BudgetResource::Steps { limit },
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(b.check().is_ok());
        assert!(b.charge_newton(1_000_000).is_ok());
        assert!(b.charge_steps(1_000_000).is_ok());
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(&token);
        let b2 = b.clone();
        assert!(b2.check().is_ok());
        token.cancel();
        assert_eq!(b.check(), Err(SpiceError::Cancelled));
        assert_eq!(b2.check(), Err(SpiceError::Cancelled));
    }

    #[test]
    fn newton_cap_is_a_shared_pool() {
        let b = Budget::unlimited().with_max_newton_iterations(10);
        let b2 = b.clone();
        assert!(b.charge_newton(6).is_ok());
        assert!(b2.charge_newton(4).is_ok());
        assert_eq!(
            b.charge_newton(1),
            Err(SpiceError::BudgetExceeded {
                resource: BudgetResource::NewtonIterations { limit: 10 },
            })
        );
        assert_eq!(b2.newton_iterations_spent(), 11);
    }

    #[test]
    fn step_cap_trips_at_the_limit() {
        let b = Budget::unlimited().with_max_steps(3);
        assert!(b.charge_steps(3).is_ok());
        assert_eq!(
            b.charge_steps(1),
            Err(SpiceError::BudgetExceeded {
                resource: BudgetResource::Steps { limit: 3 },
            })
        );
    }

    #[test]
    fn expired_deadline_fails_the_first_charge() {
        // Regression: a deadline already expired at construction used
        // to permit one free iteration because only `check` (called at
        // step boundaries) consulted the clock — the first `charge_*`
        // must fail typed instead.
        let b = Budget::unlimited()
            .with_deadline(Deadline::after(Duration::ZERO))
            .with_max_newton_iterations(1000)
            .with_max_steps(1000);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(
            b.charge_newton(1),
            Err(SpiceError::BudgetExceeded {
                resource: BudgetResource::WallClock,
            })
        );
        assert_eq!(
            b.charge_steps(1),
            Err(SpiceError::BudgetExceeded {
                resource: BudgetResource::WallClock,
            })
        );
        // Nothing was counted against the pools by the refused charges.
        assert_eq!(b.newton_iterations_spent(), 0);
        assert_eq!(b.steps_spent(), 0);
        // A cancelled budget refuses charges the same way.
        let token = CancelToken::new();
        let c = Budget::unlimited()
            .with_cancel_token(&token)
            .with_max_steps(10);
        token.cancel();
        assert_eq!(c.charge_steps(1), Err(SpiceError::Cancelled));
    }

    #[test]
    fn expired_deadline_fails_check() {
        let b = Budget::unlimited().with_deadline(Deadline::after(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(
            b.check(),
            Err(SpiceError::BudgetExceeded {
                resource: BudgetResource::WallClock,
            })
        );
        let far = Budget::unlimited().with_deadline(Deadline::after(Duration::from_secs(3600)));
        assert!(far.check().is_ok());
        assert!(far.deadline.as_ref().is_some_and(|d| !d.expired()));
        assert!(Deadline::after(Duration::from_secs(3600)).remaining() > Duration::from_secs(3000));
    }
}
