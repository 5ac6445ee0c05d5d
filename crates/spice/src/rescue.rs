//! Convergence rescue: an escalation ladder for Newton solves that
//! fail under nominal conditions.
//!
//! Production SPICE engines (Spectre, ngspice) survive stiff operating
//! points by escalating through a sequence of continuation strategies
//! when plain Newton stalls. This module implements the same ladder:
//!
//! 1. **Plain Newton** — the nominal damped solve.
//! 2. **Stronger damping** — retry with a tighter per-iteration voltage
//!    clamp; fixes oscillating iterations around exponential devices.
//! 3. **Gmin stepping** — solve with a large node-to-ground leak
//!    (everything near a resistive divider, trivially convergent), then
//!    relax the leak decade by decade down to the built-in `GMIN`,
//!    warm-starting each level from the previous solution.
//! 4. **Source stepping** — homotopy on the sources: ramp every
//!    independent source from 0 (trivial all-zero solution) to full
//!    value in small increments, warm-starting each step.
//!
//! The ladder only activates after the plain solve fails, so rescued
//! and non-rescued circuits see bit-identical nominal iteration
//! sequences.

use crate::mna::{CapMode, Layout, NewtonOptions, SolveSettings, GMIN};
use crate::netlist::Circuit;
use crate::{RunContext, SpiceError, Workspace};
use ferrocim_telemetry::{Event, RungKind};
use ferrocim_units::Second;

/// One rung of the rescue ladder.
#[derive(Debug, Clone, PartialEq)]
pub enum RescueRung {
    /// The nominal damped Newton solve.
    PlainNewton,
    /// Retry with a tighter per-iteration voltage clamp.
    Damping {
        /// The `max_step` override used for this attempt, volts.
        max_step: f64,
    },
    /// Gmin continuation from a large leak down to nominal `GMIN`.
    GminStepping,
    /// Source continuation ramping all sources from 0 to full value.
    SourceStepping,
}

impl std::fmt::Display for RescueRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RescueRung::PlainNewton => write!(f, "plain newton"),
            RescueRung::Damping { max_step } => write!(f, "damping (max_step {max_step} V)"),
            RescueRung::GminStepping => write!(f, "gmin stepping"),
            RescueRung::SourceStepping => write!(f, "source stepping"),
        }
    }
}

/// The outcome of one rung attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct RungAttempt {
    /// Which rung was tried.
    pub rung: RescueRung,
    /// Total Newton iterations spent on this rung (summed over all
    /// continuation sub-solves for the stepping rungs).
    pub iterations: usize,
    /// Whether the rung produced a converged nominal solution.
    pub converged: bool,
}

/// How a solve converged: which rungs were attempted and which one, if
/// any, succeeded. Attached to every [`crate::OperatingPoint`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RescueReport {
    /// Rung attempts in escalation order. The last entry is the
    /// successful one when the solve converged.
    pub attempts: Vec<RungAttempt>,
}

impl RescueReport {
    /// A report for a solve that converged on the first, plain attempt.
    pub(crate) fn plain(iterations: usize) -> RescueReport {
        RescueReport {
            attempts: vec![RungAttempt {
                rung: RescueRung::PlainNewton,
                iterations,
                converged: true,
            }],
        }
    }

    /// The rung that produced the solution, if the solve converged.
    pub fn succeeded_by(&self) -> Option<&RescueRung> {
        self.attempts
            .last()
            .filter(|a| a.converged)
            .map(|a| &a.rung)
    }

    /// True if the solution required escalating beyond plain Newton.
    pub fn was_rescued(&self) -> bool {
        matches!(self.succeeded_by(), Some(r) if *r != RescueRung::PlainNewton)
    }

    /// Total Newton iterations across all attempts.
    pub fn total_iterations(&self) -> usize {
        self.attempts.iter().map(|a| a.iterations).sum()
    }
}

/// Configuration of the rescue ladder. The default policy enables every
/// rung; [`RescuePolicy::none`] reproduces the pre-rescue behaviour of
/// failing immediately with the plain-Newton error.
#[derive(Debug, Clone, PartialEq)]
pub struct RescuePolicy {
    /// `max_step` overrides to retry with, in order. Empty disables the
    /// damping rung.
    pub damping_steps: Vec<f64>,
    /// Gmin ladder in siemens, from large to small; the built-in
    /// nominal `GMIN` is always appended as the final level. Empty
    /// disables the gmin rung.
    pub gmin_ladder: Vec<f64>,
    /// Number of source-ramp increments from 0 to full value. 0
    /// disables the source-stepping rung.
    pub source_steps: usize,
}

impl Default for RescuePolicy {
    fn default() -> Self {
        RescuePolicy {
            damping_steps: vec![0.05],
            gmin_ladder: vec![1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11],
            source_steps: 16,
        }
    }
}

impl RescuePolicy {
    /// Disables every rung: a failed plain Newton solve returns its
    /// error immediately.
    pub fn none() -> RescuePolicy {
        RescuePolicy {
            damping_steps: Vec::new(),
            gmin_ladder: Vec::new(),
            source_steps: 0,
        }
    }

    /// True if at least one rescue rung is enabled.
    pub fn is_enabled(&self) -> bool {
        !self.damping_steps.is_empty() || !self.gmin_ladder.is_empty() || self.source_steps > 0
    }
}

/// The telemetry-event mirror of a rung (parameter-free, `Copy`).
fn rung_kind(rung: &RescueRung) -> RungKind {
    match rung {
        RescueRung::PlainNewton => RungKind::PlainNewton,
        RescueRung::Damping { .. } => RungKind::Damping,
        RescueRung::GminStepping => RungKind::GminStepping,
        RescueRung::SourceStepping => RungKind::SourceStepping,
    }
}

/// True for errors the ladder can plausibly fix by continuation.
/// An uncertified solve qualifies: continuation moves the iteration to
/// better-conditioned operating points where certification can succeed.
pub(crate) fn is_rescuable(err: &SpiceError) -> bool {
    matches!(
        err,
        SpiceError::NoConvergence { .. }
            | SpiceError::NumericalBlowup { .. }
            | SpiceError::SingularMatrix { .. }
            | SpiceError::UncertifiedSolve { .. }
    )
}

/// Runs the rescue ladder after a failed plain solve. `x` is scratch
/// space (clobbered; holds the solution on success), `initial_guess` is
/// the guess the plain solve started from, and `plain_error` is what it
/// failed with — returned unchanged if every rung also fails.
///
/// On success the report's last attempt names the winning rung and the
/// preceding entries record the failed ones (including the plain solve).
///
/// Rescue retries are charged against `ctx.budget` like any other Newton
/// work; a budget/cancellation failure aborts the ladder immediately
/// rather than being mistaken for a failed rung.
///
/// Every rung attempt recorded in the report is mirrored as an
/// [`Event::RescueAttempt`] through `ctx.telemetry` (including the failed plain
/// solve that started the ladder), so an aggregator's attempt counts
/// match the report's `attempts` exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rescue_solve(
    circuit: &Circuit,
    layout: &Layout,
    t: Second,
    caps: CapMode<'_>,
    x: &mut [f64],
    initial_guess: &[f64],
    options: &NewtonOptions,
    policy: &RescuePolicy,
    ctx: &RunContext,
    ws: &mut Workspace,
    plain_error: SpiceError,
) -> Result<RescueReport, SpiceError> {
    let attempt = |a: &RungAttempt| {
        let kind = rung_kind(&a.rung);
        let iterations = a.iterations as u64;
        let converged = a.converged;
        ctx.telemetry.emit(|| Event::RescueAttempt {
            rung: kind,
            iterations,
            converged,
        });
    };
    let mut report = RescueReport {
        attempts: vec![RungAttempt {
            rung: RescueRung::PlainNewton,
            iterations: options.max_iterations,
            converged: false,
        }],
    };
    attempt(&report.attempts[0]);

    // Rung 2: stronger damping at nominal settings.
    for &max_step in &policy.damping_steps {
        x.copy_from_slice(initial_guess);
        let damped = NewtonOptions {
            max_step,
            ..*options
        };
        let rung = RescueRung::Damping { max_step };
        match crate::mna::newton_solve_in(
            circuit,
            layout,
            t,
            caps,
            &SolveSettings::NOMINAL,
            x,
            &damped,
            ctx,
            ws,
        ) {
            Ok(iters) => {
                let won = RungAttempt {
                    rung,
                    iterations: iters,
                    converged: true,
                };
                attempt(&won);
                report.attempts.push(won);
                return Ok(report);
            }
            Err(e) if !is_rescuable(&e) => return Err(e),
            Err(_) => {
                let failed = RungAttempt {
                    rung,
                    iterations: damped.max_iterations,
                    converged: false,
                };
                attempt(&failed);
                report.attempts.push(failed);
            }
        }
    }

    // Rung 3: gmin stepping, relaxing the leak down to nominal.
    if !policy.gmin_ladder.is_empty() {
        x.copy_from_slice(initial_guess);
        let mut iterations = 0;
        let mut converged = true;
        for &gmin in policy.gmin_ladder.iter().chain(std::iter::once(&GMIN)) {
            let settings = SolveSettings {
                gmin,
                source_scale: 1.0,
            };
            match crate::mna::newton_solve_in(
                circuit, layout, t, caps, &settings, x, options, ctx, ws,
            ) {
                Ok(iters) => iterations += iters,
                Err(e) if !is_rescuable(&e) => return Err(e),
                Err(_) => {
                    iterations += options.max_iterations;
                    converged = false;
                    break;
                }
            }
        }
        let tried = RungAttempt {
            rung: RescueRung::GminStepping,
            iterations,
            converged,
        };
        attempt(&tried);
        report.attempts.push(tried);
        if converged {
            return Ok(report);
        }
    }

    // Rung 4: source stepping — homotopy from the all-zero solution.
    if policy.source_steps > 0 {
        x.fill(0.0);
        let mut iterations = 0;
        let mut converged = true;
        for k in 1..=policy.source_steps {
            let settings = SolveSettings {
                gmin: GMIN,
                source_scale: k as f64 / policy.source_steps as f64,
            };
            match crate::mna::newton_solve_in(
                circuit, layout, t, caps, &settings, x, options, ctx, ws,
            ) {
                Ok(iters) => iterations += iters,
                Err(e) if !is_rescuable(&e) => return Err(e),
                Err(_) => {
                    iterations += options.max_iterations;
                    converged = false;
                    break;
                }
            }
        }
        let tried = RungAttempt {
            rung: RescueRung::SourceStepping,
            iterations,
            converged,
        };
        attempt(&tried);
        report.attempts.push(tried);
        if converged {
            return Ok(report);
        }
    }

    Err(plain_error)
}
