//! Modified nodal analysis: system layout, stamping, and the shared
//! Newton–Raphson solve used by both DC and transient analyses.

use crate::health::certify;
use crate::netlist::{Circuit, Element, NodeId};
use crate::solver::LinearSystem;
use crate::SpiceError;
use ferrocim_device::MosfetCard;
use ferrocim_telemetry::Event;
use ferrocim_units::{Celsius, Second, Volt};

/// Tiny conductance from every node to ground, preventing singular
/// systems from floating nodes (e.g. capacitor-only nodes in DC).
pub(crate) const GMIN: f64 = 1e-12;

/// Continuation knobs threaded through [`assemble`] by the rescue
/// ladder. The nominal settings reproduce the plain solve exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SolveSettings {
    /// Node-to-ground leak conductance, siemens. Gmin stepping starts
    /// this far above [`GMIN`] and relaxes it back to nominal.
    pub gmin: f64,
    /// Scale factor on every independent source value in `[0, 1]`.
    /// Source stepping ramps this from 0 to 1.
    pub source_scale: f64,
}

impl SolveSettings {
    /// Nominal settings: built-in GMIN, full-strength sources.
    pub const NOMINAL: SolveSettings = SolveSettings {
        gmin: GMIN,
        source_scale: 1.0,
    };
}

/// Knobs for the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations before giving up.
    pub max_iterations: usize,
    /// Absolute node-voltage convergence tolerance, volts.
    pub vtol: f64,
    /// Relative convergence tolerance on all unknowns.
    pub reltol: f64,
    /// Per-iteration clamp on node-voltage updates, volts. Limiting the
    /// step keeps the exponential subthreshold models inside the range
    /// where their linearization is meaningful.
    pub max_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 500,
            vtol: 1e-9,
            reltol: 1e-9,
            max_step: 0.2,
        }
    }
}

/// Index layout of the MNA unknown vector (node voltages, ground
/// excluded, followed by voltage-source branch currents) plus every
/// transistor's device card at the analysis temperature.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Number of non-ground nodes.
    pub n_nodes: usize,
    /// Element-vector index → branch-current row for voltage sources
    /// (`usize::MAX` for every other element).
    pub branch_of_element: Vec<usize>,
    /// Every transistor's card in element order, resolved once per
    /// analysis.
    pub cards: Vec<MosfetCard>,
    /// Total unknown count.
    pub size: usize,
}

impl Layout {
    /// Lays out `circuit` and resolves its transistors at `temp`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] named `temperature` if `temp` is not
    /// finite or not above absolute zero, or named after the element if
    /// a transistor's resolved card has a non-finite parameter.
    /// `Circuit::add` validates every element, but `Circuit::fefet_mut`
    /// and `Circuit::element_mut` hand out mutable access afterwards
    /// (a NaN threshold offset), and every analysis lays its circuit out
    /// here first.
    pub fn of(circuit: &Circuit, temp: Celsius) -> Result<Layout, SpiceError> {
        if !(temp.value().is_finite() && temp.to_kelvin().value() > 0.0) {
            return Err(SpiceError::InvalidValue {
                name: "temperature".to_string(),
                value: temp.value(),
                requirement: "a finite temperature above absolute zero",
            });
        }
        let n_nodes = circuit.node_count() - 1;
        let mut branch_of_element = vec![usize::MAX; circuit.elements().len()];
        let mut cards = Vec::new();
        let mut next = n_nodes;
        for (idx, e) in circuit.elements().iter().enumerate() {
            let card = match e {
                Element::VoltageSource { .. } => {
                    branch_of_element[idx] = next;
                    next += 1;
                    continue;
                }
                Element::Mosfet {
                    model, vth_offset, ..
                } => model.card(temp, *vth_offset),
                Element::Fefet { device, .. } => device.card(temp),
                _ => continue,
            };
            if let Some(value) = card.non_finite_parameter() {
                return Err(SpiceError::InvalidValue {
                    name: e.name().to_string(),
                    value,
                    requirement: "a transistor whose device card resolves to finite parameters",
                });
            }
            cards.push(card);
        }
        Ok(Layout {
            n_nodes,
            branch_of_element,
            cards,
            size: next,
        })
    }

    /// The unknown-vector row of a node, or `None` for ground.
    #[inline]
    pub fn row_of(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Node voltage from the unknown vector (0 for ground).
    #[inline]
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.row_of(node) {
            Some(r) => x[r],
            None => 0.0,
        }
    }
}

/// Per-capacitor companion state carried across transient steps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    /// Branch voltage `v(a) − v(b)` at the previous accepted step.
    pub v_prev: f64,
    /// Branch current at the previous accepted step (trapezoidal only).
    pub i_prev: f64,
}

/// What the stamper should do with capacitors.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CapMode<'a> {
    /// DC: capacitors are open circuits.
    Open,
    /// Transient step of size `dt` with previous-step states (indexed
    /// by element), using the given integration method.
    Companion {
        dt: f64,
        states: &'a [CapState],
        trapezoidal: bool,
    },
}

/// Assembles the linearized MNA system `A·x = z` around the candidate
/// solution `x0` at time `t`. Stamping goes through the
/// [`LinearSystem`] trait, so the same code fills the dense matrix and
/// the sparse slot table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    circuit: &Circuit,
    layout: &Layout,
    x0: &[f64],
    t: Second,
    caps: CapMode<'_>,
    settings: &SolveSettings,
    a: &mut dyn LinearSystem,
    z: &mut [f64],
) {
    a.clear();
    z.fill(0.0);

    let stamp_conductance = |a: &mut dyn LinearSystem, na: NodeId, nb: NodeId, g: f64| {
        if let Some(ra) = layout.row_of(na) {
            a.add(ra, ra, g);
            if let Some(rb) = layout.row_of(nb) {
                a.add(ra, rb, -g);
            }
        }
        if let Some(rb) = layout.row_of(nb) {
            a.add(rb, rb, g);
            if let Some(ra) = layout.row_of(na) {
                a.add(rb, ra, -g);
            }
        }
    };

    let mut cards = layout.cards.iter();
    for (idx, e) in circuit.elements().iter().enumerate() {
        match e {
            Element::Resistor {
                a: na,
                b: nb,
                resistance,
                ..
            } => {
                stamp_conductance(a, *na, *nb, 1.0 / resistance.value());
            }
            Element::Switch {
                a: na,
                b: nb,
                r_on,
                r_off,
                schedule,
                ..
            } => {
                let r = if schedule.state_at(t) { r_on } else { r_off };
                stamp_conductance(a, *na, *nb, 1.0 / r.value());
            }
            Element::Capacitor {
                a: na,
                b: nb,
                capacitance,
                ..
            } => match caps {
                CapMode::Open => {}
                CapMode::Companion {
                    dt,
                    states,
                    trapezoidal,
                } => {
                    let state = states.get(idx).copied().unwrap_or_default();
                    let c = capacitance.value();
                    // Companion: i = g·v − i_eq, with
                    //   BE:   g = C/dt,   i_eq = g·v_prev
                    //   trap: g = 2C/dt,  i_eq = g·v_prev + i_prev
                    let (g, i_eq) = if trapezoidal {
                        let g = 2.0 * c / dt;
                        (g, g * state.v_prev + state.i_prev)
                    } else {
                        let g = c / dt;
                        (g, g * state.v_prev)
                    };
                    stamp_conductance(a, *na, *nb, g);
                    if let Some(ra) = layout.row_of(*na) {
                        z[ra] += i_eq;
                    }
                    if let Some(rb) = layout.row_of(*nb) {
                        z[rb] -= i_eq;
                    }
                }
            },
            Element::VoltageSource {
                pos, neg, waveform, ..
            } => {
                let row = layout.branch_of_element[idx];
                if let Some(rp) = layout.row_of(*pos) {
                    a.add(rp, row, 1.0);
                    a.add(row, rp, 1.0);
                }
                if let Some(rn) = layout.row_of(*neg) {
                    a.add(rn, row, -1.0);
                    a.add(row, rn, -1.0);
                }
                z[row] = waveform.at(t).value() * settings.source_scale;
            }
            Element::CurrentSource {
                pos, neg, current, ..
            } => {
                if let Some(rp) = layout.row_of(*pos) {
                    z[rp] += current.value() * settings.source_scale;
                }
                if let Some(rn) = layout.row_of(*neg) {
                    z[rn] -= current.value() * settings.source_scale;
                }
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                ..
            }
            | Element::Fefet {
                drain,
                gate,
                source,
                ..
            } => {
                let Some(card) = cards.next() else {
                    unreachable!("Layout::of resolves every transistor's card")
                };
                let vg = layout.voltage(x0, *gate);
                let vd = layout.voltage(x0, *drain);
                let vs = layout.voltage(x0, *source);
                let ss = card.evaluate(Volt(vg - vs), Volt(vd - vs));
                stamp_transistor(a, z, layout, *drain, *gate, *source, vg, vd, vs, ss);
            }
        }
    }

    // GMIN from every node to ground keeps the system non-singular.
    for r in 0..layout.n_nodes {
        a.add(r, r, settings.gmin);
    }
}

/// Stamps the linearized transistor companion model:
/// `I_ds ≈ I₀ + gm·Δv_gs + gds·Δv_ds`, as a VCCS pair plus an
/// equivalent current source.
#[allow(clippy::too_many_arguments)]
fn stamp_transistor(
    a: &mut dyn LinearSystem,
    z: &mut [f64],
    layout: &Layout,
    drain: NodeId,
    gate: NodeId,
    source: NodeId,
    vg: f64,
    vd: f64,
    vs: f64,
    ss: ferrocim_device::SmallSignal,
) {
    let gm = ss.gm.value();
    let gds = ss.gds.value();
    let i_eq = ss.ids.value() - gm * (vg - vs) - gds * (vd - vs);
    // Current I leaves `drain` and enters `source`:
    //   row(drain):  +gm·(vg−vs) + gds·(vd−vs) stamped on the LHS,
    //                −i_eq on the RHS,
    //   row(source): the negation.
    let rd = layout.row_of(drain);
    let rg = layout.row_of(gate);
    let rs = layout.row_of(source);
    if let Some(rd) = rd {
        if let Some(rg) = rg {
            a.add(rd, rg, gm);
        }
        a.add(rd, rd, gds);
        if let Some(rs) = rs {
            a.add(rd, rs, -(gm + gds));
        }
        z[rd] -= i_eq;
    }
    if let Some(rs) = rs {
        if let Some(rg) = rg {
            a.add(rs, rg, -gm);
        }
        if let Some(rd) = rd {
            a.add(rs, rd, -gds);
        }
        a.add(rs, rs, gm + gds);
        z[rs] += i_eq;
    }
}

/// Runs the damped Newton iteration through a caller-owned
/// [`crate::Workspace`]: repeatedly assembles the linearized system
/// around the current candidate and solves, until the unknown vector
/// stops moving. `x` holds the initial guess on entry and the solution
/// on success, and all matrix/vector buffers come from `ws`, so a
/// converged solve performs no heap allocation after the workspace is
/// warm.
///
/// The iteration sequence is identical to a fresh-buffer solve; results
/// are bitwise equal regardless of what the workspace previously held.
///
/// Returns the number of iterations used (including the converging one).
/// A non-finite entry in the linear-solve result aborts with
/// [`SpiceError::NumericalBlowup`] rather than iterating on garbage.
///
/// Each iteration is charged against `ctx.budget` and the budget's
/// cancel/deadline state is polled, so even a single pathological solve
/// honours [`SpiceError::BudgetExceeded`] / [`SpiceError::Cancelled`].
///
/// Each iteration also emits [`Event::NewtonIter`] (and a converging
/// solve [`Event::NewtonConverged`]) through `ctx.telemetry`; like the budget
/// check, the off state is hoisted to one boolean test per iteration.
/// At `DetailLevel::Iterations` every iteration additionally emits
/// [`Event::NewtonResidual`] with the damped residual norm and the
/// damping factor, so a stalled solve is diagnosable from the trace.
///
/// When `ctx.health` is enabled every linear solve is *certified*: the
/// backward error of the solution is measured against the assembled
/// system, iterative refinement runs when it misses tolerance
/// ([`Event::SolveRefined`]), and a still-unacceptable solve escalates
/// down the workspace's degradation ladder — fresh symbolic analysis,
/// alternate fill ordering, dense fallback ([`Event::SolveDegraded`],
/// one Newton-budget charge per rung) — before the iteration refuses
/// with [`SpiceError::UncertifiedSolve`] rather than continuing on an
/// unverified solution. An acceptable solve is returned untouched, so a
/// healthy iteration is bitwise identical to `HealthPolicy::off()`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_solve_in(
    circuit: &Circuit,
    layout: &Layout,
    t: Second,
    caps: CapMode<'_>,
    settings: &SolveSettings,
    x: &mut [f64],
    options: &NewtonOptions,
    ctx: &crate::RunContext,
    ws: &mut crate::Workspace,
) -> Result<usize, SpiceError> {
    let crate::RunContext {
        budget,
        telemetry: tele,
        health,
        ..
    } = ctx;
    debug_assert_eq!(x.len(), layout.size);
    ws.ensure_size(layout.size);
    let limited = budget.is_limited();
    let observed = tele.is_on();
    let diagnosed = tele.wants_iterations();
    let mut last_delta = f64::INFINITY;
    for iter in 0..options.max_iterations {
        if limited {
            budget.check()?;
            budget.charge_newton(1)?;
        }
        if observed {
            tele.emit(|| Event::NewtonIter {
                iteration: iter as u64 + 1,
            });
        }
        // Assemble-solve-certify, escalating the workspace down its
        // degradation ladder until the solve certifies, the ladder is
        // exhausted, or certification is off. Escalated rungs rebuild
        // the backend, so assembly re-runs inside the loop.
        loop {
            let outcome = {
                let crate::Workspace {
                    system,
                    z,
                    x_new,
                    resid,
                    corr,
                    ..
                } = &mut *ws;
                assemble(circuit, layout, x, t, caps, settings, system, z);
                let info = system.solve_into(z, x_new, tele)?;
                if observed {
                    tele.emit(|| Event::SolverSolved {
                        backend: info.backend,
                        symbolic: info.symbolic,
                    });
                }
                if !health.enabled {
                    None
                } else {
                    Some(certify(system, z, x_new, health, resid, corr))
                }
            };
            let Some(outcome) = outcome else {
                break;
            };
            if observed && outcome.quality.refinement_passes > 0 {
                tele.emit(|| Event::SolveRefined {
                    passes: outcome.quality.refinement_passes as u64,
                    residual: outcome.quality.residual,
                });
            }
            if outcome.acceptable {
                ws.last_quality = Some(outcome.quality);
                break;
            }
            match ws.escalate_degrade() {
                Some(stage) => {
                    if observed {
                        tele.emit(|| Event::SolveDegraded {
                            stage,
                            residual: outcome.quality.residual,
                        });
                    }
                    // Escalation repeats the factor-and-solve: charge it
                    // like the extra Newton-iteration work it is.
                    if limited {
                        budget.charge_newton(1)?;
                    }
                }
                None => {
                    ws.last_quality = Some(outcome.quality);
                    if ws.x_new[..layout.size].iter().all(|v| v.is_finite()) {
                        return Err(SpiceError::UncertifiedSolve {
                            residual: outcome.quality.residual,
                            cond_estimate: outcome.quality.cond_estimate,
                        });
                    }
                    // Non-finite solutions fall through to the blowup
                    // check below, preserving the historical error (and
                    // the warm-start fallbacks keyed on it).
                    break;
                }
            }
        }
        let crate::Workspace { x_new, .. } = &mut *ws;
        if let Some(unknown) = x_new[..layout.size].iter().position(|v| !v.is_finite()) {
            return Err(SpiceError::NumericalBlowup {
                iteration: iter + 1,
                unknown,
            });
        }
        let mut converged = true;
        let mut max_delta = 0.0f64;
        let mut raw_max_delta = 0.0f64;
        for i in 0..layout.size {
            let mut delta = x_new[i] - x[i];
            if i < layout.n_nodes {
                // Damp node-voltage updates only; branch currents are
                // linear consequences and may jump freely.
                raw_max_delta = raw_max_delta.max(delta.abs());
                delta = delta.clamp(-options.max_step, options.max_step);
                max_delta = max_delta.max(delta.abs());
                if delta.abs() > options.vtol + options.reltol * x[i].abs() {
                    converged = false;
                }
            }
            x[i] += delta;
        }
        if diagnosed {
            tele.emit(|| Event::NewtonResidual {
                iteration: iter as u64 + 1,
                residual: max_delta,
                damping: if raw_max_delta > options.max_step {
                    options.max_step / raw_max_delta
                } else {
                    1.0
                },
            });
        }
        if converged {
            if observed {
                tele.emit(|| Event::NewtonConverged {
                    iterations: iter as u64 + 1,
                });
            }
            return Ok(iter + 1);
        }
        last_delta = max_delta;
    }
    Err(SpiceError::NoConvergence {
        iterations: options.max_iterations,
        residual: last_delta,
    })
}
