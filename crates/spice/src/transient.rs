//! Transient analysis: implicit integration with breakpoint alignment,
//! per-source energy accounting, and full waveform capture.
//!
//! Two stepping modes share one engine, both built through
//! [`TransientAnalysis::over`]:
//!
//! * **Fixed-step** (chain [`TransientAnalysis::with_fixed_step`]) —
//!   the caller picks `dt`; every step lands on the uniform grid (plus
//!   breakpoints).
//! * **Adaptive** (the default) — the step size is
//!   controlled by a step-doubling local-truncation-error estimate:
//!   each step is solved once at full size and again as two half
//!   steps; the difference bounds the LTE, steps violating the
//!   tolerance are rejected and halved (composing with the
//!   [`RescuePolicy`] ladder once the floor `dt_min` is reached), and
//!   easy stretches grow the step toward `dt_max`. The accepted
//!   solution is always the more accurate half-step one.

use crate::dc::OperatingPoint;
use crate::mna::{newton_solve_in, CapMode, Layout, NewtonOptions};
use crate::netlist::{Circuit, Element, NodeId};
use crate::rescue::{is_rescuable, rescue_solve, RescuePolicy};
use crate::{RunContext, SpiceError, Waveform, Workspace};
use ferrocim_telemetry::{Event, Telemetry};
use ferrocim_units::{Ampere, Celsius, Joule, Second, Volt};
use std::collections::HashMap;

/// Step accounting for a transient run.
///
/// A fixed-step run reports every grid step as accepted; an adaptive
/// run additionally counts the steps rejected by the LTE controller or
/// Newton divergence, and the steps that only converged through the
/// [`RescuePolicy`] ladder at the `dt_min` floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepReport {
    /// Steps whose solution was kept.
    pub accepted: usize,
    /// Steps discarded (LTE violation or Newton divergence) and retried
    /// at a smaller size.
    pub rejected: usize,
    /// Accepted steps that required the rescue ladder to converge.
    pub rescued: usize,
}

impl StepReport {
    /// Total step attempts, accepted plus rejected.
    pub fn attempted(&self) -> usize {
        self.accepted + self.rejected
    }
}

/// Knobs for the adaptive step controller.
///
/// Defaults come from [`AdaptiveOptions::for_duration`], which scales
/// the step bounds to the simulated interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Per-step local-truncation-error tolerance on any node voltage,
    /// volts.
    pub lte_tol: f64,
    /// Smallest allowed step. At this floor an LTE violation is
    /// force-accepted (never livelocks) and Newton divergence escalates
    /// to the rescue ladder.
    pub dt_min: Second,
    /// Largest allowed step.
    pub dt_max: Second,
    /// First step attempted after `t = 0`.
    pub dt_init: Second,
    /// Cap on per-step growth of the step size (≥ 1).
    pub max_growth: f64,
    /// Safety factor applied to the optimal-step estimate, in `(0, 1]`.
    pub safety: f64,
}

impl AdaptiveOptions {
    /// Defaults scaled to a run of length `t_stop`: tolerance 100 µV,
    /// steps between `t_stop/10⁹` and `t_stop/20`, starting at
    /// `t_stop/1000`.
    pub fn for_duration(t_stop: Second) -> AdaptiveOptions {
        let t = t_stop.value();
        AdaptiveOptions {
            lte_tol: 1e-4,
            dt_min: Second(t * 1e-9),
            dt_max: Second(t / 20.0),
            dt_init: Second(t * 1e-3),
            max_growth: 2.0,
            safety: 0.9,
        }
    }

    fn validate(&self) -> Result<(), SpiceError> {
        let check = |name: &str, value: f64, ok: bool, requirement: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(SpiceError::InvalidValue {
                    name: name.to_string(),
                    value,
                    requirement,
                })
            }
        };
        check(
            "lte_tol",
            self.lte_tol,
            self.lte_tol > 0.0 && self.lte_tol.is_finite(),
            "a positive finite voltage tolerance",
        )?;
        let dt_min = self.dt_min.value();
        let dt_max = self.dt_max.value();
        let dt_init = self.dt_init.value();
        check(
            "dt_min",
            dt_min,
            dt_min > 0.0 && dt_min.is_finite(),
            "a positive finite step floor",
        )?;
        check(
            "dt_max",
            dt_max,
            dt_max >= dt_min && dt_max.is_finite(),
            "a finite step ceiling at least dt_min",
        )?;
        check(
            "dt_init",
            dt_init,
            dt_init > 0.0 && dt_init.is_finite(),
            "a positive finite initial step",
        )?;
        check(
            "max_growth",
            self.max_growth,
            self.max_growth >= 1.0 && self.max_growth.is_finite(),
            "a growth cap of at least 1",
        )?;
        check(
            "safety",
            self.safety,
            self.safety > 0.0 && self.safety <= 1.0,
            "a safety factor in (0, 1]",
        )
    }
}

/// Result of a transient run: sampled node voltages, final source
/// currents, and delivered-energy integrals.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `voltages[sample][node_index]`.
    voltages: Vec<Vec<f64>>,
    /// Per-source branch current at the final time point.
    source_currents: HashMap<String, f64>,
    /// Per-source delivered energy integral.
    energy: HashMap<String, f64>,
    /// Step accounting for the run.
    steps: StepReport,
}

impl TransientResult {
    /// The sampled time points.
    pub fn times(&self) -> Vec<Second> {
        self.times.iter().map(|&t| Second(t)).collect()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the run produced no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// How many steps were accepted, rejected, and rescued.
    pub fn step_report(&self) -> StepReport {
        self.steps
    }

    /// The node voltage at a sample index.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is out of range.
    pub fn voltage_at(&self, node: NodeId, sample: usize) -> Volt {
        Volt(self.voltages[sample][node.index()])
    }

    /// The node voltage at the final time point.
    pub fn final_voltage(&self, node: NodeId) -> Volt {
        Volt(self.voltages[self.voltages.len() - 1][node.index()])
    }

    /// The full `(t, v)` trace of a node.
    pub fn trace(&self, node: NodeId) -> Vec<(Second, Volt)> {
        self.times
            .iter()
            .zip(&self.voltages)
            .map(|(&t, row)| (Second(t), Volt(row[node.index()])))
            .collect()
    }

    /// The branch current of a voltage source at the final time point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] for unknown source names.
    pub fn final_source_current(&self, name: &str) -> Result<Ampere, SpiceError> {
        self.source_currents
            .get(name)
            .map(|&i| Ampere(i))
            .ok_or_else(|| SpiceError::UnknownElement {
                name: name.to_string(),
            })
    }

    /// The energy delivered by a voltage source over the run (positive
    /// when the source did net work on the circuit).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] for unknown source names.
    pub fn energy_delivered(&self, name: &str) -> Result<Joule, SpiceError> {
        self.energy
            .get(name)
            .map(|&e| Joule(e))
            .ok_or_else(|| SpiceError::UnknownElement {
                name: name.to_string(),
            })
    }

    /// Total energy delivered by all sources.
    ///
    /// Summed in source-name order so the value is reproducible to the
    /// last bit across runs (hash-map iteration order is not).
    pub fn total_energy_delivered(&self) -> Joule {
        let mut names: Vec<&String> = self.energy.keys().collect();
        names.sort_unstable();
        Joule(names.iter().map(|n| self.energy[*n]).sum())
    }
}

/// How the transient advances time.
#[derive(Debug, Clone)]
enum Stepping {
    Fixed(Second),
    Adaptive(AdaptiveOptions),
}

/// A transient analysis, fixed-step or adaptive.
///
/// Steps are aligned to waveform/switch breakpoints so sharp edges are
/// never stepped over. The initial condition is the DC operating point
/// at `t = 0` unless capacitors carry explicit initial voltages, which
/// take precedence on their branch.
#[derive(Debug, Clone)]
pub struct TransientAnalysis<'a> {
    circuit: &'a Circuit,
    temp: Celsius,
    stepping: Stepping,
    t_stop: Second,
    options: NewtonOptions,
    rescue: RescuePolicy,
    ctx: RunContext,
}

impl<'a> TransientAnalysis<'a> {
    /// Creates a transient analysis over `[0, t_stop]`. The default
    /// stepping is adaptive with LTE-controlled step sizing (defaults
    /// from [`AdaptiveOptions::for_duration`]); chain
    /// [`TransientAnalysis::with_fixed_step`] for a uniform grid or
    /// [`TransientAnalysis::with_adaptive_options`] for explicit
    /// controller knobs.
    pub fn over(circuit: &'a Circuit, t_stop: Second) -> Self {
        TransientAnalysis {
            circuit,
            temp: Celsius::ROOM,
            stepping: Stepping::Adaptive(AdaptiveOptions::for_duration(t_stop)),
            t_stop,
            options: NewtonOptions::default(),
            rescue: RescuePolicy::default(),
            ctx: RunContext::default(),
        }
    }

    /// Sets the simulation temperature.
    pub fn at(mut self, temp: Celsius) -> Self {
        self.temp = temp;
        self
    }

    /// Switches to fixed-step integration on a uniform `dt` grid
    /// (plus breakpoints).
    pub fn with_fixed_step(mut self, dt: Second) -> Self {
        self.stepping = Stepping::Fixed(dt);
        self
    }

    /// Overrides the Newton options.
    pub fn with_options(mut self, options: NewtonOptions) -> Self {
        self.options = options;
        self
    }

    /// Switches to adaptive stepping with explicit controller options.
    pub fn with_adaptive_options(mut self, opts: AdaptiveOptions) -> Self {
        self.stepping = Stepping::Adaptive(opts);
        self
    }

    /// Overrides the convergence-rescue policy used when an adaptive
    /// step diverges at the `dt_min` floor ([`RescuePolicy::none`]
    /// fails fast instead).
    pub fn with_rescue(mut self, policy: RescuePolicy) -> Self {
        self.rescue = policy;
        self
    }

    /// Replaces the whole [`RunContext`]: the run's budget (one step is
    /// charged per attempted time step and every Newton iteration
    /// counts against the pool), telemetry, linear-solver selection and
    /// health policy.
    pub fn with_context(mut self, ctx: RunContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Replaces only the context's telemetry handle: every Newton
    /// iteration, accepted or rejected step, and rescue-ladder attempt
    /// is emitted through it (see `ferrocim_telemetry::Event`). The
    /// default handle is off and adds no measurable cost.
    pub fn with_recorder(mut self, telemetry: Telemetry) -> Self {
        self.ctx.telemetry = telemetry;
        self
    }

    /// Runs the transient.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::InvalidValue`] for a non-positive `dt`, a stop
    ///   time before the first step, or a temperature that is not finite
    ///   or not above absolute zero.
    /// * [`SpiceError::NoConvergence`] / [`SpiceError::SingularMatrix`]
    ///   from the per-step Newton solve.
    /// * [`SpiceError::BudgetExceeded`] / [`SpiceError::Cancelled`]
    ///   when the context's [`crate::Budget`] runs out.
    pub fn run(&self) -> Result<TransientResult, SpiceError> {
        self.run_in(&mut Workspace::new())
    }

    /// [`TransientAnalysis::run`] using a caller-owned [`Workspace`] for
    /// all solver buffers (including the implicit `t = 0` DC solve).
    /// Repeated runs through the same workspace skip the per-step
    /// matrix/vector allocations; the numerical result is bitwise
    /// identical to [`TransientAnalysis::run`].
    ///
    /// # Errors
    ///
    /// Same as [`TransientAnalysis::run`].
    pub fn run_in(&self, ws: &mut Workspace) -> Result<TransientResult, SpiceError> {
        self.run_sampled(ws, None)
    }

    /// [`TransientAnalysis::run_in`] without storing the waveform:
    /// `on_sample` sees every sample as it is accepted, as its time and
    /// the node voltages indexed by [`NodeId::index`] (ground at 0),
    /// and the result keeps only the final sample. Callers that need a
    /// few values of a long run read them here instead of holding
    /// every sample. Every value is bitwise the one
    /// [`TransientAnalysis::run_in`] records.
    ///
    /// # Errors
    ///
    /// Same as [`TransientAnalysis::run`].
    pub fn run_streamed_in(
        &self,
        ws: &mut Workspace,
        on_sample: &mut dyn FnMut(Second, &[f64]),
    ) -> Result<TransientResult, SpiceError> {
        self.run_sampled(ws, Some(on_sample))
    }

    fn run_sampled(
        &self,
        ws: &mut Workspace,
        on_sample: OnSample<'_>,
    ) -> Result<TransientResult, SpiceError> {
        let _span = self.ctx.telemetry.span("spice.transient");
        if let Some(config) = self.ctx.solver {
            ws.set_solver(config);
        }
        match &self.stepping {
            Stepping::Fixed(dt) => self.run_fixed(*dt, ws, on_sample),
            Stepping::Adaptive(opts) => self.run_adaptive(opts, ws, on_sample),
        }
    }

    /// Solves the `t = 0` starting point and seeds capacitor companion
    /// states from it (explicit initial conditions take precedence).
    fn initial_state(&self, ws: &mut Workspace) -> Result<(OperatingPoint, Vec<f64>), SpiceError> {
        let initial = crate::DcAnalysis::new(self.circuit)
            .at(self.temp)
            .with_options(self.options)
            .with_context(self.ctx.clone())
            .solve_in(ws)?;
        let mut cap_states = vec![0.0; self.circuit.elements().len()];
        for (idx, e) in self.circuit.elements().iter().enumerate() {
            if let Element::Capacitor {
                a, b, initial: ic, ..
            } = e
            {
                let v = match ic {
                    Some(v) => v.value(),
                    None => initial.voltage(*a).value() - initial.voltage(*b).value(),
                };
                cap_states[idx] = v;
            }
        }
        Ok((initial, cap_states))
    }

    /// Breakpoint instants strictly inside `(0, t_stop)`, ascending.
    fn inner_breakpoints(&self, t_stop: f64) -> Vec<f64> {
        self.circuit
            .breakpoints()
            .iter()
            .map(|b| b.value())
            .filter(|&b| b > 1e-18 && b < t_stop)
            .collect()
    }

    fn run_fixed(
        &self,
        dt: Second,
        ws: &mut Workspace,
        on_sample: OnSample<'_>,
    ) -> Result<TransientResult, SpiceError> {
        if !(dt.value() > 0.0 && dt.value().is_finite()) {
            return Err(SpiceError::InvalidValue {
                name: "dt".to_string(),
                value: dt.value(),
                requirement: "a positive finite timestep",
            });
        }
        if self.t_stop.value() < dt.value() {
            return Err(SpiceError::InvalidValue {
                name: "t_stop".to_string(),
                value: self.t_stop.value(),
                requirement: "at least one timestep long",
            });
        }
        let (initial, mut cap_states) = self.initial_state(ws)?;
        let layout = Layout::of(self.circuit, self.temp)?;

        // Breakpoint-aligned time grid.
        let mut times = Vec::new();
        let mut t = 0.0;
        let dt = dt.value();
        let t_stop = self.t_stop.value();
        let mut bp_iter = self.inner_breakpoints(t_stop).into_iter().peekable();
        while t < t_stop - 1e-18 {
            let mut next = t + dt;
            while let Some(&bp) = bp_iter.peek() {
                if bp <= t + 1e-18 {
                    bp_iter.next();
                    continue;
                }
                if bp < next {
                    next = bp;
                }
                break;
            }
            if next > t_stop {
                next = t_stop;
            }
            times.push(next);
            t = next;
        }

        let mut x = initial.raw.clone();

        let mut rec = Recording::new(self.circuit, &layout, times.len() + 1, on_sample);
        rec.record(0.0, &x);

        let mut t_prev = 0.0;
        for &t_now in &times {
            self.ctx.budget.check()?;
            self.ctx.budget.charge_steps(1)?;
            let step = t_now - t_prev;
            let caps = CapMode::Companion {
                dt: step,
                v_prev: &cap_states,
            };
            newton_solve_in(
                self.circuit,
                &layout,
                Second(t_now),
                caps,
                &crate::mna::SolveSettings::NOMINAL,
                &mut x,
                &self.options,
                &self.ctx,
                ws,
            )?;
            self.ctx.telemetry.emit(|| Event::StepAccepted {
                time: t_now,
                dt: step,
            });
            update_cap_states(self.circuit, &layout, &x, &mut cap_states);
            rec.accumulate_energy(t_now, &x, step);
            rec.record(t_now, &x);
            t_prev = t_now;
        }

        let steps = StepReport {
            accepted: times.len(),
            rejected: 0,
            rescued: 0,
        };
        Ok(rec.finish(steps))
    }

    fn run_adaptive(
        &self,
        opts: &AdaptiveOptions,
        ws: &mut Workspace,
        on_sample: OnSample<'_>,
    ) -> Result<TransientResult, SpiceError> {
        let t_stop = self.t_stop.value();
        if !(t_stop > 0.0 && t_stop.is_finite()) {
            return Err(SpiceError::InvalidValue {
                name: "t_stop".to_string(),
                value: t_stop,
                requirement: "a positive finite stop time",
            });
        }
        opts.validate()?;

        let (initial, mut cap_states) = self.initial_state(ws)?;
        let layout = Layout::of(self.circuit, self.temp)?;
        const FACTOR_MIN: f64 = 0.2;

        let dt_min = opts.dt_min.value();
        let dt_max = opts.dt_max.value().min(t_stop);
        let mut dt = opts.dt_init.value().clamp(dt_min, dt_max);
        let bps = self.inner_breakpoints(t_stop);
        let mut bp_idx = 0usize;

        let mut rec = Recording::new(self.circuit, &layout, 128, on_sample);
        let mut x = initial.raw.clone();
        rec.record(0.0, &x);

        let mut x_full = x.clone();
        let mut x_half = x.clone();
        let mut states_half = cap_states.clone();
        let mut report = StepReport::default();
        let mut t = 0.0;

        while t < t_stop - 1e-18 {
            self.ctx.budget.check()?;
            self.ctx.budget.charge_steps(1)?;

            while bp_idx < bps.len() && bps[bp_idx] <= t + 1e-18 {
                bp_idx += 1;
            }
            let mut target = t + dt;
            let mut clipped = false;
            if bp_idx < bps.len() && bps[bp_idx] < target {
                target = bps[bp_idx];
                clipped = true;
            }
            if target > t_stop {
                target = t_stop;
                clipped = true;
            }
            let h = target - t;
            let at_floor = h <= dt_min * (1.0 + 1e-9);

            let trial = attempt_step(
                self.circuit,
                &layout,
                &self.options,
                &self.ctx,
                t,
                h,
                &x,
                &cap_states,
                &mut x_full,
                &mut x_half,
                &mut states_half,
                ws,
            )?;

            match trial {
                StepTrial::Solved { max_diff } => {
                    // Step doubling: ‖x_full − x_half‖ ≈ (2^p − 1)·LTE,
                    // which is the LTE itself for backward Euler (p = 1);
                    // the dt controller exponent is 1/(p + 1).
                    let lte = max_diff;
                    if lte <= opts.lte_tol || at_floor {
                        // Accept the half-step solution (the more
                        // accurate of the two trials); at the floor an
                        // out-of-tolerance step is accepted anyway so
                        // the run can never livelock.
                        std::mem::swap(&mut x, &mut x_half);
                        std::mem::swap(&mut cap_states, &mut states_half);
                        rec.accumulate_energy(target, &x, h);
                        rec.record(target, &x);
                        self.ctx.telemetry.emit(|| Event::StepAccepted {
                            time: target,
                            dt: h,
                        });
                        t = target;
                        report.accepted += 1;
                        let factor = if lte > 0.0 {
                            (opts.safety * (opts.lte_tol / lte).powf(0.5))
                                .clamp(FACTOR_MIN, opts.max_growth)
                        } else {
                            opts.max_growth
                        };
                        let proposed = h * factor;
                        // A breakpoint-clipped easy step says nothing
                        // about the full cruising dt — keep it.
                        dt = if clipped && proposed >= h {
                            dt
                        } else {
                            proposed
                        }
                        .clamp(dt_min, dt_max);
                    } else {
                        self.ctx
                            .telemetry
                            .emit(|| Event::StepRejected { time: t, dt: h });
                        report.rejected += 1;
                        dt = (0.5 * h).max(dt_min);
                    }
                }
                StepTrial::Diverged(err) => {
                    if !at_floor {
                        self.ctx
                            .telemetry
                            .emit(|| Event::StepRejected { time: t, dt: h });
                        report.rejected += 1;
                        dt = (0.5 * h).max(dt_min);
                    } else if self.rescue.is_enabled() {
                        // Last resort at the floor: the full rescue
                        // ladder on the single full-size step.
                        x_full.copy_from_slice(&x);
                        let caps = CapMode::Companion {
                            dt: h,
                            v_prev: &cap_states,
                        };
                        rescue_solve(
                            self.circuit,
                            &layout,
                            Second(target),
                            caps,
                            &mut x_full,
                            &x,
                            &self.options,
                            &self.rescue,
                            &self.ctx,
                            ws,
                            err,
                        )?;
                        update_cap_states(self.circuit, &layout, &x_full, &mut cap_states);
                        std::mem::swap(&mut x, &mut x_full);
                        rec.accumulate_energy(target, &x, h);
                        rec.record(target, &x);
                        self.ctx.telemetry.emit(|| Event::StepAccepted {
                            time: target,
                            dt: h,
                        });
                        t = target;
                        report.accepted += 1;
                        report.rescued += 1;
                        dt = dt_min;
                    } else {
                        return Err(err);
                    }
                }
            }
        }

        Ok(rec.finish(report))
    }
}

/// Outcome of one adaptive trial step.
enum StepTrial {
    /// All three solves converged; `max_diff` is the largest
    /// node-voltage difference between the full-step and half-step
    /// solutions.
    Solved { max_diff: f64 },
    /// A solve failed with a rescuable error (kept for the floor-level
    /// escalation path).
    Diverged(SpiceError),
}

/// Solves one candidate step of size `h` from `(t, x_prev, cap_states)`
/// twice: once whole into `x_full`, once as two half steps into
/// `x_half`/`states_half`. Non-rescuable errors (budget, cancellation)
/// propagate immediately.
#[allow(clippy::too_many_arguments)]
fn attempt_step(
    circuit: &Circuit,
    layout: &Layout,
    options: &NewtonOptions,
    ctx: &RunContext,
    t: f64,
    h: f64,
    x_prev: &[f64],
    cap_states: &[f64],
    x_full: &mut [f64],
    x_half: &mut [f64],
    states_half: &mut [f64],
    ws: &mut Workspace,
) -> Result<StepTrial, SpiceError> {
    x_full.copy_from_slice(x_prev);
    let caps = CapMode::Companion {
        dt: h,
        v_prev: cap_states,
    };
    if let Err(e) = newton_solve_in(
        circuit,
        layout,
        Second(t + h),
        caps,
        &crate::mna::SolveSettings::NOMINAL,
        x_full,
        options,
        ctx,
        ws,
    ) {
        return if is_rescuable(&e) {
            Ok(StepTrial::Diverged(e))
        } else {
            Err(e)
        };
    }

    x_half.copy_from_slice(x_prev);
    states_half.copy_from_slice(cap_states);
    let hh = 0.5 * h;
    for k in 0..2 {
        let t_sub = if k == 0 { t + hh } else { t + h };
        let caps = CapMode::Companion {
            dt: hh,
            v_prev: states_half,
        };
        if let Err(e) = newton_solve_in(
            circuit,
            layout,
            Second(t_sub),
            caps,
            &crate::mna::SolveSettings::NOMINAL,
            x_half,
            options,
            ctx,
            ws,
        ) {
            return if is_rescuable(&e) {
                Ok(StepTrial::Diverged(e))
            } else {
                Err(e)
            };
        }
        update_cap_states(circuit, layout, x_half, states_half);
    }

    let mut max_diff = 0.0f64;
    for i in 0..layout.n_nodes {
        max_diff = max_diff.max((x_full[i] - x_half[i]).abs());
    }
    Ok(StepTrial::Solved { max_diff })
}

/// Advances every capacitor companion state (its branch voltage
/// `v(a) − v(b)`, indexed by element) to the solution `x`.
fn update_cap_states(circuit: &Circuit, layout: &Layout, x: &[f64], states: &mut [f64]) {
    for (e, v_prev) in circuit.elements().iter().zip(states) {
        if let Element::Capacitor { a, b, .. } = e {
            *v_prev = layout.voltage(x, *a) - layout.voltage(x, *b);
        }
    }
}

/// The observer of [`TransientAnalysis::run_streamed_in`], if any: it
/// sees each accepted sample as its time and node voltages.
type OnSample<'o> = Option<&'o mut dyn FnMut(Second, &[f64])>;

/// Sampled-waveform and energy accumulation shared by both stepping
/// modes. Final source currents and energies are kept per source
/// ordinal (the voltage sources in element order) and keyed by name
/// only in [`Recording::finish`]. With an `on_sample` observer each
/// sample goes to the observer and only the latest is kept.
struct Recording<'c, 'o> {
    circuit: &'c Circuit,
    /// Name, waveform and branch-current row of each voltage source.
    sources: Vec<(&'c str, &'c Waveform, usize)>,
    sample_times: Vec<f64>,
    samples_v: Vec<Vec<f64>>,
    source_currents: Vec<f64>,
    energy: Vec<f64>,
    on_sample: OnSample<'o>,
}

impl<'c, 'o> Recording<'c, 'o> {
    fn new(
        circuit: &'c Circuit,
        layout: &Layout,
        capacity: usize,
        on_sample: OnSample<'o>,
    ) -> Recording<'c, 'o> {
        let sources: Vec<(&'c str, &'c Waveform, usize)> = circuit
            .elements()
            .iter()
            .enumerate()
            .filter_map(|(idx, e)| match e {
                Element::VoltageSource { name, waveform, .. } => {
                    Some((name.as_str(), waveform, layout.branch_of_element[idx]))
                }
                _ => None,
            })
            .collect();
        let capacity = if on_sample.is_some() { 1 } else { capacity };
        Recording {
            circuit,
            source_currents: vec![0.0; sources.len()],
            energy: vec![0.0; sources.len()],
            sources,
            sample_times: Vec::with_capacity(capacity),
            samples_v: Vec::with_capacity(capacity),
            on_sample,
        }
    }

    fn record(&mut self, t: f64, x: &[f64]) {
        let n = self.circuit.node_count();
        let mut row = match self.on_sample {
            // Streaming keeps one sample: reuse its row.
            Some(_) => {
                self.sample_times.clear();
                self.samples_v.pop().unwrap_or_else(|| vec![0.0; n])
            }
            None => vec![0.0; n],
        };
        row[1..n].copy_from_slice(&x[..n - 1]);
        if let Some(on_sample) = self.on_sample.as_mut() {
            on_sample(Second(t), &row);
        }
        self.sample_times.push(t);
        self.samples_v.push(row);
        for (&(_, _, r), current) in self.sources.iter().zip(&mut self.source_currents) {
            *current = x[r];
        }
    }

    /// Energy accounting: E += v·(−i)·dt per voltage source, with the
    /// MNA branch current flowing pos→neg inside the source.
    fn accumulate_energy(&mut self, t: f64, x: &[f64], step: f64) {
        for (&(_, waveform, r), e) in self.sources.iter().zip(&mut self.energy) {
            let v = waveform.at(Second(t)).value();
            *e += -v * x[r] * step;
        }
    }

    fn finish(self, steps: StepReport) -> TransientResult {
        let names = || self.sources.iter().map(|&(name, _, _)| name.to_string());
        TransientResult {
            source_currents: names().zip(self.source_currents).collect(),
            energy: names().zip(self.energy).collect(),
            times: self.sample_times,
            voltages: self.samples_v,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Element, SwitchSchedule};
    use crate::Waveform;
    use ferrocim_units::{Farad, Ohm};

    fn rc_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Element::vsource(
            "V1",
            vin,
            NodeId::GROUND,
            Waveform::step(Volt(0.0), Volt(1.0), Second(1e-12)),
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
        ckt
    }

    #[test]
    fn rc_charging_matches_analytic() {
        let ckt = rc_circuit();
        let out = ckt.find_node("out").unwrap();
        // τ = 1 ns; simulate 5 τ with 1000 steps.
        let res = TransientAnalysis::over(&ckt, Second(5e-9))
            .with_fixed_step(Second(5e-12))
            .run()
            .unwrap();
        let v_end = res.final_voltage(out).value();
        let expected = 1.0 - (-5.0f64).exp();
        assert!(
            (v_end - expected).abs() < 0.01,
            "v_end {v_end} vs {expected}"
        );
        // Check a mid-trace point at t ≈ τ.
        let trace = res.trace(out);
        let (_, v_tau) = trace
            .iter()
            .min_by(|a, b| {
                (a.0.value() - 1e-9)
                    .abs()
                    .total_cmp(&(b.0.value() - 1e-9).abs())
            })
            .copied()
            .unwrap();
        let expected_tau = 1.0 - (-1.0f64).exp();
        assert!((v_tau.value() - expected_tau).abs() < 0.02);
        let report = res.step_report();
        assert_eq!(report.accepted, res.len() - 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.rescued, 0);
    }

    #[test]
    fn adaptive_rc_matches_analytic_with_fewer_steps() {
        let ckt = rc_circuit();
        let out = ckt.find_node("out").unwrap();
        let adaptive = TransientAnalysis::over(&ckt, Second(5e-9)).run().unwrap();
        let report = adaptive.step_report();
        assert!(report.accepted > 0);
        // Endpoint against the analytic exponential.
        let v_end = adaptive.final_voltage(out).value();
        let expected = 1.0 - (-5.0f64).exp();
        assert!(
            (v_end - expected).abs() < 5e-3,
            "v_end {v_end} vs {expected}"
        );
        // Far fewer steps than the fine fixed-step reference.
        let fixed = TransientAnalysis::over(&ckt, Second(5e-9))
            .with_fixed_step(Second(5e-13))
            .run()
            .unwrap();
        assert!(
            report.attempted() < fixed.len() / 4,
            "adaptive attempted {} vs fixed {}",
            report.attempted(),
            fixed.len()
        );
    }

    #[test]
    fn adaptive_grows_steps_on_easy_stretches() {
        let ckt = rc_circuit();
        let res = TransientAnalysis::over(&ckt, Second(5e-9)).run().unwrap();
        let times = res.times();
        let first = times[1].value() - times[0].value();
        let mut largest = 0.0f64;
        for w in times.windows(2) {
            largest = largest.max(w[1].value() - w[0].value());
        }
        assert!(
            largest > 4.0 * first,
            "steps never grew: first {first}, largest {largest}"
        );
    }

    #[test]
    fn adaptive_respects_breakpoints() {
        // A 10 ps pulse must still be resolved by the adaptive grid.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: Volt(0.0),
                v1: Volt(1.0),
                delay: Second(0.5e-9),
                rise: Second(1e-12),
                width: Second(10e-12),
                fall: Second(1e-12),
            },
        ))
        .unwrap();
        ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        let res = TransientAnalysis::over(&ckt, Second(3e-9)).run().unwrap();
        let peak = res
            .trace(a)
            .iter()
            .map(|(_, v)| v.value())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(peak > 0.99, "pulse peak missed: {peak}");
    }

    #[test]
    fn adaptive_rejects_bad_options() {
        let ckt = rc_circuit();
        let bad = AdaptiveOptions {
            lte_tol: -1.0,
            ..AdaptiveOptions::for_duration(Second(1e-9))
        };
        assert!(matches!(
            TransientAnalysis::over(&ckt, Second(1e-9))
                .with_adaptive_options(bad)
                .run(),
            Err(SpiceError::InvalidValue { .. })
        ));
        let bad = AdaptiveOptions {
            dt_min: Second(1e-9),
            dt_max: Second(1e-12),
            ..AdaptiveOptions::for_duration(Second(1e-9))
        };
        assert!(matches!(
            TransientAnalysis::over(&ckt, Second(1e-9))
                .with_adaptive_options(bad)
                .run(),
            Err(SpiceError::InvalidValue { .. })
        ));
    }

    #[test]
    fn charge_sharing_between_capacitors() {
        // C1 (1 fF) charged to 1 V shares into C2 (1 fF) at 0 V through
        // a switch closing at 1 ns: both settle at 0.5 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Element::Capacitor {
            name: "C1".into(),
            a,
            b: NodeId::GROUND,
            capacitance: Farad(1e-15),
            initial: Some(Volt(1.0)),
        })
        .unwrap();
        ckt.add(Element::Capacitor {
            name: "C2".into(),
            a: b,
            b: NodeId::GROUND,
            capacitance: Farad(1e-15),
            initial: Some(Volt(0.0)),
        })
        .unwrap();
        ckt.add(Element::switch(
            "S1",
            a,
            b,
            SwitchSchedule::open().then_at(Second(1e-9), true),
        ))
        .unwrap();
        let res = TransientAnalysis::over(&ckt, Second(3e-9))
            .with_fixed_step(Second(1e-12))
            .run()
            .unwrap();
        let va = res.final_voltage(a).value();
        let vb = res.final_voltage(b).value();
        assert!((va - 0.5).abs() < 0.01, "va {va}");
        assert!((vb - 0.5).abs() < 0.01, "vb {vb}");
    }

    #[test]
    fn adaptive_charge_sharing_settles_correctly() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Element::Capacitor {
            name: "C1".into(),
            a,
            b: NodeId::GROUND,
            capacitance: Farad(1e-15),
            initial: Some(Volt(1.0)),
        })
        .unwrap();
        ckt.add(Element::Capacitor {
            name: "C2".into(),
            a: b,
            b: NodeId::GROUND,
            capacitance: Farad(1e-15),
            initial: Some(Volt(0.0)),
        })
        .unwrap();
        ckt.add(Element::switch(
            "S1",
            a,
            b,
            SwitchSchedule::open().then_at(Second(1e-9), true),
        ))
        .unwrap();
        let res = TransientAnalysis::over(&ckt, Second(3e-9)).run().unwrap();
        let va = res.final_voltage(a).value();
        let vb = res.final_voltage(b).value();
        assert!((va - 0.5).abs() < 0.01, "va {va}");
        assert!((vb - 0.5).abs() < 0.01, "vb {vb}");
    }

    #[test]
    fn energy_accounting_matches_rc_dissipation() {
        // Charging C through R from a step source: the source delivers
        // C·V² total; half stores on C, half burns in R.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Element::vdc("V1", vin, NodeId::GROUND, Volt(1.0)))
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
        let res = TransientAnalysis::over(&ckt, Second(10e-9))
            .with_fixed_step(Second(2e-12))
            .run()
            .unwrap();
        let delivered = res.energy_delivered("V1").unwrap().value();
        let expected = 1e-12 * 1.0 * 1.0; // C·V²
        assert!(
            (delivered - expected).abs() < 0.03 * expected,
            "delivered {delivered} vs {expected}"
        );
    }

    #[test]
    fn rejects_bad_timestep() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        assert!(matches!(
            TransientAnalysis::over(&ckt, Second(1e-9))
                .with_fixed_step(Second(0.0))
                .run(),
            Err(SpiceError::InvalidValue { .. })
        ));
        assert!(matches!(
            TransientAnalysis::over(&ckt, Second(0.0))
                .with_fixed_step(Second(1e-9))
                .run(),
            Err(SpiceError::InvalidValue { .. })
        ));
    }

    #[test]
    fn breakpoints_are_not_stepped_over() {
        // A 10 ps pulse inside a 1 ns-step simulation must still be seen.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: Volt(0.0),
                v1: Volt(1.0),
                delay: Second(0.5e-9),
                rise: Second(1e-12),
                width: Second(10e-12),
                fall: Second(1e-12),
            },
        ))
        .unwrap();
        ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        let res = TransientAnalysis::over(&ckt, Second(3e-9))
            .with_fixed_step(Second(1e-9))
            .run()
            .unwrap();
        let peak = res
            .trace(a)
            .iter()
            .map(|(_, v)| v.value())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(peak > 0.99, "pulse peak missed: {peak}");
    }

    #[test]
    fn streamed_run_sees_every_recorded_sample_bitwise() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Element::vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::step(Volt(0.0), Volt(1.0), Second(0.3e-9)),
        ))
        .unwrap();
        ckt.add(Element::resistor("R1", a, b, Ohm(1e3))).unwrap();
        ckt.add(Element::Capacitor {
            name: "C1".into(),
            a: b,
            b: NodeId::GROUND,
            capacitance: Farad(1e-12),
            initial: Some(Volt(0.0)),
        })
        .unwrap();
        for fixed in [true, false] {
            let analysis = TransientAnalysis::over(&ckt, Second(2e-9));
            let analysis = if fixed {
                analysis.with_fixed_step(Second(0.1e-9))
            } else {
                analysis
            };
            let full = analysis.run().unwrap();
            let mut seen = Vec::new();
            let streamed = analysis
                .run_streamed_in(&mut Workspace::new(), &mut |t, v| {
                    seen.push((t, Volt(v[b.index()])));
                })
                .unwrap();
            assert_eq!(seen, full.trace(b), "fixed step: {fixed}");
            assert_eq!(streamed.len(), 1);
            assert_eq!(streamed.final_voltage(b), full.final_voltage(b));
            assert_eq!(
                streamed.total_energy_delivered(),
                full.total_energy_delivered()
            );
            assert_eq!(
                streamed.final_source_current("V1").unwrap(),
                full.final_source_current("V1").unwrap()
            );
        }
    }

    #[test]
    fn final_source_current_probe() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
            .unwrap();
        ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))
            .unwrap();
        let res = TransientAnalysis::over(&ckt, Second(1e-9))
            .with_fixed_step(Second(1e-10))
            .run()
            .unwrap();
        let i = res.final_source_current("V1").unwrap().value();
        assert!((i + 1e-3).abs() < 1e-8, "i {i}");
        assert!(res.final_source_current("nope").is_err());
    }
}
