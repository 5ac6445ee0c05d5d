//! Integration tests for the resource-governance layer: adaptive LTE
//! stepping against analytic references and fine fixed-step runs,
//! and budget/deadline/cancellation aborts across every analysis entry
//! point.

use ferrocim_spice::{
    AdaptiveOptions, Budget, BudgetResource, CancelToken, Circuit, DcAnalysis, DcSweep, Deadline,
    Element, HealthPolicy, Integrator, NodeId, RunContext, SimEngine, SolverConfig, SpiceError,
    TransientAnalysis,
};
use ferrocim_units::{Farad, Ohm, Second, Volt};
use proptest::prelude::*;
use std::time::Duration;

/// A series RC charged from a DC source: `v_c(t) = V·(1 − e^(−t/RC))`.
fn rc_circuit(r: f64, c: f64, v: f64) -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(v)))
        .expect("add source");
    ckt.add(Element::resistor("R1", a, b, Ohm(r)))
        .expect("add resistor");
    ckt.add(Element::Capacitor {
        name: "C1".into(),
        a: b,
        b: NodeId::GROUND,
        capacitance: Farad(c),
        initial: Some(Volt::ZERO),
    })
    .expect("add capacitor");
    (ckt, b)
}

/// A diode-connected MOSFET load — nonlinear enough that every solve
/// takes several Newton iterations.
fn nonlinear_circuit() -> Circuit {
    use ferrocim_device::{MosfetModel, MosfetParams};
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    ckt.add(Element::vdc("VDD", vdd, NodeId::GROUND, Volt(1.0)))
        .expect("add source");
    ckt.add(Element::resistor("R", vdd, d, Ohm(1e5)))
        .expect("add resistor");
    ckt.add(Element::mosfet(
        "M1",
        d,
        d,
        NodeId::GROUND,
        MosfetModel::new(MosfetParams::nmos_14nm()),
    ))
    .expect("add mosfet");
    ckt
}

/// A context carrying only `budget`.
fn budgeted(budget: Budget) -> RunContext {
    RunContext {
        budget,
        ..RunContext::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a smooth RC charging curve the adaptive stepper must stay
    /// within its LTE tolerance of the analytic solution at every
    /// accepted sample, for any (R, C, V) in a broad physical range.
    #[test]
    fn adaptive_rc_tracks_the_analytic_solution(
        r_exp in 3.0f64..6.0,
        c_exp in -15.0f64..-12.0,
        v in 0.2f64..1.5,
    ) {
        let r = 10f64.powf(r_exp);
        let c = 10f64.powf(c_exp);
        let tau = r * c;
        let t_stop = 5.0 * tau;
        let (ckt, node) = rc_circuit(r, c, v);
        let opts = AdaptiveOptions::for_duration(Second(t_stop));
        let result = TransientAnalysis::over(&ckt, Second(t_stop))
            .with_adaptive_options(opts)
            .run()
            .expect("adaptive run");
        let report = result.step_report();
        prop_assert!(report.accepted > 0);
        // Pointwise error against the analytic curve: the global error
        // of an LTE-controlled run stays within a small multiple of the
        // per-step tolerance (relative to the source amplitude).
        // Sample 0 is the DC pre-solve (caps open), not the capacitor's
        // initial condition; the analytic comparison starts at t > 0.
        for (i, t) in result.times().iter().enumerate().skip(1) {
            let got = result.voltage_at(node, i);
            let want = v * (1.0 - (-t.value() / tau).exp());
            prop_assert!(
                (got.value() - want).abs() <= 5e-3 * v + 1e-9,
                "at t={} got {} want {}", t.value(), got.value(), want
            );
        }
    }

    /// The adaptive run must use far fewer steps than a 10× finer
    /// fixed-step reference while matching it within the LTE tolerance.
    #[test]
    fn adaptive_beats_a_10x_finer_fixed_reference(
        v in 0.3f64..1.2,
    ) {
        let (r, c) = (1e5, 1e-13);
        let tau = r * c;
        let t_stop = 5.0 * tau;
        let (ckt, node) = rc_circuit(r, c, v);
        let opts = AdaptiveOptions::for_duration(Second(t_stop));
        let adaptive = TransientAnalysis::over(&ckt, Second(t_stop))
            .with_adaptive_options(opts)
            .run()
            .expect("adaptive run");
        // Reference: fixed steps 10× finer than the adaptive dt_max.
        let dt_ref = Second(opts.dt_max.value() / 10.0);
        let fixed = TransientAnalysis::over(&ckt, Second(t_stop)).with_fixed_step(dt_ref)
            .run()
            .expect("fixed run");
        let end_a = adaptive.final_voltage(node).value();
        let end_f = fixed.final_voltage(node).value();
        prop_assert!(
            (end_a - end_f).abs() <= opts.lte_tol * v.max(1.0) * 10.0,
            "adaptive {end_a} vs fixed {end_f}"
        );
        prop_assert!(
            adaptive.step_report().attempted() < fixed.times().len(),
            "adaptive took {} attempts vs {} fixed steps",
            adaptive.step_report().attempted(),
            fixed.times().len()
        );
    }
}

#[test]
fn adaptive_trapezoidal_also_tracks_the_reference() {
    let (r, c, v) = (2e5, 5e-14, 1.0);
    let tau = r * c;
    let t_stop = 4.0 * tau;
    let (ckt, node) = rc_circuit(r, c, v);
    let result = TransientAnalysis::over(&ckt, Second(t_stop))
        .with_integrator(Integrator::Trapezoidal)
        .run()
        .expect("trap adaptive run");
    let want = v * (1.0 - (-t_stop / tau).exp());
    assert!(
        (result.final_voltage(node).value() - want).abs() < 5e-3,
        "got {} want {want}",
        result.final_voltage(node).value()
    );
}

#[test]
fn newton_budget_aborts_a_dc_solve_with_a_typed_error() {
    let ckt = nonlinear_circuit();
    let budget = Budget::unlimited().with_max_newton_iterations(2);
    let err = DcAnalysis::new(&ckt)
        .with_context(budgeted(budget.clone()))
        .solve()
        .unwrap_err();
    assert!(
        matches!(
            err,
            SpiceError::BudgetExceeded {
                resource: BudgetResource::NewtonIterations { .. }
            }
        ),
        "{err}"
    );
    // The spend counter reflects the charge that tripped the limit.
    assert!(budget.newton_iterations_spent() >= 2);
}

#[test]
fn step_budget_aborts_a_transient_mid_run() {
    let (ckt, _) = rc_circuit(1e5, 1e-13, 1.0);
    let budget = Budget::unlimited().with_max_steps(5);
    let err = TransientAnalysis::over(&ckt, Second(1e-7))
        .with_fixed_step(Second(1e-10))
        .with_context(budgeted(budget))
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            SpiceError::BudgetExceeded {
                resource: BudgetResource::Steps { .. }
            }
        ),
        "{err}"
    );
}

#[test]
fn expired_deadline_aborts_every_entry_point() {
    let (ckt, _) = rc_circuit(1e5, 1e-13, 1.0);
    let deadline = Deadline::after(Duration::ZERO);
    let wall = |err: &SpiceError| {
        matches!(
            err,
            SpiceError::BudgetExceeded {
                resource: BudgetResource::WallClock
            }
        )
    };
    let err = DcAnalysis::new(&ckt)
        .with_context(budgeted(Budget::unlimited().with_deadline(deadline)))
        .solve()
        .unwrap_err();
    assert!(wall(&err), "dc: {err}");
    let err = TransientAnalysis::over(&ckt, Second(1e-8))
        .with_fixed_step(Second(1e-10))
        .with_context(budgeted(Budget::unlimited().with_deadline(deadline)))
        .run()
        .unwrap_err();
    assert!(wall(&err), "transient: {err}");
    let err = TransientAnalysis::over(&ckt, Second(1e-8))
        .with_context(budgeted(Budget::unlimited().with_deadline(deadline)))
        .run()
        .unwrap_err();
    assert!(wall(&err), "adaptive: {err}");
    let err = DcSweep::new(&ckt, "V1", vec![Volt(0.0), Volt(0.5)])
        .with_context(budgeted(Budget::unlimited().with_deadline(deadline)))
        .solve()
        .unwrap_err();
    assert!(wall(&err), "sweep: {err}");
}

#[test]
fn cancel_token_aborts_a_dc_sweep() {
    let ckt = nonlinear_circuit();
    let token = CancelToken::new();
    token.cancel();
    let err = DcSweep::new(&ckt, "VDD", vec![Volt(0.2), Volt(0.4)])
        .with_context(budgeted(Budget::unlimited().with_cancel_token(&token)))
        .solve()
        .unwrap_err();
    assert!(matches!(err, SpiceError::Cancelled), "{err}");
}

#[test]
fn sim_engine_threads_its_budget_into_every_analysis() {
    let (ckt, _) = rc_circuit(1e5, 1e-13, 1.0);
    let token = CancelToken::new();
    token.cancel();
    let mut engine =
        SimEngine::new().with_context(budgeted(Budget::unlimited().with_cancel_token(&token)));
    let err = engine.dc(&ckt).unwrap_err();
    assert!(matches!(err, SpiceError::Cancelled), "dc: {err}");
    let err = engine
        .transient(&ckt, Second(1e-10), Second(1e-8))
        .unwrap_err();
    assert!(matches!(err, SpiceError::Cancelled), "transient: {err}");
    let err = engine
        .transient_adaptive(
            &ckt,
            Second(1e-8),
            AdaptiveOptions::for_duration(Second(1e-8)),
        )
        .unwrap_err();
    assert!(matches!(err, SpiceError::Cancelled), "adaptive: {err}");
}

#[test]
fn sweep_and_engine_forward_the_whole_context_to_the_leaf_solve() {
    let ckt = nonlinear_circuit();
    // An unmeetable certification tolerance on the sparse backend: every
    // rung of the degradation ladder fails and the solve refuses.
    let strict = RunContext {
        solver: Some(SolverConfig::sparse()),
        health: HealthPolicy {
            residual_tol: 1e-30,
            ..HealthPolicy::default()
        },
        ..RunContext::default()
    };
    let bare = DcAnalysis::new(&ckt)
        .with_context(strict.clone())
        .solve()
        .unwrap_err();
    assert!(
        matches!(bare, SpiceError::UncertifiedSolve { .. }),
        "{bare}"
    );
    let swept = DcSweep::new(&ckt, "VDD", vec![Volt(1.0)])
        .with_context(strict.clone())
        .solve()
        .unwrap_err();
    assert_eq!(swept, bare, "sweep");
    let engined = SimEngine::new().with_context(strict).dc(&ckt).unwrap_err();
    assert_eq!(engined, bare, "engine");
}

#[test]
fn budget_clones_share_one_spend_pool() {
    let (ckt, _) = rc_circuit(1e5, 1e-13, 1.0);
    // 12 time steps fit under the limit once, but not twice: the second
    // run draws from the same pool and must hit the ceiling.
    let budget = Budget::unlimited().with_max_steps(18);
    let analysis = TransientAnalysis::over(&ckt, Second(1e-8))
        .with_fixed_step(Second(1e-9))
        .with_context(budgeted(budget.clone()));
    analysis.clone().run().expect("first run fits");
    let err = analysis.run().unwrap_err();
    assert!(
        matches!(err, SpiceError::BudgetExceeded { .. }),
        "second run must exhaust the shared pool: {err}"
    );
    assert!(budget.steps_spent() >= 18);
}

#[test]
fn unlimited_budget_changes_nothing() {
    let (ckt, node) = rc_circuit(1e5, 1e-13, 1.0);
    let plain = TransientAnalysis::over(&ckt, Second(1e-8))
        .with_fixed_step(Second(1e-10))
        .run()
        .expect("plain");
    let governed = TransientAnalysis::over(&ckt, Second(1e-8))
        .with_fixed_step(Second(1e-10))
        .with_context(budgeted(Budget::unlimited()))
        .run()
        .expect("governed");
    assert_eq!(plain.times(), governed.times());
    for i in 0..plain.times().len() {
        assert_eq!(
            plain.voltage_at(node, i).value().to_bits(),
            governed.voltage_at(node, i).value().to_bits()
        );
    }
}
