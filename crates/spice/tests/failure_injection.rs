//! Failure-injection tests: degenerate circuits and hostile inputs must
//! produce typed errors (or well-defined fallbacks), never panics.

use ferrocim_spice::{
    Circuit, DcAnalysis, Element, FailurePolicy, FanOutError, JobError, MonteCarlo, NewtonOptions,
    NodeId, RescuePolicy, RescueRung, SpiceError, TransientAnalysis, Waveform,
};
use ferrocim_units::{Ampere, Celsius, Farad, Ohm, Second, Volt};
use rand::Rng;
use std::convert::Infallible;

#[test]
fn floating_node_is_rescued_by_gmin() {
    // A node connected only through a capacitor has no DC path; the
    // built-in GMIN leak must keep the matrix solvable.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
        .unwrap();
    ckt.add(Element::capacitor("C1", a, b, Farad(1e-15)))
        .unwrap();
    let op = DcAnalysis::new(&ckt)
        .solve()
        .expect("gmin rescues the float");
    assert!(op.voltage(b).value().abs() < 1.5);
}

#[test]
fn voltage_source_loop_is_singular() {
    // Two ideal sources forcing different voltages across the same pair
    // of nodes → contradictory constraints → singular system.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
        .unwrap();
    ckt.add(Element::vdc("V2", a, NodeId::GROUND, Volt(2.0)))
        .unwrap();
    let err = DcAnalysis::new(&ckt).solve().unwrap_err();
    assert!(matches!(err, SpiceError::SingularMatrix { .. }), "{err}");
}

#[test]
fn impossible_iteration_budget_reports_no_convergence() {
    use ferrocim_device::{MosfetModel, MosfetParams};
    // A nonlinear circuit with a 1-iteration budget cannot converge.
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    ckt.add(Element::vdc("VDD", vdd, NodeId::GROUND, Volt(1.2)))
        .unwrap();
    ckt.add(Element::resistor("R", vdd, d, Ohm(1e5))).unwrap();
    ckt.add(Element::mosfet(
        "M1",
        d,
        d,
        NodeId::GROUND,
        MosfetModel::new(MosfetParams::nmos_14nm()),
    ))
    .unwrap();
    let options = NewtonOptions {
        max_iterations: 1,
        ..NewtonOptions::default()
    };
    let err = DcAnalysis::new(&ckt)
        .with_options(options)
        .solve()
        .unwrap_err();
    assert!(
        matches!(err, SpiceError::NoConvergence { iterations: 1, .. }),
        "{err}"
    );
}

#[test]
fn empty_circuit_solves_trivially() {
    let ckt = Circuit::new();
    let op = DcAnalysis::new(&ckt).solve().expect("empty system");
    assert_eq!(op.voltage(NodeId::GROUND), Volt(0.0));
}

#[test]
fn transient_rejects_nan_timestep() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
        .unwrap();
    let err = TransientAnalysis::over(&ckt, Second(1e-9))
        .with_fixed_step(Second(f64::NAN))
        .run()
        .unwrap_err();
    assert!(matches!(err, SpiceError::InvalidValue { .. }));
}

#[test]
fn extreme_temperatures_do_not_break_the_solver() {
    use ferrocim_device::{Fefet, FefetParams, PolarizationState};
    let mut ckt = Circuit::new();
    let bl = ckt.node("bl");
    let wl = ckt.node("wl");
    let out = ckt.node("out");
    ckt.add(Element::vdc("VBL", bl, NodeId::GROUND, Volt(1.2)))
        .unwrap();
    ckt.add(Element::vdc("VWL", wl, NodeId::GROUND, Volt(0.35)))
        .unwrap();
    ckt.add(Element::resistor("R", bl, out, Ohm(2.5e5)))
        .unwrap();
    let mut f = Fefet::new(FefetParams::paper_default());
    f.force_state(PolarizationState::LowVt);
    ckt.add(Element::fefet("F1", out, wl, NodeId::GROUND, f))
        .unwrap();
    // Well outside the paper's range, still must converge cleanly.
    for t in [-40.0, 125.0] {
        let op = DcAnalysis::new(&ckt)
            .at(Celsius(t))
            .solve()
            .expect("solves");
        assert!(op.voltage(out).value().is_finite());
    }
}

#[test]
fn a_transistor_mutated_to_a_non_finite_offset_is_rejected_by_name() {
    use ferrocim_device::{Fefet, FefetParams, MosfetModel, MosfetParams};
    // `Circuit::add` validated both transistors; the mutable accessors
    // then let a NaN threshold offset in after the fact. Every analysis
    // must name the element instead of failing as a singular matrix.
    let build = || {
        let mut ckt = Circuit::new();
        let bl = ckt.node("bl");
        let wl = ckt.node("wl");
        let out = ckt.node("out");
        ckt.add(Element::vdc("VBL", bl, NodeId::GROUND, Volt(1.2)))
            .unwrap();
        ckt.add(Element::vdc("VWL", wl, NodeId::GROUND, Volt(0.35)))
            .unwrap();
        ckt.add(Element::resistor("R", bl, out, Ohm(2.5e5)))
            .unwrap();
        ckt.add(Element::fefet(
            "F1",
            out,
            wl,
            NodeId::GROUND,
            Fefet::new(FefetParams::paper_default()),
        ))
        .unwrap();
        ckt.add(Element::mosfet(
            "M1",
            out,
            wl,
            NodeId::GROUND,
            MosfetModel::new(MosfetParams::nmos_14nm()),
        ))
        .unwrap();
        ckt
    };
    let mut fefet = build();
    fefet
        .fefet_mut("F1")
        .unwrap()
        .set_vth_offset(Volt(f64::NAN));
    let mut mosfet = build();
    match mosfet.element_mut("M1") {
        Some(Element::Mosfet { vth_offset, .. }) => *vth_offset = Volt(f64::INFINITY),
        other => panic!("M1 is not a MOSFET: {other:?}"),
    }
    for (ckt, name) in [(&fefet, "F1"), (&mosfet, "M1")] {
        let dc = DcAnalysis::new(ckt).solve().unwrap_err();
        let tran = TransientAnalysis::over(ckt, Second(1e-9))
            .run()
            .unwrap_err();
        for err in [dc, tran] {
            assert!(
                matches!(&err, SpiceError::InvalidValue { name: n, .. } if n == name),
                "{name}: {err}"
            );
        }
    }
}

#[test]
fn non_finite_source_values_are_rejected_at_add() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    assert!(matches!(
        ckt.add(Element::vdc("VN", a, NodeId::GROUND, Volt(f64::NAN))),
        Err(SpiceError::InvalidValue { .. })
    ));
    assert!(matches!(
        ckt.add(Element::vdc("VI", a, NodeId::GROUND, Volt(f64::INFINITY))),
        Err(SpiceError::InvalidValue { .. })
    ));
    assert!(matches!(
        ckt.add(Element::CurrentSource {
            name: "IN".into(),
            pos: a,
            neg: NodeId::GROUND,
            current: Ampere(f64::NAN),
        }),
        Err(SpiceError::InvalidValue { .. })
    ));
    // The rejected elements must not have been half-added.
    assert!(ckt
        .add(Element::vdc("VN", a, NodeId::GROUND, Volt(1.0)))
        .is_ok());
}

#[test]
fn pwl_waveforms_validate_their_points() {
    assert!(matches!(
        Waveform::pwl(vec![(Second(0.0), Volt(f64::NAN))]),
        Err(SpiceError::InvalidValue { .. })
    ));
    assert!(matches!(
        Waveform::pwl(vec![(Second(f64::NAN), Volt(0.0))]),
        Err(SpiceError::InvalidValue { .. })
    ));
    assert!(matches!(
        Waveform::pwl(vec![(Second(1e-9), Volt(0.0)), (Second(0.5e-9), Volt(1.0))]),
        Err(SpiceError::InvalidValue { .. })
    ));
    assert!(Waveform::pwl(vec![(Second(0.0), Volt(0.0)), (Second(1e-9), Volt(1.0))]).is_ok());
}

/// A 3 V rail through 10 kΩ into two stacked diode-connected NMOS: with
/// the default 0.2 V/iteration step clamp, plain Newton from the zero
/// guess is travel-limited and cannot converge within a small budget.
fn travel_limited_stack() -> (Circuit, NodeId) {
    use ferrocim_device::{MosfetModel, MosfetParams};
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    let m = ckt.node("m");
    ckt.add(Element::vdc("VDD", vdd, NodeId::GROUND, Volt(3.0)))
        .unwrap();
    ckt.add(Element::resistor("R", vdd, d, Ohm(1e4))).unwrap();
    ckt.add(Element::mosfet(
        "M1",
        d,
        d,
        m,
        MosfetModel::new(MosfetParams::nmos_14nm()),
    ))
    .unwrap();
    ckt.add(Element::mosfet(
        "M2",
        m,
        m,
        NodeId::GROUND,
        MosfetModel::new(MosfetParams::nmos_14nm()),
    ))
    .unwrap();
    (ckt, d)
}

#[test]
fn rescue_ladder_recovers_what_plain_newton_cannot() {
    let (ckt, d) = travel_limited_stack();
    let options = NewtonOptions {
        max_iterations: 8,
        ..NewtonOptions::default()
    };
    // With the ladder disabled, the iteration-starved solve fails.
    let err = DcAnalysis::new(&ckt)
        .with_options(options)
        .with_rescue(RescuePolicy::none())
        .solve()
        .unwrap_err();
    assert!(matches!(err, SpiceError::NoConvergence { .. }), "{err}");
    // The default policy escalates through the ladder and converges.
    let op = DcAnalysis::new(&ckt)
        .with_options(options)
        .solve()
        .expect("ladder rescues the solve");
    let report = op.rescue_report();
    assert!(report.was_rescued());
    let rung = report.succeeded_by().expect("some rung succeeded");
    assert!(
        matches!(rung, RescueRung::GminStepping | RescueRung::SourceStepping),
        "unexpected rung {rung}"
    );
    // Every earlier rung must be recorded as a failed attempt.
    assert!(report.attempts.len() > 1);
    assert!(report.attempts.iter().rev().skip(1).all(|a| !a.converged));
    // The rescued solution agrees with an unconstrained plain solve.
    let reference = DcAnalysis::new(&ckt)
        .with_rescue(RescuePolicy::none())
        .solve()
        .expect("500 iterations suffice");
    assert!(!reference.rescue_report().was_rescued());
    assert!((op.voltage(d).value() - reference.voltage(d).value()).abs() < 1e-6);
}

#[test]
fn overflow_reports_numerical_blowup() {
    // An (absurd but finite) source current overflows the solved node
    // voltage to infinity — the solver must name the iteration and
    // unknown rather than propagate non-finite values.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Element::CurrentSource {
        name: "I1".into(),
        pos: a,
        neg: NodeId::GROUND,
        current: Ampere(1e308),
    })
    .unwrap();
    ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e5)))
        .unwrap();
    let err = DcAnalysis::new(&ckt)
        .with_rescue(RescuePolicy::none())
        .solve()
        .unwrap_err();
    assert!(
        matches!(
            err,
            SpiceError::NumericalBlowup {
                iteration: 1,
                unknown: 0
            }
        ),
        "{err}"
    );
    // The default ladder cannot fix an overflow either, and must hand
    // back the original typed error instead of a rescue artifact.
    let err = DcAnalysis::new(&ckt).solve().map(|_| ()).unwrap_err();
    assert!(matches!(err, SpiceError::NumericalBlowup { .. }), "{err}");
}

#[test]
fn panicking_monte_carlo_job_is_contained() {
    let mc = MonteCarlo::new(8, 1234);
    let policy = FailurePolicy::SkipAndReport { max_failures: 1 };
    let report = mc
        .try_run::<f64, SpiceError, _>(&policy, |run, rng| {
            assert!(run != 3, "injected panic in run 3");
            Ok(rng.random::<f64>())
        })
        .expect("one failure is within budget");
    assert_eq!(report.failures, 1);
    assert!(matches!(
        &report.results[3],
        Err(JobError::Panicked { message }) if message.contains("injected panic")
    ));
    // Every other job's value is bitwise identical to a clean run: the
    // per-run RNG stream does not depend on its neighbours' fate.
    let clean: Vec<f64> = mc
        .try_run(&FailurePolicy::FailFast, |_, rng| {
            Ok::<_, Infallible>(rng.random::<f64>())
        })
        .expect("infallible jobs")
        .values()
        .copied()
        .collect();
    for (run, slot) in report.results.iter().enumerate() {
        if run != 3 {
            assert_eq!(slot.as_ref().ok(), Some(&clean[run]), "run {run}");
        }
    }
    // FailFast surfaces the panic as the first failed job.
    let err = mc
        .try_run::<f64, SpiceError, _>(&FailurePolicy::FailFast, |run, rng| {
            assert!(run != 3, "injected panic in run 3");
            Ok(rng.random::<f64>())
        })
        .unwrap_err();
    assert!(matches!(
        err,
        FanOutError::Job {
            index: 3,
            error: JobError::Panicked { .. }
        }
    ));
    // And a zero-tolerance budget converts the panic into a typed
    // too-many-failures error.
    let err = mc
        .try_run::<f64, SpiceError, _>(
            &FailurePolicy::SkipAndReport { max_failures: 0 },
            |run, rng| {
                assert!(run != 3, "injected panic in run 3");
                Ok(rng.random::<f64>())
            },
        )
        .unwrap_err();
    assert!(matches!(
        err,
        FanOutError::TooManyFailures {
            failed: 1,
            max_failures: 0,
            ..
        }
    ));
}

#[test]
fn substitute_policy_completes_with_fallback() {
    let mc = MonteCarlo::new(6, 9).sequential();
    let report = mc
        .try_run(&FailurePolicy::Substitute(-1.0f64), |run, rng| {
            if run % 2 == 0 {
                Err(SpiceError::NoConvergence {
                    iterations: 1,
                    residual: 1.0,
                })
            } else {
                Ok(rng.random::<f64>())
            }
        })
        .expect("substitute never fails");
    assert_eq!(report.failures, 3);
    assert_eq!(report.results.len(), 6);
    for (run, slot) in report.results.iter().enumerate() {
        let value = *slot.as_ref().expect("all substituted");
        if run % 2 == 0 {
            assert_eq!(value, -1.0);
        } else {
            assert!((0.0..1.0).contains(&value));
        }
    }
}

#[test]
fn duplicate_and_unknown_probes_are_typed_errors() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))
        .unwrap();
    assert!(matches!(
        ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(2.0))),
        Err(SpiceError::DuplicateElement { .. })
    ));
    let op = DcAnalysis::new(&ckt).solve().unwrap();
    assert!(matches!(
        op.source_current("VX"),
        Err(SpiceError::UnknownElement { .. })
    ));
}
