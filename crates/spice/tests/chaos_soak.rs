//! Chaos soak: deterministic fault injection against the numerical
//! health guardrails.
//!
//! Every injection in this file is derived from a small integer seed
//! through [`ChaosRng`], so a failing case replays exactly. The claim
//! under test is the crate's robustness contract: **no injected fault
//! may produce a silent wrong answer** — every solve either certifies
//! (and then independently re-verifies here), fails with a typed
//! [`SpiceError`] / [`JobError`], or panics inside a fan-out worker
//! where the harness converts it to a typed job failure.
//!
//! The file runs 930 seeded injections:
//! * 600 matrix faults (NaN poison, large perturbations, zeroed pivots)
//!   through both solver backends,
//! * 200 forced factorization failures inside a Monte-Carlo fleet,
//! * 100 panicking fan-out workers,
//! * 30 deadlines expiring mid-transient.

use ferrocim_spice::chaos::{ChaosRng, MatrixFault};
use ferrocim_spice::{
    certify_solution, try_fan_out, Budget, BudgetResource, Circuit, Deadline, DenseLu, Element,
    FailurePolicy, HealthPolicy, JobError, LinearSystem, MonteCarlo, NodeId, RunContext, SparseLu,
    SpiceError, Telemetry, TransientAnalysis, Waveform,
};
use ferrocim_units::{Farad, Ohm, Second, Volt};
use std::time::Duration;

const DIM: usize = 6;

/// Stamps the clean reference system: diagonally dominant, banded,
/// comfortably well-conditioned — every fault is injected on top of it.
fn stamp_reference(system: &mut dyn LinearSystem) {
    system.clear();
    for i in 0..DIM {
        system.add(i, i, reference_diag(i));
        if i + 1 < DIM {
            system.add(i, i + 1, -1.0);
            system.add(i + 1, i, -1.0);
        }
        if i + 2 < DIM {
            system.add(i, i + 2, 0.5);
        }
    }
}

fn reference_diag(i: usize) -> f64 {
    4.0 + i as f64 * 0.25
}

/// Recomputes the componentwise-relative backward error of `x` against
/// the *currently stamped* system — independently of the certification
/// code path, so a bug there cannot vouch for itself.
fn independent_backward_error(system: &mut dyn LinearSystem, b: &[f64], x: &[f64]) -> f64 {
    let n = system.dim();
    let mut y = vec![0.0; n];
    system.matvec_into(x, &mut y);
    let mut rmax = 0.0f64;
    for i in 0..n {
        let r = (b[i] - y[i]).abs();
        if !r.is_finite() {
            return f64::INFINITY;
        }
        rmax = rmax.max(r);
    }
    let xmax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let bmax = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let scale = system.inf_norm() * xmax + bmax;
    if scale == 0.0 {
        if rmax == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        rmax / scale
    }
}

/// 600 seeded matrix faults through both backends: every outcome must
/// be a certified (and here re-verified) solution or a typed error.
#[test]
fn matrix_fault_soak_never_yields_a_silent_wrong_answer() {
    let policy = HealthPolicy::default();
    let tele = Telemetry::off();
    let b: Vec<f64> = (0..DIM).map(|i| 1.0 + i as f64).collect();
    let mut certified = 0usize;
    let mut typed_errors = 0usize;

    for seed in 0..600u64 {
        let mut rng = ChaosRng::new(seed);
        let mut dense;
        let mut sparse;
        let system: &mut dyn LinearSystem = if seed % 2 == 0 {
            dense = DenseLu::with_dim(DIM);
            &mut dense
        } else {
            sparse = SparseLu::with_dim(DIM);
            &mut sparse
        };
        stamp_reference(system);
        let fault = MatrixFault::draw(&mut rng, DIM, reference_diag);
        fault.apply(system);

        let mut x = Vec::new();
        match system.solve_into(&b, &mut x, &tele) {
            Err(SpiceError::SingularMatrix { .. }) => typed_errors += 1,
            Err(other) => panic!("seed {seed}: unexpected solve error {other:?}"),
            Ok(_) => match certify_solution(system, &b, &mut x, &policy) {
                Err(SpiceError::UncertifiedSolve { .. }) => typed_errors += 1,
                Err(other) => panic!("seed {seed}: unexpected certify error {other:?}"),
                Ok(quality) => {
                    // The health layer certified the solve — re-verify
                    // from scratch against the faulted system.
                    assert!(
                        x.iter().all(|v| v.is_finite()),
                        "seed {seed} ({fault:?}): certified solution contains non-finite entries"
                    );
                    let be = independent_backward_error(system, &b, &x);
                    assert!(
                        be <= 1e-8,
                        "seed {seed} ({fault:?}): certified residual {} but independent \
                         backward error {be:e} — silent wrong answer",
                        quality.residual
                    );
                    certified += 1;
                }
            },
        }
    }
    assert_eq!(certified + typed_errors, 600);
    assert!(certified > 0, "some faults must still certify");
    assert!(typed_errors > 0, "some faults must fail typed");
}

/// 200-run Monte-Carlo fleet with factorization failures forced in a
/// deterministic subset of runs: failed runs surface as typed job
/// errors, surviving runs stay bitwise identical to the clean value.
#[test]
fn mc_fleet_survives_forced_factorization_failures() {
    let tele = Telemetry::off();
    let b: Vec<f64> = (0..DIM).map(|i| 1.0 + i as f64).collect();

    // The clean per-run value every healthy run must reproduce exactly.
    let reference = {
        let mut d = DenseLu::with_dim(DIM);
        stamp_reference(&mut d);
        let mut x = Vec::new();
        d.solve_into(&b, &mut x, &tele).unwrap();
        x[0]
    };

    let injected = |run: usize| ChaosRng::new(run as u64 ^ 0xC0FFEE).chance(0.3);
    let mc = MonteCarlo::new(200, 7).sequential();
    let report = mc
        .try_run::<f64, SpiceError, _>(
            &FailurePolicy::SkipAndReport { max_failures: 200 },
            |run, _rng| {
                let mut d = DenseLu::with_dim(DIM);
                stamp_reference(&mut d);
                if injected(run) {
                    // Wipe a whole row: the factorization has no pivot.
                    for c in 0..DIM {
                        let wiped = if c == 2 { reference_diag(2) } else { 0.0 };
                        let current = if c == 2 {
                            wiped
                        } else if c == 1 || c == 3 {
                            -1.0
                        } else if c == 4 {
                            0.5
                        } else {
                            0.0
                        };
                        d.add(2, c, -current);
                    }
                }
                let mut x = Vec::new();
                d.solve_into(&b, &mut x, &Telemetry::off())?;
                certify_solution(&mut d, &b, &mut x, &HealthPolicy::default())?;
                Ok(x[0])
            },
        )
        .unwrap();

    let expected_failures = (0..200).filter(|&r| injected(r)).count();
    assert_eq!(report.failures, expected_failures);
    assert!(expected_failures > 0, "the injection plan must fire");
    for (run, slot) in report.results.iter().enumerate() {
        match slot {
            Ok(v) => {
                assert!(!injected(run), "run {run}: injected fault went unnoticed");
                assert_eq!(
                    v.to_bits(),
                    reference.to_bits(),
                    "run {run}: healthy run diverged from the clean reference"
                );
            }
            Err(JobError::Failed(e)) => {
                assert!(injected(run), "run {run}: spurious failure {e:?}");
                assert!(
                    matches!(
                        e,
                        SpiceError::SingularMatrix { .. } | SpiceError::UncertifiedSolve { .. }
                    ),
                    "run {run}: untyped failure {e:?}"
                );
            }
            Err(JobError::Panicked { message }) => {
                panic!("run {run}: unexpected worker panic: {message}")
            }
        }
    }
}

/// 100 fan-out jobs with a deterministic subset panicking mid-job: the
/// fault-tolerant harness converts each panic to a typed `JobError`
/// and the surviving jobs stay bitwise correct.
#[test]
fn panicking_workers_become_typed_job_errors() {
    let panics = |job: usize| ChaosRng::new(job as u64 ^ 0xDEAD).chance(0.25);
    let expected: Vec<f64> = (0..100).map(|i| (i as f64).sqrt() + 1.0).collect();

    let report = try_fan_out::<_, f64, SpiceError, _, _>(
        100,
        true,
        &FailurePolicy::SkipAndReport { max_failures: 100 },
        || (),
        |(), job| {
            if panics(job) {
                panic!("chaos panic in job {job}");
            }
            Ok((job as f64).sqrt() + 1.0)
        },
    )
    .unwrap();

    let expected_failures = (0..100).filter(|&j| panics(j)).count();
    assert_eq!(report.failures, expected_failures);
    assert!(expected_failures > 0, "the panic plan must fire");
    for (job, slot) in report.results.iter().enumerate() {
        match slot {
            Ok(v) => {
                assert!(!panics(job));
                assert_eq!(v.to_bits(), expected[job].to_bits());
            }
            Err(JobError::Panicked { message }) => {
                assert!(panics(job));
                assert!(
                    message.contains("chaos panic"),
                    "job {job}: panic payload lost: {message}"
                );
            }
            Err(JobError::Failed(e)) => panic!("job {job}: unexpected typed failure {e:?}"),
        }
    }
}

/// 30 deadline expiries injected mid-transient: the budget layer must
/// answer each with its typed wall-clock error.
#[test]
fn expired_deadlines_abort_with_typed_errors() {
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

    for seed in 0..30u64 {
        let budget = Budget::unlimited().with_deadline(Deadline::after(Duration::ZERO));
        let dt = Second(1e-12 * (1.0 + seed as f64 / 30.0));
        let err = TransientAnalysis::over(&ckt, Second(1e-9))
            .with_fixed_step(dt)
            .with_context(RunContext {
                budget,
                ..RunContext::default()
            })
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                SpiceError::BudgetExceeded {
                    resource: BudgetResource::WallClock
                }
            ),
            "seed {seed}: expected a wall-clock abort, got {err:?}"
        );
    }
}
