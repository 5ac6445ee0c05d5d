//! Telemetry consistency: the counts an [`Aggregator`] accumulates from
//! an instrumented run must match, bitwise, the reports the simulator
//! returns about that same run (`StepReport`, `RescueReport`,
//! `FanOutReport`) — and per-thread aggregators merged after a parallel
//! fan-out must equal the single shared-aggregator total.

use ferrocim_device::{MosfetModel, MosfetParams};
use ferrocim_spice::{
    try_fan_out, Circuit, DcAnalysis, Element, FailurePolicy, MonteCarlo, NewtonOptions, NodeId,
    TransientAnalysis, Waveform,
};
use ferrocim_telemetry::{Aggregator, Event, Telemetry};
use ferrocim_units::{Farad, Ohm, Second, Volt};
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

/// A pulsed RC divider: the fast edges force the adaptive controller to
/// shrink and re-grow its step, so the run has both accepted and
/// rejected steps to count.
fn pulsed_rc() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.add(Element::vsource(
        "V1",
        a,
        NodeId::GROUND,
        Waveform::Pulse {
            v0: Volt(0.0),
            v1: Volt(1.0),
            delay: Second(0.2e-9),
            rise: Second(5e-12),
            width: Second(1e-9),
            fall: Second(5e-12),
        },
    ))
    .unwrap();
    ckt.add(Element::resistor("R1", a, out, Ohm(1e3))).unwrap();
    ckt.add(Element::capacitor("C1", out, NodeId::GROUND, Farad(1e-12)))
        .unwrap();
    ckt
}

/// A 3 V rail through 10 kΩ into two stacked diode-connected NMOS:
/// travel-limited for plain Newton under a small iteration budget, so
/// the default rescue ladder must climb (same stack as the
/// `failure_injection` suite).
fn travel_limited_stack() -> Circuit {
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
    ckt
}

#[test]
fn adaptive_transient_counts_match_the_step_report() {
    let agg = Arc::new(Aggregator::new());
    let ckt = pulsed_rc();
    let res = TransientAnalysis::over(&ckt, Second(3e-9))
        .with_recorder(Telemetry::new(agg.clone()))
        .run()
        .expect("pulsed RC is benign");
    let report = res.step_report();
    let counts = agg.counts();
    assert!(report.accepted > 0);
    assert_eq!(counts.steps_accepted, report.accepted as u64);
    assert_eq!(counts.steps_rejected, report.rejected as u64);
    assert_eq!(counts.rescues_succeeded, report.rescued as u64);
    // Every accepted step converged at least one Newton solve, and a
    // converged solve records at least one iteration.
    assert!(counts.newton_converged >= counts.steps_accepted);
    assert!(counts.newton_iters >= counts.newton_converged);
}

#[test]
fn rescued_dc_solve_counts_match_the_rescue_report() {
    let agg = Arc::new(Aggregator::new());
    let ckt = travel_limited_stack();
    let op = DcAnalysis::new(&ckt)
        .with_options(NewtonOptions {
            max_iterations: 8,
            ..NewtonOptions::default()
        })
        .with_recorder(Telemetry::new(agg.clone()))
        .solve()
        .expect("the ladder rescues the solve");
    let report = op.rescue_report();
    assert!(report.was_rescued());
    let counts = agg.counts();
    // One RescueAttempt event per recorded rung attempt, and exactly
    // the final one succeeded.
    assert_eq!(counts.rescue_attempts, report.attempts.len() as u64);
    assert_eq!(
        counts.rescues_succeeded,
        report.attempts.iter().filter(|a| a.converged).count() as u64
    );
    assert_eq!(counts.rescues_succeeded, 1);
}

#[test]
fn parallel_monte_carlo_counts_match_the_fan_out_report() {
    const RUNS: usize = 24;
    let agg = Arc::new(Aggregator::new());
    let report = MonteCarlo::new(RUNS, 0xBEEF)
        .with_recorder(Telemetry::new(agg.clone()))
        .try_run(
            &FailurePolicy::SkipAndReport { max_failures: RUNS },
            |run, _rng| {
                if (run + 1).is_multiple_of(4) {
                    Err(format!("synthetic failure in run {run}"))
                } else {
                    Ok(run as f64)
                }
            },
        )
        .expect("SkipAndReport tolerates the failures");
    let counts = agg.counts();
    assert_eq!(counts.mc_runs_started, RUNS as u64);
    assert_eq!(counts.mc_runs_failed, report.failures as u64);
    assert_eq!(counts.mc_runs_ok, (RUNS - report.failures) as u64);
}

#[test]
fn merged_per_thread_aggregators_equal_the_shared_total() {
    const JOBS: usize = 64;
    // Per-worker aggregators: each fan-out thread records into its own
    // (created by `init`, registered in the shared list), so no event
    // crosses a thread boundary until the final merge.
    let locals: Mutex<Vec<Arc<Aggregator>>> = Mutex::new(Vec::new());
    let emit = |tele: &Telemetry, job: usize| {
        tele.record(&Event::McRunStarted { run: job as u64 });
        tele.record(&Event::NewtonConverged { iterations: 3 });
        tele.record(&Event::McRunDone {
            run: job as u64,
            ok: !job.is_multiple_of(3),
        });
    };
    try_fan_out(
        JOBS,
        true,
        &FailurePolicy::FailFast,
        || {
            let agg = Arc::new(Aggregator::new());
            locals.lock().expect("no poison").push(agg.clone());
            Telemetry::new(agg)
        },
        |tele, job| {
            emit(tele, job);
            Ok::<_, Infallible>(())
        },
    )
    .expect("infallible jobs");
    let merged = Aggregator::new();
    for local in locals.lock().expect("no poison").iter() {
        merged.merge_from(local);
    }

    // Reference: the same event stream recorded into one shared
    // aggregator sequentially.
    let shared = Arc::new(Aggregator::new());
    let tele = Telemetry::new(shared.clone());
    for job in 0..JOBS {
        emit(&tele, job);
    }

    assert_eq!(merged.counts(), shared.counts());
    assert_eq!(merged.counts().mc_runs_started, JOBS as u64);
    assert_eq!(
        merged.newton_histogram().counts(),
        shared.newton_histogram().counts()
    );
    assert_eq!(merged.newton_histogram().total(), JOBS as u64);
}

#[test]
fn mc_fleet_reuses_one_symbolic_analysis_across_runs() {
    use ferrocim_spice::{SolverConfig, Workspace};
    use rand::Rng as _;
    // A fixed-topology resistor ladder, wide enough that the sparse
    // backend has real work to analyze. Every Monte-Carlo run perturbs
    // only element *values*, so the pattern — and therefore the one
    // symbolic analysis — must be shared by the whole fleet.
    let n = 12;
    let mut base = Circuit::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| base.node(&format!("n{i}"))).collect();
    base.add(Element::vdc("V1", nodes[0], NodeId::GROUND, Volt(1.0)))
        .unwrap();
    for i in 0..n {
        let next = if i + 1 < n {
            nodes[i + 1]
        } else {
            NodeId::GROUND
        };
        base.add(Element::resistor(format!("R{i}"), nodes[i], next, Ohm(1e3)))
            .unwrap();
    }
    let agg = Arc::new(Aggregator::new());
    let tele = Telemetry::new(agg.clone());
    let ws = Mutex::new(Workspace::with_solver(SolverConfig::sparse()));
    let runs = 16;
    let fleet = MonteCarlo::new(runs, 0xfe_f37)
        .sequential()
        .with_recorder(tele.clone());
    let outs = fleet
        .try_run(&FailurePolicy::FailFast, |_run, rng| {
            let mut ckt = base.clone();
            for i in 0..n {
                if let Some(Element::Resistor { resistance, .. }) =
                    ckt.element_mut(&format!("R{i}"))
                {
                    *resistance = Ohm(1e3 * (1.0 + 0.2 * rng.random::<f64>()));
                }
            }
            let mut ws = ws.lock().expect("no poisoned lock");
            Ok::<_, Infallible>(
                DcAnalysis::new(&ckt)
                    .with_recorder(tele.clone())
                    .solve_in(&mut ws)
                    .expect("a resistor ladder converges")
                    .voltage(nodes[n - 1])
                    .value(),
            )
        })
        .expect("infallible jobs");
    assert_eq!(outs.results.len(), runs);
    let counts = agg.counts();
    // At least one linear solve per run happened through the recorder…
    assert!(counts.solver_solves >= runs as u64);
    // …but the symbolic analysis ran exactly once for the entire fleet.
    assert_eq!(counts.solver_symbolic, 1);
    let ws = ws.into_inner().expect("no poisoned lock");
    assert_eq!(
        ws.sparse_factor_counts(),
        Some((1, counts.solver_solves)),
        "workspace factor counters must match the telemetry view"
    );
}
