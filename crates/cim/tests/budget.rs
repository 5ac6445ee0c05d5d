//! Budget and cancellation behaviour of the batched CIM executors.

use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::fault::{CellFault, FaultPlan};
use ferrocim_cim::transfer::{Adc, TransferConfig, TransferModel};
use ferrocim_cim::{ArrayConfig, ArrayEngine, CimArray, CimError, Crossbar, RunContext};
use ferrocim_spice::{
    Budget, BudgetResource, CancelToken, FailurePolicy, FanOutError, JobError, SpiceError,
};
use ferrocim_units::{Celsius, Second};

const ROOM: Celsius = Celsius(27.0);

fn small_array() -> CimArray<TwoTransistorOneFefet> {
    let config = ArrayConfig {
        cells_per_row: 4,
        dt: Second(50e-12),
        ..ArrayConfig::paper_default()
    };
    CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap()
}

fn budgeted(budget: Budget) -> RunContext {
    RunContext {
        budget,
        ..RunContext::default()
    }
}

fn cancelled() -> RunContext {
    let token = CancelToken::new();
    token.cancel();
    budgeted(Budget::unlimited().with_cancel_token(&token))
}

#[test]
fn cancelled_token_aborts_a_mac_batch() {
    let array = small_array().with_context(cancelled());
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap().sequential();
    let err = engine
        .mac_batch(&[vec![true; 4], vec![false; 4]], ROOM)
        .unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::Cancelled)),
        "{err}"
    );
}

#[test]
fn step_budget_bounds_a_mac_batch() {
    // One MAC fits (the job charge plus its transient steps), a batch
    // of distinct inputs does not.
    let array = small_array().with_context(budgeted(Budget::unlimited().with_max_steps(1)));
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap().sequential();
    let inputs: Vec<Vec<bool>> = (0..3).map(|k| (0..4).map(|i| i < k).collect()).collect();
    let err = engine.mac_batch(&inputs, ROOM).unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::BudgetExceeded { .. })),
        "{err}"
    );
}

#[test]
fn try_mac_batch_reports_budget_failures_per_policy() {
    let array = small_array().with_context(cancelled());
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap().sequential();
    // Under SkipAndReport a cancelled batch surfaces per-job typed
    // failures rather than panicking or hanging.
    let report = engine
        .try_mac_batch(
            &[vec![true; 4]],
            ROOM,
            &FailurePolicy::SkipAndReport {
                max_failures: usize::MAX,
            },
        )
        .unwrap();
    assert_eq!(report.failures, 1);
    assert!(matches!(
        report.results[0],
        Err(JobError::Failed(CimError::Spice(SpiceError::Cancelled)))
    ));
    // FailFast turns the same failure into a batch error.
    let err = engine
        .try_mac_batch(&[vec![true; 4]], ROOM, &FailurePolicy::FailFast)
        .unwrap_err();
    assert!(matches!(err, FanOutError::Job { .. }));
}

#[test]
fn cancelled_token_aborts_a_crossbar_matvec() {
    let config = ArrayConfig {
        dt: Second(50e-12),
        ..ArrayConfig::paper_default()
    };
    let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap();
    let xbar = Crossbar::new(array, 2).unwrap().with_context(cancelled());
    let err = xbar.matvec(&[true; 8], ROOM).unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::Cancelled)),
        "{err}"
    );
    let err = xbar.matvec_batch(&[vec![true; 8]], ROOM).unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::Cancelled)),
        "{err}"
    );
}

#[test]
fn unlimited_budget_leaves_batch_results_unchanged() {
    let array = small_array();
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
    let inputs: Vec<Vec<bool>> = (0..3).map(|k| (0..4).map(|i| i < k).collect()).collect();
    let plain = engine.mac_batch(&inputs, ROOM).unwrap();
    let governed_array = array.clone().with_context(budgeted(Budget::unlimited()));
    let governed = ArrayEngine::new(&governed_array, &[true; 4])
        .unwrap()
        .mac_batch(&inputs, ROOM)
        .unwrap();
    assert_eq!(plain, governed);
}

#[test]
fn batch_grid_and_serial_paths_share_the_array_context() {
    let array = small_array().with_context(cancelled());
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap().sequential();
    let inputs = [vec![true; 4], vec![false; 4]];
    let errors = [
        engine.mac_batch(&inputs, ROOM).unwrap_err(),
        engine.mac_batch_grid(&inputs, &[ROOM]).unwrap_err(),
        engine.mac_serial(&inputs, ROOM).unwrap_err(),
    ];
    for err in errors {
        assert!(
            matches!(err, CimError::Spice(SpiceError::Cancelled)),
            "{err}"
        );
    }
}

#[test]
fn crossbar_forwards_its_context_to_faulted_row_clones() {
    let config = ArrayConfig {
        dt: Second(50e-12),
        ..ArrayConfig::paper_default()
    };
    let array = CimArray::new(TwoTransistorOneFefet::paper_default(), config).unwrap();
    // Every row faulted: each row MAC runs on a faulted clone, never on
    // the shared fault-free array.
    let plan = FaultPlan::none(2, 8)
        .with_fault(0, 0, CellFault::StuckAtHvt)
        .unwrap()
        .with_fault(1, 3, CellFault::StuckAtHvt)
        .unwrap();
    let xbar = Crossbar::new(array, 2)
        .unwrap()
        .with_fault_plan(plan)
        .unwrap();
    let err = xbar
        .clone()
        .with_context(cancelled())
        .matvec(&[true; 8], ROOM)
        .unwrap_err();
    assert!(
        matches!(err, CimError::Spice(SpiceError::Cancelled)),
        "{err}"
    );
    // A Newton cap is charged only inside the row solves, so only a
    // clone that received the context can refuse the product.
    let capped = budgeted(Budget::unlimited().with_max_newton_iterations(0));
    let err = xbar
        .with_context(capped)
        .matvec(&[true; 8], ROOM)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CimError::Spice(SpiceError::BudgetExceeded {
                resource: BudgetResource::NewtonIterations { .. }
            })
        ),
        "{err}"
    );
}

#[test]
fn malformed_inputs_are_rejected_before_any_budget_charge() {
    // Every batch form checks widths before it schedules a job, so a
    // malformed input is never charged to the budget.
    let budget = Budget::unlimited().with_max_steps(1_000_000);
    let array = small_array().with_context(budgeted(budget.clone()));
    let engine = ArrayEngine::new(&array, &[true; 4]).unwrap();
    let wide = [vec![true; 7]];
    let report = engine
        .try_mac_batch(
            &wide,
            ROOM,
            &FailurePolicy::SkipAndReport { max_failures: 1 },
        )
        .unwrap();
    assert_eq!(report.failures, 1);
    // The plain form fails the whole batch before solving its
    // well-formed job too.
    assert!(matches!(
        engine.mac_batch(&[vec![true; 4], vec![true; 7]], ROOM),
        Err(CimError::MismatchedOperands { .. })
    ));
    assert_eq!(budget.steps_spent(), 0, "engine charged a rejected input");

    let budget = Budget::unlimited().with_max_steps(1_000_000);
    let xbar = Crossbar::new(small_array(), 2)
        .unwrap()
        .with_context(budgeted(budget.clone()));
    let narrow = [vec![true; 3]];
    let report = xbar
        .try_matvec_batch(
            &narrow,
            ROOM,
            &FailurePolicy::SkipAndReport { max_failures: 1 },
        )
        .unwrap();
    assert_eq!(report.failures, 1);
    assert!(matches!(
        xbar.matvec_batch(&[vec![true; 4], vec![true; 3]], ROOM),
        Err(CimError::MismatchedOperands { .. })
    ));
    assert_eq!(budget.steps_spent(), 0, "crossbar charged a rejected input");
}

/// Steps charged by `f` under a step cap too large to bind (spend is
/// only counted while a cap is configured).
fn steps_spent_by(f: impl FnOnce(RunContext)) -> u64 {
    let counted = Budget::unlimited().with_max_steps(u64::MAX);
    f(budgeted(counted.clone()));
    counted.steps_spent()
}

#[test]
fn transfer_measurement_returns_the_budget_error_of_its_samples() {
    let config = TransferConfig {
        samples_per_level: 2,
        ..TransferConfig::paper_default(ROOM)
    };
    // Size the cap from counted runs: the replica ADC calibration fits,
    // the Monte-Carlo samples that follow it do not.
    let calibration = steps_spent_by(|ctx| {
        Adc::calibrate(&small_array().with_context(ctx), config.temp).unwrap();
    });
    let measurement = steps_spent_by(|ctx| {
        TransferModel::measure(&small_array().with_context(ctx), &config).unwrap();
    });
    assert!(calibration < measurement, "{calibration} vs {measurement}");
    let cap = calibration + (measurement - calibration) / 2;
    let array = small_array().with_context(budgeted(Budget::unlimited().with_max_steps(cap)));
    let err = TransferModel::measure(&array, &config).unwrap_err();
    assert!(
        matches!(
            err,
            CimError::Spice(SpiceError::BudgetExceeded {
                resource: BudgetResource::Steps { .. }
            })
        ),
        "{err}"
    );

    // An unlimited budget changes nothing.
    let unlimited = small_array().with_context(budgeted(Budget::unlimited()));
    assert_eq!(
        TransferModel::measure(&unlimited, &config).unwrap(),
        TransferModel::measure(&small_array(), &config).unwrap()
    );
}
