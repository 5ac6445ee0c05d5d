//! Budget and cancellation behaviour of the batched CIM executors.

use ferrocim_cim::cells::TwoTransistorOneFefet;
use ferrocim_cim::fault::{CellFault, FaultPlan};
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
