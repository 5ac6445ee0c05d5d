//! Contained-panic and budget behaviour of the NN trainer and the
//! CIM-mapped accuracy sweep.

use ferrocim_nn::cim_exec::{CimMapping, CimNetwork, ExecError, IdealMac, MacOracle};
use ferrocim_nn::layers::{Layer, Linear};
use ferrocim_nn::{try_train, Network, Tensor, TrainConfig, TrainError};
use ferrocim_spice::{Budget, CancelToken, SpiceError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_network(rng: &mut StdRng) -> Network {
    Network::new(vec![Layer::Linear(Linear::new(4, 2, rng))])
}

fn labelled_set(n: usize) -> (Vec<Tensor>, Vec<usize>) {
    let inputs = (0..n)
        .map(|i| Tensor::from_vec(&[4], vec![i as f32 * 0.1; 4]))
        .collect();
    let labels = (0..n).map(|i| i % 2).collect();
    (inputs, labels)
}

#[test]
fn try_train_reports_operand_problems_as_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = tiny_network(&mut rng);
    let (inputs, labels) = labelled_set(6);
    let err = try_train(&mut net, &inputs, &labels[..4], &TrainConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        TrainError::LengthMismatch {
            inputs: 6,
            labels: 4
        }
    ));
    let err = try_train(&mut net, &[], &[], &TrainConfig::default()).unwrap_err();
    assert!(matches!(err, TrainError::EmptyTrainingSet));
}

#[test]
fn try_train_contains_worker_panics() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = tiny_network(&mut rng);
    // Inputs of the wrong width make the linear layer panic inside the
    // gradient workers; the panic must surface as a typed error, in
    // both the single-threaded and the fan-out path.
    let bad_inputs: Vec<Tensor> = (0..8)
        .map(|_| Tensor::from_vec(&[7], vec![0.5; 7]))
        .collect();
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    for threads in [1, 4] {
        let config = TrainConfig {
            threads,
            epochs: 1,
            ..TrainConfig::default()
        };
        let err = try_train(&mut net, &bad_inputs, &labels, &config).unwrap_err();
        assert!(
            matches!(err, TrainError::WorkerPanicked { .. }),
            "threads={threads}: {err}"
        );
    }
}

#[test]
fn train_still_learns_after_the_refactor() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut net = tiny_network(&mut rng);
    let (inputs, labels) = labelled_set(16);
    let config = TrainConfig {
        epochs: 2,
        threads: 2,
        ..TrainConfig::default()
    };
    let stats = try_train(&mut net, &inputs, &labels, &config).expect("trains");
    assert_eq!(stats.len(), 2);
}

#[test]
fn cancelled_token_aborts_an_accuracy_sweep() {
    let mut rng = StdRng::seed_from_u64(3);
    let net = tiny_network(&mut rng);
    let cim = CimNetwork::map(&net, CimMapping::default());
    let (inputs, labels) = labelled_set(6);
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel_token(&token);
    let err = cim
        .try_accuracy(&inputs, &labels, &IdealMac(8), 5, &budget)
        .unwrap_err();
    assert!(
        matches!(err, ExecError::Budget(SpiceError::Cancelled)),
        "{err}"
    );
}

#[test]
fn step_budget_bounds_an_accuracy_sweep() {
    let mut rng = StdRng::seed_from_u64(4);
    let net = tiny_network(&mut rng);
    let cim = CimNetwork::map(&net, CimMapping::default());
    let (inputs, labels) = labelled_set(12);
    let budget = Budget::unlimited().with_max_steps(3);
    let err = cim
        .try_accuracy(&inputs, &labels, &IdealMac(8), 5, &budget)
        .unwrap_err();
    assert!(
        matches!(err, ExecError::Budget(SpiceError::BudgetExceeded { .. })),
        "{err}"
    );
}

/// Panics on every read — a hardware model gone wrong.
struct AlwaysPanics;
impl MacOracle for AlwaysPanics {
    fn read(&self, _true_count: usize, _rng: &mut StdRng) -> usize {
        panic!("hardware model exploded");
    }
    fn cells_per_row(&self) -> usize {
        8
    }
}

#[test]
fn try_accuracy_contains_oracle_panics() {
    let mut rng = StdRng::seed_from_u64(5);
    let net = tiny_network(&mut rng);
    let cim = CimNetwork::map(&net, CimMapping::default());
    let (inputs, labels) = labelled_set(4);
    let err = cim
        .try_accuracy(&inputs, &labels, &AlwaysPanics, 5, &Budget::unlimited())
        .unwrap_err();
    match err {
        ExecError::WorkerPanicked { message } => {
            assert!(message.contains("exploded"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn try_accuracy_matches_accuracy_when_ungoverned() {
    let mut rng = StdRng::seed_from_u64(6);
    let net = tiny_network(&mut rng);
    let cim = CimNetwork::map(&net, CimMapping::default());
    let (inputs, labels) = labelled_set(10);
    let plain = cim.accuracy(&inputs, &labels, &IdealMac(8), 9);
    let governed = cim
        .try_accuracy(&inputs, &labels, &IdealMac(8), 9, &Budget::unlimited())
        .unwrap();
    assert_eq!(plain, governed);
}
