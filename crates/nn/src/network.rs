//! Sequential networks, the softmax cross-entropy loss, and a
//! data-parallel minibatch SGD trainer.

use crate::layers::{Cache, Layer, Mode, ParamGrads};
use crate::tensor::Tensor;
use ferrocim_spice::{try_fan_out, FailurePolicy, FanOutError, JobError};
use ferrocim_telemetry::{Event, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A feed-forward network: layers applied in sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Builds a network from layers.
    pub fn new(layers: Vec<Layer>) -> Network {
        Network { layers }
    }

    /// The layers (e.g. for CIM mapping or inspection).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Conv2d(c) => c.weight.len() + c.bias.len(),
                Layer::Linear(l) => l.weight.len() + l.bias.len(),
                _ => 0,
            })
            .sum()
    }

    /// Inference forward pass (dropout disabled).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut rng = StdRng::seed_from_u64(0); // unused in Eval mode
        let mut h = x.clone();
        for layer in &self.layers {
            let (out, _) = layer.forward(&h, Mode::Eval, &mut rng);
            h = out;
        }
        h
    }

    /// Predicted class index for an input.
    pub fn predict(&self, x: &Tensor) -> usize {
        self.forward(x).argmax()
    }

    /// Training forward pass, keeping per-layer caches.
    fn forward_train<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> (Tensor, Vec<Cache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&h, Mode::Train, rng);
            caches.push(cache);
            h = out;
        }
        (h, caches)
    }

    /// Computes the loss and parameter gradients for one example.
    fn grads_for<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        label: usize,
        rng: &mut R,
    ) -> (f32, Vec<Option<ParamGrads>>) {
        let (logits, caches) = self.forward_train(x, rng);
        let (loss, mut grad) = softmax_cross_entropy(&logits, label);
        let mut grads: Vec<Option<ParamGrads>> = Vec::with_capacity(self.layers.len());
        for (layer, cache) in self.layers.iter().zip(&caches).rev() {
            let (dx, pg) = layer.backward(&grad, cache);
            grads.push(pg);
            grad = dx;
        }
        grads.reverse();
        (loss, grads)
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, inputs: &[Tensor], labels: &[usize]) -> f64 {
        assert_eq!(inputs.len(), labels.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let hits = inputs
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        hits as f64 / inputs.len() as f64
    }
}

/// Softmax cross-entropy: returns the loss and `∂L/∂logits`.
pub fn softmax_cross_entropy(logits: &Tensor, label: usize) -> (f32, Tensor) {
    let max = logits
        .data()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.data().iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let mut grad = Tensor::zeros(logits.shape());
    for (i, g) in grad.data_mut().iter_mut().enumerate() {
        *g = exps[i] / sum - if i == label { 1.0 } else { 0.0 };
    }
    let loss = -(exps[label] / sum).ln();
    (loss, grad)
}

/// The parameter-update rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Optimizer {
    /// Stochastic gradient descent with classical momentum.
    Sgd {
        /// Momentum coefficient (0 disables momentum).
        momentum: f32,
    },
    /// Adam (Kingma & Ba, 2015) with bias correction.
    Adam {
        /// First-moment decay rate.
        beta1: f32,
        /// Second-moment decay rate.
        beta2: f32,
        /// Denominator stabilizer.
        epsilon: f32,
    },
}

impl Optimizer {
    /// Adam with the canonical hyperparameters (0.9, 0.999, 1e-8).
    pub fn adam() -> Optimizer {
        Optimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::Sgd { momentum: 0.9 }
    }
}

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Per-epoch multiplicative learning-rate decay (1.0 = constant).
    pub lr_decay: f32,
    /// The parameter-update rule.
    pub optimizer: Optimizer,
    /// Minibatch size.
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// RNG seed (shuffling, dropout).
    pub seed: u64,
    /// Number of chunks each minibatch splits into for data-parallel
    /// gradient computation (each chunk draws its own dropout seed).
    /// The chunks run on up to `available_parallelism` threads; the
    /// result depends only on the chunk count, never on the threads.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.02,
            lr_decay: 0.9,
            optimizer: Optimizer::default(),
            batch_size: 32,
            epochs: 10,
            seed: 42,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Per-layer optimizer state.
struct OptState {
    /// Momentum velocity (SGD) or first moment (Adam).
    m: ParamGrads,
    /// Second moment (Adam only).
    v: Option<ParamGrads>,
    /// Step counter for Adam bias correction.
    t: u32,
}

impl OptState {
    fn new(template: &ParamGrads, adam: bool) -> OptState {
        let zeros = ParamGrads {
            weight: Tensor::zeros(template.weight.shape()),
            bias: Tensor::zeros(template.bias.shape()),
        };
        OptState {
            v: adam.then(|| ParamGrads {
                weight: Tensor::zeros(template.weight.shape()),
                bias: Tensor::zeros(template.bias.shape()),
            }),
            m: zeros,
            t: 0,
        }
    }

    /// Computes the update to apply (already scaled for `apply_grads`
    /// with learning rate 1·lr) from the batch-mean gradient.
    fn update(&mut self, grad: &ParamGrads, optimizer: Optimizer) -> ParamGrads {
        match optimizer {
            Optimizer::Sgd { momentum } => {
                self.m.weight.scale(momentum);
                self.m.weight.add_assign(&grad.weight);
                self.m.bias.scale(momentum);
                self.m.bias.add_assign(&grad.bias);
                ParamGrads {
                    weight: self.m.weight.clone(),
                    bias: self.m.bias.clone(),
                }
            }
            Optimizer::Adam {
                beta1,
                beta2,
                epsilon,
            } => {
                self.t += 1;
                let v = self.v.get_or_insert_with(|| ParamGrads {
                    weight: Tensor::zeros(grad.weight.shape()),
                    bias: Tensor::zeros(grad.bias.shape()),
                });
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                let mut out = ParamGrads {
                    weight: Tensor::zeros(grad.weight.shape()),
                    bias: Tensor::zeros(grad.bias.shape()),
                };
                for ((m, vv), (g, o)) in self
                    .m
                    .weight
                    .data_mut()
                    .iter_mut()
                    .zip(v.weight.data_mut())
                    .zip(grad.weight.data().iter().zip(out.weight.data_mut()))
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *vv = beta2 * *vv + (1.0 - beta2) * g * g;
                    *o = (*m / bc1) / ((*vv / bc2).sqrt() + epsilon);
                }
                for ((m, vv), (g, o)) in self
                    .m
                    .bias
                    .data_mut()
                    .iter_mut()
                    .zip(v.bias.data_mut())
                    .zip(grad.bias.data().iter().zip(out.bias.data_mut()))
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *vv = beta2 * *vv + (1.0 - beta2) * g * g;
                    *o = (*m / bc1) / ((*vv / bc2).sqrt() + epsilon);
                }
                out
            }
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f64,
    /// Training-set accuracy measured after the epoch.
    pub train_accuracy: f64,
}

/// Typed failures of [`try_train`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrainError {
    /// `inputs` and `labels` had different lengths.
    LengthMismatch {
        /// Number of input tensors.
        inputs: usize,
        /// Number of labels.
        labels: usize,
    },
    /// The training set was empty.
    EmptyTrainingSet,
    /// A gradient worker panicked (e.g. a poisoned layer or a numeric
    /// assertion inside backprop). The panic is contained: the network
    /// is left as of the last completed batch, and the payload message
    /// is carried here instead of unwinding through the trainer.
    WorkerPanicked {
        /// The panic payload, rendered to a string when possible.
        message: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::LengthMismatch { inputs, labels } => {
                write!(f, "inputs ({inputs}) and labels ({labels}) lengths differ")
            }
            TrainError::EmptyTrainingSet => write!(f, "empty training set"),
            TrainError::WorkerPanicked { message } => {
                write!(f, "gradient worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Folds a fan-out failure under [`FailurePolicy::FailFast`] into the
/// crate's error type: a typed failure passes through, and a panicked
/// job becomes `panicked(message)`.
pub(crate) fn fail_fast_error<E>(err: FanOutError<E>, panicked: fn(String) -> E) -> E {
    let error = match err {
        FanOutError::Job { error, .. } => error,
        FanOutError::TooManyFailures { first, .. } => *first,
    };
    match error {
        JobError::Failed(e) => e,
        JobError::Panicked { message } => panicked(message),
    }
}

/// Trains the network in place with minibatch SGD + momentum, returning
/// per-epoch statistics. Gradients within a batch are computed in
/// parallel over [`TrainConfig::threads`] chunks. Worker panics are
/// contained and surfaced as [`TrainError::WorkerPanicked`], and operand
/// problems are typed errors rather than panics.
///
/// # Errors
///
/// See [`TrainError`].
pub fn try_train(
    network: &mut Network,
    inputs: &[Tensor],
    labels: &[usize],
    config: &TrainConfig,
) -> Result<Vec<EpochStats>, TrainError> {
    try_train_recorded(network, inputs, labels, config, &Telemetry::off())
}

/// [`try_train`] with a telemetry handle: one [`Event::EpochDone`] is
/// emitted per completed epoch, carrying the same loss and accuracy
/// pushed into the returned [`EpochStats`].
///
/// `TrainConfig` stays a plain `Copy + Serialize` value, so the handle
/// is a separate argument rather than a config field.
///
/// # Errors
///
/// See [`TrainError`].
pub fn try_train_recorded(
    network: &mut Network,
    inputs: &[Tensor],
    labels: &[usize],
    config: &TrainConfig,
    tele: &Telemetry,
) -> Result<Vec<EpochStats>, TrainError> {
    if inputs.len() != labels.len() {
        return Err(TrainError::LengthMismatch {
            inputs: inputs.len(),
            labels: labels.len(),
        });
    }
    if inputs.is_empty() {
        return Err(TrainError::EmptyTrainingSet);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_layers = network.layers().len();
    // Optimizer state per parameterized layer.
    let mut states: Vec<Option<OptState>> = (0..n_layers).map(|_| None).collect();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut stats = Vec::with_capacity(config.epochs);
    let mut lr = config.learning_rate;
    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut total_loss = 0.0f64;
        for batch in order.chunks(config.batch_size) {
            let (loss, grads) = batch_grads(network, inputs, labels, batch, &mut rng, config)?;
            total_loss += loss;
            let scale = 1.0 / batch.len() as f32;
            for (li, g) in grads.into_iter().enumerate() {
                let Some(mut g) = g else { continue };
                g.weight.scale(scale);
                g.bias.scale(scale);
                let adam = matches!(config.optimizer, Optimizer::Adam { .. });
                let state = states[li].get_or_insert_with(|| OptState::new(&g, adam));
                let update = state.update(&g, config.optimizer);
                network.layers_mut()[li].apply_grads(&update, lr);
            }
        }
        lr *= config.lr_decay;
        let train_accuracy = network.accuracy(inputs, labels);
        let loss = total_loss / inputs.len() as f64;
        stats.push(EpochStats {
            epoch,
            loss,
            train_accuracy,
        });
        let epoch_index = epoch as u64;
        tele.emit(|| Event::EpochDone {
            epoch: epoch_index,
            loss,
            accuracy: train_accuracy,
        });
    }
    Ok(stats)
}

/// Computes summed gradients over a batch. The batch splits into
/// `config.threads` chunks, each one fan-out job with its own dropout
/// seed; chunk results are summed in chunk order, so the result does
/// not depend on how many threads actually run the chunks.
fn batch_grads(
    network: &Network,
    inputs: &[Tensor],
    labels: &[usize],
    batch: &[usize],
    rng: &mut StdRng,
    config: &TrainConfig,
) -> Result<(f64, Vec<Option<ParamGrads>>), TrainError> {
    let chunks = config.threads.max(1).min(batch.len());
    let dropout_seed: u64 = rng.random();
    let parts: Vec<&[usize]> = batch.chunks(batch.len().div_ceil(chunks)).collect();
    // Worker panics are contained, so a flaky layer surfaces as a typed
    // error instead of unwinding through the trainer.
    let report = try_fan_out(
        parts.len(),
        true,
        &FailurePolicy::FailFast,
        || (),
        |(), t| {
            let seed = dropout_seed ^ (t as u64) << 17;
            Ok(worker(network, inputs, labels, parts[t], seed))
        },
    )
    .map_err(|e| fail_fast_error(e, |message| TrainError::WorkerPanicked { message }))?;
    let mut total_loss = 0.0;
    let mut acc: Vec<Option<ParamGrads>> = vec![None; network.layers().len()];
    for (loss, grads) in report.results.into_iter().filter_map(Result::ok) {
        total_loss += loss;
        add_grads(&mut acc, grads);
    }
    Ok((total_loss, acc))
}

fn worker(
    network: &Network,
    inputs: &[Tensor],
    labels: &[usize],
    part: &[usize],
    seed: u64,
) -> (f64, Vec<Option<ParamGrads>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total_loss = 0.0f64;
    let mut acc: Vec<Option<ParamGrads>> = vec![None; network.layers().len()];
    for &idx in part {
        let (loss, grads) = network.grads_for(&inputs[idx], labels[idx], &mut rng);
        total_loss += loss as f64;
        add_grads(&mut acc, grads);
    }
    (total_loss, acc)
}

/// Adds per-layer gradients into a running sum (layers without
/// parameters stay `None`).
fn add_grads(acc: &mut [Option<ParamGrads>], grads: Vec<Option<ParamGrads>>) {
    for (slot, g) in acc.iter_mut().zip(grads) {
        match (slot.as_mut(), g) {
            (Some(s), Some(g)) => {
                s.weight.add_assign(&g.weight);
                s.bias.add_assign(&g.bias);
            }
            (None, Some(g)) => *slot = Some(g),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;

    #[test]
    fn softmax_cross_entropy_grad_sums_to_zero() {
        let logits = Tensor::from_vec(&[4], vec![1.0, 2.0, 0.5, -1.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, 1);
        assert!(loss > 0.0);
        let s: f32 = grad.data().iter().sum();
        assert!(s.abs() < 1e-6);
        // The true class has a negative gradient (push its logit up).
        assert!(grad.data()[1] < 0.0);
    }

    #[test]
    fn perfect_logits_give_near_zero_loss() {
        let logits = Tensor::from_vec(&[3], vec![20.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&logits, 0);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn linear_network_learns_a_separable_problem() {
        // Two Gaussian blobs in 2-D; a linear classifier must separate
        // them quickly.
        let mut rng = StdRng::seed_from_u64(3);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let cls = i % 2;
            let cx = if cls == 0 { -1.0 } else { 1.0 };
            inputs.push(Tensor::from_vec(
                &[2],
                vec![
                    cx + rng.random_range(-0.3..0.3),
                    cx + rng.random_range(-0.3..0.3),
                ],
            ));
            labels.push(cls);
        }
        let mut net = Network::new(vec![Layer::Linear(Linear::new(2, 2, &mut rng))]);
        let config = TrainConfig {
            epochs: 15,
            batch_size: 16,
            learning_rate: 0.2,
            threads: 2,
            ..TrainConfig::default()
        };
        let stats = try_train(&mut net, &inputs, &labels, &config).expect("trains");
        let final_acc = stats.last().unwrap().train_accuracy;
        assert!(final_acc > 0.98, "accuracy {final_acc}");
        // Loss decreased.
        assert!(stats.last().unwrap().loss < stats[0].loss);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let inputs: Vec<Tensor> = (0..20)
            .map(|i| Tensor::from_vec(&[3], vec![i as f32 * 0.1, 0.5, -0.2]))
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let build = |rng: &mut StdRng| Network::new(vec![Layer::Linear(Linear::new(3, 2, rng))]);
        let config = TrainConfig {
            epochs: 3,
            threads: 1,
            ..TrainConfig::default()
        };
        let mut a = build(&mut rng.clone());
        let mut b = build(&mut rng);
        let sa = try_train(&mut a, &inputs, &labels, &config).expect("trains");
        let sb = try_train(&mut b, &inputs, &labels, &config).expect("trains");
        assert_eq!(sa, sb);
        assert_eq!(a, b);
    }

    #[test]
    fn adam_learns_the_separable_problem_too() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let cls = i % 2;
            let cx = if cls == 0 { -1.0 } else { 1.0 };
            inputs.push(Tensor::from_vec(
                &[2],
                vec![
                    cx + rng.random_range(-0.3..0.3),
                    cx + rng.random_range(-0.3..0.3),
                ],
            ));
            labels.push(cls);
        }
        let mut net = Network::new(vec![Layer::Linear(Linear::new(2, 2, &mut rng))]);
        let config = TrainConfig {
            epochs: 10,
            batch_size: 16,
            learning_rate: 0.05,
            optimizer: Optimizer::adam(),
            threads: 1,
            ..TrainConfig::default()
        };
        let stats = try_train(&mut net, &inputs, &labels, &config).expect("trains");
        let final_acc = stats.last().unwrap().train_accuracy;
        assert!(final_acc > 0.97, "adam accuracy {final_acc}");
    }

    #[test]
    fn parameter_count_is_correct() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new(vec![
            Layer::Linear(Linear::new(10, 5, &mut rng)),
            Layer::Relu,
            Layer::Linear(Linear::new(5, 2, &mut rng)),
        ]);
        assert_eq!(net.parameter_count(), 10 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn recorded_training_emits_one_epoch_event_per_epoch() {
        use ferrocim_telemetry::Aggregator;
        use std::sync::Arc;
        let mut rng = StdRng::seed_from_u64(8);
        let inputs: Vec<Tensor> = (0..12)
            .map(|i| Tensor::from_vec(&[3], vec![i as f32 * 0.1, 0.2, -0.1]))
            .collect();
        let labels: Vec<usize> = (0..12).map(|i| i % 2).collect();
        let mut net = Network::new(vec![Layer::Linear(Linear::new(3, 2, &mut rng))]);
        let config = TrainConfig {
            epochs: 4,
            threads: 1,
            ..TrainConfig::default()
        };
        let agg = Arc::new(Aggregator::new());
        let tele = Telemetry::new(agg.clone());
        let stats = try_train_recorded(&mut net, &inputs, &labels, &config, &tele).expect("trains");
        assert_eq!(stats.len(), 4);
        assert_eq!(agg.counts().epochs_done, 4);
    }

    #[test]
    fn adam_state_recovers_a_missing_second_moment() {
        // The optimizer state lazily materializes `v`, so an Adam
        // update on SGD-initialized state works instead of panicking.
        let grad = ParamGrads {
            weight: Tensor::from_vec(&[2], vec![0.1, -0.2]),
            bias: Tensor::from_vec(&[1], vec![0.05]),
        };
        let mut state = OptState::new(&grad, false);
        assert!(state.v.is_none());
        let update = state.update(&grad, Optimizer::adam());
        assert!(state.v.is_some());
        assert!(update.weight.data().iter().all(|u| u.is_finite()));
    }
}
