//! Classification evaluation metrics: confusion matrices, per-class
//! accuracy, and top-k — the tools for dissecting *where* CIM noise
//! hurts a model rather than just how much.

use crate::network::Network;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A `classes × classes` confusion matrix: `counts[truth][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Builds an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics for zero classes.
    pub fn new(classes: usize) -> ConfusionMatrix {
        assert!(classes > 0, "need at least one class");
        ConfusionMatrix {
            counts: vec![vec![0; classes]; classes],
        }
    }

    /// Records one `(truth, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        self.counts[truth][predicted] += 1;
    }

    /// Accumulates predictions of a network over a labelled set.
    pub fn evaluate(network: &Network, inputs: &[Tensor], labels: &[usize]) -> ConfusionMatrix {
        assert_eq!(inputs.len(), labels.len());
        let classes = labels.iter().copied().max().unwrap_or(0) + 1;
        let mut cm = ConfusionMatrix::new(classes.max(2));
        for (x, &y) in inputs.iter().zip(labels) {
            cm.record(y, network.predict(x));
        }
        cm
    }

    /// The number of classes.
    pub fn classes(&self) -> usize {
        self.counts.len()
    }

    /// The raw counts, `[truth][predicted]`.
    pub fn counts(&self) -> &[Vec<usize>] {
        &self.counts
    }

    /// Total recorded observations.
    pub fn total(&self) -> usize {
        self.counts
            .iter()
            .map(|row| row.iter().sum::<usize>())
            .sum()
    }

    /// Overall accuracy (0 for an empty matrix).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.classes()).map(|c| self.counts[c][c]).sum();
        correct as f64 / total as f64
    }

    /// Recall (per-class accuracy) for one class, or `None` if the class
    /// never appears as truth.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row_total: usize = self.counts[class].iter().sum();
        if row_total == 0 {
            return None;
        }
        Some(self.counts[class][class] as f64 / row_total as f64)
    }

    /// Precision for one class, or `None` if it is never predicted.
    pub fn precision(&self, class: usize) -> Option<f64> {
        let col_total: usize = self.counts.iter().map(|row| row[class]).sum();
        if col_total == 0 {
            return None;
        }
        Some(self.counts[class][class] as f64 / col_total as f64)
    }

    /// The most-confused `(truth, predicted, count)` off-diagonal entry,
    /// or `None` if there are no errors.
    pub fn worst_confusion(&self) -> Option<(usize, usize, usize)> {
        let mut worst = None;
        for (t, row) in self.counts.iter().enumerate() {
            for (p, &c) in row.iter().enumerate() {
                if t != p && c > 0 && worst.map(|(_, _, wc)| c > wc).unwrap_or(true) {
                    worst = Some((t, p, c));
                }
            }
        }
        worst
    }
}

/// Top-k accuracy: the fraction of examples whose true label appears in
/// the k highest logits.
pub fn top_k_accuracy(network: &Network, inputs: &[Tensor], labels: &[usize], k: usize) -> f64 {
    assert_eq!(inputs.len(), labels.len());
    assert!(k > 0, "k must be positive");
    if inputs.is_empty() {
        return 0.0;
    }
    let hits = inputs
        .iter()
        .zip(labels)
        .filter(|(x, &y)| {
            let logits = network.forward(x);
            let mut indexed: Vec<(usize, f32)> =
                logits.data().iter().copied().enumerate().collect();
            indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
            indexed.iter().take(k).any(|&(i, _)| i == y)
        })
        .count();
    hits as f64 / inputs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Linear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matrix_from(entries: &[(usize, usize, usize)], classes: usize) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(classes);
        for &(t, p, n) in entries {
            for _ in 0..n {
                cm.record(t, p);
            }
        }
        cm
    }

    #[test]
    fn accuracy_and_per_class_metrics() {
        // Class 0: 8/10 correct; class 1: 5/10 correct, all errors → 0.
        let cm = matrix_from(&[(0, 0, 8), (0, 1, 2), (1, 1, 5), (1, 0, 5)], 2);
        assert_eq!(cm.total(), 20);
        assert!((cm.accuracy() - 0.65).abs() < 1e-12);
        assert!((cm.recall(0).unwrap() - 0.8).abs() < 1e-12);
        assert!((cm.recall(1).unwrap() - 0.5).abs() < 1e-12);
        assert!((cm.precision(0).unwrap() - 8.0 / 13.0).abs() < 1e-12);
        assert_eq!(cm.worst_confusion(), Some((1, 0, 5)));
    }

    #[test]
    fn empty_and_missing_classes() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.accuracy(), 0.0);
        assert!(cm.recall(2).is_none());
        assert!(cm.precision(1).is_none());
        assert!(cm.worst_confusion().is_none());
    }

    #[test]
    fn evaluate_matches_network_accuracy() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new(vec![Layer::Linear(Linear::new(4, 3, &mut rng))]);
        let inputs: Vec<Tensor> = (0..30)
            .map(|i| Tensor::from_vec(&[4], vec![i as f32 * 0.1, 0.3, -0.2, 0.5]))
            .collect();
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let cm = ConfusionMatrix::evaluate(&net, &inputs, &labels);
        assert!((cm.accuracy() - net.accuracy(&inputs, &labels)).abs() < 1e-12);
        assert_eq!(cm.total(), 30);
    }

    #[test]
    fn top_k_is_monotone_in_k() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network::new(vec![Layer::Linear(Linear::new(4, 5, &mut rng))]);
        let inputs: Vec<Tensor> = (0..20)
            .map(|i| Tensor::from_vec(&[4], vec![(i as f32).sin(), 0.2, -0.4, 0.9]))
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 5).collect();
        let t1 = top_k_accuracy(&net, &inputs, &labels, 1);
        let t3 = top_k_accuracy(&net, &inputs, &labels, 3);
        let t5 = top_k_accuracy(&net, &inputs, &labels, 5);
        assert!(t1 <= t3 && t3 <= t5);
        assert!((t5 - 1.0).abs() < 1e-12, "k = classes must be perfect");
        assert!((t1 - net.accuracy(&inputs, &labels)).abs() < 1e-12);
    }
}
