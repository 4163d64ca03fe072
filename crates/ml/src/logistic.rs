//! Multinomial logistic regression (softmax regression) with mini-batch SGD.
//!
//! The "LR" row of Table IV. Trained on TF-IDF features with L2 regularisation and a
//! class-weighting option that counteracts the corpus imbalance (SA has 406 posts, VA
//! only 150). The optimiser is plain mini-batch SGD with an inverse-scaling learning
//! rate — on a few thousand sparse-ish TF-IDF features this converges in a couple of
//! hundred epochs and keeps the implementation dependency-free and auditable.

use crate::classifier::Classifier;
use holistix_linalg::{softmax, FeatureMatrix, FeatureRows, Matrix, Rng64};

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone)]
pub struct LogisticRegressionConfig {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 regularisation strength (applied to weights, not the bias).
    pub l2: f64,
    /// Reweight examples inversely to their class frequency.
    pub class_weighted: bool,
    /// RNG seed for shuffling and initialisation.
    pub seed: u64,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            epochs: 200,
            batch_size: 32,
            l2: 1e-4,
            class_weighted: false,
            seed: 42,
        }
    }
}

/// Multinomial logistic regression.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    /// `n_classes × n_features` weight matrix.
    weights: Matrix,
    /// Per-class bias.
    bias: Vec<f64>,
    n_classes: usize,
    name: String,
}

impl LogisticRegression {
    /// New untrained model with the given configuration.
    pub fn new(config: LogisticRegressionConfig) -> Self {
        Self {
            config,
            weights: Matrix::zeros(0, 0),
            bias: Vec::new(),
            n_classes: 0,
            name: "LR".to_string(),
        }
    }

    /// New model with default configuration.
    pub fn default_config() -> Self {
        Self::new(LogisticRegressionConfig::default())
    }

    /// The fitted weight matrix (`n_classes × n_features`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The fitted biases (one per class).
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// The configuration.
    pub fn config(&self) -> &LogisticRegressionConfig {
        &self.config
    }

    fn logits_row<F: FeatureRows>(&self, features: &F, row: usize) -> Vec<f64> {
        (0..self.n_classes)
            .map(|c| features.row_dot(row, self.weights.row(c)) + self.bias[c])
            .collect()
    }

    /// Training loop, generic over the feature representation. Sparse training is
    /// bit-identical to dense: every update the dense path applies for a zero
    /// feature is an exact IEEE-754 identity, so skipping the zeros changes
    /// nothing but the work done.
    fn fit_rows<F: FeatureRows>(&mut self, features: &F, labels: &[usize]) {
        assert_eq!(
            features.n_rows(),
            labels.len(),
            "feature rows {} != label count {}",
            features.n_rows(),
            labels.len()
        );
        assert!(!labels.is_empty(), "cannot fit on an empty training set");
        let n_features = features.n_cols();
        self.n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        self.weights = Matrix::zeros(self.n_classes, n_features);
        self.bias = vec![0.0; self.n_classes];

        // Optional inverse-frequency class weights.
        let mut class_weights = vec![1.0; self.n_classes];
        if self.config.class_weighted {
            let mut counts = vec![0usize; self.n_classes];
            for &l in labels {
                counts[l] += 1;
            }
            let n = labels.len() as f64;
            for (c, &count) in counts.iter().enumerate() {
                class_weights[c] = if count == 0 {
                    0.0
                } else {
                    n / (self.n_classes as f64 * count as f64)
                };
            }
        }

        let mut rng = Rng64::new(self.config.seed);
        let mut order: Vec<usize> = (0..labels.len()).collect();
        let batch = self.config.batch_size.max(1);

        for epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            // Inverse-scaling learning-rate schedule.
            let lr = self.config.learning_rate / (1.0 + 0.01 * epoch as f64);
            for chunk in order.chunks(batch) {
                // Accumulate gradients over the mini-batch.
                let mut grad_w = Matrix::zeros(self.n_classes, n_features);
                let mut grad_b = vec![0.0; self.n_classes];
                for &i in chunk {
                    let probs = softmax(&self.logits_row(features, i));
                    let weight = class_weights[labels[i]];
                    for c in 0..self.n_classes {
                        let indicator = if c == labels[i] { 1.0 } else { 0.0 };
                        let err = (probs[c] - indicator) * weight;
                        if err == 0.0 {
                            continue;
                        }
                        let gw = grad_w.row_mut(c);
                        features.for_each_row_entry(i, |j, xv| gw[j] += err * xv);
                        grad_b[c] += err;
                    }
                }
                let scale = lr / chunk.len() as f64;
                // L2 shrinkage then gradient step.
                if self.config.l2 > 0.0 {
                    let shrink = 1.0 - lr * self.config.l2;
                    self.weights.map_inplace(|w| w * shrink);
                }
                self.weights.add_scaled(&grad_w, -scale);
                for (b, g) in self.bias.iter_mut().zip(&grad_b) {
                    *b -= scale * g;
                }
            }
        }
    }

    fn predict_proba_rows<F: FeatureRows>(&self, features: &F) -> Matrix {
        assert!(self.n_classes > 0, "predict called before fit");
        let mut out = Matrix::zeros(features.n_rows(), self.n_classes);
        for r in 0..features.n_rows() {
            out.set_row(r, &softmax(&self.logits_row(features, r)));
        }
        out
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, features: &Matrix, labels: &[usize]) {
        self.fit_rows(features, labels);
    }

    fn fit_features(&mut self, features: &FeatureMatrix, labels: &[usize]) {
        self.fit_rows(features, labels);
    }

    fn predict_proba(&self, features: &Matrix) -> Matrix {
        self.predict_proba_rows(features)
    }

    fn predict_proba_features(&self, features: &FeatureMatrix) -> Matrix {
        self.predict_proba_rows(features)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny linearly separable 3-class problem.
    fn toy_problem() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f64 * 0.01;
            match i % 3 {
                0 => {
                    rows.push(vec![1.0 + jitter, 0.0, 0.0]);
                    labels.push(0);
                }
                1 => {
                    rows.push(vec![0.0, 1.0 + jitter, 0.0]);
                    labels.push(1);
                }
                _ => {
                    rows.push(vec![0.0, 0.0, 1.0 + jitter]);
                    labels.push(2);
                }
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn learns_linearly_separable_problem() {
        let (x, y) = toy_problem();
        let mut clf = LogisticRegression::default_config();
        clf.fit(&x, &y);
        let preds = clf.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = toy_problem();
        let mut clf = LogisticRegression::default_config();
        clf.fit(&x, &y);
        let proba = clf.predict_proba(&x);
        for r in 0..proba.rows() {
            let s: f64 = proba.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(proba.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (x, y) = toy_problem();
        let mut a = LogisticRegression::default_config();
        let mut b = LogisticRegression::default_config();
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn class_weighting_helps_minority_recall() {
        // Imbalanced problem: class 1 is rare and overlaps class 0.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            rows.push(vec![1.0, 0.1 * (i % 7) as f64]);
            labels.push(0);
        }
        for i in 0..6 {
            rows.push(vec![0.9, 1.0 + 0.1 * i as f64]);
            labels.push(1);
        }
        let x = Matrix::from_rows(&rows);
        let mut unweighted = LogisticRegression::new(LogisticRegressionConfig {
            class_weighted: false,
            ..LogisticRegressionConfig::default()
        });
        let mut weighted = LogisticRegression::new(LogisticRegressionConfig {
            class_weighted: true,
            ..LogisticRegressionConfig::default()
        });
        unweighted.fit(&x, &labels);
        weighted.fit(&x, &labels);
        let recall_minority = |clf: &LogisticRegression| {
            let preds = clf.predict(&x);
            let tp = preds
                .iter()
                .zip(&labels)
                .filter(|(p, l)| **p == 1 && **l == 1)
                .count();
            tp as f64 / 6.0
        };
        assert!(recall_minority(&weighted) >= recall_minority(&unweighted));
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        LogisticRegression::default_config().fit(&Matrix::zeros(0, 3), &[]);
    }

    #[test]
    #[should_panic(expected = "predict called before fit")]
    fn predict_before_fit_panics() {
        let clf = LogisticRegression::default_config();
        let _ = clf.predict_proba(&Matrix::zeros(1, 3));
    }
}
