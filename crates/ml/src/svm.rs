//! One-vs-rest linear SVM trained with SGD on the hinge loss.
//!
//! The "Linear SVM" row of Table IV. Each class gets a binary hinge-loss classifier
//! against the rest (the strategy scikit-learn's `LinearSVC` uses for multi-class);
//! prediction takes the class with the largest decision value. Probability estimates —
//! needed so the SVM can plug into the shared [`Classifier`] interface and into LIME —
//! come from a softmax over the decision values, which preserves the argmax.

use crate::classifier::Classifier;
use holistix_linalg::{softmax, FeatureMatrix, FeatureRows, Matrix, Rng64};

/// Hyper-parameters for [`LinearSvm`].
#[derive(Debug, Clone)]
pub struct LinearSvmConfig {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Hinge margin (1.0 for the standard SVM loss).
    pub margin: f64,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for LinearSvmConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            epochs: 200,
            l2: 1e-4,
            margin: 1.0,
            seed: 42,
        }
    }
}

/// One-vs-rest linear SVM.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    config: LinearSvmConfig,
    /// `n_classes × n_features` weights (one binary separator per class).
    weights: Matrix,
    bias: Vec<f64>,
    n_classes: usize,
    name: String,
}

impl LinearSvm {
    /// New untrained model.
    pub fn new(config: LinearSvmConfig) -> Self {
        Self {
            config,
            weights: Matrix::zeros(0, 0),
            bias: Vec::new(),
            n_classes: 0,
            name: "Linear SVM".to_string(),
        }
    }

    /// New model with default configuration.
    pub fn default_config() -> Self {
        Self::new(LinearSvmConfig::default())
    }

    /// The per-class decision values for every row of `features`.
    pub fn decision_function(&self, features: &Matrix) -> Matrix {
        self.decision_rows(features)
    }

    /// Decision values, generic over the feature representation.
    fn decision_rows<F: FeatureRows>(&self, features: &F) -> Matrix {
        assert!(self.n_classes > 0, "decision_function called before fit");
        let mut out = Matrix::zeros(features.n_rows(), self.n_classes);
        for r in 0..features.n_rows() {
            for c in 0..self.n_classes {
                out[(r, c)] = features.row_dot(r, self.weights.row(c)) + self.bias[c];
            }
        }
        out
    }

    /// Training loop, generic over the feature representation; the sparse path is
    /// bit-identical to the dense one (zero-feature updates are exact IEEE-754
    /// identities).
    fn fit_rows<F: FeatureRows>(&mut self, features: &F, labels: &[usize]) {
        assert_eq!(
            features.n_rows(),
            labels.len(),
            "feature/label length mismatch"
        );
        assert!(!labels.is_empty(), "cannot fit on an empty training set");
        let n_features = features.n_cols();
        self.n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        self.weights = Matrix::zeros(self.n_classes, n_features);
        self.bias = vec![0.0; self.n_classes];

        let mut rng = Rng64::new(self.config.seed);
        let mut order: Vec<usize> = (0..labels.len()).collect();

        for epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            let lr = self.config.learning_rate / (1.0 + 0.01 * epoch as f64);
            for &i in &order {
                for c in 0..self.n_classes {
                    let target = if labels[i] == c { 1.0 } else { -1.0 };
                    let decision = features.row_dot(i, self.weights.row(c)) + self.bias[c];
                    // L2 shrinkage on every step (Pegasos-style).
                    let shrink = 1.0 - lr * self.config.l2;
                    for wv in self.weights.row_mut(c) {
                        *wv *= shrink;
                    }
                    if target * decision < self.config.margin {
                        // Sub-gradient of the hinge loss: move towards target * x.
                        let wrow = self.weights.row_mut(c);
                        let step = lr * target;
                        features.for_each_row_entry(i, |j, xv| wrow[j] += step * xv);
                        self.bias[c] += step;
                    }
                }
            }
        }
    }

    fn predict_proba_rows<F: FeatureRows>(&self, features: &F) -> Matrix {
        let decisions = self.decision_rows(features);
        let mut out = Matrix::zeros(decisions.rows(), self.n_classes);
        for r in 0..decisions.rows() {
            out.set_row(r, &softmax(decisions.row(r)));
        }
        out
    }

    fn predict_rows<F: FeatureRows>(&self, features: &F) -> Vec<usize> {
        let decisions = self.decision_rows(features);
        (0..decisions.rows())
            .map(|r| holistix_linalg::argmax(decisions.row(r)).unwrap_or(0))
            .collect()
    }

    /// The fitted weights.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }
}

impl Classifier for LinearSvm {
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

    fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.predict_rows(features)
    }

    fn predict_features(&self, features: &FeatureMatrix) -> Vec<usize> {
        self.predict_rows(features)
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

    fn toy_problem() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..36 {
            let jitter = (i % 6) as f64 * 0.02;
            match i % 3 {
                0 => {
                    rows.push(vec![1.0 + jitter, 0.0]);
                    labels.push(0);
                }
                1 => {
                    rows.push(vec![-1.0 - jitter, 1.0]);
                    labels.push(1);
                }
                _ => {
                    rows.push(vec![0.0, -1.0 - jitter]);
                    labels.push(2);
                }
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn separates_toy_classes() {
        let (x, y) = toy_problem();
        let mut clf = LinearSvm::default_config();
        clf.fit(&x, &y);
        let preds = clf.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn decision_values_drive_argmax_prediction() {
        let (x, y) = toy_problem();
        let mut clf = LinearSvm::default_config();
        clf.fit(&x, &y);
        let decisions = clf.decision_function(&x);
        let preds = clf.predict(&x);
        for (r, &p) in preds.iter().enumerate() {
            let am = holistix_linalg::argmax(decisions.row(r)).unwrap();
            assert_eq!(p, am);
        }
    }

    #[test]
    fn probabilities_are_valid_and_consistent_with_predictions() {
        let (x, y) = toy_problem();
        let mut clf = LinearSvm::default_config();
        clf.fit(&x, &y);
        let proba = clf.predict_proba(&x);
        let preds = clf.predict(&x);
        for (r, &pred) in preds.iter().enumerate() {
            assert!((proba.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(holistix_linalg::argmax(proba.row(r)).unwrap(), pred);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = toy_problem();
        let mut a = LinearSvm::default_config();
        let mut b = LinearSvm::default_config();
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn decision_before_fit_panics() {
        let clf = LinearSvm::default_config();
        let _ = clf.decision_function(&Matrix::zeros(1, 2));
    }
}
