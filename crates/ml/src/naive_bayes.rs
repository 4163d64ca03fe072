//! Gaussian Naive Bayes.
//!
//! The "Gaussian NB" row of Table IV. Each feature is modelled as a per-class Gaussian
//! with variance smoothing (scikit-learn's `var_smoothing`), and class log-priors come
//! from the training label frequencies. The paper notes GaussianNB "assumes feature
//! independence, which may not hold" and "is sensitive to deviations in feature
//! distribution from the assumed Gaussian" — on L2-normalised TF-IDF features this is
//! exactly why it is the weakest baseline in Table IV, and the same effect reproduces
//! here.

use crate::classifier::Classifier;
use holistix_linalg::{softmax, CsrMatrix, FeatureMatrix, Matrix};

/// Hyper-parameters for [`GaussianNaiveBayes`].
#[derive(Debug, Clone)]
pub struct GaussianNbConfig {
    /// Portion of the largest feature variance added to every variance for stability
    /// (scikit-learn default: 1e-9).
    pub var_smoothing: f64,
}

impl Default for GaussianNbConfig {
    fn default() -> Self {
        Self {
            var_smoothing: 1e-9,
        }
    }
}

/// Gaussian Naive Bayes classifier.
#[derive(Debug, Clone)]
pub struct GaussianNaiveBayes {
    config: GaussianNbConfig,
    /// Per-class feature means (`n_classes × n_features`).
    means: Matrix,
    /// Per-class feature variances (`n_classes × n_features`).
    variances: Matrix,
    /// Per-class log prior.
    log_priors: Vec<f64>,
    n_classes: usize,
    name: String,
}

impl GaussianNaiveBayes {
    /// New untrained model.
    pub fn new(config: GaussianNbConfig) -> Self {
        Self {
            config,
            means: Matrix::zeros(0, 0),
            variances: Matrix::zeros(0, 0),
            log_priors: Vec::new(),
            n_classes: 0,
            name: "Gaussian NB".to_string(),
        }
    }

    /// New model with default configuration.
    pub fn default_config() -> Self {
        Self::new(GaussianNbConfig::default())
    }

    /// Per-class feature means.
    pub fn means(&self) -> &Matrix {
        &self.means
    }

    /// Per-class feature variances (after smoothing).
    pub fn variances(&self) -> &Matrix {
        &self.variances
    }

    /// Fit from a CSR matrix without densifying. Means and variances come from
    /// per-class sufficient statistics over the stored entries only — for the
    /// variance, the `n_c · μ²` mass of the implicit zeros is added analytically,
    /// so the result matches the dense two-pass computation up to floating-point
    /// reordering (the equivalence property test uses a small tolerance).
    fn fit_sparse(&mut self, features: &CsrMatrix, labels: &[usize]) {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label length mismatch"
        );
        assert!(!labels.is_empty(), "cannot fit on an empty training set");
        let n_features = features.cols();
        self.n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        self.means = Matrix::zeros(self.n_classes, n_features);
        self.variances = Matrix::zeros(self.n_classes, n_features);
        self.log_priors = vec![f64::NEG_INFINITY; self.n_classes];

        let mut counts = vec![0usize; self.n_classes];
        for &l in labels {
            counts[l] += 1;
        }

        // Means from the stored entries (zeros contribute nothing).
        for (i, &l) in labels.iter().enumerate() {
            let m = self.means.row_mut(l);
            for (j, x) in features.row_entries(i) {
                m[j] += x;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let inv = 1.0 / count as f64;
            for mj in self.means.row_mut(c) {
                *mj *= inv;
            }
        }

        // Σ_i (x_ij - μ_cj)² = n_c μ_cj² + Σ_{stored} ((x - μ)² - μ²): seed each
        // accumulator with the implicit-zero mass, then correct per stored entry.
        for (c, &count) in counts.iter().enumerate() {
            let n_c = count as f64;
            let mu: Vec<f64> = self.means.row(c).to_vec();
            let v = self.variances.row_mut(c);
            for (vj, &muj) in v.iter_mut().zip(&mu) {
                *vj = n_c * muj * muj;
            }
        }
        for (i, &l) in labels.iter().enumerate() {
            let mu: Vec<f64> = self.means.row(l).to_vec();
            let v = self.variances.row_mut(l);
            for (j, x) in features.row_entries(i) {
                let d = x - mu[j];
                v[j] += d * d - mu[j] * mu[j];
            }
        }
        let mut max_var = 0.0f64;
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let inv = 1.0 / count as f64;
            for vj in self.variances.row_mut(c) {
                // Cancellation in the corrected sum can leave a tiny negative
                // residue where the true variance is zero; clamp before smoothing.
                *vj = (*vj * inv).max(0.0);
                max_var = max_var.max(*vj);
            }
        }
        let eps = (self.config.var_smoothing * max_var).max(1e-12);
        self.variances.map_inplace(|v| v + eps);

        let n = labels.len() as f64;
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                self.log_priors[c] = (count as f64 / n).ln();
            }
        }
    }

    /// Joint log-likelihood over CSR features without densifying: per class, the
    /// all-zero log-likelihood `log P(c) + Σ_j log N(0; μ, σ²)` is precomputed
    /// once, and each stored entry contributes the difference
    /// `log N(x) - log N(0) = -((x - μ)² - μ²) / 2σ²  =  -x(x - 2μ) / 2σ²`.
    fn joint_log_likelihood_sparse(&self, features: &CsrMatrix) -> Matrix {
        assert!(self.n_classes > 0, "predict called before fit");
        assert_eq!(features.cols(), self.means.cols(), "feature width mismatch");
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        // Per-class baseline: log-likelihood of the all-zero row.
        let baselines: Vec<f64> = (0..self.n_classes)
            .map(|c| {
                let mu = self.means.row(c);
                let var = self.variances.row(c);
                let mut ll = self.log_priors[c];
                for j in 0..mu.len() {
                    ll += -0.5 * (ln_2pi + var[j].ln() + mu[j] * mu[j] / var[j]);
                }
                ll
            })
            .collect();
        let mut out = Matrix::zeros(features.rows(), self.n_classes);
        for r in 0..features.rows() {
            for c in 0..self.n_classes {
                let mu = self.means.row(c);
                let var = self.variances.row(c);
                let mut ll = baselines[c];
                for (j, x) in features.row_entries(r) {
                    ll += -0.5 * x * (x - 2.0 * mu[j]) / var[j];
                }
                out[(r, c)] = ll;
            }
        }
        out
    }

    /// Joint log-likelihood `log P(class) + Σ log N(x_j; μ_cj, σ²_cj)` per class.
    pub fn joint_log_likelihood(&self, features: &Matrix) -> Matrix {
        assert!(self.n_classes > 0, "predict called before fit");
        let mut out = Matrix::zeros(features.rows(), self.n_classes);
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        for r in 0..features.rows() {
            let x = features.row(r);
            for c in 0..self.n_classes {
                let mu = self.means.row(c);
                let var = self.variances.row(c);
                let mut ll = self.log_priors[c];
                for j in 0..x.len() {
                    let diff = x[j] - mu[j];
                    ll += -0.5 * (ln_2pi + var[j].ln() + diff * diff / var[j]);
                }
                out[(r, c)] = ll;
            }
        }
        out
    }
}

impl Classifier for GaussianNaiveBayes {
    fn fit(&mut self, features: &Matrix, labels: &[usize]) {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label length mismatch"
        );
        assert!(!labels.is_empty(), "cannot fit on an empty training set");
        let n_features = features.cols();
        self.n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        self.means = Matrix::zeros(self.n_classes, n_features);
        self.variances = Matrix::zeros(self.n_classes, n_features);
        self.log_priors = vec![f64::NEG_INFINITY; self.n_classes];

        let mut counts = vec![0usize; self.n_classes];
        for &l in labels {
            counts[l] += 1;
        }

        // Per-class means.
        for (i, &l) in labels.iter().enumerate() {
            let x = features.row(i);
            let m = self.means.row_mut(l);
            for (mj, &xj) in m.iter_mut().zip(x) {
                *mj += xj;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let inv = 1.0 / count as f64;
            for mj in self.means.row_mut(c) {
                *mj *= inv;
            }
        }

        // Per-class variances.
        for (i, &l) in labels.iter().enumerate() {
            let x = features.row(i);
            // Indexing through a temporary copy of the mean row avoids aliasing the
            // mutable variance row.
            let mu: Vec<f64> = self.means.row(l).to_vec();
            let v = self.variances.row_mut(l);
            for j in 0..x.len() {
                let d = x[j] - mu[j];
                v[j] += d * d;
            }
        }
        let mut max_var = 0.0f64;
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let inv = 1.0 / count as f64;
            for vj in self.variances.row_mut(c) {
                *vj *= inv;
                max_var = max_var.max(*vj);
            }
        }
        // Variance smoothing keeps the log-pdf finite for constant features.
        let eps = (self.config.var_smoothing * max_var).max(1e-12);
        self.variances.map_inplace(|v| v + eps);

        // Log priors.
        let n = labels.len() as f64;
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                self.log_priors[c] = (count as f64 / n).ln();
            }
        }
    }

    fn predict_proba(&self, features: &Matrix) -> Matrix {
        let jll = self.joint_log_likelihood(features);
        let mut out = Matrix::zeros(jll.rows(), self.n_classes);
        for r in 0..jll.rows() {
            out.set_row(r, &softmax(jll.row(r)));
        }
        out
    }

    fn fit_features(&mut self, features: &FeatureMatrix, labels: &[usize]) {
        match features {
            FeatureMatrix::Dense(m) => self.fit(m, labels),
            FeatureMatrix::Sparse(m) => self.fit_sparse(m, labels),
        }
    }

    fn predict_proba_features(&self, features: &FeatureMatrix) -> Matrix {
        match features {
            FeatureMatrix::Dense(m) => self.predict_proba(m),
            FeatureMatrix::Sparse(m) => {
                let jll = self.joint_log_likelihood_sparse(m);
                let mut out = Matrix::zeros(jll.rows(), self.n_classes);
                for r in 0..jll.rows() {
                    out.set_row(r, &softmax(jll.row(r)));
                }
                out
            }
        }
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

    fn gaussian_toy() -> (Matrix, Vec<usize>) {
        // Two well-separated Gaussian blobs plus a third offset blob.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let t = (i as f64) * 0.01;
            rows.push(vec![0.0 + t, 0.0 - t]);
            labels.push(0);
            rows.push(vec![5.0 - t, 5.0 + t]);
            labels.push(1);
            rows.push(vec![-5.0 + t, 5.0 - t]);
            labels.push(2);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn separates_gaussian_blobs() {
        let (x, y) = gaussian_toy();
        let mut clf = GaussianNaiveBayes::default_config();
        clf.fit(&x, &y);
        let preds = clf.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn class_means_are_recovered() {
        let (x, y) = gaussian_toy();
        let mut clf = GaussianNaiveBayes::default_config();
        clf.fit(&x, &y);
        assert!((clf.means()[(1, 0)] - 5.0).abs() < 0.2);
        assert!((clf.means()[(2, 0)] + 5.0).abs() < 0.2);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = gaussian_toy();
        let mut clf = GaussianNaiveBayes::default_config();
        clf.fit(&x, &y);
        let proba = clf.predict_proba(&x);
        for r in 0..proba.rows() {
            assert!((proba.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_features_do_not_produce_nan() {
        // Second feature is constant: variance smoothing must keep things finite.
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![0.1, 1.0],
            vec![5.0, 1.0],
            vec![5.1, 1.0],
        ]);
        let y = vec![0, 0, 1, 1];
        let mut clf = GaussianNaiveBayes::default_config();
        clf.fit(&x, &y);
        let proba = clf.predict_proba(&x);
        assert!(!proba.has_non_finite());
        assert_eq!(clf.predict(&x), y);
    }

    #[test]
    fn priors_reflect_class_imbalance() {
        let x = Matrix::from_rows(&[
            vec![0.0],
            vec![0.0],
            vec![0.0],
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![10.0],
        ]);
        let y = vec![0, 0, 0, 0, 0, 0, 1];
        let mut clf = GaussianNaiveBayes::default_config();
        clf.fit(&x, &y);
        // A point equidistant in likelihood should lean towards the majority class,
        // and an obviously class-1 point should still be classed 1.
        let preds = clf.predict(&Matrix::from_rows(&[vec![0.05], vec![10.0]]));
        assert_eq!(preds[0], 0);
        assert_eq!(preds[1], 1);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let clf = GaussianNaiveBayes::default_config();
        let _ = clf.predict_proba(&Matrix::zeros(1, 2));
    }
}
