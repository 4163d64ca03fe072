//! LIME for text classification (Ribeiro et al., 2016).
//!
//! The explanation of a single prediction is produced exactly the way the `lime`
//! Python package the paper uses does it for text:
//!
//! 1. the post is split into interpretable features — its distinct (lower-cased) word
//!    types;
//! 2. perturbed variants are sampled by switching random subsets of those words off
//!    (removing every occurrence) and the model is queried for each variant;
//! 3. samples are weighted with an exponential kernel on the fraction of words
//!    removed;
//! 4. a weighted ridge regression from the binary word-presence vectors to the
//!    model's probability for the explained class yields one weight per word;
//! 5. the top-k positively weighted words are the explanation, which Table V compares
//!    against the gold explanation span.

use holistix_linalg::Rng64;

/// Anything that can score texts with class probabilities.
///
/// Implemented by the core crate's adapters for both the TF-IDF pipelines and the
/// transformer classifiers.
pub trait ProbabilityModel {
    /// Probability vectors (one per text, each of length `n_classes`).
    fn predict_proba(&self, texts: &[&str]) -> Vec<Vec<f64>>;
    /// Number of classes.
    fn n_classes(&self) -> usize;
}

/// The interpretable features LIME explains a text over: its distinct
/// lower-cased word types, in first-occurrence order. Exposed so callers that
/// need to bound explanation cost (the serving layer caps the feature count
/// before the `(features+1)²` surrogate solve) count exactly what the
/// explainer will solve over.
pub fn interpretable_features(text: &str) -> Vec<String> {
    distinct_features(&text_words(text))
}

/// First-occurrence-ordered distinct words.
fn distinct_features(words: &[String]) -> Vec<String> {
    let mut features: Vec<String> = Vec::new();
    for w in words {
        if !features.contains(w) {
            features.push(w.clone());
        }
    }
    features
}

/// All word tokens of a text, lower-cased, in order (with repeats).
fn text_words(text: &str) -> Vec<String> {
    holistix_text::tokenize(text)
        .into_iter()
        .filter(|t| t.kind == holistix_text::TokenKind::Word)
        .map(|t| t.lower())
        .collect()
}

/// LIME hyper-parameters.
#[derive(Debug, Clone)]
pub struct LimeConfig {
    /// Number of perturbed samples per explanation.
    pub n_samples: usize,
    /// Number of top tokens reported by [`LimeExplanation::top_tokens`].
    pub top_k: usize,
    /// Kernel width of the exponential locality kernel (on the fraction of words
    /// removed).
    pub kernel_width: f64,
    /// Ridge regularisation strength of the surrogate model.
    pub ridge_lambda: f64,
    /// Probability of keeping each word in a perturbed sample.
    pub keep_probability: f64,
    /// How many perturbed texts are sent to the model per `predict_proba` call.
    /// Chunks bound peak memory by the batch (not by `n_samples`). Keep this
    /// *larger* than the core pipeline's internal 64-text scoring batch: each
    /// `predict_proba` call fans its rows out across threads only when it
    /// receives more than one internal batch, so a chunk of 256 parallelises
    /// 4-wide while a chunk of 64 runs sequentially. Results are independent of
    /// the chunking because each text is scored in isolation.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LimeConfig {
    fn default() -> Self {
        Self {
            n_samples: 200,
            top_k: 5,
            kernel_width: 0.5,
            ridge_lambda: 1.0,
            keep_probability: 0.5,
            batch_size: 256,
            seed: 42,
        }
    }
}

/// The explanation of one prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct LimeExplanation {
    /// The class the explanation is for.
    pub target_class: usize,
    /// The model's probability of that class on the unperturbed text.
    pub target_probability: f64,
    /// `(word, weight)` pairs, sorted by weight descending.
    pub token_weights: Vec<(String, f64)>,
    /// The surrogate model's intercept.
    pub intercept: f64,
}

impl LimeExplanation {
    /// The `k` words with the largest positive weights.
    pub fn top_tokens(&self, k: usize) -> Vec<String> {
        self.token_weights
            .iter()
            .filter(|(_, w)| *w > 0.0)
            .take(k)
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// The weight assigned to a word (0 if the word was not a feature).
    pub fn weight_of(&self, word: &str) -> f64 {
        let lower = word.to_lowercase();
        self.token_weights
            .iter()
            .find(|(t, _)| *t == lower)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }
}

/// The LIME explainer.
#[derive(Debug, Clone, Default)]
pub struct LimeExplainer {
    config: LimeConfig,
}

impl LimeExplainer {
    /// New explainer with the given configuration.
    pub fn new(config: LimeConfig) -> Self {
        Self { config }
    }

    /// New explainer with default configuration.
    pub fn default_config() -> Self {
        Self::new(LimeConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &LimeConfig {
        &self.config
    }

    /// Explain the model's prediction on `text`. If `target_class` is `None`, the
    /// model's argmax class on the original text is explained. `?Sized` so a
    /// trait object (e.g. the serving layer's `&dyn Scorer`) can be explained
    /// without a concrete wrapper.
    pub fn explain<M: ProbabilityModel + ?Sized>(
        &self,
        model: &M,
        text: &str,
        target_class: Option<usize>,
    ) -> LimeExplanation {
        // Interpretable features: distinct lower-cased word types, in first-occurrence order.
        let words = text_words(text);
        let features = distinct_features(&words);

        let original = model
            .predict_proba(&[text])
            .into_iter()
            .next()
            .unwrap_or_else(|| vec![0.0; model.n_classes()]);
        let target =
            target_class.unwrap_or_else(|| holistix_linalg::argmax(&original).unwrap_or(0));
        let target_probability = original.get(target).copied().unwrap_or(0.0);

        if features.is_empty() {
            return LimeExplanation {
                target_class: target,
                target_probability,
                token_weights: Vec::new(),
                intercept: target_probability,
            };
        }

        // 1. Sample perturbations.
        let mut rng = Rng64::new(self.config.seed);
        let n_features = features.len();
        let mut design: Vec<Vec<f64>> = Vec::with_capacity(self.config.n_samples + 1);
        let mut texts: Vec<String> = Vec::with_capacity(self.config.n_samples + 1);
        // The unperturbed instance is always included with full weight.
        design.push(vec![1.0; n_features]);
        texts.push(text.to_string());
        for _ in 0..self.config.n_samples {
            let mut mask = vec![false; n_features];
            let mut any = false;
            for m in mask.iter_mut() {
                *m = rng.bernoulli(self.config.keep_probability);
                any |= *m;
            }
            if !any {
                mask[rng.below(n_features)] = true;
            }
            let kept: Vec<&str> = words
                .iter()
                .filter(|w| mask[features.iter().position(|f| f == *w).unwrap()])
                .map(|w| w.as_str())
                .collect();
            design.push(mask.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect());
            texts.push(kept.join(" "));
        }

        // 2. Model responses, in batches: the full perturbation set (n_samples + 1
        // texts) never hits the model as one giant transform.
        let text_refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let batch = self.config.batch_size.max(1);
        let mut responses: Vec<f64> = Vec::with_capacity(text_refs.len());
        for chunk in text_refs.chunks(batch) {
            responses.extend(
                model
                    .predict_proba(chunk)
                    .iter()
                    .map(|p| p.get(target).copied().unwrap_or(0.0)),
            );
        }

        // 3. Locality weights.
        let weights: Vec<f64> = design
            .iter()
            .map(|row| {
                let kept: f64 = row.iter().sum();
                let removed_fraction = 1.0 - kept / n_features as f64;
                (-(removed_fraction * removed_fraction)
                    / (self.config.kernel_width * self.config.kernel_width))
                    .exp()
            })
            .collect();

        // 4. Weighted ridge regression with intercept.
        let (coefficients, intercept) =
            weighted_ridge(&design, &responses, &weights, self.config.ridge_lambda);

        let mut token_weights: Vec<(String, f64)> =
            features.into_iter().zip(coefficients).collect();
        token_weights.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        LimeExplanation {
            target_class: target,
            target_probability,
            token_weights,
            intercept,
        }
    }
}

/// Solve weighted ridge regression `min Σ w_i (y_i - x_i·β - b)² + λ‖β‖²`.
/// Returns `(coefficients, intercept)`. The intercept is not regularised.
fn weighted_ridge(
    design: &[Vec<f64>],
    responses: &[f64],
    weights: &[f64],
    lambda: f64,
) -> (Vec<f64>, f64) {
    let n_features = design.first().map(|r| r.len()).unwrap_or(0);
    let dim = n_features + 1; // last column is the intercept
                              // Normal equations: (Xᵀ W X + λI') β = Xᵀ W y, with no penalty on the intercept.
    let mut a = vec![vec![0.0f64; dim]; dim];
    let mut b = vec![0.0f64; dim];
    for ((row, &y), &w) in design.iter().zip(responses).zip(weights) {
        let mut extended = row.clone();
        extended.push(1.0);
        for i in 0..dim {
            b[i] += w * extended[i] * y;
            for j in 0..dim {
                a[i][j] += w * extended[i] * extended[j];
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate().take(n_features) {
        row[i] += lambda;
    }
    let solution = solve_linear_system(&mut a, &mut b);
    let intercept = solution[n_features];
    (solution[..n_features].to_vec(), intercept)
}

/// Gaussian elimination with partial pivoting; falls back to zeros for singular
/// systems (which only arise for degenerate all-identical perturbations).
// The elimination inner loop reads row `col` while writing row `row` of the same
// matrix, so it cannot be expressed as a clippy-preferred iterator without
// split_at_mut gymnastics.
#[allow(clippy::needless_range_loop)]
fn solve_linear_system(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap_or(col);
        if a[pivot_row][col].abs() < 1e-12 {
            continue;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        if a[row][row].abs() < 1e-12 {
            x[row] = 0.0;
            continue;
        }
        let mut sum = b[row];
        for col in (row + 1)..n {
            sum -= a[row][col] * x[col];
        }
        x[row] = sum / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic "model" whose class-0 probability rises with occurrences of the
    /// word "job" and class-1 probability with "alone".
    struct KeywordModel;

    impl ProbabilityModel for KeywordModel {
        fn predict_proba(&self, texts: &[&str]) -> Vec<Vec<f64>> {
            texts
                .iter()
                .map(|t| {
                    let lower = t.to_lowercase();
                    let job =
                        lower.matches("job").count() as f64 + lower.matches("work").count() as f64;
                    let alone = lower.matches("alone").count() as f64
                        + lower.matches("lonely").count() as f64;
                    let scores = [job + 0.1, alone + 0.1];
                    let total: f64 = scores.iter().sum();
                    scores.iter().map(|s| s / total).collect()
                })
                .collect()
        }

        fn n_classes(&self) -> usize {
            2
        }
    }

    #[test]
    fn lime_finds_the_driving_keywords() {
        let explainer = LimeExplainer::default_config();
        let text = "my job and the work stress leave me feeling terrible every day";
        let explanation = explainer.explain(&KeywordModel, text, None);
        assert_eq!(explanation.target_class, 0);
        let top = explanation.top_tokens(3);
        assert!(
            top.contains(&"job".to_string()) || top.contains(&"work".to_string()),
            "top tokens {top:?} should include the driving keyword"
        );
        assert!(explanation.weight_of("job") > explanation.weight_of("terrible"));
    }

    #[test]
    fn explaining_the_other_class_flips_the_sign() {
        let explainer = LimeExplainer::default_config();
        let text = "my job keeps me busy but i feel alone at night";
        let for_class0 = explainer.explain(&KeywordModel, text, Some(0));
        let for_class1 = explainer.explain(&KeywordModel, text, Some(1));
        assert!(for_class0.weight_of("job") > 0.0);
        assert!(for_class1.weight_of("alone") > 0.0);
        assert!(for_class1.weight_of("job") < for_class1.weight_of("alone"));
    }

    #[test]
    fn explanations_are_deterministic_for_a_seed() {
        let explainer = LimeExplainer::default_config();
        let text = "work deadlines make me feel alone and exhausted";
        let a = explainer.explain(&KeywordModel, text, None);
        let b = explainer.explain(&KeywordModel, text, None);
        assert_eq!(a, b);
        let other_seed = LimeExplainer::new(LimeConfig {
            seed: 7,
            ..LimeConfig::default()
        });
        let c = other_seed.explain(&KeywordModel, text, None);
        // Same ranking of the decisive token even under a different seed.
        assert_eq!(a.top_tokens(1), c.top_tokens(1));
    }

    #[test]
    fn chunked_scoring_is_independent_of_batch_size() {
        let text = "work deadlines make me feel alone and exhausted every night";
        let reference = LimeExplainer::default_config().explain(&KeywordModel, text, None);
        for batch_size in [1, 7, 64, 1000] {
            let explainer = LimeExplainer::new(LimeConfig {
                batch_size,
                ..LimeConfig::default()
            });
            assert_eq!(explainer.explain(&KeywordModel, text, None), reference);
        }
    }

    #[test]
    fn empty_text_yields_empty_explanation() {
        let explainer = LimeExplainer::default_config();
        let explanation = explainer.explain(&KeywordModel, "", None);
        assert!(explanation.token_weights.is_empty());
        assert!(explanation.top_tokens(5).is_empty());
    }

    #[test]
    fn weight_of_unknown_word_is_zero() {
        let explainer = LimeExplainer::default_config();
        let explanation = explainer.explain(&KeywordModel, "my job is hard", None);
        assert_eq!(explanation.weight_of("zzz"), 0.0);
    }

    #[test]
    fn ridge_solver_recovers_a_linear_function() {
        // y = 2 x0 - 1 x1 + 0.5, no noise, uniform weights.
        let design = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 0.0],
        ];
        let responses: Vec<f64> = design.iter().map(|r| 2.0 * r[0] - r[1] + 0.5).collect();
        let weights = vec![1.0; design.len()];
        let (coef, intercept) = weighted_ridge(&design, &responses, &weights, 1e-6);
        assert!((coef[0] - 2.0).abs() < 1e-3);
        assert!((coef[1] + 1.0).abs() < 1e-3);
        assert!((intercept - 0.5).abs() < 1e-3);
    }

    #[test]
    fn singular_system_does_not_panic() {
        let mut a = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let mut b = vec![1.0, 2.0];
        let x = solve_linear_system(&mut a, &mut b);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
