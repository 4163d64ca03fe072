//! Cross-validation driver.
//!
//! §III of the paper evaluates every baseline with 10-fold cross-validation and
//! reports per-class precision/recall/F1 and accuracy averaged over folds (Table IV).
//! The driver here is generic over a [`TextPipeline`] — anything that can be fitted on
//! raw texts and predict class indices — so the same harness runs the TF-IDF
//! baselines in this crate and the transformer baselines from `holistix-transformer`
//! (via the adapter in the core crate).
//!
//! Folds are independent, so they are trained in parallel with scoped threads when
//! `parallel` is requested. Within each fold, the vectoriser fit itself is the
//! sharded map-reduce of [`TfidfVectorizer::fit_parallel`]; a [`ThreadBudget`]
//! splits the machine between the two levels so `folds × shards` never
//! oversubscribes it. Shard count never changes results (the sharded fit is
//! bit-identical to the sequential one), so any budget produces the same report.

use crate::classifier::Classifier;
use crate::features::{TfidfVectorizer, VectorizerOptions};
use crate::metrics::ClassificationReport;
use crate::parallel::scoped_map;
use holistix_corpus::splits::CrossValidationFolds;
use holistix_linalg::FeatureMatrix;

/// A text-in, label-out classification pipeline (feature extraction + model).
pub trait TextPipeline: Send {
    /// Fit the pipeline on training texts and labels.
    fn fit(&mut self, texts: &[&str], labels: &[usize]);
    /// Predict dense class indices for new texts.
    fn predict(&self, texts: &[&str]) -> Vec<usize>;
    /// Display name for reports.
    fn name(&self) -> String;
    /// How many threads `fit` may use for feature extraction. Pipelines whose
    /// fit is not sharded ignore this (the default), so the cross-validation
    /// driver can hand every pipeline its slice of the thread budget.
    fn set_fit_threads(&mut self, _n_threads: usize) {}
}

/// How many threads a cross-validation run may occupy in total, shared between
/// concurrent folds and each fold's sharded vectoriser fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Total threads the run may use (`folds × per-fold shards ≤ threads`).
    pub threads: usize,
}

impl ThreadBudget {
    /// A budget of exactly `threads` threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The machine's available parallelism.
    pub fn machine() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Per-fold fit shards when `concurrent_folds` folds run at once:
    /// `threads / concurrent_folds`, at least 1, so the product stays within
    /// the budget.
    pub fn shards_per_fold(&self, concurrent_folds: usize) -> usize {
        (self.threads / concurrent_folds.max(1)).max(1)
    }
}

impl Default for ThreadBudget {
    fn default() -> Self {
        Self::machine()
    }
}

/// The standard classical pipeline: TF-IDF features into any [`Classifier`].
pub struct TfidfPipeline<C: Classifier> {
    options: VectorizerOptions,
    vectorizer: Option<TfidfVectorizer>,
    classifier: C,
    fit_threads: usize,
}

impl<C: Classifier> TfidfPipeline<C> {
    /// Build a pipeline around an (untrained) classifier.
    pub fn new(classifier: C, options: VectorizerOptions) -> Self {
        Self {
            options,
            vectorizer: None,
            classifier,
            fit_threads: 1,
        }
    }

    /// Build with paper-default vectoriser options.
    pub fn with_default_features(classifier: C) -> Self {
        Self::new(classifier, VectorizerOptions::paper_default())
    }

    /// Shard the vectoriser fit across `n_threads` threads (builder form of
    /// [`TextPipeline::set_fit_threads`]).
    pub fn with_fit_threads(mut self, n_threads: usize) -> Self {
        self.fit_threads = n_threads.max(1);
        self
    }

    /// Access the fitted vectoriser (after `fit`).
    pub fn vectorizer(&self) -> Option<&TfidfVectorizer> {
        self.vectorizer.as_ref()
    }

    /// Access the inner classifier.
    pub fn classifier(&self) -> &C {
        &self.classifier
    }
}

impl<C: Classifier + Send> TextPipeline for TfidfPipeline<C> {
    fn fit(&mut self, texts: &[&str], labels: &[usize]) {
        // One tokenisation pass, sharded across the pipeline's thread share;
        // CSR end to end: the dense documents × vocabulary grid is never built.
        let (vectorizer, features) = TfidfVectorizer::fit_transform_sparse_parallel(
            texts,
            self.options.clone(),
            self.fit_threads,
        );
        self.classifier
            .fit_features(&FeatureMatrix::Sparse(features), labels);
        self.vectorizer = Some(vectorizer);
    }

    fn predict(&self, texts: &[&str]) -> Vec<usize> {
        let vectorizer = self
            .vectorizer
            .as_ref()
            .expect("TfidfPipeline::predict called before fit");
        let features = FeatureMatrix::Sparse(vectorizer.transform_sparse(texts));
        self.classifier.predict_features(&features)
    }

    fn name(&self) -> String {
        self.classifier.name().to_string()
    }

    fn set_fit_threads(&mut self, n_threads: usize) {
        self.fit_threads = n_threads.max(1);
    }
}

/// The outcome of a single cross-validation fold.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldOutcome {
    /// Fold index (0-based).
    pub fold: usize,
    /// Metrics on the fold's held-out test set.
    pub report: ClassificationReport,
}

/// The result of a full cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidationReport {
    /// Name of the evaluated pipeline.
    pub model_name: String,
    /// Per-fold outcomes, in fold order.
    pub fold_outcomes: Vec<FoldOutcome>,
    /// Metrics averaged over folds — the numbers a Table IV row reports.
    pub averaged: ClassificationReport,
}

impl CrossValidationReport {
    /// Standard deviation of accuracy across folds (a stability indicator).
    pub fn accuracy_std(&self) -> f64 {
        let accs: Vec<f64> = self
            .fold_outcomes
            .iter()
            .map(|f| f.report.accuracy)
            .collect();
        if accs.len() < 2 {
            return 0.0;
        }
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        (accs.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / accs.len() as f64).sqrt()
    }
}

/// Run cross-validation of a pipeline over pre-computed folds with the
/// machine's full thread budget. See [`cross_validate_budgeted`].
pub fn cross_validate<P, F>(
    texts: &[&str],
    labels: &[usize],
    n_classes: usize,
    folds: &CrossValidationFolds,
    make_pipeline: F,
    parallel: bool,
) -> CrossValidationReport
where
    P: TextPipeline,
    F: Fn() -> P + Sync,
{
    cross_validate_budgeted(
        texts,
        labels,
        n_classes,
        folds,
        make_pipeline,
        parallel,
        ThreadBudget::machine(),
    )
}

/// Run cross-validation of a pipeline over pre-computed folds.
///
/// `make_pipeline` is called once per fold (so every fold trains a fresh model).
/// When `parallel` is true, folds run on scoped threads; results are returned in fold
/// order either way. Determinism is preserved because each fold's pipeline derives all
/// randomness from its own configuration, not from execution order — and because the
/// sharded vectoriser fit is bit-identical for every shard count.
///
/// `budget` is shared across the two levels of parallelism: parallel folds run
/// in waves of at most `budget.threads` concurrent folds, and every running
/// fold's fit gets `budget.threads / concurrent_folds` shards (at least 1), so
/// `concurrent folds × shards ≤ budget.threads` even when there are more folds
/// than threads; sequential folds each get the whole budget, since only one
/// fold is fitting at a time.
pub fn cross_validate_budgeted<P, F>(
    texts: &[&str],
    labels: &[usize],
    n_classes: usize,
    folds: &CrossValidationFolds,
    make_pipeline: F,
    parallel: bool,
    budget: ThreadBudget,
) -> CrossValidationReport
where
    P: TextPipeline,
    F: Fn() -> P + Sync,
{
    assert_eq!(texts.len(), labels.len(), "texts/labels length mismatch");
    assert!(
        !folds.is_empty(),
        "cross_validate requires at least one fold"
    );

    // Cap fold concurrency at the budget, then split what remains between
    // each running fold's fit shards: concurrent_folds × fit_threads ≤ budget.
    let concurrent_folds = if parallel {
        folds.len().min(budget.threads)
    } else {
        1
    };
    let fit_threads = budget.shards_per_fold(concurrent_folds);

    let run_fold = |fold_idx: usize| -> FoldOutcome {
        let fold = &folds.folds[fold_idx];
        let train_texts: Vec<&str> = fold.train.iter().map(|&i| texts[i]).collect();
        let train_labels: Vec<usize> = fold.train.iter().map(|&i| labels[i]).collect();
        let test_texts: Vec<&str> = fold.test.iter().map(|&i| texts[i]).collect();
        let test_labels: Vec<usize> = fold.test.iter().map(|&i| labels[i]).collect();
        let mut pipeline = make_pipeline();
        pipeline.set_fit_threads(fit_threads);
        pipeline.fit(&train_texts, &train_labels);
        let predictions = pipeline.predict(&test_texts);
        FoldOutcome {
            fold: fold_idx,
            report: ClassificationReport::from_labels(&test_labels, &predictions, n_classes),
        }
    };

    let fold_outcomes: Vec<FoldOutcome> = if parallel && concurrent_folds > 1 {
        // Waves of at most `concurrent_folds` fold threads, so the budget is
        // enforced rather than merely divided by: a 2-thread budget over 10
        // folds runs 2 at a time, never all 10 at once. Waves run in fold
        // order, so outcomes concatenate back in fold order.
        let indices: Vec<usize> = (0..folds.len()).collect();
        indices
            .chunks(concurrent_folds)
            .flat_map(|wave| scoped_map(wave, |&i| run_fold(i)))
            .collect()
    } else {
        (0..folds.len()).map(run_fold).collect()
    };

    let averaged = ClassificationReport::average(
        &fold_outcomes
            .iter()
            .map(|f| f.report.clone())
            .collect::<Vec<_>>(),
    );
    let model_name = make_pipeline().name();
    CrossValidationReport {
        model_name,
        fold_outcomes,
        averaged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::LogisticRegression;
    use crate::naive_bayes::GaussianNaiveBayes;
    use holistix_corpus::generator::HolistixCorpus;
    use holistix_corpus::splits::kfold_stratified;

    fn small_task() -> (Vec<String>, Vec<usize>) {
        let corpus = HolistixCorpus::generate_small(180, 13);
        let texts: Vec<String> = corpus.posts.iter().map(|p| p.post.text.clone()).collect();
        let labels = corpus.label_indices();
        (texts, labels)
    }

    #[test]
    fn logistic_pipeline_beats_chance_on_synthetic_corpus() {
        let (texts, labels) = small_task();
        let text_refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let folds = kfold_stratified(&labels, 6, 4, 3);
        let report = cross_validate(
            &text_refs,
            &labels,
            6,
            &folds,
            || TfidfPipeline::with_default_features(LogisticRegression::default_config()),
            false,
        );
        assert_eq!(report.fold_outcomes.len(), 4);
        assert!(
            report.averaged.accuracy > 0.4,
            "accuracy {}",
            report.averaged.accuracy
        );
        assert_eq!(report.model_name, "LR");
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (texts, labels) = small_task();
        let text_refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let folds = kfold_stratified(&labels, 6, 3, 5);
        let make = || TfidfPipeline::with_default_features(GaussianNaiveBayes::default_config());
        let seq = cross_validate(&text_refs, &labels, 6, &folds, make, false);
        let par = cross_validate(&text_refs, &labels, 6, &folds, make, true);
        assert_eq!(seq.fold_outcomes, par.fold_outcomes);
    }

    #[test]
    fn thread_budget_never_changes_results() {
        // The same folds under wildly different budgets (1 thread, or 8 shared
        // across 3 parallel folds) must produce bit-identical reports: the
        // sharded fit is exact, and the budget only moves work between threads.
        let (texts, labels) = small_task();
        let text_refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let folds = kfold_stratified(&labels, 6, 3, 9);
        let make = || TfidfPipeline::with_default_features(LogisticRegression::default_config());
        let single = cross_validate_budgeted(
            &text_refs,
            &labels,
            6,
            &folds,
            make,
            false,
            ThreadBudget::new(1),
        );
        let budgeted = cross_validate_budgeted(
            &text_refs,
            &labels,
            6,
            &folds,
            make,
            true,
            ThreadBudget::new(8),
        );
        assert_eq!(single.fold_outcomes, budgeted.fold_outcomes);
    }

    #[test]
    fn thread_budget_splits_between_folds_and_shards() {
        // folds × shards ≤ budget, with a floor of one shard per fold.
        assert_eq!(ThreadBudget::new(8).shards_per_fold(3), 2);
        assert_eq!(ThreadBudget::new(8).shards_per_fold(1), 8);
        assert_eq!(ThreadBudget::new(2).shards_per_fold(3), 1);
        assert_eq!(ThreadBudget::new(0).threads, 1);
        assert!(ThreadBudget::machine().threads >= 1);
    }

    #[test]
    fn fold_reports_are_in_fold_order() {
        let (texts, labels) = small_task();
        let text_refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let folds = kfold_stratified(&labels, 6, 3, 1);
        let report = cross_validate(
            &text_refs,
            &labels,
            6,
            &folds,
            || TfidfPipeline::with_default_features(LogisticRegression::default_config()),
            true,
        );
        for (i, fo) in report.fold_outcomes.iter().enumerate() {
            assert_eq!(fo.fold, i);
        }
    }

    #[test]
    fn accuracy_std_is_finite_and_small_for_identical_folds() {
        let (texts, labels) = small_task();
        let text_refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let folds = kfold_stratified(&labels, 6, 3, 2);
        let report = cross_validate(
            &text_refs,
            &labels,
            6,
            &folds,
            || TfidfPipeline::with_default_features(LogisticRegression::default_config()),
            false,
        );
        assert!(report.accuracy_std() >= 0.0);
        assert!(report.accuracy_std() < 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one fold")]
    fn empty_folds_panic() {
        let folds = CrossValidationFolds {
            folds: vec![],
            n_items: 0,
        };
        let _ = cross_validate(
            &[],
            &[],
            6,
            &folds,
            || TfidfPipeline::with_default_features(LogisticRegression::default_config()),
            false,
        );
    }
}
