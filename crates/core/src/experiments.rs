//! Experiment runners: one per table and figure of the paper.
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`run_table2`] | Table II — dataset statistics |
//! | [`run_table3`] | Table III — frequent words in explanation spans |
//! | [`run_table4`] | Table IV — baseline comparison, per-class P/R/F + accuracy over k folds |
//! | [`run_table5`] | Table V — LIME explanation quality of LR vs MentalBERT |
//! | [`run_annotation_study`] | §II-E / Fig. 2 — two-annotator study and Fleiss' κ |
//! | [`run_fig1_walkthrough`] | Fig. 1 — classify one post and surface its explanation |
//!
//! Every runner is deterministic for a given configuration, so the benchmark harness
//! and EXPERIMENTS.md report reproducible numbers.

use crate::pipeline::{BaselineKind, BaselinePipeline, FittedBaseline, SpeedProfile};
use holistix_corpus::annotation::AnnotationStudy;
use holistix_corpus::splits::{kfold_stratified, paper_split};
use holistix_corpus::{
    frequent_span_words, CorpusStatistics, FrequentWords, HolistixCorpus, WellnessDimension,
    ALL_DIMENSIONS,
};
use holistix_explain::{evaluate_explanations, ExplanationReport, LimeConfig, LimeExplainer};
use holistix_ml::{cross_validate, ClassificationReport};
use holistix_transformer::ModelKind;
use std::fmt;

// ---------------------------------------------------------------------------------
// Table II and Table III
// ---------------------------------------------------------------------------------

/// Compute the Table II statistics of a corpus.
pub fn run_table2(corpus: &HolistixCorpus) -> CorpusStatistics {
    CorpusStatistics::compute(&corpus.posts)
}

/// Compute the Table III frequent-word analysis of a corpus.
pub fn run_table3(corpus: &HolistixCorpus) -> FrequentWords {
    frequent_span_words(&corpus.posts)
}

/// Run the §II-E annotation study (two simulated annotators + Fleiss' κ).
pub fn run_annotation_study(corpus: &HolistixCorpus, seed: u64) -> AnnotationStudy {
    AnnotationStudy::run(&corpus.posts, seed)
}

// ---------------------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------------------

/// Configuration of the Table IV baseline comparison.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// Corpus size (`None` = the full 1,420 posts).
    pub corpus_size: Option<usize>,
    /// Seed for corpus generation, splits and model initialisation.
    pub seed: u64,
    /// Number of cross-validation folds (the paper uses 10).
    pub n_folds: usize,
    /// Training-cost profile.
    pub speed: SpeedProfile,
    /// Run folds on parallel threads.
    pub parallel: bool,
    /// Which baselines to evaluate (defaults to all nine).
    pub baselines: Vec<BaselineKind>,
}

impl EvaluationConfig {
    /// The paper-faithful configuration: full corpus, 10 folds, all nine baselines.
    pub fn paper() -> Self {
        Self {
            corpus_size: None,
            seed: 42,
            n_folds: 10,
            speed: SpeedProfile::Paper,
            parallel: true,
            baselines: BaselineKind::ALL.to_vec(),
        }
    }

    /// A reduced configuration that preserves the table's shape but finishes in a
    /// benchmark run: 400 posts, 5 folds, fast transformer analogues.
    pub fn fast() -> Self {
        Self {
            corpus_size: Some(400),
            seed: 42,
            n_folds: 5,
            speed: SpeedProfile::Fast,
            parallel: true,
            baselines: BaselineKind::ALL.to_vec(),
        }
    }

    /// A smoke-test configuration used by integration tests.
    pub fn smoke() -> Self {
        Self {
            corpus_size: Some(150),
            seed: 42,
            n_folds: 3,
            speed: SpeedProfile::Tiny,
            parallel: true,
            baselines: vec![
                BaselineKind::LogisticRegression,
                BaselineKind::GaussianNb,
                BaselineKind::Transformer(ModelKind::DistilBert),
            ],
        }
    }

    /// Restrict to the classical baselines only.
    pub fn classical_only(mut self) -> Self {
        self.baselines = BaselineKind::CLASSICAL.to_vec();
        self
    }

    /// Generate the corpus this configuration describes.
    pub fn build_corpus(&self) -> HolistixCorpus {
        match self.corpus_size {
            None => HolistixCorpus::generate(self.seed),
            Some(n) => HolistixCorpus::generate_small(n, self.seed),
        }
    }
}

/// One Table IV row: a model's per-class metrics averaged over folds.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Model name (paper row label).
    pub model: String,
    /// Fold-averaged per-class metrics and accuracy.
    pub report: ClassificationReport,
    /// Standard deviation of accuracy across folds.
    pub accuracy_std: f64,
}

/// The full Table IV reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Result {
    /// Rows in the requested baseline order.
    pub rows: Vec<Table4Row>,
    /// Number of folds the metrics are averaged over.
    pub n_folds: usize,
    /// Number of posts in the evaluated corpus.
    pub corpus_size: usize,
}

impl Table4Result {
    /// The row for a model name, if present.
    pub fn row(&self, model: &str) -> Option<&Table4Row> {
        self.rows.iter().find(|r| r.model == model)
    }

    /// Accuracy of a model, if present.
    pub fn accuracy_of(&self, model: &str) -> Option<f64> {
        self.row(model).map(|r| r.report.accuracy)
    }

    /// Per-class F1 of a model for a wellness dimension.
    pub fn f1_of(&self, model: &str, dimension: WellnessDimension) -> Option<f64> {
        self.row(model)
            .map(|r| r.report.class(dimension.index()).f1)
    }

    /// Render the result in the shape of the paper's Table IV
    /// (per-class P, R, F plus accuracy).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<12}",
            format!("Method ({}-fold)", self.n_folds)
        ));
        for dim in ALL_DIMENSIONS {
            s.push_str(&format!("{:>18}", dim.code()));
        }
        s.push_str(&format!("{:>8}\n", "Acc"));
        s.push_str(&format!("{:<12}", ""));
        for _ in ALL_DIMENSIONS {
            s.push_str(&format!("{:>6}{:>6}{:>6}", "P", "R", "F"));
        }
        s.push('\n');
        for row in &self.rows {
            s.push_str(&format!("{:<12}", row.model));
            for dim in ALL_DIMENSIONS {
                let m = row.report.class(dim.index());
                s.push_str(&format!(
                    "{:>6.2}{:>6.2}{:>6.2}",
                    m.precision, m.recall, m.f1
                ));
            }
            s.push_str(&format!("{:>8.2}\n", row.report.accuracy));
        }
        s
    }
}

impl fmt::Display for Table4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Run the Table IV experiment: every configured baseline through stratified k-fold
/// cross-validation on a generated corpus.
pub fn run_table4(config: &EvaluationConfig) -> Table4Result {
    let corpus = config.build_corpus();
    run_table4_on(&corpus, config)
}

/// Run Table IV on an existing corpus (used when several experiments share one).
pub fn run_table4_on(corpus: &HolistixCorpus, config: &EvaluationConfig) -> Table4Result {
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let folds = kfold_stratified(&labels, 6, config.n_folds, config.seed);
    let mut rows = Vec::with_capacity(config.baselines.len());
    for &kind in &config.baselines {
        let cv = cross_validate(
            &texts,
            &labels,
            6,
            &folds,
            || BaselinePipeline::new(kind, config.speed, config.seed),
            config.parallel,
        );
        rows.push(Table4Row {
            model: kind.name(),
            accuracy_std: cv.accuracy_std(),
            report: cv.averaged,
        });
    }
    Table4Result {
        rows,
        n_folds: config.n_folds,
        corpus_size: corpus.len(),
    }
}

// ---------------------------------------------------------------------------------
// Table V
// ---------------------------------------------------------------------------------

/// Configuration of the Table V explainability experiment.
#[derive(Debug, Clone)]
pub struct Table5Config {
    /// Corpus size (`None` = full 1,420 posts).
    pub corpus_size: Option<usize>,
    /// Seed for corpus, split and LIME sampling.
    pub seed: u64,
    /// Training-cost profile for the two models.
    pub speed: SpeedProfile,
    /// How many held-out posts to explain.
    pub n_explanations: usize,
    /// Number of LIME keywords compared against the gold span.
    pub top_k: usize,
    /// LIME sampling configuration.
    pub lime: LimeConfig,
    /// Which baselines to explain (the paper uses LR and MentalBERT).
    pub models: Vec<BaselineKind>,
}

impl Table5Config {
    /// The paper setup: LR and fine-tuned MentalBERT explained on the test split.
    pub fn paper() -> Self {
        Self {
            corpus_size: None,
            seed: 42,
            speed: SpeedProfile::Paper,
            n_explanations: 100,
            top_k: 5,
            lime: LimeConfig::default(),
            models: vec![
                BaselineKind::LogisticRegression,
                BaselineKind::Transformer(ModelKind::MentalBert),
            ],
        }
    }

    /// Reduced configuration for benches.
    pub fn fast() -> Self {
        Self {
            corpus_size: Some(400),
            speed: SpeedProfile::Fast,
            n_explanations: 40,
            lime: LimeConfig {
                n_samples: 120,
                ..LimeConfig::default()
            },
            ..Self::paper()
        }
    }

    /// Minimal configuration for integration tests.
    pub fn smoke() -> Self {
        Self {
            corpus_size: Some(120),
            speed: SpeedProfile::Tiny,
            n_explanations: 8,
            lime: LimeConfig {
                n_samples: 60,
                ..LimeConfig::default()
            },
            models: vec![BaselineKind::LogisticRegression],
            ..Self::paper()
        }
    }
}

/// The Table V reproduction: one explanation-quality report per explained model.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Result {
    /// Reports in the order the models were configured.
    pub reports: Vec<ExplanationReport>,
    /// Number of explanations each report averages over.
    pub n_explanations: usize,
}

impl Table5Result {
    /// The report for a model name, if present.
    pub fn report_for(&self, model: &str) -> Option<&ExplanationReport> {
        self.reports.iter().find(|r| r.model_name == model)
    }

    /// Render in the shape of the paper's Table V.
    pub fn to_table(&self) -> String {
        let mut s = String::from("Method       F1-score  Precision   Recall    ROUGE     BLEU\n");
        for report in &self.reports {
            s.push_str(&report.to_table_row());
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for Table5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Run the Table V experiment: train the configured models on the paper split, explain
/// held-out posts with LIME, and score the explanations against gold spans.
pub fn run_table5(config: &Table5Config) -> Table5Result {
    let corpus = match config.corpus_size {
        None => HolistixCorpus::generate(config.seed),
        Some(n) => HolistixCorpus::generate_small(n, config.seed),
    };
    run_table5_on(&corpus, config)
}

/// Run Table V on an existing corpus.
pub fn run_table5_on(corpus: &HolistixCorpus, config: &Table5Config) -> Table5Result {
    let labels = corpus.label_indices();
    let texts = corpus.texts();
    let split = paper_split(&labels, 6, config.seed);
    let train_texts: Vec<&str> = split.train.iter().map(|&i| texts[i]).collect();
    let train_labels: Vec<usize> = split.train.iter().map(|&i| labels[i]).collect();
    let explain_indices: Vec<usize> = split
        .test
        .iter()
        .copied()
        .take(config.n_explanations)
        .collect();

    let explainer = LimeExplainer::new(config.lime.clone());
    let mut reports = Vec::with_capacity(config.models.len());
    for &kind in &config.models {
        let fitted =
            FittedBaseline::fit(kind, config.speed, &train_texts, &train_labels, config.seed);
        let items: Vec<(Vec<String>, String)> = explain_indices
            .iter()
            .map(|&i| {
                let post = &corpus.posts[i];
                let explanation = explainer.explain(&fitted, &post.post.text, None);
                (
                    explanation.top_tokens(config.top_k),
                    post.span_text().to_string(),
                )
            })
            .collect();
        reports.push(evaluate_explanations(&kind.name(), &items));
    }
    Table5Result {
        reports,
        n_explanations: explain_indices.len(),
    }
}

// ---------------------------------------------------------------------------------
// Fig. 1
// ---------------------------------------------------------------------------------

/// The single-post walkthrough of Fig. 1: a post is classified into a wellness
/// dimension and its decisive keywords are surfaced.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Walkthrough {
    /// The post text.
    pub text: String,
    /// The gold wellness dimension.
    pub gold: WellnessDimension,
    /// The model's predicted dimension.
    pub predicted: WellnessDimension,
    /// The model's class probabilities (table order).
    pub probabilities: Vec<f64>,
    /// LIME's top keywords for the predicted class.
    pub explanation_keywords: Vec<String>,
    /// The gold explanation span.
    pub gold_span: String,
}

impl fmt::Display for Fig1Walkthrough {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Post: {}", self.text)?;
        writeln!(f, "Gold dimension:      {}", self.gold.name())?;
        writeln!(f, "Predicted dimension: {}", self.predicted.name())?;
        writeln!(f, "Gold span:           {}", self.gold_span)?;
        writeln!(
            f,
            "LIME keywords:       {}",
            self.explanation_keywords.join(", ")
        )
    }
}

/// Run the Fig. 1 walkthrough: train a logistic-regression baseline on a small corpus
/// and classify + explain one held-out post.
pub fn run_fig1_walkthrough(seed: u64) -> Fig1Walkthrough {
    let corpus = HolistixCorpus::generate_small(240, seed);
    let labels = corpus.label_indices();
    let texts = corpus.texts();
    let split = paper_split(&labels, 6, seed);
    let train_texts: Vec<&str> = split.train.iter().map(|&i| texts[i]).collect();
    let train_labels: Vec<usize> = split.train.iter().map(|&i| labels[i]).collect();
    let fitted = FittedBaseline::fit(
        BaselineKind::LogisticRegression,
        SpeedProfile::Fast,
        &train_texts,
        &train_labels,
        seed,
    );
    let post = &corpus.posts[split.test[0]];
    let probabilities = fitted.probabilities_one(&post.post.text);
    let predicted =
        WellnessDimension::from_index(holistix_linalg::argmax(&probabilities).unwrap_or(0));
    let explainer = LimeExplainer::default_config();
    let explanation = explainer.explain(&fitted, &post.post.text, None);
    Fig1Walkthrough {
        text: post.post.text.clone(),
        gold: post.label,
        predicted,
        probabilities,
        explanation_keywords: explanation.top_tokens(5),
        gold_span: post.span_text().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_and_table3_run_on_a_small_corpus() {
        let corpus = HolistixCorpus::generate_small(150, 3);
        let stats = run_table2(&corpus);
        assert_eq!(stats.total_posts, corpus.len());
        let words = run_table3(&corpus);
        assert_eq!(words.by_dimension.len(), 6);
    }

    #[test]
    fn annotation_study_reports_reasonable_kappa() {
        let corpus = HolistixCorpus::generate_small(300, 5);
        let study = run_annotation_study(&corpus, 7);
        assert!(study.agreement.fleiss_kappa > 0.5);
        assert!(study.agreement.fleiss_kappa < 1.0);
    }

    #[test]
    fn table4_smoke_configuration_produces_expected_rows() {
        let result = run_table4(&EvaluationConfig::smoke());
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.n_folds, 3);
        assert!(result.accuracy_of("LR").unwrap() > 0.3);
        assert!(result.to_table().contains("Gaussian NB"));
        assert!(result.f1_of("LR", WellnessDimension::Social).is_some());
    }

    #[test]
    fn table5_smoke_configuration_produces_a_report() {
        let result = run_table5(&Table5Config::smoke());
        assert_eq!(result.reports.len(), 1);
        let report = result.report_for("LR").unwrap();
        assert!(report.n_items > 0);
        assert!(report.f1 >= 0.0 && report.f1 <= 1.0);
        assert!(result.to_table().contains("F1-score"));
    }

    #[test]
    fn fig1_walkthrough_is_complete_and_deterministic() {
        let a = run_fig1_walkthrough(11);
        let b = run_fig1_walkthrough(11);
        assert_eq!(a, b);
        assert!(!a.text.is_empty());
        assert!(!a.gold_span.is_empty());
        assert_eq!(a.probabilities.len(), 6);
        assert!(a.to_string().contains("Predicted dimension"));
    }
}
