//! `table4_cv`: the paper's Table IV reproduction, no server. Every pass runs
//! `run_table4_on` with the paper's classical configuration — 10 stratified
//! folds, LR / linear SVM / Gaussian NB, folds in parallel — on the paper's
//! 1,420 posts or on the same calibration scaled to half (711 posts), and
//! must equal, bit for bit, the committed golden file of its corpus, recorded
//! with sequential (`parallel: false`) folds. The corpora and the folds are the paper
//! configuration's (seed 42) on every run, so every run does the same work;
//! `--seed` only decides, round by round, which of the two passes goes first.
//! Every timed pass keeps both cores busy: a single-threaded pass read the
//! host's speed far more than the program's.

use crate::layers;
use crate::stats::{median, percentile, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};
use holistix::corpus::kfold_stratified;
use holistix::experiments::run_table4_on;
use holistix::ml::{TextPipeline, TfidfVectorizer, VectorizerOptions};
use holistix::prelude::*;
use std::time::Instant;

/// The seed of the corpus, the folds and the classifiers: the paper
/// configuration's, for which the golden file was recorded.
pub const GOLDEN_SEED: u64 = 42;
const GOLDEN: &str = include_str!("../golden/table4_seed42.txt");
/// The second input size: the same calibration scaled to half the posts.
pub const HALF_POSTS: usize = 710;
const GOLDEN_HALF: &str = include_str!("../golden/table4_half_seed42.txt");
const SETUP_REPS: usize = 3;

pub fn config(parallel: bool) -> EvaluationConfig {
    let mut config = EvaluationConfig::paper().classical_only();
    config.seed = GOLDEN_SEED;
    config.parallel = parallel;
    config
}

/// Every number of a Table IV result, floats as their bit patterns: equal
/// fingerprints mean bit-identical results.
pub fn fingerprint(result: &Table4Result) -> String {
    let mut out = format!("folds {} posts {}\n", result.n_folds, result.corpus_size);
    for row in &result.rows {
        let r = &row.report;
        out.push_str(&format!(
            "{} acc {:016x} std {:016x} macro {:016x} {:016x} {:016x} weighted {:016x}\n",
            row.model,
            r.accuracy.to_bits(),
            row.accuracy_std.to_bits(),
            r.macro_precision.to_bits(),
            r.macro_recall.to_bits(),
            r.macro_f1.to_bits(),
            r.weighted_f1.to_bits(),
        ));
        for (class, m) in r.per_class.iter().enumerate() {
            out.push_str(&format!(
                "  {class} p {:016x} r {:016x} f {:016x} n {}\n",
                m.precision.to_bits(),
                m.recall.to_bits(),
                m.f1.to_bits(),
                m.support
            ));
        }
    }
    out
}

pub fn table4_cv(args: &Args, report: &mut Report) -> Result<(), String> {
    let n_kinds = BaselineKind::CLASSICAL.len();
    let golden = [GOLDEN, GOLDEN_HALF];
    let corpora = || {
        [
            HolistixCorpus::generate(GOLDEN_SEED),
            HolistixCorpus::generate_small(HALF_POSTS, GOLDEN_SEED),
        ]
    };
    // Set-up: both corpora and one pass on each, which must equal its golden
    // file, several times over.
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut set_up = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let both = corpora();
        generate.push(start.elapsed().as_secs_f64());
        for (corpus, golden) in both.iter().zip(golden) {
            if fingerprint(&run_table4_on(corpus, &config(true))) != golden {
                report.fail(format!(
                    "set-up pass on {} posts differs from its golden file",
                    corpus.len()
                ));
            }
        }
        setup.push(start.elapsed().as_secs_f64());
        set_up = Some(both);
    }
    let corpora = set_up.expect("at least one set-up");
    report
        .metrics
        .set("corpus.generate_s", median(&generate), "s");

    // Timed passes on the full and the half corpus in turn (which goes first
    // in a round is drawn from the seed), each checked against its golden file.
    let mut full_ms = Vec::new();
    let mut half_ms = Vec::new();
    let mut wrong = 0u64;
    // A traced run times the layers instead, so one full pass will do.
    let (min_passes, budget_s) = if args.trace {
        (1, 0.0)
    } else {
        (2, args.seconds)
    };
    let mut order = Rng::new(args.seed);
    let started = Instant::now();
    while full_ms.len() < min_passes || started.elapsed().as_secs_f64() < budget_s {
        let mut round = [(0, &mut full_ms), (1, &mut half_ms)];
        if order.below(2) == 1 {
            round.reverse();
        }
        for (which, times) in round {
            if args.trace && which == 1 {
                continue;
            }
            let start = Instant::now();
            let result = run_table4_on(&corpora[which], &config(true));
            times.push(start.elapsed().as_secs_f64() * 1e3);
            if fingerprint(&result) != golden[which] {
                wrong += 1;
            }
        }
    }
    let attempted = (full_ms.len() + half_ms.len()) as u64;
    if wrong > 0 {
        report.fail(format!(
            "{wrong} of {attempted} passes differ from their golden file"
        ));
    }
    report.attempted += attempted;
    report.failed += wrong;
    let folds = config(true).n_folds;
    let fits = (full_ms.len() * n_kinds * folds) as f64;
    let full_s = full_ms.iter().sum::<f64>() / 1e3;

    if args.trace {
        let mut tracer = Tracer::new();
        fit_layers(report, &mut tracer, &corpora[0], args.seed);
        report.save_trace(&tracer);
    } else {
        let mut sorted = full_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 0.5);
        let slowest = sorted.last().copied().unwrap_or(0.0);
        let half = median(&half_ms);
        report.metrics.set("p50_ms", p50, "ms");
        report.metrics.set("side_p50_ms", half, "ms");
        report.metrics.set("rate_per_s", fits / full_s, "1/s");
        report.note(format!(
            "table IV pass, {} posts: p50 {p50:.1} ms, max {slowest:.1} ms over {} passes; {} posts: p50 {half:.1} ms over {} passes; cv_fits_per_s {:.3} ({fits} fits in {full_s:.2} s)",
            corpora[0].len(),
            sorted.len(),
            corpora[1].len(),
            half_ms.len(),
            fits / full_s,
        ));
    }
    crate::serving::finish_common(report, &setup);
    Ok(())
}

/// The fit path of one fold, by direct calls: TF-IDF fit, each classifier's
/// pipeline fit, and test-fold scoring, on one of the paper configuration's
/// folds, chosen from the seed.
fn fit_layers(report: &mut Report, tracer: &mut Tracer, corpus: &HolistixCorpus, seed: u64) {
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let folds = kfold_stratified(&labels, 6, 10, GOLDEN_SEED);
    let fold = &folds.folds[Rng::new(seed).below(folds.folds.len())];
    let train: Vec<&str> = fold.train.iter().map(|&i| texts[i]).collect();
    let train_labels: Vec<usize> = fold.train.iter().map(|&i| labels[i]).collect();
    let test: Vec<&str> = fold.test.iter().map(|&i| texts[i]).collect();

    let (vectorizer, fit) = tracer.time("features.fit", || {
        TfidfVectorizer::fit(&train, VectorizerOptions::paper_default())
    });
    report.metrics.set("features.fit_s", fit.as_secs_f64(), "s");
    let mut score_s = 0.0;
    for (kind, suffix) in [
        (BaselineKind::LogisticRegression, "LR"),
        (BaselineKind::LinearSvm, "SVM"),
        (BaselineKind::GaussianNb, "NB"),
    ] {
        let mut pipeline = BaselinePipeline::new(kind, SpeedProfile::Paper, GOLDEN_SEED);
        let (_, fit) = tracer.time(&format!("cv.fit.{suffix}"), || {
            pipeline.fit(&train, &train_labels)
        });
        report
            .metrics
            .set(&format!("cv.fit_s.{suffix}"), fit.as_secs_f64(), "s");
        let (_, score) = tracer.time(&format!("cv.score.{suffix}"), || pipeline.predict(&test));
        score_s += score.as_secs_f64();
    }
    report.metrics.set("cv.score_s", score_s, "s");
    layers::text_layers(report, tracer, &vectorizer, &test);
}
