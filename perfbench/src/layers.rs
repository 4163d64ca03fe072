//! Direct calls into each crate's public functions, replaying a workload's
//! own inputs, one span per measured loop. Each figure is the median of the
//! individually timed calls.

use crate::stats::median;
use crate::trace::Tracer;
use crate::Report;
use holistix::corpus::JsonValue;
use holistix::explain::{LimeConfig, LimeExplainer};
use holistix::pipeline::tfidf_features_sparse;
use holistix::prelude::*;
use holistix::Scorer;
use holistix_serve::http::{write_response, RequestParser, Response};
use std::sync::Arc;
use std::time::Instant;

/// Posts the text/feature layers' vectorizer is fitted on (the registry's
/// training size).
const VECTORIZER_POSTS: usize = 400;
const VECTORIZER_SEED: u64 = 42;
/// Calls per measured loop for the cheap layers.
const CALLS: usize = 2000;

/// Time `calls` invocations of `f(i)` one by one; record the loop as one
/// span and return the median call in µs.
fn per_call_us(tracer: &mut Tracer, name: &str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(calls);
    let start = Instant::now();
    for i in 0..calls {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    tracer.record(name, "", None, start, start.elapsed());
    median(&samples)
}

fn body_of(request: &[u8]) -> &str {
    let at = request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(request.len(), |p| p + 4);
    std::str::from_utf8(&request[at..]).unwrap_or("")
}

/// A `/predict` answer shaped like the server's, for the response writer.
fn predict_body(row: &[f64]) -> String {
    let label = holistix::linalg::argmax(row).unwrap_or(0);
    JsonValue::object(vec![
        ("model", JsonValue::string("LR")),
        (
            "results",
            JsonValue::Array(vec![JsonValue::object(vec![
                (
                    "probabilities",
                    JsonValue::Array(row.iter().map(|&p| JsonValue::Number(p)).collect()),
                ),
                (
                    "label",
                    JsonValue::string(WellnessDimension::from_index(label).code()),
                ),
                ("label_index", JsonValue::Number(label as f64)),
            ])]),
        ),
    ])
    .to_string()
}

/// Scoring cost per text, single and in batches of 32.
fn scorer_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    name: &str,
    scorer: &Arc<dyn Scorer>,
    texts: &[&str],
    calls: usize,
) {
    let single = per_call_us(tracer, &format!("{name}.single"), calls, |i| {
        std::hint::black_box(scorer.probabilities(&texts[i % texts.len()..][..1]));
    });
    let batches: Vec<&[&str]> = texts.chunks_exact(32).collect();
    let batch = per_call_us(
        tracer,
        &format!("{name}.batch32"),
        batches.len().max(1),
        |i| {
            std::hint::black_box(scorer.probabilities(batches[i % batches.len()]));
        },
    ) / 32.0;
    report.metrics.set(&format!("{name}.single"), single, "us");
    report.metrics.set(&format!("{name}.batch32"), batch, "us");
}

/// The serving workload's layers: HTTP framing and JSON on the workload's
/// request bytes, then text analysis, vectorizing and scoring of its texts,
/// i8 inference of the same texts, and LIME on `lime_texts`.
#[allow(clippy::too_many_arguments)]
pub fn serving(
    report: &mut Report,
    tracer: &mut Tracer,
    requests: &[Vec<u8>],
    pool: &[String],
    lr: &Arc<dyn Scorer>,
    i8: &Arc<dyn Scorer>,
    lime_texts: &[String],
    lime: &LimeConfig,
) {
    let parse = per_call_us(tracer, "http.parse", CALLS, |i| {
        let mut parser = RequestParser::new();
        parser.feed(&requests[i % requests.len()]);
        std::hint::black_box(parser.poll_request().ok().flatten());
    });
    let texts: Vec<&str> = pool.iter().map(|s| s.as_str()).collect();
    let rows = lr.probabilities(&texts[..64.min(texts.len())]);
    let responses: Vec<Response> = rows.iter().map(|r| Response::ok(predict_body(r))).collect();
    let mut out = Vec::with_capacity(1024);
    let write = per_call_us(tracer, "http.write_response", CALLS, |i| {
        out.clear();
        let _ = write_response(
            &mut out,
            &responses[i % responses.len()],
            true,
            Some("0123456789abcdef"),
        );
    });
    let json = per_call_us(tracer, "json.parse", CALLS, |i| {
        std::hint::black_box(JsonValue::parse(body_of(&requests[i % requests.len()])).ok());
    });
    let m = &mut report.metrics;
    m.set("http.parse_us", parse, "us");
    m.set("http.write_response_us", write, "us");
    m.set("json.parse_us", json, "us");

    let training = HolistixCorpus::generate_small(VECTORIZER_POSTS, VECTORIZER_SEED);
    let (vectorizer, _) = tfidf_features_sparse(&training.texts());
    text_layers(report, tracer, &vectorizer, &texts);
    scorer_layers(report, tracer, "scorer.lr_us", lr, &texts, CALLS);

    scorer_layers(
        report,
        tracer,
        "quant.i8_us",
        i8,
        &texts[..256.min(texts.len())],
        64,
    );
    for (name, model) in [("lime.explain_ms.lr", lr), ("lime.explain_ms.i8", i8)] {
        let model: &dyn Scorer = &**model;
        let explainer = LimeExplainer::new(lime.clone());
        let ms = per_call_us(tracer, name, lime_texts.len(), |i| {
            std::hint::black_box(explainer.explain(model, &lime_texts[i], None));
        }) / 1e3;
        report.metrics.set(name, ms, "ms");
    }
}

/// Text analysis and sparse vectorizing, per document.
pub fn text_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    vectorizer: &holistix::ml::TfidfVectorizer,
    texts: &[&str],
) {
    let analyze = per_call_us(tracer, "text.analyze", CALLS, |i| {
        std::hint::black_box(vectorizer.analyze_document(texts[i % texts.len()]));
    });
    let vectorize = per_call_us(tracer, "ml.vectorize", CALLS, |i| {
        std::hint::black_box(vectorizer.transform_sparse(&texts[i % texts.len()..][..1]));
    });
    report.metrics.set("text.analyze_us", analyze, "us");
    report.metrics.set("ml.vectorize_us", vectorize, "us");
}
