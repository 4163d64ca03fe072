//! The Holistix benchmark: two workloads, each checked for correctness,
//! each printing its end-to-end metrics (or, with `--trace 1`, its per-layer
//! metrics) as the last line of standard output.
//!
//! ```text
//! perfbench --workload <predict_lr|table4_cv> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-table4 <seed>       # Table IV fingerprint, 1,420 posts, sequential folds
//! perfbench --print-table4-half <seed>  # the same on 710 posts (the golden files hold both)
//! ```
//!
//! Every workload prints the same metric names; what each name measures on
//! each workload is listed in `perfbench/README.md`. A per-layer metric of a
//! layer the workload does not exercise reads 0.

mod client;
mod cv;
mod layers;
mod prom;
mod search;
mod server_layers;
mod serving;
mod stats;
mod trace;

use stats::{json_number, Metrics};
use std::path::PathBuf;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("p50_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("batcher.mean_batch.LR", "count"),
    ("batcher.score_p50_us.LR", "us"),
    ("serve.dispatch_p50_us", "us"),
    ("serve.dispatch_p99_us", "us"),
    ("serve.prepare_p50_us", "us"),
    ("serve.respond_p50_us", "us"),
    ("serve.write_p50_us", "us"),
    ("serve.write_p99_us", "us"),
    ("conn.wakeups_per_req", "count"),
    ("conn.pipelined_frac", "frac"),
    ("threads.os_threads", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.client_residue_p50_us", "us"),
    ("admission.shed_frac", "frac"),
    ("http.parse_us", "us"),
    ("http.write_response_us", "us"),
    ("json.parse_us", "us"),
    ("text.analyze_us", "us"),
    ("ml.vectorize_us", "us"),
    ("scorer.lr_us.single", "us"),
    ("scorer.lr_us.batch32", "us"),
    ("quant.i8_us.single", "us"),
    ("quant.i8_us.batch32", "us"),
    ("quant.quantize_s", "s"),
    ("lime.explain_ms.lr", "ms"),
    ("lime.explain_ms.i8", "ms"),
    ("cv.fit_s.LR", "s"),
    ("cv.fit_s.SVM", "s"),
    ("cv.fit_s.NB", "s"),
    ("features.fit_s", "s"),
    ("cv.score_s", "s"),
    ("trainer.fit_s", "s"),
    ("trainer.tokens_per_s", "1/s"),
    ("registry.fit_s", "s"),
    ("corpus.generate_s", "s"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_p50_us", "us"),
    ("reconcile.gap_frac", "frac"),
];

/// What the generic end-to-end names mean on each workload, for the
/// human-readable part of the output.
fn aliases(workload: &str) -> [&'static str; 3] {
    match workload {
        "predict_lr" => ["predict_hi_p50_ms", "predict_lo_p50_ms", "predict_max_rps"],
        _ => [
            "table4_pass_p50_ms",
            "table4_half_pass_p50_ms",
            "cv_fits_per_s",
        ],
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One run's result.
pub struct Report {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    notes: Vec<String>,
    trace_path: PathBuf,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A correctness failure: the run reports `correct: false` and exits 1.
    pub fn fail(&mut self, message: String) {
        self.correct = false;
        self.errors.push(message);
    }

    pub fn absorb_counts(&mut self, t: &serving::Tally) {
        self.attempted += t.sent as u64;
        self.failed += (t.failed + t.wrong) as u64;
    }

    pub fn save_trace(&mut self, tracer: &trace::Tracer) {
        match tracer.write_jsonl(&self.trace_path) {
            Ok(()) => self.note(format!("spans written to {}", self.trace_path.display())),
            Err(e) => self.note(format!("could not write spans: {e}")),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => args.trace = value == "1",
            "--print-table4" | "--print-table4-half" => {
                let seed: u64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
                let corpus = if flag == "--print-table4" {
                    holistix::corpus::HolistixCorpus::generate(seed)
                } else {
                    holistix::corpus::HolistixCorpus::generate_small(cv::HALF_POSTS, seed)
                };
                let mut config = cv::config(false);
                config.seed = seed;
                let result = holistix::experiments::run_table4_on(&corpus, &config);
                print!("{}", cv::fingerprint(&result));
                std::process::exit(0);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    let mut report = Report {
        metrics: Metrics::default(),
        correct: true,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
        trace_path: target
            .join("perfbench-traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed)),
    };
    let outcome = match args.workload.as_str() {
        "predict_lr" => serving::predict_lr(&args, &mut report),
        "table4_cv" => cv::table4_cv(&args, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    print_report(&args, &report);
    if !report.correct {
        std::process::exit(1);
    }
}

fn print_report(args: &Args, report: &Report) {
    let (_, git) = holistix_serve::build_info();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "record: commit {git} nproc {nproc} workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let fail_frac = if report.attempted > 0 {
        report.failed as f64 / report.attempted as f64
    } else {
        0.0
    };
    println!(
        "requests: sent {} succeeded {} failed {} (fail_frac {fail_frac})",
        report.attempted,
        report.attempted - report.failed.min(report.attempted),
        report.failed
    );
    for line in &report.notes {
        println!("{line}");
    }
    for error in &report.errors {
        println!("error: {error}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let alias = aliases(&args.workload);
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = report.metrics.get(name).unwrap_or(0.0);
        let alias_name = END_TO_END
            .iter()
            .skip(2)
            .position(|(n, _)| *n == name)
            .map(|i| format!("  ({})", alias[i]))
            .unwrap_or_default();
        println!("  {name:<28} {value:>14.4} {unit}{alias_name}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units the binary prints are exactly those
    /// `BENCHMARK.json` declares, and every name is `[A-Za-z0-9_.-]+`.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = holistix::corpus::JsonValue::parse(&text).unwrap();
        for (section, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(section)
                .and_then(|s| s.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{section}");
            for (name, _) in &ours {
                assert!(stats::valid_name(name), "{name}");
            }
        }
    }
}
