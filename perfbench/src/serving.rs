//! The serving workload `predict_lr`: the in-process server on loopback,
//! driven open-loop by the benchmark's own client with LR `/predict`, one
//! text per request, at a low rate, at a high rate, then a search for the
//! highest rate that meets the latency limit. Scoring is a small share of
//! each request, so the serving layers do nearly all the work.

use crate::client::{request_bytes, Client, PhaseRun, Planned, Reply};
use crate::layers;
use crate::prom::Scrape;
use crate::search::{search_max_rate, Found, Step, MAX_FAIL_FRAC, P99_LIMIT_MS};
use crate::server_layers::{
    batcher_layers, handler_and_conn_layers, reconcile_check, shed_frac, PhaseLayers, Residues,
};
use crate::stats::{median, ms, percentile, tail_label, tail_quantile, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};
use holistix::corpus::json::json_escape;
use holistix::corpus::JsonValue;
use holistix::explain::LimeConfig;
use holistix::prelude::*;
use holistix::transformer::zoo::FineTuneRecipe;
use holistix::{QuantizedScorer, Scorer, TransformerScorer};
use holistix_serve::{serve, KeepAliveConfig, ModelRegistry, RegistryConfig, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `predict_lr` rates (requests per second).
pub const LO_RATE: f64 = 50.0;
pub const HI_RATE: f64 = 800.0;
/// Search steps after the `hi` phase.
const SEARCH_STEPS: usize = 6;
/// Shares of the run: `lo`, `hi`, and the search gets the rest.
const LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.3;
/// Held-out texts the requests draw from.
const POOL: usize = 512;
/// Texts the traced run's direct LIME calls explain. LIME's cost follows a
/// text's length, so they are a sample stratified by length (see
/// `by_length`): every seed brings the same length mix.
const LIME_LAYER_TEXTS: usize = 8;
/// Training is the same on every run; only the requests vary with the seed.
const TRAIN_SEED: u64 = 42;
/// Posts the MentalBERT analogue is fine-tuned on.
const TRANSFORMER_TRAIN_POSTS: usize = 80;
/// Set-ups per run; `setup_s` is their median.
const PREDICT_SETUPS: usize = 9;
/// Mixed into the workload seed so the held-out corpus never coincides with
/// the training corpus.
const HELD_OUT_SALT: u64 = 0x4845_4c44_4f55_5421;
/// Latency charged to a request that failed or never completed.
const FAILED_LATENCY_MS: f64 = 10_000.0;
/// How long a phase waits past its last due instant for stragglers.
const DRAIN: Duration = Duration::from_secs(5);
/// Parts a measured phase is split into, each on fresh connections.
const SEGMENTS: u32 = 5;

/// The server configuration under test: the defaults, with the per-connection
/// request cap raised so the benchmark's few connections are never cycled
/// mid-phase.
fn serve_config() -> ServeConfig {
    ServeConfig {
        keep_alive: KeepAliveConfig {
            max_requests: 10_000_000,
            ..KeepAliveConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// `n` texts of `pool` at evenly spaced ranks of length.
fn by_length(pool: &[String], n: usize) -> Vec<String> {
    let mut by_length: Vec<&String> = pool.iter().collect();
    by_length.sort_by_key(|t| (t.len(), t.as_str()));
    let step = (by_length.len() / n).max(1);
    by_length
        .iter()
        .step_by(step)
        .take(n)
        .map(|t| t.to_string())
        .collect()
}

fn held_out_pool(seed: u64) -> Vec<String> {
    HolistixCorpus::generate_small(POOL, seed ^ HELD_OUT_SALT)
        .texts()
        .iter()
        .map(|t| t.to_string())
        .collect()
}

/// A running server plus everything needed to drive and check it.
struct Served {
    server: holistix_serve::ServerHandle,
    client: Client,
    lr: Arc<dyn Scorer>,
    pool: Vec<String>,
    lime: LimeConfig,
    /// One `/predict` payload per text of `pool`, plain and with `?trace=1`.
    payloads: Vec<Vec<u8>>,
    traced_payloads: Vec<Vec<u8>>,
    expected_rows: Option<Vec<Vec<f64>>>,
}

impl Served {
    fn new(
        server: holistix_serve::ServerHandle,
        lr: Arc<dyn Scorer>,
        pool: Vec<String>,
    ) -> std::io::Result<Self> {
        let n_conns = std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .min(2);
        let client = Client::connect(server.addr(), n_conns)?;
        let build = |suffix: &str| -> Vec<Vec<u8>> {
            pool.iter()
                .map(|t| {
                    let body = format!("{{\"texts\":[{}],\"model\":\"LR\"}}", json_escape(t));
                    request_bytes("POST", &format!("/predict{suffix}"), &body)
                })
                .collect()
        };
        let payloads = build("");
        let traced_payloads = build("?trace=1");
        Ok(Self {
            server,
            client,
            lr,
            lime: serve_config().lime,
            expected_rows: None,
            pool,
            payloads,
            traced_payloads,
        })
    }

    fn run(&mut self, schedule: &[Planned], traced: bool) -> PhaseRun {
        let payloads = if traced {
            &self.traced_payloads
        } else {
            &self.payloads
        };
        self.client.run(schedule, payloads, DRAIN)
    }

    /// Run `schedule` in `SEGMENTS` consecutive parts, each on freshly
    /// opened connections. The pollers race to accept, so which poller owns
    /// which connection is chance, and it moves latency; fresh connections
    /// per part make that chance part of every run. Latencies are reported
    /// as the median over the parts, so a burst of machine noise moves one
    /// part, not the result. The backlog figures are the last part's.
    fn run_segmented(&mut self, schedule: &[Planned], traced: bool) -> PhaseRun {
        let total = schedule.last().map_or(Duration::ZERO, |p| p.due) + Duration::from_nanos(1);
        let mut merged = PhaseRun {
            outcomes: Vec::with_capacity(schedule.len()),
            backlog_mid: 0,
            backlog_end: 0,
            parts: Vec::new(),
        };
        for k in 0..SEGMENTS {
            let (from, to) = (total * k / SEGMENTS, total * (k + 1) / SEGMENTS);
            let part: Vec<Planned> = schedule
                .iter()
                .filter(|p| p.due >= from && p.due < to)
                .map(|p| Planned {
                    due: p.due - from,
                    ..*p
                })
                .collect();
            self.client.reconnect();
            let run = self.run(&part, traced);
            merged.parts.push(run.outcomes.len());
            merged.outcomes.extend(run.outcomes);
            merged.backlog_mid = run.backlog_mid;
            merged.backlog_end = run.backlog_end;
        }
        merged
    }

    /// The server's `/metrics` in Prometheus text. A scrape that gets no
    /// answer, or not a 200, is an error: subtracting an empty scrape would
    /// read every per-layer figure as 0.
    fn scrape(&mut self) -> Result<Scrape, String> {
        let request = request_bytes("GET", "/metrics?format=prometheus", "");
        match self.client.call(0, &request, DRAIN) {
            Some(reply) if reply.status == 200 => Ok(Scrape::parse(&reply.body)),
            Some(reply) => Err(format!("/metrics answered {}", reply.status)),
            None => Err("/metrics did not answer".into()),
        }
    }

    /// Check one answer against a direct call into the same scorer (computed
    /// once per text, outside every timed window).
    fn check(&mut self, payload: usize, reply: &Reply) -> Result<(), String> {
        let doc = JsonValue::parse(&reply.body)?;
        if self.expected_rows.is_none() {
            let texts: Vec<&str> = self.pool.iter().map(|s| s.as_str()).collect();
            self.expected_rows = Some(self.lr.probabilities(&texts));
        }
        check_predict(&doc, &self.expected_rows.as_ref().unwrap()[payload])
    }
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn check_predict(doc: &JsonValue, expected: &[f64]) -> Result<(), String> {
    if doc.get("model").and_then(|m| m.as_str()) != Some("LR") {
        return Err("wrong model".into());
    }
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or("no results")?;
    let [result] = results else {
        return Err(format!("{} results for one text", results.len()));
    };
    let got: Vec<f64> = result
        .get("probabilities")
        .and_then(|p| p.as_array())
        .ok_or("no probabilities")?
        .iter()
        .map(|v| v.as_f64().unwrap_or(f64::NAN))
        .collect();
    if bits(got) != bits(expected.iter().copied()) {
        return Err("probabilities differ from a direct Scorer::probabilities call".into());
    }
    let label = holistix::linalg::argmax(expected).unwrap_or(0);
    if result.get("label_index").and_then(|v| v.as_usize()) != Some(label) {
        return Err("label differs from the direct call".into());
    }
    Ok(())
}

/// Poisson arrivals at `rate` for `seconds`, one stream.
fn poisson(
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    mut pick: impl FnMut(&mut Rng, usize) -> (usize, usize),
) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut due = Duration::ZERO;
    let end = Duration::from_secs_f64(seconds);
    loop {
        due += rng.poisson_gap(rate);
        if due >= end {
            return plan;
        }
        let (conn, payload) = pick(rng, plan.len());
        plan.push(Planned { due, conn, payload });
    }
}

/// `predict_lr` traffic: LR predicts alternating over the connections. The
/// same seed at another rate gives the same arrivals rescaled in time, so the
/// search compares rates, not random draws.
fn predict_schedule(served: &Served, rate: f64, seconds: f64, seed: u64) -> Vec<Planned> {
    let (n_conns, pool) = (served.client.n_conns(), served.pool.len());
    poisson(rate, seconds, &mut Rng::new(seed), |rng, i| {
        (i % n_conns, rng.below(pool))
    })
}

/// Counts and latencies of one phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub sent: usize,
    pub failed: usize,
    pub wrong: usize,
    /// Every request's latency in ms; failures count as `FAILED_LATENCY_MS`.
    pub latencies: Vec<f64>,
    /// Where each part of the phase ends in `latencies`.
    pub part_ends: Vec<usize>,
    pub late_ms: Vec<f64>,
}

impl Tally {
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.latencies.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.sorted(), q)
    }

    /// The median over the phase's parts of each part's `q` percentile.
    pub fn per_part(&self, q: f64) -> f64 {
        let mut start = 0;
        let mut values = Vec::new();
        for &end in &self.part_ends {
            if end > start {
                let mut part = self.latencies[start..end].to_vec();
                part.sort_by(f64::total_cmp);
                values.push(percentile(&part, q));
            }
            start = end;
        }
        median(&values)
    }

    pub fn fail_frac(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed as f64 / self.sent as f64
        }
    }
}

/// Tally a phase, checking every 200 answer and, in a traced phase,
/// attaching the server's stage breakdown to each request's span.
fn tally(
    served: &mut Served,
    run: &PhaseRun,
    mut tracer: Option<&mut Tracer>,
    phase: &str,
    errors: &mut Vec<String>,
) -> (Tally, Residues) {
    let mut t = Tally::default();
    let mut residues = Residues::default();
    let mut part_end = run.parts.iter().scan(0, |end, &n| {
        *end += n;
        Some(*end)
    });
    let mut next_end = part_end.next();
    for (index, outcome) in run.outcomes.iter().enumerate() {
        while next_end == Some(index) {
            t.part_ends.push(t.latencies.len());
            next_end = part_end.next();
        }
        t.sent += 1;
        t.late_ms.push(ms(outcome.late));
        match (&outcome.reply, outcome.latency) {
            (Some(reply), Some(latency)) if reply.status == 200 => {
                t.latencies.push(ms(latency));
                if let Err(e) = served.check(outcome.payload, reply) {
                    t.wrong += 1;
                    if errors.len() < 5 {
                        errors.push(format!("{phase}: {e}"));
                    }
                }
                if let Some(tracer) = tracer.as_deref_mut() {
                    let spans = record_spans(tracer, phase, reply, latency);
                    residues.add(spans, latency.as_secs_f64() * 1e6);
                }
            }
            _ => {
                t.failed += 1;
                t.latencies.push(FAILED_LATENCY_MS);
            }
        }
    }
    t.part_ends.push(t.latencies.len());
    (t, residues)
}

/// One client span per traced request, keyed by `X-Trace-Id`, with the
/// server's stages as children. Returns the span's self time and the
/// server's own total (its latest stage end), both in µs; `None` when the
/// answer carries no stage breakdown.
fn record_spans(
    tracer: &mut Tracer,
    phase: &str,
    reply: &Reply,
    latency: Duration,
) -> Option<(f64, f64)> {
    let doc = JsonValue::parse(&reply.body).ok()?;
    let stages = doc.get("trace")?.get("stages")?.as_array()?.to_vec();
    if stages.is_empty() {
        return None;
    }
    let key = reply.trace_id.clone().unwrap_or_default();
    let root = tracer.record_at(
        &format!("client.{phase}"),
        &key,
        None,
        0.0,
        latency.as_secs_f64() * 1e6,
    );
    let mut server_total: f64 = 0.0;
    for stage in stages {
        let name = stage.get("stage").and_then(|s| s.as_str()).unwrap_or("?");
        let dur = stage.get("dur_us").and_then(|d| d.as_f64()).unwrap_or(0.0);
        let at = stage.get("at_us").and_then(|d| d.as_f64()).unwrap_or(0.0);
        server_total = server_total.max(at);
        tracer.record_at(&format!("serve.{name}"), &key, Some(root), at - dur, dur);
    }
    Some((tracer.self_time_us(root), server_total))
}

fn step_of(rate: f64, seconds: f64, run: &PhaseRun, t: &Tally) -> Step {
    Step {
        rate,
        p99_ms: t.p(0.99),
        fail_frac: t.fail_frac(),
        backlog_mid: run.backlog_mid,
        backlog_end: run.backlog_end,
        seconds,
    }
}

/// Send `n` requests at once and require every answer — the warm-up that
/// ends each set-up.
fn warm_up(served: &mut Served, n: usize) -> Result<(), String> {
    let n_conns = served.client.n_conns();
    let plan: Vec<Planned> = (0..n)
        .map(|i| Planned {
            due: Duration::ZERO,
            conn: i % n_conns,
            payload: i % served.pool.len(),
        })
        .collect();
    let run = served.run(&plan, false);
    match run
        .outcomes
        .iter()
        .find(|o| o.reply.as_ref().is_none_or(|r| r.status != 200))
    {
        None => Ok(()),
        Some(first) => Err(format!(
            "warm-up: not every one of {n} requests answered (first failure: {first:?})"
        )),
    }
}

#[derive(Default)]
struct SetupTimes {
    corpus_s: Vec<f64>,
    registry_s: Vec<f64>,
    trainer_s: Vec<f64>,
    quantize_s: Vec<f64>,
}

fn setup_predict(times: &mut SetupTimes, seed: u64) -> Result<Served, String> {
    let start = Instant::now();
    let pool = held_out_pool(seed);
    times.corpus_s.push(start.elapsed().as_secs_f64());
    let start = Instant::now();
    let registry = ModelRegistry::fit_synthetic(&RegistryConfig::default());
    times.registry_s.push(start.elapsed().as_secs_f64());
    let lr = registry
        .get(BaselineKind::LogisticRegression)
        .ok_or("registry has no LR")?;
    let server = serve("127.0.0.1:0", registry, serve_config()).map_err(|e| e.to_string())?;
    let mut served = Served::new(server, lr, pool).map_err(|e| e.to_string())?;
    warm_up(&mut served, 64)?;
    Ok(served)
}

/// Fine-tune the Fast MentalBERT analogue on the fixed training posts and
/// quantize it to i8: the traced run's direct calls into `transformer::quant`
/// and `explain::lime` use it.
fn fit_quantized(times: &mut SetupTimes) -> Arc<dyn Scorer> {
    let train = HolistixCorpus::generate_small(TRANSFORMER_TRAIN_POSTS, TRAIN_SEED);
    let (texts, labels) = (train.texts(), train.label_indices());
    let start = Instant::now();
    let f64_scorer = TransformerScorer::fit(
        ModelKind::MentalBert,
        SpeedProfile::Fast,
        &texts,
        &labels,
        TRAIN_SEED,
    );
    times.trainer_s.push(start.elapsed().as_secs_f64());
    let start = Instant::now();
    let i8: Arc<dyn Scorer> = Arc::new(QuantizedScorer::from_transformer(&f64_scorer));
    times.quantize_s.push(start.elapsed().as_secs_f64());
    i8
}

fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn finish_common(report: &mut Report, setup: &[f64]) {
    report.metrics.set("setup_s", median(setup), "s");
    let ms: Vec<f64> = setup.iter().map(|s| s * 1e3).collect();
    report.note(format!("set-up times {ms:.2?} ms"));
    report.metrics.set("rss_peak_mb", rss_peak_mb(), "MB");
}

/// Report a phase's p50 under `name`: the median over the phase's parts of
/// each part's p50 when `per_part` (thousands of requests), else the whole
/// phase's (at 50 rps a part holds only a few dozen requests). The note adds the tail, the highest percentile
/// with ten samples beyond it; tails are printed, not gated (see README).
fn latency_metrics(
    report: &mut Report,
    name: &str,
    label: &str,
    t: &Tally,
    nominal: usize,
    per_part: bool,
) {
    let p50 = if per_part { t.per_part(0.5) } else { t.p(0.5) };
    report.metrics.set(name, p50, "ms");
    let q = tail_quantile(nominal);
    let slow = t.latencies.iter().filter(|&&l| l >= STALL_MS).count();
    report.note(format!(
        "{label}: p50 {p50:.3} ms, {} {:.3} ms over {} requests ({} failed, {slow} at or over {STALL_MS} ms)",
        tail_label(q),
        t.p(q),
        t.sent,
        t.failed
    ));
}

/// Latency at which a request counts as stalled in the report: the order of
/// a delayed ACK.
const STALL_MS: f64 = 30.0;

/// Set up `reps` times, keeping the last server; `setup_s` is the median.
fn set_up(
    reps: usize,
    mut once: impl FnMut(&mut SetupTimes) -> Result<Served, String>,
) -> Result<(Served, SetupTimes, Vec<f64>), String> {
    let mut times = SetupTimes::default();
    let mut durations = Vec::with_capacity(reps);
    let mut served = None;
    for _ in 0..reps {
        drop(served.take());
        let start = Instant::now();
        served = Some(once(&mut times)?);
        durations.push(start.elapsed().as_secs_f64());
    }
    Ok((served.expect("at least one set-up"), times, durations))
}

/// Run one untraced phase on fresh connections and tally it.
fn measure(
    served: &mut Served,
    schedule: &[Planned],
    phase: &str,
    errors: &mut Vec<String>,
) -> (Tally, PhaseRun) {
    let run = served.run_segmented(schedule, false);
    let (t, _) = tally(served, &run, None, phase, errors);
    (t, run)
}

/// Run one traced phase between two `/metrics` scrapes. A failed scrape
/// fails the run.
fn traced_phase(
    served: &mut Served,
    report: &mut Report,
    tracer: &mut Tracer,
    schedule: &[Planned],
    phase: &str,
    errors: &mut Vec<String>,
) -> (Tally, Residues, PhaseLayers) {
    let scrape = |served: &mut Served, report: &mut Report, when: &str| {
        served.scrape().unwrap_or_else(|e| {
            report.fail(format!("scrape {when} {phase}: {e}"));
            Scrape::default()
        })
    };
    let before = scrape(served, report, "before");
    let run = served.run_segmented(schedule, true);
    let after = scrape(served, report, "after");
    let (t, residues) = tally(served, &run, Some(tracer), phase, errors);
    let layers = PhaseLayers {
        scrape: (before, after),
    };
    (t, residues, layers)
}

/// Where a phase's requests spent their time: batch-queue wait, the
/// server's own end-to-end latency, and the client span's self time.
fn request_layers(report: &mut Report, layers: &PhaseLayers, residues: &Residues) {
    let m = &mut report.metrics;
    let queue_wait = layers.stage("queue_wait");
    m.set("serve.queue_wait_p50_us", queue_wait.percentile(0.5), "us");
    m.set("serve.queue_wait_p99_us", queue_wait.percentile(0.99), "us");
    let server = layers.server_latency();
    m.set("serve.server_p50_us", server.percentile(0.5), "us");
    m.set("serve.server_p99_us", server.percentile(0.99), "us");
    m.set("serve.client_residue_p50_us", residues.self_p50(), "us");
}

fn generator_layers(report: &mut Report, late_ms: &[f64]) {
    let mut sorted = late_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = &mut report.metrics;
    m.set("gen.late_p99_ms", percentile(&sorted, 0.99), "ms");
    m.set(
        "gen.late_max_ms",
        sorted.last().copied().unwrap_or(0.0),
        "ms",
    );
}

fn setup_layers(report: &mut Report, times: &SetupTimes) {
    let m = &mut report.metrics;
    m.set("corpus.generate_s", median(&times.corpus_s), "s");
    m.set("registry.fit_s", median(&times.registry_s), "s");
    if !times.trainer_s.is_empty() {
        let fit_s = median(&times.trainer_s);
        let recipe = FineTuneRecipe::fast(ModelKind::MentalBert, 6, TRAIN_SEED);
        let tokens =
            (TRANSFORMER_TRAIN_POSTS * recipe.model.max_len * recipe.finetune.epochs) as f64;
        m.set("trainer.fit_s", fit_s, "s");
        m.set("trainer.tokens_per_s", tokens / fit_s, "1/s");
        m.set("quant.quantize_s", median(&times.quantize_s), "s");
    }
}

/// Counts, wrong answers, generator lateness and set-up figures, then stop
/// the server: the end of every serving run.
fn finish(
    report: &mut Report,
    served: Served,
    tallies: &[&Tally],
    errors: Vec<String>,
    times: &SetupTimes,
    setup: &[f64],
) {
    let mut late = Vec::new();
    for t in tallies {
        report.absorb_counts(t);
        late.extend(&t.late_ms);
        if t.wrong > 0 {
            report.fail(format!("{} wrong answers", t.wrong));
        }
    }
    report.errors.extend(errors);
    generator_layers(report, &late);
    setup_layers(report, times);
    finish_common(report, setup);
    served.server.shutdown();
}

/// The `rate_per_s` search from the `hi` phase's result. Each step runs on
/// fresh connections, with the same arrivals rescaled to its rate. Returns
/// what the search found and wrong answers seen along the way.
fn search(
    served: &mut Served,
    first: Step,
    step_s: f64,
    seed: u64,
    errors: &mut Vec<String>,
) -> (Found, usize) {
    let mut wrong = 0;
    let found = search_max_rate(first, SEARCH_STEPS, |rate| {
        let plan = predict_schedule(served, rate, step_s, seed);
        served.client.reconnect();
        let run = served.run(&plan, false);
        let (t, _) = tally(served, &run, None, "search", errors);
        wrong += t.wrong;
        step_of(rate, step_s, &run, &t)
    });
    (found, wrong)
}

/// `predict_lr`: phases `lo` (`LO_SHARE` of the run), `hi` (`HI_SHARE`) and
/// the search for `rate_per_s` (the rest, in `SEARCH_STEPS` equal steps).
pub fn predict_lr(args: &Args, report: &mut Report) -> Result<(), String> {
    let (mut served, times, setup) =
        set_up(PREDICT_SETUPS, |times| setup_predict(times, args.seed))?;
    let (lo_s, hi_s) = (args.seconds * LO_SHARE, args.seconds * HI_SHARE);
    let step_s = args.seconds * (1.0 - LO_SHARE - HI_SHARE) / SEARCH_STEPS as f64;
    let lo_plan = predict_schedule(&served, LO_RATE, lo_s, args.seed ^ 1);
    let hi_plan = predict_schedule(&served, HI_RATE, hi_s, args.seed ^ 2);
    let search_seed = args.seed ^ 3;
    let mut errors = Vec::new();

    if !args.trace {
        let (lo, _) = measure(&mut served, &lo_plan, "lo", &mut errors);
        let (hi, hi_run) = measure(&mut served, &hi_plan, "hi", &mut errors);
        let first = step_of(HI_RATE, hi_s, &hi_run, &hi);
        let (found, wrong) = search(&mut served, first, step_s, search_seed, &mut errors);
        if wrong > 0 {
            report.fail(format!("{wrong} wrong answers during the search"));
        }
        for s in &found.tried {
            report.note(format!(
                "  step {:7.1} rps: p99 {:8.3} ms, failed {:.4}, backlog {} -> {} => {}",
                s.rate,
                s.p99_ms,
                s.fail_frac,
                s.backlog_mid,
                s.backlog_end,
                if s.passes() { "pass" } else { "fail" }
            ));
        }
        let hi_n = (HI_RATE * hi_s) as usize;
        let lo_n = (LO_RATE * lo_s) as usize;
        latency_metrics(report, "p50_ms", "predict_hi (800 rps)", &hi, hi_n, true);
        latency_metrics(
            report,
            "side_p50_ms",
            "predict_lo (50 rps)",
            &lo,
            lo_n,
            false,
        );
        report.metrics.set("rate_per_s", found.rate, "1/s");
        report.note(format!(
            "predict_max_rps {:.1} (p99 <= {P99_LIMIT_MS} ms, failed <= {MAX_FAIL_FRAC}, no growing backlog; highest passing step {:.1})",
            found.rate,
            found.verified.unwrap_or(0.0),
        ));
        finish(report, served, &[&lo, &hi], errors, &times, &setup);
        return Ok(());
    }

    // Traced: `lo` and `hi` again with `?trace=1` between scrapes, `hi`
    // untraced once more for the tracing overhead, the search (untraced),
    // and one traced step at the highest rate a search step passed at.
    let mut tracer = Tracer::new();
    let (lo, lo_residues, lo_layers) = traced_phase(
        &mut served,
        report,
        &mut tracer,
        &lo_plan,
        "lo",
        &mut errors,
    );
    let (hi_untraced, hi_run) = measure(&mut served, &hi_plan, "hi", &mut errors);
    let (hi, hi_residues, hi_layers) = traced_phase(
        &mut served,
        report,
        &mut tracer,
        &hi_plan,
        "hi",
        &mut errors,
    );
    let first = step_of(HI_RATE, hi_s, &hi_run, &hi_untraced);
    let (found, wrong) = search(&mut served, first, step_s, search_seed, &mut errors);
    if wrong > 0 {
        report.fail(format!("{wrong} wrong answers during the search"));
    }
    let knee = found.verified.unwrap_or(found.rate);
    let knee_plan = predict_schedule(&served, knee, step_s, search_seed);
    let (at_knee, knee_residues, knee_layers) = traced_phase(
        &mut served,
        report,
        &mut tracer,
        &knee_plan,
        "knee",
        &mut errors,
    );

    request_layers(report, &lo_layers, &lo_residues);
    let overhead_us = (hi.p(0.5) - hi_untraced.p(0.5)) * 1e3;
    report
        .metrics
        .set("trace.overhead_p50_us", overhead_us, "us");
    handler_and_conn_layers(report, &hi_layers);
    batcher_layers(report, &hi_layers, false, true);
    batcher_layers(report, &knee_layers, true, false);
    let shed = shed_frac(&[&lo_layers, &hi_layers]);
    report.metrics.set("admission.shed_frac", shed, "frac");
    reconcile_check(report, "lo", &lo_layers, &lo_residues, lo.p(0.5));
    reconcile_check(report, "hi", &hi_layers, &hi_residues, hi.p(0.5));
    reconcile_check(report, "knee", &knee_layers, &knee_residues, at_knee.p(0.5));
    report.note(format!(
        "knee {knee:.0} rps (predict_max_rps {:.0}): mean LR batch {:.2} (handlers {}); at lo, queue_wait p50 {:.0} us of a {:.3} ms client p50",
        found.rate,
        report.metrics.get("batcher.mean_batch.LR").unwrap_or(0.0),
        serve_config().handlers,
        report.metrics.get("serve.queue_wait_p50_us").unwrap_or(0.0),
        lo.p(0.5),
    ));
    // The transformer layers, by direct calls on the same held-out texts.
    let mut times = times;
    let i8 = fit_quantized(&mut times);
    let lime_texts = by_length(&served.pool, LIME_LAYER_TEXTS);
    layers::serving(
        report,
        &mut tracer,
        &served.payloads,
        &served.pool,
        &served.lr,
        &i8,
        &lime_texts,
        &served.lime,
    );
    report.save_trace(&tracer);
    if at_knee.wrong > 0 {
        report.fail(format!("{} wrong answers at the knee", at_knee.wrong));
    }
    finish(report, served, &[&lo, &hi], errors, &times, &setup);
    Ok(())
}
