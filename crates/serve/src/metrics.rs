//! Serving metrics: request counters, per-kind queue statistics, batch-size
//! and latency histograms, per-endpoint stage histograms and the slow-trace
//! ring — exposed as JSON *and* Prometheus text by `GET /metrics`.
//!
//! The module has three parts:
//!
//! * **Recorders.** [`ServeMetrics`] and its sections ([`QueueMetrics`] per
//!   scorer kind, [`ConnectionMetrics`], [`AdmissionMetrics`], and the
//!   stage histograms in [`Obs`]) are atomics and [`LogHistogram`]s (one
//!   atomic counter per log2 bucket). A `/metrics` scrape can never block a
//!   recording thread, and recording threads never block each other. The
//!   only mutexes guard registration-time state (the queue list, the thread
//!   plan, the admission limits), touched once per server start and once per
//!   scrape — never per request or per text.
//! * **One walk.** `ServeMetrics::visit` reads every value once and hands
//!   it to a `MetricSink` with its place in the JSON document and, where it
//!   has one, its Prometheus series. Cross-queue totals (`texts_scored`, the
//!   `batches` histogram) are derived there from the per-queue readings, not
//!   recorded twice.
//! * **Two sinks.** [`ServeMetrics::snapshot`] builds the JSON document and
//!   [`ServeMetrics::render_prometheus`] the text exposition from the same
//!   walk, so the two formats agree by construction.
//!
//! End-to-end request latency is recorded when a response's **last byte
//! reaches the socket** (trace finalization in the poller), not when the
//! response is built — so a client that drains slowly shows up in the tail.

use crate::obs::{HistogramSnapshot, LogHistogram, Obs, RequestTrace, STAGE_NAMES};
use crate::registry::FitStats;
use holistix_corpus::json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Crate version and git describe (the latter baked in by `build.rs` when
/// the repository is available at compile time). Served by `/healthz`'s
/// `build` section and mirrored as the `holistix_build_info` gauge.
pub fn build_info() -> (&'static str, &'static str) {
    (
        env!("CARGO_PKG_VERSION"),
        option_env!("HOLISTIX_GIT_DESCRIBE").unwrap_or("unknown"),
    )
}

/// Which endpoint a request hit, for per-endpoint counters and stage
/// histograms. [`Endpoint::name`] values double as the `endpoint` label in
/// the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /predict`.
    Predict,
    /// `POST /explain`.
    Explain,
    /// `POST /reload`.
    Reload,
    /// `GET /healthz`.
    Health,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/slow`.
    DebugSlow,
    /// Anything else: unknown paths, wrong methods, unparseable requests.
    Other,
}

impl Endpoint {
    /// Every endpoint, in [`index`](Self::index) order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Predict,
        Endpoint::Explain,
        Endpoint::Reload,
        Endpoint::Health,
        Endpoint::Metrics,
        Endpoint::DebugSlow,
        Endpoint::Other,
    ];

    /// Stable index into the per-endpoint counter and histogram tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The endpoint's name: JSON key in the `requests` section and
    /// `endpoint` label value in Prometheus.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Explain => "explain",
            Endpoint::Reload => "reload",
            Endpoint::Health => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::DebugSlow => "debug_slow",
            Endpoint::Other => "other",
        }
    }

    /// Route a parsed request line to its endpoint. The single source of
    /// routing truth: the connection layer resolves every parsed request
    /// once, so a request shed by the rate limiter is counted under the
    /// endpoint it asked for.
    pub fn resolve(method: &str, path: &str) -> Endpoint {
        match (method, path) {
            ("POST", "/predict") => Endpoint::Predict,
            ("POST", "/explain") => Endpoint::Explain,
            ("POST", "/reload") => Endpoint::Reload,
            ("GET", "/healthz") => Endpoint::Health,
            ("GET", "/metrics") => Endpoint::Metrics,
            ("GET", "/debug/slow") => Endpoint::DebugSlow,
            _ => Endpoint::Other,
        }
    }
}

/// Why a request was shed with `429 Too Many Requests`. Doubles as the
/// `reason` label on `holistix_shed_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The target kind's batch queue was at its configured depth cap.
    QueueFull,
    /// The connection's token bucket was empty.
    RateLimited,
    /// Graceful degradation: `/explain` shed under aggregate queue pressure
    /// so `/predict` could keep serving.
    Degraded,
}

impl ShedReason {
    /// Every reason, in [`index`](Self::index) order.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::QueueFull,
        ShedReason::RateLimited,
        ShedReason::Degraded,
    ];

    /// Stable index into the per-reason counter array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The reason's name: JSON key and Prometheus `reason` label value.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RateLimited => "rate_limited",
            ShedReason::Degraded => "degraded",
        }
    }
}

/// Why a batch queue's drain loop closed a batch. Doubles as the `reason`
/// label on `holistix_queue_batch_close_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose {
    /// The batch reached `max_batch` texts.
    Full,
    /// The channel ran empty while jobs were arriving too slowly to fill the
    /// batch within the window (or the queue was shutting down).
    Empty,
    /// The window ran out: jobs were arriving fast enough to wait for, but
    /// not enough came within `max_wait`.
    Window,
}

impl BatchClose {
    /// Every reason, in index order (`self as usize`).
    pub const ALL: [BatchClose; 3] = [BatchClose::Full, BatchClose::Empty, BatchClose::Window];

    /// The reason's name: JSON key and Prometheus `reason` label value.
    pub fn name(self) -> &'static str {
        match self {
            BatchClose::Full => "full",
            BatchClose::Empty => "empty",
            BatchClose::Window => "window",
        }
    }
}

/// The configured admission limits, echoed into `/metrics` so an operator can
/// read the active policy next to the counters it drives.
#[derive(Debug, Clone, Copy)]
struct AdmissionLimits {
    max_queue_depth: u64,
    global_intake_limit: u64,
    explain_shed_depth: u64,
    /// `(rate_per_s, burst)` when per-client rate limiting is on.
    rate_limit: Option<(f64, f64)>,
}

/// Admission-control observability: shed counters per endpoint × reason, the
/// intake-valve gauge and its open→closed transition counter, and an echo of
/// the configured limits. Lives in [`ServeMetrics`] so the admission policy
/// and `/metrics` read the same state.
#[derive(Debug)]
pub struct AdmissionMetrics {
    /// Shed (429) responses, indexed `[Endpoint::index()][ShedReason::index()]`.
    shed: [[AtomicU64; 3]; 7],
    /// 1 while the global intake valve is closed (pollers not reading).
    intake_closed: AtomicU64,
    /// Open→closed transitions of the intake valve.
    intake_closures_total: AtomicU64,
    limits: Mutex<Option<AdmissionLimits>>,
}

impl Default for AdmissionMetrics {
    fn default() -> Self {
        Self {
            shed: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            intake_closed: AtomicU64::new(0),
            intake_closures_total: AtomicU64::new(0),
            limits: Mutex::new(None),
        }
    }
}

impl AdmissionMetrics {
    /// Count one shed (429) response.
    pub fn record_shed(&self, endpoint: Endpoint, reason: ShedReason) {
        self.shed[endpoint.index()][reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds so far for one endpoint × reason cell.
    pub fn shed_count(&self, endpoint: Endpoint, reason: ShedReason) -> u64 {
        self.shed[endpoint.index()][reason.index()].load(Ordering::Relaxed)
    }

    /// Total sheds across every endpoint and reason.
    pub fn shed_total(&self) -> u64 {
        self.shed
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Maintain the valve gauge; an open→closed edge bumps the transition
    /// counter exactly once even when several pollers observe it (the swap
    /// returns the previous value, so only the first closer sees 0).
    pub fn set_intake_closed(&self, closed: bool) {
        // ordering: the gauge is observational — scrapers and the valve edge
        // counter read it, but no data is published under it; pollers decide
        // intake from `QueueMetrics::try_admit`, not from this flag.
        let prev = self.intake_closed.swap(closed as u64, Ordering::Relaxed);
        if closed && prev == 0 {
            self.intake_closures_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the intake valve is currently closed.
    pub fn intake_closed(&self) -> bool {
        self.intake_closed.load(Ordering::Relaxed) != 0
    }

    /// Open→closed valve transitions so far.
    pub fn intake_closures_total(&self) -> u64 {
        self.intake_closures_total.load(Ordering::Relaxed)
    }

    /// Echo the active admission limits (called once by
    /// [`Admission::new`](crate::admission::Admission::new)).
    pub fn set_limits(
        &self,
        max_queue_depth: u64,
        global_intake_limit: u64,
        explain_shed_depth: u64,
        rate_limit: Option<(f64, f64)>,
    ) {
        *self.limits.lock().unwrap() = Some(AdmissionLimits {
            max_queue_depth,
            global_intake_limit,
            explain_shed_depth,
            rate_limit,
        });
    }
}

/// Connection-layer statistics for the nonblocking multiplexer: the open
/// connection gauge, lifetime accept/close totals, readiness wakeups (one per
/// `poll(2)` return that reported at least one ready fd), pipelined requests
/// (parsed while an earlier request on the same connection was still in
/// flight) and idle-timeout evictions.
#[derive(Debug, Default)]
pub struct ConnectionMetrics {
    open: AtomicU64,
    accepted_total: AtomicU64,
    closed_total: AtomicU64,
    wakeups_total: AtomicU64,
    pipelined_total: AtomicU64,
    idle_evictions_total: AtomicU64,
}

impl ConnectionMetrics {
    /// Count one accepted connection (raises the open gauge).
    pub fn record_accepted(&self) {
        self.open.fetch_add(1, Ordering::Relaxed);
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one closed connection (lowers the open gauge).
    pub fn record_closed(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.closed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one readiness wakeup (a `poll` return with ≥ 1 ready fd).
    pub fn record_wakeup(&self) {
        self.wakeups_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request parsed while an earlier one was still in flight.
    pub fn record_pipelined(&self) {
        self.pipelined_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection evicted by the idle-timeout wheel. The eviction
    /// also closes the connection, which is recorded separately via
    /// [`record_closed`](Self::record_closed).
    pub fn record_idle_eviction(&self) {
        self.idle_evictions_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently open.
    pub fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Requests served pipelined so far.
    pub fn pipelined_total(&self) -> u64 {
        self.pipelined_total.load(Ordering::Relaxed)
    }

    /// Idle-timeout evictions so far.
    pub fn idle_evictions_total(&self) -> u64 {
        self.idle_evictions_total.load(Ordering::Relaxed)
    }
}

/// Read this process's live OS thread count from `/proc/self/status`
/// (`Threads:` line). Linux-specific; returns `None` elsewhere or when the
/// file is unreadable. The flat-thread-count guarantee of the multiplexer is
/// asserted against exactly this number.
pub fn os_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Per-queue statistics: one instance per registered scorer kind, shared
/// between the pollers that submit to that kind's queue (depth increments)
/// and its drain loop (depth decrements, batch sizes, queue wait and
/// per-batch scoring time). Depth and batch sizes count texts; queue wait is
/// sampled once per job (one request's texts).
///
/// Every depth change is mirrored into the server-wide `aggregate` counter
/// (shared across all queues via [`ServeMetrics::queue`]), which the global
/// intake valve and `/explain` shedding read — so "total texts queued" is one
/// atomic load, not a walk over the queue list.
#[derive(Debug, Default)]
pub struct QueueMetrics {
    depth: AtomicU64,
    /// Aggregate depth across every queue of the owning server; a standalone
    /// `QueueMetrics::default()` (unit tests) gets a private one.
    aggregate: Arc<AtomicU64>,
    texts_scored: AtomicU64,
    /// Scored batch sizes. Real batches are small (≤ `max_batch`), so most
    /// sizes land in the exact sub-32 buckets; the maximum is exact anyway.
    batches: LogHistogram,
    /// Per-job enqueue → batch-drain wait (µs).
    queue_wait: LogHistogram,
    /// Per-batch `probabilities` call duration (µs).
    score: LogHistogram,
    /// Closed batches, indexed by [`BatchClose`] (`reason as usize`).
    batch_close: [AtomicU64; 3],
}

impl QueueMetrics {
    /// A fresh section whose depth changes also move the shared `aggregate`.
    fn with_aggregate(aggregate: Arc<AtomicU64>) -> Self {
        Self {
            aggregate,
            ..Self::default()
        }
    }

    /// Count one text entering the queue, without an admission check.
    #[cfg(test)]
    pub fn record_enqueued(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.aggregate.fetch_add(1, Ordering::Relaxed);
    }

    /// Reserve room for `texts` more texts, all or nothing: succeeds (and
    /// counts them as enqueued) only if the resulting depth stays within
    /// `cap`. The compare-exchange makes the check-and-increment atomic, so
    /// two pollers racing for the last slots cannot both win it —
    /// admission never overshoots the cap.
    pub fn try_admit(&self, texts: u64, cap: u64) -> bool {
        let mut current = self.depth.load(Ordering::Relaxed);
        loop {
            let next = match current.checked_add(texts) {
                Some(next) if next <= cap => next,
                _ => return false,
            };
            // ordering: pure depth accounting — the counter itself is the
            // entire shared state. No memory is published under a successful
            // reservation (the job travels through the channel, which does
            // its own synchronization), so relaxed CAS is sufficient.
            match self.depth.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.aggregate.fetch_add(texts, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Count `texts` leaving the queue unscored (a swapped-in registry
    /// without the kind, or an admitted reservation whose send failed).
    pub fn record_dropped(&self, texts: usize) {
        self.depth.fetch_sub(texts as u64, Ordering::Relaxed);
        self.aggregate.fetch_sub(texts as u64, Ordering::Relaxed);
    }

    /// Record one scored batch of `size` texts: each job's queue wait
    /// (enqueue → drain, µs) and the batch's single scoring call duration.
    /// Decrements the queue depth by the batch size.
    pub fn record_batch(&self, size: usize, job_wait_us: &[u64], score_us: u64) {
        if size == 0 {
            return;
        }
        self.depth.fetch_sub(size as u64, Ordering::Relaxed);
        self.aggregate.fetch_sub(size as u64, Ordering::Relaxed);
        self.texts_scored.fetch_add(size as u64, Ordering::Relaxed);
        self.batches.record(size as u64);
        for &micros in job_wait_us {
            self.queue_wait.record(micros);
        }
        self.score.record(score_us);
    }

    /// Count one batch closed by the drain loop, scored or not.
    pub fn record_close(&self, reason: BatchClose) {
        self.batch_close[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Texts currently waiting in (or being scored from) this queue.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// The largest batch this queue has scored (0 before the first batch).
    pub fn max_batch_size(&self) -> usize {
        self.batches.max() as usize
    }
}

/// One value read by [`ServeMetrics::visit`], in the shape its sinks render.
#[derive(Debug)]
enum MetricValue {
    /// A monotone count.
    Counter(u64),
    /// A level that can go up and down.
    Gauge(f64),
    /// A gauge that is JSON `true`/`false` and Prometheus `1`/`0`.
    Flag(bool),
    /// A gauge that may be unknown: JSON `null`, omitted from Prometheus.
    Optional(Option<f64>),
    /// A latency histogram (µs): JSON `{count, p50, p99, p999, max, mean}`.
    Latency(HistogramSnapshot),
    /// A size histogram: JSON `{count, max_size, histogram}`, keyed by bucket
    /// upper bound (exact sizes below 32).
    Sizes(HistogramSnapshot),
}

/// Where a value appears in the Prometheus exposition. The family's `# TYPE`
/// follows from the values recorded under it: counter, gauge, or (for both
/// histogram kinds) histogram.
struct Series<'a> {
    /// The family's `# HELP` text: its name, a space, and the help.
    family: &'static str,
    /// Label pairs, in exposition order.
    labels: &'a [(&'static str, &'a str)],
}

/// `family`'s series with the given labels.
fn series<'a>(family: &'static str, labels: &'a [(&'static str, &'a str)]) -> Option<Series<'a>> {
    Some(Series { family, labels })
}

/// A consumer of the metric walk ([`ServeMetrics::visit`]).
trait MetricSink {
    /// One value. `path` is its place in the JSON document (empty when it is
    /// not part of the JSON); `series` is its Prometheus series, if any.
    fn record(&mut self, path: &[&str], series: Option<Series<'_>>, value: MetricValue);

    /// An object at `path` that the JSON document carries even when nothing
    /// is recorded under it.
    fn section(&mut self, _path: &[&str]) {}
}

/// Builds the JSON document: keys in first-seen path order.
#[derive(Default)]
struct JsonSink {
    root: Vec<(String, JsonValue)>,
}

impl JsonSink {
    /// The object at `path`, creating any missing objects along the way.
    fn object(&mut self, path: &[&str]) -> &mut Vec<(String, JsonValue)> {
        let mut fields = &mut self.root;
        for &key in path {
            let index = match fields.iter().position(|(k, _)| k == key) {
                Some(index) => index,
                None => {
                    fields.push((key.to_string(), JsonValue::Object(Vec::new())));
                    fields.len() - 1
                }
            };
            fields = match &mut fields[index].1 {
                JsonValue::Object(inner) => inner,
                _ => unreachable!("metric path {path:?} runs through a value"),
            };
        }
        fields
    }
}

impl MetricSink for JsonSink {
    fn record(&mut self, path: &[&str], _series: Option<Series<'_>>, value: MetricValue) {
        let Some((key, parent)) = path.split_last() else {
            return;
        };
        let json = match value {
            MetricValue::Counter(n) => JsonValue::Number(n as f64),
            MetricValue::Gauge(x) => JsonValue::Number(x),
            MetricValue::Flag(flag) => JsonValue::Bool(flag),
            MetricValue::Optional(x) => x.map_or(JsonValue::Null, JsonValue::Number),
            MetricValue::Latency(snapshot) => snapshot.to_json(),
            MetricValue::Sizes(snapshot) => {
                let buckets = snapshot
                    .nonzero_buckets()
                    .map(|(upper, count)| (upper.to_string(), JsonValue::Number(count as f64)));
                JsonValue::object(vec![
                    ("count", JsonValue::Number(snapshot.count() as f64)),
                    ("max_size", JsonValue::Number(snapshot.max() as f64)),
                    ("histogram", JsonValue::Object(buckets.collect())),
                ])
            }
        };
        self.object(parent).push((key.to_string(), json));
    }

    fn section(&mut self, path: &[&str]) {
        self.object(path);
    }
}

/// Builds the Prometheus text exposition (version 0.0.4): one block per
/// family in first-seen order, its `# HELP`/`# TYPE` header followed by every
/// sample of that family. A family starts only with its first sample, so
/// every emitted `# TYPE` line has samples — the invariant
/// [`crate::obs::validate_exposition`] checks.
#[derive(Default)]
struct PrometheusSink {
    families: Vec<(&'static str, String)>,
}

impl MetricSink for PrometheusSink {
    fn record(&mut self, _path: &[&str], series: Option<Series<'_>>, value: MetricValue) {
        let Some(Series { family, labels }) = series else {
            return;
        };
        let name = family.split_once(' ').map_or(family, |(name, _)| name);
        let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        let labels = labels.join(",");
        let (sep, braced) = match labels.as_str() {
            "" => ("", String::new()),
            _ => (",", format!("{{{labels}}}")),
        };
        let (kind, samples) = match value {
            MetricValue::Counter(n) => ("counter", format!("{name}{braced} {n}\n")),
            MetricValue::Gauge(x) | MetricValue::Optional(Some(x)) => {
                ("gauge", format!("{name}{braced} {x}\n"))
            }
            MetricValue::Flag(flag) => ("gauge", format!("{name}{braced} {}\n", flag as u64)),
            MetricValue::Latency(snapshot) | MetricValue::Sizes(snapshot)
                if snapshot.count() > 0 =>
            {
                // Cumulative buckets ending at `+Inf`, then `_sum`/`_count`.
                let mut samples = String::new();
                let mut cumulative = 0u64;
                for (upper, count) in snapshot.nonzero_buckets() {
                    cumulative += count;
                    samples.push_str(&format!(
                        "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {cumulative}\n"
                    ));
                }
                let (sum, count) = (snapshot.sum(), snapshot.count());
                samples.push_str(&format!(
                    "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}\n\
                     {name}_sum{braced} {sum}\n{name}_count{braced} {count}\n"
                ));
                ("histogram", samples)
            }
            MetricValue::Optional(None) | MetricValue::Latency(_) | MetricValue::Sizes(_) => return,
        };
        match self.families.iter_mut().find(|(family, _)| *family == name) {
            Some((_, block)) => block.push_str(&samples),
            None => {
                let header = format!("# HELP {family}\n# TYPE {name} {kind}\n");
                self.families.push((name, header + &samples));
            }
        }
    }
}

// The Prometheus families of `/metrics`, in walk order. Each is declared by
// its `# HELP` text: the family name, a space, and the help.
const BUILD_INFO: &str = "holistix_build_info Build metadata as labels; value is always 1.";
const UPTIME: &str = "holistix_uptime_seconds Seconds since the server started.";
const REQUESTS: &str = "holistix_requests_total Requests received, by endpoint.";
const ERRORS: &str = "holistix_error_responses_total Responses with a 4xx/5xx status.";
const REUSES: &str =
    "holistix_keepalive_reuses_total Requests served on a reused keep-alive connection.";
const TEXTS_SCORED: &str = "holistix_texts_scored_total Texts scored across all batch queues.";
const BATCH_SIZE: &str =
    "holistix_batch_size Scored micro-batch sizes (texts per batch), all queues.";
const REQUEST_LATENCY: &str = "holistix_request_latency_us End-to-end request latency \
    (parse done to last byte written), microseconds.";
const STAGE_DURATION: &str =
    "holistix_stage_duration_us Per-stage request latency in microseconds.";
const CONNECTIONS_OPEN: &str = "holistix_connections_open Connections currently open.";
const ACCEPTED: &str = "holistix_connections_accepted_total Connections accepted.";
const CLOSED: &str = "holistix_connections_closed_total Connections closed.";
const WAKEUPS: &str =
    "holistix_poll_wakeups_total poll(2) returns reporting at least one ready fd.";
const PIPELINED: &str =
    "holistix_pipelined_requests_total Requests parsed while an earlier one was in flight.";
const EVICTIONS: &str =
    "holistix_idle_timeout_evictions_total Connections evicted by the idle-timeout wheel.";
const AGGREGATE_DEPTH: &str =
    "holistix_queue_depth_aggregate Jobs queued across every kind's batch queue.";
const INTAKE_CLOSED: &str =
    "holistix_intake_closed 1 while the global intake valve is closed (pollers not reading).";
const INTAKE_CLOSURES: &str =
    "holistix_intake_closures_total Open-to-closed transitions of the intake valve.";
const SHED: &str = "holistix_shed_total Requests shed with 429, by endpoint and reason.";
const DEPTH_LIMIT: &str =
    "holistix_admission_queue_depth_limit Configured per-kind queue depth cap.";
const INTAKE_LIMIT: &str =
    "holistix_admission_intake_limit Aggregate depth at which the intake valve closes.";
const EXPLAIN_LIMIT: &str =
    "holistix_admission_explain_shed_depth Aggregate depth at which /explain sheds.";
const RATE_PER_S: &str =
    "holistix_admission_rate_per_s Per-connection token-bucket refill rate, tokens per second.";
const BURST: &str = "holistix_admission_burst Per-connection token-bucket capacity, tokens.";
const OS_THREADS: &str = "holistix_os_threads Live OS threads in this process.";
const QUEUE_DEPTH: &str = "holistix_queue_depth Jobs waiting in (or being scored from) the queue.";
const QUEUE_TEXTS_SCORED: &str = "holistix_queue_texts_scored_total Texts this queue has scored.";
const QUEUE_BATCH_SIZE: &str = "holistix_queue_batch_size Scored batch sizes for this queue.";
const QUEUE_WAIT: &str =
    "holistix_queue_wait_us Per-job wait from enqueue to batch drain, microseconds.";
const QUEUE_SCORE: &str = "holistix_queue_score_us Per-batch scoring call duration, microseconds.";
const QUEUE_BATCH_CLOSE: &str =
    "holistix_queue_batch_close_total Batches closed by this queue's drain loop, by reason.";
const RELOADS: &str = "holistix_reloads_total Completed registry reloads.";
const LAST_FIT: &str =
    "holistix_registry_last_fit_us Duration of the registry's most recent fit, microseconds.";
const FIT_SHARDS: &str = "holistix_registry_fit_shards Shards the most recent fit ran across.";
const CORPUS_SIZE: &str =
    "holistix_registry_corpus_size Posts in the corpus behind the serving registry.";

/// One queue's values, read once per walk.
struct QueueReading {
    kind: String,
    scorer_kind: String,
    depth: u64,
    texts_scored: u64,
    batches: HistogramSnapshot,
    queue_wait: HistogramSnapshot,
    score: HistogramSnapshot,
    batch_close: [u64; 3],
}

/// Shared metrics sink. One instance per server, shared by pollers, batch
/// queues and handlers. Also owns the [`Obs`] observability state
/// (trace-id mint, per-endpoint stage histograms, slow-trace ring).
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    /// Per-endpoint request counters, indexed by [`Endpoint::index`].
    requests: [AtomicU64; 7],
    error_responses: AtomicU64,
    /// Requests served on an already-used connection (the 2nd, 3rd, … request
    /// of a keep-alive session). Zero means every request paid a TCP setup.
    keepalive_reuses: AtomicU64,
    /// Completed registry reloads (a `/reload` fit + swap; startup not counted).
    /// The fit stats themselves are *not* mirrored here — the registry behind
    /// [`SharedRegistry`](crate::registry::SharedRegistry) is the single source
    /// of truth and [`snapshot`](Self::snapshot) takes them at snapshot time.
    reloads_total: AtomicU64,
    /// End-to-end request latency (parse done → last byte written), recorded
    /// at trace finalization.
    request_latency: LogHistogram,
    /// Per-kind queue sections, in registration order. Never shrinks, so the
    /// cross-queue totals derived from it never go backwards.
    queues: Mutex<Vec<(String, String, Arc<QueueMetrics>)>>,
    /// Texts queued across every kind, maintained by the [`QueueMetrics`]
    /// registered through [`queue`](Self::queue). Read by the intake valve
    /// and `/explain` shedding.
    aggregate_depth: Arc<AtomicU64>,
    /// Shed counters, intake-valve state and configured limits.
    admission: AdmissionMetrics,
    /// Connection-layer counters for the nonblocking multiplexer.
    connections: ConnectionMetrics,
    /// Configured thread plan `(pollers, handlers, queues)`, set once at
    /// server start; the point of the multiplexer is that this plan — not the
    /// connection count — determines the process's thread count.
    thread_plan: Mutex<Option<(usize, usize, usize)>>,
    /// Trace-id mint, per-endpoint × per-stage histograms, slow-trace ring.
    obs: Obs,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// A fresh, all-zero sink. `started` anchors the uptime gauge.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            error_responses: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            reloads_total: AtomicU64::new(0),
            request_latency: LogHistogram::new(),
            queues: Mutex::new(Vec::new()),
            aggregate_depth: Arc::new(AtomicU64::new(0)),
            admission: AdmissionMetrics::default(),
            connections: ConnectionMetrics::default(),
            thread_plan: Mutex::new(None),
            obs: Obs::new(),
        }
    }

    /// Count a request against its endpoint.
    pub fn record_request(&self, endpoint: Endpoint) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count an error (4xx/5xx) response.
    pub fn record_error(&self) {
        self.error_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request served on a reused (keep-alive) connection.
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests served on reused connections so far.
    pub fn keepalive_reuses_total(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// The connection-layer counters (shared with pollers).
    pub fn connections(&self) -> &ConnectionMetrics {
        &self.connections
    }

    /// The admission-control counters (shed, intake valve, limits).
    pub fn admission(&self) -> &AdmissionMetrics {
        &self.admission
    }

    /// Count one shed (429) response against its endpoint and reason.
    pub fn record_shed(&self, endpoint: Endpoint, reason: ShedReason) {
        self.admission.record_shed(endpoint, reason);
    }

    /// Texts currently queued (or being scored) across every kind's queue.
    pub fn aggregate_queue_depth(&self) -> u64 {
        self.aggregate_depth.load(Ordering::Relaxed)
    }

    /// The observability state: trace-id mint, stage histograms, slow ring.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Time since this sink (the server) was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Fold a completed request trace into the latency and stage histograms
    /// and offer it to the slow-trace ring. Called by the poller when the
    /// last byte of the response reaches the socket.
    pub fn finalize_trace(&self, trace: &RequestTrace) {
        self.request_latency
            .record(trace.total().as_micros() as u64);
        self.obs.finalize(trace);
    }

    /// A snapshot of the end-to-end request-latency histogram (µs). The
    /// `serve_throughput` bench diffs successive snapshots
    /// ([`HistogramSnapshot::minus`]) for per-sweep-stage percentiles.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.request_latency.snapshot()
    }

    /// Record the configured thread plan: how many poller, handler and
    /// batch-queue threads the server runs. Reported under `threads` in the
    /// snapshot next to the live OS thread count.
    pub fn set_thread_plan(&self, pollers: usize, handlers: usize, queues: usize) {
        *self.thread_plan.lock().unwrap() = Some((pollers, handlers, queues));
    }

    /// Count one completed `/reload` (fresh registry fitted and swapped in).
    pub fn record_reload(&self) {
        self.reloads_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed reloads so far.
    pub fn reloads_total(&self) -> u64 {
        self.reloads_total.load(Ordering::Relaxed)
    }

    /// Register (or fetch) the per-queue section for a scorer kind. Called by
    /// the server when it spawns a kind's drain loop; idempotent so a restart
    /// of the queue set reuses the existing section (the first registration's
    /// `scorer_kind` family label wins). `scorer_kind` is the coarse scorer
    /// family ("classical" / "transformer" / "quantized") exposed as an extra
    /// Prometheus label on the per-queue series; the JSON snapshot stays keyed
    /// by kind name alone.
    pub fn queue(&self, kind_name: &str, scorer_kind: &str) -> Arc<QueueMetrics> {
        let mut queues = self.queues.lock().unwrap();
        if let Some((_, _, metrics)) = queues.iter().find(|(name, _, _)| name == kind_name) {
            return Arc::clone(metrics);
        }
        let metrics = Arc::new(QueueMetrics::with_aggregate(Arc::clone(
            &self.aggregate_depth,
        )));
        queues.push((
            kind_name.to_string(),
            scorer_kind.to_string(),
            Arc::clone(&metrics),
        ));
        metrics
    }

    /// The full metrics document served by `GET /metrics`. `fit` is the
    /// serving registry's fit stats, read from the live registry at snapshot
    /// time so `/metrics` can never disagree with the models actually
    /// serving; without it the `registry` section carries counters only.
    pub fn snapshot(&self, fit: Option<&FitStats>) -> JsonValue {
        let mut sink = JsonSink::default();
        self.visit(fit, &mut sink);
        JsonValue::Object(sink.root)
    }

    /// The same walk as [`snapshot`](Self::snapshot), in Prometheus text
    /// exposition format: counters, gauges and cumulative-bucket histograms.
    pub fn render_prometheus(&self, fit: Option<&FitStats>) -> String {
        let mut sink = PrometheusSink::default();
        self.visit(fit, &mut sink);
        sink.families.into_iter().map(|(_, block)| block).collect()
    }

    /// Walk every metric once, in JSON document order, handing each value to
    /// `sink` with its JSON path and Prometheus series. JSON-only entries
    /// (`requests.total`, `admission.shed_total`, `threads.*`) carry no
    /// series; the Prometheus-only `holistix_build_info` carries no path.
    fn visit(&self, fit: Option<&FitStats>, sink: &mut impl MetricSink) {
        use MetricValue::{Counter, Flag, Gauge, Latency, Optional, Sizes};
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);

        let (version, git) = build_info();
        let build_labels = [("version", version), ("git", git)];
        sink.record(&[], series(BUILD_INFO, &build_labels), Gauge(1.0));
        let uptime = Gauge(self.uptime().as_secs_f64());
        sink.record(&["uptime_s"], series(UPTIME, &[]), uptime);

        let requests = self.requests.each_ref().map(load);
        sink.record(&["requests", "total"], None, Counter(requests.iter().sum()));
        for endpoint in Endpoint::ALL {
            let (name, count) = (endpoint.name(), Counter(requests[endpoint.index()]));
            sink.record(
                &["requests", name],
                series(REQUESTS, &[("endpoint", name)]),
                count,
            );
        }
        let errors = Counter(load(&self.error_responses));
        sink.record(&["requests", "errors"], series(ERRORS, &[]), errors);
        let reuses = Counter(self.keepalive_reuses_total());
        sink.record(&["keepalive_reuses_total"], series(REUSES, &[]), reuses);

        // The cross-queue totals are derived from the per-queue readings.
        // Histogram merge is exact (max included), so they equal what a
        // second, global recorder would have counted.
        let readings: Vec<QueueReading> = self
            .queues
            .lock()
            .unwrap()
            .iter()
            .map(|(kind, scorer_kind, queue)| QueueReading {
                kind: kind.clone(),
                scorer_kind: scorer_kind.clone(),
                depth: queue.depth(),
                texts_scored: load(&queue.texts_scored),
                batches: queue.batches.snapshot(),
                queue_wait: queue.queue_wait.snapshot(),
                score: queue.score.snapshot(),
                batch_close: queue.batch_close.each_ref().map(load),
            })
            .collect();
        let mut batches = HistogramSnapshot::empty();
        for reading in &readings {
            batches.merge(&reading.batches);
        }
        let texts_scored = Counter(readings.iter().map(|r| r.texts_scored).sum());
        sink.record(&["texts_scored"], series(TEXTS_SCORED, &[]), texts_scored);
        sink.record(&["batches"], series(BATCH_SIZE, &[]), Sizes(batches));
        let latency = Latency(self.request_latency.snapshot());
        sink.record(&["latency_us"], series(REQUEST_LATENCY, &[]), latency);

        // Stage histograms appear once they have samples, in both formats.
        sink.section(&["stages"]);
        for endpoint in Endpoint::ALL {
            for (stage, &stage_name) in STAGE_NAMES.iter().enumerate() {
                let snapshot = self.obs.stage_snapshot(endpoint, stage);
                if snapshot.count() > 0 {
                    let path = ["stages", endpoint.name(), stage_name];
                    let labels = [("endpoint", endpoint.name()), ("stage", stage_name)];
                    sink.record(&path, series(STAGE_DURATION, &labels), Latency(snapshot));
                }
            }
        }

        let c = &self.connections;
        let open = Gauge(c.open() as f64);
        sink.record(
            &["connections", "open"],
            series(CONNECTIONS_OPEN, &[]),
            open,
        );
        for (key, family, counter) in [
            ("accepted_total", ACCEPTED, &c.accepted_total),
            ("closed_total", CLOSED, &c.closed_total),
            ("wakeups_total", WAKEUPS, &c.wakeups_total),
            ("pipelined_requests_total", PIPELINED, &c.pipelined_total),
            (
                "idle_timeout_evictions_total",
                EVICTIONS,
                &c.idle_evictions_total,
            ),
        ] {
            let count = Counter(load(counter));
            sink.record(&["connections", key], series(family, &[]), count);
        }

        let admission = &self.admission;
        for (key, family, value) in [
            (
                "aggregate_depth",
                AGGREGATE_DEPTH,
                Gauge(self.aggregate_queue_depth() as f64),
            ),
            (
                "intake_closed",
                INTAKE_CLOSED,
                Flag(admission.intake_closed()),
            ),
            (
                "intake_closures_total",
                INTAKE_CLOSURES,
                Counter(admission.intake_closures_total()),
            ),
        ] {
            sink.record(&["admission", key], series(family, &[]), value);
        }
        let shed = admission
            .shed
            .each_ref()
            .map(|row| row.each_ref().map(load));
        let shed_total = Counter(shed.iter().flatten().sum());
        sink.record(&["admission", "shed_total"], None, shed_total);
        for endpoint in Endpoint::ALL {
            for reason in ShedReason::ALL {
                let (e, r) = (endpoint.name(), reason.name());
                let count = Counter(shed[endpoint.index()][reason.index()]);
                let labels = [("endpoint", e), ("reason", r)];
                sink.record(&["admission", "shed", e, r], series(SHED, &labels), count);
            }
        }
        if let Some(limits) = *admission.limits.lock().unwrap() {
            let (rate, burst) = limits.rate_limit.unzip();
            let as_f64 = |limit: u64| Some(limit as f64);
            for (key, family, value) in [
                (
                    "max_queue_depth",
                    DEPTH_LIMIT,
                    as_f64(limits.max_queue_depth),
                ),
                (
                    "global_intake_limit",
                    INTAKE_LIMIT,
                    as_f64(limits.global_intake_limit),
                ),
                (
                    "explain_shed_depth",
                    EXPLAIN_LIMIT,
                    as_f64(limits.explain_shed_depth),
                ),
                ("rate_per_s", RATE_PER_S, rate),
                ("burst", BURST, burst),
            ] {
                let value = Optional(value);
                sink.record(&["admission", "limits", key], series(family, &[]), value);
            }
        }

        if let Some((pollers, handlers, queues)) = *self.thread_plan.lock().unwrap() {
            let plan = [
                ("pollers", pollers),
                ("handlers", handlers),
                ("queues", queues),
            ];
            for (key, threads) in plan {
                sink.record(&["threads", key], None, Gauge(threads as f64));
            }
        }
        let os_threads = Optional(os_thread_count().map(|n| n as f64));
        sink.record(
            &["threads", "os_threads"],
            series(OS_THREADS, &[]),
            os_threads,
        );

        sink.section(&["queues"]);
        for queue in readings {
            let kind = queue.kind.as_str();
            let labels = [("kind", kind), ("scorer_kind", queue.scorer_kind.as_str())];
            for (key, family, value) in [
                ("depth", QUEUE_DEPTH, Gauge(queue.depth as f64)),
                (
                    "texts_scored",
                    QUEUE_TEXTS_SCORED,
                    Counter(queue.texts_scored),
                ),
                ("batches", QUEUE_BATCH_SIZE, Sizes(queue.batches)),
                ("queue_wait_us", QUEUE_WAIT, Latency(queue.queue_wait)),
                ("score_us", QUEUE_SCORE, Latency(queue.score)),
            ] {
                sink.record(&["queues", kind, key], series(family, &labels), value);
            }
            for reason in BatchClose::ALL {
                let name = reason.name();
                let labels = [labels[0], labels[1], ("reason", name)];
                let count = Counter(queue.batch_close[reason as usize]);
                let path = ["queues", kind, "batch_close", name];
                sink.record(&path, series(QUEUE_BATCH_CLOSE, &labels), count);
            }
        }

        let reloads = Counter(self.reloads_total());
        sink.record(
            &["registry", "reloads_total"],
            series(RELOADS, &[]),
            reloads,
        );
        if let Some(fit) = fit {
            for (key, family, value) in [
                ("last_fit_us", LAST_FIT, fit.duration.as_micros() as f64),
                ("fit_shards", FIT_SHARDS, fit.shards as f64),
                ("corpus_size", CORPUS_SIZE, fit.corpus_size as f64),
            ] {
                sink.record(&["registry", key], series(family, &[]), Gauge(value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{validate_exposition, TraceStamp};

    /// Finalize one trace on `endpoint` with the given stamp offsets (µs).
    fn finalize(metrics: &ServeMetrics, endpoint: Endpoint, stamps: &[(TraceStamp, u64)]) {
        let started = Instant::now();
        let mut trace = metrics.obs().begin_trace(started);
        trace.endpoint = endpoint;
        for &(stamp, micros) in stamps {
            trace.stamp_at(stamp, started + Duration::from_micros(micros));
        }
        metrics.finalize_trace(&trace);
    }

    /// Score one batch of `size` jobs through `queue`, as the drain loop does.
    fn score_batch(queue: &QueueMetrics, size: usize, score_us: u64) {
        for _ in 0..size {
            queue.record_enqueued();
        }
        let waits: Vec<u64> = (0..size as u64).map(|i| 7 + 13 * i).collect();
        queue.record_batch(size, &waits, score_us);
    }

    #[test]
    fn batch_histogram_tracks_sizes_and_texts() {
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        for size in [1, 4, 4, 0] {
            score_batch(&lr, size, 10); // the empty batch is ignored
        }
        assert_eq!(lr.max_batch_size(), 4);
        let snapshot = metrics.snapshot(None);
        assert_eq!(snapshot.get("texts_scored").unwrap().as_f64(), Some(9.0));
        let batches = snapshot.get("batches").unwrap();
        assert_eq!(batches.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(batches.get("max_size").unwrap().as_f64(), Some(4.0));
        let histogram = batches.get("histogram").unwrap();
        assert_eq!(histogram.get("1").unwrap().as_f64(), Some(1.0));
        assert_eq!(histogram.get("4").unwrap().as_f64(), Some(2.0));
        assert_eq!(histogram.get("2"), None);
    }

    #[test]
    fn latency_percentiles_come_from_finalized_traces() {
        let metrics = ServeMetrics::new();
        for micros in 1..=100u64 {
            finalize(
                &metrics,
                Endpoint::Predict,
                &[(TraceStamp::WriteDone, micros)],
            );
        }
        let snapshot = metrics.snapshot(None);
        let latency = snapshot.get("latency_us").unwrap();
        assert_eq!(latency.get("count").unwrap().as_f64(), Some(100.0));
        // Values ≥ 32 land in log2 buckets: the estimate may overshoot the
        // exact nearest-rank value by at most one bucket width.
        let p50 = latency.get("p50").unwrap().as_f64().unwrap();
        let (_, p50_upper) = crate::obs::bucket_bounds(50);
        assert!((50.0..=p50_upper as f64).contains(&p50), "p50 {p50}");
        let p99 = latency.get("p99").unwrap().as_f64().unwrap();
        let (_, p99_upper) = crate::obs::bucket_bounds(99);
        assert!((99.0..=p99_upper as f64).contains(&p99), "p99 {p99}");
        assert_eq!(latency.get("max").unwrap().as_f64(), Some(100.0));
        // The stage histogram for the endpoint saw the same traces.
        let write = metrics
            .obs()
            .stage_snapshot(Endpoint::Predict, TraceStamp::WriteDone as usize);
        assert_eq!(write.count(), 100);
    }

    #[test]
    fn empty_latency_histogram_reports_null() {
        let snapshot = ServeMetrics::new().snapshot(None);
        let latency = snapshot.get("latency_us").unwrap();
        assert_eq!(latency.get("p50"), Some(&JsonValue::Null));
        assert_eq!(latency.get("count").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn endpoint_counters_sum_into_total() {
        let metrics = ServeMetrics::new();
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Health);
        metrics.record_request(Endpoint::Reload);
        metrics.record_request(Endpoint::DebugSlow);
        metrics.record_error();
        let snapshot = metrics.snapshot(None);
        let requests = snapshot.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_f64(), Some(5.0));
        assert_eq!(requests.get("predict").unwrap().as_f64(), Some(2.0));
        assert_eq!(requests.get("reload").unwrap().as_f64(), Some(1.0));
        assert_eq!(requests.get("debug_slow").unwrap().as_f64(), Some(1.0));
        assert_eq!(requests.get("errors").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn keepalive_reuse_counter_round_trips() {
        let metrics = ServeMetrics::new();
        assert_eq!(metrics.keepalive_reuses_total(), 0);
        metrics.record_keepalive_reuse();
        metrics.record_keepalive_reuse();
        assert_eq!(metrics.keepalive_reuses_total(), 2);
        let snapshot = metrics.snapshot(None);
        assert_eq!(
            snapshot.get("keepalive_reuses_total").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn queue_sections_track_depth_batches_wait_and_score() {
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        // Idempotent registration returns the same section.
        assert!(Arc::ptr_eq(&lr, &metrics.queue("LR", "classical")));

        for _ in 0..5 {
            lr.record_enqueued();
        }
        assert_eq!(lr.depth(), 5);
        lr.record_batch(3, &[10, 20, 30], 250);
        assert_eq!(lr.depth(), 2);
        assert_eq!(lr.max_batch_size(), 3);
        bert.record_enqueued();
        bert.record_dropped(1);
        assert_eq!(bert.depth(), 0);

        let snapshot = metrics.snapshot(None);
        let queues = snapshot.get("queues").unwrap();
        let lr_section = queues.get("LR").unwrap();
        assert_eq!(lr_section.get("depth").unwrap().as_f64(), Some(2.0));
        assert_eq!(lr_section.get("texts_scored").unwrap().as_f64(), Some(3.0));
        let lr_batches = lr_section.get("batches").unwrap();
        assert_eq!(lr_batches.get("max_size").unwrap().as_f64(), Some(3.0));
        let lr_wait = lr_section.get("queue_wait_us").unwrap();
        // Waits below 32 µs land in exact buckets: p50 of {10,20,30} is 20.
        assert_eq!(lr_wait.get("p50").unwrap().as_f64(), Some(20.0));
        assert_eq!(lr_wait.get("count").unwrap().as_f64(), Some(3.0));
        let lr_score = lr_section.get("score_us").unwrap();
        assert_eq!(lr_score.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(lr_score.get("max").unwrap().as_f64(), Some(250.0));
        let bert_section = queues.get("BERT").unwrap();
        assert_eq!(bert_section.get("depth").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            bert_section.get("queue_wait_us").unwrap().get("p50"),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn connection_counters_and_thread_plan_round_trip() {
        let metrics = ServeMetrics::new();
        let conns = metrics.connections();
        conns.record_accepted();
        conns.record_accepted();
        conns.record_wakeup();
        conns.record_pipelined();
        conns.record_idle_eviction();
        conns.record_closed();
        assert_eq!(conns.open(), 1);
        metrics.set_thread_plan(2, 8, 3);

        let snapshot = metrics.snapshot(None);
        let section = snapshot.get("connections").unwrap();
        assert_eq!(section.get("open").unwrap().as_f64(), Some(1.0));
        assert_eq!(section.get("accepted_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(section.get("closed_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(section.get("wakeups_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            section.get("pipelined_requests_total").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            section
                .get("idle_timeout_evictions_total")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        let threads = snapshot.get("threads").unwrap();
        assert_eq!(threads.get("pollers").unwrap().as_f64(), Some(2.0));
        assert_eq!(threads.get("handlers").unwrap().as_f64(), Some(8.0));
        assert_eq!(threads.get("queues").unwrap().as_f64(), Some(3.0));
        // On Linux the live OS thread count is a positive number.
        let os_threads = os_thread_count().expect("Linux /proc/self/status");
        assert!(os_threads >= 1);
        assert!(threads.get("os_threads").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn registry_fit_stats_round_trip_through_snapshot() {
        let metrics = ServeMetrics::new();
        // Without a registry, the section carries counters only.
        let bare = metrics.snapshot(None);
        let section = bare.get("registry").unwrap();
        assert_eq!(section.get("reloads_total").unwrap().as_f64(), Some(0.0));
        assert_eq!(section.get("last_fit_us"), None);

        metrics.record_reload();
        metrics.record_reload();
        assert_eq!(metrics.reloads_total(), 2);
        let fit = FitStats {
            duration: std::time::Duration::from_micros(12_500),
            shards: 4,
            corpus_size: 2_000,
        };
        let snapshot = metrics.snapshot(Some(&fit));
        let section = snapshot.get("registry").unwrap();
        assert_eq!(section.get("reloads_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(section.get("last_fit_us").unwrap().as_f64(), Some(12_500.0));
        assert_eq!(section.get("fit_shards").unwrap().as_f64(), Some(4.0));
        assert_eq!(section.get("corpus_size").unwrap().as_f64(), Some(2_000.0));
    }

    #[test]
    fn prometheus_exposition_is_valid_and_matches_json() {
        let metrics = ServeMetrics::new();
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Metrics);
        metrics.record_error();
        metrics.record_keepalive_reuse();
        let lr = metrics.queue("LR", "classical");
        for _ in 0..3 {
            lr.record_enqueued();
        }
        lr.record_batch(3, &[15, 40, 1000], 900);
        score_batch(&lr, 40, 2_000); // a log2-bucketed size
        finalize(&metrics, Endpoint::Predict, &[(TraceStamp::WriteDone, 480)]);
        metrics.set_thread_plan(2, 4, 1);
        let fit = FitStats {
            duration: Duration::from_micros(7_000),
            shards: 2,
            corpus_size: 90,
        };

        let text = metrics.render_prometheus(Some(&fit));
        validate_exposition(&text).expect("valid exposition");

        // Counters agree with the JSON snapshot.
        let json = metrics.snapshot(Some(&fit));
        let predict_json = json
            .get("requests")
            .unwrap()
            .get("predict")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(text.contains(&format!(
            "holistix_requests_total{{endpoint=\"predict\"}} {predict_json}"
        )));
        let scored_json = json.get("texts_scored").unwrap().as_f64().unwrap();
        assert!(text.contains(&format!("holistix_texts_scored_total {scored_json}")));
        // Histogram series exist with cumulative buckets ending in +Inf.
        assert!(text.contains("holistix_request_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("holistix_queue_wait_us_bucket{kind=\"LR\""));
        assert!(text.contains("holistix_batch_size_count 2"));
        // Build info and fit gauges are present.
        assert!(text.contains("holistix_build_info{version=\""));
        assert!(text.contains("holistix_registry_corpus_size 90"));
        // The per-endpoint stage histogram from the finalized trace.
        assert!(
            text.contains("holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\"")
        );
    }

    #[test]
    fn queue_series_carry_scorer_kind_labels() {
        // Every per-queue Prometheus series carries both the fine-grained
        // `kind` label and the coarse `scorer_kind` family, while the JSON
        // snapshot stays keyed by kind name alone (no shape change).
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        let quant = metrics.queue("MentalBERT-i8", "quantized");
        lr.record_enqueued();
        lr.record_batch(1, &[25], 400);
        bert.record_enqueued();
        bert.record_batch(1, &[900], 48_000);
        quant.record_enqueued();
        quant.record_batch(1, &[60], 2_000);

        let text = metrics.render_prometheus(None);
        validate_exposition(&text).expect("valid exposition with scorer_kind labels");
        for (kind, family) in [
            ("LR", "classical"),
            ("BERT", "transformer"),
            ("MentalBERT-i8", "quantized"),
        ] {
            let labels = format!("kind=\"{kind}\",scorer_kind=\"{family}\"");
            assert!(
                text.contains(&format!("holistix_queue_depth{{{labels}}}")),
                "missing depth series for {kind}"
            );
            assert!(
                text.contains(&format!("holistix_queue_texts_scored_total{{{labels}}}")),
                "missing scored counter for {kind}"
            );
            assert!(
                text.contains(&format!("holistix_queue_wait_us_bucket{{{labels},le=")),
                "missing wait histogram for {kind}"
            );
            assert!(
                text.contains(&format!("holistix_queue_score_us_bucket{{{labels},le=")),
                "missing score histogram for {kind}"
            );
        }
        // Registering the same kind again (even with a different family)
        // returns the original handle and never forks the series.
        let again = metrics.queue("LR", "quantized");
        assert!(Arc::ptr_eq(&lr, &again));
        let text = metrics.render_prometheus(None);
        assert!(text.contains("kind=\"LR\",scorer_kind=\"classical\""));
        assert!(!text.contains("kind=\"LR\",scorer_kind=\"quantized\""));

        // JSON snapshot: still one object per kind name, no scorer_kind key.
        let snapshot = metrics.snapshot(None);
        let queues = snapshot.get("queues").unwrap();
        for kind in ["LR", "BERT", "MentalBERT-i8"] {
            let section = queues.get(kind).unwrap();
            assert!(section.get("scorer_kind").is_none());
            assert_eq!(section.get("texts_scored").unwrap().as_f64(), Some(1.0));
        }
    }

    #[test]
    fn empty_sink_renders_valid_prometheus() {
        // No traffic at all: histograms are omitted, counters are zero, and
        // the exposition still validates (no TYPE line without samples).
        let metrics = ServeMetrics::new();
        let text = metrics.render_prometheus(None);
        validate_exposition(&text).expect("valid empty exposition");
        assert!(!text.contains("holistix_request_latency_us"));
        assert!(text.contains("holistix_requests_total{endpoint=\"predict\"} 0"));
        // Shed counters and valve state are always present (zero-valued
        // counters still carry samples, so the exposition stays valid).
        assert!(text.contains("holistix_shed_total{endpoint=\"predict\",reason=\"queue_full\"} 0"));
        assert!(text.contains("holistix_queue_depth_aggregate 0"));
        assert!(text.contains("holistix_intake_closed 0"));
        // Limit gauges appear only once an Admission has echoed its config.
        assert!(!text.contains("holistix_admission_queue_depth_limit"));
    }

    #[test]
    fn try_admit_is_all_or_nothing_at_the_cap() {
        let queue = QueueMetrics::default();
        assert!(queue.try_admit(3, 4));
        assert_eq!(queue.depth(), 3);
        // 3 + 2 > 4: refused without partial admission.
        assert!(!queue.try_admit(2, 4));
        assert_eq!(queue.depth(), 3);
        assert!(queue.try_admit(1, 4));
        assert!(!queue.try_admit(1, 4));
        queue.record_batch(2, &[5, 5], 10);
        assert!(queue.try_admit(2, 4));
        assert_eq!(queue.depth(), 4);
        // A huge cap must not overflow the reservation arithmetic.
        assert!(!queue.try_admit(u64::MAX, u64::MAX));
    }

    #[test]
    fn aggregate_depth_sums_across_queues() {
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        lr.record_enqueued();
        lr.record_enqueued();
        assert!(bert.try_admit(3, 10));
        assert_eq!(metrics.aggregate_queue_depth(), 5);
        bert.record_dropped(1);
        lr.record_batch(2, &[1, 1], 10);
        assert_eq!(metrics.aggregate_queue_depth(), 2);
        assert_eq!(lr.depth(), 0);
        assert_eq!(bert.depth(), 2);

        // The cross-queue totals are derived at render time: `texts_scored`
        // is the sum over queues and the batch histogram their merge.
        bert.record_batch(2, &[3, 4], 700);
        score_batch(&bert, 40, 900);
        let mut merged = lr.batches.snapshot();
        merged.merge(&bert.batches.snapshot());
        assert_eq!((merged.count(), merged.max()), (3, 40));
        let json = metrics.snapshot(None);
        let queues = json.get("queues").unwrap();
        let scored = |section: &JsonValue| section.get("texts_scored").unwrap().as_f64().unwrap();
        assert_eq!(scored(&json), 44.0);
        assert_eq!(
            scored(&json),
            scored(queues.get("LR").unwrap()) + scored(queues.get("BERT").unwrap())
        );
        let expected_batches = JsonValue::object(vec![
            ("count", JsonValue::Number(3.0)),
            ("max_size", JsonValue::Number(40.0)),
            (
                "histogram",
                JsonValue::Object(
                    merged
                        .nonzero_buckets()
                        .map(|(upper, count)| (upper.to_string(), JsonValue::Number(count as f64)))
                        .collect(),
                ),
            ),
        ]);
        assert_eq!(json.get("batches"), Some(&expected_batches));

        let text = metrics.render_prometheus(None);
        assert!(text.contains("holistix_texts_scored_total 44\n"));
        assert!(text.contains("holistix_batch_size_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("holistix_batch_size_bucket{le=\"41\"} 3\n"));
        assert!(text.contains(&format!("holistix_batch_size_sum {}\n", merged.sum())));
        assert!(text.contains("holistix_batch_size_count 3\n"));
    }

    #[test]
    fn shed_counters_and_valve_round_trip_json_and_prometheus() {
        let metrics = ServeMetrics::new();
        metrics.record_shed(Endpoint::Predict, ShedReason::QueueFull);
        metrics.record_shed(Endpoint::Predict, ShedReason::QueueFull);
        metrics.record_shed(Endpoint::Explain, ShedReason::Degraded);
        metrics.record_shed(Endpoint::Health, ShedReason::RateLimited);
        let admission = metrics.admission();
        admission.set_intake_closed(true);
        admission.set_intake_closed(true); // no second transition while closed
        admission.set_intake_closed(false);
        admission.set_intake_closed(true);
        admission.set_limits(64, 256, 32, Some((10.0, 4.0)));
        assert_eq!(
            admission.shed_count(Endpoint::Predict, ShedReason::QueueFull),
            2
        );
        assert_eq!(admission.shed_total(), 4);
        assert!(admission.intake_closed());
        assert_eq!(admission.intake_closures_total(), 2);

        let snapshot = metrics.snapshot(None);
        let section = snapshot.get("admission").unwrap();
        assert_eq!(section.get("aggregate_depth").unwrap().as_f64(), Some(0.0));
        assert_eq!(section.get("intake_closed").unwrap().as_bool(), Some(true));
        assert_eq!(
            section.get("intake_closures_total").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(section.get("shed_total").unwrap().as_f64(), Some(4.0));
        let shed = section.get("shed").unwrap();
        assert_eq!(
            shed.get("predict")
                .unwrap()
                .get("queue_full")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            shed.get("explain")
                .unwrap()
                .get("degraded")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            shed.get("explain")
                .unwrap()
                .get("queue_full")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        let limits = section.get("limits").unwrap();
        assert_eq!(limits.get("max_queue_depth").unwrap().as_f64(), Some(64.0));
        assert_eq!(limits.get("rate_per_s").unwrap().as_f64(), Some(10.0));
        assert_eq!(limits.get("burst").unwrap().as_f64(), Some(4.0));

        let text = metrics.render_prometheus(None);
        validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("holistix_shed_total{endpoint=\"predict\",reason=\"queue_full\"} 2"));
        assert!(text.contains("holistix_shed_total{endpoint=\"explain\",reason=\"degraded\"} 1"));
        assert!(text.contains("holistix_intake_closed 1"));
        assert!(text.contains("holistix_intake_closures_total 2"));
        assert!(text.contains("holistix_admission_queue_depth_limit 64"));
        assert!(text.contains("holistix_admission_rate_per_s 10"));
    }

    #[test]
    fn endpoint_resolve_matches_every_route() {
        assert_eq!(Endpoint::resolve("POST", "/predict"), Endpoint::Predict);
        assert_eq!(Endpoint::resolve("POST", "/explain"), Endpoint::Explain);
        assert_eq!(Endpoint::resolve("POST", "/reload"), Endpoint::Reload);
        assert_eq!(Endpoint::resolve("GET", "/healthz"), Endpoint::Health);
        assert_eq!(Endpoint::resolve("GET", "/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::resolve("GET", "/debug/slow"), Endpoint::DebugSlow);
        assert_eq!(Endpoint::resolve("GET", "/predict"), Endpoint::Other);
        assert_eq!(Endpoint::resolve("POST", "/nope"), Endpoint::Other);
    }

    /// The fixed recording script behind the populated golden documents:
    /// every endpoint counter, errors, keep-alive reuses, batch sizes below
    /// and above 32 and batch close reasons on two queues of different
    /// `scorer_kind`, finalized traces on two endpoints, sheds, valve
    /// transitions, the admission limits (with or without a rate limit),
    /// connections, a reload, the thread plan and fit stats.
    fn golden_script(rate_limit: Option<(f64, f64)>) -> (ServeMetrics, FitStats) {
        use TraceStamp::*;
        let metrics = ServeMetrics::new();
        for (i, &endpoint) in Endpoint::ALL.iter().enumerate() {
            for _ in 0..=i {
                metrics.record_request(endpoint);
            }
        }
        for _ in 0..3 {
            metrics.record_error();
        }
        for _ in 0..5 {
            metrics.record_keepalive_reuse();
        }

        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        score_batch(&lr, 1, 90);
        score_batch(&lr, 5, 310);
        score_batch(&lr, 40, 2_400);
        score_batch(&bert, 3, 48_000);
        score_batch(&bert, 100, 910_000);
        lr.record_enqueued();
        lr.record_enqueued();
        for close in [BatchClose::Empty, BatchClose::Window, BatchClose::Full] {
            lr.record_close(close);
        }
        bert.record_close(BatchClose::Empty);
        bert.record_close(BatchClose::Full);

        finalize(
            &metrics,
            Endpoint::Predict,
            &[
                (HandlerStart, 12),
                (QueueEnqueue, 30),
                (BatchDrain, 5_030),
                (Scored, 5_400),
                (ResponseQueued, 5_460),
                (WriteDone, 5_520),
            ],
        );
        finalize(
            &metrics,
            Endpoint::Predict,
            &[
                (HandlerStart, 25),
                (QueueEnqueue, 61),
                (BatchDrain, 4_100),
                (Scored, 4_950),
                (ResponseQueued, 5_002),
                (WriteDone, 5_090),
            ],
        );
        finalize(
            &metrics,
            Endpoint::Health,
            &[(HandlerStart, 8), (ResponseQueued, 20), (WriteDone, 41)],
        );

        metrics.record_shed(Endpoint::Predict, ShedReason::QueueFull);
        metrics.record_shed(Endpoint::Predict, ShedReason::QueueFull);
        metrics.record_shed(Endpoint::Explain, ShedReason::Degraded);
        metrics.record_shed(Endpoint::Health, ShedReason::RateLimited);
        metrics.record_shed(Endpoint::Other, ShedReason::RateLimited);
        let admission = metrics.admission();
        admission.set_intake_closed(true);
        admission.set_intake_closed(false);
        admission.set_intake_closed(true);
        admission.set_limits(64, 256, 32, rate_limit);

        let connections = metrics.connections();
        for _ in 0..3 {
            connections.record_accepted();
        }
        connections.record_closed();
        for _ in 0..4 {
            connections.record_wakeup();
        }
        connections.record_pipelined();
        connections.record_pipelined();
        connections.record_idle_eviction();

        metrics.record_reload();
        metrics.set_thread_plan(2, 4, 2);
        let fit = FitStats {
            duration: Duration::from_micros(7_250),
            shards: 2,
            corpus_size: 90,
        };
        (metrics, fit)
    }

    /// Mask the run-dependent JSON values: `uptime_s` and `threads.os_threads`.
    fn mask_json(value: &mut JsonValue) {
        if let JsonValue::Object(fields) = value {
            for (key, field) in fields {
                if key == "uptime_s" || key == "os_threads" {
                    *field = JsonValue::string("masked");
                } else {
                    mask_json(field);
                }
            }
        }
    }

    /// Mask the run-dependent Prometheus values: the uptime and OS thread
    /// gauges and the `git` label of `holistix_build_info`.
    fn mask_prometheus(text: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            if let Some((name, _)) = line.split_once(' ').filter(|(name, _)| {
                ["holistix_uptime_seconds", "holistix_os_threads"].contains(name)
            }) {
                out.push_str(&format!("{name} masked\n"));
            } else if let Some((head, tail)) = line
                .strip_prefix("holistix_build_info{")
                .and_then(|_| line.split_once("git=\""))
            {
                let (_, rest) = tail.split_once('"').expect("terminated git label");
                out.push_str(&format!("{head}git=\"masked\"{rest}\n"));
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// The exposition split into family blocks (`# HELP`, `# TYPE` and the
    /// family's samples), sorted, so family order does not matter.
    fn family_blocks(text: &str) -> Vec<String> {
        let mut blocks: Vec<String> = Vec::new();
        for line in text.lines() {
            if line.starts_with("# HELP ") || blocks.is_empty() {
                blocks.push(String::new());
            }
            let block = blocks.last_mut().expect("pushed above");
            block.push_str(line);
            block.push('\n');
        }
        blocks.sort();
        blocks
    }

    fn assert_golden(metrics: &ServeMetrics, fit: Option<&FitStats>, json: &str, prometheus: &str) {
        let mut document = metrics.snapshot(fit);
        mask_json(&mut document);
        assert_eq!(format!("{document}\n"), json);
        let text = metrics.render_prometheus(fit);
        validate_exposition(&text).expect("valid exposition");
        assert_eq!(
            family_blocks(&mask_prometheus(&text)),
            family_blocks(prometheus)
        );
    }

    #[test]
    fn metrics_documents_match_golden_files() {
        let (metrics, fit) = golden_script(Some((12.5, 4.0)));
        assert_golden(
            &metrics,
            Some(&fit),
            include_str!("testdata/metrics_populated.json"),
            include_str!("testdata/metrics_populated.prom"),
        );
        let (metrics, fit) = golden_script(None);
        assert_golden(
            &metrics,
            Some(&fit),
            include_str!("testdata/metrics_no_rate_limit.json"),
            include_str!("testdata/metrics_no_rate_limit.prom"),
        );
        assert_golden(
            &ServeMetrics::new(),
            None,
            include_str!("testdata/metrics_empty.json"),
            include_str!("testdata/metrics_empty.prom"),
        );
    }
}
