//! Admission control: the layer that says "no" before overload says it for us.
//!
//! PR 6's multiplexer accepts thousands of keep-alive clients on a handful of
//! threads, which made unbounded intake the next wall: nothing bounded the
//! per-kind batch queues, so a traffic spike grew them without limit and every
//! client collapsed at once. This module adds the four bounds, outermost to
//! innermost:
//!
//! 1. **Global intake valve** — when the aggregate depth across every batch
//!    queue reaches [`AdmissionConfig::global_intake_limit`], pollers withdraw
//!    read interest from *every* connection (and stop accepting), exactly the
//!    mechanism `MAX_PIPELINED` already uses per connection: backpressure
//!    lands in the kernel's receive buffers, not server memory. The valve
//!    reopens as soon as batches drain below the limit.
//! 2. **Per-client token bucket** — each connection owns a [`TokenBucket`]
//!    (when [`AdmissionConfig::rate_limit`] is set): `burst` tokens capacity,
//!    refilled at `rate_per_s` tokens per second, one token per request. A
//!    request that finds the bucket empty is answered `429` with
//!    `Retry-After` directly by the poller, before it is routed.
//! 3. **Graceful degradation** — `/explain` costs hundreds of LIME scoring
//!    calls per request, so it sheds first: once aggregate queue depth
//!    reaches [`AdmissionConfig::explain_shed_depth`] (below the intake
//!    limit), `/explain` answers `429` while `/predict` still serves.
//! 4. **Per-kind queue caps** — each batch queue rejects at enqueue once its
//!    depth would exceed [`AdmissionConfig::max_queue_depth`]; the request
//!    draws `429` + `Retry-After`. One saturated kind sheds alone — the
//!    other kinds' queues admit normally (cross-kind isolation).
//!
//! `429 Too Many Requests` always means *the server is healthy but full —
//! back off and retry*; `503 Service Unavailable` is reserved for the reload
//! path (a swapped-in registry dropped the model) and shutdown. Every shed is
//! counted per endpoint and reason in
//! [`AdmissionMetrics`](crate::metrics::AdmissionMetrics) and surfaced by
//! `GET /metrics` in both JSON and Prometheus form.

use crate::metrics::ServeMetrics;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-client rate-limit knobs: a classic token bucket.
///
/// Units: `burst` is in requests (the bucket's capacity, also its initial
/// fill), `rate_per_s` in requests per second (the refill rate). A client may
/// send `burst` requests instantly, then sustain `rate_per_s`; over any window
/// of `t` seconds at most `burst + rate_per_s·t` requests are admitted — the
/// invariant the property tests pin. `rate_per_s: 0.0` never refills: the
/// bucket admits exactly `burst` requests per connection, ever (what the
/// deterministic tests and the CI smoke use).
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// Refill rate, tokens (requests) per second.
    pub rate_per_s: f64,
    /// Bucket capacity, tokens; also the initial fill.
    pub burst: f64,
}

/// Admission-control knobs, configured via
/// [`ServeConfig::admission`](crate::ServeConfig). Defaults are permissive —
/// caps far above anything the test workloads reach — so admission is
/// invisible until configured tighter.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Most jobs (texts) one kind's batch queue may hold, queued or being
    /// scored. An enqueue that would exceed this draws `429 + Retry-After`.
    pub max_queue_depth: usize,
    /// Aggregate queue depth (summed over every kind) at which the global
    /// intake valve closes: pollers stop reading every connection and stop
    /// accepting until batches drain below the limit.
    pub global_intake_limit: usize,
    /// Aggregate queue depth at which `/explain` sheds (`429`). Set below
    /// [`max_queue_depth`](Self::max_queue_depth) so explanations shed while
    /// predictions still serve.
    pub explain_shed_depth: usize,
    /// Per-connection token bucket; `None` (the default) disables per-client
    /// rate limiting.
    pub rate_limit: Option<RateLimitConfig>,
    /// The `Retry-After` hint (whole seconds, minimum 1) on every shed
    /// response.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_queue_depth: 1024,
            global_intake_limit: 4096,
            explain_shed_depth: 512,
            rate_limit: None,
            retry_after: Duration::from_secs(1),
        }
    }
}

/// A token bucket with an explicit clock: every operation takes `now`, so
/// tests drive it over a synthetic schedule with no real sleeping. Created
/// full (at `burst`); [`try_take`](Self::try_take) refills for the elapsed
/// time, then takes one token or refuses.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_s: f64,
    burst: f64,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    /// A full bucket. `rate_per_s` and `burst` are clamped non-negative.
    pub fn new(rate_per_s: f64, burst: f64, now: Instant) -> Self {
        let burst = burst.max(0.0);
        Self {
            rate_per_s: rate_per_s.max(0.0),
            burst,
            tokens: burst,
            refilled: now,
        }
    }

    /// Credit the refill earned since the last call. Time never runs
    /// backwards here: a `now` before the last refill instant is ignored
    /// rather than rewinding the clock (which would double-count the
    /// interval on the next call).
    fn refill(&mut self, now: Instant) {
        if now <= self.refilled {
            return;
        }
        let elapsed = now.duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + self.rate_per_s * elapsed).min(self.burst);
        self.refilled = now;
    }

    /// Take one token if available. Refills first, so a bucket that was empty
    /// recovers as time passes.
    pub fn try_take(&mut self, now: Instant) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently in the bucket (as of the last refill; call
    /// [`try_take`](Self::try_take) or observe after it for a fresh value).
    /// Always within `[0, burst]` — the monotone-refill property test pins
    /// this across arbitrary take/refill interleavings.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// The bucket's capacity.
    pub fn burst(&self) -> f64 {
        self.burst
    }
}

/// The shared admission policy: one per server, consulted by pollers (intake
/// valve, per-connection buckets, retry hints) and handlers (explain
/// shedding). All live state it reads — aggregate queue depth — and all state it
/// writes — the valve gauge, shed counters — lives in [`ServeMetrics`], so
/// `/metrics` and the policy can never disagree.
pub struct Admission {
    config: AdmissionConfig,
    metrics: Arc<ServeMetrics>,
}

impl Admission {
    /// Wrap a config and the server's metrics sink; echoes the limits into
    /// the metrics so `/metrics` reports the active configuration.
    pub fn new(config: AdmissionConfig, metrics: Arc<ServeMetrics>) -> Self {
        metrics.admission().set_limits(
            config.max_queue_depth as u64,
            config.global_intake_limit as u64,
            config.explain_shed_depth as u64,
            config.rate_limit.map(|r| (r.rate_per_s, r.burst)),
        );
        Self { config, metrics }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The `Retry-After` value for shed responses, whole seconds, at least 1
    /// (a zero would tell clients to hammer).
    pub fn retry_after_secs(&self) -> u64 {
        self.config.retry_after.as_secs().max(1)
    }

    /// A fresh bucket for a newly accepted connection, or `None` when rate
    /// limiting is off. Keyed on connection identity by construction: every
    /// connection gets its own bucket at accept, reconnecting mints a new one.
    pub fn new_bucket(&self, now: Instant) -> Option<TokenBucket> {
        self.config
            .rate_limit
            .map(|r| TokenBucket::new(r.rate_per_s, r.burst, now))
    }

    /// Whether `/explain` should shed right now (aggregate queue pressure at
    /// or past the explain threshold).
    pub fn should_shed_explain(&self) -> bool {
        self.metrics.aggregate_queue_depth() >= self.config.explain_shed_depth as u64
    }

    /// Whether pollers may read (and accept) right now. Also maintains the
    /// valve gauge and the open→closed transition counter in the metrics, so
    /// the check is cheap enough to run once per poll round.
    pub fn intake_open(&self) -> bool {
        let closed = self.metrics.aggregate_queue_depth() >= self.config.global_intake_limit as u64;
        self.metrics.admission().set_intake_closed(closed);
        !closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_refuses_until_refill() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(10.0, 3.0, start);
        for i in 0..3 {
            assert!(bucket.try_take(start), "burst token {i}");
        }
        assert!(!bucket.try_take(start), "bucket must be empty");
        // 10 tokens/s: 100 ms refills one token, and only one.
        let later = start + Duration::from_millis(100);
        assert!(bucket.try_take(later));
        assert!(!bucket.try_take(later));
    }

    #[test]
    fn bucket_caps_refill_at_burst() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(1000.0, 2.0, start);
        // An hour idle refills to burst, not to rate·elapsed.
        let later = start + Duration::from_secs(3600);
        assert!(bucket.try_take(later));
        assert!(bucket.try_take(later));
        assert!(!bucket.try_take(later));
    }

    #[test]
    fn zero_rate_bucket_is_burst_only() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(0.0, 2.0, start);
        assert!(bucket.try_take(start));
        assert!(bucket.try_take(start));
        // No refill ever, no matter how long we wait.
        assert!(!bucket.try_take(start + Duration::from_secs(1000)));
    }

    #[test]
    fn bucket_ignores_time_running_backwards() {
        let start = Instant::now();
        let later = start + Duration::from_secs(1);
        let mut bucket = TokenBucket::new(1.0, 1.0, later);
        assert!(bucket.try_take(later));
        // A stale `now` must not rewind the refill clock (double-crediting
        // the interval on the next call) — and must not panic.
        assert!(!bucket.try_take(start));
        assert!(!bucket.try_take(later + Duration::from_millis(500)));
        assert!(bucket.try_take(later + Duration::from_secs(1)));
    }

    #[test]
    fn defaults_are_permissive_and_retry_after_is_at_least_one() {
        let config = AdmissionConfig::default();
        assert!(config.rate_limit.is_none());
        assert!(config.explain_shed_depth < config.max_queue_depth);
        assert!(config.max_queue_depth < config.global_intake_limit);
        let admission = Admission::new(
            AdmissionConfig {
                retry_after: Duration::from_millis(10),
                ..AdmissionConfig::default()
            },
            Arc::new(ServeMetrics::new()),
        );
        assert_eq!(admission.retry_after_secs(), 1);
        assert!(admission.new_bucket(Instant::now()).is_none());
        assert!(admission.intake_open());
        assert!(!admission.should_shed_explain());
    }
}
