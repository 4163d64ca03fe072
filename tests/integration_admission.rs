//! Admission-control integration tests: the overload bars for `holistix-serve`.
//!
//! Every test is deterministic — saturation is produced by a flag-gated slow
//! scorer (the PR 5 pattern), never by a sleep, so the assertions hold on any
//! machine: a queue filled to its cap rejects the next request with `429` and
//! a parseable `Retry-After` while the *other* kind keeps answering
//! bit-identically; `/explain` sheds before `/predict`; a per-connection
//! token bucket admits exactly its burst; and the global intake valve stops
//! reading new requests until the backlog drains.

use holistix::corpus::JsonValue;
use holistix::{BaselineKind, FittedBaseline, Scorer, SpeedProfile};
use holistix_corpus::HolistixCorpus;
use holistix_explain::LimeConfig;
use holistix_serve::{
    http_request, serve, AdmissionConfig, BatchConfig, Endpoint, HttpClient, ModelRegistry,
    RateLimitConfig, ServeConfig, ShedReason,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A scorer that blocks inside `probabilities` until the test releases it
/// (with a hard deadline so a failing test cannot wedge the queue thread
/// forever). Registered as the BERT analogue; while it is gated, every job
/// sent to its queue holds its depth reservation — which is how these tests
/// drive a queue to an exact depth with no timing assumptions.
struct GatedScorer {
    release: Arc<AtomicBool>,
}

impl Scorer for GatedScorer {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !self.release.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        texts
            .iter()
            .map(|_| vec![0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
            .collect()
    }

    fn kind(&self) -> BaselineKind {
        BaselineKind::Transformer(holistix::transformer::ModelKind::Bert)
    }
}

/// Poll `check` until it holds — a progress deadline, not a timing
/// assumption: the condition is driven by a flag or a counter, so the only
/// way to miss the (generous) deadline is a genuine bug.
fn wait_until(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The `Retry-After` header's value, which must parse as whole seconds.
fn retry_after_secs(headers: &[(String, String)]) -> u64 {
    let value = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
        .map(|(_, value)| value.as_str())
        .expect("429 without a Retry-After header");
    value
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparseable Retry-After {value:?}"))
}

/// The tentpole bar: a queue gated mid-score and filled to its cap draws
/// `429 + Retry-After` on the next enqueue — while `/predict` on the *other*
/// kind answers bit-identically (cross-kind isolation) and `/explain` sheds
/// first (graceful degradation). Releasing the gate completes every admitted
/// request; nothing admitted is lost, nothing rejected was enqueued.
#[test]
fn full_queue_rejects_with_retry_after_while_other_kind_serves() {
    let corpus = HolistixCorpus::generate_small(120, 29);
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let lr = Arc::new(FittedBaseline::fit(
        BaselineKind::LogisticRegression,
        SpeedProfile::Tiny,
        &texts,
        &labels,
        29,
    ));
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![
        lr.clone() as Arc<dyn Scorer>,
        Arc::new(GatedScorer {
            release: Arc::clone(&release),
        }),
    ]);
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            handlers: 8,
            batch: BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
            },
            admission: AdmissionConfig {
                max_queue_depth: 3,
                // Same threshold: once BERT holds 3 jobs, /explain sheds too.
                explain_shed_depth: 3,
                // Far above anything here — the valve must stay open so the
                // 429s are observable (a closed valve rejects nothing, it
                // just stops reading).
                global_intake_limit: 1000,
                rate_limit: None,
                retry_after: Duration::from_secs(2),
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let metrics = server.metrics();

    std::thread::scope(|scope| {
        // Fill the gated queue to exactly its cap: 3 single-text requests,
        // each blocking on a reply that cannot come until the gate opens.
        for i in 0..3 {
            scope.spawn(move || {
                let (status, body) = http_request(
                    addr,
                    "POST",
                    "/predict",
                    Some(r#"{"text":"hold the queue","model":"BERT"}"#),
                )
                .expect("admitted predict");
                assert_eq!(status, 200, "admitted request {i}: {body}");
                let document = JsonValue::parse(&body).unwrap();
                let row = document.get("results").unwrap().as_array().unwrap()[0]
                    .get("probabilities")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|p| p.as_f64().unwrap())
                    .sum::<f64>();
                assert!((row - 1.0).abs() < 1e-9);
            });
        }
        // Depth counts up at admission (before the drain loop can see the
        // jobs), so depth == 3 proves all three reservations are held.
        wait_until("the BERT queue to fill to its cap", || {
            metrics.queue("BERT", "transformer").depth() == 3
        });

        // The 4th draws 429 with a parseable Retry-After, and nothing of it
        // was enqueued (depth stays exactly at the cap).
        let mut client = HttpClient::connect(addr).expect("connect");
        let (status, body, headers) = client
            .request_full(
                "POST",
                "/predict",
                Some(r#"{"text":"one too many","model":"BERT"}"#),
                &[],
            )
            .expect("shed predict");
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("full"), "{body}");
        assert_eq!(retry_after_secs(&headers), 2);
        assert_eq!(metrics.queue("BERT", "transformer").depth(), 3);

        // Cross-kind isolation: LR admits and answers bit-identically to
        // direct scoring while BERT is saturated.
        let text = texts[0];
        let body = format!(
            "{{\"text\":{},\"model\":\"LR\"}}",
            holistix::corpus::json::json_escape(text)
        );
        let (status, response) = client
            .request("POST", "/predict", Some(&body))
            .expect("LR predict");
        assert_eq!(status, 200, "{response}");
        let document = JsonValue::parse(&response).unwrap();
        let got: Vec<f64> = document.get("results").unwrap().as_array().unwrap()[0]
            .get("probabilities")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        let want = lr.probabilities_one(text);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "LR row diverged under load");
        }

        // Graceful degradation: aggregate depth (3) is at the explain
        // threshold, so /explain sheds while /predict on LR still serves.
        let (status, body, headers) = client
            .request_full("POST", "/explain", Some(r#"{"text":"explain me"}"#), &[])
            .expect("shed explain");
        assert_eq!(status, 429, "{body}");
        assert!(retry_after_secs(&headers) >= 1);

        // The sheds are attributed per endpoint and reason, in the
        // in-process counters and in the /metrics JSON.
        assert_eq!(
            metrics
                .admission()
                .shed_count(Endpoint::Predict, ShedReason::QueueFull),
            1
        );
        assert_eq!(
            metrics
                .admission()
                .shed_count(Endpoint::Explain, ShedReason::Degraded),
            1
        );
        let (status, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let document = JsonValue::parse(&body).unwrap();
        let admission = document.get("admission").unwrap();
        assert_eq!(
            admission.get("aggregate_depth").unwrap().as_f64(),
            Some(3.0)
        );
        let shed = admission.get("shed").unwrap();
        assert_eq!(
            shed.get("predict")
                .unwrap()
                .get("queue_full")
                .unwrap()
                .as_f64(),
            Some(1.0)
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
            admission
                .get("limits")
                .unwrap()
                .get("max_queue_depth")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        drop(client);

        // Open the gate: every admitted request completes (asserted in the
        // client threads) and the backlog drains to zero.
        release.store(true, Ordering::SeqCst);
    });

    wait_until("the BERT queue to drain", || {
        metrics.queue("BERT", "transformer").depth() == 0
    });
    server.shutdown();
}

/// The per-connection token bucket: with a zero refill rate the bucket is
/// pure burst, so one connection gets exactly `burst` requests and then 429s
/// (connection still open, framing intact), while a fresh connection mints a
/// fresh bucket.
#[test]
fn token_bucket_admits_exactly_the_burst_per_connection() {
    let registry = ModelRegistry::fit_synthetic(&holistix_serve::RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 90,
        seed: 3,
    });
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            handlers: 4,
            admission: AdmissionConfig {
                // rate 0 never refills: the bucket admits exactly `burst`
                // requests per connection, ever — fully deterministic.
                rate_limit: Some(RateLimitConfig {
                    rate_per_s: 0.0,
                    burst: 2.0,
                }),
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();

    let mut client = HttpClient::connect(addr).expect("connect");
    for i in 0..2 {
        let (status, body) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "burst request {i}: {body}");
    }
    // The 3rd and every later request on this connection is shed — but the
    // connection itself survives (429 is an answer, not a hangup).
    for _ in 0..2 {
        let (status, body, headers) = client.request_full("GET", "/healthz", None, &[]).unwrap();
        assert_eq!(status, 429, "{body}");
        assert!(retry_after_secs(&headers) >= 1);
    }
    drop(client);

    // A new connection starts a fresh bucket.
    let mut fresh = HttpClient::connect(addr).expect("reconnect");
    let (status, _) = fresh.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    drop(fresh);

    assert_eq!(
        server
            .metrics()
            .admission()
            .shed_count(Endpoint::Health, ShedReason::RateLimited),
        2
    );
    server.shutdown();
}

/// The global intake valve: once the aggregate backlog reaches the limit,
/// pollers stop reading — a new client's request sits unread (bounded
/// negative check) until the backlog drains, then completes normally. The
/// valve rejects nothing; it converts overload into TCP backpressure.
#[test]
fn intake_valve_pauses_reads_until_the_backlog_drains() {
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![Arc::new(GatedScorer {
        release: Arc::clone(&release),
    }) as Arc<dyn Scorer>]);
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            handlers: 4,
            batch: BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
            },
            admission: AdmissionConfig {
                global_intake_limit: 2,
                // Only the valve is under test: keep the shedding bounds out
                // of the way.
                max_queue_depth: 1000,
                explain_shed_depth: 1000,
                rate_limit: None,
                retry_after: Duration::from_secs(1),
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let metrics = server.metrics();

    std::thread::scope(|scope| {
        // Two admitted-and-gated jobs push the aggregate depth to the limit.
        for _ in 0..2 {
            scope.spawn(move || {
                let (status, body) =
                    http_request(addr, "POST", "/predict", Some(r#"{"text":"hold"}"#))
                        .expect("gated predict");
                assert_eq!(status, 200, "{body}");
            });
        }
        // The valve state is maintained by the pollers' build_set pass, so
        // observing it closed proves a poller has already withdrawn read
        // interest everywhere.
        wait_until("the intake valve to close", || {
            metrics.admission().intake_closed()
        });

        // A client arriving now connects (kernel backlog) but its request
        // is not read, so it cannot complete while the valve is closed.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        scope.spawn(move || {
            let (status, body) =
                http_request(addr, "GET", "/healthz", None).expect("post-drain healthz");
            assert_eq!(status, 200, "{body}");
            done_tx.send(()).unwrap();
        });
        // Bounded one-direction check: a broken valve answers /healthz in
        // microseconds, so a full second of silence is decisive; a working
        // valve never answers, and the release below keeps the test finite.
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_err(),
            "request was served while the intake valve was closed"
        );

        // Draining the backlog reopens the valve; the parked client is read
        // and served.
        release.store(true, Ordering::SeqCst);
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("valve never reopened");
    });

    assert!(metrics.admission().intake_closures_total() >= 1);
    wait_until("the valve to reopen", || {
        !metrics.admission().intake_closed()
    });
    server.shutdown();
}

/// `/predict` never waits for a free handler: with the only handler parked
/// in an `/explain` whose LIME scoring blocks on the gate, an LR `/predict`
/// on a fresh connection still answers promptly and bit-identically — the
/// poller submits it to the LR queue, whose drain thread answers the poller
/// directly. The handler pool runs only `/explain` and `/reload`.
#[test]
fn predict_does_not_wait_for_a_free_handler() {
    let corpus = HolistixCorpus::generate_small(120, 31);
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let lr = Arc::new(FittedBaseline::fit(
        BaselineKind::LogisticRegression,
        SpeedProfile::Tiny,
        &texts,
        &labels,
        31,
    ));
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![
        lr.clone() as Arc<dyn Scorer>,
        Arc::new(GatedScorer {
            release: Arc::clone(&release),
        }),
    ]);
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            handlers: 1,
            lime: LimeConfig {
                n_samples: 20,
                ..LimeConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let metrics = server.metrics();
    let explains = || {
        let snapshot = metrics.snapshot(None);
        let requests = snapshot.get("requests").unwrap();
        requests.get("explain").unwrap().as_f64().unwrap()
    };

    std::thread::scope(|scope| {
        let explain = scope.spawn(move || {
            http_request(
                addr,
                "POST",
                "/explain",
                Some(r#"{"text":"i feel alone and tired","model":"BERT"}"#),
            )
        });
        wait_until("the explanation to be taken", || explains() == 1.0);

        let text = texts[0];
        let body = format!(
            "{{\"text\":{},\"model\":\"LR\"}}",
            holistix::corpus::json::json_escape(text)
        );
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        scope.spawn(move || {
            let _ = done_tx.send(http_request(addr, "POST", "/predict", Some(&body)));
        });
        let answered = done_rx.recv_timeout(Duration::from_secs(2));
        // Open the gate before asserting, so a failure never hangs the suite.
        release.store(true, Ordering::SeqCst);

        let (status, response) = answered
            .expect("/predict waited for the parked handler")
            .expect("LR predict");
        assert_eq!(status, 200, "{response}");
        let document = JsonValue::parse(&response).unwrap();
        let got: Vec<f64> = document.get("results").unwrap().as_array().unwrap()[0]
            .get("probabilities")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        let want = lr.probabilities_one(text);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "LR row diverged");
        }

        let (status, body) = explain.join().unwrap().expect("explain");
        assert_eq!(status, 200, "{body}");
    });
    server.shutdown();
}
