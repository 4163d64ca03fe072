//! Observability integration tests against a live server: trace ids on the
//! wire, the `/debug/slow` ring, Prometheus content negotiation, and the
//! JSON/Prometheus counter-equality contract the CI smoke also enforces.

use holistix::{BaselineKind, Scorer, SpeedProfile};
use holistix_corpus::json::JsonValue;
use holistix_serve::http::ResponseParser;
use holistix_serve::{
    build_info, serve, validate_exposition, BatchConfig, HttpClient, ModelRegistry, RegistryConfig,
    ServeConfig, ServerHandle,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::HoldFirstBatch;

fn lr_registry() -> ModelRegistry {
    ModelRegistry::fit_synthetic(&RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 120,
        seed: 29,
    })
}

fn serve_registry(registry: ModelRegistry) -> ServerHandle {
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 8,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    serve("127.0.0.1:0", registry, config).expect("bind loopback")
}

fn start_server() -> ServerHandle {
    serve_registry(lr_registry())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn predict_request(text: &str, query: &str) -> String {
    let body = format!("{{\"text\":{}}}", holistix::corpus::json::json_escape(text));
    format!(
        "POST /predict{query} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
}

/// One Prometheus sample value by exact `name{labels}` prefix.
fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find(|line| {
            line.strip_prefix(series)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|line| line.rsplit_once(' '))
        .and_then(|(_, value)| value.parse().ok())
}

/// Two requests pipelined in one write get two *distinct* trace ids, and
/// every response carries `X-Trace-Id`. The scorer holds the first request's
/// batch until the second has been parsed, so both are in flight at once.
#[test]
fn pipelined_requests_get_distinct_trace_ids() {
    let registry = lr_registry();
    let model = registry.get(BaselineKind::LogisticRegression).unwrap();
    let held = HoldFirstBatch::new(model);
    let server = serve_registry(ModelRegistry::from_scorers(vec![
        held.clone() as Arc<dyn Scorer>
    ]));
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let pipelined = format!(
        "{}{}",
        predict_request("i feel so alone lately", ""),
        predict_request("my job exhausts me completely", "")
    );
    (&stream).write_all(pipelined.as_bytes()).expect("write");
    held.wait_entered();
    common::wait_until("the second request to parse", || {
        server.metrics().connections().pipelined_total() >= 1
    });
    held.open();
    // Raw socket plus parser: each pipelined response's headers, in arrival
    // order.
    let mut responses = ResponseParser::new();
    let (status_a, body_a, headers_a) = responses.read_from(&mut &stream).expect("first response");
    let (status_b, body_b, headers_b) = responses.read_from(&mut &stream).expect("second response");
    assert_eq!(status_a, 200, "{body_a}");
    assert_eq!(status_b, 200, "{body_b}");
    let id_a = header(&headers_a, "x-trace-id").expect("first X-Trace-Id");
    let id_b = header(&headers_b, "x-trace-id").expect("second X-Trace-Id");
    assert_eq!(id_a.len(), 16, "trace ids are 16 hex chars: {id_a:?}");
    assert!(id_a.chars().all(|c| c.is_ascii_hexdigit()), "{id_a:?}");
    assert_ne!(id_a, id_b, "pipelined requests must get distinct trace ids");
    drop(stream);
    server.shutdown();
}

/// `?trace=1` inlines the stage breakdown, its `trace_id` matches the
/// `X-Trace-Id` header, and `/debug/slow` retains the trace with monotone,
/// non-overlapping stage timestamps.
#[test]
fn trace_inline_and_debug_slow_agree_on_stages() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let body = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape("i can't sleep and everything feels heavy")
    );
    let (status, body, headers) = client
        .request_full("POST", "/predict?trace=1", Some(&body), &[])
        .expect("predict");
    assert_eq!(status, 200, "{body}");
    let wire_id = header(&headers, "x-trace-id")
        .expect("X-Trace-Id")
        .to_string();
    let document = JsonValue::parse(&body).expect("predict JSON");
    let trace = document.get("trace").expect("?trace=1 inlines a trace");
    assert_eq!(
        trace.get("trace_id").unwrap().as_str(),
        Some(wire_id.as_str())
    );
    let inline_stages = trace.get("stages").unwrap().as_array().unwrap();
    assert!(!inline_stages.is_empty(), "inline trace has stages");

    // The trace is finalized at last-byte-written, a poller tick after the
    // client reads the response — poll briefly for it to land in the ring.
    let mut slow_traces = Vec::new();
    for _ in 0..50 {
        let (status, body) = client.request("GET", "/debug/slow", None).expect("slow");
        assert_eq!(status, 200, "{body}");
        let document = JsonValue::parse(&body).expect("/debug/slow JSON");
        let traces = document.get("traces").unwrap().as_array().unwrap().to_vec();
        if traces
            .iter()
            .any(|t| t.get("trace_id").unwrap().as_str() == Some(wire_id.as_str()))
        {
            slow_traces = traces;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let entry = slow_traces
        .iter()
        .find(|t| t.get("trace_id").unwrap().as_str() == Some(wire_id.as_str()))
        .expect("/debug/slow retains the predict trace");
    assert_eq!(entry.get("endpoint").unwrap().as_str(), Some("predict"));
    let total_us = entry.get("total_us").unwrap().as_f64().unwrap();
    let stages = entry.get("stages").unwrap().as_array().unwrap();
    assert!(!stages.is_empty());

    // Monotone, non-overlapping: each stage starts where the previous one
    // ended (at_us == previous at_us + dur_us), offsets never decrease, and
    // nothing extends past the trace total.
    let mut previous_at = 0.0f64;
    for stage in stages {
        let at = stage.get("at_us").unwrap().as_f64().unwrap();
        let dur = stage.get("dur_us").unwrap().as_f64().unwrap();
        assert!(
            at >= previous_at,
            "stage offsets must be monotone: {stages:?}"
        );
        assert!(
            (at - (previous_at + dur)).abs() <= 1.0,
            "stages must tile without overlap: {stages:?}"
        );
        assert!(at <= total_us + 1.0, "stage past trace total: {stages:?}");
        previous_at = at;
    }
    // The write stamp closes the trace, so the last offset IS the total.
    assert!(
        (previous_at - total_us).abs() <= 1.0,
        "last stage ({previous_at}) should end the trace ({total_us})"
    );
    server.shutdown();
}

/// Content negotiation: `Accept: text/plain` and `?format=prometheus` both
/// switch `/metrics` to valid Prometheus text whose counters equal the JSON
/// document's, while the default stays JSON.
#[test]
fn metrics_serves_json_and_prometheus_with_equal_counters() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let body = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape("nobody ever listens to me")
    );
    for _ in 0..3 {
        let (status, body) = client
            .request("POST", "/predict", Some(&body))
            .expect("predict");
        assert_eq!(status, 200, "{body}");
    }

    // Default scrape is JSON (shape unchanged from earlier releases).
    let (status, json_body, headers) = client
        .request_full("GET", "/metrics", None, &[])
        .expect("json metrics");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let json = JsonValue::parse(&json_body).expect("metrics JSON");
    let requests = json.get("requests").unwrap();
    let json_predicts = requests.get("predict").unwrap().as_f64().unwrap();
    let json_texts = json.get("texts_scored").unwrap().as_f64().unwrap();
    assert_eq!(json_predicts, 3.0);

    // Accept-negotiated Prometheus.
    let (status, prom, headers) = client
        .request_full("GET", "/metrics", None, &[("Accept", "text/plain")])
        .expect("prometheus metrics");
    assert_eq!(status, 200);
    assert!(
        header(&headers, "content-type").is_some_and(|value| value.starts_with("text/plain")),
        "{headers:?}"
    );
    validate_exposition(&prom).expect("valid exposition");

    // Query-negotiated Prometheus (for scrapers that can't set headers).
    let (status, prom_query) = client
        .request("GET", "/metrics?format=prometheus", None)
        .expect("prometheus via query");
    assert_eq!(status, 200);
    validate_exposition(&prom_query).expect("valid exposition via query");

    // Counter equality on scrape-stable counters (the metrics endpoint's own
    // request counter moves between scrapes; predict/texts_scored don't).
    assert_eq!(
        prom_value(&prom, "holistix_requests_total{endpoint=\"predict\"}"),
        Some(json_predicts),
        "JSON and Prometheus disagree on predict count"
    );
    assert_eq!(
        prom_value(&prom, "holistix_texts_scored_total"),
        Some(json_texts),
        "JSON and Prometheus disagree on texts scored"
    );
    // The build gauge mirrors /healthz's build section.
    assert_eq!(
        prom_value(
            &prom,
            &format!(
                "holistix_build_info{{version=\"{}\",git=\"{}\"}}",
                build_info().0,
                build_info().1
            )
        ),
        Some(1.0)
    );
    server.shutdown();
}

/// Every family the benchmark harness reads from `/metrics?format=prometheus`
/// is in the scrape after one traced `/predict`. `validate_exposition`
/// guarantees each `# TYPE` line has samples.
#[test]
fn scrape_after_one_traced_predict_carries_every_benchmark_family() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let body = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape("i cannot sleep and work is piling up")
    );
    let (status, body) = client
        .request("POST", "/predict?trace=1", Some(&body))
        .expect("traced predict");
    assert_eq!(status, 200, "{body}");
    let (status, prom) = client
        .request("GET", "/metrics?format=prometheus", None)
        .expect("scrape");
    assert_eq!(status, 200);
    validate_exposition(&prom).expect("valid exposition");
    for family in [
        "holistix_stage_duration_us",
        "holistix_request_latency_us",
        "holistix_requests_total",
        "holistix_poll_wakeups_total",
        "holistix_pipelined_requests_total",
        "holistix_os_threads",
        "holistix_queue_batch_size",
        "holistix_queue_score_us",
        "holistix_queue_batch_close_total",
        "holistix_shed_total",
    ] {
        assert!(
            prom.lines()
                .any(|line| line.starts_with(&format!("# TYPE {family} "))),
            "scrape is missing {family}:\n{prom}"
        );
    }
    server.shutdown();
}

/// `/healthz` reports uptime and the baked-in build identity.
#[test]
fn healthz_reports_uptime_and_build() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{body}");
    let health = JsonValue::parse(&body).expect("healthz JSON");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let uptime = health.get("uptime_s").unwrap().as_f64().unwrap();
    assert!(uptime >= 0.0, "uptime_s must be non-negative: {uptime}");
    let build = health.get("build").expect("build section");
    let (version, git) = build_info();
    assert_eq!(build.get("version").unwrap().as_str(), Some(version));
    assert_eq!(build.get("git").unwrap().as_str(), Some(git));
    assert!(!version.is_empty());
    server.shutdown();
}
