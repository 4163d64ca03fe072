//! Connection-layer integration tests for the nonblocking multiplexer: raw
//! TCP clients that exercise exactly the cases a blocking-read server never
//! sees — two requests in one segment (pipelining), one byte per segment
//! (incremental framing), hostile framing (oversized heads, garbage request
//! lines) that must draw a `400` without taking the poller down, and
//! round-trip latency with Nagle's algorithm off on both ends.

use holistix::{BaselineKind, Scorer, SpeedProfile};
use holistix_corpus::json::JsonValue;
use holistix_serve::http::ResponseParser;
use holistix_serve::{
    http_request, serve, BatchConfig, HttpClient, ModelRegistry, RegistryConfig, ServeConfig,
    ServerHandle,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::HoldFirstBatch;

/// The default batch window: a bound the idle queues here never wait out.
const MAX_WAIT: Duration = Duration::from_millis(5);

fn predict_request(text: &str) -> String {
    let body = format!("{{\"text\":{}}}", holistix::corpus::json::json_escape(text));
    format!(
        "POST /predict HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
}

/// The pipelining bar: two complete requests in one `write` are answered in
/// request order, and each body is byte-identical to the same request sent
/// sequentially on its own connection — pipelining changes scheduling, never
/// answers. The scorer holds the first request's batch, so the second is
/// parsed while the first is provably in flight; the `/metrics` pipelined
/// counter shows the overlap.
#[test]
fn two_requests_in_one_write_answer_in_order_bit_identically() {
    let registry = lr_registry();
    let model = registry.get(BaselineKind::LogisticRegression).unwrap();
    let held = HoldFirstBatch::new(model);
    let server = serve_with(
        ModelRegistry::from_scorers(vec![held.clone() as Arc<dyn Scorer>]),
        MAX_WAIT,
    );
    let addr = server.addr();

    let text_a = "i feel so alone lately and nobody calls";
    let text_b = "my job exhausts me beyond what i can carry";
    // Both requests in a single write; the poller parses the second while
    // the first is held in the scorer.
    let stream = TcpStream::connect(addr).expect("connect");
    let pipelined = format!("{}{}", predict_request(text_a), predict_request(text_b));
    (&stream).write_all(pipelined.as_bytes()).expect("write");
    held.wait_entered();
    common::wait_until("the second request to parse", || {
        server.metrics().connections().pipelined_total() >= 1
    });
    held.open();
    let mut responses = ResponseParser::new();
    let (status_a, got_a, _) = responses.read_from(&mut &stream).expect("first response");
    let (status_b, got_b, _) = responses.read_from(&mut &stream).expect("second response");
    assert_eq!(status_a, 200, "{got_a}");
    assert_eq!(status_b, 200, "{got_b}");
    drop(stream);

    // Sequential reference answers, one connection each.
    let body_a = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape(text_a)
    );
    let body_b = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape(text_b)
    );
    let (status, want_a) = http_request(addr, "POST", "/predict", Some(&body_a)).unwrap();
    assert_eq!(status, 200, "{want_a}");
    let (status, want_b) = http_request(addr, "POST", "/predict", Some(&body_b)).unwrap();
    assert_eq!(status, 200, "{want_b}");
    assert_ne!(want_a, want_b, "texts must produce distinguishable answers");
    assert_eq!(got_a, want_a, "first pipelined answer diverged");
    assert_eq!(got_b, want_b, "second pipelined answer diverged");
    server.shutdown();
}

/// The incremental-framing bar: a request delivered one byte per segment
/// (every byte its own `write`, TCP_NODELAY on) parses and answers exactly
/// like a request that arrived whole.
#[test]
fn one_byte_at_a_time_request_parses_over_tcp() {
    let server = serve_lr(MAX_WAIT);
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let request = predict_request("i feel alone");
    for byte in request.as_bytes() {
        (&stream)
            .write_all(std::slice::from_ref(byte))
            .expect("write byte");
        // A real pause between segments, so coalescing cannot hide the
        // fragmentation from the server.
        std::thread::sleep(Duration::from_micros(200));
    }
    let (status, body, _) = ResponseParser::new()
        .read_from(&mut &stream)
        .expect("response");
    assert_eq!(status, 200, "{body}");
    let document = JsonValue::parse(&body).expect("predict response is JSON");
    let results = document.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 1);
    drop(stream);
    server.shutdown();
}

/// The robustness bar: hostile framing draws a `400` (and a close), and the
/// poller that absorbed it keeps serving everyone else.
#[test]
fn oversized_and_malformed_requests_get_400_without_killing_the_poller() {
    let server = serve_lr(MAX_WAIT);
    let addr = server.addr();

    // Garbage request line.
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream).write_all(b"WHAT\r\n\r\n").expect("write");
    let (status, body, _) = ResponseParser::new()
        .read_from(&mut &stream)
        .expect("response");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("malformed request"), "{body}");
    drop(stream);

    // A head that never terminates, past the 16 KiB head cap.
    let stream = TcpStream::connect(addr).expect("connect");
    let endless_head = vec![b'a'; 20 << 10];
    (&stream).write_all(&endless_head).expect("write");
    let (status, body, _) = ResponseParser::new()
        .read_from(&mut &stream)
        .expect("response");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("head exceeds"), "{body}");
    drop(stream);

    // A declared body over the 1 MiB cap (rejected from the head alone —
    // the server never waits for, or buffers, the body).
    let stream = TcpStream::connect(addr).expect("connect");
    let huge = format!(
        "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        8 << 20
    );
    (&stream).write_all(huge.as_bytes()).expect("write");
    let (status, body, _) = ResponseParser::new()
        .read_from(&mut &stream)
        .expect("response");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    drop(stream);

    // The server shrugged all three off: a well-formed client still answers,
    // and the errors were counted.
    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let health = JsonValue::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let snapshot = server.metrics().snapshot(None);
    let errors = snapshot
        .get("requests")
        .unwrap()
        .get("errors")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(errors >= 3.0, "expected ≥3 recorded errors, got {errors}");
    server.shutdown();
}

/// The client-latency bar: `HttpClient` sends each request in one write on a
/// `TCP_NODELAY` socket, so a sequential keep-alive round trip costs the
/// server's work plus loopback. Written in pieces without `TCP_NODELAY`, a
/// request's later segments wait for the ACK of its first, which the server
/// delays by ~40 ms.
#[test]
fn keep_alive_round_trips_through_http_client_do_not_stall() {
    let server = serve_lr(Duration::ZERO);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let body = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape("i feel so alone lately")
    );
    const ROUND_TRIPS: u32 = 100;
    let started = Instant::now();
    for _ in 0..ROUND_TRIPS {
        let (status, response) = client
            .request("POST", "/predict", Some(&body))
            .expect("predict");
        assert_eq!(status, 200, "{response}");
    }
    let mean = started.elapsed() / ROUND_TRIPS;
    assert!(
        mean < Duration::from_millis(10),
        "mean keep-alive round trip {mean:?}: the client is stalling"
    );
    server.shutdown();
}

/// An LR registry at the Tiny profile.
fn lr_registry() -> ModelRegistry {
    ModelRegistry::fit_synthetic(&RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 120,
        seed: 29,
    })
}

/// An LR server at the Tiny profile with the given batch window.
fn serve_lr(max_wait: Duration) -> ServerHandle {
    serve_with(lr_registry(), max_wait)
}

fn serve_with(registry: ModelRegistry, max_wait: Duration) -> ServerHandle {
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 8,
            max_wait,
        },
        ..ServeConfig::default()
    };
    serve("127.0.0.1:0", registry, config).expect("bind loopback")
}

/// The server half of the Nagle bar: accepted sockets set `TCP_NODELAY`.
/// Each round pipelines `/healthz` and `/predict` in one write. The healthz
/// answer goes out at once; the predict answer follows once its batch is
/// scored, while the first is still unACKed. With Nagle on, that second
/// response waits for the client's delayed ACK (~40 ms).
#[test]
fn pipelined_responses_are_not_held_for_the_clients_delayed_ack() {
    let server = serve_lr(MAX_WAIT);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let round = format!(
        "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n{}",
        predict_request("i feel so alone lately")
    );
    let mut responses = ResponseParser::new();
    const ROUNDS: u32 = 50;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        (&stream).write_all(round.as_bytes()).expect("write");
        for what in ["healthz", "predict"] {
            let (status, body, _) = responses.read_from(&mut &stream).expect(what);
            assert_eq!(status, 200, "{what}: {body}");
        }
    }
    let mean = started.elapsed() / ROUNDS;
    assert!(
        mean < Duration::from_millis(20),
        "mean pipelined round {mean:?}: the server is stalling on Nagle"
    );
    server.shutdown();
}
