//! Open-loop fixed-TPS load generation and the SLO ramp controller.
//!
//! The serving benches so far were **closed-loop**: each client waits for a
//! response before sending its next request, so a slowing server throttles
//! its own offered load and the measured throughput flatters it (coordinated
//! omission). An **open-loop** client sends on a fixed schedule no matter
//! what the server does: every request has an absolute scheduled instant
//! (`start + i/tps`), and at that instant the request bytes are appended to a
//! client-side output buffer on a nonblocking socket. A stalled server backs
//! traffic up in that buffer and the kernel — it cannot slow the schedule,
//! which is exactly what the stalled-server unit test pins.
//!
//! On top of the clients sits [`ramp_until_slo`]: raise TPS step by step,
//! measure each step (the `serve_load` bench reads the server's *own*
//! `/metrics` latency histogram, snapshot-subtracted per step), and stop at
//! the first step that violates a p99-latency or shed-rate SLO. The last
//! passing step is the **max sustainable TPS** — the number the bench
//! appends to `BENCH_serve.json`.

use holistix::ml::scoped_map;
use holistix_serve::http::ResponseParser;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Absolute send offsets from the run's start: request `i` of a `tps`-rate
/// schedule is due at `i / tps` seconds. The schedule is what makes the load
/// open-loop — due times are fixed up front, never derived from responses.
#[derive(Debug, Clone)]
pub struct Schedule {
    offsets: Vec<Duration>,
}

impl Schedule {
    /// A fixed-TPS schedule: `floor(tps · duration)` sends, evenly spaced
    /// `1/tps` apart, starting at offset zero.
    pub fn fixed_tps(tps: f64, duration: Duration) -> Self {
        assert!(tps > 0.0, "tps must be positive");
        let n = (tps * duration.as_secs_f64()).floor() as usize;
        Self {
            offsets: (0..n)
                .map(|i| Duration::from_secs_f64(i as f64 / tps))
                .collect(),
        }
    }

    /// The send offsets, ascending.
    pub fn offsets(&self) -> &[Duration] {
        &self.offsets
    }

    /// Number of scheduled sends.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Round-robin split across `n` clients: client `i` takes offsets
    /// `i, i+n, i+2n, …`, so the aggregate schedule (and its rate) is
    /// preserved while no two clients share a connection.
    fn split(&self, n: usize) -> Vec<Schedule> {
        (0..n.max(1))
            .map(|i| Schedule {
                offsets: self
                    .offsets
                    .iter()
                    .skip(i)
                    .step_by(n.max(1))
                    .copied()
                    .collect(),
            })
            .collect()
    }
}

/// One open-loop run's parameters.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered load in requests per second, across all connections.
    pub tps: f64,
    /// How long to offer it.
    pub duration: Duration,
    /// Concurrent connections sharing the schedule round-robin.
    pub connections: usize,
    /// Request method (requests are preformatted once, then replayed).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Request body.
    pub body: String,
    /// After the last scheduled send, how long to keep draining responses
    /// before giving up on the stragglers.
    pub drain: Duration,
}

/// What one open-loop run observed, summed across its connections.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Sends the schedule called for.
    pub scheduled: usize,
    /// Requests actually placed on the wire-or-buffer at their tick. Equal
    /// to `scheduled` unless a connection died mid-run.
    pub sent: usize,
    /// Complete responses parsed back, any status.
    pub responses: usize,
    /// 2xx responses.
    pub ok: usize,
    /// 429 responses (the server shedding load).
    pub shed: usize,
    /// 429 responses that carried a `Retry-After` header.
    pub shed_with_retry_after: usize,
    /// Non-2xx/non-429 responses plus connection-level failures.
    pub errors: usize,
    /// Worst lateness of any send against its scheduled instant. Open-loop
    /// sends never block, so this stays small no matter what the server
    /// does — the stalled-server test pins it.
    pub max_send_drift: Duration,
}

impl OpenLoopReport {
    /// Fold another connection's report into this one.
    fn merge(&mut self, other: &OpenLoopReport) {
        self.scheduled += other.scheduled;
        self.sent += other.sent;
        self.responses += other.responses;
        self.ok += other.ok;
        self.shed += other.shed;
        self.shed_with_retry_after += other.shed_with_retry_after;
        self.errors += other.errors;
        self.max_send_drift = self.max_send_drift.max(other.max_send_drift);
    }

    /// Fraction of scheduled requests the server shed (429), in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.scheduled == 0 {
            0.0
        } else {
            self.shed as f64 / self.scheduled as f64
        }
    }
}

/// Count every complete response buffered in `parser` into `report`: 2xx as
/// ok, 429 as shed (noting whether it carried `Retry-After`), anything else
/// as an error. A framing error leaves the connection unusable.
fn count_responses(
    parser: &mut ResponseParser,
    report: &mut OpenLoopReport,
) -> std::io::Result<()> {
    while let Some((status, _, headers)) = parser.poll_response()? {
        report.responses += 1;
        match status {
            200..=299 => report.ok += 1,
            429 => {
                report.shed += 1;
                if headers
                    .iter()
                    .any(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
                {
                    report.shed_with_retry_after += 1;
                }
            }
            _ => report.errors += 1,
        }
    }
    Ok(())
}

/// One connection's open-loop run: nonblocking socket, client-side output
/// buffer, absolute schedule. Appending to the buffer is the "send" — it
/// never blocks, so the schedule holds regardless of the server.
fn run_connection(
    addr: SocketAddr,
    schedule: &Schedule,
    request: &[u8],
    drain: Duration,
) -> OpenLoopReport {
    let mut report = OpenLoopReport {
        scheduled: schedule.len(),
        ..OpenLoopReport::default()
    };
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(_) => {
            report.errors += 1;
            return report;
        }
    };
    stream.set_nonblocking(true).expect("nonblocking client");
    stream.set_nodelay(true).ok();

    let mut stream = stream;
    let mut outbuf: Vec<u8> = Vec::new();
    let mut out_pos = 0usize;
    let mut parser = ResponseParser::new();
    let mut dead = false;
    let start = Instant::now();

    for &offset in schedule.offsets() {
        let due = start + offset;
        // Until the tick: move bytes, never past the tick by more than the
        // 200 µs nap below.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if !dead {
                dead = pump(
                    &mut stream,
                    &mut outbuf,
                    &mut out_pos,
                    &mut parser,
                    &mut report,
                );
            }
            std::thread::sleep((due - now).min(Duration::from_micros(200)));
        }
        let drift = Instant::now().saturating_duration_since(due);
        report.max_send_drift = report.max_send_drift.max(drift);
        outbuf.extend_from_slice(request);
        report.sent += 1;
        if !dead {
            dead = pump(
                &mut stream,
                &mut outbuf,
                &mut out_pos,
                &mut parser,
                &mut report,
            );
        }
    }

    // Drain window: collect straggler responses, bounded.
    let deadline = Instant::now() + drain;
    while !dead && report.responses < report.sent && Instant::now() < deadline {
        dead = pump(
            &mut stream,
            &mut outbuf,
            &mut out_pos,
            &mut parser,
            &mut report,
        );
        std::thread::sleep(Duration::from_micros(500));
    }

    if dead {
        report.errors += 1;
    }
    report
}

/// Flush what the socket will take, read what it has. Returns `true` when
/// the connection is unusable (reset, closed). Never blocks.
fn pump(
    stream: &mut TcpStream,
    outbuf: &mut Vec<u8>,
    out_pos: &mut usize,
    parser: &mut ResponseParser,
    report: &mut OpenLoopReport,
) -> bool {
    while *out_pos < outbuf.len() {
        match stream.write(&outbuf[*out_pos..]) {
            Ok(0) => return true,
            Ok(n) => *out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if *out_pos > 0 && *out_pos == outbuf.len() {
        outbuf.clear();
        *out_pos = 0;
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return true,
            Ok(n) => {
                parser.feed(&chunk[..n]);
                if count_responses(parser, report).is_err() {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Run one open-loop step: `config.connections` clients share the fixed-TPS
/// schedule round-robin, each on its own thread and connection, and the
/// per-connection reports are merged.
pub fn run_open_loop(addr: SocketAddr, config: &OpenLoopConfig) -> OpenLoopReport {
    let request = format!(
        "{} {} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
        config.method,
        config.path,
        config.body.len(),
        config.body
    )
    .into_bytes();
    let schedules = Schedule::fixed_tps(config.tps, config.duration).split(config.connections);
    let mut merged = OpenLoopReport::default();
    for report in scoped_map(&schedules, |schedule| {
        run_connection(addr, schedule, &request, config.drain)
    }) {
        merged.merge(&report);
    }
    merged
}

/// One ramp step's measurement, as the SLO gate sees it.
#[derive(Debug, Clone, Copy)]
pub struct StepMeasure {
    /// Server-side p99 request latency over this step only, microseconds.
    pub p99_us: u64,
    /// Fraction of this step's requests shed (429), in `[0, 1]`.
    pub shed_rate: f64,
}

/// The SLOs a step must meet to count as sustained.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Highest acceptable p99 request latency, microseconds.
    pub max_p99_us: u64,
    /// Highest acceptable shed rate, `[0, 1]`.
    pub max_shed_rate: f64,
}

/// One row of the ramp's trajectory.
#[derive(Debug, Clone, Copy)]
pub struct RampStep {
    /// Offered load this step.
    pub tps: f64,
    /// What the step measured.
    pub measure: StepMeasure,
    /// Whether the step met both SLOs.
    pub sustained: bool,
}

/// The ramp's outcome: every step walked, and the last sustained TPS (None
/// when even the first step violated an SLO).
#[derive(Debug, Clone)]
pub struct RampReport {
    /// Every step, in ramp order.
    pub steps: Vec<RampStep>,
    /// The highest TPS that met both SLOs.
    pub max_sustainable_tps: Option<f64>,
}

/// Raise offered load from `start_tps` by `factor` per step (at most
/// `max_steps`), measuring each step with `measure`, until a step violates
/// an SLO — then stop. The caller's closure runs the actual traffic and
/// reads whatever latency source it trusts (the `serve_load` bench uses the
/// server's own histograms).
pub fn ramp_until_slo(
    start_tps: f64,
    factor: f64,
    max_steps: usize,
    slo: SloConfig,
    mut measure: impl FnMut(f64) -> StepMeasure,
) -> RampReport {
    assert!(start_tps > 0.0 && factor > 1.0);
    let mut steps = Vec::new();
    let mut max_sustainable_tps = None;
    let mut tps = start_tps;
    for _ in 0..max_steps {
        let m = measure(tps);
        let sustained = m.p99_us <= slo.max_p99_us && m.shed_rate <= slo.max_shed_rate;
        steps.push(RampStep {
            tps,
            measure: m,
            sustained,
        });
        if !sustained {
            break;
        }
        max_sustainable_tps = Some(tps);
        tps *= factor;
    }
    RampReport {
        steps,
        max_sustainable_tps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn fixed_tps_schedule_is_evenly_spaced() {
        let schedule = Schedule::fixed_tps(100.0, Duration::from_secs(1));
        assert_eq!(schedule.len(), 100);
        assert_eq!(schedule.offsets()[0], Duration::ZERO);
        for pair in schedule.offsets().windows(2) {
            let gap = pair[1] - pair[0];
            assert!(
                (gap.as_secs_f64() - 0.01).abs() < 1e-9,
                "uneven gap {gap:?}"
            );
        }
        // The round-robin split preserves the aggregate count.
        let parts = schedule.split(3);
        assert_eq!(parts.iter().map(Schedule::len).sum::<usize>(), 100);
    }

    #[test]
    fn scanner_counts_responses_across_arbitrary_fragments() {
        let stream = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello\
                       HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nContent-Length: 2\r\n\r\nno\
                       HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n";
        let count = |chunks: &[&[u8]]| {
            let mut parser = ResponseParser::new();
            let mut report = OpenLoopReport::default();
            for chunk in chunks {
                parser.feed(chunk);
                count_responses(&mut parser, &mut report).unwrap();
            }
            let counts = (
                report.responses,
                report.ok,
                report.shed,
                report.shed_with_retry_after,
                report.errors,
            );
            assert_eq!(counts, (3, 1, 1, 1, 1), "chunks {chunks:?}");
        };
        // All three pipelined responses in one feed.
        count(&[stream]);
        // Every chunk size from byte-at-a-time up, and a split at every
        // byte; counts must not depend on fragmentation.
        for chunk_size in 1..=stream.len() {
            count(&stream.chunks(chunk_size).collect::<Vec<_>>());
        }
        for split in 0..=stream.len() {
            let (a, b) = stream.split_at(split);
            count(&[a, b]);
        }
    }

    /// The open-loop bar (and the difference from every closed-loop client
    /// in this repo): a server that never reads cannot slow the send
    /// schedule. The listener here accepts nothing — the client's connect
    /// lands in the kernel backlog and its requests pile up client-side —
    /// yet every send happens at its scheduled tick within a drift bound,
    /// and zero responses arrive.
    #[test]
    fn open_loop_schedule_holds_against_a_stalled_server() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        // Never accept; just keep the listener alive so the backlog holds.
        let config = OpenLoopConfig {
            tps: 200.0,
            duration: Duration::from_millis(500),
            connections: 1,
            method: "POST".into(),
            path: "/predict".into(),
            body: r#"{"text":"stalled"}"#.into(),
            drain: Duration::from_millis(50),
        };
        let report = run_open_loop(addr, &config);
        assert_eq!(report.scheduled, 100);
        assert_eq!(
            report.sent, report.scheduled,
            "a stalled server suppressed sends — the loop is not open"
        );
        assert_eq!(report.responses, 0);
        assert_eq!(report.ok, 0);
        // Generous CI bound: sends are buffer appends plus a sub-millisecond
        // nap, so even a loaded machine stays far under this.
        assert!(
            report.max_send_drift < Duration::from_millis(250),
            "send drift {:?} — the schedule slipped",
            report.max_send_drift
        );
        drop(listener);
    }

    #[test]
    fn ramp_stops_at_the_first_slo_violation() {
        let slo = SloConfig {
            max_p99_us: 1_000,
            max_shed_rate: 0.05,
        };
        // Latency scales with TPS; the third step (400 TPS → 1600 µs)
        // crosses the SLO.
        let report = ramp_until_slo(100.0, 2.0, 10, slo, |tps| StepMeasure {
            p99_us: (tps * 4.0) as u64,
            shed_rate: 0.0,
        });
        assert_eq!(report.steps.len(), 3);
        assert!(report.steps[0].sustained && report.steps[1].sustained);
        assert!(!report.steps[2].sustained);
        assert_eq!(report.max_sustainable_tps, Some(200.0));

        // An immediately violated SLO yields no sustainable TPS.
        let report = ramp_until_slo(100.0, 2.0, 10, slo, |_| StepMeasure {
            p99_us: 0,
            shed_rate: 1.0,
        });
        assert_eq!(report.max_sustainable_tps, None);
        assert_eq!(report.steps.len(), 1);
    }
}
