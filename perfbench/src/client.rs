//! The benchmark's own open-loop HTTP/1.1 client.
//!
//! One generator thread drives a handful of nonblocking keep-alive
//! connections (never more than the machine has cores). Requests follow a
//! schedule fixed before the phase starts: each one is appended to its
//! connection's outbound buffer the moment it is due, whether or not earlier
//! requests have been answered, and goes out in a single `write` on a
//! `TCP_NODELAY` socket. Latency is timed from the request's due instant to
//! the read that completed its response, so a stall also charges the
//! requests queued behind it. How late the generator itself ran is recorded
//! per request.
//!
//! The wait between events is `ppoll(2)` with a nanosecond timeout, so the
//! generator neither spins on a core the server needs nor rounds its
//! schedule to milliseconds.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    /// `ppoll(2)` from libc, which `std` links on Linux.
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Wait until one of `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` structs
    // laid out as `struct pollfd`, valid for `fds.len()` entries; `ts` lives
    // across the call; a null sigmask means "leave the mask alone". The kernel
    // writes only the `revents` fields.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub trace_id: Option<String>,
    pub close: bool,
}

/// Incremental response framing: bytes go in as they arrive, in fragments of
/// any size, and complete responses come out in order (pipelined responses
/// included). `Content-Length` framing only, which is all the server speaks.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` if more bytes are needed.
    pub fn next_reply(&mut self) -> Result<Option<Reply>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        let mut trace_id = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header line {line:?}"));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(value.parse::<usize>().map_err(|e| e.to_string())?)
                }
                "x-trace-id" => trace_id = Some(value.to_string()),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body =
            String::from_utf8(self.buf[head_end + 4..total].to_vec()).map_err(|e| e.to_string())?;
        self.buf.drain(..total);
        Ok(Some(Reply {
            status,
            body,
            trace_id,
            close,
        }))
    }
}

/// A request of the schedule: when it is due (from the phase start), on
/// which connection, and which prepared payload it sends.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due: Duration,
    pub conn: usize,
    pub payload: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub payload: usize,
    /// How long after its due instant the generator handed it to its
    /// connection.
    pub late: Duration,
    /// Due instant to last response byte read; `None` if it never completed.
    pub latency: Option<Duration>,
    pub reply: Option<Reply>,
}

/// A phase's outcomes plus the backlog (due minus answered) sampled at the
/// middle and at the end of the schedule. `parts` counts the outcomes of
/// each consecutive part when a phase is run in several.
#[derive(Debug)]
pub struct PhaseRun {
    pub outcomes: Vec<Outcome>,
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub parts: Vec<usize>,
}

struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inflight: VecDeque<usize>,
    parser: ResponseParser,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            addr,
            stream,
            out: Vec::new(),
            written: 0,
            inflight: VecDeque::new(),
            parser: ResponseParser::default(),
        })
    }

    /// Drop everything in flight (it counts as failed) and reconnect.
    fn reset(&mut self) {
        self.out.clear();
        self.written = 0;
        self.inflight.clear();
        self.parser = ResponseParser::default();
        if let Ok(fresh) = Conn::open(self.addr) {
            *self = fresh;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    /// Read whatever is available; `Ok(false)` when the peer closed.
    fn fill(&mut self, scratch: &mut [u8]) -> io::Result<bool> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => self.parser.feed(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Keep-alive connections to one server, reused across phases.
pub struct Client {
    conns: Vec<Conn>,
}

impl Client {
    pub fn connect(addr: SocketAddr, n_conns: usize) -> io::Result<Self> {
        let conns = (0..n_conns.max(1))
            .map(|_| Conn::open(addr))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self { conns })
    }

    /// Close every connection and open fresh ones.
    pub fn reconnect(&mut self) {
        for conn in &mut self.conns {
            conn.reset();
        }
    }

    pub fn n_conns(&self) -> usize {
        self.conns.len()
    }

    /// Send one request on connection `conn` and wait for its reply (used
    /// between phases, e.g. for `/metrics` scrapes).
    pub fn call(&mut self, conn: usize, payload: &[u8], timeout: Duration) -> Option<Reply> {
        let plan = [Planned {
            due: Duration::ZERO,
            conn,
            payload: 0,
        }];
        let mut run = self.run(&plan, &[payload.to_vec()], timeout);
        run.outcomes.pop().and_then(|o| o.reply)
    }

    /// Drive `schedule` (sorted by `due`) open-loop, then wait up to `drain`
    /// past the last due instant for stragglers. Requests still unanswered
    /// after that count as failed, and their connections are reset so the
    /// next phase starts clean.
    pub fn run(&mut self, schedule: &[Planned], payloads: &[Vec<u8>], drain: Duration) -> PhaseRun {
        let mut outcomes: Vec<Outcome> = schedule
            .iter()
            .map(|p| Outcome {
                payload: p.payload,
                late: Duration::ZERO,
                latency: None,
                reply: None,
            })
            .collect();
        let last_due = schedule.last().map(|p| p.due).unwrap_or_default();
        let mid_due = last_due / 2;
        let start = Instant::now();
        let deadline = start + last_due + drain;
        let mut next = 0;
        let mut answered = 0usize;
        let mut backlog_mid = None;
        let mut backlog_end = None;
        let mut scratch = vec![0u8; 64 * 1024];
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len());
        loop {
            let now = Instant::now();
            let elapsed = now - start;
            if backlog_mid.is_none() && elapsed >= mid_due {
                backlog_mid = Some(next - answered);
            }
            while next < schedule.len() && schedule[next].due <= elapsed {
                let plan = schedule[next];
                outcomes[next].late = elapsed - plan.due;
                let conn = &mut self.conns[plan.conn];
                conn.out.extend_from_slice(&payloads[plan.payload]);
                conn.inflight.push_back(next);
                next += 1;
            }
            if backlog_end.is_none() && next == schedule.len() {
                backlog_end = Some(next - answered);
            }
            for conn in &mut self.conns {
                let alive = conn.flush().is_ok() && conn.fill(&mut scratch).unwrap_or(false);
                let read_at = Instant::now() - start;
                let mut broken = !alive;
                loop {
                    match conn.parser.next_reply() {
                        Ok(Some(reply)) => {
                            let Some(index) = conn.inflight.pop_front() else {
                                broken = true;
                                break;
                            };
                            let outcome = &mut outcomes[index];
                            outcome.latency = Some(read_at.saturating_sub(schedule[index].due));
                            broken |= reply.close;
                            outcome.reply = Some(reply);
                            answered += 1;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
                if broken {
                    // Whatever was still in flight on this connection is lost.
                    answered += conn.inflight.len();
                    conn.reset();
                }
            }
            let now = Instant::now();
            let idle = next == schedule.len() && self.conns.iter().all(|c| c.inflight.is_empty());
            if idle || now >= deadline {
                break;
            }
            let wake = if next < schedule.len() {
                (start + schedule[next].due).min(deadline)
            } else {
                deadline
            };
            fds.clear();
            for conn in &self.conns {
                let mut events = POLLIN;
                if conn.written < conn.out.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
            wait(&mut fds, wake.saturating_duration_since(now));
        }
        for conn in &mut self.conns {
            if !conn.inflight.is_empty() || !conn.out.is_empty() {
                conn.reset();
            }
        }
        PhaseRun {
            parts: vec![outcomes.len()],
            outcomes,
            backlog_mid: backlog_mid.unwrap_or(0),
            backlog_end: backlog_end.unwrap_or(0),
        }
    }
}

/// An HTTP/1.1 request as one contiguous buffer, so it leaves in one write.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn response(status: u16, body: &str, trace: &str) -> String {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\nX-Trace-Id: {trace}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn responses_parse_across_any_fragmentation() {
        let stream: String = (0..5)
            .map(|i| response(200 + i, &"é{}".repeat(i as usize * 7), &format!("{i:016x}")))
            .collect();
        let bytes = stream.as_bytes();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..200 {
            let mut parser = ResponseParser::default();
            let mut replies = Vec::new();
            let mut at = 0;
            while at < bytes.len() {
                state = crate::stats::splitmix64(state);
                let max = if round % 3 == 0 { 1 } else { 1 + (round % 40) };
                let take = 1 + (state as usize % max);
                let end = (at + take).min(bytes.len());
                parser.feed(&bytes[at..end]);
                at = end;
                while let Some(reply) = parser.next_reply().unwrap() {
                    replies.push(reply);
                }
            }
            assert_eq!(replies.len(), 5, "round {round}");
            for (i, reply) in replies.iter().enumerate() {
                assert_eq!(reply.status, 200 + i as u16);
                assert_eq!(reply.body, "é{}".repeat(i * 7));
                assert_eq!(
                    reply.trace_id.as_deref(),
                    Some(format!("{i:016x}").as_str())
                );
            }
        }
    }

    #[test]
    fn pipelined_responses_in_one_buffer_come_out_in_order() {
        let mut parser = ResponseParser::default();
        parser.feed((response(200, "a", "1") + &response(429, "bb", "2")).as_bytes());
        assert_eq!(parser.next_reply().unwrap().unwrap().body, "a");
        let second = parser.next_reply().unwrap().unwrap();
        assert_eq!((second.status, second.body.as_str()), (429, "bb"));
        assert_eq!(parser.next_reply().unwrap(), None);
    }

    #[test]
    fn lateness_stays_bounded_against_a_stalled_server() {
        // A server that accepts and never reads: every write eventually hits
        // a full socket buffer, and nothing is ever answered.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(1500));
            drop(stream);
        });
        let mut client = Client::connect(addr, 1).unwrap();
        let payloads = vec![request_bytes("POST", "/predict", &"x".repeat(16 * 1024))];
        let schedule: Vec<Planned> = (0..2000)
            .map(|i| Planned {
                due: Duration::from_micros(i * 500),
                conn: 0,
                payload: 0,
            })
            .collect();
        let run = client.run(&schedule, &payloads, Duration::from_millis(100));
        holder.join().unwrap();
        let worst = run.outcomes.iter().map(|o| o.late).max().unwrap();
        assert!(
            worst < Duration::from_millis(50),
            "generator ran {worst:?} late"
        );
        assert!(run.outcomes.iter().all(|o| o.reply.is_none()));
        assert!(run.backlog_end > run.backlog_mid);
    }
}
