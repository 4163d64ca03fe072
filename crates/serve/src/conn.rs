//! Per-connection state machines for the nonblocking multiplexer, plus the
//! idle-timeout wheel.
//!
//! A [`Connection`] owns one nonblocking socket and everything needed to
//! resume it from any interruption: the incremental
//! [`RequestParser`](crate::http::RequestParser) (request framing picks up
//! wherever the last read fragment stopped), an output buffer with
//! partial-write resumption (a response interrupted by a full socket buffer
//! continues from the exact byte on the next writable event), keep-alive
//! accounting (request cap, reuse metrics), and the pipelining ledger.
//!
//! ## Pipelining
//!
//! Requests are assigned monotonically increasing sequence numbers as they
//! parse; up to [`MAX_PIPELINED`] may be in flight at once, so request `N+1`
//! parses (and is routed) while `N`'s batch is still being scored. Responses
//! complete in *any* order — the poller answers a `/healthz` at once, a batch
//! queue a `/predict` when its batch is scored — but serialize strictly in
//! sequence order through the [`pending`](Connection) reorder map, so the
//! client always sees answers in the order it asked. At the cap the
//! connection simply stops reading (POLLIN interest is withdrawn), pushing
//! backpressure into the kernel's receive buffer instead of server memory.
//!
//! ## Idle timeout
//!
//! [`TimerWheel`] is a hashed wheel with **lazy revalidation**: connections
//! are scheduled once at accept and the wheel is never touched on activity
//! (no per-request reschedule cost). When an entry fires, the poller
//! re-checks the connection's `last_activity` — a busy connection is simply
//! rescheduled for its remaining lifetime, and only a genuinely idle one is
//! evicted. Stale entries (the slot was reused by a newer connection) are
//! filtered by generation number.
//!
//! lint: no_panic — connection state machines run on poller threads: a panic
//! here kills the thread and orphans its whole connection set, so panicking
//! constructs are forbidden (enforced by holistix-lint).

use crate::admission::{Admission, TokenBucket};
use crate::http::{write_response, Request, RequestParser, Response};
use crate::metrics::{Endpoint, ServeMetrics, ShedReason};
use crate::obs::{RequestTrace, TraceStamp};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Most requests one connection may have in flight (parsed, response not
/// yet serialized). Bounds per-connection server memory under a
/// client that streams requests faster than batches score.
pub(crate) const MAX_PIPELINED: usize = 32;

/// Read chunk size per `read` call on a readable socket.
const READ_CHUNK: usize = 16 << 10;

/// One keep-alive connection owned by a poller thread. See the module docs.
pub(crate) struct Connection {
    stream: TcpStream,
    /// Reused slots get a fresh generation, so completions and timer entries
    /// addressed to a dead connection are recognisably stale.
    pub(crate) generation: u64,
    parser: RequestParser,
    /// Serialized-but-unsent response bytes; `out_pos` is the partial-write
    /// resume point.
    out: Vec<u8>,
    out_pos: usize,
    /// Completed responses (with their traces) waiting for their turn in
    /// sequence order.
    pending: BTreeMap<u64, (Response, RequestTrace)>,
    /// Cumulative bytes this connection has written to the socket.
    written_total: u64,
    /// Serialized responses not yet fully on the wire: `(due, trace)` where
    /// `due` is the cumulative write offset of the response's last byte. When
    /// `written_total` reaches `due`, the response's final byte has hit the
    /// socket and its trace finalizes (the `write` stage ends there, so a
    /// slow-draining client shows up in the tail). Front-to-back in sequence
    /// order because serialization is.
    inflight_writes: VecDeque<(u64, RequestTrace)>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to serialize (all below it are on the wire or in
    /// `out`).
    next_write_seq: u64,
    /// The final sequence: its response announces `Connection: close` and the
    /// connection closes once it is flushed. Set by `Connection: close`, the
    /// request cap, or a parse error.
    last_seq: Option<u64>,
    /// Peer sent EOF: no more requests will arrive.
    read_closed: bool,
    /// A close-announcing response has been serialized: flush `out`, then
    /// close. No further parsing or dispatch.
    closing: bool,
    /// This client's token bucket — admission keyed on connection identity:
    /// minted at accept, dies with the connection. `None` when per-client
    /// rate limiting is off.
    bucket: Option<TokenBucket>,
    /// Last moment bytes moved on this socket in either direction.
    pub(crate) last_activity: Instant,
}

impl Connection {
    /// Adopt an accepted stream: switch it nonblocking, disable Nagle's
    /// algorithm so a response flushed while an earlier one is still unACKed
    /// is not held for the client's delayed ACK, and start the session.
    pub(crate) fn new(
        stream: TcpStream,
        generation: u64,
        now: Instant,
        bucket: Option<TokenBucket>,
    ) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            generation,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: BTreeMap::new(),
            written_total: 0,
            inflight_writes: VecDeque::new(),
            next_seq: 0,
            next_write_seq: 0,
            last_seq: None,
            read_closed: false,
            closing: false,
            bucket,
            last_activity: now,
        })
    }

    /// The raw fd for the poll set.
    pub(crate) fn fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// Requests dispatched whose responses have not yet been serialized.
    fn outstanding(&self) -> usize {
        (self.next_seq - self.next_write_seq) as usize
    }

    /// Whether the poll set should watch this socket for readability.
    pub(crate) fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.closing
            && self.last_seq.is_none()
            && self.outstanding() < MAX_PIPELINED
    }

    /// Whether unsent response bytes are waiting on socket writability.
    pub(crate) fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// No request in progress in either direction: a timeout or EOF here is
    /// the clean end of a keep-alive session.
    pub(crate) fn is_idle(&self) -> bool {
        self.parser.is_idle() && self.outstanding() == 0 && !self.wants_write()
    }

    /// The session is over and fully flushed: the poller should drop the
    /// connection.
    pub(crate) fn should_close(&self) -> bool {
        if self.wants_write() {
            return false;
        }
        self.closing || (self.read_closed && self.outstanding() == 0)
    }

    /// Drain the readable socket into the parser. Returns `Err` only on a
    /// broken socket (the poller drops the connection); EOF is recorded, not
    /// an error.
    pub(crate) fn on_readable(&mut self, now: Instant) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.last_activity = now;
                    self.parser.feed(&chunk[..n]);
                    // Don't read unboundedly from one firehose connection;
                    // fairness over the poller's other connections matters
                    // more than squeezing this socket dry. A short read means
                    // the buffer is drained anyway.
                    if n < READ_CHUNK {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Assign the next sequence number, recording keep-alive reuse for every
    /// request after a connection's first.
    fn assign_seq(&mut self, metrics: &ServeMetrics) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq > 0 {
            metrics.record_keepalive_reuse();
        }
        seq
    }

    /// Pull every parseable request out of the buffer, up to the pipelining
    /// cap, assigning sequence numbers and applying keep-alive policy. Each
    /// parsed request is routed, counted, and born with a [`RequestTrace`] —
    /// the trace id is minted here, at parse completion, and every later
    /// stage stamps the same record. Returns the requests for the poller to
    /// answer or hand on; a malformed request is answered here (400, close)
    /// and ends parsing — framing is lost.
    ///
    /// A request that finds this client's token bucket empty is also answered
    /// here — `429` + `Retry-After` — but the connection stays open: framing
    /// is intact, and the whole point of `Retry-After` is that the same
    /// client retries on the same connection once its bucket refills.
    pub(crate) fn take_requests(
        &mut self,
        now: Instant,
        max_requests: usize,
        metrics: &ServeMetrics,
        admission: &Admission,
    ) -> Vec<(u64, Request, RequestTrace)> {
        let mut dispatches = Vec::new();
        while !self.closing && self.last_seq.is_none() && self.outstanding() < MAX_PIPELINED {
            let Some(parsed) = self.parser.poll_request().transpose() else {
                break;
            };
            let seq = self.assign_seq(metrics);
            let endpoint = parsed
                .as_ref()
                .map_or(Endpoint::Other, |r| Endpoint::resolve(&r.method, &r.path));
            metrics.record_request(endpoint);
            // Born at parse completion itself, not at the poll round's `now`:
            // bytes read late in a round may have been sent after `now`.
            let mut trace = metrics.obs().begin_trace(Instant::now());
            trace.endpoint = endpoint;
            let request = match parsed {
                Ok(request) => request,
                Err(e) => {
                    // A malformed request desynchronises the framing; answer
                    // 400 and close rather than guess where the next request
                    // starts.
                    self.last_seq = Some(seq);
                    let response = Response::error(400, &format!("malformed request: {e}"));
                    self.answer(seq, response, trace, metrics);
                    break;
                }
            };
            if request.close || seq + 1 >= max_requests.max(1) as u64 {
                self.last_seq = Some(seq);
            }
            if let Some(bucket) = self.bucket.as_mut() {
                if !bucket.try_take(now) {
                    metrics.record_shed(endpoint, ShedReason::RateLimited);
                    let retry_after = admission.retry_after_secs();
                    let response = Response::too_many("client rate limit exceeded", retry_after);
                    self.answer(seq, response, trace, metrics);
                    continue;
                }
            }
            if seq != self.next_write_seq {
                // An earlier request is still in flight: this one is being
                // parsed ahead of its turn.
                metrics.connections().record_pipelined();
            }
            dispatches.push((seq, request, trace));
        }
        dispatches
    }

    /// Hand the response to request `seq` to the reorder buffer, whether the
    /// poller answered it or another thread did: count an error response and
    /// stamp the response queued (a no-op if it was stamped where it was
    /// built). Responses arrive in any order; they serialize in sequence
    /// order via [`serialize_ready`](Self::serialize_ready).
    pub(crate) fn answer(
        &mut self,
        seq: u64,
        response: Response,
        mut trace: RequestTrace,
        metrics: &ServeMetrics,
    ) {
        if response.status >= 400 {
            metrics.record_error();
        }
        trace.stamp(TraceStamp::ResponseQueued);
        if self.closing || seq < self.next_write_seq {
            return; // response for a sequence this connection already gave up on
        }
        self.pending.insert(seq, (response, trace));
    }

    /// Move every response whose turn has come from the reorder map into the
    /// output buffer, in sequence order, stamping the response's trace id
    /// into an `X-Trace-Id` header. When the final (close-announcing)
    /// response serializes, the connection stops accepting further work.
    pub(crate) fn serialize_ready(&mut self, running: bool) {
        while let Some((response, trace)) = self.pending.remove(&self.next_write_seq) {
            let seq = self.next_write_seq;
            let keep = running && self.last_seq != Some(seq);
            // Writing into the Vec cannot fail.
            let _ = write_response(&mut self.out, &response, keep, Some(&trace.id_hex()));
            // The response's last byte will be the connection's
            // `due`-th cumulative byte; its trace finalizes when
            // `written_total` gets there.
            let due = self.written_total + (self.out.len() - self.out_pos) as u64;
            self.inflight_writes.push_back((due, trace));
            self.next_write_seq = seq + 1;
            if !keep {
                self.closing = true;
                // Abandoned pipelined responses never reach the wire; their
                // traces drop unfinalized.
                self.pending.clear();
                break;
            }
        }
    }

    /// Finalize every trace whose response is now fully on the wire: stamp
    /// the last-byte-written boundary and fold the trace into the latency
    /// and stage histograms.
    fn finalize_written(&mut self, now: Instant, metrics: &ServeMetrics) {
        while self
            .inflight_writes
            .front()
            .is_some_and(|(due, _)| *due <= self.written_total)
        {
            let Some((_, mut trace)) = self.inflight_writes.pop_front() else {
                break;
            };
            trace.stamp_at(TraceStamp::WriteDone, now);
            metrics.finalize_trace(&trace);
        }
    }

    /// Write buffered response bytes until the socket would block or the
    /// buffer drains, resuming mid-response across calls, finalizing the
    /// trace of every response whose last byte reaches the socket. Returns
    /// `Err` on a broken socket.
    pub(crate) fn on_writable(&mut self, now: Instant, metrics: &ServeMetrics) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.written_total += n as u64;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.finalize_written(now, metrics);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        self.finalize_written(now, metrics);
        Ok(())
    }
}

/// A hashed timer wheel over connection slots, with lazy revalidation (see
/// the module docs). Entries are `(slot, generation)` pairs; the wheel never
/// cancels — stale pairs fall out when they fire and fail validation.
pub(crate) struct TimerWheel {
    granularity: Duration,
    buckets: Vec<Vec<(usize, u64)>>,
    /// Bucket whose entries are due at `base`.
    hand: usize,
    /// Due time of the `hand` bucket.
    base: Instant,
    len: usize,
}

impl TimerWheel {
    pub(crate) fn new(granularity: Duration, n_buckets: usize, now: Instant) -> Self {
        Self {
            granularity: granularity.max(Duration::from_millis(1)),
            buckets: vec![Vec::new(); n_buckets.max(2)],
            hand: 0,
            base: now + granularity,
            len: 0,
        }
    }

    /// Schedule `(slot, generation)` to fire at or shortly after `deadline`.
    /// Deadlines beyond the wheel horizon land in the farthest bucket and are
    /// rescheduled on fire (lazy revalidation re-checks real deadlines
    /// anyway, so clamping only costs an extra wakeup).
    pub(crate) fn schedule(&mut self, deadline: Instant, slot: usize, generation: u64) {
        let offset = deadline.saturating_duration_since(self.base);
        let ticks = (offset.as_nanos() / self.granularity.as_nanos().max(1)) as usize;
        let index = (self.hand + ticks.min(self.buckets.len() - 1)) % self.buckets.len();
        self.buckets[index].push((slot, generation));
        self.len += 1;
    }

    /// Advance the wheel to `now`, returning every entry that has come due.
    pub(crate) fn expire(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let mut due = Vec::new();
        let mut rounds = 0;
        while now >= self.base && rounds < self.buckets.len() {
            due.append(&mut self.buckets[self.hand]);
            self.hand = (self.hand + 1) % self.buckets.len();
            self.base += self.granularity;
            rounds += 1;
        }
        if now >= self.base {
            // Slept past a full rotation: every bucket was drained above;
            // jump the wheel forward instead of ticking through dead time.
            let behind = now.duration_since(self.base).as_nanos();
            let ticks = (behind / self.granularity.as_nanos().max(1)) as u32 + 1;
            self.base += self.granularity * ticks;
        }
        self.len -= due.len();
        due
    }

    /// How long a poller may sleep before the next bucket comes due, or
    /// `None` when nothing is scheduled.
    pub(crate) fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        Some(self.base.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_after_the_deadline_not_before() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, start);
        wheel.schedule(start + Duration::from_millis(35), 3, 7);
        assert!(wheel.expire(start).is_empty());
        assert!(wheel.expire(start + Duration::from_millis(20)).is_empty());
        let due = wheel.expire(start + Duration::from_millis(60));
        assert_eq!(due, vec![(3, 7)]);
        assert_eq!(wheel.next_timeout(start), None);
    }

    #[test]
    fn timer_wheel_clamps_beyond_horizon_deadlines() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 4, start);
        // Horizon is 40ms; a 10-minute deadline lands in the farthest bucket
        // and fires early — the poller revalidates and reschedules.
        wheel.schedule(start + Duration::from_secs(600), 1, 1);
        let due = wheel.expire(start + Duration::from_millis(100));
        assert_eq!(due, vec![(1, 1)]);
    }

    #[test]
    fn timer_wheel_survives_long_sleeps() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 4, start);
        wheel.schedule(start + Duration::from_millis(15), 2, 2);
        // The poller slept way past several full rotations.
        let due = wheel.expire(start + Duration::from_secs(30));
        assert_eq!(due, vec![(2, 2)]);
        // The wheel recovered: a fresh schedule still fires.
        let late = start + Duration::from_secs(30);
        wheel.schedule(late + Duration::from_millis(15), 4, 4);
        assert!(wheel.expire(late + Duration::from_millis(5)).is_empty());
        assert_eq!(wheel.expire(late + Duration::from_secs(1)), vec![(4, 4)]);
    }
}
