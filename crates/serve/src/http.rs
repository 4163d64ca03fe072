//! Minimal HTTP/1.1, hand-rolled over `std::io`, with persistent connections.
//!
//! The build is offline (no tokio/hyper), and the serving layer needs only the
//! subset of HTTP/1.1 that JSON APIs use: a request line, `Content-Length`
//! framed bodies, and connection reuse. Responses always carry a
//! `Content-Length`, which is what makes keep-alive sound: the peer knows
//! exactly where one message ends and the next begins, no chunked encoding
//! needed. A connection stays open until the client sends
//! `Connection: close`, the server's per-connection request cap or idle
//! timeout fires, or either side hangs up — HTTP/1.1 semantics, where
//! persistence is the default.
//!
//! Both parsers are incremental: [`RequestParser`] (server side) and
//! [`ResponseParser`] (client side) accumulate whatever fragments the socket
//! delivers and yield complete messages, so the nonblocking pollers and the
//! open-loop load generator use them as-is, and the unit tests feed them
//! in-memory streams split at every point. [`write_response`] is generic over
//! `Write`. Two clients match the server: [`HttpClient`], a blocking
//! keep-alive client that runs any number of request/response round-trips
//! over one TCP connection (what the `serve_throughput` bench and the CI smoke
//! drive), and [`http_request`], a one-shot `Connection: close` wrapper over
//! it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Reject request bodies larger than this (1 MiB): the API carries forum-post
/// sized texts, so anything bigger is a client error, not a workload.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Reject request lines + headers larger than this (16 KiB) in total, so a
/// client streaming an endless header cannot grow server memory unboundedly.
pub const MAX_HEAD_BYTES: u64 = 16 << 10;

/// A parsed HTTP request: the line, the body, and the connection directive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), upper-case as received.
    pub method: String,
    /// Request path without the query string, e.g. `/predict`.
    pub path: String,
    /// The raw query string after `?` (empty when none), e.g. `trace=1`.
    pub query: String,
    /// The `Accept` header value as received (empty when absent) — `/metrics`
    /// content negotiation reads this.
    pub accept: String,
    /// Decoded UTF-8 body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client asked to close the connection after this response
    /// (`Connection: close`). HTTP/1.1 default is to keep it open.
    pub close: bool,
}

impl Request {
    /// Look up a query parameter by name: `/metrics?format=prometheus` →
    /// `query_param("format") == Some("prometheus")`. A bare key with no `=`
    /// yields `Some("")`. No percent-decoding — the API's parameter values
    /// (`1`, `prometheus`) never need it.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name && !key.is_empty()).then_some(value)
        })
    }
}

/// Split a request target into `(path, query)` at the first `?`.
fn split_target(target: &str) -> (String, String) {
    match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    }
}

/// An HTTP response about to be written; the body is JSON unless built with
/// [`Response::text`] (the Prometheus exposition).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` header value (whole seconds), emitted on shed (`429`)
    /// responses so clients know the suggested back-off.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A response with the given status and JSON body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A plain-text response — the Prometheus exposition content type
    /// (version 0.0.4 of the text format).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
            retry_after: None,
        }
    }

    /// A `200 OK` JSON response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self::json(200, body)
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\":{}}}",
                holistix_corpus::json::json_escape(message)
            ),
        )
    }

    /// A `429 Too Many Requests` load-shed response carrying a `Retry-After`
    /// hint of `retry_after_s` seconds. The admission layer's answer for
    /// "healthy but full" — distinct from `503` (model or server unavailable).
    pub fn too_many(message: &str, retry_after_s: u64) -> Self {
        let mut response = Self::error(429, message);
        response.retry_after = Some(retry_after_s);
        response
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// The framing both parsers share: the bytes the socket delivered so far,
/// split into a head (through its blank line) and a body.
#[derive(Debug, Default)]
struct Framing<H> {
    buffer: Vec<u8>,
    /// Resume point for the head-terminator scan, so feeding a head one byte
    /// at a time stays linear instead of rescanning from zero each poll.
    scanned: usize,
    /// A parsed head waiting for its body: the head, the bytes it occupies in
    /// the buffer, and the body length (`None`: framed by the peer closing).
    pending: Option<(H, usize, Option<usize>)>,
}

impl<H> Framing<H> {
    /// Parse the head with `parse_head` once its terminator (a blank line:
    /// `\r\n\r\n` or bare `\n\n`) is buffered, then return it with its body
    /// once every body byte is buffered. Bytes past the message stay
    /// buffered for the next poll.
    fn poll(
        &mut self,
        parse_head: impl FnOnce(&[u8]) -> io::Result<(H, Option<usize>)>,
    ) -> io::Result<Option<(H, String)>> {
        if self.pending.is_none() {
            let Some(head_len) = self.find_head_end() else {
                return Ok(None);
            };
            let (head, body_len) = parse_head(&self.buffer[..head_len])?;
            self.pending = Some((head, head_len, body_len));
        }
        match self.pending {
            Some((_, head_len, Some(body_len))) if self.buffer.len() >= head_len + body_len => {
                self.take(head_len + body_len).map(Some)
            }
            _ => Ok(None),
        }
    }

    fn find_head_end(&mut self) -> Option<usize> {
        let buffer = &self.buffer;
        for i in self.scanned..buffer.len() {
            if buffer[i] != b'\n' {
                continue;
            }
            match buffer.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buffer.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        // A terminator may straddle the next read; re-examine the tail.
        self.scanned = buffer.len().saturating_sub(2);
        None
    }

    /// Remove the pending head and the first `total` buffered bytes, which
    /// hold it and its body.
    fn take(&mut self, total: usize) -> io::Result<(H, String)> {
        let (head, head_len, _) = self.pending.take().expect("pending head");
        let body = String::from_utf8(self.buffer[head_len..total].to_vec())
            .map_err(|_| invalid("body is not valid UTF-8"))?;
        self.buffer.drain(..total);
        self.scanned = 0;
        Ok((head, body))
    }
}

/// An incremental, resumable request parser, built for the poller's
/// edge-driven reads: bytes arrive in arbitrary fragments via
/// [`feed`](Self::feed), and [`poll_request`](Self::poll_request) yields a
/// [`Request`] exactly when one is complete, `None` when more bytes are
/// needed, or an error on a protocol violation (head over [`MAX_HEAD_BYTES`],
/// bad or oversized `Content-Length`, non-UTF-8 body).
///
/// The parser owns a growable buffer, so a request split across any number of
/// reads — down to one byte at a time — parses identically to a single-shot
/// read, and bytes past a complete request (pipelining) stay buffered for the
/// next poll. After an error the connection is unrecoverable (framing is
/// lost); the caller answers 400 and closes.
#[derive(Debug, Default)]
pub struct RequestParser {
    framing: Framing<Request>,
}

impl RequestParser {
    /// A fresh parser with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.framing.buffer.extend_from_slice(bytes);
    }

    /// True when no partial request is buffered — EOF here is the clean end
    /// of a keep-alive session, while EOF mid-request is a peer abort.
    pub fn is_idle(&self) -> bool {
        self.framing.buffer.is_empty() && self.framing.pending.is_none()
    }

    /// Bytes currently buffered (unparsed input plus any pending head).
    pub fn buffered(&self) -> usize {
        self.framing.buffer.len()
    }

    /// Try to complete one request from the buffered bytes. `Ok(None)` means
    /// the buffer holds only a request prefix — feed more and poll again.
    /// Call in a loop to drain pipelined requests.
    pub fn poll_request(&mut self) -> io::Result<Option<Request>> {
        if let Some((mut request, body)) = self.framing.poll(parse_request_head)? {
            request.body = body;
            return Ok(Some(request));
        }
        // Enforce the head limit even while the terminator is still
        // outstanding, so a client streaming an endless header cannot grow
        // the buffer unboundedly.
        if self.framing.pending.is_none() && self.buffered() as u64 >= MAX_HEAD_BYTES {
            return Err(invalid(format!(
                "request head exceeds the {MAX_HEAD_BYTES} byte limit"
            )));
        }
        Ok(None)
    }
}

/// Parse a request line and headers into a [`Request`] with an empty body,
/// plus the body length.
fn parse_request_head(head: &[u8]) -> io::Result<(Request, Option<usize>)> {
    if head.len() as u64 > MAX_HEAD_BYTES {
        return Err(invalid(format!(
            "request head exceeds the {MAX_HEAD_BYTES} byte limit"
        )));
    }
    let head = std::str::from_utf8(head).map_err(|_| invalid("request head is not valid UTF-8"))?;
    let mut lines = head.split('\n');
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| invalid("empty request line"))?
        .to_string();
    let (path, query) = split_target(
        parts
            .next()
            .ok_or_else(|| invalid("request line missing path"))?,
    );
    let mut content_length = 0usize;
    let mut close = false;
    let mut accept = String::new();
    for line in lines {
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("accept") {
                accept = value.trim().to_string();
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(invalid(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES} byte limit"
        )));
    }
    let request = Request {
        method,
        path,
        query,
        accept,
        body: String::new(),
        close,
    };
    Ok((request, Some(content_length)))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response. `Content-Length` frames the body either way;
/// the `Connection` header tells the client whether the server will keep the
/// connection open for the next request. `trace_id`, when present, is emitted
/// as an `X-Trace-Id` header — the handle that correlates a client-observed
/// response with its server-side trace in `/debug/slow`.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
    trace_id: Option<&str>,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        connection,
    )?;
    if let Some(secs) = response.retry_after {
        write!(writer, "Retry-After: {secs}\r\n")?;
    }
    if let Some(id) = trace_id {
        write!(writer, "X-Trace-Id: {id}\r\n")?;
    }
    write!(writer, "\r\n{}", response.body)?;
    writer.flush()
}

/// A parsed response: `(status, body, headers)`. Header names keep their wire
/// casing; match them case-insensitively.
pub type FullResponse = (u16, String, Vec<(String, String)>);

/// An incremental, resumable response parser, the client-side twin of
/// [`RequestParser`]: bytes arrive in arbitrary fragments via
/// [`feed`](Self::feed), and [`poll_response`](Self::poll_response) yields a
/// [`FullResponse`] exactly when one is complete. Bytes past it (pipelined
/// responses) stay buffered for the next poll. A response without
/// `Content-Length` is framed by the server closing the connection, so only
/// [`finish`](Self::finish), called at EOF, completes it.
/// [`read_from`](Self::read_from) is the blocking loop over a reader.
#[derive(Debug, Default)]
pub struct ResponseParser {
    framing: Framing<FullResponse>,
}

impl ResponseParser {
    /// A fresh parser with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.framing.buffer.extend_from_slice(bytes);
    }

    /// Try to complete one response from the buffered bytes. `Ok(None)` means
    /// more bytes are needed (or, for a body framed by close, EOF). Call in a
    /// loop to drain pipelined responses.
    pub fn poll_response(&mut self) -> io::Result<Option<FullResponse>> {
        let response = self.framing.poll(parse_response_head)?;
        Ok(response.map(|((status, _, headers), body)| (status, body, headers)))
    }

    /// The peer closed the connection: complete a response whose body is
    /// framed by the close. Call in a loop like
    /// [`poll_response`](Self::poll_response); `Ok(None)` once nothing is
    /// buffered. EOF inside a head or a `Content-Length` body is an
    /// `UnexpectedEof` error.
    pub fn finish(&mut self) -> io::Result<Option<FullResponse>> {
        if let Some(response) = self.poll_response()? {
            return Ok(Some(response));
        }
        match self.framing.pending {
            Some((_, _, None)) => {
                let ((status, _, headers), body) = self.framing.take(self.framing.buffer.len())?;
                Ok(Some((status, body, headers)))
            }
            None if self.framing.buffer.is_empty() => Ok(None),
            _ => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a response",
            )),
        }
    }

    /// Block on `reader` until one response is complete.
    pub fn read_from<R: Read>(&mut self, reader: &mut R) -> io::Result<FullResponse> {
        let mut chunk = [0u8; 8 << 10];
        loop {
            if let Some(response) = self.poll_response()? {
                return Ok(response);
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    return self.finish()?.ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed before a response",
                        )
                    })
                }
                Ok(n) => self.feed(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Parse a status line and headers into a [`FullResponse`] with an empty
/// body, plus the body length (`None` without `Content-Length`).
fn parse_response_head(head: &[u8]) -> io::Result<(FullResponse, Option<usize>)> {
    let text =
        std::str::from_utf8(head).map_err(|_| invalid("response head is not valid UTF-8"))?;
    let mut lines = text.split('\n');
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let length = value
                .parse()
                .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
            content_length = Some(length);
        }
        headers.push((name.to_string(), value.to_string()));
    }
    Ok(((status, String::new(), headers), content_length))
}

/// One-shot blocking HTTP client: connect, send one `Connection: close`
/// request, read the full response. Returns `(status, body)`. Used by the
/// integration tests and the `serve_demo` load generator; sessions that issue
/// several requests should hold an [`HttpClient`] instead and reuse the
/// connection.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let (status, body, _) = HttpClient::connect(addr)?.round_trip(method, path, body, &[], true)?;
    Ok((status, body))
}

/// A blocking keep-alive HTTP client: one TCP connection, any number of
/// request/response round-trips. This is what makes connection reuse
/// measurable — the `serve_throughput` bench and the CI smoke issue all their
/// requests through one of these and read the server's
/// `keepalive_reuses_total` counter.
pub struct HttpClient {
    addr: SocketAddr,
    stream: TcpStream,
    responses: ResponseParser,
    closed: bool,
}

impl HttpClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Each request leaves in one write, but one larger than a segment
        // would still hold its tail back for an ACK under Nagle's algorithm.
        stream.set_nodelay(true)?;
        Ok(Self {
            addr,
            stream,
            responses: ResponseParser::new(),
            closed: false,
        })
    }

    /// Send one request over the persistent connection and read its response.
    /// Returns `(status, body)`. Errors once the server has closed the
    /// connection (its request cap, its idle timeout, or a previous
    /// `Connection: close`); reconnect with [`HttpClient::connect`] to go on.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let (status, body, _) = self.request_full(method, path, body, &[])?;
        Ok((status, body))
    }

    /// Like [`request`](Self::request), but with caller-supplied request
    /// headers and the response headers returned as [`FullResponse`]. This is
    /// how the observability tests read `X-Trace-Id` and ask `/metrics` for
    /// Prometheus via `Accept`.
    pub fn request_full(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<FullResponse> {
        self.round_trip(method, path, body, extra_headers, false)
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
        close: bool,
    ) -> io::Result<FullResponse> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "server closed this keep-alive connection",
            ));
        }
        // The client half of [`write_response`], assembled in one buffer so
        // it leaves in one write. `extra_headers` are emitted verbatim as
        // `Name: value` lines (e.g. an `Accept` for `/metrics` content
        // negotiation).
        let body = body.unwrap_or("");
        let connection = if close { "close" } else { "keep-alive" };
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
            self.addr,
            body.len()
        );
        for (name, value) in extra_headers {
            request += &format!("{name}: {value}\r\n");
        }
        request += "\r\n";
        request += body;
        self.stream.write_all(request.as_bytes())?;
        let response = self.responses.read_from(&mut self.stream)?;
        self.closed = server_closes(&response.2);
        Ok(response)
    }
}

/// Whether the server closes the connection after a response with these
/// headers: it announced `Connection: close`, or it sent no `Content-Length`
/// and framed the body by closing.
fn server_closes(headers: &[(String, String)]) -> bool {
    let header = |name: &str| headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name));
    header("content-length").is_none()
        || header("connection").is_some_and(|(_, v)| v.eq_ignore_ascii_case("close"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &str) -> io::Result<Request> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        parser
            .poll_request()
            .map(|r| r.expect("expected a complete request"))
    }

    /// How a byte stream ends after its last complete request.
    #[derive(Debug, PartialEq)]
    enum End {
        /// Nothing left over: EOF here is a clean close.
        Idle,
        /// A request prefix is left over: more bytes are needed.
        Partial,
        /// A protocol error, by message.
        Error(String),
    }

    /// The whole-buffer reference for [`RequestParser`]: given the complete
    /// stream up front, it walks the head line by line, with none of the
    /// incremental parser's buffering or resumable scan.
    fn reference_parse(mut rest: &[u8]) -> (Vec<Request>, End) {
        let mut requests = Vec::new();
        while !rest.is_empty() {
            match reference_one(rest) {
                Ok(Some((request, len))) => {
                    requests.push(request);
                    rest = &rest[len..];
                }
                Ok(None) => return (requests, End::Partial),
                Err(message) => return (requests, End::Error(message)),
            }
        }
        (requests, End::Idle)
    }

    /// The first request of `raw` and its length; `None` when `raw` holds
    /// only a prefix of one.
    fn reference_one(raw: &[u8]) -> Result<Option<(Request, usize)>, String> {
        let limit = format!("request head exceeds the {MAX_HEAD_BYTES} byte limit");
        // The head runs through the first line after the request line that
        // is empty or a bare `\r`.
        let (mut head_len, mut first) = (0, true);
        loop {
            let Some(nl) = raw[head_len..].iter().position(|&b| b == b'\n') else {
                return if raw.len() as u64 >= MAX_HEAD_BYTES {
                    Err(limit)
                } else {
                    Ok(None)
                };
            };
            let line = &raw[head_len..head_len + nl];
            head_len += nl + 1;
            if !first && matches!(line, b"" | b"\r") {
                break;
            }
            first = false;
        }
        if head_len as u64 > MAX_HEAD_BYTES {
            return Err(limit);
        }
        let head = std::str::from_utf8(&raw[..head_len])
            .map_err(|_| "request head is not valid UTF-8".to_string())?;
        let mut lines = head.lines();
        let mut words = lines.next().unwrap_or("").split_whitespace();
        let method = words.next().ok_or("empty request line")?;
        let target = words.next().ok_or("request line missing path")?;
        let (mut content_length, mut close, mut accept) = (0usize, false, "");
        for line in lines.map(str::trim_end).take_while(|l| !l.is_empty()) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?
                }
                "connection" => close = value.trim().eq_ignore_ascii_case("close"),
                "accept" => accept = value.trim(),
                _ => {}
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES} byte limit"
            ));
        }
        let Some(body) = raw.get(head_len..head_len + content_length) else {
            return Ok(None);
        };
        let body = String::from_utf8(body.to_vec()).map_err(|_| "body is not valid UTF-8")?;
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            accept: accept.to_string(),
            body,
            close,
        };
        Ok(Some((request, head_len + content_length)))
    }

    /// Feed `fragments` to one [`RequestParser`], draining after each, up to
    /// the first error.
    fn incremental_parse<'a>(fragments: impl IntoIterator<Item = &'a [u8]>) -> (Vec<Request>, End) {
        let mut parser = RequestParser::new();
        let mut requests = Vec::new();
        for fragment in fragments {
            parser.feed(fragment);
            loop {
                match parser.poll_request() {
                    Ok(Some(request)) => requests.push(request),
                    Ok(None) => break,
                    Err(e) => return (requests, End::Error(e.to_string())),
                }
            }
        }
        let end = if parser.is_idle() {
            End::Idle
        } else {
            End::Partial
        };
        (requests, end)
    }

    /// Every request stream the parser tests use: well-formed, pipelined,
    /// truncated, and each kind of protocol violation.
    fn streams() -> Vec<Vec<u8>> {
        let mut streams: Vec<Vec<u8>> = [
            "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"texts\":[]}",
            "GET /healthz HTTP/1.1\r\n\r\n",
            "GET /metrics HTTP/1.1\r\nConnection: Close\r\n\r\n",
            "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
            "POST /p HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi",
            "",
            "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n",
            "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n",
            "POST /predict HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world",
            "POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            "POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /p HTTP/1.1\r\nContent-Length: 2\r\n",
            "GET /metrics?format=prometheus&trace=1 HTTP/1.1\r\n\r\n",
            "GET /metrics HTTP/1.1\r\nAccept: text/plain\r\n\r\n",
            "WHAT\r\n\r\n",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        let over = MAX_HEAD_BYTES as usize + 1024;
        streams
            .push(format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20).into_bytes());
        streams.push(format!("GET /healthz HTTP/1.1\r\nX-Junk: {}", "A".repeat(over)).into_bytes());
        streams.push("G".repeat(over).into_bytes());
        streams.push(
            format!(
                "GET / HTTP/1.1\r\n{}\r\n",
                "X-H: v\r\n".repeat((MAX_HEAD_BYTES as usize / 8) + 10)
            )
            .into_bytes(),
        );
        streams.push(b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe".to_vec());
        streams
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"texts\":[]}";
        let request = parse_one(raw).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/predict");
        assert_eq!(request.body, "{\"texts\":[]}");
        // HTTP/1.1 default: no Connection header means keep the connection.
        assert!(!request.close);
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        let request = parse_one(raw).unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert!(request.body.is_empty());
    }

    #[test]
    fn connection_close_is_honored_case_insensitively() {
        let raw = "GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n";
        assert!(parse_one(raw).unwrap().close);
        let keep = "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        assert!(!parse_one(keep).unwrap().close);
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let raw = "POST /p HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        assert_eq!(parse_one(raw).unwrap().body, "hi");
    }

    #[test]
    fn eof_before_request_line_is_a_clean_close() {
        let mut parser = RequestParser::new();
        assert!(parser.poll_request().unwrap().is_none());
        assert!(parser.is_idle());
    }

    #[test]
    fn two_requests_parse_back_to_back_from_one_stream() {
        // Keep-alive framing: Content-Length delimits the first body exactly,
        // so the second request parses from the same buffer.
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        let first = parser.poll_request().unwrap().unwrap();
        assert_eq!(first.body, "hi");
        let second = parser.poll_request().unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(parser.poll_request().unwrap().is_none());
        assert!(parser.is_idle());
    }

    #[test]
    fn rejects_oversized_and_truncated_bodies() {
        let huge = format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20);
        assert!(parse_one(&huge).is_err());
        let bad_length = "POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(parse_one(bad_length).is_err());
        // A short body or EOF mid-headers leaves a partial request: EOF there
        // is a peer abort, unlike EOF on an idle parser.
        for truncated in [
            "POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            "POST /p HTTP/1.1\r\nContent-Length: 2\r\n",
        ] {
            let mut parser = RequestParser::new();
            parser.feed(truncated.as_bytes());
            assert!(parser.poll_request().unwrap().is_none(), "{truncated:?}");
            assert!(!parser.is_idle(), "{truncated:?}");
        }
    }

    #[test]
    fn rejects_unbounded_request_heads() {
        // A header stream that never ends (no newline) must error once the
        // head budget is spent, not grow a buffer until OOM.
        let endless = format!("GET /healthz HTTP/1.1\r\nX-Junk: {}", "A".repeat(64 << 10));
        let err = parse_one(&endless).unwrap_err();
        assert!(err.to_string().contains("byte limit"), "{err}");
        // Same budget applied to an endless request line.
        let endless_line = "G".repeat(64 << 10);
        assert!(parse_one(&endless_line).is_err());
        // Many small headers also spend the budget.
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat((MAX_HEAD_BYTES as usize / 8) + 10)
        );
        assert!(parse_one(&many).is_err());
    }

    /// Drain every complete request currently parseable.
    fn drain(parser: &mut RequestParser) -> Vec<Request> {
        let mut out = Vec::new();
        while let Some(request) = parser.poll_request().unwrap() {
            out.push(request);
        }
        out
    }

    /// `RequestParser` against the whole-buffer reference (which took over
    /// from the blocking parser this test is named for) on every stream,
    /// whole, split in two at every point, and in seeded random fragments.
    #[test]
    fn incremental_parser_matches_blocking_parser() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64: a fixed sequence, so every run checks the same splits.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for raw in streams() {
            let want = reference_parse(&raw);
            let shown = String::from_utf8_lossy(&raw[..raw.len().min(60)]).into_owned();
            assert_eq!(incremental_parse([&raw[..]]), want, "whole {shown:?}");
            // Every split point costs a full parse, quadratic in the stream
            // length; Miri interprets far too slowly for that on the
            // head-limit streams, so under it the points are strided.
            let stride = if cfg!(miri) { 61 } else { 1 };
            for split in (0..=raw.len()).step_by(stride) {
                let (a, b) = raw.split_at(split);
                assert_eq!(
                    incremental_parse([a, b]),
                    want,
                    "split at {split} of {shown:?}"
                );
            }
            for round in 0..32 {
                let max = 1 + next() as usize % 64;
                let mut fragments = Vec::new();
                let mut rest = &raw[..];
                while !rest.is_empty() {
                    let (a, b) = rest.split_at((1 + next() as usize % max).min(rest.len()));
                    fragments.push(a);
                    rest = b;
                }
                assert_eq!(
                    incremental_parse(fragments),
                    want,
                    "round {round} of {shown:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_parser_handles_one_byte_at_a_time() {
        let raw = "POST /predict HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        let mut parser = RequestParser::new();
        let mut requests = Vec::new();
        for (i, byte) in raw.as_bytes().iter().enumerate() {
            parser.feed(&[*byte]);
            let drained = drain(&mut parser);
            if i + 1 < raw.len() {
                assert!(drained.is_empty(), "request completed early at byte {i}");
                assert!(!parser.is_idle());
            }
            requests.extend(drained);
        }
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].body, "hello world");
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_drains_pipelined_requests_in_order() {
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        let requests = drain(&mut parser);
        let paths: Vec<&str> = requests.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/p", "/healthz", "/metrics"]);
        assert!(parser.is_idle());
    }

    /// The whole-buffer reference stands in for the blocking parser here too.
    #[test]
    fn incremental_parser_rejects_what_the_blocking_parser_rejects() {
        // Oversized Content-Length fails as soon as the head completes.
        for raw in [
            format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20),
            "POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_string(),
        ] {
            assert!(matches!(reference_parse(raw.as_bytes()).1, End::Error(_)));
            let mut parser = RequestParser::new();
            parser.feed(raw.as_bytes());
            assert!(parser.poll_request().is_err());
        }

        // An endless head errors once the budget is spent — even though no
        // terminator ever arrives.
        let mut parser = RequestParser::new();
        parser.feed(b"GET /healthz HTTP/1.1\r\nX-Junk: ");
        for _ in 0..(64 << 10) / 16 {
            parser.feed(&[b'A'; 16]);
            if parser.poll_request().is_err() {
                return;
            }
        }
        panic!("endless head never errored");
    }

    #[test]
    fn incremental_parser_terminator_straddles_reads() {
        // Split the \r\n\r\n terminator across feeds at every offset.
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        for split in 1..raw.len() {
            let mut parser = RequestParser::new();
            parser.feed(&raw.as_bytes()[..split]);
            let _ = parser.poll_request().unwrap();
            parser.feed(&raw.as_bytes()[split..]);
            let request = parser.poll_request().unwrap().expect("complete");
            assert_eq!(request.body, "ok", "split at {split}");
        }
    }

    #[test]
    fn writes_a_well_formed_keep_alive_response() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{\"a\":1}"), true, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("X-Trace-Id"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn writes_a_close_response_when_asked() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{}"), false, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn too_many_carries_a_retry_after_header() {
        let mut out = Vec::new();
        let response = Response::too_many("queue is full", 3);
        assert_eq!(response.status, 429);
        write_response(&mut out, &response, true, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 3\r\n"));
        assert!(text.contains("\"error\":\"queue is full\""));
        // Ordinary responses never emit the header.
        let mut plain = Vec::new();
        write_response(&mut plain, &Response::error(503, "down"), true, None).unwrap();
        let plain = String::from_utf8(plain).unwrap();
        assert!(plain.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(!plain.contains("Retry-After"));
    }

    #[test]
    fn writes_trace_id_and_content_type() {
        let mut out = Vec::new();
        let response = Response::text(200, "holistix_up 1\n");
        write_response(&mut out, &response, true, Some("00000000deadbeef")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("X-Trace-Id: 00000000deadbeef\r\n"));
        assert!(text.ends_with("\r\n\r\nholistix_up 1\n"));
    }

    #[test]
    fn read_response_parses_status_body_headers_and_close() {
        let ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Trace-Id: abc\r\nConnection: keep-alive\r\n\r\n{}";
        let bad = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let parse = |raw: &str| {
            let mut parser = ResponseParser::new();
            parser.feed(raw.as_bytes());
            parser.poll_response().unwrap().expect("complete response")
        };
        let (status, body, headers) = parse(ok);
        assert_eq!(
            (status, body.as_str(), server_closes(&headers)),
            (200, "{}", false)
        );
        let trace = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("x-trace-id"));
        assert_eq!(trace.map(|(_, v)| v.as_str()), Some("abc"));
        let (status, body, headers) = parse(bad);
        assert_eq!(
            (status, body.as_str(), server_closes(&headers)),
            (400, "", true)
        );
        // No Content-Length: EOF frames the body and implies close.
        let mut parser = ResponseParser::new();
        parser.feed(b"HTTP/1.1 200 OK\r\n\r\nrest");
        assert!(parser.poll_response().unwrap().is_none());
        let (_, body, headers) = parser.finish().unwrap().expect("framed by EOF");
        assert_eq!((body.as_str(), server_closes(&headers)), ("rest", true));
        assert!(parser.finish().unwrap().is_none());
        // EOF inside a Content-Length body is an error.
        let mut parser = ResponseParser::new();
        parser.feed(&ok.as_bytes()[..ok.len() - 1]);
        assert!(parser.finish().is_err());

        // Three pipelined responses in one feed come out in order.
        let stream = format!("{ok}{bad}{ok}");
        let mut parser = ResponseParser::new();
        parser.feed(stream.as_bytes());
        let want: Vec<FullResponse> =
            std::iter::from_fn(|| parser.poll_response().unwrap()).collect();
        let statuses: Vec<u16> = want.iter().map(|r| r.0).collect();
        assert_eq!(statuses, [200, 400, 200]);
        assert!(parser.finish().unwrap().is_none());
        // A split at every byte yields the same three.
        for split in 0..=stream.len() {
            let mut parser = ResponseParser::new();
            let mut got = Vec::new();
            for part in [&stream.as_bytes()[..split], &stream.as_bytes()[split..]] {
                parser.feed(part);
                got.extend(std::iter::from_fn(|| parser.poll_response().unwrap()));
            }
            assert_eq!(got, want, "split at {split}");
        }
    }

    #[test]
    fn query_strings_split_off_the_path() {
        let raw = "GET /metrics?format=prometheus&trace=1 HTTP/1.1\r\n\r\n";
        let request = parse_one(raw).unwrap();
        assert_eq!(request.path, "/metrics");
        assert_eq!(request.query, "format=prometheus&trace=1");
        assert_eq!(request.query_param("format"), Some("prometheus"));
        assert_eq!(request.query_param("trace"), Some("1"));
        assert_eq!(request.query_param("absent"), None);
        // The incremental parser agrees.
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        let incremental = parser.poll_request().unwrap().unwrap();
        assert_eq!(incremental.path, request.path);
        assert_eq!(incremental.query, request.query);
        // No query string: path is untouched and lookups miss.
        let bare = parse_one("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(bare.query, "");
        assert_eq!(bare.query_param("trace"), None);
    }

    #[test]
    fn accept_header_is_captured() {
        let raw = "GET /metrics HTTP/1.1\r\nAccept: text/plain\r\n\r\n";
        assert_eq!(parse_one(raw).unwrap().accept, "text/plain");
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        assert_eq!(parser.poll_request().unwrap().unwrap().accept, "text/plain");
    }

    #[test]
    fn error_responses_escape_the_message() {
        let response = Response::error(400, "bad \"field\"");
        assert_eq!(response.status, 400);
        assert_eq!(response.body, r#"{"error":"bad \"field\""}"#);
    }
}
