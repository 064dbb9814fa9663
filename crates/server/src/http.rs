//! Minimal HTTP/1.1 on `std::net`: an incremental, hardened request
//! parser for the event loop, response encoders with keep-alive and
//! chunked framing, and a small reusable client.
//!
//! This is deliberately not a general HTTP implementation. It supports
//! exactly what the simulation service needs — persistent connections
//! with bounded pipelining, request bodies framed by `Content-Length`
//! only, chunked transfer encoding on *responses* (streamed sweeps), and
//! strict limits so hostile bytes produce a structured 4xx instead of a
//! panic, an allocation blow-up, or a hung worker:
//!
//! * request line + headers capped at [`Limits::max_head_bytes`],
//! * bodies capped at [`Limits::max_body_bytes`] (413 beyond it),
//! * absolute per-request deadlines enforced by the loop's timer wheel
//!   (408 on expiry — a slow drip cannot reset them),
//! * malformed syntax anywhere → 400 with a JSON error body.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Server-side read limits and connection policy.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers (CRLFCRLF included).
    pub max_head_bytes: usize,
    /// Maximum request body bytes.
    pub max_body_bytes: usize,
    /// Absolute deadline for receiving one full request, measured from
    /// its first byte (slowloris bound; 408 on expiry).
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection is kept open.
    pub idle_timeout: Duration,
    /// How long a flushing write may sit unready before the connection
    /// is dropped.
    pub write_timeout: Duration,
    /// Maximum pipelined requests in flight per connection; further
    /// bytes stay in the socket buffer (TCP backpressure).
    pub max_pipeline: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            max_pipeline: 8,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query string split off).
    pub path: String,
    /// Raw query string, without the `?`, if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.1` (vs `HTTP/1.0`).
    pub version_11: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Connection persistence the client asked for: HTTP/1.1 defaults to
    /// keep-alive unless `Connection: close`; HTTP/1.0 must opt in.
    pub fn wants_keep_alive(&self) -> bool {
        if let Some(v) = self.header("connection") {
            let has = |t: &str| v.split(',').any(|p| p.trim().eq_ignore_ascii_case(t));
            if has("close") {
                return false;
            }
            if has("keep-alive") {
                return true;
            }
        }
        self.version_11
    }
}

/// Why a request could not be read. Each variant maps to one status code,
/// so the connection handler can always answer with structure.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed syntax → 400.
    BadRequest(String),
    /// Head or body over the configured limit → 413.
    TooLarge(String),
    /// The request deadline expired mid-request → 408.
    Timeout,
    /// The peer closed or the socket died; nothing to answer.
    Disconnected,
}

impl HttpError {
    /// The HTTP status this error is reported as.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::TooLarge(_) => 413,
            HttpError::Timeout => 408,
            HttpError::Disconnected => 0,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::TooLarge(m) => m.clone(),
            HttpError::Timeout => "timed out reading request".to_string(),
            HttpError::Disconnected => "connection closed".to_string(),
        }
    }
}

impl core::fmt::Display for HttpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "http error {}: {}", self.status(), self.detail())
    }
}

impl std::error::Error for HttpError {}

fn map_io(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Disconnected,
    }
}

/// Try to parse one complete request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a full request (head +
/// body) is present, `Ok(None)` when more bytes are needed, and an error
/// for anything malformed or over limit. The caller owns the buffer and
/// drains `consumed` bytes on success; leftover bytes are the next
/// pipelined request.
pub fn parse_request_buf(
    buf: &[u8],
    limits: &Limits,
) -> Result<Option<(Request, usize)>, HttpError> {
    let head_end = match find_crlfcrlf(buf) {
        Some(p) => p,
        None => {
            if buf.len() >= limits.max_head_bytes {
                return Err(HttpError::TooLarge(format!(
                    "request head exceeds {} bytes",
                    limits.max_head_bytes
                )));
            }
            return Ok(None);
        }
    };
    if head_end + 4 > limits.max_head_bytes {
        return Err(HttpError::TooLarge(format!(
            "request head exceeds {} bytes",
            limits.max_head_bytes
        )));
    }

    let head = core::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let (method, path, query, version_11) = parse_request_line(request_line)?;

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line: {line:?}")))?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"-_".contains(&b))
        {
            return Err(HttpError::BadRequest(format!(
                "invalid header name: {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body framing: Content-Length only (no chunked requests — we never
    // advertise it and reject it rather than mis-frame).
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; use content-length".into(),
        ));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse::<u64>()
            .ok()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| HttpError::BadRequest(format!("invalid content-length: {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {}-byte limit",
            limits.max_body_bytes
        )));
    }

    let body_start = head_end + 4;
    if buf.len() - body_start < content_length {
        return Ok(None);
    }
    let consumed = body_start + content_length;
    Ok(Some((
        Request {
            method,
            path,
            query,
            headers,
            body: buf[body_start..consumed].to_vec(),
            version_11,
        },
        consumed,
    )))
}

fn parse_request_line(line: &str) -> Result<(String, String, Option<String>, bool), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line: {line:?}"
        )));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("invalid method: {method:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version: {version:?}"
        )));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target must be absolute-path: {target:?}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    Ok((method.to_string(), path, query, version == "HTTP/1.1"))
}

fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Additional headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response (Prometheus metrics).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Attach an extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }
}

/// The reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a complete response (head + body) with `Content-Length`
/// framing into bytes the event loop can write incrementally.
pub fn encode_response(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    out
}

/// The head of a chunked streaming response; body chunks follow via
/// [`encode_chunk`], terminated by [`CHUNK_END`].
pub fn encode_stream_head(status: u16, content_type: &str, keep_alive: bool) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

/// One chunk frame (`<hex len>\r\n<data>\r\n`). Empty data encodes
/// nothing — the empty chunk is the terminator, use [`CHUNK_END`].
pub fn encode_chunk(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating frame of a chunked body.
pub const CHUNK_END: &[u8] = b"0\r\n\r\n";

/// A client-side response (status, headers, body).
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Lowercased header pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes (chunked transfer encoding already decoded).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The wait a 429 asked for: its `Retry-After` seconds, capped. A
    /// missing or unparsable header falls back to the cap (the server
    /// always sends the header; a proxy might strip it).
    pub fn retry_after_wait(&self, cap: Duration) -> Duration {
        self.header("retry-after")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map_or(cap, Duration::from_secs)
            .min(cap)
    }
}

const CLIENT_MAX_RESPONSE: usize = 16 * 1024 * 1024;

/// A small HTTP/1.1 client with optional connection reuse.
///
/// One request at a time; responses are framed by `Content-Length`,
/// chunked transfer encoding (decoded transparently), or EOF. A request
/// that fails on a *reused* connection before any response byte arrives
/// is retried once on a fresh connection — the normal keep-alive race
/// where the server closed an idle socket just as we wrote to it.
/// Timeouts are never retried (the request may be executing).
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    timeout: Duration,
    keep_alive: bool,
    stream: Option<TcpStream>,
    /// Carryover bytes read past the previous response's end.
    rbuf: Vec<u8>,
    requests_on_current: u64,
    /// Total connections opened over the client's lifetime.
    pub connections_opened: u64,
    /// Total requests successfully completed.
    pub requests_sent: u64,
    /// Requests served by each *closed* connection, in open order.
    finished_conns: Vec<u64>,
}

impl HttpClient {
    /// A client for `addr`. With `keep_alive` false every request opens
    /// and closes its own connection (`Connection: close`).
    pub fn new(addr: impl Into<String>, timeout: Duration, keep_alive: bool) -> Self {
        HttpClient {
            addr: addr.into(),
            timeout,
            keep_alive,
            stream: None,
            rbuf: Vec::new(),
            requests_on_current: 0,
            connections_opened: 0,
            requests_sent: 0,
            finished_conns: Vec::new(),
        }
    }

    /// Change the per-request timeout (applies from the next request).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
        // Force the new deadline onto an existing socket too.
        if let Some(s) = &self.stream {
            let _ = s.set_read_timeout(Some(timeout));
            let _ = s.set_write_timeout(Some(timeout));
        }
    }

    /// Requests served per connection, including the one still open.
    pub fn conn_request_counts(&self) -> Vec<u64> {
        let mut v = self.finished_conns.clone();
        if self.stream.is_some() && self.requests_on_current > 0 {
            v.push(self.requests_on_current);
        }
        v
    }

    fn drop_conn(&mut self) {
        if self.stream.take().is_some() {
            self.finished_conns.push(self.requests_on_current);
        }
        self.requests_on_current = 0;
        self.rbuf.clear();
    }

    fn connect(&mut self) -> Result<(), HttpError> {
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(|_| HttpError::Disconnected)?
            .next()
            .ok_or(HttpError::Disconnected)?;
        let stream = TcpStream::connect_timeout(&addr, self.timeout).map_err(map_io)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(map_io)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(map_io)?;
        stream.set_nodelay(true).ok();
        self.stream = Some(stream);
        self.connections_opened += 1;
        self.requests_on_current = 0;
        self.rbuf.clear();
        Ok(())
    }

    /// Send one request and read its full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, HttpError> {
        for attempt in 0..2 {
            let reused = self.stream.is_some();
            if !reused {
                self.connect()?;
            }
            match self.try_request(method, path, body) {
                Ok(resp) => {
                    self.requests_sent += 1;
                    self.requests_on_current += 1;
                    let close = !self.keep_alive
                        || resp
                            .header("connection")
                            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    if close {
                        // Count the request before discarding the socket.
                        self.requests_on_current = self.requests_on_current.max(1);
                        self.drop_conn();
                    }
                    return Ok(resp);
                }
                Err((err, saw_bytes)) => {
                    self.drop_conn();
                    let stale_keep_alive = reused
                        && !saw_bytes
                        && attempt == 0
                        && matches!(err, HttpError::Disconnected);
                    if !stale_keep_alive {
                        return Err(err);
                    }
                }
            }
        }
        Err(HttpError::Disconnected)
    }

    /// Send every request back-to-back on one connection, then read the
    /// responses in order (HTTP/1.1 pipelining).
    ///
    /// All-or-nothing: any transport error drops the connection and
    /// fails the whole batch — there is no stale-keep-alive retry,
    /// because a batch interleaved with a retry could double-execute.
    /// Without keep-alive this degrades to sequential [`request`]s
    /// (pipelining needs a persistent connection).
    ///
    /// [`request`]: HttpClient::request
    pub fn request_batch(
        &mut self,
        method: &str,
        path: &str,
        bodies: &[&[u8]],
    ) -> Result<Vec<ClientResponse>, HttpError> {
        if bodies.is_empty() {
            return Ok(Vec::new());
        }
        if !self.keep_alive {
            let mut out = Vec::with_capacity(bodies.len());
            for body in bodies {
                out.push(self.request(method, path, Some(body))?);
            }
            return Ok(out);
        }
        if self.stream.is_none() {
            self.connect()?;
        }
        let mut wire = Vec::with_capacity(bodies.iter().map(|b| b.len() + 128).sum());
        for body in bodies {
            wire.extend_from_slice(
                format!(
                    "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
                    self.addr,
                    body.len(),
                )
                .as_bytes(),
            );
            wire.extend_from_slice(body);
        }
        {
            let stream = self.stream.as_mut().expect("connected");
            if let Err(e) = stream.write_all(&wire).and_then(|()| stream.flush()) {
                self.drop_conn();
                return Err(map_io(e));
            }
        }
        let mut out = Vec::with_capacity(bodies.len());
        while out.len() < bodies.len() {
            match self.read_response() {
                Ok(resp) => {
                    self.requests_sent += 1;
                    self.requests_on_current += 1;
                    let close = resp
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    out.push(resp);
                    if close {
                        self.drop_conn();
                        if out.len() < bodies.len() {
                            return Err(HttpError::Disconnected);
                        }
                    }
                }
                Err((e, _)) => {
                    self.drop_conn();
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// One attempt on the current socket. The bool in the error marks
    /// whether any response bytes had arrived (retry is unsafe then).
    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, (HttpError, bool)> {
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            self.addr,
            body.len(),
            if self.keep_alive { "keep-alive" } else { "close" },
        );
        {
            let stream = self.stream.as_mut().expect("connected");
            stream
                .write_all(head.as_bytes())
                .and_then(|()| stream.write_all(body))
                .and_then(|()| stream.flush())
                .map_err(|e| (map_io(e), false))?;
        }
        self.read_response()
    }

    /// Read until `rbuf` holds at least `want` bytes (or EOF/error).
    fn fill(&mut self, want: usize) -> Result<bool, HttpError> {
        let stream = self.stream.as_mut().expect("connected");
        let mut chunk = [0u8; 4096];
        while self.rbuf.len() < want {
            if self.rbuf.len() > CLIENT_MAX_RESPONSE {
                return Err(HttpError::TooLarge("response too large".into()));
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(map_io(e)),
            }
        }
        Ok(true)
    }

    fn read_response(&mut self) -> Result<ClientResponse, (HttpError, bool)> {
        // Head first: grow the buffer until the blank line shows up.
        let head_end = loop {
            if let Some(p) = find_crlfcrlf(&self.rbuf) {
                break p;
            }
            let saw = !self.rbuf.is_empty();
            let target = self.rbuf.len() + 1;
            match self.fill(target) {
                Ok(true) => {}
                Ok(false) => return Err((HttpError::Disconnected, saw)),
                Err(e) => return Err((e, saw)),
            }
            if self.rbuf.len() > 64 * 1024 && find_crlfcrlf(&self.rbuf).is_none() {
                return Err((HttpError::TooLarge("response head too large".into()), true));
            }
        };

        let head = match core::str::from_utf8(&self.rbuf[..head_end]) {
            Ok(h) => h.to_string(),
            Err(_) => {
                return Err((
                    HttpError::BadRequest("response head is not UTF-8".into()),
                    true,
                ))
            }
        };
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = match status_line.split(' ').nth(1).and_then(|s| s.parse().ok()) {
            Some(s) => s,
            None => {
                return Err((
                    HttpError::BadRequest(format!("bad status line: {status_line:?}")),
                    true,
                ))
            }
        };
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        self.rbuf.drain(..head_end + 4);

        let find = |name: &str| -> Option<String> {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };

        let chunked =
            find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity"));
        let body = if chunked {
            self.read_chunked_body().map_err(|e| (e, true))?
        } else if let Some(cl) = find("content-length") {
            let n: usize = match cl.parse() {
                Ok(n) if n <= CLIENT_MAX_RESPONSE => n,
                _ => {
                    return Err((
                        HttpError::BadRequest(format!("bad content-length: {cl:?}")),
                        true,
                    ))
                }
            };
            match self.fill(n) {
                Ok(true) => {}
                Ok(false) => {
                    return Err((
                        HttpError::BadRequest("truncated response body".into()),
                        true,
                    ))
                }
                Err(e) => return Err((e, true)),
            }
            self.rbuf.drain(..n).collect()
        } else {
            // EOF framing: read everything, connection is finished. A
            // peer that already sent bytes may reset on close; tolerate
            // errors after the head like the old one-shot client did.
            loop {
                let target = self.rbuf.len() + 4096;
                match self.fill(target) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(HttpError::TooLarge(m)) => return Err((HttpError::TooLarge(m), true)),
                    Err(_) => break,
                }
            }
            let b = std::mem::take(&mut self.rbuf);
            self.stream = None;
            self.finished_conns.push(self.requests_on_current + 1);
            self.requests_on_current = 0;
            b
        };

        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    /// Decode a chunked body from the stream into plain bytes.
    fn read_chunked_body(&mut self) -> Result<Vec<u8>, HttpError> {
        let mut body = Vec::new();
        loop {
            // Size line: hex digits, optional ";extension", CRLF.
            let line_end = loop {
                if let Some(p) = self.rbuf.windows(2).position(|w| w == b"\r\n") {
                    break p;
                }
                if self.rbuf.len() > 1024 {
                    return Err(HttpError::TooLarge("chunk size line too long".into()));
                }
                let target = self.rbuf.len() + 1;
                if !self.fill(target)? {
                    return Err(HttpError::BadRequest("truncated chunked body".into()));
                }
            };
            let line = core::str::from_utf8(&self.rbuf[..line_end])
                .map_err(|_| HttpError::BadRequest("chunk size line is not UTF-8".into()))?;
            let size_str = line.split(';').next().unwrap_or_default().trim();
            let size = usize::from_str_radix(size_str, 16)
                .map_err(|_| HttpError::BadRequest(format!("bad chunk size: {line:?}")))?;
            if body.len() + size > CLIENT_MAX_RESPONSE {
                return Err(HttpError::TooLarge("response too large".into()));
            }
            self.rbuf.drain(..line_end + 2);

            if size == 0 {
                // Trailers (we send none): consume up to the blank line.
                loop {
                    if self.rbuf.starts_with(b"\r\n") {
                        self.rbuf.drain(..2);
                        return Ok(body);
                    }
                    if let Some(p) = self.rbuf.windows(2).position(|w| w == b"\r\n") {
                        self.rbuf.drain(..p + 2);
                        continue;
                    }
                    if self.rbuf.len() > 8 * 1024 {
                        return Err(HttpError::TooLarge("chunk trailers too long".into()));
                    }
                    let target = self.rbuf.len() + 1;
                    if !self.fill(target)? {
                        return Err(HttpError::BadRequest("truncated chunk trailers".into()));
                    }
                }
            }

            if !self.fill(size + 2)? {
                return Err(HttpError::BadRequest("truncated chunk data".into()));
            }
            body.extend_from_slice(&self.rbuf[..size]);
            if &self.rbuf[size..size + 2] != b"\r\n" {
                return Err(HttpError::BadRequest("chunk missing CRLF".into()));
            }
            self.rbuf.drain(..size + 2);
        }
    }
}

/// One-shot HTTP client call: connect, send, read the full response,
/// close. Chunked responses are decoded transparently.
pub fn client_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> Result<ClientResponse, HttpError> {
    let addr = addr
        .to_socket_addrs()
        .map_err(|_| HttpError::Disconnected)?
        .next()
        .ok_or(HttpError::Disconnected)?;
    let mut client = HttpClient::new(addr.to_string(), timeout, false);
    client.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(bytes: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
        parse_request_buf(bytes, &Limits::default())
    }

    #[test]
    fn request_line_parsing() {
        let (m, p, q, v11) = parse_request_line("GET /v1/workloads?x=1 HTTP/1.1").unwrap();
        assert_eq!((m.as_str(), p.as_str()), ("GET", "/v1/workloads"));
        assert_eq!(q.as_deref(), Some("x=1"));
        assert!(v11);
        assert!(!parse_request_line("GET / HTTP/1.0").unwrap().3);
        for bad in [
            "GET",
            "GET /",
            "GET / HTTP/2.0",
            "get / HTTP/1.1",
            "GET  / HTTP/1.1",
            "GET relative HTTP/1.1",
            "G@T / HTTP/1.1",
            "GET / HTTP/1.1 extra",
        ] {
            assert!(parse_request_line(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn incremental_parse_waits_for_head_and_body() {
        assert!(req(b"GET / HTT").unwrap().is_none());
        assert!(req(b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab")
            .unwrap()
            .is_none());
        let (r, consumed) = req(b"POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nhelloEXTRA")
            .unwrap()
            .unwrap();
        assert_eq!(r.body, b"hello");
        assert_eq!(
            consumed,
            "POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello".len()
        );
    }

    #[test]
    fn pipelined_leftover_is_not_an_error() {
        // Bytes past the first request's body are the next request now —
        // the old reader called this "more body bytes than content-length".
        let buf = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (r1, c1) = req(buf).unwrap().unwrap();
        assert_eq!(r1.path, "/a");
        let (r2, c2) = req(&buf[c1..]).unwrap().unwrap();
        assert_eq!(r2.path, "/b");
        assert_eq!(c1 + c2, buf.len());
    }

    #[test]
    fn keep_alive_defaults_follow_version_and_connection_header() {
        let (r, _) = req(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(r.wants_keep_alive());
        let (r, _) = req(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!r.wants_keep_alive());
        let (r, _) = req(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!r.wants_keep_alive());
        let (r, _) = req(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(r.wants_keep_alive());
    }

    #[test]
    fn limits_still_reject_oversize_and_chunked_requests() {
        let mut big = b"GET / HTTP/1.1\r\nx: ".to_vec();
        big.extend(std::iter::repeat_n(b'a', 9000));
        assert!(matches!(req(&big), Err(HttpError::TooLarge(_))));
        assert!(matches!(
            req(b"POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(
            req(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn error_statuses() {
        assert_eq!(HttpError::BadRequest("x".into()).status(), 400);
        assert_eq!(HttpError::TooLarge("x".into()).status(), 413);
        assert_eq!(HttpError::Timeout.status(), 408);
    }

    #[test]
    fn crlf_scan() {
        assert_eq!(find_crlfcrlf(b"ab\r\n\r\ncd"), Some(2));
        assert_eq!(find_crlfcrlf(b"ab\r\ncd"), None);
    }

    #[test]
    fn chunk_frames_round_trip_concatenation() {
        let mut wire = Vec::new();
        wire.extend(encode_chunk(b"hello "));
        wire.extend(encode_chunk(b""));
        wire.extend(encode_chunk(b"world"));
        wire.extend(CHUNK_END);
        assert_eq!(wire, b"6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n");
    }

    #[test]
    fn response_encoders_frame_correctly() {
        let resp = Response::json(200, "{}").with_header("retry-after", "1");
        let bytes = encode_response(&resp, true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let head = String::from_utf8(encode_stream_head(200, "application/json", false)).unwrap();
        assert!(head.contains("transfer-encoding: chunked\r\n"));
        assert!(head.contains("connection: close\r\n"));
    }

    #[test]
    fn retry_after_wait_parses_and_caps() {
        let resp = |headers: Vec<(String, String)>| ClientResponse {
            status: 429,
            headers,
            body: Vec::new(),
        };
        let cap = Duration::from_secs(2);
        let with = resp(vec![("retry-after".into(), "1".into())]);
        assert_eq!(with.retry_after_wait(cap), Duration::from_secs(1));
        let over = resp(vec![("retry-after".into(), "60".into())]);
        assert_eq!(over.retry_after_wait(cap), cap);
        assert_eq!(resp(vec![]).retry_after_wait(cap), cap);
        let garbage = resp(vec![("retry-after".into(), "soon".into())]);
        assert_eq!(garbage.retry_after_wait(cap), cap);
    }
}
