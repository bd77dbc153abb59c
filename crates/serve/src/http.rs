//! The one HTTP/1.1 substrate of the workspace, over `std::net`.
//!
//! Hand-rolled on purpose — the workspace takes no external dependencies —
//! and scoped to exactly what the prediction server and the fleet need:
//! request-line + headers + `Content-Length` bodies, keep-alive with
//! pipelining, and hard limits on head size, header count and body size
//! so a misbehaving client cannot balloon memory. Anything outside that
//! envelope is a structured [`ServeError`], never a panic and never a
//! silently dropped connection.
//!
//! Three pieces, each with one implementation:
//!
//! * **The server loop** ([`Listener::run`]): one blocking accept thread
//!   hands sockets to a fixed pool of connection workers over an mpsc
//!   channel (the receiver behind a mutex, the textbook `std` work
//!   queue). Each worker speaks keep-alive HTTP on its socket and asks a
//!   [`Handler`] — `fairlens-serve`'s or the fleet's router — for every
//!   answer. A framing error is answered, then the connection closes; an
//!   optional cap closes a connection after N requests. A [`Drain`]
//!   started by the router stops the accept loop (a self-connect wakes
//!   the blocking accept), closes idle keep-alives and lets in-flight
//!   requests finish before the pool is joined.
//! * **The response type** ([`Response`]): what a router answers and
//!   what the client reads back.
//! * **The client** ([`Client`]): one keep-alive connection with a read
//!   timeout, over one strict response parser ([`read_response`]); the
//!   fleet's backend pool, the load generator and the end-to-end tests
//!   all use it.
//!
//! The parsers are generic over [`BufRead`] so the negative paths
//! (oversized heads, truncated bodies, pipelined garbage, slow-loris
//! stalls, malformed responses) are unit-testable on in-memory cursors
//! without sockets.
//!
//! Slow-loris defense: the socket's 250 ms read timeout is only a poll
//! tick (it also lets idle keep-alive connections notice a drain);
//! [`Limits::read_deadline`] bounds the *total* time from the first
//! request byte to the final body byte. A client that trickles bytes
//! slower than that gets a structured 408 and the connection is closed.
//! The deadline clock starts at the first poll tick after a request byte
//! arrives, so its practical granularity is one tick.

use std::borrow::Cow;
use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::{ErrorKind, ServeError};

/// Hard limits on a single request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes across the request line and all header lines.
    pub max_head: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum `Content-Length`.
    pub max_body: usize,
    /// Maximum wall-clock time to receive one full request (head + body),
    /// measured from the first byte. Exceeding it is a 408. Idle
    /// keep-alive connections (no request byte yet) are unaffected.
    pub read_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head: 16 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path component (query string split off into `query`).
    pub path: String,
    /// Raw query string, without the `?` (empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// First header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Why `read_request` returned without a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Complete(Request),
    /// Clean end of stream (or idle give-up) before any request byte.
    Closed,
}

/// Read one request. `on_idle(started)` is invoked on every read timeout
/// tick with whether any byte of the request has arrived; returning `true`
/// abandons the read (the connection is closed by the caller). A timeout
/// *mid-request* that `on_idle` abandons surfaces as `Closed` when nothing
/// had arrived, or as a `bad_request` error when the request was cut off.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    limits: &Limits,
    mut on_idle: impl FnMut(bool) -> bool,
) -> Result<ReadOutcome, ServeError> {
    // Layer the total-read deadline over the caller's idle policy: once
    // any request byte has arrived, every poll tick checks elapsed time
    // against `limits.read_deadline` and abandons the read when it is
    // spent. `Cell`s let the wrapped closure and the error-mapping code
    // below share the flags without fighting the borrow checker.
    let first_tick: Cell<Option<Instant>> = Cell::new(None);
    let expired = Cell::new(false);
    let deadline = limits.read_deadline;
    let mut on_idle = |started: bool| {
        if started {
            let t0 = first_tick.get().unwrap_or_else(|| {
                let now = Instant::now();
                first_tick.set(Some(now));
                now
            });
            if t0.elapsed() >= deadline {
                expired.set(true);
                return true;
            }
        }
        on_idle(started)
    };
    // Abandoned reads surface as truncation; a deadline expiry upgrades
    // that to a structured 408 so the slow client learns why.
    let cut = |what: &str| {
        if expired.get() {
            ServeError::new(
                ErrorKind::RequestTimeout,
                format!("read deadline exceeded while receiving the {what}"),
            )
        } else {
            truncated(what)
        }
    };

    let mut head_bytes = 0usize;
    let mut started = false;

    // Request line. Skip stray CRLFs between pipelined requests (RFC 7230
    // §3.5 tolerance).
    let line = loop {
        match read_line(reader, limits.max_head, &mut on_idle, &mut started)? {
            None => {
                return if started {
                    Err(cut("request line"))
                } else {
                    Ok(ReadOutcome::Closed)
                }
            }
            Some(l) if l.is_empty() => continue,
            Some(l) => break l,
        }
    };
    head_bytes += line.len();
    let line = String::from_utf8(line)
        .map_err(|_| ServeError::bad_request("request line is not UTF-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v.to_string()),
        _ => return Err(ServeError::bad_request(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::bad_request(format!("unsupported version {version:?}")));
    }
    let http10 = version == "HTTP/1.0";

    // Headers.
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, limits.max_head - head_bytes, &mut on_idle, &mut started)?
        else {
            return Err(cut("headers"));
        };
        head_bytes += line.len() + 2;
        if head_bytes > limits.max_head {
            return Err(ServeError::new(
                ErrorKind::PayloadTooLarge,
                format!("request head exceeds {} bytes", limits.max_head),
            ));
        }
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(ServeError::new(
                ErrorKind::PayloadTooLarge,
                format!("more than {} headers", limits.max_headers),
            ));
        }
        let line = String::from_utf8(line)
            .map_err(|_| ServeError::bad_request("header is not UTF-8"))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::bad_request(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body.
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0usize,
        Some((_, v)) => parse_length(v)
            .ok_or_else(|| ServeError::bad_request(format!("bad content-length {v:?}")))?,
    };
    if headers.iter().any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ServeError::bad_request("chunked transfer encoding is not supported"));
    }
    if content_length > limits.max_body {
        return Err(ServeError::new(
            ErrorKind::PayloadTooLarge,
            format!("body of {content_length} bytes exceeds limit {}", limits.max_body),
        ));
    }
    let mut body = vec![0u8; content_length];
    let mut read = 0usize;
    while read < content_length {
        match reader.fill_buf() {
            Ok([]) => return Err(truncated("body")),
            Ok(buf) => {
                let take = buf.len().min(content_length - read);
                body[read..read + take].copy_from_slice(&buf[..take]);
                reader.consume(take);
                read += take;
            }
            Err(e) if is_timeout(&e) => {
                if on_idle(true) {
                    return Err(cut("body"));
                }
            }
            Err(e) => return Err(io_error(e)),
        }
    }

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
        .unwrap_or_default();
    let close = connection.contains("close") || (http10 && !connection.contains("keep-alive"));

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(ReadOutcome::Complete(Request { method, path, query, headers, body, close }))
}

/// Read up to CRLF (or bare LF), stripping the terminator. `None` on EOF
/// or when `on_idle` abandons the wait before a terminator arrived.
fn read_line<R: BufRead>(
    reader: &mut R,
    cap: usize,
    on_idle: &mut impl FnMut(bool) -> bool,
    started: &mut bool,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(None), // EOF
            Ok(buf) => {
                *started = true;
                match buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        line.extend_from_slice(&buf[..pos]);
                        reader.consume(pos + 1);
                        if line.last() == Some(&b'\r') {
                            line.pop();
                        }
                        if line.len() > cap {
                            return Err(ServeError::new(
                                ErrorKind::PayloadTooLarge,
                                "request head line too long",
                            ));
                        }
                        return Ok(Some(line));
                    }
                    None => {
                        line.extend_from_slice(buf);
                        let n = buf.len();
                        reader.consume(n);
                        if line.len() > cap {
                            return Err(ServeError::new(
                                ErrorKind::PayloadTooLarge,
                                "request head line too long",
                            ));
                        }
                    }
                }
            }
            Err(e) if is_timeout(&e) => {
                if on_idle(*started || !line.is_empty()) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(io_error(e)),
        }
    }
}

/// A `Content-Length` value: `1*DIGIT` only (RFC 9110 §8.6), so signs,
/// spaces and empty values are rejected rather than guessed at.
fn parse_length(v: &str) -> Option<usize> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    v.parse().ok()
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn truncated(what: &str) -> ServeError {
    ServeError::bad_request(format!("connection closed mid-request ({what})"))
}

fn io_error(e: std::io::Error) -> ServeError {
    ServeError::bad_request(format!("read error: {e}"))
}

/// Reason-phrase for the statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write a response with `Content-Length`, flushing the stream.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    write_response_with(w, status, content_type, None, body, close)
}

/// [`write_response`] with an optional `Retry-After` header (seconds) —
/// shed and breaker rejections tell well-behaved clients when to come
/// back instead of letting them hammer the admission gate.
fn write_response_with(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    retry_after: Option<u64>,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let retry = match retry_after {
        Some(secs) => format!("retry-after: {secs}\r\n"),
        None => String::new(),
    };
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n{retry}connection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    w.write_all(body)?;
    w.flush()
}

/// `Content-Type` of JSON bodies.
pub const JSON: &str = "application/json";
/// `Content-Type` of the Prometheus text exposition.
pub const PROM: &str = "text/plain; version=0.0.4";

/// One HTTP response: what a [`Handler`] answers, and what a [`Client`]
/// reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header.
    pub content_type: String,
    /// `Retry-After` seconds, on shed and breaker rejections.
    pub retry_after: Option<u64>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response without `Retry-After`.
    pub fn new(status: u16, content_type: &str, body: Vec<u8>) -> Self {
        Self { status, content_type: content_type.into(), retry_after: None, body }
    }

    /// A JSON response without `Retry-After`.
    pub fn json(status: u16, body: String) -> Self {
        Self::new(status, JSON, body.into_bytes())
    }

    /// The structured JSON answer for an error, `Retry-After` included.
    pub fn error(e: &ServeError) -> Self {
        Self { retry_after: e.retry_after, ..Self::json(e.kind.status(), e.to_json()) }
    }

    /// The body as text (lossy on invalid UTF-8).
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

// ---------------------------------------------------------------------------
// Server loop

/// The read timeout of accepted sockets: the shutdown-poll tick for idle
/// keep-alives and the resolution of [`Limits::read_deadline`].
const POLL_TICK: Duration = Duration::from_millis(250);

/// A router plugged into [`Listener::run`].
pub trait Handler: Send + Sync + 'static {
    /// Answer one complete request. Metrics and recording of the
    /// exchange are the handler's business.
    fn handle(&self, req: &Request) -> Response;

    /// A request that could not be framed. The loop then answers
    /// [`Response::error`] and closes the connection.
    fn parse_error(&self, err: &ServeError);
}

/// How [`Listener::run`] runs its pool.
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Log prefix, as in `[serve] accept error: …`.
    pub name: &'static str,
    /// Connection-worker thread names are `{thread_prefix}-{i}`.
    pub thread_prefix: &'static str,
    /// Connection-worker threads (at least one runs).
    pub workers: usize,
    /// Request parsing limits.
    pub limits: Limits,
    /// Requests served per connection before the server closes it, so a
    /// single pipelining client cannot pin a worker forever
    /// (0 = unlimited).
    pub max_conn_requests: usize,
}

/// The drain trigger a [`Listener`] shares with its router.
#[derive(Debug)]
pub struct Drain {
    draining: AtomicBool,
    addr: SocketAddr,
}

impl Drain {
    /// Whether the drain has started.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Start draining: stop accepting, close idle keep-alive connections,
    /// let in-flight requests finish. A self-connect wakes the blocking
    /// accept so the drain starts at once.
    pub fn start(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// The listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// A bound, not-yet-running HTTP listener.
pub struct Listener {
    listener: TcpListener,
    drain: Arc<Drain>,
}

impl Listener {
    /// Bind `addr`; port 0 picks an ephemeral port.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self { listener, drain: Arc::new(Drain { draining: AtomicBool::new(false), addr }) })
    }

    /// The drain trigger, for the router's shutdown route.
    pub fn drain(&self) -> Arc<Drain> {
        self.drain.clone()
    }

    /// Print `announce` to stderr, then serve until the drain has
    /// started and every accepted connection is finished.
    pub fn run<H: Handler>(
        self,
        announce: &str,
        cfg: LoopConfig,
        handler: Arc<H>,
    ) -> io::Result<()> {
        eprintln!("{announce}");
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let (rx, handler, drain) = (rx.clone(), handler.clone(), self.drain.clone());
            pool.push(
                std::thread::Builder::new().name(format!("{}-{i}", cfg.thread_prefix)).spawn(
                    move || loop {
                        // The temporary guard drops before handling, so
                        // only the dequeue is serialized.
                        let stream = match rx.lock().unwrap().recv() {
                            Ok(s) => s,
                            Err(_) => return,
                        };
                        handle_connection(stream, &*handler, &drain, &cfg);
                    },
                )?,
            );
        }
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) => {
                    if self.drain.is_draining() {
                        break;
                    }
                    eprintln!("[{}] accept error: {e}", cfg.name);
                    continue;
                }
            };
            if self.drain.is_draining() {
                // The self-connect wake (or a late client); stop accepting.
                drop(stream);
                break;
            }
            let _ = tx.send(stream);
        }
        drop(tx); // workers drain accepted connections, then exit
        for h in pool {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Speak keep-alive HTTP on one socket until close, error, or drain.
fn handle_connection(stream: TcpStream, handler: &impl Handler, drain: &Drain, cfg: &LoopConfig) {
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut served: usize = 0;
    loop {
        let abandon_when_idle = |started: bool| drain.is_draining() && !started;
        let (resp, close) = match read_request(&mut reader, &cfg.limits, abandon_when_idle) {
            Ok(ReadOutcome::Closed) => return,
            Err(e) => {
                // Framing errors poison the stream: answer, then close.
                handler.parse_error(&e);
                (Response::error(&e), true)
            }
            Ok(ReadOutcome::Complete(req)) => {
                served += 1;
                let resp = handler.handle(&req);
                // Draining connections close after the in-flight answer,
                // as do connections that hit the per-connection request
                // cap (the client reconnects).
                let close = req.close
                    || drain.is_draining()
                    || (cfg.max_conn_requests > 0 && served >= cfg.max_conn_requests);
                (resp, close)
            }
        };
        let written = write_response_with(
            &mut writer,
            resp.status,
            &resp.content_type,
            resp.retry_after,
            &resp.body,
            close,
        );
        if written.is_err() || close {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Client

/// One keep-alive client connection. Every read carries the timeout
/// given at [`Client::connect`] (or [`Client::set_timeout`]), so a
/// stalled peer surfaces as an error instead of a hang.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    closing: bool,
}

impl Client {
    /// Connect within `timeout`, which also becomes the read timeout.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let peer = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&peer, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            peer,
            closing: false,
        })
    }

    /// Change the read timeout for later reads.
    pub fn set_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))
    }

    /// Write one request: the head in one write, the body in another.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.peer,
            body.len(),
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()
    }

    /// Write raw bytes, for malformed and slow requests.
    pub fn send_raw(&mut self, raw: &[u8]) -> io::Result<()> {
        self.writer.write_all(raw)?;
        self.writer.flush()
    }

    /// Read the next response.
    pub fn recv(&mut self) -> io::Result<Response> {
        let (resp, close) = read_response(&mut self.reader)?;
        self.closing = close;
        Ok(resp)
    }

    /// [`Client::send`], then [`Client::recv`].
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Whether the last response announced `connection: close`.
    pub fn closing(&self) -> bool {
        self.closing
    }
}

/// Parse one response: status line, headers, `Content-Length` body.
/// Returns the response and whether the peer announced
/// `connection: close`. Strict: anything that is not a complete,
/// well-framed response is an error, never a guess.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(Response, bool)> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let line = read_head_line(reader, "before the status line")?;
    let mut parts = line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code))
            if version.starts_with("HTTP/1.")
                && code.len() == 3
                && code.bytes().all(|b| b.is_ascii_digit()) =>
        {
            code.parse().expect("three digits")
        }
        _ => return Err(bad(format!("malformed status line {line:?}"))),
    };
    let mut content_length = None;
    let mut content_type = String::from("application/octet-stream");
    let mut retry_after = None;
    let mut close = false;
    loop {
        let header = read_head_line(reader, "inside the header block")?;
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header {header:?}")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = Some(
                    parse_length(value)
                        .ok_or_else(|| bad(format!("bad content-length {value:?}")))?,
                );
            }
            "content-type" => content_type = value.to_string(),
            "retry-after" => retry_after = value.parse().ok(),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let content_length = content_length.ok_or_else(|| bad("no content-length".into()))?;
    let mut body = Vec::new();
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("connection closed after {} of {content_length} body bytes", body.len()),
        ));
    }
    Ok((Response { status, content_type, retry_after, body }, close))
}

/// One CRLF- (or LF-) terminated head line, terminator stripped; EOF
/// before the terminator is an error naming `where_`.
fn read_head_line<R: BufRead>(reader: &mut R, where_: &str) -> io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match line.strip_suffix('\n') {
        Some(l) => Ok(l.strip_suffix('\r').unwrap_or(l).to_string()),
        None => {
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, format!("connection closed {where_}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(input: &[u8]) -> Result<ReadOutcome, ServeError> {
        read_request(&mut Cursor::new(input.to_vec()), &Limits::default(), |_| false)
    }

    fn expect_request(input: &[u8]) -> Request {
        match read(input).unwrap() {
            ReadOutcome::Complete(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get() {
        let r = expect_request(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
        assert!(!r.close);
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let r = expect_request(
            b"POST /v1/predict?debug=1 HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nwxyz",
        );
        assert_eq!(r.path, "/v1/predict");
        assert_eq!(r.query, "debug=1");
        assert_eq!(r.body, b"wxyz");
        assert!(r.close);
        assert_eq!(r.header("content-length"), Some("4"));
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = expect_request(b"GET / HTTP/1.0\r\n\r\n");
        assert!(r.close);
        let r = expect_request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!r.close);
    }

    #[test]
    fn keep_alive_pipelining_reads_in_sequence() {
        let mut c = Cursor::new(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi".to_vec(),
        );
        let l = Limits::default();
        let ReadOutcome::Complete(a) = read_request(&mut c, &l, |_| false).unwrap() else {
            panic!()
        };
        let ReadOutcome::Complete(b) = read_request(&mut c, &l, |_| false).unwrap() else {
            panic!()
        };
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert_eq!(b.body, b"hi");
        assert_eq!(read_request(&mut c, &l, |_| false).unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn eof_before_any_byte_is_a_clean_close() {
        assert_eq!(read(b"").unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn pipelined_garbage_is_a_bad_request() {
        for garbage in [
            &b"x\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 EXTRA\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = read(garbage).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{garbage:?} → {err}");
        }
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = read(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("body"), "{err}");
        // ...and a cut-off head too
        let err = read(b"POST / HTT").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut input = b"GET /".to_vec();
        input.extend(std::iter::repeat_n(b'a', 20 * 1024));
        input.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = read(&input).unwrap_err();
        assert_eq!(err.kind, ErrorKind::PayloadTooLarge);

        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            input.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        let err = read(&input).unwrap_err();
        assert_eq!(err.kind, ErrorKind::PayloadTooLarge);
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let err = read(b"POST / HTTP/1.1\r\ncontent-length: 9999999999\r\n\r\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::PayloadTooLarge);
        for bad in ["nope", "+5", "-5", " ", "5 5"] {
            let input = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nhello");
            let err = read(input.as_bytes()).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "content-length {bad:?}");
        }
    }

    /// A reader that yields its chunks separated by `WouldBlock` timeout
    /// ticks, mimicking a slow-loris client on a socket with a read
    /// timeout.
    struct Stutter {
        chunks: Vec<Vec<u8>>,
        next: usize,
        pending_timeout: bool,
    }

    impl Stutter {
        fn new(chunks: &[&[u8]]) -> Self {
            Self {
                chunks: chunks.iter().map(|c| c.to_vec()).collect(),
                next: 0,
                pending_timeout: true,
            }
        }
    }

    impl std::io::Read for Stutter {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("read_request only uses fill_buf/consume")
        }
    }

    impl BufRead for Stutter {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pending_timeout {
                self.pending_timeout = false;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            self.pending_timeout = true;
            match self.chunks.get(self.next) {
                Some(c) => Ok(c),
                // Out of data: stall forever (the client went quiet
                // without closing), so only the deadline or the caller's
                // idle policy can end the read.
                None => Err(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
            }
        }

        fn consume(&mut self, amt: usize) {
            if amt > 0 {
                let chunk = &mut self.chunks[self.next];
                chunk.drain(..amt);
                if chunk.is_empty() {
                    self.next += 1;
                }
            }
        }
    }

    #[test]
    fn slow_request_trips_the_read_deadline_with_408() {
        // A zero deadline expires on the first timeout tick after the
        // first byte: the stalled header read becomes a 408.
        let limits = Limits { read_deadline: Duration::ZERO, ..Limits::default() };
        let mut r = Stutter::new(&[b"GET /healthz HT", b"TP/1.1\r\n"]);
        let err = read_request(&mut r, &limits, |_| false).unwrap_err();
        assert_eq!(err.kind, ErrorKind::RequestTimeout, "{err}");
        assert!(err.message.contains("read deadline"), "{err}");

        // Same for a body that never finishes arriving.
        let mut r = Stutter::new(&[b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\n", b"abc"]);
        let err = read_request(&mut r, &limits, |_| false).unwrap_err();
        assert_eq!(err.kind, ErrorKind::RequestTimeout, "{err}");
    }

    #[test]
    fn idle_keep_alive_is_not_subject_to_the_read_deadline() {
        // No request byte yet: ticks go to the caller's idle policy, and
        // abandoning the wait is a clean close, never a 408.
        let limits = Limits { read_deadline: Duration::ZERO, ..Limits::default() };
        let mut ticks = 0;
        let mut r = Stutter::new(&[]);
        let out = read_request(&mut r, &limits, |started| {
            assert!(!started);
            ticks += 1;
            ticks >= 2
        });
        assert_eq!(out.unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn generous_deadline_lets_a_stuttering_request_through() {
        let limits = Limits { read_deadline: Duration::from_secs(30), ..Limits::default() };
        let mut r = Stutter::new(&[b"GET /health", b"z HTTP/1.1\r\n", b"\r\n"]);
        let r = match read_request(&mut r, &limits, |_| false).unwrap() {
            ReadOutcome::Complete(r) => r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(r.path, "/healthz");
    }

    #[test]
    fn responses_carry_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, 404, "application/json", b"{}", true).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("connection: close"));
    }

    fn parse_response(input: &[u8]) -> io::Result<(Response, bool)> {
        read_response(&mut Cursor::new(input.to_vec()))
    }

    #[test]
    fn client_parser_reads_what_the_server_writes() {
        let mut wire = Vec::new();
        write_response_with(&mut wire, 429, JSON, Some(3), b"{\"a\":1}", true).unwrap();
        write_response(&mut wire, 200, PROM, b"x 1\n", false).unwrap();
        let mut c = Cursor::new(wire);
        let (shed, close) = read_response(&mut c).unwrap();
        assert_eq!(shed.status, 429);
        assert_eq!(shed.content_type, JSON);
        assert_eq!(shed.retry_after, Some(3));
        assert_eq!(shed.body, b"{\"a\":1}");
        assert!(close);
        let (ok, close) = read_response(&mut c).unwrap();
        assert_eq!((ok.status, ok.retry_after, ok.text().as_ref()), (200, None, "x 1\n"));
        assert_eq!(ok.content_type, PROM);
        assert!(!close);
    }

    #[test]
    fn client_parser_rejects_truncated_responses() {
        for (input, what) in [
            (&b""[..], "before the status line"),
            (b"HTTP/1.1 200 O", "before the status line"),
            (b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n", "inside the header block"),
            (b"HTTP/1.1 200 OK\r\ncontent-le", "inside the header block"),
        ] {
            let err = parse_response(input).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{input:?}");
            assert!(err.to_string().contains(what), "{input:?} → {err}");
        }
        let err = parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nabc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("3 of 5 body bytes"), "{err}");
    }

    #[test]
    fn client_parser_rejects_malformed_responses() {
        for input in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 20 OK\r\ncontent-length: 0\r\n\r\n",
            b"SPDY/9 200 OK\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno-colon-here\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: nope\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999999\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\n\r\n",
        ] {
            let err = parse_response(input).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{input:?} → {err}");
        }
    }

    #[test]
    fn client_parser_extracts_close_and_retry_after() {
        let (r, close) = parse_response(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: 7\r\nConnection: Close\r\n\r\n",
        )
        .unwrap();
        assert_eq!((r.status, r.retry_after, close), (503, Some(7), true));
        assert_eq!(r.content_type, "application/octet-stream");
        let (r, close) =
            parse_response(b"HTTP/1.1 200 OK\ncontent-length: 0\nconnection: keep-alive\n\n")
                .unwrap();
        assert_eq!((r.status, r.retry_after, close), (200, None, false));
    }
}
