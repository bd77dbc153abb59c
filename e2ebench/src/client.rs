//! The load client: one process, at most [`MAX_THREADS`] threads and
//! [`MAX_CONNS`] keep-alive connections.
//!
//! * [`closed_loop`] — one connection, one request in flight: the next
//!   request goes out only after the previous answer is in. Latency runs
//!   from the send.
//! * [`open_loop`] — requests are due on a fixed schedule and go out on
//!   time whether or not earlier ones have been answered (pipelined over
//!   two connections). Latency runs from the due time, so a stall also
//!   charges the requests queued behind it, and the generator's own
//!   lateness is recorded.
//!
//! Requests are written with one `write_all` each on `TCP_NODELAY`
//! sockets, so the client adds no Nagle delay of its own.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Most connections the client opens at once.
pub const MAX_CONNS: usize = 2;
/// Most threads the client runs load on, the calling thread included.
pub const MAX_THREADS: usize = 2;

/// Threads the client has spawned and not yet joined (the calling thread
/// is not counted). Read by the tests to hold the thread limit.
pub static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// One HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
}

/// A keep-alive connection with an incremental response parser.
pub struct Conn {
    addr: String,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to `addr` with `TCP_NODELAY`.
    pub fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            addr: addr.to_string(),
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Replace the socket with a fresh connection to the same address.
    pub fn reopen(&mut self) -> std::io::Result<()> {
        *self = Self::open(&self.addr)?;
        Ok(())
    }

    /// Write one request in a single `write_all`.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(&request_bytes(method, path, body))
    }

    /// Read the next response, waiting at most until `until` (`None`:
    /// wait without limit). `Ok(None)` when the time ran out first.
    pub fn recv(&mut self, until: Option<Instant>) -> std::io::Result<Option<Response>> {
        loop {
            if let Some(resp) = self.take_response()? {
                return Ok(Some(resp));
            }
            if let Some(t) = until {
                let left = t.saturating_duration_since(Instant::now());
                if left.is_zero() || !sys::wait_readable(&self.stream, left)? {
                    return Ok(None);
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One request/response exchange, waiting at most `timeout` for the
    /// answer.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> std::io::Result<Response> {
        self.send(method, path, body)?;
        match self.recv(Some(Instant::now() + timeout))? {
            Some(resp) => Ok(resp),
            None => Err(std::io::Error::new(ErrorKind::TimedOut, "no response")),
        }
    }

    /// Split one complete response off the front of the buffer.
    fn take_response(&mut self) -> std::io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            body,
            close,
        }))
    }
}

/// The exact bytes the client writes for one request.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nhost: e2ebench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    msg
}

/// Waiting for a readable socket with a precise timeout. A socket read
/// timeout (`SO_RCVTIMEO`) is rounded to the kernel tick — several
/// milliseconds — which would make the open loop send late; `ppoll`
/// sleeps on a high-resolution timer.
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x001;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Whether `sock` became readable (or hung up) within `timeout`.
    pub fn wait_readable(sock: &impl AsRawFd, timeout: Duration) -> std::io::Result<bool> {
        let mut pfd = PollFd {
            fd: sock.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        // SAFETY: `pfd` and `ts` are live `repr(C)` values laid out as the
        // kernel's `struct pollfd` and `struct timespec`, borrowed only for
        // the call; `nfds` is 1, the number of entries `pfd` points at; a
        // null signal mask leaves the thread's mask unchanged.
        let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            return if err.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            };
        }
        Ok(n > 0)
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

/// One request/response exchange of the closed loop.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Generator index of the request (predict `i`'s feedback post shares `i`).
    pub index: u64,
    /// Whether this was a feedback post.
    pub feedback: bool,
    /// Microseconds since the loop started, at send.
    pub start_us: u64,
    /// Latency from the send, microseconds.
    pub latency_us: u64,
    /// The answer, or `None` after a transport error.
    pub response: Option<Response>,
}

/// The next request of a closed loop: `POST path body` for generator
/// index `index`.
pub struct Next {
    pub index: u64,
    pub path: &'static str,
    pub body: String,
    pub feedback: bool,
}

/// Drive one keep-alive connection in a closed loop for `duration`.
/// `next(previous)` picks each request given the previous exchange (a
/// predict's answer decides whether its feedback post follows); `None`
/// ends the stream early. A request unanswered after `reply_timeout`
/// fails, and the loop goes on over a fresh connection.
pub fn closed_loop(
    addr: &str,
    duration: Duration,
    reply_timeout: Duration,
    mut next: impl FnMut(Option<&Exchange>) -> Option<Next>,
) -> std::io::Result<Vec<Exchange>> {
    let mut conn = Conn::open(addr)?;
    let t0 = Instant::now();
    let mut out: Vec<Exchange> = Vec::new();
    while t0.elapsed() < duration {
        let Some(Next {
            index,
            path,
            body,
            feedback,
        }) = next(out.last())
        else {
            break;
        };
        let sent = Instant::now();
        let result = conn.call("POST", path, body.as_bytes(), reply_timeout);
        let latency_us = sent.elapsed().as_micros() as u64;
        let response = match result {
            Ok(resp) => {
                if resp.close {
                    conn.reopen()?;
                }
                Some(resp)
            }
            Err(_) => {
                conn.reopen()?;
                None
            }
        };
        out.push(Exchange {
            index,
            feedback,
            start_us: sent.duration_since(t0).as_micros() as u64,
            latency_us,
            response,
        });
    }
    Ok(out)
}

/// One scheduled request of the open loop.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Generator index.
    pub index: u64,
    /// Due time, microseconds after the schedule's start.
    pub due_us: u64,
    /// How late the generator actually sent it, microseconds.
    pub late_us: u64,
    /// Latency from the due time, microseconds (0 when unanswered).
    pub latency_us: u64,
    /// The answer, or `None` when the request failed or was never answered.
    pub response: Option<Response>,
}

/// Run an open loop: request `j` is due `due_us[j]` microseconds from
/// now and goes out on connection `j % conns`, one thread per connection
/// (the calling thread drives the first). Requests still unanswered
/// `drain` after the last due time count as failures.
pub fn open_loop(
    addrs: &[String],
    due_us: &[u64],
    first_index: u64,
    drain: Duration,
    body: &(dyn Fn(u64) -> String + Sync),
) -> Vec<Scheduled> {
    // One thread per connection, the caller's included.
    let most = MAX_CONNS.min(MAX_THREADS);
    assert!(
        !addrs.is_empty() && addrs.len() <= most,
        "1..={most} connections"
    );
    let conns = addrs.len() as u64;
    let t0 = Instant::now() + Duration::from_millis(5);
    let lane = |c: u64| {
        drive_lane(
            &addrs[c as usize],
            t0,
            due_us,
            c,
            conns,
            first_index,
            drain,
            body,
        )
    };
    let mut out: Vec<Scheduled> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..conns)
            .map(|c| {
                SPAWNED.fetch_add(1, Ordering::SeqCst);
                s.spawn(move || {
                    let lane_out = lane(c);
                    SPAWNED.fetch_sub(1, Ordering::SeqCst);
                    lane_out
                })
            })
            .collect();
        let mut all = lane(0);
        for h in helpers {
            all.extend(h.join().expect("open-loop connection thread panicked"));
        }
        all
    });
    out.sort_by_key(|s| s.index);
    out
}

/// One connection's share of the schedule: requests `lane`, `lane +
/// conns`, … Sends each as soon as it is due, and between due times
/// blocks reading answers (pipelined, answered in order).
#[allow(clippy::too_many_arguments)]
fn drive_lane(
    addr: &str,
    t0: Instant,
    due_us: &[u64],
    lane: u64,
    conns: u64,
    first_index: u64,
    drain: Duration,
    body: &(dyn Fn(u64) -> String + Sync),
) -> Vec<Scheduled> {
    let count = due_us.len() as u64;
    let due_at = |j: u64| t0 + Duration::from_micros(due_us[j as usize]);
    let mut done: Vec<Scheduled> = Vec::new();
    let mut pending: VecDeque<(Scheduled, String)> = VecDeque::new();
    let mut conn = Conn::open(addr).ok();
    let mut j = lane;
    let last_due = t0 + Duration::from_micros(due_us.iter().copied().max().unwrap_or(0));
    let give_up = last_due + drain;
    // Bodies are built ahead of their due time so the send is one write.
    let mut next_body = (j < count).then(|| body(first_index + j));
    loop {
        let now = Instant::now();
        // Send everything that is due, on time or as close to it as we can.
        while j < count && due_at(j) <= now {
            let b = next_body.take().unwrap_or_else(|| body(first_index + j));
            let due = due_at(j);
            let late_us = Instant::now().saturating_duration_since(due).as_micros() as u64;
            let sent = conn
                .as_mut()
                .is_some_and(|c| c.send("POST", "/v1/predict", b.as_bytes()).is_ok());
            let rec = Scheduled {
                index: first_index + j,
                due_us: due.duration_since(t0).as_micros() as u64,
                late_us,
                latency_us: 0,
                response: None,
            };
            pending.push_back((rec, b));
            if !sent {
                resend_all(addr, &mut conn, &pending);
            }
            j += conns;
            next_body = (j < count).then(|| body(first_index + j));
        }
        if j >= count && pending.is_empty() {
            break;
        }
        if Instant::now() >= give_up {
            done.extend(pending.drain(..).map(|(rec, _)| rec));
            break;
        }
        let until = if j < count { due_at(j) } else { give_up };
        let Some(c) = conn.as_mut() else {
            resend_all(addr, &mut conn, &pending);
            if conn.is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
            continue;
        };
        match c.recv(Some(until)) {
            Ok(None) => {}
            Ok(Some(resp)) => {
                let close = resp.close;
                if let Some((mut rec, _)) = pending.pop_front() {
                    let due = t0 + Duration::from_micros(rec.due_us);
                    rec.latency_us = due.elapsed().as_micros() as u64;
                    rec.response = Some(resp);
                    done.push(rec);
                }
                if close {
                    // The server answers nothing after a close; whatever
                    // was pipelined behind it goes out again.
                    resend_all(addr, &mut conn, &pending);
                }
            }
            Err(_) => resend_all(addr, &mut conn, &pending),
        }
    }
    done
}

/// Reconnect and re-send every unanswered request, in order.
fn resend_all(addr: &str, conn: &mut Option<Conn>, pending: &VecDeque<(Scheduled, String)>) {
    *conn = Conn::open(addr).ok();
    if let Some(c) = conn.as_mut() {
        for (_, b) in pending {
            if c.send("POST", "/v1/predict", b.as_bytes()).is_err() {
                *conn = None;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// A uniform schedule: `n` requests `period_us` apart.
    fn every(period_us: u64, n: u64) -> Vec<u64> {
        (0..n).map(|j| j * period_us).collect()
    }

    /// A stand-in server answering every request with a fixed body and
    /// counting the connections it accepted.
    fn fake_server(close_every: usize) -> (String, Arc<AtomicUsize>, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (acc, st) = (accepted.clone(), stop.clone());
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if st.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                acc.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || serve_fake(stream, close_every));
            }
        });
        (addr, accepted, stop)
    }

    fn serve_fake(stream: TcpStream, close_every: usize) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut served = 0;
        loop {
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let line = line.trim_end().to_ascii_lowercase();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line.strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            served += 1;
            let close = close_every > 0 && served % close_every == 0;
            let reply = format!(
                "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: {}\r\n\r\nok",
                if close { "close" } else { "keep-alive" }
            );
            if writer.write_all(reply.as_bytes()).is_err() || close {
                return;
            }
        }
    }

    #[test]
    fn open_loop_stays_within_two_threads_and_two_connections() {
        let (addr, accepted, stop) = fake_server(0);
        let addrs = vec![addr.clone(), addr];
        let peak = Arc::new(AtomicUsize::new(0));
        let p = peak.clone();
        let body = move |_: u64| {
            p.fetch_max(SPAWNED.load(Ordering::SeqCst), Ordering::SeqCst);
            "{}".to_string()
        };
        let out = open_loop(&addrs, &every(500, 400), 0, Duration::from_secs(2), &body);
        stop.store(true, Ordering::SeqCst);
        assert_eq!(out.len(), 400);
        assert!(out
            .iter()
            .all(|s| s.response.as_ref().is_some_and(|r| r.status == 200)));
        assert_eq!(accepted.load(Ordering::SeqCst), MAX_CONNS);
        assert!(
            peak.load(Ordering::SeqCst) < MAX_THREADS,
            "helper threads beyond the caller"
        );
        assert_eq!(
            SPAWNED.load(Ordering::SeqCst),
            0,
            "every helper thread is joined"
        );
    }

    #[test]
    #[should_panic(expected = "connections")]
    fn open_loop_refuses_a_third_connection() {
        let addrs = vec!["127.0.0.1:9".to_string(); 3];
        open_loop(&addrs, &[0], 0, Duration::from_millis(1), &|_| {
            String::new()
        });
    }

    #[test]
    fn open_loop_sends_on_schedule_without_waiting_for_answers() {
        // A server that never answers: every request must still go out on
        // time, so the generator is never late by more than a few ms.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let held = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(600));
            drop(s);
        });
        let out = open_loop(
            &[addr],
            &every(5_000, 60),
            0,
            Duration::from_millis(100),
            &|_| "{}".into(),
        );
        held.join().unwrap();
        assert_eq!(out.len(), 60);
        assert!(out.iter().all(|s| s.response.is_none()));
        let late = out.iter().map(|s| s.late_us).max().unwrap();
        assert!(late < 20_000, "generator fell behind by {late} us");
        let span = out.last().unwrap().due_us - out[0].due_us;
        assert_eq!(span, 59 * 5_000);
    }

    #[test]
    fn pipelined_requests_survive_server_closes() {
        let (addr, accepted, stop) = fake_server(7);
        let out = open_loop(
            &[addr],
            &every(1_000, 100),
            0,
            Duration::from_secs(2),
            &|_| "{}".into(),
        );
        stop.store(true, Ordering::SeqCst);
        assert!(out
            .iter()
            .all(|s| s.response.as_ref().is_some_and(|r| r.status == 200)));
        assert!(accepted.load(Ordering::SeqCst) >= 100 / 7);
    }

    #[test]
    fn closed_loop_fails_an_unanswered_request_and_goes_on() {
        // A server that reads requests and never answers: each request
        // fails at its deadline and the next goes out on a new connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let acc = accepted.clone();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().flatten() {
                acc.fetch_add(1, Ordering::SeqCst);
                held.push(stream);
            }
        });
        let mut i = 0;
        let out = closed_loop(
            &addr,
            Duration::from_secs(10),
            Duration::from_millis(100),
            |_| {
                i += 1;
                (i <= 3).then(|| Next {
                    index: i - 1,
                    path: "/v1/predict",
                    body: "{}".into(),
                    feedback: false,
                })
            },
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|e| e.response.is_none()));
        assert!(out.iter().all(|e| e.latency_us >= 100_000));
        // Each request went out on its own connection.
        assert!(accepted.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn closed_loop_keeps_one_request_in_flight() {
        let (addr, accepted, stop) = fake_server(0);
        let mut i = 5;
        let out = closed_loop(
            &addr,
            Duration::from_secs(10),
            Duration::from_secs(10),
            |_| {
                i += 1;
                (i <= 25).then(|| Next {
                    index: i - 1,
                    path: "/v1/predict",
                    body: "{}".into(),
                    feedback: false,
                })
            },
        )
        .unwrap();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(out.len(), 20);
        assert_eq!(out[0].index, 5);
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
        for w in out.windows(2) {
            assert!(w[1].start_us >= w[0].start_us + w[0].latency_us);
        }
    }
}
