//! A pool of idle keep-alive connections to one worker incarnation.
//!
//! The wire code — the client connection and its strict response
//! parser — lives in [`fairlens_serve::http`]; this module only pools
//! [`Client`]s. The router keeps one [`Backend`] per live worker. A
//! transport error surfaces as `io::Error` to the caller, which treats it
//! as "this worker cannot answer" and fails the request over to the next
//! replica.
//!
//! One wrinkle matters for correctness under churn: a pooled connection
//! may have been closed by the worker since it was parked (the server
//! closes after `--max-conn-requests`, and a drain closes everything).
//! A failure on a *pooled* connection is therefore retried once on a
//! fresh connection before the worker is declared unreachable —
//! otherwise every request-cap close would masquerade as a crash and
//! trigger a spurious failover.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use fairlens_serve::http::{Client, Response};

/// One worker's address plus its idle keep-alive connection pool.
pub struct Backend {
    addr: SocketAddr,
    idle: Mutex<Vec<Client>>,
}

impl Backend {
    /// A backend for the worker announced at `addr` (e.g. `127.0.0.1:4132`).
    pub fn new(addr: &str) -> std::io::Result<Self> {
        let addr = addr.parse::<SocketAddr>().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("bad worker address {addr:?}: {e}"),
            )
        })?;
        Ok(Self { addr, idle: Mutex::new(Vec::new()) })
    }

    /// The worker's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Send one request and read the full response. A failure on a
    /// pooled (possibly stale) connection is retried once on a fresh
    /// one; a failure on a fresh connection is the worker's problem and
    /// propagates to the caller for failover.
    pub fn roundtrip(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> std::io::Result<Response> {
        let pooled = self.idle.lock().unwrap().pop();
        let was_pooled = pooled.is_some();
        match self.attempt(pooled, method, path, body, timeout) {
            Ok(resp) => Ok(resp),
            Err(_) if was_pooled => self.attempt(None, method, path, body, timeout),
            Err(e) => Err(e),
        }
    }

    fn attempt(
        &self,
        conn: Option<Client>,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> std::io::Result<Response> {
        let mut conn = match conn {
            Some(c) => {
                c.set_timeout(timeout)?;
                c
            }
            None => Client::connect(self.addr, timeout)?,
        };
        let resp = conn.request(method, path, body)?;
        if !conn.closing() {
            self.idle.lock().unwrap().push(conn);
        }
        Ok(resp)
    }

    /// Drop every idle connection (the worker is being restarted or
    /// drained; parked sockets to it are dead weight).
    pub fn clear_pool(&self) {
        self.idle.lock().unwrap().clear();
    }
}

/// One-shot `GET /healthz` liveness probe on a fresh connection (never
/// the traffic pool: a probe must measure the worker, not the pool).
/// Healthy means a complete `200` response within `timeout`.
pub fn probe_healthz(addr: SocketAddr, timeout: Duration) -> bool {
    Client::connect(addr, timeout)
        .and_then(|mut c| c.request("GET", "/healthz", b""))
        .is_ok_and(|resp| resp.status == 200)
}
