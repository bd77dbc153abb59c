//! Child processes: the artifact exporter, the server and the fleet.
//!
//! Children write stderr to a log file in the work directory, and the
//! benchmark polls that file for the listening announcement, so no pump
//! thread runs beside the load client. Every child is stopped and reaped
//! before the benchmark exits: gracefully through `POST /v1/shutdown`,
//! and by `kill` (fleet workers included) when that fails.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::gen::EXPORT_APPROACHES;

/// How long a child may take to announce its address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Run `export_models` for the three German quick models into `out`.
pub fn export_models(bin_dir: &Path, out: &Path, seed: u64) -> Result<(), String> {
    let log = out.with_extension("export.log");
    let status = Command::new(bin_dir.join("export_models"))
        .args([
            "--scale",
            "quick",
            "--seed",
            &seed.to_string(),
            "--datasets",
            "German",
        ])
        .args(["--approaches", EXPORT_APPROACHES, "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log_file(&log)?)
        .status()
        .map_err(|e| format!("cannot run export_models: {e}"))?;
    if !status.success() {
        return Err(format!(
            "export_models failed ({status}); see {}",
            log.display()
        ));
    }
    Ok(())
}

fn log_file(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// Which program a [`Service`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `fairlens-serve` with shipped defaults.
    Serve,
    /// `fairlens-fleet --workers 2 --replicas 2` over `fairlens-serve` workers.
    Fleet,
}

/// A running server or fleet.
pub struct Service {
    child: Option<Child>,
    /// Front-door address.
    pub addr: String,
    /// Fleet worker `(pid, addr)`s; empty for a plain server.
    pub workers: Vec<(u32, String)>,
}

impl Service {
    /// Start `kind` over `models` and wait until it can take traffic.
    pub fn start(kind: Kind, bin_dir: &Path, models: &Path) -> Result<Self, String> {
        let log = models.with_extension(match kind {
            Kind::Serve => "serve.log",
            Kind::Fleet => "fleet.log",
        });
        let mut cmd = match kind {
            Kind::Serve => Command::new(bin_dir.join("fairlens-serve")),
            Kind::Fleet => {
                let mut c = Command::new(bin_dir.join("fairlens-fleet"));
                c.args(["--workers", "2", "--replicas", "2", "--serve-bin"])
                    .arg(bin_dir.join("fairlens-serve"));
                c
            }
        };
        let child = cmd
            .args(["--addr", "127.0.0.1:0", "--models"])
            .arg(models)
            .env_remove("FAIRLENS_FAULT")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file(&log)?)
            .spawn()
            .map_err(|e| format!("cannot start {kind:?}: {e}"))?;
        let mut svc = Self {
            child: Some(child),
            addr: String::new(),
            workers: Vec::new(),
        };
        let announce = match kind {
            Kind::Serve => "[serve] listening on ",
            Kind::Fleet => "[fleet] listening on ",
        };
        svc.addr = wait_for_announce(&log, announce, svc.child.as_mut().expect("just spawned"))?;
        if kind == Kind::Fleet {
            svc.workers = wait_fleet_ready(&svc.addr)?;
        }
        Ok(svc)
    }

    /// Process ids doing the serving work: the server, or the fleet front
    /// door and its workers.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids: Vec<u32> = self.child.iter().map(Child::id).collect();
        pids.extend(self.workers.iter().map(|(pid, _)| *pid));
        pids
    }

    /// `GET path` on a fresh connection to `addr`.
    pub fn get(addr: &str, path: &str) -> Result<String, String> {
        let mut conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.send("GET", path, b"")
            .map_err(|e| format!("GET {path}: {e}"))?;
        let resp = conn
            .recv(Some(Instant::now() + Duration::from_secs(10)))
            .map_err(|e| format!("GET {path}: {e}"))?
            .ok_or_else(|| format!("GET {path}: no answer"))?;
        if resp.status != 200 {
            return Err(format!("GET {path}: status {}", resp.status));
        }
        String::from_utf8(resp.body).map_err(|_| format!("GET {path}: body is not UTF-8"))
    }

    /// Drain and reap the service; kill what does not exit in time.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        if let Ok(mut conn) = Conn::open(&self.addr) {
            let _ = conn.send("POST", "/v1/shutdown", b"{}");
            let _ = conn.recv(Some(Instant::now() + Duration::from_secs(5)));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    // The fleet reaps its workers before it exits; make sure.
                    self.kill_workers();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("service exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    self.kill_workers();
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("service did not drain in time; killed".into());
                }
            }
        }
    }

    fn kill_workers(&mut self) {
        for (pid, _) in self.workers.drain(..) {
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .stderr(Stdio::null())
                    .status();
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Poll `log` until a line starts with `prefix`; return the address after it.
fn wait_for_announce(log: &Path, prefix: &str, child: &mut Child) -> Result<String, String> {
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(log) {
            // Only whole lines: the child may be mid-way through writing one.
            let announced = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.strip_prefix(prefix)?.split_whitespace().next());
            if let Some(addr) = announced {
                return Ok(addr.to_string());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "exited with {status} before listening; see {}",
                log.display()
            ));
        }
        if t0.elapsed() > BOOT_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("no listening announcement; see {}", log.display()));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Poll the fleet's `/healthz` until it reports ready; return the
/// workers' `(pid, addr)`.
fn wait_fleet_ready(addr: &str) -> Result<Vec<(u32, String)>, String> {
    let t0 = Instant::now();
    loop {
        if let Ok(body) = Service::get(addr, "/healthz") {
            let v = fairlens_json::parse(&body).map_err(|e| format!("fleet /healthz: {e}"))?;
            let ready = matches!(v.get("ready"), Some(fairlens_json::Value::Bool(true)));
            let workers: Vec<(u32, String)> = v
                .get("workers")
                .cloned()
                .and_then(|w| w.into_array().ok())
                .unwrap_or_default()
                .iter()
                .filter_map(|w| {
                    let pid = w.get("pid")?.clone().into_u64().ok()?;
                    let addr = w.get("addr")?.as_str()?.to_string();
                    Some((pid as u32, addr))
                })
                .collect();
            if ready && workers.len() == 2 {
                return Ok(workers);
            }
        }
        if t0.elapsed() > BOOT_TIMEOUT {
            return Err("fleet never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// `.bench_work/<tag>-<pid>` under the current directory.
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
