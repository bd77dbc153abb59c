//! The serving workloads, driven against real `fairlens-serve` /
//! `fairlens-fleet` child processes.
//!
//! * `serve-closed` / `fleet-closed` — one keep-alive connection in a
//!   closed loop over the closed-loop stream (predicts, some followed by a
//!   feedback post), direct to one server or through the fleet front door.
//! * `serve-open` — a fixed-rate open loop over two pipelined connections
//!   (predict only) at a reference rate, then a doubling ladder of rates
//!   that stops at the first rate missing the latency limit.
//!
//! Every 2xx predict answer is checked bit for bit against
//! `predict_with_proba` on the same rows, from the same artifact restored
//! in-process.

use std::io::Cursor;
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairlens_budget::Budget;
use fairlens_core::{DataSchema, FittedPipeline, ModelArtifact};
use fairlens_fleet::backend::Backend;
use fairlens_json::{parse, Value};
use fairlens_serve::http::{read_request, write_response, Limits};
use fairlens_serve::{BatchConfig, Metrics, ModelWorker, PredictJob, ServeFaults};

use crate::client::{
    closed_loop, open_loop, request_bytes, Conn, Exchange, Next, Response, Scheduled,
};
use crate::gen::{
    closed_request, derive, feedback_body, open_request, poisson_schedule, salt, PredictReq,
    RowPool, MODELS,
};
use crate::procs::{export_models, peak_rss_mb, Kind, Service, WorkDir};
use crate::prom::Scrape;
use crate::stats::{mean, median, quantile};
use crate::Outcome;

/// Times set-up is repeated; `setup_s` is the mean.
const SETUP_REPS: usize = 9;
/// The per-request latency limit, ms: p99 at or under it passes a rate.
pub const LIMIT_MS: f64 = 100.0;
/// `serve-open`'s reference rate, requests per second: a quarter of the
/// highest ladder rate that passed (800/s; 1600/s missed the limit) when
/// the benchmark was added, measured on a 2-CPU x86-64 VM. At a quarter
/// of capacity queues form but stay short, and two doublings reach the
/// knee.
pub const REF_RATE: f64 = 200.0;
/// Share of the run the reference rate takes; the ladder gets the rest.
const REF_SHARE: f64 = 0.5;
/// Length of each ladder rung, as a share of the run.
const RUNG_SHARE: f64 = 0.15;
/// Consecutive operations per `grid_s` block on the serving workloads.
const BLOCK: usize = 100;
/// Generator lateness (p90, ms) past which the open loop fell behind its
/// schedule: a sustained lag, not the odd scheduling hiccup.
const MAX_LATE_MS: f64 = 5.0;
/// How long the open loop waits for answers after the last due time.
const DRAIN: Duration = Duration::from_secs(2);
/// How long a closed-loop request waits for its answer before it fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// In-process references: each model's schema and restored pipeline,
/// index-aligned with [`MODELS`].
struct Refs {
    artifacts: Vec<ModelArtifact>,
    pipelines: Vec<FittedPipeline>,
}

impl Refs {
    fn load(dir: &Path) -> Result<Self, String> {
        let artifacts = MODELS
            .iter()
            .map(|id| ModelArtifact::load(&dir.join(format!("{id}.flm"))))
            .collect::<Result<Vec<_>, _>>()?;
        let pipelines = artifacts.iter().map(ModelArtifact::restore).collect();
        Ok(Refs {
            artifacts,
            pipelines,
        })
    }

    fn schema(&self, model: usize) -> &DataSchema {
        &self.artifacts[model].schema
    }

    /// Check one predict answer bit for bit; return its `seq`. `timing`
    /// collects the reference `predict_with_proba` call's microseconds.
    fn check(
        &self,
        pool: &RowPool,
        req: &PredictReq,
        resp: &Response,
        timing: Option<&mut Vec<f64>>,
    ) -> Result<u64, String> {
        let text = std::str::from_utf8(&resp.body).map_err(|_| "body is not UTF-8".to_string())?;
        let v = parse(text)?;
        let rows: Vec<Value> = req.rows.iter().map(|&r| pool.row(r).clone()).collect();
        let data = self.schema(req.model).dataset_from_rows(&rows)?;
        let t0 = Instant::now();
        let (labels, scores) = self.pipelines[req.model].predict_with_proba(&data);
        if let Some(t) = timing {
            t.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let (got_labels, got_scores) = if req.rows.len() == 1 {
            let l = v
                .get("prediction")
                .cloned()
                .ok_or("no prediction")?
                .into_u64()?;
            let s = v.get("score").cloned().ok_or("no score")?.into_f64()?;
            (vec![l], vec![s])
        } else {
            let ls = v
                .get("predictions")
                .cloned()
                .ok_or("no predictions")?
                .into_array()?;
            let ls = ls
                .into_iter()
                .map(Value::into_u64)
                .collect::<Result<Vec<_>, _>>()?;
            let ss = v.get("scores").cloned().ok_or("no scores")?.into_f64s()?;
            (ls, ss)
        };
        let want_labels: Vec<u64> = labels.iter().map(|&l| u64::from(l)).collect();
        if got_labels != want_labels {
            return Err(format!(
                "labels {got_labels:?} != reference {want_labels:?}"
            ));
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&got_scores) != bits(&scores) {
            return Err(format!("scores {got_scores:?} != reference {scores:?}"));
        }
        v.get("seq").cloned().ok_or("no seq")?.into_u64()
    }
}

/// Verdicts on the answers of one phase, in request order.
#[derive(Default)]
struct Checked {
    /// Per request: a 2xx answer that checked out.
    ok: Vec<bool>,
    /// 2xx answers that were wrong.
    wrong: u64,
    /// Microseconds of each reference `predict_with_proba` call.
    predict_with_proba_us: Vec<f64>,
}

impl Checked {
    /// Judge one answer. `predict` is the request it answers, or `None`
    /// for a feedback post, which must answer `"status": "ok"`.
    fn record(
        &mut self,
        refs: &Refs,
        pool: &RowPool,
        predict: Option<&PredictReq>,
        resp: Option<&Response>,
    ) {
        let good = match resp.filter(|r| r.status == 200) {
            None => false,
            Some(r) => {
                let verdict = match predict {
                    Some(req) => refs
                        .check(pool, req, r, Some(&mut self.predict_with_proba_us))
                        .map(drop),
                    None => parse(&String::from_utf8_lossy(&r.body))
                        .ok()
                        .filter(|v| v.get("status").and_then(Value::as_str) == Some("ok"))
                        .map(drop)
                        .ok_or_else(|| "feedback not acknowledged".to_string()),
                };
                if let Err(why) = &verdict {
                    eprintln!("[e2ebench] wrong answer: {why}");
                    self.wrong += 1;
                }
                verdict.is_ok()
            }
        };
        self.ok.push(good);
    }

    fn failed(&self) -> u64 {
        self.ok.iter().filter(|ok| !**ok).count() as u64
    }

    fn succeeded(&self) -> usize {
        self.ok.len() - self.failed() as usize
    }
}

/// One exported, booted and warmed-up deployment.
struct Deployment {
    svc: Service,
    refs: Refs,
}

/// Export the three models, boot the service and send the first predict
/// for each model: the set-up a deployment pays before traffic.
fn deploy(
    kind: Kind,
    bin_dir: &Path,
    work: &Path,
    pool: &RowPool,
    seed: u64,
    k: usize,
) -> Result<(Deployment, f64), String> {
    let models = work.join(format!("models-{k}"));
    let t0 = Instant::now();
    export_models(bin_dir, &models, derive(seed, salt::EXPORT, 0))?;
    let svc = Service::start(kind, bin_dir, &models)?;
    let mut conn = Conn::open(&svc.addr).map_err(|e| format!("connect: {e}"))?;
    for id in MODELS {
        let body = fairlens_json::object([
            ("model", Value::String(id.into())),
            ("row", pool.row(0).clone()),
        ])
        .to_json();
        let resp = conn
            .call("POST", "/v1/predict", body.as_bytes(), REPLY_TIMEOUT)
            .map_err(|e| format!("first predict: {e}"))?;
        if resp.status != 200 {
            return Err(format!("first predict on {id} answered {}", resp.status));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let refs = Refs::load(&models)?;
    Ok((Deployment { svc, refs }, setup_s))
}

/// Set up `SETUP_REPS` times, keep the last deployment running.
fn deploy_repeated(
    kind: Kind,
    bin_dir: &Path,
    work: &Path,
    pool: &RowPool,
    seed: u64,
    reps: usize,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut last: Option<Deployment> = None;
    for k in 0..reps {
        if let Some(prev) = last.take() {
            prev.svc.stop()?;
        }
        let (dep, s) = deploy(kind, bin_dir, work, pool, seed, k)?;
        setups.push(s);
        last = Some(dep);
    }
    Ok((last.expect("at least one set-up"), setups))
}

/// `setup_s` from a run's set-ups, and the set-ups themselves as a note.
/// It is their mean, not their median: the fleet turns ready only on a
/// probe tick (every 100 ms), so its set-ups take one of two values and
/// a median would jump between them from run to run.
fn record_setups(out: &mut Outcome, setups: &[f64]) {
    out.metric("setup_s", mean(setups));
    let list: Vec<String> = setups.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    out.note(format!("set-ups, ms: {}", list.join(" ")));
}

/// Checked results of one closed-loop phase.
struct ClosedPhase {
    exchanges: Vec<Exchange>,
    checked: Checked,
}

impl ClosedPhase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.exchanges
            .iter()
            .map(|e| e.latency_us as f64 / 1e3)
            .collect()
    }

    /// Seconds from the first send to the last answer.
    fn window_s(&self) -> f64 {
        match (self.exchanges.first(), self.exchanges.last()) {
            (Some(a), Some(b)) => (b.start_us + b.latency_us - a.start_us) as f64 / 1e6,
            _ => 0.0,
        }
    }

    fn mean_us(&self, feedback: bool) -> f64 {
        let v: Vec<f64> = self
            .exchanges
            .iter()
            .filter(|e| e.feedback == feedback)
            .map(|e| e.latency_us as f64)
            .collect();
        mean(&v)
    }
}

/// Run the closed-loop stream from predict `first` against `addr`.
fn run_closed(
    addr: &str,
    pool: &RowPool,
    seed: u64,
    refs: &Refs,
    duration: Duration,
    first: u64,
) -> Result<ClosedPhase, String> {
    let mut next_index = first;
    let exchanges = closed_loop(addr, duration, REPLY_TIMEOUT, |prev| {
        if let Some(p) = prev.filter(|p| !p.feedback) {
            let req = closed_request(pool, seed, p.index);
            let seq = p
                .response
                .as_ref()
                .filter(|r| r.status == 200)
                .and_then(|r| parse(std::str::from_utf8(&r.body).ok()?).ok())
                .and_then(|v| v.get("seq").cloned()?.into_u64().ok());
            if let (true, Some(seq)) = (req.feedback, seq) {
                return Some(Next {
                    index: p.index,
                    path: "/v1/feedback",
                    body: feedback_body(pool, &req, seq),
                    feedback: true,
                });
            }
        }
        next_index += 1;
        Some(Next {
            index: next_index - 1,
            path: "/v1/predict",
            body: closed_request(pool, seed, next_index - 1).body,
            feedback: false,
        })
    })
    .map_err(|e| format!("closed loop on {addr}: {e}"))?;
    let mut checked = Checked::default();
    for e in &exchanges {
        let predict = (!e.feedback).then(|| closed_request(pool, seed, e.index));
        checked.record(refs, pool, predict.as_ref(), e.response.as_ref());
    }
    Ok(ClosedPhase { exchanges, checked })
}

/// Median wall time of consecutive `BLOCK`-operation blocks, seconds.
fn block_times_s(spans: &[(f64, f64)]) -> f64 {
    let blocks: Vec<f64> = spans
        .chunks(BLOCK)
        .filter(|c| c.len() == BLOCK)
        .map(|c| {
            let end = c.iter().map(|s| s.1).fold(f64::MIN, f64::max);
            end - c[0].0
        })
        .collect();
    if blocks.is_empty() {
        // A run too short for one full block: scale the partial one.
        let end = spans.iter().map(|s| s.1).fold(0.0, f64::max);
        return spans
            .first()
            .map_or(0.0, |s| (end - s.0) * BLOCK as f64 / spans.len() as f64);
    }
    median(&blocks)
}

/// Sum of every process's peak RSS.
fn rss(svc: &Service) -> f64 {
    svc.pids().into_iter().map(peak_rss_mb).sum()
}

/// `serve-closed` / `fleet-closed`, untraced.
pub fn run_closed_workload(
    kind: Kind,
    bin_dir: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let work = WorkDir::new("closed")?;
    let pool = RowPool::new(seed);
    let (dep, setups) = deploy_repeated(kind, bin_dir, &work.0, &pool, seed, SETUP_REPS)?;
    let phase = run_closed(
        &dep.svc.addr,
        &pool,
        seed,
        &dep.refs,
        Duration::from_secs_f64(seconds),
        0,
    )?;
    let peak = rss(&dep.svc);
    dep.svc.stop()?;

    let lat = phase.latencies_ms();
    let window = phase.window_s();
    let ok = phase.checked.succeeded();
    let within = phase
        .checked
        .ok
        .iter()
        .zip(&lat)
        .filter(|(ok, l)| **ok && **l <= LIMIT_MS)
        .count();
    let spans: Vec<(f64, f64)> = phase
        .exchanges
        .iter()
        .map(|e| {
            (
                e.start_us as f64 / 1e6,
                (e.start_us + e.latency_us) as f64 / 1e6,
            )
        })
        .collect();
    let mut out = Outcome::new(phase.exchanges.len() as u64, phase.checked.failed());
    out.wrong = phase.checked.wrong;
    record_setups(&mut out, &setups);
    out.metric("grid_s", block_times_s(&spans));
    out.metric("latency_p50_ms", quantile(&lat, 0.5));
    out.metric("latency_p99_ms", quantile(&lat, 0.99));
    out.metric("throughput_rps", ok as f64 / window);
    out.metric("slo_rate_rps", within as f64 / window);
    out.metric("peak_rss_mb", peak);
    let feedback = phase.exchanges.iter().filter(|e| e.feedback).count();
    out.note(format!(
        "{} exchanges ({feedback} feedback) in {window:.2} s",
        phase.exchanges.len()
    ));
    Ok(out)
}

/// Checked results of one open-loop phase at one rate.
struct OpenPhase {
    rate: f64,
    recs: Vec<Scheduled>,
    checked: Checked,
}

impl OpenPhase {
    /// Latency from due time, ms; a failed request counts as missing the limit.
    fn latencies_ms(&self) -> Vec<f64> {
        self.recs
            .iter()
            .zip(&self.checked.ok)
            .map(|(r, ok)| if *ok { r.latency_us as f64 / 1e3 } else { 1e9 })
            .collect()
    }

    /// The `q`-quantile of how late the generator sent, ms.
    fn late_ms(&self, q: f64) -> f64 {
        let late: Vec<f64> = self.recs.iter().map(|r| r.late_us as f64 / 1e3).collect();
        quantile(&late, q)
    }

    fn fell_behind(&self) -> bool {
        self.late_ms(0.9) > MAX_LATE_MS
    }

    /// Seconds from the first due time to the last answer.
    fn window_s(&self) -> f64 {
        let end = self
            .recs
            .iter()
            .map(|r| r.due_us + r.latency_us)
            .max()
            .unwrap_or(0);
        end.saturating_sub(self.recs.first().map_or(0, |r| r.due_us)) as f64 / 1e6
    }

    /// Correct answers within the latency limit per second of the window.
    fn goodput(&self) -> f64 {
        let lat = self.latencies_ms();
        let within = self
            .checked
            .ok
            .iter()
            .zip(&lat)
            .filter(|(ok, l)| **ok && **l <= LIMIT_MS)
            .count();
        within as f64 / self.window_s()
    }

    /// Whether latency grows across the phase: the last third's mean
    /// exceeds the first third's by more than a fifth of the limit.
    fn backlog_grows(&self) -> bool {
        let lat = self.latencies_ms();
        let third = lat.len() / 3;
        if third == 0 {
            return false;
        }
        mean(&lat[lat.len() - third..]) - mean(&lat[..third]) > LIMIT_MS / 5.0
    }

    /// Why this rate misses the limit, or `None` when it meets it.
    fn miss(&self) -> Option<String> {
        let p99 = quantile(&self.latencies_ms(), 0.99);
        if self.checked.wrong > 0 {
            Some(format!("{} wrong answers", self.checked.wrong))
        } else if p99 > LIMIT_MS {
            Some(format!(
                "p99 {p99:.1} ms over the {LIMIT_MS} ms limit ({} failed)",
                self.checked.failed()
            ))
        } else if self.backlog_grows() {
            Some("backlog grows".into())
        } else if self.fell_behind() {
            Some(format!(
                "generator fell behind (p90 {:.1} ms late)",
                self.late_ms(0.9)
            ))
        } else {
            None
        }
    }
}

/// Run the open-loop stream at `rate` for `duration` from request `first`.
fn run_open(
    addrs: &[String],
    pool: &RowPool,
    seed: u64,
    refs: &Refs,
    rate: f64,
    duration: f64,
    first: u64,
) -> OpenPhase {
    let count = (rate * duration).round().max(1.0) as u64;
    let due_us = poisson_schedule(seed, first, rate, count);
    let body = |i: u64| open_request(pool, seed, i).body;
    let recs = open_loop(addrs, &due_us, first, DRAIN, &body);
    let mut checked = Checked::default();
    for r in &recs {
        let req = open_request(pool, seed, r.index);
        checked.record(refs, pool, Some(&req), r.response.as_ref());
    }
    OpenPhase {
        rate,
        recs,
        checked,
    }
}

/// `serve-open`, untraced: the reference rate, then the doubling ladder.
pub fn run_open_workload(bin_dir: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let work = WorkDir::new("open")?;
    let pool = RowPool::new(seed);
    let (dep, setups) = deploy_repeated(Kind::Serve, bin_dir, &work.0, &pool, seed, SETUP_REPS)?;
    let addrs = vec![dep.svc.addr.clone(), dep.svc.addr.clone()];
    let reference = run_open(
        &addrs,
        &pool,
        seed,
        &dep.refs,
        REF_RATE,
        seconds * REF_SHARE,
        0,
    );
    let mut next = reference.recs.len() as u64;
    // The SLO rate is the goodput achieved at the highest passing rate.
    let mut slo_rate = None;
    let mut rungs = Vec::new();
    let mut miss = reference.miss();
    if miss.is_none() {
        slo_rate = Some(reference.goodput());
        let mut rate = REF_RATE;
        let mut left = seconds * (1.0 - REF_SHARE);
        while left >= seconds * RUNG_SHARE - 1e-9 {
            rate *= 2.0;
            let rung = run_open(
                &addrs,
                &pool,
                seed,
                &dep.refs,
                rate,
                seconds * RUNG_SHARE,
                next,
            );
            next += rung.recs.len() as u64;
            left -= seconds * RUNG_SHARE;
            miss = rung.miss();
            if miss.is_none() {
                slo_rate = Some(rung.goodput());
            }
            let passed = miss.is_none();
            rungs.push(rung);
            if !passed {
                break;
            }
        }
    }
    let peak = rss(&dep.svc);
    dep.svc.stop()?;

    // Wrong answers fail the run anywhere; refusals count as failures on
    // the reference rate and on the rungs that passed, while the rung that
    // missed the limit is the overload probe that ends the ladder.
    let passed_rungs = rungs.iter().filter(|r| r.miss().is_none());
    let mut attempted = reference.recs.len() as u64;
    let mut failed = reference.checked.failed();
    for r in passed_rungs {
        attempted += r.recs.len() as u64;
        failed += r.checked.failed();
    }
    let wrong = reference.checked.wrong + rungs.iter().map(|r| r.checked.wrong).sum::<u64>();
    failed += rungs
        .iter()
        .filter(|r| r.miss().is_some())
        .map(|r| r.checked.wrong)
        .sum::<u64>();

    let lat = reference.latencies_ms();
    let ok = reference.checked.succeeded();
    let spans: Vec<(f64, f64)> = reference
        .recs
        .iter()
        .map(|r| {
            (
                r.due_us as f64 / 1e6,
                (r.due_us + r.latency_us) as f64 / 1e6,
            )
        })
        .collect();
    let mut out = Outcome::new(attempted, failed);
    out.wrong = wrong;
    record_setups(&mut out, &setups);
    out.metric("grid_s", block_times_s(&spans));
    out.metric("latency_p50_ms", quantile(&lat, 0.5));
    out.metric("latency_p99_ms", quantile(&lat, 0.99));
    out.metric("throughput_rps", ok as f64 / reference.window_s());
    // When even the reference rate misses the limit, what it achieved.
    out.metric(
        "slo_rate_rps",
        slo_rate.unwrap_or_else(|| reference.goodput()),
    );
    out.metric("peak_rss_mb", peak);
    if reference.fell_behind() {
        out.invalid(format!(
            "generator fell behind at the reference rate (p90 {:.1} ms late)",
            reference.late_ms(0.9)
        ));
    }
    let ladder: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{}/s p99 {:.1} ms",
                r.rate,
                quantile(&r.latencies_ms(), 0.99)
            )
        })
        .collect();
    out.note(format!(
        "reference {REF_RATE}/s: {} requests; ladder [{}]; stopped: {}",
        reference.recs.len(),
        ladder.join(", "),
        miss.unwrap_or_else(|| "run length spent".into())
    ));
    Ok(out)
}

/// Scrape `/metrics` of every serving process (fleet workers summed) and,
/// for a fleet, the front door's own `/metrics`.
fn scrape(dep: &Deployment) -> Result<(Scrape, Scrape), String> {
    if dep.svc.workers.is_empty() {
        return Ok((
            Scrape::parse(&Service::get(&dep.svc.addr, "/metrics")?),
            Scrape::default(),
        ));
    }
    let mut workers = Scrape::default();
    for (_, addr) in &dep.svc.workers {
        workers.add(&Scrape::parse(&Service::get(addr, "/metrics")?));
    }
    Ok((
        workers,
        Scrape::parse(&Service::get(&dep.svc.addr, "/metrics")?),
    ))
}

/// Server-side per-layer metrics from two scrapes, plus the layer check:
/// the predict phases must fit inside the server's request latency.
fn server_layers(out: &mut Outcome, before: &Scrape, after: &Scrape, client_mean_us: f64) {
    let d = after.since(before);
    let phase_us = |p: &str| {
        let n = d.get(&format!("fairlens_phase_seconds_count{{phase=\"{p}\"}}"));
        if n > 0.0 {
            1e6 * d.get(&format!("fairlens_phase_seconds_sum{{phase=\"{p}\"}}")) / n
        } else {
            0.0
        }
    };
    for p in ["parse", "queue", "batch", "predict"] {
        out.metric(&format!("serve.phase.{p}_us"), phase_us(p));
    }
    let lat_n = d.get("fairlens_request_latency_seconds_count");
    let lat_sum = d.get("fairlens_request_latency_seconds_sum");
    let server_mean_us = if lat_n > 0.0 {
        1e6 * lat_sum / lat_n
    } else {
        0.0
    };
    out.metric("serve.request_latency_us", server_mean_us);
    out.metric("serve.unaccounted_us", client_mean_us - server_mean_us);
    let flushes = d.get("fairlens_batch_rows_count");
    let jobs = d.get("fairlens_requests_total{route=\"/v1/predict\",status=\"200\"}");
    out.metric(
        "serve.batch.jobs_per_flush",
        if flushes > 0.0 { jobs / flushes } else { 0.0 },
    );
    out.metric(
        "serve.batch.rows_per_flush",
        if flushes > 0.0 {
            d.get("fairlens_batch_rows_sum") / flushes
        } else {
            0.0
        },
    );
    out.metric("serve.shed", d.sum("fairlens_shed_total"));
    let phase_sum: f64 = ["parse", "queue", "batch", "predict"]
        .iter()
        .map(|p| d.get(&format!("fairlens_phase_seconds_sum{{phase=\"{p}\"}}")))
        .sum();
    if phase_sum > lat_sum * (1.0 + 1e-9) + 1e-6 {
        out.invalid(format!(
            "server phases sum to {phase_sum:.6} s, over the request latency {lat_sum:.6} s"
        ));
    }
}

/// In-process timings of the serve layers' public functions on the
/// phase's own requests and answers: HTTP read and write, JSON parse, and
/// the batcher's submit.
fn inprocess_layers(
    out: &mut Outcome,
    answered: &[(PredictReq, &[u8])],
    pool: &RowPool,
    refs: &Refs,
) {
    let (mut read_us, mut write_us, mut parse_us) = (Vec::new(), Vec::new(), Vec::new());
    let limits = Limits::default();
    for (req, answer) in answered {
        let body = &req.body;
        let bytes = request_bytes("POST", "/v1/predict", body.as_bytes());
        let t0 = Instant::now();
        let req = read_request(&mut Cursor::new(bytes), &limits, |_| false);
        read_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(req.ok());
        let t0 = Instant::now();
        let parsed = parse(body);
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed.ok());
        let mut sink = Vec::with_capacity(answer.len() + 128);
        let t0 = Instant::now();
        let _ = write_response(&mut sink, 200, "application/json", answer, false);
        write_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(sink);
    }
    out.metric("http.read_request_us", mean(&read_us));
    out.metric("http.write_response_us", mean(&write_us));
    out.metric("json.parse_us", mean(&parse_us));

    // The batcher on its own: one executor per model with the server's
    // default batch settings, one job at a time.
    let metrics = Arc::new(Metrics::new());
    let faults = Arc::new(ServeFaults::none());
    let workers: Vec<ModelWorker> = MODELS
        .iter()
        .enumerate()
        .map(|(m, id)| {
            ModelWorker::spawn(
                id,
                refs.schema(m).clone(),
                refs.artifacts[m].restore(),
                BatchConfig::default(),
                metrics.clone(),
                faults.clone(),
            )
        })
        .collect();
    let mut submit_us = Vec::new();
    for (req, _) in answered.iter().take(200) {
        let rows: Vec<Value> = req.rows.iter().map(|&r| pool.row(r).clone()).collect();
        let Ok(data) = refs.schema(req.model).dataset_from_rows(&rows) else {
            continue;
        };
        let (tx, rx) = sync_channel(1);
        let job = PredictJob {
            data,
            reply: tx,
            budget: Budget::new(),
            submitted: Instant::now(),
        };
        let t0 = Instant::now();
        let submitted = workers[req.model].submit(job);
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if submitted.is_ok() {
            let _ = rx.recv();
        }
    }
    out.metric("batcher.submit_us", mean(&submit_us));
}

/// The traced run of a closed-loop workload.
pub fn run_closed_traced(
    kind: Kind,
    bin_dir: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let work = WorkDir::new("closed-traced")?;
    let pool = RowPool::new(seed);
    let (dep, _) = deploy_repeated(kind, bin_dir, &work.0, &pool, seed, 1)?;
    let share = if kind == Kind::Fleet { 0.4 } else { 0.5 };
    let span = Duration::from_secs_f64(seconds * share);
    // Untraced half, then the traced half between two scrapes.
    let a = run_closed(&dep.svc.addr, &pool, seed, &dep.refs, span, 0)?;
    let first_b = a.exchanges.iter().map(|e| e.index + 1).max().unwrap_or(0);
    let (w0, f0) = scrape(&dep)?;
    let b = run_closed(&dep.svc.addr, &pool, seed, &dep.refs, span, first_b)?;
    let (w1, f1) = scrape(&dep)?;

    let mut out = Outcome::new(
        (a.exchanges.len() + b.exchanges.len()) as u64,
        a.checked.failed() + b.checked.failed(),
    );
    out.wrong = a.checked.wrong + b.checked.wrong;
    let client_mean_us = mean(
        &b.exchanges
            .iter()
            .map(|e| e.latency_us as f64)
            .collect::<Vec<_>>(),
    );
    server_layers(&mut out, &w0, &w1, client_mean_us);
    out.metric("client.predict_us", b.mean_us(false));
    out.metric("client.feedback_us", b.mean_us(true));
    out.metric(
        "core.predict_with_proba_us",
        mean(&b.checked.predict_with_proba_us),
    );
    out.metric(
        "bench.trace_overhead_frac",
        median(&b.latencies_ms()) / median(&a.latencies_ms()) - 1.0,
    );

    if kind == Kind::Fleet {
        let d = f1.since(&f0);
        out.metric("fleet.failovers", d.sum("fairlens_fleet_failovers_total"));
        out.metric(
            "fleet.retries",
            d.sum("fairlens_fleet_forward_retries_total"),
        );
        // The same stream, straight to a worker.
        let direct_addr = dep.svc.workers[0].1.clone();
        let c = run_closed(
            &direct_addr,
            &pool,
            seed,
            &dep.refs,
            Duration::from_secs_f64(seconds * 0.2),
            first_b,
        )?;
        out.attempted += c.exchanges.len() as u64;
        out.failed += c.checked.failed();
        out.wrong += c.checked.wrong;
        out.metric(
            "fleet.hop_us",
            1e3 * (median(&b.latencies_ms()) - median(&c.latencies_ms())),
        );
        let backend = Backend::new(&direct_addr).map_err(|e| e.to_string())?;
        let (mut forward_us, mut checked) = (Vec::new(), Checked::default());
        for i in first_b..first_b + 10 {
            let req = closed_request(&pool, seed, i);
            let t0 = Instant::now();
            let resp = backend.roundtrip(
                "POST",
                "/v1/predict",
                req.body.as_bytes(),
                Duration::from_secs(10),
            );
            forward_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let resp = resp.ok().map(|r| Response {
                status: r.status,
                body: r.body,
                close: false,
            });
            checked.record(&dep.refs, &pool, Some(&req), resp.as_ref());
        }
        out.attempted += checked.ok.len() as u64;
        out.failed += checked.failed();
        out.wrong += checked.wrong;
        out.metric("fleet.backend_forward_us", mean(&forward_us));
    }
    dep.svc.stop()?;

    let answered: Vec<(PredictReq, &[u8])> = b
        .exchanges
        .iter()
        .filter(|e| !e.feedback)
        .filter_map(|e| {
            Some((
                closed_request(&pool, seed, e.index),
                e.response.as_ref()?.body.as_slice(),
            ))
        })
        .collect();
    inprocess_layers(&mut out, &answered, &pool, &dep.refs);
    let unaccounted = out.get("serve.unaccounted_us");
    let phases: f64 = ["parse", "queue", "batch", "predict"]
        .iter()
        .map(|p| out.get(&format!("serve.phase.{p}_us")))
        .sum();
    out.note(format!(
        "client mean {client_mean_us:.0} us, server mean {:.0} us, unaccounted {unaccounted:.0} us = {:.1}x the phase sum {phases:.0} us",
        out.get("serve.request_latency_us"),
        unaccounted / phases
    ));
    Ok(out)
}

/// The traced run of `serve-open`: the reference rate twice, untraced and
/// then between two scrapes.
pub fn run_open_traced(bin_dir: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let work = WorkDir::new("open-traced")?;
    let pool = RowPool::new(seed);
    let (dep, _) = deploy_repeated(Kind::Serve, bin_dir, &work.0, &pool, seed, 1)?;
    let addrs = vec![dep.svc.addr.clone(), dep.svc.addr.clone()];
    let a = run_open(&addrs, &pool, seed, &dep.refs, REF_RATE, seconds * 0.45, 0);
    let (w0, _) = scrape(&dep)?;
    let b = run_open(
        &addrs,
        &pool,
        seed,
        &dep.refs,
        REF_RATE,
        seconds * 0.45,
        a.recs.len() as u64,
    );
    let (w1, _) = scrape(&dep)?;
    dep.svc.stop()?;

    let mut out = Outcome::new(
        (a.recs.len() + b.recs.len()) as u64,
        a.checked.failed() + b.checked.failed(),
    );
    out.wrong = a.checked.wrong + b.checked.wrong;
    let client_mean_us = mean(
        &b.recs
            .iter()
            .map(|r| r.latency_us as f64)
            .collect::<Vec<_>>(),
    );
    server_layers(&mut out, &w0, &w1, client_mean_us);
    out.metric("client.predict_us", client_mean_us);
    out.metric(
        "core.predict_with_proba_us",
        mean(&b.checked.predict_with_proba_us),
    );
    out.metric("bench.gen_late_ms", b.late_ms(0.99));
    out.metric(
        "bench.trace_overhead_frac",
        median(&b.latencies_ms()) / median(&a.latencies_ms()) - 1.0,
    );
    for (name, phase) in [("untraced", &a), ("traced", &b)] {
        if phase.fell_behind() {
            out.invalid(format!(
                "generator fell behind in the {name} half (p90 {:.1} ms late)",
                phase.late_ms(0.9)
            ));
        }
    }
    let answered: Vec<(PredictReq, &[u8])> = b
        .recs
        .iter()
        .filter_map(|r| {
            Some((
                open_request(&pool, seed, r.index),
                r.response.as_ref()?.body.as_slice(),
            ))
        })
        .collect();
    inprocess_layers(&mut out, &answered, &pool, &dep.refs);
    out.note(format!(
        "{:.3} jobs per flush, {:.2} rows per flush, p99 generator lateness {:.2} ms",
        out.get("serve.batch.jobs_per_flush"),
        out.get("serve.batch.rows_per_flush"),
        b.late_ms(0.99)
    ));
    Ok(out)
}
