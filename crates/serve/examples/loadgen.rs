//! Keep-alive load generator for the prediction server.
//!
//! Discovers a model from `GET /v1/models` (or takes `--model`), generates
//! schema-valid rows from the model's source synthetic dataset, and drives
//! a deterministic mix of single-row and batch predict requests over
//! several persistent connections, counting statuses. Exits non-zero on
//! any unexpected non-2xx response or transport error, so it doubles as
//! the smoke check in `scripts/check.sh`.
//!
//! Two driving modes:
//!
//! * **Closed loop** (default): one request in flight per connection.
//!   Shed responses (429/503) that carry `Retry-After` are honoured —
//!   the connection sleeps the advertised hint and retries the same
//!   request a few times before counting the shed as final.
//! * **Open loop** (`--open-loop`): each connection pipelines bursts of
//!   `--burst` requests without waiting, deliberately outrunning the
//!   server to exercise admission control. Connections the server closes
//!   (request cap, drain) are reopened and unanswered requests resent.
//!
//! With `--allow-shed`, overload responses (429/503/504) are expected
//! output rather than failures: the run exits 0 as long as every request
//! got *some* well-formed answer. The summary always prints the full
//! status breakdown and the shed rate alongside latency percentiles.
//!
//! The request mix (single vs batch, batch size, which rows) is a pure
//! function of `--seed` and the request index, so two runs with the same
//! seed send byte-identical request streams — the property the record/
//! replay harness builds on.
//!
//! **Feedback** (`--feedback P`, closed loop only): after each answered
//! predict, with deterministic probability `P` (a pure function of
//! `--seed` and the request index), report the rows' true labels from
//! the synthetic source dataset via `POST /v1/feedback`, quoting the
//! `seq` from the predict response. `--feedback-skew` reports the
//! *opposite* of every predicted label instead — maximal disagreement,
//! for driving the server's drift detection into alerting on purpose.
//! Any feedback rejection is a failure (exit non-zero).
//!
//! **Replay mode** (`--replay PATH`): instead of generating traffic,
//! re-send every exchange from a `--record` JSONL log against the live
//! server and diff the answers — status codes always, score bit patterns
//! for recorded 200s. Exits non-zero on the first summary with any diff,
//! naming the first differing request (seq) and both bit patterns.
//!
//! ```text
//! cargo run -p fairlens-serve --example loadgen -- \
//!     --addr 127.0.0.1:8484 [--model ID] [--requests 1000] [--conns 4] \
//!     [--seed 42] [--open-loop] [--burst 16] [--allow-shed] [--shutdown] \
//!     [--feedback P] [--feedback-skew] [--replay recorded.jsonl]
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::process::exit;
use std::time::{Duration, Instant};

use fairlens_core::row_json;
use fairlens_json::{object, parse, Value};
use fairlens_serve::http::{Client, Response};
use fairlens_serve::recorder::score_bits;
use fairlens_synth::{DatasetKind, ALL_DATASETS};

/// Statuses that admission control and breakers legitimately produce
/// under overload; `--allow-shed` accepts them as success for exit-code
/// purposes.
const SHED_STATUSES: [u16; 3] = [429, 503, 504];

/// Connect and read timeout of every connection: well past the server's
/// default 5 s prediction deadline, so only a stalled server trips it.
const TIMEOUT: Duration = Duration::from_secs(30);

struct Args {
    addr: String,
    model: Option<String>,
    requests: usize,
    conns: usize,
    seed: u64,
    open_loop: bool,
    burst: usize,
    allow_shed: bool,
    shutdown: bool,
    replay: Option<String>,
    /// Probability (0..=1) of reporting labels for an answered predict.
    feedback: f64,
    /// Report `1 - predicted` instead of the dataset's true labels.
    feedback_skew: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        model: None,
        requests: 1000,
        conns: 4,
        seed: 42,
        open_loop: false,
        burst: 16,
        allow_shed: false,
        shutdown: false,
        replay: None,
        feedback: 0.0,
        feedback_skew: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", argv[i]);
                exit(2);
            })
        };
        match argv[i].as_str() {
            "--addr" => args.addr = value(i),
            "--model" => args.model = Some(value(i)),
            "--requests" => args.requests = value(i).parse().expect("--requests"),
            "--conns" => args.conns = value(i).parse().expect("--conns"),
            "--seed" => args.seed = value(i).parse().expect("--seed"),
            "--burst" => args.burst = value(i).parse().expect("--burst"),
            "--replay" => args.replay = Some(value(i)),
            "--feedback" => args.feedback = value(i).parse().expect("--feedback"),
            "--feedback-skew" => {
                args.feedback_skew = true;
                i += 1;
                continue;
            }
            "--open-loop" => {
                args.open_loop = true;
                i += 1;
                continue;
            }
            "--allow-shed" => {
                args.allow_shed = true;
                i += 1;
                continue;
            }
            "--shutdown" => {
                args.shutdown = true;
                i += 1;
                continue;
            }
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
        i += 2;
    }
    if args.addr.is_empty() {
        eprintln!("--addr is required");
        exit(2);
    }
    if !(0.0..=1.0).contains(&args.feedback) {
        eprintln!("--feedback wants a probability in 0..=1, got {}", args.feedback);
        exit(2);
    }
    if args.feedback_skew && args.feedback == 0.0 {
        args.feedback = 1.0;
    }
    if args.feedback > 0.0 && args.open_loop {
        eprintln!("--feedback needs the closed loop (each feedback quotes the seq of an already-answered predict); drop --open-loop");
        exit(2);
    }
    args
}

/// SplitMix64 finalizer: one well-mixed word per (seed, index) pair.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic single/batch request body for request index `i`: the
/// shape, batch size, and row choices are all functions of the seed, so
/// `--seed` genuinely selects the request mix (not just the row pool).
/// Also returns which pool rows the body holds, so `--feedback` can look
/// up their true labels.
fn body_for(model_id: &str, rows: &[Value], seed: u64, i: usize) -> (String, Vec<usize>) {
    let h = mix(seed, i as u64);
    let (body, picked) = if h.is_multiple_of(4) {
        let r = (h >> 8) as usize % rows.len();
        let body = object([
            ("model", Value::String(model_id.to_string())),
            ("row", rows[r].clone()),
        ]);
        (body, vec![r])
    } else {
        let n = 2 + ((h >> 16) % 8) as usize;
        let picked: Vec<usize> =
            (0..n).map(|j| ((h >> 24) as usize + j) % rows.len()).collect();
        let batch: Vec<Value> = picked.iter().map(|&r| rows[r].clone()).collect();
        let body = object([
            ("model", Value::String(model_id.to_string())),
            ("rows", Value::Array(batch)),
        ]);
        (body, picked)
    };
    (body.to_json(), picked)
}

/// Per-connection result accumulator.
#[derive(Default)]
struct Tally {
    counts: BTreeMap<u16, usize>,
    latencies_ms: Vec<f64>,
    reconnects: usize,
    retries: usize,
    /// Requests re-sent after a mid-request transport error (reset,
    /// refused, truncated response) — what a worker crash mid-failover
    /// looks like from the client side.
    transport_retries: usize,
    feedback_sent: usize,
    feedback_failed: usize,
}

/// Salt separating the feedback coin flips from the request-mix stream:
/// both are pure functions of (`--seed`, request index), but independent.
const FEEDBACK_SALT: u64 = 0x6665_6564_6261_636b; // "feedback"

/// Closed loop: one request in flight, honouring `Retry-After` on shed.
fn run_closed_loop(
    args: &Args,
    model_id: &str,
    rows: &[Value],
    labels: &[u8],
    c: usize,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = Client::connect(&args.addr, TIMEOUT).expect("connect");
    let mut i = c;
    while i < args.requests {
        let (body, picked) = body_for(model_id, rows, args.seed, i);
        let mut attempts = 0;
        let final_resp = loop {
            let t0 = Instant::now();
            let resp = request_resilient(
                &mut conn,
                &args.addr,
                "POST",
                "/v1/predict",
                &body,
                &mut tally.transport_retries,
            );
            tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            *tally.counts.entry(resp.status).or_insert(0) += 1;
            if conn.closing() {
                tally.reconnects += 1;
                conn = reconnect(&args.addr);
            }
            // A shed with a Retry-After hint: wait as told, retry the
            // same request a few times before accepting the shed.
            let retriable = SHED_STATUSES.contains(&resp.status);
            match resp.retry_after {
                Some(secs) if retriable && attempts < 3 => {
                    attempts += 1;
                    tally.retries += 1;
                    std::thread::sleep(Duration::from_secs(secs.min(2)));
                }
                _ => {
                    if resp.status != 200 {
                        eprintln!("[loadgen] HTTP {}: {}", resp.status, resp.text());
                    }
                    break resp;
                }
            }
        };
        if final_resp.status == 200
            && args.feedback > 0.0
            && ((mix(args.seed ^ FEEDBACK_SALT, i as u64) % 1000) as f64)
                < args.feedback * 1000.0
        {
            send_feedback(args, &mut conn, model_id, &final_resp.text(), &picked, labels, &mut tally);
        }
        i += args.conns;
    }
    tally
}

/// Report labels for one answered predict via `POST /v1/feedback`: the
/// pool's true labels for the rows the request held, or (with
/// `--feedback-skew`) the opposite of every predicted label.
fn send_feedback(
    args: &Args,
    conn: &mut Client,
    model_id: &str,
    predict_body: &str,
    picked: &[usize],
    labels: &[u8],
    tally: &mut Tally,
) {
    let answer = parse(predict_body).expect("predict response JSON");
    let seq = answer
        .get("seq")
        .cloned()
        .and_then(|v| v.into_u64().ok())
        .expect("predict response carries a seq");
    let reported: Vec<u64> = if args.feedback_skew {
        let preds: Vec<u64> = match answer.get("prediction") {
            Some(p) => vec![p.clone().into_u64().expect("prediction")],
            None => answer
                .get("predictions")
                .cloned()
                .and_then(|v| v.into_array().ok())
                .expect("predictions array")
                .into_iter()
                .map(|p| p.into_u64().expect("prediction"))
                .collect(),
        };
        preds.into_iter().map(|p| 1 - p).collect()
    } else {
        picked.iter().map(|&r| u64::from(labels[r])).collect()
    };
    let mut fields = vec![
        ("model", Value::String(model_id.to_string())),
        ("seq", Value::Integer(seq)),
    ];
    if picked.len() == 1 {
        fields.push(("label", Value::Integer(reported[0])));
    } else {
        fields.push((
            "labels",
            Value::Array(reported.into_iter().map(Value::Integer).collect()),
        ));
    }
    let resp = request_resilient(
        conn,
        &args.addr,
        "POST",
        "/v1/feedback",
        &object(fields).to_json(),
        &mut tally.transport_retries,
    );
    tally.feedback_sent += 1;
    if resp.status != 200 {
        tally.feedback_failed += 1;
        eprintln!("[loadgen] feedback HTTP {} for seq {seq}: {}", resp.status, resp.text());
    }
    if conn.closing() {
        tally.reconnects += 1;
        *conn = reconnect(&args.addr);
    }
}

/// Open loop: pipeline bursts without waiting for answers, reopening
/// connections the server closes and resending whatever went unanswered.
fn run_open_loop(args: &Args, model_id: &str, rows: &[Value], c: usize) -> Tally {
    let mut tally = Tally::default();
    let mut conn = Client::connect(&args.addr, TIMEOUT).expect("connect");
    let mut pending: VecDeque<usize> =
        (c..args.requests).step_by(args.conns.max(1)).collect();
    let burst_len = args.burst.max(1);
    while !pending.is_empty() {
        let burst: Vec<usize> =
            (0..burst_len.min(pending.len())).filter_map(|_| pending.pop_front()).collect();
        let t0 = Instant::now();
        let mut wrote = 0;
        for &i in &burst {
            let body = body_for(model_id, rows, args.seed, i).0;
            if conn.send("POST", "/v1/predict", body.as_bytes()).is_err()
            {
                break;
            }
            wrote += 1;
        }
        let mut answered = 0;
        let mut closed = false;
        for _ in 0..wrote {
            match conn.recv() {
                Ok(resp) => {
                    tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    *tally.counts.entry(resp.status).or_insert(0) += 1;
                    answered += 1;
                    if conn.closing() {
                        closed = true;
                        break;
                    }
                }
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if closed || answered < burst.len() {
            // The server closed the connection (request cap, drain) or a
            // response was lost with it: reopen and resend the rest.
            for &i in burst[answered..].iter().rev() {
                pending.push_front(i);
            }
            tally.reconnects += 1;
            assert!(
                tally.reconnects <= 1000,
                "giving up after 1000 reconnects; server keeps dropping us"
            );
            conn = reconnect(&args.addr);
        }
    }
    tally
}

/// Replay a `--record` JSONL log: re-send every exchange and diff the
/// live answers against the recorded ones. Status codes are compared on
/// every entry; score bit patterns only where the recording saw a 200
/// (error bodies carry no scores — those entries are counted as
/// status-only). Shed responses with a `Retry-After` hint are retried a
/// few times first, like the closed loop.
fn run_replay(args: &Args, log_path: &str) -> ! {
    let text = std::fs::read_to_string(log_path).unwrap_or_else(|e| {
        eprintln!("[loadgen] cannot read replay log {log_path}: {e}");
        exit(2);
    });
    let mut conn = Client::connect(&args.addr, TIMEOUT).expect("connect for replay");
    let (mut sent, mut clean, mut status_only, mut diffs) = (0usize, 0usize, 0usize, 0usize);
    let mut transport_retries = 0usize;
    let mut first_diff: Option<String> = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let entry = parse(line).unwrap_or_else(|e| {
            eprintln!("[loadgen] bad replay entry: {e}\n  {line}");
            exit(2);
        });
        let seq = entry.get("seq").cloned().and_then(|v| v.into_u64().ok()).unwrap_or(0);
        let method = entry.get("method").and_then(Value::as_str).unwrap_or("POST").to_string();
        let path = entry.get("path").and_then(Value::as_str).unwrap_or("/v1/predict").to_string();
        let recorded_status =
            entry.get("status").cloned().and_then(|v| v.into_u64().ok()).unwrap_or(0) as u16;
        // String request = a recorded malformed body, replayed verbatim.
        let body = match entry.get("request") {
            Some(Value::String(s)) => s.clone(),
            Some(v) => v.to_json(),
            None => String::new(),
        };
        let recorded_bits: Vec<u64> = entry
            .get("score_bits")
            .cloned()
            .and_then(|v| v.into_array().ok())
            .map(|items| items.into_iter().filter_map(|b| b.into_u64().ok()).collect())
            .unwrap_or_default();

        let mut attempts = 0;
        let resp = loop {
            let resp = request_resilient(
                &mut conn,
                &args.addr,
                &method,
                &path,
                &body,
                &mut transport_retries,
            );
            if conn.closing() {
                conn = reconnect(&args.addr);
            }
            match resp.retry_after {
                Some(secs) if SHED_STATUSES.contains(&resp.status) && attempts < 3 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_secs(secs.min(2)));
                }
                _ => break resp,
            }
        };
        sent += 1;
        let diff = if resp.status != recorded_status {
            Some(format!(
                "seq {seq}: status {recorded_status} recorded, {} live ({})",
                resp.status,
                resp.text()
            ))
        } else if recorded_status == 200 {
            let live_bits = score_bits(&parse(&resp.text()).unwrap_or(Value::Null));
            bits_diff(seq, &recorded_bits, &live_bits)
        } else {
            status_only += 1;
            None
        };
        match diff {
            Some(d) => {
                diffs += 1;
                if first_diff.is_none() {
                    eprintln!("[loadgen] replay diff at {d}");
                    first_diff = Some(d);
                }
            }
            None => clean += 1,
        }
    }
    eprintln!(
        "[loadgen] replayed {sent} exchange(s): {clean} identical \
         ({status_only} status-only), {diffs} diff(s), \
         {transport_retries} transport retry(s)"
    );
    if args.shutdown {
        shutdown(&args.addr);
    }
    if diffs > 0 {
        eprintln!(
            "[loadgen] REPLAY FAILED: first divergence — {}",
            first_diff.as_deref().unwrap_or("?")
        );
        exit(1);
    }
    eprintln!("[loadgen] REPLAY PASS: every response matched the recording");
    exit(0);
}

/// The first differing score between a recorded and a live response.
fn bits_diff(seq: u64, recorded: &[u64], live: &[u64]) -> Option<String> {
    if recorded == live {
        return None;
    }
    let row = recorded.iter().zip(live).position(|(a, b)| a != b).unwrap_or(recorded.len().min(live.len()));
    let fmt = |bits: Option<&u64>| match bits {
        Some(b) => format!("{b:#018x} ({})", f64::from_bits(*b)),
        None => "missing".to_string(),
    };
    Some(format!(
        "seq {seq}: score[{row}] recorded {} vs live {}",
        fmt(recorded.get(row)),
        fmt(live.get(row)),
    ))
}

fn shutdown(addr: &str) {
    let mut conn = Client::connect(addr, TIMEOUT).expect("connect for shutdown");
    let resp = conn.request("POST", "/v1/shutdown", b"").expect("shutdown");
    assert_eq!(resp.status, 200, "shutdown failed: {}", resp.text());
    eprintln!("[loadgen] shutdown acknowledged");
}

fn reconnect(addr: &str) -> Client {
    for _ in 0..50 {
        if let Ok(conn) = Client::connect(addr, TIMEOUT) {
            return conn;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("cannot reconnect to {addr}");
}

/// Send one request, transparently reconnecting and re-sending it on a
/// mid-request transport error (connection reset, refused, truncated
/// response) — exactly what a crashing worker or a failover cutover
/// looks like from the client. Bounded so a server that is actually gone
/// still fails loudly; every re-send is counted so a chaos run reports a
/// retry rate in its summary instead of dying on the first reset.
fn request_resilient(
    conn: &mut Client,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    transport_retries: &mut usize,
) -> Response {
    let mut attempts = 0;
    loop {
        match conn.request(method, path, body.as_bytes()) {
            Ok(resp) => return resp,
            Err(e) => {
                attempts += 1;
                assert!(
                    attempts <= 5,
                    "transport error persists after 5 re-sends of {method} {path} to {addr}: {e}"
                );
                *transport_retries += 1;
                *conn = reconnect(addr);
            }
        }
    }
}

fn main() {
    let args = parse_args();

    if let Some(log_path) = args.replay.clone() {
        run_replay(&args, &log_path);
    }

    // Discover the target model and its source dataset.
    let mut conn = Client::connect(&args.addr, TIMEOUT).expect("connect for model discovery");
    let resp = conn.request("GET", "/v1/models", b"").expect("list models");
    assert_eq!(resp.status, 200, "model listing failed: {}", resp.text());
    let listing = parse(&resp.text()).expect("models JSON");
    let models = listing.get("models").cloned().unwrap().into_array().unwrap();
    let chosen = match &args.model {
        Some(id) => models
            .iter()
            .find(|m| m.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| {
                eprintln!("model {id:?} not served");
                exit(2);
            }),
        None => models
            .iter()
            .find(|m| m.get("status").and_then(Value::as_str) != Some("unloadable"))
            .unwrap_or_else(|| {
                eprintln!("server has no loadable models");
                exit(2);
            }),
    };
    let model_id = chosen.get("id").and_then(Value::as_str).unwrap().to_string();
    let dataset = chosen.get("dataset").and_then(Value::as_str).unwrap().to_string();
    let kind: DatasetKind = *ALL_DATASETS
        .iter()
        .find(|k| k.name() == dataset)
        .unwrap_or_else(|| panic!("unknown source dataset {dataset:?}"));
    let pool = kind.generate(512, args.seed);
    let rows: Vec<Value> = (0..pool.n_rows()).map(|r| row_json(&pool, r)).collect();
    let labels: Vec<u8> = pool.labels().to_vec();
    eprintln!(
        "[loadgen] {} requests over {} connection(s) against {model_id} ({dataset}), {} loop",
        args.requests,
        args.conns,
        if args.open_loop { "open" } else { "closed" },
    );

    // Deterministic request mix, fanned over keep-alive connections.
    let tally: Tally = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..args.conns.max(1) {
            let (args, rows, labels, model_id) = (&args, &rows, &labels, &model_id);
            handles.push(scope.spawn(move || {
                if args.open_loop {
                    run_open_loop(args, model_id, rows, c)
                } else {
                    run_closed_loop(args, model_id, rows, labels, c)
                }
            }));
        }
        let mut total = Tally::default();
        for h in handles {
            let t = h.join().expect("connection thread");
            for (status, n) in t.counts {
                *total.counts.entry(status).or_insert(0) += n;
            }
            total.latencies_ms.extend(t.latencies_ms);
            total.reconnects += t.reconnects;
            total.retries += t.retries;
            total.transport_retries += t.transport_retries;
            total.feedback_sent += t.feedback_sent;
            total.feedback_failed += t.feedback_failed;
        }
        total
    });

    let Tally {
        counts,
        mut latencies_ms,
        reconnects,
        retries,
        transport_retries,
        feedback_sent,
        feedback_failed,
    } = tally;
    let sent: usize = counts.values().sum();
    let ok = counts.get(&200).copied().unwrap_or(0);
    let shed: usize =
        SHED_STATUSES.iter().map(|s| counts.get(s).copied().unwrap_or(0)).sum();
    eprintln!(
        "[loadgen] {sent} response(s): {counts:?} — shed rate {:.1}% ({shed} shed), \
         {reconnects} reconnect(s), {retries} retry-after wait(s), \
         {transport_retries} transport retry(s)",
        100.0 * shed as f64 / sent.max(1) as f64,
    );
    if feedback_sent > 0 {
        eprintln!(
            "[loadgen] feedback: {feedback_sent} report(s) sent{}, {feedback_failed} rejected",
            if args.feedback_skew { " (skewed: opposite of every prediction)" } else { "" },
        );
    }
    if !latencies_ms.is_empty() {
        latencies_ms.sort_by(|a, b| a.total_cmp(b));
        let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
        // Nearest-rank percentile: sorted[ceil(p/100 * n) - 1].
        let pct = |p: f64| {
            let rank = ((p / 100.0 * latencies_ms.len() as f64).ceil() as usize)
                .clamp(1, latencies_ms.len());
            latencies_ms[rank - 1]
        };
        eprintln!(
            "[loadgen] latency ms: mean {mean:.2} p50 {:.2} p95 {:.2} p99 {:.2}",
            pct(50.0),
            pct(95.0),
            pct(99.0)
        );
    }

    if args.shutdown {
        shutdown(&args.addr);
    }

    let unexpected: usize = counts
        .iter()
        .filter(|(s, _)| **s != 200 && !(args.allow_shed && SHED_STATUSES.contains(s)))
        .map(|(_, n)| n)
        .sum();
    if unexpected > 0 {
        eprintln!("[loadgen] FAILED: {unexpected} unexpected non-200 response(s)");
        exit(1);
    }
    if feedback_failed > 0 {
        eprintln!("[loadgen] FAILED: {feedback_failed} feedback report(s) rejected");
        exit(1);
    }
    eprintln!(
        "[loadgen] PASS: {ok} ok, {shed} shed{}",
        if args.allow_shed { " (allowed)" } else { "" },
    );
}
