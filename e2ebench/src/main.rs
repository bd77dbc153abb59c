//! `e2ebench` — the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR
//! ```
//!
//! Workloads: `offline-fig10`, `serve-closed`, `serve-open`, `fleet-closed`
//! (see README.md beside this crate). `--bin-dir` holds the release
//! builds of `export_models`, `fairlens-serve` and `fairlens-fleet`.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Lines before it summarise the run.

mod client;
mod gen;
mod offline;
mod procs;
mod prom;
mod serving;
mod stats;

use std::path::PathBuf;
use std::process::exit;

use fairlens_json::{object, Value};

use procs::Kind;

const USAGE: &str =
    "usage: e2ebench --workload offline-fig10|serve-closed|serve-open|fleet-closed \
                     --seed N --seconds S --trace 0|1 --bin-dir DIR";

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = [
    "offline-fig10",
    "serve-closed",
    "serve-open",
    "fleet-closed",
];

/// End-to-end metrics (`--trace 0`), each reported on every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("grid_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("slo_rate_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), each reported on every workload; a
/// layer the workload does not run reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("synth.generate_ms".into(), "ms")];
    for (_, slug) in offline::APPROACH_SLUGS {
        m.push((format!("core.fit_ms.{slug}"), "ms"));
    }
    for stage in offline::STAGES {
        m.push((format!("core.fit_ms.{stage}"), "ms"));
    }
    for (name, unit) in [
        ("core.fit_ms", "ms"),
        ("core.predict_ms", "ms"),
        ("optim.gd_iterations", "count"),
        ("optim.gd_converged", "count"),
        ("solver.nmf_iterations", "count"),
        ("metrics.suite_ms", "ms"),
        ("http.read_request_us", "us"),
        ("http.write_response_us", "us"),
        ("json.parse_us", "us"),
        ("serve.phase.parse_us", "us"),
        ("serve.request_latency_us", "us"),
        ("serve.unaccounted_us", "us"),
        ("serve.phase.queue_us", "us"),
        ("serve.phase.batch_us", "us"),
        ("serve.batch.jobs_per_flush", "jobs/flush"),
        ("serve.batch.rows_per_flush", "rows/flush"),
        ("serve.shed", "count"),
        ("serve.phase.predict_us", "us"),
        ("core.predict_with_proba_us", "us"),
        ("batcher.submit_us", "us"),
        ("client.predict_us", "us"),
        ("client.feedback_us", "us"),
        ("fleet.hop_us", "us"),
        ("fleet.backend_forward_us", "us"),
        ("fleet.failovers", "count"),
        ("fleet.retries", "count"),
        ("bench.gen_late_ms", "ms"),
        ("bench.trace_overhead_frac", "frac"),
        ("bench.layer_sum_frac", "frac"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// What one run measured.
pub struct Outcome {
    /// Operations attempted (cells, or requests).
    pub attempted: u64,
    /// Operations that failed: non-2xx, transport errors, failed cells and
    /// wrong outputs.
    pub failed: u64,
    /// Outputs that were wrong (a subset of `failed`).
    pub wrong: u64,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    invalid: Vec<String>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            wrong: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            invalid: Vec::new(),
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// A recorded metric; 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// A summary line for the human reader.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Mark the run invalid (its measurements cannot be trusted).
    pub fn invalid(&mut self, why: String) {
        self.invalid.push(why);
    }

    /// The result's `correct`: no wrong output and a valid run.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.invalid.is_empty()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (seed, secs, bins) = (args.seed, args.seconds, args.bin_dir.as_path());
    match (args.workload.as_str(), args.trace) {
        ("offline-fig10", false) => Ok(offline::run(seed, secs)),
        ("offline-fig10", true) => Ok(offline::run_traced(seed, secs)),
        ("serve-closed", false) => serving::run_closed_workload(Kind::Serve, bins, seed, secs),
        ("serve-closed", true) => serving::run_closed_traced(Kind::Serve, bins, seed, secs),
        ("fleet-closed", false) => serving::run_closed_workload(Kind::Fleet, bins, seed, secs),
        ("fleet-closed", true) => serving::run_closed_traced(Kind::Fleet, bins, seed, secs),
        ("serve-open", false) => serving::run_open_workload(bins, seed, secs),
        ("serve-open", true) => serving::run_open_traced(bins, seed, secs),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });
    let outcome = run(&args).unwrap_or_else(|e| {
        eprintln!("[e2ebench] {} failed: {e}", args.workload);
        exit(1);
    });

    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    println!(
        "e2ebench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, unit) in &wanted {
        let value = match outcome.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!(
                    "[e2ebench] internal error: {} reported no {name}",
                    args.workload
                );
                exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("[e2ebench] {name} is not finite ({value})");
            exit(1);
        }
        println!("  {name:<28} {value:>14.4} {unit}");
        metrics.push((
            name.clone(),
            object([
                ("value", Value::Number(value)),
                ("unit", Value::String((*unit).into())),
            ]),
        ));
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<28} {failed_frac:>14.4} ({} of {} operations)",
        "failed_frac", outcome.failed, outcome.attempted
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for why in &outcome.invalid {
        println!("  INVALID: {why}");
    }
    let result = object([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Integer(outcome.attempted.max(1))),
        ("failed", Value::Integer(outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_json::parse;

    fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .cloned()
            .and_then(|a| a.into_array().ok())
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_and_units(&v, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_and_units(&v, "per_layer"), layers);
        let workloads: Vec<String> = names_and_units(&v, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
