//! `offline-fig10`: the runner's Fig. 10 cell grid — all 19 approaches on
//! German at quick scale (1 000 rows), one fold, one runner thread —
//! repeated on seed-derived experiment seeds until the run length is spent.
//!
//! Both runs drive the runner, the path `fig10_correctness_fairness`
//! takes. The traced run hands it the benchmark's own `TraceSink`: the
//! runner's `data/...` tracks time synth and split, its `cell/...` tracks
//! time the metric suite and carry the solvers' `gd.*`/`nmf.*` counters,
//! and its records time each `Approach::fit` and `FittedPipeline::predict`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fairlens_bench::{ApproachSelector, ExperimentSpec, RunBatch, RunPolicy, Runner, ScaleSpec};
use fairlens_synth::DatasetKind;
use fairlens_trace::{TraceEvent, TraceSink};

use crate::gen::{derive, salt};
use crate::stats::{median, quantile};
use crate::Outcome;

const KIND: DatasetKind = DatasetKind::German;
/// Set-ups timed before each grid pass; `setup_s` is the median of all
/// of a run's set-ups, so they sample the whole run as the grids do.
const SETUPS_PER_GRID: u64 = 5;

/// Registry names of the grid's approaches → metric slugs, grid order.
pub const APPROACH_SLUGS: [(&str, &str); 19] = [
    ("LR", "lr"),
    ("KamCal^DP", "kamcal-dp"),
    ("Feld^DP(1.0)", "feld-dp-1-0"),
    ("Feld^DP(0.6)", "feld-dp-0-6"),
    ("Calmon^DP", "calmon-dp"),
    ("ZhaWu^PSF", "zhawu-psf"),
    ("Salimi^JF(MaxSAT)", "salimi-jf-maxsat"),
    ("Salimi^JF(MatFac)", "salimi-jf-matfac"),
    ("Zafar^DP_Fair", "zafar-dp-fair"),
    ("Zafar^DP_Acc", "zafar-dp-acc"),
    ("Zafar^EO_Fair", "zafar-eo-fair"),
    ("ZhaLe^EO", "zhale-eo"),
    ("Kearns^PE", "kearns-pe"),
    ("Celis^PP", "celis-pp"),
    ("Thomas^DP", "thomas-dp"),
    ("Thomas^EO", "thomas-eo"),
    ("KamKar^DP", "kamkar-dp"),
    ("Hardt^EO", "hardt-eo"),
    ("Pleiss^EOP", "pleiss-eop"),
];

/// The stage labels `core.fit_ms.<stage>` sums over.
pub const STAGES: [&str; 4] = ["baseline", "pre", "in", "post"];

fn spec(seed: u64, rep: u64) -> ExperimentSpec {
    ExperimentSpec::new(derive(seed, salt::GRID, rep))
        .datasets([KIND])
        .scale(ScaleSpec::Quick)
        .folds(1)
}

/// Nine metrics, each finite and in [0, 1].
fn metrics_ok(values: &[f64]) -> bool {
    values.len() == 9
        && values
            .iter()
            .all(|v| v.is_finite() && (0.0..=1.0).contains(v))
}

/// Cells over the grids of a run. A cell fails when its fit failed or
/// its metrics are not nine finite values in [0, 1]; a failed cell is a
/// wrong output.
#[derive(Default)]
struct Cells {
    attempted: u64,
    passed: u64,
}

impl Cells {
    fn add(&mut self, batch: &RunBatch) {
        self.attempted += (batch.records.len() + batch.failures.len()) as u64;
        self.passed += batch
            .records
            .iter()
            .filter(|r| r.metrics.as_ref().is_some_and(|m| metrics_ok(m)))
            .count() as u64;
    }

    fn outcome(&self) -> Outcome {
        let failed = self.attempted - self.passed;
        let mut out = Outcome::new(self.attempted, failed);
        out.wrong = failed;
        out
    }
}

/// One grid through the runner: (wall seconds, the batch).
fn grid(seed: u64, rep: u64, policy: &RunPolicy) -> (f64, RunBatch) {
    let spec = spec(seed, rep);
    let t0 = Instant::now();
    let batch = Runner::new(1).run_with(&spec, policy);
    (t0.elapsed().as_secs_f64(), batch)
}

/// The grid's spec with no cells: running it, the runner only
/// materialises the dataset and its fold split.
fn setup_spec(seed: u64, rep: u64) -> ExperimentSpec {
    spec(seed, rep)
        .approaches(ApproachSelector::Named(Vec::new()))
        .baseline(false)
}

/// The grid's shared set-up on its own, seconds.
fn setup_s(seed: u64, rep: u64) -> f64 {
    let spec = setup_spec(seed, rep);
    let t0 = Instant::now();
    std::hint::black_box(Runner::new(1).run(&spec));
    t0.elapsed().as_secs_f64()
}

/// Untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let (mut setup, mut grids, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut cells = Cells::default();
    let mut rep = 0;
    while rep == 0 || started.elapsed() < budget {
        let first = rep * SETUPS_PER_GRID;
        setup.extend((first..first + SETUPS_PER_GRID).map(|i| setup_s(seed, i)));
        let (wall, batch) = grid(seed, rep, &RunPolicy::default());
        grids.push(wall);
        let passed = cells.passed;
        cells.add(&batch);
        rates.push((cells.passed - passed) as f64 / wall);
        rep += 1;
    }
    // The offline operation is one grid pass: its latency is the grid's
    // wall time, and its throughput the grid's correct cells per second.
    // A batch has no latency limit, so its SLO rate is that same rate.
    let grid_ms: Vec<f64> = grids.iter().map(|s| s * 1e3).collect();
    let mut out = cells.outcome();
    out.metric("setup_s", median(&setup));
    out.metric("grid_s", median(&grids));
    out.metric("latency_p50_ms", median(&grid_ms));
    out.metric("latency_p99_ms", quantile(&grid_ms, 0.99));
    out.metric("throughput_rps", median(&rates));
    out.metric("slo_rate_rps", median(&rates));
    out.metric("peak_rss_mb", crate::procs::peak_rss_mb(std::process::id()));
    let list: Vec<String> = grid_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    out.note(format!(
        "{rep} grid(s) of {} cells, ms: {}",
        APPROACH_SLUGS.len(),
        list.join(" ")
    ));
    out
}

/// Per-grid sums of the traced layers.
#[derive(Default)]
struct Layers {
    synth_ms: f64,
    fit_ms: BTreeMap<String, f64>,
    stage_ms: BTreeMap<String, f64>,
    predict_ms: f64,
    suite_ms: f64,
    gd_iterations: u64,
    gd_converged: u64,
    nmf_iterations: u64,
}

impl Layers {
    /// Add one traced grid: fit and predict times from its records, the
    /// rest from its tracks.
    fn add(&mut self, batch: &RunBatch, sink: &TraceSink) {
        for r in &batch.records {
            *self.fit_ms.entry(r.approach.clone()).or_default() += r.fit_ms;
            *self.stage_ms.entry(r.stage.clone()).or_default() += r.fit_ms;
            self.predict_ms += r.predict_ms;
        }
        for track in sink.tracks() {
            let data = track.track.starts_with("data/");
            for event in &track.events {
                match event {
                    TraceEvent::Exit { name, dur_us, .. } if data && name == "synth" => {
                        self.synth_ms += *dur_us as f64 / 1e3
                    }
                    TraceEvent::Exit { name, dur_us, .. } if name == "metrics" => {
                        self.suite_ms += *dur_us as f64 / 1e3
                    }
                    TraceEvent::Counter { name, value } if name == "gd.iterations" => {
                        self.gd_iterations += value
                    }
                    TraceEvent::Counter { name, value } if name == "nmf.iterations" => {
                        self.nmf_iterations += value
                    }
                    TraceEvent::Point { name, .. } if name == "gd.converged" => {
                        self.gd_converged += 1
                    }
                    _ => {}
                }
            }
        }
    }

    fn fit_total(&self) -> f64 {
        self.fit_ms.values().sum()
    }
}

/// Traced run: every per-layer metric the offline grid moves.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut layers = Layers::default();
    let mut cells = Cells::default();
    let (mut grids, mut overheads) = (Vec::new(), Vec::new());
    let mut rep = 0u64;
    while rep == 0 || started.elapsed() < budget {
        // Each traced grid follows the untraced grid on the same seed;
        // their ratio is the tracing overhead.
        let (untraced_s, batch) = grid(seed, rep, &RunPolicy::default());
        cells.add(&batch);
        let sink = TraceSink::new();
        let policy = RunPolicy {
            trace: Some(sink.clone()),
            ..RunPolicy::default()
        };
        let (traced_s, batch) = grid(seed, rep, &policy);
        cells.add(&batch);
        layers.add(&batch, &sink);
        grids.push(traced_s);
        overheads.push(traced_s / untraced_s - 1.0);
        rep += 1;
    }

    let n = grids.len() as f64;
    let per_grid = |v: f64| v / n;
    let fit_total = layers.fit_total();
    let layer_sum_ms = layers.synth_ms + fit_total + layers.predict_ms + layers.suite_ms;
    let grid_ms: f64 = grids.iter().sum::<f64>() * 1e3;
    let layer_sum_frac = layer_sum_ms / grid_ms;
    let fit_of = |name: &str| layers.fit_ms.get(name).copied().unwrap_or(0.0);

    let mut out = cells.outcome();
    out.metric("synth.generate_ms", per_grid(layers.synth_ms));
    for (name, s) in APPROACH_SLUGS {
        out.metric(&format!("core.fit_ms.{s}"), per_grid(fit_of(name)));
    }
    for stage in STAGES {
        out.metric(
            &format!("core.fit_ms.{stage}"),
            per_grid(layers.stage_ms.get(stage).copied().unwrap_or(0.0)),
        );
    }
    out.metric("core.fit_ms", per_grid(fit_total));
    out.metric("core.predict_ms", per_grid(layers.predict_ms));
    out.metric("optim.gd_iterations", per_grid(layers.gd_iterations as f64));
    out.metric("optim.gd_converged", per_grid(layers.gd_converged as f64));
    out.metric(
        "solver.nmf_iterations",
        per_grid(layers.nmf_iterations as f64),
    );
    out.metric("metrics.suite_ms", per_grid(layers.suite_ms));
    out.metric("bench.layer_sum_frac", layer_sum_frac);
    out.metric("bench.trace_overhead_frac", median(&overheads));
    // Layer-sum check: synth + fit + predict + metrics must account for
    // the traced grid's wall time.
    if !(0.95..=1.0 + 1e-9).contains(&layer_sum_frac) {
        out.invalid(format!(
            "layer sum {layer_sum_ms:.1} ms is {layer_sum_frac:.4} of the traced grid"
        ));
    }
    let zafar_thomas: f64 = APPROACH_SLUGS
        .iter()
        .filter(|(n, _)| n.starts_with("Zafar") || n.starts_with("Thomas"))
        .map(|(n, _)| fit_of(n))
        .sum();
    out.note(format!(
        "{rep} traced grid(s); Zafar+Thomas fits are {:.1} % of core.fit_ms ({:.0} ms per grid)",
        100.0 * zafar_thomas / fit_total,
        per_grid(fit_total)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_bench::RunRecord;

    #[test]
    fn every_grid_approach_has_a_slug() {
        let names: Vec<String> = spec(1, 0)
            .cells()
            .iter()
            .map(|c| {
                c.approach
                    .as_ref()
                    .expect("registry approach")
                    .name
                    .to_string()
            })
            .collect();
        let slugs: Vec<&str> = APPROACH_SLUGS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, slugs);
        assert!(setup_spec(1, 0).cells().is_empty());
    }

    #[test]
    fn metric_gate_rejects_out_of_range_values() {
        assert!(metrics_ok(&[0.5; 9]));
        assert!(!metrics_ok(&[0.5; 8]));
        let mut v = [0.5; 9];
        v[3] = f64::NAN;
        assert!(!metrics_ok(&v));
        v[3] = 1.5;
        assert!(!metrics_ok(&v));
    }

    fn record(metrics: [f64; 9]) -> RunRecord {
        RunRecord {
            approach: "LR".into(),
            stage: "baseline".into(),
            dataset: "German".into(),
            fold: 0,
            seed: 1,
            rows: 1000,
            attrs: 9,
            metrics: Some(metrics),
            fit_ms: 1.0,
            predict_ms: 1.0,
            attempts: 1,
        }
    }

    #[test]
    fn a_bad_cell_makes_the_run_incorrect() {
        let mut good = Cells::default();
        good.add(&RunBatch {
            records: vec![record([0.5; 9]); 3],
            ..RunBatch::default()
        });
        let out = good.outcome();
        assert!(out.correct());
        assert_eq!((out.attempted, out.failed), (3, 0));

        let mut nan = [0.5; 9];
        nan[0] = f64::NAN;
        let mut bad = Cells::default();
        bad.add(&RunBatch {
            records: vec![record([0.5; 9]), record(nan)],
            ..RunBatch::default()
        });
        let out = bad.outcome();
        assert!(!out.correct(), "a NaN metric passed as correct");
        assert_eq!((out.attempted, out.failed, out.wrong), (2, 1, 1));
    }
}
