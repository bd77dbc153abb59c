//! Prometheus text-format metrics (exposition format 0.0.4), written by
//! one family type for the server and the fleet alike.
//!
//! A [`Family`] is a counter or gauge: a mutexed `BTreeMap` from a typed
//! label tuple ([`Labels`]) to a value, rendered in key order (numeric
//! for worker ids). A [`Histogram`] keeps fixed buckets over atomics, so
//! the batcher's hot path never takes a lock, and sums in integer
//! nano-units, so no observation is truncated. Each family owns its name,
//! help, type and label names and renders its own `# HELP` / `# TYPE`
//! preamble and samples. Every label value passes through one escaper
//! (`\`, `"` and newline), so no model id or client string can break or
//! forge a line. A registry's `render()` is one [`exposition`] loop.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Latency buckets, seconds.
const LATENCY_BUCKETS: &[f64] = &[0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0];
/// Flush-size buckets, rows.
const BATCH_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Predict-request phases, in request order. Must match the span names
/// the handler emits so the trace and the exposition agree.
pub const PREDICT_PHASES: [&str; 4] = ["parse", "queue", "batch", "predict"];

/// A metric family as the exposition sees it.
pub trait Render: Sync {
    /// Append the family's `# HELP` / `# TYPE` preamble and its samples.
    fn render(&self, out: &mut String);
}

/// The exposition of `families`, in order.
pub fn exposition(families: &[&dyn Render]) -> String {
    let mut out = String::with_capacity(2048);
    families.iter().for_each(|f| f.render(&mut out));
    out
}

/// A typed label tuple: the key of one series in a family.
pub trait Labels: Ord + Borrow<Self::Ref> {
    /// What updates look a series up by: `str` for a `String` key, the
    /// key itself otherwise. Only a new series takes an owned key.
    type Ref: Ord + ToOwned<Owned = Self> + ?Sized;
    /// The label values, in the family's label-name order.
    fn values(&self) -> Vec<String>;
}

// `labels!(Key => Ref, |self| values)` implements `Labels` for one key type.
macro_rules! labels {
    ($t:ty => $r:ty, |$s:ident| $values:expr) => {
        impl Labels for $t {
            type Ref = $r;
            fn values(&$s) -> Vec<String> {
                $values
            }
        }
    };
}
labels!(() => (), |self| vec![]);
labels!(String => str, |self| vec![self.clone()]);
labels!(&'static str => &'static str, |self| vec![self.to_string()]);
labels!(usize => usize, |self| vec![self.to_string()]);
labels!(Option<&'static str> => Self, |self| self.iter().map(|v| v.to_string()).collect());
labels!((String, u16) => Self, |self| vec![self.0.clone(), self.1.to_string()]);
labels!((String, &'static str) => Self, |self| vec![self.0.clone(), self.1.to_string()]);
labels!((String, String, String) => Self,
    |self| vec![self.0.clone(), self.1.clone(), self.2.clone()]);

/// A family's identity: everything its preamble and samples name.
struct Desc {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    labels: &'static [&'static str],
}

impl Desc {
    fn preamble(&self, out: &mut String) {
        let Desc { name, help, kind, .. } = self;
        let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
    }

    /// One sample line: `{name}{suffix}`, the escaped label set (omitted
    /// when empty) with `le` last for a histogram bucket, then the value.
    fn sample(&self, out: &mut String, suffix: &str, key: &impl Labels,
              le: Option<&dyn Display>, value: &dyn Display) {
        let escape = |v: String| v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
        let names = self.labels.iter().zip(key.values());
        let mut set: Vec<String> = names.map(|(n, v)| format!("{n}=\"{}\"", escape(v))).collect();
        set.extend(le.map(|le| format!("le=\"{le}\"")));
        let set = if set.is_empty() { String::new() } else { format!("{{{}}}", set.join(",")) };
        let _ = writeln!(out, "{}{suffix}{set} {value}", self.name);
    }
}

/// A counter or gauge family: one value per label tuple `K`.
pub struct Family<K, V = u64> {
    desc: Desc,
    series: Mutex<BTreeMap<K, V>>,
}

impl<K: Labels + Default, V: Copy + Default + AddAssign> Family<K, V> {
    /// A counter family with label names `labels`.
    pub fn counter(name: &'static str, labels: &'static [&'static str], help: &'static str) -> Self {
        Self::new(Desc { name, help, kind: "counter", labels })
    }

    /// A gauge family with label names `labels`.
    pub fn gauge(name: &'static str, labels: &'static [&'static str], help: &'static str) -> Self {
        Self::new(Desc { name, help, kind: "gauge", labels })
    }

    /// An unlabelled family starts with its one series at zero, so it
    /// renders before its first update.
    fn new(desc: Desc) -> Self {
        let seed = desc.labels.is_empty().then(|| (K::default(), V::default()));
        Self { desc, series: Mutex::new(seed.into_iter().collect()) }
    }

    /// The series map, for updates that touch several series at once.
    pub fn series(&self) -> MutexGuard<'_, BTreeMap<K, V>> {
        self.series.lock().expect("metrics lock poisoned")
    }

    fn update(&self, key: &K::Ref, f: impl FnOnce(&mut V)) {
        let mut map = self.series();
        match map.get_mut(key) {
            Some(v) => f(v),
            None => f(map.entry(key.to_owned()).or_default()),
        }
    }

    /// Set the series at `key` to `value`.
    pub fn set(&self, key: &K::Ref, value: V) {
        self.update(key, |v| *v = value);
    }

    /// Add `n` to the series at `key`.
    pub fn add(&self, key: &K::Ref, n: V) {
        self.update(key, |v| *v += n);
    }
}

impl<K: Labels + Default> Family<K> {
    /// Add one to the series at `key`.
    pub fn inc(&self, key: &K::Ref) {
        self.add(key, 1);
    }
}

impl<K: Labels + Send, V: Display + Send> Render for Family<K, V> {
    fn render(&self, out: &mut String) {
        self.desc.preamble(out);
        for (key, value) in self.series.lock().expect("metrics lock poisoned").iter() {
            self.desc.sample(out, "", key, None, value);
        }
    }
}

/// A histogram family: one series per value of its label, or a single
/// series when it has none.
pub struct Histogram {
    desc: Desc,
    bounds: &'static [f64],
    series: Vec<(Option<&'static str>, Series)>,
}

/// One histogram series, all atomics.
#[derive(Default)]
struct Series {
    /// Per-bucket counts; the last bucket lies above every bound (`+Inf`).
    buckets: Vec<AtomicU64>,
    /// Sum in nano-units: integral, so concurrent observes add atomically,
    /// and fine enough that no observation is truncated. A `u64` holds
    /// ~584 years of nanoseconds.
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram with one series per entry of `values` when it has a
    /// label (`labels = &["phase"]`), or a single series when it has none.
    pub fn new(name: &'static str, labels: &'static [&'static str], values: &[&'static str],
               help: &'static str, bounds: &'static [f64]) -> Self {
        let keys: Vec<_> = values.iter().map(|v| Some(*v)).collect();
        let keys = if labels.is_empty() { vec![None] } else { keys };
        let buckets = || (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let series = keys.into_iter().map(|k| (k, Series { buckets: buckets(), ..Series::default() }));
        Self { desc: Desc { name, help, kind: "histogram", labels }, bounds, series: series.collect() }
    }

    /// Observe `v` in the unlabelled series.
    pub fn observe(&self, v: f64) {
        self.observe_in(&self.series[0].1, v);
    }

    /// Observe `v` in the series labelled `value`. Unknown values are
    /// ignored (they still reach the trace, just not the exposition).
    pub fn observe_labelled(&self, value: &str, v: f64) {
        if let Some((_, s)) = self.series.iter().find(|(key, _)| *key == Some(value)) {
            self.observe_in(s, v);
        }
    }

    fn observe_in(&self, s: &Series, v: f64) {
        let bucket = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        s.buckets[bucket].fetch_add(1, Relaxed);
        s.sum_nanos.fetch_add((v.max(0.0) * 1e9).round() as u64, Relaxed);
        s.count.fetch_add(1, Relaxed);
    }
}

impl Render for Histogram {
    fn render(&self, out: &mut String) {
        self.desc.preamble(out);
        for (key, s) in &self.series {
            let les = self.bounds.iter().map(|b| b as &dyn Display).chain([&"+Inf" as &dyn Display]);
            let mut cumulative = 0u64;
            for (le, bucket) in les.zip(&s.buckets) {
                cumulative += bucket.load(Relaxed);
                self.desc.sample(out, "_bucket", key, Some(le), &cumulative);
            }
            let sum = s.sum_nanos.load(Relaxed) as f64 / 1e9;
            self.desc.sample(out, "_sum", key, None, &sum);
            self.desc.sample(out, "_count", key, None, &s.count.load(Relaxed));
        }
    }
}

/// Declare a metric registry: a struct of families, a `new()` that
/// builds them and a `render()` that writes them in declaration order.
#[macro_export]
macro_rules! metric_registry {
    ($(#[$doc:meta])* pub struct $name:ident {
        $($(#[$fdoc:meta])* $vis:vis $field:ident: $ty:ty = $init:expr,)*
    }) => {
        $(#[$doc])*
        pub struct $name {
            $($(#[$fdoc])* $vis $field: $ty,)*
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl $name {
            /// A fresh registry.
            pub fn new() -> Self {
                Self { $($field: $init,)* }
            }

            /// Render the Prometheus text exposition.
            pub fn render(&self) -> String {
                $crate::metrics::exposition(&[$(&self.$field),*])
            }
        }
    };
}

const MODEL: &[&str] = &["model"];

metric_registry! {
    /// The server's metric registry: 19 families. Callers update a family
    /// directly; the methods below keep two families, or one model's
    /// slice of a family, in step.
    pub struct Metrics {
        requests: Family<(String, u16)> = Family::counter("fairlens_requests_total",
            &["route", "status"], "Handled HTTP requests."),
        pub errors: Family<&'static str> = Family::counter("fairlens_errors_total", &["kind"],
            "Structured errors by taxonomy kind."),
        latency: Histogram = Histogram::new("fairlens_request_latency_seconds", &[], &[],
            "Request wall-clock latency.", LATENCY_BUCKETS),
        /// One series per [`PREDICT_PHASES`] entry.
        pub phases: Histogram = Histogram::new("fairlens_phase_seconds", &["phase"], &PREDICT_PHASES,
            "Predict-request time by phase (parse/queue/batch/predict).", LATENCY_BUCKETS),
        batch_rows: Histogram = Histogram::new("fairlens_batch_rows", &[], &[],
            "Rows per batcher flush (one matrix pass each).", BATCH_BUCKETS),
        rows_total: Family<()> = Family::counter("fairlens_predict_rows_total", &[],
            "Predicted rows."),
        pub sheds: Family<&'static str> = Family::counter("fairlens_shed_total", &["reason"],
            "Requests shed by admission control, by reason."),
        pub queue_depth: Family<String> = Family::gauge("fairlens_queue_depth", MODEL,
            "Jobs queued per model executor."),
        breaker_state: Family<String> = Family::gauge("fairlens_breaker_state", MODEL,
            "Circuit-breaker state per model (0 closed, 1 half-open, 2 open)."),
        pub breaker_opens: Family<String> = Family::counter("fairlens_breaker_opens_total", MODEL,
            "Breaker trips (transitions to open)."),
        shadow_compared: Family<String> = Family::counter("fairlens_shadow_compared_total", MODEL,
            "Requests scored by both the incumbent and its shadow candidate."),
        shadow_divergence: Family<String> = Family::counter("fairlens_shadow_divergence_total",
            MODEL, "Shadow comparisons where the candidate's scores differed from the incumbent's."),
        live: Family<(String, String, String), f64> = Family::gauge("fairlens_live_metric",
            &["model", "metric", "group"],
            "Windowed live fairness/correctness metrics over scored traffic."),
        pub drift: Family<String> = Family::gauge("fairlens_drift_state", MODEL,
            "Live-vs-training drift status per model (0 ok, 1 warning, 2 alerting)."),
        pub feedback: Family<(String, &'static str)> = Family::counter("fairlens_feedback_total",
            &["model", "status"], "Outcome-label reports via POST /v1/feedback, by status."),
        pub inflight: Family<()> = Family::gauge("fairlens_inflight", &[],
            "Predict requests currently in flight."),
        pub load_failures: Family<()> = Family::counter("fairlens_model_load_failures_total", &[],
            "Artifact load failures (quarantines)."),
        pub models_loaded: Family<()> = Family::gauge("fairlens_models_loaded", &[],
            "Models resident in the registry."),
        pub evictions: Family<()> = Family::counter("fairlens_model_evictions_total", &[],
            "LRU evictions."),
    }
}

impl Metrics {
    /// Count one handled request and its wall-clock latency.
    pub fn record_request(&self, route: &str, status: u16, latency_secs: f64) {
        self.requests.inc(&(route.to_string(), status));
        self.latency.observe(latency_secs);
    }

    /// Record one batcher flush of `rows` rows.
    pub fn record_flush(&self, rows: usize) {
        self.batch_rows.observe(rows as f64);
        self.rows_total.add(&(), rows as u64);
    }

    /// Track one model's breaker state (0 closed / 1 half-open / 2 open).
    /// A model with a breaker also reports its opens counter, from zero.
    pub fn set_breaker_state(&self, model: &str, gauge: u64) {
        self.breaker_state.set(model, gauge);
        self.breaker_opens.add(model, 0);
    }

    /// Count one shadow comparison for `model`, and whether the candidate
    /// diverged from the incumbent on it.
    pub fn record_shadow_compare(&self, model: &str, diverged: bool) {
        self.shadow_compared.inc(model);
        self.shadow_divergence.add(model, u64::from(diverged));
    }

    /// Publish the full live-metric suite for one model, replacing the
    /// previous snapshot (metrics that left the suite — e.g. a group
    /// vanished from the window — must disappear from the exposition).
    pub fn set_live_metrics(&self, model: &str, values: &[(&str, &str, f64)]) {
        let mut map = self.live.series();
        map.retain(|(m, _, _), _| m != model);
        for &(metric, group, value) in values {
            map.insert((model.to_string(), metric.to_string(), group.to_string()), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_render() {
        let m = Metrics::new();
        m.record_request("/v1/predict", 200, 0.003);
        m.record_request("/v1/predict", 200, 0.3);
        m.record_request("/v1/predict", 400, 0.0001);
        m.errors.inc(&"bad_request");
        m.phases.observe_labelled("queue", 0.002);
        m.phases.observe_labelled("queue", 0.004);
        m.phases.observe_labelled("predict", 0.05);
        m.phases.observe_labelled("not-a-phase", 1.0); // ignored, not a panic
        m.record_flush(3);
        m.record_flush(200);
        m.models_loaded.set(&(), 2);
        m.evictions.inc(&());
        let text = m.render();
        assert!(text.contains(
            "fairlens_requests_total{route=\"/v1/predict\",status=\"200\"} 2"
        ));
        assert!(text.contains(
            "fairlens_requests_total{route=\"/v1/predict\",status=\"400\"} 1"
        ));
        assert!(text.contains("fairlens_errors_total{kind=\"bad_request\"} 1"));
        assert!(text.contains("fairlens_request_latency_seconds_count 3"));
        // 0.0001 and 0.003 fall below 0.005; 0.3 only in +Inf
        assert!(text.contains("fairlens_request_latency_seconds_bucket{le=\"0.005\"} 2"));
        assert!(text.contains("fairlens_request_latency_seconds_bucket{le=\"+Inf\"} 3"));
        // Labelled phase series share one HELP/TYPE family.
        assert_eq!(text.matches("# TYPE fairlens_phase_seconds histogram").count(), 1);
        assert!(text.contains("fairlens_phase_seconds_bucket{phase=\"queue\",le=\"0.005\"} 2"));
        assert!(text.contains("fairlens_phase_seconds_count{phase=\"queue\"} 2"));
        assert!(text.contains("fairlens_phase_seconds_count{phase=\"predict\"} 1"));
        assert!(text.contains("fairlens_phase_seconds_count{phase=\"parse\"} 0"));
        assert!(!text.contains("not-a-phase"));
        assert!(text.contains("fairlens_batch_rows_bucket{le=\"4\"} 1"));
        assert!(text.contains("fairlens_batch_rows_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fairlens_batch_rows_sum 203"));
        assert!(text.contains("fairlens_predict_rows_total 203"));
        assert!(text.contains("fairlens_models_loaded 2"));
        assert!(text.contains("fairlens_model_evictions_total 1"));
    }

    #[test]
    fn overload_and_breaker_series_render() {
        let m = Metrics::new();
        m.sheds.inc(&"queue_full");
        m.sheds.inc(&"queue_full");
        m.sheds.inc(&"inflight");
        m.queue_depth.set("german-lr", 3);
        m.queue_depth.set("german-lr", 1); // gauge keeps the latest value
        m.set_breaker_state("german-lr", 2);
        m.breaker_opens.inc("german-lr");
        m.inflight.set(&(), 5);
        m.load_failures.inc(&());
        m.record_shadow_compare("german-lr", false);
        m.record_shadow_compare("german-lr", true);
        let text = m.render();
        assert!(text.contains("fairlens_shed_total{reason=\"queue_full\"} 2"), "{text}");
        assert!(text.contains("fairlens_shed_total{reason=\"inflight\"} 1"));
        assert!(text.contains("fairlens_queue_depth{model=\"german-lr\"} 1"));
        assert!(text.contains("fairlens_breaker_state{model=\"german-lr\"} 2"));
        assert!(text.contains("fairlens_breaker_opens_total{model=\"german-lr\"} 1"));
        assert!(text.contains("fairlens_inflight 5"));
        assert!(text.contains("fairlens_model_load_failures_total 1"));
        assert!(text.contains("fairlens_shadow_compared_total{model=\"german-lr\"} 2"));
        assert!(text.contains("fairlens_shadow_divergence_total{model=\"german-lr\"} 1"));
    }

    #[test]
    fn monitor_series_render_and_replace() {
        let m = Metrics::new();
        m.set_live_metrics(
            "german-lr",
            &[("di_star", "all", 0.75), ("pos_rate", "0", 0.5), ("pos_rate", "1", 0.375)],
        );
        m.drift.set("german-lr", 0);
        m.feedback.inc(&("german-lr".to_string(), "ok"));
        m.feedback.inc(&("german-lr".to_string(), "ok"));
        m.feedback.inc(&("german-lr".to_string(), "duplicate"));
        let text = m.render();
        assert!(text.contains(
            "fairlens_live_metric{model=\"german-lr\",metric=\"di_star\",group=\"all\"} 0.75"
        ), "{text}");
        assert!(text.contains(
            "fairlens_live_metric{model=\"german-lr\",metric=\"pos_rate\",group=\"1\"} 0.375"
        ));
        assert!(text.contains("fairlens_drift_state{model=\"german-lr\"} 0"));
        assert!(text.contains("fairlens_feedback_total{model=\"german-lr\",status=\"ok\"} 2"));
        assert!(text.contains(
            "fairlens_feedback_total{model=\"german-lr\",status=\"duplicate\"} 1"
        ));
        // A new snapshot replaces the model's whole live suite.
        m.set_live_metrics("german-lr", &[("di_star", "all", 0.8)]);
        m.drift.set("german-lr", 2);
        let text = m.render();
        assert!(text.contains(
            "fairlens_live_metric{model=\"german-lr\",metric=\"di_star\",group=\"all\"} 0.8"
        ));
        assert!(!text.contains("pos_rate"), "stale series must be dropped");
        assert!(text.contains("fairlens_drift_state{model=\"german-lr\"} 2"));
    }

    /// A fixed event sequence touching all 19 families, with values whose
    /// sums are exact in both micro- and nano-units and label values that
    /// need no escaping, so the bytes predate the one-writer refactor.
    #[test]
    fn exposition_bytes_are_pinned() {
        let m = Metrics::new();
        m.record_request("/v1/predict", 200, 0.0625);
        m.record_request("/v1/predict", 200, 0.5);
        m.record_request("/healthz", 200, 0.0);
        m.record_request("parse-error", 400, 2.0);
        m.errors.inc(&"bad_request");
        m.errors.inc(&"unknown_model");
        for (phase, secs) in
            [("parse", 0.0625), ("queue", 0.125), ("batch", 0.25), ("predict", 0.5), ("predict", 4.0)]
        {
            m.phases.observe_labelled(phase, secs);
        }
        m.record_flush(3);
        m.record_flush(200);
        m.models_loaded.set(&(), 2);
        m.evictions.inc(&());
        m.sheds.inc(&"queue_full");
        m.sheds.inc(&"queue_full");
        m.sheds.inc(&"inflight");
        m.queue_depth.set("german-lr", 3);
        m.queue_depth.set("adult-feld", 0);
        m.set_breaker_state("german-lr", 2);
        m.breaker_opens.inc("german-lr");
        m.set_breaker_state("adult-feld", 0);
        m.record_shadow_compare("german-lr", true);
        m.record_shadow_compare("german-lr", false);
        m.inflight.set(&(), 5);
        m.load_failures.inc(&());
        m.set_live_metrics(
            "german-lr",
            &[("di_star", "all", 0.75), ("pos_rate", "0", 0.5), ("pos_rate", "1", 0.375)],
        );
        m.drift.set("german-lr", 1);
        m.drift.set("adult-feld", 0);
        m.feedback.inc(&("german-lr".to_string(), "ok"));
        m.feedback.inc(&("german-lr".to_string(), "ok"));
        m.feedback.inc(&("german-lr".to_string(), "duplicate"));
        let text = m.render();
        assert_eq!(text, include_str!("testdata/metrics.prom"));
        assert_preambles(&text, 19);
    }

    #[test]
    fn histogram_sum_keeps_sub_microsecond_parts() {
        let m = Metrics::new();
        for _ in 0..10 {
            m.phases.observe_labelled("predict", 3.8e-6);
        }
        let text = m.render();
        assert!(text.contains("fairlens_phase_seconds_sum{phase=\"predict\"} 0.000038\n"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let m = Metrics::new();
        m.queue_depth.set("a\"b\\c\nd", 1);
        m.feedback.inc(&("x\ny".to_string(), "ok"));
        let text = m.render();
        assert!(text.contains("fairlens_queue_depth{model=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
        assert!(text.contains("fairlens_feedback_total{model=\"x\\ny\",status=\"ok\"} 1\n"));
        assert_preambles(&text, 19);
    }

    /// Every family has one `# HELP`, then one `# TYPE`, before its samples.
    fn assert_preambles(text: &str, families: usize) {
        assert!(text.starts_with("# HELP "), "samples before the first preamble");
        let blocks: Vec<&str> = text.split("# HELP ").skip(1).collect();
        assert_eq!(blocks.len(), families);
        for block in blocks {
            let name = block.split(' ').next().unwrap();
            assert_eq!(text.matches(&format!("# HELP {name} ")).count(), 1, "{name}");
            let mut lines = block.lines().skip(1);
            assert!(lines.next().is_some_and(|t| t.starts_with(&format!("# TYPE {name} "))));
            assert!(lines.all(|l| l.starts_with(name) && !l.starts_with('#')), "{name}");
        }
    }
}
