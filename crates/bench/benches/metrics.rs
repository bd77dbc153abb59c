//! Criterion micro-benchmarks for the evaluation metrics, including the
//! interventional causal-discrimination measurement whose Hoeffding-sized
//! sample dominates the metric-computation cost in Fig. 10.

use criterion::{criterion_group, criterion_main, Criterion};
use fairlens_bench::{metric_suite, PAPER_CD_BOUNDS};
use fairlens_core::baseline_approach;
use fairlens_metrics::{
    causal_discrimination, causal_risk_difference, MetricReport,
};
use fairlens_synth::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_group_metrics(c: &mut Criterion) {
    let kind = DatasetKind::Compas;
    let data = kind.generate(5_000, 3);
    let fitted = baseline_approach().fit(&data, 1).unwrap();
    let preds = fitted.predict(&data);

    c.bench_function("metrics/report_noncausal", |b| {
        b.iter(|| {
            MetricReport::from_predictions(data.labels(), &preds, data.sensitive(), 0.0, 0.0)
        })
    });

    c.bench_function("metrics/crd_propensity", |b| {
        b.iter(|| causal_risk_difference(&data, &preds, kind.resolving_attrs()))
    });
}

fn bench_cd(c: &mut Criterion) {
    let kind = DatasetKind::Compas;
    let data = kind.generate(5_000, 3);
    let fitted = baseline_approach().fit(&data, 1).unwrap();

    let mut group = c.benchmark_group("metrics/cd");
    group.sample_size(10);
    // paper setting: 99 % confidence, 1 % error bound
    group.bench_function("conf99_err1", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            causal_discrimination(&data, |d| fitted.predict(d), 0.99, 0.01, &mut rng)
        })
    });
    group.finish();
}

fn bench_full_suite(c: &mut Criterion) {
    let kind = DatasetKind::German;
    let data = kind.generate(1_000, 3);
    let fitted = baseline_approach().fit(&data, 1).unwrap();
    let mut group = c.benchmark_group("metrics/full_suite");
    group.sample_size(10);
    group.bench_function("german_1000", |b| {
        b.iter(|| metric_suite(&fitted, kind, &data, &fitted.predict(&data), 1, PAPER_CD_BOUNDS))
    });
    group.finish();
}

criterion_group!(benches, bench_group_metrics, bench_cd, bench_full_suite);
criterion_main!(benches);
