//! Microbenchmarks of the hot paths.
//!
//! `predictor_inference/N` is the genuine Fig. 23 measurement: the latency
//! of one batched duration prediction at N search ways on this host's CPU
//! (the paper measures 0.066–0.088 ms on one core of its testbed).

use bench::Fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{run_group, NoiseModel};
use predictor::LatencyModel;
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let fx = Fixture::new();
    let streams: Vec<Vec<gpu_sim::KernelDesc>> = fx.sample_group(173).streams(&fx.lib);
    c.bench_function("engine/run_group_res152_bert", |b| {
        b.iter(|| {
            black_box(run_group(
                &fx.gpu,
                &NoiseModel::calibrated(),
                7,
                black_box(&streams),
            ))
        })
    });
    let solo = vec![fx
        .lib
        .graph(
            dnn_models::ModelId::ResNet50,
            dnn_models::ModelId::ResNet50.max_input(),
        )
        .kernels()];
    c.bench_function("engine/run_solo_res50", |b| {
        b.iter(|| {
            black_box(run_group(
                &fx.gpu,
                &NoiseModel::disabled(),
                0,
                black_box(&solo),
            ))
        })
    });
}

fn bench_contention(c: &mut Criterion) {
    let fx = Fixture::new();
    let kernels = fx
        .lib
        .graph(
            dnn_models::ModelId::ResNet152,
            dnn_models::ModelId::ResNet152.max_input(),
        )
        .kernels();
    let profiles: Vec<gpu_sim::RunningKernel> = kernels
        .iter()
        .take(8)
        .map(|k| gpu_sim::RunningKernel::profile(k, &fx.gpu))
        .collect();
    let mut out = Vec::new();
    c.bench_function("contention/co_run_slowdowns_8", |b| {
        b.iter(|| {
            gpu_sim::co_run_slowdowns(black_box(&profiles), &mut out);
            black_box(&out);
        })
    });
}

/// The Fig. 23 measurement: batched prediction latency vs search ways,
/// with the pre-batching scalar per-sample loop alongside for comparison.
fn bench_predictor_inference(c: &mut Criterion) {
    let fx = Fixture::new();
    let mut g = c.benchmark_group("predictor_inference");
    for ways in [1usize, 2, 4, 8, 16] {
        let batch: Vec<Vec<f64>> = (0..ways)
            .map(|i| fx.sample_group(20 + 9 * i).features(&fx.lib))
            .collect();
        let flat: Vec<f64> = batch.iter().flatten().copied().collect();
        g.bench_with_input(BenchmarkId::new("batched", ways), &flat, |b, flat| {
            let mut out = Vec::with_capacity(ways);
            b.iter(|| {
                fx.mlp.predict_into(black_box(flat), ways, &mut out);
                black_box(&out);
            })
        });
        g.bench_with_input(BenchmarkId::new("scalar", ways), &batch, |b, batch| {
            b.iter(|| {
                for row in batch {
                    black_box(fx.mlp.predict_one_scalar(black_box(row)));
                }
            })
        });
    }
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let fx = Fixture::new();
    let queries: Vec<abacus_core::Query> =
        [dnn_models::ModelId::ResNet152, dnn_models::ModelId::Bert]
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let input = m.max_input();
                abacus_core::Query::new(
                    i as u64,
                    m,
                    input,
                    0.0,
                    100.0,
                    fx.lib.graph(m, input).len(),
                )
            })
            .collect();
    let refs: Vec<&abacus_core::Query> = queries.iter().collect();
    let model = fx.model();
    c.bench_function("search/plan_group_4way", |b| {
        b.iter(|| {
            black_box(abacus_core::plan_group(
                black_box(&refs),
                60.0,
                model.as_ref(),
                &fx.lib,
                4,
            ))
        })
    });
}

fn bench_training(c: &mut Criterion) {
    let fx = Fixture::new();
    let data = serving::collect_dataset(
        &[dnn_models::ModelId::ResNet50, dnn_models::ModelId::Bert],
        &fx.lib,
        &fx.gpu,
        &NoiseModel::calibrated(),
        &serving::TrainerConfig {
            samples_per_set: 256,
            runs_per_group: 1,
            ..serving::TrainerConfig::fast()
        },
        0,
    );
    c.bench_function("training/mlp_one_epoch_256", |b| {
        b.iter(|| {
            black_box(predictor::Mlp::train(
                black_box(&data),
                &predictor::MlpConfig {
                    epochs: 1,
                    ..predictor::MlpConfig::default()
                },
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine, bench_contention, bench_predictor_inference, bench_search, bench_training
}
criterion_main!(benches);
