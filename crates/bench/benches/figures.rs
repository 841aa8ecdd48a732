//! One Criterion benchmark per paper table/figure.
//!
//! Each bench times a *scaled-down* regeneration of the corresponding
//! experiment, so `cargo bench` demonstrates that every figure's pipeline
//! runs end-to-end and how much compute it costs. The full-scale numbers
//! are produced by the `abacus-repro` binary (see EXPERIMENTS.md).

use bench::Fixture;
use criterion::{criterion_group, criterion_main, Criterion};
use dnn_models::{ModelId, QueryInput};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{mps_victim_latencies, ColocationConfig, MpsConfig, PolicyKind, RunSpec};
use std::hint::black_box;
use std::sync::Arc;

fn colocation_cfg() -> ColocationConfig {
    ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 2_000.0,
        seed: 3,
        ..ColocationConfig::default()
    }
}

/// Fig. 3: MPS free-overlap tail latency.
fn fig03(c: &mut Criterion, fx: &Fixture) {
    let cfg = MpsConfig {
        victim: ModelId::ResNet152,
        victim_input: QueryInput::new(32, 1),
        antagonist: ModelId::Vgg19,
        antagonist_qps: 35.0,
        horizon_ms: 1_500.0,
        seed: 3,
    };
    c.bench_function("fig03_mps_tail", |b| {
        b.iter(|| black_box(mps_victim_latencies(&cfg, &fx.lib, &fx.gpu)))
    });
}

/// Fig. 7 / §5.2: operator-group determinism statistics.
fn fig07(c: &mut Criterion, fx: &Fixture) {
    c.bench_function("fig07_determinism", |b| {
        b.iter(|| {
            black_box(serving::collect_profiles(
                &[ModelId::ResNet50, ModelId::Bert],
                &fx.lib,
                &fx.gpu,
                &NoiseModel::calibrated(),
                &serving::TrainerConfig {
                    samples_per_set: 40,
                    runs_per_group: 5,
                    ..serving::TrainerConfig::fast()
                },
                0,
            ))
        })
    });
}

/// Fig. 10: train + evaluate the three predictor families on one pair.
fn fig10(c: &mut Criterion, fx: &Fixture) {
    let data = serving::collect_dataset(
        &[ModelId::ResNet50, ModelId::Vgg16],
        &fx.lib,
        &fx.gpu,
        &NoiseModel::calibrated(),
        &serving::TrainerConfig {
            samples_per_set: 200,
            runs_per_group: 1,
            ..serving::TrainerConfig::fast()
        },
        0,
    );
    c.bench_function("fig10_predictors", |b| {
        b.iter(|| {
            let lr = predictor::LinearRegression::fit(black_box(&data), 1e-3);
            let svr = predictor::LinearSvr::fit(
                &data,
                &predictor::SvrConfig {
                    epochs: 10,
                    ..predictor::SvrConfig::default()
                },
            );
            let mlp = predictor::Mlp::train(
                &data,
                &predictor::MlpConfig {
                    epochs: 3,
                    ..predictor::MlpConfig::default()
                },
            );
            black_box((
                predictor::eval::mape(&lr, &data),
                predictor::eval::mape(&svr, &data),
                predictor::eval::mape(&mlp, &data),
            ))
        })
    });
}

/// Figs. 14/15: one pair, all four policies, QoS load.
fn fig14_15(c: &mut Criterion, fx: &Fixture) {
    let model: Arc<dyn LatencyModel> = fx.model();
    let noise = NoiseModel::calibrated();
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let specs: Vec<RunSpec> = PolicyKind::ALL
        .into_iter()
        .map(|p| {
            let pred = (p == PolicyKind::Abacus).then(|| model.clone());
            RunSpec::new(&pair, p, pred, &fx.lib, &fx.gpu, &noise, &colocation_cfg())
        })
        .collect();
    c.bench_function("fig14_qos_latency", |b| {
        b.iter(|| {
            for spec in &specs {
                black_box(serving::run(spec, None));
            }
        })
    });
}

/// Fig. 16: small-DNN mode.
fn fig16(c: &mut Criterion, fx: &Fixture) {
    let model: Arc<dyn LatencyModel> = fx.model();
    let cfg = ColocationConfig {
        small_inputs: true,
        ..colocation_cfg()
    };
    let noise = NoiseModel::calibrated();
    let spec = RunSpec::new(
        &[ModelId::ResNet152, ModelId::Bert],
        PolicyKind::Abacus,
        Some(model),
        &fx.lib,
        &fx.gpu,
        &noise,
        &cfg,
    );
    c.bench_function("fig16_small_dnns", |b| {
        b.iter(|| black_box(serving::run(&spec, None)))
    });
}

/// Fig. 17: peak-throughput leg.
fn fig17(c: &mut Criterion, fx: &Fixture) {
    let model: Arc<dyn LatencyModel> = fx.model();
    let cfg = ColocationConfig {
        qps_per_service: 50.0,
        ..colocation_cfg()
    };
    let noise = NoiseModel::calibrated();
    let spec = RunSpec::new(
        &[ModelId::ResNet152, ModelId::Bert],
        PolicyKind::Abacus,
        Some(model),
        &fx.lib,
        &fx.gpu,
        &noise,
        &cfg,
    );
    c.bench_function("fig17_throughput", |b| {
        b.iter(|| black_box(serving::run(&spec, None)))
    });
}

/// Figs. 18/19: a triplet deployment.
fn fig18_19(c: &mut Criterion, fx: &Fixture) {
    let model: Arc<dyn LatencyModel> = fx.model();
    let cfg = ColocationConfig {
        qps_per_service: 50.0 / 3.0,
        ..colocation_cfg()
    };
    let noise = NoiseModel::calibrated();
    let spec = RunSpec::new(
        &[ModelId::ResNet152, ModelId::Vgg19, ModelId::Bert],
        PolicyKind::Abacus,
        Some(model),
        &fx.lib,
        &fx.gpu,
        &noise,
        &cfg,
    );
    c.bench_function("fig18_multiway", |b| {
        b.iter(|| black_box(serving::run(&spec, None)))
    });
}

/// Figs. 20/21: a pair on a MIG 2g.10gb slice (full-A100 QoS targets).
fn fig20_21(c: &mut Criterion, fx: &Fixture) {
    let slice = fx.gpu.mig_slice(gpu_sim::MigProfile::TwoG10Gb);
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let cfg = ColocationConfig {
        qps_per_service: 10.0,
        ..colocation_cfg()
    };
    let noise = NoiseModel::calibrated();
    let spec = RunSpec {
        services: serving::services_for(&pair, &fx.lib, &fx.gpu, false),
        ..RunSpec::new(&pair, PolicyKind::Fcfs, None, &fx.lib, &slice, &noise, &cfg)
    };
    c.bench_function("fig20_mig", |b| {
        b.iter(|| black_box(serving::run(&spec, None)))
    });
}

/// Fig. 22: a small cluster replay.
fn fig22(c: &mut Criterion, fx: &Fixture) {
    let trace = workload::RateTrace::new(vec![120.0; 1]);
    let cfg = cluster::ClusterConfig {
        nodes: 1,
        gpus_per_node: 2,
        ..cluster::ClusterConfig::paper(trace, 5)
    };
    let v100 = GpuSpec::v100();
    let model: Arc<dyn LatencyModel> = fx.model();
    c.bench_function("fig22_cluster", |b| {
        b.iter(|| {
            black_box(
                cluster::run_cluster_detailed(
                    cluster::ClusterSystem::AbacusK8s,
                    &cfg,
                    &fx.lib,
                    &v100,
                    &NoiseModel::calibrated(),
                    Some(model.clone()),
                )
                .records,
            )
        })
    });
}

/// Fig. 23: one batched 4-way prediction round (the paper's 0.066-0.088 ms).
fn fig23(c: &mut Criterion, fx: &Fixture) {
    let batch: Vec<Vec<f64>> = (0..4)
        .map(|i| fx.sample_group(20 + 9 * i).features(&fx.lib))
        .collect();
    c.bench_function("fig23_search_ways", |b| {
        b.iter(|| black_box(fx.mlp.predict_batch(black_box(&batch))))
    });
    // The same 4-way round on the pre-batching scalar path: the gap is the
    // tentpole win this PR's BENCH_search.json tracks.
    c.bench_function("fig23_search_ways_scalar", |b| {
        b.iter(|| {
            for row in &batch {
                black_box(fx.mlp.predict_one_scalar(black_box(row)));
            }
        })
    });
}

/// Tables 1/2: model-zoo instantiation and spec derivation.
fn tables(c: &mut Criterion, _fx: &Fixture) {
    c.bench_function("table1_model_zoo", |b| {
        b.iter(|| black_box(dnn_models::ModelLibrary::new()))
    });
    c.bench_function("table2_specs", |b| {
        b.iter(|| {
            black_box((
                GpuSpec::a100(),
                GpuSpec::v100(),
                GpuSpec::a100().mig_slice(gpu_sim::MigProfile::OneG5Gb),
            ))
        })
    });
}

fn all(c: &mut Criterion) {
    let fx = Fixture::new();
    tables(c, &fx);
    fig03(c, &fx);
    fig07(c, &fx);
    fig10(c, &fx);
    fig14_15(c, &fx);
    fig16(c, &fx);
    fig17(c, &fx);
    fig18_19(c, &fx);
    fig20_21(c, &fx);
    fig22(c, &fx);
    fig23(c, &fx);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = all
}
criterion_main!(benches);
