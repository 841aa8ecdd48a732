//! Integration of the §5 pipeline: sampling → profiling → feature encoding
//! → training → accuracy, including the paper's model-family comparison and
//! the §5.2 determinism statistics.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{
    eval, persist, sample_groups, ConformalModel, Dataset, LinearRegression, LinearSvr, Mlp,
    MlpConfig, QuantileMlp, SvrConfig, CERT_TAUS,
};
use serving::{collect_profiles, TrainerConfig};
use std::sync::Arc;
use workload::SeededRng;

fn profiles_for(pair: [ModelId; 2], samples: usize) -> (Arc<ModelLibrary>, Dataset) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let cfg = TrainerConfig {
        samples_per_set: samples,
        runs_per_group: 5,
        seed: 13,
        ..TrainerConfig::fast()
    };
    let profiles = collect_profiles(&pair, &lib, &gpu, &NoiseModel::calibrated(), &cfg, 0);
    let data = Dataset::from_profiles(&profiles, &lib);
    (lib, data)
}

/// Fig. 10's ordering: the MLP beats both linear families by a wide margin
/// on real profiled data.
#[test]
fn mlp_beats_linear_families() {
    let (_lib, data) = profiles_for([ModelId::ResNet152, ModelId::Bert], 900);
    let mut rng = SeededRng::new(1);
    let (train, test) = data.split(0.8, &mut rng);
    let mlp = Mlp::train(
        &train,
        &MlpConfig {
            epochs: 120,
            ..MlpConfig::default()
        },
    );
    let lr = LinearRegression::fit(&train, 1e-3);
    let svr = LinearSvr::fit(&train, &SvrConfig::default());
    let e_mlp = eval::mape(&mlp, &test);
    let e_lr = eval::mape(&lr, &test);
    let e_svr = eval::mape(&svr, &test);
    assert!(e_mlp < 0.10, "mlp {e_mlp}");
    assert!(e_lr > 2.0 * e_mlp, "lr {e_lr} vs mlp {e_mlp}");
    assert!(e_svr > 2.0 * e_mlp, "svr {e_svr} vs mlp {e_mlp}");
}

/// §5.2: group latencies are deterministic — std/mean stays in the
/// single-digit-percent band the paper measures.
#[test]
fn group_latency_determinism_statistics() {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let cfg = TrainerConfig {
        samples_per_set: 300,
        runs_per_group: 15,
        seed: 3,
        ..TrainerConfig::fast()
    };
    let profiles = collect_profiles(
        &[ModelId::ResNet101, ModelId::Vgg16],
        &lib,
        &gpu,
        &NoiseModel::calibrated(),
        &cfg,
        0,
    );
    let cvs: Vec<f64> = profiles.iter().map(|p| p.std_ms / p.mean_ms).collect();
    let mean_cv = abacus_metrics::mean(&cvs);
    assert!(
        (0.015..0.08).contains(&mean_cv),
        "mean std/mean {mean_cv} out of the paper's band"
    );
}

/// A trained model survives a save/load round trip with identical
/// predictions (the deployment path: train offline, load at serving time).
#[test]
fn trained_model_persists() {
    let (lib, data) = profiles_for([ModelId::ResNet50, ModelId::InceptionV3], 300);
    let mlp = Mlp::train(&data, &MlpConfig::fast());
    let path = std::env::temp_dir().join("abacus_it_persist/model.mlp");
    persist::save(&mlp, &path).unwrap();
    let loaded = persist::load(&path).unwrap();
    let specs = sample_groups(&[ModelId::ResNet50, ModelId::InceptionV3], 20, &lib, 9);
    for s in &specs {
        let x = s.features(&lib);
        use predictor::LatencyModel;
        assert_eq!(mlp.predict_one(&x), loaded.predict_one(&x));
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Triplet and quadruplet groups encode and train through the same unified
/// feature layout (§5.5's "4.9% and 6.4%" study).
#[test]
fn multiway_groups_train_through_unified_layout() {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let cfg = TrainerConfig {
        samples_per_set: 400,
        runs_per_group: 3,
        seed: 21,
        ..TrainerConfig::fast()
    };
    let mut data = Dataset::new();
    for (i, set) in [
        vec![ModelId::ResNet101, ModelId::ResNet152, ModelId::Bert],
        vec![
            ModelId::ResNet101,
            ModelId::ResNet152,
            ModelId::Vgg19,
            ModelId::Bert,
        ],
    ]
    .iter()
    .enumerate()
    {
        let profiles = collect_profiles(set, &lib, &gpu, &NoiseModel::calibrated(), &cfg, i as u64);
        data.extend(Dataset::from_profiles(&profiles, &lib));
    }
    assert_eq!(data.dim(), predictor::FEATURE_DIM);
    let mut rng = SeededRng::new(2);
    let (train, test) = data.split(0.8, &mut rng);
    let mlp = Mlp::train(
        &train,
        &MlpConfig {
            epochs: 100,
            ..MlpConfig::default()
        },
    );
    let err = eval::mape(&mlp, &test);
    assert!(err < 0.12, "multiway mape {err}");
}

/// The certification stack on *real profiled data*: quantile heads train
/// on a proper-train slice, split-conformal calibrates on a held-out
/// slice, and the resulting p95 upper bound covers a disjoint test slice
/// at (at least) its nominal rate, with bounds monotone in alpha.
#[test]
fn conformal_upper_bounds_cover_profiled_latencies() {
    let (_lib, data) = profiles_for([ModelId::ResNet50, ModelId::ResNet152], 900);
    let mut rng = SeededRng::new(7);
    let (work, test) = data.split(0.75, &mut rng);
    let (train, calib) = work.split(0.6, &mut rng);
    let heads = QuantileMlp::train(
        &train,
        &MlpConfig {
            epochs: 120,
            ..MlpConfig::default()
        },
        &CERT_TAUS,
    );
    let p90 = ConformalModel::calibrate(heads, &calib, 0.10);
    let p95 = p90.with_alpha(0.05);
    let p99 = p90.with_alpha(0.01);
    let n = test.len();
    let (mut c90, mut c95, mut c99) = (0usize, 0, 0);
    let mut bounds = Vec::new();
    for i in 0..n {
        let x = &test.x[i];
        use predictor::LatencyModel;
        let (b90, b95, b99) = (p90.predict_one(x), p95.predict_one(x), p99.predict_one(x));
        assert!(b90 <= b95 && b95 <= b99, "bounds not monotone in alpha");
        bounds.push(b95);
        c90 += usize::from(test.y[i] <= b90);
        c95 += usize::from(test.y[i] <= b95);
        c99 += usize::from(test.y[i] <= b99);
    }
    // Finite-sample bands: split conformal guarantees coverage >= 1-alpha
    // *marginally over calibration draws*; a single split of ~225 test
    // points wobbles by a few points around nominal.
    let cov95 = c95 as f64 / n as f64;
    assert!(
        (0.88..=1.0).contains(&cov95),
        "p95 coverage {cov95} outside tolerance band"
    );
    let (cov90, cov99) = (c90 as f64 / n as f64, c99 as f64 / n as f64);
    assert!(cov90 >= 0.82, "p90 coverage too low: {cov90}");
    assert!(cov99 >= 0.95, "p99 coverage too low: {cov99}");
    assert!(cov90 <= cov95 && cov95 <= cov99, "coverage not monotone");
    // Batched entry point agrees with the scalar path bit for bit.
    let flat: Vec<f64> = test.x.iter().flatten().copied().collect();
    let mut batched = Vec::new();
    p95.predict_upper_into(&flat, n, &mut batched);
    assert_eq!(batched, bounds);
}

/// The predictor is *accurate about overlap*: predicted group durations are
/// systematically below the sequential-execution sum for overlap-friendly
/// groups.
#[test]
fn predictions_capture_overlap_benefit() {
    let (lib, data) = profiles_for([ModelId::ResNet50, ModelId::ResNet101], 600);
    let gpu = GpuSpec::a100();
    let mlp = Mlp::train(
        &data,
        &MlpConfig {
            epochs: 100,
            ..MlpConfig::default()
        },
    );
    let specs = sample_groups(&[ModelId::ResNet50, ModelId::ResNet101], 50, &lib, 33);
    let mut below = 0;
    for s in &specs {
        use predictor::LatencyModel;
        let pred = mlp.predict_one(&s.features(&lib));
        let seq = s.sequential_ms(&lib, &gpu);
        if pred < seq {
            below += 1;
        }
    }
    assert!(below >= 40, "only {below}/50 predictions below sequential");
}
