//! Golden pin for the minibatch matrix-form trainer: [`Mlp::train`] must
//! reproduce the preserved pre-refactor scalar trainer
//! ([`Mlp::train_reference`]).
//!
//! Two regimes, per DESIGN.md's training-determinism rules:
//!
//! - Minibatches of at most one gradient chunk (`batch_size <= 16`)
//!   reproduce the reference's floating-point accumulation order exactly,
//!   so the trained weights must match **bit for bit**.
//! - Wider minibatches differ only in the cross-chunk summation tree, so
//!   weights must agree to 1e-9 after a short training run.
//!
//! A third pin: training with `serial: true` (all gradient chunks on the
//! calling thread) and `serial: false` (worker-pool fan-out) must produce
//! bit-identical models — thread-count independence is a hard contract.
//!
//! The bit-for-bit pins run on both kernel families: non-paper widths
//! take the generic kernels, while the paper's 3 × 32 net — on dense
//! synthetic rows and on profiled Fig. 8 rows (`FEATURE_DIM` input,
//! multi-hot zeros) — takes the register-resident fixed-width ones.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{
    profile_groups, sample_groups, Dataset, LatencyModel, Mlp, MlpConfig, QuantileMlp, FEATURE_DIM,
};
use workload::SeededRng;

const TAUS: [f64; 3] = [0.9, 0.95, 0.99];

fn synthetic(n: usize, seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut d = Dataset::new();
    for _ in 0..n {
        let x: Vec<f64> = (0..6).map(|_| rng.f64()).collect();
        let y = 8.0 + 25.0 * x[0] + 12.0 * (x[1] - 0.4).max(0.0) + 4.0 * x[2] * x[3];
        d.push(x, y);
    }
    d
}

/// A small profiled campaign: sampled operator groups of two pairs and a
/// triplet, profiled on the simulated A100 and encoded as Fig. 8 rows.
fn profiled(per_set: usize) -> Dataset {
    use ModelId::*;
    let lib = ModelLibrary::new();
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let mut d = Dataset::new();
    let sets = [
        vec![ResNet50, Bert],
        vec![Vgg16, InceptionV3],
        vec![ResNet101, ResNet152, Bert],
    ];
    for (i, set) in sets.iter().enumerate() {
        let specs = sample_groups(set, per_set, &lib, 31 + i as u64);
        d.extend(Dataset::from_profiles(
            &profile_groups(&specs, &lib, &gpu, &noise, 41 + i as u64, 2),
            &lib,
        ));
    }
    d
}

#[test]
fn profiled_rows_match_reference_bit_for_bit() {
    let d = profiled(60);
    assert_eq!(d.dim(), FEATURE_DIM);
    assert!(
        d.x.iter().flatten().filter(|&&v| v == 0.0).count() > d.len() * FEATURE_DIM / 3,
        "Fig. 8 rows are expected to be mostly multi-hot/empty-slot zeros"
    );
    for quantile in [None, Some(0.9)] {
        let cfg = MlpConfig {
            epochs: 6,
            batch_size: 16,
            quantile,
            ..MlpConfig::default()
        };
        assert_eq!(
            Mlp::train(&d, &cfg),
            Mlp::train_reference(&d, &cfg),
            "quantile {quantile:?}"
        );
    }
    let cfg = MlpConfig {
        epochs: 6,
        batch_size: 16,
        ..MlpConfig::default()
    };
    assert_eq!(
        QuantileMlp::train(&d, &cfg, &TAUS),
        QuantileMlp::train_reference(&d, &cfg, &TAUS)
    );
}

#[test]
fn non_paper_widths_match_reference_bit_for_bit() {
    // `[20, 40]` runs every kernel on its generic body. `[24, 40]` mixes
    // the two: a hidden layer as wide as `FEATURE_DIM` (24) takes the
    // fixed-width bodies and the 40-wide one the generic ones.
    let d = synthetic(300, 14);
    for hidden in [vec![20, 40], vec![24, 40]] {
        for quantile in [None, Some(0.9)] {
            let cfg = MlpConfig {
                hidden: hidden.clone(),
                epochs: 8,
                batch_size: 16,
                quantile,
                ..MlpConfig::default()
            };
            assert_eq!(
                Mlp::train(&d, &cfg),
                Mlp::train_reference(&d, &cfg),
                "hidden {hidden:?} quantile {quantile:?}"
            );
        }
    }
}

#[test]
fn single_chunk_minibatches_match_reference_bit_for_bit() {
    let d = synthetic(300, 11);
    for quantile in [None, Some(0.9)] {
        let cfg = MlpConfig {
            epochs: 8,
            batch_size: 16,
            quantile,
            ..MlpConfig::default()
        };
        let new = Mlp::train(&d, &cfg);
        let old = Mlp::train_reference(&d, &cfg);
        assert_eq!(new, old, "quantile {quantile:?}");
    }
}

#[test]
fn multi_chunk_minibatches_match_reference_within_tolerance() {
    let d = synthetic(400, 12);
    let cfg = MlpConfig {
        epochs: 6,
        batch_size: 64,
        ..MlpConfig::default()
    };
    let new = Mlp::train(&d, &cfg);
    let old = Mlp::train_reference(&d, &cfg);
    assert_eq!(new.dims(), old.dims());
    let (pn, po) = (new.raw_params(), old.raw_params());
    for (j, (a, b)) in pn.iter().zip(&po).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9,
            "param {j} drifted: {a} vs {b} (|Δ| = {:e})",
            (a - b).abs()
        );
    }
    // And the drift is invisible at prediction level.
    let probe = vec![0.3, 0.7, 0.1, 0.9, 0.5, 0.2];
    assert!((new.predict_one(&probe) - old.predict_one(&probe)).abs() <= 1e-6);
}

#[test]
fn quantile_single_chunk_minibatches_match_reference_bit_for_bit() {
    // The multi-head pinball trainer shares the batched kernels with the
    // scalar-loss path; inside one gradient chunk the accumulation order
    // matches the scalar reference exactly, across head counts and shapes.
    let d = synthetic(300, 21);
    for taus in [&TAUS[..1], &TAUS[..2], &TAUS[..]] {
        for batch_size in [8usize, 16] {
            let cfg = MlpConfig {
                epochs: 8,
                batch_size,
                ..MlpConfig::default()
            };
            let new = QuantileMlp::train(&d, &cfg, taus);
            let old = QuantileMlp::train_reference(&d, &cfg, taus);
            assert_eq!(new, old, "taus {taus:?} batch {batch_size}");
        }
    }
}

#[test]
fn quantile_multi_chunk_minibatches_match_reference_within_tolerance() {
    let d = synthetic(400, 22);
    let cfg = MlpConfig {
        epochs: 6,
        batch_size: 64,
        ..MlpConfig::default()
    };
    let new = QuantileMlp::train(&d, &cfg, &TAUS);
    let old = QuantileMlp::train_reference(&d, &cfg, &TAUS);
    assert_eq!(new.dims(), old.dims());
    let (pn, po) = (new.raw_params(), old.raw_params());
    for (j, (a, b)) in pn.iter().zip(&po).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9,
            "param {j} drifted: {a} vs {b} (|Δ| = {:e})",
            (a - b).abs()
        );
    }
}

#[test]
fn quantile_serial_and_pooled_training_are_bit_identical() {
    let d = synthetic(400, 23);
    let pooled = QuantileMlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            ..MlpConfig::default()
        },
        &TAUS,
    );
    let serial = QuantileMlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            serial: true,
            ..MlpConfig::default()
        },
        &TAUS,
    );
    assert_eq!(pooled, serial);
}

#[test]
fn serial_and_pooled_training_are_bit_identical() {
    let d = synthetic(400, 13);
    let pooled = Mlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            ..MlpConfig::default()
        },
    );
    let serial = Mlp::train(
        &d,
        &MlpConfig {
            epochs: 6,
            serial: true,
            ..MlpConfig::default()
        },
    );
    assert_eq!(pooled, serial);
}
