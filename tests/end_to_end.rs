//! End-to-end integration: offline pipeline → online serving → paper
//! claims, across every workspace crate.

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{run, train_unified, ColocationConfig, PolicyKind, RunSpec, TrainerConfig};
use std::sync::Arc;

fn setup() -> (Arc<ModelLibrary>, GpuSpec, NoiseModel) {
    (
        Arc::new(ModelLibrary::new()),
        GpuSpec::a100(),
        NoiseModel::calibrated(),
    )
}

fn quick_trainer() -> TrainerConfig {
    TrainerConfig {
        samples_per_set: 500,
        runs_per_group: 3,
        mlp: predictor::MlpConfig {
            epochs: 80,
            ..predictor::MlpConfig::default()
        },
        seed: 77,
    }
}

/// The paper's core claim, end to end: train the predictor offline, serve
/// a pair online, and beat FCFS on both tail latency and QoS violations.
#[test]
fn abacus_beats_fcfs_end_to_end() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet152, ModelId::Bert];
    let (mlp, _) = train_unified(&[pair.to_vec()], &lib, &gpu, &noise, &quick_trainer());
    let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 12_000.0,
        seed: 5,
        ..ColocationConfig::default()
    };
    let spec = |policy, pred| RunSpec::new(&pair, policy, pred, &lib, &gpu, &noise, &cfg);
    let fcfs = run(&spec(PolicyKind::Fcfs, None), None);
    let edf = run(&spec(PolicyKind::Edf, None), None);
    let abacus = run(&spec(PolicyKind::Abacus, Some(mlp)), None);
    assert!(
        abacus.normalized_p99() < fcfs.normalized_p99(),
        "abacus p99n {} vs fcfs {}",
        abacus.normalized_p99(),
        fcfs.normalized_p99()
    );
    assert!(
        abacus.normalized_p99() < edf.normalized_p99(),
        "abacus p99n {} vs edf {}",
        abacus.normalized_p99(),
        edf.normalized_p99()
    );
    assert!(
        abacus.violation_ratio() <= fcfs.violation_ratio(),
        "abacus viol {} vs fcfs {}",
        abacus.violation_ratio(),
        fcfs.violation_ratio()
    );
}

/// §7.3's negative result must also reproduce: on (VGG16, VGG19) the
/// saturating kernels leave no overlap room, so Abacus's throughput gain
/// over FCFS collapses (slight degradation is expected).
#[test]
fn vgg_pair_has_no_overlap_win() {
    let (lib, gpu, noise) = setup();
    let vgg = [ModelId::Vgg16, ModelId::Vgg19];
    let res = [ModelId::ResNet50, ModelId::ResNet152];
    let (mlp, _) = train_unified(
        &[vgg.to_vec(), res.to_vec()],
        &lib,
        &gpu,
        &noise,
        &quick_trainer(),
    );
    let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);
    let cfg = ColocationConfig {
        qps_per_service: 50.0,
        horizon_ms: 12_000.0,
        seed: 6,
        ..ColocationConfig::default()
    };
    let gain = |models: &[ModelId]| {
        let spec = |policy, pred| RunSpec::new(models, policy, pred, &lib, &gpu, &noise, &cfg);
        let fcfs = run(&spec(PolicyKind::Fcfs, None), None);
        let abacus = run(&spec(PolicyKind::Abacus, Some(mlp.clone())), None);
        abacus.completed_qps() / fcfs.completed_qps()
    };
    let vgg_gain = gain(&vgg);
    let res_gain = gain(&res);
    assert!(
        res_gain > vgg_gain,
        "resnet gain {res_gain} should exceed vgg gain {vgg_gain}"
    );
    assert!(vgg_gain < 1.12, "vgg gain {vgg_gain} should be near parity");
}

/// Full accounting across the stack: every generated query is recorded
/// exactly once, whatever the policy.
#[test]
fn query_conservation_across_policies() {
    let (lib, gpu, noise) = setup();
    let models = [ModelId::ResNet101, ModelId::InceptionV3, ModelId::Bert];
    let cfg = ColocationConfig {
        qps_per_service: 30.0,
        horizon_ms: 6_000.0,
        seed: 8,
        ..ColocationConfig::default()
    };
    let mut totals = Vec::new();
    for p in [PolicyKind::Fcfs, PolicyKind::Sjf, PolicyKind::Edf] {
        let spec = RunSpec::new(&models, p, None, &lib, &gpu, &noise, &cfg);
        let r = run(&spec, None);
        totals.push(r.all.total());
        let per_service_sum: usize = r.per_service.iter().map(|s| s.total()).sum();
        assert_eq!(per_service_sum, r.all.total());
    }
    assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
}

/// The whole experiment stack is deterministic given the seed.
#[test]
fn end_to_end_determinism() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::Vgg19];
    let cfg = ColocationConfig {
        qps_per_service: 20.0,
        horizon_ms: 5_000.0,
        seed: 99,
        ..ColocationConfig::default()
    };
    let spec = RunSpec::new(&pair, PolicyKind::Sjf, None, &lib, &gpu, &noise, &cfg);
    let (a, b) = (run(&spec, None), run(&spec, None));
    assert_eq!(a.all.total(), b.all.total());
    assert_eq!(a.all.p99_latency(), b.all.p99_latency());
    assert_eq!(a.all.violation_ratio(), b.all.violation_ratio());
}
