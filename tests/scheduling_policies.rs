//! Integration tests of the scheduling layer: QoS semantics across
//! policies, the drop mechanism, headroom discipline, and the MIG study's
//! building blocks.

use abacus_core::{AbacusConfig, AbacusScheduler, Query, Scheduler};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use faults::{FaultPlan, PredictorFault};
use gpu_sim::{GpuSpec, MigProfile, NoiseModel};
use predictor::LatencyModel;
use serving::{
    run, train_certified, train_unified, ColocationConfig, NodeOptions, PolicyKind, RunSpec,
    TrainerConfig,
};
use std::sync::Arc;

fn setup() -> (Arc<ModelLibrary>, GpuSpec, NoiseModel) {
    (
        Arc::new(ModelLibrary::new()),
        GpuSpec::a100(),
        NoiseModel::calibrated(),
    )
}

fn trained_pair(
    pair: &[ModelId],
    lib: &Arc<ModelLibrary>,
    gpu: &GpuSpec,
    noise: &NoiseModel,
) -> Arc<dyn LatencyModel> {
    let (mlp, _) = train_unified(
        &[pair.to_vec()],
        lib,
        gpu,
        noise,
        &TrainerConfig {
            samples_per_set: 500,
            runs_per_group: 3,
            mlp: predictor::MlpConfig {
                epochs: 80,
                ..predictor::MlpConfig::default()
            },
            seed: 4,
        },
    );
    Arc::new(mlp)
}

/// Under light load every policy meets QoS — the policies only diverge
/// once the queue carries real pressure.
#[test]
fn light_load_meets_qos_for_all_policies() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::InceptionV3];
    let mlp = trained_pair(&pair, &lib, &gpu, &noise);
    let cfg = ColocationConfig {
        qps_per_service: 4.0,
        horizon_ms: 8_000.0,
        seed: 11,
        ..ColocationConfig::default()
    };
    for p in PolicyKind::ALL {
        let pred = (p == PolicyKind::Abacus).then(|| mlp.clone());
        let spec = RunSpec::new(&pair, p, pred, &lib, &gpu, &noise, &cfg);
        let r = run(&spec, None);
        assert!(
            r.violation_ratio() < 0.02,
            "{}: viol {}",
            p.name(),
            r.violation_ratio()
        );
    }
}

/// Abacus's completed queries respect their *own* per-service QoS targets
/// almost always — the predictor-certified groups are the mechanism.
#[test]
fn abacus_completed_queries_meet_per_service_qos() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet152, ModelId::InceptionV3];
    let mlp = trained_pair(&pair, &lib, &gpu, &noise);
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 10_000.0,
        seed: 12,
        ..ColocationConfig::default()
    };
    let pred = Some(mlp);
    let spec = RunSpec::new(&pair, PolicyKind::Abacus, pred, &lib, &gpu, &noise, &cfg);
    let r = run(&spec, None);
    for (i, s) in r.per_service.iter().enumerate() {
        if s.completed() == 0 {
            continue;
        }
        let p95 = s.latency_percentile(95.0);
        assert!(
            p95 <= r.qos_ms[i] * 1.15,
            "service {i}: p95 {p95} vs qos {}",
            r.qos_ms[i]
        );
    }
}

/// The controller refuses to start queries it cannot finish (the §6.2
/// drop mechanism) instead of poisoning the queue.
#[test]
fn drop_mechanism_sheds_infeasible_queries() {
    let (lib, gpu, _) = setup();
    let mlp = trained_pair(&[ModelId::Vgg19], &lib, &gpu, &NoiseModel::calibrated());
    let mut sched = AbacusScheduler::new(mlp, lib.clone(), AbacusConfig::default());
    let input = QueryInput::new(32, 1);
    let n = lib.graph(ModelId::Vgg19, input).len();
    // 3 ms of headroom for a ~27 ms query: must be dropped, not scheduled.
    let q = Query::new(1, ModelId::Vgg19, input, 0.0, 30.0, n);
    let d = sched.decide(27.0, &[q]);
    assert_eq!(d.dropped, vec![1]);
    assert!(d.group.is_none());
}

/// MIG full isolation breaks QoS for the heavy models while Abacus on the
/// un-partitioned slice keeps violations strictly lower (Fig. 20's story).
#[test]
fn mig_isolation_story() {
    let (lib, gpu, noise) = setup();
    let small = gpu.mig_slice(MigProfile::OneG5Gb);
    let cfg = ColocationConfig {
        qps_per_service: 8.0,
        horizon_ms: 8_000.0,
        seed: 13,
        ..ColocationConfig::default()
    };
    let model = [ModelId::ResNet152];
    let on = |gpu| RunSpec::new(&model, PolicyKind::Fcfs, None, &lib, gpu, &noise, &cfg);
    // Full-A100 QoS targets on the slice.
    let isolated = RunSpec {
        services: on(&gpu).services,
        ..on(&small)
    };
    let isolated = run(&isolated, None);
    // The 1/7 slice cannot run ResNet-152's large inputs inside a QoS
    // target calibrated for the full GPU.
    assert!(
        isolated.violation_ratio() > 0.2,
        "isolated viol {}",
        isolated.violation_ratio()
    );
    assert!(run(&on(&gpu), None).violation_ratio() < isolated.violation_ratio());
}

/// Metamorphic: raising the fault intensity never makes serving *better*.
/// [`FaultPlan::at_intensity`] makes every injection strictly harsher with
/// intensity, so the QoS-violation ratio must be non-decreasing along the
/// dose axis (small slack for arrival-pattern resampling at the burst).
#[test]
fn qos_violations_monotone_in_fault_intensity() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::ResNet152];
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 5_000.0,
        seed: 11,
        ..ColocationConfig::default()
    };
    let mut last = -1.0;
    for intensity in [0.0, 0.5, 1.0] {
        let spec = RunSpec {
            plan: FaultPlan::at_intensity(41, intensity),
            ..RunSpec::new(&pair, PolicyKind::Fcfs, None, &lib, &gpu, &noise, &cfg)
        };
        let out = run(&spec, None);
        assert!(out.invariant_violations.is_empty());
        let v = out.violation_ratio();
        assert!(
            v >= last - 0.02,
            "intensity {intensity}: violation ratio {v} dropped below {last}"
        );
        last = v;
    }
    // The dose must actually bite: full intensity is strictly worse than
    // fault-free, not merely non-decreasing within the slack.
    assert!(
        last > 0.1,
        "full-intensity run suspiciously healthy: {last}"
    );
}

/// Metamorphic: under *total* predictor failure (frozen output), Abacus
/// with the defensive runtime degrades to FCFS dispatch instead of
/// trusting garbage — so it never ends up meaningfully worse than having
/// run plain FCFS from the start.
#[test]
fn degraded_abacus_never_worse_than_fcfs_under_total_predictor_failure() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::InceptionV3];
    let mlp = trained_pair(&pair, &lib, &gpu, &noise);
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 6_000.0,
        seed: 15,
        abacus: AbacusConfig {
            predict_round_ms: Some(0.08),
            adaptive_margin: true,
            fcfs_fallback_error: Some(0.5),
            ..AbacusConfig::default()
        },
        ..ColocationConfig::default()
    };
    // The predictor answers a constant regardless of input — certifying
    // every group as trivially cheap (the dangerous direction).
    let plan = FaultPlan {
        seed: 5,
        predictor: Some(PredictorFault::Freeze { value_ms: 0.01 }),
        ..FaultPlan::none()
    };
    let spec = |policy, pred| RunSpec {
        plan: plan.clone(),
        ..RunSpec::new(&pair, policy, pred, &lib, &gpu, &noise, &cfg)
    };
    let defended = RunSpec {
        opts: NodeOptions {
            timeout_factor: Some(3.0),
        },
        ..spec(PolicyKind::Abacus, Some(mlp))
    };
    let defended = run(&defended, None);
    assert!(defended.invariant_violations.is_empty());
    assert!(
        defended.degraded,
        "total predictor failure must trip the FCFS fallback"
    );
    let fcfs = run(&spec(PolicyKind::Fcfs, None), None);
    let (dv, fv) = (defended.violation_ratio(), fcfs.violation_ratio());
    assert!(
        dv <= fv + 0.05,
        "degraded Abacus ({dv}) worse than plain FCFS ({fv})"
    );
}

/// Byte-identity regression: with conformal certification *disabled*, a
/// run that carries a fully trained certifier produces the exact same
/// per-query record stream — and the exact same serialized CSV bytes — as
/// the same run without it, both fault-free and under a fault plan. The
/// `conformal` flag is the only thing allowed to change behaviour; merely
/// attaching the artifact must be inert end-to-end.
#[test]
fn conformal_disabled_is_byte_identical_end_to_end() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::ResNet152];
    let trained = train_certified(
        &[pair.to_vec()],
        &lib,
        &gpu,
        &noise,
        &TrainerConfig {
            samples_per_set: 400,
            runs_per_group: 3,
            seed: 4,
            ..TrainerConfig::fast()
        },
        0.05,
    );
    let mean: Arc<dyn LatencyModel> = Arc::new(trained.mean);
    let certifier: Arc<dyn LatencyModel> = Arc::new(trained.certifier);
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 5_000.0,
        seed: 17,
        abacus: AbacusConfig {
            // Wall-clock startup calibration makes unpinned runs
            // non-repeatable across invocations; byte-identity needs a
            // pinned decision overhead.
            predict_round_ms: Some(0.08),
            ..AbacusConfig::default()
        },
        ..ColocationConfig::default()
    };
    let csv = |records: &[abacus_metrics::QueryRecord]| -> String {
        let mut s =
            String::from("service,arrival_ms,latency_ms,qos_ms,outcome,requests,queue_ms\n");
        for r in records {
            s.push_str(&format!(
                "{},{},{},{},{:?},{},{}\n",
                r.service, r.arrival_ms, r.latency_ms, r.qos_ms, r.outcome, r.requests, r.queue_ms
            ));
        }
        s
    };
    for plan in [FaultPlan::none(), FaultPlan::at_intensity(41, 0.5)] {
        let pred = Some(mean.clone());
        let spec = RunSpec {
            plan,
            ..RunSpec::new(&pair, PolicyKind::Abacus, pred, &lib, &gpu, &noise, &cfg)
        };
        let plain = run(&spec, None);
        let carried = run(
            &RunSpec {
                certifier: Some(certifier.clone()),
                ..spec.clone()
            },
            None,
        );
        let seed = spec.plan.seed;
        assert_eq!(plain.records, carried.records, "plan seed {seed}");
        assert_eq!(csv(&plain.records), csv(&carried.records));
        assert_eq!(plain.degraded, carried.degraded);
        assert_eq!(
            plain.invariant_violations, carried.invariant_violations,
            "certifier-carrying run tripped different invariants"
        );
    }
}

/// SJF pays prediction latency on the critical path; with a deep queue its
/// scheduling overhead is visible against FCFS on identical work.
#[test]
fn sjf_overhead_visible_under_pressure() {
    let (lib, gpu, noise) = setup();
    let pair = [ModelId::ResNet50, ModelId::Bert];
    let cfg = ColocationConfig {
        qps_per_service: 60.0,
        horizon_ms: 6_000.0,
        seed: 14,
        ..ColocationConfig::default()
    };
    let spec = |policy| RunSpec::new(&pair, policy, None, &lib, &gpu, &noise, &cfg);
    let (fcfs, sjf) = (
        run(&spec(PolicyKind::Fcfs), None),
        run(&spec(PolicyKind::Sjf), None),
    );
    // Same offered work.
    assert_eq!(fcfs.all.total(), sjf.all.total());
    // SJF's mean latency for completed small jobs is lower (that is its
    // point), but it cannot complete more than the queue allows.
    assert!(sjf.all.mean_latency() <= fcfs.all.mean_latency() * 1.05);
}
