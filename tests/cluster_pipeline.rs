//! Integration of the cluster layer (§7.6): trace synthesis → routing →
//! per-GPU serving → timelines, for both systems.

use cluster::{
    build_timeline, cluster_workload, run_cluster_detailed, summarize, AutoscalePolicy,
    ClusterConfig, ClusterSystem, NodeSignals, ScaleDecision,
};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{train_unified, TrainerConfig};
use std::sync::Arc;
use workload::{synthesize_maf_like, RateTrace};

fn trained_quad(lib: &Arc<ModelLibrary>, gpu: &GpuSpec) -> Arc<dyn LatencyModel> {
    let (mlp, _) = train_unified(
        &[vec![
            ModelId::ResNet101,
            ModelId::ResNet152,
            ModelId::Vgg19,
            ModelId::Bert,
        ]],
        lib,
        gpu,
        &NoiseModel::calibrated(),
        &TrainerConfig {
            samples_per_set: 500,
            runs_per_group: 3,
            mlp: predictor::MlpConfig {
                epochs: 80,
                ..predictor::MlpConfig::default()
            },
            seed: 31,
        },
    );
    Arc::new(mlp)
}

/// Both systems under a bursty trace: identical arrivals, full accounting,
/// Clockwork never completes past-deadline work, and the timeline follows
/// the offered load.
#[test]
fn cluster_replay_full_accounting() {
    let lib = Arc::new(ModelLibrary::new());
    let v100 = GpuSpec::v100();
    let noise = NoiseModel::calibrated();
    let minutes = 3;
    let trace = synthesize_maf_like(minutes, 120.0, 5);
    let cfg = ClusterConfig {
        nodes: 1,
        gpus_per_node: 3,
        ..ClusterConfig::paper(trace, 17)
    };
    let (arrivals, inputs) = cluster_workload(&cfg, &lib);
    let reqs: Vec<u32> = inputs.iter().map(|i| i.batch).collect();
    let mlp = trained_quad(&lib, &v100);

    let abacus = run_cluster_detailed(
        ClusterSystem::AbacusK8s,
        &cfg,
        &lib,
        &v100,
        &noise,
        Some(mlp),
    )
    .records;
    let clockwork =
        run_cluster_detailed(ClusterSystem::Clockwork, &cfg, &lib, &v100, &noise, None).records;
    assert_eq!(abacus.len(), arrivals.len());
    assert_eq!(clockwork.len(), arrivals.len());

    // Clockwork's admission control: completed queries are within QoS (a
    // sliver of tolerance for noise beyond the admission margin).
    for r in &clockwork {
        if r.outcome == abacus_metrics::QueryOutcome::Completed {
            assert!(r.latency_ms <= cfg.qos_ms * 1.02, "{}", r.latency_ms);
        }
    }

    // The achieved timeline tracks offered load when not saturated.
    let tl = build_timeline(&arrivals, &reqs, &abacus, minutes);
    assert_eq!(tl.len(), minutes);
    for p in &tl[..minutes - 1] {
        // Within 35% of offered (completions can spill across minutes).
        assert!(
            p.achieved_rps > 0.6 * p.offered_rps,
            "minute {}: {} vs {}",
            p.minute,
            p.achieved_rps,
            p.offered_rps
        );
    }

    let s = summarize(&abacus, 0, minutes);
    assert!(s.mean_rps > 0.0);
    assert!(s.p99_ms > 0.0);
}

/// More GPUs means more completions under overload (the routing layer
/// actually spreads load).
#[test]
fn scaling_out_adds_capacity() {
    let lib = Arc::new(ModelLibrary::new());
    let v100 = GpuSpec::v100();
    let noise = NoiseModel::calibrated();
    let trace = RateTrace::new(vec![260.0; 2]);
    let completed = |gpus: usize| {
        let cfg = ClusterConfig {
            nodes: 1,
            gpus_per_node: gpus,
            ..ClusterConfig::paper(trace.clone(), 7)
        };
        run_cluster_detailed(ClusterSystem::Clockwork, &cfg, &lib, &v100, &noise, None)
            .records
            .iter()
            .filter(|r| r.outcome == abacus_metrics::QueryOutcome::Completed)
            .count()
    };
    let two = completed(2);
    let four = completed(4);
    assert!(four > two, "4 gpus {four} vs 2 gpus {two}");
}

/// The §7.9 autoscaler consumes the signals a cluster run produces.
#[test]
fn autoscaler_reacts_to_cluster_state() {
    let policy = AutoscalePolicy::default();
    // A saturated VGG-heavy node: overlap gain near 1 → scale out.
    let saturated = NodeSignals {
        busy_fraction: 0.99,
        violation_ratio: 0.15,
        overlap_gain: 1.05,
    };
    assert_eq!(policy.decide(&saturated), ScaleDecision::ScaleOut);
    // A ResNet-style node with overlap headroom → scale up density.
    let roomy = NodeSignals {
        busy_fraction: 0.92,
        violation_ratio: 0.08,
        overlap_gain: 1.6,
    };
    assert_eq!(policy.decide(&roomy), ScaleDecision::ScaleUp);
    assert_eq!(
        policy.decide_fleet(&[saturated, roomy]),
        ScaleDecision::ScaleOut
    );
}
