//! The K8s cluster path (`ClusterSystem::AbacusK8s`) pinned record for
//! record to the pre-overhaul reference in `reference::cluster`: same
//! round-robin node ingress, same least-connections GPU pick, same
//! per-GPU decide → execute → retire rounds, so the same bytes out.

use cluster::{cluster_workload, run_cluster_detailed, ClusterConfig, ClusterSystem};
use dnn_models::ModelLibrary;
use faults::NodeDegradation;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use reference::SpanModel;
use std::sync::Arc;
use workload::RateTrace;

/// Run one 2-node × 2-GPU cell through both paths and compare.
fn assert_matches_reference(degraded: Vec<NodeDegradation>, parallel: bool) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::v100();
    let noise = NoiseModel::calibrated();
    let mut cfg = ClusterConfig {
        nodes: 2,
        gpus_per_node: 2,
        parallel,
        degraded,
        ..ClusterConfig::paper(RateTrace::new(vec![60.0; 2]), 11)
    };
    // The default calibrates the round latency from the wall clock.
    cfg.abacus.predict_round_ms = Some(0.08);
    let predictor: Arc<dyn LatencyModel> = Arc::new(SpanModel::solo_weighted(&lib, &gpu));
    let got = run_cluster_detailed(
        ClusterSystem::AbacusK8s,
        &cfg,
        &lib,
        &gpu,
        &noise,
        Some(predictor.clone()),
    )
    .records;
    let (arrivals, inputs) = cluster_workload(&cfg, &lib);
    let want = reference::cluster::run(
        &reference::cluster::Config {
            nodes: cfg.nodes,
            gpus_per_node: cfg.gpus_per_node,
            models: cfg.models.clone(),
            qos_ms: cfg.qos_ms,
            seed: cfg.seed,
            abacus: cfg.abacus.clone(),
            parallel: cfg.parallel,
            slowdowns: (0..cfg.nodes).map(|n| cfg.node_slowdown(n)).collect(),
        },
        &lib,
        &gpu,
        &noise,
        predictor,
        &arrivals,
        &inputs,
    );
    assert!(arrivals.len() > 5_000, "cell too small: {}", arrivals.len());
    assert_eq!(got.len(), arrivals.len(), "every arrival accounted once");
    assert_eq!(got, want, "K8s records diverged from reference::cluster");
}

#[test]
fn healthy_serial_k8s_matches_reference_record_for_record() {
    assert_matches_reference(Vec::new(), false);
}

#[test]
fn degraded_parallel_k8s_matches_reference_record_for_record() {
    let slow = NodeDegradation {
        node: 1,
        slowdown: 3.0,
    };
    assert_matches_reference(vec![slow], true);
}
