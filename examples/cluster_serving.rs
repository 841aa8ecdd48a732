//! Cluster-scale serving (§7.6): a small Abacus + K8s-style cluster vs
//! Clockwork replaying a bursty MAF-like trace, with the §7.9 autoscaler
//! reading the resulting signals.
//!
//! ```sh
//! cargo run --release --example cluster_serving
//! ```

use cluster::{
    build_timeline, cluster_workload, run_cluster_detailed, summarize, AutoscalePolicy,
    ClusterConfig, ClusterSystem, NodeSignals,
};
use dnn_models::ModelLibrary;
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{train_unified, TrainerConfig};
use std::sync::Arc;
use workload::synthesize_maf_like;

fn main() {
    let lib = Arc::new(ModelLibrary::new());
    let v100 = GpuSpec::v100();
    let noise = NoiseModel::calibrated();

    // A 2-node × 2-GPU cluster and an 8-minute diurnal trace.
    let minutes = 8;
    let trace = synthesize_maf_like(minutes, 200.0, 11);
    let cfg = ClusterConfig {
        nodes: 2,
        gpus_per_node: 2,
        ..ClusterConfig::paper(trace, 3)
    };
    println!(
        "cluster: {} nodes x {} {} GPUs, quad deployment {:?}, QoS {} ms",
        cfg.nodes,
        cfg.gpus_per_node,
        v100.name,
        cfg.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
        cfg.qos_ms
    );

    println!("training the V100 quad predictor...");
    let (mlp, _) = train_unified(
        std::slice::from_ref(&cfg.models),
        &lib,
        &v100,
        &noise,
        &TrainerConfig {
            samples_per_set: 800,
            runs_per_group: 4,
            ..TrainerConfig::default()
        },
    );
    let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);

    let (arrivals, inputs) = cluster_workload(&cfg, &lib);
    let reqs: Vec<u32> = inputs.iter().map(|i| i.batch).collect();
    println!(
        "replaying {} queries over {minutes} minutes...\n",
        arrivals.len()
    );

    let detailed = run_cluster_detailed(
        ClusterSystem::AbacusK8s,
        &cfg,
        &lib,
        &v100,
        &noise,
        Some(mlp),
    );
    let abacus = detailed.records;
    let clockwork =
        run_cluster_detailed(ClusterSystem::Clockwork, &cfg, &lib, &v100, &noise, None).records;

    println!(
        "{:>6} {:>9} {:>11} {:>11} {:>9} {:>9}",
        "minute", "offered", "abacus r/s", "clock r/s", "aba p99", "clk p99"
    );
    let tl_a = build_timeline(&arrivals, &reqs, &abacus, minutes);
    let tl_c = build_timeline(&arrivals, &reqs, &clockwork, minutes);
    for (a, c) in tl_a.iter().zip(&tl_c) {
        println!(
            "{:>6} {:>9.0} {:>11.0} {:>11.0} {:>9.1} {:>9.1}",
            a.minute, a.offered_rps, a.achieved_rps, c.achieved_rps, a.p99_ms, c.p99_ms
        );
    }

    let sa = summarize(&abacus, 1, minutes);
    let sc = summarize(&clockwork, 1, minutes);
    println!(
        "\nsteady state: Abacus {:.0} r/s ({:.1}% drops) vs Clockwork {:.0} r/s ({:.1}% drops)",
        sa.mean_rps,
        100.0 * sa.drop_ratio,
        sc.mean_rps,
        100.0 * sc.drop_ratio
    );

    // Feed the autoscaler the *measured* per-GPU signals (§7.9).
    let horizon = minutes as f64 * 60_000.0;
    let fleet: Vec<NodeSignals> = detailed
        .gpu_usage
        .iter()
        .map(|u| NodeSignals {
            busy_fraction: u.busy_fraction(horizon),
            violation_ratio: sa.drop_ratio,
            overlap_gain: u.overlap_gain(),
        })
        .collect();
    for (g, s) in fleet.iter().enumerate() {
        println!(
            "gpu {g}: busy {:.0}%, overlap gain {:.2}x",
            100.0 * s.busy_fraction,
            s.overlap_gain
        );
    }
    println!(
        "autoscaler decision for this fleet: {:?}",
        AutoscalePolicy::default().decide_fleet(&fleet)
    );
}
