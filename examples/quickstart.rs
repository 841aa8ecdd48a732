//! Quickstart: co-locate two DNN services on one simulated A100 with
//! Abacus and watch the deterministic operator overlap in action.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{run, train_unified, ColocationConfig, PolicyKind, RunSpec, TrainerConfig};
use std::sync::Arc;

fn main() {
    // 1. The substrate: an instantiated model zoo and a calibrated A100.
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let pair = [ModelId::ResNet152, ModelId::Bert];
    println!(
        "deploying {} + {} on {}",
        pair[0].name(),
        pair[1].name(),
        gpu.name
    );
    for m in pair {
        println!(
            "  {:<8} solo(max input) = {:5.1} ms, QoS target = {:5.1} ms",
            m.name(),
            lib.solo_ms(m, m.max_input(), &gpu),
            lib.qos_target_ms(m, &gpu),
        );
    }

    // 2. Offline phase (§5): sample operator groups the scheduler can
    //    produce, profile them on the GPU, train the MLP duration model.
    println!("\ntraining the overlap-aware latency predictor...");
    let (mlp, data) = train_unified(
        &[pair.to_vec()],
        &lib,
        &gpu,
        &noise,
        &TrainerConfig {
            samples_per_set: 800,
            runs_per_group: 5,
            ..TrainerConfig::default()
        },
    );
    let mut rng = workload::SeededRng::new(1);
    let (_, test) = data.split(0.85, &mut rng);
    println!(
        "  trained on {} profiled operator groups; held-out MAPE {:.1}%",
        data.len(),
        100.0 * predictor::eval::mape(&mlp, &test)
    );
    let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);

    // 3. Online phase (§6): serve 25 QPS per service for 15 seconds under
    //    FCFS (the Nexus/Clockwork per-GPU policy) and under Abacus.
    let cfg = ColocationConfig {
        qps_per_service: 25.0,
        horizon_ms: 15_000.0,
        seed: 42,
        ..ColocationConfig::default()
    };
    println!("\nserving 25 QPS per service for 15 s (identical workloads):");
    println!(
        "  {:<8} {:>9} {:>12} {:>12}",
        "policy", "p99 (ms)", "violations", "tput (q/s)"
    );
    for policy in [PolicyKind::Fcfs, PolicyKind::Edf, PolicyKind::Abacus] {
        let pred = (policy == PolicyKind::Abacus).then(|| mlp.clone());
        let spec = RunSpec::new(&pair, policy, pred, &lib, &gpu, &noise, &cfg);
        let r = run(&spec, None);
        println!(
            "  {:<8} {:>9.1} {:>11.1}% {:>12.1}",
            policy.name(),
            r.all.p99_latency(),
            100.0 * r.violation_ratio(),
            r.completed_qps(),
        );
    }
    println!("\nAbacus overlaps operators across the services deterministically,");
    println!("so its tail latency drops while throughput rises — the paper's core result.");
}
