//! Table 1, Table 2 and the §7.8 overhead report.

use crate::common::{ensure_predictor, Options};
use abacus_core::{AbacusConfig, AbacusScheduler, Scheduler};
use abacus_metrics::Table;
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, MigProfile};
use predictor::sampling::all_pairs;
use std::sync::Arc;

/// Table 1: the served model zoo with its input randomisation and the
/// simulated solo latencies / QoS targets that calibrate the experiments.
pub fn table1(_opts: &Options) {
    let lib = ModelLibrary::new();
    let gpu = GpuSpec::a100();
    let mut t = Table::new(vec![
        "model",
        "operators",
        "batch sizes",
        "seq lengths",
        "solo(max) ms",
        "QoS ms",
    ]);
    for m in ModelId::PAPER_MODELS {
        let g = lib.graph(m, m.max_input());
        t.row(vec![
            m.name().to_string(),
            g.len().to_string(),
            "4,8,16,32".to_string(),
            if m.is_nlp() { "8,16,32,64" } else { "-" }.to_string(),
            format!("{:.1}", lib.solo_ms(m, m.max_input(), &gpu)),
            format!("{:.1}", lib.qos_target_ms(m, &gpu)),
        ]);
    }
    println!(
        "Table 1 — DNN models used for serving (simulated A100)\n{}",
        t.render()
    );
}

/// Table 2: the (simulated) evaluation hardware.
pub fn table2(_opts: &Options) {
    let mut t = Table::new(vec!["GPU", "SMs", "eff. TFLOP/s", "eff. TB/s", "role"]);
    let rows: Vec<(GpuSpec, &str)> = vec![
        (GpuSpec::a100(), "single-GPU experiments (Figs. 3-21)"),
        (GpuSpec::v100(), "cluster experiment (Fig. 22)"),
        (
            GpuSpec::a100().mig_slice(MigProfile::OneG5Gb),
            "Fig. 20/21 full isolation",
        ),
        (
            GpuSpec::a100().mig_slice(MigProfile::TwoG10Gb),
            "Fig. 20/21 pair-wise isolation",
        ),
        (
            GpuSpec::a100().mig_slice(MigProfile::FourG20Gb),
            "Fig. 20/21 no isolation",
        ),
    ];
    for (g, role) in rows {
        t.row(vec![
            g.name.clone(),
            g.sm_count.to_string(),
            format!("{:.1}", g.peak_flops / 1e12),
            format!("{:.2}", g.peak_bw / 1e12),
            role.to_string(),
        ]);
    }
    println!(
        "Table 2 — evaluation specification (simulated; see DESIGN.md)\n{}",
        t.render()
    );
}

/// §7.8: offline profiling budget, predictor footprint, online overheads.
pub fn overhead(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let sets: Vec<Vec<ModelId>> = all_pairs().iter().map(|p| p.to_vec()).collect();
    let mlp = ensure_predictor("unified_a100", &sets, &lib, &gpu, opts);

    println!("Overhead report (§7.8)");
    println!("  predictor parameters : {}", mlp.param_count());
    println!(
        "  predictor size       : {:.1} kB as stored f64 ({:.1} kB at the paper's f32)",
        mlp.size_bytes() as f64 / 1024.0,
        mlp.param_count() as f64 * 4.0 / 1024.0
    );
    println!("    paper reports      : ~14 kB");

    // Online scheduling: mean prediction rounds per decision on a busy
    // queue, plus the wall-clock latency of one decision on this host.
    let mut sched = AbacusScheduler::new(mlp.clone(), lib.clone(), AbacusConfig::default());
    let queue: Vec<abacus_core::Query> = ModelId::PAPER_MODELS
        .iter()
        .take(4)
        .enumerate()
        .map(|(i, &m)| {
            let input = m.max_input();
            abacus_core::Query::new(
                i as u64,
                m,
                input,
                0.0,
                lib.qos_target_ms(m, &gpu),
                lib.graph(m, input).len(),
            )
        })
        .collect();
    let t0 = std::time::Instant::now();
    let reps = 200;
    for _ in 0..reps {
        let _ = sched.decide(1.0, &queue);
    }
    let per_decision = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    println!(
        "  scheduling decision  : {:.3} ms wall-clock on this host ({:.1} prediction rounds avg)",
        per_decision,
        sched.mean_prediction_rounds()
    );
    println!("    paper reports      : ~0.26 ms overall prediction latency per decision");

    // Intermediate-result memory: execute a partially-scheduled group.
    let mut exec = abacus_core::SegmentalExecutor::new(
        gpu.clone(),
        gpu_sim::NoiseModel::disabled(),
        lib.clone(),
        1,
    );
    let spec = predictor::GroupSpec::new(
        vec![
            predictor::GroupEntry {
                model: ModelId::ResNet152,
                op_start: 0,
                op_end: 180,
                input: ModelId::ResNet152.max_input(),
            },
            predictor::GroupEntry {
                model: ModelId::Bert,
                op_start: 0,
                op_end: 80,
                input: ModelId::Bert.max_input(),
            },
        ],
        &lib,
    );
    let out = exec.execute(&spec);
    println!(
        "  intermediate results : {:.1} MB for two partially-processed queries",
        out.saved_bytes / 1e6
    );
    println!("    paper reports      : ~20 MB");
    println!(
        "  offline profiling    : {} samples x {} runs per pair at this scale (paper: 2000 x 100, ~2 h/pair)",
        opts.scale.samples_per_set(),
        opts.scale.runs_per_group()
    );
}
