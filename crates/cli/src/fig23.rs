//! Fig. 23 — latency of identifying an operator group vs number of search
//! ways (§7.7).
//!
//! This is the one experiment that is a *real measurement*, not a
//! simulation: the trained MLP runs on this host's CPU, and we time one
//! batched prediction round at 1–16 ways, plus a full multi-way scheduling
//! decision. The paper measures 0.066 ms at 1 way rising to ~0.088 ms at
//! ≥2 ways on a single core, and ~0.26 ms for a full decision.

use crate::common::{ensure_predictor, Options};
use abacus_core::search::plan_group;
use abacus_core::Query;
use abacus_metrics::CsvWriter;
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::GpuSpec;
use predictor::sampling::all_pairs;
use predictor::{GroupEntry, GroupSpec, LatencyModel};
use std::sync::Arc;

fn candidate_batch(lib: &ModelLibrary, ways: usize) -> Vec<Vec<f64>> {
    (0..ways)
        .map(|i| {
            let spec = GroupSpec::new(
                vec![
                    GroupEntry {
                        model: ModelId::ResNet152,
                        op_start: 0,
                        op_end: 363,
                        input: ModelId::ResNet152.max_input(),
                    },
                    GroupEntry {
                        model: ModelId::Bert,
                        op_start: 0,
                        op_end: 20 + 9 * i,
                        input: ModelId::Bert.max_input(),
                    },
                ],
                lib,
            );
            spec.features(lib)
        })
        .collect()
}

/// Median wall time of `f` over `reps` runs, milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Measure and emit `results/fig23.csv`.
pub fn run(opts: &Options) {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let sets: Vec<Vec<ModelId>> = all_pairs().iter().map(|p| p.to_vec()).collect();
    let mlp = ensure_predictor("unified_a100", &sets, &lib, &gpu, opts);

    let mut csv = CsvWriter::create(
        opts.csv_path("fig23"),
        &["ways", "latency_ms", "scalar_ms", "speedup"],
    )
    .expect("csv");
    println!("Fig. 23 — one batched prediction round vs search ways (measured on this host)");
    for ways in 1..=16usize {
        let batch = candidate_batch(&lib, ways);
        let flat: Vec<f64> = batch.iter().flatten().copied().collect();
        let mut out = Vec::with_capacity(ways);
        let ms = time_ms(301, || {
            mlp.predict_into(&flat, ways, &mut out);
            std::hint::black_box(&out);
        });
        // The pre-batching per-sample loop, for the scalar-vs-batched gap.
        let scalar_ms = time_ms(301, || {
            for row in &batch {
                std::hint::black_box(mlp.predict_one_scalar(std::hint::black_box(row)));
            }
        });
        csv.write_record(&ways.to_string(), &[ms, scalar_ms, scalar_ms / ms])
            .expect("row");
        println!(
            "  {ways:>2} ways: batched {ms:.4} ms, scalar {scalar_ms:.4} ms ({:.2}x)",
            scalar_ms / ms
        );
    }
    csv.flush().expect("flush");
    println!("  (paper: 0.066 ms at 1 way -> ~0.088 ms, flat beyond 2 ways)");

    // A full scheduling decision (the §6.3 "three predictions, 0.26 ms").
    let queries: Vec<Query> = [ModelId::ResNet152, ModelId::Bert, ModelId::InceptionV3]
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let input = m.max_input();
            Query::new(i as u64, m, input, 0.0, 100.0, lib.graph(m, input).len())
        })
        .collect();
    let refs: Vec<&Query> = queries.iter().collect();
    let model: Arc<dyn LatencyModel> = mlp;
    let ms = time_ms(301, || {
        let out = plan_group(&refs, 60.0, model.as_ref(), &lib, 4);
        std::hint::black_box(out);
    });
    println!("  full 4-way scheduling decision: {ms:.3} ms (paper: ~0.26 ms)");
    println!("wrote {}", opts.csv_path("fig23").display());
}
