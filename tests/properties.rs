//! Property-based tests (proptest) of the core invariants, spanning the
//! simulator, the cost model, the feature encoding and the search.

use dnn_models::{ModelId, ModelLibrary, QueryInput, BATCH_CHOICES, SEQ_CHOICES};
use gpu_sim::{run_group, GpuSpec, KernelDesc, NoiseModel};
use predictor::{
    sample_group, Dataset, LatencyModel, LinearRegression, LinearSvr, Mlp, MlpConfig, SvrConfig,
    FEATURE_DIM,
};
use proptest::prelude::*;
use reference::SpanModel;
use std::sync::Arc;
use std::sync::OnceLock;
use workload::SeededRng;

fn library() -> &'static Arc<ModelLibrary> {
    static LIB: OnceLock<Arc<ModelLibrary>> = OnceLock::new();
    LIB.get_or_init(|| Arc::new(ModelLibrary::new()))
}

/// One quickly-trained model of each predictor family, over
/// `FEATURE_DIM`-shaped synthetic data (for the batch-consistency
/// property).
fn predictors() -> &'static Vec<Box<dyn LatencyModel>> {
    static MODELS: OnceLock<Vec<Box<dyn LatencyModel>>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut rng = SeededRng::new(42);
        let mut d = Dataset::new();
        for _ in 0..200 {
            let x: Vec<f64> = (0..FEATURE_DIM).map(|_| rng.f64()).collect();
            let y = 2.0 + x.iter().sum::<f64>();
            d.push(x, y);
        }
        vec![
            Box::new(Mlp::train(
                &d,
                &MlpConfig {
                    epochs: 5,
                    ..MlpConfig::default()
                },
            )),
            Box::new(LinearRegression::fit(&d, 1e-6)),
            Box::new(LinearSvr::fit(
                &d,
                &SvrConfig {
                    epochs: 10,
                    ..SvrConfig::default()
                },
            )),
        ]
    })
}

fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (1e6f64..1e11, 1e4f64..1e9, 1.0f64..5000.0)
        .prop_map(|(flops, bytes, blocks)| KernelDesc::new(flops, bytes, blocks))
}

fn arb_stream() -> impl Strategy<Value = Vec<KernelDesc>> {
    proptest::collection::vec(arb_kernel(), 1..12)
}

fn arb_model() -> impl Strategy<Value = ModelId> {
    (0usize..ModelId::ALL.len()).prop_map(ModelId::from_index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Group latency is bounded below by the slowest member's solo time and
    /// above by sequential execution (plus the interference margin).
    #[test]
    fn group_latency_bounds(streams in proptest::collection::vec(arb_stream(), 1..4)) {
        let gpu = GpuSpec::a100();
        let result = run_group(&gpu, &NoiseModel::disabled(), 0, &streams);
        let solos: Vec<f64> = streams
            .iter()
            .map(|s| gpu_sim::kernel::sequence_solo_ms(s, &gpu))
            .collect();
        let max_solo = solos.iter().cloned().fold(0.0, f64::max);
        let seq: f64 = solos.iter().sum();
        prop_assert!(result.total_ms >= max_solo - 1e-9, "{} < {max_solo}", result.total_ms);
        prop_assert!(result.total_ms <= seq * 1.20 + 1e-9, "{} > {seq}", result.total_ms);
    }

    /// Adding a co-running stream never makes an existing stream finish
    /// earlier (contention monotonicity at the system level).
    #[test]
    fn corunner_never_speeds_up(a in arb_stream(), b in arb_stream()) {
        let gpu = GpuSpec::a100();
        let alone = run_group(&gpu, &NoiseModel::disabled(), 0, std::slice::from_ref(&a));
        let together = run_group(&gpu, &NoiseModel::disabled(), 0, &[a, b]);
        prop_assert!(together.completions[0].end_ms >= alone.completions[0].end_ms - 1e-9);
    }

    /// The engine is deterministic: same seed, same result, even with noise.
    #[test]
    fn engine_determinism(streams in proptest::collection::vec(arb_stream(), 1..3), seed in 0u64..1000) {
        let gpu = GpuSpec::a100();
        let x = run_group(&gpu, &NoiseModel::calibrated(), seed, &streams);
        let y = run_group(&gpu, &NoiseModel::calibrated(), seed, &streams);
        prop_assert_eq!(x, y);
    }

    /// Kernel roofline sanity on arbitrary kernels: occupancy, shares and
    /// solo time stay in their domains on both the full GPU and MIG slices.
    #[test]
    fn kernel_cost_domains(k in arb_kernel()) {
        for gpu in [GpuSpec::a100(), GpuSpec::v100(), GpuSpec::a100().mig_slice(gpu_sim::MigProfile::OneG5Gb)] {
            prop_assert!((0.0..=1.0).contains(&k.occupancy(&gpu)));
            prop_assert!(k.efficiency(&gpu) >= k.occupancy(&gpu) - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&k.compute_share(&gpu)));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&k.memory_share(&gpu)));
            prop_assert!(k.solo_ms(&gpu) >= k.launch_ms);
        }
    }

    /// Instance-based sampling always produces schedulable groups: valid
    /// ranges, at least one completing query, Fig. 8 features in [0, 1].
    #[test]
    fn sampled_groups_are_valid(seed in 0u64..500) {
        let lib = library();
        let mut rng = SeededRng::new(seed);
        let models = [ModelId::ResNet101, ModelId::Vgg16, ModelId::Bert];
        let g = sample_group(&models, lib, &mut rng);
        let mut any_complete = false;
        for e in &g.entries {
            let n = lib.graph(e.model, e.input).len();
            prop_assert!(e.op_start < e.op_end && e.op_end <= n);
            any_complete |= e.op_end == n;
        }
        prop_assert!(any_complete);
        let x = g.features(lib);
        prop_assert_eq!(x.len(), FEATURE_DIM);
        prop_assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// Model instantiation is monotone in batch size: more batch, more
    /// FLOPs and never a faster solo run.
    #[test]
    fn batch_monotonicity(model in arb_model()) {
        let gpu = GpuSpec::a100();
        let lib = library();
        let seqs = model.seq_choices();
        let seq = seqs[seqs.len() - 1];
        let mut last_flops = 0.0;
        let mut last_solo = 0.0;
        for &b in &BATCH_CHOICES {
            let g = lib.graph(model, QueryInput::new(b, seq));
            let flops = g.total_flops();
            let solo = g.solo_ms(&gpu);
            prop_assert!(flops > last_flops);
            prop_assert!(solo >= last_solo);
            last_flops = flops;
            last_solo = solo;
        }
    }

    /// BERT cost is monotone in sequence length too (§3.3's input
    /// sensitivity).
    #[test]
    fn bert_seq_monotonicity(b in 0usize..BATCH_CHOICES.len()) {
        let lib = library();
        let batch = BATCH_CHOICES[b];
        let mut last = 0.0;
        for &s in &SEQ_CHOICES {
            let f = lib.graph(ModelId::Bert, QueryInput::new(batch, s)).total_flops();
            prop_assert!(f > last);
            last = f;
        }
    }

    /// The multi-way search's output always satisfies its contract: head
    /// query fully included, prediction within budget, ranges valid.
    #[test]
    fn search_respects_budget(budget in 5.0f64..120.0, ways in 1usize..8) {
        let lib = library();
        let models = [ModelId::ResNet152, ModelId::InceptionV3, ModelId::Bert];
        let queries: Vec<abacus_core::Query> = models
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let input = m.max_input();
                abacus_core::Query::new(i as u64, m, input, 0.0, 200.0, lib.graph(m, input).len())
            })
            .collect();
        let refs: Vec<&abacus_core::Query> = queries.iter().collect();
        match abacus_core::plan_group(&refs, budget, &SpanModel::uniform(30.0), lib, ways) {
            abacus_core::SearchResult::Planned(p) => {
                prop_assert!(p.predicted_ms <= budget + 1e-9);
                prop_assert_eq!(p.entries[0].query_id, 0);
                prop_assert_eq!(p.entries[0].op_end, queries[0].n_ops);
                for e in &p.entries {
                    prop_assert!(e.op_start < e.op_end);
                }
            }
            abacus_core::SearchResult::Infeasible { .. } => {
                // Head alone must genuinely exceed the budget.
                prop_assert!(budget < 30.0 + 1.0);
            }
        }
    }

    /// Batched prediction (`predict_batch`, `predict_into`) is
    /// interchangeable with per-sample `predict_one` on real Fig. 8
    /// feature rows, for all three predictor families — the contract the
    /// multi-way search's buffered hot path relies on.
    #[test]
    fn batched_prediction_matches_scalar(seed in 0u64..300, n in 1usize..33) {
        let lib = library();
        let mut rng = SeededRng::new(seed);
        let models = [ModelId::ResNet152, ModelId::Vgg16, ModelId::Bert];
        let batch: Vec<Vec<f64>> = (0..n)
            .map(|_| sample_group(&models, lib, &mut rng).features(lib))
            .collect();
        let flat: Vec<f64> = batch.iter().flatten().copied().collect();
        for model in predictors() {
            let one: Vec<f64> = batch.iter().map(|r| model.predict_one(r)).collect();
            let via_batch = model.predict_batch(&batch);
            let mut via_into = Vec::new();
            model.predict_into(&flat, n, &mut via_into);
            prop_assert_eq!(via_batch.len(), n);
            prop_assert_eq!(via_into.len(), n);
            for i in 0..n {
                prop_assert!((one[i] - via_batch[i]).abs() <= 1e-9, "{} batch row {i}", model.name());
                prop_assert!((one[i] - via_into[i]).abs() <= 1e-9, "{} into row {i}", model.name());
            }
        }
    }

    /// Percentile estimation is order-safe and bounded by the sample range.
    #[test]
    fn percentile_bounds(mut xs in proptest::collection::vec(0.0f64..1e4, 1..200), p in 0.0f64..100.0) {
        let v = abacus_metrics::percentile(&xs, p);
        xs.sort_by(|a, b| a.total_cmp(b));
        prop_assert!(v >= xs[0] - 1e-9 && v <= xs[xs.len() - 1] + 1e-9);
    }
}
