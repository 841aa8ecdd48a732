//! Straight-line references for the optimized layers, kept in one place.
//!
//! Every optimized hot path in the workspace is pinned, bit for bit, to a
//! pre-overhaul reference: the golden tests assert identical outputs and
//! the `engine_bench`/`decision_bench`/`train_bench` baselines time the
//! same code. This crate holds the single copy of each reference, so a
//! test and a bench can never drift apart:
//!
//! * [`engine::BaselineEngine`] — the discrete-event core before the
//!   calendar queue, SoA/SIMD loop and incremental `U_c`/`U_m` aggregates;
//! * [`decision::plan_group`] and [`decision::BaselineController`] — the
//!   multi-way search and the headroom controller before the order index,
//!   arena scratch and template-patched probe encoding;
//! * [`trainer`] — the scalar per-sample MLP trainer and gradient oracle
//!   before the minibatch matrix trainer and its batched kernels;
//! * [`SpanModel`] — the constant-time synthetic predictor the search,
//!   scheduler, serving and cluster fixtures share;
//! * [`Lcg`] — the fixture random stream every generator above draws from.
//!
//! The crate is verification-only (`publish = false`): the `bench` crate
//! takes it as a normal dependency, every other user as a dev-dependency.

pub mod decision;
pub mod engine;
pub mod trainer;

use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::GpuSpec;
use predictor::{LatencyModel, MAX_COLOCATED, MODEL_SLOT_BASE, SLOT_WIDTH};

/// Synthetic monotone duration model: each present model contributes its
/// normalised operator span (`op_end − op_start` of its Fig. 8 slot) times
/// a per-model cost in ms. Constant-time per row, so what a fixture
/// measures is the layer above the predictor, not inference.
pub struct SpanModel(Cost);

enum Cost {
    Uniform(f64),
    PerModel([f64; ModelId::ALL.len()]),
}

impl SpanModel {
    /// Every model costs `ms` per unit of normalised span.
    pub fn uniform(ms: f64) -> Self {
        Self(Cost::Uniform(ms))
    }

    /// Each model costs its max-input solo latency on `gpu` per unit of
    /// normalised span — a crude per-operator cost calibrated to the GPU.
    pub fn solo_weighted(lib: &ModelLibrary, gpu: &GpuSpec) -> Self {
        Self(Cost::PerModel(
            ModelId::ALL.map(|m| lib.solo_ms(m, m.max_input(), gpu)),
        ))
    }
}

/// Sum of every slot's span times `ms`. Empty slots encode a zero span, so
/// this adds exactly the present models' terms, without a branch per model.
fn uniform_span(x: &[f64], ms: f64) -> f64 {
    let mut total: f64 = 0.0;
    for slot in 0..MAX_COLOCATED {
        let base = MODEL_SLOT_BASE + slot * SLOT_WIDTH;
        total += (x[base + 1] - x[base]) * ms;
    }
    total
}

/// Sum of each present model's span times its own cost. Present models
/// occupy the slots in model-index order.
fn weighted_span(x: &[f64], ms: &[f64; ModelId::ALL.len()]) -> f64 {
    let mut total: f64 = 0.0;
    let mut slot = 0;
    for (idx, &ms) in ms.iter().enumerate() {
        if x[idx] > 0.5 {
            let base = MODEL_SLOT_BASE + slot * SLOT_WIDTH;
            total += (x[base + 1] - x[base]) * ms;
            slot += 1;
        }
    }
    total
}

impl LatencyModel for SpanModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        match &self.0 {
            Cost::Uniform(ms) => uniform_span(x, *ms),
            Cost::PerModel(ms) => weighted_span(x, ms),
        }
    }

    // Statically-dispatched batch path: one dyn call and one cost match
    // per batch instead of per row. Every side of a comparison shares this
    // model, so the override shifts no cost between them; it only keeps
    // the fixture predictor from dominating what the benches measure.
    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        if n == 0 {
            assert!(xs.is_empty(), "rows supplied but n == 0");
            return;
        }
        assert_eq!(xs.len() % n, 0, "ragged feature matrix");
        let rows = xs.chunks_exact(xs.len() / n);
        match &self.0 {
            Cost::Uniform(ms) => out.extend(rows.map(|x| uniform_span(x, *ms))),
            Cost::PerModel(ms) => out.extend(rows.map(|x| weighted_span(x, ms))),
        }
    }

    fn name(&self) -> &'static str {
        "span"
    }
}

/// The 64-bit linear congruential stream (Knuth's MMIX constants) behind
/// every fixture generator: cheap, seedable and identical on every host.
pub struct Lcg(u64);

impl Lcg {
    /// A stream seeded from `seed` (forced odd).
    pub fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// The next 31-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}
