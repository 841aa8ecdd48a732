//! The MLP duration model (§5.5).
//!
//! The paper limits the network to 3 hidden layers of dimension 32, trains
//! on 80% of the profiled samples and reports ≈ 5.5% mean absolute
//! percentage error — an order of magnitude better than linear regression
//! or SVM, because group duration is strongly non-linear in the operator
//! ranges (different layers of a model have very different costs, and
//! contention kicks in only when shares saturate).
//!
//! Implemented from scratch: dense layers + ReLU, MSE loss on standardised
//! targets, Adam optimiser, mini-batch SGD. Everything is `f64` and
//! deterministic given the config seed.

use crate::dataset::Dataset;
use crate::features::FEATURE_DIM;
use crate::LatencyModel;
use workload::SeededRng;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths (paper: `[32, 32, 32]`).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed for init and shuffling.
    pub seed: u64,
    /// When set, train with the pinball (quantile) loss at this quantile
    /// instead of MSE: the model then predicts e.g. the 90th-percentile
    /// group duration, giving the controller a tail-aware budget check
    /// (an extension beyond the paper's mean predictor).
    pub quantile: Option<f64>,
    /// Compute minibatch gradient chunks on the calling thread instead of
    /// the worker pool. Purely a perf knob (benchmarking, contention-free
    /// hosts): the chunked reduction order is fixed, so serial and pooled
    /// training produce bit-identical weights.
    pub serial: bool,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 32, 32],
            epochs: 150,
            batch_size: 64,
            lr: 1e-3,
            seed: 0x5EED,
            quantile: None,
            serial: false,
        }
    }
}

impl MlpConfig {
    /// A faster configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            epochs: 40,
            ..Self::default()
        }
    }
}

/// One dense layer: weights and biases only (the optimiser state lives in
/// [`train_layers`]).
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim`.
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        // He initialisation for ReLU nets.
        let scale = (2.0 / in_dim as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.normal() * scale)
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }
}

/// The trained MLP duration model.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    net: Net,
}

/// The network core [`Mlp`] and [`QuantileMlp`] share: the trained layers,
/// the target standardisation and the inference plan derived from the
/// layers. A trained model is exactly this (plus the quantile levels of
/// the heads), so two models compare equal iff their parameters do.
#[derive(Debug, Clone, PartialEq)]
struct Net {
    layers: Vec<Dense>,
    /// Target standardisation.
    y_mean: f64,
    y_std: f64,
    /// Inference-time weight layout, derived from `layers` at assembly.
    plan: InferencePlan,
}

/// Inference-optimised weight layout for the batched forward pass.
///
/// Each layer's weights are stored transposed (`in_dim × out_dim`,
/// contiguous over outputs) so the batched kernel's inner loop is a
/// sequential axpy over one cache line-friendly row — the GEMM-style
/// layout the multi-way search's prediction rounds run against. Built once
/// when the model is assembled (training touches only `Dense::w`).
#[derive(Debug, Clone, PartialEq)]
struct InferencePlan {
    /// Per layer: transposed weights, `wt[i * out_dim + o] = w[o * in_dim + i]`.
    wt: Vec<Vec<f64>>,
    /// Widest activation (in elements) across all layers, for sizing the
    /// batch workspace.
    max_width: usize,
    /// Kernel SIMD tier (runtime-detected once).
    simd: Simd,
}

impl InferencePlan {
    fn build(layers: &[Dense]) -> Self {
        let wt = transposed(layers);
        let max_width = layers
            .iter()
            .flat_map(|l| [l.in_dim, l.out_dim])
            .max()
            .unwrap_or(1);
        Self {
            wt,
            max_width,
            simd: Simd::detect(),
        }
    }
}

/// Hidden-layer width of the paper's network (§5.5: three layers of 32).
/// The forward, gradient and delta kernels carry register-resident bodies
/// specialised for this width and for the Fig. 8 input width
/// [`FEATURE_DIM`]; every other width runs the generic bodies.
const HIDDEN_WIDTH: usize = 32;

/// Output rows up to this wide use the stack-accumulator fast path in
/// [`layer_generic`]; wider layers fall back to streaming through memory.
/// Generously above the paper's 32-wide hidden layers.
const LAYER_ACC_WIDTH: usize = 128;

/// One dense layer of the batched forward pass: `b[..n*dout] = bias ⊕
/// a[..n*din] · wt`, rows packed at their layer's stride. Output widths
/// [`HIDDEN_WIDTH`] and [`FEATURE_DIM`] run [`layer_fixed`], the
/// single-output head on a [`HIDDEN_WIDTH`] input runs [`head_fixed`], and
/// every other shape runs [`layer_generic`]; all agree bit for bit.
///
/// `#[inline(always)]` so each SIMD tier's `target_feature` wrapper (see
/// [`Simd::run`]) compiles this exact body at its vector width.
#[inline(always)]
fn layer_kernel(a: &[f64], b: &mut [f64], wt: &[f64], bias: &[f64], n: usize, din: usize) {
    match (bias.len(), din) {
        (HIDDEN_WIDTH, _) => layer_fixed::<HIDDEN_WIDTH>(a, b, wt, bias, n, din),
        (FEATURE_DIM, _) => layer_fixed::<FEATURE_DIM>(a, b, wt, bias, n, din),
        (1, HIDDEN_WIDTH) => head_fixed::<HIDDEN_WIDTH>(a, b, wt, bias[0], n),
        _ => layer_generic(a, b, wt, bias, n, din),
    }
}

/// Fixed-width forward body: each `N`-wide output row accumulates in a
/// `[f64; N]` the compiler keeps in vector registers across the whole input
/// loop, and every input — zero or not — adds its term, so the loop has no
/// data-dependent branch (post-ReLU zeros follow no pattern the branch
/// predictor could learn). Per output the terms add in ascending input
/// order, exactly as [`Dense::forward`] adds them.
#[inline(always)]
fn layer_fixed<const N: usize>(
    a: &[f64],
    b: &mut [f64],
    wt: &[f64],
    bias: &[f64],
    n: usize,
    din: usize,
) {
    let bias: [f64; N] = bias.try_into().expect("dispatched on an N-wide bias");
    let wrows = wt[..din * N].as_chunks::<N>().0;
    let rows = a[..n * din]
        .chunks_exact(din)
        .zip(b[..n * N].as_chunks_mut::<N>().0);
    for (arow, y) in rows {
        let mut acc = bias;
        for (&xi, wrow) in arow.iter().zip(wrows) {
            for (yo, &w) in acc.iter_mut().zip(wrow) {
                *yo += xi * w;
            }
        }
        *y = acc;
    }
}

/// Fixed-width body for a single-output layer (the mean head): each row's
/// output is one `N`-term dot product added in ascending input order,
/// every term included — a branch-free dependency chain per row, and
/// consecutive rows' chains overlap in the out-of-order core.
#[inline(always)]
fn head_fixed<const N: usize>(a: &[f64], b: &mut [f64], wt: &[f64], bias: f64, n: usize) {
    let wt: &[f64; N] = wt.try_into().expect("dispatched on an N × 1 weight matrix");
    for (arow, y) in a[..n * N].as_chunks::<N>().0.iter().zip(&mut b[..n]) {
        let mut acc = bias;
        for (&x, &w) in arow.iter().zip(wt) {
            acc += x * w;
        }
        *y = acc;
    }
}

/// Generic forward body for any layer shape.
///
/// Per batch row the output accumulates in a stack buffer that stays in
/// registers/L1 across the whole input loop, so each output row is written
/// to `b` exactly once instead of once per non-zero input; the transposed
/// weight matrix is small enough (≤ a few kB per layer) to stay cache-hot
/// across rows. Per output the terms accumulate in ascending input order —
/// exactly as [`Dense::forward`] — so batched and scalar predictions agree
/// bit for bit (the axpy inner loop is element-wise: vectorising *across*
/// outputs reorders nothing *within* an output's accumulation chain).
#[inline(always)]
fn layer_generic(a: &[f64], b: &mut [f64], wt: &[f64], bias: &[f64], n: usize, din: usize) {
    let dout = bias.len();
    if dout <= LAYER_ACC_WIDTH {
        let mut acc = [0.0f64; LAYER_ACC_WIDTH];
        let acc = &mut acc[..dout];
        let rows = a[..n * din]
            .chunks_exact(din)
            .zip(b[..n * dout].chunks_exact_mut(dout));
        for (arow, y) in rows {
            acc.copy_from_slice(bias);
            for (i, &xi) in arow.iter().enumerate() {
                // Fig. 8 vectors are mostly zero (multi-hot bitmap, empty
                // slots) and so are post-ReLU activations: skipping zero
                // inputs skips whole weight rows.
                if xi == 0.0 {
                    continue;
                }
                let wrow = &wt[i * dout..(i + 1) * dout];
                for (yo, &w) in acc.iter_mut().zip(wrow) {
                    *yo += xi * w;
                }
            }
            y.copy_from_slice(acc);
        }
        return;
    }
    for row in b[..n * dout].chunks_exact_mut(dout) {
        row.copy_from_slice(bias);
    }
    for i in 0..din {
        let wrow = &wt[i * dout..(i + 1) * dout];
        let rows = a[..n * din]
            .chunks_exact(din)
            .zip(b[..n * dout].chunks_exact_mut(dout));
        for (arow, y) in rows {
            let xi = arow[i];
            if xi == 0.0 {
                continue;
            }
            for (yo, &w) in y.iter_mut().zip(wrow) {
                *yo += xi * w;
            }
        }
    }
}

/// Reusable per-thread workspace for the batched forward pass: two
/// ping-pong activation buffers plus a packing buffer for the
/// `predict_batch` convenience path. Thread-local (instead of a lock)
/// keeps `&Mlp` freely shareable across scheduler threads with zero
/// contention on the hot path.
#[derive(Default)]
struct Workspace {
    a: Vec<f64>,
    b: Vec<f64>,
    packed: Vec<f64>,
    single: Vec<f64>,
}

thread_local! {
    static WORKSPACE: std::cell::RefCell<Workspace> = std::cell::RefCell::new(Workspace::default());
}

/// Adam hyper-parameters.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Samples per gradient chunk in minibatch training. Fixed — never derived
/// from the worker count — so the per-chunk partial sums and the
/// chunk-index reduction order are the same at 1 thread and N threads,
/// which makes the trained weights independent of host parallelism. 16
/// rows keeps one chunk's activations L1-resident while giving the default
/// 64-row minibatch four-way parallelism.
const GRAD_CHUNK: usize = 16;

/// Training-loss selector for the minibatch trainer. [`Loss::Mse`] drives
/// the width-1 mean head; [`Loss::MultiPinball`] trains one output head per
/// quantile, every head against the same standardised target, which is how
/// the p90/p95/p99 certification heads share one trunk. A single-quantile
/// [`Mlp`] (`MlpConfig::quantile`) is the one-head case.
#[derive(Clone, Copy)]
enum Loss<'a> {
    /// d(MSE)/d(out) on a single output.
    Mse,
    /// Per-head pinball sub-gradients: head `h` trains at `taus[h]`.
    MultiPinball(&'a [f64]),
}

/// Per-chunk scratch and gradient partial sums for minibatch training.
/// One lives behind a `Mutex` per chunk slot so pool workers can fill
/// disjoint chunks concurrently; the locks are uncontended by construction
/// (task `c` touches only slot `c`).
struct ChunkGrads {
    /// Row-packed post-ReLU activations entering each *hidden-to-next*
    /// layer: `acts[l]` is `rows × dims[l + 1]`, the input of layer
    /// `l + 1`. Layer 0's input is the caller's row slice itself.
    acts: Vec<Vec<f64>>,
    /// Pre-activations (before ReLU) per layer: `pre[l]` is
    /// `rows × dims[l+1]`.
    pre: Vec<Vec<f64>>,
    /// Back-propagated deltas, same shapes as `pre`.
    delta: Vec<Vec<f64>>,
    /// This chunk's gradient partial sums, laid out like `Dense::w`/`b`.
    gw: Vec<Vec<f64>>,
    gb: Vec<Vec<f64>>,
}

impl ChunkGrads {
    fn new(layers: &[Dense]) -> Self {
        let n = layers.len();
        Self {
            acts: vec![Vec::new(); n],
            pre: vec![Vec::new(); n],
            delta: vec![Vec::new(); n],
            gw: layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            gb: layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }
}

/// Each layer's weights transposed to `in_dim × out_dim`, the layout the
/// batched forward kernel reads.
fn transposed(layers: &[Dense]) -> Vec<Vec<f64>> {
    let mut wt: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
    refresh_transposed(layers, &mut wt);
    wt
}

/// Refresh the transposed (`in_dim × out_dim`) weight copies the batched
/// forward kernel reads. Called once per optimiser step — a dense 3×32 net
/// has ~3 k weights, so the transpose is noise next to the forward itself.
fn refresh_transposed(layers: &[Dense], wt: &mut [Vec<f64>]) {
    for (l, t) in layers.iter().zip(wt.iter_mut()) {
        for o in 0..l.out_dim {
            for i in 0..l.in_dim {
                t[i * l.out_dim + o] = l.w[o * l.in_dim + i];
            }
        }
    }
}

/// Write one chunk's weight/bias gradient partial sums: for every output
/// `o`, `gb[o] = Σ_r d` and `gw[o,·] = Σ_r d · acts[r,·]` with
/// `d = delta[r,o]`, each sum starting at `+0.0`. Input widths
/// [`HIDDEN_WIDTH`] and [`FEATURE_DIM`] run [`grad_fixed`], every other
/// width [`grad_generic`]; both agree bit for bit.
#[inline(always)]
fn grad_kernel(
    delta: &[f64],
    acts: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    rows: usize,
    din: usize,
) {
    match din {
        HIDDEN_WIDTH => grad_fixed::<HIDDEN_WIDTH>(delta, acts, gw, gb, rows),
        FEATURE_DIM => grad_fixed::<FEATURE_DIM>(delta, acts, gw, gb, rows),
        _ => grad_generic(delta, acts, gw, gb, rows, din),
    }
}

/// Fixed-width gradient body: one output's `N`-wide gradient row lives in
/// a `[f64; N]` register accumulator across the whole chunk, and every
/// row's term is added — zero deltas included — so the inner loop is
/// branch-free. Rows ascend, so each weight's terms still add in
/// ascending sample order, the order of the scalar reference trainer.
#[inline(always)]
fn grad_fixed<const N: usize>(
    delta: &[f64],
    acts: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    rows: usize,
) {
    let dout = gb.len();
    let arows = acts[..rows * N].as_chunks::<N>().0;
    let delta = &delta[..rows * dout];
    for (o, (b, grow)) in gb.iter_mut().zip(gw.as_chunks_mut::<N>().0).enumerate() {
        let mut acc = [0.0f64; N];
        let mut bsum = 0.0;
        for (arow, drow) in arows.iter().zip(delta.chunks_exact(dout)) {
            let d = drow[o];
            bsum += d;
            for (g, &a) in acc.iter_mut().zip(arow) {
                *g += d * a;
            }
        }
        *b = bsum;
        *grow = acc;
    }
}

/// Generic gradient body for any layer shape.
///
/// Outputs are the outer loop so one gradient row (and its bias cell)
/// stays hot across the whole chunk; rows ascend in the inner loop, so
/// each weight's terms still add in ascending sample order — the order the
/// scalar reference trainer uses. ReLU-masked deltas are mostly zero, so
/// `d == 0` skips whole axpys the way the forward kernel skips zero
/// inputs.
#[inline(always)]
fn grad_generic(
    delta: &[f64],
    acts: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    rows: usize,
    din: usize,
) {
    let dout = gb.len();
    gw.fill(0.0);
    for (o, b) in gb.iter_mut().enumerate() {
        let grow = &mut gw[o * din..(o + 1) * din];
        let mut bsum = 0.0;
        for r in 0..rows {
            let d = delta[r * dout + o];
            if d == 0.0 {
                continue;
            }
            bsum += d;
            let arow = &acts[r * din..(r + 1) * din];
            for (g, &a) in grow.iter_mut().zip(arow) {
                *g += d * a;
            }
        }
        *b = bsum;
    }
}

/// Back-propagate a chunk's deltas through one layer:
/// `prev[r,·] = Σ_o delta[r,o] · w[o,·]`, then ReLU-masked at the previous
/// pre-activation. Input widths [`HIDDEN_WIDTH`] and [`FEATURE_DIM`] run
/// [`delta_fixed`], every other width [`delta_generic`]; both agree bit
/// for bit.
#[inline(always)]
fn delta_kernel(
    delta: &[f64],
    w: &[f64],
    pre_prev: &[f64],
    prev: &mut [f64],
    rows: usize,
    din: usize,
    dout: usize,
) {
    match din {
        HIDDEN_WIDTH => delta_fixed::<HIDDEN_WIDTH>(delta, w, pre_prev, prev, rows, dout),
        FEATURE_DIM => delta_fixed::<FEATURE_DIM>(delta, w, pre_prev, prev, rows, dout),
        _ => delta_generic(delta, w, pre_prev, prev, rows, din, dout),
    }
}

/// Fixed-width delta body: each row's `N`-wide back-propagated delta
/// accumulates in a `[f64; N]` register accumulator over the outputs in
/// ascending order (the scalar reference's order), every output adding
/// its term; the ReLU mask is a select, not a branch.
#[inline(always)]
fn delta_fixed<const N: usize>(
    delta: &[f64],
    w: &[f64],
    pre_prev: &[f64],
    prev: &mut [f64],
    rows: usize,
    dout: usize,
) {
    let wrows = w[..dout * N].as_chunks::<N>().0;
    let rows = delta[..rows * dout]
        .chunks_exact(dout)
        .zip(pre_prev[..rows * N].as_chunks::<N>().0)
        .zip(prev[..rows * N].as_chunks_mut::<N>().0);
    for ((drow, zrow), prow) in rows {
        let mut acc = [0.0f64; N];
        for (&d, wrow) in drow.iter().zip(wrows) {
            for (p, &wv) in acc.iter_mut().zip(wrow) {
                *p += d * wv;
            }
        }
        for ((p, &z), &g) in prow.iter_mut().zip(zrow).zip(&acc) {
            *p = if z <= 0.0 { 0.0 } else { g };
        }
    }
}

/// Generic delta body for any layer shape. Outputs are the outer loop per
/// row — the accumulation order of the scalar reference — and each weight
/// row is a contiguous axpy. Zero deltas skip their whole weight row.
#[inline(always)]
fn delta_generic(
    delta: &[f64],
    w: &[f64],
    pre_prev: &[f64],
    prev: &mut [f64],
    rows: usize,
    din: usize,
    dout: usize,
) {
    prev[..rows * din].fill(0.0);
    for r in 0..rows {
        let drow = &delta[r * dout..(r + 1) * dout];
        let prow = &mut prev[r * din..(r + 1) * din];
        for (o, &d) in drow.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            let wrow = &w[o * din..(o + 1) * din];
            for (p, &wv) in prow.iter_mut().zip(wrow) {
                *p += d * wv;
            }
        }
        let zrow = &pre_prev[r * din..(r + 1) * din];
        for (p, &z) in prow.iter_mut().zip(zrow) {
            if z <= 0.0 {
                *p = 0.0;
            }
        }
    }
}

/// One Adam step over a parameter slice: per element,
/// `m ← β₁m + (1-β₁)g`, `v ← β₂v + (1-β₂)g²`,
/// `w ← w - lr·(m/bc₁)/(√(v/bc₂) + ε)`, with `g` pre-scaled by the
/// batch-mean factor. Exactly the reference trainer's update, element for
/// element — every lane runs the identical operation chain and IEEE
/// division/square root are correctly rounded at any vector width, so the
/// vectorised tiers produce bit-identical parameters. Worth dispatching:
/// the div+sqrt dependency chains make this update a fixed per-step cost
/// comparable to a layer's forward pass.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn adam_kernel(
    w: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    g: &[f64],
    scale: f64,
    lr: f64,
    bc1: f64,
    bc2: f64,
) {
    for (((w, m), v), &g) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        let g = g * scale;
        *m = BETA1 * *m + (1.0 - BETA1) * g;
        *v = BETA2 * *v + (1.0 - BETA2) * g * g;
        *w -= lr * (*m / bc1) / ((*v / bc2).sqrt() + EPS);
    }
}

/// Runtime SIMD tier for the MLP kernels, detected once per `train` call
/// and once per assembled model. Every tier runs the same element-wise
/// operation sequence — the tier changes vector width, never accumulation
/// order (Rust does not contract mul+add into FMA) — so trained weights
/// and predictions are identical across hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Simd {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Scalar,
}

/// Run `f` with AVX-512F enabled (8-wide f64 lanes).
///
/// # Safety
/// Caller must have verified AVX-512F support
/// (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn with_avx512(f: impl FnOnce()) {
    f()
}

/// Run `f` with AVX2 enabled (4-wide f64 lanes).
///
/// # Safety
/// Caller must have verified AVX2 support (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn with_avx2(f: impl FnOnce()) {
    f()
}

impl Simd {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Simd::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Simd::Avx2;
            }
        }
        Simd::Scalar
    }

    /// Run `f` under this tier's `target_feature` wrapper — one boundary
    /// per kernel call, not per axpy. Callers pass an `#[inline(always)]`
    /// closure over an `#[inline(always)]` kernel, so the whole body
    /// inlines into the wrapper and compiles at the tier's vector width.
    #[inline(always)]
    fn run(self, f: impl FnOnce()) {
        match self {
            // SAFETY: variants are selected only after runtime feature
            // detection in `detect`.
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => unsafe { with_avx512(f) },
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => unsafe { with_avx2(f) },
            Simd::Scalar => f(),
        }
    }

    #[inline]
    fn layer(self, a: &[f64], b: &mut [f64], wt: &[f64], bias: &[f64], n: usize, din: usize) {
        self.run(
            #[inline(always)]
            || layer_kernel(a, b, wt, bias, n, din),
        )
    }

    #[inline]
    fn grad(
        self,
        delta: &[f64],
        acts: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
        rows: usize,
        din: usize,
    ) {
        self.run(
            #[inline(always)]
            || grad_kernel(delta, acts, gw, gb, rows, din),
        )
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn delta(
        self,
        delta: &[f64],
        w: &[f64],
        pre_prev: &[f64],
        prev: &mut [f64],
        rows: usize,
        din: usize,
        dout: usize,
    ) {
        self.run(
            #[inline(always)]
            || delta_kernel(delta, w, pre_prev, prev, rows, din, dout),
        )
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn adam(
        self,
        w: &mut [f64],
        m: &mut [f64],
        v: &mut [f64],
        g: &[f64],
        scale: f64,
        lr: f64,
        bc1: f64,
        bc2: f64,
    ) {
        self.run(
            #[inline(always)]
            || adam_kernel(w, m, v, g, scale, lr, bc1, bc2),
        )
    }
}

/// Forward one chunk of rows through the network and back-propagate its
/// gradient partial sums into `st.gw`/`st.gb` (overwritten).
///
/// The forward pass is the inference engine's batched kernel, so the
/// pre-activations equal the scalar reference's per-sample forward bit for
/// bit; the backward kernels accumulate every weight's terms in the same
/// (sample-major, ascending-index) order as the reference. The only
/// float-order difference from the pre-refactor trainer is therefore how
/// chunk partials join across a minibatch — see `Mlp::train`.
#[allow(clippy::too_many_arguments)]
fn chunk_forward_backward(
    layers: &[Dense],
    wt: &[Vec<f64>],
    simd: Simd,
    xs: &[f64],
    targets: &[f64],
    rows: usize,
    loss: Loss<'_>,
    st: &mut ChunkGrads,
) {
    let n_layers = layers.len();
    let ChunkGrads {
        acts,
        pre,
        delta,
        gw,
        gb,
    } = st;
    // Forward. Layer 0 reads the caller's rows in place; buffers are only
    // re-zeroed when the chunk width changes (the kernels overwrite every
    // cell they read).
    for l in 0..n_layers {
        let (din, dout) = (layers[l].in_dim, layers[l].out_dim);
        let need = rows * dout;
        if pre[l].len() != need {
            pre[l].resize(need, 0.0);
        }
        let inp: &[f64] = if l == 0 { xs } else { &acts[l - 1] };
        simd.layer(inp, &mut pre[l], &wt[l], &layers[l].b, rows, din);
        if l + 1 < n_layers {
            let dst = &mut acts[l];
            if dst.len() != need {
                dst.resize(need, 0.0);
            }
            for (d, &s) in dst.iter_mut().zip(&pre[l]) {
                *d = s.max(0.0);
            }
        }
    }
    // Output deltas: `pre[last]` holds `rows × out_dim` pre-activations
    // (one scalar per row for the single-output losses).
    let out_dim = layers[n_layers - 1].out_dim;
    let dlast = &mut delta[n_layers - 1];
    if dlast.len() != rows * out_dim {
        dlast.resize(rows * out_dim, 0.0);
    }
    let outs = &pre[n_layers - 1][..rows * out_dim];
    match loss {
        // d(MSE)/d(out).
        Loss::Mse => {
            for (d, (&out, &t)) in dlast.iter_mut().zip(outs.iter().zip(targets)) {
                *d = 2.0 * (out - t);
            }
        }
        // One pinball sub-gradient per head, all against the row's target,
        // scaled to keep the effective learning rate comparable to MSE.
        Loss::MultiPinball(taus) => {
            for (r, &t) in targets.iter().enumerate() {
                for (h, &tau) in taus.iter().enumerate() {
                    let out = outs[r * out_dim + h];
                    dlast[r * out_dim + h] = if out < t {
                        -2.0 * tau
                    } else {
                        2.0 * (1.0 - tau)
                    };
                }
            }
        }
    }
    for l in (0..n_layers).rev() {
        let layer = &layers[l];
        let inp: &[f64] = if l == 0 { xs } else { &acts[l - 1] };
        simd.grad(&delta[l], inp, &mut gw[l], &mut gb[l], rows, layer.in_dim);
        if l > 0 {
            let (lo, hi) = delta.split_at_mut(l);
            let prev = &mut lo[l - 1];
            let need = rows * layer.in_dim;
            if prev.len() != need {
                prev.resize(need, 0.0);
            }
            simd.delta(
                &hi[0],
                &layer.w,
                &pre[l - 1],
                prev,
                rows,
                layer.in_dim,
                layer.out_dim,
            );
        }
    }
}

/// Compute one minibatch's summed (not yet batch-mean-scaled) gradients
/// into `gw`/`gb`: split the rows into fixed [`GRAD_CHUNK`]-sized chunks,
/// fill each chunk's partial sums (on the worker pool unless `serial`),
/// then reduce the partials in ascending chunk order. The chunk split and
/// the reduction order depend only on `rows`, so the result is bit-
/// identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn minibatch_grads(
    layers: &[Dense],
    wt: &[Vec<f64>],
    simd: Simd,
    xb: &[f64],
    tb: &[f64],
    in_dim: usize,
    loss: Loss<'_>,
    serial: bool,
    chunk_states: &[std::sync::Mutex<ChunkGrads>],
    gw: &mut [Vec<f64>],
    gb: &mut [Vec<f64>],
) {
    let rows = tb.len();
    let n_chunks = rows.div_ceil(GRAD_CHUNK);
    debug_assert!(n_chunks <= chunk_states.len());
    for g in gw.iter_mut() {
        g.fill(0.0);
    }
    for g in gb.iter_mut() {
        g.fill(0.0);
    }
    let reduce = |st: &ChunkGrads, gw: &mut [Vec<f64>], gb: &mut [Vec<f64>]| {
        for l in 0..layers.len() {
            for (g, p) in gw[l].iter_mut().zip(&st.gw[l]) {
                *g += p;
            }
            for (g, p) in gb[l].iter_mut().zip(&st.gb[l]) {
                *g += p;
            }
        }
    };
    let chunk_rows = |c: usize| {
        let lo = c * GRAD_CHUNK;
        (lo, (lo + GRAD_CHUNK).min(rows))
    };
    if serial || n_chunks == 1 {
        // Single-threaded: run every chunk through one state and fold its
        // partials into the accumulators right away. Same chunk partials,
        // same chunk-order summation tree as the pooled path below — so
        // bit-identical results — but one hot ~L1-sized scratch instead of
        // `n_chunks` cold ones per minibatch.
        let st = &mut *chunk_states[0].lock().unwrap();
        for c in 0..n_chunks {
            let (lo, hi) = chunk_rows(c);
            chunk_forward_backward(
                layers,
                wt,
                simd,
                &xb[lo * in_dim..hi * in_dim],
                &tb[lo..hi],
                hi - lo,
                loss,
                st,
            );
            reduce(st, gw, gb);
        }
    } else {
        let task = |c: usize| {
            let (lo, hi) = chunk_rows(c);
            let st = &mut *chunk_states[c].lock().unwrap();
            chunk_forward_backward(
                layers,
                wt,
                simd,
                &xb[lo * in_dim..hi * in_dim],
                &tb[lo..hi],
                hi - lo,
                loss,
                st,
            );
        };
        rayon::pool::run(n_chunks, &task);
        for state in chunk_states.iter().take(n_chunks) {
            reduce(&state.lock().unwrap(), gw, gb);
        }
    }
}

/// The shared minibatch training loop: initialise an
/// `[in, hidden..., out_dim]` network and run `cfg.epochs` of chunked
/// minibatch Adam under `loss`, returning the trained network.
/// [`Mlp::train`] calls this with `out_dim == 1` and [`QuantileMlp::train`]
/// with one output head per quantile. The Adam moments are local to the
/// loop: a trained model carries only its parameters.
fn train_layers(data: &Dataset, cfg: &MlpConfig, out_dim: usize, loss: Loss<'_>) -> Net {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut rng = SeededRng::new(cfg.seed);
    let dims: Vec<usize> = std::iter::once(data.dim())
        .chain(cfg.hidden.iter().copied())
        .chain(std::iter::once(out_dim))
        .collect();
    let mut layers: Vec<Dense> = dims
        .windows(2)
        .map(|w| Dense::new(w[0], w[1], &mut rng))
        .collect();
    let y_mean = data.y_mean();
    let y_std = data.y_std();
    let in_dim = data.dim();

    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    let simd = Simd::detect();
    // The chunked reduction makes weights bit-identical under any
    // dispatch, so dispatch is a pure perf choice: skip the pool on hosts
    // with at most two cores. A minibatch is ~4 chunks of tens of µs each,
    // too little work to pay for a condvar fan-out per minibatch: at the
    // campaign shape on a 2-core host, pooled training measured slower
    // than serial, never faster.
    let serial = cfg.serial || rayon::pool::max_concurrency() <= 2;
    let mut wt = transposed(&layers);
    let batch = cfg.batch_size.max(1);
    let chunk_states: Vec<std::sync::Mutex<ChunkGrads>> = (0..batch.div_ceil(GRAD_CHUNK))
        .map(|_| std::sync::Mutex::new(ChunkGrads::new(&layers)))
        .collect();
    let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
    let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
    // Adam first and second moments, shaped like the (zeroed) gradients.
    let (mut mw, mut vw) = (gw.clone(), gw.clone());
    let (mut mb, mut vb) = (gb.clone(), gb.clone());
    let mut xb: Vec<f64> = Vec::with_capacity(batch * in_dim);
    let mut tb: Vec<f64> = Vec::with_capacity(batch);
    let mut t_step = 0usize;

    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(cfg.batch_size) {
            xb.clear();
            tb.clear();
            for &i in chunk {
                xb.extend_from_slice(&data.x[i]);
                tb.push((data.y[i] - y_mean) / y_std);
            }
            minibatch_grads(
                &layers,
                &wt,
                simd,
                &xb,
                &tb,
                in_dim,
                loss,
                serial,
                &chunk_states,
                &mut gw,
                &mut gb,
            );
            // Adam update with batch-mean gradients — the reference
            // trainer's update element for element, run through the
            // SIMD-dispatched kernel (see `adam_kernel` for why that
            // is bit-identical).
            t_step += 1;
            let scale = 1.0 / chunk.len() as f64;
            let bc1 = 1.0 - BETA1.powi(t_step as i32);
            let bc2 = 1.0 - BETA2.powi(t_step as i32);
            for (l, layer) in layers.iter_mut().enumerate() {
                simd.adam(
                    &mut layer.w,
                    &mut mw[l],
                    &mut vw[l],
                    &gw[l],
                    scale,
                    cfg.lr,
                    bc1,
                    bc2,
                );
                simd.adam(
                    &mut layer.b,
                    &mut mb[l],
                    &mut vb[l],
                    &gb[l],
                    scale,
                    cfg.lr,
                    bc1,
                    bc2,
                );
            }
            refresh_transposed(&layers, &mut wt);
        }
    }
    Net::assemble(layers, y_mean, y_std)
}

impl Net {
    /// Finalise a network from its layers: derives the inference plan
    /// (transposed weight layout) that the batched forward pass uses.
    fn assemble(layers: Vec<Dense>, y_mean: f64, y_std: f64) -> Net {
        let plan = InferencePlan::build(&layers);
        Net {
            layers,
            y_mean,
            y_std,
            plan,
        }
    }

    /// Rebuild a network from [`Net::dims`], [`Net::raw_params`] and the
    /// target scaling, rejecting anything a trainer cannot produce: a
    /// zero-width layer, a non-finite parameter or mean, or a `y_std` that
    /// is non-finite or not positive (`Dataset::y_std` is floored at
    /// 1e-9). A corrupt cache therefore fails to load instead of serving
    /// NaN predictions.
    fn from_raw(dims: &[usize], params: &[f64], y_mean: f64, y_std: f64) -> Result<Net, String> {
        if dims.len() < 2 {
            return Err("need at least input and output dims".into());
        }
        if dims.contains(&0) {
            return Err("zero-width layer".into());
        }
        if !(y_mean.is_finite() && y_std.is_finite() && y_std > 0.0) {
            return Err(format!("bad target scaling: mean {y_mean}, std {y_std}"));
        }
        // Checked, so absurd dims in a corrupt file are an error, not an
        // overflow.
        let expected = dims.windows(2).try_fold(0usize, |n, w| {
            w[0].checked_mul(w[1])?.checked_add(w[1])?.checked_add(n)
        });
        if expected != Some(params.len()) {
            return Err(format!(
                "{} parameters do not fit dims {dims:?}",
                params.len()
            ));
        }
        if let Some(bad) = params.iter().find(|p| !p.is_finite()) {
            return Err(format!("non-finite parameter {bad}"));
        }
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut off = 0;
        for d in dims.windows(2) {
            let (nw, nb) = (d[0] * d[1], d[1]);
            layers.push(Dense {
                in_dim: d[0],
                out_dim: d[1],
                w: params[off..off + nw].to_vec(),
                b: params[off + nw..off + nw + nb].to_vec(),
            });
            off += nw + nb;
        }
        Ok(Net::assemble(layers, y_mean, y_std))
    }

    /// Layer widths `[in, hidden..., out]`.
    fn dims(&self) -> Vec<usize> {
        let mut dims: Vec<usize> = self.layers.iter().map(|l| l.in_dim).collect();
        dims.extend(self.layers.last().map(|l| l.out_dim));
        dims
    }

    /// Number of parameters (weights + biases).
    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Every layer's weights then biases, in layer order.
    fn raw_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// The batched forward pass: `n` rows packed in `xs`, `n × out_dim`
    /// de-standardised, non-negative predictions (row-major) appended to
    /// `out`. Runs entirely in the provided workspace buffers — no
    /// allocation once they are warm.
    ///
    /// Numerically identical to the per-sample path: for every output the
    /// terms accumulate in ascending input order, exactly as
    /// [`Dense::forward`] does, so batched and scalar predictions agree
    /// bit for bit.
    fn forward_into(&self, xs: &[f64], n: usize, ws: &mut Workspace, out: &mut Vec<f64>) {
        let layers = &self.layers;
        assert_eq!(
            xs.len(),
            n * layers[0].in_dim,
            "feature dimension mismatch — retrain the model (stale cache?)"
        );
        if n == 0 {
            return;
        }
        // Both ping-pong buffers stay sized to the widest layer: rows are
        // packed at the current layer's stride inside them, and the bias
        // initialisation below overwrites every cell that will be read, so
        // no per-layer clear/zero-fill is needed.
        let width = self.plan.max_width;
        if ws.a.len() < n * width {
            ws.a.resize(n * width, 0.0);
            ws.b.resize(n * width, 0.0);
        }
        ws.a[..xs.len()].copy_from_slice(xs);
        let n_layers = layers.len();
        for (l, (layer, wt)) in layers.iter().zip(&self.plan.wt).enumerate() {
            let (din, dout) = (layer.in_dim, layer.out_dim);
            self.plan.simd.layer(&ws.a, &mut ws.b, wt, &layer.b, n, din);
            if l + 1 < n_layers {
                for v in ws.b[..n * dout].iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut ws.a, &mut ws.b);
        }
        // `a` now holds the output layer's rows packed at its width.
        let out_dim = layers[n_layers - 1].out_dim;
        out.extend(
            ws.a[..n * out_dim]
                .iter()
                .map(|&z| (z * self.y_std + self.y_mean).max(0.0)),
        );
    }
}

impl Mlp {
    /// Train on `data` with the given config.
    ///
    /// Minibatch matrix form of the original per-sample trainer (kept as
    /// the golden reference in the dev-only `reference::trainer`): each
    /// minibatch is packed into a row matrix, forwarded through the
    /// inference engine's batched SIMD-dispatched kernels, and
    /// back-propagated with batched gradient kernels (register-resident
    /// fixed-width bodies for the paper's widths). Gradients are computed
    /// per fixed `GRAD_CHUNK`-row chunk (fanned out over the worker pool
    /// unless `cfg.serial` or the host has at most two cores) and reduced
    /// in chunk-index order, so the trained weights are bit-identical at
    /// any thread count. RNG consumption (init + per-epoch shuffle) and the
    /// Adam update match the reference exactly; within a chunk every
    /// weight's gradient terms accumulate in the reference's sample-major
    /// order, so the only numeric difference from the reference is the
    /// cross-chunk summation tree (≤ ~1e-9 per step for minibatches wider
    /// than one chunk; bit-identical otherwise).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn train(data: &Dataset, cfg: &MlpConfig) -> Mlp {
        let loss = match cfg.quantile.as_slice() {
            [] => Loss::Mse,
            tau => Loss::MultiPinball(tau),
        };
        Mlp {
            net: train_layers(data, cfg, 1, loss),
        }
    }

    /// Rebuild a model from its [`dims`](Mlp::dims) (`[in, hidden..., 1]`),
    /// [`raw_params`](Mlp::raw_params) and target scaling — the inverse of
    /// those accessors, and what persistence and the reference trainer
    /// build models through.
    ///
    /// # Errors
    /// Rejects an output width other than 1, a parameter count that does
    /// not match `dims`, a zero-width layer, a non-finite parameter or
    /// `y_mean`, and a `y_std` that is non-finite or not positive.
    pub fn from_raw(
        dims: &[usize],
        params: &[f64],
        y_mean: f64,
        y_std: f64,
    ) -> Result<Mlp, String> {
        if dims.last() != Some(&1) {
            return Err("a mean model has a single output".into());
        }
        Net::from_raw(dims, params, y_mean, y_std).map(|net| Mlp { net })
    }

    /// The pre-batching scalar forward pass: one sample, fresh `Vec`s per
    /// layer. Kept as the reference implementation — benches compare the
    /// batched engine against it, and the property tests use it as an
    /// allocation-independent oracle. Accumulates in the same order as the
    /// batched kernel, so both agree bit for bit.
    pub fn predict_one_scalar(&self, x: &[f64]) -> f64 {
        let net = &self.net;
        assert_eq!(
            x.len(),
            net.layers[0].in_dim,
            "feature dimension mismatch — retrain the model (stale cache?)"
        );
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        let n_layers = net.layers.len();
        for (l, layer) in net.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if l + 1 < n_layers {
                for v in next.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        (cur[0] * net.y_std + net.y_mean).max(0.0)
    }

    /// Layer widths `[in, hidden..., 1]` (for persistence and stats).
    pub fn dims(&self) -> Vec<usize> {
        self.net.dims()
    }

    /// Number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// In-memory model size in bytes (f64 parameters), the §7.8 footprint.
    pub fn size_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f64>()
    }

    pub(crate) fn target_scaling(&self) -> (f64, f64) {
        (self.net.y_mean, self.net.y_std)
    }

    /// Flatten every layer's weights then biases, in layer order — the
    /// layout [`Mlp::from_raw`] accepts and the persistence format stores.
    /// Public so external tests can compare trained models parameter-wise.
    pub fn raw_params(&self) -> Vec<f64> {
        self.net.raw_params()
    }
}

impl LatencyModel for Mlp {
    fn predict_one(&self, x: &[f64]) -> f64 {
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            let mut single = std::mem::take(&mut ws.single);
            single.clear();
            self.net.forward_into(x, 1, ws, &mut single);
            let y = single[0];
            ws.single = single;
            y
        })
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            self.net.forward_into(xs, n, ws, out);
        });
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            let mut packed = std::mem::take(&mut ws.packed);
            packed.clear();
            for x in xs {
                packed.extend_from_slice(x);
            }
            let mut out = Vec::with_capacity(xs.len());
            self.net.forward_into(&packed, xs.len(), ws, &mut out);
            ws.packed = packed;
            out
        })
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

/// A multi-head quantile model: one shared trunk with one output head per
/// quantile, trained jointly under per-head pinball losses
/// (`Loss::MultiPinball`). The certification pipeline trains the
/// p90/p95/p99 heads this way and conformally calibrates them (see
/// `conformal`); a three-head 3×32 net costs the same trunk forward as the
/// mean predictor plus two extra output dot products.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileMlp {
    net: Net,
    /// Quantile levels per head, strictly ascending in `(0, 1)`.
    taus: Vec<f64>,
}

/// Check a quantile-head configuration: non-empty, each level in
/// `(0, 1)`, strictly ascending.
fn validate_taus(taus: &[f64]) -> Result<(), String> {
    if taus.is_empty() {
        return Err("need at least one quantile head".into());
    }
    if taus.windows(2).any(|p| p[0] >= p[1]) {
        return Err("quantile levels must be strictly ascending".into());
    }
    match taus.iter().find(|&&t| !(t > 0.0 && t < 1.0)) {
        Some(t) => Err(format!("quantile level {t} outside (0, 1)")),
        None => Ok(()),
    }
}

impl QuantileMlp {
    /// Train the quantile heads on `data`.
    ///
    /// Exactly [`Mlp::train`]'s deterministic chunked minibatch loop with a
    /// `taus.len()`-wide output layer and per-head pinball gradients —
    /// weights are bit-identical at any worker count for the same reason
    /// (fixed `GRAD_CHUNK` split, chunk-index reduction order).
    /// `cfg.quantile` is ignored: the heads' levels come from `taus`.
    ///
    /// # Panics
    /// Panics on an empty dataset or on `taus` that are empty, not
    /// strictly ascending or outside `(0, 1)`.
    pub fn train(data: &Dataset, cfg: &MlpConfig, taus: &[f64]) -> QuantileMlp {
        if let Err(e) = validate_taus(taus) {
            panic!("{e}");
        }
        QuantileMlp {
            net: train_layers(data, cfg, taus.len(), Loss::MultiPinball(taus)),
            taus: taus.to_vec(),
        }
    }

    /// Rebuild quantile heads from their [`dims`](QuantileMlp::dims)
    /// (`[in, hidden..., n_heads]`), [`raw_params`](QuantileMlp::raw_params),
    /// target scaling and levels.
    ///
    /// # Errors
    /// Everything [`Mlp::from_raw`] rejects except the output width, which
    /// must instead equal `taus.len()`; plus levels that
    /// [`QuantileMlp::train`] would panic on.
    pub fn from_raw(
        dims: &[usize],
        params: &[f64],
        y_mean: f64,
        y_std: f64,
        taus: Vec<f64>,
    ) -> Result<QuantileMlp, String> {
        validate_taus(&taus)?;
        if dims.last() != Some(&taus.len()) {
            return Err("output width does not match quantile head count".into());
        }
        let net = Net::from_raw(dims, params, y_mean, y_std)?;
        Ok(QuantileMlp { net, taus })
    }

    /// The quantile levels, one per head, ascending.
    pub fn taus(&self) -> &[f64] {
        &self.taus
    }

    /// Number of output heads.
    pub fn n_heads(&self) -> usize {
        self.taus.len()
    }

    /// Batched multi-head prediction: `n` feature rows packed in `xs`,
    /// `n × n_heads` quantile predictions (ms, row-major, head-minor)
    /// appended to `out` (cleared first). Runs the same allocation-free
    /// batched kernels as [`Mlp::predict_into`].
    ///
    /// Heads are trained independently, so raw quantile curves can cross;
    /// the returned quantiles are rearranged monotone per row (running max
    /// in tau order), which the conformal calibration and the monotonicity
    /// guarantee `q_p90 ≤ q_p95 ≤ q_p99` both rely on. Predictions are
    /// clamped non-negative like the mean model's.
    pub fn predict_quantiles_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        WORKSPACE.with(|cell| self.net.forward_into(xs, n, &mut cell.borrow_mut(), out));
        for row in out.chunks_exact_mut(self.taus.len()) {
            let mut hi = f64::NEG_INFINITY;
            for q in row {
                hi = hi.max(*q);
                *q = hi;
            }
        }
    }

    /// All heads for one feature row (see [`predict_quantiles_into`]).
    ///
    /// [`predict_quantiles_into`]: QuantileMlp::predict_quantiles_into
    pub fn predict_quantiles_one(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.taus.len());
        self.predict_quantiles_into(x, 1, &mut out);
        out
    }

    /// Layer widths `[in, hidden..., n_heads]` (for persistence).
    pub fn dims(&self) -> Vec<usize> {
        self.net.dims()
    }

    /// Number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    pub(crate) fn target_scaling(&self) -> (f64, f64) {
        (self.net.y_mean, self.net.y_std)
    }

    /// Flatten every layer's weights then biases, in layer order — the
    /// layout [`QuantileMlp::from_raw`] accepts and persistence stores.
    pub fn raw_params(&self) -> Vec<f64> {
        self.net.raw_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reference::trainer;

    fn run_minibatch(
        layers: &[Dense],
        xs: &[f64],
        targets: &[f64],
        in_dim: usize,
        loss: Loss<'_>,
        serial: bool,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let wt = transposed(layers);
        let states: Vec<std::sync::Mutex<ChunkGrads>> = (0..targets.len().div_ceil(GRAD_CHUNK))
            .map(|_| std::sync::Mutex::new(ChunkGrads::new(layers)))
            .collect();
        let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        minibatch_grads(
            layers,
            &wt,
            Simd::detect(),
            xs,
            targets,
            in_dim,
            loss,
            serial,
            &states,
            &mut gw,
            &mut gb,
        );
        (gw, gb)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batched chunked gradient pipeline agrees with the scalar
        /// per-sample reference (`reference::trainer::scalar_grads`) to
        /// 1e-9 across random layer shapes, batch sizes and all three loss
        /// shapes (MSE, single pinball, multi-head pinball) — and its
        /// serial and pooled dispatch paths agree with each other bit for
        /// bit.
        #[test]
        fn minibatch_grads_match_scalar_reference(
            seed in 0u64..1024,
            in_dim in 1usize..6,
            hidden in proptest::collection::vec(1usize..9, 0..3),
            rows in 1usize..41,
            mode in 0usize..3,
            tau in 0.05f64..0.95,
            n_heads in 1usize..5,
        ) {
            let taus: Vec<f64> = match mode {
                0 => Vec::new(),
                1 => vec![tau],
                _ => (1..=n_heads).map(|h| 0.5 + 0.45 * h as f64 / n_heads as f64).collect(),
            };
            let (loss, ref_loss) = if taus.is_empty() {
                (Loss::Mse, trainer::Loss::Mse)
            } else {
                (Loss::MultiPinball(&taus), trainer::Loss::MultiPinball(&taus))
            };
            let out_dim = taus.len().max(1);
            let mut rng = SeededRng::new(seed);
            let dims: Vec<usize> = std::iter::once(in_dim)
                .chain(hidden)
                .chain(std::iter::once(out_dim))
                .collect();
            let layers: Vec<Dense> = dims
                .windows(2)
                .map(|w| Dense::new(w[0], w[1], &mut rng))
                .collect();
            // Sparse-ish inputs (~25% zeros) exercise the zero-skip in the
            // forward and gradient kernels.
            let xs: Vec<f64> = (0..rows * in_dim)
                .map(|_| if rng.f64() < 0.25 { 0.0 } else { 2.0 * rng.f64() - 1.0 })
                .collect();
            let targets: Vec<f64> = (0..rows).map(|_| 2.0 * rng.f64() - 1.0).collect();

            let w: Vec<Vec<f64>> = layers.iter().map(|l| l.w.clone()).collect();
            let b: Vec<Vec<f64>> = layers.iter().map(|l| l.b.clone()).collect();
            let (sgw, sgb) = trainer::scalar_grads(&w, &b, &xs, &targets, ref_loss);
            let (gw_ser, gb_ser) = run_minibatch(&layers, &xs, &targets, in_dim, loss, true);
            let (gw_par, gb_par) = run_minibatch(&layers, &xs, &targets, in_dim, loss, false);

            prop_assert_eq!(&gw_ser, &gw_par, "serial vs pooled weight grads");
            prop_assert_eq!(&gb_ser, &gb_par, "serial vs pooled bias grads");
            for l in 0..layers.len() {
                for (j, (g, s)) in gw_ser[l].iter().zip(&sgw[l]).enumerate() {
                    prop_assert!((g - s).abs() <= 1e-9, "layer {} gw[{}]: {} vs {}", l, j, g, s);
                }
                for (j, (g, s)) in gb_ser[l].iter().zip(&sgb[l]).enumerate() {
                    prop_assert!((g - s).abs() <= 1e-9, "layer {} gb[{}]: {} vs {}", l, j, g, s);
                }
            }
        }
    }

    /// Every SIMD tier this host can run.
    fn host_tiers() -> Vec<Simd> {
        let mut tiers = vec![Simd::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(Simd::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(Simd::Avx512);
            }
        }
        tiers
    }

    /// Kernel inputs mixing exact `+0.0`, `-0.0`, negatives and positives.
    fn mixed(rng: &mut SeededRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.index(5) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range_f64(-1.0, 1.0),
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The register-resident fixed-width kernel bodies (which add every
    /// term) agree bit for bit with the generic bodies (which skip zero
    /// terms) on every fixed-width shape, every partial chunk and every
    /// SIMD tier the host has — DESIGN.md §7 rule (3), checked directly.
    /// Accumulators start where training starts them: gradient sums at
    /// `+0.0`, forward sums at a bias that is never `-0.0` (Adam moves a
    /// `+0.0` bias only by nonzero steps, and an exact cancellation rounds
    /// to `+0.0`).
    #[test]
    fn fixed_width_kernels_match_generic_bit_for_bit() {
        let mut rng = SeededRng::new(0xF1C5);
        let shapes = [
            (FEATURE_DIM, HIDDEN_WIDTH),
            (HIDDEN_WIDTH, HIDDEN_WIDTH),
            (HIDDEN_WIDTH, 1),
            (HIDDEN_WIDTH, FEATURE_DIM),
            (HIDDEN_WIDTH, 3),
        ];
        for simd in host_tiers() {
            for rows in 1..=GRAD_CHUNK {
                for (din, dout) in shapes {
                    let acts = mixed(&mut rng, rows * din);
                    let pre_prev = mixed(&mut rng, rows * din);
                    let delta = mixed(&mut rng, rows * dout);
                    let w = mixed(&mut rng, dout * din);
                    // `+ 0.0` turns a `-0.0` bias into `+0.0`.
                    let bias: Vec<f64> =
                        mixed(&mut rng, dout).into_iter().map(|b| b + 0.0).collect();
                    let what = format!("{simd:?} rows {rows} shape {din}x{dout}");

                    // Output buffers start as NaN: both bodies must write
                    // every cell they own.
                    let mut fixed = vec![f64::NAN; rows * dout];
                    let mut generic = fixed.clone();
                    simd.layer(&acts, &mut fixed, &w, &bias, rows, din);
                    simd.run(
                        #[inline(always)]
                        || layer_generic(&acts, &mut generic, &w, &bias, rows, din),
                    );
                    assert_eq!(bits(&fixed), bits(&generic), "forward, {what}");

                    let (mut gw_f, mut gb_f) = (vec![f64::NAN; dout * din], vec![f64::NAN; dout]);
                    let (mut gw_g, mut gb_g) = (gw_f.clone(), gb_f.clone());
                    simd.grad(&delta, &acts, &mut gw_f, &mut gb_f, rows, din);
                    simd.run(
                        #[inline(always)]
                        || grad_generic(&delta, &acts, &mut gw_g, &mut gb_g, rows, din),
                    );
                    assert_eq!(bits(&gw_f), bits(&gw_g), "grad weights, {what}");
                    assert_eq!(bits(&gb_f), bits(&gb_g), "grad biases, {what}");

                    let mut prev_f = vec![f64::NAN; rows * din];
                    let mut prev_g = prev_f.clone();
                    simd.delta(&delta, &w, &pre_prev, &mut prev_f, rows, din, dout);
                    simd.run(
                        #[inline(always)]
                        || delta_generic(&delta, &w, &pre_prev, &mut prev_g, rows, din, dout),
                    );
                    assert_eq!(bits(&prev_f), bits(&prev_g), "delta, {what}");
                }
            }
        }
    }

    /// y = 3*x0 + relu-ish non-linearity of x1.
    fn synthetic(n: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x0 = rng.f64();
            let x1 = rng.f64();
            let y = 10.0 + 30.0 * x0 + 20.0 * (x1 - 0.5).max(0.0);
            d.push(vec![x0, x1], y);
        }
        d
    }

    #[test]
    fn learns_nonlinear_function() {
        let train = synthetic(2000, 1);
        let test = synthetic(300, 2);
        let mlp = Mlp::train(
            &train,
            &MlpConfig {
                hidden: vec![32, 32, 32],
                epochs: 60,
                batch_size: 64,
                lr: 2e-3,
                seed: 3,
                quantile: None,
                serial: false,
            },
        );
        let mape = crate::eval::mape(&mlp, &test);
        assert!(mape < 0.05, "mape {mape}");
    }

    #[test]
    fn deterministic_training() {
        let d = synthetic(200, 4);
        let cfg = MlpConfig {
            epochs: 5,
            ..MlpConfig::default()
        };
        let a = Mlp::train(&d, &cfg);
        let b = Mlp::train(&d, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn paper_sized_model_is_small() {
        // §7.8: the predictor occupies ~14 kB. A 23-input 3x32 MLP:
        // 23*32+32 + 32*32+32 + 32*32+32 + 32+1 = ~2.9k params * 4 B (f32
        // in the paper) ≈ 12 kB; we store f64.
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![0.1 * i as f64; 23], i as f64);
        }
        let mlp = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 1,
                ..MlpConfig::default()
            },
        );
        assert_eq!(
            mlp.param_count(),
            23 * 32 + 32 + 32 * 32 + 32 + 32 * 32 + 32 + 32 + 1
        );
        assert!(mlp.size_bytes() < 30_000);
    }

    #[test]
    fn quantile_training_biases_upward() {
        // With symmetric noise around the mean, a q90 model should predict
        // above the mean most of the time.
        let mut rng = SeededRng::new(9);
        let mut d = Dataset::new();
        for _ in 0..3000 {
            let x = rng.f64();
            let y = 20.0 + 10.0 * x + 2.0 * rng.normal();
            d.push(vec![x], y.max(0.1));
        }
        let mean_model = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 40,
                ..MlpConfig::default()
            },
        );
        let q90 = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 40,
                quantile: Some(0.9),
                ..MlpConfig::default()
            },
        );
        let mut above = 0;
        for i in 0..20 {
            let x = [i as f64 / 20.0];
            if q90.predict_one(&x) > mean_model.predict_one(&x) {
                above += 1;
            }
        }
        assert!(above >= 16, "q90 above mean at {above}/20 points");
        // And it covers ~90% of the observed targets.
        let covered =
            d.x.iter()
                .zip(&d.y)
                .filter(|(x, &y)| q90.predict_one(x) >= y)
                .count();
        let frac = covered as f64 / d.len() as f64;
        assert!((0.80..0.97).contains(&frac), "coverage {frac}");
    }

    /// Noisy linear data for the quantile-head tests.
    fn noisy(n: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x = rng.f64();
            let y = 20.0 + 10.0 * x + 2.0 * rng.normal();
            d.push(vec![x], y.max(0.1));
        }
        d
    }

    #[test]
    fn quantile_heads_are_monotone_and_cover() {
        let d = noisy(3000, 9);
        let q = QuantileMlp::train(
            &d,
            &MlpConfig {
                epochs: 40,
                ..MlpConfig::default()
            },
            &[0.9, 0.95, 0.99],
        );
        assert_eq!(q.n_heads(), 3);
        // Monotone per row by construction, and batched == scalar path.
        let mut packed = Vec::new();
        for i in 0..20 {
            packed.push(i as f64 / 20.0);
        }
        let mut out = Vec::new();
        q.predict_quantiles_into(&packed, 20, &mut out);
        for (r, row) in out.chunks_exact(3).enumerate() {
            assert!(row[0] <= row[1] && row[1] <= row[2], "row {r}: {row:?}");
            assert_eq!(row, &q.predict_quantiles_one(&[r as f64 / 20.0])[..]);
        }
        // Each head covers at least its level minus slack on the train set
        // (pinball loss pulls coverage toward tau).
        for (h, (&tau, floor)) in q.taus().iter().zip([0.80, 0.85, 0.90]).enumerate() {
            let covered =
                d.x.iter()
                    .zip(&d.y)
                    .filter(|(x, &y)| q.predict_quantiles_one(x)[h] >= y)
                    .count();
            let frac = covered as f64 / d.len() as f64;
            assert!(frac >= floor, "head {h} (tau {tau}) coverage {frac}");
        }
    }

    #[test]
    fn quantile_training_is_deterministic() {
        let d = noisy(200, 4);
        let cfg = MlpConfig {
            epochs: 5,
            ..MlpConfig::default()
        };
        let a = QuantileMlp::train(&d, &cfg, &[0.9, 0.95, 0.99]);
        let b = QuantileMlp::train(&d, &cfg, &[0.9, 0.95, 0.99]);
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_raw_roundtrip() {
        let d = noisy(100, 6);
        let q = QuantileMlp::train(
            &d,
            &MlpConfig {
                epochs: 3,
                ..MlpConfig::default()
            },
            &[0.9, 0.95],
        );
        let (y_mean, y_std) = q.target_scaling();
        let rebuilt =
            QuantileMlp::from_raw(&q.dims(), &q.raw_params(), y_mean, y_std, q.taus().to_vec())
                .unwrap();
        assert_eq!(q, rebuilt);
        // A head-count mismatch is an error, not a panic.
        assert!(QuantileMlp::from_raw(&q.dims(), &q.raw_params(), 0.0, 1.0, vec![0.9]).is_err());
    }

    #[test]
    fn predictions_are_clamped_non_negative() {
        let d = synthetic(100, 5);
        let mlp = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 2,
                ..MlpConfig::default()
            },
        );
        assert!(mlp.predict_one(&[-100.0, -100.0]) >= 0.0);
    }

    #[test]
    fn raw_roundtrip() {
        let d = synthetic(100, 6);
        let mlp = Mlp::train(
            &d,
            &MlpConfig {
                epochs: 3,
                ..MlpConfig::default()
            },
        );
        let (y_mean, y_std) = mlp.target_scaling();
        let rebuilt = Mlp::from_raw(&mlp.dims(), &mlp.raw_params(), y_mean, y_std).unwrap();
        // A model is only its parameters, so the rebuild is the model.
        assert_eq!(mlp, rebuilt);
        // A multi-output blob is not a mean model.
        assert!(Mlp::from_raw(&[2, 2], &[0.0; 6], y_mean, y_std).is_err());
    }
}
