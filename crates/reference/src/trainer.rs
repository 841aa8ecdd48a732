//! The scalar per-sample MLP trainer `predictor`'s minibatch trainer
//! replaced: every sample forwarded and back-propagated on its own, its
//! gradient terms folded into the minibatch sums in sample order, then one
//! Adam step on the batch-mean gradients.
//!
//! `Mlp::train` and `QuantileMlp::train` must reproduce it bit for bit when
//! a minibatch fits one gradient chunk and to 1e-9 otherwise
//! (`crates/predictor/tests/golden_trainer.rs`), and [`scalar_grads`] is
//! the oracle the batched gradient kernels are property-tested against. It
//! owns its He init, shuffle and Adam constants, so a change on the
//! production side cannot move the reference with it.

use predictor::{Dataset, Mlp, MlpConfig, QuantileMlp};
use workload::SeededRng;

/// Adam hyper-parameters.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// The loss the output layer is trained under.
#[derive(Clone, Copy)]
pub enum Loss<'a> {
    /// Mean squared error on a single output.
    Mse,
    /// One pinball loss per output head: head `h` trains at `taus[h]`.
    MultiPinball(&'a [f64]),
}

/// Summed (not batch-mean-scaled) gradients of `loss` over the rows of
/// `xs` (packed at the first layer's input width) against `targets`.
///
/// The network is plain slices: layer `l` has row-major
/// `out × in` weights `w[l]` and biases `b[l]`, ReLU between layers and a
/// linear output. Returns the weight and bias gradients in the same shapes,
/// each sum starting at `+0.0` and adding one term per sample in row order.
#[allow(clippy::needless_range_loop)]
pub fn scalar_grads(
    w: &[Vec<f64>],
    b: &[Vec<f64>],
    xs: &[f64],
    targets: &[f64],
    loss: Loss<'_>,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n_layers = w.len();
    let outs: Vec<usize> = b.iter().map(Vec::len).collect();
    let ins: Vec<usize> = w.iter().zip(&outs).map(|(w, &o)| w.len() / o).collect();
    let mut acts: Vec<Vec<f64>> = vec![Vec::new(); n_layers + 1];
    let mut pre: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
    let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
    let mut gw = zeros_like(w);
    let mut gb = zeros_like(b);
    for (x, &target) in xs.chunks_exact(ins[0]).zip(targets) {
        // Forward.
        acts[0].clear();
        acts[0].extend_from_slice(x);
        for l in 0..n_layers {
            pre[l].clear();
            for o in 0..outs[l] {
                let row = &w[l][o * ins[l]..(o + 1) * ins[l]];
                let mut acc = b[l][o];
                for (wi, xi) in row.iter().zip(&acts[l]) {
                    acc += wi * xi;
                }
                pre[l].push(acc);
            }
            let next = &mut acts[l + 1];
            next.clear();
            if l + 1 < n_layers {
                next.extend(pre[l].iter().map(|&v| v.max(0.0)));
            } else {
                next.extend_from_slice(&pre[l]);
            }
        }
        // Output deltas.
        let out = &acts[n_layers];
        let dlast = &mut deltas[n_layers - 1];
        dlast.clear();
        match loss {
            // d(MSE)/d(out).
            Loss::Mse => dlast.push(2.0 * (out[0] - target)),
            // Pinball sub-gradients, scaled to keep the effective learning
            // rate comparable to MSE.
            Loss::MultiPinball(taus) => {
                for (&o, &tau) in out.iter().zip(taus) {
                    dlast.push(if o < target {
                        -2.0 * tau
                    } else {
                        2.0 * (1.0 - tau)
                    });
                }
            }
        }
        // Backward.
        for l in (0..n_layers).rev() {
            let (din, dout) = (ins[l], outs[l]);
            for o in 0..dout {
                let d = deltas[l][o];
                gb[l][o] += d;
                let grow = &mut gw[l][o * din..(o + 1) * din];
                for (gv, &a) in grow.iter_mut().zip(&acts[l]) {
                    *gv += d * a;
                }
            }
            if l > 0 {
                let (lo, hi) = deltas.split_at_mut(l);
                let prev = &mut lo[l - 1];
                prev.clear();
                prev.resize(din, 0.0);
                for o in 0..dout {
                    let d = hi[0][o];
                    let row = &w[l][o * din..(o + 1) * din];
                    for (p, &wv) in prev.iter_mut().zip(row) {
                        *p += d * wv;
                    }
                }
                // ReLU derivative at the previous pre-activation.
                for (p, &z) in prev.iter_mut().zip(&pre[l - 1]) {
                    if z <= 0.0 {
                        *p = 0.0;
                    }
                }
            }
        }
    }
    (gw, gb)
}

/// A trained network in `from_raw` form: layer widths, flat parameters
/// (each layer's weights then biases) and the target standardisation.
struct Raw {
    dims: Vec<usize>,
    params: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// Initialise an `[in, hidden..., out_dim]` network from `cfg.seed` and run
/// `cfg.epochs` of shuffled minibatch Adam on [`scalar_grads`].
fn train_raw(data: &Dataset, cfg: &MlpConfig, out_dim: usize, loss: Loss<'_>) -> Raw {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut rng = SeededRng::new(cfg.seed);
    let dims: Vec<usize> = std::iter::once(data.dim())
        .chain(cfg.hidden.iter().copied())
        .chain(std::iter::once(out_dim))
        .collect();
    // He initialisation for ReLU nets; biases start at zero.
    let mut w: Vec<Vec<f64>> = Vec::new();
    let mut b: Vec<Vec<f64>> = Vec::new();
    for d in dims.windows(2) {
        let scale = (2.0 / d[0] as f64).sqrt();
        w.push((0..d[0] * d[1]).map(|_| rng.normal() * scale).collect());
        b.push(vec![0.0; d[1]]);
    }
    // Adam moments.
    let (mut mw, mut vw) = (zeros_like(&w), zeros_like(&w));
    let (mut mb, mut vb) = (zeros_like(&b), zeros_like(&b));
    let y_mean = data.y_mean();
    let y_std = data.y_std();
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut xs: Vec<f64> = Vec::new();
    let mut targets: Vec<f64> = Vec::new();
    let mut t_step = 0i32;
    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(cfg.batch_size) {
            xs.clear();
            targets.clear();
            for &i in chunk {
                xs.extend_from_slice(&data.x[i]);
                targets.push((data.y[i] - y_mean) / y_std);
            }
            let (gw, gb) = scalar_grads(&w, &b, &xs, &targets, loss);
            // Adam update with batch-mean gradients.
            t_step += 1;
            let scale = 1.0 / chunk.len() as f64;
            let bc1 = 1.0 - BETA1.powi(t_step);
            let bc2 = 1.0 - BETA2.powi(t_step);
            let params = w.iter_mut().zip(&mut mw).zip(&mut vw).zip(&gw);
            let biases = b.iter_mut().zip(&mut mb).zip(&mut vb).zip(&gb);
            for (((p, m), v), g) in params.chain(biases) {
                for j in 0..p.len() {
                    let g = g[j] * scale;
                    m[j] = BETA1 * m[j] + (1.0 - BETA1) * g;
                    v[j] = BETA2 * v[j] + (1.0 - BETA2) * g * g;
                    p[j] -= cfg.lr * (m[j] / bc1) / ((v[j] / bc2).sqrt() + EPS);
                }
            }
        }
    }
    let params = w
        .iter()
        .zip(&b)
        .flat_map(|(w, b)| w.iter().chain(b))
        .copied()
        .collect();
    Raw {
        dims,
        params,
        y_mean,
        y_std,
    }
}

fn zeros_like(v: &[Vec<f64>]) -> Vec<Vec<f64>> {
    v.iter().map(|x| vec![0.0; x.len()]).collect()
}

/// Train the mean model (MSE, or pinball at `cfg.quantile`) the scalar way.
///
/// # Panics
/// Panics on an empty dataset or if training diverges to a non-finite
/// parameter.
pub fn train(data: &Dataset, cfg: &MlpConfig) -> Mlp {
    let loss = match cfg.quantile.as_slice() {
        [] => Loss::Mse,
        tau => Loss::MultiPinball(tau),
    };
    let r = train_raw(data, cfg, 1, loss);
    Mlp::from_raw(&r.dims, &r.params, r.y_mean, r.y_std).expect("reference trainer output")
}

/// Train one quantile head per level in `taus` the scalar way.
///
/// # Panics
/// Panics on an empty dataset, invalid `taus`, or if training diverges to
/// a non-finite parameter.
pub fn train_quantile(data: &Dataset, cfg: &MlpConfig, taus: &[f64]) -> QuantileMlp {
    let r = train_raw(data, cfg, taus.len(), Loss::MultiPinball(taus));
    QuantileMlp::from_raw(&r.dims, &r.params, r.y_mean, r.y_std, taus.to_vec())
        .expect("reference trainer output")
}
